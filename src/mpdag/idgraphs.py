"""Minimal enumeration of sub-MPDAGs with distinct identified effects.

The recursive enumeration branches, while the effect is unidentified, on the
first edge of a *shortest* proper possibly causal path that starts with an
undirected edge; orienting that edge both ways and re-closing splits the class
of represented DAGs into two.  The recursion terminates in a list of MPDAGs in
each of which the effect is identified, and the list is a partition of the
represented DAGs with pairwise distinct identification formulas.  Branching on
a shortest violating path first is what makes the output minimal: the
orientation order matters.

The recursion tree has one node per branch plus one per output graph, and
each node needs only its shortest violating path, which a bounded search
finds.  Violating paths are enumerated in full once per call, at the root,
for the bound ``m``; the count at each branch of the audit trail is computed
on first read.  The recursion has no stack of its own: it is the branch
walk of :mod:`mpdag.meek`, whose branch-edge rule reads a shortest violating
path, so its depth is not limited by Python's recursion limit.

Also provided are the coarser baseline enumerations used for count
comparisons: listing every represented DAG (method 1), orienting every
undirected edge at the treatments (method 2), and orienting only treatment
edges whose far endpoint lies on a proper possibly causal path to the
outcomes (method 3).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional

from .graphs import GraphError, InternalInconsistencyError, _PathSearch, _checked_sets
from .identify import GFormula, _violating_search, g_formula, is_identified
from .meek import Mpdag, _branch_walk, _Builder, enumerate_dags


@dataclass(frozen=True)
class BranchRecord:
    """One recursion node: the graph, the edge oriented, and the shortest
    violating path that selected it.

    ``violating`` counts the violating paths of the branching graph.  Paths
    are enumerated in full only at the root of :func:`id_graphs`, whose
    record gets that count; any other record counts its graph's paths the
    first time ``violating`` is read and keeps the number.
    """

    graph: tuple[str, ...]  # canonical edge lines of the branching graph
    edge: tuple[str, str]
    path: tuple[str, ...]
    _mpdag: Mpdag = field(repr=False, compare=False)
    _treatments: int = field(repr=False, compare=False)  # node masks
    _outcomes: int = field(repr=False, compare=False)

    @cached_property
    def violating(self) -> int:
        return _violating_search(self._mpdag, self._treatments, self._outcomes).count()

    def to_json(self) -> dict:
        return {
            "graph": list(self.graph),
            "edge": list(self.edge),
            "path": list(self.path),
            "violating_paths": self.violating,
        }


@dataclass(frozen=True)
class EnumerationResult:
    """Output of the minimal enumeration plus its audit trail.

    ``m`` counts the violating paths of the root graph; the output size never
    exceeds 2**m.  It is the one full path enumeration of an
    :func:`id_graphs` call; the per-branch counts of the audit records are
    computed only when read.
    """

    graphs: tuple[Mpdag, ...]
    audit: tuple[BranchRecord, ...]
    m: int

    @property
    def n(self) -> int:
        return len(self.graphs)


def select_branch_edge(
    h: Mpdag, treatments: Iterable[str], outcomes: Iterable[str]
) -> tuple[str, str]:
    """First edge of a shortest violating path (ties broken by node sequence).

    Only meaningful while the effect is unidentified; calling this on an
    identified input is an error.
    """
    checked = _checked_sets(h.graph, treatments, outcomes)
    shortest = _violating_search(h, *checked).shortest()
    if shortest is None:
        raise GraphError("effect already identified; no branch edge")
    return shortest.nodes[0], shortest.nodes[1]


def id_graphs(
    h: Mpdag, treatments: Iterable[str], outcomes: Iterable[str]
) -> EnumerationResult:
    """Enumerate the sub-MPDAGs with distinct identified effects.

    Base case: an identified graph is returned as is.  Otherwise the selected
    branch edge, the undirected first edge of a shortest violating path, is
    oriented both ways as background knowledge, and the results below the two
    children are merged: the branch walk of :mod:`mpdag.meek`, with no stack
    of its own, and a rule that searches each node's graph for that path.
    Output is canonically sorted; the audit trail records each branch in
    depth-first order: a branch, then everything below its ``a1 -> v1``
    child, then everything below its ``v1 -> a1`` child.  Only the root's
    violating paths are enumerated in full (for ``m``).
    """
    # every builder shares h's node order, so the masks hold at every node
    a, y = _checked_sets(h.graph, treatments, outcomes)
    audit: list[BranchRecord] = []
    leaves: dict[tuple, Mpdag] = {}

    def branch_edge(builder: _Builder) -> Optional[tuple[int, int]]:
        # only the root is visited before the first branch is recorded
        current = builder.mpdag() if audit else h
        shortest = _violating_search(current, a, y).shortest()
        if shortest is None:
            leaves[current.key()] = current
            return None
        a1, v1 = shortest.nodes[0], shortest.nodes[1]
        audit.append(
            BranchRecord(
                graph=current.graph.edge_lines(),
                edge=(a1, v1),
                path=shortest.nodes,
                _mpdag=current,
                _treatments=a,
                _outcomes=y,
            )
        )
        return builder.index[a1], builder.index[v1]

    for _ in _branch_walk(_Builder(h.graph), branch_edge):
        pass
    m = 0  # an identified root: its shortest-path search found no path
    if audit:  # the root's record keeps the count
        m = _violating_search(h, a, y).count()
        vars(audit[0])["violating"] = m

    graphs = tuple(leaves[k] for k in sorted(leaves))
    result = EnumerationResult(graphs=graphs, audit=tuple(audit), m=m)
    if result.n > 2 ** result.m:
        raise InternalInconsistencyError(
            f"enumeration produced {result.n} graphs with m={result.m}"
        )
    return result


def _treatment_edge_combos(h: Mpdag, t: int, f: int) -> list[Mpdag]:
    """Every orientation of the undirected edges joining a treatment (a node
    of the mask ``t``) to a node of the mask ``f`` that is valid background
    knowledge for ``h``, sorted canonically: the leaves of the branch walk on
    the first of those edges still undirected, where each prefix of choices
    is closed once (an edge a closure directed has only that orientation).
    Distinct choices orient some edge differently, so no graph repeats."""
    # per node u, the v with u a treatment and v in f, or the other way round
    among = [f * (t >> u & 1) | t * (f >> u & 1) for u in range(len(h.nodes))]
    leaves = _branch_walk(_Builder(h.graph), lambda b: b.first_undirected(among))
    return sorted((leaf.mpdag() for leaf in leaves), key=Mpdag.key)


def method2_graphs(
    h: Mpdag, treatments: Iterable[str], outcomes: Iterable[str]
) -> list[Mpdag]:
    """All valid orientation combinations of the undirected edges at the
    treatment nodes.  Valid means the background-knowledge construction
    succeeds for the combination; results are deduplicated and sorted."""
    a, _ = _checked_sets(h.graph, treatments, outcomes)
    return _treatment_edge_combos(h, a, (1 << len(h.nodes)) - 1)


def method3_graphs(
    h: Mpdag, treatments: Iterable[str], outcomes: Iterable[str]
) -> list[Mpdag]:
    """Like method 2 but restricted to treatment edges whose far endpoint lies
    on a proper possibly causal path from the treatments to the outcomes.

    Every treatment edge into a node off all such paths is left undirected, so
    the output is a coarsening of method 2's: the classes of represented DAGs
    still partition the input class and the effect is identified in each.
    """
    a, y = _checked_sets(h.graph, treatments, outcomes)
    return _treatment_edge_combos(h, a, _PathSearch(h.graph, a, y).nodes_on_paths())


@dataclass(frozen=True)
class PartitionReport:
    ok: bool
    violations: tuple[str, ...] = ()
    dag_counts: tuple[int, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def verify_partition(
    result: EnumerationResult,
    root: Mpdag,
    treatments: Iterable[str],
    outcomes: Iterable[str],
) -> PartitionReport:
    """Audit an enumeration result against its root graph.

    Checks, via DAG enumeration: the members' DAG classes cover exactly the
    root's class and are pairwise disjoint; every member is identified; and no
    two members share an identification formula.  Violations are reported with
    witnesses.
    """
    a_list = sorted(set(treatments))
    y_list = sorted(set(outcomes))
    violations: list[str] = []
    root_dags = {d.edge_lines(): d for d in enumerate_dags(root)}
    member_dags: list[set[tuple[str, ...]]] = []
    for member in result.graphs:
        member_dags.append({d.edge_lines() for d in enumerate_dags(member)})
    covered: set[tuple[str, ...]] = set()
    for dags in member_dags:
        covered |= dags
    missing = set(root_dags) - covered
    extra = covered - set(root_dags)
    if missing:
        violations.append(f"missing DAGs: {sorted(missing)[0]}")
    if extra:
        violations.append(f"foreign DAGs: {sorted(extra)[0]}")
    for (i, left), (j, right) in itertools.combinations(enumerate(member_dags), 2):
        common = left & right
        if common:
            violations.append(
                f"members {i} and {j} overlap on DAG {sorted(common)[0]}"
            )
    formulas: list[GFormula] = []
    for i, member in enumerate(result.graphs):
        verdict = is_identified(member, a_list, y_list)
        if not verdict:
            violations.append(f"member {i} not identified; witness {verdict.witness}")
            continue
        formulas.append(g_formula(member, a_list, y_list))
    for (i, left_f), (j, right_f) in itertools.combinations(enumerate(formulas), 2):
        if left_f == right_f:
            violations.append(f"members {i} and {j} share the formula {left_f}")
    return PartitionReport(
        ok=not violations,
        violations=tuple(violations),
        dag_counts=tuple(len(d) for d in member_dags),
    )
