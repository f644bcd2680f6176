"""Minimal enumeration of sub-MPDAGs with distinct identified effects.

The recursive enumeration branches, while the effect is unidentified, on the
first edge of a *shortest* proper possibly causal path that starts with an
undirected edge; orienting that edge both ways and re-closing splits the class
of represented DAGs into two.  The recursion terminates in a list of MPDAGs in
each of which the effect is identified, and the list is a partition of the
represented DAGs with pairwise distinct identification formulas.  Branching on
a shortest violating path first is what makes the output minimal: the
orientation order matters.

The recursion tree has one node per branch plus one per output graph.  On a
graph that is closed and represents a DAG, the first-edge search of
:mod:`mpdag.identify` decides each node first, in polynomial time: a leaf
runs no path search, and a branch searches only from the undirected first
edges into V1.  That search grows path prefixes one length at a time, keeps
one prefix per state (last node, node set) and stops at the first violating
path, the first shortest in node sequence order.  No call enumerates
violating paths: the count at each branch of the audit trail, the root's
bound ``m`` included, is computed on first read, carried per state rather
than path by path.  The recursion has no stack of its own: it is the branch
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

from .graphs import GraphError, InternalInconsistencyError, PartiallyDirectedGraph
from .graphs import _bit_indices, _checked_sets, _index_pairs
from .identify import GFormula, g_formula, is_identified
from .identify import _count_violating, _first_edges, _shortest_violating
from .meek import _SOUND, Mpdag, _branch_walk, _Builder, enumerate_dags


@dataclass(frozen=True)
class BranchRecord:
    """One recursion node: the graph, the edge oriented, and the shortest
    violating path that selected it.

    ``graph``, the canonical edge lines of the branching graph, and
    ``violating``, the number of its violating paths, are read off that graph
    the first time they are read; the record keeps them.
    """

    edge: tuple[str, str]
    path: tuple[str, ...]
    _mpdag: Mpdag = field(repr=False)  # the branching graph
    _treatments: int = field(repr=False, compare=False)  # node masks
    _outcomes: int = field(repr=False, compare=False)

    @cached_property
    def graph(self) -> tuple[str, ...]:
        return self._mpdag.graph.edge_lines()

    @cached_property
    def violating(self) -> int:
        return _count_violating(self._mpdag.graph, self._treatments, self._outcomes)

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

    ``m`` counts the violating paths of the root graph: the root record's
    ``violating``, or 0 when the audit is empty (an identified root).  It is
    computed on first read, which also checks that the output size never
    exceeds 2**m.
    """

    graphs: tuple[Mpdag, ...]
    audit: tuple[BranchRecord, ...]

    @property
    def n(self) -> int:
        return len(self.graphs)

    @cached_property
    def m(self) -> int:
        m = self.audit[0].violating if self.audit else 0
        if self.n > 2 ** m:
            raise InternalInconsistencyError(
                f"enumeration produced {self.n} graphs with m={m}"
            )
        return m


def _branch_path(
    g: PartiallyDirectedGraph, a: int, y: int, sound: bool
) -> Optional[tuple[str, ...]]:
    """The shortest violating path of the treatment mask ``a`` and the
    outcome mask ``y`` in ``g``, as node names, or None.  A graph with no
    undirected edge out of the treatments has none.  On a ``sound`` graph,
    closed and representing a DAG, :func:`_first_edges` decides next, so an
    identified graph is searched no further, and the search starts only from
    the undirected first edges into V1.  Any other graph gets the search
    from every undirected first edge, which is exact on any PDAG."""
    undirected, first_edges = g._masks.undirected, 0
    for t in _bit_indices(a):
        first_edges |= undirected[t]
    if not first_edges & ~a:
        return None
    v1 = None
    if sound:
        v1, identified = _first_edges(g, a, y)
        if identified:
            return None
    seq = _shortest_violating(g, a, y, v1)
    return None if seq is None else tuple([g.nodes[i] for i in seq])


def select_branch_edge(
    h: Mpdag, treatments: Iterable[str], outcomes: Iterable[str]
) -> tuple[str, str]:
    """First edge of a shortest violating path (ties broken by node sequence).

    Only meaningful while the effect is unidentified; calling this on an
    identified input is an error.
    """
    g = h.graph
    a, y = _checked_sets(g, treatments, outcomes)
    shortest = _branch_path(g, a, y, getattr(g, _SOUND, False))
    if shortest is None:
        raise GraphError("effect already identified; no branch edge")
    return shortest[0], shortest[1]


def id_graphs(
    h: Mpdag, treatments: Iterable[str], outcomes: Iterable[str]
) -> EnumerationResult:
    """Enumerate the sub-MPDAGs with distinct identified effects.

    Base case: an identified graph is returned as is.  Otherwise the selected
    branch edge, the undirected first edge of a shortest violating path, is
    oriented both ways as background knowledge, and the results below the two
    children are merged: the branch walk of :mod:`mpdag.meek`, with no stack
    of its own, and a rule that finds that path in each node's graph
    (:func:`_branch_path`), gated by the first-edge search wherever the
    node's builder is sound.  Output is canonically sorted; the audit trail
    records each branch in depth-first order: a branch, then everything
    below its ``a1 -> v1`` child, then everything below its ``v1 -> a1``
    child.  No violating path is counted until ``m`` or a record's
    ``violating`` is read.
    A root not flagged sound is proved class-nonempty when its builder is
    made if it is closed, or else where its first branch closure ends
    (:mod:`mpdag.meek`), so a snapshot is searched for a directed cycle only
    below a class-empty root.
    """
    # every builder shares h's node order, so the masks hold at every node
    a, y = _checked_sets(h.graph, treatments, outcomes)
    audit: list[BranchRecord] = []
    leaves: list[Mpdag] = []

    def branch_edge(builder: _Builder) -> Optional[tuple[int, int]]:
        # only the root is visited before the first branch is recorded
        current = builder.mpdag() if audit else h
        shortest = _branch_path(current.graph, a, y, builder.sound)
        if shortest is None:
            leaves.append(current)
            return None
        a1, v1 = shortest[0], shortest[1]
        audit.append(
            BranchRecord(
                edge=(a1, v1),
                path=shortest,
                _mpdag=current,
                _treatments=a,
                _outcomes=y,
            )
        )
        return builder.index[a1], builder.index[v1]

    for _ in _branch_walk(_Builder(h.graph), branch_edge):
        pass
    # The leaves partition the root's class, as sibling subtrees differ in
    # their branch edge, so no two are equal.  All share the node tuple and
    # the skeleton, so their directed pairs alone, the directed half of
    # Mpdag.key, give its order.
    leaves.sort(key=lambda leaf: _index_pairs(leaf.graph._masks.children))
    return EnumerationResult(graphs=tuple(leaves), audit=tuple(audit))


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
    The far endpoints are taken from V1 (:func:`mpdag.identify._first_edges`):
    the second nodes of those paths, from any treatment and over a directed
    or an undirected first edge.  On the treatment edges these are the nodes
    on the paths, as the property tests check against a walk over every
    path, and no path is searched to find them.
    """
    a, y = _checked_sets(h.graph, treatments, outcomes)
    return _treatment_edge_combos(h, a, _first_edges(h.graph, a, y)[0])


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
    root_dags = {d.edge_lines() for d in enumerate_dags(root)}
    member_dags = [{d.edge_lines() for d in enumerate_dags(m)} for m in result.graphs]
    covered = set().union(*member_dags)
    missing = root_dags - covered
    extra = covered - root_dags
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
