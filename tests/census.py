"""Exhaustive small-graph census of the path layer and the decisions.

Every DAG on ``p`` labelled nodes, its CPDAG, and the MPDAG that each single
true arrow of the DAG gives, each distinct graph once; on each, every query
whose treatment and outcome sets have one or two nodes.  Two passes check
the package against the depth-first walks of :mod:`helpers`, each query
once per pass.

The path pass (``paths``) checks the searches that return paths:

* the violating count (``identify._count_violating``) against
  ``possibly_causal_walk``;
* the shortest violating path (``identify._shortest_violating``), with and
  without the V1 gate of ``identify._first_edges``, against ``last_hit``;
* for every set Z of the other nodes, the invalid-set witness
  (``identify._adjustment_witness``) against ``last_hit`` over
  ``definite_status_walk``, and on an identified query the verdict of
  ``is_adjustment_set``: ``forbidden`` with the smallest node of the overlap
  where Z meets the forbidden set, else valid exactly when the walk finds
  no open non-causal path, with the walk's path as the witness.

The decision pass (``decisions``) checks the answers that are no path:

* ``identify._first_edges``: V1 is the set of the walk's second nodes, and
  the verdict is that no walk starts with an undirected edge;
* on an identified query, ``forbidden_set`` is the possible descendants
  (``exhaustive_possible_descendants``) of the walk's on-path nodes, and
  ``find_adjustment_set`` returns a valid set exactly when some Z is valid,
  the theorem the search of the canonical set alone rests on;
* on an unidentified query, ``forbidden_set``, ``g_formula``,
  ``is_adjustment_set`` and ``find_adjustment_set`` raise
  ``NotIdentifiedError`` with the witness of ``is_identified``, the walk's
  first shortest violating path;
* with one treatment and one outcome, ``verify_partition`` of ``id_graphs``
  reports no violation.

The forbidden set and the validity of a set are taken from the walks: a
valid Z avoids the possible descendants of the on-path nodes and leaves no
non-causal definite-status path open.

p = 4 gives 725 graphs and 30,450 queries, 16,920 of them identified and
8,700 enumerations; p = 5 gives 37,402 graphs and 4,114,220 queries,
2,319,490 identified and 748,040 enumerations.  Run as
``PYTHONPATH=src python tests/census.py 5 paths`` (or ``decisions``): it
prints the counts and each mismatch, and exits 1 on any mismatch.
"""

from __future__ import annotations

import functools
import itertools
import sys
from dataclasses import dataclass, field

import mpdag as M
from mpdag.graphs import _checked_sets
from mpdag.identify import (
    _adjustment_witness,
    _count_violating,
    _first_edges,
    _shortest_violating,
)
from helpers import (
    definite_status_walk,
    exhaustive_possible_descendants,
    last_hit,
    possibly_causal_walk,
)

# mismatches kept in full; the rest are only counted
SHOWN = 20


@dataclass
class Census:
    graphs: int = 0
    queries: int = 0
    identified: int = 0
    enumerations: int = 0
    mismatches: int = 0
    shown: list[str] = field(default_factory=list)


@functools.lru_cache(maxsize=None)
def census_graphs(p: int) -> tuple[M.PartiallyDirectedGraph, ...]:
    """The distinct CPDAGs of the DAGs on nodes ``v0 … v(p-1)`` and the
    MPDAGs of each CPDAG with one true arrow of one of its DAGs, in the
    order first met; built once per ``p`` and shared by both passes."""
    names = [f"v{i}" for i in range(p)]
    pairs = list(itertools.combinations(range(p), 2))
    found: dict[M.PartiallyDirectedGraph, None] = {}
    requests: dict[tuple[M.PartiallyDirectedGraph, tuple[str, str]], M.Mpdag] = {}
    for marks in itertools.product((0, 1, 2), repeat=len(pairs)):
        children = [0] * p
        for (i, j), mark in zip(pairs, marks):
            if mark == 1:
                children[i] |= 1 << j
            elif mark == 2:
                children[j] |= 1 << i
        if not _acyclic(children):
            continue
        edges = [
            (names[i], names[j]) for i in range(p) for j in range(p) if children[i] >> j & 1
        ]
        cpdag = M.cpdag_of_dag(M.PartiallyDirectedGraph(names, edges))
        found.setdefault(cpdag.graph)
        for arrow in edges:
            if tuple(sorted(arrow)) in cpdag.graph.undirected:
                requests.setdefault((cpdag.graph, arrow), cpdag)
    for (_, arrow), cpdag in requests.items():
        found.setdefault(M.construct_mpdag(cpdag, [arrow]).graph)
    return tuple(found)


def _acyclic(children: list[int]) -> bool:
    """Whether the children masks have no directed cycle: every node can be
    removed as a sink in turn."""
    left = (1 << len(children)) - 1
    while left:
        sinks = [v for v in range(len(children)) if left >> v & 1 and not children[v] & left]
        if not sinks:
            return False
        for v in sinks:
            left ^= 1 << v
    return True


@functools.lru_cache(maxsize=1)
def _possible_descendants(g: M.PartiallyDirectedGraph) -> tuple[int, ...]:
    """The mask of the possible descendants of each node, from
    ``exhaustive_possible_descendants``; the queries come graph by graph."""
    return tuple(g._masks.bits(exhaustive_possible_descendants(g, [v])) for v in g.nodes)


def _walk(g: M.PartiallyDirectedGraph, a, y, starts: int) -> tuple[int, bool, int]:
    """What the walk over the proper possibly causal paths of one query
    says: the mask of their second nodes, whether one starts with an
    undirected edge, and the mask of the forbidden set, the possible
    descendants of the nodes after the first."""
    undirected = g._masks.undirected
    on_path = second = 0
    undirected_start = False
    for seq in possibly_causal_walk(g, a, y):
        second |= 1 << seq[1]
        undirected_start |= bool(undirected[seq[0]] >> seq[1] & 1)
        for i in seq:
            on_path |= 1 << i
    on_path &= ~starts
    reach = _possible_descendants(g)
    forbidden = 0
    for i in range(len(reach)):
        if on_path >> i & 1:
            forbidden |= reach[i]
    return second, undirected_start, forbidden


def _open_non_causal(g: M.PartiallyDirectedGraph, a, z, targets: int):
    """The walk's first open non-causal definite-status path from ``a`` to
    the outcome mask ``targets`` given ``z``, as node indices, or None."""
    children = g._masks.children

    def non_causal(seq: list[int]) -> bool:
        # ends in an outcome, and some node has a child earlier on the path
        if not targets >> seq[-1] & 1:
            return False
        members = 0
        for i in seq:
            if children[i] & members:
                return True
            members |= 1 << i
        return False

    return last_hit(definite_status_walk(g, a, z), non_causal)


def _other_sets(g: M.PartiallyDirectedGraph, a, y):
    """Every set of the nodes outside ``a`` and ``y``, smallest first."""
    rest = [v for v in g.nodes if v not in a and v not in y]
    for k in range(len(rest) + 1):
        yield from itertools.combinations(rest, k)


def _verdict(verdict: M.AdjustmentVerdict, g: M.PartiallyDirectedGraph) -> tuple:
    path = verdict.witness_path
    nodes = None if path is None else tuple(g._masks.index[n] for n in path.nodes)
    return verdict.valid, verdict.reason, verdict.witness_node, nodes


def check_paths(
    g: M.PartiallyDirectedGraph, a: tuple[str, ...], y: tuple[str, ...], census: Census
) -> list[tuple]:
    """The path pass on one query: each check as ``(name, answer, oracle)``."""
    starts, targets = _checked_sets(g, a, y)
    masks = g._masks
    violating = sum(1 for _ in possibly_causal_walk(g, a, y, True))
    shortest = last_hit(possibly_causal_walk(g, a, y, True), lambda seq: True)
    v1, _ = _first_edges(g, starts, targets)
    checks = [
        ("_count_violating", _count_violating(g, starts, targets), violating),
        ("_shortest_violating", _shortest_violating(g, starts, targets, None), shortest),
        ("_shortest_violating gated by V1", _shortest_violating(g, starts, targets, v1), shortest),
    ]
    identified = not violating
    census.identified += identified
    forbidden = _walk(g, a, y, starts)[2] if identified else 0
    h = M.Mpdag(g)
    for z in _other_sets(g, a, y):
        z_mask = masks.bits(z)
        expected = _open_non_causal(g, a, z, targets)
        witness = _adjustment_witness(g, starts, targets, z_mask)
        got = None if witness is None else tuple(masks.index[n] for n in witness.nodes)
        checks.append((f"_adjustment_witness Z={list(z)}", got, expected))
        if not identified:
            continue
        if z_mask & forbidden:
            oracle = (False, "forbidden", min(g._names(z_mask & forbidden)), None)
        elif expected is None:
            oracle = (True, None, None, None)
        else:
            oracle = (False, "open_path", None, expected)
        verdict = _verdict(M.is_adjustment_set(h, a, y, z), g)
        checks.append((f"is_adjustment_set Z={list(z)}", verdict, oracle))
    return checks


def _refusal(query, h: M.Mpdag, a, y):
    """The witness of the ``NotIdentifiedError`` that ``query`` raises, or
    what it returns instead."""
    try:
        return query(h, a, y)
    except M.NotIdentifiedError as error:
        return error.witness


REFUSING = {
    "forbidden_set": M.forbidden_set,
    "g_formula": M.g_formula,
    "is_adjustment_set": lambda h, a, y: M.is_adjustment_set(h, a, y, []),
    "find_adjustment_set": M.find_adjustment_set,
}


def check_decisions(
    g: M.PartiallyDirectedGraph, a: tuple[str, ...], y: tuple[str, ...], census: Census
) -> list[tuple]:
    """The decision pass on one query: each check as ``(name, answer,
    oracle)``."""
    starts, targets = _checked_sets(g, a, y)
    second, undirected_start, forbidden = _walk(g, a, y, starts)
    identified = not undirected_start
    census.identified += identified
    checks = [("_first_edges", _first_edges(g, starts, targets), (second, identified))]
    h = M.Mpdag(g)
    if identified:
        checks.append(("forbidden_set", M.forbidden_set(h, a, y), g._names(forbidden)))

        def valid(z) -> bool:
            z_mask = g._masks.bits(z)
            return not z_mask & forbidden and _open_non_causal(g, a, z, targets) is None

        found = M.find_adjustment_set(h, a, y)
        exists = any(valid(z) for z in _other_sets(g, a, y))
        checks.append((
            "find_adjustment_set valid", None if found is None else valid(found), exists or None
        ))
    else:
        # the walk's first shortest violating path
        shortest = last_hit(possibly_causal_walk(g, a, y, True), lambda seq: True)
        witness = M.path_in(g, [g.nodes[i] for i in shortest])
        checks.append(("is_identified witness", M.is_identified(h, a, y).witness, witness))
        checks.extend(
            (f"{name} refusal", _refusal(query, h, a, y), witness)
            for name, query in REFUSING.items()
        )
    if len(a) == len(y) == 1:
        census.enumerations += 1
        report = M.verify_partition(M.id_graphs(h, a, y), h, a, y)
        checks.append(("verify_partition", report.violations, ()))
    return checks


PASSES = {"paths": check_paths, "decisions": check_decisions}


def run_census(p: int, check=check_paths) -> Census:
    """Check every query of every census graph on ``p`` nodes with one pass,
    ``check_paths`` or ``check_decisions``."""
    out = Census()
    for g in census_graphs(p):
        out.graphs += 1
        for k in (1, 2):
            for a in itertools.combinations(g.nodes, k):
                others = [v for v in g.nodes if v not in a]
                for j in (1, 2):
                    for y in itertools.combinations(others, j):
                        out.queries += 1
                        failed = [c for c in check(g, a, y, out) if c[1] != c[2]]
                        if not failed:
                            continue
                        out.mismatches += len(failed)
                        where = f"graph {'; '.join(g.edge_lines())} A={list(a)} Y={list(y)}"
                        out.shown.extend(
                            f"{where}: {name} gave {got!r}, the oracle {expected!r}"
                            for name, got, expected in failed[: SHOWN - len(out.shown)]
                        )
    return out


if __name__ == "__main__":
    p = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    name = sys.argv[2] if len(sys.argv) > 2 else "paths"
    census = run_census(p, PASSES[name])
    for line in census.shown:
        print(line)
    print(
        f"{name}: {census.graphs} graphs, {census.queries} queries, "
        f"{census.identified} identified, {census.enumerations} enumerations, "
        f"{census.mismatches} mismatches"
    )
    sys.exit(1 if census.mismatches else 0)
