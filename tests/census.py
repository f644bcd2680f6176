"""Exhaustive small-graph census of the path layer.

Every DAG on ``p`` labelled nodes, its CPDAG, and the MPDAG that each single
true arrow of the DAG gives, each distinct graph once; on each, every query
whose treatment and outcome sets have one or two nodes.  Each query checks
the package's path searches against the depth-first walks of
:mod:`helpers`:

* the on-path nodes (``graphs._nodes_on_paths``) and the violating count
  (``identify._count_violating``) against ``possibly_causal_walk``;
* the shortest violating path (``identify._shortest_violating``), with and
  without the V1 gate of ``identify._first_edges``, against ``last_hit``;
* the invalid-set witness (``identify._adjustment_witness``) for every set
  of the other nodes, against ``last_hit`` over ``definite_status_walk``.

p = 4 gives 725 graphs and 30,450 queries, p = 5 gives 37,402 graphs and
4,114,220 queries.  Run as ``PYTHONPATH=src python tests/census.py 5``: it
prints the counts and each mismatch, and exits 1 on any mismatch.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass, field

import mpdag as M
from mpdag.graphs import _checked_sets, _nodes_on_paths
from mpdag.identify import (
    _adjustment_witness,
    _count_violating,
    _first_edges,
    _shortest_violating,
)
from helpers import definite_status_walk, last_hit, possibly_causal_walk

# mismatches kept in full; the rest are only counted
SHOWN = 20


@dataclass
class Census:
    graphs: int = 0
    queries: int = 0
    mismatches: int = 0
    shown: list[str] = field(default_factory=list)


def census_graphs(p: int) -> list[M.PartiallyDirectedGraph]:
    """The distinct CPDAGs of the DAGs on nodes ``v0 … v(p-1)`` and the
    MPDAGs of each CPDAG with one true arrow of one of its DAGs, in the
    order first met."""
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
    return list(found)


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


def check_query(g: M.PartiallyDirectedGraph, a: tuple[str, ...], y: tuple[str, ...]) -> list[str]:
    """The checks of one query that disagree with their oracle, each as a
    line naming the query, the check, the answer and the oracle's."""
    starts, targets = _checked_sets(g, a, y)
    masks, nodes = g._masks, g.nodes
    on_path = 0
    for seq in possibly_causal_walk(g, a, y):
        for i in seq:
            on_path |= 1 << i
    violating = sum(1 for _ in possibly_causal_walk(g, a, y, True))
    shortest = last_hit(possibly_causal_walk(g, a, y, True), lambda seq: True)
    v1, _ = _first_edges(g, starts, targets)
    checks = [
        ("_nodes_on_paths", _nodes_on_paths(g, starts, targets), on_path & ~starts),
        ("_count_violating", _count_violating(g, starts, targets), violating),
        ("_shortest_violating", _shortest_violating(g, starts, targets, None), shortest),
        ("_shortest_violating gated by V1", _shortest_violating(g, starts, targets, v1), shortest),
    ]
    children = masks.children

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

    rest = [v for v in nodes if v not in a and v not in y]
    for k in range(len(rest) + 1):
        for z in itertools.combinations(rest, k):
            witness = _adjustment_witness(g, starts, targets, masks.bits(z))
            got = None if witness is None else tuple(masks.index[n] for n in witness.nodes)
            expected = last_hit(definite_status_walk(g, a, z), non_causal)
            checks.append((f"_adjustment_witness Z={list(z)}", got, expected))
    where = f"graph {'; '.join(g.edge_lines())} A={list(a)} Y={list(y)}"
    return [
        f"{where}: {name} gave {got!r}, the oracle {expected!r}"
        for name, got, expected in checks
        if got != expected
    ]


def run_census(p: int) -> Census:
    """Check every query of every census graph on ``p`` nodes."""
    out = Census()
    for g in census_graphs(p):
        out.graphs += 1
        for k in (1, 2):
            for a in itertools.combinations(g.nodes, k):
                others = [v for v in g.nodes if v not in a]
                for j in (1, 2):
                    for y in itertools.combinations(others, j):
                        out.queries += 1
                        failed = check_query(g, a, y)
                        out.mismatches += len(failed)
                        out.shown.extend(failed[: SHOWN - len(out.shown)])
    return out


if __name__ == "__main__":
    census = run_census(int(sys.argv[1]) if len(sys.argv) > 1 else 4)
    for line in census.shown:
        print(line)
    print(f"{census.graphs} graphs, {census.queries} queries, {census.mismatches} mismatches")
    sys.exit(1 if census.mismatches else 0)
