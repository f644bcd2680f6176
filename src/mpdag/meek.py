"""Orientation machinery: the four Meek rules, maximal orientation with
background knowledge, CPDAGs of DAGs, and enumeration of represented DAGs.

The rules, phrased as "orient u -- v into u -> v when ...":

* R1: some parent of u is nonadjacent to v.
* R2: there is a two-chain u -> w -> v.
* R3: two nonadjacent undirected neighbours of u are both parents of v.
* R4: u has undirected neighbours a and b with a -> b -> v and a nonadjacent
  to v.

Applying them to a fixpoint turns a valid PDAG into a maximally oriented one;
orienting an undirected edge of an MPDAG and re-closing implements the
background-knowledge construction.  Rule application order is fixed so that
intermediate traces are reproducible: each step applies the first firing
(rule, edge, direction) triple, rules in the order R1..R4, undirected edges in
node order, and ``u -> v`` before ``v -> u`` for an edge ``u -- v`` with
``u < v``.  The fixpoint itself is order-independent (Meek 1995); the order
decides which directed cycle a class-empty PDAG reports.

The closure works on per-node bitmasks and keeps a table of the edges on
which some rule fires.  The skeleton never changes, and a rule for ``u -> v``
reads only the parents, children and undirected neighbours of ``u``, the
parents of ``v`` and the parents of the undirected neighbours of ``u``.  So
orienting ``t -> h`` re-checks only the undirected edges at ``t`` or ``h``
and those joining an undirected neighbour of ``h`` to a child of ``h``, all
of them within the closed neighbourhood N[h].  Graphs a closure produced are
marked as closed, so orienting an edge of one re-checks only that
neighbourhood; any other input, a plain ``Mpdag(g)`` wrapper included, gets
one full scan at its first closure.

The result graph is built without re-validation from the builder's edge sets
and bitmasks, which it keeps for its own path searches.  Only the checks that
hold by construction are skipped (known endpoints, no self loop, one edge per
pair); acyclicity is still checked by a Kahn pass over the masks, and a
cyclic result goes through the validating constructor, so a class-empty
input reports the directed-cycle witness that constructor finds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graphs import (
    GraphError,
    InternalInconsistencyError,
    PartiallyDirectedGraph,
    _AdjacencyMasks,
    _bit_indices,
)


class OrientationConflictError(GraphError):
    """A background-knowledge request contradicts the current graph (FAIL)."""

    def __init__(self, request: tuple[str, str], reason: str) -> None:
        tail, head = request
        super().__init__(f"cannot orient {tail} -> {head}: {reason}")
        self.request = request
        self.reason = reason


@dataclass(frozen=True)
class Mpdag:
    """A partially directed graph certified closed under the Meek rules."""

    graph: PartiallyDirectedGraph

    @property
    def nodes(self) -> tuple[str, ...]:
        return self.graph.nodes

    def key(self) -> tuple:
        """Canonical sort/equality key."""
        return (
            self.graph.nodes,
            tuple(self.graph.sorted_directed()),
            tuple(self.graph.sorted_undirected()),
        )


_CLOSED = "_meek_closed"  # set on graphs a closure produced


class _Builder:
    """Mutable adjacency bitmasks used while running the rules.

    Bit ``i`` of a mask stands for ``nodes[i]``; node index order is name
    order.  ``adj`` is the skeleton, which the rules never change.
    ``_firing`` maps each undirected edge ``(i, j)``, ``i < j``, on which a
    rule fires to its first firing ``(rule, i, j, direction)``, direction 0
    meaning ``i -> j``.  Until ``_unscanned`` is cleared by a full scan the
    table is empty and means nothing; from then on each orientation updates
    it.
    """

    def __init__(self, g: PartiallyDirectedGraph) -> None:
        masks = g._masks
        self.source = g
        self.nodes = g.nodes
        self.index = masks.index
        self.adj = masks.neighbours
        self.children = list(masks.children)
        self.und = list(masks.undirected)
        self.parents = list(masks.parents)
        self._firing: dict[tuple[int, int], tuple[int, int, int, int]] = {}
        self._oriented: list[tuple[int, int]] = []
        # A graph from a closure has no firing edge; any other input gets a
        # full scan at its first closure.
        self._unscanned = not getattr(g, _CLOSED, False)

    @property
    def closed(self) -> bool:
        return not self._unscanned and not self._firing

    def orient(self, tail: int, head: int) -> None:
        self.und[tail] &= ~(1 << head)
        self.und[head] &= ~(1 << tail)
        self.children[tail] |= 1 << head
        self.parents[head] |= 1 << tail
        self._oriented.append((tail, head))
        self._firing.pop((min(tail, head), max(tail, head)), None)
        if not self._unscanned:
            self._recheck_around(tail, head)

    def snapshot(self) -> PartiallyDirectedGraph:
        """The current graph: the source graph's edge sets with the
        orientations applied, and the builder's masks as its ``_masks``."""
        nodes = self.nodes
        new = [(nodes[t], nodes[h]) for t, h in self._oriented]
        g = PartiallyDirectedGraph._trusted(
            nodes,
            self.source.directed.union(new),
            self.source.undirected.difference(
                (t, h) if t < h else (h, t) for t, h in new
            ),
            _AdjacencyMasks(
                self.index,
                self.adj,
                tuple(self.children),
                tuple(self.und),
                tuple(self.parents),
            ),
        )
        if self.closed:
            object.__setattr__(g, _CLOSED, True)
        return g

    # -- the table of firing edges -------------------------------------------

    def _r3(self, shared: int) -> bool:
        """R3 for a tail whose undirected neighbours among the head's parents
        are ``shared``: two of them are nonadjacent."""
        if not shared & (shared - 1):  # fewer than two
            return False
        adj = self.adj
        return any(shared & ~(adj[w] | 1 << w) for w in _bit_indices(shared))

    def _r4(self, und_tail: int, shared: int, head: int) -> bool:
        """R4: some ``b`` in ``shared`` has a parent ``a`` that is an
        undirected neighbour of the tail and nonadjacent to the head."""
        # the head is undirected at the tail but never a parent of b; leaving
        # it out lets the test below end early
        candidates = und_tail & ~(self.adj[head] | 1 << head)
        if not (shared and candidates):
            return False
        parents = self.parents
        return any(candidates & parents[b] for b in _bit_indices(shared))

    def _update(self, u: int, v: int) -> None:
        """Re-check the undirected edge ``u -- v``, ``u < v``: record its
        first firing, trying R1..R4 in turn, ``u -> v`` before ``v -> u``."""
        parents, children, und, adj = self.parents, self.children, self.und, self.adj
        pu, pv = parents[u], parents[v]
        # R3 and R4 look at the tail's undirected neighbours among the head's
        # parents
        shared_u, shared_v = und[u] & pv, und[v] & pu
        if pu & ~adj[v]:
            hit = 0, 0
        elif pv & ~adj[u]:
            hit = 0, 1
        elif children[u] & pv:
            hit = 1, 0
        elif children[v] & pu:
            hit = 1, 1
        elif self._r3(shared_u):
            hit = 2, 0
        elif self._r3(shared_v):
            hit = 2, 1
        elif self._r4(und[u], shared_u, v):
            hit = 3, 0
        elif self._r4(und[v], shared_v, u):
            hit = 3, 1
        else:
            self._firing.pop((u, v), None)
            return
        self._firing[u, v] = (hit[0], u, v, hit[1])

    def _recheck_around(self, tail: int, head: int) -> None:
        """Re-check every edge whose rules read a mask that ``tail -> head``
        changed: the edges at ``tail`` or ``head``, and for R4 (with ``b =
        head``) those joining an undirected neighbour of ``head`` to a child
        of ``head``.  All of them have an endpoint in N[head]."""
        und, children = self.und, self.children[head]
        pairs = [(x, y) for x in (tail, head) for y in _bit_indices(und[x])]
        pairs += [
            (u, v)
            for u in _bit_indices(und[head])
            for v in _bit_indices(und[u] & children)
        ]
        for u, v in {(x, y) if x < y else (y, x) for x, y in pairs}:
            self._update(u, v)

    def close(self) -> None:
        """Apply R1-R4 until no rule fires anywhere, each step taking the
        first firing (rule, edge, direction)."""
        if self._unscanned:
            self._unscanned = False
            for u, mask in enumerate(self.und):
                for v in _bit_indices(mask >> (u + 1) << (u + 1)):
                    self._update(u, v)
        while self._firing:
            _, u, v, direction = min(self._firing.values())
            self.orient(*((v, u) if direction else (u, v)))


def _snapshot_or_raise(builder: "_Builder", context: str) -> PartiallyDirectedGraph:
    # A class-empty PDAG (one representing no DAG at all) can drive the rules
    # into a directed cycle; surface that as an internal inconsistency rather
    # than a plain invalid-graph error.
    try:
        return builder.snapshot()
    except GraphError as exc:
        raise InternalInconsistencyError(f"{context}: {exc}") from exc


def meek_closure(g: PartiallyDirectedGraph) -> Mpdag:
    """Close a valid PDAG under R1-R4.

    Idempotent and monotone: the skeleton is unchanged and the directed edge
    set only grows.  Soundness of the rules means no directed cycle can
    appear; if one does, an internal-inconsistency error is raised.
    """
    builder = _Builder(g)
    builder.close()
    return Mpdag(_snapshot_or_raise(builder, "rule closure produced an invalid graph"))


def construct_mpdag(h: Mpdag, requests: Sequence[tuple[str, str]]) -> Mpdag:
    """Add background-knowledge orientations to an MPDAG, re-closing each time.

    Requests are processed in the given order.  A request whose edge is
    currently undirected is oriented and the rules are iterated to a fixpoint;
    one that already holds is a no-op; one that contradicts the graph (edge
    or endpoint missing, or edge directed the other way) raises
    :class:`OrientationConflictError` -- the FAIL outcome.
    """
    builder = _Builder(h.graph)
    index = builder.index
    for tail, head in requests:
        t, v = index.get(tail), index.get(head)
        if t is None or v is None:
            raise OrientationConflictError((tail, head), "no such edge")
        if builder.und[t] >> v & 1:
            builder.orient(t, v)
            builder.close()
        elif builder.children[t] >> v & 1:
            pass
        elif builder.parents[t] >> v & 1:
            raise OrientationConflictError((tail, head), f"graph has {head} -> {tail}")
        else:
            raise OrientationConflictError((tail, head), "no such edge")
    return Mpdag(_snapshot_or_raise(builder, "orientation produced an invalid graph"))


def cpdag_of_dag(d: PartiallyDirectedGraph) -> Mpdag:
    """The CPDAG of a DAG: skeleton plus unshielded colliders, then closure."""
    if not d.is_directed:
        raise GraphError("input must be a DAG (fully directed)")
    d.topological_order()  # raises if cyclic
    directed: set[tuple[str, str]] = set()
    for a, b, c in d.unshielded_colliders():
        directed.add((a, b))
        directed.add((c, b))
    undirected = d.skeleton - {tuple(sorted(e)) for e in directed}
    cpdag = meek_closure(PartiallyDirectedGraph(d.nodes, directed, undirected))
    if not is_represented(d, cpdag):
        raise InternalInconsistencyError("DAG not represented by its own CPDAG")
    return cpdag


def is_represented(d: PartiallyDirectedGraph, h: Mpdag) -> bool:
    """Is DAG ``d`` in the class of ``h``: same skeleton, same unshielded
    colliders, and every directed edge of ``h`` kept with its orientation."""
    if set(d.nodes) != set(h.graph.nodes):
        raise GraphError("node sets differ")
    if not d.is_directed:
        raise GraphError("first argument must be a DAG (fully directed)")
    return (
        d.skeleton == h.graph.skeleton
        and d.unshielded_colliders() == h.graph.unshielded_colliders()
        and h.graph.directed <= d.directed
    )


def enumerate_dags(h: Mpdag) -> list[PartiallyDirectedGraph]:
    """All DAGs represented by an MPDAG.

    Branches on the first undirected edge in node order, orients it both ways
    through the background-knowledge construction, and collects the fully
    directed leaves.  Output is deduplicated and sorted canonically; every
    member passes :func:`is_represented`.
    """
    leaves: dict[tuple, PartiallyDirectedGraph] = {}
    stack = [h]
    while stack:
        current = stack.pop()
        und = current.graph.sorted_undirected()
        if not und:
            leaves[current.key()] = current.graph
            continue
        u, v = und[0]
        for request in ((u, v), (v, u)):
            try:
                stack.append(construct_mpdag(current, [request]))
            except OrientationConflictError:
                continue
    return [leaves[k] for k in sorted(leaves)]


def consistent_extension(h: Mpdag) -> PartiallyDirectedGraph:
    """One DAG represented by the MPDAG: the first leaf of the branch tree,
    orienting each branch edge from its smaller endpoint first.

    Orients the smallest undirected edge ``u -- v`` as ``u -> v`` and
    re-closes, on one builder, until no undirected edge is left.  Orienting
    an undirected edge of a closed graph always succeeds; only a class-empty
    input can end in a directed cycle, which raises
    :class:`InternalInconsistencyError`.
    """
    builder = _Builder(h.graph)
    und = builder.und
    u = 0
    while u < len(und):
        later = und[u] >> (u + 1)
        if not later:
            u += 1  # orienting never adds an undirected edge
            continue
        builder.orient(u, u + 1 + next(_bit_indices(later)))
        builder.close()
    return _snapshot_or_raise(builder, "MPDAG admits no consistent extension")
