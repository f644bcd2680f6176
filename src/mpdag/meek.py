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
background-knowledge construction.  The closure works on per-node bitmasks,
and only on graphs that represent at least one DAG.  There its fixpoint is
the same whatever order the rules fire in (Meek 1995), so it propagates:
orienting ``t -> h`` pushes the orientations the rules fire for with
``t -> h`` as a premise, found by one mask test per way the arrow can be
one, and the closure orients what is pushed.  Every rule needs an arrow,
the skeleton never changes, and an edge never turns back undirected, so on
a closed graph every firing is pushed when its last arrow is made.

Every branching search runs on one engine, :func:`_branch_walk`, a
depth-first walk over builders whose one parameter is its branch-edge rule:
a tree node orients its branch edge ``u -> v`` on a copy of its builder and
``v -> u`` on the builder itself, re-closing each, so a shared prefix of
orientations is closed once.  DAG enumeration and the consistent extension
(the first leaf) branch on the first undirected edge, methods 2 and 3 on the
first treatment edge, and the minimal enumeration on the first edge of a
shortest violating path.

This module alone decides what is trusted, in one place: a builder is made
only on a graph that represents a DAG, and closed when it is made.  A graph
the module returns is flagged, and taken as it is.  Any other graph is
proved by the node elimination of Dor & Tarsi (1992), :func:`_eliminate`,
which is valid on any PDAG; if the elimination leaves nodes, its class is
empty and it is refused with :class:`InternalInconsistencyError` naming
them.  Otherwise it is scanned once for the orientations a rule fires for,
and closed by propagating them.  One proof covers everything below:
orienting an undirected edge of a class-nonempty MPDAG and closing keeps
exactly the DAGs of its class that have that edge, and there is one (Meek
1995).  The CPDAG of a DAG is closed with no proof, as
its class holds that DAG.  The validating constructor flags nothing, as a
closed, acyclic PDAG can still represent no DAG (an undirected 4-cycle).

A builder's masks are a graph's mask table, so a graph is built only where
one is returned, from the node tuple and a frozen copy of the masks,
without naming an edge, without re-validation and without a cycle search.
No other fact about a result is proved again: the CPDAG of a DAG represents
it (Andersson, Madigan & Perlman 1997), and closing an MPDAG with an edge
oriented keeps exactly the DAGs of its class that have that edge (Meek
1995).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

from .graphs import (
    GraphError,
    InternalInconsistencyError,
    PartiallyDirectedGraph,
    _AdjacencyMasks,
    _bit_indices,
    _index_pairs,
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
        """Canonical sort/equality key: the nodes, then the directed and the
        undirected edges as sorted pairs of node indices, an undirected pair
        smaller index first.  Index order is name order, so keys on one node
        tuple sort as the sorted lists of named edges do."""
        masks = self.graph._masks
        upper = [row >> u + 1 << u + 1 for u, row in enumerate(masks.undirected)]
        return self.nodes, tuple(_index_pairs(masks.children)), tuple(_index_pairs(upper))


_SOUND = "_meek_sound"  # true on closed graphs that represent a DAG


class _Builder:
    """Mutable adjacency bitmasks used while running the rules.

    Bit ``i`` of a mask stands for ``nodes[i]``; node index order is name
    order.  ``adj`` is the skeleton, which the rules never change.  A
    builder's graph always represents a DAG, so no orientation and closure
    on it can make a directed cycle.  A graph flagged sound is taken as it
    is; any other is proved by :func:`_eliminate` and refused if its class
    is empty, else scanned once and closed.  ``_pending`` holds the orientations
    ``(tail, head)`` that rules fired for since the last closure, pushed as
    each arrow is made.
    """

    def __init__(self, g: PartiallyDirectedGraph) -> None:
        masks = g._masks
        self.nodes = g.nodes
        self.index = masks.index
        self.adj = masks.neighbours
        self.children = list(masks.children)
        self.und = list(masks.undirected)
        self.parents = list(masks.parents)
        self._pending: list[tuple[int, int]] = []
        if getattr(g, _SOUND, False):
            return
        left = _eliminate(self.children, self.und, self.adj)
        if left:
            names = [self.nodes[i] for i in _bit_indices(left)]
            raise InternalInconsistencyError(f"PDAG represents no DAG: {names}")
        self._pending = self._firings()
        self.close()

    def copy(self) -> "_Builder":
        """An independent builder in the same state: the masks and the
        pending list are copied; the skeleton, the node tuple and the index
        are shared, and nothing mutates them."""
        # attribute by attribute: going through ``vars()`` would give both
        # builders a materialised ``__dict__``, which CPython reads more
        # slowly in the rule checks
        new = object.__new__(_Builder)
        new.nodes, new.index, new.adj = self.nodes, self.index, self.adj
        new.children, new.und = self.children[:], self.und[:]
        new.parents = self.parents[:]
        new._pending = self._pending[:]
        return new

    def request(self, tail: str, head: str) -> None:
        """Background knowledge ``tail -> head``: orient the edge and re-close
        if it is undirected; a no-op if it already holds; otherwise raise
        :class:`OrientationConflictError` and leave the builder as it was."""
        t, v = self.index.get(tail), self.index.get(head)
        if t is None or v is None:
            raise OrientationConflictError((tail, head), "no such edge")
        if self.und[t] >> v & 1:
            self.orient(t, v)
            self.close()
        elif self.parents[t] >> v & 1:
            raise OrientationConflictError((tail, head), f"graph has {head} -> {tail}")
        elif not self.children[t] >> v & 1:
            raise OrientationConflictError((tail, head), "no such edge")

    def first_undirected(
        self, among: Optional[list[int]] = None
    ) -> Optional[tuple[int, int]]:
        """The first undirected edge ``u -- v``, ``u < v``, in node order;
        given ``among``, the first with ``v`` in the mask ``among[u]``."""
        for u, mask in enumerate(self.und):
            later = (mask if among is None else mask & among[u]) >> (u + 1)
            if later:
                return u, u + (later & -later).bit_length()
        return None

    def orient(self, tail: int, head: int) -> None:
        """Orient the undirected edge ``tail -- head`` as ``tail -> head``,
        and push every orientation a rule fires for with the new arrow as a
        premise, found by one mask test per way it can be one.

        R3 is not tested: the new arrow would be one of its two arrows into
        ``head``, beside a parent ``w`` of ``head`` nonadjacent to ``tail``.
        But R1 fired ``head -> tail`` when ``w -> head`` was made, or when
        the builder was scanned, and the firings on a graph that represents
        a DAG never conflict, so it never makes ``tail -> head`` while such
        a ``w`` exists."""
        und, children, parents, adj = self.und, self.children, self.parents, self.adj
        t_bit, h_bit = 1 << tail, 1 << head
        und[tail] &= ~h_bit
        und[head] &= ~t_bit
        children[tail] |= h_bit
        parents[head] |= t_bit
        push = self._pending.append
        und_t, und_h = und[tail], und[head]
        # R1, the arrow as w -> u: head -> v for v nonadjacent to tail
        for v in _bit_indices(und_h & ~adj[tail]):
            push((head, v))
        # R2, the arrow as u -> w: tail -> v for a child v of head; as
        # w -> v: u -> head for a parent u of tail
        for v in _bit_indices(und_t & children[head]):
            push((tail, v))
        for u in _bit_indices(und_h & parents[tail]):
            push((u, head))
        common = und_t & und_h
        if not common:
            return
        # R4, the arrow as b -> v: u -> head for u -- tail, u -- head, and u
        # undirected at a parent a of tail nonadjacent to head
        for a in _bit_indices(parents[tail] & ~adj[head]):
            for u in _bit_indices(common & und[a]):
                push((u, head))
        # R4, the arrow as a -> b: u -> v for a child v of head nonadjacent
        # to tail and u undirected at tail, head and v
        for v in _bit_indices(children[head] & ~(adj[tail] | t_bit)):
            for u in _bit_indices(common & und[v]):
                push((u, v))

    def mpdag(self) -> Mpdag:
        """The current graph of a closed builder, its mask table the
        builder's masks, frozen, and flagged sound."""
        rows = self.children, self.und, self.parents
        masks = _AdjacencyMasks(self.index, self.adj, *map(tuple, rows))
        g = PartiallyDirectedGraph._trusted(self.nodes, masks)
        object.__setattr__(g, _SOUND, True)
        return Mpdag(g)

    def _fires(self, tail: int, head: int) -> bool:
        """Does a rule orient the undirected edge ``tail -- head`` as
        ``tail -> head``?"""
        parents, und, adj = self.parents, self.und, self.adj
        if parents[tail] & ~adj[head] or self.children[tail] & parents[head]:
            return True  # R1, R2
        # R3 and R4 look at the tail's undirected neighbours among the
        # head's parents: R3 fires if two of them are nonadjacent, R4 if
        # one has a parent undirected at the tail and nonadjacent to the
        # head (the head is undirected at the tail but no such parent)
        shared = und[tail] & parents[head]
        candidates = und[tail] & ~(adj[head] | 1 << head)
        rest = shared
        while rest:
            low = rest & -rest
            b = low.bit_length() - 1
            if shared & ~(adj[b] | low) or candidates & parents[b]:
                return True
            rest ^= low
        return False

    def _firings(self) -> list[tuple[int, int]]:
        """Every orientation ``(tail, head)`` a rule fires for, each
        undirected edge tested once either way."""
        return [
            (t, h) for t, row in enumerate(self.und) for h in _bit_indices(row)
            if self._fires(t, h)
        ]

    def close(self) -> None:
        """Apply R1-R4 until no rule fires anywhere: orient the pending
        orientations, in any order, each whose edge is still undirected.
        The closure of a graph that represents a DAG is order-independent
        (Meek 1995), and a firing left at the fixpoint would have been
        pushed when its last premise was made, as edges never turn back
        undirected."""
        pending, und = self._pending, self.und
        while pending:
            tail, head = pending.pop()
            if und[tail] >> head & 1:
                self.orient(tail, head)


def _eliminate(children: Sequence[int], und: Sequence[int], adj: Sequence[int]) -> int:
    """The mask of the nodes the elimination of Dor & Tarsi (1992) leaves
    on the PDAG of these masks: its class (the DAGs with its skeleton,
    unshielded colliders and directed edges) is nonempty iff it leaves
    none.  A node is removed when it has no child left and each of its
    undirected neighbours left is adjacent to all its other neighbours
    left.  Any node that qualifies may go first, and removing nodes
    disqualifies none, so the nodes left do not depend on the order; a node
    that fails is tried again only when a neighbour of it is removed, so
    each node is tried at most once plus once per neighbour."""
    left = queued = (1 << len(adj)) - 1
    work = list(range(len(adj)))
    while work:
        x = work.pop()
        queued ^= 1 << x
        near = adj[x] & left
        if children[x] & left or any(
            near & ~(adj[y] | 1 << y) for y in _bit_indices(und[x] & left)
        ):
            continue
        left ^= 1 << x
        fresh = near & ~queued
        queued |= fresh
        work.extend(_bit_indices(fresh))
    return left


def meek_closure(g: PartiallyDirectedGraph) -> Mpdag:
    """Close a valid PDAG under R1-R4.

    Idempotent and monotone: the skeleton is unchanged and the directed edge
    set only grows.  A PDAG that represents no DAG is refused with an
    internal-inconsistency error naming the nodes the elimination of Dor &
    Tarsi leaves; every result is flagged sound.
    """
    return _Builder(g).mpdag()


def construct_mpdag(h: Mpdag, requests: Sequence[tuple[str, str]]) -> Mpdag:
    """Add background-knowledge orientations to an MPDAG, re-closing each time.

    Requests are processed in the given order.  A request whose edge is
    currently undirected is oriented and the rules are iterated to a fixpoint;
    one that already holds is a no-op; one that contradicts the graph (edge
    or endpoint missing, or edge directed the other way) raises
    :class:`OrientationConflictError` -- the FAIL outcome.  An ``h`` that
    this module did not return is closed first.
    """
    builder = _Builder(h.graph)
    for tail, head in requests:
        builder.request(tail, head)
    return builder.mpdag()


def _branch_walk(
    root: _Builder, branch_edge: Callable[[_Builder], Optional[tuple[int, int]]]
) -> Iterator[_Builder]:
    """The leaves of the branch tree below ``root``, depth first.

    ``branch_edge`` maps a tree node's builder to its branch edge, an
    undirected edge ``(u, v)`` of node indices, or to None for a leaf, which
    is yielded as the builder itself.  The rule is called once per node, in
    depth-first order.  A node's children orient the edge ``u -> v``, on a
    copy of the node's builder, then ``v -> u``, each re-closed; the
    ``u -> v`` child's whole subtree comes before the ``v -> u`` child.  The
    root is closed where its builder is made, so a plain ``Mpdag(g)``
    wrapper branches on an undirected edge of the closure of ``g``.
    """
    stack: list[tuple[_Builder, Optional[tuple[int, int]]]] = [(root, None)]
    while stack:
        builder, arc = stack.pop()
        if arc is not None:
            builder.orient(*arc)
            builder.close()
        edge = branch_edge(builder)
        if edge is None:
            yield builder
            continue
        u, v = edge
        stack.append((builder, (v, u)))
        stack.append((builder.copy(), (u, v)))


def cpdag_of_dag(d: PartiallyDirectedGraph) -> Mpdag:
    """The CPDAG of a DAG: skeleton plus unshielded colliders, then closure,
    with no proof, as its class holds ``d``."""
    if not d.is_directed:
        raise GraphError("input must be a DAG (fully directed)")
    masks = d._masks
    adj = masks.neighbours
    # a -> b stays directed when b has a parent nonadjacent to a: the edge is
    # in an unshielded collider; each kept arrow is set in both tables at once
    parents = [0] * len(adj)
    children = [0] * len(adj)
    for b, row in enumerate(masks.parents):
        for a in _bit_indices(row):
            if row & ~(adj[a] | 1 << a):
                parents[b] |= 1 << a
                children[a] |= 1 << b
    und = tuple(n & ~(c | p) for n, c, p in zip(adj, children, parents))
    pattern = _AdjacencyMasks(masks.index, adj, tuple(children), und, tuple(parents))
    # the pattern's class holds d: flagged, it is taken as it is, and closed
    # by propagating the firings of one scan
    g = PartiallyDirectedGraph._trusted(d.nodes, pattern)
    object.__setattr__(g, _SOUND, True)
    builder = _Builder(g)
    builder._pending = builder._firings()
    builder.close()
    return builder.mpdag()


def is_represented(d: PartiallyDirectedGraph, h: Mpdag) -> bool:
    """Is DAG ``d`` in the class of ``h``: same skeleton, same unshielded
    colliders, and every directed edge of ``h`` kept with its orientation."""
    if d.nodes != h.graph.nodes:
        raise GraphError("node sets differ")
    if not d.is_directed:
        raise GraphError("first argument must be a DAG (fully directed)")
    mine, theirs = d._masks, h.graph._masks
    return (
        mine.neighbours == theirs.neighbours
        and d.unshielded_colliders() == h.graph.unshielded_colliders()
        and not any(c & ~dc for c, dc in zip(theirs.children, mine.children))
    )


def enumerate_dags(h: Mpdag) -> list[PartiallyDirectedGraph]:
    """All DAGs represented by an MPDAG, in canonical (:meth:`Mpdag.key`)
    order: the leaves of the branch walk on the first undirected edge
    (:func:`_branch_walk`).  The two orientations of a branch edge split the
    leaves, so none repeats; every member passes :func:`is_represented`.

    The walk yields the leaves already sorted.  It branches on the smallest
    undirected pair ``(u, v)``, ``u < v``, and finishes the ``u -> v``
    subtree first; two DAGs with one skeleton first differ in key order at
    the smallest pair they orient differently, and for two leaves that is
    the branch pair of the node where their paths split.
    """
    leaves = _branch_walk(_Builder(h.graph), _Builder.first_undirected)
    return [leaf.mpdag().graph for leaf in leaves]


def consistent_extension(h: Mpdag) -> PartiallyDirectedGraph:
    """One DAG represented by the MPDAG: the first leaf of the branch walk
    that :func:`enumerate_dags` lists, which orients each branch edge from
    its smaller endpoint.

    Only that leaf's path is closed: the smallest undirected edge ``u -- v``
    is oriented ``u -> v`` and the graph re-closed until no undirected edge
    is left.  Orienting an undirected edge of a closed graph that represents
    a DAG always succeeds; a class-empty input is refused where its builder
    is made.
    """
    leaf = next(_branch_walk(_Builder(h.graph), _Builder.first_undirected))
    return leaf.mpdag().graph
