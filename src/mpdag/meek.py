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
background-knowledge construction.  The closure works on per-node bitmasks.
On a graph whose class is nonempty its fixpoint is the same whatever order
the rules fire in (Meek 1995), so there it propagates: orienting ``t -> h``
pushes the orientations the rules fire for with ``t -> h`` as a premise,
found by one mask test per way the arrow can be one, and the closure
orients what is pushed.  Every rule needs an arrow, the skeleton never
changes, and an edge never turns back undirected, so on a closed graph
every firing is pushed when its last arrow is made.  Where no such proof
holds the order is fixed, as it decides which directed cycle a class-empty
PDAG reports: each step rescans every undirected edge and applies the first
firing (rule, edge, direction) triple, rules in the order R1..R4, undirected
edges in node order, and ``u -> v`` before ``v -> u`` for an edge ``u -- v``
with ``u < v``.

Every branching search runs on one engine, :func:`_branch_walk`, a
depth-first walk over builders whose one parameter is its branch-edge rule:
a tree node orients its branch edge ``u -> v`` on a copy of its builder and
``v -> u`` on the builder itself, re-closing each, so a shared prefix of
orientations is closed once.  DAG enumeration and the consistent extension
(the first leaf) branch on the first undirected edge, methods 2 and 3 on the
first treatment edge, and the minimal enumeration on the first edge of a
shortest violating path.

This module alone decides what is trusted.  A graph is flagged *sound* when
it is closed and represents at least one DAG.  A closure proves it where it
ends, unless its builder is sound already, by the elimination of Dor &
Tarsi (1992), :func:`_extendable`, which is valid on any PDAG.  One proof
covers everything below: orienting an undirected edge of a class-nonempty
MPDAG and closing keeps exactly the DAGs of its class that have that edge,
and there is one (Meek 1995).  The CPDAG of a DAG is flagged without a
proof, as its class holds that DAG.  So every graph a closure ends in is
flagged exactly when its class is nonempty; the validating constructor
flags nothing, as a closed, acyclic PDAG can still represent no DAG (an
undirected 4-cycle).  A builder on a sound graph closes by propagation and
never searches for a cycle.  Any other builder scans every edge once when it
is made; if no rule fires there, its graph is closed, and the elimination
proves it then.  Until a proof, it closes by rescanning and searches its
masks for a cycle at every snapshot.  So a snapshot is searched only where
no proof holds, below a class-empty graph or at an unclosed root returned
with no closure, and as a graph with a directed cycle is never proved, a
class-empty input reports the directed-cycle witness the constructor would
report for the same edges.

A builder's masks are a graph's mask table, so a graph is built only where
one is returned or searched, from the node tuple and a frozen copy of the
masks, without naming an edge and without re-validation.  No other fact
about a result is proved again: the CPDAG of a DAG represents it (Andersson,
Madigan & Perlman 1997), and closing an MPDAG with an edge oriented keeps
exactly the DAGs of its class that have that edge (Meek 1995).
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
    _directed_cycle,
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
    order.  ``adj`` is the skeleton, which the rules never change.
    ``sound`` says that the builder's root or one of its closures represents
    a DAG, so no orientation and closure below it can make a directed cycle.
    It is read off a graph flagged sound, or proved where a closure ends; an
    unflagged graph is scanned once here, and proved here if no rule fires
    on it.  A sound builder closes by propagation: ``_pending`` holds the
    orientations ``(tail, head)`` that rules fired for since its last
    closure, pushed as each arrow is made.  The scan leaves the firings of
    an unflagged graph pending too, for a caller that knows its class is
    nonempty and sets ``sound`` (:func:`cpdag_of_dag`); a closure that is
    not sound drops them.
    """

    def __init__(self, g: PartiallyDirectedGraph) -> None:
        masks = g._masks
        self.nodes = g.nodes
        self.index = masks.index
        self.adj = masks.neighbours
        self.children = list(masks.children)
        self.und = list(masks.undirected)
        self.parents = list(masks.parents)
        self.sound = getattr(g, _SOUND, False)
        self._pending: list[tuple[int, int]] = []
        if not self.sound:
            self._pending = [(v, u) if d else (u, v) for _, u, v, d in self._firings()]
            self.sound = not self._pending and _extendable(self.children, self.und, self.adj)

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
        new._pending, new.sound = self._pending[:], self.sound
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
        """Orient the undirected edge ``tail -- head`` as ``tail -> head``;
        on a sound builder, push every orientation a rule fires for with the
        new arrow as a premise, found by one mask test per way it can be
        one.

        R3 is not tested: the new arrow would be one of its two arrows into
        ``head``, beside a parent ``w`` of ``head`` nonadjacent to ``tail``.
        But R1 fired ``head -> tail`` when ``w -> head`` was made, or when
        the builder was made, and the firings of a sound builder never
        conflict, so it never makes ``tail -> head`` while such a ``w``
        exists."""
        und, children, parents, adj = self.und, self.children, self.parents, self.adj
        t_bit, h_bit = 1 << tail, 1 << head
        und[tail] &= ~h_bit
        und[head] &= ~t_bit
        children[tail] |= h_bit
        parents[head] |= t_bit
        if not self.sound:
            return
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

    def mpdag(self, context: str = "orientation produced an invalid graph") -> Mpdag:
        """The current graph, its mask table the builder's masks, frozen;
        flagged sound if the builder is sound and nothing is pending.

        Only a builder that is not sound searches its masks for a directed
        cycle.  A class-empty PDAG (one representing no DAG at all) can drive
        the rules into one; that surfaces as an internal inconsistency,
        ``context`` first, rather than a plain invalid-graph error."""
        rows = self.children, self.und, self.parents
        masks = _AdjacencyMasks(self.index, self.adj, *map(tuple, rows))
        if not self.sound:
            cycle = _directed_cycle(self.nodes, masks.children)
            if cycle is not None:
                raise InternalInconsistencyError(f"{context}: directed cycle: {cycle}")
        g = PartiallyDirectedGraph._trusted(self.nodes, masks)
        object.__setattr__(g, _SOUND, self.sound and not self._pending)
        return Mpdag(g)

    # -- the rules, one edge at a time ---------------------------------------

    def _r3(self, shared: int) -> bool:
        """R3 for a tail whose undirected neighbours among the head's parents
        are ``shared``: two of them are nonadjacent."""
        if not shared & (shared - 1):  # fewer than two
            return False
        adj, rest = self.adj, shared
        while rest:
            low = rest & -rest
            if shared & ~(adj[low.bit_length() - 1] | low):
                return True
            rest ^= low
        return False

    def _r4(self, und_tail: int, shared: int, head: int) -> bool:
        """R4: some ``b`` in ``shared`` has a parent ``a`` that is an
        undirected neighbour of the tail and nonadjacent to the head."""
        # the head is undirected at the tail but never a parent of b; leaving
        # it out lets the test below end early
        candidates = und_tail & ~(self.adj[head] | 1 << head)
        if not candidates:
            return False
        parents = self.parents
        while shared:
            low = shared & -shared
            if candidates & parents[low.bit_length() - 1]:
                return True
            shared ^= low
        return False

    def _first_firing(self, u: int, v: int) -> Optional[tuple[int, int, int, int]]:
        """The first firing ``(rule, u, v, direction)`` on the undirected
        edge ``u -- v``, ``u < v``, trying R1..R4 in turn, ``u`` as tail
        first (direction 0 meaning ``u -> v``); None if no rule fires."""
        parents, children, und, adj = self.parents, self.children, self.und, self.adj
        pu, pv = parents[u], parents[v]
        # R3 and R4 look at the tail's undirected neighbours among the head's
        # parents
        shared_u, shared_v = und[u] & pv, und[v] & pu
        if pu & ~adj[v]:
            return 0, u, v, 0
        if pv & ~adj[u]:
            return 0, u, v, 1
        if children[u] & pv:
            return 1, u, v, 0
        if children[v] & pu:
            return 1, u, v, 1
        if self._r3(shared_u):
            return 2, u, v, 0
        if self._r3(shared_v):
            return 2, u, v, 1
        if self._r4(und[u], shared_u, v):
            return 3, u, v, 0
        if self._r4(und[v], shared_v, u):
            return 3, u, v, 1
        return None

    def _firings(self) -> list[tuple[int, int, int, int]]:
        """The first firing of every undirected edge on which a rule fires,
        edges in node order."""
        firings = []
        for u, mask in enumerate(self.und):
            for v in _bit_indices(mask >> (u + 1) << (u + 1)):
                hit = self._first_firing(u, v)
                if hit is not None:
                    firings.append(hit)
        return firings

    def close(self) -> None:
        """Apply R1-R4 until no rule fires anywhere.

        A sound builder orients its pending orientations, in any order, each
        whose edge is still undirected: its closure is order-independent
        (Meek 1995), and a firing left at the fixpoint would have been
        pushed when its last premise was made, as edges never turn back
        undirected.  Any other builder rescans every edge at each step and
        takes the first firing (rule, edge, direction), which decides the
        directed cycle a class-empty graph reports; then it is proved sound
        if the closed graph's class is nonempty."""
        if self.sound:
            pending, und = self._pending, self.und
            while pending:
                tail, head = pending.pop()
                if und[tail] >> head & 1:
                    self.orient(tail, head)
            return
        while firings := self._firings():
            _, u, v, direction = min(firings)
            self.orient(*((v, u) if direction else (u, v)))
        self._pending = []  # the scan's firings, which the rescans met again
        self.sound = _extendable(self.children, self.und, self.adj)


def _extendable(children: Sequence[int], und: Sequence[int], adj: Sequence[int]) -> bool:
    """Has the PDAG of these masks a consistent extension, that is a DAG
    with its skeleton and unshielded colliders and its directed edges?  By
    Dor & Tarsi (1992), iff its nodes can be removed one by one, each with
    no child left and each of its undirected neighbours left adjacent to
    all its other neighbours left.  Any node that qualifies may go first,
    and removing nodes disqualifies none, so each sweep in node order
    removes every node that qualifies when it is met."""
    left = (1 << len(adj)) - 1
    while left:
        before = left
        for x in _bit_indices(left):
            near = adj[x] & left
            if not children[x] & left and all(
                not near & ~(adj[y] | 1 << y) for y in _bit_indices(und[x] & left)
            ):
                left ^= 1 << x
        if left == before:
            return False
    return True


def meek_closure(g: PartiallyDirectedGraph) -> Mpdag:
    """Close a valid PDAG under R1-R4.

    Idempotent and monotone: the skeleton is unchanged and the directed edge
    set only grows.  A directed cycle appears only on a class-empty input,
    and raises an internal-inconsistency error.  The result is flagged sound
    exactly when its class is nonempty.
    """
    builder = _Builder(g)
    builder.close()
    return builder.mpdag("rule closure produced an invalid graph")


def construct_mpdag(h: Mpdag, requests: Sequence[tuple[str, str]]) -> Mpdag:
    """Add background-knowledge orientations to an MPDAG, re-closing each time.

    Requests are processed in the given order.  A request whose edge is
    currently undirected is oriented and the rules are iterated to a fixpoint;
    one that already holds is a no-op; one that contradicts the graph (edge
    or endpoint missing, or edge directed the other way) raises
    :class:`OrientationConflictError` -- the FAIL outcome.
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
    root is not re-closed, so a plain ``Mpdag(g)`` wrapper branches on an
    undirected edge of ``g`` itself.
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
    """The CPDAG of a DAG: skeleton plus unshielded colliders, then closure.
    It is flagged sound, as its class holds ``d``."""
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
    builder = _Builder(PartiallyDirectedGraph._trusted(d.nodes, pattern))
    # the pattern's class holds d, so the firings the builder's scan left
    # pending close it by propagation
    builder.sound = True
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
    is left.  Orienting an undirected edge of a closed graph always succeeds.
    A class-empty input raises :class:`InternalInconsistencyError`, naming
    the directed cycle if that leaf has one; only a root not flagged sound
    is checked (:func:`_extendable`).
    """
    root = _Builder(h.graph)
    extendable = root.sound or _extendable(root.children, root.und, root.adj)
    leaf = next(_branch_walk(root, _Builder.first_undirected))
    dag = leaf.mpdag("MPDAG admits no consistent extension").graph
    if not extendable:
        raise InternalInconsistencyError("MPDAG admits no consistent extension")
    return dag
