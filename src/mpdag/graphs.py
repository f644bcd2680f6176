"""Partially directed graphs and the path machinery built on them.

A single immutable representation covers DAGs, CPDAGs, MPDAGs and general
PDAGs.  Node names are plain strings; the canonical node order (used for every
tie-break in the package) is lexicographic, so results never depend on the
order in which edges were supplied.

Adjacency is one table of per-node bitmasks in node order (parents,
children, undirected neighbours, and their union): bit ``i`` of an entry
stands for ``nodes[i]``, so taking bits lowest first lists nodes in name
order.  Name queries (``parents``, ``mark``, ...) read that table, and every
search below works on it directly, turning names into bits and back only at
its public entry points.

Ancestors, descendants and buckets are closures over one mask table, node by
node.  Possible descendants and ancestors and d-separation are one polynomial
search over edge states ``(u, v)``: it visits each state once and steps on by
a local rule, in O(|E|·Δ) whatever the number of paths.  In an MPDAG every
possibly causal path has an unshielded possibly causal subsequence (Perković,
Kalisch & Maathuis, UAI 2017), and d-connection is a rule on consecutive
triples (Bayes-ball, Shachter 1998).

Paths from a start set to a target set come from one walk,
:func:`_proper_paths`: a depth-first search over per-node bitmasks on an
explicit stack (a long chain cannot exhaust the interpreter stack), set by
its first step, its step rule and a table of the nodes it may not append.
One walk, four uses: list, count, shortest, adjustment witness.

* The proper possibly causal paths (:class:`_PathSearch`) step to any
  neighbour and never append a node with a child already on the path, since
  a "possibly causal" verdict checks *all* ordered node pairs for a backward
  edge.  Listing them (:func:`proper_possibly_causal_paths`) and counting
  them (the diagnostic m at the root, and the per-branch counts of the
  minimal enumeration when read) visit every path.
* The first shortest path (identifiability witness, and the branch-edge rule
  of the minimal enumeration on :mod:`mpdag.meek`'s one branch walk) bounds
  the rest of the search to shorter paths at each hit: a short witness ends
  the search early, while an identified effect still costs a full search.
* The adjustment witness steps by the definite-status rule of d-separation
  (:func:`_open_step`), so it visits only the paths a candidate set leaves
  open, and keeps the first shortest non-causal one.

Listing and counting paths, proving an effect identified and the adjustment
witness are exponential in the worst case and meant for desk-scale graphs
(roughly p <= 15); there is no silent truncation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Generator, Iterable, Iterator, Optional, Sequence

DIRECTED_MARK = "->"
REVERSED_MARK = "<-"
UNDIRECTED_MARK = "--"


class GraphError(ValueError):
    """Structurally invalid graph input (unknown node, bad edge, ...)."""


class NotAPathError(ValueError):
    """A node sequence that is not a path of the host graph."""


class InternalInconsistencyError(RuntimeError):
    """An invariant the algorithms guarantee by construction was violated."""


@dataclass(frozen=True)
class Validation:
    """Verdict of :func:`validate_pdag`."""

    ok: bool
    violation: Optional[str] = None
    witness: Optional[tuple[str, ...]] = None

    def __bool__(self) -> bool:
        return self.ok


def validate_pdag(
    nodes: Iterable[str],
    directed: Iterable[tuple[str, str]] = (),
    undirected: Iterable[tuple[str, str]] = (),
) -> Validation:
    """Check the PDAG invariants, reporting the first violation with a witness.

    Total function: never raises, always returns a verdict.  Checks, in order:
    unknown endpoints, self loops, duplicate adjacencies (a pair carrying both
    a directed and an undirected edge, or two undirected copies), and a
    directed cycle in the directed part (a two-cycle ``A->B, B->A`` is
    reported as a cycle, not a duplicate).
    """
    node_list = list(nodes)
    node_set = set(node_list)
    if len(node_list) != len(node_set):
        dup = next(n for n in node_list if node_list.count(n) > 1)
        return Validation(False, "duplicate node", (dup,))
    directed = [tuple(e) for e in directed]
    undirected = [tuple(e) for e in undirected]
    for tail, head in itertools.chain(directed, undirected):
        if tail not in node_set or head not in node_set:
            missing = tail if tail not in node_set else head
            return Validation(False, "unknown node", (missing,))
        if tail == head:
            return Validation(False, "self loop", (tail,))
    und_pairs = {frozenset(e) for e in undirected}
    dir_pairs = {frozenset(e) for e in directed}
    clash = und_pairs & dir_pairs
    if clash:
        pair = tuple(sorted(next(iter(clash))))
        return Validation(False, "duplicate adjacency", pair)
    if len(und_pairs) < len(set(undirected)):
        for u, v in undirected:
            if (v, u) in set(undirected):
                return Validation(False, "duplicate adjacency", tuple(sorted((u, v))))
    cycle = _find_directed_cycle(node_list, directed)
    if cycle is not None:
        return Validation(False, "directed cycle", cycle)
    return Validation(True)


def _find_directed_cycle(
    nodes: Sequence[str], directed: Iterable[tuple[str, str]]
) -> Optional[tuple[str, ...]]:
    """First directed cycle met by a depth-first search in node order.

    Iterative, so a long directed chain cannot exhaust the interpreter stack.
    """
    children: dict[str, list[str]] = {n: [] for n in nodes}
    for tail, head in directed:
        children[tail].append(head)
    state: dict[str, int] = {}  # 0 on stack, 1 done
    for root in sorted(nodes):
        if root in state:
            continue
        state[root] = 0
        stack_path = [root]
        pending = [iter(sorted(children[root]))]
        while pending:
            for w in pending[-1]:
                if w not in state:
                    state[w] = 0
                    stack_path.append(w)
                    pending.append(iter(sorted(children[w])))
                    break
                if state[w] == 0:
                    i = stack_path.index(w)
                    return tuple(stack_path[i:]) + (w,)
            else:
                state[stack_path.pop()] = 1
                pending.pop()
    return None


def _bit_indices(mask: int) -> Iterator[int]:
    """The indices of the set bits of ``mask``, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _kahn(masks: "_AdjacencyMasks") -> list[int]:
    """Kahn's algorithm over the directed part, smallest ready index first.

    The order misses a node exactly when the directed part has a cycle.
    """
    children = masks.children
    indegree = [p.bit_count() for p in masks.parents]
    ready = sum(1 << i for i, d in enumerate(indegree) if not d)
    order = []
    while ready:
        low = ready & -ready
        ready ^= low
        v = low.bit_length() - 1
        order.append(v)
        for w in _bit_indices(children[v]):
            indegree[w] -= 1
            if not indegree[w]:
                ready |= 1 << w
    return order


@dataclass(frozen=True)
class _AdjacencyMasks:
    """Adjacency as bitmasks: bit ``i`` of an entry stands for ``nodes[i]``."""

    index: dict[str, int]
    neighbours: tuple[int, ...]
    children: tuple[int, ...]
    undirected: tuple[int, ...]
    parents: tuple[int, ...]

    def bits(self, names: Iterable[str]) -> int:
        """The mask of the named nodes."""
        return sum(1 << self.index[n] for n in set(names))


@dataclass(frozen=True)
class PartiallyDirectedGraph:
    """Immutable partially directed graph without directed cycles.

    ``nodes`` is kept sorted; ``undirected`` pairs are stored with the smaller
    endpoint first.  The constructor normalises its input and raises
    :class:`GraphError` on any invariant violation, so instances are always
    valid PDAGs.  The edge sets define equality, hashing and the text form;
    adjacency is one table of per-node bitmasks in node order (``_masks``),
    built once from them, and every name query reads it.  All queries are
    read-only and safe to share across threads.
    """

    nodes: tuple[str, ...]
    directed: frozenset[tuple[str, str]]
    undirected: frozenset[tuple[str, str]]

    def __init__(
        self,
        nodes: Iterable[str],
        directed: Iterable[tuple[str, str]] = (),
        undirected: Iterable[tuple[str, str]] = (),
    ) -> None:
        node_tuple = tuple(sorted(set(nodes)))
        dir_set = frozenset((str(t), str(h)) for t, h in directed)
        und_set = frozenset(tuple(sorted((str(u), str(v)))) for u, v in undirected)
        verdict = validate_pdag(node_tuple, dir_set, und_set)
        if not verdict.ok:
            raise GraphError(f"{verdict.violation}: {verdict.witness}")
        object.__setattr__(self, "nodes", node_tuple)
        object.__setattr__(self, "directed", dir_set)
        object.__setattr__(self, "undirected", und_set)

    @classmethod
    def _trusted(
        cls,
        nodes: tuple[str, ...],
        directed: frozenset[tuple[str, str]],
        undirected: frozenset[tuple[str, str]],
        masks: _AdjacencyMasks,
    ) -> "PartiallyDirectedGraph":
        """A graph from already normalised parts: sorted ``nodes``, edges as
        the constructor stores them, and the matching ``masks``, which become
        its ``_masks``.

        The parts must be consistent by construction: known endpoints, no
        self loop, at most one edge per adjacent pair.  Those checks are
        skipped; acyclicity is not.  A cyclic directed part goes through the
        validating constructor, which raises the same :class:`GraphError`,
        witness included, as for any other input.
        """
        if len(_kahn(masks)) < len(nodes):
            return cls(nodes, directed, undirected)
        g = object.__new__(cls)
        object.__setattr__(g, "nodes", nodes)
        object.__setattr__(g, "directed", directed)
        object.__setattr__(g, "undirected", undirected)
        object.__setattr__(g, "_masks", masks)
        return g

    # -- adjacency -----------------------------------------------------------

    @cached_property
    def _masks(self) -> _AdjacencyMasks:
        index = {n: i for i, n in enumerate(self.nodes)}
        children, parents, und = ([0] * len(index) for _ in range(3))
        for tail, head in self.directed:
            children[index[tail]] |= 1 << index[head]
            parents[index[head]] |= 1 << index[tail]
        for u, v in self.undirected:
            und[index[u]] |= 1 << index[v]
            und[index[v]] |= 1 << index[u]
        return _AdjacencyMasks(
            index=index,
            neighbours=tuple(c | p | u for c, p, u in zip(children, parents, und)),
            children=tuple(children),
            undirected=tuple(und),
            parents=tuple(parents),
        )

    def _names(self, mask: int) -> frozenset[str]:
        """The nodes whose bits are set in ``mask``."""
        nodes = self.nodes
        return frozenset(nodes[i] for i in _bit_indices(mask))

    def parents(self, v: str) -> frozenset[str]:
        return self._names(self._masks.parents[self._masks.index[v]])

    def children(self, v: str) -> frozenset[str]:
        return self._names(self._masks.children[self._masks.index[v]])

    def undirected_neighbours(self, v: str) -> frozenset[str]:
        return self._names(self._masks.undirected[self._masks.index[v]])

    def neighbours(self, v: str) -> frozenset[str]:
        return self._names(self._masks.neighbours[self._masks.index[v]])

    def adjacent(self, u: str, v: str) -> bool:
        return self.mark(u, v) is not None

    def mark(self, u: str, v: str) -> Optional[str]:
        """Edge mark between ``u`` and ``v`` seen from ``u`` (or None).

        Raises ``KeyError`` when ``u`` is not a node; any other ``v`` gives
        None."""
        masks = self._masks
        i, j = masks.index[u], masks.index.get(v)
        if j is None:
            return None
        if masks.children[i] >> j & 1:
            return DIRECTED_MARK
        if masks.parents[i] >> j & 1:
            return REVERSED_MARK
        if masks.undirected[i] >> j & 1:
            return UNDIRECTED_MARK
        return None

    @property
    def skeleton(self) -> frozenset[tuple[str, str]]:
        pairs = {tuple(sorted(e)) for e in self.directed}
        return frozenset(pairs | set(self.undirected))

    @property
    def is_directed(self) -> bool:
        """True iff every edge is directed (the graph is then a DAG)."""
        return not self.undirected

    def sorted_directed(self) -> list[tuple[str, str]]:
        return sorted(self.directed)

    def sorted_undirected(self) -> list[tuple[str, str]]:
        return sorted(self.undirected)

    def edge_lines(self) -> tuple[str, ...]:
        """Canonical text lines: directed edges first, then undirected."""
        lines = [f"{t} -> {h}" for t, h in self.sorted_directed()]
        lines += [f"{u} -- {v}" for u, v in self.sorted_undirected()]
        return tuple(lines)

    # -- derived graphs ------------------------------------------------------

    def induced_subgraph(self, keep: Iterable[str]) -> "PartiallyDirectedGraph":
        """Subgraph on ``keep`` with exactly the edges between kept nodes."""
        keep_set = _check_known(self, keep)
        return PartiallyDirectedGraph(
            keep_set,
            (e for e in self.directed if e[0] in keep_set and e[1] in keep_set),
            (e for e in self.undirected if e[0] in keep_set and e[1] in keep_set),
        )

    def orient(self, tail: str, head: str) -> "PartiallyDirectedGraph":
        """Turn the undirected edge ``tail -- head`` into ``tail -> head``."""
        pair = tuple(sorted((tail, head)))
        if pair not in self.undirected:
            raise GraphError(f"no undirected edge {tail} -- {head}")
        return PartiallyDirectedGraph(
            self.nodes,
            set(self.directed) | {(tail, head)},
            set(self.undirected) - {pair},
        )

    # -- orders --------------------------------------------------------------

    def topological_order(self) -> tuple[str, ...]:
        """Topological order of a fully directed graph, ties by node order."""
        if not self.is_directed:
            raise GraphError("topological order requires a fully directed graph")
        order = _kahn(self._masks)
        if len(order) != len(self.nodes):
            raise InternalInconsistencyError("directed part is cyclic")
        return tuple(self.nodes[i] for i in order)

    def unshielded_colliders(self) -> frozenset[tuple[str, str, str]]:
        """Triples ``(a, b, c)`` with ``a -> b <- c``, ``a`` and ``c`` nonadjacent.

        Canonicalised so that ``a < c``.
        """
        nodes, neighbours = self.nodes, self._masks.neighbours
        return frozenset(
            (nodes[a], nodes[b], nodes[c])
            for b, pa in enumerate(self._masks.parents)
            for a in _bit_indices(pa)
            # the parents after a that are not adjacent to it
            for c in _bit_indices((pa >> a + 1 << a + 1) & ~neighbours[a])
        )


@dataclass(frozen=True)
class NodePath:
    """A path of a host graph: distinct nodes plus the realised edge marks.

    ``marks[i]`` is the mark between ``nodes[i]`` and ``nodes[i+1]`` seen from
    ``nodes[i]``, one of ``->``, ``<-`` or ``--``.
    """

    nodes: tuple[str, ...]
    marks: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.nodes)

    def __str__(self) -> str:
        parts = [self.nodes[0]]
        for mark, node in zip(self.marks, self.nodes[1:]):
            parts.append(f" {mark} {node}")
        return "".join(parts)


def path_in(g: PartiallyDirectedGraph, nodes: Sequence[str]) -> NodePath:
    """Build a :class:`NodePath`, verifying it really is a path of ``g``."""
    seq = tuple(nodes)
    if len(seq) < 2:
        raise NotAPathError("a path needs at least two nodes")
    if len(set(seq)) != len(seq):
        raise NotAPathError(f"repeated node in {seq}")
    marks = []
    for u, v in zip(seq, seq[1:]):
        mark = g.mark(u, v) if u in g._masks.index else None
        if mark is None:
            raise NotAPathError(f"{u} and {v} are not adjacent")
        marks.append(mark)
    return NodePath(seq, tuple(marks))


def _open_step(masks: _AdjacencyMasks, blocking: int) -> Callable[[int, int], int]:
    """The definite-status rule of d-connection given the nodes of the mask
    ``blocking``: ``step(u, v)`` is the mask of the ``w != u`` for which
    ``u, v, w`` is a definite-status triple left open, ``v`` a definite
    non-collider outside ``blocking`` or a collider with a descendant in it."""
    neighbours, children = masks.neighbours, masks.children
    undirected, parents = masks.undirected, masks.parents
    open_colliders = _closure(blocking, parents)

    def step(u: int, v: int) -> int:
        out = 0
        if not blocking >> v & 1:
            if children[v] >> u & 1:  # u <- v: a non-collider whatever w
                out = neighbours[v]
            else:  # v -> w, or u -- v -- w with u, w nonadjacent
                out = children[v]
                if undirected[v] >> u & 1:
                    out |= undirected[v] & ~neighbours[u]
        if children[u] >> v & 1 and open_colliders >> v & 1:  # u -> v <- w
            out |= parents[v]
        return out & ~(1 << u)

    return step


def _proper_paths(
    starts: int,
    targets: int,
    first: Sequence[int],
    step: Callable[[int, int], int],
    back: Sequence[int],
) -> Generator[list[int], Optional[int], None]:
    """Depth-first search over the proper paths from the nodes of ``starts``
    that end in a node of ``targets``, yielding each as the live list of node
    indices (valid until the next step).

    From a start ``s`` the path moves to a node of ``first[s]``, and after
    ``u, v`` to one of ``step(u, v)``; it never takes a node twice, a start
    after the first node, or a node ``w`` with ``back[w]`` on the path, and it
    stops growing once every target is on it, as no extension can end in a
    new one.  Starts and steps are taken in node order, so among paths of one
    length the first yielded is the smallest.  Iterative, with one mask of
    untried extensions per path node.  Sending a node count into the
    generator bounds the paths that are still to come to that many nodes.
    """
    limit = len(first)
    for a in _bit_indices(starts):
        path, members = [a], 1 << a
        # pending[k]: the untried extensions of path[: k + 1]
        pending = [first[a] & ~starts]
        while pending:
            candidates = pending[-1]
            if not candidates or len(path) >= limit:
                pending.pop()
                members ^= 1 << path.pop()
                continue
            low = candidates & -candidates
            pending[-1] = candidates ^ low
            w = low.bit_length() - 1
            if back[w] & members:
                continue
            u = path[-1]
            path.append(w)
            members |= low
            if low & targets:
                limit = (yield path) or limit
            if targets & ~members:
                pending.append(step(u, w) & ~(members | starts))
            else:
                pending.append(0)


def _last_hit(
    walk: Generator[list[int], Optional[int], None],
    hit: Callable[[list[int]], bool],
) -> Optional[tuple[int, ...]]:
    """Drive a path walk that takes a node-count bound: each path that
    ``hit`` accepts bounds the rest of the walk to strictly shorter paths, so
    the last one accepted is the first shortest in the walk's order."""
    best = bound = None
    try:
        while True:
            seq = walk.send(bound)
            if hit(seq):
                best = tuple(seq)
                bound = len(best) - 1
    except StopIteration:
        return best


def _check_known(g: PartiallyDirectedGraph, nodes: Iterable[str]) -> set[str]:
    """``nodes`` as a set; raises for the smallest one that is not a node of
    ``g``, so the error names the same node on every run."""
    node_set = set(nodes)
    unknown = node_set - g._masks.index.keys()
    if unknown:
        raise GraphError(f"unknown node: [{min(unknown)!r}]")
    return node_set


def _check_disjoint(name_a: str, a: set[str], name_b: str, b: set[str]) -> None:
    overlap = a & b
    if overlap:
        raise GraphError(f"{name_a} and {name_b} overlap: {sorted(overlap)}")


def _checked_sets(
    g: PartiallyDirectedGraph, treatments: Iterable[str], outcomes: Iterable[str]
) -> tuple[int, int]:
    """The masks of the treatment and outcome sets of a query, checked in one
    order for every query: an unknown node, then an overlap, then an empty
    set.  The path searches below take these masks as they are."""
    a_set, y_set = set(treatments), set(outcomes)
    _check_known(g, a_set | y_set)
    _check_disjoint("treatments", a_set, "outcomes", y_set)
    if not a_set or not y_set:
        raise GraphError("treatment and outcome sets must be nonempty")
    return g._masks.bits(a_set), g._masks.bits(y_set)


class _PathSearch:
    """The proper possibly causal paths from the treatment mask ``starts`` to
    the outcome mask ``targets``, as checked by :func:`_checked_sets`.

    One :func:`_proper_paths` walk over the adjacency bitmasks: it steps to
    any neighbour and never appends a node with a child already on the path,
    since that edge would point backwards and make the path non-causal.  With
    ``start_undirected_only`` the first edge must be undirected.  The callers
    differ only in what they do with the paths: list them, count them,
    collect their nodes, or keep the first shortest one.
    """

    def __init__(
        self,
        g: PartiallyDirectedGraph,
        starts: int,
        targets: int,
        start_undirected_only: bool = False,
    ) -> None:
        masks = g._masks
        neighbours = masks.neighbours
        self._nodes = g.nodes
        self._children = masks.children
        self._starts = starts
        first = masks.undirected if start_undirected_only else neighbours
        step = lambda u, v: neighbours[v]
        self.walk = partial(_proper_paths, starts, targets, first, step, masks.children)

    def node_path(self, seq: Sequence[int]) -> NodePath:
        """The path of node indices ``seq`` as a :class:`NodePath`.  A found
        path has no ``<-`` mark: the search never appends a parent."""
        children = self._children
        return NodePath(
            tuple(self._nodes[i] for i in seq),
            tuple(
                DIRECTED_MARK if children[u] >> v & 1 else UNDIRECTED_MARK
                for u, v in zip(seq, seq[1:])
            ),
        )

    def paths(self) -> list[NodePath]:
        """Every path, sorted by length, then by node sequence."""
        found = [tuple(seq) for seq in self.walk()]
        found.sort(key=lambda seq: (len(seq), seq))
        return [self.node_path(seq) for seq in found]

    def count(self) -> int:
        return sum(1 for _ in self.walk())

    def nodes_on_paths(self) -> int:
        """The mask of the nodes after the first on some path, without
        listing the paths: the on-path nodes that are not treatments."""
        on_path = 0
        for seq in self.walk():
            for i in seq:
                on_path |= 1 << i
        return on_path & ~self._starts

    def shortest(self) -> Optional[NodePath]:
        """The first path by length, then node sequence, or None.

        Each hit bounds the rest of the search to strictly shorter paths, so
        the last hit is the first shortest path in node order.
        """
        best = _last_hit(self.walk(), lambda seq: True)
        return None if best is None else self.node_path(best)


def proper_possibly_causal_paths(
    g: PartiallyDirectedGraph,
    treatments: Iterable[str],
    outcomes: Iterable[str],
    start_undirected_only: bool = False,
) -> list[NodePath]:
    """All proper possibly causal paths from ``treatments`` to ``outcomes``.

    Proper means only the first node lies in the treatment set; nodes of the
    outcome set may appear in the interior (the path is recorded once per
    outcome node it reaches).  With ``start_undirected_only`` the first edge
    must be undirected.  Output is sorted by length, then by node sequence.
    """
    starts, targets = _checked_sets(g, treatments, outcomes)
    return _PathSearch(g, starts, targets, start_undirected_only).paths()


def _reach(starts: int, first: Sequence[int], step: Callable[[int, int], int]) -> int:
    """The mask of the nodes reached from the nodes of ``starts``, reflexive,
    by a search that visits each edge state ``(u, v)``, "at ``v`` from
    ``u``", once: from a start ``s`` it moves to the nodes of the mask
    ``first[s]``, and from ``(u, v)`` to those of ``step(u, v)``."""
    reached = starts
    # taken[v]: the w of the states (v, w) already stacked
    taken = [first[v] if reached >> v & 1 else 0 for v in range(len(first))]
    stack = [(s, w) for s in _bit_indices(reached) for w in _bit_indices(first[s])]
    while stack:
        u, v = stack.pop()
        reached |= 1 << v
        new = step(u, v) & ~taken[v]
        taken[v] |= new
        stack += ((v, w) for w in _bit_indices(new))
    return reached


def _closure(starts: int, table: Sequence[int]) -> int:
    """The mask of the nodes reached from ``starts`` along ``table``, where
    ``table[v]`` is the mask of the next nodes after ``v`` (reflexive).  The
    step does not depend on the way in, so a search over nodes suffices."""
    reached = frontier = starts
    while frontier:
        after = 0
        for v in _bit_indices(frontier):
            after |= table[v]
        frontier = after & ~reached
        reached |= frontier
    return reached


def _possibly_causal_reach(
    masks: _AdjacencyMasks, starts: int, forward: bool = True
) -> int:
    """The possible descendants (``forward``) or ancestors of the nodes of
    ``starts`` in an MPDAG, reflexive.  As a possibly causal path of an MPDAG
    has an unshielded possibly causal subsequence (Perković, Kalisch &
    Maathuis, UAI 2017), a step from ``(u, v)`` to ``w`` needs ``u`` and
    ``w`` nonadjacent."""
    neighbours = masks.neighbours
    towards = masks.children if forward else masks.parents
    out = [t | u for t, u in zip(towards, masks.undirected)]
    return _reach(starts, out, lambda u, v: out[v] & ~(neighbours[u] | 1 << u))


def possible_descendants(g: PartiallyDirectedGraph, start: str) -> frozenset[str]:
    """Nodes reachable from ``start`` by a possibly causal path (reflexive).

    ``g`` must be an MPDAG (closed under the Meek rules and representing some
    DAG); on other PDAGs the result can differ from that definition.
    """
    masks = g._masks
    starts = masks.bits(_check_known(g, [start]))
    return g._names(_possibly_causal_reach(masks, starts))


def possible_ancestors(g: PartiallyDirectedGraph, targets: Iterable[str]) -> frozenset[str]:
    """Nodes with a possibly causal path into ``targets`` (reflexive).

    ``g`` must be an MPDAG, as for :func:`possible_descendants`.
    """
    masks = g._masks
    starts = masks.bits(_check_known(g, targets))
    return g._names(_possibly_causal_reach(masks, starts, forward=False))


def ancestors(g: PartiallyDirectedGraph, targets: Iterable[str]) -> frozenset[str]:
    """Nodes with a causal (all-directed) path into ``targets`` (reflexive)."""
    masks = g._masks
    return g._names(_closure(masks.bits(_check_known(g, targets)), masks.parents))


def descendants(g: PartiallyDirectedGraph, sources: Iterable[str]) -> frozenset[str]:
    """Nodes reachable from ``sources`` along directed edges (reflexive)."""
    masks = g._masks
    return g._names(_closure(masks.bits(_check_known(g, sources)), masks.children))


def parents_of_set(g: PartiallyDirectedGraph, nodes: Iterable[str]) -> frozenset[str]:
    """Union of parents of the members, minus the set itself."""
    masks = g._masks
    members = masks.bits(_check_known(g, nodes))
    out = 0
    for v in _bit_indices(members):
        out |= masks.parents[v]
    return g._names(out & ~members)


@dataclass(frozen=True)
class AncestralSets:
    parents: frozenset[str]
    ancestors: frozenset[str]
    descendants: frozenset[str]
    possible_descendants: frozenset[str]


def ancestral_sets(g: PartiallyDirectedGraph, nodes: Iterable[str]) -> AncestralSets:
    """Parent/ancestor/descendant/possible-descendant sets of a node set.

    Ancestors, descendants and possible descendants use the reflexive
    convention; parents follow the set convention (union minus the set).
    ``g`` must be an MPDAG, as for :func:`possible_descendants`.
    """
    node_set = _check_known(g, nodes)
    starts = g._masks.bits(node_set)
    return AncestralSets(
        parents=parents_of_set(g, node_set),
        ancestors=ancestors(g, node_set),
        descendants=descendants(g, node_set),
        possible_descendants=g._names(_possibly_causal_reach(g._masks, starts)),
    )


def bucket_decomposition(
    g: PartiallyDirectedGraph, nodes: Iterable[str]
) -> tuple[frozenset[str], ...]:
    """Partition ``nodes`` into buckets: maximal undirected-connected subsets.

    Connectivity uses only undirected edges between members of the set.
    Buckets are ordered by their smallest member.
    """
    masks = g._masks
    members = masks.bits(_check_known(g, nodes))
    und = [m & members for m in masks.undirected]
    buckets = []
    while members:
        bucket = _closure(members & -members, und)
        buckets.append(g._names(bucket))
        members ^= bucket
    return tuple(buckets)


def d_separated(
    g: PartiallyDirectedGraph,
    first: Iterable[str],
    second: Iterable[str],
    given: Iterable[str] = (),
) -> bool:
    """Whether ``given`` blocks every definite-status path between the sets.

    A definite-status path is d-connecting when none of its definite
    non-colliders is in the conditioning set and every collider has a
    descendant in it.  Collider openness uses directed-path descendants.
    Decided by one edge-state search (Bayes-ball, Shachter 1998).
    """
    a_set, y_set, z_set = set(first), set(second), set(given)
    _check_disjoint("first", a_set, "second", y_set)
    _check_disjoint("first", a_set, "given", z_set)
    _check_disjoint("second", y_set, "given", z_set)
    _check_known(g, a_set | y_set | z_set)
    masks = g._masks
    step = _open_step(masks, masks.bits(z_set))
    return not _reach(masks.bits(a_set), masks.neighbours, step) & masks.bits(y_set)
