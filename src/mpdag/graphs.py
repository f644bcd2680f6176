"""Partially directed graphs and the path machinery built on them.

A single immutable representation covers DAGs, CPDAGs, MPDAGs and general
PDAGs.  Node names are plain strings; the canonical node order (used for every
tie-break in the package) is lexicographic, so results never depend on the
order in which edges were supplied.

A graph is its node tuple and one table of per-node bitmasks in node order
(parents, children, undirected neighbours, and their union): bit ``i`` of an
entry stands for ``nodes[i]``, so taking bits lowest first lists nodes in
name order.  The table is the only stored adjacency.  The edge sets, the
canonical edge lines, equality and hashing are read off it, as are the name
queries (``parents``, ``mark``, ...), and every search below works on it
directly, turning names into bits and back only at its public entry points.
The validating constructor builds its table from named edges with one
function (:func:`_mask_table`) and decides acyclicity by one depth-first
search over the children masks (:func:`_directed_cycle`).  The orientation
engine hands its own masks to the trusted constructor, which checks nothing:
:mod:`mpdag.meek` runs the same cycle search on them wherever acyclicity is
not already known, so a cyclic result reports the witness the constructor
would report for the same edges.

Ancestors, descendants and buckets are closures over one mask table, node by
node.  Possible descendants and ancestors and d-separation are one polynomial
search over edge states ``(u, v)``: it visits each state once and steps on by
a local rule, in O(|E|·Δ) whatever the number of paths.  In an MPDAG every
possibly causal path has an unshielded possibly causal subsequence (Perković,
Kalisch & Maathuis, UAI 2017), and d-connection is a rule on consecutive
triples (Bayes-ball, Shachter 1998).  :mod:`mpdag.identify` decides
identification, the forbidden set and adjustment validity by searches of
the same kind.

Paths from a start set to a target set are grown breadth first over
per-node bitmasks, one length at a time, each length in node sequence order,
and only where paths are the answer or where no search over edge states is
known to give it.  Listing (:func:`proper_possibly_causal_paths`) and the
invalid-set witness (:func:`mpdag.identify._adjustment_witness`) grow their
own prefixes, flat tuples with nothing in them but what their answer needs.
One state search, :func:`_causal_states`, serves the rest: counting and
the shortest violating path, both from the undirected first edges.

* A proper possibly causal path steps to any neighbour and never appends a
  node with a child already on the path, since a "possibly causal" verdict
  checks *all* ordered node pairs for a backward edge.  So what can follow a
  prefix depends only on its last node and its node set, and the prefixes
  that share that state are merged without loss: a state keeps the number
  of prefixes it stands for and, up to the first that ends in an outcome,
  the state its first prefix grew from.
  Counting the violating paths (the diagnostic m at the root, and the
  per-branch counts of the minimal enumeration when read) sums the counts
  of the states that end in an outcome; the first shortest violating path
  (the witness of an unidentified effect, and the branch edge of the
  minimal enumeration) is the first prefix of the first of them, read back
  state by state, and the search stops there.  A length holds at most
  ``|V|·2^|V|`` states, where the paths can be factorially many.  Listing
  keeps every prefix with its names and marks, and merges none, so the
  paths come out in length-then-node order with no sort.
* The witness of an invalid adjustment set steps by the definite-status
  rule of d-separation (:func:`_open_step`), which reads the node before the
  last, so it keeps every prefix; it visits only the paths the set leaves
  open and stops at the first non-causal one.

The searches hold one length of prefixes or states at a time, where a
depth-first walk holds one path.  Listing and the invalid-set witness are
exponential in the worst case, as their answers can be; counting and the
shortest path are exponential in the node count at worst, not factorial.
There is no silent truncation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Iterator, Optional, Sequence

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
    """Verdict of :func:`validate_pdag`.  A valid verdict carries the mask
    table of the edges, which the graph constructor keeps."""

    ok: bool
    violation: Optional[str] = None
    witness: Optional[tuple[str, ...]] = None
    _masks: Optional["_AdjacencyMasks"] = field(default=None, repr=False, compare=False)

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
    a directed and an undirected edge, the smallest such pair reported, or two
    undirected copies), and a directed cycle in the directed part (a
    two-cycle ``A->B, B->A`` is reported as a cycle, not a duplicate).  The
    constructor passes its edges sorted, so the first violation it reports
    does not depend on the iteration order of a set.
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
        pair = min(tuple(sorted(e)) for e in clash)
        return Validation(False, "duplicate adjacency", pair)
    und_set = set(undirected)
    if len(und_pairs) < len(und_set):
        for u, v in undirected:
            if (v, u) in und_set:
                return Validation(False, "duplicate adjacency", tuple(sorted((u, v))))
    order = sorted(node_set)
    masks = _mask_table(order, directed, undirected)
    cycle = _directed_cycle(order, masks.children)
    if cycle is not None:
        return Validation(False, "directed cycle", cycle)
    return Validation(True, _masks=masks)


def _directed_cycle(
    nodes: Sequence[str], children: Sequence[int]
) -> Optional[tuple[str, ...]]:
    """The first directed cycle met by a depth-first search over the masks
    ``children`` (bit ``i`` stands for ``nodes[i]``) that takes roots and
    children in node order, its first node repeated at the end; or None.

    Iterative, with one mask of untried children per path node, so a long
    directed chain cannot exhaust the interpreter stack.
    """
    done = 0
    for root in range(len(nodes)):
        if done >> root & 1:
            continue
        path, on_path = [root], 1 << root
        pending = [children[root]]
        while pending:
            untried = pending[-1] & ~done
            if not untried:
                pending.pop()
                v = path.pop()
                on_path ^= 1 << v
                done |= 1 << v
                continue
            low = untried & -untried
            w = low.bit_length() - 1
            if on_path & low:
                return tuple(nodes[i] for i in path[path.index(w):]) + (nodes[w],)
            pending[-1] = untried ^ low
            path.append(w)
            on_path |= low
            pending.append(children[w])
    return None


def _bit_indices(mask: int) -> Iterator[int]:
    """The indices of the set bits of ``mask``, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _index_pairs(table: Sequence[int]) -> list[tuple[int, int]]:
    """The pairs ``(u, v)`` with bit ``v`` set in ``table[u]``, sorted."""
    pairs = []
    for u, row in enumerate(table):
        while row:
            low = row & -row
            pairs.append((u, low.bit_length() - 1))
            row ^= low
    return pairs


def _kahn(masks: "_AdjacencyMasks") -> list[int]:
    """Kahn's algorithm over the directed part, smallest ready index first:
    every node, as no graph of this module has a directed cycle."""
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
    """Adjacency as bitmasks: bit ``i`` of an entry stands for ``nodes[i]``.

    Equality and hashing leave out ``index``, a function of the node tuple
    that a graph compares beside its table."""

    index: dict[str, int] = field(compare=False)
    neighbours: tuple[int, ...]
    children: tuple[int, ...]
    undirected: tuple[int, ...]
    parents: tuple[int, ...]

    def bits(self, names: Iterable[str]) -> int:
        """The mask of the named nodes."""
        index, out = self.index, 0
        for n in names:
            out |= 1 << index[n]
        return out

    def mark(self, i: int, j: int) -> Optional[str]:
        """The edge mark between nodes ``i`` and ``j`` seen from ``i``, or
        None."""
        if self.children[i] >> j & 1:
            return DIRECTED_MARK
        if self.parents[i] >> j & 1:
            return REVERSED_MARK
        if self.undirected[i] >> j & 1:
            return UNDIRECTED_MARK
        return None


def _mask_table(
    nodes: Sequence[str],
    directed: Iterable[tuple[str, str]],
    undirected: Iterable[tuple[str, str]],
) -> _AdjacencyMasks:
    """The mask table of named edges over the sorted ``nodes``, every
    endpoint one of them."""
    index = {n: i for i, n in enumerate(nodes)}
    children, parents, und = ([0] * len(index) for _ in range(3))
    for tail, head in directed:
        children[index[tail]] |= 1 << index[head]
        parents[index[head]] |= 1 << index[tail]
    for u, v in undirected:
        und[index[u]] |= 1 << index[v]
        und[index[v]] |= 1 << index[u]
    return _AdjacencyMasks(
        index=index,
        neighbours=tuple(c | p | u for c, p, u in zip(children, parents, und)),
        children=tuple(children),
        undirected=tuple(und),
        parents=tuple(parents),
    )


@dataclass(frozen=True)
class PartiallyDirectedGraph:
    """Immutable partially directed graph without directed cycles.

    A graph is its sorted ``nodes`` and its mask table ``_masks``, the only
    stored adjacency.  The constructor takes named edges, normalises them and
    raises :class:`GraphError` on any invariant violation, so instances are
    always valid PDAGs.  Equality and hashing compare the nodes and the
    table; the edge sets ``directed`` and ``undirected`` (each undirected
    pair with its smaller endpoint first) and the text form are read off the
    table.  All queries are read-only and safe to share across threads.
    """

    nodes: tuple[str, ...]
    _masks: _AdjacencyMasks

    def __init__(
        self,
        nodes: Iterable[str],
        directed: Iterable[tuple[str, str]] = (),
        undirected: Iterable[tuple[str, str]] = (),
    ) -> None:
        node_tuple = tuple(sorted({str(n) for n in nodes}))
        dir_set = {(str(t), str(h)) for t, h in directed}
        und_set = {tuple(sorted((str(u), str(v)))) for u, v in undirected}
        verdict = validate_pdag(node_tuple, sorted(dir_set), sorted(und_set))
        if not verdict.ok:
            raise GraphError(f"{verdict.violation}: {verdict.witness}")
        object.__setattr__(self, "nodes", node_tuple)
        object.__setattr__(self, "_masks", verdict._masks)

    @classmethod
    def _trusted(
        cls, nodes: tuple[str, ...], masks: _AdjacencyMasks
    ) -> "PartiallyDirectedGraph":
        """The graph of sorted ``nodes`` and the mask table ``masks`` over
        them, which becomes its ``_masks``, with no check at all.

        A mask table makes known endpoints, no self loop and at most one edge
        per adjacent pair moot; acyclicity is the caller's to guarantee.  The
        callers are :mod:`mpdag.meek`'s: a builder flagged sound (the CPDAG
        of a DAG, a closed graph proved when its builder is made, or a
        closure that proved its class nonempty, and all below them), any
        other builder after its own cycle search, and the pattern of a DAG,
        a subgraph of that DAG; and :func:`mpdag.linear.random_instance`,
        whose DAG orients every edge along a random ordering of the nodes.
        """
        g = object.__new__(cls)
        object.__setattr__(g, "nodes", nodes)
        object.__setattr__(g, "_masks", masks)
        return g

    def __repr__(self) -> str:
        edges = f"directed={self.directed!r}, undirected={self.undirected!r}"
        return f"PartiallyDirectedGraph(nodes={self.nodes!r}, {edges})"

    # -- adjacency -----------------------------------------------------------

    def _names(self, mask: int) -> frozenset[str]:
        """The nodes whose bits are set in ``mask``."""
        nodes, out = self.nodes, []
        while mask:
            low = mask & -mask
            out.append(nodes[low.bit_length() - 1])
            mask ^= low
        return frozenset(out)

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
        return None if j is None else masks.mark(i, j)

    def _pairs(self, table: Sequence[int]) -> list[tuple[str, str]]:
        """The pairs ``(nodes[u], nodes[v])`` with bit ``v`` set in
        ``table[u]``, sorted: bits come out in node order, which is name
        order."""
        nodes = self.nodes
        return [(nodes[u], nodes[v]) for u, v in _index_pairs(table)]

    @cached_property
    def directed(self) -> frozenset[tuple[str, str]]:
        return frozenset(self.sorted_directed())

    @cached_property
    def undirected(self) -> frozenset[tuple[str, str]]:
        return frozenset(self.sorted_undirected())

    @property
    def skeleton(self) -> frozenset[tuple[str, str]]:
        pairs = self._pairs(self._masks.neighbours)
        return frozenset((u, v) for u, v in pairs if u < v)

    @property
    def is_directed(self) -> bool:
        """True iff every edge is directed (the graph is then a DAG)."""
        return not any(self._masks.undirected)

    def sorted_directed(self) -> list[tuple[str, str]]:
        return self._pairs(self._masks.children)

    def sorted_undirected(self) -> list[tuple[str, str]]:
        return [(u, v) for u, v in self._pairs(self._masks.undirected) if u < v]

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
        return tuple(self.nodes[i] for i in _kahn(self._masks))

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


def _node_path(g: PartiallyDirectedGraph, seq: Sequence[int]) -> NodePath:
    """The path of node indices ``seq`` as a :class:`NodePath`, its marks
    read off the masks of ``g``.  For the index sequences of a search over
    those masks, which are paths of ``g`` by construction; :func:`path_in`
    checks caller-given ones."""
    marks = tuple(g._masks.mark(u, v) for u, v in zip(seq, seq[1:]))
    return NodePath(tuple(g.nodes[i] for i in seq), marks)


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


def _causal_states(
    masks: _AdjacencyMasks, starts: int, targets: int, first: Sequence[int]
) -> Iterator[list]:
    """Breadth-first search over the states of the proper possibly causal
    paths from the nodes of ``starts`` to the nodes of ``targets``: yields
    each state as it is made, for two nodes, then three, and so on until no
    state grows, each length in node sequence order.

    A state is ``[v, members, closed, count, back]``: the last node and the
    node mask that its prefixes share, the mask of the nodes they may not
    take (the starts, the nodes on them and the parents of each, since a node
    with a child already on a path would make it non-causal), the number of
    prefixes it stands for, and the state its first prefix grew from.  A
    start takes a node of ``first[s]`` and a later state any neighbour
    outside its closed mask, and a state stops growing once every target is
    on it, as no extension can end in a new one.  As what can follow a
    prefix depends only on that state, the first prefix stands for all: a
    later prefix that grows into a made state adds its count to it, so a
    count is final only once its length is done.

    ``back`` is None for a start, which is not yielded, and for every state
    made after the first that ends in a target: only that one's prefix is
    ever read back, and a search that runs on would otherwise keep every
    state it made alive.  So the search holds about one length of states
    at a time, and a length at most ``|V|·2^|V|`` where the paths can be
    factorially many.
    """
    neighbours, parents = masks.neighbours, masks.parents
    shift, table = len(neighbours), first
    level = [[s, 1 << s, starts | parents[s], 1, None] for s in _bit_indices(starts)]
    hit = 0
    while level:
        # made[members | 1 << shift + w]: the state (w, members) of this length
        made: dict[int, list] = {}
        for state in level:
            v, members, closed, count, _ = state
            if not targets & ~members:
                continue
            rest = table[v] & ~closed
            while rest:
                low = rest & -rest
                rest ^= low
                key = members | low | low << shift
                kept = made.get(key)
                if kept is None:
                    w = low.bit_length() - 1
                    made[key] = kept = [
                        w, members | low, closed | low | parents[w], count, None if hit else state
                    ]
                    hit |= low & targets
                    yield kept
                else:
                    kept[3] += count
        level, table = list(made.values()), neighbours


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

    The search grows every prefix one length at a time, breadth first.  A
    prefix is ``(last node, node mask, closed mask, carried)``: the closed
    mask holds the starts, the nodes on it and the parents of each, since a
    node with a child already on the path would make it non-causal, and
    ``carried`` is its names and marks interleaved.  A start takes a node of
    the first-step table, and a prefix any neighbour outside its closed mask.
    Starts and steps are taken in node order, so each length comes out in
    node sequence order, and a prefix stops growing once every outcome is on
    it, as no extension can end in a new one.
    """
    starts, targets = _checked_sets(g, treatments, outcomes)
    masks, nodes = g._masks, g.nodes
    neighbours, parents = masks.neighbours, masks.parents
    # parts[v][w]: the mark between adjacent nodes v and w, seen from v, and
    # the name of w
    parts = [{w: (masks.mark(v, w), nodes[w]) for w in _bit_indices(row)}
             for v, row in enumerate(neighbours)]
    table = masks.undirected if start_undirected_only else neighbours
    level = [(s, 1 << s, starts | parents[s], (nodes[s],)) for s in _bit_indices(starts)]
    found = []
    while level:
        grown = []
        for v, members, closed, carried in level:
            rest, part = table[v] & ~closed, parts[v]
            while rest:
                low = rest & -rest
                rest ^= low
                w = low.bit_length() - 1
                path = carried + part[w]
                if low & targets:
                    found.append(path)
                    if not targets & ~(members | low):
                        continue
                grown.append((w, members | low, closed | low | parents[w], path))
        level, table = grown, neighbours
    return [NodePath(c[::2], c[1::2]) for c in found]


def _reach(starts: int, first: Sequence[int], step: Callable[[int, int], int]) -> int:
    """The mask of the nodes reached from the nodes of ``starts``, reflexive,
    by a search that visits each edge state ``(u, v)``, "at ``v`` from
    ``u``", once: from a start ``s`` it moves to the nodes of the mask
    ``first[s]``, and from ``(u, v)`` to those of ``step(u, v)``."""
    reached = rest = starts
    # taken[v]: the w of the states (v, w) already stacked
    taken = [0] * len(first)
    stack = []
    while rest:
        low = rest & -rest
        rest ^= low
        s = low.bit_length() - 1
        taken[s] = new = first[s]
        while new:
            bit = new & -new
            stack.append((s, bit.bit_length() - 1))
            new ^= bit
    while stack:
        u, v = stack.pop()
        reached |= 1 << v
        new = step(u, v) & ~taken[v]
        taken[v] |= new
        while new:
            bit = new & -new
            stack.append((v, bit.bit_length() - 1))
            new ^= bit
    return reached


def _closure(starts: int, table: Sequence[int]) -> int:
    """The mask of the nodes reached from ``starts`` along ``table``, where
    ``table[v]`` is the mask of the next nodes after ``v`` (reflexive).  The
    step does not depend on the way in, so a search over nodes suffices."""
    reached = frontier = starts
    while frontier:
        after = 0
        while frontier:
            low = frontier & -frontier
            after |= table[low.bit_length() - 1]
            frontier ^= low
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
    _check_known(g, a_set | y_set | z_set)
    _check_disjoint("first", a_set, "second", y_set)
    _check_disjoint("first", a_set, "given", z_set)
    _check_disjoint("second", y_set, "given", z_set)
    masks = g._masks
    step = _open_step(masks, masks.bits(z_set))
    return not _reach(masks.bits(a_set), masks.neighbours, step) & masks.bits(y_set)
