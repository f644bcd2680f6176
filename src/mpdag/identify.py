"""Identification of total effects given an MPDAG.

Covers the graphical identifiability test (every proper possibly causal path
from the treatments to the outcomes must start with a directed edge), the
bucket factorisation of the interventional density for identified effects,
the forbidden set, and the generalized adjustment criterion.  An adjustment
set exists exactly when the canonical one does (Perkovic, Textor, Kalisch &
Maathuis, JMLR 2018), so that set is the only candidate tried.

The decisions rest on one polynomial search, :func:`_first_edges`: the set
V1 of the second nodes of the proper possibly causal paths from the
treatments to the outcomes, and whether some such path starts with an
undirected edge.  The effect is identified exactly when none does.  Every
query that needs an identified effect (the identification formula, the
forbidden set and the adjustment criterion) refuses an unidentified one in
:func:`_require_identified`, with the witness of :func:`is_identified`.
The forbidden set is the possible descendants of V1, and a set that avoids
it is an adjustment set exactly when it d-separates the treatments from the
outcomes once the edges ``a -> v``, ``v`` in V1, are removed (the proper
back-door graph; Perkovic et al. 2018).  Paths are searched for only where
one is returned, or counted.  The shortest violating path of an
unidentified effect and the number of violating paths are read off the
states (last node, node set) of :func:`mpdag.graphs._causal_states`: the
path is the first prefix of the first state that ends in an outcome,
searched from the undirected first edges into V1, and the count is the sum
of the prefix counts of those states.  The open path that shows a set
invalid is grown prefix by prefix, as its step reads the node before the
last.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .graphs import (
    GraphError,
    InternalInconsistencyError,
    NodePath,
    PartiallyDirectedGraph,
    _AdjacencyMasks,
    _bit_indices,
    _check_known,
    _checked_sets,
    _causal_states,
    _closure,
    _node_path,
    _open_step,
    _possibly_causal_reach,
    _reach,
    bucket_decomposition,
    parents_of_set,
    proper_possibly_causal_paths,
)
from .meek import Mpdag


class NotIdentifiedError(GraphError):
    """Operation requires the effect to be identified, but it is not."""

    def __init__(self, witness: NodePath) -> None:
        super().__init__(f"effect not identified; witness path {witness}")
        self.witness = witness


@dataclass(frozen=True)
class Identifiability:
    identified: bool
    witness: Optional[NodePath] = None

    def __bool__(self) -> bool:
        return self.identified


def _shortest_violating(
    g: PartiallyDirectedGraph, starts: int, targets: int, v1: Optional[int]
) -> Optional[tuple[int, ...]]:
    """The node indices of the first violating path from the treatment mask
    ``starts`` to the outcome mask ``targets`` (as :func:`_checked_sets`
    gives them) by length, then node sequence, or None.  Violating paths are
    the proper possibly causal paths that start with an undirected edge.

    The first state of :func:`mpdag.graphs._causal_states` that ends in an
    outcome holds that path as its first prefix, read off the ``back``
    links: a later prefix of a state has the same extensions, each after its
    counterpart.  The search ends there, inside its length.  Given a mask
    ``v1`` holding the V1 of :func:`_first_edges`, not None, it starts only
    from the undirected first edges into it, as every violating path does.
    """
    undirected = g._masks.undirected
    first = undirected if v1 is None else [row & v1 for row in undirected]
    for state in _causal_states(g._masks, starts, targets, first):
        if targets >> state[0] & 1:
            seq = []
            while state is not None:
                seq.append(state[0])
                state = state[4]
            return tuple(reversed(seq))
    return None


def _first_edges(g: PartiallyDirectedGraph, a: int, y: int) -> tuple[int, bool]:
    """V1, the mask of the nodes ``v`` outside the treatment mask ``a`` with
    a proper possibly causal path ``t, v, ...`` from a treatment ``t`` to the
    outcome mask ``y``, and whether the effect is identified: no such path
    starts with an undirected edge ``t -- v``.

    One backward search over edge states ``(u, x)``, "at ``x`` from ``u``",
    none of them at a treatment, marks those from which an outcome is
    reached: ``(u, x)`` with ``x`` an outcome, and ``(u, x)`` with a marked
    ``(x, w)`` for a ``w`` nonadjacent to ``u``, since a possibly causal path
    of an MPDAG has an unshielded possibly causal subsequence (Perković,
    Kalisch & Maathuis, UAI 2017).  A first edge ``t -> v`` or ``t -- v`` then
    leads to an outcome when ``v`` is one, or when some marked ``(v, w)`` has
    ``w`` outside the parents of ``t``: the triple ``t, v, w`` may be
    shielded, as long as the path keeps ``v`` as its second node.
    """
    masks = g._masks
    children, undirected = masks.children, masks.undirected
    parents, neighbours = masks.parents, masks.neighbours
    # ahead[u]: the x of the marked states (u, x)
    ahead = [0] * len(g.nodes)
    stack = []
    for x in _bit_indices(y):
        for u in _bit_indices((parents[x] | undirected[x]) & ~a):
            ahead[u] |= 1 << x
            stack.append((u, x))
    while stack:
        u, x = stack.pop()
        # the states (w, u) that step on to x
        into = (parents[u] | undirected[u]) & ~(neighbours[x] | 1 << x | a)
        bit_u = 1 << u
        while into:
            bit = into & -into
            into ^= bit
            w = bit.bit_length() - 1
            if not ahead[w] & bit_u:
                ahead[w] |= bit_u
                stack.append((w, u))
    v1, identified = 0, True
    for t in _bit_indices(a):
        for v in _bit_indices((children[t] | undirected[t]) & ~a):
            if y >> v & 1 or ahead[v] & ~parents[t]:
                v1 |= 1 << v
                if undirected[t] >> v & 1:
                    identified = False
    return v1, identified


def _violating_witness(
    g: PartiallyDirectedGraph, a: int, y: int, v1: int
) -> NodePath:
    """The shortest violating path of an effect that :func:`_first_edges`
    found unidentified, with V1 ``v1``."""
    witness = _shortest_violating(g, a, y, v1)
    if witness is None:
        raise InternalInconsistencyError("unidentified effect without a violating path")
    return _node_path(g, witness)


def _count_violating(g: PartiallyDirectedGraph, starts: int, targets: int) -> int:
    """The number of violating paths, as for :func:`_shortest_violating`:
    the sum of the counts of the states that end in an outcome.  A later
    prefix of the same length may still add to a state after it is yielded,
    so the counts are summed once the search is done."""
    masks = g._masks
    hits = [
        state for state in _causal_states(masks, starts, targets, masks.undirected)
        if targets >> state[0] & 1
    ]
    return sum(state[3] for state in hits)


def violating_paths(
    h: Mpdag, treatments: Iterable[str], outcomes: Iterable[str]
) -> list[NodePath]:
    """Proper possibly causal paths that start with an undirected edge,
    sorted by length then node sequence.  Their count is the diagnostic m(g)."""
    return proper_possibly_causal_paths(
        h.graph, treatments, outcomes, start_undirected_only=True
    )


def is_identified(
    h: Mpdag, treatments: Iterable[str], outcomes: Iterable[str]
) -> Identifiability:
    """Graphical identifiability of the total effect, with a shortest witness
    path when the answer is no.  Only a no-answer searches paths."""
    g = h.graph
    a, y = _checked_sets(g, treatments, outcomes)
    v1, identified = _first_edges(g, a, y)
    if identified:
        return Identifiability(True)
    return Identifiability(False, _violating_witness(g, a, y, v1))


def _require_identified(g: PartiallyDirectedGraph, a: int, y: int) -> int:
    """V1 of the treatment mask ``a`` and the outcome mask ``y``
    (:func:`_first_edges`); raise :class:`NotIdentifiedError` unless the
    effect is identified."""
    v1, identified = _first_edges(g, a, y)
    if not identified:
        raise NotIdentifiedError(_violating_witness(g, a, y, v1))
    return v1


@dataclass(frozen=True)
class GFormula:
    """Bucket factorisation of the interventional density of an identified
    effect: outcome-side nodes split into buckets, each conditioned on its
    parent set, with the non-outcome bucket nodes integrated out.

    Equality is structural, so two graphs share the identification formula
    exactly when their GFormula objects compare equal.
    """

    treatments: tuple[str, ...]
    outcomes: tuple[str, ...]
    buckets: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]
    marginalize: tuple[str, ...]

    def __str__(self) -> str:
        factors = []
        for nodes, parents in self.buckets:
            left = ",".join(nodes)
            if parents:
                factors.append(f"f({left} | {','.join(parents)})")
            else:
                factors.append(f"f({left})")
        product = " ".join(factors)
        if self.marginalize:
            return f"∫ {product} d({','.join(self.marginalize)})"
        return product

    def to_json(self) -> dict:
        return {
            "A": list(self.treatments),
            "Y": list(self.outcomes),
            "buckets": [
                {"nodes": list(nodes), "parents": list(parents)}
                for nodes, parents in self.buckets
            ],
            "marginalize": list(self.marginalize),
        }


def g_formula(
    h: Mpdag, treatments: Iterable[str], outcomes: Iterable[str]
) -> GFormula:
    """Identification formula for an identified effect.

    The marginalisation set consists of the ancestors of the outcomes in the
    graph with the treatments removed (outcomes excluded); it is joined with
    the outcomes and split into buckets, whose parent sets are taken in the
    full graph.  Buckets are ordered by smallest member; the product itself is
    order-free.
    """
    g = h.graph
    a, y = _checked_sets(g, treatments, outcomes)
    _require_identified(g, a, y)
    parents_without_a = [p & ~a for p in g._masks.parents]
    b = _closure(y, parents_without_a) & ~y
    buckets = bucket_decomposition(g, g._names(b | y))
    return GFormula(
        treatments=tuple(sorted(g._names(a))),
        outcomes=tuple(sorted(g._names(y))),
        buckets=tuple(
            (tuple(sorted(bucket)), tuple(sorted(parents_of_set(g, bucket))))
            for bucket in buckets
        ),
        marginalize=tuple(sorted(g._names(b))),
    )


def forbidden_set(
    h: Mpdag, treatments: Iterable[str], outcomes: Iterable[str]
) -> frozenset[str]:
    """Possible descendants of every non-treatment node lying on some proper
    possibly causal path from the treatments to the outcomes: the possible
    descendants of V1 (:func:`_first_edges`).

    The forbidden set is an input to the generalized adjustment criterion,
    which is stated for identified effects only (Perkovic et al. 2018), so
    an unidentified effect raises :class:`NotIdentifiedError`, with the
    witness path of :func:`is_identified`."""
    g = h.graph
    return g._names(_possibly_causal_reach(g._masks, _require_identified(
        g, *_checked_sets(g, treatments, outcomes)
    )))


@dataclass(frozen=True)
class AdjustmentVerdict:
    valid: bool
    reason: Optional[str] = None  # "forbidden" | "open_path"
    witness_node: Optional[str] = None
    witness_path: Optional[NodePath] = None

    def __bool__(self) -> bool:
        return self.valid


def _back_door_separated(
    masks: _AdjacencyMasks, a: int, y: int, z: int, v1: int
) -> bool:
    """Whether the node mask ``z`` d-separates the treatments ``a`` from the
    outcomes ``y`` once the first edges ``t -> v``, ``t`` in ``a`` and ``v``
    in ``v1``, of the proper possibly causal paths are removed: one
    edge-state search by the definite-status rule (:func:`_open_step`).
    For an identified effect and a ``z`` outside the forbidden set, that is
    the generalized adjustment criterion (Perkovic et al. 2018)."""
    children, parents = list(masks.children), list(masks.parents)
    neighbours = list(masks.neighbours)
    for t in _bit_indices(a):
        cut = children[t] & v1
        children[t] ^= cut
        neighbours[t] ^= cut
        for v in _bit_indices(cut):
            parents[v] ^= 1 << t
            neighbours[v] ^= 1 << t
    back_door = _AdjacencyMasks(
        masks.index, tuple(neighbours), tuple(children), masks.undirected, tuple(parents)
    )
    return not _reach(a, back_door.neighbours, _open_step(back_door, z)) & y


def _adjustment_witness(
    g: PartiallyDirectedGraph, a: int, y: int, z: int
) -> Optional[NodePath]:
    """The first open non-causal definite-status path from the treatments
    ``a`` to the outcomes ``y`` given ``z``, by length, then node sequence;
    or None.  A breadth-first search over every path that ``z`` leaves open,
    one length at a time, each in node sequence order: it keeps every
    prefix, as its step (:func:`_open_step`) reads the node before the last
    and its test the whole path.  A prefix is ``(u, v, closed, seq)``: its
    last two nodes (``s, s`` for a start ``s``), the mask of the treatments
    and its nodes, and its node indices; it stops growing once every outcome
    is on it."""
    masks = g._masks
    neighbours, children = masks.neighbours, masks.children
    step = _open_step(masks, z)

    def non_causal(seq: tuple[int, ...]) -> bool:
        # some node has a child earlier on the path
        members = 0
        for i in seq:
            if children[i] & members:
                return True
            members |= 1 << i
        return False

    level = [(s, s, a, (s,)) for s in _bit_indices(a)]
    while level:
        grown = []
        for u, v, closed, seq in level:
            if not y & ~closed:
                continue
            rest = (neighbours[v] if u == v else step(u, v)) & ~closed
            while rest:
                low = rest & -rest
                rest ^= low
                path = seq + (low.bit_length() - 1,)
                if low & y and non_causal(path):
                    return _node_path(g, path)
                grown.append((v, path[-1], closed | low, path))
        level = grown
    return None


def is_adjustment_set(
    h: Mpdag,
    treatments: Iterable[str],
    outcomes: Iterable[str],
    adjust: Iterable[str],
) -> AdjustmentVerdict:
    """Generalized adjustment criterion.

    Valid exactly when the candidate avoids the forbidden set and blocks every
    proper non-causal definite-status path from the treatments to the
    outcomes.  Stated only under the identifiability premise, so an
    unidentified effect raises :class:`NotIdentifiedError`.

    A candidate outside the forbidden set is decided by one d-separation
    search in the proper back-door graph.  Only an invalid one searches the
    proper definite-status paths that it leaves open (a non-collider in the
    set or a collider without a descendant in it ends the path), for its
    witness: the smallest open non-causal path by length, then node
    sequence.
    """
    g = h.graph
    a, y = _checked_sets(g, treatments, outcomes)
    z = g._masks.bits(_check_known(g, adjust))
    overlap = z & (a | y)
    if overlap:
        raise GraphError(f"adjustment set overlaps A or Y: {sorted(g._names(overlap))}")
    v1 = _require_identified(g, a, y)
    hit = z & _possibly_causal_reach(g._masks, v1)
    if hit:
        return AdjustmentVerdict(False, "forbidden", witness_node=min(g._names(hit)))
    if _back_door_separated(g._masks, a, y, z, v1):
        return AdjustmentVerdict(True)
    witness = _adjustment_witness(g, a, y, z)
    if witness is None:
        raise InternalInconsistencyError("invalid adjustment set without an open path")
    return AdjustmentVerdict(False, "open_path", witness_path=witness)


def find_adjustment_set(
    h: Mpdag, treatments: Iterable[str], outcomes: Iterable[str]
) -> Optional[frozenset[str]]:
    """The canonical adjustment set, or None when no adjustment set exists.

    The canonical set is the possible ancestors of the treatments and
    outcomes, minus the forbidden set and the two sets themselves.  Some
    adjustment set exists exactly when this one is valid (Perkovic, Textor,
    Kalisch & Maathuis, JMLR 2018), so no other candidate is tried.

    For a singleton treatment and outcome joined by some proper possibly
    causal path, a set is guaranteed to exist and failing to find one is an
    internal error.  Without such a path the effect is identified as the
    plain marginal, and no conditional of the form f(y | a, z) can reproduce
    it when the outcome is a definite cause of the treatment, so None is a
    legitimate answer there too.
    """
    g = h.graph
    a, y = _checked_sets(g, treatments, outcomes)
    v1 = _require_identified(g, a, y)
    masks = g._masks
    forb = _possibly_causal_reach(masks, v1)
    candidate = _possibly_causal_reach(masks, a | y, forward=False) & ~(forb | a | y)
    if _back_door_separated(masks, a, y, candidate, v1):
        return g._names(candidate)
    # some proper possibly causal path exists exactly when V1 is nonempty
    if a.bit_count() == y.bit_count() == 1 and v1:
        raise InternalInconsistencyError(
            "no adjustment set found for singleton treatment and outcome"
        )
    return None
