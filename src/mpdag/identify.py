"""Identification of total effects given an MPDAG.

Covers the graphical identifiability test (every proper possibly causal path
from the treatments to the outcomes must start with a directed edge), the
bucket factorisation of the interventional density for identified effects,
the forbidden set, and the generalized adjustment criterion.  An adjustment
set exists exactly when the canonical one does (Perkovic, Textor, Kalisch &
Maathuis, JMLR 2018), so that set is the only candidate tried.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .graphs import (
    GraphError,
    InternalInconsistencyError,
    NodePath,
    PartiallyDirectedGraph,
    _PathSearch,
    _check_known,
    _checked_sets,
    _closure,
    _last_hit,
    _open_step,
    _possibly_causal_reach,
    _proper_paths,
    bucket_decomposition,
    parents_of_set,
    path_in,
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


def _violating_search(h: Mpdag, starts: int, targets: int) -> _PathSearch:
    """Search for the violating paths from the treatment mask ``starts`` to
    the outcome mask ``targets`` (as :func:`_checked_sets` gives them): proper
    possibly causal paths that start with an undirected edge."""
    return _PathSearch(h.graph, starts, targets, start_undirected_only=True)


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
    path when the answer is no."""
    checked = _checked_sets(h.graph, treatments, outcomes)
    witness = _violating_search(h, *checked).shortest()
    if witness is not None:
        return Identifiability(False, witness)
    return Identifiability(True)


def _require_identified(h: Mpdag, a: int, y: int) -> None:
    """Raise :class:`NotIdentifiedError` unless the effect of the treatment
    mask ``a`` on the outcome mask ``y`` is identified."""
    witness = _violating_search(h, a, y).shortest()
    if witness is not None:
        raise NotIdentifiedError(witness)


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
    _require_identified(h, a, y)
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
    possibly causal path from the treatments to the outcomes."""
    g = h.graph
    return g._names(_forbidden(g, *_checked_sets(g, treatments, outcomes)))


def _forbidden(g: PartiallyDirectedGraph, a: int, y: int) -> int:
    """The mask of the forbidden set for the checked masks ``a`` and ``y``."""
    return _possibly_causal_reach(g._masks, _PathSearch(g, a, y).nodes_on_paths())


@dataclass(frozen=True)
class AdjustmentVerdict:
    valid: bool
    reason: Optional[str] = None  # "forbidden" | "open_path"
    witness_node: Optional[str] = None
    witness_path: Optional[NodePath] = None

    def __bool__(self) -> bool:
        return self.valid


def _adjustment_verdict(
    g: PartiallyDirectedGraph, a: int, y: int, z: int, forb: int
) -> AdjustmentVerdict:
    """:func:`is_adjustment_set` for an identified effect, on masks: the
    treatments ``a``, the outcomes ``y``, the candidate ``z`` and the
    forbidden set ``forb``."""
    hit = z & forb
    if hit:
        return AdjustmentVerdict(False, "forbidden", witness_node=min(g._names(hit)))
    masks = g._masks
    children = masks.children

    def non_causal(seq: list[int]) -> bool:
        # some node has a child earlier on the path
        members = 0
        for i in seq:
            if children[i] & members:
                return True
            members |= 1 << i
        return False

    # the first open non-causal path by length, then node sequence
    no_back = [0] * len(g.nodes)
    walk = _proper_paths(a, y, masks.neighbours, _open_step(masks, z), no_back)
    best = _last_hit(walk, non_causal)
    if best is None:
        return AdjustmentVerdict(True)
    witness = path_in(g, [g.nodes[i] for i in best])
    return AdjustmentVerdict(False, "open_path", witness_path=witness)


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

    One search walks the proper definite-status paths that the candidate
    leaves open (the d-separation walk: a non-collider in the set or a
    collider without a descendant in it ends the path).  The witness of an
    invalid set is the smallest open non-causal path by length, then node
    sequence.
    """
    g = h.graph
    a, y = _checked_sets(g, treatments, outcomes)
    z = g._masks.bits(_check_known(g, adjust))
    overlap = z & (a | y)
    if overlap:
        raise GraphError(f"adjustment set overlaps A or Y: {sorted(g._names(overlap))}")
    _require_identified(h, a, y)
    return _adjustment_verdict(g, a, y, z, _forbidden(g, a, y))


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
    _require_identified(h, a, y)
    masks = g._masks
    forb = _forbidden(g, a, y)
    candidate = _possibly_causal_reach(masks, a | y, forward=False) & ~(forb | a | y)
    if _adjustment_verdict(g, a, y, candidate, forb):
        return g._names(candidate)
    # for one treatment a and one outcome y, a proper possibly causal path
    # from a to y exists exactly when y is a possible descendant of a
    if a.bit_count() == y.bit_count() == 1 and _possibly_causal_reach(masks, a) & y:
        raise InternalInconsistencyError(
            "no adjustment set found for singleton treatment and outcome"
        )
    return None
