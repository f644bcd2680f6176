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
from typing import AbstractSet, Iterable, Optional

from .graphs import (
    GraphError,
    InternalInconsistencyError,
    NodePath,
    _PathSearch,
    _check_known,
    _checked_sets,
    _closure,
    _definite_status_walk,
    _last_hit,
    _possibly_causal_reach,
    bucket_decomposition,
    parents_of_set,
    path_in,
    possible_ancestors,
    possible_descendants,
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


def _violating_search(
    h: Mpdag, treatments: Iterable[str], outcomes: Iterable[str]
) -> _PathSearch:
    """Search for the violating paths: proper possibly causal paths that
    start with an undirected edge."""
    return _PathSearch(h.graph, treatments, outcomes, start_undirected_only=True)


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
    witness = _violating_search(h, treatments, outcomes).shortest()
    if witness is not None:
        return Identifiability(False, witness)
    return Identifiability(True)


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
    a_set, y_set = _checked_sets(h.graph, treatments, outcomes)
    verdict = is_identified(h, a_set, y_set)
    if not verdict:
        raise NotIdentifiedError(verdict.witness)
    g = h.graph
    masks = g._masks
    a_bits, y_bits = masks.bits(a_set), masks.bits(y_set)
    parents_without_a = [p & ~a_bits for p in masks.parents]
    b_set = g._names(_closure(y_bits, parents_without_a) & ~y_bits)
    buckets = bucket_decomposition(g, b_set | y_set)
    return GFormula(
        treatments=tuple(sorted(a_set)),
        outcomes=tuple(sorted(y_set)),
        buckets=tuple(
            (tuple(sorted(bucket)), tuple(sorted(parents_of_set(g, bucket))))
            for bucket in buckets
        ),
        marginalize=tuple(sorted(b_set)),
    )


def forbidden_set(
    h: Mpdag, treatments: Iterable[str], outcomes: Iterable[str]
) -> frozenset[str]:
    """Possible descendants of every non-treatment node lying on some proper
    possibly causal path from the treatments to the outcomes."""
    a_set, y_set = _checked_sets(h.graph, treatments, outcomes)
    g = h.graph
    on_path = _PathSearch(g, a_set, y_set).nodes_on_paths() - a_set
    return g._names(_possibly_causal_reach(g._masks, g._masks.bits(on_path)))


@dataclass(frozen=True)
class AdjustmentVerdict:
    valid: bool
    reason: Optional[str] = None  # "forbidden" | "open_path"
    witness_node: Optional[str] = None
    witness_path: Optional[NodePath] = None

    def __bool__(self) -> bool:
        return self.valid


def _adjustment_verdict(
    h: Mpdag,
    a_set: set[str],
    y_set: set[str],
    z_set: AbstractSet[str],
    forb: frozenset[str],
) -> AdjustmentVerdict:
    """:func:`is_adjustment_set` for an identified effect whose forbidden set
    is ``forb``."""
    hit = z_set & forb
    if hit:
        return AdjustmentVerdict(False, "forbidden", witness_node=min(hit))
    g = h.graph
    children = g._masks.children
    y_bits = g._masks.bits(y_set)

    def non_causal(seq: list[int]) -> bool:
        # ends in an outcome, and some node has a child earlier on the path
        if not y_bits >> seq[-1] & 1:
            return False
        members = 0
        for i in seq:
            if children[i] & members:
                return True
            members |= 1 << i
        return False

    # the first open non-causal path by length, then node sequence
    best = _last_hit(_definite_status_walk(g, a_set, z_set), non_causal)
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
    a_set, y_set = _checked_sets(h.graph, treatments, outcomes)
    z_set = _check_known(h.graph, adjust)
    overlap = z_set & (a_set | y_set)
    if overlap:
        raise GraphError(f"adjustment set overlaps A or Y: {sorted(overlap)}")
    verdict = is_identified(h, a_set, y_set)
    if not verdict:
        raise NotIdentifiedError(verdict.witness)
    return _adjustment_verdict(h, a_set, y_set, z_set, forbidden_set(h, a_set, y_set))


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
    a_set, y_set = _checked_sets(h.graph, treatments, outcomes)
    verdict = is_identified(h, a_set, y_set)
    if not verdict:
        raise NotIdentifiedError(verdict.witness)
    g = h.graph
    forb = forbidden_set(h, a_set, y_set)
    candidate = frozenset(
        possible_ancestors(g, a_set | y_set) - forb - a_set - y_set
    )
    if _adjustment_verdict(h, a_set, y_set, candidate, forb):
        return candidate
    # for one treatment a and one outcome y, a proper possibly causal path
    # from a to y exists exactly when y is a possible descendant of a
    if len(a_set) == len(y_set) == 1 and y_set <= possible_descendants(g, min(a_set)):
        raise InternalInconsistencyError(
            "no adjustment set found for singleton treatment and outcome"
        )
    return None
