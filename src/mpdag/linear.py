"""Linear-Gaussian structural causal models.

Exact covariances, exact total effects under point and joint interventions,
reproducible sampling, and regression-based effect estimation on identified
MPDAGs.

The estimator fits each node on its parents in one consistent extension of
the MPDAG and reads the total effect off the implied coefficient matrix.  On
population covariances this returns the identified effect exactly (and does
not depend on which extension was chosen); on finite samples it is a
consistent, though not efficient, estimator of the same target.

Effects of many DAGs come from one batched sweep.  A
:class:`_RegressionLayout` over the DAGs collects each distinct regression
(a node on a parent set) once; its pass over a covariance solves them with
one stacked ``solve`` per parent-set size, and then inverts every DAG's
``I - B`` in one more stacked ``solve``.  The simulation study builds one
layout per instance, over the Markov class, and runs it on every population
covariance and on the sample covariance; :func:`_regression_effects` is a
layout and one pass.  A stacked ``solve`` runs the same LAPACK routine on the
same matrices as one call per matrix, so a sweep is bit-identical to fitting
the DAGs one at a time, in any order and with any repeats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .graphs import (
    GraphError, PartiallyDirectedGraph, _AdjacencyMasks, _bit_indices, _checked_sets
)
from .idgraphs import EnumerationResult, id_graphs
from .identify import _first_edges, _require_identified
from .meek import Mpdag, consistent_extension, cpdag_of_dag


@dataclass(frozen=True)
class LinearScm:
    """DAG plus edge coefficients and noise variances.

    Coefficient keys must be exactly the DAG's directed edges and every noise
    variance must be positive.
    """

    dag: PartiallyDirectedGraph
    coefficients: dict[tuple[str, str], float]
    noise_variances: dict[str, float]

    def __post_init__(self) -> None:
        if not self.dag.is_directed:
            raise GraphError("LinearScm needs a fully directed DAG")
        keys = {tuple(k) for k in self.coefficients}
        if keys != set(self.dag.directed):
            raise GraphError("coefficient keys must match the DAG edges exactly")
        for node in self.dag.nodes:
            if self.noise_variances.get(node, 0.0) <= 0.0:
                raise GraphError(f"noise variance of {node!r} must be positive")

    @property
    def nodes(self) -> tuple[str, ...]:
        return self.dag.nodes


@dataclass(frozen=True, eq=False)
class Dataset:
    """Column-labelled sample matrix with the seed that generated it."""

    columns: tuple[str, ...]
    values: np.ndarray
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.values.ndim != 2 or self.values.shape[0] < 1:
            raise GraphError("dataset needs at least one row")
        if self.values.shape[1] != len(self.columns):
            raise GraphError("column count mismatch")

    def covariance(self) -> np.ndarray:
        if self.values.shape[0] < 2:
            raise GraphError("need at least two rows for a covariance")
        return np.cov(self.values, rowvar=False, ddof=1)

    def to_csv(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.values:
            lines.append(",".join(repr(float(x)) for x in row))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ExactCovariance:
    """Covariance matrix (population or sample) with its node labels."""

    columns: tuple[str, ...]
    matrix: np.ndarray


CovarianceLike = Union[Dataset, ExactCovariance]


@dataclass(frozen=True)
class EffectEstimate:
    """Per-treatment total-effect coefficients for one source graph."""

    treatments: tuple[str, ...]
    values: tuple[float, ...]
    source: tuple[str, ...]  # canonical edge lines of the source graph
    estimator: str  # "oracle" | "regression"

    def as_array(self) -> np.ndarray:
        return np.array(self.values, dtype=float)


def _coefficient_matrix(m: LinearScm) -> np.ndarray:
    """Row form: X = MX + eps, with M[j, i] the coefficient on edge i -> j."""
    idx = {n: i for i, n in enumerate(m.nodes)}
    out = np.zeros((len(m.nodes), len(m.nodes)))
    for (tail, head), coef in m.coefficients.items():
        out[idx[head], idx[tail]] = coef
    return out


def _total_effect_from_matrix(
    mat: np.ndarray,
    nodes: Sequence[str],
    treatments: Sequence[str],
    outcome: str,
) -> np.ndarray:
    idx = {n: i for i, n in enumerate(nodes)}
    cut = mat.copy()
    for a in treatments:
        cut[idx[a], :] = 0.0  # remove edges into the intervened node
    eye = np.eye(len(nodes))
    total = np.linalg.solve(eye - cut, eye)
    return np.array([total[idx[outcome], idx[a]] for a in treatments])


def true_total_effect(
    m: LinearScm, treatments: Iterable[str], outcome: str
) -> EffectEstimate:
    """Exact total effect of the treatments on a single outcome node.

    Edges into every intervened node are removed before inverting; for a
    single treatment this equals the sum over directed paths of coefficient
    products.
    """
    a_list = tuple(sorted(set(treatments)))
    if outcome in a_list:
        raise GraphError("outcome must not be a treatment")
    values = _total_effect_from_matrix(
        _coefficient_matrix(m), m.nodes, a_list, outcome
    )
    return EffectEstimate(
        treatments=a_list,
        values=tuple(float(v) for v in values),
        source=m.dag.edge_lines(),
        estimator="oracle",
    )


def covariance(m: LinearScm) -> ExactCovariance:
    """Population covariance (I-M)^-1 D (I-M)^-T."""
    mat = _coefficient_matrix(m)
    eye = np.eye(len(m.nodes))
    inv = np.linalg.solve(eye - mat, eye)
    noise = np.diag([m.noise_variances[n] for n in m.nodes])
    return ExactCovariance(m.nodes, inv @ noise @ inv.T)


def standardized(m: LinearScm) -> LinearScm:
    """Rescale so every variable has unit variance (same correlations)."""
    sigma = covariance(m).matrix
    scale = {n: math.sqrt(sigma[i, i]) for i, n in enumerate(m.nodes)}
    coefs = {
        (t, h): c * scale[t] / scale[h] for (t, h), c in m.coefficients.items()
    }
    noise = {n: m.noise_variances[n] / scale[n] ** 2 for n in m.nodes}
    return LinearScm(m.dag, coefs, noise)


def sample(m: LinearScm, n: int, seed: int) -> Dataset:
    """Draw ``n`` rows by simulating the equations in ancestral order."""
    if n < 1:
        raise GraphError("need n >= 1")
    rng = np.random.default_rng(seed)
    nodes, masks = m.nodes, m.dag._masks
    data = np.zeros((n, len(nodes)))
    for node in m.dag.topological_order():
        i = masks.index[node]
        col = rng.normal(0.0, math.sqrt(m.noise_variances[node]), size=n)
        # bits come out in node order, which is name order
        for j in _bit_indices(masks.parents[i]):
            col += m.coefficients[(nodes[j], node)] * data[:, j]
        data[:, i] = col
    return Dataset(columns=m.nodes, values=data, seed=seed)


def _as_covariance(source: CovarianceLike, nodes: Iterable[str]) -> ExactCovariance:
    """The covariance of ``source``, which must cover every one of ``nodes``."""
    cov = (
        ExactCovariance(source.columns, source.covariance())
        if isinstance(source, Dataset)
        else source
    )
    missing = set(nodes) - set(cov.columns)
    if missing:
        raise GraphError(f"covariance lacks nodes: {sorted(missing)}")
    return cov


class _RegressionLayout:
    """Where the regressions of each of ``dags`` sit in one sweep over a
    covariance of ``columns``, to fit them on any number of covariances with
    :meth:`effects`.

    The DAGs' nodes must be among ``columns``, in any order.  The layout
    collects the distinct regressions (a node's column and its parents'
    columns, parents in name order) in first-seen order, groups them by
    parent-set size, and records where each DAG's regressions go in a
    ``(K, p, p)`` coefficient stack.
    """

    def __init__(
        self,
        columns: Sequence[str],
        dags: Sequence[PartiallyDirectedGraph],
        treatments: Sequence[str],
        outcome: str,
    ) -> None:
        index = {n: i for i, n in enumerate(columns)}
        p = len(index)
        # (node column, parent columns) -> slot, in first-seen order
        slots: dict[tuple[int, tuple[int, ...]], int] = {}
        # node tuple -> (its columns, (node index, parent mask) -> slot): a
        # node whose parent set was seen before costs one lookup, no key
        # building
        layouts: dict[tuple[str, ...], tuple[list[int], dict[tuple[int, int], int]]] = {}
        owners: list[int] = []  # for each regression a DAG uses: that DAG
        used: list[int] = []  # ... and the regression's slot
        for k, dag in enumerate(dags):
            layout = layouts.get(dag.nodes)
            if layout is None:
                layout = layouts[dag.nodes] = ([index[n] for n in dag.nodes], {})
            cols, local = layout
            for i, bits in enumerate(dag._masks.parents):
                if not bits:
                    continue
                slot = local.get((i, bits))
                if slot is None:
                    # bits come out in node order, which is name order
                    key = (cols[i], tuple(cols[j] for j in _bit_indices(bits)))
                    slot = local[i, bits] = slots.setdefault(key, len(slots))
                owners.append(k)
                used.append(slot)

        # per slot: the node's column, and its parents' columns padded with
        # a spare column p
        self.columns = tuple(columns)
        self.regressions = list(slots)
        width = max((len(parents) for _, parents in self.regressions), default=0)
        slot_node = np.array([node for node, _ in self.regressions], dtype=np.intp)
        slot_parents = np.full((len(slots), width), p, dtype=np.intp)
        by_size: dict[int, list[int]] = {}
        for slot, (_, parents) in enumerate(self.regressions):
            slot_parents[slot, : len(parents)] = parents
            by_size.setdefault(len(parents), []).append(slot)
        # per parent-set size: its slots, their parents' and nodes' columns
        self.groups = [
            (members, slot_parents[members, :size], slot_node[members, None])
            for size, members in by_size.items()
        ]
        self.width = width
        # each used regression's coefficients go to (DAG, node, parents)
        self.used = np.array(used, dtype=np.intp)
        self.target = (
            np.array(owners, dtype=np.intp)[:, None],
            slot_node[self.used, None],
            slot_parents[self.used],
        )
        self.a_cols = [index[a] for a in treatments]
        self.y_col = index[outcome]
        self.shape = (len(dags), p)

    def effects(self, sigma: np.ndarray) -> np.ndarray:
        """Total effects that each DAG implies for the covariance matrix
        ``sigma`` over the layout's columns: row ``k`` holds the effects of
        the treatments (in the given order) on the outcome when every node
        of ``dags[k]`` is regressed on its parents.

        It solves the distinct regressions with one stacked ``solve`` per
        parent-set size, gathers each DAG's rows into a ``(K, p, p)``
        coefficient stack with the treatment rows zeroed, and inverts every
        ``I - B`` in one more stacked ``solve``.  A rank-deficient
        regression raises :class:`GraphError` naming the node of the first
        one met, DAG by DAG and node by node.
        """
        beta = np.zeros((len(self.regressions), self.width))
        for members, rows, node in self.groups:
            gram = sigma[rows[:, :, None], rows[:, None, :]]
            try:
                # a trailing axis of one: a stack of vectors means the same
                # thing on numpy 1.x and 2.x
                beta[members, : rows.shape[1]] = np.linalg.solve(
                    gram, sigma[rows, node][..., None]
                )[..., 0]
            except np.linalg.LinAlgError:
                _raise_rank_deficient(sigma, self.columns, self.regressions)
                raise
        k, p = self.shape
        coef = np.zeros((k, p, p + 1))
        coef[self.target] = beta[self.used]
        coef[:, self.a_cols, :] = 0.0  # remove edges into the intervened nodes
        eye = np.eye(p)
        total = np.linalg.solve(
            eye - coef[:, :, :p], np.broadcast_to(eye, (k, p, p))
        )
        return total[:, self.y_col, self.a_cols]


def _regression_effects(
    cov: ExactCovariance,
    dags: Sequence[PartiallyDirectedGraph],
    treatments: Sequence[str],
    outcome: str,
) -> np.ndarray:
    """The effects of :meth:`_RegressionLayout.effects` for the DAGs on one
    covariance."""
    layout = _RegressionLayout(cov.columns, dags, treatments, outcome)
    return layout.effects(cov.matrix)


def _raise_rank_deficient(
    sigma: np.ndarray,
    columns: Sequence[str],
    regressions: Sequence[tuple[int, tuple[int, ...]]],
) -> None:
    """Re-solve the regressions one at a time, in the given order, and raise
    for the first that is rank-deficient."""
    for node, parents in regressions:
        rows = list(parents)
        try:
            np.linalg.solve(sigma[np.ix_(rows, rows)], sigma[rows, node])
        except np.linalg.LinAlgError as exc:
            raise GraphError(
                f"rank-deficient regression at node {columns[node]!r}"
            ) from exc


def estimate_effect(
    source: CovarianceLike,
    h: Mpdag,
    treatments: Iterable[str],
    outcome: str,
    extension: Optional[PartiallyDirectedGraph] = None,
) -> EffectEstimate:
    """Estimate an identified total effect from a covariance or a dataset.

    Fits each node on its parents in a consistent extension of the MPDAG and
    applies the same matrix algebra as the oracle effect.  With an exact
    covariance the result equals the identified effect; invariant to which
    extension is used.
    """
    a_list = tuple(sorted(set(treatments)))
    _require_identified(h.graph, *_checked_sets(h.graph, a_list, [outcome]))
    dag = extension if extension is not None else consistent_extension(h)
    cov = _as_covariance(source, h.graph.nodes)
    (values,) = _regression_effects(cov, [dag], a_list, outcome)
    return EffectEstimate(
        treatments=a_list,
        values=tuple(float(v) for v in values),
        source=h.graph.edge_lines(),
        estimator="regression",
    )


@dataclass(frozen=True)
class PossibleEffects:
    enumeration: EnumerationResult
    estimates: tuple[EffectEstimate, ...]

    def distinct_count(self, tol: float = 1e-9) -> int:
        return count_distinct([e.as_array() for e in self.estimates], tol)


def count_distinct(vectors: Union[Sequence[np.ndarray], np.ndarray], tol: float) -> int:
    """Number of distinct vectors, two being equal when within ``tol`` in
    max-abs difference.  Greedy in input order: a vector within ``tol`` of
    an earlier group's first vector joins that group, any other starts a new
    group.  ``vectors`` may be a sequence of equal-length vectors or a
    ``(K, d)`` array, one vector per row.

    The first vector not yet grouped leads a group and takes every later
    one within ``tol`` of it, so each group costs one comparison with the
    rest; a vector with a NaN joins no group and takes none."""
    stack = np.asarray(vectors, dtype=float)
    if stack.ndim == 1:  # scalars
        stack = stack[:, None]
    count = 0
    while len(stack):
        count += 1
        rest = stack[1:]
        stack = rest[~(np.abs(rest - stack[0]).max(axis=1) <= tol)]
    return count


def possible_effects(
    source: CovarianceLike,
    h: Mpdag,
    treatments: Iterable[str],
    outcome: str,
) -> PossibleEffects:
    """Run the minimal enumeration, then estimate the effect in each output
    graph.  Estimates are ordered like the enumeration output."""
    a_list = tuple(sorted(set(treatments)))
    enumeration = id_graphs(h, a_list, [outcome])
    cov = _as_covariance(source, h.graph.nodes)
    # the members are identified where the enumeration stopped
    dags = [consistent_extension(m) for m in enumeration.graphs]
    values = _regression_effects(cov, dags, a_list, outcome)
    estimates = tuple(
        EffectEstimate(
            treatments=a_list,
            values=tuple(float(v) for v in row),
            source=member.graph.edge_lines(),
            estimator="regression",
        )
        for member, row in zip(enumeration.graphs, values)
    )
    return PossibleEffects(enumeration=enumeration, estimates=estimates)


class RejectionBudgetError(RuntimeError):
    """Could not draw an unidentified instance within the retry budget."""


@dataclass(frozen=True)
class RandomInstance:
    dag: PartiallyDirectedGraph
    scm: LinearScm
    cpdag: Mpdag
    treatments: tuple[str, ...]
    outcome: str
    seed: int


def _draw_coefficients(rng: np.random.Generator, count: int) -> list[float]:
    """``count`` coefficients, uniform on [-1.5, -0.5] union [0.5, 1.5]: per
    coefficient a magnitude, then a sign, from one array of draws.  The
    magnitude ``0.5 + u`` is what ``rng.uniform(0.5, 1.5)`` computes from
    the same draw, bit for bit."""
    u = rng.random(2 * count)
    magnitude = 0.5 + u[0::2]
    return np.where(u[1::2] < 0.5, magnitude, -magnitude).tolist()


def random_instance(
    p: int,
    avg_degree: float,
    seed: int,
    n_treatments: Optional[int] = None,
    max_tries: int = 200,
) -> RandomInstance:
    """Random unidentified instance for the simulation study.

    The DAG skeleton is Erdos-Renyi with the requested expected average
    degree, oriented by a random causal ordering.  Coefficients are uniform on
    [-1.5, -0.5] union [0.5, 1.5] (bounded away from zero so possible effects
    stay generically distinct at test tolerance), noise variances are one.
    Treatments and outcome are redrawn until the effect is unidentified in the
    CPDAG; exhausting the budget raises, and the caller retries with a new
    seed.

    Each try draws, in this order: the causal ordering, one uniform per node
    pair ``i < j`` in row-major order (the pair is an edge, from the earlier
    to the later node of the ordering, when it falls below the edge
    probability), one magnitude and one sign per edge in sorted order, the
    treatment-set size unless ``n_treatments`` fixes it, and the treatments
    and outcome.
    """
    if p < 2:
        raise GraphError("need at least two nodes")
    if n_treatments is not None and n_treatments < 1:
        raise GraphError(f"need at least one treatment, got {n_treatments}")
    if not avg_degree >= 0:
        raise GraphError(f"average degree must be nonnegative, got {avg_degree}")
    rng = np.random.default_rng(seed)
    width = len(str(p))
    names = tuple(f"x{i:0{width}d}" for i in range(1, p + 1))
    index = {n: i for i, n in enumerate(names)}
    edge_prob = min(1.0, avg_degree / (p - 1))
    first, second = np.triu_indices(p, 1)  # the node pairs, row-major

    for _ in range(max_tries):
        rank = np.empty(p, dtype=np.intp)
        rank[rng.permutation(p)] = np.arange(p)
        hit = rng.random(len(first)) < edge_prob
        u, v = first[hit], second[hit]
        forward = rank[u] < rank[v]
        children, parents = [0] * p, [0] * p
        for tail, head in zip(
            np.where(forward, u, v).tolist(), np.where(forward, v, u).tolist()
        ):
            children[tail] |= 1 << head
            parents[head] |= 1 << tail
        # acyclic, as every edge follows the ordering
        dag = PartiallyDirectedGraph._trusted(names, _AdjacencyMasks(
            index=index,
            neighbours=tuple(c | q for c, q in zip(children, parents)),
            children=tuple(children),
            undirected=(0,) * p,
            parents=tuple(parents),
        ))
        coefficients = _draw_coefficients(rng, len(u))
        cpdag = cpdag_of_dag(dag)
        k = n_treatments if n_treatments is not None else int(rng.integers(1, 5))
        k = min(k, p - 1)
        picked = rng.choice(p, size=k + 1, replace=False).tolist()
        a = sum(1 << i for i in picked[:k])
        if not _first_edges(cpdag.graph, a, 1 << picked[k])[1]:
            scm = LinearScm(
                dag,
                dict(zip(dag.sorted_directed(), coefficients)),
                {n: 1.0 for n in names},
            )
            return RandomInstance(
                dag=dag,
                scm=scm,
                cpdag=cpdag,
                treatments=tuple(names[i] for i in sorted(picked[:k])),
                outcome=names[picked[k]],
                seed=seed,
            )
    raise RejectionBudgetError(
        f"no unidentified treatment/outcome pair found in {max_tries} tries "
        f"(p={p}, avg_degree={avg_degree}, seed={seed})"
    )


def redraw_coefficients(m: LinearScm, seed: int) -> LinearScm:
    """Fresh coefficients from the same distribution, same DAG and noises."""
    edges = m.dag.sorted_directed()
    coefficients = _draw_coefficients(np.random.default_rng(seed), len(edges))
    return LinearScm(m.dag, dict(zip(edges, coefficients)), dict(m.noise_variances))


def regression_effect_for_dag(
    cov: ExactCovariance,
    dag: PartiallyDirectedGraph,
    treatments: Sequence[str],
    outcome: str,
) -> np.ndarray:
    """Total effect the given DAG implies for the covariance: per-node
    regressions on the DAG's parent sets, then the mutilated-matrix algebra;
    the same numbers as this DAG's row of a sweep over a whole class."""
    (values,) = _regression_effects(
        cov, [dag], tuple(sorted(set(treatments))), outcome
    )
    return values
