"""Linear-Gaussian structural causal models.

Exact covariances, exact total effects under point and joint interventions,
reproducible sampling, and regression-based effect estimation on identified
MPDAGs.

The estimator fits each node on its parents in one consistent extension of
the MPDAG and reads the total effect off the implied coefficient matrix.  On
population covariances this returns the identified effect exactly (and does
not depend on which extension was chosen); on finite samples it is a
consistent, though not efficient, estimator of the same target.

DAGs of one Markov class, and the members of one enumeration, mostly share
their parent sets, so each :class:`ExactCovariance` memoises its per-node
regressions by ``(node, sorted parents)``.  A repeated regression would run
the same ``solve`` on the same slices of the same matrix, so reusing the
stored coefficients is bit-exact: estimates do not depend on the order in
which DAGs are visited or on whether the covariance object is shared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .graphs import GraphError, PartiallyDirectedGraph, _bit_indices
from .idgraphs import EnumerationResult, id_graphs
from .identify import NotIdentifiedError, is_identified
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
        self.dag.topological_order()  # raises if cyclic
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
    """Covariance matrix (population or sample) with its node labels.

    Each object memoises its per-node regressions, so ``matrix`` must not be
    mutated after the first regression on it.
    """

    columns: tuple[str, ...]
    matrix: np.ndarray
    # (node, sorted parents) -> regression coefficients of node on parents
    _betas: dict[tuple[str, tuple[str, ...]], np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )


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
    order = m.dag.topological_order()
    idx = {node: i for i, node in enumerate(m.nodes)}
    data = np.zeros((n, len(m.nodes)))
    for node in order:
        col = rng.normal(0.0, math.sqrt(m.noise_variances[node]), size=n)
        for parent in sorted(m.dag.parents(node)):
            col += m.coefficients[(parent, node)] * data[:, idx[parent]]
        data[:, idx[node]] = col
    return Dataset(columns=m.nodes, values=data, seed=seed)


def _as_covariance(source: CovarianceLike) -> ExactCovariance:
    if isinstance(source, Dataset):
        return ExactCovariance(source.columns, source.covariance())
    return source


def _regression_coefficient_matrix(
    cov: ExactCovariance, dag: PartiallyDirectedGraph
) -> np.ndarray:
    """Row-form coefficient matrix of ``dag`` fitted to ``cov``: row j holds
    the regression of node j on its parents (columns in ``cov.columns``).

    Each regression is solved once per covariance object, node and sorted
    parent set, and later requests reuse the stored coefficients.  A repeat
    would run the same ``solve`` on the same slices, so the memo is
    bit-exact; a rank-deficient regression is not stored and raises again.
    """
    nodes = cov.columns
    idx = {n: i for i, n in enumerate(nodes)}
    out = np.zeros((len(nodes), len(nodes)))
    for node, parent_bits in zip(dag.nodes, dag._masks.parents):
        if not parent_bits:
            continue
        # bits come out in node order, which is name order
        parents = tuple(dag.nodes[i] for i in _bit_indices(parent_bits))
        rows = [idx[p] for p in parents]
        beta = cov._betas.get((node, parents))
        if beta is None:
            sigma = cov.matrix
            gram = sigma[np.ix_(rows, rows)]
            rhs = sigma[rows, idx[node]]
            try:
                beta = np.linalg.solve(gram, rhs)
            except np.linalg.LinAlgError as exc:
                raise GraphError(
                    f"rank-deficient regression at node {node!r}"
                ) from exc
            cov._betas[(node, parents)] = beta
        out[idx[node], rows] = beta
    return out


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
    verdict = is_identified(h, a_list, [outcome])
    if not verdict:
        raise NotIdentifiedError(verdict.witness)
    cov = _as_covariance(source)
    missing = set(h.graph.nodes) - set(cov.columns)
    if missing:
        raise GraphError(f"covariance lacks nodes: {sorted(missing)}")
    dag = extension if extension is not None else consistent_extension(h)
    coef = _regression_coefficient_matrix(cov, dag)
    values = _total_effect_from_matrix(coef, cov.columns, a_list, outcome)
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


def count_distinct(vectors: Sequence[np.ndarray], tol: float) -> int:
    """Number of distinct vectors, two being equal when within ``tol`` in
    max-abs difference (transitive closure over near-equal pairs)."""
    groups: list[np.ndarray] = []
    for vec in vectors:
        for rep in groups:
            if np.max(np.abs(rep - vec)) <= tol:
                break
        else:
            groups.append(vec)
    return len(groups)


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
    cov = _as_covariance(source)  # one covariance, and one memo, for all members
    estimates = tuple(
        estimate_effect(cov, member, a_list, outcome)
        for member in enumeration.graphs
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
    """
    if p < 2:
        raise GraphError("need at least two nodes")
    rng = np.random.default_rng(seed)
    width = len(str(p))
    names = tuple(f"x{i:0{width}d}" for i in range(1, p + 1))
    edge_prob = min(1.0, avg_degree / (p - 1))

    for _ in range(max_tries):
        order = list(rng.permutation(p))
        rank = {names[node]: pos for pos, node in enumerate(order)}
        edges = []
        for i in range(p):
            for j in range(i + 1, p):
                if rng.random() < edge_prob:
                    u, v = names[i], names[j]
                    edges.append((u, v) if rank[u] < rank[v] else (v, u))
        dag = PartiallyDirectedGraph(names, edges, ())
        coefs = {}
        for edge in sorted(dag.directed):
            magnitude = rng.uniform(0.5, 1.5)
            sign = 1.0 if rng.random() < 0.5 else -1.0
            coefs[edge] = sign * magnitude
        scm = LinearScm(dag, coefs, {n: 1.0 for n in names})
        cpdag = cpdag_of_dag(dag)
        k = n_treatments if n_treatments is not None else int(rng.integers(1, 5))
        k = min(k, p - 1)
        picked = [names[i] for i in rng.choice(p, size=k + 1, replace=False)]
        treatments = tuple(sorted(picked[:k]))
        outcome = picked[k]
        if not is_identified(cpdag, treatments, [outcome]):
            return RandomInstance(
                dag=dag,
                scm=scm,
                cpdag=cpdag,
                treatments=treatments,
                outcome=outcome,
                seed=seed,
            )
    raise RejectionBudgetError(
        f"no unidentified treatment/outcome pair found in {max_tries} tries "
        f"(p={p}, avg_degree={avg_degree}, seed={seed})"
    )


def redraw_coefficients(m: LinearScm, seed: int) -> LinearScm:
    """Fresh coefficients from the same distribution, same DAG and noises."""
    rng = np.random.default_rng(seed)
    coefs = {}
    for edge in sorted(m.dag.directed):
        magnitude = rng.uniform(0.5, 1.5)
        sign = 1.0 if rng.random() < 0.5 else -1.0
        coefs[edge] = sign * magnitude
    return LinearScm(m.dag, coefs, dict(m.noise_variances))


def regression_effect_for_dag(
    cov: ExactCovariance,
    dag: PartiallyDirectedGraph,
    treatments: Sequence[str],
    outcome: str,
) -> np.ndarray:
    """Total effect the given DAG implies for the covariance: per-node
    regressions on the DAG's parent sets, then the mutilated-matrix algebra.
    Used as the per-DAG oracle when sweeping a whole equivalence class."""
    coef = _regression_coefficient_matrix(cov, dag)
    return _total_effect_from_matrix(
        coef, cov.columns, tuple(sorted(set(treatments))), outcome
    )
