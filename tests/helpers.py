"""Shared fixtures data and independent oracles for the test suite.

The oracles here re-derive results straight from definitions (exhaustive
orientation enumeration, pairwise path scans, covariance algebra) and must
stay independent of the code paths they check.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

import mpdag as M
from mpdag import graphs
from mpdag.graphs import _bit_indices, _checked_sets, _open_step
from mpdag.meek import _Builder

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def load_fixture(name: str) -> M.PartiallyDirectedGraph:
    return M.load_graph(FIXTURES / name)


def fixture_mpdag(name: str) -> M.Mpdag:
    return M.meek_closure(load_fixture(name))


def lines(g) -> tuple[str, ...]:
    graph = g.graph if isinstance(g, M.Mpdag) else g
    return graph.edge_lines()


# Expected outputs on the four-node example (MPDAG: A -> Y known, rest
# undirected), treatments {A}, outcome {Y}.  Derived by hand from the
# definitions and double-checked by the exhaustive oracles below.
FOUR_NODE_MINIMAL = [
    ("A -> V1", "A -> V2", "A -> Y", "V1 -- V2", "V1 -- Y"),
    ("A -> V1", "A -> Y", "V1 -> Y", "V2 -> A", "V2 -> V1"),
    ("A -> Y", "V1 -> A", "V1 -> Y", "A -- V2", "V1 -- V2"),
]

FOUR_NODE_TREATMENT_ORIENTATIONS = [
    ("A -> V1", "A -> V2", "A -> Y", "V1 -- V2", "V1 -- Y"),
    ("A -> V1", "A -> Y", "V1 -> Y", "V2 -> A", "V2 -> V1"),
    ("A -> V2", "A -> Y", "V1 -> A", "V1 -> V2", "V1 -> Y"),
    ("A -> Y", "V1 -> A", "V1 -> Y", "V2 -> A", "V1 -- V2"),
]

FOUR_NODE_DAGS = [
    ("A -> V1", "A -> V2", "A -> Y", "V1 -> V2", "V1 -> Y"),
    ("A -> V1", "A -> V2", "A -> Y", "V1 -> V2", "Y -> V1"),
    ("A -> V1", "A -> V2", "A -> Y", "V1 -> Y", "V2 -> V1"),
    ("A -> V1", "A -> Y", "V1 -> Y", "V2 -> A", "V2 -> V1"),
    ("A -> V2", "A -> Y", "V1 -> A", "V1 -> V2", "V1 -> Y"),
    ("A -> Y", "V1 -> A", "V1 -> V2", "V1 -> Y", "V2 -> A"),
    ("A -> Y", "V1 -> A", "V1 -> Y", "V2 -> A", "V2 -> V1"),
]

# Minimal enumeration on the complete undirected four-node graph with the
# joint treatment {A1, A2} and outcome Y: nine graphs partitioning the 24
# represented DAGs into classes of sizes 1,3,1,4,1,2,3,1,8.
COMPLETE4_MINIMAL = [
    ("A1 -> A2", "A1 -> V1", "A1 -> Y", "A2 -> Y", "V1 -> A2", "V1 -> Y"),
    ("A1 -> A2", "A1 -> V1", "A1 -> Y", "Y -> A2", "A2 -- V1", "V1 -- Y"),
    ("A1 -> A2", "A1 -> Y", "V1 -> A1", "V1 -> A2", "V1 -> Y", "Y -> A2"),
    ("A1 -> V1", "A1 -> Y", "A2 -> V1", "A2 -> Y", "A1 -- A2", "V1 -- Y"),
    ("A1 -> Y", "A2 -> A1", "A2 -> V1", "A2 -> Y", "V1 -> A1", "V1 -> Y"),
    ("A1 -> Y", "A2 -> Y", "V1 -> A1", "V1 -> A2", "V1 -> Y", "A1 -- A2"),
    ("A2 -> A1", "A2 -> V1", "A2 -> Y", "Y -> A1", "A1 -- V1", "V1 -- Y"),
    ("A2 -> A1", "A2 -> Y", "V1 -> A1", "V1 -> A2", "V1 -> Y", "Y -> A1"),
    ("Y -> A1", "Y -> A2", "A1 -- A2", "A1 -- V1", "A2 -- V1", "V1 -- Y"),
]

# Simulation example: per-graph identified effects (exact covariance).
SIM_POINT_EFFECTS = {
    ("A1 -> A2", "A1 -> V", "A1 -> Y", "A2 -- V", "A2 -- Y"): (3.0,),
    ("A1 -> A2", "A1 -> Y", "A2 -> Y", "V -> A1", "V -> A2"): (1.8,),
    ("A1 -> V", "A2 -> V", "Y -> A1", "A1 -- A2", "A2 -- Y"): (0.0,),
    ("A1 -> Y", "A2 -> A1", "A2 -> Y", "A1 -- V", "A2 -- V"): (2.0,),
}

SIM_JOINT_EFFECTS = {
    ("A1 -> A2", "A1 -> V", "A1 -> Y", "A2 -> V", "Y -> A2"): (3.0, 0.0),
    ("A1 -> V", "A2 -> A1", "A2 -> V", "A2 -> Y", "Y -> A1"): (0.0, 2.0),
    ("A1 -> V", "A2 -> V", "Y -> A1", "Y -> A2", "A1 -- A2"): (0.0, 0.0),
    ("A1 -> Y", "A2 -> Y", "A1 -- A2", "A1 -- V", "A2 -- V"): (2.0, 1.0),
}


def sim_scm() -> M.LinearScm:
    dag = M.PartiallyDirectedGraph(
        ["A1", "A2", "V", "Y"],
        [("A1", "A2"), ("A1", "V"), ("A1", "Y"), ("A2", "V"), ("A2", "Y")],
    )
    coefs = {
        ("A1", "A2"): 1.0,
        ("A1", "V"): 1.0,
        ("A1", "Y"): 2.0,
        ("A2", "V"): 2.0,
        ("A2", "Y"): 1.0,
    }
    return M.LinearScm(dag, coefs, {n: 1.0 for n in dag.nodes})


# -- path classification -----------------------------------------------------


class PathKind(Enum):
    CAUSAL = "causal"
    POSSIBLY_CAUSAL = "possibly_causal"
    NON_CAUSAL = "non_causal"


@dataclass(frozen=True)
class PathClassification:
    kind: PathKind
    definite_status: bool


def _is_definite_status(g: M.PartiallyDirectedGraph, path: M.NodePath) -> bool:
    for i in range(1, len(path.nodes) - 1):
        left, right = path.marks[i - 1], path.marks[i]
        is_collider = left == "->" and right == "<-"
        is_definite_noncollider = (
            left == "<-"
            or right == "->"
            or (
                left == "--"
                and right == "--"
                and not g.adjacent(path.nodes[i - 1], path.nodes[i + 1])
            )
        )
        if not (is_collider or is_definite_noncollider):
            return False
    return True


def classify_path(g: M.PartiallyDirectedGraph, path) -> PathClassification:
    """Classify a path (a :class:`NodePath` or a node sequence) as causal /
    possibly causal / non-causal, and say whether it is of definite status.

    The possibly-causal check scans *every* ordered pair ``i < j`` on the path
    for a backward edge ``nodes[j] -> nodes[i]``, not just consecutive pairs.
    """
    if not isinstance(path, M.NodePath):
        path = M.path_in(g, path)
    else:
        M.path_in(g, path.nodes)  # re-verify against this host graph
    kind = PathKind.POSSIBLY_CAUSAL
    seq = path.nodes
    for i, j in itertools.combinations(range(len(seq)), 2):
        if (seq[j], seq[i]) in g.directed:
            kind = PathKind.NON_CAUSAL
            break
    if kind is PathKind.POSSIBLY_CAUSAL and all(m == "->" for m in path.marks):
        kind = PathKind.CAUSAL
    return PathClassification(kind, _is_definite_status(g, path))


def unshielded_subsequence(g: M.PartiallyDirectedGraph, path: M.NodePath) -> M.NodePath:
    """Shrink a possibly causal path to an unshielded possibly causal one.

    Repeatedly drops the middle node of the leftmost shielded triple.  The
    result keeps the original endpoints and is again possibly causal, since a
    subsequence of a possibly causal path only removes node pairs.
    """
    verdict = classify_path(g, path)
    if verdict.kind is PathKind.NON_CAUSAL:
        raise M.GraphError(f"path is not possibly causal: {path}")
    seq = list(path.nodes)
    changed = True
    while changed:
        changed = False
        for i in range(1, len(seq) - 1):
            if g.adjacent(seq[i - 1], seq[i + 1]):
                del seq[i]
                changed = True
                break
    return M.path_in(g, seq)


# -- independent oracles ------------------------------------------------------


def brute_force_class(dag: M.PartiallyDirectedGraph) -> list[M.PartiallyDirectedGraph]:
    """Every acyclic orientation of the skeleton with the same unshielded
    colliders as ``dag``: the Markov equivalence class, from the definition."""
    skeleton = sorted(dag.skeleton)
    reference = dag.unshielded_colliders()
    out = []
    for bits in itertools.product((0, 1), repeat=len(skeleton)):
        directed = [
            (u, v) if bit == 0 else (v, u) for (u, v), bit in zip(skeleton, bits)
        ]
        try:
            candidate = M.PartiallyDirectedGraph(dag.nodes, directed, ())
        except M.GraphError:
            continue
        if candidate.unshielded_colliders() == reference:
            out.append(candidate)
    return sorted(out, key=lines)


def exhaustive_class_nonempty(g: M.PartiallyDirectedGraph) -> bool:
    """Does some orientation of the undirected edges of ``g`` give a DAG that
    :func:`is_represented` puts in the class of ``g``?  From the definition,
    by a depth-first search over the undirected edges in sorted order, each
    oriented both ways, which drops a partial orientation as soon as it has
    a directed cycle or an unshielded collider ``g`` lacks: orienting more
    edges removes neither."""
    colliders = g.unshielded_colliders()
    undirected = sorted(g.undirected)

    def extend(directed: frozenset, k: int) -> bool:
        try:
            partial = M.PartiallyDirectedGraph(g.nodes, directed, undirected[k:])
        except M.GraphError:  # a directed cycle
            return False
        if not partial.unshielded_colliders() <= colliders:
            return False
        if k == len(undirected):
            return M.is_represented(partial, M.Mpdag(g))
        u, v = undirected[k]
        return extend(directed | {(u, v)}, k + 1) or extend(directed | {(v, u)}, k + 1)

    return extend(frozenset(g.directed), 0)


def no_dag_refusal(g: M.PartiallyDirectedGraph) -> str:
    """The message that refuses ``g`` when it represents no DAG: the nodes
    the elimination of Dor & Tarsi (1992) leaves, in node order.  By sweeps
    in node order over the name-keyed adjacency, each removing every node
    with no child left whose undirected neighbours left are adjacent to all
    its other neighbours left, until a sweep removes none.

    The sweeps the package ran before its worklist over bitmasks, over
    names, kept as the reference for the nodes its refusal names."""
    adjacency = NameAdjacency(g)
    left = set(g.nodes)
    removed = True
    while removed:
        removed = False
        for x in sorted(left):
            near = adjacency.neighbours(x) & left
            if adjacency.children[x] & left or any(
                near - {y} - adjacency.neighbours(y) for y in adjacency.und[x] & left
            ):
                continue
            left.discard(x)
            removed = True
    return f"PDAG represents no DAG: {sorted(left)}"


def random_dag(rng: np.random.Generator, p: int, edge_prob: float) -> M.PartiallyDirectedGraph:
    names = [f"n{i}" for i in range(p)]
    order = list(rng.permutation(p))
    rank = {names[i]: pos for pos, i in enumerate(order)}
    edges = []
    for i in range(p):
        for j in range(i + 1, p):
            if rng.random() < edge_prob:
                u, v = names[i], names[j]
                edges.append((u, v) if rank[u] < rank[v] else (v, u))
    return M.PartiallyDirectedGraph(names, edges, ())


def random_chordal_query(
    rng: np.random.Generator, p: int = 10, edge_prob: float = 0.3
) -> tuple[M.Mpdag, str, str]:
    """A fully undirected chordal graph on ``v0`` .. ``v{p-1}`` and two
    distinct nodes, drawn as the dense benchmark draws its queries: an ER
    skeleton triangulated along a random elimination order, then a random
    treatment and outcome (not necessarily joined by a path)."""
    adj: list[set[int]] = [set() for _ in range(p)]
    for i in range(p):
        for j in range(i + 1, p):
            if rng.random() < edge_prob:
                adj[i].add(j)
                adj[j].add(i)
    eliminated: set[int] = set()
    for v in rng.permutation(p):
        left = sorted(w for w in adj[v] if w not in eliminated)
        for u, w in itertools.combinations(left, 2):
            adj[u].add(w)
            adj[w].add(u)
        eliminated.add(int(v))
    a, y = (int(v) for v in rng.choice(p, size=2, replace=False))
    names = [f"v{i}" for i in range(p)]
    und = [(names[u], names[w]) for u in range(p) for w in adj[u] if u < w]
    h = M.meek_closure(M.PartiallyDirectedGraph(names, (), und))
    return h, names[a], names[y]


def random_scm(rng: np.random.Generator, dag: M.PartiallyDirectedGraph) -> M.LinearScm:
    coefs = {}
    for edge in sorted(dag.directed):
        magnitude = rng.uniform(0.5, 1.5)
        coefs[edge] = magnitude if rng.random() < 0.5 else -magnitude
    return M.LinearScm(dag, coefs, {n: 1.0 for n in dag.nodes})


def wright_covariance(m: M.LinearScm) -> M.ExactCovariance:
    """Path-tracing covariance for a standardized model.

    Each off-diagonal entry is the sum, over the collider-free paths between
    the two nodes, of the product of the edge coefficients along the path.
    Only valid when every variable has unit variance; checked on entry.
    """
    sigma = M.covariance(m).matrix
    if not np.allclose(np.diag(sigma), 1.0, atol=1e-9):
        raise M.GraphError("path-tracing covariance requires unit variances")
    g = m.dag
    nodes = m.nodes
    out = np.eye(len(nodes))

    def paths_sum(start: str, goal: str) -> float:
        total = 0.0

        def extend(seq: list[str], product: float) -> None:
            nonlocal total
            tip = seq[-1]
            for w in sorted(g.neighbours(tip)):
                if w in seq:
                    continue
                if len(seq) >= 2:
                    u, v = seq[-2], seq[-1]
                    if (u, v) in g.directed and (w, v) in g.directed:
                        continue  # collider at v
                coef = m.coefficients.get((tip, w), m.coefficients.get((w, tip)))
                next_product = product * coef
                if w == goal:
                    total += next_product
                    continue
                seq.append(w)
                extend(seq, next_product)
                seq.pop()

        extend([start], 1.0)
        return total

    for i, a in enumerate(nodes):
        for j in range(i + 1, len(nodes)):
            value = paths_sum(a, nodes[j])
            out[i, j] = out[j, i] = value
    return M.ExactCovariance(nodes, out)


def regression_coefficient_matrix(
    sigma: np.ndarray, nodes, dag: M.PartiallyDirectedGraph
) -> np.ndarray:
    """Row-form coefficient matrix of ``dag`` fitted to ``sigma``, one fresh
    solve per node and one DAG at a time: the per-DAG regression that the
    package's batched sweep must match bit for bit."""
    idx = {n: i for i, n in enumerate(nodes)}
    out = np.zeros((len(nodes), len(nodes)))
    for node in dag.nodes:
        parents = sorted(dag.parents(node))
        if not parents:
            continue
        rows = [idx[p] for p in parents]
        gram = sigma[np.ix_(rows, rows)]
        rhs = sigma[rows, idx[node]]
        try:
            beta = np.linalg.solve(gram, rhs)
        except np.linalg.LinAlgError as exc:
            raise M.GraphError(f"rank-deficient regression at node {node!r}") from exc
        for parent, b in zip(parents, beta):
            out[idx[node], idx[parent]] = b
    return out



def chained_consistent_extension(h: M.Mpdag) -> M.PartiallyDirectedGraph:
    """A consistent extension by one :func:`construct_mpdag` per undirected
    edge: orient the smallest undirected edge from its smaller endpoint,
    close into a new MPDAG, and repeat until none is left."""
    current = h
    while True:
        und = current.graph.sorted_undirected()
        if not und:
            return current.graph
        current = M.construct_mpdag(current, [und[0]])


def chained_enumerate_dags(h: M.Mpdag) -> list[M.PartiallyDirectedGraph]:
    """The represented DAGs by a stack of MPDAGs, one :func:`construct_mpdag`
    per child: branch on the first undirected edge in node order, orient it
    both ways, and collect the fully directed leaves, deduplicated and sorted
    canonically.

    This is the loop the package used before its branch walk on copied
    builders, kept unchanged as the reference that walk is compared against.
    """
    leaves: dict[tuple, M.PartiallyDirectedGraph] = {}
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
                stack.append(M.construct_mpdag(current, [request]))
            except M.OrientationConflictError:
                continue
    return [leaves[k] for k in sorted(leaves)]


def replayed_treatment_edge_combos(h: M.Mpdag, edges) -> list[M.Mpdag]:
    """Every valid orientation of ``edges`` by replaying each of the 2^k
    request lists from ``h`` with :func:`construct_mpdag`, skipping the
    conflicting ones; deduplicated and sorted canonically.

    The loop behind methods 2 and 3 before their branch walk, kept unchanged
    as its reference.
    """
    out: dict[tuple, M.Mpdag] = {}
    for choice in itertools.product((0, 1), repeat=len(edges)):
        requests = [
            (u, v) if bit == 0 else (v, u)
            for (u, v), bit in zip(edges, choice)
        ]
        try:
            oriented = M.construct_mpdag(h, requests)
        except M.OrientationConflictError:
            continue
        out[oriented.key()] = oriented
    return [out[k] for k in sorted(out)]


def looped_count_distinct(vectors, tol: float) -> int:
    """Greedy grouping one pair at a time: each vector joins the first group
    whose representative is within ``tol`` in max-abs difference, or starts
    a new one."""
    groups: list[np.ndarray] = []
    for vec in vectors:
        for rep in groups:
            if np.max(np.abs(rep - vec)) <= tol:
                break
        else:
            groups.append(vec)
    return len(groups)

def rowwise_count_distinct(vectors, tol: float) -> int:
    """The greedy grouping of :func:`mpdag.count_distinct` one row at a
    time: each row is compared with every group's first row so far."""
    stack = np.asarray(vectors, dtype=float)
    if stack.ndim == 1:  # scalars
        stack = stack[:, None]
    groups = np.empty_like(stack)
    count = 0
    for vec in stack:
        if not (np.abs(groups[:count] - vec).max(axis=1) <= tol).any():
            groups[count] = vec
            count += 1
    return count


def per_draw_coefficients(rng: np.random.Generator, dag: M.PartiallyDirectedGraph):
    """One coefficient per edge in sorted order, one scalar draw at a time:
    a magnitude ``rng.uniform(0.5, 1.5)``, then a sign."""
    coefs = {}
    for edge in dag.sorted_directed():
        magnitude = rng.uniform(0.5, 1.5)
        coefs[edge] = magnitude if rng.random() < 0.5 else -magnitude
    return coefs


def per_draw_redraw_coefficients(m: M.LinearScm, seed: int) -> M.LinearScm:
    """:func:`mpdag.redraw_coefficients` with :func:`per_draw_coefficients`."""
    rng = np.random.default_rng(seed)
    return M.LinearScm(m.dag, per_draw_coefficients(rng, m.dag), dict(m.noise_variances))


def per_draw_random_instance(
    p: int,
    avg_degree: float,
    seed: int,
    n_treatments: Optional[int] = None,
    max_tries: int = 200,
) -> M.RandomInstance:
    """:func:`mpdag.random_instance` one scalar draw per node pair and per
    coefficient, every try's DAG and SCM built through the checking
    constructors, and each try decided by the public ``is_identified``."""
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
        dag = M.PartiallyDirectedGraph(names, edges, ())
        scm = M.LinearScm(dag, per_draw_coefficients(rng, dag), {n: 1.0 for n in names})
        cpdag = M.cpdag_of_dag(dag)
        k = n_treatments if n_treatments is not None else int(rng.integers(1, 5))
        k = min(k, p - 1)
        picked = [names[i] for i in rng.choice(p, size=k + 1, replace=False)]
        treatments = tuple(sorted(picked[:k]))
        outcome = picked[k]
        if not M.is_identified(cpdag, treatments, [outcome]):
            return M.RandomInstance(
                dag=dag, scm=scm, cpdag=cpdag, treatments=treatments,
                outcome=outcome, seed=seed,
            )
    raise M.RejectionBudgetError(
        f"no unidentified treatment/outcome pair found in {max_tries} tries "
        f"(p={p}, avg_degree={avg_degree}, seed={seed})"
    )


def two_sweep_study_arrays(inst: M.RandomInstance, n: int, tie_tol: float):
    """The effect arrays that the simulation study of ``inst`` counts, with
    the tolerance of each count, in order: the per-DAG population effects of
    the class for each coefficient draw, then the sample estimates of
    methods 1-4.  Each covariance gets a sweep of its own, and the estimates
    fit the class followed by every member's consistent extension."""
    from mpdag.linear import _regression_effects

    h, treat, outcome = inst.cpdag, inst.treatments, inst.outcome
    dags = M.enumerate_dags(h)
    result = M.id_graphs(h, treat, [outcome])
    fitted = {"1": dags}
    groups = {
        "2": M.method2_graphs(h, treat, [outcome]),
        "3": M.method3_graphs(h, treat, [outcome]),
        "4": list(result.graphs),
    }
    for key, members in groups.items():
        fitted[key] = [M.consistent_extension(m) for m in members]
    out = []
    scm, tie_redraws = inst.scm, 0
    while True:
        truth = _regression_effects(M.covariance(scm), dags, treat, outcome)
        out.append((truth, tie_tol))
        if rowwise_count_distinct(truth, tie_tol) == result.n or tie_redraws >= 3:
            break
        tie_redraws += 1
        scm = per_draw_redraw_coefficients(scm, inst.seed * 1000 + tie_redraws)
    data = M.sample(scm, n, inst.seed)
    sample_cov = M.ExactCovariance(data.columns, data.covariance())
    estimates = _regression_effects(
        sample_cov, [d for group in fitted.values() for d in group], treat, outcome
    )
    start = 0
    for group in fitted.values():
        out.append((estimates[start : start + len(group)], 1e-9))
        start += len(group)
    return out


def refuse_path_walks(monkeypatch) -> None:
    """Make the path searches raise in every package module that holds
    them: ``graphs._causal_states``, the state search of the count and the
    shortest violating path; ``graphs.proper_possibly_causal_paths``, which
    lists the paths; and ``identify._adjustment_witness``, which grows the
    open paths of an invalid set.  Each must be found where it is defined,
    or a search under another name would go unrefused."""

    def refuse(*args, **kwargs):
        raise AssertionError("the path search was entered")

    homes = {
        "_causal_states": "graphs",
        "proper_possibly_causal_paths": "graphs",
        "_adjustment_witness": "identify",
    }
    patched = set()
    for name, module in list(sys.modules.items()):
        for search in homes:
            if name.split(".")[0] == "mpdag" and hasattr(module, search):
                monkeypatch.setattr(module, search, refuse)
                patched.add(f"{name}.{search}")
    assert {f"mpdag.{home}.{search}" for search, home in homes.items()} <= patched


def partial_correlation(
    sigma: np.ndarray, nodes: tuple[str, ...], a: str, y: str, given: list[str]
) -> float:
    idx = {n: i for i, n in enumerate(nodes)}
    pick = [idx[a], idx[y]]
    if given:
        z = [idx[n] for n in given]
        szz = sigma[np.ix_(z, z)]
        szp = sigma[np.ix_(z, pick)]
        conditional = sigma[np.ix_(pick, pick)] - szp.T @ np.linalg.solve(szz, szp)
    else:
        conditional = sigma[np.ix_(pick, pick)]
    return float(
        conditional[0, 1] / np.sqrt(conditional[0, 0] * conditional[1, 1])
    )


def adjustment_functional(
    cov: M.ExactCovariance, treatments: list[str], outcome: str, adjust: list[str]
) -> np.ndarray:
    """Population regression of the outcome on treatments plus adjustment set,
    returning the treatment coefficients."""
    idx = {n: i for i, n in enumerate(cov.columns)}
    cols = [idx[a] for a in treatments] + [idx[z] for z in adjust]
    gram = cov.matrix[np.ix_(cols, cols)]
    rhs = cov.matrix[cols, idx[outcome]]
    beta = np.linalg.solve(gram, rhs)
    return beta[: len(treatments)]


def formula_effect(
    cov: M.ExactCovariance, formula: M.GFormula, outcome: str
) -> np.ndarray:
    """Evaluate a bucket factorisation on a Gaussian population directly.

    Walks the buckets in dependency order, replacing each bucket by the
    conditional mean of its nodes given its parent set (taken straight from
    the observational covariance), and returns the linear coefficients of the
    outcome's do-expectation in the treatment values.  Completely independent
    of the consistent-extension estimator.
    """
    idx = {n: i for i, n in enumerate(cov.columns)}
    treatments = list(formula.treatments)
    rows: dict[str, np.ndarray] = {
        a: np.eye(len(treatments))[k] for k, a in enumerate(treatments)
    }
    remaining = list(formula.buckets)
    while remaining:
        ready = [
            b for b in remaining if all(p in rows for p in b[1])
        ]
        assert ready, f"unresolvable bucket parents in {formula}"
        for nodes, parents in ready:
            if parents:
                rows_p = [idx[p] for p in parents]
                rows_b = [idx[b] for b in nodes]
                gain = cov.matrix[np.ix_(rows_b, rows_p)] @ np.linalg.inv(
                    cov.matrix[np.ix_(rows_p, rows_p)]
                )
                for i, b in enumerate(nodes):
                    rows[b] = sum(
                        gain[i, j] * rows[p] for j, p in enumerate(parents)
                    )
            else:
                for b in nodes:
                    rows[b] = np.zeros(len(treatments))
            remaining.remove((nodes, parents))
    return rows[outcome]


def exhaustive_possibly_causal_paths(
    g: M.PartiallyDirectedGraph,
    treatments,
    outcomes,
    start_undirected_only: bool = False,
) -> list[M.NodePath]:
    """Proper possibly causal paths by plain recursive enumeration over node
    names, each re-checked with ``path_in``, sorted by length then sequence.

    This is the search the package used before its bitmask search, kept
    unchanged as the reference the fast path is compared against.
    """
    a_set, y_set = set(treatments), set(outcomes)
    found: list[tuple[str, ...]] = []

    def extend(seq: list[str], members: set[str]) -> None:
        tip = seq[-1]
        for w in sorted(g.neighbours(tip)):
            if w in members or w in a_set:
                continue
            # a backward edge w -> seq[i] would make the extension non-causal
            if g.children(w) & members:
                continue
            if len(seq) == 1 and start_undirected_only:
                if g.mark(seq[0], w) != "--":
                    continue
            seq.append(w)
            members.add(w)
            if w in y_set:
                found.append(tuple(seq))
            extend(seq, members)
            members.remove(w)
            seq.pop()

    for a in sorted(a_set):
        extend([a], {a})
    found.sort(key=lambda seq: (len(seq), seq))
    return [M.path_in(g, seq) for seq in found]


def proper_paths(starts: int, targets: int, first, step, back):
    """Depth-first search over the proper paths from the nodes of ``starts``
    that end in a node of ``targets``, yielding each as the live list of node
    indices (valid until the next step).

    From a start ``s`` the path moves to a node of ``first[s]``, and after
    ``u, v`` to one of ``step(u, v)``; it never takes a node twice, a start
    after the first node, or a node ``w`` with ``back[w]`` on the path, and it
    stops growing once every target is on it, as no extension can end in a
    new one.  Starts and steps are taken in node order and a path comes
    before its extensions, so the paths of one length come out in node
    sequence order.  Iterative, with one mask of untried extensions per path
    node.  Sending a node count into the generator bounds the paths that are
    still to come to that many nodes.

    This is the walk the package shared between its path searches before
    they became one breadth-first search, kept as a reference for it.
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


def last_hit(walk, hit) -> Optional[tuple[int, ...]]:
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


def violating_walk(g: M.PartiallyDirectedGraph, a: int, y: int):
    """:func:`proper_paths` over the violating paths from the treatment mask
    ``a`` to the outcome mask ``y``: undirected first edge, any neighbour
    after it, and no node with a child already on the path."""
    masks = g._masks
    neighbours = masks.neighbours
    return proper_paths(
        a, y, masks.undirected, lambda u, v: neighbours[v], masks.children
    )


def possibly_causal_walk(
    g: M.PartiallyDirectedGraph, treatments, outcomes, start_undirected_only=False
):
    """The proper possibly causal path walk as its own depth-first search,
    kept as the reference the package's listing and state search are
    compared against: the possibly causal walk's set-up and loop as they
    were before the package's searches went breadth first.

    Yields every path that ends in an outcome, as the live list of node
    indices (valid until the next step).  Sending a node count into the
    generator bounds the paths that are still to come to that many nodes.
    """
    masks = g._masks
    starts = sorted(masks.index[a] for a in set(treatments))
    banned = sum(1 << i for i in starts)
    outcomes = masks.bits(outcomes)
    first_step = masks.undirected if start_undirected_only else masks.neighbours

    neighbours, children = masks.neighbours, masks.children
    limit = len(neighbours)
    for a in starts:
        path = [a]
        members = 1 << a
        # pending[k]: the untried extensions of path[: k + 1]
        pending = [first_step[a] & ~banned]
        while pending:
            candidates = pending[-1]
            if not candidates or len(path) >= limit:
                pending.pop()
                members ^= 1 << path.pop()
                continue
            low = candidates & -candidates
            pending[-1] = candidates ^ low
            w = low.bit_length() - 1
            if children[w] & members:
                continue
            path.append(w)
            members |= low
            if low & outcomes:
                limit = (yield path) or limit
            # once every outcome is on the path, no extension can end in one
            if outcomes & ~members:
                pending.append(neighbours[w] & ~(members | banned))
            else:
                pending.append(0)


def definite_status_walk(g: M.PartiallyDirectedGraph, starts, given):
    """Depth-first search over the proper definite-status paths from each
    node of ``starts`` that ``given`` leaves open (``graphs._open_step``),
    kept as its own walk for the reference the package's invalid-set
    witness is compared against.

    Proper: no node after the first is in ``starts``.  Iterative, with one
    mask of untried extensions per path node; starts and extensions are
    taken in node order.  Yields each path right after it is extended, as the
    live list of node indices (valid until the next step), whether or not it
    ends in an outcome.  Sending a node count into the generator bounds the
    paths that are still to come to that many nodes.
    """
    masks = g._masks
    neighbours, start_bits = masks.neighbours, masks.bits(starts)
    step = _open_step(masks, masks.bits(given))
    limit = len(neighbours)
    for a in _bit_indices(start_bits):
        path, members = [a], 1 << a
        pending = [neighbours[a] & ~start_bits]
        while pending:
            candidates = pending[-1]
            if not candidates or len(path) >= limit:
                pending.pop()
                members ^= 1 << path.pop()
                continue
            low = candidates & -candidates
            pending[-1] = candidates ^ low
            path.append(low.bit_length() - 1)
            members |= low
            limit = (yield path) or limit
            pending.append(step(path[-2], path[-1]) & ~(members | start_bits))


def exhaustive_id_graphs(h: M.Mpdag, treatments, outcomes):
    """The minimal enumeration rebuilt on the exhaustive path oracle: lists
    every violating path at each recursion node, branches on the first.
    Returns ``(m, graphs, audit)`` with audit entries ``(edge, path, count)``.
    """
    a_list, y_list = sorted(set(treatments)), sorted(set(outcomes))
    audit: list[tuple[tuple[str, str], tuple[str, ...], int]] = []
    leaves: dict[tuple, M.Mpdag] = {}

    def recurse(current: M.Mpdag) -> None:
        bad = exhaustive_possibly_causal_paths(current.graph, a_list, y_list, True)
        if not bad:
            leaves[current.key()] = current
            return
        a1, v1 = bad[0].nodes[:2]
        audit.append(((a1, v1), bad[0].nodes, len(bad)))
        for request in ((a1, v1), (v1, a1)):
            recurse(M.construct_mpdag(current, [request]))

    recurse(h)
    m = len(exhaustive_possibly_causal_paths(h.graph, a_list, y_list, True))
    return m, [leaves[k] for k in sorted(leaves)], audit


def stacked_id_graphs(h: M.Mpdag, treatments, outcomes) -> M.EnumerationResult:
    """The minimal enumeration on an explicit stack of its own: each node
    pops its graph, builder and shortest violating path, records its branch,
    and pushes its two children, ``a1 -> v1`` on a copy of the builder and
    ``v1 -> a1`` on the builder itself, each closed and searched at once.

    This is the loop the package used before the branch walk took a
    branch-edge rule, kept as the reference that walk is compared against.
    It counts the root's violating paths eagerly and presets that count on
    the root record, from which the result reads ``m``.  Its shortest paths
    and its count come from the depth-first :func:`violating_walk`, at every
    node, not from the package's search.
    """
    a, y = _checked_sets(h.graph, treatments, outcomes)
    audit: list[M.BranchRecord] = []
    leaves: dict[tuple, M.Mpdag] = {}

    def shortest(g: M.PartiallyDirectedGraph) -> Optional[tuple[str, ...]]:
        seq = last_hit(violating_walk(g, a, y), lambda seq: True)
        return None if seq is None else tuple(g.nodes[i] for i in seq)

    m = sum(1 for _ in violating_walk(h.graph, a, y))
    stack = [(h, _Builder(h.graph), shortest(h.graph))]
    while stack:
        current, builder, path = stack.pop()
        if path is None:
            leaves[current.key()] = current
            continue
        a1, v1 = path[0], path[1]
        audit.append(
            M.BranchRecord(
                edge=(a1, v1),
                path=path,
                _mpdag=current,
                _treatments=a,
                _outcomes=y,
            )
        )
        children = []
        for child, request in ((builder.copy(), (a1, v1)), (builder, (v1, a1))):
            child.request(*request)
            graph = child.mpdag()
            children.append((graph, child, shortest(graph.graph)))
        # pushed in reverse, so the a1 -> v1 subtree is finished first
        stack.extend(reversed(children))
    if audit:
        vars(audit[0])["violating"] = m
    graphs = tuple(leaves[k] for k in sorted(leaves))
    return M.EnumerationResult(graphs=graphs, audit=tuple(audit))


def exhaustive_possible_descendants(g: M.PartiallyDirectedGraph, sources) -> set[str]:
    """Possible descendants of each source (reflexive), united: the ends of
    the exhaustive possibly causal paths from each source on its own."""
    out = set(sources)
    for w in sources:
        others = set(g.nodes) - {w}
        if others:
            out |= {p.nodes[-1] for p in exhaustive_possibly_causal_paths(g, [w], others)}
    return out


def exhaustive_possible_ancestors(g: M.PartiallyDirectedGraph, targets) -> set[str]:
    """Possible ancestors of ``targets`` (reflexive): every node whose
    exhaustive possible descendants meet the set."""
    t_set = set(targets)
    return {w for w in g.nodes if exhaustive_possible_descendants(g, [w]) & t_set}


def exhaustive_forbidden_set(h: M.Mpdag, treatments, outcomes) -> frozenset[str]:
    """The forbidden set from its definition: possible descendants of every
    non-treatment node on some proper possibly causal path."""
    g = h.graph
    on_paths: set[str] = set()
    for path in exhaustive_possibly_causal_paths(g, treatments, outcomes):
        on_paths |= set(path.nodes)
    return frozenset(exhaustive_possible_descendants(g, on_paths - set(treatments)))


def exhaustive_definite_status_paths(
    g: M.PartiallyDirectedGraph, treatments, outcomes
) -> list[M.NodePath]:
    """Proper definite-status paths by plain recursive enumeration of simple
    paths, each kept when ``classify_path`` finds it of definite status,
    sorted by length then sequence."""
    a_set, y_set = set(treatments), set(outcomes)
    found: list[tuple[str, ...]] = []

    def extend(seq: list[str]) -> None:
        for w in sorted(g.neighbours(seq[-1])):
            if w in seq or w in a_set:
                continue
            seq.append(w)
            if w in y_set and classify_path(g, seq).definite_status:
                found.append(tuple(seq))
            extend(seq)
            seq.pop()

    for a in sorted(a_set):
        extend([a])
    found.sort(key=lambda seq: (len(seq), seq))
    return [M.path_in(g, seq) for seq in found]


def _blocked(g: M.PartiallyDirectedGraph, path: M.NodePath, z_set: set[str]) -> bool:
    for i in range(1, len(path.nodes) - 1):
        left, right = path.marks[i - 1], path.marks[i]
        node = path.nodes[i]
        if left == "->" and right == "<-":
            if not M.descendants(g, [node]) & z_set:
                return True
        elif node in z_set:
            return True
    return False


def exhaustive_d_separated(g: M.PartiallyDirectedGraph, first, second, given) -> bool:
    """d-separation from its definition: ``given`` blocks every listed
    definite-status path between the two sets."""
    z_set = set(given)
    paths = exhaustive_definite_status_paths(g, first, second)
    return all(_blocked(g, path, z_set) for path in paths)


def exhaustive_is_adjustment_set(h: M.Mpdag, treatments, outcomes, adjust):
    """The generalized adjustment criterion as the package checked it before
    walking only open paths: list every proper definite-status path, then
    return the first non-causal one the candidate leaves open.  Takes the
    preconditions (valid, disjoint sets; identified effect) as given."""
    a_set, y_set, z_set = set(treatments), set(outcomes), set(adjust)
    g = h.graph
    hit = z_set & exhaustive_forbidden_set(h, a_set, y_set)
    if hit:
        return M.AdjustmentVerdict(False, "forbidden", witness_node=min(hit))
    for path in exhaustive_definite_status_paths(g, a_set, y_set):
        if classify_path(g, path).kind is not PathKind.NON_CAUSAL:
            continue
        if not _blocked(g, path, z_set):
            return M.AdjustmentVerdict(False, "open_path", witness_path=path)
    return M.AdjustmentVerdict(True)


def exhaustive_find_adjustment_set(h: M.Mpdag, treatments, outcomes):
    """The adjustment-set search as the package ran it before it tried the
    canonical set only, without a node cap: the canonical set first, then
    every subset of the allowed nodes in increasing size (first valid set in
    lexicographic order)."""
    a_set, y_set = set(treatments), set(outcomes)
    g = h.graph
    forb = exhaustive_forbidden_set(h, a_set, y_set)
    possible_ancestors = exhaustive_possible_ancestors(g, a_set | y_set)
    candidate = frozenset(possible_ancestors - forb - a_set - y_set)
    if exhaustive_is_adjustment_set(h, a_set, y_set, candidate):
        return candidate
    pool = sorted(set(g.nodes) - a_set - y_set - forb)
    for size in range(len(pool) + 1):
        for combo in itertools.combinations(pool, size):
            z = frozenset(combo)
            if z != candidate and exhaustive_is_adjustment_set(h, a_set, y_set, z):
                return z
    if (
        len(a_set) == 1
        and len(y_set) == 1
        and exhaustive_possibly_causal_paths(g, a_set, y_set)
    ):
        raise M.InternalInconsistencyError(
            "no adjustment set found for singleton treatment and outcome"
        )
    return None


def count_cycle_searches(monkeypatch) -> list[tuple[str, ...]]:
    """Wrap ``graphs._directed_cycle``, the package's one cycle search: the
    returned list gets the node tuple of every call, until ``monkeypatch``
    undoes the wrapping."""
    searches: list[tuple[str, ...]] = []
    search = graphs._directed_cycle

    def counted(nodes, children):
        searches.append(tuple(nodes))
        return search(nodes, children)

    monkeypatch.setattr(graphs, "_directed_cycle", counted)
    return searches


def names_directed_cycle(
    nodes: Sequence[str], directed: Iterable[tuple[str, str]]
) -> Optional[tuple[str, ...]]:
    """First directed cycle met by a depth-first search in node order.

    Iterative, so a long directed chain cannot exhaust the interpreter stack.

    The name-keyed search the package ran before its one search over the
    children bitmasks, kept as the reference for that search's verdict and
    witness.
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


class NameAdjacency:
    """The name-keyed adjacency the package kept beside its bitmask table:
    parents, children and undirected neighbours as dicts of frozensets built
    straight from the edge sets, the name queries read from them, and Kahn's
    algorithm on a sorted list of ready names.

    Kept as the reference the bitmask accessors are compared against.
    """

    def __init__(self, g: M.PartiallyDirectedGraph) -> None:
        self.nodes = g.nodes
        parents: dict[str, set[str]] = {n: set() for n in g.nodes}
        children: dict[str, set[str]] = {n: set() for n in g.nodes}
        und: dict[str, set[str]] = {n: set() for n in g.nodes}
        for tail, head in g.directed:
            children[tail].add(head)
            parents[head].add(tail)
        for u, v in g.undirected:
            und[u].add(v)
            und[v].add(u)
        self.parents = {n: frozenset(s) for n, s in parents.items()}
        self.children = {n: frozenset(s) for n, s in children.items()}
        self.und = {n: frozenset(s) for n, s in und.items()}

    def neighbours(self, v: str) -> frozenset[str]:
        return self.parents[v] | self.children[v] | self.und[v]

    def adjacent(self, u: str, v: str) -> bool:
        return v in self.neighbours(u)

    def mark(self, u: str, v: str):
        if v in self.children[u]:
            return "->"
        if v in self.parents[u]:
            return "<-"
        if v in self.und[u]:
            return "--"
        return None

    def kahn_order(self) -> tuple[str, ...]:
        """Topological order of the directed part, ties by node order; short
        of some node when that part has a cycle."""
        indeg = {n: len(self.parents[n]) for n in self.nodes}
        ready = sorted(n for n in self.nodes if indeg[n] == 0)
        order: list[str] = []
        while ready:
            v = ready.pop(0)
            order.append(v)
            changed = False
            for w in sorted(self.children[v]):
                indeg[w] -= 1
                if indeg[w] == 0:
                    ready.append(w)
                    changed = True
            if changed:
                ready.sort()
        return tuple(order)

    def unshielded_colliders(self) -> frozenset[tuple[str, str, str]]:
        out: set[tuple[str, str, str]] = set()
        for b in self.nodes:
            for a, c in itertools.combinations(sorted(self.parents[b]), 2):
                if not self.adjacent(a, c):
                    out.add((a, b, c))
        return frozenset(out)

    def parents_of_set(self, nodes) -> frozenset[str]:
        node_set = set(nodes)
        out: set[str] = set()
        for v in node_set:
            out |= self.parents[v]
        return frozenset(out - node_set)

    def bucket_decomposition(self, nodes) -> tuple[frozenset[str], ...]:
        remaining = set(nodes)
        buckets: list[frozenset[str]] = []
        for seed in sorted(remaining):
            if seed not in remaining:
                continue
            component = {seed}
            frontier = [seed]
            while frontier:
                v = frontier.pop()
                for w in self.und[v]:
                    if w in remaining and w not in component:
                        component.add(w)
                        frontier.append(w)
            remaining -= component
            buckets.append(frozenset(component))
        return tuple(buckets)


class RescanningBuilder:
    """The Meek-rule loop the package used before its bitmask builder, over
    node names: after every orientation it rescans every undirected edge,
    rule by rule, and applies the first firing (rule, edge, direction).

    Kept unchanged as the reference the incremental closure is compared
    against.
    """

    def __init__(self, g: M.PartiallyDirectedGraph) -> None:
        adjacency = NameAdjacency(g)
        self.nodes = g.nodes
        self.parents = {n: set(s) for n, s in adjacency.parents.items()}
        self.children = {n: set(s) for n, s in adjacency.children.items()}
        self.und = {n: set(s) for n, s in adjacency.und.items()}

    def adjacent(self, u: str, v: str) -> bool:
        return v in self.parents[u] or v in self.children[u] or v in self.und[u]

    def orient(self, tail: str, head: str) -> None:
        self.und[tail].discard(head)
        self.und[head].discard(tail)
        self.children[tail].add(head)
        self.parents[head].add(tail)

    def undirected_edges(self) -> list[tuple[str, str]]:
        return sorted((u, v) for u in self.nodes for v in self.und[u] if u < v)

    def snapshot(self, context: str) -> M.PartiallyDirectedGraph:
        directed = {(t, h) for t in self.nodes for h in self.children[t]}
        undirected = {(u, v) for u in self.nodes for v in self.und[u] if u < v}
        try:
            return M.PartiallyDirectedGraph(self.nodes, directed, undirected)
        except M.GraphError as exc:
            raise M.InternalInconsistencyError(f"{context}: {exc}") from exc

    def _r1(self, u: str, v: str) -> bool:
        return any(not self.adjacent(w, v) for w in self.parents[u])

    def _r2(self, u: str, v: str) -> bool:
        return bool(self.children[u] & self.parents[v])

    def _r3(self, u: str, v: str) -> bool:
        shared = sorted(self.und[u] & self.parents[v])
        return any(
            not self.adjacent(w1, w2) for w1, w2 in itertools.combinations(shared, 2)
        )

    def _r4(self, u: str, v: str) -> bool:
        for b in sorted(self.und[u] & self.parents[v]):
            for a in sorted(self.und[u] & self.parents[b]):
                if not self.adjacent(a, v):
                    return True
        return False

    def close(self) -> None:
        rules = (self._r1, self._r2, self._r3, self._r4)
        changed = True
        while changed:
            changed = False
            for rule in rules:
                for u, v in self.undirected_edges():
                    for tail, head in ((u, v), (v, u)):
                        if rule(tail, head):
                            self.orient(tail, head)
                            changed = True
                            break
                    if changed:
                        break
                if changed:
                    break


def rescanning_meek_closure(g: M.PartiallyDirectedGraph) -> M.PartiallyDirectedGraph:
    builder = RescanningBuilder(g)
    builder.close()
    return builder.snapshot("rule closure produced an invalid graph")


def rescanning_construct_mpdag(
    g: M.PartiallyDirectedGraph, requests
) -> M.PartiallyDirectedGraph:
    """Background-knowledge orientation on :class:`RescanningBuilder`, with a
    full rescan after each request, as for a graph not known to be closed."""
    builder = RescanningBuilder(g)
    for tail, head in requests:
        if tail not in builder.und or head not in builder.und:
            raise M.OrientationConflictError((tail, head), "no such edge")
        if head in builder.und[tail]:
            builder.orient(tail, head)
            builder.close()
        elif head in builder.children[tail]:
            pass
        elif head in builder.parents[tail]:
            raise M.OrientationConflictError((tail, head), f"graph has {head} -> {tail}")
        else:
            raise M.OrientationConflictError((tail, head), "no such edge")
    for tail, head in requests:
        if head not in builder.children[tail]:
            raise M.OrientationConflictError((tail, head), "lost after closure")
    return builder.snapshot("orientation produced an invalid graph")
