"""Cross-cutting properties checked on randomly generated graphs and models."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mpdag as M
from mpdag.cli import _class_rows
from mpdag.graphs import (
    _bit_indices,
    _checked_sets,
    _kahn,
    _mask_table,
)
from mpdag.idgraphs import _branch_path
from mpdag.identify import (
    _adjustment_witness,
    _count_violating,
    _first_edges,
    _shortest_violating,
)
from mpdag.linear import _regression_effects, _total_effect_from_matrix
from mpdag.meek import _SOUND, _Builder, _extendable
from helpers import (
    NameAdjacency,
    PathKind,
    adjustment_functional,
    chained_consistent_extension,
    chained_enumerate_dags,
    classify_path,
    definite_status_walk,
    exhaustive_class_nonempty,
    exhaustive_d_separated,
    exhaustive_find_adjustment_set,
    exhaustive_forbidden_set,
    exhaustive_id_graphs,
    exhaustive_is_adjustment_set,
    exhaustive_possible_ancestors,
    exhaustive_possible_descendants,
    exhaustive_possibly_causal_paths,
    formula_effect,
    last_hit,
    names_directed_cycle,
    partial_correlation,
    possibly_causal_walk,
    random_chordal_query,
    random_dag,
    random_scm,
    regression_coefficient_matrix,
    replayed_treatment_edge_combos,
    rescanning_construct_mpdag,
    rescanning_meek_closure,
    stacked_id_graphs,
    unshielded_subsequence,
)


@st.composite
def pdags(draw, max_nodes: int = 6):
    """Valid PDAGs: a random DAG with a random subset of edges kept directed,
    rebuilt from its CPDAG so that the partial orientation is consistent."""
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    p = draw(st.integers(2, max_nodes))
    dag = random_dag(rng, p, 0.5)
    graph = M.cpdag_of_dag(dag).graph
    for edge in sorted(dag.directed):
        if tuple(sorted(edge)) in graph.undirected and rng.random() < 0.4:
            graph = graph.orient(*edge)
    return graph


@st.composite
def mpdag_queries(draw, max_nodes: int = 7):
    """An MPDAG (a random CPDAG with part of its true orientations added as
    background knowledge) and disjoint treatment and outcome sets of one or
    two nodes each."""
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    p = int(rng.integers(3, max_nodes + 1))
    dag = random_dag(rng, p, rng.choice((0.4, 0.6, 0.8)))
    knowledge = [e for e in sorted(dag.directed) if rng.random() < 0.25]
    h = M.construct_mpdag(M.cpdag_of_dag(dag), knowledge)
    order = [dag.nodes[i] for i in rng.permutation(p)]
    k = int(rng.integers(1, 3))
    j = int(rng.integers(1, 3))
    return h, order[:k], order[k:k + j]


@st.composite
def orientation_cases(draw, max_nodes: int = 7):
    """A valid PDAG and up to three orientation requests.

    The PDAG is one of: a CPDAG with some true orientations added; the same
    with some of them reversed, which can leave a class-empty graph; or
    arbitrary edge marks over a random node order, some against it.  The
    requests are ordered node pairs, so they include missing edges,
    reversed edges and conflicts with each other, and now and then a node
    that is not in the graph; most are edges of the skeleton.
    """
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    p = int(rng.integers(2, max_nodes + 1))
    density = rng.choice((0.3, 0.5, 0.8))
    kind = int(rng.integers(0, 3))
    if kind < 2:
        dag = random_dag(rng, p, density)
        cpdag = M.cpdag_of_dag(dag).graph
        picked = [  # (true orientation, reverse it?)
            (
                (u, v) if (u, v) in dag.directed else (v, u),
                kind == 1 and rng.random() < 0.4,
            )
            for u, v in sorted(cpdag.undirected)
            if rng.random() < 0.3
        ]
        undirected = cpdag.undirected - {tuple(sorted(e)) for e, _ in picked}
        try:
            graph = M.PartiallyDirectedGraph(
                cpdag.nodes,
                cpdag.directed | {e[::-1] if flip else e for e, flip in picked},
                undirected,
            )
        except M.GraphError:  # a reversed edge closed a cycle
            graph = M.PartiallyDirectedGraph(
                cpdag.nodes, cpdag.directed | {e for e, _ in picked}, undirected
            )
    else:
        names = [f"n{i}" for i in rng.permutation(p)]
        marks = [
            (u, v, rng.random())
            for i, u in enumerate(names)
            for v in names[i + 1:]
            if rng.random() < density
        ]
        try:
            graph = M.PartiallyDirectedGraph(
                names,
                [(u, v) if r < 0.7 else (v, u) for u, v, r in marks if r >= 0.4],
                [(u, v) for u, v, r in marks if r < 0.4],
            )
        except M.GraphError:  # a reversed edge closed a cycle
            graph = M.PartiallyDirectedGraph(
                names,
                [(u, v) for u, v, r in marks if r >= 0.4],
                [(u, v) for u, v, r in marks if r < 0.4],
            )
    skeleton = sorted(graph.skeleton)
    pool = list(graph.nodes) + (["zz"] if rng.random() < 0.1 else [])
    requests = []
    for _ in range(int(rng.integers(0, 4))):
        if skeleton and rng.random() < 0.8:
            u, v = skeleton[int(rng.integers(len(skeleton)))]
            requests.append((u, v) if rng.random() < 0.5 else (v, u))
        else:
            i, j = rng.choice(len(pool), size=2, replace=False)
            requests.append((pool[i], pool[j]))
    return graph, requests


def _outcome(call):
    """The result of ``call``, or the type, text and fields of its error."""
    try:
        return "ok", call()
    except (M.GraphError, M.InternalInconsistencyError) as exc:
        return (
            "error",
            type(exc),
            str(exc),
            getattr(exc, "request", None),
            getattr(exc, "reason", None),
        )


def _assert_trusted_snapshot(g):
    """``g``, a graph the trusted constructor built from a builder's masks,
    is the graph the validating constructor builds from its edges: the same
    edge sets, equality, hash and mask table.  If ``g`` is flagged sound, it
    is closed, and its class, enumerated from the validated copy with a
    cycle search at every leaf, is nonempty and the one ``g`` enumerates."""
    validated = M.PartiallyDirectedGraph(g.nodes, g.directed, g.undirected)
    assert g.directed == validated.directed
    assert g.undirected == validated.undirected
    assert g == validated and validated == g
    assert hash(g) == hash(validated)
    assert g._masks == validated._masks
    assert not getattr(validated, _SOUND, False)
    if getattr(g, _SOUND, False):
        assert rescanning_meek_closure(g) == g
        dags = M.enumerate_dags(M.Mpdag(validated))
        assert dags and M.enumerate_dags(M.Mpdag(g)) == dags


@st.composite
def digraph_parts(draw, max_nodes: int = 8):
    """Nodes in a random order, and per pair of them no edge, one directed
    edge either way, both (a two-cycle) or an undirected edge; the edges in
    a random order."""
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    p = int(rng.integers(1, max_nodes + 1))
    nodes = [f"n{i}" for i in rng.permutation(p)]
    density = rng.choice((0.2, 0.4, 0.7))
    directed, undirected = [], []
    for u, v in itertools.combinations(nodes, 2):
        if rng.random() >= density:
            continue
        kind = int(rng.integers(0, 8))
        if kind < 3:
            directed.append((u, v))
        elif kind < 6:
            directed.append((v, u))
        elif kind == 6:
            directed += [(u, v), (v, u)]
        else:
            undirected.append((u, v))
    directed = [directed[i] for i in rng.permutation(len(directed))]
    return nodes, directed, undirected


@settings(max_examples=500)
@given(digraph_parts())
def test_cycle_search_matches_name_keyed_oracle(parts):
    # one search over the children bitmasks: the verdict and witness of
    # validate_pdag, the constructor's error and the snapshot of a builder
    # over the same masks, which is not sound where they have a cycle, all
    # equal the name-keyed depth-first search
    nodes, directed, undirected = parts
    cycle = names_directed_cycle(nodes, directed)
    verdict = M.validate_pdag(nodes, directed, undirected)
    made = _outcome(lambda: M.PartiallyDirectedGraph(nodes, directed, undirected))
    order = tuple(sorted(nodes))
    builder = _Builder(
        M.PartiallyDirectedGraph._trusted(order, _mask_table(order, directed, undirected))
    )
    assert not (builder.sound and cycle)
    snapshot = _outcome(lambda: builder.mpdag().graph)
    if cycle is None:
        assert verdict.ok
        assert made == snapshot and made[0] == "ok"
    else:
        assert (verdict.violation, verdict.witness) == ("directed cycle", cycle)
        text = f"directed cycle: {cycle}"
        assert made == ("error", M.GraphError, text, None, None)
        context = "orientation produced an invalid graph"
        error = ("error", M.InternalInconsistencyError, f"{context}: {text}")
        assert snapshot == error + (None, None)


@settings(max_examples=300)
@given(orientation_cases())
def test_closure_matches_rescanning_oracle(case):
    g, requests = case
    closed = _outcome(lambda: M.meek_closure(g).graph)
    assert closed == _outcome(lambda: rescanning_meek_closure(g))
    outcomes = [closed]
    # a user graph is not sound: it is scanned in full, and every snapshot
    # is searched for a cycle until a closure proves its class nonempty
    inputs = [M.Mpdag(g)] + ([M.Mpdag(closed[1])] if closed[0] == "ok" else [])
    for h in inputs:
        oriented = _outcome(lambda: M.construct_mpdag(h, requests).graph)
        expected = _outcome(lambda: rescanning_construct_mpdag(h.graph, requests))
        assert oriented == expected
        outcomes.append(oriented)
    for outcome in outcomes:
        if outcome[0] == "ok":
            _assert_trusted_snapshot(outcome[1])
    if closed[0] == "ok":
        # the closure is flagged exactly when its class is nonempty
        assert getattr(closed[1], _SOUND, False) == exhaustive_class_nonempty(closed[1])


@settings(max_examples=300)
@given(orientation_cases(), st.booleans())
def test_soundness_proof_matches_the_class_definition(case, skeleton_only):
    # the Dor-Tarsi elimination succeeds exactly when some orientation of
    # the undirected edges is a DAG of the class, on a PDAG, closed or not,
    # and on its closure: a closed, acyclic PDAG can still represent no DAG,
    # as an undirected skeleton with a chordless cycle does.  Each graph is
    # its own reference, because a closure can add an unshielded collider
    # and so have DAGs where a class-empty input had none
    g = case[0]
    if skeleton_only:
        g = M.PartiallyDirectedGraph(g.nodes, (), g.skeleton)
    closed = _outcome(lambda: M.meek_closure(g).graph)
    for pdag in [g] + ([closed[1]] if closed[0] == "ok" else []):
        masks = pdag._masks
        proved = _extendable(masks.children, masks.undirected, masks.neighbours)
        assert proved == exhaustive_class_nonempty(pdag)
        if len(pdag.undirected) > 10:
            continue
        undirected = sorted(pdag.undirected)
        nonempty = False
        for flips in itertools.product((False, True), repeat=len(undirected)):
            oriented = {
                (v, u) if flip else (u, v) for (u, v), flip in zip(undirected, flips)
            }
            try:
                dag = M.PartiallyDirectedGraph(pdag.nodes, pdag.directed | oriented, ())
            except M.GraphError:  # a directed cycle
                continue
            if M.is_represented(dag, M.Mpdag(pdag)):
                nonempty = True
                break
        assert proved == nonempty
    if closed[0] == "ok":
        assert getattr(closed[1], _SOUND, False) == proved
    else:
        # a closure that meets a directed cycle had a class-empty input
        assert not proved


def _random_member(rng: np.random.Generator, h: M.Mpdag) -> M.PartiallyDirectedGraph:
    """A DAG of the class of ``h``: orient a random undirected edge a random
    way and re-close, until no undirected edge is left."""
    while h.graph.undirected:
        undirected = sorted(h.graph.undirected)
        u, v = undirected[rng.integers(len(undirected))]
        h = M.construct_mpdag(h, [(u, v) if rng.random() < 0.5 else (v, u)])
    return h.graph


@pytest.mark.parametrize("seed", range(24))
def test_dense_orientation_matches_rescanning_oracle(seed):
    # chordal graphs of 10-12 nodes, above the drawn cases' sizes: there the
    # R4 re-check of an orientation t -> h (the edges joining an undirected
    # neighbour of h to a child of h) covers many edges, and R4 fires often
    rng = np.random.default_rng([seed, 0x4D])
    h, a, y = random_chordal_query(rng, p=10 + seed % 3)
    dag = _random_member(rng, h)
    requests = [e for e in sorted(dag.directed) if rng.random() < 0.15]
    rng.shuffle(requests)
    # the chordal graph is the CPDAG of every DAG of its class, and as such
    # known sound: its builder starts with no scan and searches no snapshot
    # for a cycle, while one on the closure h scans every edge first
    cpdag = M.cpdag_of_dag(dag)
    assert cpdag.graph == h.graph
    expected = rescanning_construct_mpdag(h.graph, requests)
    # one more request, a reversed edge of the DAG: a FAIL where the requests
    # have oriented that edge already
    conflict = requests + [sorted(dag.directed)[rng.integers(len(dag.directed))][::-1]]
    failed = _outcome(lambda: rescanning_construct_mpdag(h.graph, conflict))
    for root in (h, cpdag):
        oriented = M.construct_mpdag(root, requests)
        assert oriented.graph == expected
        assert _outcome(lambda: M.construct_mpdag(root, conflict).graph) == failed
        result = M.id_graphs(oriented, [a], [y])
        stacked = stacked_id_graphs(oriented, [a], [y])
        assert [g.key() for g in result.graphs] == [g.key() for g in stacked.graphs]
        assert result.audit == stacked.audit and result.m == stacked.m


@settings(max_examples=200)
@given(mpdag_queries(), st.booleans())
def test_path_search_matches_exhaustive_oracle(query, start_undirected_only):
    h, a, y = query
    expected = exhaustive_possibly_causal_paths(h.graph, a, y, start_undirected_only)
    assert M.proper_possibly_causal_paths(h.graph, a, y, start_undirected_only) == expected
    checked = _checked_sets(h.graph, a, y)
    first = expected[0] if expected else None
    if start_undirected_only:
        assert _count_violating(h.graph, *checked) == len(expected)
        assert _shortest_violating(h.graph, *checked, None) == (
            None if first is None else tuple(h.graph._masks.index[n] for n in first.nodes)
        )
        verdict = M.is_identified(h, a, y)
        assert verdict.identified == (not expected)
        assert verdict.witness == first


def _checked_forbidden_set(h: M.Mpdag, a, y) -> bool:
    """Check ``forbidden_set`` on one query: on an identified effect against
    the definition (``exhaustive_forbidden_set``), and on an unidentified one
    its refusal, with the witness of ``is_identified``.  Returns whether the
    effect is identified."""
    verdict = M.is_identified(h, a, y)
    if verdict:
        assert M.forbidden_set(h, a, y) == exhaustive_forbidden_set(h, a, y)
    else:
        with pytest.raises(M.NotIdentifiedError) as exc:
            M.forbidden_set(h, a, y)
        assert exc.value.witness == verdict.witness
    return verdict.identified


@settings(max_examples=300)
@given(mpdag_queries(max_nodes=8))
def test_first_edge_search_matches_exhaustive_oracle(query):
    # V1, the second nodes of the proper possibly causal paths, and the
    # verdict (no such path starts undirected) against listing every path;
    # on an identified effect the forbidden set is the possible descendants
    # of V1
    h, a, y = query
    g = h.graph
    paths = exhaustive_possibly_causal_paths(g, a, y)
    v1, identified = _first_edges(g, *_checked_sets(g, a, y))
    assert g._names(v1) == {p.nodes[1] for p in paths}
    assert identified == all(p.marks[0] != "--" for p in paths)
    assert bool(M.is_identified(h, a, y)) == identified
    assert _checked_forbidden_set(h, a, y) == identified
    if identified:
        assert M.forbidden_set(h, a, y) == exhaustive_possible_descendants(g, g._names(v1))


@st.composite
def path_queries(draw):
    """A query of :func:`mpdag_queries`, or a plain ``Mpdag(g)`` wrapper of a
    PDAG from :func:`orientation_cases`, which may be unclosed or
    class-empty, with treatment and outcome sets of one or two nodes each."""
    if draw(st.booleans()):
        return draw(mpdag_queries())
    h = M.Mpdag(draw(orientation_cases())[0])
    order = draw(st.permutations(h.nodes))
    k = draw(st.integers(1, min(2, len(order) - 1)))
    j = draw(st.integers(1, min(2, len(order) - k)))
    return h, order[:k], order[k:k + j]


@settings(max_examples=200)
@given(path_queries(), st.integers(0, 2**31 - 1))
def test_shared_path_walk_matches_its_two_oracles(query, seed):
    # the breadth-first path searches against the two depth-first walks in
    # helpers, on MPDAGs and on unclosed or class-empty PDAGs: the listing
    # order in both first-step modes, the violating count, the shortest
    # violating path with and without the V1 gate, and the adjustment
    # witness for random Z
    h, a, y = query
    g = h.graph
    starts, targets = _checked_sets(g, a, y)
    listed = {}
    for undirected_only in (False, True):
        walked = [
            tuple(g.nodes[i] for i in seq)
            for seq in possibly_causal_walk(g, a, y, undirected_only)
        ]
        listed[undirected_only] = M.proper_possibly_causal_paths(g, a, y, undirected_only)
        # the walk gives each length in node sequence order
        assert listed[undirected_only] == [
            M.path_in(g, seq) for seq in sorted(walked, key=len)
        ]
    assert _count_violating(g, starts, targets) == len(listed[True])
    shortest = last_hit(possibly_causal_walk(g, a, y, True), lambda seq: True)
    assert _shortest_violating(g, starts, targets, None) == shortest
    # V1 holds the second node of every violating path, closed graph or not,
    # so the search from the undirected first edges into it finds the same
    v1, identified = _first_edges(g, starts, targets)
    assert _shortest_violating(g, starts, targets, v1) == shortest
    assert not identified or shortest is None
    named = None if shortest is None else tuple(g.nodes[i] for i in shortest)
    for sound in (False, True):
        assert _branch_path(g, starts, targets, sound) == named

    children = g._masks.children

    def non_causal(seq: list[int]) -> bool:
        # ends in an outcome, and some node has a child earlier on the path
        if not targets >> seq[-1] & 1:
            return False
        members = 0
        for i in seq:
            if children[i] & members:
                return True
            members |= 1 << i
        return False

    rng = np.random.default_rng(seed)
    rest = [v for v in g.nodes if v not in a and v not in y]
    for _ in range(3):
        z = [v for v in rest if rng.random() < 0.5]
        best = last_hit(definite_status_walk(g, a, z), non_causal)
        witness = _adjustment_witness(g, starts, targets, g._masks.bits(z))
        if best is None:
            assert witness is None
        else:
            assert witness.nodes == tuple(g.nodes[i] for i in best)


@settings(max_examples=200)
@given(mpdag_queries(max_nodes=6))
def test_id_graphs_audit_matches_exhaustive_oracle(query):
    h, a, y = query
    m, graphs, audit = exhaustive_id_graphs(h, a, y)
    result = M.id_graphs(h, a, y)
    stacked = stacked_id_graphs(h, a, y)
    assert result.m == m == stacked.m
    keys = [g.key() for g in result.graphs]
    assert keys == [g.key() for g in graphs] == [g.key() for g in stacked.graphs]
    trail = [(r.edge, r.path, r.violating) for r in result.audit]
    assert trail == audit == [(r.edge, r.path, r.violating) for r in stacked.audit]
    if audit:
        assert M.select_branch_edge(h, a, y) == audit[0][0]
    # the effect is identified in every output of the three enumerations,
    # which the effect estimates fit without checking
    members = [*result.graphs, *M.method2_graphs(h, a, y), *M.method3_graphs(h, a, y)]
    assert all(M.is_identified(member, a, y) for member in members)


@settings(max_examples=200)
@given(mpdag_queries(), st.integers(0, 2**31 - 1))
def test_possible_descendants_of_a_set_match_exhaustive_oracle(query, seed):
    h, a, y = query
    rng = np.random.default_rng(seed)
    nodes = [n for n in h.nodes if rng.random() < 0.4]
    sets = M.ancestral_sets(h.graph, nodes)
    assert sets.possible_descendants == exhaustive_possible_descendants(h.graph, nodes)
    _checked_forbidden_set(h, a, y)


@settings(max_examples=200)
@given(mpdag_queries(), st.integers(0, 2**31 - 1))
def test_possible_ancestors_match_exhaustive_oracle(query, seed):
    h, a, y = query
    rng = np.random.default_rng(seed)
    for targets in (set(a) | set(y), {n for n in h.nodes if rng.random() < 0.3}):
        expected = exhaustive_possible_ancestors(h.graph, targets)
        assert M.possible_ancestors(h.graph, targets) == expected


def _d_separation_cases(g, rng):
    """Disjoint node sets A, Y (one to three nodes each) and Z for ``g``."""
    nodes = [g.nodes[i] for i in rng.permutation(len(g.nodes))]
    k = int(rng.integers(1, min(3, len(nodes) - 1) + 1))
    j = int(rng.integers(1, min(3, len(nodes) - k) + 1))
    for _ in range(3):
        z = [n for n in nodes[k + j:] if rng.random() < 0.4]
        yield nodes[:k], nodes[k:k + j], z


@settings(max_examples=200)
@given(mpdag_queries(), st.integers(0, 2**31 - 1))
def test_d_separation_matches_exhaustive_oracle_on_mpdags(query, seed):
    h, _, _ = query
    for a, y, z in _d_separation_cases(h.graph, np.random.default_rng(seed)):
        assert M.d_separated(h.graph, a, y, z) == exhaustive_d_separated(h.graph, a, y, z)


@settings(max_examples=200)
@given(pdags(), st.integers(0, 2**31 - 1))
def test_d_separation_matches_exhaustive_oracle_on_pdags(g, seed):
    for a, y, z in _d_separation_cases(g, np.random.default_rng(seed)):
        assert M.d_separated(g, a, y, z) == exhaustive_d_separated(g, a, y, z)


def _verdict(v):
    return (v.valid, v.reason, v.witness_node, v.witness_path)


@settings(max_examples=200)
@given(mpdag_queries(), st.integers(0, 2**31 - 1))
def test_adjustment_matches_exhaustive_oracle(query, seed):
    # on every member of the minimal enumeration: the found set against the
    # canonical-then-every-subset search, and the verdict with its witness
    # against the list-every-path criterion, for a random candidate and a
    # random one that avoids the forbidden set
    h, a, y = query
    rng = np.random.default_rng(seed)
    members = [h] if M.is_identified(h, a, y) else M.id_graphs(h, a, y).graphs
    for member in members:
        found = _outcome(lambda: M.find_adjustment_set(member, a, y))
        assert found == _outcome(lambda: exhaustive_find_adjustment_set(member, a, y))
        pool = sorted(set(member.nodes) - set(a) - set(y))
        allowed = sorted(set(pool) - exhaustive_forbidden_set(member, a, y))
        for candidates in (pool, allowed):
            z = [n for n in candidates if rng.random() < 0.5]
            verdict = M.is_adjustment_set(member, a, y, z)
            assert _verdict(verdict) == _verdict(exhaustive_is_adjustment_set(member, a, y, z))


@given(pdags())
def test_possibly_causal_verdicts_match_pairwise_scan(g):
    nodes = list(g.nodes)
    if len(nodes) < 2:
        return
    paths = []
    for a, y in itertools.permutations(nodes, 2):
        try:
            paths.extend(M.proper_possibly_causal_paths(g, [a], [y]))
        except M.GraphError:
            pass
    for path in paths:
        seq = path.nodes
        for i, j in itertools.combinations(range(len(seq)), 2):
            assert (seq[j], seq[i]) not in g.directed


@given(pdags())
def test_bucket_decomposition_is_a_partition(g):
    rng = np.random.default_rng(0)
    nodes = list(g.nodes)
    subset = {n for n in nodes if rng.random() < 0.6}
    buckets = M.bucket_decomposition(g, subset)
    union = set()
    for bucket in buckets:
        assert not (union & bucket)
        union |= bucket
    assert union == subset


def _assert_matches_name_adjacency(g, rng):
    oracle = NameAdjacency(g)
    for u in g.nodes:
        assert g.parents(u) == oracle.parents[u]
        assert g.children(u) == oracle.children[u]
        assert g.undirected_neighbours(u) == oracle.und[u]
        assert g.neighbours(u) == oracle.neighbours(u)
        for v in g.nodes + ("zz",):
            assert g.adjacent(u, v) == oracle.adjacent(u, v)
            assert g.mark(u, v) == oracle.mark(u, v)
    order = oracle.kahn_order()
    assert tuple(g.nodes[i] for i in _kahn(g._masks)) == order
    if g.is_directed:
        assert g.topological_order() == order
    else:
        assert _outcome(g.topological_order)[:2] == ("error", M.GraphError)
    assert g.unshielded_colliders() == oracle.unshielded_colliders()
    for _ in range(3):
        subset = {n for n in g.nodes if rng.random() < 0.5}
        assert M.parents_of_set(g, subset) == oracle.parents_of_set(subset)
        assert M.bucket_decomposition(g, subset) == oracle.bucket_decomposition(subset)


@settings(max_examples=200)
@given(pdags(), mpdag_queries(), st.integers(0, 2**31 - 1))
def test_adjacency_queries_match_name_keyed_oracle(g, query, seed):
    # a PDAG, an MPDAG with background knowledge and a DAG it represents
    h = query[0]
    rng = np.random.default_rng(seed)
    for graph in (g, h.graph, M.consistent_extension(h)):
        _assert_matches_name_adjacency(graph, rng)


@settings(max_examples=200)
@given(mpdag_queries())
def test_g_formula_marginalises_ancestors_without_the_treatments(query):
    # on every member of the minimal enumeration, where the effect is identified
    h, a, y = query
    for member in [h] if M.is_identified(h, a, y) else M.id_graphs(h, a, y).graphs:
        g = member.graph
        expected = M.ancestors(g.induced_subgraph(set(g.nodes) - set(a)), y) - set(y)
        assert set(M.g_formula(member, a, y).marginalize) == expected


@settings(max_examples=200)
@given(mpdag_queries())
def test_singleton_possibly_causal_path_iff_possible_descendant(query):
    h, a, y = query
    for s, t in itertools.product(a, y):
        paths = M.proper_possibly_causal_paths(h.graph, [s], [t])
        assert bool(paths) == (t in M.possible_descendants(h.graph, s))


@given(pdags(), st.integers(0, 1000))
def test_d_separation_is_symmetric(g, salt):
    rng = np.random.default_rng(salt)
    nodes = list(g.nodes)
    if len(nodes) < 2:
        return
    rng.shuffle(nodes)
    a, y = nodes[0], nodes[1]
    z = [n for n in nodes[2:] if rng.random() < 0.4]
    assert M.d_separated(g, [a], [y], z) == M.d_separated(g, [y], [a], z)


@given(pdags())
def test_unshielded_subsequence_properties(g):
    nodes = list(g.nodes)
    for a, y in itertools.permutations(nodes, 2):
        try:
            paths = M.proper_possibly_causal_paths(g, [a], [y])
        except M.GraphError:
            continue
        for path in paths[:10]:
            shrunk = unshielded_subsequence(g, path)
            assert shrunk.nodes[0] == path.nodes[0]
            assert shrunk.nodes[-1] == path.nodes[-1]
            assert set(shrunk.nodes) <= set(path.nodes)
            verdict = classify_path(g, shrunk)
            assert verdict.kind is not PathKind.NON_CAUSAL
            for i in range(1, len(shrunk.nodes) - 1):
                assert not g.adjacent(shrunk.nodes[i - 1], shrunk.nodes[i + 1])


def test_global_markov_property_on_random_models():
    rng = np.random.default_rng(99)
    separated_checked = 0
    for _ in range(120):
        dag = random_dag(rng, int(rng.integers(3, 8)), 0.4)
        scm = random_scm(rng, dag)
        sigma = M.covariance(scm).matrix
        nodes = list(dag.nodes)
        for _ in range(6):
            picked = [nodes[i] for i in rng.permutation(len(nodes))]
            a, y = picked[0], picked[1]
            z = [n for n in picked[2:] if rng.random() < 0.5]
            if M.d_separated(dag, [a], [y], z):
                separated_checked += 1
                rho = partial_correlation(sigma, dag.nodes, a, y, z)
                assert abs(rho) < 1e-8
    assert separated_checked > 100


def test_d_separation_of_dag_equals_moral_oracle():
    # cross-check the definite-status enumeration against an independent
    # ancestral-moralisation reachability test, on fully directed graphs
    def moral_d_separated(dag, a, y, z):
        keep = M.ancestors(dag, {a, y} | set(z))
        sub = dag.induced_subgraph(keep)
        adj = {n: set() for n in sub.nodes}
        for t, h in sub.directed:
            adj[t].add(h)
            adj[h].add(t)
        for node in sub.nodes:
            parents = sorted(sub.parents(node))
            for u, v in itertools.combinations(parents, 2):
                adj[u].add(v)
                adj[v].add(u)
        frontier, seen = [a], {a} | set(z)  # conditioning nodes block
        while frontier:
            current = frontier.pop()
            if current == y:
                return False
            for nxt in adj[current]:
                if nxt == y:
                    return False
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return True

    rng = np.random.default_rng(17)
    for _ in range(150):
        dag = random_dag(rng, int(rng.integers(3, 7)), 0.45)
        nodes = list(dag.nodes)
        picked = [nodes[i] for i in rng.permutation(len(nodes))]
        a, y = picked[0], picked[1]
        z = [n for n in picked[2:] if rng.random() < 0.5]
        assert M.d_separated(dag, [a], [y], z) == moral_d_separated(dag, a, y, z)


def test_equivalence_class_membership_is_cpdag_invariant():
    rng = np.random.default_rng(5)
    for _ in range(40):
        dag = random_dag(rng, int(rng.integers(2, 6)), 0.5)
        cpdag = M.cpdag_of_dag(dag)
        for member in M.enumerate_dags(cpdag):
            assert M.cpdag_of_dag(member).graph == cpdag.graph


def test_branch_completeness_on_random_mpdags():
    rng = np.random.default_rng(23)
    for _ in range(40):
        dag = random_dag(rng, int(rng.integers(3, 6)), 0.5)
        h = M.cpdag_of_dag(dag)
        whole = {d.edge_lines() for d in M.enumerate_dags(h)}
        for u, v in h.graph.sorted_undirected():
            left = {
                d.edge_lines()
                for d in M.enumerate_dags(M.construct_mpdag(h, [(u, v)]))
            }
            right = {
                d.edge_lines()
                for d in M.enumerate_dags(M.construct_mpdag(h, [(v, u)]))
            }
            assert left | right == whole and not (left & right)


def test_operations_are_deterministic(four_mpdag, complete4):
    first = M.id_graphs(complete4, ["A1", "A2"], ["Y"])
    second = M.id_graphs(complete4, ["A1", "A2"], ["Y"])
    assert first == second
    assert M.render_edge_list(four_mpdag.graph) == M.render_edge_list(
        four_mpdag.graph
    )
    a = M.g_formula(M.Mpdag(M.parse_graph("A -> Y\n")), ["A"], ["Y"])
    b = M.g_formula(M.Mpdag(M.parse_graph("A -> Y\n")), ["A"], ["Y"])
    assert str(a) == str(b) and a == b


def test_bucket_formula_evaluates_to_the_identified_effect():
    # evaluating the factorisation itself (conditional means bucket by
    # bucket) must reproduce the extension-based estimate exactly
    checked = 0
    for seed in range(80):
        try:
            inst = M.random_instance(
                p=int(np.random.default_rng(seed).integers(3, 8)),
                avg_degree=2.0,
                seed=seed,
            )
        except M.RejectionBudgetError:
            continue
        cov = M.covariance(inst.scm)
        result = M.id_graphs(inst.cpdag, inst.treatments, [inst.outcome])
        for member in result.graphs:
            formula = M.g_formula(member, inst.treatments, [inst.outcome])
            direct = formula_effect(cov, formula, inst.outcome)
            estimated = M.estimate_effect(
                cov, member, inst.treatments, inst.outcome
            ).as_array()
            assert np.max(np.abs(direct - estimated)) < 1e-8
            checked += 1
    assert checked >= 100


@st.composite
def study_queries(draw):
    """A CPDAG, or an MPDAG with a random share of its true orientations
    requested, on 4-10 nodes of average degree 1-5, with one to three
    treatments and one or two outcomes.  True orientations are added until
    at most 12 edges are left undirected, which bounds the class at 4,096
    DAGs."""
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    p = int(rng.integers(4, 11))
    degree = float(rng.uniform(1, 5))
    dag = random_dag(rng, p, min(1.0, degree / (p - 1)))
    arrows = dag.sorted_directed()
    truth = [arrows[i] for i in rng.permutation(len(arrows))]
    share = float(rng.choice((0.0, rng.random())))
    cut = int(share * len(truth))
    h = M.construct_mpdag(M.cpdag_of_dag(dag), truth[:cut])
    while len(h.graph.undirected) > 12:
        cut += 1
        h = M.construct_mpdag(M.cpdag_of_dag(dag), truth[:cut])
    order = [dag.nodes[i] for i in rng.permutation(p)]
    k = int(rng.integers(1, 4))
    return h, order[:k], order[k:k + int(rng.integers(1, 3))]


@settings(max_examples=150)
@given(study_queries())
def test_class_rows_match_the_orientation_walks(query):
    # the study reads methods 2-4 off the class list: the counts of methods
    # 2-3 are the numbers of graphs that the orientation walks list, and per
    # member, in member order, the row is the class row of the member's
    # consistent extension
    h, treat, out = query
    dags = M.enumerate_dags(h)
    row = {d: k for k, d in enumerate(dags)}
    minimal = M.id_graphs(h, treat, out).graphs
    a, y = _checked_sets(h.graph, treat, out)
    rows = _class_rows(h, dags, a, y, minimal)
    members = {
        "2": M.method2_graphs(h, treat, out),
        "3": M.method3_graphs(h, treat, out),
        "4": minimal,
    }
    for key, graphs in members.items():
        assert rows[key] == [row[M.consistent_extension(m)] for m in graphs]


def _oracle_effect(cov, dag, treatments, outcome):
    coef = regression_coefficient_matrix(cov.matrix, cov.columns, dag)
    return _total_effect_from_matrix(coef, cov.columns, treatments, outcome)


@settings(max_examples=60)
@given(st.integers(0, 2**31 - 1), st.integers(3, 9), st.sampled_from([2.0, 3.0]))
def test_regression_sweep_matches_per_dag_oracle(seed, p, degree):
    # one sweep over a class's DAGs and the members' extensions, in random
    # order with repeats, against one fresh per-node solve per DAG, bit for
    # bit; also on a covariance whose columns come in another order, for a
    # DAG on a strict subset of the columns, and for no DAG at all
    try:
        inst = M.random_instance(p, degree, seed)
    except M.RejectionBudgetError:
        return
    treat, outcome = inst.treatments, inst.outcome
    rng = np.random.default_rng(seed)
    pool = M.enumerate_dags(inst.cpdag) + [
        M.consistent_extension(m)
        for m in M.id_graphs(inst.cpdag, treat, [outcome]).graphs
    ]
    picked = [pool[i] for i in rng.choice(len(pool), size=2 * len(pool))]
    spare = [n for n in inst.dag.nodes if n not in treat and n != outcome]
    if spare:
        kept = [n for n in inst.dag.nodes if n != spare[0]]
        picked.append(M.PartiallyDirectedGraph(
            kept, [e for e in inst.dag.directed if spare[0] not in e], ()
        ))
    data = M.sample(inst.scm, 30, seed)
    sample_cov = M.ExactCovariance(data.columns, data.covariance())
    perm = rng.permutation(p)
    shuffled = M.ExactCovariance(
        tuple(data.columns[i] for i in perm), sample_cov.matrix[np.ix_(perm, perm)]
    )
    for cov in (M.covariance(inst.scm), sample_cov, shuffled):
        got = _regression_effects(cov, picked, treat, outcome)
        expected = np.array([_oracle_effect(cov, d, treat, outcome) for d in picked])
        assert got.shape == (len(picked), len(treat))
        assert np.array_equal(got, expected)
        assert _regression_effects(cov, [], treat, outcome).shape == (0, len(treat))


@settings(max_examples=60)
@given(st.integers(0, 2**31 - 1), st.integers(3, 9), st.sampled_from([2.0, 3.0]))
def test_public_effects_match_per_dag_oracle(seed, p, degree):
    # one covariance object serves every DAG of the class and every member of
    # the enumeration, as in the simulation study; each public answer must
    # equal a fresh per-node solve bit for bit, whatever was fitted before
    try:
        inst = M.random_instance(p, degree, seed)
    except M.RejectionBudgetError:
        return
    treat, outcome = inst.treatments, inst.outcome
    dags = M.enumerate_dags(inst.cpdag)
    order = np.random.default_rng(seed).permutation(len(dags))
    members = M.id_graphs(inst.cpdag, treat, [outcome]).graphs
    data = M.sample(inst.scm, 30, seed)
    sample_cov = M.ExactCovariance(data.columns, data.covariance())
    for cov in (M.covariance(inst.scm), sample_cov):
        for i in order:
            got = M.regression_effect_for_dag(cov, dags[i], treat, outcome)
            assert np.array_equal(got, _oracle_effect(cov, dags[i], treat, outcome))
        for member in members:
            got = M.estimate_effect(cov, member, treat, outcome).as_array()
            expected = _oracle_effect(
                cov, M.consistent_extension(member), treat, outcome
            )
            assert np.array_equal(got, expected)
    possible = M.possible_effects(data, inst.cpdag, treat, outcome).estimates
    for member, estimate in zip(members, possible):
        from_data = M.estimate_effect(data, member, treat, outcome).as_array()
        shared = M.estimate_effect(sample_cov, member, treat, outcome).as_array()
        assert np.array_equal(from_data, shared)
        assert np.array_equal(estimate.as_array(), shared)


@settings(max_examples=150)
@given(mpdag_queries())
def test_consistent_extension_matches_the_chained_closures(query):
    # one builder, oriented and re-closed edge by edge, against one
    # construct_mpdag per edge, on the MPDAG and on each output graph
    h, treat, outcome = query
    for g in [h, *M.id_graphs(h, treat, outcome).graphs]:
        ext = M.consistent_extension(g)
        assert ext == chained_consistent_extension(g)
        assert M.is_represented(ext, g)
        # the CPDAG of a DAG represents it, which cpdag_of_dag does not check
        assert M.is_represented(ext, M.cpdag_of_dag(ext))


@st.composite
def branch_cases(draw):
    """An MPDAG from :func:`mpdag_queries`, or a plain ``Mpdag(g)`` wrapper
    of a PDAG from :func:`orientation_cases`, which is not sound, so it is
    scanned in full and may be unclosed or class-empty; with a treatment
    set of one to three nodes and a one-node outcome set."""
    if draw(st.booleans()):
        h = draw(mpdag_queries(max_nodes=6))[0]
    else:
        h = M.Mpdag(draw(orientation_cases(max_nodes=6))[0])
    order = draw(st.permutations(h.nodes))
    k = draw(st.integers(1, min(3, len(order) - 1)))
    return h, order[:k], order[k:k + 1]


@settings(max_examples=200)
@given(branch_cases())
def test_branch_walk_matches_the_rebuilding_oracles(case):
    # the branch walk on copied builders against one construct_mpdag per
    # tree node (DAG enumeration, the consistent extension) and against
    # replaying every request list from the root (methods 2 and 3)
    h, a, y = case
    g = h.graph
    dags = _outcome(lambda: M.enumerate_dags(h))
    expected = _outcome(lambda: chained_enumerate_dags(h))
    extension = _outcome(lambda: M.consistent_extension(h))
    chained = _outcome(lambda: chained_consistent_extension(h))
    if dags[0] == "ok":
        assert dags == expected
        # the walk closes every leaf but an unbranched root, and a closure
        # that ends in a DAG proves it sound; an unbranched root has no
        # undirected edge, so no rule fires on it and its builder proves it
        # when it is made
        for dag in dags[1] + ([extension[1]] if extension[0] == "ok" else []):
            assert getattr(dag, _SOUND, False)
            _assert_trusted_snapshot(dag)
    else:
        # the walk meets a directed cycle at a leaf, the stack of MPDAGs at
        # the first cyclic tree node it builds, so the verdict agrees and
        # the cycle named may not; an unclosed wrapper can meet one below a
        # nonempty class
        assert dags[:2] == expected[:2] == (
            "error", M.InternalInconsistencyError
        )
    # the extension is the first leaf, which the chained oracle reaches by
    # the same orientations, except that a class-empty root is refused even
    # where that leaf is acyclic
    if chained[0] != "ok":
        assert extension[:2] == chained[:2]
    elif exhaustive_class_nonempty(g):
        assert extension == chained
        assert dags[0] != "ok" or extension[1] in dags[1]
    else:
        assert extension == (
            "error",
            M.InternalInconsistencyError,
            "MPDAG admits no consistent extension",
            None,
            None,
        )
    # methods 2 and 3 read the first edges of violating paths, which are
    # exact only on a closed graph: an unclosed wrapper is compared on its
    # closure, where it has one
    closure = _outcome(lambda: M.meek_closure(g))
    if closure[0] != "ok":
        return
    if closure[1].graph != g:
        h, g = closure[1], closure[1].graph
    edges = sorted(e for e in g.undirected if set(e) & set(a))
    on_path = {
        n for path in exhaustive_possibly_causal_paths(g, a, y) for n in path.nodes
    } - set(a)
    restricted = [e for e in edges if set(e) & on_path]
    for method, request_edges in (
        (M.method2_graphs, edges), (M.method3_graphs, restricted)
    ):
        combos = _outcome(lambda: method(h, a, y))
        assert combos == _outcome(
            lambda: replayed_treatment_edge_combos(h, request_edges)
        )
        for member in combos[1] if combos[0] == "ok" else ():
            _assert_trusted_snapshot(member.graph)


def _builder_state(b):
    return list(b.children), list(b.und), list(b.parents), list(b._pending)


@settings(max_examples=100)
@given(mpdag_queries())
def test_builder_copy_shares_no_mutable_state(query):
    h = query[0]
    source = _Builder(h.graph)
    edge = source.first_undirected()
    if edge is None:
        return
    # oriented but not re-closed: the pending list holds what the rules
    # still have to do
    source.orient(*edge)
    before = _builder_state(source)
    clone = source.copy()
    clone.close()
    assert _builder_state(source) == before
    source.close()
    assert clone.mpdag() == source.mpdag()
    closed = _builder_state(source)
    later = clone.first_undirected()
    if later is not None:
        clone.request(clone.nodes[later[1]], clone.nodes[later[0]])
        assert _builder_state(source) == closed


@settings(max_examples=150)
@given(mpdag_queries(), st.booleans(), st.integers(0, 2**31 - 1))
def test_propagated_closure_matches_the_rule_check_and_the_rescan(
    query, validated, seed
):
    # a sound builder closes by propagation from each new arrow, as requests
    # and as branches (both orientations of an edge, one on a copy); after
    # every closure the per-edge rule check finds no firing on any
    # undirected edge, and the graph is the rescanning oracle's.  A
    # validated copy of the root is not flagged, but no rule fires on it,
    # so its builder proves it when it is made
    h = query[0]
    root = h.graph
    if validated:
        root = M.PartiallyDirectedGraph(root.nodes, root.directed, root.undirected)
    builder = _Builder(root)
    assert builder.sound and builder._pending == []
    rng = np.random.default_rng(seed)
    names = builder.nodes
    requests: list[tuple[str, str]] = []

    def check(b, done):
        assert b.sound and b._pending == [] and b._firings() == []
        expected = rescanning_construct_mpdag(h.graph, done)
        assert b.mpdag().graph == expected

    while True:
        edges = [(u, v) for u, row in enumerate(builder.und) for v in _bit_indices(row)]
        if not edges:
            break
        u, v = edges[rng.integers(len(edges))]
        if rng.random() < 0.5:
            builder.request(names[u], names[v])
            requests.append((names[u], names[v]))
            check(builder, requests)
            continue
        children = [(builder.copy(), (u, v)), (builder, (v, u))]
        for child, (t, hd) in children:
            child.orient(t, hd)
            child.close()
            check(child, requests + [(names[t], names[hd])])
        builder, (t, hd) = children[rng.integers(2)]
        requests.append((names[t], names[hd]))


def test_adjustment_verdicts_are_sound_for_the_population_functional():
    # a set declared valid must reproduce the identified effect through the
    # plain covariate-adjustment regression, for every candidate subset
    valid_checked = 0
    invalid_mismatch = 0
    for seed in range(60):
        try:
            inst = M.random_instance(
                p=int(np.random.default_rng(seed).integers(3, 7)),
                avg_degree=2.0,
                seed=seed,
                n_treatments=1,
            )
        except M.RejectionBudgetError:
            continue
        cov = M.covariance(inst.scm)
        treat, outcome = list(inst.treatments), inst.outcome
        for member in M.id_graphs(inst.cpdag, treat, [outcome]).graphs:
            target = M.estimate_effect(cov, member, treat, outcome).as_array()
            pool = sorted(set(member.nodes) - set(treat) - {outcome})
            for size in range(len(pool) + 1):
                for combo in itertools.combinations(pool, size):
                    verdict = M.is_adjustment_set(member, treat, [outcome], combo)
                    beta = adjustment_functional(cov, treat, outcome, list(combo))
                    if verdict.valid:
                        assert np.max(np.abs(beta - target)) < 1e-8, (
                            inst.seed,
                            combo,
                        )
                        valid_checked += 1
                    elif np.max(np.abs(beta - target)) > 1e-6:
                        invalid_mismatch += 1
    assert valid_checked >= 50
    assert invalid_mismatch >= 50  # rejections are not vacuous


def test_forbidden_set_against_brute_force_definition():
    # the definition where the effect is identified, and the refusal with
    # the identification witness where it is not; both kinds are met often
    rng = np.random.default_rng(31)
    counts = {True: 0, False: 0}
    for _ in range(40):
        dag = random_dag(rng, int(rng.integers(3, 6)), 0.5)
        h = M.cpdag_of_dag(dag)
        nodes = list(dag.nodes)
        a, y = nodes[0], nodes[-1]
        verdict = M.is_identified(h, [a], [y])
        counts[verdict.identified] += 1
        if not verdict:
            with pytest.raises(M.NotIdentifiedError) as exc:
                M.forbidden_set(h, [a], [y])
            assert exc.value.witness == verdict.witness
            continue
        expected = set()
        on_paths = set()
        for path in M.proper_possibly_causal_paths(h.graph, [a], [y]):
            on_paths |= set(path.nodes)
        for w in on_paths - {a}:
            expected |= M.possible_descendants(h.graph, w)
        assert M.forbidden_set(h, [a], [y]) == expected
    assert counts[True] >= 15 and counts[False] >= 15, counts
