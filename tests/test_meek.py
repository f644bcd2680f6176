import numpy as np
import pytest

import mpdag as M
from mpdag.meek import _SOUND, _Builder, _extendable
from helpers import (
    FOUR_NODE_DAGS,
    brute_force_class,
    count_cycle_searches,
    lines,
    random_dag,
    rescanning_meek_closure,
)


def pdag(directed=(), undirected=()):
    nodes = {n for e in list(directed) + list(undirected) for n in e}
    return M.PartiallyDirectedGraph(nodes, directed, undirected)


class TestClosureRules:
    def test_rule_one_orients_away_from_arrowhead(self):
        g = pdag(directed=[("a", "b")], undirected=[("b", "c")])
        closed = M.meek_closure(g)
        assert ("b", "c") in closed.graph.directed

    def test_rule_two_closes_transitive_triangle(self):
        g = pdag(directed=[("a", "b"), ("b", "c")], undirected=[("a", "c")])
        closed = M.meek_closure(g)
        assert ("a", "c") in closed.graph.directed

    def test_rule_three(self):
        g = pdag(
            directed=[("a", "b"), ("c", "b")],
            undirected=[("d", "a"), ("d", "b"), ("d", "c")],
        )
        closed = M.meek_closure(g)
        assert ("d", "b") in closed.graph.directed

    def test_rule_four(self):
        g = pdag(
            directed=[("a", "b"), ("b", "c")],
            undirected=[("d", "a"), ("d", "b"), ("d", "c")],
        )
        closed = M.meek_closure(g)
        assert ("d", "c") in closed.graph.directed

    def test_closure_is_idempotent_on_closed_graph(self, four_mpdag):
        again = M.meek_closure(four_mpdag.graph)
        assert again.graph == four_mpdag.graph

    def test_closure_keeps_skeleton_and_grows_directed(self):
        # partial orientations consistent with some member DAG
        rng = np.random.default_rng(3)
        for _ in range(60):
            dag = random_dag(rng, int(rng.integers(2, 6)), 0.5)
            cp = M.cpdag_of_dag(dag).graph
            partial = cp
            for edge in sorted(dag.directed):
                if tuple(sorted(edge)) in partial.undirected and rng.random() < 0.5:
                    partial = partial.orient(*edge)
            closed = M.meek_closure(partial)
            assert closed.graph.skeleton == partial.skeleton
            assert partial.directed <= closed.graph.directed

    def test_closure_of_class_empty_pdag_is_internal_error(self):
        # x -> y <- w is a collider the undirected y -- z cannot keep: either
        # orientation of y -- z breaks the class, and the rules loop into a
        # directed cycle; on a 4-cycle, a -> b makes R1 orient the rest of
        # the cycle around
        cases = [
            (pdag([("x", "y"), ("z", "w"), ("w", "y")], [("y", "z")]),
             "('w', 'y', 'z', 'w')"),
            (pdag([("a", "b")], [("b", "c"), ("c", "d"), ("a", "d")]),
             "('a', 'b', 'c', 'd', 'a')"),
        ]
        for g, cycle in cases:
            with pytest.raises(M.InternalInconsistencyError) as err:
                M.meek_closure(g)
            assert str(err.value) == (
                f"rule closure produced an invalid graph: directed cycle: {cycle}"
            )

    @pytest.mark.parametrize(
        "directed, undirected, cycle",
        [
            # R3 fires on p -- q both ways: p -> q, the smaller tail, goes first
            (
                "rq sq tp wp",
                "pq pr ps qt qw rt rw st sw",
                "('p', 'q', 'w', 'p')",
            ),
            # R3 on one edge goes before R4 on a smaller edge
            (
                "eb gb gd",
                "ab ad ae ag bc bf cd ce cg de fg",
                "('a', 'b', 'c', 'd', 'a')",
            ),
            # R4 fires on an edge both ways: the smaller tail goes first
            (
                "dg fe ga",
                "ab ae af bc be bf bg cd ce cg de df eg fg",
                "('b', 'c', 'd', 'e', 'b')",
            ),
        ],
    )
    def test_first_firing_order_decides_the_reported_cycle(
        self, directed, undirected, cycle
    ):
        # class-empty PDAGs, where the rules end in a directed cycle that
        # depends on the order of the firings
        g = M.PartiallyDirectedGraph(
            {n for pair in (directed + undirected).split() for n in pair},
            [tuple(pair) for pair in directed.split()],
            [tuple(pair) for pair in undirected.split()],
        )
        with pytest.raises(M.InternalInconsistencyError) as err:
            M.meek_closure(g)
        assert str(err.value) == (
            f"rule closure produced an invalid graph: directed cycle: {cycle}"
        )
        with pytest.raises(M.InternalInconsistencyError) as oracle_err:
            rescanning_meek_closure(g)
        assert str(oracle_err.value) == str(err.value)

    def test_shielded_triple_stays_undirected(self):
        g = pdag(directed=[("a", "b")], undirected=[("b", "c"), ("a", "c")])
        closed = M.meek_closure(g)
        assert ("b", "c") in closed.graph.undirected


class TestConstructMpdag:
    def test_single_request_yields_refined_graph(self, four_cpdag, four_mpdag):
        refined = M.construct_mpdag(four_cpdag, [("A", "Y")])
        assert refined.graph == four_mpdag.graph

    def test_no_rule_fires_on_shielded_candidates(self, four_mpdag):
        refined = M.construct_mpdag(four_mpdag, [("A", "V1")])
        assert lines(refined) == (
            "A -> V1",
            "A -> Y",
            "A -- V2",
            "V1 -- V2",
            "V1 -- Y",
        )

    def test_contradicting_request_fails(self, four_mpdag):
        with pytest.raises(M.OrientationConflictError) as err:
            M.construct_mpdag(four_mpdag, [("Y", "A")])
        assert err.value.request == ("Y", "A")

    def test_missing_edge_fails(self, four_mpdag):
        with pytest.raises(M.OrientationConflictError):
            M.construct_mpdag(four_mpdag, [("V2", "Y")])

    @pytest.mark.parametrize("request_", [("Z", "A"), ("A", "Z")])
    def test_unknown_node_is_missing_edge(self, four_mpdag, request_):
        with pytest.raises(M.OrientationConflictError) as err:
            M.construct_mpdag(four_mpdag, [request_])
        assert err.value.request == request_
        assert err.value.reason == "no such edge"

    def test_agreeing_request_is_noop(self, four_mpdag):
        refined = M.construct_mpdag(four_mpdag, [("A", "Y")])
        assert refined.graph == four_mpdag.graph

    def test_closure_induced_contradiction_fails(self):
        # orienting a -> b forces b -> c (rule one), so a later c -> b fails
        g = M.meek_closure(pdag(undirected=[("a", "b"), ("b", "c")]))
        with pytest.raises(M.OrientationConflictError):
            M.construct_mpdag(g, [("a", "b"), ("c", "b")])


class TestCpdagOfDag:
    def test_no_colliders_gives_fully_undirected(self, four_dag, four_cpdag):
        assert M.cpdag_of_dag(four_dag).graph == four_cpdag.graph

    def test_sim_dag_gives_fully_undirected(self, sim_cpdag):
        dag = M.parse_graph(
            "A1 -> A2\nA1 -> V\nA1 -> Y\nA2 -> V\nA2 -> Y\n"
        )
        assert M.cpdag_of_dag(dag).graph == sim_cpdag.graph

    def test_collider_dag_is_its_own_cpdag(self):
        g = pdag(directed=[("A", "C"), ("B", "C")])
        assert M.cpdag_of_dag(g).graph == g

    def test_rejects_partially_directed_input(self, four_mpdag):
        with pytest.raises(M.GraphError):
            M.cpdag_of_dag(four_mpdag.graph)


class TestIsRepresented:
    def test_all_class_members_are_represented(self, four_mpdag):
        for dag_lines in FOUR_NODE_DAGS:
            dag = M.parse_graph("\n".join(dag_lines))
            assert M.is_represented(dag, four_mpdag)

    def test_reversed_background_edge_is_not(self, four_mpdag):
        dag = M.parse_graph(
            "Y -> A\nV1 -> A\nV1 -> Y\nV2 -> A\nV2 -> V1\n"
        )
        assert not M.is_represented(dag, four_mpdag)

    def test_extra_edge_changes_skeleton(self):
        h = M.meek_closure(pdag(undirected=[("A", "B"), ("B", "C")]))
        dag = M.PartiallyDirectedGraph(
            "ABC", [("A", "B"), ("B", "C"), ("A", "C")], ()
        )
        assert not M.is_represented(dag, h)

    def test_node_set_mismatch_is_an_error(self, four_mpdag):
        dag = pdag(directed=[("A", "B")])
        with pytest.raises(M.GraphError):
            M.is_represented(dag, four_mpdag)


class TestEnumerateDags:
    def test_four_node_class(self, four_mpdag):
        dags = M.enumerate_dags(four_mpdag)
        assert [lines(d) for d in dags] == list(FOUR_NODE_DAGS)

    def test_complete_three_node_cpdag_has_six(self):
        h = M.meek_closure(
            pdag(undirected=[("A", "B"), ("B", "C"), ("A", "C")])
        )
        assert len(M.enumerate_dags(h)) == 6

    def test_dag_input_is_singleton(self, four_dag):
        h = M.Mpdag(four_dag)
        assert [lines(d) for d in M.enumerate_dags(h)] == [lines(four_dag)]

    def test_matches_brute_force_class_on_random_dags(self):
        rng = np.random.default_rng(11)
        for _ in range(150):
            dag = random_dag(rng, int(rng.integers(2, 6)), 0.5)
            cp = M.cpdag_of_dag(dag)
            mine = [lines(d) for d in M.enumerate_dags(cp)]
            truth = [lines(d) for d in brute_force_class(dag)]
            assert mine == truth

    def test_background_knowledge_restricts_class_exactly(self):
        rng = np.random.default_rng(13)
        for _ in range(150):
            dag = random_dag(rng, int(rng.integers(3, 6)), 0.55)
            if not dag.directed:
                continue
            cp = M.cpdag_of_dag(dag)
            full = M.enumerate_dags(cp)
            dag_edges = sorted(dag.directed)
            k = int(rng.integers(1, len(dag_edges) + 1))
            picked = sorted(rng.choice(len(dag_edges), size=k, replace=False))
            requests = [dag_edges[i] for i in picked]
            refined = M.construct_mpdag(cp, requests)
            mine = {lines(d) for d in M.enumerate_dags(refined)}
            truth = {
                lines(d)
                for d in full
                if all(e in d.directed for e in requests)
            }
            assert mine == truth
            # maximal orientation: directed edges are exactly the invariant ones
            truth_dags = [d for d in full if lines(d) in truth]
            for u, v in refined.graph.undirected:
                assert any((u, v) in d.directed for d in truth_dags)
                assert any((v, u) in d.directed for d in truth_dags)
            for t, hd in refined.graph.directed:
                assert all((t, hd) in d.directed for d in truth_dags)

    def test_branch_completeness_on_every_undirected_edge(self, four_mpdag):
        whole = {lines(d) for d in M.enumerate_dags(four_mpdag)}
        for u, v in four_mpdag.graph.sorted_undirected():
            left = {
                lines(d)
                for d in M.enumerate_dags(M.construct_mpdag(four_mpdag, [(u, v)]))
            }
            right = {
                lines(d)
                for d in M.enumerate_dags(M.construct_mpdag(four_mpdag, [(v, u)]))
            }
            assert left | right == whole
            assert not (left & right)

    @pytest.mark.parametrize(
        "directed, undirected, cycle",
        [
            # the collider x -> y <- w leaves y -- z no orientation: the first
            # branch, y -> z, closes w -> y -> z -> w
            ("xy zw wy", "yz", "('w', 'y', 'z', 'w')"),
            # an undirected 4-cycle: the first branch, a -> b, makes R1 orient
            # the rest of the cycle around
            ("", "ab bc cd ad", "('a', 'b', 'c', 'd', 'a')"),
        ],
    )
    def test_class_empty_input_is_internal_error(self, directed, undirected, cycle):
        g = M.PartiallyDirectedGraph(
            {n for pair in (directed + " " + undirected).split() for n in pair},
            [tuple(pair) for pair in directed.split()],
            [tuple(pair) for pair in undirected.split()],
        )
        with pytest.raises(M.InternalInconsistencyError) as err:
            M.enumerate_dags(M.Mpdag(g))
        assert str(err.value) == (
            f"orientation produced an invalid graph: directed cycle: {cycle}"
        )


class TestConsistentExtension:
    def test_third_minimal_graph_extension(self, minimal_three):
        third = minimal_three[2]
        ext = M.consistent_extension(third)
        assert lines(ext) == (
            "A -> V2",
            "A -> Y",
            "V1 -> A",
            "V1 -> V2",
            "V1 -> Y",
        )

    def test_dag_extends_to_itself(self, four_dag):
        assert M.consistent_extension(M.Mpdag(four_dag)) == four_dag

    def test_single_undirected_edge_prefers_smaller_tail(self):
        h = M.meek_closure(pdag(undirected=[("A", "B")]))
        assert ("A", "B") in M.consistent_extension(h).directed

    def test_extension_is_represented(self, minimal_three):
        for member in minimal_three:
            assert M.is_represented(M.consistent_extension(member), member)

    def test_class_empty_input_is_internal_error(self):
        # the collider x -> y <- w leaves y -- z no orientation: y -> z, the
        # smaller tail, closes the directed cycle w -> y -> z -> w; on an
        # undirected 4-cycle, a -> b makes R1 orient the rest around
        cases = [
            (pdag([("x", "y"), ("z", "w"), ("w", "y")], [("y", "z")]),
             "('w', 'y', 'z', 'w')"),
            (pdag((), [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")]),
             "('a', 'b', 'c', 'd', 'a')"),
        ]
        for g, cycle in cases:
            with pytest.raises(M.InternalInconsistencyError) as err:
                M.consistent_extension(M.Mpdag(g))
            assert str(err.value) == (
                f"MPDAG admits no consistent extension: directed cycle: {cycle}"
            )

    def test_closed_class_empty_input_with_an_acyclic_first_leaf(self):
        # the chordless cycle n1 n5 n4 n6 is closed and represents no DAG;
        # orienting from smaller tails reaches the acyclic leaf n0 -> n5,
        # n1 -> n6, n4 -> n6, n5 -> n1, n5 -> n4, whose collider
        # n1 -> n6 <- n4 the input lacks, so no DAG is returned
        h = M.meek_closure(M.parse_graph(
            "n0 -- n5\nn1 -- n5\nn1 -- n6\nn4 -- n5\nn4 -- n6\n"
        ))
        with pytest.raises(M.InternalInconsistencyError) as err:
            M.consistent_extension(h)
        assert str(err.value) == "MPDAG admits no consistent extension"


class TestSoundness:
    def test_only_graphs_not_known_sound_are_searched_for_cycles(self, monkeypatch):
        # below the CPDAG of a DAG no orientation engine call searches for a
        # directed cycle; a graph with the same edges, built by the
        # validating constructor, is closed, so its builder proves its class
        # nonempty when it is made, and no call searches below it either,
        # not even one that returns it as it is, which is flagged
        searches = count_cycle_searches(monkeypatch)
        rng = np.random.default_rng(23)
        unidentified = 0
        for _ in range(30):
            p = int(rng.integers(2, 11))
            dag = random_dag(rng, p, rng.choice((0.3, 0.5)))
            a, y = ([dag.nodes[i]] for i in rng.permutation(p)[:2])
            searches.clear()
            h = M.cpdag_of_dag(dag)
            assert searches == []
            g = h.graph
            plain = M.Mpdag(M.PartiallyDirectedGraph(g.nodes, g.directed, g.undirected))
            # requests from the true DAG, on undirected and directed edges
            known = [e for e in sorted(dag.directed) if rng.random() < 0.4]
            calls = [
                M.enumerate_dags,
                M.consistent_extension,
                lambda m: M.method2_graphs(m, a, y),
                lambda m: M.method3_graphs(m, a, y),
                lambda m: M.construct_mpdag(m, known),
            ]
            searches.clear()  # the validating constructor's
            for call in calls:
                sound = call(h)
                assert call(plain) == sound
                assert searches == []
            unchanged = M.construct_mpdag(plain, [])
            assert unchanged.graph == g and getattr(unchanged.graph, _SOUND)
            result = M.id_graphs(h, a, y)
            # an identified root is returned as it is, with no graph built;
            # below an unidentified one every branch is closed and proved
            assert M.id_graphs(plain, a, y).graphs == result.graphs
            assert searches == []
            unidentified += bool(result.audit)
            closed = M.meek_closure(plain.graph)
            assert searches == []
            assert getattr(closed.graph, _SOUND)
        assert unidentified >= 5

    def test_below_a_flagged_root_no_edge_is_checked_in_full(self, monkeypatch):
        # a flagged root, or one proved where its builder is made, closes by
        # propagation from each new arrow: the per-edge rule check runs only
        # in the scan of an unflagged root and in the rescans of a closure
        # that is not yet proved
        checks = []
        check = _Builder._first_firing

        def counted(builder, u, v):
            checks.append((u, v))
            return check(builder, u, v)

        monkeypatch.setattr(_Builder, "_first_firing", counted)
        for k in (8, 9, 10):
            names = [f"v{i}" for i in range(k)]
            pairs = [(u, w) for i, u in enumerate(names) for w in names[i + 1:]]
            h = M.meek_closure(M.PartiallyDirectedGraph(names, (), pairs))
            assert len(checks) == len(pairs)  # the scan of the unflagged root
            checks.clear()
            assert len(M.id_graphs(h, ["v0"], ["v1"]).graphs) == 2 ** (k - 2) + 1
            assert checks == []
        rng = np.random.default_rng(29)
        for _ in range(20):
            p = int(rng.integers(4, 9))
            dag = random_dag(rng, p, rng.choice((0.3, 0.5, 0.7)))
            a, y = ([dag.nodes[i]] for i in rng.permutation(p)[:2])
            h = M.cpdag_of_dag(dag)
            checks.clear()
            dags = M.enumerate_dags(h)
            M.method2_graphs(h, a, y)
            M.method3_graphs(h, a, y)
            known = [e for e in sorted(dag.directed) if rng.random() < 0.4]
            M.construct_mpdag(h, known)
            assert M.consistent_extension(h) == dags[0]
            assert checks == []

    def test_a_class_empty_root_is_not_proved_sound(self, monkeypatch):
        # closed, and its first DAG-shaped leaf is acyclic, but that leaf has
        # unshielded colliders the root lacks (the chordless cycle n1 n5 n4
        # n6): the elimination finds no DAG, so the root is not flagged.  The
        # first branch, n1 -> n5, closes into a directed cycle, which no
        # elimination proves either: its snapshot is the one searched, and
        # it reports the cycle
        h = M.meek_closure(M.parse_graph(
            "n0 -- n5\nn1 -- n5\nn1 -- n6\nn4 -- n5\nn4 -- n6\n"
        ))
        masks = h.graph._masks
        assert not _extendable(masks.children, masks.undirected, masks.neighbours)
        assert not getattr(h.graph, _SOUND)
        searches = count_cycle_searches(monkeypatch)
        with pytest.raises(M.InternalInconsistencyError) as err:
            M.id_graphs(h, ["n1"], ["n4"])
        assert str(err.value) == (
            "orientation produced an invalid graph: "
            "directed cycle: ('n1', 'n5', 'n4', 'n6', 'n1')"
        )
        assert searches == [h.nodes]
