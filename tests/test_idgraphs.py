import itertools
import sys

import numpy as np
import pytest

import mpdag as M
from mpdag import graphs, identify, idgraphs
from helpers import (
    COMPLETE4_MINIMAL,
    FOUR_NODE_MINIMAL,
    FOUR_NODE_TREATMENT_ORIENTATIONS,
    SIM_JOINT_EFFECTS,
    SIM_POINT_EFFECTS,
    exhaustive_id_graphs,
    fixture_mpdag,
    lines,
    random_chordal_query,
    stacked_id_graphs,
)

# the (file, treatments, outcome) queries the fixture corpus is checked on
FIXTURE_QUERIES = (
    ("four_node_mpdag.txt", ["A"], ["Y"]),
    ("four_node_cpdag.txt", ["A"], ["Y"]),
    ("complete4.txt", ["A1", "A2"], ["Y"]),
    ("complete4.txt", ["A1"], ["Y"]),
    ("sim_cpdag.txt", ["A1"], ["Y"]),
    ("sim_cpdag.txt", ["A1", "A2"], ["Y"]),
)


def complete_graph(k: int) -> M.Mpdag:
    """K_k on v0 .. v{k-1}, every edge undirected."""
    names = [f"v{i}" for i in range(k)]
    pairs = [(u, w) for i, u in enumerate(names) for w in names[i + 1:]]
    return M.meek_closure(M.PartiallyDirectedGraph(names, (), pairs))


def oracle_queries():
    for k in (6, 7, 8):
        yield pytest.param(complete_graph(k), ["v0"], ["v1"], id=f"K{k}")
    for name, a, y in FIXTURE_QUERIES:
        yield pytest.param(fixture_mpdag(name), a, y, id=f"{name}-{','.join(a)}")


class TestBranchEdgeSelection:
    def test_shortest_violating_path_wins(self, four_mpdag):
        assert M.select_branch_edge(four_mpdag, ["A"], ["Y"]) == ("A", "V1")

    def test_next_edge_after_one_orientation(self, four_mpdag):
        refined = M.construct_mpdag(four_mpdag, [("A", "V1")])
        assert M.select_branch_edge(refined, ["A"], ["Y"]) == ("A", "V2")

    def test_single_undirected_pair(self):
        h = M.meek_closure(M.parse_graph("A -- Y\n"))
        assert M.select_branch_edge(h, ["A"], ["Y"]) == ("A", "Y")

    def test_identified_input_is_an_error(self, four_dag):
        with pytest.raises(M.GraphError):
            M.select_branch_edge(M.Mpdag(four_dag), ["A"], ["Y"])


class TestMinimalEnumeration:
    def test_four_node_example(self, four_mpdag):
        result = M.id_graphs(four_mpdag, ["A"], ["Y"])
        assert result.m == 2
        assert [lines(g) for g in result.graphs] == list(FOUR_NODE_MINIMAL)

    def test_complete_four_joint(self, complete4):
        result = M.id_graphs(complete4, ["A1", "A2"], ["Y"])
        assert [lines(g) for g in result.graphs] == list(COMPLETE4_MINIMAL)

    def test_identified_input_returns_itself(self, four_dag):
        h = M.Mpdag(four_dag)
        result = M.id_graphs(h, ["A"], ["Y"])
        assert result.graphs == (h,)
        assert result.m == 0 and result.audit == ()

    def test_sim_point_and_joint_outputs(self, sim_cpdag):
        point = M.id_graphs(sim_cpdag, ["A1"], ["Y"])
        assert {lines(g) for g in point.graphs} == set(SIM_POINT_EFFECTS)
        joint = M.id_graphs(sim_cpdag, ["A1", "A2"], ["Y"])
        assert {lines(g) for g in joint.graphs} == set(SIM_JOINT_EFFECTS)

    def test_every_output_is_identified(self, complete4):
        result = M.id_graphs(complete4, ["A1", "A2"], ["Y"])
        for member in result.graphs:
            assert M.is_identified(member, ["A1", "A2"], ["Y"])

    def test_output_bound_and_audit(self, complete4):
        result = M.id_graphs(complete4, ["A1", "A2"], ["Y"])
        assert result.n <= 2 ** result.m
        assert result.audit[0].edge == ("A1", "Y")
        assert result.audit[0].path == ("A1", "Y")
        assert all(record.violating >= 1 for record in result.audit)

    def test_deterministic_rerun(self, complete4):
        first = M.id_graphs(complete4, ["A1", "A2"], ["Y"])
        second = M.id_graphs(complete4, ["A1", "A2"], ["Y"])
        assert first == second

    def test_edge_order_invariance(self):
        text = "A1 -- A2\nA1 -- V1\nA1 -- Y\nA2 -- V1\nA2 -- Y\nV1 -- Y\n"
        shuffled = "\n".join(reversed(text.strip().splitlines())) + "\n"
        a = M.id_graphs(M.meek_closure(M.parse_graph(text)), ["A1", "A2"], ["Y"])
        b = M.id_graphs(M.meek_closure(M.parse_graph(shuffled)), ["A1", "A2"], ["Y"])
        assert a == b


class TestOutputSensitiveEnumeration:
    @pytest.mark.parametrize("h, a, y", list(oracle_queries()))
    def test_audit_and_counts_match_exhaustive_oracle(self, h, a, y):
        # and the stack loop the enumeration ran on before the branch walk
        m, graphs, audit = exhaustive_id_graphs(h, a, y)
        stacked = stacked_id_graphs(h, a, y)
        result = M.id_graphs(h, a, y)
        assert result.m == m == stacked.m
        keys = [g.key() for g in result.graphs]
        assert keys == [g.key() for g in graphs] == [g.key() for g in stacked.graphs]
        trail = [(r.edge, r.path, r.violating) for r in result.audit]
        assert trail == audit == [(r.edge, r.path, r.violating) for r in stacked.audit]
        assert result.audit == stacked.audit  # records compare on their graph

    def test_paths_are_enumerated_in_full_only_on_demand(self, monkeypatch):
        # every function that walks all paths, wherever a module holds it
        walks = []
        for module in (graphs, identify, idgraphs):
            for name in ("proper_possibly_causal_paths", "_count_violating"):
                full = getattr(module, name, None)
                if full is None:
                    continue

                def counted(*args, _full=full):
                    walks.append(_full.__name__)
                    return _full(*args)

                monkeypatch.setattr(module, name, counted)
        h = complete_graph(8)
        result = M.id_graphs(h, ["v0"], ["v1"])
        assert walks == []  # 64 branches, each on a shortest-path search
        assert (result.n, len(result.audit)) == (65, 64)
        assert result.m == 1957  # the root record counts on first read
        assert walks == ["_count_violating"]
        assert result.m == 1957
        assert result.audit[0].violating == 1957
        assert walks == ["_count_violating"]
        branch = result.audit[1]  # below v0 -> v1: every root path but v0 -- v1
        assert branch.violating == 1956
        assert walks == ["_count_violating"] * 2
        assert branch.violating == 1956
        assert walks == ["_count_violating"] * 2
        # an identified input: the first-edge search shows m = 0
        assert M.id_graphs(result.graphs[0], ["v0"], ["v1"]).m == 0
        assert walks == ["_count_violating"] * 2

    def test_output_bound_is_checked_when_m_is_read(self, four_mpdag):
        result = M.id_graphs(four_mpdag, ["A"], ["Y"])  # m = 2
        forged = M.EnumerationResult(graphs=result.graphs * 2, audit=result.audit)
        with pytest.raises(M.InternalInconsistencyError) as exc:
            forged.m
        assert str(exc.value) == "enumeration produced 6 graphs with m=2"
        identified = M.EnumerationResult(graphs=result.graphs[:2], audit=())
        with pytest.raises(M.InternalInconsistencyError) as exc:
            identified.m
        assert str(exc.value) == "enumeration produced 2 graphs with m=0"

    def test_branch_depth_is_not_bounded_by_the_recursion_limit(self):
        # A -- v_i -> Y for pairwise nonadjacent legs v_i: every branch
        # orients one leg, and below A -> v_i the next leg is still open, so
        # the branches nest as deep as there are legs
        legs = [f"v{i:02d}" for i in range(60)]
        h = M.meek_closure(M.PartiallyDirectedGraph(
            ["A", "Y", *legs], [(v, "Y") for v in legs], [("A", v) for v in legs]
        ))
        m, graphs, audit = exhaustive_id_graphs(h, ["A"], ["Y"])
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 40)
        try:
            result = M.id_graphs(h, ["A"], ["Y"])
        finally:
            sys.setrecursionlimit(limit)
        assert [(r.edge, r.path) for r in result.audit] == [
            (edge, path) for edge, path, _ in audit
        ]
        assert [g.key() for g in result.graphs] == [g.key() for g in graphs]
        assert (result.m, result.n) == (m, 61)


class TestCompleteGraphContracts:
    # K12 with A = v0 and Y = v1: 2^10 + 1 output graphs, and 9,864,101
    # violating paths at the root; the contracts count calls and states, so
    # they do not depend on the machine

    K = 12

    def test_a_leaf_runs_no_path_search(self, monkeypatch):
        rule_calls, searches = [], []
        walk, search = idgraphs._branch_walk, identify._causal_states

        def counted_walk(root, rule):
            def counted_rule(builder):
                rule_calls.append(builder)
                return rule(builder)

            return walk(root, counted_rule)

        def counted_search(*args):
            searches.append(args)
            return search(*args)

        monkeypatch.setattr(idgraphs, "_branch_walk", counted_walk)
        monkeypatch.setattr(identify, "_causal_states", counted_search)
        result = M.id_graphs(complete_graph(self.K), ["v0"], ["v1"])
        assert result.n == 2 ** (self.K - 2) + 1
        # one rule call per tree node, and a path search at the branches only
        assert len(rule_calls) == 2 * result.n - 1
        assert len(searches) == len(result.audit) == result.n - 1

    def test_counts_visit_states_not_paths(self, monkeypatch):
        result = M.id_graphs(complete_graph(self.K), ["v0"], ["v1"])
        visits = []
        search = identify._causal_states

        def counted_search(*args):
            states = 0
            for state in search(*args):
                states += 1
                yield state
            visits.append(states)

        monkeypatch.setattr(identify, "_causal_states", counted_search)
        assert result.m == 9_864_101
        assert sum(record.violating for record in result.audit) == 87_800_950
        # one count per record, m being the root record's
        assert len(visits) == len(result.audit) == 2 ** (self.K - 2)
        assert max(visits) <= self.K * 2 ** (self.K - 2)


class TestStateSearch:
    def test_states_after_the_first_hit_link_back_to_none(self):
        # only the first hit's prefix is read back, so the states made after
        # it hold no link, and a search that runs on (a count) does not keep
        # every state it made alive; on P_12^2 (each node joined to the next
        # two) from v00 to v11 the first hit has seven nodes
        names = [f"v{i:02d}" for i in range(12)]
        g = M.PartiallyDirectedGraph(
            names, (), [(u, w) for i, u in enumerate(names) for w in names[i + 1:i + 3]]
        )
        masks = g._masks
        states = list(graphs._causal_states(masks, 1, 1 << 11, masks.undirected))
        first = next(k for k, state in enumerate(states) if state[0] == 11)
        assert states[first][1].bit_count() == 7
        assert all(state[4] is not None for state in states[:first + 1])
        assert all(state[4] is None for state in states[first + 1:])
        assert len(states) > 4 * (first + 1)


class TestLeafOrder:
    def test_leaves_are_sorted_without_mpdag_key(self, monkeypatch):
        # the leaves share the nodes and the skeleton, so their directed
        # edges alone give the canonical order, and they are distinct, so
        # none needs filing by its key
        queries = [(complete_graph(8), ["v0"], ["v1"])]
        for seed in range(8):
            h, a, y = random_chordal_query(np.random.default_rng([seed, 0x1D]))
            queries.append((h, [a], [y]))

        def refuse(self):
            raise AssertionError("Mpdag.key was called")

        monkeypatch.setattr(M.Mpdag, "key", refuse)
        results = [M.id_graphs(h, a, y) for h, a, y in queries]
        monkeypatch.undo()
        assert results[0].n == 65
        assert sum(result.n > 2 for result in results) >= 4
        for (h, a, y), result in zip(queries, results):
            assert list(result.graphs) == sorted(result.graphs, key=M.Mpdag.key)
            assert result.graphs == stacked_id_graphs(h, a, y).graphs


class TestBaselineEnumerations:
    def test_treatment_orientations_four_node(self, four_mpdag):
        graphs = M.method2_graphs(four_mpdag, ["A"], ["Y"])
        assert [lines(g) for g in graphs] == list(FOUR_NODE_TREATMENT_ORIENTATIONS)

    def test_restricted_edges_match_here(self, four_mpdag):
        # every treatment neighbour lies on a proper possibly causal path, so
        # methods 2 and 3 coincide on this input
        assert M.method3_graphs(four_mpdag, ["A"], ["Y"]) == M.method2_graphs(
            four_mpdag, ["A"], ["Y"]
        )

    def test_complete_four_counts(self, complete4):
        assert len(M.method2_graphs(complete4, ["A1", "A2"], ["Y"])) == 18
        assert len(M.method3_graphs(complete4, ["A1", "A2"], ["Y"])) == 14

    def test_method3_matches_direct_combination_oracle(self, complete4):
        # oracle: all orientation assignments of the restricted edge set that
        # extend to a represented DAG, counted through the DAG class itself
        g = complete4.graph
        edges = [("A1", "V1"), ("A1", "Y"), ("A2", "V1"), ("A2", "Y")]
        combos = set()
        for dag in M.enumerate_dags(complete4):
            combos.add(
                tuple((u, v) if (u, v) in dag.directed else (v, u) for u, v in edges)
            )
        assert len(M.method3_graphs(complete4, ["A1", "A2"], ["Y"])) == len(combos)

    def test_method3_far_end_reached_over_another_treatments_first_edge(self):
        # x5 is the second node of a proper possibly causal path only as
        # x6 -> x5 -- x4: from x2, the step x5 -- x4 is barred by x4 -> x2.
        # Still x5 lies on that path, so method 3 orients x2 -- x5
        text = (
            "x2 -> x1\nx3 -> x1\nx3 -> x2\nx3 -> x4\nx3 -> x5\nx3 -> x7\n"
            "x4 -> x1\nx4 -> x2\nx5 -> x1\nx6 -> x1\nx6 -> x2\nx6 -> x4\n"
            "x6 -> x5\nx6 -> x7\nx7 -> x1\nx7 -> x2\nx7 -> x4\nx7 -> x5\n"
            "x2 -- x5\nx4 -- x5\n"
        )
        h = M.meek_closure(M.parse_graph(text))
        a, y = ["x2", "x6"], ["x4"]
        assert M.is_identified(h, a, y)
        graphs = M.method3_graphs(h, a, y)
        assert len(graphs) == 2
        assert {g.graph.mark("x2", "x5") for g in graphs} == {"->", "<-"}
        assert M.method2_graphs(h, a, y) == graphs

    def test_no_undirected_treatment_edges_returns_input(self, four_dag):
        h = M.Mpdag(four_dag)
        assert M.method2_graphs(h, ["A"], ["Y"]) == [h]
        assert M.method3_graphs(h, ["A"], ["Y"]) == [h]

    def test_baselines_are_identified_partitions(self, complete4):
        whole = {lines(d) for d in M.enumerate_dags(complete4)}
        for graphs in (
            M.method2_graphs(complete4, ["A1", "A2"], ["Y"]),
            M.method3_graphs(complete4, ["A1", "A2"], ["Y"]),
        ):
            seen: set = set()
            for member in graphs:
                assert M.is_identified(member, ["A1", "A2"], ["Y"])
                member_dags = {lines(d) for d in M.enumerate_dags(member)}
                assert not (member_dags & seen)
                seen |= member_dags
            assert seen == whole


class TestVerifyPartition:
    def test_four_node_partition_passes(self, four_mpdag):
        result = M.id_graphs(four_mpdag, ["A"], ["Y"])
        report = M.verify_partition(result, four_mpdag, ["A"], ["Y"])
        assert report.ok
        assert sum(report.dag_counts) == 7
        assert sorted(report.dag_counts) == [1, 3, 3]

    def test_trivial_singleton_passes(self, four_dag):
        h = M.Mpdag(four_dag)
        result = M.id_graphs(h, ["A"], ["Y"])
        assert M.verify_partition(result, h, ["A"], ["Y"]).ok

    def test_dropped_member_is_detected(self, four_mpdag):
        result = M.id_graphs(four_mpdag, ["A"], ["Y"])
        broken = M.EnumerationResult(graphs=result.graphs[:-1], audit=result.audit)
        report = M.verify_partition(broken, four_mpdag, ["A"], ["Y"])
        assert not report.ok
        assert any("missing" in v for v in report.violations)

    def test_duplicated_member_is_detected(self, four_mpdag):
        result = M.id_graphs(four_mpdag, ["A"], ["Y"])
        graphs = result.graphs + result.graphs[:1]
        broken = M.EnumerationResult(graphs=graphs, audit=result.audit)
        report = M.verify_partition(broken, four_mpdag, ["A"], ["Y"])
        assert not report.ok
        assert any("overlap" in v for v in report.violations)

    def test_formulas_pairwise_distinct(self, complete4):
        result = M.id_graphs(complete4, ["A1", "A2"], ["Y"])
        formulas = [
            M.g_formula(member, ["A1", "A2"], ["Y"]) for member in result.graphs
        ]
        for left, right in itertools.combinations(formulas, 2):
            assert left != right
