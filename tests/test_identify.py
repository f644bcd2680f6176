import itertools
import sys

import pytest

import mpdag as M
from helpers import fixture_mpdag, lines, refuse_path_walks


@pytest.fixture(scope="module")
def parent_of_both():
    # A -> Y identified: V1 is a parent of both, V2 undetermined
    return M.meek_closure(
        M.parse_graph(
            "A -> Y\nV1 -> A\nV1 -> Y\nA -- V2\nV1 -- V2\n"
        )
    )


@pytest.fixture(scope="module")
def all_out_of_a():
    # every edge at A points away; V1 -- V2 and V1 -- Y stay undirected
    return M.meek_closure(
        M.parse_graph("A -> V1\nA -> V2\nA -> Y\nV1 -- V2\nV1 -- Y\n")
    )


@pytest.fixture(scope="module")
def two_node():
    return M.meek_closure(M.parse_graph("A -> Y\n"))


class TestIsIdentified:
    def test_undirected_start_blocks_identification(self, four_mpdag):
        verdict = M.is_identified(four_mpdag, ["A"], ["Y"])
        assert not verdict
        assert verdict.witness.nodes == ("A", "V1", "Y")  # shortest witness

    def test_oriented_refinement_is_identified(self, parent_of_both):
        assert M.is_identified(parent_of_both, ["A"], ["Y"])

    def test_any_dag_is_identified(self, four_dag):
        assert M.is_identified(M.Mpdag(four_dag), ["A"], ["Y"])

    def test_violating_path_count(self, four_mpdag, sim_cpdag):
        assert len(M.violating_paths(four_mpdag, ["A"], ["Y"])) == 2
        assert len(M.violating_paths(sim_cpdag, ["A1"], ["Y"])) == 3
        assert len(M.violating_paths(sim_cpdag, ["A1", "A2"], ["Y"])) == 2

    def test_long_undirected_chain(self):
        names = [f"n{i:04d}" for i in range(5000)]
        h = M.Mpdag(M.PartiallyDirectedGraph(names, (), zip(names, names[1:])))
        verdict = M.is_identified(h, [names[0]], [names[-1]])
        assert not verdict
        assert verdict.witness.nodes == tuple(names)
        assert M.is_identified(h, [names[1]], [names[0]]).witness.nodes == (
            names[1],
            names[0],
        )


class TestGFormula:
    def test_two_bucket_formula(self, parent_of_both):
        formula = M.g_formula(parent_of_both, ["A"], ["Y"])
        assert formula.buckets == (
            (("V1",), ()),
            (("Y",), ("A", "V1")),
        )
        assert formula.marginalize == ("V1",)
        assert str(formula) == "∫ f(V1) f(Y | A,V1) d(V1)"

    def test_empty_marginal_single_bucket(self, all_out_of_a):
        formula = M.g_formula(all_out_of_a, ["A"], ["Y"])
        assert formula.buckets == ((("Y",), ("A",)),)
        assert formula.marginalize == ()
        assert str(formula) == "f(Y | A)"

    def test_two_node_formula(self, two_node):
        assert str(M.g_formula(two_node, ["A"], ["Y"])) == "f(Y | A)"

    def test_requires_identified_effect(self, four_mpdag):
        with pytest.raises(M.NotIdentifiedError):
            M.g_formula(four_mpdag, ["A"], ["Y"])

    def test_undirected_connection_merges_buckets(self):
        h = M.meek_closure(M.parse_graph("A -> Y1\nA -> Y2\nY1 -- Y2\n"))
        formula = M.g_formula(h, ["A"], ["Y1", "Y2"])
        assert formula.buckets == ((("Y1", "Y2"), ("A",)),)
        assert str(formula) == "f(Y1,Y2 | A)"

    def test_structural_equality(self, parent_of_both):
        again = M.g_formula(parent_of_both, ["A"], ["Y"])
        assert again == M.g_formula(parent_of_both, ["A"], ["Y"])

    def test_json_shape(self, parent_of_both):
        payload = M.g_formula(parent_of_both, ["A"], ["Y"]).to_json()
        assert payload == {
            "A": ["A"],
            "Y": ["Y"],
            "buckets": [
                {"nodes": ["V1"], "parents": []},
                {"nodes": ["Y"], "parents": ["A", "V1"]},
            ],
            "marginalize": ["V1"],
        }


class TestForbiddenSet:
    def test_all_outcome_side_nodes_forbidden(self, all_out_of_a):
        assert M.forbidden_set(all_out_of_a, ["A"], ["Y"]) == {"V1", "V2", "Y"}

    def test_two_node(self, two_node):
        assert M.forbidden_set(two_node, ["A"], ["Y"]) == {"Y"}

    def test_no_path_means_empty(self):
        h = M.meek_closure(M.parse_graph("Y -> A\n"))
        assert M.forbidden_set(h, ["A"], ["Y"]) == frozenset()

    def test_long_undirected_chain(self):
        # directed, n0000 -> n0001 -> ... -> n1199: with Y next to A or at
        # the far end, every non-treatment node is a descendant of the one
        # second node n0001, reached along a path of up to 1,198 edges
        names = [f"n{i:04d}" for i in range(1200)]
        h = M.Mpdag(M.PartiallyDirectedGraph(names, zip(names, names[1:])))
        assert M.forbidden_set(h, [names[0]], [names[1]]) == set(names[1:])
        assert M.forbidden_set(h, [names[0]], [names[-1]]) == set(names[1:])
        # undirected, each query is unidentified, and the refusal carries the
        # violating path: the one edge, or the whole chain
        h = M.Mpdag(M.PartiallyDirectedGraph(names, (), zip(names, names[1:])))
        for y, witness in ((names[1], names[:2]), (names[-1], names)):
            with pytest.raises(M.NotIdentifiedError) as exc:
                M.forbidden_set(h, [names[0]], [y])
            assert exc.value.witness.nodes == tuple(witness)
            assert exc.value.witness.marks == ("--",) * (len(witness) - 1)

    def test_unidentified_effect_is_refused_with_the_identification_witness(self):
        # the forbidden set is an input to the adjustment criterion, which is
        # stated for identified effects only; this one is not, as the
        # violating path n7 -- n4 -> n3 shows
        text = (
            "n0 -> n3\nn1 -> n5\nn2 -> n0\nn2 -> n3\nn2 -> n4\nn2 -> n5\n"
            "n2 -> n7\nn4 -> n1\nn4 -> n3\nn4 -> n5\nn5 -> n3\nn6 -> n0\n"
            "n6 -> n1\nn6 -> n5\nn7 -> n0\nn7 -> n1\nn7 -> n3\nn8 -> n3\n"
            "n2 -- n6\nn2 -- n8\nn4 -- n6\nn4 -- n7\nn6 -- n8\n"
        )
        h = M.meek_closure(M.parse_graph(text))
        assert len(M.enumerate_dags(h)) == 8
        a, y = ["n7"], ["n3", "n5"]
        with pytest.raises(M.NotIdentifiedError) as exc:
            M.forbidden_set(h, a, y)
        assert str(exc.value.witness) == "n7 -- n4 -> n3"
        assert exc.value.witness == M.is_identified(h, a, y).witness

    def test_direct_from_definition(self, parent_of_both):
        g = parent_of_both.graph
        on_paths = set()
        for p in M.proper_possibly_causal_paths(g, ["A"], ["Y"]):
            on_paths.update(p.nodes)
        on_paths -= {"A"}
        expect = set()
        for w in on_paths:
            expect |= M.possible_descendants(g, w)
        assert M.forbidden_set(parent_of_both, ["A"], ["Y"]) == expect == {"Y"}


class TestAdjustment:
    def test_parent_blocker_is_valid(self, parent_of_both):
        assert M.is_adjustment_set(parent_of_both, ["A"], ["Y"], ["V1"])

    def test_source_treatment_needs_nothing(self, all_out_of_a):
        assert M.is_adjustment_set(all_out_of_a, ["A"], ["Y"], [])

    def test_open_noncausal_path_needs_the_blocker(self, parent_of_both):
        # V2 alone leaves the definite-status path through V1 open
        verdict = M.is_adjustment_set(parent_of_both, ["A"], ["Y"], ["V2"])
        assert not verdict.valid
        assert verdict.reason == "open_path"
        assert verdict.witness_path.nodes == ("A", "V1", "Y")

    def test_forbidden_hit(self, all_out_of_a):
        verdict = M.is_adjustment_set(all_out_of_a, ["A"], ["Y"], ["V2"])
        assert not verdict.valid
        assert verdict.reason == "forbidden"
        assert verdict.witness_node == "V2"

    def test_open_path_witness(self):
        # confounder C left unadjusted keeps a non-causal path open
        h = M.Mpdag(M.parse_graph("C -> A\nC -> Y\nA -> Y\n"))
        verdict = M.is_adjustment_set(h, ["A"], ["Y"], [])
        assert not verdict.valid
        assert verdict.reason == "open_path"
        assert verdict.witness_path.nodes == ("A", "C", "Y")
        assert M.is_adjustment_set(h, ["A"], ["Y"], ["C"])

    def test_gate_on_identifiability(self, four_mpdag):
        with pytest.raises(M.NotIdentifiedError):
            M.is_adjustment_set(four_mpdag, ["A"], ["Y"], ["V1"])

    def test_overlap_is_precondition_error(self, parent_of_both):
        with pytest.raises(M.GraphError):
            M.is_adjustment_set(parent_of_both, ["A"], ["Y"], ["A"])


class TestFindAdjustmentSet:
    def test_canonical_candidate(self, parent_of_both):
        found = M.find_adjustment_set(parent_of_both, ["A"], ["Y"])
        # possible ancestors of {A, Y} minus forbidden minus the sets
        assert found == {"V1", "V2"}
        assert M.is_adjustment_set(parent_of_both, ["A"], ["Y"], found)
        # the smaller blocker is also valid; the canonical candidate is
        # deliberately the ancestral one
        assert M.is_adjustment_set(parent_of_both, ["A"], ["Y"], ["V1"])

    def test_two_node_empty_set(self, two_node):
        assert M.find_adjustment_set(two_node, ["A"], ["Y"]) == frozenset()

    def test_joint_intervention_without_any_set(self, sim_cpdag):
        joint = M.id_graphs(sim_cpdag, ["A1", "A2"], ["Y"])
        witness = joint.graphs[0]
        assert lines(witness) == (
            "A1 -> A2",
            "A1 -> V",
            "A1 -> Y",
            "A2 -> V",
            "Y -> A2",
        )
        assert M.find_adjustment_set(witness, ["A1", "A2"], ["Y"]) is None

    def test_singleton_pairs_always_find_one(self, minimal_three):
        for member in minimal_three:
            found = M.find_adjustment_set(member, ["A"], ["Y"])
            assert found is not None
            assert M.is_adjustment_set(member, ["A"], ["Y"], found)

    def test_outcome_causing_treatment_has_no_set(self):
        # x1 is a definite cause of x2: the effect of x2 on x1 is identified
        # (it is zero) but the single-edge path x2 <- x1 can never be
        # blocked, so no adjustment set exists even for a singleton pair
        h = M.meek_closure(M.parse_graph("x1 -> x2\nx1 -- x3\nx2 -- x3\n"))
        assert M.is_identified(h, ["x2"], ["x1"])
        assert M.find_adjustment_set(h, ["x2"], ["x1"]) is None

    def test_no_set_on_a_graph_of_more_than_twenty_nodes(self):
        # the same query with 20 isolated nodes added: only the canonical set
        # is tried, so the answer does not depend on the size of the graph
        text = "x1 -> x2\nx1 -- x3\nx2 -- x3\n"
        text += "".join(f"iso{i:02d}\n" for i in range(20))
        h = M.meek_closure(M.parse_graph(text))
        assert len(h.nodes) == 23
        assert M.find_adjustment_set(h, ["x2"], ["x1"]) is None


# every query on a treatment set and an outcome set, by name
SET_QUERIES = {
    "is_identified": M.is_identified,
    "violating_paths": M.violating_paths,
    "forbidden_set": M.forbidden_set,
    "g_formula": M.g_formula,
    "is_adjustment_set": lambda h, a, y: M.is_adjustment_set(h, a, y, []),
    "find_adjustment_set": M.find_adjustment_set,
    "select_branch_edge": M.select_branch_edge,
    "id_graphs": M.id_graphs,
    "method2_graphs": M.method2_graphs,
    "method3_graphs": M.method3_graphs,
}

UNKNOWN = "unknown node: ['zz']"
OVERLAP = "treatments and outcomes overlap: ['A']"
EMPTY = "treatment and outcome sets must be nonempty"


@pytest.mark.parametrize("query", SET_QUERIES)
@pytest.mark.parametrize("a, y, message", [
    pytest.param(["A"], ["zz"], UNKNOWN, id="unknown-outcome"),
    pytest.param(["zz"], ["Y"], UNKNOWN, id="unknown-treatment"),
    pytest.param(["A"], ["A", "Y"], OVERLAP, id="overlap"),
    pytest.param([], ["Y"], EMPTY, id="no-treatment"),
    pytest.param(["A"], [], EMPTY, id="no-outcome"),
    # two faults: the unknown node is named first
    pytest.param(["A", "zz"], ["A"], UNKNOWN, id="unknown-and-overlap"),
    pytest.param([], ["zz"], UNKNOWN, id="unknown-and-empty"),
])
def test_every_query_checks_treatments_and_outcomes_alike(
    four_mpdag, query, a, y, message
):
    with pytest.raises(M.GraphError) as exc:
        SET_QUERIES[query](four_mpdag, a, y)
    assert str(exc.value) == message


def count_checked_sets(monkeypatch) -> list:
    """Wrap ``graphs._checked_sets`` in every package module that holds it;
    the returned list gets one entry per call."""
    calls = []
    checked = M.graphs._checked_sets

    def counted(*args):
        calls.append(args)
        return checked(*args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "mpdag" and hasattr(module, "_checked_sets"):
            monkeypatch.setattr(module, "_checked_sets", counted)
    return calls


# queries that take an identified effect, and the two method entry points
CHECKED_ONCE = {
    "find_adjustment_set": M.find_adjustment_set,
    "is_adjustment_set": lambda h, a, y: M.is_adjustment_set(h, a, y, ["V1"]),
    "g_formula": M.g_formula,
    "forbidden_set": M.forbidden_set,
    "method3_graphs": M.method3_graphs,
    "id_graphs": M.id_graphs,
}


@pytest.mark.parametrize("query", CHECKED_ONCE)
def test_every_query_checks_its_sets_once(monkeypatch, query):
    h = fixture_mpdag("four_node_dag.txt")
    calls = count_checked_sets(monkeypatch)
    CHECKED_ONCE[query](h, ["A"], ["Y"])
    assert len(calls) == 1


def test_id_graphs_checks_its_sets_once_for_all_branches(monkeypatch):
    names = [f"v{i}" for i in range(8)]
    k8 = M.meek_closure(
        M.PartiallyDirectedGraph(names, (), itertools.combinations(names, 2))
    )
    calls = count_checked_sets(monkeypatch)
    result = M.id_graphs(k8, ["v0"], ["v1"])
    assert (len(result.audit), result.n) == (64, 65)
    assert result.audit[1].violating == 1956  # a branch count, read on demand
    assert len(calls) == 1


def unreachable_outcome() -> M.Mpdag:
    """a -- v00 with v00 in an undirected K30, and an isolated outcome y:
    every path from a is possibly causal, and none reaches y."""
    clique = [f"v{i:02d}" for i in range(30)]
    edges = [("a", "v00"), *itertools.combinations(clique, 2)]
    return M.meek_closure(M.PartiallyDirectedGraph(["a", "y", *clique], (), edges))


def complete_dag() -> M.Mpdag:
    """The complete DAG on 40 nodes, every edge pointing to the later name."""
    names = [f"v{i:02d}" for i in range(40)]
    return M.Mpdag(M.PartiallyDirectedGraph(names, itertools.combinations(names, 2)))


class TestDecisionsWalkNoPath:
    # on either family the number of paths grows factorially with the size,
    # while each answer is one search over edge states
    def test_unreachable_outcome(self, monkeypatch):
        h = unreachable_outcome()
        clique = set(h.nodes) - {"a", "y"}
        refuse_path_walks(monkeypatch)
        assert M.is_identified(h, ["a"], ["y"])
        assert M.forbidden_set(h, ["a"], ["y"]) == frozenset()
        assert M.find_adjustment_set(h, ["a"], ["y"]) == clique
        assert M.is_adjustment_set(h, ["a"], ["y"], [])
        assert M.is_adjustment_set(h, ["a"], ["y"], clique)
        assert str(M.g_formula(h, ["a"], ["y"])) == "f(y)"

    def test_identified_root_is_returned_without_a_search(self, monkeypatch):
        # the minimal enumeration decides each tree node by the first-edge
        # search before any path search, so an identified root is the one
        # output graph, with no branch
        h = unreachable_outcome()
        refuse_path_walks(monkeypatch)
        result = M.id_graphs(h, ["a"], ["y"])
        assert result.graphs == (h,) and result.audit == () and result.m == 0
        with pytest.raises(M.GraphError, match="already identified"):
            M.select_branch_edge(h, ["a"], ["y"])

    def test_complete_dag(self, monkeypatch):
        h = complete_dag()
        a, y = [h.nodes[0]], [h.nodes[-1]]
        refuse_path_walks(monkeypatch)
        assert M.is_identified(h, a, y)
        assert M.forbidden_set(h, a, y) == set(h.nodes[1:])
        assert M.find_adjustment_set(h, a, y) == frozenset()
        assert M.is_adjustment_set(h, a, y, [])
        assert len(M.method3_graphs(h, a, y)) == 1
