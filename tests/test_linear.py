import numpy as np
import pytest

import mpdag as M
from mpdag.linear import _regression_effects
from helpers import (
    SIM_JOINT_EFFECTS,
    SIM_POINT_EFFECTS,
    lines,
    looped_count_distinct,
    per_draw_random_instance,
    per_draw_redraw_coefficients,
    refuse_path_walks,
    regression_coefficient_matrix,
    rowwise_count_distinct,
    sim_scm,
    wright_covariance,
)


@pytest.fixture(scope="module")
def scm():
    return sim_scm()


@pytest.fixture(scope="module")
def sim_cov(scm):
    return M.covariance(scm)


class TestTrueTotalEffect:
    def test_point_effect(self, scm):
        assert M.true_total_effect(scm, ["A1"], "Y").values == pytest.approx((3.0,))

    def test_joint_effect(self, scm):
        est = M.true_total_effect(scm, ["A1", "A2"], "Y")
        assert est.treatments == ("A1", "A2")
        assert est.values == pytest.approx((2.0, 1.0))

    def test_zero_coefficients_give_zero(self, scm):
        flat = M.LinearScm(
            scm.dag,
            {e: 0.0 for e in scm.coefficients},
            dict(scm.noise_variances),
        )
        assert M.true_total_effect(flat, ["A1"], "Y").values == (0.0,)

    def test_matches_path_sum_for_single_treatment(self, scm):
        # A1 -> Y directly plus A1 -> A2 -> Y
        expect = 2.0 + 1.0 * 1.0
        assert M.true_total_effect(scm, ["A1"], "Y").values[0] == pytest.approx(expect)


class TestCovariance:
    def test_two_node_edge_coefficient(self):
        dag = M.PartiallyDirectedGraph("AY", [("A", "Y")], ())
        m = M.LinearScm(dag, {("A", "Y"): 0.7}, {"A": 1.0, "Y": 1.0 - 0.49})
        cov = M.covariance(m)
        assert cov.matrix[0, 1] == pytest.approx(0.7)
        assert np.allclose(np.diag(cov.matrix), 1.0)

    def test_wright_form_agrees_with_matrix_form(self, scm):
        std = M.standardized(scm)
        assert np.max(
            np.abs(wright_covariance(std).matrix - M.covariance(std).matrix)
        ) < 1e-10

    def test_wright_requires_unit_variances(self, scm):
        with pytest.raises(M.GraphError):
            wright_covariance(scm)

    def test_confounded_chain_decomposition(self):
        # A1 <- V1 -> V2 -> Y with the shield A1 -> V2: the covariance of
        # (Y, A1) splits into c*a1 + a2 with a1, a2 the two path products
        dag = M.PartiallyDirectedGraph(
            ["A1", "V1", "V2", "Y"],
            [("V1", "A1"), ("V1", "V2"), ("V2", "Y"), ("A1", "V2")],
        )
        m = M.standardized(
            M.LinearScm(
                dag,
                {
                    ("V1", "A1"): 0.4,
                    ("V1", "V2"): 0.3,
                    ("V2", "Y"): 0.5,
                    ("A1", "V2"): 0.2,
                },
                {n: 1.0 for n in dag.nodes},
            )
        )
        c = m.coefficients[("V1", "A1")]
        a1 = m.coefficients[("V1", "V2")] * m.coefficients[("V2", "Y")]
        a2 = m.coefficients[("A1", "V2")] * m.coefficients[("V2", "Y")]
        cov = M.covariance(m).matrix
        idx = {n: i for i, n in enumerate(m.nodes)}
        a = cov[idx["Y"], idx["A1"]]
        b = cov[idx["Y"], idx["V1"]]
        assert a == pytest.approx(c * a1 + a2, abs=1e-12)
        assert b - a * c == pytest.approx(a1 * (1 - c * c), abs=1e-12)


class TestSampling:
    def test_empirical_covariance_approaches_exact(self, scm, sim_cov):
        # absolute bound on the unit-variance scale; the raw model has
        # variances up to 14 whose estimates fluctuate proportionally
        std = M.standardized(scm)
        data = M.sample(std, 500, seed=2024)
        assert np.max(np.abs(data.covariance() - M.covariance(std).matrix)) < 0.25
        raw = M.sample(scm, 500, seed=2024)
        scale = np.sqrt(np.outer(np.diag(sim_cov.matrix), np.diag(sim_cov.matrix)))
        assert np.max(np.abs(raw.covariance() - sim_cov.matrix) / scale) < 0.25

    def test_single_row_is_finite(self, scm):
        data = M.sample(scm, 1, seed=5)
        assert data.values.shape == (1, 4)
        assert np.all(np.isfinite(data.values))

    def test_same_seed_reproduces(self, scm):
        a = M.sample(scm, 50, seed=9)
        b = M.sample(scm, 50, seed=9)
        assert np.array_equal(a.values, b.values)

    def test_csv_round_trip_header(self, scm):
        data = M.sample(scm, 3, seed=1)
        text = data.to_csv()
        header, *rows = text.strip().splitlines()
        assert header == "A1,A2,V,Y"
        assert len(rows) == 3


class TestEstimateEffect:
    def test_population_point_effects(self, sim_cpdag, sim_cov):
        for member in M.id_graphs(sim_cpdag, ["A1"], ["Y"]).graphs:
            got = M.estimate_effect(sim_cov, member, ["A1"], "Y")
            assert got.values == pytest.approx(
                SIM_POINT_EFFECTS[lines(member)], abs=1e-9
            )

    def test_population_joint_effects(self, sim_cpdag, sim_cov):
        for member in M.id_graphs(sim_cpdag, ["A1", "A2"], ["Y"]).graphs:
            got = M.estimate_effect(sim_cov, member, ["A1", "A2"], "Y")
            assert got.values == pytest.approx(
                SIM_JOINT_EFFECTS[lines(member)], abs=1e-9
            )

    def test_finite_sample_close_to_population(self, sim_cpdag, scm):
        data = M.sample(scm, 100, seed=0)
        for member in M.id_graphs(sim_cpdag, ["A1"], ["Y"]).graphs:
            got = M.estimate_effect(data, member, ["A1"], "Y")
            want = SIM_POINT_EFFECTS[lines(member)]
            assert abs(got.values[0] - want[0]) <= 0.3

    def test_extension_invariance(self, sim_cpdag, sim_cov):
        member = M.id_graphs(sim_cpdag, ["A1"], ["Y"]).graphs[0]
        dags = M.enumerate_dags(member)
        assert len(dags) > 1
        values = {
            M.estimate_effect(sim_cov, member, ["A1"], "Y", extension=d).values
            for d in (dags[0], dags[-1])
        }
        first, second = sorted(values)[0], sorted(values)[-1]
        assert abs(first[0] - second[0]) < 1e-9

    def test_unidentified_input_rejected(self, sim_cpdag, sim_cov):
        with pytest.raises(M.NotIdentifiedError):
            M.estimate_effect(sim_cov, sim_cpdag, ["A1"], "Y")

    def test_rank_deficient_regression_reports_node(self):
        dag = M.PartiallyDirectedGraph("ABY", [("A", "Y"), ("B", "Y")], ())
        values = np.random.default_rng(0).normal(size=(40, 3))
        values[:, 1] = values[:, 0]  # B duplicates A exactly
        data = M.Dataset(columns=("A", "B", "Y"), values=values)
        with pytest.raises(M.GraphError, match="'Y'"):
            M.estimate_effect(data, M.Mpdag(dag), ["A"], "Y")


    def test_rank_deficient_regression_raises_on_every_call(self):
        dag = M.PartiallyDirectedGraph("ABY", [("A", "Y"), ("B", "Y")], ())
        values = np.random.default_rng(0).normal(size=(40, 3))
        values[:, 1] = values[:, 0]
        data = M.Dataset(columns=("A", "B", "Y"), values=values)
        cov = M.ExactCovariance(data.columns, data.covariance())
        for _ in range(2):
            with pytest.raises(M.GraphError, match="'Y'"):
                M.estimate_effect(cov, M.Mpdag(dag), ["A"], "Y")
            with pytest.raises(M.GraphError, match="'Y'"):
                M.regression_effect_for_dag(cov, dag, ["A"], "Y")

    def test_regression_leaves_the_covariance_unchanged(self, scm):
        cov = M.covariance(scm)
        fresh = M.ExactCovariance(cov.columns, cov.matrix.copy())
        before = repr(cov)
        M.regression_effect_for_dag(cov, scm.dag, ["A1"], "Y")
        assert repr(cov) == before
        assert cov.columns == fresh.columns
        assert np.array_equal(cov.matrix, fresh.matrix)

    @pytest.mark.parametrize("order", [(0, 1), (1, 0), (0, 0, 1), (1, 1, 0)])
    def test_rank_deficient_sweep_names_the_per_dag_node(self, order):
        # B duplicates A and Z is constant: the first DAG's regression of Y
        # on {A, B} and the second's of V on {Z} are singular; a sweep solves
        # the parent-set sizes as groups, yet must name the node that the
        # one-DAG-at-a-time loop meets first
        rng = np.random.default_rng(0)
        values = rng.normal(size=(40, 6))
        values[:, 1] = values[:, 0]
        values[:, 5] = 1.0
        data = M.Dataset(columns=tuple("ABCVYZ"), values=values)
        cov = M.ExactCovariance(data.columns, data.covariance())
        dags = [
            M.PartiallyDirectedGraph("ABCVYZ", [("A", "C"), ("A", "Y"), ("B", "Y")], ()),
            M.PartiallyDirectedGraph("ABCVYZ", [("Z", "V")], ()),
        ]
        picked = [dags[i] for i in order]
        with pytest.raises(M.GraphError) as oracle:
            for dag in picked:
                regression_coefficient_matrix(cov.matrix, cov.columns, dag)
        with pytest.raises(M.GraphError) as err:
            _regression_effects(cov, picked, ["A"], "Y")
        assert str(err.value) == str(oracle.value)
        assert repr(["Y", "V"][order[0]]) in str(err.value)

class TestPossibleEffects:
    def test_identified_graph_gives_single_estimate(self, scm, sim_cov):
        h = M.Mpdag(scm.dag)
        result = M.possible_effects(sim_cov, h, ["A1"], "Y")
        assert len(result.estimates) == 1
        assert result.estimates[0].values == pytest.approx((3.0,))

    def test_count_matches_per_dag_oracle(self):
        rng = np.random.default_rng(21)
        checked = 0
        for seed in range(60):
            try:
                inst = M.random_instance(
                    p=int(rng.integers(3, 8)), avg_degree=2.0, seed=seed
                )
            except M.RejectionBudgetError:
                continue
            cov = M.covariance(inst.scm)
            result = M.possible_effects(cov, inst.cpdag, inst.treatments, inst.outcome)
            per_dag = [
                M.regression_effect_for_dag(cov, d, inst.treatments, inst.outcome)
                for d in M.enumerate_dags(inst.cpdag)
            ]
            assert M.count_distinct(per_dag, 1e-6) == len(result.estimates)
            checked += 1
        assert checked >= 40

    def test_distinct_count_tolerance(self):
        vectors = [np.array([1.0]), np.array([1.0 + 5e-7]), np.array([2.0])]
        assert M.count_distinct(vectors, 1e-6) == 2
        assert M.count_distinct(vectors, 1e-9) == 3

    def test_distinct_count_matches_the_pairwise_loop(self):
        # chains of near-equal vectors, where greedy grouping depends on the
        # order: each vector is compared with the groups' first vectors only
        rng = np.random.default_rng(3)
        for _ in range(300):
            k, d = int(rng.integers(0, 25)), int(rng.integers(1, 4))
            base = rng.choice([-1.0, 0.0, 2.5], size=(k, d))
            vectors = base + rng.choice([0.0, 4e-7, 8e-7, 0.3], size=(k, d))
            if k and rng.random() < 0.2:
                vectors[int(rng.integers(k))] = np.nan
            for tol in (1e-9, 5e-7, 1e-6, 0.5):
                want = looped_count_distinct(list(vectors), tol)
                assert rowwise_count_distinct(vectors, tol) == want
                assert M.count_distinct(list(vectors), tol) == want
                assert M.count_distinct(vectors, tol) == want


class TestRandomInstance:
    def test_deterministic_given_seed(self):
        a = M.random_instance(10, 2.0, seed=4)
        b = M.random_instance(10, 2.0, seed=4)
        assert a.dag == b.dag and a.treatments == b.treatments
        assert a.scm.coefficients == b.scm.coefficients

    def test_effect_is_unidentified_by_construction(self):
        inst = M.random_instance(10, 2.0, seed=4)
        assert not M.is_identified(inst.cpdag, inst.treatments, [inst.outcome])

    def test_two_node_instance_is_single_undirected_edge(self):
        inst = M.random_instance(2, 2.0, seed=0)
        assert inst.cpdag.graph.undirected
        assert len(inst.treatments) == 1

    def test_batch_invariants(self):
        produced = 0
        for seed in range(100):
            try:
                inst = M.random_instance(10, 2.0, seed=seed)
            except M.RejectionBudgetError:
                continue
            produced += 1
            assert 1 <= len(inst.treatments) <= 4
            assert inst.outcome not in inst.treatments
            for coef in inst.scm.coefficients.values():
                assert 0.5 <= abs(coef) <= 1.5
            assert all(v == 1.0 for v in inst.scm.noise_variances.values())
        assert produced >= 95

    @pytest.mark.parametrize("p", range(2, 16))
    def test_matches_the_per_draw_oracle(self, p):
        # whole-array draws from the same stream give the same DAG, the same
        # coefficients in the same order, the same query and the same
        # rejections as one scalar draw at a time
        for degree in range(7):
            for n_treatments in (None, 1, 2, 3, 4):
                seed = 100 * p + 10 * degree + (n_treatments or 0)
                try:
                    want = per_draw_random_instance(p, degree, seed, n_treatments, 8)
                except M.RejectionBudgetError as exc:
                    with pytest.raises(M.RejectionBudgetError) as err:
                        M.random_instance(p, degree, seed, n_treatments, 8)
                    assert str(err.value) == str(exc)
                    continue
                got = M.random_instance(p, degree, seed, n_treatments, 8)
                assert got.dag == want.dag and got.cpdag == want.cpdag
                assert lines(got.cpdag) == lines(want.cpdag)
                assert list(got.scm.coefficients.items()) == list(
                    want.scm.coefficients.items()
                )
                assert got.scm.noise_variances == want.scm.noise_variances
                assert (got.treatments, got.outcome, got.seed) == (
                    want.treatments, want.outcome, want.seed
                )
                fresh = M.redraw_coefficients(got.scm, seed)
                oracle = per_draw_redraw_coefficients(want.scm, seed)
                assert list(fresh.coefficients.items()) == list(
                    oracle.coefficients.items()
                )

    def test_decides_each_try_without_a_path_search(self, monkeypatch):
        # a try is kept or redrawn on the first-edge verdict alone: no
        # witness path is searched for the unidentified effect it keeps
        refuse_path_walks(monkeypatch)
        kept = 0
        for seed in range(40):
            try:
                M.random_instance(12, 3.0, seed)
            except M.RejectionBudgetError:
                continue
            kept += 1
        assert kept >= 35

    @pytest.mark.parametrize("kwargs", [
        {"n_treatments": 0}, {"n_treatments": -2},
        {"avg_degree": -1.0}, {"avg_degree": float("nan")},
    ])
    def test_rejects_bad_parameters(self, kwargs):
        args = {"p": 6, "avg_degree": 2.0, "seed": 0, **kwargs}
        with pytest.raises(M.GraphError):
            M.random_instance(**args)
