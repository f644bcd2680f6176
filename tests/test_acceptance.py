"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (run with
``pytest tests/test_acceptance.py -v -s`` to see them) and then asserts.
Tolerances are fixed here, not calibrated elsewhere.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

import mpdag as M
from helpers import (
    COMPLETE4_MINIMAL,
    FOUR_NODE_DAGS,
    FOUR_NODE_MINIMAL,
    FOUR_NODE_TREATMENT_ORIENTATIONS,
    SIM_JOINT_EFFECTS,
    SIM_POINT_EFFECTS,
    adjustment_functional,
    lines,
    random_dag,
    random_scm,
    sim_scm,
    wright_covariance,
)

SAMPLE_SEED = 0  # shipped seed for the finite-sample criterion

SMALL_CORPUS_SIZE = 200
SMALL_CORPUS_MAX_P = 7
LARGE_CORPUS_SIZE = 500
LARGE_CORPUS_P = 10

TIE_TOL = 1e-6
TIE_REDRAWS = 3
ORACLE_TOL = 1e-9
CROSS_CHECK_TOL = 1e-8
WRIGHT_TOL = 1e-10


def report(number: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")


@dataclass
class CorpusEntry:
    instance: M.RandomInstance
    scm: M.LinearScm
    cov: M.ExactCovariance
    result: M.EnumerationResult
    per_dag: dict[tuple, np.ndarray]
    distinct: int
    tie_redraws: int


def _build_entry(instance: M.RandomInstance) -> CorpusEntry:
    result = M.id_graphs(instance.cpdag, instance.treatments, [instance.outcome])
    dags = M.enumerate_dags(instance.cpdag)
    scm = instance.scm
    redraws = 0
    while True:
        cov = M.covariance(scm)
        per_dag = {
            d.edge_lines(): M.regression_effect_for_dag(
                cov, d, instance.treatments, instance.outcome
            )
            for d in dags
        }
        distinct = M.count_distinct(list(per_dag.values()), TIE_TOL)
        if distinct == result.n or redraws >= TIE_REDRAWS:
            break
        redraws += 1
        scm = M.redraw_coefficients(scm, instance.seed * 7919 + redraws)
    return CorpusEntry(instance, scm, cov, result, per_dag, distinct, redraws)


_small_corpus_cache: list[CorpusEntry] = []


def small_corpus() -> list[CorpusEntry]:
    if _small_corpus_cache:
        return _small_corpus_cache
    seed = 0
    rng = np.random.default_rng(20240810)
    while len(_small_corpus_cache) < SMALL_CORPUS_SIZE:
        p = int(rng.integers(3, SMALL_CORPUS_MAX_P + 1))
        deg = float(rng.choice([1.5, 2.0, 2.5, 3.0]))
        try:
            instance = M.random_instance(p, deg, seed=seed)
        except M.RejectionBudgetError:
            seed += 1
            continue
        seed += 1
        _small_corpus_cache.append(_build_entry(instance))
    return _small_corpus_cache


def test_criterion_1_point_example_golden(four_mpdag):
    start = time.monotonic()
    result = M.id_graphs(four_mpdag, ["A"], ["Y"])
    minimal = [lines(g) for g in result.graphs]
    two = [lines(g) for g in M.method2_graphs(four_mpdag, ["A"], ["Y"])]
    three = [lines(g) for g in M.method3_graphs(four_mpdag, ["A"], ["Y"])]
    dags = [lines(d) for d in M.enumerate_dags(four_mpdag)]
    elapsed = time.monotonic() - start
    ok = (
        minimal == list(FOUR_NODE_MINIMAL)
        and two == list(FOUR_NODE_TREATMENT_ORIENTATIONS)
        and three == list(FOUR_NODE_TREATMENT_ORIENTATIONS)
        and dags == list(FOUR_NODE_DAGS)
        and elapsed < 1.0
    )
    report(1, ok, f"point example 3/4/4/7 graphs in {elapsed:.3f}s")
    assert minimal == list(FOUR_NODE_MINIMAL)
    assert two == list(FOUR_NODE_TREATMENT_ORIENTATIONS)
    assert three == list(FOUR_NODE_TREATMENT_ORIENTATIONS)
    assert dags == list(FOUR_NODE_DAGS)
    assert elapsed < 1.0


def test_criterion_2_joint_example_golden(complete4):
    start = time.monotonic()
    result = M.id_graphs(complete4, ["A1", "A2"], ["Y"])
    minimal = [lines(g) for g in result.graphs]
    n2 = len(M.method2_graphs(complete4, ["A1", "A2"], ["Y"]))
    n3 = len(M.method3_graphs(complete4, ["A1", "A2"], ["Y"]))
    elapsed = time.monotonic() - start
    ok = minimal == list(COMPLETE4_MINIMAL) and n3 == 12 and n2 == 18 and elapsed < 5.0
    report(
        2,
        ok,
        f"joint example minimal={result.n} restricted={n3} treatment-local={n2}"
        f" in {elapsed:.3f}s",
    )
    assert minimal == list(COMPLETE4_MINIMAL)
    assert result.n == 9
    assert n2 == 18
    assert elapsed < 5.0
    # Known red: of the sixteen orientation assignments of the four
    # restricted edges, fourteen extend to represented DAGs and each yields a
    # distinct graph, so enumerating all valid combinations cannot return
    # twelve (see the restricted-combination oracle in the unit suite).
    assert n3 == 12


def test_criterion_3_population_effect_sets(sim_cpdag):
    scm = sim_scm()
    cov = M.covariance(scm)
    point = M.possible_effects(cov, sim_cpdag, ["A1"], "Y")
    joint = M.possible_effects(cov, sim_cpdag, ["A1", "A2"], "Y")
    point_ok = all(
        abs(e.values[0] - SIM_POINT_EFFECTS[e.source][0]) <= ORACLE_TOL
        for e in point.estimates
    ) and {v[0] for v in SIM_POINT_EFFECTS.values()} == {3.0, 2.0, 1.8, 0.0}
    joint_ok = all(
        max(
            abs(a - b) for a, b in zip(e.values, SIM_JOINT_EFFECTS[e.source])
        )
        <= ORACLE_TOL
        for e in joint.estimates
    ) and set(SIM_JOINT_EFFECTS.values()) == {
        (2.0, 1.0),
        (3.0, 0.0),
        (0.0, 2.0),
        (0.0, 0.0),
    }
    ok = point_ok and joint_ok and len(point.estimates) == 4 and len(joint.estimates) == 4
    report(3, ok, "population effect sets {3, 2, 1.8, 0} and"
                  " {(2,1), (3,0), (0,2), (0,0)} within 1e-9")
    assert point_ok and joint_ok
    assert len(point.estimates) == 4 and len(joint.estimates) == 4


def test_criterion_4_finite_sample_effects(sim_cpdag):
    start = time.monotonic()
    scm = sim_scm()
    data = M.sample(scm, 100, seed=SAMPLE_SEED)
    point = M.possible_effects(data, sim_cpdag, ["A1"], "Y")
    joint = M.possible_effects(data, sim_cpdag, ["A1", "A2"], "Y")
    point_devs = [
        abs(e.values[0] - SIM_POINT_EFFECTS[e.source][0]) for e in point.estimates
    ]
    joint_devs = [
        max(abs(a - b) for a, b in zip(e.values, SIM_JOINT_EFFECTS[e.source]))
        for e in joint.estimates
    ]
    elapsed = time.monotonic() - start
    ok = max(point_devs + joint_devs) <= 0.3 and elapsed < 1.0
    report(
        4,
        ok,
        f"n=100 seed={SAMPLE_SEED} estimates within ±0.3 "
        f"(max dev {max(point_devs + joint_devs):.3f}) in {elapsed:.3f}s",
    )
    assert max(point_devs) <= 0.3
    assert max(joint_devs) <= 0.3
    assert elapsed < 1.0


def test_criterion_5_enumeration_oracle_suite():
    start = time.monotonic()
    corpus = small_corpus()
    assert len(corpus) >= 200
    partition_failures = []
    count_failures = []
    bound_failures = []
    for entry in corpus:
        instance, result = entry.instance, entry.result
        treat, outcome = instance.treatments, instance.outcome
        reportcard = M.verify_partition(result, instance.cpdag, treat, [outcome])
        if not reportcard.ok:
            partition_failures.append((instance.seed, reportcard.violations))
        if entry.distinct != result.n:
            count_failures.append((instance.seed, entry.distinct, result.n))
        n2 = len(M.method2_graphs(instance.cpdag, treat, [outcome]))
        n3 = len(M.method3_graphs(instance.cpdag, treat, [outcome]))
        n1 = len(entry.per_dag)
        if not (result.n <= 2 ** result.m and result.n <= n3 <= n2 <= n1):
            bound_failures.append((instance.seed, result.n, n3, n2, n1, result.m))
    elapsed = time.monotonic() - start
    ok = not (partition_failures or count_failures or bound_failures)
    ok = ok and elapsed < 300.0
    report(
        5,
        ok,
        f"{len(corpus)} instances: partitions valid, counts match distinct"
        f" effects, bounds hold, in {elapsed:.1f}s",
    )
    assert not partition_failures, partition_failures[:3]
    assert not count_failures, count_failures[:3]
    assert not bound_failures, bound_failures[:3]
    assert elapsed < 300.0


def test_criterion_6_identifiability_oracle():
    corpus = small_corpus()
    disagreements = []
    for entry in corpus:
        instance = entry.instance
        treat, outcome = instance.treatments, instance.outcome
        # the root is unidentified by construction: class effects must differ
        root_distinct = M.count_distinct(list(entry.per_dag.values()), ORACLE_TOL)
        if M.is_identified(instance.cpdag, treat, [outcome]).identified:
            disagreements.append((instance.seed, "root reported identified"))
        if root_distinct <= 1:
            disagreements.append((instance.seed, "class effects constant at root"))
        # every enumeration member is identified: effects constant inside it
        for member in entry.result.graphs:
            member_effects = [
                entry.per_dag[d.edge_lines()] for d in M.enumerate_dags(member)
            ]
            if not M.is_identified(member, treat, [outcome]).identified:
                disagreements.append((instance.seed, "member not identified"))
            if M.count_distinct(member_effects, ORACLE_TOL) != 1:
                disagreements.append((instance.seed, "member effects differ"))
    ok = not disagreements
    report(6, ok, f"identifiability matches class-constant effects on"
                  f" {len(corpus)} instances")
    assert not disagreements, disagreements[:3]


def test_criterion_7_numerical_cross_checks():
    rng = np.random.default_rng(777)
    worst_wright = 0.0
    for _ in range(100):
        dag = random_dag(rng, int(rng.integers(2, 7)), 0.5)
        std = M.standardized(random_scm(rng, dag))
        delta = float(
            np.max(np.abs(wright_covariance(std).matrix - M.covariance(std).matrix))
        )
        worst_wright = max(worst_wright, delta)
    wright_ok = worst_wright < WRIGHT_TOL

    corpus = small_corpus()
    adjust_checked = 0
    worst_adjust = 0.0
    extension_checked = 0
    worst_extension = 0.0
    for entry in corpus:
        instance = entry.instance
        treat, outcome = list(entry.instance.treatments), entry.instance.outcome
        for member in entry.result.graphs:
            if adjust_checked < 80:
                try:
                    found = M.find_adjustment_set(member, treat, [outcome])
                except M.GraphError:
                    found = None
                if found is not None:
                    beta = adjustment_functional(
                        entry.cov, treat, outcome, sorted(found)
                    )
                    est = M.estimate_effect(entry.cov, member, treat, outcome)
                    worst_adjust = max(
                        worst_adjust,
                        float(np.max(np.abs(beta - est.as_array()))),
                    )
                    adjust_checked += 1
            if extension_checked < 60:
                dags = M.enumerate_dags(member)
                if len(dags) >= 2:
                    first = M.estimate_effect(
                        entry.cov, member, treat, outcome, extension=dags[0]
                    ).as_array()
                    last = M.estimate_effect(
                        entry.cov, member, treat, outcome, extension=dags[-1]
                    ).as_array()
                    worst_extension = max(
                        worst_extension, float(np.max(np.abs(first - last)))
                    )
                    extension_checked += 1
    adjust_ok = adjust_checked >= 40 and worst_adjust <= CROSS_CHECK_TOL
    extension_ok = extension_checked >= 30 and worst_extension <= ORACLE_TOL
    ok = wright_ok and adjust_ok and extension_ok
    report(
        7,
        ok,
        f"path-tracing {worst_wright:.2e}, adjustment vs factorisation"
        f" {worst_adjust:.2e} over {adjust_checked}, extension invariance"
        f" {worst_extension:.2e} over {extension_checked}",
    )
    assert wright_ok
    assert adjust_ok, (adjust_checked, worst_adjust)
    assert extension_ok, (extension_checked, worst_extension)


def test_criterion_8_larger_study():
    start = time.monotonic()
    produced = 0
    seed = 10_000
    mismatch_not_tie = []
    mismatches = 0
    overcount2 = overcount3 = 0
    rng = np.random.default_rng(8)
    while produced < LARGE_CORPUS_SIZE:
        deg = float(rng.choice([2.0, 3.0]))
        try:
            instance = M.random_instance(LARGE_CORPUS_P, deg, seed=seed)
        except M.RejectionBudgetError:
            seed += 1
            continue
        seed += 1
        dags = M.enumerate_dags(instance.cpdag)
        if len(dags) > 5000:
            continue  # resource guard; logged implicitly by the seed gap
        entry = _build_entry(instance)
        produced += 1
        if entry.distinct != entry.result.n:
            mismatches += 1
            if entry.tie_redraws < TIE_REDRAWS:
                mismatch_not_tie.append(instance.seed)
        treat, outcome = instance.treatments, instance.outcome
        a_edges = [
            e
            for e in instance.cpdag.graph.undirected
            if e[0] in treat or e[1] in treat
        ]
        if len(a_edges) <= 14:
            n2 = len(M.method2_graphs(instance.cpdag, treat, [outcome]))
            n3 = len(M.method3_graphs(instance.cpdag, treat, [outcome]))
            if n2 > entry.result.n:
                overcount2 += 1
            if n3 > entry.result.n:
                overcount3 += 1
    elapsed = time.monotonic() - start
    match_rate = 1.0 - mismatches / produced
    ok = (
        match_rate >= 0.99
        and not mismatch_not_tie
        and overcount2 > 0
        and overcount3 > 0
        and elapsed < 900.0
    )
    report(
        8,
        ok,
        f"{produced} instances at p={LARGE_CORPUS_P}: match rate"
        f" {match_rate:.3f}, over-counts {overcount2}/{overcount3},"
        f" in {elapsed:.0f}s",
    )
    assert match_rate >= 0.99, mismatches
    assert not mismatch_not_tie, mismatch_not_tie
    assert overcount2 > 0 and overcount3 > 0
    assert elapsed < 900.0
