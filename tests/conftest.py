from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

import mpdag as M
from helpers import fixture_mpdag, load_fixture

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
# the same settings with random example generation, for runs that pass
# --hypothesis-profile=ci-random with a --hypothesis-seed
settings.register_profile("ci-random", settings.get_profile("ci"), derandomize=False)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def four_dag() -> M.PartiallyDirectedGraph:
    return load_fixture("four_node_dag.txt")


@pytest.fixture(scope="session")
def four_cpdag() -> M.Mpdag:
    return fixture_mpdag("four_node_cpdag.txt")


@pytest.fixture(scope="session")
def four_mpdag() -> M.Mpdag:
    return fixture_mpdag("four_node_mpdag.txt")


@pytest.fixture(scope="session")
def complete4() -> M.Mpdag:
    return fixture_mpdag("complete4.txt")


@pytest.fixture(scope="session")
def sim_cpdag() -> M.Mpdag:
    return fixture_mpdag("sim_cpdag.txt")


@pytest.fixture(scope="session")
def minimal_three(four_mpdag) -> tuple[M.Mpdag, ...]:
    return M.id_graphs(four_mpdag, ["A"], ["Y"]).graphs
