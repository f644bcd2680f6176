"""The exhaustive census (``census.py``) on four nodes, one test per pass;
CI runs every pass on five nodes as steps of their own."""

from census import check_decisions, check_paths, run_census, run_closures


def test_four_node_census_matches_the_walks():
    census = run_census(4, check_paths)
    assert (census.graphs, census.queries, census.identified) == (725, 30_450, 16_920)
    assert census.shown == []
    assert census.mismatches == 0


def test_four_node_census_of_the_decisions():
    census = run_census(4, check_decisions)
    assert (census.graphs, census.queries, census.identified) == (725, 30_450, 16_920)
    assert census.enumerations == 8_700
    assert census.shown == []
    assert census.mismatches == 0


def test_four_node_census_of_the_closures():
    census = run_closures(4)
    assert (census.graphs, census.nonempty) == (3_608, 3_317)
    assert census.shown == []
    assert census.mismatches == 0
