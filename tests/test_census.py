"""The exhaustive census of the path layer (``census.py``) on four nodes;
CI runs it on five nodes as a step of its own."""

from census import run_census


def test_four_node_census_matches_the_walks():
    census = run_census(4)
    assert (census.graphs, census.queries) == (725, 30_450)
    assert census.shown == []
    assert census.mismatches == 0
