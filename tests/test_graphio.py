import json
import re

import numpy as np
import pytest

import mpdag as M
from mpdag.graphio import load_scm_file
from helpers import FIXTURES, load_fixture, random_dag, sim_scm


def test_parse_directed_and_undirected():
    g = M.parse_graph("A -> B\nB -- C\n")
    assert g.directed == {("A", "B")}
    assert g.undirected == {("B", "C")}


def test_comments_blanks_and_isolated_nodes():
    g = M.parse_graph("# header\n\nA -> B  # trailing\nlonely\n")
    assert g.nodes == ("A", "B", "lonely")


def test_duplicate_pair_reports_line_number():
    with pytest.raises(M.GraphParseError) as err:
        M.parse_graph("A -> B\nB -- A\n")
    assert err.value.line_no == 2
    assert "line 2" in str(err.value)


def test_malformed_line_reports_line_number():
    with pytest.raises(M.GraphParseError) as err:
        M.parse_graph("A -> B\nA => B\n")
    assert err.value.line_no == 2


def test_self_loop_rejected():
    with pytest.raises(M.GraphParseError):
        M.parse_graph("A -> A\n")


def test_canonical_render_order(four_mpdag):
    text = M.render_edge_list(four_mpdag.graph)
    assert text.splitlines() == [
        "A -> Y",
        "A -- V1",
        "A -- V2",
        "V1 -- V2",
        "V1 -- Y",
    ]


def test_round_trip_is_exact_on_random_graphs():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        p = int(rng.integers(1, 7))
        dag = random_dag(rng, p, 0.5)
        # demote a random subset of edges to undirected
        directed, undirected = [], []
        for e in sorted(dag.directed):
            (undirected if rng.random() < 0.5 else directed).append(e)
        g = M.PartiallyDirectedGraph(dag.nodes, directed, undirected)
        assert M.parse_graph(M.render_edge_list(g)) == g


def test_render_is_input_order_independent():
    a = M.parse_graph("A -> B\nC -- B\n")
    b = M.parse_graph("B -- C\nA -> B\n")
    assert a == b
    assert M.render_edge_list(a) == M.render_edge_list(b)


def test_dot_uses_both_edge_ops(four_mpdag):
    dot = M.render_dot(four_mpdag.graph)
    assert '"A" -> "Y";' in dot
    assert '"A" -> "V1" [dir=none];' in dot
    assert " -- " not in dot  # an edge operator of undirected graphs only
    assert dot.startswith("digraph")


# a statement of render_dot: a node, or an edge with an optional attribute
# list, each ID a DOT double-quoted string (only an escaped character may
# follow a backslash, so no ID ends early)
DOT_ID = r'"((?:[^"\\]|\\.)*)"'
DOT_STATEMENT = re.compile(rf"  {DOT_ID}(?: -> {DOT_ID}( \[dir=none\])?)?;")


def test_dot_ids_are_valid_for_quotes_and_backslashes():
    g = M.parse_graph('a"b -> c\\\nc\\ -- "\nlone\\"\\\n')
    assert g.nodes == ('"', 'a"b', "c\\", "lone\\\"\\")
    dot = M.render_dot(g).splitlines()
    assert dot[0] == "digraph g {" and dot[-1] == "}"
    assert dot[1:-1] == [
        '  "lone\\\\\\"\\\\";',
        '  "a\\"b" -> "c\\\\";',
        '  "\\"" -> "c\\\\" [dir=none];',
    ]
    named = []
    for line in dot[1:-1]:
        match = DOT_STATEMENT.fullmatch(line)
        assert match, line
        ids = [i for i in match.groups()[:2] if i is not None]
        named += [re.sub(r"\\(.)", r"\1", i) for i in ids]
    assert sorted(set(named)) == list(g.nodes)


def test_edge_list_rejects_names_it_cannot_hold():
    g = M.PartiallyDirectedGraph(["c#d", "a b", "e"], [("a b", "c#d")], [("c#d", "e")])
    with pytest.raises(M.GraphError, match=re.escape("node 'a b'")):
        M.render_edge_list(g)
    with pytest.raises(M.GraphError, match=re.escape("node 'c#d'")):
        M.render_edge_list(M.PartiallyDirectedGraph(["c#d", "e"], [], [("c#d", "e")]))
    with pytest.raises(M.GraphError, match=re.escape("node ''")):
        M.render_edge_list(M.PartiallyDirectedGraph(["", "e"]))


def test_orientation_file_rules():
    assert M.parse_orientations("A -> B\n# c\nB -> C\n") == [("A", "B"), ("B", "C")]
    with pytest.raises(M.GraphParseError):
        M.parse_orientations("A -- B\n")
    with pytest.raises(M.GraphParseError):
        M.parse_orientations("A -> B\nA -> B\n")


def test_fixture_files_parse(four_dag):
    assert len(four_dag.directed) == 5
    assert load_fixture("complete4.txt").undirected == frozenset(
        {("A1", "A2"), ("A1", "V1"), ("A1", "Y"), ("A2", "V1"), ("A2", "Y"), ("V1", "Y")}
    )


def test_graph_json_shape(four_mpdag):
    payload = M.graph_to_json(four_mpdag.graph)
    assert payload["directed"] == [["A", "Y"]]
    assert ["V1", "Y"] in payload["undirected"]


def test_scm_file_reads_the_fixture():
    assert load_scm_file(FIXTURES / "sim_scm.json") == sim_scm()


def test_scm_file_defaults_noise_and_keeps_declared_nodes(tmp_path):
    path = tmp_path / "scm.json"
    path.write_text(json.dumps(
        {"edges": {"A->Y": 2}, "noise": {"Y": 0.5}, "nodes": ["Z"]}
    ))
    scm = load_scm_file(path)
    assert scm.nodes == ("A", "Y", "Z")
    assert scm.coefficients == {("A", "Y"): 2.0}
    assert scm.noise_variances == {"A": 1.0, "Y": 0.5, "Z": 1.0}


# each would otherwise lose data silently; the error names the offending key
@pytest.mark.parametrize("data, key", [
    ({"edges": {"A -> Y": 1.0, "A->Y": 3.0}}, "A->Y"),
    ({"edges": {"A -> Y": 1.0}, "noise": {"Yy": 2.0}}, "Yy"),
    ({"edges": {"A -> B -> Y": 1.0}}, "A -> B -> Y"),
    ({"edges": {"A -> Y": 1.0}, "noies": {"Y": 2.0}}, "noies"),
    ({"edges": {"A -> Y": "abc"}}, "A -> Y"),
    ({"edges": {"A -> Y": float("nan")}}, "A -> Y"),
    ({"edges": {"A -> Y": 1.0}, "noise": {"Y": float("inf")}}, "Y"),
    ({"edges": {"a#b -> Y": 1.0}}, "a#b -> Y"),
])
def test_scm_file_rejects_what_it_would_lose(tmp_path, data, key):
    path = tmp_path / "scm.json"
    path.write_text(json.dumps(data))
    with pytest.raises(M.GraphError, match=re.escape(repr(key))):
        load_scm_file(path)
