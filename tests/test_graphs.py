import hashlib
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mpdag as M
from helpers import (
    PathKind,
    classify_path,
    lines,
    proper_paths,
    random_chordal_query,
    unshielded_subsequence,
)


def chain(*edges):
    nodes = {n for e in edges for n in e}
    return M.PartiallyDirectedGraph(nodes, edges, ())


class TestValidation:
    def test_acyclic_chain_is_ok(self):
        verdict = M.validate_pdag("ABC", [("A", "B"), ("B", "C")])
        assert verdict.ok

    def test_two_cycle_reported_as_directed_cycle(self):
        verdict = M.validate_pdag("AB", [("A", "B"), ("B", "A")])
        assert not verdict.ok
        assert verdict.violation == "directed cycle"
        assert verdict.witness == ("A", "B", "A")

    def test_mixed_marks_on_one_pair_is_duplicate_adjacency(self):
        verdict = M.validate_pdag("AB", [("A", "B")], [("A", "B")])
        assert not verdict.ok
        assert verdict.violation == "duplicate adjacency"

    def test_longer_cycle_witness(self):
        verdict = M.validate_pdag("ABC", [("A", "B"), ("B", "C"), ("C", "A")])
        assert verdict.violation == "directed cycle"
        w = verdict.witness
        assert w[0] == w[-1] and len(w) == 4

    def test_constructor_rejects_invalid_input(self):
        with pytest.raises(M.GraphError):
            M.PartiallyDirectedGraph("AB", [("A", "B")], [("A", "B")])
        with pytest.raises(M.GraphError):
            M.PartiallyDirectedGraph("AB", [("A", "A")])
        with pytest.raises(M.GraphError):
            M.PartiallyDirectedGraph("AB", [("A", "C")])

    def test_node_names_are_strings_like_edge_endpoints(self):
        g = M.PartiallyDirectedGraph([1, 2, 3], [(1, 2)], [(2, 3)])
        assert g == M.PartiallyDirectedGraph(["1", "2", "3"], [("1", "2")], [("2", "3")])
        assert g.nodes == ("1", "2", "3")

    def test_long_directed_chain_is_accepted(self):
        names = [f"n{i:04d}" for i in range(5000)]
        g = M.PartiallyDirectedGraph(names, zip(names, names[1:]), ())
        assert len(g.directed) == 4999

    def test_long_directed_cycle_is_reported(self):
        names = [f"n{i:04d}" for i in range(5000)]
        verdict = M.validate_pdag(names, list(zip(names, names[1:])) + [(names[-1], names[0])])
        assert verdict.violation == "directed cycle"
        assert verdict.witness == (*names, names[0])


# inputs with several violations of one kind, each passed to the
# constructor, which stores its edges in sets
SEVERAL_VIOLATIONS = """
import mpdag as M
inputs = [
    (["A"], [("A", "X"), ("A", "Z"), ("A", "Q"), ("A", "W")], []),
    ("abcd", [], [("c", "x"), ("a", "y"), ("b", "z")]),
    ("abc", [("c", "c"), ("b", "b"), ("a", "a")], []),
    ("abcd", [("d", "c"), ("b", "a")], [("c", "d"), ("a", "b")]),
]
for nodes, directed, undirected in inputs:
    try:
        M.PartiallyDirectedGraph(nodes, directed, undirected)
    except M.GraphError as exc:
        print(exc)
"""


class TestConstructorErrors:
    EXPECTED = (
        "unknown node: ('Q',)\n"
        "unknown node: ('y',)\n"
        "self loop: ('a',)\n"
        "duplicate adjacency: ('a', 'b')\n"
    )

    def test_witness_does_not_depend_on_hash_seed(self):
        src = str(Path(M.__file__).resolve().parent.parent)
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        outputs = {
            subprocess.run(
                [sys.executable, "-c", SEVERAL_VIOLATIONS],
                env={**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": path},
                capture_output=True, text=True, check=True, timeout=60,
            ).stdout
            for seed in range(4)
        }
        assert outputs == {self.EXPECTED}


def undirected_chain(n):
    names = [f"n{i:04d}" for i in range(n)]
    return names, M.PartiallyDirectedGraph(names, (), zip(names, names[1:]))


class TestInducedSubgraph:
    def test_drop_treatment_node(self, four_mpdag):
        sub = four_mpdag.graph.induced_subgraph({"Y", "V1", "V2"})
        assert lines(sub) == ("V1 -- V2", "V1 -- Y")

    def test_full_node_set_is_identity(self, four_mpdag):
        g = four_mpdag.graph
        assert g.induced_subgraph(g.nodes) == g

    def test_empty_is_empty(self, four_mpdag):
        sub = four_mpdag.graph.induced_subgraph(())
        assert sub.nodes == () and not sub.directed and not sub.undirected

    def test_unknown_node_rejected(self, four_mpdag):
        with pytest.raises(M.GraphError):
            four_mpdag.graph.induced_subgraph({"A", "nope"})


def third_minimal():
    # A -> Y with V1 a parent of both and V2 still undetermined
    return M.PartiallyDirectedGraph(
        ["A", "V1", "V2", "Y"],
        [("A", "Y"), ("V1", "A"), ("V1", "Y")],
        [("A", "V2"), ("V2", "V1")],
    )


class TestClassifyPath:
    def test_backward_edge_between_nonconsecutive_nodes(self):
        g = third_minimal()
        verdict = classify_path(g, ["A", "V2", "V1", "Y"])
        # the pair (A, V1) carries V1 -> A, so the path cannot be causal
        assert verdict.kind is PathKind.NON_CAUSAL

    def test_directed_chain_is_causal_definite(self):
        g = chain(("A", "B"), ("B", "C"))
        verdict = classify_path(g, ["A", "B", "C"])
        assert verdict.kind is PathKind.CAUSAL
        assert verdict.definite_status

    def test_undirected_start_is_possibly_causal(self, four_mpdag):
        verdict = classify_path(four_mpdag.graph, ["A", "V1", "Y"])
        assert verdict.kind is PathKind.POSSIBLY_CAUSAL

    def test_shielded_undirected_interior_is_not_definite(self, four_mpdag):
        verdict = classify_path(four_mpdag.graph, ["A", "V1", "Y"])
        assert not verdict.definite_status

    def test_non_path_rejected(self, four_mpdag):
        with pytest.raises(M.NotAPathError):
            classify_path(four_mpdag.graph, ["V2", "Y"])
        with pytest.raises(M.NotAPathError):
            classify_path(four_mpdag.graph, ["A", "V1", "A"])


class TestProperPossiblyCausalPaths:
    def test_four_node_undirected_starts(self, four_mpdag):
        paths = M.proper_possibly_causal_paths(
            four_mpdag.graph, ["A"], ["Y"], start_undirected_only=True
        )
        assert [p.nodes for p in paths] == [("A", "V1", "Y"), ("A", "V2", "V1", "Y")]

    def test_single_directed_edge_has_none(self):
        g = chain(("A", "Y"))
        assert M.proper_possibly_causal_paths(g, ["A"], ["Y"], True) == []

    def test_properness_excludes_paths_through_other_treatments(self, sim_cpdag):
        paths = M.proper_possibly_causal_paths(
            sim_cpdag.graph, ["A1", "A2"], ["Y"], start_undirected_only=True
        )
        assert {p.nodes for p in paths} == {("A1", "Y"), ("A2", "Y")}

    def test_overlapping_sets_rejected(self, four_mpdag):
        with pytest.raises(M.GraphError):
            M.proper_possibly_causal_paths(four_mpdag.graph, ["A"], ["A", "Y"])

    def test_ordering_is_length_then_lexicographic(self, complete4):
        paths = M.proper_possibly_causal_paths(complete4.graph, ["A1", "A2"], ["Y"])
        sizes = [len(p.nodes) for p in paths]
        assert sizes == sorted(sizes)
        assert [p.nodes for p in paths[:2]] == [("A1", "Y"), ("A2", "Y")]

    # sha256 of the listings below, each path's nodes and marks in order,
    # recorded before the listing built its paths off one mark table
    DENSE_LISTING_SHA256 = (
        "b03f48d4736e9f444983d8540e8108726ced6d4c9f756e115cf11ae0b05e567c"
    )

    def test_listing_digest_on_dense_graphs(self):
        # K7 and five chordal graphs drawn as the dense benchmark draws them:
        # the violating and the proper possibly causal paths of each, and
        # the proper possibly causal paths of each id_graphs member, whose
        # directed edges give the listing marks other than "--"
        names = [f"v{i}" for i in range(7)]
        k7 = M.meek_closure(
            M.PartiallyDirectedGraph(names, (), itertools.combinations(names, 2))
        )
        queries = [(k7, "v0", "v1")]
        queries += [random_chordal_query(np.random.default_rng(s)) for s in range(5)]
        digest = hashlib.sha256()
        for h, a, y in queries:
            listings = [
                M.violating_paths(h, [a], [y]),
                M.proper_possibly_causal_paths(h.graph, [a], [y]),
            ]
            assert listings[0]  # every query is unidentified
            for member in M.id_graphs(h, [a], [y]).graphs:
                listings.append(M.proper_possibly_causal_paths(member.graph, [a], [y]))
            for paths in listings:
                digest.update("".join(f"{p}\n" for p in paths).encode())
                digest.update(b"\n")
        assert digest.hexdigest() == self.DENSE_LISTING_SHA256

    @pytest.mark.parametrize("seed", range(12))
    def test_listing_matches_the_depth_first_oracle(self, seed):
        # chordal queries and two members of their minimal enumeration, whose
        # directed edges make the two first-step modes differ; with a second
        # outcome z inside a path to y, a path through z is listed once at z
        # and once at y, each at its length
        h, a, y = random_chordal_query(np.random.default_rng([seed, 0x11]), p=8 + seed % 3)
        members = M.id_graphs(h, [a], [y]).graphs
        through = M.proper_possibly_causal_paths(h.graph, [a], [y])
        inner = [n for p in through for n in p.nodes[1:-1]]
        outcome_sets = [[y], [y, inner[0]]] if inner else [[y]]
        interior_hits = 0
        for g in (h.graph, members[0].graph, members[-1].graph):
            masks = g._masks
            for outcomes in outcome_sets:
                starts, targets = masks.bits([a]), masks.bits(outcomes)
                for undirected_only in (False, True):
                    first = masks.undirected if undirected_only else masks.neighbours
                    walked = [
                        tuple(g.nodes[i] for i in seq)
                        for seq in proper_paths(
                            starts, targets, first,
                            lambda u, v: masks.neighbours[v], masks.children,
                        )
                    ]
                    listed = M.proper_possibly_causal_paths(g, [a], outcomes, undirected_only)
                    assert [p.nodes for p in listed] == sorted(walked, key=len)
                    assert listed == [M.path_in(g, p.nodes) for p in listed]
                    interior_hits += sum(
                        1 for p in listed if set(p.nodes[1:-1]) & set(outcomes)
                    )
        assert interior_hits or not inner


class TestAncestralSets:
    def test_outcome_ancestors(self):
        sets = M.ancestral_sets(third_minimal(), {"Y"})
        assert sets.ancestors == {"Y", "V1", "A"}

    def test_isolated_node_reflexive(self):
        g = M.PartiallyDirectedGraph(["X", "Z"], [], [])
        sets = M.ancestral_sets(g, {"X"})
        assert sets.ancestors == {"X"}
        assert sets.parents == frozenset()
        assert sets.descendants == {"X"}

    def test_undirected_chain_possible_descendants(self):
        g = M.PartiallyDirectedGraph("ABC", [], [("A", "B"), ("B", "C")])
        sets = M.ancestral_sets(g, {"A"})
        assert sets.possible_descendants == {"A", "B", "C"}

    def test_parents_use_set_convention(self):
        g = chain(("A", "B"), ("C", "B"), ("B", "D"))
        sets = M.ancestral_sets(g, {"B", "D"})
        assert sets.parents == {"A", "C"}  # B itself is excluded

    def test_possible_descendants_respect_pairwise_rule(self):
        # x -- m -- w plus w -> x: the only route to w has a backward pair
        g = M.PartiallyDirectedGraph(
            "xmw", [("w", "x")], [("x", "m"), ("m", "w")]
        )
        assert M.possible_descendants(g, "x") == {"x", "m"}


    def test_long_undirected_chain_possible_descendants(self):
        names, g = undirected_chain(5000)
        assert M.possible_descendants(g, names[0]) == set(names)
        assert M.possible_descendants(g, names[2500]) == set(names)

    def test_complete_graph_reachability(self):
        # K40 has far too many paths to list; the reachability queries do not
        # walk paths, and the complete graph with one edge dropped is still an
        # MPDAG in which v00 and v01 are d-separated by the other nodes
        names = [f"v{i:02d}" for i in range(40)]
        edges = list(itertools.combinations(names, 2))
        g = M.PartiallyDirectedGraph(names, (), edges)
        assert M.possible_descendants(g, "v00") == set(names)
        assert M.possible_ancestors(g, ["v01"]) == set(names)
        assert not M.d_separated(g, ["v00"], ["v01"], names[2:])
        g = M.PartiallyDirectedGraph(names, (), edges[1:])
        assert M.possible_descendants(g, "v00") == set(names)
        assert M.possible_ancestors(g, ["v00", "v01"]) == set(names)
        assert not M.d_separated(g, ["v00"], ["v01"], names[3:])
        assert M.d_separated(g, ["v00"], ["v01"], names[2:])


# each reachability query on nodes x1, x2, x3 of a graph that has none of them
UNKNOWN_NODE_QUERIES = """
import mpdag as M
g = M.PartiallyDirectedGraph(["a", "b"], [("a", "b")], ())
queries = [
    lambda: M.possible_ancestors(g, ["x3", "x1", "x2"]),
    lambda: M.ancestors(g, ["x3", "x1", "x2"]),
    lambda: M.descendants(g, ["x3", "x1", "x2"]),
    lambda: M.d_separated(g, ["x3", "x1"], ["x2"]),
    lambda: M.possible_descendants(g, "x1"),
    lambda: g.induced_subgraph(["a", "x3", "x1", "x2"]),
    lambda: M.ancestral_sets(g, ["x3", "x1", "x2"]),
    lambda: M.bucket_decomposition(g, ["x3", "x1", "x2"]),
    lambda: M.g_formula(M.Mpdag(g), ["x3", "x1"], ["x2"]),
    lambda: M.is_adjustment_set(M.Mpdag(g), ["a"], ["b"], ["x3", "x1", "x2"]),
    lambda: M.parents_of_set(g, ["x3", "x1", "x2"]),
    lambda: M.d_separated(g, ["x1"], ["x1"]),
    lambda: M.d_separated(g, ["a", "x1"], ["a"]),
]
for query in queries:
    try:
        query()
    except M.GraphError as exc:
        print(exc)
"""


class TestUnknownNodes:
    def test_reachability_queries_name_the_smallest_unknown_node(self, capsys):
        exec(UNKNOWN_NODE_QUERIES, {})
        assert capsys.readouterr().out == "unknown node: ['x1']\n" * 13

    def test_ancestors_and_descendants_raise_graph_error(self):
        g = chain(("a", "b"))
        for query in (M.ancestors, M.descendants):
            with pytest.raises(M.GraphError) as exc:
                query(g, ["a", "zz"])
            assert str(exc.value) == "unknown node: ['zz']"

    def test_parents_of_set_raises_graph_error(self):
        g = chain(("a", "b"))
        with pytest.raises(M.GraphError) as exc:
            M.parents_of_set(g, ["zz"])
        assert str(exc.value) == "unknown node: ['zz']"

    def test_message_does_not_depend_on_hash_seed(self):
        src = str(Path(M.__file__).resolve().parent.parent)
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        outputs = {
            subprocess.run(
                [sys.executable, "-c", UNKNOWN_NODE_QUERIES],
                env={**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": path},
                capture_output=True, text=True, check=True, timeout=60,
            ).stdout
            for seed in range(1, 7)
        }
        assert outputs == {"unknown node: ['x1']\n" * 13}

    def test_adjacency_queries(self):
        g = chain(("a", "b"))
        assert g.adjacent("a", "zz") is False
        assert g.mark("a", "zz") is None
        for query in (g.parents, g.children, g.undirected_neighbours, g.neighbours):
            with pytest.raises(KeyError):
                query("zz")
        for query in (g.adjacent, g.mark):
            for second in ("a", "zz"):
                with pytest.raises(KeyError):
                    query("zz", second)


class TestBuckets:
    def test_directed_edge_splits_buckets(self):
        buckets = M.bucket_decomposition(third_minimal(), {"V1", "Y"})
        assert buckets == (frozenset({"V1"}), frozenset({"Y"}))

    def test_undirected_triangle_is_one_bucket(self):
        g = M.PartiallyDirectedGraph(
            "ABC", [], [("A", "B"), ("B", "C"), ("A", "C")]
        )
        assert M.bucket_decomposition(g, "ABC") == (frozenset("ABC"),)

    def test_empty_set(self, four_mpdag):
        assert M.bucket_decomposition(four_mpdag.graph, ()) == ()

    def test_connectivity_only_within_the_set(self):
        # A -- B -- C but B excluded: A and C end up in separate buckets
        g = M.PartiallyDirectedGraph("ABC", [], [("A", "B"), ("B", "C")])
        assert M.bucket_decomposition(g, {"A", "C"}) == (
            frozenset({"A"}),
            frozenset({"C"}),
        )


class TestDSeparation:
    def test_collider_blocks_marginally(self):
        g = chain(("A", "C"), ("B", "C"))
        assert M.d_separated(g, ["A"], ["B"], [])

    def test_conditioning_on_collider_opens(self):
        g = chain(("A", "C"), ("B", "C"))
        assert not M.d_separated(g, ["A"], ["B"], ["C"])

    def test_collider_descendant_opens(self):
        g = chain(("A", "C"), ("B", "C"), ("C", "D"))
        assert not M.d_separated(g, ["A"], ["B"], ["D"])

    def test_single_edge_cannot_be_blocked(self):
        g = third_minimal()
        assert not M.d_separated(g, ["A"], ["V2"], ["V1"])
        assert not M.d_separated(g, ["A"], ["V2"], [])

    def test_chain_blocked_by_middle(self):
        g = chain(("A", "B"), ("B", "C"))
        assert M.d_separated(g, ["A"], ["C"], ["B"])
        assert not M.d_separated(g, ["A"], ["C"], [])

    def test_no_turning_back_at_a_collider(self):
        # A -- B <- C is not of definite status; turning back at the
        # conditioned collider D (B -> D <- B) would reach C from A
        g = M.PartiallyDirectedGraph("ABCD", [("C", "B"), ("B", "D")], [("A", "B")])
        assert M.d_separated(g, ["A"], ["C"], ["D"])

    def test_overlap_rejected(self):
        g = chain(("A", "B"), ("B", "C"))
        with pytest.raises(M.GraphError):
            M.d_separated(g, ["A"], ["C"], ["A"])

    def test_long_undirected_chain(self):
        names, g = undirected_chain(5000)
        assert not M.d_separated(g, [names[0]], [names[-1]])
        assert M.d_separated(g, [names[0]], [names[-1]], [names[2500]])


class TestUnshieldedSubsequence:
    def test_shortcut_through_adjacent_endpoints(self, four_mpdag):
        path = M.path_in(four_mpdag.graph, ["A", "V2", "V1", "Y"])
        shrunk = unshielded_subsequence(four_mpdag.graph, path)
        assert shrunk.nodes == ("A", "Y")

    def test_unshielded_path_is_fixed_point(self):
        g = M.PartiallyDirectedGraph("ABC", [], [("A", "B"), ("B", "C")])
        path = M.path_in(g, ["A", "B", "C"])
        assert unshielded_subsequence(g, path).nodes == ("A", "B", "C")

    def test_non_causal_input_rejected(self):
        g = third_minimal()
        path = M.path_in(g, ["A", "V2", "V1", "Y"])
        with pytest.raises(M.GraphError):
            unshielded_subsequence(g, path)
