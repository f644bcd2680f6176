import argparse
import hashlib
import itertools
import json
import re
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import mpdag as M
import mpdag.cli
from mpdag import RejectionBudgetError
from mpdag.graphs import _checked_sets
from mpdag.cli import main
from helpers import FIXTURES, load_fixture, two_sweep_study_arrays

SCHEMAS = Path(__file__).resolve().parent.parent / "src" / "mpdag" / "schemas"


def schema(name: str) -> dict:
    return json.loads((SCHEMAS / name).read_text())


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_id_human(capsys):
    code, out, _ = run(capsys, "check-id", FIXTURES / "four_node_mpdag.txt",
                       "--treat", "A", "--out", "Y")
    assert code == 0
    assert "identified: false" in out
    assert "A -- V1 -- Y" in out


def test_check_id_json_schema(capsys):
    code, out, _ = run(capsys, "check-id", FIXTURES / "four_node_dag.txt",
                       "--treat", "A", "--out", "Y", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, schema("check-id.json"))
    assert payload == {"identified": True, "witness": None}


def test_idgraphs_default_json(capsys):
    code, out, _ = run(capsys, "idgraphs", FIXTURES / "four_node_mpdag.txt",
                       "--treat", "A", "--out", "Y", "--verify")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, schema("idgraphs.json"))
    assert payload["n"] == 3 and payload["m"] == 2
    assert payload["verification"]["ok"] is True
    assert len(payload["graphs"]) == 3
    assert payload["audit"][0]["edge"] == ["A", "V1"]


@pytest.mark.parametrize("method,count", [(1, 7), (2, 4), (3, 4), (4, 3)])
def test_idgraphs_methods(capsys, method, count):
    code, out, _ = run(capsys, "idgraphs", FIXTURES / "four_node_mpdag.txt",
                       "--treat", "A", "--out", "Y", "--method", method)
    payload = json.loads(out)
    jsonschema.validate(payload, schema("idgraphs.json"))
    assert code == 0 and payload["n"] == count


def test_cpdag_matches_fixture(capsys):
    import mpdag as M

    code, out, _ = run(capsys, "cpdag", FIXTURES / "four_node_dag.txt")
    assert code == 0
    expected = M.render_edge_list(M.load_graph(FIXTURES / "four_node_cpdag.txt"))
    assert out == expected


def test_close_is_idempotent_text(capsys):
    _, once, _ = run(capsys, "close", FIXTURES / "four_node_mpdag.txt")
    assert once.splitlines()[0] == "A -> Y"


def test_orient_success_and_failure(capsys, tmp_path):
    code, out, _ = run(capsys, "orient", FIXTURES / "four_node_cpdag.txt",
                       "--bg", FIXTURES / "bg_a_to_y.txt")
    assert code == 0
    assert "A -> Y" in out

    bad = tmp_path / "bad.txt"
    bad.write_text("Y -> A\n")
    code, out, _ = run(capsys, "orient", FIXTURES / "four_node_mpdag.txt",
                       "--bg", bad, "--format", "json")
    assert code == 0  # FAIL is a domain result
    payload = json.loads(out)
    jsonschema.validate(payload, schema("orient.json"))
    assert payload["status"] == "FAIL"
    assert payload["request"] == ["Y", "A"]


def test_orient_failure_under_dot_goes_to_stderr(capsys, tmp_path):
    # a FAIL is a reported result (exit 0) but no graph: under dot, stdout
    # stays empty and the FAIL line goes to stderr
    bad = tmp_path / "bad.txt"
    bad.write_text("Y -> A\n")
    code, out, err = run(capsys, "orient", FIXTURES / "four_node_mpdag.txt",
                         "--bg", bad, "--format", "dot")
    assert (code, out) == (0, "")
    assert err == "FAIL: cannot orient Y -> A (graph has A -> Y)\n"


@pytest.mark.parametrize("request_", [("Z", "A"), ("A", "Z")])
def test_orient_unknown_node_fails(capsys, tmp_path, request_):
    bg = tmp_path / "bg.txt"
    bg.write_text(f"{request_[0]} -> {request_[1]}\n")
    code, out, _ = run(capsys, "orient", FIXTURES / "four_node_mpdag.txt",
                       "--bg", bg, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, schema("orient.json"))
    assert payload == {"status": "FAIL", "request": list(request_),
                       "reason": "no such edge"}
    code, out, _ = run(capsys, "orient", FIXTURES / "four_node_mpdag.txt",
                       "--bg", bg)
    assert code == 0
    assert out == f"FAIL: cannot orient {request_[0]} -> {request_[1]} (no such edge)\n"


def test_enumerate_dags_json(capsys):
    code, out, _ = run(capsys, "enumerate-dags", FIXTURES / "four_node_mpdag.txt",
                       "--format", "json")
    payload = json.loads(out)
    assert code == 0 and payload["count"] == 7
    for dag in payload["dags"]:
        jsonschema.validate(dag, schema("graph.json"))


def test_gformula_json(capsys):
    code, out, _ = run(capsys, "gformula", FIXTURES / "four_node_dag.txt",
                       "--treat", "A", "--out", "Y", "--json")
    payload = json.loads(out)
    jsonschema.validate(payload, schema("gformula.json"))
    assert code == 0 and payload["A"] == ["A"]


def test_adjust_find_and_check(capsys):
    code, out, _ = run(capsys, "adjust", FIXTURES / "four_node_dag.txt",
                       "--treat", "A", "--out", "Y", "--find", "--format", "json")
    payload = json.loads(out)
    jsonschema.validate(payload, schema("adjust.json"))
    assert code == 0 and payload["found"] is not None

    code, out, _ = run(capsys, "adjust", FIXTURES / "four_node_dag.txt",
                       "--treat", "A", "--out", "Y", "--set", "V1",
                       "--format", "json")
    payload = json.loads(out)
    jsonschema.validate(payload, schema("adjust.json"))
    assert code == 0


def test_adjust_find_reports_no_set_on_a_large_graph(capsys, tmp_path):
    # 23 nodes, and no adjustment set exists for x2 on x1
    graph = tmp_path / "x.txt"
    graph.write_text("x1 -> x2\nx1 -- x3\nx2 -- x3\n"
                     + "".join(f"iso{i:02d}\n" for i in range(20)))
    code, out, _ = run(capsys, "adjust", graph, "--treat", "x2", "--out", "x1",
                       "--find")
    assert code == 0
    assert out == "adjustment set: None\n"


def test_effects_exact_population(capsys):
    code, out, _ = run(capsys, "effects", "--scm", FIXTURES / "sim_scm.json",
                       "--treat", "A1", "--out", "Y", "--cov", "exact")
    assert code == 0
    assert "3.0" in out and "1.8" in out and "2.0" in out and "0.0" in out
    assert "distinct: 4" in out


def test_effects_json_schema(capsys):
    code, out, _ = run(capsys, "effects", "--scm", FIXTURES / "sim_scm.json",
                       "--treat", "A1,A2", "--out", "Y", "--cov", "exact",
                       "--format", "json")
    payload = json.loads(out)
    jsonschema.validate(payload, schema("effects.json"))
    assert code == 0 and payload["n"] == 4 and payload["distinct"] == 4


def test_effects_sampled_needs_seed(capsys):
    code, _, err = run(capsys, "effects", "--scm", FIXTURES / "sim_scm.json",
                       "--treat", "A1", "--out", "Y", "--n", "50")
    assert code == 1
    assert "seed" in err


# the exact covariance draws no sample, so a sample size or seed is an error
@pytest.mark.parametrize("extra", [("--n", "5"), ("--seed", "3")])
def test_effects_exact_takes_no_sample_options(capsys, extra):
    code, out, err = run(capsys, "effects", "--scm", FIXTURES / "sim_scm.json",
                         "--treat", "A1", "--out", "Y", "--cov", "exact", *extra)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert extra[0] in err


@pytest.mark.parametrize("out", ["Y,A2", ""])
def test_effects_takes_exactly_one_outcome(capsys, out):
    code, stdout, err = run(capsys, "effects", "--scm", FIXTURES / "sim_scm.json",
                            "--treat", "A1", "--out", out, "--cov", "exact")
    assert code == 1 and stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_simulate_writes_jsonl(capsys, tmp_path):
    out_file = tmp_path / "results.jsonl"
    code, out, _ = run(capsys, "simulate", "--p", "5", "--deg", "2", "--n", "100",
                       "--reps", "4", "--seed", "11", "--out", out_file)
    assert code == 0
    rows = [json.loads(line) for line in out_file.read_text().splitlines()]
    assert len(rows) == 4
    for row in rows:
        jsonschema.validate(row, schema("simulate-record.json"))
        if "skipped" in row:
            continue
        assert row["counts"]["4"] <= row["counts"]["1"]
        assert row["distinct_estimates"]["4"] <= row["counts"]["4"]
    assert [row["seed"] for row in rows] == [11, 12, 13, 14]


# sha256 of the JSONL of `simulate --p 10 --deg 3 --n 200 --reps 40 --seed 5`,
# recorded before the regressions were memoised; it pins the whole study
SIMULATE_GOLDEN_SHA256 = (
    "76dcb3a8a644cf0141007abe551530ed01d72342ce3bb4e755e9b44df5a5ac7b"
)


# sha256 of the JSONL of `simulate --p 12 --deg 3 --n 500 --reps 200 --seed 1`,
# the study size of the benchmark's simulate workload
SIMULATE_P12_GOLDEN_SHA256 = (
    "3159c443a98244df2e00ba502d4b1b47248c91b148fa2cb70a810dda88419ece"
)


# sha256 of the JSONL of `simulate --p 14 --deg 4 --n 300 --reps 150 --seed 77
# --a-size 2`, recorded while methods 2-4 were still found by orientation
# walks and closures: classes of up to 144 DAGs, up to 20 method-2 members
SIMULATE_P14_GOLDEN_SHA256 = (
    "d550f8b21f31a404617cfd3fd173833b9abed488a63e9dbe1263343e1b053435"
)


def test_simulate_jsonl_golden_digest(capsys, tmp_path):
    out_file = tmp_path / "sim.jsonl"
    code, _, _ = run(capsys, "simulate", "--p", "10", "--deg", "3", "--n", "200",
                     "--reps", "40", "--seed", "5", "--out", out_file)
    assert code == 0
    digest = hashlib.sha256(out_file.read_bytes()).hexdigest()
    assert digest == SIMULATE_GOLDEN_SHA256


def test_simulate_p12_jsonl_golden_digest(capsys, tmp_path):
    out_file = tmp_path / "sim.jsonl"
    code, _, _ = run(capsys, "simulate", "--p", "12", "--deg", "3", "--n", "500",
                     "--reps", "200", "--seed", "1", "--out", out_file)
    assert code == 0
    digest = hashlib.sha256(out_file.read_bytes()).hexdigest()
    assert digest == SIMULATE_P12_GOLDEN_SHA256


def test_simulate_p14_jsonl_golden_digest(capsys, tmp_path):
    out_file = tmp_path / "sim.jsonl"
    code, _, _ = run(capsys, "simulate", "--p", "14", "--deg", "4", "--n", "300",
                     "--reps", "150", "--seed", "77", "--a-size", "2", "--out", out_file)
    assert code == 0
    digest = hashlib.sha256(out_file.read_bytes()).hexdigest()
    assert digest == SIMULATE_P14_GOLDEN_SHA256


def test_simulate_walks_no_orientation_and_closes_no_member(capsys, tmp_path, monkeypatch):
    # methods 2-4 are read off the class list: with the orientation walks
    # and the consistent extension raising wherever the CLI could reach
    # them, the study still writes the golden JSONL
    def never(*args, **kwargs):
        raise AssertionError("a method was walked or a member closed")

    for module in (mpdag, mpdag.cli, mpdag.idgraphs, mpdag.meek):
        for name in ("method2_graphs", "method3_graphs", "consistent_extension"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, never)
    out_file = tmp_path / "sim.jsonl"
    code, _, _ = run(capsys, "simulate", "--p", "10", "--deg", "3", "--n", "200",
                     "--reps", "40", "--seed", "5", "--out", out_file)
    assert code == 0
    digest = hashlib.sha256(out_file.read_bytes()).hexdigest()
    assert digest == SIMULATE_GOLDEN_SHA256


def test_class_rows_read_methods_2_3_at_any_number_of_treatment_edges():
    # an undirected star on the treatment t with 15 leaves: its class is the
    # 16 DAGs with at most one leaf into t, one per method-2 member, and the
    # rows are read off that class whatever the number of treatment edges
    leaves = [f"l{i:02d}" for i in range(15)]
    h = M.meek_closure(M.PartiallyDirectedGraph(["t", *leaves], (), [("t", v) for v in leaves]))
    treat, out = ["t"], ["l00"]
    dags = M.enumerate_dags(h)
    row = {d: k for k, d in enumerate(dags)}
    minimal = M.id_graphs(h, treat, out).graphs
    rows = mpdag.cli._class_rows(h, dags, *_checked_sets(h.graph, treat, out), minimal)
    members = {
        "2": M.method2_graphs(h, treat, out),
        "3": M.method3_graphs(h, treat, out),
        "4": minimal,
    }
    assert len(dags) == len(members["2"]) == 16
    for key, graphs in members.items():
        assert rows[key] == [row[M.consistent_extension(m)] for m in graphs]


# a study parameter out of range is a usage error before any instance is drawn;
# --p is 5 there, so an --a-size of 5 leaves no node for the outcome
@pytest.mark.parametrize("option, value", [
    ("--a-size", "0"), ("--a-size", "-2"), ("--a-size", "5"), ("--n", "1"), ("--deg", "-1"),
    ("--p", "1"), ("--p", "0"), ("--reps", "0"), ("--reps", "-3"),
    ("--tie-tol", "-1"), ("--tie-tol", "nan"),
])
def test_simulate_rejects_bad_parameters(capsys, tmp_path, monkeypatch, option, value):
    def never(*args, **kwargs):
        raise AssertionError("an instance was drawn")

    monkeypatch.setattr(mpdag.cli, "random_instance", never)
    argv = {"--p": "5", "--deg": "2", "--n": "50", "--reps": "2", "--seed": "1",
            option: value}
    out_file = tmp_path / "r.jsonl"
    with pytest.raises(SystemExit) as err:
        main(["simulate", *itertools.chain(*argv.items()), "--out", str(out_file)])
    assert err.value.code == 2
    assert f"argument {option}: must be at least" in capsys.readouterr().err
    assert not out_file.exists()


# so is a negative or NaN tolerance for the distinct count of effects, before
# the SCM file is read
@pytest.mark.parametrize("value", ["-1", "nan", "-0.5"])
def test_effects_rejects_a_bad_tolerance(capsys, monkeypatch, value):
    def never(*args, **kwargs):
        raise AssertionError("the SCM file was read")

    monkeypatch.setattr(mpdag.cli, "load_scm_file", never)
    with pytest.raises(SystemExit) as err:
        main(["effects", "--scm", str(FIXTURES / "sim_scm.json"), "--treat", "A1",
              "--out", "Y", "--cov", "exact", "--tol", value])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert "argument --tol: must be at least" in captured.err and not captured.out


def study_args(p: int, deg: float, tie_tol: float = 1e-6, n: int = 60):
    return argparse.Namespace(p=p, deg=deg, n=n, a_size=None, tie_tol=tie_tol,
                              dump_data=None)


def record_counts(monkeypatch) -> list:
    """Make ``count_distinct`` in the CLI record a copy of each stack it
    counts, with the tolerance."""
    seen = []
    count = mpdag.cli.count_distinct

    def recording(vectors, tol):
        seen.append((np.array(vectors, dtype=float), tol))
        return count(vectors, tol)

    monkeypatch.setattr(mpdag.cli, "count_distinct", recording)
    return seen


# a large tie tolerance collapses every class's truth to one value, so each
# instance with two or more minimal graphs redraws its coefficients 3 times
@pytest.mark.parametrize("p, deg, tie_tol", [
    (4, 2.0, 1e-6), (6, 2.0, 1e-6), (8, 3.0, 1e-6), (10, 3.0, 1e-6), (6, 3.0, 10.0),
])
def test_simulate_counts_the_arrays_of_two_sweeps(monkeypatch, p, deg, tie_tol):
    # the class is fitted once per covariance and the members of methods 2-4
    # are read off its rows: each counted array must equal, bit for bit, the
    # array of a sweep per covariance over the class and the members'
    # extensions
    args = study_args(p, deg, tie_tol)
    redraws = 0
    for seed in range(12):
        seen = record_counts(monkeypatch)
        record = mpdag.cli._simulate_one(seed, args)
        if "skipped" in record:
            continue
        redraws += record["tie_redraws"]
        inst = mpdag.random_instance(p, deg, seed)
        expected = two_sweep_study_arrays(inst, args.n, tie_tol)
        assert len(seen) == len(expected)
        for (got, got_tol), (want, want_tol) in zip(seen, expected):
            assert got_tol == want_tol
            assert got.shape == want.shape and np.array_equal(got, want)
    assert redraws > 0 or tie_tol < 1


def test_simulate_builds_one_regression_layout_per_instance(capsys, tmp_path, monkeypatch):
    built, passes = [], []
    layout_class = mpdag.cli._RegressionLayout

    class Counted(layout_class):
        def __init__(self, *args):
            built.append(args[1])
            super().__init__(*args)

        def effects(self, sigma):
            passes.append(sigma)
            return super().effects(sigma)

    monkeypatch.setattr(mpdag.cli, "_RegressionLayout", Counted)
    out_file = tmp_path / "r.jsonl"
    code, _, _ = run(capsys, "simulate", "--p", "6", "--deg", "3", "--n", "50",
                     "--reps", "6", "--seed", "1", "--tie-tol", "10", "--out", out_file)
    rows = [json.loads(line) for line in out_file.read_text().splitlines()]
    done = [row for row in rows if "skipped" not in row]
    assert code == 0 and any(row["tie_redraws"] for row in done)
    # one layout per instance, over the whole class: a pass per coefficient
    # draw, tie redraws included, and one on the sample
    assert len(built) == len(done)
    assert [len(dags) for dags in built] == [row["counts"]["1"] for row in done]
    assert len(passes) == sum(row["tie_redraws"] + 2 for row in done)


# sha256 of the stdout of `effects --scm fixtures/sim_scm.json --treat A1,A2
# --out Y --n 100 --seed 0 --format json`, recorded while each member was
# still fitted one DAG at a time; the estimates print at full precision, so
# it pins them bit for bit
EFFECTS_GOLDEN_SHA256 = (
    "4339e6fb679e249df3366ce1d87a42ceee9a9af29e5ab43e991c5c8cd18fa1e6"
)


def test_effects_json_golden_digest(capsys):
    code, out, _ = run(capsys, "effects", "--scm", FIXTURES / "sim_scm.json",
                       "--treat", "A1,A2", "--out", "Y", "--n", "100",
                       "--seed", "0", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EFFECTS_GOLDEN_SHA256


def test_simulate_dumps_csv_datasets(capsys, tmp_path):
    out_file = tmp_path / "r.jsonl"
    data_dir = tmp_path / "data"
    run(capsys, "simulate", "--p", "4", "--deg", "1.5", "--n", "25",
        "--reps", "2", "--seed", "21", "--out", out_file,
        "--dump-data", data_dir)
    dumped = sorted(p.name for p in data_dir.glob("*.csv"))
    assert dumped  # at least the non-skipped instances
    text = (data_dir / dumped[0]).read_text().splitlines()
    assert len(text[0].split(",")) == 4  # header row with the node names
    assert len(text) == 26


def test_simulate_skips_an_exhausted_rejection_budget(capsys, tmp_path, monkeypatch):
    def exhausted(*args, **kwargs):
        raise RejectionBudgetError("no unidentified treatment/outcome pair found")

    monkeypatch.setattr(mpdag.cli, "random_instance", exhausted)
    out_file = tmp_path / "r.jsonl"
    code, out, _ = run(capsys, "simulate", "--p", "4", "--deg", "1.5", "--n", "20",
                       "--reps", "2", "--seed", "1", "--out", out_file)
    rows = [json.loads(line) for line in out_file.read_text().splitlines()]
    assert code == 0 and "(0 usable" in out
    assert [row["skipped"] for row in rows] == [
        "no unidentified treatment/outcome pair found"
    ] * 2


def test_simulate_does_not_record_other_errors_as_skips(capsys, tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise ZeroDivisionError("a bug, not a budget")

    monkeypatch.setattr(mpdag.cli, "random_instance", broken)
    out_file = tmp_path / "r.jsonl"
    with pytest.raises(ZeroDivisionError):
        run(capsys, "simulate", "--p", "4", "--deg", "1.5", "--n", "20",
            "--reps", "2", "--seed", "1", "--out", out_file)
    assert not out_file.exists()  # no record at all, so none says skipped


# sha256 of the stdout of `idgraphs --format json` (method 4, with the audit
# and its violating_paths counts) on the three queries below, in that order,
# recorded while every branch still enumerated its violating paths in full
IDGRAPHS_AUDIT_GOLDEN_SHA256 = (
    "19b2d0ff9059a603ebb4885d61f3c85cfd78bef845ad7d3e6d040365fecd261b"
)


def test_idgraphs_audit_golden_digest(capsys):
    digest = hashlib.sha256()
    for name, treat in (("four_node_mpdag.txt", "A"), ("complete4.txt", "A1,A2"),
                        ("sim_cpdag.txt", "A1,A2")):
        code, out, _ = run(capsys, "idgraphs", FIXTURES / name, "--treat", treat,
                           "--out", "Y", "--format", "json")
        assert code == 0
        digest.update(out.encode())
    assert digest.hexdigest() == IDGRAPHS_AUDIT_GOLDEN_SHA256


# sha256 of the stdout of `idgraphs --method m --format json` for m = 1, 2, 3
# on the three queries above, then `enumerate-dags --format json` on the same
# three files, in that order; recorded while DAG enumeration and the method 2
# and 3 combinations still rebuilt one MPDAG per branch
BASELINES_GOLDEN_SHA256 = (
    "056be2ac6057962acc7d84ab19cd4243c64858d9d2ed16c5c8cdd79bbd3c535c"
)


def test_baseline_methods_and_enumeration_golden_digest(capsys):
    queries = (("four_node_mpdag.txt", "A"), ("complete4.txt", "A1,A2"),
               ("sim_cpdag.txt", "A1,A2"))
    commands = [
        ("idgraphs", FIXTURES / name, "--treat", treat, "--out", "Y",
         "--method", method, "--format", "json")
        for method in ("1", "2", "3")
        for name, treat in queries
    ]
    commands += [("enumerate-dags", FIXTURES / name, "--format", "json")
                 for name, _ in queries]
    digest = hashlib.sha256()
    for argv in commands:
        code, out, _ = run(capsys, *argv)
        assert code == 0
        digest.update(out.encode())
    assert digest.hexdigest() == BASELINES_GOLDEN_SHA256


# sha256 of `adjust FILE --treat a --out y --set Z --format json` for every
# ordered node pair (a, y) and every subset Z of the other two nodes (by
# size, then name) of the five four-node fixtures below: per run its stdout,
# its stderr and the line "exit <status>"; recorded while the adjustment
# witness came from a depth-first search of its own
ADJUST_SET_GOLDEN_SHA256 = (
    "6b0023cfbf5208759c773d9afa510fd929bbf09d05663d36b4cb8374317d64a4"
)


def test_adjust_set_golden_digest(capsys):
    digest = hashlib.sha256()
    runs = witnesses = 0
    for name in ("four_node_mpdag.txt", "four_node_dag.txt", "complete4.txt",
                 "sim_cpdag.txt", "sim_dag.txt"):
        nodes = load_fixture(name).nodes
        for a, y in itertools.permutations(nodes, 2):
            rest = [v for v in nodes if v not in (a, y)]
            for k in range(len(rest) + 1):
                for z in itertools.combinations(rest, k):
                    code, out, err = run(capsys, "adjust", FIXTURES / name,
                                         "--treat", a, "--out", y,
                                         "--set", ",".join(z), "--format", "json")
                    digest.update(f"{out}{err}exit {code}\n".encode())
                    runs += 1
                    witnesses += '"open_path"' in out
    assert (runs, witnesses) == (240, 64)
    assert digest.hexdigest() == ADJUST_SET_GOLDEN_SHA256


def test_workflow_checks_the_same_golden_digests():
    # the CI workflow re-checks each golden digest on the installed console
    # script; its sha256 literals must be exactly the seven above
    root = Path(__file__).resolve().parent.parent
    text = (root / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    literals = re.findall(r"\b[0-9a-f]{64}\b", text)
    assert sorted(literals) == sorted((
        SIMULATE_GOLDEN_SHA256,
        SIMULATE_P12_GOLDEN_SHA256,
        SIMULATE_P14_GOLDEN_SHA256,
        EFFECTS_GOLDEN_SHA256,
        IDGRAPHS_AUDIT_GOLDEN_SHA256,
        BASELINES_GOLDEN_SHA256,
        ADJUST_SET_GOLDEN_SHA256,
    ))


def test_idgraphs_verify_never_flags_fixture_corpus(capsys):
    cases = [
        ("four_node_mpdag.txt", "A", "Y"),
        ("four_node_cpdag.txt", "A", "Y"),
        ("complete4.txt", "A1,A2", "Y"),
        ("complete4.txt", "A1", "Y"),
        ("sim_cpdag.txt", "A1", "Y"),
        ("sim_cpdag.txt", "A1,A2", "Y"),
    ]
    for name, treat, out_nodes in cases:
        code, out, _ = run(capsys, "idgraphs", FIXTURES / name,
                           "--treat", treat, "--out", out_nodes, "--verify")
        payload = json.loads(out)
        assert code == 0
        assert payload["verification"]["ok"] is True, (name, treat)


def test_parse_error_reports_line(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("A -> B\nA => C\n")
    code, _, err = run(capsys, "check-id", bad, "--treat", "A", "--out", "B")
    assert code == 1
    assert "line 2" in err


# a malformed input file is one "error:" line on stderr and exit status 1,
# never a traceback; an SCM file that would lose data silently is malformed
@pytest.mark.parametrize("text", [
    '{"edges": {"A -> Y": "abc"}}',
    '{"edges": ["A -> Y"]}',
    '["edges"]',
    '{"edges": {"A -> Y": 1.0}, "noise": [1]}',
    '{"edges": {"A -> Y": 1.0, "A->Y": 3.0}}',
    '{"edges": {"A -> Y": 1.0}, "noise": {"Yy": 2.0}}',
    '{"edges": {"A -> Y": 1.0, "A -> B -> Y": 1.0}}',
    '{"edges": {"A -> Y": 1.0}, "nodes": ["Z#"]}',
])
def test_malformed_scm_file_is_one_error_line(capsys, tmp_path, text):
    scm = tmp_path / "scm.json"
    scm.write_text(text)
    code, out, err = run(capsys, "effects", "--scm", scm, "--treat", "A",
                         "--out", "Y", "--cov", "exact")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("check-id", "BAD", "--treat", "A", "--out", "Y"),
    ("orient", FIXTURES / "four_node_mpdag.txt", "--bg", "BAD"),
])
def test_non_utf8_input_file_is_one_error_line(capsys, tmp_path, argv):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"A -> Y\n\xff\n")
    code, out, err = run(capsys, *(bad if arg == "BAD" else arg for arg in argv))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "not UTF-8" in err


def test_unknown_node_is_domain_error(capsys):
    code, _, err = run(capsys, "check-id", FIXTURES / "four_node_mpdag.txt",
                       "--treat", "A", "--out", "nope")
    assert code == 1
    assert "unknown node" in err


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as err:
        main(["idgraphs", "--treat", "A"])
    assert err.value.code == 2


def test_determinism_byte_for_byte(capsys):
    _, first, _ = run(capsys, "idgraphs", FIXTURES / "complete4.txt",
                      "--treat", "A1,A2", "--out", "Y")
    _, second, _ = run(capsys, "idgraphs", FIXTURES / "complete4.txt",
                       "--treat", "A1,A2", "--out", "Y")
    assert first == second


def test_dot_output(capsys):
    code, out, _ = run(capsys, "close", FIXTURES / "four_node_mpdag.txt",
                       "--format", "dot")
    assert code == 0
    assert '"A" -> "Y";' in out and '"V1" -> "Y" [dir=none];' in out


# the arguments of each command that takes --format, on a fixture it succeeds on
FORMAT_COMMANDS = {
    "cpdag": (FIXTURES / "four_node_dag.txt",),
    "close": (FIXTURES / "four_node_mpdag.txt",),
    "orient": (FIXTURES / "four_node_mpdag.txt", "--bg", FIXTURES / "bg_a_to_y.txt"),
    "enumerate-dags": (FIXTURES / "four_node_mpdag.txt",),
    "check-id": (FIXTURES / "four_node_mpdag.txt", "--treat", "A", "--out", "Y"),
    "adjust": (FIXTURES / "four_node_dag.txt", "--treat", "A", "--out", "Y", "--find"),
    "idgraphs": (FIXTURES / "four_node_mpdag.txt", "--treat", "A", "--out", "Y"),
    "effects": ("--scm", FIXTURES / "sim_scm.json", "--treat", "A1", "--out", "Y",
                "--cov", "exact"),
}
DOT_COMMANDS = {"cpdag", "close", "orient"}


def _is_json(text: str) -> bool:
    try:
        json.loads(text)
    except ValueError:
        return False
    return True


# a format a command offers is a format it prints; any other is a usage error
@pytest.mark.parametrize("fmt", ["human", "json", "dot"])
@pytest.mark.parametrize("command", sorted(FORMAT_COMMANDS))
def test_every_offered_format_is_rendered(capsys, command, fmt):
    try:
        code, out, _ = run(capsys, command, *FORMAT_COMMANDS[command], "--format", fmt)
    except SystemExit as exc:
        assert exc.code == 2 and "invalid choice" in capsys.readouterr().err
        assert fmt == "dot" and command not in DOT_COMMANDS
        return
    assert code == 0
    assert _is_json(out) == (fmt == "json")
    assert out.startswith("digraph") == (fmt == "dot")
    assert fmt != "dot" or command in DOT_COMMANDS
