"""Command-line front end.

Subcommands: ``cpdag``, ``close``, ``orient``, ``enumerate-dags``,
``check-id``, ``gformula``, ``adjust``, ``idgraphs``, ``simulate`` and
``effects``.  Outputs are deterministic given the inputs and the seed.  Exit
status 0 on success (a FAIL from background-knowledge orientation is a
reported result, not an error), 1 on domain errors such as malformed graph
files or unknown nodes, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from .graphs import (
    GraphError,
    InternalInconsistencyError,
    PartiallyDirectedGraph,
    _checked_sets,
)
from .graphio import (
    graph_to_json,
    load_graph,
    load_scm_file,
    parse_orientations,
    render_dot,
    render_edge_list,
)
from .identify import (
    NotIdentifiedError,
    _violating_search,
    find_adjustment_set,
    g_formula,
    is_adjustment_set,
    is_identified,
)
from .idgraphs import id_graphs, method2_graphs, method3_graphs, verify_partition
from .linear import (
    ExactCovariance,
    LinearScm,
    RejectionBudgetError,
    _identified_extension,
    _regression_effects,
    count_distinct,
    covariance,
    possible_effects,
    random_instance,
    redraw_coefficients,
    sample,
)
from .meek import (
    Mpdag,
    OrientationConflictError,
    construct_mpdag,
    cpdag_of_dag,
    enumerate_dags,
    meek_closure,
)

METHOD_COMBO_EDGE_CAP = 14
CLASS_SIZE_CAP = 5000


def _node_list(raw: str) -> list[str]:
    return [tok for tok in raw.split(",") if tok]


def _emit_graph(g: PartiallyDirectedGraph, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(graph_to_json(g), indent=2)
    if fmt == "dot":
        return render_dot(g)
    return render_edge_list(g)


def _load_mpdag(path: str) -> Mpdag:
    return meek_closure(load_graph(path))


def _add_graph_arg(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("graph", help="edge-list graph file")


def _add_format_arg(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--format", choices=("human", "json", "dot"), default="human"
    )


def _add_treat_out(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--treat", required=True, help="comma-separated treatments")
    sub.add_argument("--out", required=True, help="comma-separated outcomes")


def _cmd_cpdag(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)
    print(_emit_graph(cpdag_of_dag(g).graph, args.format), end="")
    return 0


def _cmd_close(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)
    print(_emit_graph(meek_closure(g).graph, args.format), end="")
    return 0


def _cmd_orient(args: argparse.Namespace) -> int:
    h = _load_mpdag(args.graph)
    requests = parse_orientations(Path(args.bg).read_text(encoding="utf-8"))
    try:
        oriented = construct_mpdag(h, requests)
    except OrientationConflictError as exc:
        payload = {
            "status": "FAIL",
            "request": list(exc.request),
            "reason": exc.reason,
        }
        if args.format == "json":
            print(json.dumps(payload, indent=2))
        else:
            print(f"FAIL: cannot orient {exc.request[0]} -> {exc.request[1]}"
                  f" ({exc.reason})")
        return 0
    if args.format == "json":
        print(json.dumps({"status": "ok", "graph": graph_to_json(oriented.graph)},
                         indent=2))
    else:
        print(_emit_graph(oriented.graph, args.format), end="")
    return 0


def _cmd_enumerate_dags(args: argparse.Namespace) -> int:
    h = _load_mpdag(args.graph)
    dags = enumerate_dags(h)
    if args.format == "json":
        print(json.dumps(
            {"count": len(dags), "dags": [graph_to_json(d) for d in dags]},
            indent=2,
        ))
    else:
        print(f"count: {len(dags)}")
        for d in dags:
            print()
            print(render_edge_list(d), end="")
    return 0


def _cmd_check_id(args: argparse.Namespace) -> int:
    h = _load_mpdag(args.graph)
    verdict = is_identified(h, _node_list(args.treat), _node_list(args.out))
    witness = list(verdict.witness.nodes) if verdict.witness else None
    if args.format == "json":
        print(json.dumps({"identified": verdict.identified, "witness": witness}))
    else:
        print(f"identified: {str(verdict.identified).lower()}")
        if witness:
            print(f"witness: {verdict.witness}")
    return 0


def _cmd_gformula(args: argparse.Namespace) -> int:
    h = _load_mpdag(args.graph)
    formula = g_formula(h, _node_list(args.treat), _node_list(args.out))
    if args.json:
        print(json.dumps(formula.to_json(), indent=2))
    else:
        print(str(formula))
    return 0


def _cmd_adjust(args: argparse.Namespace) -> int:
    h = _load_mpdag(args.graph)
    treat, out = _node_list(args.treat), _node_list(args.out)
    if args.find:
        found = find_adjustment_set(h, treat, out)
        payload = {"found": sorted(found) if found is not None else None}
        print(json.dumps(payload) if args.format == "json"
              else f"adjustment set: {payload['found']}")
        return 0
    verdict = is_adjustment_set(h, treat, out, _node_list(args.set))
    payload = {
        "valid": verdict.valid,
        "reason": verdict.reason,
        "witness_node": verdict.witness_node,
        "witness_path": list(verdict.witness_path.nodes)
        if verdict.witness_path else None,
    }
    if args.format == "json":
        print(json.dumps(payload))
    else:
        print(f"valid: {str(verdict.valid).lower()}")
        if verdict.reason:
            print(f"reason: {verdict.reason}")
    return 0


def _cmd_idgraphs(args: argparse.Namespace) -> int:
    h = _load_mpdag(args.graph)
    treat, out = _node_list(args.treat), _node_list(args.out)
    if args.method == 4:
        result = id_graphs(h, treat, out)
        m = result.m
        graphs = list(result.graphs)
        audit = [record.to_json() for record in result.audit]
    else:
        m = _violating_search(h, *_checked_sets(h.graph, treat, out)).count()
        audit = []
        if args.method == 1:
            graphs = [Mpdag(d) for d in enumerate_dags(h)]
        elif args.method == 2:
            graphs = method2_graphs(h, treat, out)
        else:
            graphs = method3_graphs(h, treat, out)
    payload = {
        "method": args.method,
        "m": m,
        "n": len(graphs),
        "graphs": [list(g.graph.edge_lines()) for g in graphs],
        "audit": audit,
    }
    if args.verify:
        if args.method != 4:
            raise GraphError("--verify applies to method 4 only")
        report = verify_partition(result, h, treat, out)
        payload["verification"] = {
            "ok": report.ok,
            "violations": list(report.violations),
            "dag_counts": list(report.dag_counts),
        }
    if args.format == "human":
        print(f"m: {m}\nn: {len(graphs)}")
        for g in graphs:
            print()
            print(render_edge_list(g.graph), end="")
        if "verification" in payload:
            print(f"\nverification ok: {payload['verification']['ok']}")
    else:
        print(json.dumps(payload, indent=2))
    return 0


def _scm_from_json(data: dict) -> LinearScm:
    edges: dict[tuple[str, str], float] = {}
    nodes: set[str] = set(data.get("nodes", []))
    for key, coef in data["edges"].items():
        tail, _, head = key.partition("->")
        tail, head = tail.strip(), head.strip()
        if not tail or not head:
            raise GraphError(f"bad SCM edge key {key!r}, expected 'A -> B'")
        edges[(tail, head)] = float(coef)
        nodes.update((tail, head))
    dag = PartiallyDirectedGraph(nodes, edges.keys(), ())
    noise = {n: float(data.get("noise", {}).get(n, 1.0)) for n in dag.nodes}
    return LinearScm(dag, edges, noise)


def _cmd_effects(args: argparse.Namespace) -> int:
    scm = _scm_from_json(load_scm_file(args.scm))
    h = _load_mpdag(args.graph) if args.graph else cpdag_of_dag(scm.dag)
    treat = _node_list(args.treat)
    outcomes = _node_list(args.out)
    if len(outcomes) != 1:
        raise GraphError(f"effects takes exactly one outcome, got {outcomes}")
    (outcome,) = outcomes
    if args.cov == "exact":
        source = covariance(scm)
    else:
        if args.n is None or args.seed is None:
            raise GraphError("sampled effects need --n and --seed")
        source = sample(scm, args.n, args.seed)
    result = possible_effects(source, h, treat, outcome)
    payload = {
        "treatments": sorted(set(treat)),
        "outcome": outcome,
        "m": result.enumeration.m,
        "n": result.enumeration.n,
        "effects": [
            {"graph": list(e.source), "values": list(e.values)}
            for e in result.estimates
        ],
        "distinct": result.distinct_count(args.tol),
    }
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        rendered = ", ".join(
            str(tuple(round(v, 6) for v in e.values)) if len(e.values) > 1
            else str(round(e.values[0], 6))
            for e in result.estimates
        )
        print(f"possible effects: {{{rendered}}}")
        print(f"distinct: {payload['distinct']}")
    return 0


def _simulate_one(seed: int, args: argparse.Namespace) -> dict:
    record: dict = {"seed": seed, "p": args.p, "avg_degree": args.deg}
    try:
        inst = random_instance(args.p, args.deg, seed, n_treatments=args.a_size)
    except RejectionBudgetError as exc:
        record["skipped"] = str(exc)
        return record
    record["treatments"] = list(inst.treatments)
    record["outcome"] = inst.outcome
    h = inst.cpdag
    treat, outcome = inst.treatments, inst.outcome

    dags = enumerate_dags(h)
    if len(dags) > CLASS_SIZE_CAP:
        record["skipped"] = f"class size {len(dags)} above cap"
        return record

    result = id_graphs(h, treat, [outcome])
    counts = {"4": result.n, "1": len(dags)}
    a_edges = [e for e in h.graph.undirected if e[0] in treat or e[1] in treat]
    members: dict[str, Optional[list[Mpdag]]] = {"4": list(result.graphs)}
    if len(a_edges) <= METHOD_COMBO_EDGE_CAP:
        two = method2_graphs(h, treat, [outcome])
        three = method3_graphs(h, treat, [outcome])
        counts["2"], counts["3"] = len(two), len(three)
        members["2"], members["3"] = two, three
    else:
        counts["2"] = counts["3"] = None
        members["2"] = members["3"] = None

    # ground truth: distinct per-DAG population effects, redrawing the
    # coefficients when a tie collapses two classes
    scm = inst.scm
    tie_redraws = 0
    while True:
        truth_effects = _regression_effects(covariance(scm), dags, treat, outcome)
        truth = count_distinct(truth_effects, args.tie_tol)
        if truth == result.n or tie_redraws >= 3:
            break
        tie_redraws += 1
        scm = redraw_coefficients(scm, seed * 1000 + tie_redraws)
    record["truth"] = truth
    record["tie_redraws"] = tie_redraws
    record["match"] = truth == result.n

    # finite-sample estimates per method: multiset sizes are the counts
    # above, here the number of distinct estimated values
    data = sample(scm, args.n, seed)
    if args.dump_data:
        target = Path(args.dump_data)
        target.mkdir(parents=True, exist_ok=True)
        (target / f"instance_{seed}.csv").write_text(data.to_csv(), encoding="utf-8")
    # one sweep over the class (method 1) and the members' extensions
    fitted = {"1": dags}
    for key in ("2", "3", "4"):
        if members[key] is not None:
            fitted[key] = [
                _identified_extension(m, treat, outcome) for m in members[key]
            ]
    sample_cov = ExactCovariance(data.columns, data.covariance())
    estimates = _regression_effects(
        sample_cov, [d for group in fitted.values() for d in group], treat, outcome
    )
    distinct_estimates: dict[str, Optional[int]] = dict.fromkeys("1234")
    start = 0
    for key, group in fitted.items():
        stop = start + len(group)
        distinct_estimates[key] = count_distinct(estimates[start:stop], 1e-9)
        start = stop
    record["counts"] = counts
    record["distinct_estimates"] = distinct_estimates
    return record


def _cmd_simulate(args: argparse.Namespace) -> int:
    records = [_simulate_one(args.seed + i, args) for i in range(args.reps)]
    out_path = Path(args.out)
    with out_path.open("w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")
    done = [r for r in records if "skipped" not in r]
    matches = sum(1 for r in done if r["match"])
    print(f"wrote {len(records)} records to {out_path}"
          f" ({len(done)} usable, {matches} matching truth)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpdag",
        description="Identify and enumerate possible total effects in"
                    " partially directed acyclic graphs.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("cpdag", help="CPDAG of a DAG")
    _add_graph_arg(sub)
    _add_format_arg(sub)
    sub.set_defaults(func=_cmd_cpdag)

    sub = subs.add_parser("close", help="close a PDAG under the orientation rules")
    _add_graph_arg(sub)
    _add_format_arg(sub)
    sub.set_defaults(func=_cmd_close)

    sub = subs.add_parser("orient", help="apply background-knowledge orientations")
    _add_graph_arg(sub)
    sub.add_argument("--bg", required=True, help="file of 'X -> Y' requests")
    _add_format_arg(sub)
    sub.set_defaults(func=_cmd_orient)

    sub = subs.add_parser("enumerate-dags", help="all DAGs represented by an MPDAG")
    _add_graph_arg(sub)
    _add_format_arg(sub)
    sub.set_defaults(func=_cmd_enumerate_dags)

    sub = subs.add_parser("check-id", help="is the total effect identified?")
    _add_graph_arg(sub)
    _add_treat_out(sub)
    _add_format_arg(sub)
    sub.set_defaults(func=_cmd_check_id)

    sub = subs.add_parser("gformula", help="identification formula")
    _add_graph_arg(sub)
    _add_treat_out(sub)
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(func=_cmd_gformula)

    sub = subs.add_parser("adjust", help="check or find an adjustment set")
    _add_graph_arg(sub)
    _add_treat_out(sub)
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--set", help="comma-separated candidate set")
    group.add_argument("--find", action="store_true")
    _add_format_arg(sub)
    sub.set_defaults(func=_cmd_adjust)

    sub = subs.add_parser("idgraphs", help="enumerate graphs with identified effects")
    _add_graph_arg(sub)
    _add_treat_out(sub)
    sub.add_argument("--method", type=int, choices=(1, 2, 3, 4), default=4)
    sub.add_argument("--verify", action="store_true")
    sub.add_argument("--format", choices=("human", "json"), default="json")
    sub.set_defaults(func=_cmd_idgraphs)

    sub = subs.add_parser("effects", help="possible total effects under a linear SCM")
    sub.add_argument("--scm", required=True, help="SCM JSON file")
    sub.add_argument("--graph", help="MPDAG file (default: CPDAG of the SCM's DAG)")
    _add_treat_out(sub)
    sub.add_argument("--cov", choices=("exact",), default=None,
                     help="use the exact population covariance")
    sub.add_argument("--n", type=int, help="sample size for estimated effects")
    sub.add_argument("--seed", type=int, help="sampling seed")
    sub.add_argument("--tol", type=float, default=1e-6,
                     help="tolerance for the distinct-value count")
    sub.add_argument("--format", choices=("human", "json"), default="human")
    sub.set_defaults(func=_cmd_effects)

    sub = subs.add_parser("simulate", help="random-instance simulation study")
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--deg", type=float, required=True)
    sub.add_argument("--n", type=int, required=True, help="sample size")
    sub.add_argument("--reps", type=int, required=True)
    sub.add_argument("--seed", type=int, required=True)
    sub.add_argument("--out", required=True, help="JSONL output path")
    sub.add_argument("--a-size", type=int, default=None,
                     help="fixed treatment-set size (default: random 1..4)")
    sub.add_argument("--tie-tol", type=float, default=1e-6)
    sub.add_argument("--dump-data", default=None,
                     help="directory for per-instance sample CSV files")
    sub.set_defaults(func=_cmd_simulate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        GraphError,
        NotIdentifiedError,
        InternalInconsistencyError,
        OSError,
        json.JSONDecodeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
