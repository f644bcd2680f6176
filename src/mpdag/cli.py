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
    _bit_indices,
    _checked_sets,
)
from .graphio import (
    graph_to_json,
    load_graph,
    load_orientations,
    load_scm_file,
    render_dot,
    render_edge_list,
)
from .identify import (
    _count_violating,
    _first_edges,
    find_adjustment_set,
    g_formula,
    is_adjustment_set,
    is_identified,
)
from .idgraphs import id_graphs, method2_graphs, method3_graphs, verify_partition
from .linear import (
    RejectionBudgetError,
    _RegressionLayout,
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

CLASS_SIZE_CAP = 5000


def _node_list(raw: str) -> list[str]:
    return [tok for tok in raw.split(",") if tok]


def _at_least(kind: type, low: float):
    """An argument type: a ``kind`` value of at least ``low``; any other,
    NaN included, is a usage error."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}"
            ) from None
        if not value >= low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return value

    return parse


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


def _add_format_arg(
    sub: argparse.ArgumentParser, *extra: str, default: str = "human"
) -> None:
    """``--format``: ``human``, ``json`` and the ``extra`` formats that the
    command renders."""
    sub.add_argument("--format", choices=("human", "json", *extra), default=default)


def _add_treat_out(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--treat", required=True, help="comma-separated treatments")
    sub.add_argument("--out", required=True, help="comma-separated outcomes")


def _cmd_graph(args: argparse.Namespace) -> int:
    """``cpdag`` and ``close``: the MPDAG that ``args.make`` builds from the
    graph file."""
    g = load_graph(args.graph)
    print(_emit_graph(args.make(g).graph, args.format), end="")
    return 0


def _cmd_orient(args: argparse.Namespace) -> int:
    h = _load_mpdag(args.graph)
    requests = load_orientations(args.bg)
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
            # a FAIL has no graph to draw: under dot, stdout stays empty
            print(f"FAIL: cannot orient {exc.request[0]} -> {exc.request[1]}"
                  f" ({exc.reason})",
                  file=sys.stderr if args.format == "dot" else sys.stdout)
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
        m = _count_violating(h.graph, *_checked_sets(h.graph, treat, out))
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


def _cmd_effects(args: argparse.Namespace) -> int:
    scm = load_scm_file(args.scm)
    h = _load_mpdag(args.graph) if args.graph else cpdag_of_dag(scm.dag)
    treat = _node_list(args.treat)
    outcomes = _node_list(args.out)
    if len(outcomes) != 1:
        raise GraphError(f"effects takes exactly one outcome, got {outcomes}")
    (outcome,) = outcomes
    if args.cov == "exact":
        if args.n is not None or args.seed is not None:
            raise GraphError("exact effects take neither --n nor --seed")
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


def _packed_arrows(children: Sequence[int]) -> int:
    """A children table as one mask: bit ``u * p + v`` for each arrow
    ``u -> v`` of the ``p`` nodes, so its set bits ascend as the directed
    pairs of :meth:`Mpdag.key` do."""
    p, packed = len(children), 0
    for u, row in enumerate(children):
        packed |= row << u * p
    return packed


def _treatment_edges(h: Mpdag, a: int, far: int) -> int:
    """The undirected edges of ``h`` joining a treatment (a node of the mask
    ``a``) to a node of the mask ``far``, each as the bit of one of its
    orientations in :func:`_packed_arrows` layout: a class DAG's arrows masked
    with it tell how that DAG orients them all, and its bit count is the
    number of edges."""
    undirected = h.graph._masks.undirected
    p, packed = len(undirected), 0
    for t in _bit_indices(a):
        # an edge between two treatments only from the smaller
        packed |= (undirected[t] & far & ~(a & (1 << t) - 1)) << t * p
    return packed


def _member_rows(arrows: Sequence[int], edges: int) -> list[int]:
    """Method 2 or 3 read off a class: ``arrows`` holds its DAGs, packed, in
    key order, and ``edges`` the treatment edges the method orients
    (:func:`_treatment_edges`).

    Orienting edges of an MPDAG and closing keeps exactly the class DAGs
    with those orientations, and an edge left undirected takes both among
    them (Meek 1995).  So the DAGs that orient ``edges`` alike are the class
    of one member of :func:`mpdag.idgraphs.method2_graphs` (or
    ``method3_graphs``), and the AND of their arrows is the member's arrows.
    Returned: per member, in :meth:`Mpdag.key` order, the row of its first
    DAG, its consistent extension.  The members share one skeleton, so
    their arrows decide that order."""
    first: dict[int, int] = {}
    common: dict[int, int] = {}
    for k, d in enumerate(arrows):
        choice = d & edges
        if choice in first:
            common[choice] &= d
        else:
            first[choice], common[choice] = k, d
    return [first[c] for c in sorted(first, key=lambda c: tuple(_bit_indices(common[c])))]


def _class_rows(
    h: Mpdag,
    dags: Sequence[PartiallyDirectedGraph],
    a: int,
    y: int,
    minimal: Sequence[Mpdag],
) -> dict[str, list[int]]:
    """Methods 2-4 of the study read off ``dags``, the class of ``h`` in key
    order, for the treatment and outcome masks ``a`` and ``y``: per method,
    per member in member order, the row of the member's consistent
    extension, the first DAG of the class that holds the member's arrows.
    Method 4's members are ``minimal``, the graphs of :func:`id_graphs`.  No
    orientation is walked and no graph closed, so the work is bounded by
    the class size, which :data:`CLASS_SIZE_CAP` bounds."""
    arrows = [_packed_arrows(d._masks.children) for d in dags]
    v1 = _first_edges(h.graph, a, y)[0]
    return {
        "2": _member_rows(arrows, _treatment_edges(h, a, (1 << len(h.nodes)) - 1)),
        "3": _member_rows(arrows, _treatment_edges(h, a, v1)),
        "4": [
            next(k for k, d in enumerate(arrows) if not own & ~d)
            for own in (_packed_arrows(m.graph._masks.children) for m in minimal)
        ],
    }


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

    # methods 2-4 come off the class list: per member, the row of its
    # consistent extension, and for methods 2-3 the number of members
    result = id_graphs(h, treat, [outcome])
    rows = _class_rows(h, dags, *_checked_sets(h.graph, treat, [outcome]), result.graphs)
    counts = {"4": result.n, "1": len(dags), "2": len(rows["2"]), "3": len(rows["3"])}

    # ground truth: distinct per-DAG population effects, redrawing the
    # coefficients when a tie collapses two classes; one regression layout
    # over the class serves every covariance of the instance
    layout = _RegressionLayout(h.nodes, dags, treat, outcome)
    scm = inst.scm
    tie_redraws = 0
    while True:
        truth = count_distinct(layout.effects(covariance(scm).matrix), args.tie_tol)
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
    # method 1 fits the class; a member of methods 2-4 (identified where its
    # enumeration stopped) is fitted by its consistent extension, a DAG of
    # the class, so its estimate is that DAG's row
    estimates = layout.effects(data.covariance())
    distinct_estimates = {"1": count_distinct(estimates, 1e-9)}
    for key in ("2", "3", "4"):
        distinct_estimates[key] = count_distinct(estimates[rows[key]], 1e-9)
    record["counts"] = counts
    record["distinct_estimates"] = distinct_estimates
    return record


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.a_size is not None and args.a_size >= args.p:
        args.usage_error(f"argument --a-size: must be at least 1 and at most"
                         f" --p - 1 = {args.p - 1}, got {args.a_size}")
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
    _add_format_arg(sub, "dot")
    sub.set_defaults(func=_cmd_graph, make=cpdag_of_dag)

    sub = subs.add_parser("close", help="close a PDAG under the orientation rules")
    _add_graph_arg(sub)
    _add_format_arg(sub, "dot")
    sub.set_defaults(func=_cmd_graph, make=meek_closure)

    sub = subs.add_parser("orient", help="apply background-knowledge orientations")
    _add_graph_arg(sub)
    sub.add_argument("--bg", required=True, help="file of 'X -> Y' requests")
    _add_format_arg(sub, "dot")
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
    _add_format_arg(sub, default="json")
    sub.set_defaults(func=_cmd_idgraphs)

    sub = subs.add_parser("effects", help="possible total effects under a linear SCM")
    sub.add_argument("--scm", required=True, help="SCM JSON file")
    sub.add_argument("--graph", help="MPDAG file (default: CPDAG of the SCM's DAG)")
    _add_treat_out(sub)
    sub.add_argument("--cov", choices=("exact",), default=None,
                     help="use the exact population covariance")
    sub.add_argument("--n", type=int, help="sample size for estimated effects")
    sub.add_argument("--seed", type=int, help="sampling seed")
    sub.add_argument("--tol", type=_at_least(float, 0), default=1e-6,
                     help="tolerance for the distinct-value count")
    _add_format_arg(sub)
    sub.set_defaults(func=_cmd_effects)

    sub = subs.add_parser("simulate", help="random-instance simulation study")
    sub.add_argument("--p", type=_at_least(int, 2), required=True)
    sub.add_argument("--deg", type=_at_least(float, 0), required=True)
    sub.add_argument("--n", type=_at_least(int, 2), required=True, help="sample size")
    sub.add_argument("--reps", type=_at_least(int, 1), required=True)
    sub.add_argument("--seed", type=int, required=True)
    sub.add_argument("--out", required=True, help="JSONL output path")
    sub.add_argument("--a-size", type=_at_least(int, 1), default=None,
                     help="fixed treatment-set size (default: random 1..4)")
    sub.add_argument("--tie-tol", type=_at_least(float, 0), default=1e-6)
    sub.add_argument("--dump-data", default=None,
                     help="directory for per-instance sample CSV files")
    sub.set_defaults(func=_cmd_simulate, usage_error=sub.error)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphError, InternalInconsistencyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
