"""Compare the trace counters with the baseline figures of ROADMAP.md.

    python3 perfbench/crosscheck.py

With spans recorded, runs ``mpdag simulate --p 12 --deg 3 --n 500 --reps 200
--seed 1`` and reads ``linear.solves`` and ``linear.solves_distinct``, then
runs ``violating_paths`` and ``id_graphs`` on the complete graphs K8 and K9
with A = v0 and Y = v1 and reads m and ``idgraphs.output_graphs``.  Each
count is printed beside the ROADMAP figure with the difference; the counters
are not adjusted to match.  The last line is the whole result as JSON.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys

from run import OUT_DIR, SRC

EXPECTED = {
    "simulate": {"linear.solves": 75_490, "linear.solves_distinct": 6_548},
    "K8": {"m": 1_957, "idgraphs.output_graphs": 65},
    "K9": {"m": 13_700, "idgraphs.output_graphs": 129},
}


def main() -> int:
    os.environ.pop("MPDAG_THREADS", None)
    sys.path.insert(0, str(SRC))
    import mpdag
    import mpdag.cli
    from tracer import Tracer

    OUT_DIR.mkdir(exist_ok=True)
    measured: dict[str, dict[str, int]] = {}

    tracer = Tracer()
    tracer.install()
    out = OUT_DIR / "crosscheck-simulate.jsonl"
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            status = mpdag.cli.main([
                "simulate", "--p", "12", "--deg", "3", "--n", "500",
                "--reps", "200", "--seed", "1", "--out", str(out),
            ])
    finally:
        tracer.disable()
        out.unlink(missing_ok=True)
    if status != 0:
        print(f"error: simulate exited with {status}", file=sys.stderr)
        return 1
    report = tracer.report()
    measured["simulate"] = {k: report[k] for k in EXPECTED["simulate"]}

    for k in (8, 9):
        names = [f"v{i}" for i in range(k)]
        pairs = [(u, w) for i, u in enumerate(names) for w in names[i + 1:]]
        h = mpdag.meek_closure(mpdag.PartiallyDirectedGraph(names, (), pairs))
        tracer = Tracer()
        tracer.install()
        try:
            m = len(mpdag.violating_paths(h, ["v0"], ["v1"]))
            mpdag.id_graphs(h, ["v0"], ["v1"])
        finally:
            tracer.disable()
        measured[f"K{k}"] = {
            "m": m, "idgraphs.output_graphs": tracer.report()["idgraphs.output_graphs"],
        }

    rows = []
    for case, counts in EXPECTED.items():
        for name, expected in counts.items():
            got = measured[case][name]
            rows.append({"case": case, "counter": name, "measured": got,
                         "roadmap": expected, "difference": got - expected})
            print(f"{case:9s} {name:24s} measured {got:>8} roadmap {expected:>8}"
                  f" difference {got - expected:+d}")
    print(json.dumps(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
