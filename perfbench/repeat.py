"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/repeat.py --seeds 1-10 --workload simulate dense_idgraphs adjust

Runs ``run.py`` once per (seed, workload), interleaving the workloads inside
each seed so that slow drift of the machine spreads over all of them.  For
every metric it prints the median, the quartiles (``statistics.quantiles``,
n=4) and the spread, the distance between the quartiles as a share of the
median, next to the metric's bound from ``BENCHMARK.json``.  ``--out`` also
writes the summary and every run's result as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs: dict[str, list[dict]] = {w: [] for w in args.workload}
    for seed in args.seeds:
        for workload in args.workload:
            command = [sys.executable, *spec["command"][1:], "--workload", workload,
                       "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                       "--trace", "0"]
            started = time.perf_counter()
            proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                                  timeout=180)
            wall = time.perf_counter() - started
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
            result.update(seed=seed, wall_s=wall, env=env)
            runs[workload].append(result)
            print(f"{workload} seed {seed}: {wall:.1f} s, correct={result['correct']}"
                  f" attempted={result['attempted']} failed={result['failed']}",
                  flush=True)
    summary = {}
    for workload, results in runs.items():
        names = results[0]["metrics"]
        summary[workload] = {
            name: summarise([r["metrics"][name]["value"] for r in results])
            for name in names
        }
        for name in results[0]["env"].get("unscaled", {}):
            summary[workload][f"unscaled.{name}"] = summarise(
                [r["env"]["unscaled"][name] for r in results])
        summary[workload]["wall_s"] = summarise([r["wall_s"] for r in results])
        print(f"\n{workload}")
        for name, stats in summary[workload].items():
            bound = bounds.get(name)
            spread = stats["spread"]
            print(f"  {name:46s} median {stats['median']:<12.6g}"
                  f" q1 {stats['q1']:<12.6g} q3 {stats['q3']:<12.6g}"
                  f" spread {spread if spread is None else round(spread, 4)}"
                  + (f" bound {bound}" if bound is not None else ""))
    if args.out:
        args.out.write_text(json.dumps({"summary": summary, "runs": runs}, indent=1),
                            encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
