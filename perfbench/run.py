"""Benchmark of the mpdag package: one workload per run.

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory, never from an installed copy.  With ``--trace 0`` the run
measures the end-to-end metrics over ``--seconds`` seconds of timed calls;
``setup_s`` is the median of several set-ups spread over the run.
With ``--trace 1`` it runs a fixed list of inputs twice, first with spans
recorded around the public functions of every module and then without, and
reports per-layer calls, self time, counts and the tracing overhead.  Every
output is checked outside the timed region; a failed check or a raised
exception counts in ``failed``.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the ``env`` line before it records the machine, the seed and the unscaled
figures.  Per-call timings are written to
``.perfbench_out/calls-<workload>-<seed>.json`` and the spans of a traced
run to ``.perfbench_out/trace-<workload>-<seed>.npz``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"
REFERENCE_SEED = 0
SETUP_REPEATS = 9
REFERENCE_S = 0.0015  # nominal duration of one reference routine, see scaled()
CHECKPOINT_S = 0.1  # timed work between two timings of the reference routine
TRACE_BATCHES = {"simulate": 10, "dense_idgraphs": 6, "adjust": 6}

END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "cpu_per_item_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "per_closure")):
        return "ratio"
    return "count"


_K7 = {i: frozenset(range(7)) - {i} for i in range(7)}


def _reference_routine() -> int:
    """Fixed work that never touches mpdag: the simple paths between two
    nodes of K7, listed with sets, sorting and tuples (the shape of the path
    layer), and small dense solves (the shape of the regressions)."""
    import numpy as np

    found = 0
    stack = [(0,)]
    while stack:
        seq = stack.pop()
        for w in sorted(_K7[seq[-1]] - set(seq)):
            if w == 1:
                found += 1
            else:
                stack.append(seq + (w,))
    gram = np.eye(4) * 3.0 + 0.5
    rhs = np.arange(1.0, 5.0)
    for i in range(150):
        k = 3 + i % 2
        found += int(np.linalg.solve(gram[:k, :k], rhs[:k])[0] > 0)
    return found


def reference_seconds() -> float:
    """Median of three timings of the reference routine, with the garbage
    collector held off so that a collection of the workload's objects is
    not charged to the routine."""
    times = []
    gc.disable()
    try:
        for _ in range(3):
            t0 = time.perf_counter()
            _reference_routine()
            times.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return statistics.median(times)


def scaled(seconds: float, before: float, after: float) -> float:
    """Machine-speed correction.  The cores are shared, and the same work
    runs up to 1.8 times slower while a neighbour is busy, in phases that
    last from seconds to minutes.  A time is rescaled by the reference
    routine timed just before and after it: the result is the time on a
    machine where the routine takes REFERENCE_S.  The routine does not use
    mpdag, so a change to the package is not scaled away."""
    return seconds * REFERENCE_S / ((before + after) / 2)


def import_seconds() -> float:
    """Wall time of a fresh interpreter importing what a run imports."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import numpy, jsonschema, mpdag.cli"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code, str(SRC)], check=True, timeout=120)
    return time.perf_counter() - t0


def cpu_seconds() -> float:
    """CPU time of this process and of any children it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def tail(latencies: list[float]) -> tuple[int, float]:
    """The highest whole percentile with at least ten items above it
    (nearest rank), and its value."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return 100, ordered[-1]
    pct = (100 * (n - 10)) // n
    return pct, ordered[max(1, math.ceil(pct * n / 100)) - 1]


class Tally:
    """Attempted and failed items, with the first few failure reasons."""

    def __init__(self) -> None:
        self.attempted = self.failed = 0
        self.reasons: list[str] = []

    def record(self, reason) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(str(reason))


def run_item(workload, item):
    """One timed call.  Returns (output or None, error, wall s, cpu s)."""
    w0, c0 = time.perf_counter(), cpu_seconds()
    try:
        output, error = workload.run(item), None
    except Exception as exc:  # a raised query is a failed item, not a crash
        output, error = None, f"raised {exc!r}"
    c1, w1 = cpu_seconds(), time.perf_counter()
    return output, error, w1 - w0, c1 - c0


def checked(workload, item, output, error):
    if error is not None:
        return error
    try:
        return workload.check(item, output)
    except Exception as exc:
        return f"check raised {exc!r}"


def check_reference(cls, tally: Tally) -> None:
    """Re-run the reference inputs and compare output digests with the ones
    recorded at the seed commit."""
    recorded = json.loads(REFERENCE.read_text(encoding="utf-8")).get(cls.name)
    if recorded is None:
        return
    ref = cls(REFERENCE_SEED, SRC, OUT_DIR)
    ref.prepare()
    items = next(ref.batches())
    for item, expected in zip(items, recorded, strict=True):
        output, error, _, _ = run_item(ref, item)
        reason = checked(ref, item, output, error)
        if reason is None and ref.digest(item, output) != expected:
            reason = "output differs from the recorded reference"
        tally.record(reason)
    ref.cleanup()


def set_up(cls, seed: int, stream: int, fresh_import: bool):
    """One set-up of a workload: a fresh interpreter's import (optional),
    input generation and warm-up.  Returns (seconds, workload, batches,
    first batch)."""
    imported = import_seconds() if fresh_import else 0.0
    t0 = time.perf_counter()
    workload = cls(seed, SRC, OUT_DIR, stream)
    workload.prepare()
    batches = workload.batches()
    first = next(batches)
    workload.warm_up()
    return imported + time.perf_counter() - t0, workload, batches, first


def measure(workload, batches, first, seconds: float, tally: Tally,
            setups: list, more_setup) -> dict:
    """Timed calls, batch after batch, until ``seconds`` of them have run.
    The reference routine is timed at checkpoints, after every CHECKPOINT_S
    of timed calls and at the end of each batch, and each call is
    speed-corrected by the checkpoints around it (:func:`scaled`).  Between
    batches, ``more_setup()`` adds set-ups until ``setups`` holds
    SETUP_REPEATS, spread evenly over the run, each one timed between two
    checkpoints.  Returns the end-to-end metrics and one (batch, checkpoint,
    wall, cpu, units) row per call."""
    rows: list[tuple[int, int, float, float, int]] = []
    refs = [reference_seconds()]
    timed = since = 0.0

    def add_setup() -> None:
        took = more_setup()
        refs.append(reference_seconds())
        setups.append((took, refs[-2], refs[-1]))

    guard = time.perf_counter() + 2.5 * seconds + 10
    batch = first
    for index in itertools.count():
        for item in batch:
            output, error, wall, used = run_item(workload, item)
            tally.record(checked(workload, item, output, error))
            rows.append((index, len(refs) - 1, wall, used, workload.size(item)))
            timed += wall
            since += wall
            if since >= CHECKPOINT_S:
                refs.append(reference_seconds())
                since = 0.0
        if since:
            refs.append(reference_seconds())
            since = 0.0
        if len(setups) < SETUP_REPEATS and timed >= seconds * len(setups) / SETUP_REPEATS:
            add_setup()
        if timed >= seconds or time.perf_counter() > guard:
            break
        batch = next(batches)
    while len(setups) < SETUP_REPEATS:
        add_setup()
    walls = [scaled(wall, refs[k], refs[k + 1]) for _, k, wall, _, _ in rows]
    cpus = [scaled(used, refs[k], refs[k + 1]) for _, k, _, used, _ in rows]
    per_batch = {}  # batch -> [wall, cpu, units]
    for (b, _, _, _, size), wall, used in zip(rows, walls, cpus):
        acc = per_batch.setdefault(b, [0.0, 0.0, 0])
        acc[0] += wall
        acc[1] += used
        acc[2] += size
    units = sum(row[4] for row in rows)
    pct, tail_value = tail(walls)
    raw_walls = [row[2] for row in rows]
    return {
        # a rare heavy input moves a mean far more than a median of batches
        "metrics": {
            "items_per_s": statistics.median(u / w for w, _, u in per_batch.values()),
            "latency_p50_ms": statistics.median(walls) * 1e3,
            "latency_tail_ms": tail_value * 1e3,
            "cpu_per_item_ms": statistics.median(
                c / u for _, c, u in per_batch.values()) * 1e3,
        },
        "env": {
            "tail_percentile": pct,
            "items": len(rows),
            "units": units,
            "batches": len(per_batch),
            "timed_s": timed,
            "reference_s_median": statistics.median(refs),
            "unscaled": {
                "items_per_s": units / timed,
                "latency_p50_ms": statistics.median(raw_walls) * 1e3,
                "latency_tail_ms": tail(raw_walls)[1] * 1e3,
                "cpu_per_item_ms": sum(row[3] for row in rows) / units * 1e3,
            },
        },
        "rows": rows,
        "refs": refs,
    }


def trace_run(workload, batches, first, seed: int, tally: Tally) -> dict:
    """A fixed list of inputs, each run once with spans recorded and once
    without, back to back so that both see the same machine speed."""
    from tracer import Tracer

    items = list(first)
    for _ in range(TRACE_BATCHES[workload.name] - 1):
        items.extend(next(batches))
    tracer = Tracer()
    tracer.install()
    traced = untraced = 0.0
    counts = getattr(workload, "skipped", {})  # simulate's skip reasons
    skipped = {"cap": 0, "rejection": 0}
    try:
        for index, item in enumerate(items):
            tracer.item_id = index
            output, error, wall, _ = run_item(workload, item)
            tracer.disable()
            before = dict(counts)
            tally.record(checked(workload, item, output, error))
            for reason, count in counts.items():
                skipped[reason] += count - before[reason]
            traced += wall
            output, error, wall, _ = run_item(workload, item)
            tally.record(checked(workload, item, output, error))
            untraced += wall
            tracer.enable()
    finally:
        tracer.disable()
    metrics = tracer.report()
    tracer.dump(OUT_DIR / f"trace-{workload.name}-{seed}.npz")
    metrics["cli.simulate.skipped_cap"] = skipped["cap"]
    metrics["cli.simulate.skipped_rejection"] = skipped["rejection"]
    metrics["trace.items"] = len(items)
    metrics["trace.traced_wall_s"] = traced
    metrics["trace.untraced_wall_s"] = untraced
    metrics["trace.overhead_s"] = traced - untraced
    metrics["trace.overhead_frac"] = (traced - untraced) / untraced
    return {"metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("simulate", "dense_idgraphs", "adjust"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mpdag" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'mpdag'}", file=sys.stderr)
        return 2
    threads_env = os.environ.pop("MPDAG_THREADS", None)
    sys.path.insert(0, str(SRC))
    import numpy
    import mpdag
    from workloads import WORKLOADS

    if Path(mpdag.__file__).resolve().parent != (SRC / "mpdag").resolve():
        print(f"error: mpdag imported from {mpdag.__file__}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)

    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        cls = WORKLOADS[args.workload]
        # the run measures stream 0; the other set-ups, one stream each,
        # are only timed, and are spread over the run so that a slow phase
        # of the machine catches few of them
        before = reference_seconds()
        took, workload, batches, first = set_up(cls, args.seed, 0, args.trace == 0)
        setups = [(took, before, reference_seconds())]

        def more_setup() -> float:
            took = set_up(cls, args.seed, len(setups), True)[0]
            gc.collect()  # the discarded inputs are not collected in a timed call
            return took

        tally = Tally()
        try:
            if args.trace:
                result = trace_run(workload, batches, first, args.seed, tally)
            else:
                result = measure(workload, batches, first, args.seconds, tally,
                                 setups, more_setup)
            check_reference(cls, tally)
        finally:
            workload.cleanup()

    metrics = result["metrics"]
    if args.trace == 0:
        # a set-up lasts up to a second, long enough for the machine to
        # switch speed several times: it is corrected by the mean of the
        # reference timings around all set-ups, their typical speed
        speed = statistics.mean(ref for _, *pair in setups for ref in pair)
        metrics["setup_s"] = statistics.median(took for took, _, _ in setups) * REFERENCE_S / speed
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = END_TO_END_UNITS
    else:
        units = {name: per_layer_unit(name) for name in metrics}
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "MPDAG_THREADS": "unset",
        "MPDAG_THREADS_removed": threads_env,
        "setup_runs_s": [setup[0] for setup in setups],
        "setup_refs_s": [setup[1:] for setup in setups],
    }
    if args.trace == 0:
        env.update(result["env"])
        (OUT_DIR / f"calls-{args.workload}-{args.seed}.json").write_text(
            json.dumps({"rows": result["rows"], "refs": result["refs"]}),
            encoding="utf-8")
    print("env " + json.dumps(env))
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    print(f"failed_frac {tally.failed / tally.attempted} ratio")
    for reason in tally.reasons:
        print(f"failure: {reason}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
