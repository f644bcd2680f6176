"""Span recorder for the traced benchmark run.

Wraps the public functions of the ``mpdag`` modules from outside the
package: every module of the package that holds a reference to a target
function (its defining module, the package namespace and any module that
imported it by name) gets the same wrapper, so calls made inside the library
are recorded too.  Each call becomes one span with its function, start and
end time, parent span and item id.  Spans are kept in typed arrays in memory
and written out once, when the run ends.  Self time is a span's duration
minus the durations of its direct children.

A few wrappers also count work at the same boundary (paths found, DAGs
enumerated, regressions solved, branch closures), which the per-layer report
turns into counts and ratios.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

# module -> public functions whose calls become spans
TARGETS: dict[str, tuple[str, ...]] = {
    "graphs": (
        "validate_pdag",
        "path_in",
        "proper_possibly_causal_paths",
        "possible_descendants",
        "possible_ancestors",
        "d_separated",
    ),
    "meek": (
        "meek_closure",
        "construct_mpdag",
        "enumerate_dags",
        "consistent_extension",
        "cpdag_of_dag",
    ),
    "identify": (
        "violating_paths",
        "forbidden_set",
        "g_formula",
        "is_adjustment_set",
        "find_adjustment_set",
    ),
    "idgraphs": ("id_graphs", "method2_graphs", "method3_graphs"),
    "linear": (
        "random_instance",
        "sample",
        "covariance",
        "redraw_coefficients",
        "regression_effect_for_dag",
        "estimate_effect",
    ),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns)


class Tracer:
    """Records spans around the target functions while enabled."""

    def __init__(self) -> None:
        self.fn = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.item_id = -1
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._distinct_solves: set = set()
        self._cov_keys: dict[int, tuple[object, bytes]] = {}
        self._extension = None
        self._patches: list[tuple[object, str, object, object]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Find every reference to a target function in the package and
        replace it by the function's wrapper."""
        modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == "mpdag" or name.startswith("mpdag."))
        ]
        for index, name in enumerate(SPAN_NAMES):
            mod_name, fn_name = name.split(".")
            original = getattr(sys.modules[f"mpdag.{mod_name}"], fn_name)
            wrapper = self._wrap(index, name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original, wrapper))
        self.enable()

    def enable(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def disable(self) -> None:
        """Put the original functions back; :meth:`enable` re-installs."""
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def _wrap(self, index: int, name: str, fn):
        before = _BEFORE.get(name)
        after = _AFTER.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(self.fn)
            self.fn.append(index)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.item.append(self.item_id)
            self.start.append(0)
            self.end.append(0)
            self.calls[name] += 1
            state = before(self) if before is not None else None
            self.stack.append(span)
            result = exc = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                t1 = clock()
                self.stack.pop()
                self.start[span] = t0
                self.end[span] = t1
                if after is not None:
                    after(self, state, args, kwargs, result, exc)

        return wrapper

    # -- helpers for the counting hooks ---------------------------------------

    def _cov_key(self, source) -> bytes:
        """Content key of the covariance a regression runs on.  A dataset
        and the covariance estimated from it share a key."""
        hit = self._cov_keys.get(id(source))
        if hit is not None and hit[0] is source:
            return hit[1]
        if hasattr(source, "matrix"):
            matrix = np.asarray(source.matrix)
        else:
            matrix = np.asarray(source.covariance())
        key = hashlib.blake2b(matrix.tobytes(), digest_size=16).digest()
        self._cov_keys[id(source)] = (source, key)  # holds a reference: ids stay unique
        return key

    def _count_solves(self, source, dag) -> None:
        key = self._cov_key(source)
        for node in dag.nodes:
            parents = dag.parents(node)
            if parents:
                self.counts["linear.solves"] += 1
                self._distinct_solves.add((key, node, tuple(sorted(parents))))

    # -- report ---------------------------------------------------------------

    def report(self) -> dict[str, float]:
        """Per-function calls and self time, plus the counts and ratios."""
        fn = np.frombuffer(self.fn, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64)).astype(np.float64)
        child = np.zeros(len(dur))
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self_ns = np.bincount(fn, weights=dur - child, minlength=len(SPAN_NAMES))
        calls = np.bincount(fn, minlength=len(SPAN_NAMES))
        out: dict[str, float] = {}
        for index, name in enumerate(SPAN_NAMES):
            out[f"{name}.calls"] = int(calls[index])
            out[f"{name}.self_s"] = float(self_ns[index]) / 1e9
        c = self.counts
        out["graphs.paths_found"] = c["graphs.paths_found"]
        out["meek.dags_enumerated"] = c["meek.dags_enumerated"]
        out["meek.construct_mpdag.conflict_frac"] = _ratio(
            c["meek.construct_mpdag.conflicts"], out["meek.construct_mpdag.calls"])
        finds = out["identify.find_adjustment_set.calls"]
        out["identify.find_adjustment_set.fallback_frac"] = _ratio(
            c["identify.find_adjustment_set.fallbacks"], finds)
        out["identify.find_adjustment_set.none_frac"] = _ratio(
            c["identify.find_adjustment_set.none"], finds)
        out["idgraphs.branches"] = c["idgraphs.branches"]
        out["idgraphs.output_graphs"] = c["idgraphs.output_graphs"]
        out["idgraphs.outputs_per_closure"] = _ratio(
            c["idgraphs.output_graphs"], c["idgraphs.closures"])
        out["idgraphs.combos_kept_frac"] = _ratio(
            c["idgraphs.combos_kept"], c["idgraphs.combos_tried"])
        out["linear.solves"] = c["linear.solves"]
        out["linear.solves_distinct"] = len(self._distinct_solves)
        out["trace.spans"] = len(dur)
        return out

    def dump(self, path: Path) -> None:
        """Write every span to ``path`` (numpy ``.npz``)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(SPAN_NAMES),
            fn=np.frombuffer(self.fn, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            item=np.frombuffer(self.item, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- counting hooks: before(tracer) -> state; after(tracer, state, args,
#    kwargs, result, exc).  They run outside the span's own interval.

def _calls_of(name: str):
    return lambda tr: tr.calls[name]


def _after_paths(tr, state, args, kwargs, result, exc):
    if exc is None:
        tr.counts["graphs.paths_found"] += len(result)


def _after_enumerate(tr, state, args, kwargs, result, exc):
    if exc is None:
        tr.counts["meek.dags_enumerated"] += len(result)


def _after_construct(tr, state, args, kwargs, result, exc):
    if type(exc).__name__ == "OrientationConflictError":
        tr.counts["meek.construct_mpdag.conflicts"] += 1


def _after_find(tr, state, args, kwargs, result, exc):
    if exc is not None:
        return
    if tr.calls["identify.is_adjustment_set"] - state > 1:
        tr.counts["identify.find_adjustment_set.fallbacks"] += 1
    if result is None:
        tr.counts["identify.find_adjustment_set.none"] += 1


def _after_id_graphs(tr, state, args, kwargs, result, exc):
    if exc is None:
        tr.counts["idgraphs.branches"] += len(result.audit)
        tr.counts["idgraphs.output_graphs"] += result.n
        tr.counts["idgraphs.closures"] += tr.calls["meek.construct_mpdag"] - state


def _after_method(tr, state, args, kwargs, result, exc):
    if exc is None:
        tr.counts["idgraphs.combos_tried"] += tr.calls["meek.construct_mpdag"] - state
        tr.counts["idgraphs.combos_kept"] += len(result)


def _after_extension(tr, state, args, kwargs, result, exc):
    tr._extension = result


def _before_estimate(tr):
    tr._extension = None


def _after_estimate(tr, state, args, kwargs, result, exc):
    if exc is not None:
        return
    dag = kwargs.get("extension", args[4] if len(args) > 4 else None)
    tr._count_solves(args[0], dag if dag is not None else tr._extension)


def _after_regression(tr, state, args, kwargs, result, exc):
    if exc is None:
        tr._count_solves(args[0], args[1])


_BEFORE = {
    "identify.find_adjustment_set": _calls_of("identify.is_adjustment_set"),
    "idgraphs.id_graphs": _calls_of("meek.construct_mpdag"),
    "idgraphs.method2_graphs": _calls_of("meek.construct_mpdag"),
    "idgraphs.method3_graphs": _calls_of("meek.construct_mpdag"),
    "linear.estimate_effect": _before_estimate,
}

_AFTER = {
    "graphs.proper_possibly_causal_paths": _after_paths,
    "meek.enumerate_dags": _after_enumerate,
    "meek.construct_mpdag": _after_construct,
    "identify.find_adjustment_set": _after_find,
    "idgraphs.id_graphs": _after_id_graphs,
    "idgraphs.method2_graphs": _after_method,
    "idgraphs.method3_graphs": _after_method,
    "meek.consistent_extension": _after_extension,
    "linear.estimate_effect": _after_estimate,
    "linear.regression_effect_for_dag": _after_regression,
}
