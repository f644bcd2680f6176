"""The three seeded workloads: inputs, the timed call, and output checks.

Every workload hands out its inputs in batches drawn from the workload seed,
so the same seed gives the same inputs.  ``stream`` picks one of several
independent input streams of a seed: the run measures stream 0, and the
repeated set-ups of ``run.py`` use one stream each, so that the set-up time
they report is not that of one seed's particular inputs.  Inputs are drawn
between timed calls and are never handed out twice in a run: a later change
that memoises results cannot turn repeated inputs into cache hits.  Where
drawing an input calls into the library (``adjust`` computes its fallback
size that way), the timed call gets an isomorphic copy with renamed nodes.

* ``simulate`` runs the paper's study through ``mpdag.cli.main``, one block of
  consecutive instance seeds per call.
* ``dense_idgraphs`` runs ``violating_paths`` and then ``id_graphs`` (the
  pair behind ``mpdag idgraphs``) on fully undirected chordal graphs, plus the
  complete graphs K6, K7 and K8.
* ``adjust`` orients part of a random CPDAG from background knowledge and
  asks, on the identified graph or on each ``id_graphs`` member, for the
  identification formula, an adjustment set and one d-separation verdict.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional

import jsonschema
import numpy as np

import mpdag
import mpdag.cli

# ---------------------------------------------------------------- simulate


class Simulate:
    """``mpdag simulate --p 12 --deg 3 --n 500`` over blocks of seeds."""

    name = "simulate"
    BLOCK = 16  # instances per call: work for a future pool on two cores
    WARM_UP_SEED = 999_001
    STUDY = ("--p", "12", "--deg", "3", "--n", "500")
    _SKIP_CAP = re.compile(r"class size \d+ above cap")
    _SKIP_REJECTION = re.compile(r"no unidentified treatment/outcome pair found")

    def __init__(self, seed: int, src: Path, out_dir: Path, stream: int = 0) -> None:
        self.seed = seed  # set-up generates no inputs here, so every stream is alike
        self.schema_path = src / "mpdag" / "schemas" / "simulate-record.json"
        self.out_path = out_dir / f"simulate-{seed}.jsonl"
        self.skipped = {"cap": 0, "rejection": 0}

    def prepare(self) -> None:
        schema = json.loads(self.schema_path.read_text(encoding="utf-8"))
        self.validator = jsonschema.Draft202012Validator(schema)
        self.base = self.seed * 1_000_000 + 1

    def batches(self) -> Iterator[list[int]]:
        for block in itertools.count():
            yield [self.base + block * self.BLOCK]

    def warm_up(self) -> None:
        # the same two instances for every seed, far from any measured block,
        # so that set-up time does not depend on how hard they happen to be
        self.check(self.WARM_UP_SEED, self.run(self.WARM_UP_SEED, reps=2), reps=2)

    def run(self, first_seed: int, reps: int = BLOCK) -> int:
        return mpdag.cli.main([
            "simulate", *self.STUDY, "--reps", str(reps),
            "--seed", str(first_seed), "--out", str(self.out_path),
        ])

    def size(self, first_seed: int) -> int:
        return self.BLOCK

    def check(self, first_seed: int, status: int, reps: int = BLOCK) -> Optional[str]:
        if status != 0:
            return f"exit status {status}"
        lines = self.out_path.read_text(encoding="utf-8").splitlines()
        if len(lines) != reps:
            return f"{len(lines)} records for {reps} seeds"
        for offset, line in enumerate(lines):
            record = json.loads(line)
            error = next(self.validator.iter_errors(record), None)
            if error is not None:
                return f"record {offset}: {error.message}"
            if record["seed"] != first_seed + offset:
                return f"record {offset} has seed {record['seed']}"
            reason = record.get("skipped")
            if reason is None:
                continue
            # _simulate_one catches every exception: only the two budgets may skip
            if self._SKIP_CAP.search(reason):
                self.skipped["cap"] += 1
            elif self._SKIP_REJECTION.search(reason):
                self.skipped["rejection"] += 1
            else:
                return f"seed {record['seed']} skipped: {reason}"
        return None

    def cleanup(self) -> None:
        self.out_path.unlink(missing_ok=True)


# ------------------------------------------------------- stratified inputs


def _take(backlog: list[list], quotas: tuple[int, ...], draw, max_draws: int) -> list:
    """Draw until the backlog of every band holds its quota, then take the
    quotas band by band.  A draw that lands in a band already filled waits in
    that band's backlog for a later batch."""
    for _ in range(max_draws):
        if all(len(pool) >= quota for pool, quota in zip(backlog, quotas)):
            break
        draw()
    else:
        raise RuntimeError(f"band quotas {quotas} not met in {max_draws} draws")
    taken = []
    for pool, quota in zip(backlog, quotas):
        taken += pool[:quota]
        del pool[:quota]
    return taken


# ---------------------------------------------------------- dense_idgraphs


@dataclass(frozen=True)
class DenseQuery:
    graph: mpdag.Mpdag
    treatments: tuple[str, ...]
    outcomes: tuple[str, ...]
    m: int  # simple A-Y paths, counted when the query was drawn
    complete: Optional[int] = None  # k for the complete graph K_k


def _count_simple_paths(adj: list[set[int]], a: int, y: int, limit: int,
                        budget: int) -> Optional[int]:
    """Simple a-y paths of an undirected graph, or None past ``limit``
    paths or ``budget`` DFS steps.  In a fully undirected graph these are
    exactly the violating paths of (a, y), so this is m."""
    seen, todo = {a}, [a]
    while todo:  # without this, a DFS from a walks its whole component for nothing
        for w in adj[todo.pop()] - seen:
            seen.add(w)
            todo.append(w)
    if y not in seen:
        return 0
    count = steps = 0
    on_path = {a}
    stack = [(a, iter(sorted(adj[a])))]
    while stack:
        node, todo = stack[-1]
        nxt = next(todo, None)
        if nxt is None:
            stack.pop()
            on_path.discard(node)
            continue
        if nxt in on_path:
            continue
        steps += 1
        if steps > budget:
            return None
        if nxt == y:  # a simple path cannot come back to y
            count += 1
            if count >= limit:
                return None
            continue
        on_path.add(nxt)
        stack.append((nxt, iter(sorted(adj[nxt]))))
    return count


def _complete_graph(prefix: str, k: int) -> mpdag.Mpdag:
    """K_k on nodes ``{prefix}v0`` .. ``{prefix}v{k-1}``, all edges undirected."""
    names = [f"{prefix}v{i}" for i in range(k)]
    pairs = [(u, w) for i, u in enumerate(names) for w in names[i + 1:]]
    return mpdag.meek_closure(mpdag.PartiallyDirectedGraph(names, (), pairs))


def _complete_paths(k: int) -> int:
    """Simple paths between two fixed nodes of K_k: an ordered choice of
    0 to k-2 of the other nodes."""
    return sum(math.perm(k - 2, j) for j in range(k - 1))


class DenseIdgraphs:
    """Minimal enumeration on dense undirected chordal graphs.

    Random queries come from an ER skeleton (p = 10, edge probability 0.3)
    triangulated along a random elimination order, with a random singleton
    A and Y joined by at least one path.  Left to chance, about one query in
    fifty has m > 10^4 and takes seconds, as long as a hundred typical
    queries, so the runs of two seeds could not be compared: random queries
    are kept only below m = 1024.  Every round holds the same number of
    queries from each m band, in proportion to how often a draw lands in
    that band (QUOTAS), so every round has the draws' own m profile.  Each
    round ends with K6, K7 and K8 (A = first node, Y = second); they carry
    the dense end (K8 has m = 1957) and, being the slowest queries, set the
    tail latency.
    """

    name = "dense_idgraphs"
    P, EDGE_PROB = 10, 0.3
    BANDS = ((1, 8), (8, 32), (32, 128), (128, 256), (256, 512), (512, 1024))
    # shares of the bands among kept draws, seeds 1-4 x 2000 draws:
    # 9%, 13%, 28%, 18%, 17%, 16%
    QUOTAS = (2, 3, 7, 4, 4, 4)
    COMPLETE = (6, 7, 8)
    DFS_BUDGET = 100_000
    SETUP_DRAWS = 150  # a fixed amount of input generation before timing
    MAX_DRAWS = 2000  # per round
    BACKLOG = 50

    def __init__(self, seed: int, src: Path, out_dir: Path, stream: int = 0) -> None:
        self.seed, self.stream = seed, stream

    def prepare(self) -> None:
        self.rng = np.random.default_rng([self.seed, 0xD3, self.stream])
        self.backlog: list[list[tuple]] = [[] for _ in self.BANDS]
        for _ in range(self.SETUP_DRAWS):
            self._draw()

    def _draw(self) -> None:
        p, rng = self.P, self.rng
        adj: list[set[int]] = [set() for _ in range(p)]
        for i in range(p):
            for j in range(i + 1, p):
                if rng.random() < self.EDGE_PROB:
                    adj[i].add(j)
                    adj[j].add(i)
        eliminated: set[int] = set()
        for v in rng.permutation(p):
            left = sorted(w for w in adj[v] if w not in eliminated)
            for u, w in itertools.combinations(left, 2):
                adj[u].add(w)
                adj[w].add(u)
            eliminated.add(int(v))
        a, y = (int(v) for v in rng.choice(p, size=2, replace=False))
        m = _count_simple_paths(adj, a, y, self.BANDS[-1][1], self.DFS_BUDGET)
        if not m:  # identified (no path) or beyond the last band
            return
        for band, (low, high) in enumerate(self.BANDS):
            if low <= m < high and len(self.backlog[band]) < self.BACKLOG:
                self.backlog[band].append((adj, a, y, m))

    @staticmethod
    def _query(prefix: str, adj, a: int, y: int, m: int) -> DenseQuery:
        names = [f"{prefix}v{i}" for i in range(len(adj))]
        und = [(names[u], names[w]) for u in range(len(adj)) for w in adj[u] if u < w]
        graph = mpdag.meek_closure(mpdag.PartiallyDirectedGraph(names, (), und))
        return DenseQuery(graph, (names[a],), (names[y],), m)

    @staticmethod
    def _complete_query(prefix: str, k: int) -> DenseQuery:
        graph = _complete_graph(prefix, k)
        return DenseQuery(graph, graph.nodes[:1], graph.nodes[1:2],
                          _complete_paths(k), complete=k)

    def batches(self) -> Iterator[list[DenseQuery]]:
        for index in itertools.count():
            prefix = f"r{index}"
            drawn = _take(self.backlog, self.QUOTAS, self._draw, self.MAX_DRAWS)
            batch = [self._query(prefix, *args) for args in drawn]
            batch += [self._complete_query(f"{prefix}k{k}", k) for k in self.COMPLETE]
            yield batch

    def warm_up(self) -> None:
        query = self._complete_query("w", 5)
        self.check(query, self.run(query))

    def run(self, q: DenseQuery):
        m = len(mpdag.violating_paths(q.graph, q.treatments, q.outcomes))
        return m, mpdag.id_graphs(q.graph, q.treatments, q.outcomes)

    def size(self, q: DenseQuery) -> int:
        return 1

    def check(self, q: DenseQuery, output) -> Optional[str]:
        m, result = output
        if m != q.m or result.m != m:
            return f"m = {m} (id_graphs {result.m}), expected {q.m}"
        if not 1 <= result.n <= 2 ** m:
            return f"n = {result.n} outside [1, 2^{m}]"
        if q.complete is not None and result.n != 2 ** (q.complete - 2) + 1:
            return f"K{q.complete}: n = {result.n}"
        return None

    def digest(self, q: DenseQuery, output) -> str:
        m, result = output
        members = sorted("; ".join(g.graph.edge_lines()) for g in result.graphs)
        return hashlib.sha256("\n".join([f"{m} {result.n}", *members]).encode()).hexdigest()

    def cleanup(self) -> None:
        pass


# ------------------------------------------------------------------ adjust


@dataclass(frozen=True)
class AdjustQuery:
    cpdag: mpdag.Mpdag
    requests: tuple[tuple[str, str], ...]
    treatments: frozenset[str]
    outcomes: frozenset[str]


class Adjust:
    """Background knowledge, then formula, adjustment set and d-separation.

    Each query starts from ``random_instance(12, 3, s)``, orients a random
    third of the CPDAG's undirected edges as in the true DAG, and runs
    ``g_formula``, ``find_adjustment_set`` and ``d_separated(A, Y | pa(A) \\ Y)``
    on the identified graph or on each ``id_graphs`` member.  Queries whose
    exhaustive adjustment search would test 100 or more subsets (two in five
    instances) are left out: one of them can take as long as a hundred
    others, and the run-to-run spread would swamp any bound.  Each batch
    holds the same number of queries from each band of that search size, in
    proportion to how often a draw lands in that band (QUOTAS), so every
    batch has the draws' own mix.  Each batch ends with the complete graph K7
    (A = first node, Y = second, no background knowledge): 33 members, one
    of which has no adjustment set.  Slower than nearly every random query,
    it sets the tail latency the way K8 does for ``dense_idgraphs``.
    """

    name = "adjust"
    P, DEG = 12, 3
    # bands of fallback subsets tested, the strongest predictor of a query's
    # time; shares among kept draws, seeds 1-4 x 600 instances: 52%, 22%, 26%
    BANDS = ((0, 1), (1, 10), (10, 100))
    QUOTAS = (12, 5, 6)
    COMPLETE = 7
    SETUP_DRAWS = 80  # a fixed amount of input generation before timing
    MAX_DRAWS = 1000  # per batch
    BACKLOG = 50

    def __init__(self, seed: int, src: Path, out_dir: Path, stream: int = 0) -> None:
        self.seed, self.stream = seed, stream

    def prepare(self) -> None:
        self.next_seed = self.seed * 1_000_000 + self.stream * 100_000
        self.backlog: list[list[AdjustQuery]] = [[] for _ in self.BANDS]
        for _ in range(self.SETUP_DRAWS):
            self._draw()

    def _draw(self) -> None:
        drawn = self._make(self.next_seed)
        self.next_seed += 1
        if drawn is not None and len(self.backlog[drawn[0]]) < self.BACKLOG:
            self.backlog[drawn[0]].append(drawn[1])

    def _make(self, s: int) -> Optional[tuple[int, AdjustQuery]]:
        """The query of instance seed ``s`` with its band, or None when the
        instance is rejected or its search size is past the last band."""
        try:
            inst = mpdag.random_instance(self.P, self.DEG, s)
        except mpdag.RejectionBudgetError:
            return None
        rng = np.random.default_rng([s, 0xAD])
        undirected = sorted(inst.cpdag.graph.undirected)
        truth = [(u, v) if (u, v) in inst.dag.directed else (v, u) for u, v in undirected]
        picks = sorted(rng.choice(len(truth), size=len(truth) // 3, replace=False))
        requests = tuple(truth[i] for i in picks)
        a_set, y_set = set(inst.treatments), {inst.outcome}
        size = self._search_size(inst.cpdag, requests, a_set, y_set)
        band = next((b for b, (low, high) in enumerate(self.BANDS) if low <= size < high),
                    None)
        if band is None:
            return None
        # the timed call gets a renamed copy; the order of names is unchanged
        rename = {n: "q" + n for n in inst.cpdag.nodes}
        g = inst.cpdag.graph
        copy = mpdag.Mpdag(mpdag.PartiallyDirectedGraph(
            rename.values(),
            [(rename[t], rename[h]) for t, h in g.directed],
            [(rename[u], rename[v]) for u, v in g.undirected],
        ))
        return band, AdjustQuery(
            copy,
            tuple((rename[t], rename[h]) for t, h in requests),
            frozenset(rename[a] for a in a_set),
            frozenset(rename[y] for y in y_set),
        )

    @staticmethod
    def _search_size(cpdag, requests, a_set, y_set) -> int:
        """Subsets ``find_adjustment_set`` would test after the canonical
        set fails, summed over the graphs a query asks about."""
        total = 0
        for member in Adjust._members(mpdag.construct_mpdag(cpdag, list(requests)),
                                      a_set, y_set):
            forbidden = mpdag.forbidden_set(member, a_set, y_set)
            canonical = (mpdag.possible_ancestors(member.graph, a_set | y_set)
                         - forbidden - a_set - y_set)
            if not mpdag.is_adjustment_set(member, a_set, y_set, canonical):
                total += 2 ** len(set(member.nodes) - a_set - y_set - forbidden)
        return total

    @staticmethod
    def _members(g, a_set, y_set) -> list:
        if mpdag.is_identified(g, a_set, y_set):
            return [g]
        return list(mpdag.id_graphs(g, a_set, y_set).graphs)

    def batches(self) -> Iterator[list[AdjustQuery]]:
        for index in itertools.count():
            batch = _take(self.backlog, self.QUOTAS, self._draw, self.MAX_DRAWS)
            graph = _complete_graph(f"b{index}k", self.COMPLETE)
            batch.append(AdjustQuery(graph, (), frozenset(graph.nodes[:1]),
                                     frozenset(graph.nodes[1:2])))
            yield batch

    def warm_up(self) -> None:
        # the same small query for every seed, so that set-up time does not
        # depend on how hard one random instance happens to be
        graph = _complete_graph("w", 5)
        v = graph.nodes
        query = AdjustQuery(graph, ((v[2], v[3]),), frozenset(v[:1]), frozenset(v[1:2]))
        self.check(query, self.run(query))

    def run(self, q: AdjustQuery):
        g = mpdag.construct_mpdag(q.cpdag, list(q.requests))
        out = []
        for member in self._members(g, q.treatments, q.outcomes):
            formula = mpdag.g_formula(member, q.treatments, q.outcomes)
            found = mpdag.find_adjustment_set(member, q.treatments, q.outcomes)
            given = mpdag.parents_of_set(member.graph, q.treatments) - q.outcomes
            separated = mpdag.d_separated(member.graph, q.treatments, q.outcomes, given)
            out.append((member, formula, found, separated))
        return out

    def size(self, q: AdjustQuery) -> int:
        return 1

    def check(self, q: AdjustQuery, output) -> Optional[str]:
        for member, formula, found, separated in output:
            if found is not None and not mpdag.is_adjustment_set(
                member, q.treatments, q.outcomes, found
            ):
                return f"returned set {sorted(found)} is not an adjustment set"
        return None

    def digest(self, q: AdjustQuery, output) -> str:
        text = sorted(
            f"{formula} | {sorted(found) if found is not None else None} | {separated}"
            for member, formula, found, separated in output
        )
        return hashlib.sha256("\n".join(text).encode()).hexdigest()

    def cleanup(self) -> None:
        pass


WORKLOADS = {w.name: w for w in (Simulate, DenseIdgraphs, Adjust)}
