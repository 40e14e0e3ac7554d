"""The closed query loop, the correctness check and the statistics that
every workload shares.

The loop cycles through the workload's pool of queries, so each query
runs several times in a run.

Latencies are given at a fixed host speed. On a shared host, other
work slows every core alike, by up to twice, for tens of seconds at a
time, longer than a run, so even a query's fastest run moves with it.
So right before each query, and each set-up, the loop measures how
much slower than a fixed reference speed the host runs now, and
divides the query's latency, or the set-up's time, by that slowdown.
Single-node, the slowdown is the time of a fixed pure-Python kernel
(:func:`host_reference`), which calls nothing of the program, over
``REF_SECONDS``. The interpreter work the kernel does slows with the
host as the single-node engine's does: on a 4-vCPU VM, the median
latency of 20-second windows spread 0.09-0.26 of its median between
windows, and the scaled median 0.035-0.041. A Spark query's time does
not follow that kernel's, so ``sparkrun`` times a fixed Spark job
instead. The measured times and the slowdowns are kept in
``detail``.
"""
from __future__ import annotations

import os
import statistics
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.baselines.exact_scan import match_counts
from repro.core.pexeso import t_abs
from repro.embedding.hashing import embed_many

from workloads import T, Workload

__all__ = ["WARMUP", "REF_SECONDS", "host_reference", "host_slowdown",
           "repeat_setup",
           "QueryRun", "closed_loop", "query_vectors", "Checker",
           "scaled_seconds", "latency_stats", "queries_per_s", "end_to_end",
           "PeakRss"]

#: Queries sent before timing starts; the first query of a process pays
#: for lazy set-up (imports, Spark's Python workers and code generation).
WARMUP = 2
#: Set-ups per run, at least; cheap set-ups repeat until they have taken
#: ``SETUP_SECONDS``. ``setup_s`` is their median.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
#: The reference host speed, as the time of one :func:`host_reference`
#: pass: about its median time on the 4-vCPU VM the benchmark was tuned
#: on.
REF_SECONDS = 0.004
#: Integer keys counted by :func:`host_reference`, the same on every run.
_REF_KEYS = np.random.default_rng(0).integers(0, 5_000, 40_000).tolist()


def host_reference() -> float:
    """Seconds one pass of a fixed pure-Python kernel takes now.

    The kernel counts integer keys in a dict and collects the frequent
    ones in a set: the interpreter's dict, set and integer work, which
    ``core.verify`` and ``core.block`` spend their time on. It calls
    nothing of the program, so no change to the program can move it.
    One pass, not the fastest of several: the host slows in bursts
    shorter than a query, and the fastest pass misses the bursts that a
    query runs through.
    """
    t0 = time.perf_counter()
    counts: dict[int, int] = {}
    for k in _REF_KEYS:
        counts[k] = counts.get(k, 0) + 1
    frequent = set()
    for k, n in counts.items():
        if n > 3:
            frequent.add(k)
    return time.perf_counter() - t0


def host_slowdown() -> float:
    """How many times slower than the reference speed the host runs now."""
    return host_reference() / REF_SECONDS


@dataclass
class QueryRun:
    """One query as sent by the loop, with what came back."""

    i: int
    key: int                                # the query's index in the pool
    query: object
    warmup: bool
    seconds: float = 0.0
    slowdown: float = 1.0                   # the host's, right before
    answer: set[int] | None = None          # joinable column indices
    n_matched: dict[int, int] = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
    error: str | None = None

    @property
    def scaled(self) -> float:
        """The latency at the reference host speed, in seconds."""
        return self.seconds / self.slowdown


def repeat_setup(setup: Callable[[], float],
                 slowdown: Callable[[], float] = host_slowdown,
                 ) -> list[tuple[float, float]]:
    """Durations of repeated calls of ``setup``, which returns its own,
    each with the host's ``slowdown()`` measured right before it."""
    samples: list[tuple[float, float]] = []
    while (len(samples) < SETUP_REPEATS
           or sum(s for s, _ in samples) < SETUP_SECONDS):
        before = slowdown()
        samples.append((setup(), before))
    return samples


def query_vectors(w: Workload, query) -> np.ndarray:
    """The query column as vectors: embedded strings, or the vectors."""
    if w.model is None:
        return query
    return embed_many(query, model=w.model, dim=w.dim)


def closed_loop(
    w: Workload,
    run_query: Callable[[QueryRun], None],
    seconds: float,
    first_id: int,
    *,
    warmup: int = WARMUP,
    after: Callable[[QueryRun], None] | None = None,
    slowdown: Callable[[], float] = host_slowdown,
) -> tuple[list[QueryRun], float]:
    """One client issuing one query at a time until ``seconds`` are used.

    Query ``i`` is the pool's query ``i % w.pool``. ``run_query(run)``
    fills in the answer; its wall time is the query's latency.
    ``slowdown()``, the host's slowdown against the reference speed, is
    measured right before it. Query generation, the slowdown and
    ``after`` run outside the measured time. Returns every query sent
    and the measured wall time of the non-warm-up queries.
    """
    runs: list[QueryRun] = []
    wall = 0.0
    i = first_id
    while len(runs) < warmup or wall < seconds:
        key = i % w.pool
        it = QueryRun(i, key, w.query(key), warmup=len(runs) < warmup)
        it.slowdown = slowdown()
        t0 = time.perf_counter()
        try:
            run_query(it)
        except Exception:  # a raising query is a failed query, not a crash
            it.error = traceback.format_exc(limit=3)
        it.seconds = time.perf_counter() - t0
        if not it.warmup:
            wall += it.seconds
        if after is not None:
            after(it)
        runs.append(it)
        i += 1
    return runs, wall


class Checker:
    """Compares answers with the brute-force scan, outside timed regions.

    The scan runs once per pool query; its answer is kept for the
    query's later runs.
    """

    def __init__(self, w: Workload) -> None:
        self.w = w
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.truths: dict[int, tuple[set[int], np.ndarray]] = {}  # by key
        self.q_sizes: dict[int, int] = {}
        self.scan_seconds: list[float] = []
        self.returned = 0                   # joinable columns returned
        self.n_matched_exact = 0            # ... with the brute-force count

    def _scan(self, Q: np.ndarray) -> tuple[set[int], np.ndarray]:
        w = self.w
        counts = match_counts(Q, w.X, w.col_of_vector, w.n_cols, w.tau)
        return set(np.flatnonzero(counts >= t_abs(T, len(Q))).tolist()), counts

    def check(self, it: QueryRun) -> None:
        """Check one answer; the query's first scan is timed."""
        self.attempted += 1
        if it.error is not None:
            self.fail(f"query {it.i} raised:\n{it.error}")
            return
        Q = it.extra["Q"]
        if it.key not in self.truths:
            t0 = time.perf_counter()
            self.truths[it.key] = self._scan(Q)
            self.scan_seconds.append(time.perf_counter() - t0)
        want, counts = self.truths[it.key]
        self.q_sizes[it.key] = len(Q)
        if it.answer != want:
            self.fail(f"query {it.i}: got {sorted(it.answer)[:10]}, "
                      f"brute force {sorted(want)[:10]}")
        self.returned += len(it.n_matched)
        self.n_matched_exact += sum(
            int(counts[c]) == n for c, n in it.n_matched.items())

    def check_all(self, runs: list[QueryRun]) -> None:
        """Check many answers, scanning in one thread per core.

        The scan is numpy work that releases the interpreter lock, and
        BLAS is pinned to one thread, so threads scale it. Scans run this
        way are not timed: ``scan.ms`` comes from :meth:`check` alone.
        """
        first = {it.key: it for it in runs
                 if it.error is None and it.key not in self.truths}
        with ThreadPoolExecutor(len(os.sched_getaffinity(0))) as pool:
            self.truths.update(zip(first, pool.map(
                lambda it: self._scan(it.extra["Q"]), first.values())))
        for it in runs:
            self.check(it)

    def fail(self, msg: str) -> None:
        self.failed += 1
        self.errors.append(msg)

    def n_matched_exact_frac(self) -> float:
        return self.n_matched_exact / self.returned if self.returned else 1.0

    def properties(self) -> dict[str, float]:
        """Workload-property counters over the pool queries checked."""
        sizes = [len(want) for want, _ in self.truths.values()] or [0]
        return {
            "workload.nonempty_frac": float(np.mean([s > 0 for s in sizes])),
            "workload.mean_answer_size": float(np.mean(sizes)),
            "workload.query_vectors":
                float(np.mean(list(self.q_sizes.values()) or [0])),
            "workload.vectors": float(len(self.w.X)),
            "workload.columns": float(self.w.n_cols),
            "workload.dims": float(self.w.dim),
        }


def _timed_ok(runs: list[QueryRun]) -> list[QueryRun]:
    return [it for it in runs if not it.warmup and it.error is None]


def scaled_seconds(runs: list[QueryRun]) -> dict[int, float]:
    """Each pool query's median scaled latency over its timed runs."""
    per: dict[int, list[float]] = {}
    for it in _timed_ok(runs):
        per.setdefault(it.key, []).append(it.scaled)
    return {k: statistics.median(v) for k, v in per.items()}


def latency_stats(runs: list[QueryRun], wall: float) -> dict:
    """Median and tail latency in ms over the pool queries' scaled
    latencies, with what they rest on.

    The median and the tail are the 50th and 75th percentiles over the
    pool's queries, each at its median over its runs. A pool holds a few
    dozen queries at most, too few for the highest percentile with ten
    samples beyond it; that percentile of every timed run's measured
    latency is given as ``measured_tail_ms``. Higher tails repeated
    worse. In three sets of ten runs of ``swdc-verify``, the 90th
    percentile of every run's scaled latency spread up to 0.245 of its
    median between runs (each slowdown is read from one short pass, and
    that tail collects the misread ones), the 90th percentile over the
    queries up to 0.126 (it rests on one or two queries), and this one
    up to 0.083. Every
    run's measured latency and host slowdown are kept, in the order the
    queries ran, beside its query's pool index.
    """
    timed = _timed_ok(runs)
    per_query = sorted(1e3 * s for s in scaled_seconds(runs).values()) or [0.0]
    ms = sorted(1e3 * it.seconds for it in timed) or [0.0]
    n = len(ms)
    tail = (statistics.quantiles(per_query, n=4, method="inclusive")[-1]
            if len(per_query) > 1 else per_query[0])
    slowdowns = [it.slowdown for it in timed] or [1.0]
    return {
        "p50": statistics.median(per_query), "tail": tail,
        "tail_percentile": 75.0, "queries": len(per_query), "runs": n,
        "slowdown_median": statistics.median(slowdowns),
        "measured_p50_ms": statistics.median(ms),
        "measured_tail_ms": ms[n - 11] if n >= 20 else ms[-1],
        "measured_tail_percentile":
            round(100.0 * (n - 10) / n, 1) if n >= 20 else 100.0,
        "measured_queries_per_s": len(timed) / wall if wall else 0.0,
        "samples": [[it.key, round(1e3 * it.seconds, 2),
                     round(it.slowdown, 4)] for it in timed],
    }


def queries_per_s(runs: list[QueryRun]) -> float:
    """Pool queries over the sum of their scaled latencies: the rate one
    client completes the pool at, at the reference host speed."""
    per_query = scaled_seconds(runs)
    return len(per_query) / sum(per_query.values()) if per_query else 0.0


def end_to_end(runs: list[QueryRun], wall: float,
               setup: list[tuple[float, float]],
               peak_rss_mb: float) -> tuple[dict[str, float], dict]:
    """The end-to-end metrics of one run, and its latency detail."""
    lat = latency_stats(runs, wall)
    return {
        "query_ms_p50": lat["p50"],
        "query_ms_tail": lat["tail"],
        "queries_per_s": queries_per_s(runs),
        "setup_s": statistics.median(s / d for s, d in setup),
        "peak_rss_mb": peak_rss_mb,
    }, {"latency": lat, "setup_samples_s": [s for s, _ in setup],
        "setup_slowdowns": [d for _, d in setup]}


class PeakRss:
    """Peak resident set size of this process since :meth:`reset`.

    Resets the kernel's high-water mark through ``/proc/self/clear_refs``
    so that data generation before set-up is not counted; where the
    kernel refuses, the peak covers the whole process.
    """

    def reset(self) -> None:
        try:
            with open("/proc/self/clear_refs", "w") as f:
                f.write("5")
            self.reset_ok = True
        except OSError:
            self.reset_ok = False

    @staticmethod
    def mb() -> float:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc/self/status")
