"""Single-node workloads: ``PexesoIndex`` built in process, queried in a
closed loop, every answer checked against the brute-force scan.

The end-to-end run calls only the engine's entry points,
``PexesoIndex(...)`` and ``.search``. The traced run replays the build
and the search through the public functions of each ``core`` module,
times every call as a span, and asserts that the replay gives the same
pivots, joinable set and counters as ``engine.search``.
"""
from __future__ import annotations

import statistics
import time
import tracemalloc
from typing import Callable

import numpy as np

from repro.core import block as blockmod
from repro.core import verify as verifymod
from repro.core.grid import HierarchicalGrid
from repro.core.inverted import InvertedIndex
from repro.core.pexeso import PexesoIndex, t_abs
from repro.core.pivots import pivot_map, select_pivots

from common import (WARMUP, Checker, QueryRun, PeakRss, closed_loop, end_to_end,
                    queries_per_s, query_vectors, repeat_setup)
from tracing import Tracer
from workloads import M, N_PIVOTS, T, Workload

__all__ = ["build", "run_end_to_end", "run_traced", "TracedSingle",
           "QUERY_LAYERS"]

#: Layers a traced query passes through, in call order.
QUERY_LAYERS = ["embedding.hashing", "core.pivots", "core.grid",
                "core.block", "core.verify"]


def build(w: Workload) -> PexesoIndex:
    return PexesoIndex(w.X, w.col_of_vector, w.n_cols, n_pivots=N_PIVOTS, m=M)


def engine_query(w: Workload, engine: PexesoIndex):
    """Query column in, joinable set out, through the stable entry points."""

    def run(it: QueryRun) -> None:
        Q = query_vectors(w, it.query)
        res = engine.search(Q, w.tau, T)
        it.answer = res.joinable
        it.n_matched = {c: int(res.match_counts[c]) for c in res.joinable}
        it.extra["Q"] = Q

    return run


def run_end_to_end(make: Callable[[], Workload],
                   seconds: float) -> tuple[dict, Checker, dict]:
    w = make()
    rss = PeakRss()
    rss.reset()
    engine = None

    def setup_once() -> float:
        nonlocal engine
        engine = None  # free the previous index so the peak holds one
        t0 = time.perf_counter()
        engine = build(w)
        return time.perf_counter() - t0

    setup = repeat_setup(setup_once)
    runs, wall = closed_loop(w, engine_query(w, engine), seconds, 0)
    peak = rss.mb()

    checker = Checker(w)
    checker.check_all(runs)
    metrics, detail = end_to_end(runs, wall, setup, peak)
    detail.update(peak_rss_since_setup=rss.reset_ok,
                  properties=checker.properties())
    return metrics, checker, detail


class TracedSingle:
    """Replays the engine layer by layer under spans, on one workload."""

    def __init__(self, w: Workload, engine: PexesoIndex, tracer: Tracer) -> None:
        self.w, self.engine, self.tr = w, engine, tracer
        self.mismatches: list[str] = []
        self.counts: dict[str, list[float]] = {}

    def replay_build(self) -> dict[str, float]:
        """Replay ``PexesoIndex.__init__`` call by call; time each call."""
        w, tr = self.w, self.tr
        with tr.span("build"):
            with tr.span("core.pivots.select"):
                pivots = select_pivots(w.X, N_PIVOTS, seed=0)
            with tr.span("core.pivots.map"):
                Xp = pivot_map(w.X, pivots)
            with tr.span("core.grid.build"):
                grid = HierarchicalGrid(Xp, M)
            with tr.span("core.inverted.build"):
                index = InvertedIndex(grid, w.col_of_vector)
        e = self.engine
        if not (np.array_equal(pivots, e.pivots) and grid.leaves.keys()
                == e.grid.leaves.keys() and index.n_postings()
                == e.index.n_postings()):
            self.mismatches.append("build replay differs from PexesoIndex")
        one = lambda name: tr.durations(name)[-1]  # noqa: E731
        tracemalloc.start()
        before = tracemalloc.get_traced_memory()[0]
        kept = build(w)
        alloc = tracemalloc.get_traced_memory()[0] - before
        tracemalloc.stop()
        del kept
        return {
            "pivots.select_s": one("core.pivots.select"),
            "pivots.map_build_s": one("core.pivots.map"),
            "grid.build_s": one("core.grid.build"),
            "grid.leaves": float(len(grid.leaves)),
            "grid.cells": float(grid.n_cells()),
            "inverted.build_s": one("core.inverted.build"),
            "inverted.postings": float(index.n_postings()),
            "pexeso.build_alloc_mb": alloc / 2**20,
        }

    def replay_query(self, it: QueryRun) -> None:
        """Replay ``engine.search`` with the embedding in front of it."""
        w, e, tr = self.w, self.engine, self.tr
        with tr.span("bench.query", query=it.i):
            if w.model is None:
                Q = it.query
            else:
                with tr.span("embedding.hashing"):
                    Q = query_vectors(w, it.query)
            with tr.span("core.pivots"):
                Qp = pivot_map(Q, e.pivots)
            with tr.span("core.grid"):
                hg_q = HierarchicalGrid(Qp, e.m)
            with tr.span("core.block"):
                blocks = blockmod.block(hg_q, e.grid, Qp, w.tau)
            with tr.span("core.verify"):
                res = verifymod.verify(blocks, e.index, e.X, e.Xp, Q, Qp, w.tau,
                                       t_abs(T, len(Q)), e.n_cols)
        it.answer = res.joinable_columns()
        it.n_matched = {c: int(res.match[c]) for c in it.answer}
        it.extra.update(Q=Q, blocks=blocks, res=res)

    def compare(self, it: QueryRun) -> None:
        """Outside the timed region: the replay must equal ``engine.search``."""
        blocks, res, Q = it.extra["blocks"], it.extra["res"], it.extra["Q"]
        ref = self.engine.search(Q, self.w.tau, T)
        got = (it.answer, res.n_distance, blocks.n_candidates(), blocks.n_matches())
        want = (ref.joinable, ref.n_distance, ref.n_candidates, ref.n_match_pairs)
        if got != want:
            self.mismatches.append(f"query {it.i}: replay {got[1:]} "
                                   f"!= engine.search {want[1:]}")
        c = self.counts
        for key, val in (
            ("block.candidate_pairs", blocks.n_candidates()),
            ("block.match_pairs", blocks.n_matches()),
            ("verify.distances", res.n_distance),
            ("verify.postings_touched", res.n_postings),
            ("verify.joinable_cols", len(res.joinable)),
            ("verify.pruned_cols", len(res.pruned)),
            ("verify.all_pairs", len(Q) * len(self.w.X)),
        ):
            c.setdefault(key, []).append(float(val))

    def query_metrics(self, checker: Checker) -> dict[str, float]:
        tr, c = self.tr, self.counts
        med_ms = lambda name: 1e3 * statistics.median(tr.durations(name))  # noqa: E731
        out = {
            "pivots.map_query_ms": med_ms("core.pivots"),
            "grid.query_build_ms": med_ms("core.grid"),
            "block.ms": med_ms("core.block"),
            "verify.ms": med_ms("core.verify"),
            "verify.distance_ratio":
                sum(c["verify.distances"]) / sum(c["verify.all_pairs"]),
            "pexeso.n_matched_exact_frac": checker.n_matched_exact_frac(),
            "scan.ms": 1e3 * statistics.median(checker.scan_seconds),
            "scan.distances": float(np.mean(c["verify.all_pairs"])),
        }
        if self.w.model is not None:
            out["embedding.embed_ms"] = med_ms("embedding.hashing")
        for key, vals in c.items():
            if key != "verify.all_pairs":
                out[key] = float(np.mean(vals))
        return out


def run_traced(make: Callable[[], Workload],
               seconds: float) -> tuple[dict, Checker, dict]:
    """Per-layer metrics of a single-node workload.

    Half the run is the untraced loop and half the traced replay of the
    same queries, so the tracing overhead is their difference in
    ``queries_per_s``.
    """
    w = make()
    engine = build(w)
    tr = Tracer()
    checker = Checker(w)
    traced = TracedSingle(w, engine, tr)
    metrics = traced.replay_build()

    plain, _ = closed_loop(w, engine_query(w, engine), seconds / 2, 0)

    def after(it: QueryRun) -> None:
        if it.error is None:
            traced.compare(it)
        checker.check(it)

    # The traced half replays the untraced half's timed queries.
    replayed, _ = closed_loop(
        w, traced.replay_query, seconds / 2, WARMUP, warmup=0, after=after)
    checker.check_all(plain)  # after the traced half, which times the scans
    for msg in traced.mismatches:
        checker.fail(f"trace replay: {msg}")
    metrics.update(traced.query_metrics(checker))
    metrics.update(tr.self_shares(QUERY_LAYERS, "bench.query"))
    metrics["trace.overhead_qps"] = (queries_per_s(replayed)
                                     - queries_per_s(plain))
    metrics.update(checker.properties())
    return metrics, checker, {"tracer": tr}
