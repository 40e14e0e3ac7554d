"""The ``spark-lwdc`` workload: ``assign_partitions`` then one
``distributed_search(...).collect()`` per query column, in local mode.

Set-up is ``lake_to_spark`` + ``assign_partitions(k=10)`` + materialising
the cached DataFrame; it excludes JVM start. Every answer is checked
against the brute-force scan. The traced run also checks it against the
single-node engine on the same lake, splits a search into per-partition
compute, replayed single-node from one collect of the partitioned
DataFrame, and Spark overhead, and times the Catalyst blocking path
beside it.
"""
from __future__ import annotations

import os
import shlex
import signal
import statistics
import subprocess
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Iterator

import numpy as np
from pyspark import SparkContext
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.pexeso import PexesoIndex
from repro.core.pivots import select_pivots
from repro.lake.generator import lake_to_spark
from repro.partition.cluster import jsd_kmeans
from repro.spark.blocking import blocked_joinability, build_blocked_repo
from repro.spark.joinable import assign_partitions, distributed_search

from common import (WARMUP, Checker, QueryRun, PeakRss, closed_loop, end_to_end,
                    host_reference, queries_per_s, query_vectors, repeat_setup)
from single import TracedSingle, build
from tracing import Tracer
from workloads import M, N_PIVOTS, T, Workload

__all__ = ["run_end_to_end", "run_traced"]

#: Partitions of the §IV clustering.
K = 10
#: Queries of the traced run replayed per partition and on the blocking path.
REPLAYED = 3
#: Passes of the reference kernel in each task of the reference job.
REF_TASK_PASSES = 10
#: The reference speed of Spark, as the time of one reference job: about
#: its median time on the 4-vCPU VM the benchmark was tuned on.
SPARK_REF_SECONDS = 0.38


def _reference_task(_rows) -> Iterator[float]:
    """One task of the reference job: passes of the reference kernel."""
    yield sum(host_reference() for _ in range(REF_TASK_PASSES))


def _start_session(tmp: Path, cores: int) -> tuple[SparkSession, float]:
    """A local session whose temporary files stay under ``tmp``."""
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master local[{cores}]", "--driver-memory 2g",
        "--conf spark.driver.host=127.0.0.1",
        "--conf spark.ui.enabled=false",
        "--conf spark.ui.showConsoleProgress=false",
        f"--conf spark.local.dir={shlex.quote(str(tmp))}",
        f"--driver-java-options -Djava.io.tmpdir={shlex.quote(str(tmp))}",
        "pyspark-shell",
    ])
    t0 = time.perf_counter()
    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    return spark, time.perf_counter() - t0


def _descendants(pid: int) -> list[int]:
    """Process ids of every live descendant of ``pid``."""
    children: dict[int, list[int]] = {}
    for d in Path("/proc").iterdir():
        if d.name.isdigit():
            try:
                ppid = int((d / "stat").read_text().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue  # the process ended while we looked
            children.setdefault(ppid, []).append(int(d.name))
    out, todo = [], [pid]
    while todo:
        kids = children.get(todo.pop(), [])
        out += kids
        todo += kids
    return out


def _alive(pid: int) -> bool:
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state != "Z"


def _wait_gone(pids: list[int], timeout: float) -> None:
    """Wait for processes that are not our children; kill stragglers."""
    deadline = time.monotonic() + timeout
    while any(_alive(p) for p in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    for p in pids:
        if _alive(p):
            try:
                os.kill(p, signal.SIGKILL)
            except ProcessLookupError:
                pass


class SparkBench:
    """One local Spark session and the workload's partitioned repository.

    The JVM starts in a second thread while the workload is generated;
    ``session_start_s`` is therefore JVM start under that contention.
    """

    def __init__(self, make: Callable[[], Workload], tmp: Path,
                 cores: int) -> None:
        self.cores = cores
        with ThreadPoolExecutor(1) as pool:
            started = pool.submit(_start_session, tmp, cores)
            try:
                self.w = make()
            finally:
                self.spark, self.session_start_s = started.result()
        self.col_index = {c.col_id: i for i, c in enumerate(self.w.lake.columns)}
        self.repo: DataFrame | None = None
        self.parts: DataFrame | None = None

    def close(self) -> None:
        """Stop Spark; wait for its JVM and the Python workers it started."""
        gateway = SparkContext._gateway
        proc = getattr(gateway, "proc", None)
        workers = _descendants(proc.pid) if proc is not None else []
        self.spark.stop()
        if gateway is not None:
            gateway.shutdown()
        if proc is not None:
            proc.stdin.close()  # the JVM exits when its stdin closes
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        _wait_gone(workers, timeout=30)

    def setup(self, partitioner=jsd_kmeans, tracer: Tracer | None = None) -> float:
        """Inputs to a cached, materialised partitioned DataFrame."""
        if self.parts is not None:
            self.parts.unpersist(blocking=True)
        tr = tracer or Tracer()
        t0 = time.perf_counter()
        with tr.span("lake.to_spark"):
            self.repo = lake_to_spark(self.spark, self.w.lake)
        with tr.span("spark.assign_partitions"):
            self.parts = assign_partitions(
                self.repo, K, partitioner=partitioner).cache()
            self.parts.count()
        return time.perf_counter() - t0

    def slowdown(self) -> float:
        """The host's slowdown against the reference speed, from a fixed
        Spark job: one task per core, each running the reference kernel.

        A Spark query is the JVM and one Python worker per core; its
        time follows neither the client's single-threaded kernel alone
        nor the cores' speed alone, and the job has both.
        """
        t0 = time.perf_counter()
        (self.spark.sparkContext.parallelize(range(self.cores), self.cores)
         .mapPartitions(_reference_task).collect())
        return (time.perf_counter() - t0) / SPARK_REF_SECONDS

    def search(self, Q: np.ndarray) -> list:
        return distributed_search(self.parts, Q, self.w.tau, T,
                                  n_pivots=N_PIVOTS, m=M).collect()

    def run_query(self, it: QueryRun) -> None:
        Q = query_vectors(self.w, it.query)
        self.record(it, Q, self.search(Q))

    def record(self, it: QueryRun, Q: np.ndarray, rows: list) -> None:
        it.answer = {self.col_index[r.col_id] for r in rows}
        it.n_matched = {self.col_index[r.col_id]: r.n_matched for r in rows}
        it.extra["Q"] = Q


def _check_both(w: Workload, runs: list[QueryRun], checker: Checker,
               engine: PexesoIndex) -> None:
    """Brute force, then the single-node engine on the same lake."""
    single: dict[int, set[int]] = {}
    for it in runs:
        checker.check(it)
        if it.error is None:
            if it.key not in single:
                single[it.key] = engine.search(it.extra["Q"], w.tau, T).joinable
            got = single[it.key]
            if got != it.answer:
                checker.fail(f"query {it.i}: single-node {sorted(got)[:10]} "
                             f"!= Spark {sorted(it.answer)[:10]}")


def run_end_to_end(make: Callable[[], Workload], seconds: float, tmp: Path,
                   cores: int) -> tuple[dict, Checker, dict]:
    sb = SparkBench(make, tmp, cores)
    w = sb.w
    try:
        rss = PeakRss()
        rss.reset()
        sb.slowdown()  # starts the Python workers before any is timed
        setup = repeat_setup(sb.setup, sb.slowdown)
        runs, wall = closed_loop(w, sb.run_query, seconds, 0,
                                 slowdown=sb.slowdown)
        peak = rss.mb()
    finally:
        sb.close()
    checker = Checker(w)
    checker.check_all(runs)
    metrics, detail = end_to_end(runs, wall, setup, peak)
    detail.update(session_start_s=sb.session_start_s,
                  peak_rss_of="the Python driver process, not the JVM",
                  properties=checker.properties())
    return metrics, checker, detail


def _replay_partitions(sb: SparkBench, queries: list[QueryRun],
                       checker: Checker) -> dict[str, float]:
    """Each partition's build and search single-node, from one collect."""
    pdf = sb.parts.select("part_id", "col_id", "vec").toPandas()
    build_s, search_s = {}, {}
    for it in queries:
        Q, hits = it.extra["Q"], set()
        for pid, g in pdf.groupby("part_id"):
            cols = g["col_id"].unique()
            col_index = {c: i for i, c in enumerate(cols)}
            X = np.vstack(g["vec"].to_numpy())
            t0 = time.perf_counter()
            engine = PexesoIndex(X, g["col_id"].map(col_index).to_numpy(),
                                 len(cols), n_pivots=N_PIVOTS, m=M)
            t1 = time.perf_counter()
            res = engine.search(Q, sb.w.tau, T)
            t2 = time.perf_counter()
            build_s.setdefault(pid, []).append(t1 - t0)
            search_s.setdefault(pid, []).append(t2 - t1)
            hits |= {sb.col_index[cols[c]] for c in res.joinable}
        if hits != it.answer:
            checker.fail(f"query {it.i}: partition replay differs from Spark")
    sizes = pdf.groupby("part_id").size()
    per_part_ms = {p: 1e3 * (statistics.median(build_s[p])
                             + statistics.median(search_s[p])) for p in build_s}
    total_ms = sum(per_part_ms.values())
    return {
        "spark.partitions": float(len(sizes)),
        "spark.partition_skew": float(sizes.max() / sizes.mean()),
        "spark.partition_build_s": sum(statistics.median(v) for v in build_s.values()),
        "spark.partition_search_ms":
            1e3 * sum(statistics.median(v) for v in search_s.values()),
        "spark.compute_bound_ms":
            max(max(per_part_ms.values()), total_ms / sb.cores),
    }


def _blocking_path(sb: SparkBench, queries: list[QueryRun],
                   checker: Checker) -> dict[str, float]:
    """The Catalyst blocking path on the same queries, checked the same way."""
    pivots = select_pivots(sb.w.X, N_PIVOTS, seed=0)
    t0 = time.perf_counter()
    blocked = build_blocked_repo(sb.repo, pivots).cache()
    blocked.count()
    build_s = time.perf_counter() - t0
    ms = []
    for it in queries:
        t0 = time.perf_counter()
        rows = (blocked_joinability(sb.spark, blocked, it.extra["Q"], pivots,
                                    sb.w.tau)
                .where(F.col("joinability") >= F.lit(T) - F.lit(1e-12))
                .collect())
        ms.append(1e3 * (time.perf_counter() - t0))
        if {sb.col_index[r.col_id] for r in rows} != it.answer:
            checker.fail(f"query {it.i}: blocked_joinability differs from "
                         "distributed_search")
    blocked.unpersist()
    return {"spark.blocked_build_s": build_s,
            "spark.blocked_query_ms": statistics.median(ms)}


def run_traced(make: Callable[[], Workload], seconds: float, tmp: Path,
               cores: int) -> tuple[dict, Checker, dict]:
    sb = SparkBench(make, tmp, cores)
    w = sb.w
    tr = Tracer()
    checker = Checker(w)
    try:
        kmeans_s = []

        def timed_partitioner(col_vecs, k):
            t0 = time.perf_counter()
            try:
                return jsd_kmeans(col_vecs, k)
            finally:
                kmeans_s.append(time.perf_counter() - t0)

        repeat_setup(lambda: sb.setup(timed_partitioner, tr))
        plain, _ = closed_loop(w, sb.run_query, seconds / 2, 0,
                               slowdown=sb.slowdown)

        def replay(it: QueryRun) -> None:
            with tr.span("bench.query", query=it.i):
                with tr.span("embedding.hashing"):
                    Q = query_vectors(w, it.query)
                with tr.span("spark.joinable"):
                    rows = sb.search(Q)
            sb.record(it, Q, rows)

        # The traced half replays the untraced half's timed queries.
        traced, _ = closed_loop(w, replay, seconds / 2, WARMUP, warmup=0,
                                slowdown=sb.slowdown)
        ok = [it for it in traced if it.error is None][:REPLAYED]
        metrics = _replay_partitions(sb, ok, checker)
        metrics.update(_blocking_path(sb, ok, checker))
    finally:
        sb.close()

    engine = build(w)
    _check_both(w, plain + traced, checker, engine)
    spark_exact = checker.n_matched_exact_frac()

    # Single-node layers on the same lake and the same queries.
    single_tr = Tracer()
    single = TracedSingle(w, engine, single_tr)
    single_checker = Checker(w)
    metrics.update(single.replay_build())
    for it in ok:
        one = QueryRun(it.i, it.key, it.query, warmup=False)
        single.replay_query(one)
        single.compare(one)
        single_checker.check(one)
    for msg in single.mismatches:
        checker.fail(f"trace replay: {msg}")
    metrics.update(single.query_metrics(single_checker))

    search_ms = 1e3 * statistics.median(tr.durations("spark.joinable"))
    metrics.update({
        "spark.session_start_s": sb.session_start_s,
        "lake.to_spark_s": statistics.median(tr.durations("lake.to_spark")),
        "spark.assign_partitions_s":
            statistics.median(tr.durations("spark.assign_partitions")),
        "partition.jsd_kmeans_s": statistics.median(kmeans_s),
        "spark.search_ms": search_ms,
        "spark.overhead_ms": search_ms - metrics["spark.compute_bound_ms"],
        "spark.n_matched_exact_frac": spark_exact,
        "trace.overhead_qps": (queries_per_s(traced)
                               - queries_per_s(plain)),
    })
    metrics.update(tr.self_shares(["embedding.hashing", "spark.joinable"],
                                  "bench.query"))
    metrics.update(checker.properties())
    return metrics, checker, {"tracer": tr}
