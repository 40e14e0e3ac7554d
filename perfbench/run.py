"""PEXESO benchmark: one workload, one seed, one closed-loop client.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload swdc-verify --seed 1 --seconds 10 --trace 0

The run generates the workload from the seed, sets the engine up, sends
one query column at a time for ``--seconds`` seconds of query time,
and checks every answer against the brute-force scan
(``baselines.exact_scan``). ``--trace 0`` prints the end-to-end metrics
of ``BENCHMARK.json``; ``--trace 1`` prints its per-layer metrics, from
a replay of each layer's public functions under spans. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is 0 only if every answer was
correct.
"""
from __future__ import annotations

import os
import sys

# Pin the BLAS and OpenMP pools before numpy loads: the engine is a
# single-threaded client, and Spark runs one Python worker per core.
THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
#: Local Spark uses at most this many cores.
MAX_SPARK_CORES = 4


def _spec() -> dict:
    with (ROOT / "BENCHMARK.json").open() as f:
        return json.load(f)


def _environment() -> dict:
    import numpy
    import pyspark
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyspark": pyspark.__version__,
    }


def main() -> int:
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no PEXESO sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # Spark's Python workers import the engine, and the benchmark's
    # reference kernel, too.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), str(ROOT / "perfbench"),
                      os.environ.get("PYTHONPATH")]))
    tmp = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    try:
        return _run(spec, args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _run(spec: dict, args: argparse.Namespace, tmp: Path) -> int:
    from workloads import make_workload

    make = functools.partial(make_workload, args.workload, args.seed)
    if args.workload == "spark-lwdc":
        import sparkrun as mod
        extra = (tmp, min(MAX_SPARK_CORES, len(os.sched_getaffinity(0))))
    else:
        import single as mod
        extra = ()
    if args.trace:
        values, checker, detail = mod.run_traced(make, args.seconds, *extra)
        tracer = detail.pop("tracer")
        tracer.write(ROOT / ".bench_out" /
                     f"spans-{args.workload}-seed{args.seed}.jsonl")
        wanted = spec["per_layer"]
        missing = [m["name"] for m in wanted if m["name"] not in values]
        metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                               "unit": m["unit"]} for m in wanted}
        detail["not_measured_on_this_workload"] = missing
    else:
        values, checker, detail = mod.run_end_to_end(make, args.seconds, *extra)
        wanted = spec["end_to_end"]
        metrics = {m["name"]: {"value": float(values[m["name"]]),
                               "unit": m["unit"]} for m in wanted}
    unknown = set(values) - {m["name"] for m in wanted}
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")

    detail.update(workload=args.workload, seed=args.seed,
                  failed_frac=checker.failed / checker.attempted,
                  environment=_environment())
    for msg in checker.errors[:20]:
        print(f"FAILED {msg}")
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:14.4f} {m['unit']}")
    print("detail " + json.dumps(detail, default=float))
    print(json.dumps({"correct": checker.failed == 0,
                      "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0 if checker.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
