"""Benchmark entry point.

    python3 perfbench/run.py --workload paper-mix --seed 1 --seconds 30 --trace 0

Runs one workload from the root of a checkout (the program is taken
from ``src/``), checks every answer independently, and prints one JSON
object as the last line of stdout:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer
ones (see README.md).  Exits non-zero, printing no result, when the
program is missing or the run cannot complete.
"""

import time

T_START = time.perf_counter()

import argparse   # noqa: E402
import json   # noqa: E402
import math   # noqa: E402
import os   # noqa: E402
import signal   # noqa: E402
import statistics   # noqa: E402
import sys   # noqa: E402

# One BLAS thread: multi-threaded OpenBLAS on a small host makes every
# kernel-bound figure noisy.  Must be set before numpy loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: (name, unit) of every end-to-end metric, in BENCHMARK.json order.
END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("cpu_ms_per_question", "ms"),
    ("penalty_mean", "penalty"),
    ("peak_rss_mb", "MB"),
    ("batch_p50_ms", "ms"),
    ("mutation_p50_ms", "ms"),
    ("watch_refresh_p50_ms", "ms"),
)


def _p(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(m) -> dict:
    questions = sum(m.get("questions"))
    cpu = sum(m.get("cpu")) + sum(m.get("cpu_total"))
    values = {
        "setup_s": m.setup_s,
        "latency_p50_ms": statistics.median(m.get("read")) * 1e3,
        "latency_p95_ms": _p(m.get("read"), 0.95) * 1e3,
        "cpu_ms_per_question": cpu / questions * 1e3,
        "penalty_mean": statistics.fmean(m.get("penalty")),
        "peak_rss_mb": max(m.get("rss")),
        "batch_p50_ms": statistics.median(m.get("batch")) * 1e3,
        "mutation_p50_ms": statistics.median(m.get("mutation")) * 1e3,
        "watch_refresh_p50_ms":
            statistics.median(m.get("refresh")) * 1e3,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"program not found: no src/repro under {ROOT}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import layers
    import oracle
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r} (choose from "
              f"{', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    # A terminated run still stops its daemon: the workloads' finally
    # blocks run on SystemExit.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    m = workloads.Measure(T_START)
    workloads.WORKLOADS[args.workload](args, m)
    if args.trace:
        metrics = layers.per_layer(m)
    else:
        metrics = end_to_end(m)
    for problem in m.problems[:20]:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    for kind, count in sorted(oracle.DEVIATIONS.items()):
        print(f"known deviation, {count}x: {kind}", file=sys.stderr)
    print(json.dumps({"correct": not m.problems,
                      "attempted": m.attempted, "failed": m.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
