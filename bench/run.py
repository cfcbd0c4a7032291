"""ptagcheck benchmark: one command, four workloads, every output checked.

    python3 bench/run.py --workload verdict-scale --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout (it imports ``src/ptagcheck`` and
reads the shipped grammars there).  Prints a JSON line describing the
environment and the run, then, as the last line, the result object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics of BENCHMARK.json; ``--trace 1`` reports the
per-layer metrics from a traced pass and writes every span to
``.bench_out/``.  See bench/README.md.
"""

from __future__ import annotations

import os

# BLAS threads are fixed before numpy loads, here and in every CLI child:
# with default threading `check` at ~500 sites swings by 2x between calls.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 3     # at least this many set-ups per run,
SETUP_MIN_S = 0.5     # and more until this long has passed
EX_MISSING = 3


def _import_program():
    if not (SRC / "ptagcheck" / "__init__.py").is_file():
        sys.stderr.write(f"ptagcheck sources not found under {SRC}\n")
        sys.exit(EX_MISSING)
    sys.path[:0] = [str(SRC), str(BENCH)]


def environment():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = ""
    if (ROOT / ".git").exists():  # never let git search above the checkout
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip()
        except OSError:
            pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(BLAS_THREADS), "nproc": os.cpu_count(),
            "machine": platform.machine(), "commit": commit or None}


def tail_percentile(values):
    """(percentile, value): the highest percentile with >= 10 samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def measure(workload, seed, seconds):
    """Untraced run: inputs, repeated set-up, warm-up, then whole passes.

    Only ``workload.setup``, the program's own set-up work, is timed as
    set-up; the benchmark's inputs and reference answers are built before.
    Returns (set-up seconds, set-up seconds scaled to the reference host
    speed, tally, state).
    """
    from workloads import Tally, speed_factors, speed_sample  # after _import_program

    inputs = workload.prepare(seed)
    setups, speed = [], [speed_sample()]
    begin = time.perf_counter()
    while len(setups) < SETUP_REPEATS or time.perf_counter() - begin < SETUP_MIN_S:
        state = None  # free the previous set-up's objects, untimed, as before an operation
        gc.collect()
        start = time.perf_counter()
        state = workload.setup(inputs)
        setups.append(time.perf_counter() - start)
        speed.append(speed_sample())
    scaled_setups = [t * f for t, f in zip(setups, speed_factors(speed))]
    workload.warm_up(state)
    tally = Tally()
    for p in range(workload.passes(seconds)):
        tally.passes.append([tally.run(op) for op in workload.operations(state, p)])
    return setups, scaled_setups, tally, state


def end_to_end(setups, passes, tally, peak_rss_mb):
    """End-to-end metrics of one run from its set-up and per-pass times.

    Every pass runs the same operations, so ops_per_s takes each operation's
    median time over the passes: a burst of machine noise in one pass moves
    it less than it would a plain total.
    """
    times_ms = [t * 1e3 for times in passes for t in times]
    pct, tail = tail_percentile(times_ms)
    typical = [statistics.median(column) for column in zip(*passes)]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(typical) / sum(typical), "1/s"),
        "op_ms.p50": (statistics.median(times_ms), "ms"),
        "op_ms.tail": (tail, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "decided_rate": (tally.decided[0] / tally.decided[1], "ratio"),
        "agree_rate": (tally.agree[0] / tally.agree[1], "ratio"),
    }
    return metrics, {"tail_percentile": round(pct, 2), "samples": len(times_ms),
                     "passes": len(passes)}


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    import workloads  # noqa: E402  (needs the paths set above)

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]()
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "environment": environment()}

    if args.trace:
        import tracing
        spans = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl.gz"
        metrics, failures, attempted, extra = tracing.traced_run(workload, args.seed, spans)
        info.update(extra)
    else:
        setups, scaled_setups, tally, state = measure(workload, args.seed, args.seconds)
        peak = peak_rss_mb(workload.runs_children)
        metrics, extra = end_to_end(scaled_setups, tally.scaled_passes(), tally, peak)
        raw, _ = end_to_end(setups, tally.passes, tally, peak)
        failures, attempted = tally.failures, sum(map(len, tally.passes))
        info.update(extra, setups=len(setups), inputs=workload.describe(state),
                    kernel_ms=1e3 * statistics.median(tally.speed),
                    unscaled={k: v for k, (v, _) in raw.items() if k in
                              ("setup_s", "ops_per_s", "op_ms.p50", "op_ms.tail")})
    info["failures"] = failures[:20]
    print(json.dumps(info))
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
