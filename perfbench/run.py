"""NMSE-sweep benchmark of igachan.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; igachan is imported from its
``src`` directory, never from an installed copy.  Workloads are defined in
``workloads.py`` and explained in README.md.

The run measures set-up (median of several fresh processes that import
igachan and build the workload's specs), then runs the workload in one
more fresh process, which calls ``igachan.harness.run_benchmark`` for
about S seconds and checks its CSV output.  With ``--trace 0`` the result
holds the end-to-end metrics; with ``--trace 1`` the worker interleaves
untraced and traced sweeps and the result holds the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the host, library versions and CSV SHA-256 digests.  The run
never sets IGACHAN_THREADS or the BLAS thread variables; it records them.
Exit code 0 means a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"

sys.path.insert(0, str(HERE))
from workloads import END_TO_END, PER_LAYER, SRC, WORKLOADS  # noqa: E402

SETUP_PROBES = 7
# every run, set-up included, must end within this many seconds
RUN_LIMIT_S = 170.0
THREAD_VARS = ("IGACHAN_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS")


def host_record() -> dict:
    try:
        affinity = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        affinity = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": affinity,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def worker_cmd(args, *extra) -> list:
    return [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed), *extra]


def measure_setup(args, deadline: float) -> list:
    """Wall time of fresh processes that import igachan and build the specs.

    The wait blocks without a timeout (a timed wait polls in steps of up to
    50 ms, which would quantize the measurement); a timer kills a probe that
    outlives the run's deadline.
    """
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(worker_cmd(args, "--setup-only"), stdout=subprocess.DEVNULL)
        killer = threading.Timer(deadline - time.monotonic(), proc.kill)
        killer.start()
        try:
            returncode = proc.wait()
        finally:
            killer.cancel()
        times.append(time.perf_counter() - t0)
        if returncode != 0:
            raise subprocess.CalledProcessError(returncode, proc.args)
    return times


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if not (SRC / "igachan" / "__init__.py").is_file():
        print(f"run.py: no igachan sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    setup = [] if args.trace else measure_setup(args, deadline)
    proc = subprocess.run(
        worker_cmd(args, "--seconds", str(args.seconds), "--trace", str(args.trace)),
        stdout=subprocess.PIPE, text=True, timeout=deadline - time.monotonic())
    if proc.returncode != 0:
        print(f"run.py: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    out = json.loads(proc.stdout.strip().splitlines()[-1])

    metrics = out["metrics"]
    if args.trace:
        table = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        metrics["setup_s"] = statistics.median(setup)
        table = {name: unit for name, (unit, _, _) in END_TO_END.items()}
    if metrics.keys() != table.keys():
        print(f"run.py: worker metrics {sorted(metrics)} differ from {sorted(table)}",
              file=sys.stderr)
        return 1

    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "host": host_record(), "libraries": out["libraries"],
        "sweeps": out["sweeps"], "setup_samples_s": setup,
        "csv_sha256": out["csv_sha256"], "errors": out["errors"],
    }))
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in table.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
