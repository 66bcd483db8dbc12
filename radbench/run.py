#!/usr/bin/env python3
"""radsym benchmark: one run of one workload.

    python3 radbench/run.py --workload scan-l3 --seed 0 --seconds 30 --trace 0

Workloads: scan-l3, scan-l7, queries (see radbench/README.md).  Run from
the root of a checkout; radsym is imported from its src/.  Set-up is timed
in SETUP_SAMPLES fresh processes, spread before and after the measuring
process (whose own set-up is one of them).  Each sample is scaled by the
host probe its process takes right after set-up (see worker.host_probe), and
the median is reported.  The last line of stdout is one JSON object with
keys correct, attempted, failed and metrics; the line before it holds the
run's context (versions, host probes, raw samples).  Exits 1, printing no
result, when a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from worker import REF_MS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("scan-l3", "scan-l7", "queries")
SETUP_SAMPLES = 7
SETUP_LIMIT_S = 30
DEADLINE_S = 170  # the whole run, set-up samples included


class WorkerError(Exception):
    pass


def _worker(args, *, setup_only: bool, deadline: float) -> tuple[float, float, str]:
    """Start a worker; return (seconds until it printed READY, the host probe
    it printed next, its remaining stdout).  The worker is killed if it is
    still running at `deadline`."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(
        os.environ,
        # radsym's kernels are elementwise; keep BLAS from starting its own threads
        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
        # the same dict and set layouts in every process
        PYTHONHASHSEED="0",
    )
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        probe = proc.stdout.readline()
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or code != 0:
        raise WorkerError(f"worker exited with code {code} before finishing")
    return setup_s, float(probe), rest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="radsym benchmark, one run of one workload")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be between 1 and 60")
    deadline = time.monotonic() + DEADLINE_S

    def setup_sample() -> tuple[float, float]:
        return _worker(args, setup_only=True,
                       deadline=min(deadline, time.monotonic() + SETUP_LIMIT_S))[:2]

    try:
        before = SETUP_SAMPLES // 2
        setups = [setup_sample() for _ in range(before)]
        setup_s, probe, out = _worker(args, setup_only=False, deadline=deadline)
        setups.append((setup_s, probe))
        setups += [setup_sample() for _ in range(SETUP_SAMPLES - before - 1)]
        run = json.loads(out.strip().splitlines()[-1])
    except (WorkerError, ValueError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    context = run.pop("context")
    context["setup_samples_s"] = [s for s, _ in setups]
    context["setup_probe_ms"] = [p for _, p in setups]
    if not args.trace:
        scaled = [s * REF_MS / p for s, p in setups]
        run["metrics"]["setup_s"] = {"value": statistics.median(scaled), "unit": "s"}
    print(json.dumps({"context": context}))
    print(json.dumps({k: run[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
