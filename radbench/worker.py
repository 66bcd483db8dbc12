#!/usr/bin/env python3
"""One run of one workload, in a fresh process started by run.py.

    python3 radbench/worker.py --workload W --seed N --seconds S --trace 0|1 [--setup-only]

The worker imports radsym from this checkout's src/ (never from anywhere
else), builds the workload's inputs and runs the small-bound oracle, then
prints READY and, on the next line, one host probe (see ``host_probe``).
run.py times the gap from starting the process to READY as set-up.  Unless
--setup-only is given, the worker then runs one untimed warm-up op and timed
ops until --seconds is spent, checks every op, and prints one JSON line with
the run's counts, metrics and context.

With --trace 1 timed ops alternate between plain and traced; per-layer
metrics are medians over the traced ops and trace.overhead_ratio is the
traced median over the plain median.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
MIN_OPS = 3
MIN_TRACED_OPS = 4  # two plain, two traced
REF_MS = 10.0  # host_probe's wall time on a quiet 2-vCPU host; see host_probe
STREAM_REF_MS = 27.0  # stream_probe's wall time on the same host
P99_SUPPORT = 10  # samples that must lie beyond a reported p99


class BenchError(Exception):
    pass


def import_radsym():
    """Import radsym from ROOT/src, failing if it resolves anywhere else."""
    pkg = ROOT / "src" / "radsym"
    if not (pkg / "__init__.py").is_file():
        raise BenchError(f"no radsym package at {pkg}")
    sys.path.insert(0, str(pkg.parent))
    import radsym
    import radsym.cli  # noqa: F401  (the queries workload calls radsym.cli.main)

    found = Path(radsym.__file__).resolve().parent
    if found != pkg.resolve():
        raise BenchError(f"radsym imported from {found}, not from {pkg}")
    return radsym


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _src_digest() -> str:
    """sha256 over src/**/*.py, which identifies the code where git cannot."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def context(rs) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": rs.kernels.BACKEND,
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
    }


def host_probe() -> float:
    """Wall ms of a fixed pure-Python plus numpy loop, which never calls radsym.

    On a shared host, other tenants slow a run down in phases of seconds to
    minutes, by up to half.  So each timed op is scaled by a probe of the
    same kind of work, taken on the measuring thread before and after it:
    this one, over REF_MS, for interpreter-bound work (set-up, and the ops of
    a workload whose ``interpreter_bound`` is true), and stream_probe for
    the rest.  The raw times stay in the context.  A change in radsym's own
    cost moves a scaled time as much as the raw one.
    """
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    table = {}
    for i in range(50_000):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 1023] = acc
    a = np.arange(50_000, dtype=np.int64)  # small, so it never sets peak RSS
    for k in range(1, 5):
        acc += int((a * (a + k) % 1_000_003).sum())
    if acc != 99_195_222_993:
        raise AssertionError(f"host probe computed {acc}")
    return (time.perf_counter() - t0) * 1e3


def stream_probe() -> float:
    """Wall ms of a fixed numpy loop over 8 MB arrays, beyond the caches.

    It tracks the slowdowns of memory-bound numpy work, which host_probe
    does not see.  Its arrays are freed before it returns and are far
    smaller than a scan's, so it never sets a scan's peak RSS.
    """
    import numpy as np

    t0 = time.perf_counter()
    a = np.arange(1_000_000, dtype=np.int64)
    acc = 0
    for k in range(3):
        b = a * (a + k)
        b %= 1_000_003
        acc += int(b[-1])
    if acc != 36:
        raise AssertionError(f"stream probe computed {acc}")
    return (time.perf_counter() - t0) * 1e3


def _p99(samples: list[float]) -> tuple[float, str]:
    """The 99th percentile when at least P99_SUPPORT samples lie beyond it,
    else the largest sample (the highest percentile the samples support)."""
    if len(samples) * 0.01 >= P99_SUPPORT:
        return statistics.quantiles(samples, n=100, method="inclusive")[98], "p99"
    return max(samples), "max"


def timing_metrics(ops: list[tuple[float, list[float], float]], ref_ms: float) -> tuple[dict, dict]:
    """End-to-end timing metrics of (ms, request latencies ms, probe ms)
    ops, scaled to the host speed at which the probe takes ref_ms."""
    op_ms = [ms * ref_ms / probe for ms, _, probe in ops]
    latencies = [x * ref_ms / probe for _, lat, probe in ops for x in lat]
    p99, basis = _p99(latencies)
    metrics = {
        "op_p50_ms": {"value": statistics.median(op_ms), "unit": "ms"},
        "req_p50_ms": {"value": statistics.median(latencies), "unit": "ms"},
        "req_p99_ms": {"value": p99, "unit": "ms"},
    }
    extra = {
        "op_ms_raw": [ms for ms, _, _ in ops],
        "op_probe_ms": [probe for _, _, probe in ops],
        "requests": len(latencies),
        "req_p99_basis": basis,
    }
    return metrics, extra


class Measurement:
    """Runs ops of one workload, counting attempted and failed ones."""

    def __init__(self, wl, rs):
        self.wl, self.rs = wl, rs
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def op(self, warmup: bool = False):
        """(wall ms, request latencies ms) of one op, or None if it raised."""
        self.attempted += 1
        try:
            ms, lat, problems = self.wl.run(self.rs, warmup=warmup)
        except Exception as exc:  # a crash in radsym is a failed op, not a failed run
            self.failed += 1
            self.problems.append(f"op raised {exc!r}")
            return None
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return ms, lat


def measure(wl, rs, seconds: float, trace: bool) -> dict:
    """Untimed warm-up op, then timed ops until `seconds` is spent, with a
    probe after each.  With trace, every second timed op runs under the
    tracer."""
    probe, ref_ms = (host_probe, REF_MS) if wl.interpreter_bound else (stream_probe, STREAM_REF_MS)
    m = Measurement(wl, rs)
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer(rs)
    ref_start = host_probe()
    m.op(warmup=True)
    plain, traced_ms, layers = [], [], []
    probes = [probe()]
    start = time.perf_counter()
    while True:
        done = [ms for ms, _, _ in plain] + traced_ms
        next_op_s = statistics.median(done) / 1e3 if done else 0.0
        if time.perf_counter() - start + next_op_s > seconds and (
            len(done) >= (MIN_TRACED_OPS if trace else MIN_OPS) or m.failed
        ):
            break
        if tracer is not None and len(done) % 2 == 1:
            tracer.reset()
            tracer.install()
            try:
                result = m.op()
            finally:
                tracer.uninstall()
            probes.append(probe())
            if result is not None:
                layer = tracer.summarize()
                layer["cli.error_lines"] = getattr(wl, "error_lines", 0)
                layers.append(layer)
                traced_ms.append(result[0])
        else:
            result = m.op()
            probes.append(probe())
            if result is not None:
                plain.append((*result, (probes[-2] + probes[-1]) / 2))
    for problem in m.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    if not plain or (trace and not traced_ms):
        raise BenchError("no op completed")
    if trace:
        from tracer import PER_LAYER

        plain_ms = statistics.median(ms for ms, _, _ in plain)
        metrics = {}
        for name, unit, _ in PER_LAYER:
            if name == "trace.overhead_ratio":
                value = statistics.median(traced_ms) / plain_ms
            else:
                value = statistics.median(layer[name] for layer in layers)
            metrics[name] = {"value": value, "unit": unit}
        extra = {"traced_ops": len(traced_ms), "plain_ops": len(plain)}
    else:
        metrics, extra = timing_metrics(plain, ref_ms)
        metrics["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MB",
        }
    extra["host.ref_ms"] = {"start": ref_start, "end": host_probe()}
    return {"attempted": m.attempted, "failed": m.failed, "metrics": metrics, "extra": extra}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    try:
        rs = import_radsym()
    except (BenchError, ImportError) as exc:
        print(f"setup failed: {exc}", file=sys.stderr)
        return 2
    wl = workloads.make(args.workload, args.seed)
    setup_problems = wl.setup(rs)
    print("READY", flush=True)
    print(host_probe(), flush=True)
    if args.setup_only:
        return 0
    for problem in setup_problems:
        print(f"setup check failed: {problem}", file=sys.stderr)
    try:
        run = measure(wl, rs, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 2
    ctx = context(rs)
    ctx.update(run.pop("extra"), workload=args.workload, seed=args.seed)
    run["correct"] = not setup_problems and run["failed"] == 0
    print(json.dumps({"context": ctx, **run}), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
