"""Per-layer spans recorded from outside radsym.

``Tracer.install`` replaces each traced public function at every module
attribute that binds it (``residue_symbol`` is bound in ``radsym``,
``radsym.cyclotomic``, ``radsym.density`` and ``radsym.cli``, for instance),
so calls between radsym's own modules are seen too.  Each call becomes a span
(name, start, end, parent); spans stay in memory and are reduced per op by
``summarize``.  A span's self time is its duration minus the part of it that
its child spans cover.  Spans opened on a scan's worker threads take the
innermost span open on the installing thread as their parent, so a parent's
self time never counts its children's parallel work.

``FiniteFieldElement.__mul__`` is counted but not timed: it runs hundreds of
thousands of times per op and a span each would swamp what it measures.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
import types

import numpy as np

KERNELS = ("sieve_primes", "powmod", "unity_roots", "exponent_lookup")

# (metric, unit, better) for every per-layer metric, in report order.
PER_LAYER = (
    [(f"kernels.{k}.{m}", u, "lower") for k, extra in (
        ("sieve_primes", (("bytes", "bytes"),)),
        ("powmod", (("lanes", "count"), ("mulmods", "count"))),
        ("unity_roots", (("lanes", "count"),)),
        ("exponent_lookup", (("lanes", "count"),)),
    ) for m, u in (("calls", "count"), ("ms", "ms")) + extra]
    + [("kernels.busy_over_wall", "ratio", "higher")]
    + [(f"density.{m}", u, "lower") for m, u in (
        ("density_experiment.ms", "ms"), ("character_sum.ms", "ms"),
        ("self_ms", "ms"), ("generic_ideals", "count"))]
    + [(f"cyclotomic.{f}.{m}", u, "lower")
       for f in ("primes_above", "residue_symbol.f1", "residue_symbol.f2plus", "eisenstein_check")
       for m, u in (("calls", "count"), ("ms", "ms"))]
    + [(f"arith.{f}.{m}", u, "lower")
       for f in ("factorize", "poly_is_irreducible") for m, u in (("calls", "count"), ("ms", "ms"))]
    + [("arith.ff_mul.calls", "count", "lower")]
    + [(f"radical.{f}.{m}", u, "lower")
       for f in ("reduce_basis", "rank_and_kernel", "exponent_matrix", "brute_force_kernel")
       for m, u in (("calls", "count"), ("ms", "ms")) if f != "exponent_matrix" or m == "calls"]
    + [("cli.self_ms", "ms", "lower"), ("cli.error_lines", "count", "lower")]
    + [("trace.overhead_ratio", "ratio", "lower")]
)


def _targets(rs) -> dict[int, tuple[str, object]]:
    """id(function) -> (span name, function) for every traced function: each
    function in ``radsym.__all__``, the four kernels, poly_is_irreducible and
    the CLI entry point.  Span names are ``<defining module>.<public name>``."""
    out = {}
    for name in rs.__all__:
        fn = getattr(rs, name)
        if isinstance(fn, types.FunctionType):
            out[id(fn)] = (f"{fn.__module__.rsplit('.', 1)[1]}.{name}", fn)
    for name in KERNELS:
        fn = getattr(rs.kernels, name)
        out[id(fn)] = (f"kernels.{name}", fn)
    out[id(rs.arith.poly_is_irreducible)] = ("arith.poly_is_irreducible", rs.arith.poly_is_irreducible)
    out[id(rs.cli.main)] = ("cli.main", rs.cli.main)
    return out


def _union_ms(intervals) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total * 1e3


def _mulmods(exp: np.ndarray) -> int:
    """Square-and-multiply products for these exponents: bit_length - 1
    squarings plus popcount multiplies per lane (computed, not observed)."""
    e = np.asarray(exp, dtype=np.int64)
    e = e[e > 0]
    bits = np.frexp(e.astype(np.float64))[1].astype(np.int64)  # exact below 2**53
    return int((bits - 1).sum() + np.bitwise_count(e).sum())


class Tracer:
    def __init__(self, rs):
        self.rs = rs
        self._targets = _targets(rs)
        self._modules = [rs, rs.arith, rs.cyclotomic, rs.density, rs.kernels, rs.radical, rs.cli]
        self._saved: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self._lock = threading.Lock()  # kernel counts arrive from scan worker threads
        self._ids = itertools.count()
        self._ff_mul = [0]
        self.reset()

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        self._home = self._stack()
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in self._targets.items()}
        for module in self._modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and value is self._targets[id(value)][1]:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        ffe = self.rs.arith.FiniteFieldElement
        counted = self._count_only(ffe.__mul__)
        for attr in ("__mul__", "__rmul__"):
            self._saved.append((ffe, attr, vars(ffe)[attr]))
            setattr(ffe, attr, counted)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    def reset(self) -> None:
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.counts: dict[str, int] = {}
        self._exps: list[np.ndarray] = []
        self._ff_mul[0] = 0

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _add(self, key: str, n: int) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + n

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1][0]
            else:  # a worker thread: adopt the installing thread's open span
                home = tracer._home
                parent = home[-1][0] if home else None
            span = name
            if name == "cyclotomic.residue_symbol":
                ideal = args[1] if len(args) > 1 else kwargs["ideal"]
                span += ".f1" if ideal.f == 1 else ".f2plus"
            sid = next(tracer._ids)
            stack.append((sid, span))
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, parent, span, t0, t1))
            tracer._count(name, args, result, stack)
            return result

        return traced

    def _count_only(self, fn):
        cell = self._ff_mul

        @functools.wraps(fn)
        def counted(*args):
            cell[0] += 1
            return fn(*args)

        return counted

    def _count(self, name: str, args, result, stack) -> None:
        if name == "kernels.sieve_primes":
            self._add(name + ".bytes", int(args[0]) + 1 + result.nbytes)
        elif name == "kernels.powmod":
            self._add(name + ".lanes", int(np.asarray(args[2]).size))
            self._exps.append(args[1])  # mulmods are computed after the op
        elif name == "kernels.unity_roots":
            self._add(name + ".lanes", int(np.asarray(args[0]).size))
        elif name == "kernels.exponent_lookup":
            self._add(name + ".lanes", int(np.asarray(args[0]).size))
        elif name == "cyclotomic.primes_above":
            if any(s.startswith("density.") for _, s in stack):
                self._add("density.generic_ideals", sum(1 for P in result if P.f >= 2))

    # -- per-op summary ----------------------------------------------------

    def summarize(self) -> dict[str, float]:
        """Per-layer metrics of the op recorded since the last reset."""
        children: dict[int, list[tuple[float, float]]] = {}
        for _, parent, _, t0, t1 in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((t0, t1))
        calls: dict[str, int] = {}
        self_ms: dict[str, float] = {}
        kernel_intervals = []
        for sid, _, name, t0, t1 in self.spans:
            own = (t1 - t0) * 1e3 - _union_ms(children.get(sid, ()))
            calls[name] = calls.get(name, 0) + 1
            self_ms[name] = self_ms.get(name, 0.0) + own
            if name.startswith("kernels."):
                kernel_intervals.append((t0, t1))
        out: dict[str, float] = {}
        for metric, _, _ in PER_LAYER:
            base, _, field = metric.rpartition(".")
            if field == "calls" and base != "arith.ff_mul":
                out[metric] = calls.get(base, 0)
            elif field == "ms":
                out[metric] = self_ms.get(base, 0.0)
        out["arith.ff_mul.calls"] = self._ff_mul[0]
        for key in ("kernels.sieve_primes.bytes", "kernels.powmod.lanes",
                    "kernels.unity_roots.lanes", "kernels.exponent_lookup.lanes",
                    "density.generic_ideals"):
            out[key] = self.counts.get(key, 0)
        out["kernels.powmod.mulmods"] = sum(_mulmods(e) for e in self._exps)
        kernel_busy = sum(v for k, v in self_ms.items() if k.startswith("kernels."))
        wall = _union_ms(kernel_intervals)
        out["kernels.busy_over_wall"] = kernel_busy / wall if wall else 0.0
        out["density.self_ms"] = sum(v for k, v in self_ms.items() if k.startswith("density."))
        out["cli.self_ms"] = sum(v for k, v in self_ms.items() if k.startswith("cli."))
        return out
