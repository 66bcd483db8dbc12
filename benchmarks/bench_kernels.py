#!/usr/bin/env python3
"""Benchmark the numpy ``powmod`` kernel against a pure-Python baseline.

Times ``powmod`` on the split primes below a bound, plus a pure Python
per-element ``pow`` loop, and optionally an end-to-end density experiment in
the same process.  ``powmod`` is also timed both ways the scan could call it
for three radicands, block by block as the scan does: one stacked (3, n) call
per block against shared exponents and moduli, and three 1-D calls per block.
Below the float64 limit of about 1.9e8 these take ``powmod``'s float64
reduction, so the stacked call is timed once more on the split primes of
[2**30, 2**30 + bound), which take the int64 path.  The per-block work the
scan does on those residues v gets one row each, at targets (0, 1, 2): the
subgroup guard v**l, one ``powmod`` call with a 0-d exponent, and
``_matched_roots``, whose powers w**s are (n,) lane products (here w = v_1,
as the inverse of the first nonzero target is 1, and w**2 is one product).

    python3 benchmarks/bench_kernels.py --bound 2000000 --end-to-end
"""

import argparse
import time

import numpy as np

from radsym import density_experiment, kernels, normalize_inputs
from radsym.density import _BLOCK, _matched_roots

TARGETS = (0, 1, 2)  # per radicand (2, 5, 7); the scan's matched-root calls


def timeit(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def python_powmod(base, exp, mod):
    return [pow(int(b), int(e), int(m)) for b, e, m in zip(base, exp, mod)]


def bench_kernels(bound: int, l: int) -> None:
    primes = kernels.sieve_primes(bound, 0, l)
    exps = (primes - 1) // l
    base = np.full(primes.size, 2, dtype=np.int64)
    stacked = np.stack([np.full(primes.size, b, dtype=np.int64) for b in (2, 5, 7)])
    print(f"split primes <= {bound}: {primes.size} lanes (l = {l})")

    def one_d(block) -> None:
        for row in stacked[:, block]:
            kernels.powmod(row, exps[block], primes[block])

    high = kernels.sieve_primes(2**30 + bound - 1, 2**30, l)  # the int64 path
    high_exps = (high - 1) // l
    high_stacked = stacked[:, :1].repeat(high.size, axis=1)
    print(f"split primes in [2**30, 2**30 + {bound}): {high.size} lanes")

    def per_block(call, size=primes.size) -> None:
        for lo in range(0, size, _BLOCK):
            call(np.s_[lo : lo + _BLOCK])

    residues = kernels.powmod(stacked, exps, primes)
    rows = [
        ("powmod", timeit(lambda: kernels.powmod(base, exps, primes))),
        ("powmod (2,5,7) stacked", timeit(lambda: per_block(
            lambda b: kernels.powmod(stacked[:, b], exps[b], primes[b])))),
        ("powmod (2,5,7) 3 x 1-D", timeit(lambda: per_block(one_d))),
        ("powmod (2,5,7) stacked, p near 2**30", timeit(lambda: per_block(
            lambda b: kernels.powmod(high_stacked[:, b], high_exps[b], high[b]), high.size))),
        ("powmod guard v**l, 0-d exponent", timeit(lambda: per_block(
            lambda b: kernels.powmod(residues[:, b], l, primes[b])))),
        (f"matched roots, lane powers w**s, s={TARGETS}", timeit(lambda: per_block(
            lambda b: _matched_roots(l, primes[b], residues[:, b], TARGETS)))),
        ("powmod/python", timeit(lambda: python_powmod(base, exps, primes), 1)),
    ]
    width = max(len(name) for name, _ in rows)
    for name, seconds in rows:
        print(f"  {name:<{width}}  {seconds * 1e3:9.2f} ms")


def bench_end_to_end(bound: int) -> None:
    t0 = time.perf_counter()
    rep = density_experiment(normalize_inputs(3, [2, 5]), (0, 0), bound)
    dt = time.perf_counter() - t0
    print(f"density_experiment end to end (bound {bound}):")
    print(f"  {dt:.3f}s  ideals={rep.ideals_scanned} matches={rep.matches}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bound", type=int, default=2_000_000)
    parser.add_argument("-l", type=int, default=3)
    parser.add_argument("--end-to-end", action="store_true")
    args = parser.parse_args()
    bench_kernels(args.bound, args.l)
    if args.end_to_end:
        bench_end_to_end(args.bound)


if __name__ == "__main__":
    main()
