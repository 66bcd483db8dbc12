#!/usr/bin/env python3
"""Benchmark the numpy ``powmod`` kernel against a pure-Python baseline.

Times ``powmod`` on the split primes from 8 to a bound, plus a pure Python
per-element ``pow`` loop, and optionally an end-to-end density experiment in
the same process.  ``powmod`` is also timed both ways the scan could call it
for three radicands, block by block as the scan does: one stacked call per
block on the (3, 1) column of radicands against shared exponents and moduli,
as the scan passes them, and three 1-D calls per block.
The stacked call is timed again as the scan makes it, with ``order=l``, which
checks the subgroup guard v**l == 1 inside the same ladder; the two stacked
rows differ by the guard's cost.  The checked call is timed again on each
block's lanes shuffled: ascending exponents give ``powmod`` run steps at their
top bits, shuffled ones only per-lane steps, so the two rows differ by what
the run steps save.  Below the float64 limit of about 1.9e8
these take ``powmod``'s float64 reduction, so the checked call is timed once
more on the split primes of [2**30, 2**30 + bound), which take the int64
path.  ``_match_counts`` on the residues v gets one row, at targets
(0, 1, 2): its powers w**s are (n,) lane products (here w = v_1, as the
inverse of the first nonzero target is 1, and w**2 is one product).

    python3 benchmarks/bench_kernels.py --bound 2000000 --end-to-end
"""

import argparse
import time

import numpy as np

from radsym import density_experiment, kernels, normalize_inputs
from radsym.density import _BLOCK, _match_counts

TARGETS = (0, 1, 2)  # per radicand (2, 5, 7); the scan's match-count calls


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
    primes = kernels.sieve_primes(bound, 8, l)  # as the scan, none dividing 2, 5 or 7
    exps = (primes - 1) // l
    base = np.full(primes.size, 2, dtype=np.int64)
    stacked = np.array([[2], [5], [7]], dtype=np.int64)  # the scan's radicand column
    print(f"split primes 7 < p <= {bound}: {primes.size} lanes (l = {l})")

    def one_d(block) -> None:
        for row in stacked:
            kernels.powmod(row, exps[block], primes[block])

    high = kernels.sieve_primes(2**30 + bound - 1, 2**30, l)  # the int64 path
    high_exps = (high - 1) // l
    print(f"split primes in [2**30, 2**30 + {bound}): {high.size} lanes")

    def per_block(call, size=primes.size) -> None:
        for lo in range(0, size, _BLOCK):
            call(np.s_[lo : lo + _BLOCK])

    residues = kernels.powmod(stacked, exps, primes)
    rng = np.random.default_rng(0)  # each block's own lanes, in random order
    shuffled = np.concatenate([lo + rng.permutation(min(_BLOCK, primes.size - lo))
                               for lo in range(0, primes.size, _BLOCK)])
    shuffled_exps, shuffled_primes = exps[shuffled], primes[shuffled]
    rows = [
        ("powmod", timeit(lambda: kernels.powmod(base, exps, primes))),
        ("powmod (2,5,7) stacked", timeit(lambda: per_block(
            lambda b: kernels.powmod(stacked, exps[b], primes[b])))),
        (f"powmod (2,5,7) stacked, order={l}", timeit(lambda: per_block(
            lambda b: kernels.powmod(stacked, exps[b], primes[b], order=l)))),
        (f"powmod (2,5,7) stacked, order={l}, lanes shuffled", timeit(lambda: per_block(
            lambda b: kernels.powmod(stacked, shuffled_exps[b], shuffled_primes[b], order=l)))),
        ("powmod (2,5,7) 3 x 1-D", timeit(lambda: per_block(one_d))),
        (f"powmod (2,5,7) stacked, order={l}, p near 2**30", timeit(lambda: per_block(
            lambda b: kernels.powmod(stacked, high_exps[b], high[b], order=l),
            high.size))),
        (f"match counts, lane powers w**s, s={TARGETS}", timeit(lambda: per_block(
            lambda b: _match_counts(l, primes[b], residues[:, b], TARGETS)))),
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
