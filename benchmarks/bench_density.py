#!/usr/bin/env python3
"""Record wall time and peak RSS of fixed scans in BENCH_density.json.

Each config runs in a fresh Python process that imports radsym from the
given source tree, times one ``density_experiment``, ``character_sum`` or
``brute_force_kernel`` call, or one pass of the symbol study, and reports its
own peak resident set size (``ru_maxrss``, which includes the interpreter
and numpy).  One invocation appends one row, labelled by ``--label``, with
the results of every config plus nproc, the Python and numpy versions and
the git SHA of the source tree (null outside a git checkout):

    python3 benchmarks/bench_density.py --label change
    python3 benchmarks/bench_density.py --src ../parent/src --label parent

With ``--parent SRC`` each config runs ``--runs`` times in both trees,
alternating which tree goes first, and two rows are appended: ``parent``
for SRC and ``--label`` for ``--src``, each holding the per-config medians.
``--study`` restricts a run to some studies:

    python3 benchmarks/bench_density.py --study symbol --runs 7 \
        --parent ../parent/src --label change

The configs are fixed so that rows of different commits compare:
density with l=3, radicands (2, 5), targets (0, 0) at 1e7, 1e8 and 1e9, and
l=7 with the same radicands and targets at 1e8, each with 1 and 2 threads;
``character_sum(2, 3, 10**7)`` with 1 and 2 threads; and density with l=101,
radicands (2, 3), targets (1, 2) at 1e9 on 1 thread, whose nonzero targets
exercise the match of a single ideal per prime.  The oracle study counts the
relations of the first m primes with ``brute_force_kernel`` at (l, m) =
(3, 7), (5, 5) and (3, 12), i.e. 2187, 3125 and 531441 exponent tuples, and
of 12 copies of 2 at l=3, whose 3**11 relations fill a subgroup of rank 11.
The symbol study follows the ``symbol`` requests of the radbench ``queries``
deck at inertia degree f >= 2: for each (l, f, bits) of (3, 2, 20),
(5, 2, 17), (5, 4, 14), (7, 3, 14) and (7, 6, 14) it takes the first 40
primes p >= 2**(bits-1) of order f mod l and times ``primes_above(p, l)``
plus the symbols of 2 and 5 at every ideal above p, one pass over the 40;
the symbols are timed twice, once for the plain ints (closed form at f >= 2)
and once for ``CyclotomicInt.from_int(l, a)``, which takes the power in the
residue field at every f.
Three more classes sit on either side of the rule by which ``primes_above``
picks its splitting method for k = (l-1)/f factors of degree f: (13, 2, 17)
has k = 6 > f and takes the GF(p**f) construction, (13, 4, 17) and
(31, 10, 20) have f >= k and take the Gaussian periods.
"""

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

REPO = Path(__file__).resolve().parent.parent

# (study, l, radicands, targets, norm bound, threads); a charsum config sums
# over its single radicand and has no targets, an oracle config has neither
# targets nor a bound and runs on 1 thread.  A symbol config puts its
# (inertia degree, bit length of p) in place of the norm bound.
SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
CONFIGS = [
    ("density", l, (2, 5), (0, 0), bound, threads)
    for l, bound in ((3, 10**7), (3, 10**8), (3, 10**9), (7, 10**8))
    for threads in (1, 2)
] + [
    ("charsum", 3, (2,), (), 10**7, 1),
    ("charsum", 3, (2,), (), 10**7, 2),
    ("density", 101, (2, 3), (1, 2), 10**9, 1),
] + [
    ("oracle", l, SMALL_PRIMES[:m], (), None, 1) for l, m in ((3, 7), (5, 5), (3, 12))
] + [
    ("oracle", 3, (2,) * 12, (), None, 1),
] + [
    ("symbol", l, (2, 5), (), (f, bits), 1)
    for l, f, bits in ((3, 2, 20), (5, 2, 17), (5, 4, 14), (7, 3, 14), (7, 6, 14),
                       (13, 2, 17), (13, 4, 17), (31, 10, 20))
]
STUDIES = sorted({config[0] for config in CONFIGS})
TIMINGS = ("wall_s", "peak_rss_mb", "primes_above_s", "symbols_s", "field_symbols_s")

ABOUT = ("density_experiment, character_sum or brute_force_kernel wall time "
         "(one call, import excluded), or one pass of the symbol study, and "
         "peak RSS of its process (ru_maxrss, import included); one fresh "
         "process per config and run; a row with runs > 1 holds the medians "
         "of alternating parent/change runs; results without a study are "
         "density; an oracle result counts the relations of its radicands "
         "and has no norm bound; a symbol result gives the inertia degree f "
         "and bit length of its primes, split into primes_above_s, "
         "symbols_s (plain int radicands) and field_symbols_s (the same "
         "radicands as CyclotomicInt.from_int, which take the residue-field "
         "power at every f; absent from older rows)")

# Runs in the child: one study, then its wall time, peak RSS and counts.
CHILD = """
import json, resource, sys, time
from radsym import (CyclotomicInt, brute_force_kernel, character_sum, density_experiment,
                    is_prime, multiplicative_order, normalize_inputs, primes_above,
                    residue_symbol)
study, l, radicands, targets, bound, threads = json.loads(sys.argv[1])
s = normalize_inputs(l, radicands)
if study == "symbol":
    f, bits = bound
    primes, p = [], 1 << (bits - 1)
    while len(primes) < 40:
        if p != l and is_prime(p) and multiplicative_order(p, l) == f:
            primes.append(p)
        p += 1
    field_radicands = [CyclotomicInt.from_int(l, a) for a in radicands]
    split = {"primes_above_s": 0.0, "symbols_s": 0.0, "field_symbols_s": 0.0}
t0 = time.perf_counter()
if study == "symbol":
    ideals, exponents = 0, 0
    for p in primes:
        t1 = time.perf_counter()
        above = primes_above(p, l)
        t2 = time.perf_counter()
        ideals += len(above)
        exponents += sum(residue_symbol(a, I) for I in above for a in radicands)
        t3 = time.perf_counter()
        for I in above:
            for a in field_radicands:
                residue_symbol(a, I)
        split["primes_above_s"] += t2 - t1
        split["symbols_s"] += t3 - t2
        split["field_symbols_s"] += time.perf_counter() - t3
    counts = {"primes": [primes[0], primes[-1]], "ideals": ideals,
              "exponent_sum": exponents, **split}
elif study == "density":
    rep = density_experiment(s, targets, bound, threads=threads)
    counts = {"ideals": rep.ideals_scanned, "matches": rep.matches}
elif study == "oracle":
    counts = {"relations": brute_force_kernel(s)}
else:
    rep = character_sum(radicands[0], l, bound, threads=threads).final
    counts = {"ideals": rep.ideals, "tallies": list(rep.tallies)}
wall = time.perf_counter() - t0
rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"wall_s": wall, "peak_rss_mb": rss_kb / 1024, **counts}))
"""


def git_sha(src: Path):
    """HEAD of the checkout holding ``src``, with "-dirty" when src/ differs."""
    def git(*args):
        return subprocess.run(
            ["git", "-C", str(src), *args], capture_output=True, text=True
        )

    head = git("rev-parse", "HEAD")
    if head.returncode != 0:
        return None
    dirty = git("status", "--porcelain", "--", ".").stdout.strip()
    return head.stdout.strip() + ("-dirty" if dirty else "")


def run_config(src: Path, study: str, l: int, radicands: tuple, targets: tuple,
               bound: int, threads: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    arg = json.dumps([study, l, radicands, targets, bound, threads])
    out = subprocess.run(
        [sys.executable, "-c", CHILD, arg], env=env, capture_output=True, text=True,
        check=True,
    )
    result = json.loads(out.stdout)
    size = {"f": bound[0], "bits": bound[1]} if study == "symbol" else {"norm_bound": bound}
    return {"study": study, "l": l, "radicands": list(radicands), "targets": list(targets),
            **size, "threads": threads, **result}


def median_result(runs: list[dict]) -> dict:
    """The first run with each timing replaced by its median over the runs;
    every other field must agree between runs."""
    row = dict(runs[0])
    for key, value in row.items():
        if key in TIMINGS:
            row[key] = statistics.median(run[key] for run in runs)
        elif any(run[key] != value for run in runs):
            raise RuntimeError(f"{key} differs between runs of {row['study']} l={row['l']}")
    return row


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=REPO / "src",
                        help="source tree to import radsym from")
    parser.add_argument("--label", required=True, help="name of the row, e.g. parent")
    parser.add_argument("--out", type=Path, default=REPO / "BENCH_density.json")
    parser.add_argument("--parent", type=Path,
                        help="source tree of the parent commit, run alternately with --src")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per config and tree; rows keep the medians")
    parser.add_argument("--study", action="append", choices=STUDIES,
                        help="run only this study (repeatable); default every study")
    args = parser.parse_args()
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    sides = [("parent", args.parent.resolve())] if args.parent else []
    sides.append((args.label, args.src.resolve()))

    results = {label: [] for label, _ in sides}
    for config in CONFIGS:
        study, l, radicands, _, bound, threads = config
        if args.study and study not in args.study:
            continue
        runs = {label: [] for label, _ in sides}
        for k in range(args.runs):
            for label, src in sides if k % 2 == 0 else sides[::-1]:
                runs[label].append(run_config(src, *config))
        if study == "symbol":
            size = f"f={bound[0]} bits={bound[1]}"
        else:
            size = f"m={len(radicands)}" if bound is None else f"X={bound:.0e}"
        for label, _ in sides:
            row = median_result(runs[label])
            print(f"{label}: {study} l={l} {size} threads={threads}: {row['wall_s']:.3f} s, "
                  f"{row['peak_rss_mb']:.0f} MB", flush=True)
            results[label].append(row)
    doc = json.loads(args.out.read_text()) if args.out.exists() else {"rows": []}
    doc["about"] = ABOUT
    for label, src in sides:
        doc["rows"].append({
            "label": label,
            "git_sha": git_sha(src),
            "date": datetime.date.today().isoformat(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "runs": args.runs,
            "results": results[label],
        })
    args.out.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
