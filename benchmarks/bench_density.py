#!/usr/bin/env python3
"""Record wall time and peak RSS of fixed scans in BENCH_density.json.

Each config runs in a fresh Python process that imports radsym from the
given source tree, times one ``density_experiment``, ``character_sum`` or
``brute_force_kernel`` call, one pass of the symbol study or the answers to
one batch line (see below), and reports its own peak resident set size
(``ru_maxrss``, which includes the interpreter and numpy), with the CPU
time and largest peak RSS of the scan worker processes the call forked
(``RUSAGE_CHILDREN``, read after the timed call, once the workers it kept
are stopped and reaped), so that the memory of a 2-thread scan's workers
stays visible.  One invocation appends one row, labelled by ``--label``,
with the results of every config plus nproc, the Python and numpy versions
and the git SHA of the source tree (null outside a git checkout):

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
Five more classes sit on either side of the rule by which ``primes_above``
picks its splitting method for k = (l-1)/f factors of degree f, Gaussian
periods where f >= k, or where a random period element is likely to
separate the factors and k**2 <= f**3: (13, 2, 17) and (61, 5, 20) take the
GF(p**f) construction, (13, 4, 17), (31, 10, 20) and (61, 6, 20) the
periods.  The classes at l = 1021 take 3 primes p >= 2**20
each, at f = 12 and 15 (field path) and 17, 30 and 60 (periods), and time no
CyclotomicInt symbols, whose residue-field powers take seconds at that
degree; a result's ``count`` is its number of primes.  Two classes take the
single prime p = 2 below k, with radicands 3 and 5: (127, 7), where k = 18
and k**2 <= f**3, and (683, 22), where k = 31 and k**2 <= f**3 too; with
p < k no single period separates the factors, and both take the field path.
Two classes at l = 1009 take one small prime p >= k: 179 at f = 16, where
k = 63 and a random period separates with probability about 4e-6, so the
field path runs although k**2 <= f**3, and 37 at f = 72, where k = 14 and
that probability is 0.06, so the period path splits the factors in several
rounds of draws more often than in one.  Two more take one prime p with
f >= k but p far below k**2, where the periods need several rounds: 41 at
(1009, 36), k = 28, and 3 at (1021, 34), k = 30.
The split study times the two private splitting methods on the same primes,
both Gaussian periods (``periods_s``) and the field path (``field_s``, its
element of order l included), at (l, f) pairs on either side of that rule:
(7, 2), (13, 2) and (13, 3), (41, 4) and (41, 5), (61, 5) and (61, 6),
(211, 7) and (211, 10), (1021, 15) and (1021, 17), (127, 7) and (683, 22)
at p = 2, (1009, 16), (1009, 72) and (1009, 36) at p = 179, 37 and 41, and
(1021, 34) at p = 3.  It calls private functions whose signatures change
between commits, so it runs without ``--parent``:

    python3 benchmarks/bench_density.py --study split --runs 7 --label change

The batch study times ``radsym batch`` one line at a time, split into its
three stages: parse (``cli._config_from_json``), execute (``cli._execute``)
and serialize (``cli._dumps``), each timed by a wrapper around that function
while ``cli._run_batch`` answers the line with its reply written to a sink.
It takes one fixed line per request class of the radbench ``queries`` deck:
``symbol`` at l3.f1, l3.f2 and l7.f1 (27-, 20- and 27-bit primes) and l5.f4
(a 14-bit prime), each with radicands 226 and 851; ``degree`` at l3.m7;
``reduce`` and ``check`` at l3.m4; ``density`` at l = 3 with radicands
(2, 5) and ``charsum`` of 2 at l = 5, both at X = 1e5; and one invalid line
(an even l), which is parsed, refused by ``_execute`` and answered with an
error record.  Each
line is answered 20 times to warm up and then 300 times; a result holds the
median microseconds per request of each stage (``parse_us``, ``execute_us``,
``serialize_us``) and of the whole ``_run_batch`` call (``request_us``),
with the reply's exit code and length in bytes, which must agree between
trees whose replies are byte-identical:

    python3 benchmarks/bench_density.py --study batch --runs 5 \
        --parent ../parent/src --label change

The windows study times ``density_experiment`` with its range cut into a
given number of equal windows of whole progression terms (``cut``; the
scan's own ``_windows`` is replaced in the child), or into the tree's own
windows (``cut`` 0), at l = 3 with radicands (2, 5) and targets (0, 1) for
X = 1e5 .. 1e7, at l = 5 with (2, 3), (1, 2) and l = 7 with (2, 3, 5),
(0, 1, 2) for X = 3e5 .. 3e6, on 1 thread, and on 2 threads at X = 1e5 ..
1e6 (l = 3), 5e5 .. 3e6 (l = 7) and 2.5e6 (l = 13 with (2, 3), (0, 1)),
points on both sides of where 2 processes keep the sqrt rule's windows.
A result holds the windows the scan took and the median milliseconds per
call (``call_ms``) over 5 to 40 calls after 2 that warm up and fork any
workers:

    python3 benchmarks/bench_density.py --study windows --runs 7 \
        --parent ../parent/src --label change
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
# (inertia degree, bit length of p, number of primes, whether to time the
# CyclotomicInt symbols) in place of the norm bound.
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
    ("symbol", l, (2, 5), (), (f, bits, 40, True), 1)
    for l, f, bits in ((3, 2, 20), (5, 2, 17), (5, 4, 14), (7, 3, 14), (7, 6, 14),
                       (13, 2, 17), (13, 4, 17), (31, 10, 20), (61, 5, 20), (61, 6, 20))
] + [
    ("symbol", 1021, (2, 5), (), (f, 21, 3, False), 1) for f in (12, 15, 17, 30, 60)
] + [
    ("symbol", l, (3, 5), (), (f, 2, 1, True), 1) for l, f in ((127, 7), (683, 22))
] + [
    ("symbol", 1009, (2, 5), (), (f, bits, 1, False), 1)
    for f, bits in ((16, 8), (72, 6), (36, 6))
] + [
    ("symbol", 1021, (2, 5), (), (34, 2, 1, False), 1),
] + [
    ("batch", line["l"], (), (), (name, json.dumps(line, separators=(",", ":")), 300), 1)
    for name, line in (
        ("symbol.l3.f1", {"command": "symbol", "l": 3, "prime": 67108879, "radicands": [226, 851]}),
        ("symbol.l3.f2", {"command": "symbol", "l": 3, "prime": 524309, "radicands": [226, 851]}),
        ("symbol.l7.f1", {"command": "symbol", "l": 7, "prime": 67109071, "radicands": [226, 851]}),
        ("symbol.l5.f4", {"command": "symbol", "l": 5, "prime": 8233, "radicands": [226, 851]}),
        ("degree.l3.m7", {"command": "degree", "l": 3, "radicands": [6, 10, 15, 22, 35, 77, 210]}),
        ("reduce.l3.m4", {"command": "reduce", "l": 3, "radicands": [12, 18, 50, 75]}),
        ("check.l3.m4", {"command": "check", "l": 3, "radicands": [12, 18, 50, 75],
                         "targets": [1, 2, 0, 1]}),
        ("invalid.even-l", {"command": "degree", "l": 8, "radicands": [7]}),
        ("density.l3", {"command": "density", "l": 3, "radicands": [2, 5], "targets": [0, 1],
                        "norm_bound": 10**5}),
        ("charsum.l5", {"command": "charsum", "l": 5, "n": 2, "norm_bound": 10**5}),
    )
] + [
    ("windows", l, radicands, targets, (bound, cut), threads)
    for l, radicands, targets, threads, cuts in (
        (3, (2, 5), (0, 1), 1, {10**5: range(3), 2 * 10**5: range(4), 5 * 10**5: range(5),
                                10**6: range(7), 2 * 10**6: range(9),
                                5 * 10**6: (0, 4, 6, 8, 10, 12), 10**7: (0, 8, 12, 14, 17)}),
        (5, (2, 3), (1, 2), 1, {3 * 10**5: range(3), 10**6: range(5), 3 * 10**6: range(7)}),
        (7, (2, 3, 5), (0, 1, 2), 1, {3 * 10**5: range(3), 10**6: range(4),
                                      3 * 10**6: range(5)}),
        (3, (2, 5), (0, 1), 2, {10**5: range(3), 2 * 10**5: range(3), 3 * 10**5: range(4),
                                10**6: range(7)}),
        (7, (2, 3, 5), (0, 1, 2), 2, {5 * 10**5: range(3), 10**6: range(4),
                                      3 * 10**6: range(5)}),
        (13, (2, 3), (0, 1), 2, {25 * 10**5: range(3)}),
    )
    for bound, counts in cuts.items()
    for cut in counts
] + [
    ("split", l, (2, 5), (), (f, bits, count), 1)
    for l, f, bits, count in ((7, 2, 14, 40), (13, 2, 17, 40), (13, 3, 17, 40),
                              (41, 4, 20, 20), (41, 5, 20, 20), (61, 5, 20, 20),
                              (61, 6, 20, 20), (211, 7, 20, 5), (211, 10, 20, 5),
                              (1021, 15, 21, 3), (1021, 17, 21, 3), (127, 7, 2, 1),
                              (683, 22, 2, 1), (1009, 16, 8, 1), (1009, 72, 6, 1),
                              (1009, 36, 6, 1), (1021, 34, 2, 1))
]
STUDIES = sorted({config[0] for config in CONFIGS})
TIMINGS = ("wall_s", "peak_rss_mb", "workers_cpu_s", "workers_peak_rss_mb", "primes_above_s",
           "symbols_s", "field_symbols_s", "periods_s", "field_s", "parse_us", "execute_us",
           "serialize_us", "request_us", "call_ms")

ABOUT = ("density_experiment, character_sum or brute_force_kernel wall time "
         "(one call, import excluded), or one pass of the symbol study, and "
         "peak RSS of its process (ru_maxrss, import included); "
         "workers_cpu_s and workers_peak_rss_mb are the CPU time and the "
         "largest peak RSS of the scan worker processes it forked, stopped "
         "and reaped after the timed call (RUSAGE_CHILDREN; a worker's RSS "
         "includes the pages it shares with "
         "its parent; 0 where nothing forked, absent from older rows); one fresh "
         "process per config and run; a row with runs > 1 holds the medians "
         "of alternating parent/change runs; results without a study are "
         "density; an oracle result counts the relations of its radicands "
         "and has no norm bound; a symbol result gives the inertia degree f, "
         "the bit length of its primes and their count (40 where absent), "
         "and its time split into primes_above_s, symbols_s (plain int "
         "radicands) and field_symbols_s (the same radicands as "
         "CyclotomicInt.from_int, which take the residue-field power at "
         "every f; absent from older rows and from the l = 1021 classes); a "
         "split result times the Gaussian-period (periods_s) and GF(p**f) "
         "(field_s) splitting methods on the same primes; a batch result names "
         "one batch line of a request class and holds the median microseconds "
         "per request, over 300 answers of that line, of parsing it "
         "(parse_us), executing it (execute_us), serializing the reply "
         "(serialize_us) and the whole request (request_us), with the reply's "
         "exit code and length in bytes; a windows result times density_experiment "
         "with its range cut into cut equal windows (0: the tree's own windows) and "
         "holds the windows taken and the median ms per call (call_ms) over calls "
         "after 2 that warm up")

# Runs in the child: one study, then its wall time, peak RSS and counts.
CHILD = """
import json, resource, sys, time
from radsym import (CyclotomicInt, brute_force_kernel, character_sum, density_experiment,
                    is_prime, multiplicative_order, normalize_inputs, primes_above,
                    residue_symbol)
study, l, radicands, targets, bound, threads = json.loads(sys.argv[1])
s = normalize_inputs(l, radicands) if study in ("density", "oracle", "windows") else None
if study in ("symbol", "split"):
    f, bits, count = bound[:3]
    primes, p = [], 1 << (bits - 1)
    while len(primes) < count:
        if p != l and is_prime(p) and multiplicative_order(p, l) == f:
            primes.append(p)
        p += 1
if study == "split":
    import random
    from radsym.cyclotomic import _element_of_order_l, _split_by_field, _split_by_periods
    split = {"periods_s": 0.0, "field_s": 0.0}
if study == "symbol":
    field = bound[3]
    field_radicands = [CyclotomicInt.from_int(l, a) for a in radicands] if field else []
    split = {"primes_above_s": 0.0, "symbols_s": 0.0}
    if field:
        split["field_symbols_s"] = 0.0
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
        if field:
            split["field_symbols_s"] += time.perf_counter() - t3
    counts = {"primes": [primes[0], primes[-1]], "count": count, "ideals": ideals,
              "exponent_sum": exponents, **split}
elif study == "split":
    for p in primes:
        seed = p * 1_000_003 + l * 1_009
        t1 = time.perf_counter()
        periods = _split_by_periods(p, l, f, random.Random(seed))
        t2 = time.perf_counter()
        field = _split_by_field(p, l, f, _element_of_order_l(p, l, f, random.Random(seed)))
        split["periods_s"] += t2 - t1
        split["field_s"] += time.perf_counter() - t2
        assert sorted(periods) == sorted(field)
    counts = {"primes": [primes[0], primes[-1]], "count": count, **split}
elif study == "density":
    rep = density_experiment(s, targets, bound, threads=threads)
    counts = {"ideals": rep.ideals_scanned, "matches": rep.matches}
elif study == "oracle":
    counts = {"relations": brute_force_kernel(s)}
elif study == "windows":
    import statistics
    import radsym.density
    bound, cut = bound
    own, taken = radsym.density._windows, []

    def spy(l, x, *rest):  # a tree's _windows may or may not take threads
        if cut:
            span = 2 * l * -(-x // (2 * l * cut))
            windows = [(lo, min(lo + span - 1, x)) for lo in range(1, x + 1, span)]
        else:
            windows = own(l, x, *rest)
        taken.append(len(windows))
        return windows
    radsym.density._windows = spy
    reps = max(5, min(40, 4 * 10**6 // bound))
    times = []
    for k in range(2 + reps):  # the first 2 warm up and fork any workers
        t1 = time.perf_counter()
        rep = density_experiment(s, targets, bound, threads=threads)
        if k >= 2:
            times.append(time.perf_counter() - t1)
    counts = {"windows": taken[-1], "calls": reps,
              "call_ms": statistics.median(times) * 1e3, "ideals": rep.ideals_scanned,
              "matches": rep.matches}
elif study == "batch":
    import io, statistics
    from radsym import cli
    _, line, reps = bound
    stages = {"parse_us": "_config_from_json", "execute_us": "_execute", "serialize_us": "_dumps"}
    spent = dict.fromkeys(stages, 0.0)

    def timed(key, fn):
        def call(*args):
            t = time.perf_counter()
            try:
                return fn(*args)
            finally:
                spent[key] += time.perf_counter() - t
        return call

    for key, name in stages.items():
        setattr(cli, name, timed(key, getattr(cli, name)))

    class Sink:
        text = ""

        def write(self, text):
            self.text += text
            return len(text)

        def flush(self):
            pass

    samples = {key: [] for key in (*stages, "request_us")}
    stdout = sys.stdout
    for k in range(20 + reps):  # the first 20 warm up
        spent.update(dict.fromkeys(stages, 0.0))
        sys.stdout = sink = Sink()
        t1 = time.perf_counter()
        code = cli._run_batch(io.StringIO(line))
        t2 = time.perf_counter()
        sys.stdout = stdout
        if k >= 20:
            samples["request_us"].append((t2 - t1) * 1e6)
            for key in stages:
                samples[key].append(spent[key] * 1e6)
    counts = {"exit": code, "reply_bytes": len(sink.text),
              **{key: statistics.median(values) for key, values in samples.items()}}
else:
    rep = character_sum(radicands[0], l, bound, threads=threads).final
    counts = {"ideals": rep.ideals, "tallies": list(rep.tallies)}
wall = time.perf_counter() - t0
import radsym.density
crew = getattr(radsym.density, "_CREW", None)  # scan workers kept after the call
if crew is not None:
    crew.stop()  # RUSAGE_CHILDREN counts reaped children only
rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
workers = resource.getrusage(resource.RUSAGE_CHILDREN)  # the scan's forked workers
print(json.dumps({"wall_s": wall, "peak_rss_mb": rss_kb / 1024,
                  "workers_cpu_s": workers.ru_utime + workers.ru_stime,
                  "workers_peak_rss_mb": workers.ru_maxrss / 1024, **counts}))
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
    if study in ("symbol", "split"):
        size = {"f": bound[0], "bits": bound[1]}
    elif study == "batch":
        size = {"request": bound[0], "line": bound[1]}
    elif study == "windows":
        size = {"norm_bound": bound[0], "cut": bound[1]}
    else:
        size = {"norm_bound": bound}
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
        if study in ("symbol", "split"):
            size = f"f={bound[0]} bits={bound[1]} primes={bound[2]}"
        elif study == "batch":
            size = bound[0]
        elif study == "windows":
            size = f"X={bound[0]:.0e} cut={bound[1]}"
        else:
            size = f"m={len(radicands)}" if bound is None else f"X={bound:.0e}"
        for label, _ in sides:
            row = median_result(runs[label])
            if study == "batch":
                print(f"{label}: batch {size}: parse {row['parse_us']:.1f} us, execute "
                      f"{row['execute_us']:.1f} us, serialize {row['serialize_us']:.1f} us, "
                      f"request {row['request_us']:.1f} us", flush=True)
            elif study == "windows":
                print(f"{label}: windows l={l} {size} threads={threads}: {row['windows']} "
                      f"windows, {row['call_ms']:.2f} ms per call", flush=True)
            else:
                print(f"{label}: {study} l={l} {size} threads={threads}: {row['wall_s']:.3f} s, "
                      f"{row['peak_rss_mb']:.0f} MB; workers {row['workers_cpu_s']:.3f} s CPU, "
                      f"{row['workers_peak_rss_mb']:.0f} MB", flush=True)
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
