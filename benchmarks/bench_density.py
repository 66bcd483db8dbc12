#!/usr/bin/env python3
"""Record wall time and peak RSS of fixed scans in BENCH_density.json.

Each config runs in a fresh Python process that imports radsym from the
given source tree, times one ``density_experiment``, ``character_sum`` or
``brute_force_kernel`` call and reports its own peak resident set size
(``ru_maxrss``, which includes the interpreter and numpy).  One invocation
appends one row, labelled by ``--label``, with the results of every config
plus nproc, the Python and numpy versions and the git SHA of the source tree
(null outside a git checkout):

    python3 benchmarks/bench_density.py --label change
    python3 benchmarks/bench_density.py --src ../parent/src --label parent

The configs are fixed so that rows of different commits compare:
density with l=3, radicands (2, 5), targets (0, 0) at 1e7, 1e8 and 1e9, and
l=7 with the same radicands and targets at 1e8, each with 1 and 2 threads;
``character_sum(2, 3, 10**7)`` with 1 and 2 threads; and density with l=101,
radicands (2, 3), targets (1, 2) at 1e9 on 1 thread, whose nonzero targets
exercise the match of a single ideal per prime.  The oracle study counts the
relations of the first m primes with ``brute_force_kernel`` at (l, m) =
(3, 7), (5, 5) and (3, 12), i.e. 2187, 3125 and 531441 exponent tuples.
"""

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy

REPO = Path(__file__).resolve().parent.parent

# (study, l, radicands, targets, norm bound, threads); a charsum config sums
# over its single radicand and has no targets, an oracle config has neither
# targets nor a bound and runs on 1 thread.
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
]

ABOUT = ("density_experiment, character_sum or brute_force_kernel wall time "
         "(one call, import excluded) and peak RSS of its process (ru_maxrss, "
         "import included); one fresh process per config, one run each; "
         "results without a study are density; an oracle result counts the "
         "relations of its radicands and has no norm bound")

# Runs in the child: one study, then its wall time, peak RSS and counts.
CHILD = """
import json, resource, sys, time
from radsym import brute_force_kernel, character_sum, density_experiment, normalize_inputs
study, l, radicands, targets, bound, threads = json.loads(sys.argv[1])
s = normalize_inputs(l, radicands)
t0 = time.perf_counter()
if study == "density":
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
    return {"study": study, "l": l, "radicands": list(radicands), "targets": list(targets),
            "norm_bound": bound, "threads": threads, **result}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=REPO / "src",
                        help="source tree to import radsym from")
    parser.add_argument("--label", required=True, help="name of the row, e.g. parent")
    parser.add_argument("--out", type=Path, default=REPO / "BENCH_density.json")
    args = parser.parse_args()
    src = args.src.resolve()

    results = []
    for config in CONFIGS:
        row = run_config(src, *config)
        study, l, radicands, _, bound, threads = config
        size = f"m={len(radicands)}" if bound is None else f"X={bound:.0e}"
        print(f"{study} l={l} {size} threads={threads}: {row['wall_s']:.2f} s, "
              f"{row['peak_rss_mb']:.0f} MB", flush=True)
        results.append(row)
    doc = json.loads(args.out.read_text()) if args.out.exists() else {"rows": []}
    doc["about"] = ABOUT
    doc["rows"].append({
        "label": args.label,
        "git_sha": git_sha(src),
        "date": datetime.date.today().isoformat(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "results": results,
    })
    args.out.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
