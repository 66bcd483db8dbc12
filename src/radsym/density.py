"""Prime-ideal enumeration by norm and empirical density experiments.

The experiment counts prime ideals realizing a prescribed tuple of residue
symbol exponents and compares the observed share with the predicted
1 / l**t, where t is the number of radicands left after elimination.  A
root-of-unity character sum over the same ideals serves as a decay
diagnostic for single radicands.

Only counts per norm are reported, never which ideal matched, so the scan
never builds the ideals themselves:

* The degree-1 ideals above a split prime p == 1 mod l correspond to the
  primitive l-th roots of unity w mod p, and b_j has symbol s at the ideal
  of root w exactly when v_j = b_j**((p-1)/l) == w**s mod p.  When every
  target is 0, all l-1 ideals match if every v_j is 1 and none does
  otherwise.  Else the first nonzero target s_i pins the only candidate,
  w = v_i**(1/s_i), which matches when v_i != 1 and v_j == w**s_j for every
  j.  So one powmod per radicand and prime, which checks the subgroup guard
  v**l == 1 inside its own ladder, plus at most one root v_i**(1/s_i) with
  a scalar exponent, count the matching ideals above p: l-1, 1 or 0.  Below
  p = 1.9e8 the guard stays in powmod's float64 regime with the residues
  it checks.  The powers w**s the targets use are built one lane product
  at a time on (n,) arrays and compared row by row, so no (m, n) array of
  powers is ever formed.
* At an ideal of inertia degree f >= 2, (p**f - 1)/l is a multiple of
  p - 1, so every rational argument has symbol 0 there.  These ideals are
  counted in closed form, (l-1)/f of norm p**f above each such p, and
  match exactly when every target is 0.

The split primes are sieved window by window along the progression
1 + 2l*i, and each window leaves only integer tallies per checkpoint bound,
so memory stays flat as the bound grows and the tallies do not depend on
the thread count.  ``primes_above`` and ``residue_symbol`` remain the
per-ideal path for single queries.  ``residue_symbol`` answers a plain int at
f >= 2 by the same identity, so the tests compare the scan against it with
``CyclotomicInt`` arguments, which always take the residue-field power.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import kernels
from .arith import _check_l, exact_lth_root, factorize, order_table
from .cyclotomic import primes_above
from .radical import (
    InputSet,
    consistency_check,
    rank_and_kernel,
    reduce_basis,
    translate_targets,
)

DEFAULT_CHECKPOINTS = (10**3, 10**4, 10**5, 10**6)

# Most scan threads a call may ask for.  The pool may start one thread per
# window, and threads beyond the core count only add switching.
MAX_THREADS = 64

# Most split primes per kernel call; a window's primes are cut into equal
# blocks of at most this many, so no window ends in a short tail block.
# powmod cuts a block into cache-sized chunks itself; a block this long
# keeps each numpy pass over it long enough (tens of microseconds) for a
# second scan thread to run while this one is inside numpy, which shorter
# float64 passes did not.  The guard v**l runs inside the residue call, the
# root v_i**(1/s_i) takes a scalar exponent, and the powers w**s of the
# match counts are (n,) lane products, each a block-long pass.
_BLOCK = 1 << 15

# Sieve window, in terms of the progression 1 + 2l*i per unit of
# sqrt(norm bound).  A window loops in Python over the sieving primes (about
# 2 sqrt(X) / ln X of them), which then costs little next to its striking,
# and a window's arrays stay near a MB whatever the bound.  Threads take
# windows in turn.
_WINDOW_SCALE = 32


@dataclass(frozen=True)
class CheckpointStat:
    bound: int
    ideals: int
    matches: int
    empirical: float


@dataclass(frozen=True)
class CharSumStat:
    n: int
    bound: int
    ideals: int
    tallies: tuple[int, ...]
    value_re: float
    value_im: float
    magnitude: float
    normalized: float


@dataclass(frozen=True)
class DensityReport:
    l: int
    norm_bound: int
    radicands: tuple[int, ...]
    targets: tuple[int, ...]
    consistent: bool
    t: int
    predicted: float
    reduced: tuple[int, ...]
    translated: tuple[int, ...]
    ideals_scanned: int
    matches: int
    empirical: float
    checkpoints: tuple[CheckpointStat, ...]
    char_sums: tuple[CharSumStat, ...]


@dataclass(frozen=True)
class CharSumReport:
    l: int
    n: int
    norm_bound: int
    checkpoints: tuple[CharSumStat, ...]

    @property
    def final(self) -> CharSumStat:
        return self.checkpoints[-1]


def _check_bound(norm_bound: int) -> None:
    if norm_bound < 2:
        raise ValueError("norm bound must be at least 2")
    if norm_bound >= kernels.MAX_MODULUS:
        raise ValueError(
            f"norm bound must be below {kernels.MAX_MODULUS}, got {norm_bound}"
        )


def _check_threads(threads: int) -> None:
    if not 1 <= threads <= MAX_THREADS:
        raise ValueError(f"threads must be between 1 and {MAX_THREADS}, got {threads}")


def _checkpoint_bounds(norm_bound: int) -> tuple[int, ...]:
    bounds = {c for c in DEFAULT_CHECKPOINTS if c <= norm_bound}
    bounds.add(norm_bound)
    return tuple(sorted(bounds))


def enumerate_prime_ideals(l: int, norm_bound: int):
    """Yield every prime ideal of Z[zeta_l] with norm <= norm_bound, each
    exactly once, ordered by (norm, p, canonical factor order).  The prime
    above l is excluded."""
    _check_l(l)
    _check_bound(norm_bound)
    orders = order_table(l)
    items = []
    for p in kernels.sieve_primes(norm_bound).tolist():
        if p == l:
            continue
        norm = p ** orders[p % l]
        if norm <= norm_bound:
            items.append((norm, p))
    items.sort()
    for _, p in items:
        yield from primes_above(p, l)


def _bases(radicands: tuple[int, ...], primes: np.ndarray) -> np.ndarray:
    """The radicands as powmod bases against ``primes``: one (m, 1) column,
    which powmod reduces once, unless a radicand reaches 2**62 in absolute
    value; such a row is reduced lane by lane in Python."""
    if all(abs(b) < 2**62 for b in radicands):
        return np.array(radicands, dtype=np.int64).reshape(-1, 1)
    out = np.empty((len(radicands), primes.size), dtype=np.int64)
    for j, b in enumerate(radicands):
        out[j] = b if abs(b) < 2**62 else [b % p for p in primes.tolist()]
    return out


def _residues(l: int, primes: np.ndarray, radicands: tuple[int, ...]) -> np.ndarray:
    """The power residues v[j, i] = radicands[j]**((p-1)/l) mod p at
    p = primes[i], shape (len(radicands), len(primes)), from one powmod
    call.  Each must lie in the order-l subgroup, so v**l == 1 mod p; a
    residue that does not (0, when p divides a radicand) means corruption,
    and powmod's ``order`` check raises AssertionError ("symbol value fell
    outside the root-of-unity subgroup").  It checks the residues with the
    ladder and reduction that made them, the float64 ones while still
    balanced, which is exact: their one conversion to [0, p) is one to one."""
    return kernels.powmod(_bases(radicands, primes), (primes - 1) // l, primes, order=l)


def _match_counts(l: int, primes: np.ndarray, vals: np.ndarray, targets) -> np.ndarray:
    """Per split prime, how many ideals above it have every radicand at its
    target: l-1, 1 or 0.  Radicand j has symbol s at the ideal of root w
    exactly when v_j == w**s.  With every target 0, all l-1 ideals match
    when every v_j is 1 and none does otherwise.  Else, with s_i the first
    nonzero target, the only candidate is w = v_i**(1/s_i) (v_i itself when
    s_i = 1), which matches when v_i != 1 and v_j == w**s_j for all j.
    """
    if not any(targets):
        return (l - 1) * (vals == 1).all(axis=0)
    i = next(j for j, s in enumerate(targets) if s)
    root = pow(targets[i], -1, l)
    w = vals[i] if root == 1 else kernels.powmod(vals[i], root, primes)
    ok = vals[i] != 1  # w**s_i == v_i holds on every lane, as v_i**l == 1
    rest = [(j, s) for j, s in enumerate(targets) if j != i]
    powers = [1, w]  # powers[s] == w**s, up to the largest s the targets use
    for _ in range(2, 1 + max((s for _, s in rest), default=1)):
        powers.append(powers[-1] * w % primes)
    for j, s in rest:
        ok &= vals[j] == powers[s]
    return ok


def _high_degree_norms(l: int, norm_bound: int, exclude: frozenset[int]) -> list[int]:
    """Ascending norms of the ideals of inertia degree f >= 2 and norm <=
    norm_bound, one entry per ideal: (l-1)/f ideals of norm p**f lie above
    each p of order f mod l.  Ideals above excluded primes are left out."""
    orders = order_table(l)
    norms: list[int] = []
    for p in kernels.sieve_primes(math.isqrt(norm_bound)).tolist():
        if p == l or p in exclude:
            continue
        f = orders[p % l]
        if f >= 2 and p**f <= norm_bound:
            norms += [p**f] * ((l - 1) // f)
    return sorted(norms)


@dataclass(frozen=True)
class _Scan:
    """Counts over the ideals of norm <= one checkpoint bound."""

    bound: int
    split: int  # split primes
    high: int  # ideals of inertia degree >= 2
    matches: int  # ideals above split primes where every radicand takes its target
    nontrivial: tuple[int, ...]  # per radicand, split primes where v_j != 1


def _windows(l: int, norm_bound: int) -> list[tuple[int, int]]:
    """[lo, hi] ranges covering 1 .. norm_bound, each holding
    _WINDOW_SCALE * isqrt(norm_bound) terms of the progression 1 + 2l*i."""
    span = 2 * l * _WINDOW_SCALE * math.isqrt(norm_bound)
    return [(lo, min(lo + span - 1, norm_bound)) for lo in range(1, norm_bound + 1, span)]


def _scan(
    l: int,
    norm_bound: int,
    exclude: frozenset[int],
    radicands: tuple[int, ...],
    threads: int,
    targets: tuple[int, ...] | None = None,
) -> tuple[_Scan, ...]:
    """Counts at every checkpoint bound up to norm_bound.

    Each window sieves its split primes, drops the excluded ones and feeds
    equal blocks of them through powmod and ``_match_counts``.  Per
    checkpoint bound, with k the number of a block's primes up to it, the
    block adds k split primes, the sum of its first k match counts for
    ``targets`` (none counted when None) and, per radicand, the count of its
    first k residues other than 1; no per-lane column array is built.  Only
    these integer sums outlive a window, and they do not depend on the
    order in which threads take windows.  The degree >= 2 ideals are
    counted per bound in closed form, by ``_high_degree_norms``.
    """
    bounds = np.array(_checkpoint_bounds(norm_bound), dtype=np.int64)
    skip = np.array(sorted(p for p in exclude if p % l == 1), dtype=np.int64)

    def window(lo_hi: tuple[int, int]) -> np.ndarray:
        lo, hi = lo_hi
        primes = kernels.sieve_primes(hi, lo, l)
        if skip.size and skip[-1] >= lo and skip[0] <= hi:
            primes = primes[~np.isin(primes, skip)]
        out = np.zeros((bounds.size, 2 + len(radicands)), dtype=np.int64)
        parts = -(-primes.size // _BLOCK)
        step = -(-primes.size // parts) if parts else 1  # equal blocks, no short tail
        for start in range(0, primes.size, step):
            chunk = primes[start : start + step]
            vals = _residues(l, chunk, radicands)
            if targets is not None:
                counts = _match_counts(l, chunk, vals, targets)
            nontrivial = vals != 1
            for row, k in enumerate(np.searchsorted(chunk, bounds, side="right").tolist()):
                if k:
                    out[row, 0] += k
                    if targets is not None:
                        out[row, 1] += counts[:k].sum()
                    for j, v in enumerate(nontrivial, 2):
                        out[row, j] += np.count_nonzero(v[:k])
        return out

    windows = _windows(l, norm_bound)
    if threads > 1 and len(windows) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(window, windows))
    else:
        parts = [window(w) for w in windows]
    totals = np.sum(parts, axis=0).tolist()
    high = _high_degree_norms(l, norm_bound, exclude)
    return tuple(
        _Scan(c, split, bisect_right(high, c), matches, tuple(nontrivial))
        for c, (split, matches, *nontrivial) in zip(bounds.tolist(), totals)
    )


def _excluded_primes(s: InputSet) -> frozenset[int]:
    """l and the primes dividing the raw radicands, from their stored
    factorizations.  Every reduced b_j is a product of these primes, so it
    needs no factorization of its own."""
    return frozenset({s.l}.union(*(f.primes() for f in s.factorizations)))


def _zeta_complex(l: int) -> list[complex]:
    return [cmath.exp(2j * cmath.pi * k / l) for k in range(l)]


def _char_stat(
    n: int, bound: int, l: int, split: int, nontrivial: int, high: int
) -> CharSumStat:
    """Character sum of n over `split` split primes, `nontrivial` of which
    give n a power residue v != 1, and `high` ideals of degree >= 2.

    Above a split prime with v == 1 all l-1 symbols are 0; with v != 1 they
    run through 1 .. l-1 once each.  At degree >= 2 the symbol is always 0.
    """
    tallies = [(l - 1) * (split - nontrivial) + high] + [nontrivial] * (l - 1)
    total = sum(tallies)
    zc = _zeta_complex(l)
    value = sum(t * zc[k] for k, t in enumerate(tallies))
    magnitude = abs(value)
    normalized = magnitude / total if total else 0.0
    return CharSumStat(
        n, bound, total, tuple(tallies), value.real, value.imag, magnitude, normalized
    )


def density_experiment(
    input_set: InputSet,
    targets,
    norm_bound: int,
    *,
    threads: int = 1,
) -> DensityReport:
    """Count prime ideals realizing the target exponents for every radicand.

    Inconsistent targets short-circuit: nothing is scanned and the report
    carries exactly zero matches.  Otherwise the count runs over all prime
    ideals of norm <= norm_bound outside the primes dividing the radicands,
    with cumulative checkpoints at powers of ten.
    """
    l = input_set.l
    targets = tuple(int(r) % l for r in targets)
    _check_bound(norm_bound)
    _check_threads(threads)
    result = reduce_basis(input_set)
    predicted = 1.0 / l**result.t
    if not consistency_check(input_set, targets, rank_and_kernel(input_set)):
        return DensityReport(
            l, norm_bound, input_set.raw, targets, False, result.t, predicted,
            result.b, (), 0, 0, 0.0, (), (),
        )
    s_targets = translate_targets(result, targets)
    scans = _scan(l, norm_bound, _excluded_primes(input_set), result.b, threads, s_targets)
    # every symbol is 0 at degree >= 2, so those ideals match iff all targets are 0
    high_match = not any(s_targets)
    rows = []
    for sc in scans:
        ideals = sc.split * (l - 1) + sc.high
        matches = sc.matches + (sc.high if high_match else 0)
        rows.append(CheckpointStat(sc.bound, ideals, matches, matches / ideals if ideals else 0.0))
    final = rows[-1]
    last = scans[-1]
    char_sums = tuple(
        _char_stat(b, norm_bound, l, last.split, last.nontrivial[j], last.high)
        for j, b in enumerate(result.b)
    )
    return DensityReport(
        l, norm_bound, input_set.raw, targets, True, result.t, predicted,
        result.b, s_targets, final.ideals, final.matches, final.empirical,
        tuple(rows), char_sums,
    )


def character_sum(n: int, l: int, norm_bound: int, *, threads: int = 1) -> CharSumReport:
    """Tally zeta**exponent(n) over all qualifying prime ideals.

    Rejects exact l-th powers (their sum would be trivially the ideal count).
    Ideals above primes dividing n are skipped; the normalized magnitude is
    |sum| divided by the ideal count, 0.0 when no ideal qualifies.
    """
    _check_l(l)
    _check_bound(norm_bound)
    _check_threads(threads)
    if n == 0 or exact_lth_root(n, l) is not None:
        raise ValueError(f"{n} is an exact {l}-th power; the sum would be trivial")
    exclude = frozenset(factorize(abs(n)).primes()) | {l}
    rows = tuple(
        _char_stat(n, sc.bound, l, sc.split, sc.nontrivial[0], sc.high)
        for sc in _scan(l, norm_bound, exclude, (n,), threads)
    )
    return CharSumReport(l, n, norm_bound, rows)
