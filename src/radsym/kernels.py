"""Array kernels for the hot per-prime loops.

One vectorized numpy implementation of each kernel: the prime sieve over a
window of the progression 1 mod step, elementwise modular exponentiation,
the nontrivial l-th roots of unity mod p, and the discrete log inside the
order-l subgroup.  The density scan uses only ``sieve_primes`` and
``powmod``; ``unity_roots`` and ``exponent_lookup`` give the tests an
independent route to the symbol exponents (the oracle for the scan's
match counts) and stay for them and for the radbench tracer, which
resolves all four names.  No benchmark row times these two.

All kernels take and return int64 arrays.  Moduli must stay below 2**31 so
that a product of two reduced residues fits in int64 without overflow.
``powmod`` runs one square-and-multiply ladder under either of two
reductions, which is all its regimes differ in: the int64 ``%``, or a
float64 quotient when every product it forms is an integer below 2**53,
which float64 holds exactly: for exponents above 4 bits and moduli below
about 1.9e8, so every scan up to 1e8 and about a fifth of the split primes
of a scan to 1e9.  The ladder starts from an exact small power of the base,
b**(e >> k0) below every p/2, so with the scan's small radicands it skips
the exponent's top bits.  Where the exponents ascend along the lanes and
each row has one base, as in every scan block, the next bits take run
steps: at a bit k where e >> k takes at most 16 values, the lanes fall
into that many runs, and the step multiplies only the runs where bit k is
set by the base instead of every lane by a per-lane multiplier that is 1
elsewhere (in calls of at least 2048 elements per run).  It forms the same
products less the multiplies by 1, so every result is the same, lane for
lane.  With ``order`` the same ladder and reduction also check that every
result lies in the subgroup of that order, which is the scan's guard
v**l == 1; in the float64 regime this runs on the balanced residues before
their one conversion to [0, p), so the scan never leaves float64 below
1.9e8.  ``powmod``'s docstring gives the proofs.
"""

from __future__ import annotations

import math
from functools import cache, lru_cache, partial

import numpy as np

# Name of the kernel implementation, for run records.
BACKEND = "numpy"

# One product of two residues must fit in int64: (2**31)**2 < 2**63.
MAX_MODULUS = 1 << 31

# Largest sieving prime any limit below MAX_MODULUS needs.
_ROOT = math.isqrt(MAX_MODULUS - 1)


@cache
def _sieving_primes() -> np.ndarray:
    """The odd primes <= _ROOT (odd-only boolean sieve)."""
    odd = np.ones(_ROOT // 2 + 1, dtype=bool)  # odd[i] stands for 2*i + 1
    odd[0] = False
    for i in range(1, (math.isqrt(_ROOT) + 1) // 2):
        if odd[i]:
            p = 2 * i + 1
            odd[p * p // 2 :: p] = False
    return 2 * np.flatnonzero(odd) + 1


@lru_cache(maxsize=16)  # one table per progression, about 77 KB each
def _strike_table(s: int) -> tuple[np.ndarray, np.ndarray]:
    """Sieving data for the progression 1 + s*i, s even: the primes q <= _ROOT
    prime to s, and for each the index of q*k, the least multiple of q in
    the progression with k >= q.  q strikes every q-th index from there."""
    q = _sieving_primes()
    q = q[s % q != 0]
    inverse = np.zeros(s, dtype=np.int64)  # inverse[x] * x == 1 mod s for units x
    for x in range(1, s, 2):
        if math.gcd(x, s) == 1:
            inverse[x] = pow(x, -1, s)
    k = inverse[q % s]  # q*k == 1 mod s
    k += (q - k + s - 1) // s * s  # the least such k >= q
    first = (q * k - 1) // s
    for a in (q, first):
        a.setflags(write=False)  # shared by every caller
    return q, first


def sieve_primes(limit: int, lo: int = 0, step: int = 1) -> np.ndarray:
    """Ascending int64 array of the primes p with lo <= p <= limit and
    p % step == 1; with the defaults, every prime up to limit.

    The sieve covers only the indices of [lo, limit] in the odd progression
    1 + s*i, s = lcm(2, step), so a scan can take its range window by window.
    Each prime q <= sqrt(limit) prime to s strikes the indices
    i == -(s^-1) mod q whose value is at least q*q, never q itself; the
    first of them in the window is found for every q in one array step.
    """
    if step < 1:
        raise ValueError(f"step must be positive, got {step}")
    if limit >= MAX_MODULUS:
        raise ValueError(f"sieve limit must be below {MAX_MODULUS}, got {limit}")
    head = [2] if step == 1 and lo <= 2 <= limit else []
    s = step if step % 2 == 0 else 2 * step
    i0 = max(0, -(-(lo - 1) // s))  # the first index whose value is >= lo
    size = (limit - 1) // s + 1 - i0 if limit >= 1 else 0
    if size <= 0:
        return np.array(head, dtype=np.int64)
    keep = np.ones(size, dtype=bool)
    if i0 == 0:
        keep[0] = False  # 1 is not prime
    q, first = _strike_table(s)
    k = int(np.searchsorted(q, math.isqrt(limit), side="right"))
    start = np.maximum(first[:k], i0 + (first[:k] - i0) % q[:k]) - i0
    live = start < size
    for p, i in zip(q[:k][live].tolist(), start[live].tolist()):
        keep[i::p] = False
    idx = np.flatnonzero(keep)
    out = np.empty(len(head) + idx.size, dtype=np.int64)
    out[: len(head)] = head
    np.multiply(idx, s, out=out[len(head) :])
    out[len(head) :] += 1 + s * i0
    return out


def _check_moduli(mod: np.ndarray) -> None:
    if mod.size and int(mod.max()) >= MAX_MODULUS:
        raise ValueError(f"modulus exceeds {MAX_MODULUS}; int64 kernels would overflow")
    if mod.size and int(mod.min()) < 1:
        raise ValueError("moduli must be positive")


def _check_exponents(exp: np.ndarray) -> None:
    if exp.size and int(exp.min()) < 0:
        raise ValueError("exponents must be non-negative")


# Every integer of absolute value below 2**53 is exact in float64.
_EXACT = 1 << 53

# Exponents of at most this many bits stay on the int64 path, where one or
# two square-and-multiply steps cost less than the float64 conversions.
_INT64_BITS = 4

# What powmod's ``order`` check raises on.
_OUTSIDE = "symbol value fell outside the root-of-unity subgroup"

# Most elements per chunk of the float64 path.  It makes more passes per
# bit than the int64 path and wins only while its working arrays stay in a
# core's 2 MB L2 cache.
_FLOAT_CHUNK = 1 << 16

# Most values of e >> k at which a ladder over sorted exponents takes a run
# step for bit k: up to this many slice multiplies, one per run of lanes
# where the bit is set, cost less than building a per-lane multiplier.  Each
# run must also span _RUN_ELEMENTS elements of the result on average; below
# that the numpy calls per run outweigh the passes a run step saves.
_RUNS = 16
_RUN_ELEMENTS = 1 << 11


def powmod(
    base: np.ndarray, exp: np.ndarray, mod: np.ndarray, *, order: int | None = None
) -> np.ndarray:
    """Elementwise base**exp % mod by left-to-right square-and-multiply.

    Shapes broadcast, so an (m, n) block of bases against (n,) exponents and
    moduli raises m rows per lane in one pass over the exponent bits.  The
    result is an int64 array of residues in [0, mod).  One ladder,
    ``_ladder``, serves every call.  It starts from the exact power
    b**(e >> k0) for the least k0 with max(|b|, 2)**max(e >> k0) < min(p)//2,
    or from the top bit alone when no k0 qualifies; such a start is below
    every p/2, so it is already a reduced, balanced residue in both regimes
    below, and the ladder walks only the low k0 bits.  For the radicands
    (2, 5, 7) of a scan to 3e7 that skips 2 or 3 of the 17 to 23 steps of
    the top-bit start in 36 of its 38 blocks.  Each bit squares and then
    multiplies by the base where the bit is set and by 1 elsewhere.  A 0-d
    exponent, as in the subgroup check below and the scan's root
    v**(1/s), walks its own bits in Python and multiplies only where a bit
    is set, with no per-lane multiplier.  So does a run step, taken with
    1-D non-decreasing exponents and one base per row (b of shape (m, 1)
    or 0-d) at each bit k, from the top, at which e >> k takes at most
    _RUNS = 16 values and at most one per _RUN_ELEMENTS = 2048 elements of
    the result: the lanes of each value form one run, found by one
    searchsorted, and the step squares every lane, multiplies the runs of
    odd e >> k by the base and reduces as the other steps do.  A lane
    outside those runs skips only the multiply by 1, which is exact in
    both regimes, so every lane gets the same residue as from the per-lane
    step and the proofs below hold unchanged.  In a scan block to 3e7 the
    run steps take 5.3 of the 19.3 steps per lane.  The two regimes below
    differ only in how the ladder reduces a product, chosen per call from
    the moduli, bases and exponents; both give the same residues, lane for
    lane.

    float64, for exponents above 4 bits when every p >= 5 and
    (p//2 + 2)**2 + p < 2**53, i.e. p < 189,812,526:  a product x is reduced
    to x - rint(x * (1/p)) * p.  The float quotient is within
    |x|/p * 2**-52 * (1 + 2**-54) of x/p, which is below 2/p while
    |x| + p < 2**53; then every step is exact and the new residue is
    balanced, |r| <= p//2 + 2.  The square and the multiply share one
    reduction when max(p//2 + 2, |base|)**2 * |base| + p < 2**53 for the
    largest p and |base| (bases up to 7: p < 71,742,390).  Otherwise the
    bases are balanced too, |b| <= p//2, and each product is reduced on its
    own.  As p >= 5 keeps p//2 + 2 below p, adding p to the negative
    residues at the end gives [0, p), one to one.

    int64, for every other call:  bases are reduced into [0, p) unless
    every |b| is below the smallest p, in which case they keep their sign
    and the exact start bounds them by |b| as the float64 regime does; a
    product is reduced by ``%``, which returns [0, p) from either sign,
    and the square and the multiply share one ``%`` when the largest p
    squared times the largest |b| is below 2**63; otherwise each is
    reduced on its own.

    With ``order``, every result r must also satisfy r**order == 1 mod p,
    as a power residue in the order-l subgroup does for order = l;
    AssertionError otherwise.  Each regime checks its own residues with
    the same ladder and reduction.  The float64 one checks them balanced,
    before the final step to [0, p); that step maps them one to one onto
    the results, so a result passes exactly when its balanced residue
    does.  The balanced power has |r**order| <= p//2 + 2, below p - 1 once
    p >= 7, so there it is 1 mod p only when it equals 1; below 7 it may
    also be 1 - p.  The int64 one checks its output against 1 % p.
    """
    mod = np.asarray(mod, dtype=np.int64)
    e = np.asarray(exp, dtype=np.int64)
    base = np.asarray(base, dtype=np.int64)
    _check_moduli(mod)
    _check_exponents(e)
    shape = np.broadcast_shapes(base.shape, e.shape, mod.shape)
    emax = int(e.max()) if e.size else 0
    bits = emax.bit_length()
    if bits == 0 or math.prod(shape) == 0:
        return np.broadcast_to(1 % mod, shape).copy()  # 1 % p, whose every power is 1 % p
    lo, hi, low, high = int(base.min()), int(base.max()), int(mod.min()), int(mod.max())
    top = high // 2 + 2  # the largest balanced float residue
    if bits > _INT64_BITS and low >= 5 and top * top + high < _EXACT:
        largest = max(-lo, hi)
        fused = max(top, largest) ** 2 * largest + high < _EXACT
        b = base
        if not fused and largest > low // 2:
            b = _reduced(base, mod, lo, hi, low)
            b = np.where(2 * b > mod, b - mod, b)
            largest = high // 2
        # a balanced residue is at most top, so its check fuses when top**3 fits
        guard = None if order is None else (order, top**3 + high < _EXACT)
        k0 = _start_shift(largest, emax, low)
        return _powmod_float(b, e, mod, shape, k0, fused, guard)
    # |b| < min(p) keeps its sign: % takes every product into [0, p) anyway
    b = base if max(-lo, hi) < low else _reduced(base, mod, lo, hi, low)
    largest = max(-int(b.min()), int(b.max()))
    fused = high**2 * largest < 1 << 63

    def reduce(x):
        np.remainder(x, mod, out=x)

    r = _ladder(b, e, _start_shift(largest, emax, low), fused, shape, reduce)
    if order is not None:
        power = _ladder(r, np.int64(order), order.bit_length() - 1,
                        high**2 * (high - 1) < 1 << 63, shape, reduce)
        if not (power == 1 % mod).all():
            raise AssertionError(_OUTSIDE)
    return r


def _start_shift(largest: int, emax: int, low: int) -> int:
    """k0 for the ladder's exact start b**(e >> k0), given |b| <= largest,
    the largest exponent emax and the smallest modulus low: the least k0
    with max(largest, 2)**(emax >> k0) < low // 2, or the top bit alone,
    k0 = emax.bit_length() - 1, when none qualifies."""
    bound = max(largest, 2)
    k0 = emax.bit_length() - 1
    while k0 and bound ** (emax >> (k0 - 1)) < low // 2:
        k0 -= 1
    return k0


def _ladder(b, e, k0: int, fused: bool, shape: tuple, reduce) -> np.ndarray:
    """powmod's ladder, see there, in b's dtype: b**e over ``shape``.  It
    starts from b**(e >> k0), formed without reduction, which must therefore
    already be a residue; b**0 = 1 stands in for 1 % p until the first
    reduction (a start that holds every bit, k0 = 0, is reduced once on its
    own).  It then walks the low k0 bits, the top ones by ``_run_steps``
    where the call allows.  ``reduce`` takes a product back to a residue in
    place; the square and the multiply share one when ``fused``."""
    if e.ndim == 0:
        bits = bin(int(e))[3:]
        exact = len(bits) - k0  # the bits after the top one that the start holds
        r = np.broadcast_to(b, shape).copy()  # the top bit
        for i, bit in enumerate(bits):
            r *= r
            if bit == "1":
                if not fused and i >= exact:
                    reduce(r)
                r *= b
            if i >= exact:
                reduce(r)
        if k0 == 0:
            reduce(r)
        return r
    # powers[..., j] = b**j; the start gathers b**(e >> k0) from this table
    xmax = int(e.max()) >> k0
    powers = np.empty(b.shape + (xmax + 1,), dtype=b.dtype)
    powers[..., 0] = 1
    for j in range(1, xmax + 1):
        np.multiply(powers[..., j - 1], b, out=powers[..., j])
    r = np.empty(shape, dtype=b.dtype)
    per_row = e.ndim == 1 and (b.ndim == 0 or b.shape[-1] == 1)  # one base per row
    if per_row:
        # as the scan's (m, 1) radicands: a take along the last axis copies
        # row by row, several times faster than a flat take
        r[...] = np.take(powers.reshape(b.shape[:-1] + (xmax + 1,)), e >> k0, axis=-1)
    else:
        r[...] = np.take(powers, np.arange(b.size).reshape(b.shape) * (xmax + 1) + (e >> k0))
    if k0 == 0:
        reduce(r)
        return r
    k = _run_steps(r, b, e, k0 - 1, fused, reduce) if per_row else k0 - 1
    if k < 0:
        return r
    b_minus_1 = b - 1
    mult = np.empty_like(r)
    bit = np.empty(e.shape, dtype=e.dtype)
    # the bit cast to b's dtype first: a mixed-dtype multiply casts slower
    bit_b = bit if b.dtype == e.dtype else np.empty(e.shape, dtype=b.dtype)
    for k in range(k, -1, -1):
        np.right_shift(e, k, out=bit)
        bit &= 1
        if bit_b is not bit:
            bit_b[...] = bit
        np.multiply(b_minus_1, bit_b, out=mult)
        mult += 1  # b where bit k is set, 1 elsewhere
        r *= r
        if not fused:
            reduce(r)
        r *= mult
        reduce(r)
    return r


def _run_steps(r, b, e, k: int, fused: bool, reduce) -> int:
    """The ladder's run steps from bit k down, on r in place, given one
    base per row; returns the bit the per-lane steps go on from, -1 when
    none is left.  Only non-decreasing 1-D exponents take them, along which
    e >> k is constant on runs of lanes: at most _RUNS runs, and at most one
    per _RUN_ELEMENTS elements of r, at every bit they take.  A run step
    squares, multiplies by b only the runs where bit k is set and reduces,
    as the per-lane step would, less the multiplies by 1."""
    runs = min(_RUNS, r.size // _RUN_ELEMENTS)
    first, last = int(e[0]), int(e[-1])
    if (last >> k) - (first >> k) >= runs or not bool((e[1:] >= e[:-1]).all()):
        return k
    while k >= 0 and (last >> k) - (first >> k) < runs:
        lo, hi = first >> k, last >> k
        # run j holds the lanes with e >> k == lo + j
        cuts = [0, *np.searchsorted(e, np.arange(lo + 1, hi + 1) << k).tolist(), r.shape[-1]]
        r *= r
        if not fused:
            reduce(r)
        for j in range((lo + 1) % 2, hi - lo + 1, 2):  # the odd lo + j
            r[..., cuts[j] : cuts[j + 1]] *= b
        reduce(r)
        k -= 1
    return k


def _reduced(base: np.ndarray, mod: np.ndarray, lo: int, hi: int, low: int) -> np.ndarray:
    """base mod p, skipping the int64 % when every base already lies in
    [0, p): at once when they lie below the smallest modulus, else after
    one comparison against each lane's modulus."""
    if lo >= 0 and (hi < low or bool((base < mod).all())):
        return base
    return np.mod(base, mod)


def _powmod_float(
    b: np.ndarray, e: np.ndarray, mod: np.ndarray, shape: tuple, k0: int, fused: bool,
    guard: tuple[int, bool] | None,
) -> np.ndarray:
    """powmod's float64 regime, see there: the ladder on float64 copies of
    the bases, in chunks of about _FLOAT_CHUNK elements along the last axis.
    ``guard`` is (order, fused) for the subgroup check, or None."""
    out = np.empty(shape, dtype=np.int64)
    parts = -(-math.prod(shape) // _FLOAT_CHUNK)
    step = -(-shape[-1] // parts)  # equal chunks along the last axis
    for i in range(0, shape[-1], step):
        lanes = np.s_[..., i : i + step]
        bc, ec, mc = (a if a.ndim == 0 or a.shape[-1] == 1 else a[lanes] for a in (b, e, mod))
        p = mc.astype(np.float64)
        reduce = partial(_reduce, p=p, inv=1.0 / p, q=np.empty(out[lanes].shape))
        r = _ladder(bc.astype(np.float64), ec, k0, fused, out[lanes].shape, reduce)
        if guard is not None:
            order, guard_fused = guard
            power = _ladder(r, np.int64(order), order.bit_length() - 1, guard_fused, r.shape,
                            reduce)
            # |power| <= p//2 + 2 < p - 1 once p >= 7; below that 1 - p is 1 mod p too
            if not (power == 1).all() and not (power + p * (power < 0) == 1).all():
                raise AssertionError(_OUTSIDE)
        r += p * (r < 0)  # into [0, p), as |r| <= p//2 + 2 < p
        out[lanes] = r
    return out


def _reduce(r: np.ndarray, p: np.ndarray, inv: np.ndarray, q: np.ndarray) -> None:
    """r -= rint(r * inv) * p in place, with q as scratch of r's shape."""
    np.multiply(r, inv, out=q)
    np.rint(q, out=q)
    q *= p
    r -= q


def unity_roots(primes: np.ndarray, l: int) -> np.ndarray:
    """Nontrivial l-th roots of unity mod each p, ascending per row.

    Every p must satisfy p % l == 1; the result has shape (len(primes), l-1).
    Bases z = 2, 3, ... are tried in order until z**((p-1)/l) falls outside
    {0, 1}, which yields an element of exact order l.  ValueError once every
    z below some p has been tried in vain.
    """
    _check_moduli(primes)
    n = primes.shape[0]
    exp = (primes - 1) // l
    w = np.zeros(n, dtype=np.int64)
    bad = np.ones(n, dtype=bool)
    z = 2
    while bad.any():
        p = int(primes[bad].min())
        if z >= p:
            raise ValueError(f"no element of order {l} mod {p}")
        cand = powmod(np.full(int(bad.sum()), z, dtype=np.int64), exp[bad], primes[bad])
        w[bad] = cand
        bad = w <= 1
        z += 1
    out = np.empty((n, l - 1), dtype=np.int64)
    acc = w.copy()
    for j in range(l - 1):
        out[:, j] = acc
        acc = acc * w % primes
    out.sort(axis=1)
    return out


def exponent_lookup(
    values: np.ndarray, roots: np.ndarray, primes: np.ndarray, l: int
) -> np.ndarray:
    """Discrete log of ``values`` base ``roots`` inside the order-l subgroup.

    ``values`` may stack rows against one (n,) row of roots and primes, whose
    powers are then built once for all rows.  Returns e in [0, l) with
    roots**e == values mod p for each lane; -1 when the value is not a power
    of the root (callers treat that as corruption).
    """
    out = np.full(np.shape(values), -1, dtype=np.int64)
    acc = np.ones(np.shape(primes), dtype=np.int64)
    for e in range(l):
        hit = (out < 0) & (acc == values)
        out[hit] = e
        if e < l - 1:
            acc = acc * roots % primes
    return out
