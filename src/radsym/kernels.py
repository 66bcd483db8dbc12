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
``powmod`` walks a call in chunks of at most 2**16 elements along the last
axis, and runs one square-and-multiply ladder per chunk under either of two
reductions, which is all its regimes differ in: the int64 ``%``, or a
float64 quotient when every product it forms is an integer below 2**53,
which float64 holds exactly: for exponents above 4 bits and moduli below
about 1.9e8, so every scan up to 1e8 and about a fifth of the split primes
of a scan to 1e9.  The ladder starts from an exact small power of the base,
b**(e >> k0) below every p/2, so with the scan's small radicands it skips
the exponent's top bits.  Each lower bit takes one step with one rule: it
squares, multiplies by the base only the lanes where the bit is set, and
reduces.  A 0-d exponent multiplies every lane or none; ascending
exponents with one base per row, as in every scan block, multiply the runs
of lanes where the bit is set, while there are few enough runs; any other
step multiplies every lane by a per-lane multiplier that is 1 where the bit
is clear.  The forms differ only in multiplies by 1, so every result is the
same, lane for lane.  With ``order`` the same ladder and reduction also
check that every result of the chunk lies in the subgroup of that order,
which is the scan's guard v**l == 1; in the float64 regime this runs on the
balanced residues before their one conversion to [0, p), so the scan never
leaves float64 below 1.9e8.  ``powmod``'s docstring gives the proofs.
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

# Most elements per chunk of a powmod call.  The float64 regime makes more
# passes per bit than the int64 one and wins only while a chunk's working
# arrays stay in a core's 2 MB L2 cache.
_CHUNK = 1 << 16

# A ladder over sorted exponents takes a run step at bit k only while e >> k
# takes at most one value per this many elements of the chunk: below that
# the numpy calls per run outweigh the passes a run step saves.
_RUN_ELEMENTS = 1 << 11


def powmod(
    base: np.ndarray, exp: np.ndarray, mod: np.ndarray, *, order: int | None = None
) -> np.ndarray:
    """Elementwise base**exp % mod by left-to-right square-and-multiply.

    Shapes broadcast, so an (m, n) block of bases against (n,) exponents and
    moduli raises m rows per lane in one pass over the exponent bits.  The
    result is an int64 array of residues in [0, mod).  The call runs in
    chunks of about _CHUNK = 2**16 elements along the last axis, each
    through one ladder, ``_ladder``, under one of the two reductions below,
    chosen per call from the moduli, bases and exponents; both give the same
    residues, lane for lane.

    The ladder starts from the exact power b**(e >> k0) for the least k0
    with max(|b|, 2)**max(e >> k0) < min(p)//2, or from the top bit alone
    when no k0 qualifies; such a start is below every p/2, so it is already
    a reduced, balanced residue in both regimes, and the ladder walks only
    the low k0 bits.  For the radicands (2, 5, 7) of a scan to 3e7 that
    skips 2 or 3 of the 17 to 23 steps of the top-bit start in 36 of its 38
    blocks.  Each bit k takes one step: it squares, multiplies by the base
    the lanes where bit k is set, and reduces.  One rule, ``_set_lanes``,
    says how a step multiplies.  With a 0-d exponent, as in the subgroup
    check below and the scan's root v**(1/s), the multiply covers every lane
    or none.  With 1-D non-decreasing exponents and one base per row (b of
    shape (m, 1) or 0-d), as in every scan block, it covers the runs of
    lanes on which e >> k is odd, found by one searchsorted, while e >> k
    takes at most one value per _RUN_ELEMENTS = 2048 elements of the chunk.
    Otherwise, and at every lower bit once a step has needed it, every lane
    is multiplied by a per-lane multiplier, the base where bit k is set and
    1 elsewhere.  A lane left out of a multiply skips only a multiply by 1,
    which is exact in both regimes, so every form of the step gives every
    lane the same residue and the proofs below hold for all of them.  In a
    scan block to 3e7 the run steps take 5.3 of the 19.3 steps per lane.

    float64, for exponents above 4 bits when every p >= 5 and
    (p//2 + 2)**2 + p < 2**53, i.e. p < 189,812,526:  a product x is reduced
    to x - rint(x * (1/p)) * p.  The float quotient is within
    |x|/p * 2**-52 * (1 + 2**-54) of x/p, which is below 2/p while
    |x| + p < 2**53; then every step is exact and the new residue is
    balanced, |r| <= p//2 + 2.  The square and the multiply share one
    reduction when max(p//2 + 2, |base|)**2 * |base| + p < 2**53 for the
    largest p and |base| (bases up to 7: p < 71,742,390).  Otherwise the
    bases are balanced too, |b| <= p//2, and a step that multiplies some
    lane reduces its square first.  As p >= 5 keeps p//2 + 2 below p,
    adding p to the negative residues at the end gives [0, p), one to one.

    int64, for every other call:  bases are reduced into [0, p) unless
    every |b| is below the smallest p, in which case they keep their sign
    and the exact start bounds them by |b| as the float64 regime does; a
    product is reduced by ``%``, which returns [0, p) from either sign,
    and the square and the multiply share one ``%`` when the largest p
    squared times the largest |b| is below 2**63; otherwise a step that
    multiplies reduces its square first.

    With ``order``, every result r must also satisfy r**order == 1 mod p,
    as a power residue in the order-l subgroup does for order = l;
    AssertionError otherwise; an ``order`` below 1 is a ValueError.  Each
    chunk checks its residues with the same ladder and reduction that made
    them, and one test serves both regimes: the power is 1 on every lane,
    or 1 mod p on every lane.  The float64 regime checks its residues
    balanced, before the final step to [0, p); that step maps them one to
    one onto the results, so a result passes exactly when its balanced
    residue does.  A balanced power has |r**order| <= p//2 + 2, below p - 1
    once p >= 7, so there it is 1 mod p only when it equals 1; below 7 it
    may also be 1 - p, and an int64 power mod 1 is 0.
    """
    mod = np.asarray(mod, dtype=np.int64)
    e = np.asarray(exp, dtype=np.int64)
    base = np.asarray(base, dtype=np.int64)
    _check_moduli(mod)
    _check_exponents(e)
    if order is not None and order < 1:
        raise ValueError(f"order must be at least 1, got {order}")
    shape = np.broadcast_shapes(base.shape, e.shape, mod.shape)
    emax = int(e.max()) if e.size else 0
    bits = emax.bit_length()
    if bits == 0 or math.prod(shape) == 0:
        return np.broadcast_to(1 % mod, shape).copy()  # 1 % p, whose every power is 1 % p
    lo, hi, low, high = int(base.min()), int(base.max()), int(mod.min()), int(mod.max())
    top = high // 2 + 2  # the largest balanced float residue
    floats = bits > _INT64_BITS and low >= 5 and top * top + high < _EXACT
    if floats:
        largest = max(-lo, hi)
        fused = max(top, largest) ** 2 * largest + high < _EXACT
        b = base
        if not fused and largest > low // 2:
            b = _reduced(base, mod, lo, hi, low)
            b = np.where(2 * b > mod, b - mod, b)
            largest = high // 2
        # a balanced residue is at most top, so its check fuses when top**3 fits
        guard_fused = top**3 + high < _EXACT
    else:
        # |b| < min(p) keeps its sign: % takes every product into [0, p) anyway
        b = base if max(-lo, hi) < low else _reduced(base, mod, lo, hi, low)
        largest = max(-int(b.min()), int(b.max()))
        fused = high**2 * largest < 1 << 63
        guard_fused = high**2 * (high - 1) < 1 << 63
    k0 = _start_shift(largest, emax, low)
    out = np.empty(shape, dtype=np.int64)
    parts = -(-math.prod(shape) // _CHUNK)
    step = -(-shape[-1] // parts)  # equal chunks along the last axis
    for i in range(0, shape[-1], step):
        chunk = out[..., i : i + step]
        bc, ec, p = (a if a.ndim == 0 or a.shape[-1] == 1 else a[..., i : i + step]
                     for a in (b, e, mod))
        reduce = partial(_reduce, p=p)
        if floats:
            bc, p = bc.astype(np.float64), p.astype(np.float64)
            reduce = partial(_reduce, p=p, inv=1.0 / p, q=np.empty(chunk.shape))
        r = _ladder(bc, ec, k0, fused, chunk.shape, reduce)
        if order is not None:
            power = _ladder(r, np.int64(order), order.bit_length() - 1, guard_fused, r.shape,
                            reduce)
            if not ((power == 1).all() or ((power - 1) % p == 0).all()):
                raise AssertionError(_OUTSIDE)
        if floats:
            r += p * (r < 0)  # into [0, p), as |r| <= p//2 + 2 < p
        chunk[...] = r
    return out


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
    own).  Each of the low k0 bits then squares, multiplies by b the lanes
    that ``_set_lanes`` names, or every lane by the per-lane multiplier where
    it names none, and reduces.  ``reduce`` takes a product back to a
    residue in place; the square and the multiply share one when ``fused``,
    and otherwise the square is reduced first where the step multiplies."""
    per_row = e.ndim == 1 and (b.ndim == 0 or b.shape[-1] == 1)  # one base per row
    if e.ndim == 0:  # b**(e >> k0) is b itself in the guard and the root
        r = np.broadcast_to(b, shape).copy()
        for _ in range((int(e) >> k0) - 1):
            r *= b
    else:
        # powers[..., j] = b**j; the start gathers b**(e >> k0) from this table
        xmax = int(e.max()) >> k0
        powers = np.empty(b.shape + (xmax + 1,), dtype=b.dtype)
        powers[..., 0] = 1
        for j in range(1, xmax + 1):
            np.multiply(powers[..., j - 1], b, out=powers[..., j])
        r = np.empty(shape, dtype=b.dtype)
        if per_row:
            # as the scan's (m, 1) radicands: a take along the last axis copies
            # row by row, several times faster than a flat take
            r[...] = np.take(powers.reshape(b.shape[:-1] + (xmax + 1,)), e >> k0, axis=-1)
        else:
            r[...] = np.take(powers, np.arange(b.size).reshape(b.shape) * (xmax + 1) + (e >> k0))
    if k0 == 0:
        reduce(r)
    # runs need sorted exponents; a limit of 0 leaves every step per-lane
    limit = r.size // _RUN_ELEMENTS if per_row and bool((e[1:] >= e[:-1]).all()) else 0
    mult = None  # the per-lane multiplier, from the first step that needs it down
    for k in range(k0 - 1, -1, -1):
        lanes = _set_lanes(e, k, limit) if mult is None else None
        factor = b
        if lanes is None:
            if mult is None:
                mult, b_minus_1, bit = np.empty_like(r), b - 1, np.empty(e.shape, dtype=e.dtype)
                # the bit cast to b's dtype first: a mixed-dtype multiply casts slower
                bit_b = bit if b.dtype == e.dtype else np.empty(e.shape, dtype=b.dtype)
            np.right_shift(e, k, out=bit)
            bit &= 1
            if bit_b is not bit:
                bit_b[...] = bit
            np.multiply(b_minus_1, bit_b, out=mult)
            mult += 1  # b where bit k is set, 1 elsewhere
            lanes, factor = [...], mult
        r *= r
        if lanes:
            if not fused:
                reduce(r)
            for s in lanes:
                r[s] *= factor
        reduce(r)
    return r


def _set_lanes(e, k: int, limit: int) -> list | None:
    """The lanes that ladder step k multiplies by the base, as a list of
    index expressions into the ladder's result, or None where the step
    needs the per-lane multiplier.  A 0-d exponent gives every lane or
    none.  1-D non-decreasing exponents under a ``limit`` above 0 give the
    runs of lanes on which e >> k is odd, while e >> k takes at most
    ``limit`` values; any other exponent, with limit 0, gives None."""
    if e.ndim == 0:
        return [...] if int(e) >> k & 1 else []
    if limit == 0:
        return None
    lo, hi = int(e[0]) >> k, int(e[-1]) >> k
    if hi - lo >= limit:
        return None
    # run j holds the lanes with e >> k == lo + j; the last one runs to the end
    cuts = [0, *np.searchsorted(e, np.arange(lo + 1, hi + 1) << k).tolist(), None]
    return [np.s_[..., cuts[j] : cuts[j + 1]] for j in range((lo + 1) % 2, hi - lo + 1, 2)]


def _reduced(base: np.ndarray, mod: np.ndarray, lo: int, hi: int, low: int) -> np.ndarray:
    """base mod p, skipping the int64 % when every base already lies in
    [0, p): at once when they lie below the smallest modulus, else after
    one comparison against each lane's modulus."""
    if lo >= 0 and (hi < low or bool((base < mod).all())):
        return base
    return np.mod(base, mod)


def _reduce(r: np.ndarray, p: np.ndarray, inv: np.ndarray | None = None,
            q: np.ndarray | None = None) -> None:
    """r to a residue mod p in place: r % p for int64, without ``inv``;
    else the balanced r - rint(r * inv) * p, with q as scratch of r's
    shape."""
    if inv is None:
        np.remainder(r, p, out=r)
        return
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
