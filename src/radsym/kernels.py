"""Array kernels for the hot per-prime loops.

One vectorized numpy implementation of each kernel: the prime sieve over a
window of the progression 1 mod step, elementwise modular exponentiation,
the nontrivial l-th roots of unity mod p, and the discrete log inside the
order-l subgroup.  The density scan uses only ``sieve_primes`` and
``powmod``; ``unity_roots`` and ``exponent_lookup`` give the tests an
independent route to the symbol exponents (the oracle for the scan's
matched roots) and stay for them and for the radbench tracer, which
resolves all four names.  No benchmark row times these two.

All kernels take and return int64 arrays.  Moduli must stay below 2**31 so
that a product of two reduced residues fits in int64 without overflow.
``powmod`` reduces in float64 instead when every product it forms is an
integer below 2**53, which float64 holds exactly: for exponents above 4
bits and moduli below about 1.9e8, so every scan up to 1e8 and about a
fifth of the split primes of a scan to 1e9.  Its docstring gives the proof.
"""

from __future__ import annotations

import math
from functools import cache, lru_cache

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

# Most elements per chunk of the float64 path.  It makes more passes per
# bit than the int64 path and wins only while its working arrays stay in a
# core's 2 MB L2 cache.
_FLOAT_CHUNK = 1 << 16


def powmod(base: np.ndarray, exp: np.ndarray, mod: np.ndarray) -> np.ndarray:
    """Elementwise base**exp % mod by left-to-right square-and-multiply.

    Shapes broadcast, so an (m, n) block of bases against (n,) exponents and
    moduli raises m rows per lane in one pass over the exponent bits.  Each
    bit squares and then multiplies by the base or by 1.  The result is an
    int64 array of residues in [0, mod).  One of two reductions is chosen
    per call from its moduli, bases and exponents; both give the same
    residues, lane for lane.

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
    residues at the end gives [0, p).

    int64, for every other call:  bases are reduced into [0, p), and the two
    products share one ``%`` when the largest p squared times the largest
    base is below 2**63; otherwise each is reduced on its own.  A 0-d
    exponent, as in the scan's guard v**l and its root v**(1/s), walks the
    exponent's own bits in Python: each step squares, multiplies by the base
    only where that bit is set, and reduces, with no per-lane multiplier.
    """
    mod = np.asarray(mod, dtype=np.int64)
    e = np.asarray(exp, dtype=np.int64)
    base = np.asarray(base, dtype=np.int64)
    _check_moduli(mod)
    _check_exponents(e)
    shape = np.broadcast_shapes(base.shape, e.shape, mod.shape)
    one = 1 % mod
    bits = int(e.max()).bit_length() if e.size else 0
    if bits == 0 or math.prod(shape) == 0:
        return np.broadcast_to(one, shape).copy()
    lo, hi, low, high = int(base.min()), int(base.max()), int(mod.min()), int(mod.max())
    top = high // 2 + 2  # the largest balanced float residue
    if bits > _INT64_BITS and low >= 5 and top * top + high < _EXACT:
        largest = max(-lo, hi)
        fused = max(top, largest) ** 2 * largest + high < _EXACT
        b = base
        if not fused and largest > low // 2:
            b = _reduced(base, mod, lo, hi, low)
            b = np.where(2 * b > mod, b - mod, b)
        return _powmod_float(b, e, mod, shape, bits, fused)
    b = _reduced(base, mod, lo, hi, low)
    fused = high**2 * int(b.max()) < 1 << 63
    if e.ndim == 0:
        r = np.broadcast_to(b, shape).copy()  # the top bit
        for bit in bin(int(e))[3:]:
            np.multiply(r, r, out=r)
            if bit == "1":
                if not fused:
                    np.remainder(r, mod, out=r)
                r *= b
            np.remainder(r, mod, out=r)
        return r
    r = np.where((e >> (bits - 1)) & 1 == 1, b, one)
    b_minus_1 = b - 1
    mult = np.empty(shape, dtype=np.int64)
    for k in range(bits - 2, -1, -1):
        np.multiply(b_minus_1, (e >> k) & 1, out=mult)
        mult += 1  # b where bit k is set, 1 elsewhere
        np.multiply(r, r, out=r)
        if not fused:
            np.remainder(r, mod, out=r)
        r *= mult
        np.remainder(r, mod, out=r)
    return r


def _reduced(base: np.ndarray, mod: np.ndarray, lo: int, hi: int, low: int) -> np.ndarray:
    """base mod p, skipping the int64 % when every base already lies in
    [0, p): at once when they lie below the smallest modulus, else after
    one comparison against each lane's modulus."""
    if lo >= 0 and (hi < low or bool((base < mod).all())):
        return base
    return np.mod(base, mod)


def _powmod_float(
    b: np.ndarray, e: np.ndarray, mod: np.ndarray, shape: tuple, bits: int, fused: bool
) -> np.ndarray:
    """powmod's float64 path, see there, in chunks of about _FLOAT_CHUNK
    elements along the last axis."""
    out = np.empty(shape, dtype=np.int64)
    parts = -(-math.prod(shape) // _FLOAT_CHUNK)
    step = -(-shape[-1] // parts)  # equal chunks along the last axis
    for i in range(0, shape[-1], step):
        lanes = np.s_[..., i : i + step]
        bc, ec, mc = (a if a.ndim == 0 or a.shape[-1] == 1 else a[lanes] for a in (b, e, mod))
        p = mc.astype(np.float64)
        inv = 1.0 / p
        bf = bc.astype(np.float64)
        r = np.empty(out[lanes].shape)
        r[...] = np.where((ec >> (bits - 1)) & 1 == 1, bf, 1.0)
        b_minus_1 = bf - 1
        mult = np.empty_like(r)
        q = np.empty_like(r)
        for k in range(bits - 2, -1, -1):
            np.multiply(b_minus_1, ((ec >> k) & 1).astype(np.float64), out=mult)
            mult += 1  # b where bit k is set, 1 elsewhere
            r *= r
            if not fused:
                _reduce(r, p, inv, q)
            r *= mult
            _reduce(r, p, inv, q)
        r += p * (r < 0)  # into [0, p), as |r| <= p//2 + 2 < p
        out[lanes] = r
    return out


def _reduce(r: np.ndarray, p: np.ndarray, inv: np.ndarray, q: np.ndarray) -> None:
    """r -= rint(r * inv) * p in place, with q as scratch."""
    np.multiply(r, inv, out=q)
    np.rint(q, out=q)
    np.multiply(q, p, out=q)
    np.subtract(r, q, out=r)


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
