"""Array kernels for the hot per-prime loops.

One vectorized numpy implementation of each kernel: the prime sieve over a
window of the progression 1 mod step, elementwise modular exponentiation,
the nontrivial l-th roots of unity mod p, and the discrete log inside the
order-l subgroup.  The density scan uses only ``sieve_primes`` and
``powmod``; ``unity_roots`` and ``exponent_lookup`` give the tests an
independent route to the symbol exponents (the oracle for the scan's
matched roots) and are timed by the benchmarks.

All kernels operate on int64 arrays.  Moduli must stay below 2**31 so that a
product of two reduced residues fits in int64 without overflow.
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


def _check_exponents(exp: np.ndarray) -> None:
    if exp.size and int(exp.min()) < 0:
        raise ValueError("exponents must be non-negative")


def powmod(base: np.ndarray, exp: np.ndarray, mod: np.ndarray) -> np.ndarray:
    """Elementwise base**exp % mod by left-to-right square-and-multiply.

    Shapes broadcast, so an (m, n) block of bases against (n,) exponents and
    moduli raises m rows per lane in one pass over the exponent bits.  Each
    bit squares and then multiplies by the base or by 1.  When the largest
    modulus squared times the largest reduced base fits in int64, the two
    products share one reduction; otherwise each is reduced on its own.
    """
    mod = np.asarray(mod, dtype=np.int64)
    e = np.asarray(exp, dtype=np.int64)
    _check_moduli(mod)
    _check_exponents(e)
    b = np.mod(np.asarray(base, dtype=np.int64), mod)
    shape = np.broadcast_shapes(b.shape, e.shape)
    one = 1 % mod
    bits = int(e.max()).bit_length() if e.size else 0
    if bits == 0 or b.size == 0:
        return np.broadcast_to(one, shape).copy()
    fused = int(mod.max()) ** 2 * int(b.max()) < 1 << 63
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


def unity_roots(primes: np.ndarray, l: int) -> np.ndarray:
    """Nontrivial l-th roots of unity mod each p, ascending per row.

    Every p must satisfy p % l == 1; the result has shape (len(primes), l-1).
    Bases z = 2, 3, ... are tried in order until z**((p-1)/l) falls outside
    {0, 1}, which yields an element of exact order l.
    """
    _check_moduli(primes)
    n = primes.shape[0]
    exp = (primes - 1) // l
    w = np.zeros(n, dtype=np.int64)
    bad = np.ones(n, dtype=bool)
    z = 2
    while bad.any():
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
