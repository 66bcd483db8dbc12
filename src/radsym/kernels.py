"""Array kernels for the hot per-prime loops.

One vectorized numpy implementation of each kernel: the odd-only prime
sieve, elementwise modular exponentiation, the nontrivial l-th roots of unity
mod p, and the discrete log inside the order-l subgroup.  The density scan
uses ``sieve_primes``, ``powmod`` and ``exponent_lookup``; ``unity_roots``
serves the tests (as the oracle for ``exponent_lookup``) and the benchmarks.

All kernels operate on int64 arrays.  Moduli must stay below 2**31 so that a
product of two reduced residues fits in int64 without overflow.
"""

from __future__ import annotations

import math

import numpy as np

# Name of the kernel implementation, for run records.
BACKEND = "numpy"

# One product of two residues must fit in int64: (2**31)**2 < 2**63.
MAX_MODULUS = 1 << 31


def sieve_primes(limit: int) -> np.ndarray:
    """All primes <= limit as an ascending int64 array (odd-only boolean sieve)."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    odd = np.ones((limit + 1) // 2, dtype=bool)  # odd[i] stands for 2*i + 1
    odd[0] = False
    for i in range(1, (math.isqrt(limit) + 1) // 2):
        if odd[i]:
            p = 2 * i + 1
            odd[p * p // 2 :: p] = False
    idx = np.flatnonzero(odd)
    out = np.empty(idx.size + 1, dtype=np.int64)
    out[0] = 2
    np.multiply(idx, 2, out=out[1:])
    out[1:] += 1
    return out


def _check_moduli(mod: np.ndarray) -> None:
    if mod.size and int(mod.max()) >= MAX_MODULUS:
        raise ValueError(f"modulus exceeds {MAX_MODULUS}; int64 kernels would overflow")


def _check_exponents(exp: np.ndarray) -> None:
    if exp.size and int(exp.min()) < 0:
        raise ValueError("exponents must be non-negative")


def powmod(base: np.ndarray, exp: np.ndarray, mod: np.ndarray) -> np.ndarray:
    """Elementwise base**exp % mod by square-and-multiply."""
    _check_moduli(mod)
    _check_exponents(exp)
    b = np.mod(base.astype(np.int64), mod)
    e = exp.astype(np.int64).copy()
    result = np.ones_like(mod)
    while True:
        result = np.where((e & 1) == 1, result * b % mod, result)
        e >>= 1
        if not e.any():
            return result
        b = b * b % mod


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

    Returns e in [0, l) with roots**e == values mod p for each lane; -1 when
    the value is not a power of the root (callers treat that as corruption).
    """
    n = values.shape[0]
    out = np.full(n, -1, dtype=np.int64)
    acc = np.ones(n, dtype=np.int64)
    for e in range(l):
        hit = (out < 0) & (acc == values)
        out[hit] = e
        if e < l - 1:
            acc = acc * roots % primes
    return out
