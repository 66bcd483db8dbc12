"""Array kernels for the hot per-prime loops.

Two interchangeable backends compute the same integer results:

* ``numba``: ``@njit``-compiled scalar loops (default when numba imports),
* ``numpy``: vectorized pure-numpy fallback.

Selection is controlled by the ``RADSYM_BACKEND`` environment variable
(``auto``/``numba``/``numpy``, read once at import time).  Both variants are
kept importable so they can be cross-checked and benchmarked against each
other; ``benchmarks/bench_kernels.py`` compares them.

All kernels operate on int64 arrays.  Moduli must stay below 2**31 so that a
product of two reduced residues fits in int64 without overflow.
"""

from __future__ import annotations

import math
import os

import numpy as np

# One product of two residues must fit in int64: (2**31)**2 < 2**63.
MAX_MODULUS = 1 << 31

_ENV_VAR = "RADSYM_BACKEND"

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is a declared dependency
    HAVE_NUMBA = False


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


# ---------------------------------------------------------------------------
# numpy backend


def powmod_numpy(base: np.ndarray, exp: np.ndarray, mod: np.ndarray) -> np.ndarray:
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


def unity_roots_numpy(primes: np.ndarray, l: int) -> np.ndarray:
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
        cand = powmod_numpy(np.full(int(bad.sum()), z, dtype=np.int64), exp[bad], primes[bad])
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


def exponent_lookup_numpy(
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


# ---------------------------------------------------------------------------
# numba backend

if HAVE_NUMBA:

    @njit(cache=True, nogil=True)
    def _powmod_loop(base, exp, mod):  # pragma: no cover - exercised via wrapper
        n = base.shape[0]
        out = np.empty(n, dtype=np.int64)
        for i in range(n):
            m = mod[i]
            b = base[i] % m
            if b < 0:
                b += m
            e = exp[i]
            r = 1
            while e > 0:
                if e & 1:
                    r = r * b % m
                b = b * b % m
                e >>= 1
            out[i] = r
        return out

    @njit(cache=True, nogil=True)
    def _unity_roots_loop(primes, l):  # pragma: no cover - exercised via wrapper
        n = primes.shape[0]
        out = np.empty((n, l - 1), dtype=np.int64)
        for i in range(n):
            p = primes[i]
            e0 = (p - 1) // l
            w = 0
            z = 2
            while True:
                b = z % p
                e = e0
                r = 1
                while e > 0:
                    if e & 1:
                        r = r * b % p
                    b = b * b % p
                    e >>= 1
                if r > 1:
                    w = r
                    break
                z += 1
            acc = w
            for j in range(l - 1):
                out[i, j] = acc
                acc = acc * w % p
            # insertion sort; rows have at most l-1 <= 6 entries
            for a in range(1, l - 1):
                key = out[i, a]
                c = a - 1
                while c >= 0 and out[i, c] > key:
                    out[i, c + 1] = out[i, c]
                    c -= 1
                out[i, c + 1] = key
        return out

    @njit(cache=True, nogil=True)
    def _exponent_lookup_loop(values, roots, primes, l):  # pragma: no cover
        n = values.shape[0]
        out = np.empty(n, dtype=np.int64)
        for i in range(n):
            p = primes[i]
            r = roots[i]
            v = values[i]
            acc = 1
            found = -1
            for e in range(l):
                if acc == v:
                    found = e
                    break
                acc = acc * r % p
            out[i] = found
        return out

    def powmod_numba(base: np.ndarray, exp: np.ndarray, mod: np.ndarray) -> np.ndarray:
        _check_moduli(mod)
        _check_exponents(exp)
        return _powmod_loop(
            np.ascontiguousarray(base, dtype=np.int64),
            np.ascontiguousarray(exp, dtype=np.int64),
            np.ascontiguousarray(mod, dtype=np.int64),
        )

    def unity_roots_numba(primes: np.ndarray, l: int) -> np.ndarray:
        _check_moduli(primes)
        return _unity_roots_loop(np.ascontiguousarray(primes, dtype=np.int64), l)

    def exponent_lookup_numba(
        values: np.ndarray, roots: np.ndarray, primes: np.ndarray, l: int
    ) -> np.ndarray:
        return _exponent_lookup_loop(
            np.ascontiguousarray(values, dtype=np.int64),
            np.ascontiguousarray(roots, dtype=np.int64),
            np.ascontiguousarray(primes, dtype=np.int64),
            l,
        )

else:  # pragma: no cover
    powmod_numba = None
    unity_roots_numba = None
    exponent_lookup_numba = None


def _resolve_backend() -> str:
    choice = os.environ.get(_ENV_VAR, "auto").strip().lower()
    if choice in ("", "auto"):
        return "numba" if HAVE_NUMBA else "numpy"
    if choice == "numba":
        if not HAVE_NUMBA:
            raise ImportError(f"{_ENV_VAR}=numba requested but numba is not importable")
        return "numba"
    if choice == "numpy":
        return "numpy"
    raise ValueError(f"unrecognized {_ENV_VAR}={choice!r}; use auto, numba, or numpy")


BACKEND = _resolve_backend()

if BACKEND == "numba":
    powmod = powmod_numba
    unity_roots = unity_roots_numba
    exponent_lookup = exponent_lookup_numba
else:
    powmod = powmod_numpy
    unity_roots = unity_roots_numpy
    exponent_lookup = exponent_lookup_numpy
