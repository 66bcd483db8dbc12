import math

import numpy as np
import pytest

from radsym import kernels


def test_sieve_matches_trial_division():
    def naive(limit):
        return [n for n in range(2, limit + 1) if all(n % d for d in range(2, n))]

    assert kernels.sieve_primes(1000).tolist() == naive(1000)
    assert kernels.sieve_primes(1).tolist() == []
    assert kernels.sieve_primes(2).tolist() == [2]


@pytest.mark.parametrize("l", [3, 5, 7, 11, 13])
def test_progression_sieve_matches_filtered_sieve(l):
    """sieve_primes(hi, lo, l) is the slice of the full sieve at p % l == 1,
    on and next to the edges of the scan's windows, and keeps every small
    prime of the progression (7 at l = 3, 11 at l = 5, 29 at l = 7, ...)."""
    full = kernels.sieve_primes(400_000)
    split = full[full % l == 1]
    span = 2 * l * 300  # a window of 300 progression terms
    small = int(split[0])
    edges = [0, 1, 2, small - 1, small, small + 1, small * small, 2 * l + 1]
    edges += [k * span + d for k in (1, 2, 40) for d in (-1, 0, 1, 2)]
    for lo in edges:
        for hi in edges + [400_000]:
            want = split[(split >= lo) & (split <= hi)]
            assert np.array_equal(kernels.sieve_primes(hi, lo, l), want), (lo, hi)
    windows = [kernels.sieve_primes(min(lo + span - 1, 400_000), lo, l)
               for lo in range(1, 400_001, span)]
    assert np.array_equal(np.concatenate(windows), split)
    assert np.array_equal(kernels.sieve_primes(400_000, 0, 2 * l), split)


def test_sieve_rejects_bad_limits_and_steps():
    with pytest.raises(ValueError):
        kernels.sieve_primes(kernels.MAX_MODULUS)
    with pytest.raises(ValueError):
        kernels.sieve_primes(100, 0, 0)
    assert kernels.sieve_primes(kernels.MAX_MODULUS - 1, kernels.MAX_MODULUS - 100).tolist() == [
        p for p in range(kernels.MAX_MODULUS - 100, kernels.MAX_MODULUS)
        if all(p % d for d in range(2, math.isqrt(p) + 1))
    ]


def test_powmod_against_python_pow():
    rng = np.random.default_rng(7)
    mod = rng.integers(2, 2**31 - 1, size=500).astype(np.int64)
    base = rng.integers(-(2**40), 2**40, size=500).astype(np.int64)
    exp = rng.integers(0, 2**40, size=500).astype(np.int64)
    got = kernels.powmod(base, exp, mod)
    want = np.array(
        [pow(int(b), int(e), int(m)) for b, e, m in zip(base, exp, mod)], dtype=np.int64
    )
    assert np.array_equal(got, want)


def test_unity_roots_properties():
    for l in (3, 5, 7):
        primes = kernels.sieve_primes(5000)
        primes = primes[primes % l == 1]
        roots = kernels.unity_roots(primes, l)
        assert roots.shape == (primes.size, l - 1)
        for i, p in enumerate(primes.tolist()):
            row = roots[i].tolist()
            assert row == sorted(row)
            assert len(set(row)) == l - 1
            for w in row:
                assert 1 < w < p
                assert pow(w, l, p) == 1


def test_exponent_lookup_roundtrip():
    rng = np.random.default_rng(11)
    l = 5
    primes = kernels.sieve_primes(20000)
    primes = primes[primes % l == 1]
    roots = kernels.unity_roots(primes, l)
    col = np.ascontiguousarray(roots[:, 2])
    exps = rng.integers(0, l, size=primes.size).astype(np.int64)
    values = kernels.powmod(col, exps, primes)
    got = kernels.exponent_lookup(values, col, primes, l)
    assert np.array_equal(got, exps)


def test_powmod_rejects_oversize_moduli():
    big = np.array([1 << 32], dtype=np.int64)
    one = np.array([1], dtype=np.int64)
    with pytest.raises(ValueError):
        kernels.powmod(one, one, big)


def test_powmod_rejects_negative_exponents():
    one = np.array([1], dtype=np.int64)
    with pytest.raises(ValueError):
        kernels.powmod(one, np.array([-1], dtype=np.int64), np.array([7], dtype=np.int64))


def _python_pow_rows(base, exp, mod):
    return np.array(
        [[pow(int(b), int(e), int(m)) for b, e, m in zip(row, exp, mod)] for row in base],
        dtype=np.int64,
    )


@pytest.mark.parametrize("fused", [True, False])
def test_powmod_stacked_against_python_pow(fused):
    """An (m, n) base block against shared (n,) exponents and moduli, on the
    one-reduction path (small bases, p < 2**25) and on the two-reduction path
    (p near 2**31, bases at or above p)."""
    rng = np.random.default_rng(5)
    n = 400
    if fused:
        mod = rng.integers(2, 2**25, size=n).astype(np.int64)
        base = rng.integers(0, 2**13, size=(3, n)).astype(np.int64)
    else:
        mod = rng.integers(2**31 - 2**20, 2**31, size=n).astype(np.int64)
        base = rng.integers(2**31, 2**40, size=(3, n)).astype(np.int64)
    exp = rng.integers(0, 2**31, size=n).astype(np.int64)
    reduced = np.mod(base, mod)
    assert (int(mod.max()) ** 2 * int(reduced.max()) < 2**63) == fused
    got = kernels.powmod(base, exp, mod)
    assert got.shape == (3, n)
    assert np.array_equal(got, _python_pow_rows(base, exp, mod))
    rows = np.stack([kernels.powmod(row, exp, mod) for row in base])
    assert np.array_equal(got, rows)


def test_powmod_zero_exponents_and_empty_blocks():
    mod = np.array([1, 2, 7, 2**31 - 1], dtype=np.int64)
    base = np.array([[5, 0, 3, 2**40], [-1, 1, 0, 7]], dtype=np.int64)
    zero = np.zeros(4, dtype=np.int64)
    got = kernels.powmod(base, zero, mod)
    assert np.array_equal(got, _python_pow_rows(base, zero, mod))
    assert got.tolist() == [[0, 1, 1, 1]] * 2
    empty = np.empty(0, dtype=np.int64)
    assert kernels.powmod(np.empty((3, 0), dtype=np.int64), empty, empty).shape == (3, 0)
    exp = np.array([0, 3, 5, 9], dtype=np.int64)
    assert kernels.powmod(np.empty((0, 4), dtype=np.int64), exp, mod).shape == (0, 4)


@pytest.mark.parametrize("l", [3, 5, 7])
def test_exponent_lookup_stacked_roundtrip(l):
    """Rows of values against one row of roots: each row's logs come back."""
    rng = np.random.default_rng(l)
    primes = kernels.sieve_primes(20000)
    primes = primes[primes % l == 1]
    col = np.ascontiguousarray(kernels.unity_roots(primes, l)[:, 0])
    exps = rng.integers(0, l, size=(3, primes.size)).astype(np.int64)
    values = kernels.powmod(col, exps, primes)
    assert values.shape == exps.shape
    got = kernels.exponent_lookup(values, col, primes, l)
    assert np.array_equal(got, exps)
    ones = np.ones_like(primes)
    assert kernels.exponent_lookup(np.stack([ones, ones]), ones, primes, l).tolist() == [
        [0] * primes.size
    ] * 2
