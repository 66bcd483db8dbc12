import numpy as np
import pytest

from radsym import kernels


def test_sieve_matches_trial_division():
    def naive(limit):
        return [n for n in range(2, limit + 1) if all(n % d for d in range(2, n))]

    assert kernels.sieve_primes(1000).tolist() == naive(1000)
    assert kernels.sieve_primes(1).tolist() == []
    assert kernels.sieve_primes(2).tolist() == [2]


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
