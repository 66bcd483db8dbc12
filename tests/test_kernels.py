import os
import subprocess
import sys

import numpy as np
import pytest

from radsym import kernels


def backends():
    out = [
        ("numpy", kernels.powmod_numpy, kernels.unity_roots_numpy, kernels.exponent_lookup_numpy)
    ]
    if kernels.HAVE_NUMBA:
        out.append(
            ("numba", kernels.powmod_numba, kernels.unity_roots_numba, kernels.exponent_lookup_numba)
        )
    return out


def test_sieve_matches_trial_division():
    def naive(limit):
        return [n for n in range(2, limit + 1) if all(n % d for d in range(2, n))]

    assert kernels.sieve_primes(1000).tolist() == naive(1000)
    assert kernels.sieve_primes(1).tolist() == []
    assert kernels.sieve_primes(2).tolist() == [2]


@pytest.mark.parametrize("name,powmod,_roots,_lookup", backends())
def test_powmod_against_python_pow(name, powmod, _roots, _lookup):
    rng = np.random.default_rng(7)
    mod = rng.integers(2, 2**31 - 1, size=500).astype(np.int64)
    base = rng.integers(-(2**40), 2**40, size=500).astype(np.int64)
    exp = rng.integers(0, 2**40, size=500).astype(np.int64)
    got = powmod(base, exp, mod)
    want = np.array(
        [pow(int(b), int(e), int(m)) for b, e, m in zip(base, exp, mod)], dtype=np.int64
    )
    assert np.array_equal(got, want)


@pytest.mark.parametrize("name,_powmod,unity_roots,_lookup", backends())
def test_unity_roots_properties(name, _powmod, unity_roots, _lookup):
    for l in (3, 5, 7):
        primes = kernels.sieve_primes(5000)
        primes = primes[primes % l == 1]
        roots = unity_roots(primes, l)
        assert roots.shape == (primes.size, l - 1)
        for i, p in enumerate(primes.tolist()):
            row = roots[i].tolist()
            assert row == sorted(row)
            assert len(set(row)) == l - 1
            for w in row:
                assert 1 < w < p
                assert pow(w, l, p) == 1


@pytest.mark.parametrize("name,powmod,unity_roots,lookup", backends())
def test_exponent_lookup_roundtrip(name, powmod, unity_roots, lookup):
    rng = np.random.default_rng(11)
    l = 5
    primes = kernels.sieve_primes(20000)
    primes = primes[primes % l == 1]
    roots = unity_roots(primes, l)
    col = np.ascontiguousarray(roots[:, 2])
    exps = rng.integers(0, l, size=primes.size).astype(np.int64)
    values = powmod(col, exps, primes)
    got = lookup(values, col, primes, l)
    assert np.array_equal(got, exps)


@pytest.mark.skipif(not kernels.HAVE_NUMBA, reason="numba unavailable")
def test_backends_agree_exactly():
    rng = np.random.default_rng(3)
    mod = rng.integers(3, 2**30, size=2000).astype(np.int64)
    base = rng.integers(0, 2**30, size=2000).astype(np.int64)
    exp = rng.integers(0, 2**30, size=2000).astype(np.int64)
    assert np.array_equal(
        kernels.powmod_numpy(base, exp, mod), kernels.powmod_numba(base, exp, mod)
    )
    for l in (3, 7):
        primes = kernels.sieve_primes(30000)
        primes = primes[primes % l == 1]
        assert np.array_equal(
            kernels.unity_roots_numpy(primes, l), kernels.unity_roots_numba(primes, l)
        )


def test_powmod_rejects_oversize_moduli():
    big = np.array([1 << 32], dtype=np.int64)
    one = np.array([1], dtype=np.int64)
    with pytest.raises(ValueError):
        kernels.powmod_numpy(one, one, big)
    if kernels.HAVE_NUMBA:
        with pytest.raises(ValueError):
            kernels.powmod_numba(one, one, big)


@pytest.mark.parametrize("name,powmod,_roots,_lookup", backends())
def test_powmod_rejects_negative_exponents(name, powmod, _roots, _lookup):
    one = np.array([1], dtype=np.int64)
    with pytest.raises(ValueError):
        powmod(one, np.array([-1], dtype=np.int64), np.array([7], dtype=np.int64))


def _backend_in_subprocess(env_value):
    env = dict(os.environ)
    if env_value is None:
        env.pop("RADSYM_BACKEND", None)
    else:
        env["RADSYM_BACKEND"] = env_value
    return subprocess.run(
        [sys.executable, "-c", "from radsym import kernels; print(kernels.BACKEND)"],
        capture_output=True,
        text=True,
        env=env,
    )


def test_env_flag_selects_backend():
    proc = _backend_in_subprocess("numpy")
    assert proc.returncode == 0 and proc.stdout.strip() == "numpy"
    if kernels.HAVE_NUMBA:
        proc = _backend_in_subprocess("numba")
        assert proc.returncode == 0 and proc.stdout.strip() == "numba"
        proc = _backend_in_subprocess(None)
        assert proc.returncode == 0 and proc.stdout.strip() == "numba"
    proc = _backend_in_subprocess("something-else")
    assert proc.returncode != 0


def test_density_results_identical_across_backends():
    script = (
        "from radsym import normalize_inputs, density_experiment, character_sum\n"
        "rep = density_experiment(normalize_inputs(3, [2, 5]), (0, 0), 30000)\n"
        "cs = character_sum(2, 3, 20000)\n"
        "print(rep.ideals_scanned, rep.matches, cs.final.tallies)\n"
    )
    outs = set()
    for backend in ("numpy", "numba") if kernels.HAVE_NUMBA else ("numpy",):
        env = dict(os.environ, RADSYM_BACKEND=backend)
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        outs.add(proc.stdout)
    assert len(outs) == 1
