import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


def test_unity_roots_raises_when_no_base_works(monkeypatch):
    monkeypatch.setattr(kernels, "powmod", lambda base, exp, mod: np.ones_like(base))
    with pytest.raises(ValueError, match="mod 7"):
        kernels.unity_roots(np.array([7, 13], dtype=np.int64), 3)


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


@pytest.mark.parametrize("bad", [0, -7])
def test_powmod_rejects_non_positive_moduli(bad):
    one = np.array([1], dtype=np.int64)
    with pytest.raises(ValueError):
        kernels.powmod(one, one, np.array([7, bad], dtype=np.int64))


def test_powmod_rejects_negative_exponents():
    one = np.array([1], dtype=np.int64)
    with pytest.raises(ValueError):
        kernels.powmod(one, np.array([-1], dtype=np.int64), np.array([7], dtype=np.int64))


def _python_pow(base, exp, mod):
    b, e, m = np.broadcast_arrays(base, exp, mod)
    want = [pow(int(x), int(y), int(z)) for x, y, z in zip(b.flat, e.flat, m.flat)]
    return np.array(want, dtype=np.int64).reshape(b.shape)


def _limit(fits) -> int:
    """The largest modulus p < 2**31 with fits(p), by bisection."""
    lo, hi = 1, 2**31 - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if fits(mid) else (lo, mid - 1)
    return lo


# The proven limits of powmod's float64 path: a balanced residue is at most
# p//2 + 2, and every product plus p must stay below 2**53.
FLOAT_LIMIT = _limit(lambda p: (p // 2 + 2) ** 2 + p < 2**53)
FUSED_LIMIT = _limit(lambda p: (p // 2 + 2) ** 2 * 7 + p < 2**53)  # bases up to 7


def test_float_limits_match_the_documented_values():
    assert FLOAT_LIMIT == 189_812_525  # about 1.9e8
    assert FUSED_LIMIT == 71_742_389  # about 7.1e7


def _powmod_and_regime(monkeypatch, base, exp, mod):
    """powmod's result and the reduction it took: "float-fused", "float"
    (square and multiply reduced one at a time) or "int64"."""
    seen = []
    real = kernels._powmod_float

    def spy(b, e, m, shape, bits, fused):
        seen.append("float-fused" if fused else "float")
        return real(b, e, m, shape, bits, fused)

    with monkeypatch.context() as patch:
        patch.setattr(kernels, "_powmod_float", spy)
        got = kernels.powmod(base, exp, mod)
    return got, seen[0] if seen else "int64"


# Moduli in [low, high], the bases (a (5, 1) column of small ones, or 3 rows
# drawn from [-bound, bound]) and the regime the call must take.
SMALL = np.array([2, 5, 7, -7, -3], dtype=np.int64).reshape(-1, 1)
ANY = 2**63 - 1
REGIMES = [
    (FUSED_LIMIT - 3000, FUSED_LIMIT, SMALL, "float-fused"),
    (FUSED_LIMIT + 1, FUSED_LIMIT + 3000, SMALL, "float"),
    (FLOAT_LIMIT - 3000, FLOAT_LIMIT, ANY, "float"),
    (FLOAT_LIMIT + 1, FLOAT_LIMIT + 3000, SMALL, "int64"),
    (FLOAT_LIMIT + 1, FLOAT_LIMIT + 3000, ANY, "int64"),
    (2**31 - 3000, 2**31 - 1, ANY, "int64"),
    (5, 3000, ANY, "float"),
    (5, 3000, 2**28, "float"),  # bases above p//2 + 2 whose cube overflows 2**53
    (5, 3000, 2**17, "float-fused"),  # ... and whose cube fits
    (5, 3000, SMALL, "float-fused"),
    (1, 3000, SMALL, "int64"),  # moduli below 5 keep the int64 path
]


@pytest.mark.parametrize(
    "low, high, bases, regime",
    REGIMES,
    ids=["at-fused-limit", "above-fused-limit", "at-float-limit", "above-float-limit-small",
         "above-float-limit", "near-2**31", "tiny-any", "tiny-2**28", "tiny-2**17",
         "tiny-small", "below-5"],
)
def test_powmod_regime_boundaries_against_python_pow(monkeypatch, low, high, bases, regime):
    """Lanes on both sides of each proven limit, with moduli up to the limit
    itself, give Python's pow in the regime the limits call for."""
    rng = np.random.default_rng(low)
    n = 1200
    mod = rng.integers(low, high, size=n, endpoint=True).astype(np.int64)
    mod[:2] = low, high
    if isinstance(bases, int):
        base = rng.integers(-bases, bases, size=(3, n), endpoint=True, dtype=np.int64)
        base[:, :4] = [[-bases], [bases], [0]]
        base[:, 4:8] = [mod[4:8] // 2, -(mod[4:8] // 2), mod[4:8] - 1]  # the extreme residues
    else:
        base = bases
    exp = rng.integers(0, 2**40, size=n).astype(np.int64)
    exp[:3] = 0, 1, 2**40 - 1
    got, took = _powmod_and_regime(monkeypatch, base, exp, mod)
    assert took == regime
    assert np.array_equal(got, _python_pow(base, exp, mod))


@pytest.mark.parametrize("regime", ["float-fused", "float", "int64-fused", "int64"])
def test_powmod_stacked_against_python_pow(monkeypatch, regime):
    """An (m, n) base block against shared (n,) exponents and moduli in each
    regime: small bases and p < 2**25 (one float reduction per bit); bases
    at or above p below the float limit (two float reductions); small bases
    above it (one int64 % per bit); bases at or above p near 2**31 (two)."""
    rng = np.random.default_rng(5)
    n = 400
    if regime == "float-fused":
        mod = rng.integers(5, 2**25, size=n).astype(np.int64)
        base = rng.integers(0, 8, size=(3, n)).astype(np.int64)
    elif regime == "float":
        mod = rng.integers(5, FLOAT_LIMIT, size=n).astype(np.int64)
        base = rng.integers(2**31, 2**40, size=(3, n)).astype(np.int64)
    elif regime == "int64-fused":
        mod = rng.integers(FLOAT_LIMIT + 1, 2**28, size=n).astype(np.int64)
        base = rng.integers(0, 2**7, size=(3, n)).astype(np.int64)
    else:
        mod = rng.integers(2**31 - 2**20, 2**31, size=n).astype(np.int64)
        base = rng.integers(2**31, 2**40, size=(3, n)).astype(np.int64)
    exp = rng.integers(0, 2**31, size=n).astype(np.int64)
    reduced = np.mod(base, mod)
    if regime.startswith("int64"):
        fused = int(mod.max()) ** 2 * int(reduced.max()) < 2**63
        assert fused == (regime == "int64-fused")
    got, took = _powmod_and_regime(monkeypatch, base, exp, mod)
    assert took == ("int64" if regime.startswith("int64") else regime)
    assert got.shape == (3, n)
    assert np.array_equal(got, _python_pow(base, exp, mod))
    rows = np.stack([kernels.powmod(row, exp, mod) for row in base])
    assert np.array_equal(got, rows)


@pytest.mark.parametrize("mod", [1, 2, 3, 4, 5])
def test_powmod_tiny_moduli(mod):
    """Moduli 1 to 5, alone and in a call with large moduli, 1-D and
    stacked, with exponents long enough for the float path."""
    rng = np.random.default_rng(mod)
    base = rng.integers(-(2**62), 2**62, size=(2, 300)).astype(np.int64)
    base[:, :3] = [-1, 0, 1]
    exp = rng.integers(0, 2**20, size=300).astype(np.int64)
    for moduli in (np.full(300, mod), np.where(np.arange(300) % 2, mod, 10**6 + 3)):
        moduli = moduli.astype(np.int64)
        assert np.array_equal(kernels.powmod(base, exp, moduli), _python_pow(base, exp, moduli))
        assert np.array_equal(
            kernels.powmod(base[0], exp, moduli), _python_pow(base[0], exp, moduli)
        )


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_powmod_random_calls_against_python_pow(data):
    """Any int64 bases, moduli in [1, 2**31) and exponents up to 2**40, in
    1-D and stacked calls, some moduli bunched near one scale so that every
    regime is reached."""
    n = data.draw(st.integers(1, 40))
    m = data.draw(st.integers(1, 3))
    scale = data.draw(st.sampled_from([2**31 - 1, FLOAT_LIMIT, FUSED_LIMIT, 2**16, 8]))
    moduli = st.integers(1, scale)
    mod = np.array(data.draw(st.lists(moduli, min_size=n, max_size=n)), dtype=np.int64)
    ints = st.integers(-(2**63), 2**63 - 1) | st.integers(-8, 8)
    base = np.array(
        data.draw(st.lists(st.lists(ints, min_size=n, max_size=n), min_size=m, max_size=m)),
        dtype=np.int64,
    )
    exps = st.integers(0, 2**40) | st.integers(0, 40)
    exp = np.array(data.draw(st.lists(exps, min_size=n, max_size=n)), dtype=np.int64)
    assert np.array_equal(kernels.powmod(base, exp, mod), _python_pow(base, exp, mod))
    assert np.array_equal(kernels.powmod(base[0], exp, mod), _python_pow(base[0], exp, mod))


def test_powmod_zero_exponents_and_empty_blocks():
    mod = np.array([1, 2, 7, 2**31 - 1], dtype=np.int64)
    base = np.array([[5, 0, 3, 2**40], [-1, 1, 0, 7]], dtype=np.int64)
    zero = np.zeros(4, dtype=np.int64)
    got = kernels.powmod(base, zero, mod)
    assert np.array_equal(got, _python_pow(base, zero, mod))
    assert got.tolist() == [[0, 1, 1, 1]] * 2
    empty = np.empty(0, dtype=np.int64)
    assert kernels.powmod(np.empty((3, 0), dtype=np.int64), empty, empty).shape == (3, 0)
    exp = np.array([0, 3, 5, 9], dtype=np.int64)
    assert kernels.powmod(np.empty((0, 4), dtype=np.int64), exp, mod).shape == (0, 4)


# Moduli 1 to 7, on both sides of 2**21 (where p**2 times a reduced base
# stops fitting in int64) and just below 2**31.
SCALAR_MODULI = [range(1, 8), range(2**21 - 32, 2**21), range(2**21, 2**21 + 32),
                 range(2**31 - 64, 2**31)]


@pytest.mark.parametrize("l", [3, 5, 7, 11, 13])
def test_powmod_scalar_exponent_against_python_pow(l):
    """A 0-d exponent, as in the scan's guard v**l and root v**(1/s), gives
    Python's pow lane for lane for every exponent 0 .. 2l, on 1-D and on
    stacked (m, n) bases, per group of SCALAR_MODULI and on all at once.
    Moduli up to 7 take every base 0 .. p-1; larger ones 0, 1, p//2, p-1
    and random residues.  Negated and unreduced bases and any int64 bases
    ride along."""
    rng = np.random.default_rng(l)
    groups = []
    for moduli in SCALAR_MODULI:
        mod, base = [], []
        for p in moduli:
            picks = range(p) if p <= 7 else [0, 1, p // 2, p - 1, *rng.integers(2, p - 1, 4)]
            mod += [p] * len(picks)
            base += [int(b) for b in picks]
        groups.append((np.array(base, dtype=np.int64), np.array(mod, dtype=np.int64)))
    groups.append(tuple(np.concatenate(arrays) for arrays in zip(*groups)))
    for base, mod in groups:
        unreduced = base + rng.integers(-3, 4, size=base.size) * mod
        wild = rng.integers(-(2**63), 2**63 - 1, size=base.size, dtype=np.int64)
        stacked = np.stack([base, -base, unreduced, wild])
        for e in range(2 * l + 1):
            for exp in (e, np.int64(e)):
                for b in (base, -base, unreduced, stacked):
                    got = kernels.powmod(b, exp, mod)
                    assert got.shape == b.shape
                    assert np.array_equal(got, _python_pow(b, e, mod)), (e, mod.min())


def test_bench_kernels_script_runs():
    """benchmarks/bench_kernels.py runs to the end at a small bound."""
    root = Path(__file__).resolve().parents[1]
    paths = [str(root / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    script = root / "benchmarks" / "bench_kernels.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--bound", "20000"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


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
