import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import residue_regimes, spy_ladder, spy_run_steps
from radsym import density, kernels


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
    """powmod's result, the reduction it took ("float-fused", "float"
    (square and multiply reduced one at a time) or "int64") and the k0 of
    its ladder's exact start b**(e >> k0), as its first chunk's ladder ran
    them."""
    with monkeypatch.context() as patch:
        calls = spy_ladder(patch)
        got = kernels.powmod(base, exp, mod)
    regime, k0, _ = calls[0]
    return got, regime, k0


def _column(*bases):
    return np.array(bases, dtype=np.int64).reshape(-1, 1)


# The largest |base| whose cube plus a modulus of 3000 stays below 2**53, so
# that against moduli up to 3000 its square and multiply share one reduction.
FUSED_BASE = 208_063

# Moduli in [low, high], the bases (an (m, 1) column, or 3 rows drawn from
# [-bound, bound]) and the regime the call must take.
SMALL = _column(2, 5, 7, -7, -3, 0, 1, -1)
# Bases small enough for an exact start of 25 bits against moduli from
# 2**26 up, in either regime: the int64 one keeps bases below every modulus
# signed, so a negative one stays small.
TWO = _column(2, -2, 1, -1, 0)
ANY = 2**63 - 1
REGIMES = [
    (FUSED_LIMIT - 3000, FUSED_LIMIT, SMALL, "float-fused"),
    (FUSED_LIMIT - 3000, FUSED_LIMIT, TWO, "float-fused"),
    (FUSED_LIMIT + 1, FUSED_LIMIT + 3000, SMALL, "float"),
    (FLOAT_LIMIT - 3000, FLOAT_LIMIT, ANY, "float"),
    (FLOAT_LIMIT + 1, FLOAT_LIMIT + 3000, SMALL, "int64"),
    (FLOAT_LIMIT + 1, FLOAT_LIMIT + 3000, TWO, "int64"),
    (FLOAT_LIMIT + 1, FLOAT_LIMIT + 3000, ANY, "int64"),
    (2**31 - 3000, 2**31 - 1, ANY, "int64"),
    (5, 3000, ANY, "float"),
    (5, 3000, 2**28, "float"),  # bases above p//2 + 2 whose cube overflows 2**53
    (5, 3000, 2**17, "float-fused"),  # ... and whose cube fits
    (5, 3000, _column(FUSED_BASE, -FUSED_BASE, 0, 1), "float-fused"),
    (5, 3000, _column(FUSED_BASE + 1, -FUSED_BASE, 0, 1), "float"),
    (5, 3000, SMALL, "float-fused"),
    (1, 3000, SMALL, "int64"),  # moduli below 5 keep the int64 path
]


REGIME_IDS = ["at-fused-limit", "at-fused-limit-two", "above-fused-limit", "at-float-limit",
              "above-float-limit-small", "above-float-limit-two", "above-float-limit",
              "near-2**31", "tiny-any", "tiny-2**28", "tiny-2**17", "tiny-fused-base",
              "tiny-above-fused-base", "tiny-small", "below-5"]
# One exponent per lane, or one 0-d exponent for all of them, whose steps
# multiply every lane or none: every bit of 2**40 - 1 set, or a random 30 bits.
# Per-lane exponents up to 25 stay above 4 bits but fit in the exact start
# of bases up to 2 against moduli from 2**26 up (k0 = 0).  Sorted per-lane
# exponents give (m, 1) bases run steps at their top bits.
EXPONENTS = {"": "lanes", "-0d-2**40-1": 2**40 - 1, "-0d-30-bit": "30-bit", "-upto-25": "25",
             "-sorted": "sorted"}


@pytest.mark.parametrize(
    "low, high, bases, regime, exponent",
    [(*row, exponent) for exponent in EXPONENTS.values() for row in REGIMES],
    ids=[name + suffix for suffix in EXPONENTS for name in REGIME_IDS],
)
def test_powmod_regime_boundaries_against_python_pow(
    monkeypatch, low, high, bases, regime, exponent
):
    """Lanes on both sides of each proven limit, with moduli up to the limit
    itself, give Python's pow in the regime the limits call for, with
    per-lane and with 0-d exponents.  The ladder's exact start covers the
    top bits where the bases are small and, for bases up to 2 and per-lane
    exponents up to 25 against moduli from 2**26 up, every bit."""
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
    if exponent in ("lanes", "sorted"):
        exp = rng.integers(0, 2**40, size=n).astype(np.int64)
        exp[:3] = 0, 1, 2**40 - 1
        if exponent == "sorted":
            exp.sort()
    elif exponent == "25":
        exp = rng.integers(0, 26, size=n).astype(np.int64)
        exp[:3] = 0, 1, 25
    elif exponent == "30-bit":
        exp = int(rng.integers(2**29, 2**30))
    else:
        exp = exponent
    if exponent == "sorted":  # let these few lanes take run steps
        monkeypatch.setattr(kernels, "_RUN_ELEMENTS", 1)
    got, took, k0 = _powmod_and_regime(monkeypatch, base, exp, mod)
    assert took == regime
    assert np.array_equal(got, _python_pow(base, exp, mod))
    bits = int(np.max(exp)).bit_length()
    if base is TWO:
        assert k0 == 0 if exponent == "25" else k0 < bits - 1
    elif base is SMALL and regime.startswith("float") and low > 3000:
        assert k0 < bits - 1  # the start takes more than the top bit


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
    got, took, _ = _powmod_and_regime(monkeypatch, base, exp, mod)
    assert took == ("int64" if regime.startswith("int64") else regime)
    assert got.shape == (3, n)
    assert np.array_equal(got, _python_pow(base, exp, mod))
    rows = np.stack([kernels.powmod(row, exp, mod) for row in base])
    assert np.array_equal(got, rows)


def _run_primes(l, k, v0, changes, rng):
    """Ascending primes p == 1 mod l whose exponents (p - 1)/l >> k take
    every value v0 .. v0 + changes, so that bit k changes parity exactly
    ``changes`` times along them, with up to 40 primes per value."""
    picks = []
    for v in range(v0, v0 + changes + 1):
        lo, hi = l * (v << k) + 1, l * ((v + 1) << k)
        primes = kernels.sieve_primes(hi, lo, l)
        assert primes.size, v
        picks.append(np.sort(rng.choice(primes, size=min(40, primes.size), replace=False)))
    return np.concatenate(picks)


@pytest.mark.parametrize("changes", [0, 1, 15, 16, 17])
@pytest.mark.parametrize("regime", ["float", "int64"])
def test_powmod_run_steps_against_python_pow(monkeypatch, regime, changes):
    """The scan's call shape, ascending exponents (p - 1)/l against (m, 1)
    bases, takes run steps at the top bits where e >> k takes at most one
    value per _RUN_ELEMENTS elements.  The few lanes here would not pay for
    a run step's numpy calls, so the test sets _RUN_ELEMENTS to make that
    limit 16 values for the column: then bit 12 is a run step with 0, 1 and
    15 parity changes along the lanes, not with 16 or 17.  Every lane
    equals Python's pow, and so do the same lanes shuffled and reversed and
    (m, n) bases, which take only per-lane steps; the call checked with
    order=l equals the unchecked one."""
    l, k = 3, 12
    rng = np.random.default_rng(changes)
    v0 = 2**10 + 1 if regime == "float" else 2**14 + 1  # p near 1.3e7 or 2e8
    mod = _run_primes(l, k, v0, changes, rng)
    exp = (mod - 1) // l
    assert np.all(np.diff(exp) >= 0)
    assert np.unique(exp >> k).size == changes + 1
    column = _column(2, 5, 7, -3, 1)
    lanes = rng.integers(-(2**40), 2**40, size=(2, mod.size), dtype=np.int64)
    lanes[lanes % mod == 0] = 2  # the check needs bases prime to p
    taken = spy_run_steps(monkeypatch)
    elements = column.size * mod.size  # the column's call, in one chunk
    monkeypatch.setattr(kernels, "_RUN_ELEMENTS", elements // 16)
    assert elements < kernels._CHUNK and elements // kernels._RUN_ELEMENTS == 16
    ascending = np.arange(mod.size)
    for order in (ascending, rng.permutation(mod.size), ascending[::-1]):
        e, m = exp[order], mod[order]
        for base in (column, lanes[:, order]):
            taken.clear()
            got, took, _ = _powmod_and_regime(monkeypatch, base, e, m)
            assert took.startswith(regime)  # fused for the column, not for (m, n)
            assert np.array_equal(got, _python_pow(base, e, m))
            assert np.array_equal(kernels.powmod(base, e, m, order=l), got)
            if base is column and order is ascending:
                assert taken and (k in taken) == (changes < 16)
            else:
                assert not taken


@pytest.mark.parametrize("lanes, taken", [(4 * 2048 - 1, False), (4 * 2048, True)])
def test_run_step_needs_elements_per_run(monkeypatch, lanes, taken):
    """A bit at which e >> k takes 4 values is a run step only once the
    call has 4 * _RUN_ELEMENTS elements; the bits above it, with 1 or 2
    values, are run steps either way, and every lane is Python's pow."""
    assert kernels._RUN_ELEMENTS == 2048
    rng = np.random.default_rng(lanes)
    exp = np.sort(rng.integers(2**20, 2**20 + 4 * 2**10, size=lanes)).astype(np.int64)
    mod = rng.integers(2**20, 2**24, size=lanes).astype(np.int64)
    steps = spy_run_steps(monkeypatch)
    got = kernels.powmod(_column(3), exp, mod)
    assert np.array_equal(got, _python_pow(_column(3), exp, mod))
    assert steps == list(range(steps[0], steps[-1] - 1, -1))  # the top bits, in one chunk
    assert steps[0] > 11 and 11 in steps and (10 in steps) == taken


# Split primes p == 1 mod 3 from each lower bound up, whose (3, 1) radicand
# calls take the regime named.
SEAM_WINDOWS = {"float-fused": 10**7, "int64": 2 * 10**8}


@pytest.mark.parametrize("regime", SEAM_WINDOWS)
def test_powmod_across_chunk_seams(monkeypatch, regime):
    """30000 lanes of the scan's (2, 5, 7) column make 90000 elements, two
    chunks of _CHUNK = 2**16 at most, in either regime.  Every lane equals
    Python's pow, checked with order=3 or not, on ascending lanes (run steps
    at the top bits) and shuffled ones (per-lane steps).  A lane corrupted
    in the last chunk alone still fails the guard."""
    lo = SEAM_WINDOWS[regime]
    mod = kernels.sieve_primes(lo + 2 * 10**6, lo, 3)[:30000]
    assert mod.size == 30000
    exp = (mod - 1) // 3
    column = _column(2, 5, 7)
    want = _python_pow(column, exp, mod)
    shuffled = np.random.default_rng(0).permutation(mod.size)
    runs = spy_run_steps(monkeypatch)
    for lanes in (np.arange(mod.size), shuffled):
        runs.clear()
        with monkeypatch.context() as patch:
            calls = spy_ladder(patch)
            assert np.array_equal(kernels.powmod(column, exp[lanes], mod[lanes]), want[:, lanes])
        assert residue_regimes(calls) == [regime] * 2
        assert np.array_equal(kernels.powmod(column, exp[lanes], mod[lanes], order=3),
                              want[:, lanes])
        assert bool(runs) == (lanes is not shuffled)
    calls = spy_ladder(monkeypatch, corrupt=1)
    with pytest.raises(AssertionError, match="symbol value fell outside the root-of-unity"):
        kernels.powmod(column, exp, mod, order=3)
    assert residue_regimes(calls) == [regime] * 2  # corrupted and caught in the second


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


@settings(deadline=None, max_examples=120)
@given(st.data())
def test_powmod_random_calls_against_python_pow(data):
    """Any int64 bases, moduli in [1, 2**31) and exponents up to 2**40, in
    1-D, stacked and (m, 1) column calls against per-lane or 0-d exponents,
    some moduli bunched near one scale so that every regime is reached.
    Small bases (0, +-1, negative ones, 7, the largest the scan fuses) and
    small exponents give exact starts of some or all of the exponent's bits.
    Radicands of any size reach powmod through ``density._bases`` as the
    scan passes them, which reduces those from 2**62 up lane by lane."""
    n = data.draw(st.integers(1, 40))
    m = data.draw(st.integers(1, 3))
    scale = data.draw(st.sampled_from([2**31 - 1, FLOAT_LIMIT, FUSED_LIMIT, 2**16, 8]))
    moduli = st.integers(1, scale) | st.integers(max(1, scale - 2**20), scale)
    mod = np.array(data.draw(st.lists(moduli, min_size=n, max_size=n)), dtype=np.int64)
    ints = st.integers(-(2**63), 2**63 - 1) | st.integers(-8, 8) | st.sampled_from([0, 1, -1, 7])
    column = data.draw(st.booleans())
    width = 1 if column else n
    base = np.array(
        data.draw(st.lists(st.lists(ints, min_size=width, max_size=width),
                           min_size=m, max_size=m)),
        dtype=np.int64,
    )
    exps = st.integers(0, 2**40) | st.integers(0, 40)
    if data.draw(st.booleans()):
        exp = np.array(data.draw(st.lists(exps, min_size=n, max_size=n)), dtype=np.int64)
    else:
        exp = np.int64(data.draw(exps))
    assert np.array_equal(kernels.powmod(base, exp, mod), _python_pow(base, exp, mod))
    assert np.array_equal(kernels.powmod(base[0], exp, mod), _python_pow(base[0], exp, mod))
    big = st.integers(-(2**70), 2**70) | st.integers(2**62, 2**63) | st.integers(-8, 8)
    radicands = tuple(data.draw(st.lists(big, min_size=1, max_size=3)))
    got = kernels.powmod(density._bases(radicands, mod), exp, mod)
    want = [[pow(a, int(x), int(p)) for x, p in zip(np.broadcast_to(exp, mod.shape), mod)]
            for a in radicands]
    assert got.tolist() == want


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
