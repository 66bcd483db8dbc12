import math
import os
import select
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import residue_regimes, spy_ladder
import radsym.cli
import radsym.density
import radsym.radical
from radsym import kernels
from radsym.arith import FACTOR_BOUND, exact_lth_root
from radsym.cyclotomic import CyclotomicInt, residue_symbol
from radsym.density import (
    character_sum,
    density_experiment,
    enumerate_prime_ideals,
)
from radsym.radical import (
    consistency_check,
    normalize_inputs,
    rank_and_kernel,
    reduce_basis,
)


@pytest.fixture(autouse=True)
def no_scan_workers():
    """Every test starts without scan workers, and leaves none behind."""
    radsym.density._CREW.stop()
    yield
    radsym.density._CREW.stop()


def exact_symbol(a, I):
    """The symbol of the rational a at I through the residue-field power.
    residue_symbol answers a plain int at f >= 2 by the same identity the
    scan counts with, so the walks below take a CyclotomicInt argument to
    stay independent of it."""
    return residue_symbol(CyclotomicInt.from_int(I.l, a), I)


def is_prime_naive(n):
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


def order_mod(p, l):
    f, cur = 1, p % l
    while cur != 1:
        cur = cur * p % l
        f += 1
    return f


def test_enumerate_examples():
    ideals = list(enumerate_prime_ideals(3, 10))
    assert [(I.p, I.f, I.norm) for I in ideals] == [(2, 2, 4), (7, 1, 7), (7, 1, 7)]
    assert order_mod(2, 3) == 2 and order_mod(5, 3) == 2 and order_mod(7, 3) == 1

    assert list(enumerate_prime_ideals(3, 3)) == []

    ideals5 = list(enumerate_prime_ideals(5, 11))
    assert [(I.p, I.f) for I in ideals5] == [(11, 1)] * 4
    assert order_mod(2, 5) == 4 and order_mod(3, 5) == 4 and order_mod(11, 5) == 1


def test_enumerate_bad_inputs():
    with pytest.raises(ValueError):
        list(enumerate_prime_ideals(4, 100))
    with pytest.raises(ValueError):
        list(enumerate_prime_ideals(3, 1))


def test_enumerate_stream_matches_hand_rule_to_100():
    # p == 1 mod 3 contributes two ideals of norm p; p == 2 mod 3 contributes
    # one ideal of norm p*p when that fits; 3 never appears
    expected = []
    for p in range(2, 101):
        if not is_prime_naive(p) or p == 3:
            continue
        if p % 3 == 1:
            expected += [(p, p), (p, p)]
        elif p * p <= 100:
            expected += [(p, p * p)]
    expected.sort(key=lambda pn: pn[1])
    got = [(I.p, I.norm) for I in enumerate_prime_ideals(3, 100)]
    assert got == expected
    norms = [n for _, n in got]
    assert norms == sorted(norms)


def test_density_empty_set():
    rep = density_experiment(normalize_inputs(3, []), (), 1000)
    assert rep.consistent and rep.t == 0
    assert rep.matches == rep.ideals_scanned > 0
    assert rep.empirical == 1.0 and rep.predicted == 1.0


def test_density_inconsistent_scans_nothing():
    s = normalize_inputs(3, [12, 18])  # kernel forces r1 + r2 == 0 mod 3
    rep = density_experiment(s, (1, 1), 10**4)
    assert not rep.consistent
    assert rep.matches == 0 and rep.ideals_scanned == 0
    assert rep.checkpoints == () and rep.char_sums == ()


def test_density_single_cube_free_radicand():
    rep = density_experiment(normalize_inputs(3, [2]), (0,), 10**5)
    assert rep.t == 1 and abs(rep.predicted - 1 / 3) < 1e-12
    assert abs(rep.empirical - 1 / 3) <= 0.03


def test_density_checkpoint_structure():
    rep = density_experiment(normalize_inputs(3, [2]), (1,), 25_000)
    assert [row.bound for row in rep.checkpoints] == [1000, 10000, 25000]
    last = rep.checkpoints[-1]
    assert (last.ideals, last.matches) == (rep.ideals_scanned, rep.matches)
    ideals = [row.ideals for row in rep.checkpoints]
    assert ideals == sorted(ideals)


@pytest.mark.parametrize("l,radicands,targets", [
    (3, [2, 5], (0, 0)),
    (3, [2, 5], (1, 2)),
    (3, [12, 18], (1, 2)),
    (5, [2, 3], (1, 4)),
    (5, [10], (0,)),
    (7, [2, 3], (1, 5)),
    (11, [2], (3,)),
    (3, [1000003], (1,)),
])
def test_density_matches_generic_ideal_walk(l, radicands, targets):
    """The array fast path must agree with a per-ideal walk over the stream."""
    bound = 4000
    s = normalize_inputs(l, radicands)
    rep = density_experiment(s, targets, bound)
    assert rep.consistent
    excluded = set()
    for a in radicands:
        for q in range(2, abs(a) + 1):
            if abs(a) % q == 0 and is_prime_naive(q):
                excluded.add(q)
    scanned = matches = 0
    for I in enumerate_prime_ideals(l, bound):
        if I.p in excluded or I.p == l:
            continue
        scanned += 1
        if all(exact_symbol(b, I) == sj for b, sj in zip(rep.reduced, rep.translated)):
            matches += 1
    assert scanned == rep.ideals_scanned
    assert matches == rep.matches


def _translation_misses(s, targets, ideals):
    """The ideals among ``ideals`` outside the radicands' primes where the raw
    radicands hitting their targets and reduce_basis(s).b hitting the
    translated targets disagree, with the translation the scan counts with.
    Counts alone cannot show a translation error that multiplies every target
    by a unit, so the check goes ideal by ideal."""
    red = reduce_basis(s)
    s_targets = radsym.density.translate_targets(red, targets)
    misses = []
    for I in ideals:
        if any(a % I.p == 0 for a in s.raw):
            continue
        raw = all(exact_symbol(a, I) == t % s.l for a, t in zip(s.raw, targets))
        reduced = all(exact_symbol(b, I) == t for b, t in zip(red.b, s_targets))
        if raw != reduced:
            misses.append(I)
    return misses


def test_translation_agrees_per_ideal():
    s = normalize_inputs(3, [12, 18])
    for targets in [(0, 0), (1, 2), (2, 1)]:
        assert consistency_check(s, targets, rank_and_kernel(s))
        assert _translation_misses(s, targets, enumerate_prime_ideals(3, 5000)) == []
    s2 = normalize_inputs(3, [8, 2, 50])  # 8 is dropped, so its target must be 0
    for targets in [(0, 0, 0), (0, 1, 1), (0, 2, 2), (0, 1, 2)]:
        assert consistency_check(s2, targets, rank_and_kernel(s2))
        assert _translation_misses(s2, targets, enumerate_prime_ideals(3, 3000)) == []


def test_translation_walk_catches_a_unit_multiple(monkeypatch):
    s = normalize_inputs(3, [12, 18])
    right = density_experiment(s, (1, 2), 5000)
    real = radsym.density.translate_targets

    def doubled(result, targets):
        return tuple(2 * t % result.l for t in real(result, targets))

    monkeypatch.setattr(radsym.density, "translate_targets", doubled)
    wrong = density_experiment(s, (1, 2), 5000)
    assert wrong.translated != right.translated
    # conjugate ideals swap the symbols 1 and 2, so every count is blind to it
    assert wrong.checkpoints == right.checkpoints
    assert _translation_misses(s, (1, 2), enumerate_prime_ideals(3, 5000))


@pytest.mark.parametrize("bound", [kernels.MAX_MODULUS, 10**15])
def test_out_of_range_bounds_rejected_before_sieving(monkeypatch, bound):
    def no_sieve(limit, *args, **kwargs):
        raise AssertionError(f"sieved up to {limit}")

    monkeypatch.setattr(kernels, "sieve_primes", no_sieve)
    with pytest.raises(ValueError, match="norm bound"):
        density_experiment(normalize_inputs(3, [2]), (0,), bound)
    with pytest.raises(ValueError, match="norm bound"):
        character_sum(2, 3, bound)
    with pytest.raises(ValueError, match="norm bound"):
        list(enumerate_prime_ideals(3, bound))


@pytest.mark.parametrize("l", [3, 5, 7])
def test_rational_symbols_vanish_at_higher_degree_ideals(l):
    """(p**f - 1)/l is a multiple of p - 1 when f >= 2, so every rational
    argument prime to p has symbol 0: the scan counts these ideals and
    residue_symbol answers plain ints there in closed form on the strength
    of this, so it is checked here through the residue-field power."""
    seen = set()
    for I in enumerate_prime_ideals(l, 3000):
        if I.f < 2:
            continue
        seen.add(I.f)
        for a in (-7, -2, 2, 3, 5, 6, 10, 12, 97, 1001):
            if a % I.p:
                assert exact_symbol(a, I) == 0, (a, I)
    assert seen == {f for f in range(2, l) if (l - 1) % f == 0}  # every possible f >= 2


def test_density_computes_each_factorization_once(monkeypatch):
    calls = {"rank_and_kernel": 0, "factorize": 0}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for module in (radsym.radical, radsym.density):
        for name in calls:
            if hasattr(module, name):
                counted(module, name)
    s = normalize_inputs(3, [12, 18, 5])
    assert calls == {"rank_and_kernel": 0, "factorize": 3}  # once per raw radicand
    calls.update(rank_and_kernel=0, factorize=0)
    rep = density_experiment(s, (0, 0, 1), 1000)
    assert rep.consistent
    # one rank over the stored exponents; the excluded primes from the stored factorizations
    assert calls == {"rank_and_kernel": 1, "factorize": 0}


@pytest.mark.parametrize("threads", [0, -1, radsym.density.MAX_THREADS + 1, 10**6])
def test_thread_counts_checked_before_sieving(monkeypatch, threads):
    def refuse(*args, **kwargs):
        raise AssertionError("started work for a bad thread count")

    monkeypatch.setattr(radsym.density.os, "fork", refuse)
    monkeypatch.setattr(kernels, "sieve_primes", refuse)
    with pytest.raises(ValueError, match="threads"):
        density_experiment(normalize_inputs(3, [2]), (0,), 10**6, threads=threads)
    with pytest.raises(ValueError, match="threads"):
        character_sum(2, 3, 10**6, threads=threads)


def test_density_threads_do_not_change_anything():
    s = normalize_inputs(3, [2, 5])
    a = density_experiment(s, (0, 0), 50_000, threads=1)
    b = density_experiment(s, (0, 0), 50_000, threads=3)
    assert a == b


def test_character_sum_rejects_powers():
    with pytest.raises(ValueError):
        character_sum(8, 3, 1000)
    with pytest.raises(ValueError):
        character_sum(-27, 3, 1000)
    with pytest.raises(ValueError):
        character_sum(1, 3, 1000)
    with pytest.raises(ValueError):
        character_sum(0, 3, 1000)


def test_character_sum_empty_range():
    rep = character_sum(2, 3, 3)  # the smallest norm is 4
    assert rep.final.ideals == 0
    assert rep.final.tallies == (0, 0, 0)
    assert complex(rep.final.value_re, rep.final.value_im) == 0 and rep.final.normalized == 0.0


def test_character_sum_tally_conservation_and_value():
    rep = character_sum(2, 3, 10**4)
    stat = rep.final
    assert sum(stat.tallies) == stat.ideals > 0
    z = [complex(math.cos(2 * math.pi * k / 3), math.sin(2 * math.pi * k / 3)) for k in range(3)]
    want = sum(t * z[k] for k, t in enumerate(stat.tallies))
    assert abs(complex(stat.value_re, stat.value_im) - want) < 1e-9
    assert abs(stat.magnitude - abs(want)) < 1e-9
    assert stat.normalized == stat.magnitude / stat.ideals


def test_character_sum_matches_generic_walk():
    bound = 3000
    rep = character_sum(10, 3, bound)
    tallies = [0, 0, 0]
    for I in enumerate_prime_ideals(3, bound):
        if I.p in (2, 5, 3):
            continue
        tallies[exact_symbol(10, I)] += 1
    assert rep.final.tallies == tuple(tallies)


def test_character_sum_conjugate_symmetry():
    # at conjugate ideals a rational argument picks up conjugate exponents,
    # so the nonzero tallies agree exactly
    rep = character_sum(2, 3, 10**5)
    assert rep.final.tallies[1] == rep.final.tallies[2]


def test_character_sum_scan_above_the_fused_range(monkeypatch):
    """2**31 - 1 reduces to residues near p, and above p = 2**21 a block's
    p**2 * residue no longer fits in int64: those blocks take powmod's
    two-reduction path, which must still count like Python's pow."""
    n, l, bound = 2**31 - 1, 3, 2_200_000
    exact_blocks = []
    real = kernels.powmod

    def spy(base, exp, mod, **kwargs):
        reduced = int((np.asarray(base) % mod).max())
        exact_blocks.append(int(mod.max()) ** 2 * reduced >= 2**63)
        return real(base, exp, mod, **kwargs)

    monkeypatch.setattr(kernels, "powmod", spy)
    rep = character_sum(n, l, bound)
    assert any(exact_blocks) and not all(exact_blocks)
    split = [p for p in kernels.sieve_primes(bound).tolist() if p % l == 1]
    nontrivial = sum(1 for p in split if pow(n, (p - 1) // l, p) != 1)
    assert rep.final.tallies[1] == rep.final.tallies[2] == nontrivial


def test_character_sum_checkpoints():
    rep = character_sum(2, 3, 12_000)
    assert [row.bound for row in rep.checkpoints] == [1000, 10000, 12000]
    counts = [row.ideals for row in rep.checkpoints]
    assert counts == sorted(counts)


@pytest.mark.parametrize("n,l,bound", [(2, 5, 5000), (6, 5, 4000), (2, 7, 5000), (-3, 7, 4000)])
def test_character_sum_matches_generic_walk_higher_l(n, l, bound):
    rep = character_sum(n, l, bound)
    tallies = [0] * l
    for I in enumerate_prime_ideals(l, bound):
        if I.p == l or n % I.p == 0:
            continue
        tallies[exact_symbol(n, I)] += 1
    assert rep.final.tallies == tuple(tallies)
    assert rep.final.ideals == sum(tallies)


# ---------------------------------------------------------------------------
# Property-based differential tests: the windowed scan against the walk over
# every prime ideal with the exact per-ideal symbol.

_WALK_BOUND = 3000


@cache
def _ideals(l):
    """Every prime ideal of norm <= _WALK_BOUND, ascending by norm."""
    return tuple(enumerate_prime_ideals(l, _WALK_BOUND))


def _walk(l, radicands, targets, bound):
    """(ideals, matches) over the ideals of norm <= bound prime to l and to
    every radicand, matching where each raw radicand has its target symbol."""
    ideals = matches = 0
    for I in _ideals(l):
        if I.norm > bound:
            break
        if I.p == l or any(a % I.p == 0 for a in radicands):
            continue
        ideals += 1
        matches += all(exact_symbol(a, I) == t for a, t in zip(radicands, targets))
    return ideals, matches


def _char_walk(n, l, bound):
    tallies = [0] * l
    for I in _ideals(l):
        if I.norm <= bound and I.p != l and n % I.p:
            tallies[exact_symbol(n, I)] += 1
    return tuple(tallies)


@st.composite
def _radicands(draw, l):
    """Up to three nonzero radicands over a few shared primes, with signs,
    exact l-th powers and +-1 among them."""
    primes = draw(st.lists(st.sampled_from([2, 3, 5, 7, 11, 13]), min_size=1, max_size=3))
    out = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["product", "product", "power", "unit"]))
        if kind == "unit":
            a = 1
        elif kind == "power":
            a = draw(st.sampled_from(primes)) ** l
        else:
            a = math.prod(q ** draw(st.integers(0, l + 1)) for q in primes)
            # larger products are refused by factorize, before any scan
            assume(a <= FACTOR_BOUND)
        out.append(a * draw(st.sampled_from([1, -1])))
    return out


@st.composite
def _studies(draw):
    l = draw(st.sampled_from([3, 5, 7, 11, 13]))
    radicands = draw(_radicands(l))
    targets = tuple(draw(st.integers(0, l - 1)) for _ in radicands)
    return l, radicands, targets, draw(st.integers(2, _WALK_BOUND))


def _check_study(l, radicands, targets, bound):
    s = normalize_inputs(l, radicands)
    reps = [density_experiment(s, targets, bound, threads=t) for t in (1, 2)]
    assert reps[0] == reps[1]
    rep = reps[0]
    if rep.consistent:
        assert [(row.ideals, row.matches) for row in rep.checkpoints] == [
            _walk(l, radicands, targets, row.bound) for row in rep.checkpoints
        ]
        assert _translation_misses(s, targets, (I for I in _ideals(l) if I.norm <= bound)) == []
    else:
        assert _walk(l, radicands, targets, bound)[1] == 0
        assert not consistency_check(s, targets, rank_and_kernel(s))
    n = next((a for a in radicands if exact_lth_root(a, l) is None), None)
    if n is not None:
        reports = [character_sum(n, l, bound, threads=t) for t in (1, 2)]
        assert reports[0] == reports[1]
        assert [row.tallies for row in reports[0].checkpoints] == [
            _char_walk(n, l, row.bound) for row in reports[0].checkpoints
        ]


@settings(deadline=None, max_examples=60)
@given(_studies())
def test_scan_matches_ideal_walk(study):
    _check_study(*study)


@settings(deadline=None, max_examples=30)
@given(_studies())
def test_scan_matches_ideal_walk_across_small_windows(study):
    """Windows of a few dozen progression terms and blocks of five primes put
    window, block and checkpoint edges inside every scan; with no floor of
    split primes per window, the sqrt rule alone cuts them."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(radsym.density, "_WINDOW_SCALE", 1)
        mp.setattr(radsym.density, "_WINDOW_PRIMES", 0)
        mp.setattr(radsym.density, "_BLOCK", 5)
        _check_study(*study)


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_matched_roots_count_the_matching_exponents(data):
    """Against discrete logs c_j of v_j base a fixed root g: the ideal of
    root g**k matches when c_j == s_j * k mod l for every j, so the count
    per prime is the number of such k in 1 .. l-1."""
    l = data.draw(st.sampled_from([3, 5, 7, 11, 13]))
    radicands = tuple(data.draw(_radicands(l)))
    zeros = (0,) * len(radicands)
    targets = data.draw(st.one_of(
        st.just(zeros), st.tuples(*[st.integers(0, l - 1) for _ in radicands])
    ))
    lo = data.draw(st.integers(1, 10**6))
    primes = kernels.sieve_primes(lo + 400 * l, lo, l)
    primes = primes[[all(a % p for a in radicands) for p in primes.tolist()]]
    vals = radsym.density._residues(l, primes, radicands)
    counts = radsym.density._match_counts(l, primes, vals, targets)
    g = np.ascontiguousarray(kernels.unity_roots(primes, l)[:, 0])
    logs = kernels.exponent_lookup(vals, g, primes, l)
    assert (logs >= 0).all()
    for i in range(primes.size):
        ks = [k for k in range(1, l) if all(c == s * k % l for c, s in zip(logs[:, i], targets))]
        assert counts[i] == len(ks)


def test_matched_roots_stay_lane_sized(monkeypatch):
    """The scan raises residues per radicand against (n,) exponents, with
    the subgroup guard inside that one call, and takes roots with a scalar
    exponent; no powmod call gets a 2-D exponent, so the powers w**s are
    built on (n,) lanes, never as an (m, n) block."""
    calls = []
    real = kernels.powmod

    def spy(base, exp, mod, **kwargs):
        calls.append((np.shape(exp), kwargs))
        return real(base, exp, mod, **kwargs)

    monkeypatch.setattr(kernels, "powmod", spy)
    rep = density_experiment(normalize_inputs(7, [2, 3, 5]), (0, 3, 2), 10**5)
    assert rep.matches > 0
    assert ((), {}) in calls  # the root v**(1/3), as 3 * 5 == 1 mod 7
    residues = [shape for shape, kwargs in calls if kwargs == {"order": 7}]
    assert residues and all(shape != () for shape in residues)  # one guarded call per block
    assert all(len(shape) < 2 for shape, _ in calls), calls


def test_scan_refuses_a_residue_outside_the_subgroup(monkeypatch):
    """With 7 left in the scan, 7**((7-1)/3) == 0 mod 7 is no root of unity."""
    monkeypatch.setattr(radsym.density, "_excluded_primes", lambda s: frozenset({s.l}))
    with pytest.raises(AssertionError, match="subgroup"):
        density_experiment(normalize_inputs(3, [7]), (1,), 1000)


# Windows of split primes for l = 3 in each of powmod's regimes, with their
# radicands: (2, 5, 7) below 7.1e7 share one float64 reduction per bit, 41
# near 3e7 does not, and above 1.9e8 the residues take the int64 one.  The
# last pair is a window and radicands where some p divides a radicand: 7
# itself, or a prime of the window.
GUARD_WINDOWS = {
    "float-fused": ((2, 5, 7), 10**6, 10**6 + 10**5, (2, 5, 7), 7, 20_000),
    "float": ((2, 41), 3 * 10**7 - 10**5, 3 * 10**7, (2, 41, 29_999_989), None, None),
    "int64": ((2, 5, 7), 2 * 10**8, 2 * 10**8 + 10**5, (2, 5, 200_000_083), None, None),
}


@pytest.mark.parametrize("regime", GUARD_WINDOWS)
def test_residue_guard_passes_every_true_residue(monkeypatch, regime):
    """Uncorrupted windows pass the guard and give Python's pow."""
    radicands, lo, hi, *_ = GUARD_WINDOWS[regime]
    primes = kernels.sieve_primes(hi, lo, 3)
    calls = spy_ladder(monkeypatch)
    vals = radsym.density._residues(3, primes, radicands)
    assert residue_regimes(calls) == [regime]
    assert vals.tolist() == [[pow(a, (p - 1) // 3, p) for p in primes.tolist()] for a in radicands]


@pytest.mark.parametrize("regime", GUARD_WINDOWS)
def test_residue_guard_fires_on_one_corrupted_lane(monkeypatch, regime):
    """One lane set to 2 inside powmod's residue ladder, before its check."""
    radicands, lo, hi, *_ = GUARD_WINDOWS[regime]
    primes = kernels.sieve_primes(hi, lo, 3)
    calls = spy_ladder(monkeypatch, corrupt=0)
    with pytest.raises(AssertionError, match="symbol value fell outside the root-of-unity"):
        radsym.density._residues(3, primes, radicands)
    assert residue_regimes(calls) == [regime]  # one chunk, corrupted


@pytest.mark.parametrize("regime", GUARD_WINDOWS)
def test_residue_guard_fires_where_p_divides_a_radicand(monkeypatch, regime):
    """v = 0 at a prime dividing a radicand, in the regime named."""
    _, lo, hi, radicands, zero_lo, zero_hi = GUARD_WINDOWS[regime]
    primes = kernels.sieve_primes(zero_hi or hi, zero_lo or lo, 3)
    assert any(a in primes.tolist() for a in radicands)
    calls = spy_ladder(monkeypatch)
    with pytest.raises(AssertionError, match="symbol value fell outside the root-of-unity"):
        radsym.density._residues(3, primes, radicands)
    assert residue_regimes(calls) == [regime]


def test_guard_failure_exits_3_without_a_traceback(monkeypatch, capsys):
    """A corrupted residue reaches the CLI as an internal error, exit 3."""
    calls = spy_ladder(monkeypatch, corrupt=0)
    code = radsym.cli.main(["density", "-l", "3", "-x", "100000", "--targets", "0,0", "2", "5"])
    out, err = capsys.readouterr()
    assert residue_regimes(calls) and (code, out) == (3, "")
    assert err == "error: internal: symbol value fell outside the root-of-unity subgroup\n"


def _spy_fork(monkeypatch) -> list[int]:
    """Patch os.fork, as density reaches it, to record the pid of every scan
    worker forked."""
    forked = []
    real = os.fork

    def spy():
        pid = real()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(radsym.density.os, "fork", spy)
    return forked


def _assert_no_children(stop: bool = True):
    """No child process is left, after stopping the scan worker set unless
    ``stop`` is False."""
    if stop:
        radsym.density._CREW.stop()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _crew_pids() -> list[int]:
    return [worker.pid for worker in radsym.density._CREW.workers]


def _corrupt_in_workers(monkeypatch):
    """spy_ladder(corrupt=0), whose patch a forked scan worker inherits, in
    the workers alone: the caller's own ladders stay true, so a guard
    failure can only come from a worker's share."""
    real = kernels._ladder
    spy_ladder(monkeypatch, corrupt=0)
    spy, caller = kernels._ladder, os.getpid()
    monkeypatch.setattr(
        kernels, "_ladder", lambda *args: (real if os.getpid() == caller else spy)(*args)
    )


@pytest.fixture
def worker_goes_first(monkeypatch):
    """Hold the caller's first window of a scan shared with workers until a
    worker has taken a window, so that a 2-window scan on 2 processes gives
    the worker one however the processes are timed."""
    r, w = os.pipe()
    caller, real, held = os.getpid(), radsym.density._window, []

    def window(*args):
        if os.getpid() != caller:
            os.write(w, b".")
        elif radsym.density._CREW.workers and not held:
            held.append(True)
            assert select.select([r], [], [], 30)[0], "no worker took a window"
        real(*args)

    monkeypatch.setattr(radsym.density, "_window", window)
    yield
    os.close(r)
    os.close(w)


def test_guard_failure_in_a_worker_reaches_the_caller(monkeypatch, worker_goes_first):
    """The AssertionError a worker raises in its share is raised again, with
    its message, by the call; its worker is reaped."""
    assert len(radsym.density._windows(3, 5 * 10**5, 2)) == 4
    _corrupt_in_workers(monkeypatch)
    forked = _spy_fork(monkeypatch)
    s = normalize_inputs(3, [2, 5])
    assert density_experiment(s, (0, 0), 5 * 10**5).matches  # the caller alone: no fork, true
    with pytest.raises(AssertionError, match="^symbol value fell outside the root-of-unity"):
        density_experiment(s, (0, 0), 5 * 10**5, threads=2)
    assert len(forked) == 1
    _assert_no_children()


def test_a_worker_guard_failure_resets_the_set(monkeypatch, worker_goes_first):
    """A call that fails in a worker kills and reaps the whole set before it
    raises, and the next call forks a fresh worker and counts right."""
    s = normalize_inputs(3, [2, 5])
    assert len(radsym.density._windows(3, 5 * 10**5, 2)) == 4
    want = density_experiment(s, (0, 0), 5 * 10**5)
    forked = _spy_fork(monkeypatch)
    with monkeypatch.context() as m:
        _corrupt_in_workers(m)
        with pytest.raises(AssertionError, match="subgroup"):
            density_experiment(s, (0, 0), 5 * 10**5, threads=2)
    assert len(forked) == 1 and _crew_pids() == []
    _assert_no_children(stop=False)
    assert density_experiment(s, (0, 0), 5 * 10**5, threads=2) == want
    assert len(forked) == 2 and _crew_pids() == forked[1:]


def test_guard_failure_in_a_worker_exits_3(monkeypatch, capsys, worker_goes_first):
    """Through the CLI with --threads 2, a worker's corrupted residue exits 3
    with the same line as a corrupted residue in a 1-thread scan."""
    assert len(radsym.density._windows(3, 5 * 10**5, 2)) == 4
    _corrupt_in_workers(monkeypatch)
    forked = _spy_fork(monkeypatch)
    code = radsym.cli.main(["density", "-l", "3", "-x", "500000", "--threads", "2",
                            "--targets", "0,0", "2", "5"])
    out, err = capsys.readouterr()
    assert (code, out, len(forked)) == (3, "", 1)
    assert err == "error: internal: symbol value fell outside the root-of-unity subgroup\n"
    _assert_no_children()


@pytest.mark.parametrize("threads", [1, 2, 4, radsym.density.MAX_THREADS])
def test_scans_fork_one_worker_per_extra_share(monkeypatch, threads):
    """min(threads, windows) processes share a scan: the caller and one
    forked worker per further share, forked by the first call and kept for
    the next.  The counts stay the same and every worker is reaped once the
    set stops."""
    s, bound = normalize_inputs(3, [2, 5]), 16 * 10**5
    assert len(radsym.density._windows(3, bound)) == 6
    windows = len(radsym.density._windows(3, bound, threads))
    assert windows == (6 if threads == 1 else 7)
    want = density_experiment(s, (0, 1), bound), character_sum(2, 3, bound)
    forked = _spy_fork(monkeypatch)
    got = [density_experiment(s, (0, 1), bound, threads=threads)]
    assert len(forked) == min(threads, windows) - 1
    got.append(character_sum(2, 3, bound, threads=threads))
    assert tuple(got) == want
    assert len(forked) == min(threads, windows) - 1 and _crew_pids() == forked
    _assert_no_children()


def test_consecutive_scans_keep_one_worker_set(monkeypatch):
    """Consecutive 2-process scans fork one worker between them.  A scan
    in the caller alone stops the set, as does a one-window scan."""
    s = normalize_inputs(3, [2, 5])
    want = density_experiment(s, (0, 1), 10**6)
    forked = _spy_fork(monkeypatch)
    for _ in range(3):
        assert density_experiment(s, (0, 1), 10**6, threads=2) == want
    assert len(forked) == 1 and _crew_pids() == forked
    assert density_experiment(s, (0, 1), 10**6) == want
    _assert_no_children(stop=False)
    assert density_experiment(s, (0, 1), 10**6, threads=2) == want
    assert len(forked) == 2 and _crew_pids() == forked[1:]
    density_experiment(s, (0, 1), 5000, threads=4)
    _assert_no_children(stop=False)


def test_one_worker_set_serves_scans_of_every_spec(monkeypatch):
    """Scans with another l, other radicands or other targets, density and
    character sums, run on the same two workers and equal the caller's own
    counts."""
    bound = 3 * 10**6
    assert all(len(radsym.density._windows(l, bound)) >= 3 for l in (3, 5, 7))
    calls = [
        lambda k: density_experiment(normalize_inputs(3, [2, 5]), (0, 1), bound, threads=k),
        lambda k: density_experiment(normalize_inputs(7, [2, 3, 5]), (0, 1, 2), bound, threads=k),
        lambda k: density_experiment(normalize_inputs(5, [3]), (1,), bound, threads=k),
        lambda k: character_sum(2, 3, bound, threads=k),
        lambda k: density_experiment(normalize_inputs(3, [2, 5]), (0, 0), bound, threads=k),
        lambda k: character_sum(-3, 7, bound, threads=k),
    ]
    want = [call(1) for call in calls]
    forked = _spy_fork(monkeypatch)
    assert [call(3) for call in calls] == want
    assert len(forked) == 2 and _crew_pids() == forked


def test_a_worker_killed_between_scans_is_replaced(monkeypatch):
    s = normalize_inputs(3, [2, 5])
    want = density_experiment(s, (0, 1), 10**6)
    forked = _spy_fork(monkeypatch)
    assert density_experiment(s, (0, 1), 10**6, threads=2) == want
    os.kill(forked[0], signal.SIGKILL)
    os.waitid(os.P_PID, forked[0], os.WEXITED | os.WNOWAIT)  # dead, not yet reaped
    assert density_experiment(s, (0, 1), 10**6, threads=2) == want
    assert len(forked) == 2 and _crew_pids() == forked[1:]
    with pytest.raises(ChildProcessError):  # the caller reaped the dead one
        os.waitpid(forked[0], os.WNOHANG)


def test_a_worker_ignores_sigint(monkeypatch):
    """An interrupt is the caller's to report: a worker sent SIGINT between
    scans keeps serving, and nothing new is forked."""
    s = normalize_inputs(3, [2, 5])
    want = density_experiment(s, (0, 1), 10**6)
    forked = _spy_fork(monkeypatch)
    assert density_experiment(s, (0, 1), 10**6, threads=2) == want
    os.kill(forked[0], signal.SIGINT)
    time.sleep(0.1)
    assert density_experiment(s, (0, 1), 10**6, threads=2) == want
    assert _crew_pids() == forked


def test_a_forked_child_forks_its_own_workers(monkeypatch):
    """A child made by os.fork() after a scan starts with no workers and
    forks its own; the parent's worker keeps serving the parent."""
    s = normalize_inputs(3, [2, 5])
    want = density_experiment(s, (0, 1), 10**6)
    forked = _spy_fork(monkeypatch)
    assert density_experiment(s, (0, 1), 10**6, threads=2) == want
    worker = forked[0]
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            signal.alarm(60)  # a child that hangs dies, and the parent sees it
            crew = radsym.density._CREW
            if crew.workers == [] and crew.queue is None:
                ok = density_experiment(s, (0, 1), 10**6, threads=2) == want
                if ok and _crew_pids() == forked[-1:] and forked[-1] != worker:
                    code = 0
            crew.stop()
        finally:
            os._exit(code)
    assert os.waitpid(pid, 0) == (pid, 0)
    assert density_experiment(s, (0, 1), 10**6, threads=2) == want
    assert forked == [worker, pid] and _crew_pids() == [worker]
    _assert_no_children()


def test_no_fork_for_one_window_or_beside_another_thread(monkeypatch):
    """A one-window scan forks nothing, and neither does a scan while another
    Python thread is alive, where a child could inherit a held lock."""
    s = normalize_inputs(3, [2, 5])
    assert len(radsym.density._windows(3, 5000)) == 1
    assert len(radsym.density._windows(3, 5 * 10**5, 2)) == 4
    want = density_experiment(s, (0, 1), 5 * 10**5)
    forked = _spy_fork(monkeypatch)
    assert density_experiment(s, (0, 1), 5000, threads=4) == density_experiment(s, (0, 1), 5000)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        assert density_experiment(s, (0, 1), 5 * 10**5, threads=2) == want
    finally:
        stop.set()
        other.join()
    assert forked == []
    assert density_experiment(s, (0, 1), 5 * 10**5, threads=2) == want
    assert len(forked) == 1
    _assert_no_children()


def test_a_failing_caller_kills_and_reaps_its_workers(monkeypatch):
    """An interrupt in the caller's own share reaches the caller after every
    worker is killed (SIGKILL, spied on) and reaped."""
    caller, real = os.getpid(), radsym.density._residues

    def residues(*args):
        if os.getpid() == caller:
            raise KeyboardInterrupt
        return real(*args)

    monkeypatch.setattr(radsym.density, "_residues", residues)
    forked = _spy_fork(monkeypatch)
    killed, kill = [], os.kill

    def spy_kill(pid, sig):
        killed.append(pid)
        kill(pid, sig)

    monkeypatch.setattr(radsym.density.os, "kill", spy_kill)
    with pytest.raises(KeyboardInterrupt):
        density_experiment(normalize_inputs(3, [2, 5]), (0, 0), 10**6, threads=4)
    assert len(forked) == 3 and killed == forked
    _assert_no_children(stop=False)


def test_a_share_whose_fork_fails_runs_in_the_caller(monkeypatch):
    s = normalize_inputs(3, [2, 5])
    want = density_experiment(s, (0, 1), 10**6)

    def fail():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(radsym.density.os, "fork", fail)
    assert density_experiment(s, (0, 1), 10**6, threads=4) == want


def _alive(pid: int) -> bool:
    """Whether pid runs, a zombie (exited, not yet reaped) counting as gone."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


# A script that scans on 2 processes to the bound given as its argument and
# prints the pid of each scan worker it forks.
_SCAN_SCRIPT = (
    "import os, sys\n"
    "from radsym import density_experiment, normalize_inputs\n"
    "real = os.fork\n"
    "def fork():\n"
    "    pid = real()\n"
    "    if pid:\n"
    "        print(pid, flush=True)\n"
    "    return pid\n"
    "os.fork = fork\n"
    "density_experiment(normalize_inputs(3, [2, 5]), (0, 0), int(sys.argv[1]), threads=2)\n"
)


def _start_scan(bound: int) -> subprocess.Popen:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.Popen([sys.executable, "-c", _SCAN_SCRIPT, str(bound)], env=env,
                            stdout=subprocess.PIPE, text=True)


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="needs /proc")
def test_a_killed_caller_leaves_no_worker_running():
    """A worker whose parent is killed mid-scan stops at its next window, a
    few tens of ms on; its share of the whole range would take seconds."""
    proc = _start_scan(2**31 - 1)
    try:
        worker = int(proc.stdout.readline())
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
    deadline = time.monotonic() + 3
    while _alive(worker) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not _alive(worker)


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="needs /proc")
def test_a_caller_that_exits_reaps_its_workers():
    """A process that scans on 2 processes and exits normally has stopped
    and reaped its worker before it ends: no such process is left, not even
    a zombie."""
    proc = _start_scan(10**6)
    with proc:
        worker = int(proc.stdout.readline())
        assert proc.wait(timeout=60) == 0
    assert not os.path.exists(f"/proc/{worker}")


def _sqrt_windows(l: int, bound: int) -> list[tuple[int, int]]:
    """The windows of _WINDOW_SCALE * isqrt(bound) progression terms alone,
    with no floor of split primes per window."""
    span = 2 * l * radsym.density._WINDOW_SCALE * math.isqrt(bound)
    return [(lo, min(lo + span - 1, bound)) for lo in range(1, bound + 1, span)]


def test_large_scans_keep_the_sqrt_windows():
    """Where every window of the sqrt rule expects _WINDOW_PRIMES split
    primes, its windows stay exactly as they are, on any number of
    processes; so do the radbench scans and the largest queue.  A small
    scan is one window."""
    for l, bound, count in [(3, 3 * 10**7, 29), (7, 3 * 10**7, 13),
                            (3, kernels.MAX_MODULUS - 1, 242)]:
        for threads in (1, 2, radsym.density.MAX_THREADS):
            windows = radsym.density._windows(l, bound, threads)
            assert windows == _sqrt_windows(l, bound) and len(windows) == count
    assert len(radsym.density._windows(3, 10**5)) == 1
    assert len(_sqrt_windows(3, 10**5)) == 2


@pytest.mark.parametrize("l, radicands, targets", [
    (3, (2, 5), (0, 1)),
    (5, (2, 3), (1, 2)),
    (7, (2, 3, 5), (0, 1, 2)),
])
@pytest.mark.parametrize("threads", [1, 2])
def test_window_rule_leaves_every_report_unchanged(monkeypatch, l, radicands, targets, threads):
    """density_experiment and character_sum reports are equal under the
    window rule and under the sqrt rule alone, from one window to several,
    on one process and on two."""
    s = normalize_inputs(l, radicands)
    bounds = [10**4, 10**5, 3 * 10**5, 10**6, 2 * 10**6]
    got = [(density_experiment(s, targets, x, threads=threads),
            character_sum(radicands[0], l, x, threads=threads)) for x in bounds]
    assert any(radsym.density._windows(l, x, threads) != _sqrt_windows(l, x) for x in bounds)
    monkeypatch.setattr(radsym.density, "_windows", lambda l, x, threads: _sqrt_windows(l, x))
    assert got == [(density_experiment(s, targets, x, threads=threads),
                    character_sum(radicands[0], l, x, threads=threads)) for x in bounds]


@pytest.mark.parametrize("l, bound", [(3, 3 * 10**5), (7, 10**6), (13, 25 * 10**5)])
def test_shared_scans_keep_the_sqrt_windows(monkeypatch, l, bound):
    """A scan that the split-prime floor makes one window on one process
    keeps the sqrt rule's windows where two processes may share it and it
    expects _SHARED_PRIMES split primes, and forks its worker; a scan too
    small for that stays one window and forks nothing."""
    assert len(radsym.density._windows(l, bound)) == 1
    for threads in (2, 4):
        assert radsym.density._windows(l, bound, threads) == _sqrt_windows(l, bound)
    assert len(radsym.density._windows(3, 10**5, radsym.density.MAX_THREADS)) == 1
    forked = _spy_fork(monkeypatch)
    assert character_sum(2, l, bound, threads=2) == character_sum(2, l, bound)
    assert len(forked) == 1
    character_sum(2, 3, 10**5, threads=2)
    _assert_no_children(stop=False)


def test_windows_tile_the_range():
    for l, bound in [(3, 2), (3, 1000), (7, 10**6), (13, 2**31 - 1)]:
        windows = radsym.density._windows(l, bound)
        assert windows[0][0] == 1 and windows[-1][1] == bound
        assert all(hi + 1 == lo for (_, hi), (lo, _) in zip(windows, windows[1:]))


def test_a_full_queue_fits_one_atomic_pipe_write():
    """The most windows any scan has (l = 3 just below the norm cap), plus a
    -1 for each of MAX_THREADS processes, fit in PIPE_BUF, so the caller's
    one write of the queue neither blocks nor interleaves."""
    windows = len(radsym.density._windows(3, kernels.MAX_MODULUS - 1))
    assert windows == 242
    entries = windows + radsym.density.MAX_THREADS
    assert entries * radsym.density._INDEX.size <= select.PIPE_BUF


def _peak_traced_bytes(bound):
    s = normalize_inputs(3, [2, 5])
    tracemalloc.start()
    try:
        density_experiment(s, (0, 0), bound)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scan_memory_does_not_grow_with_the_bound():
    """The scan keeps one window of primes at a time, so raising the bound
    eightfold may grow its peak allocation only through the window size
    (sqrt(8) < 3), not in proportion to the bound."""
    assert _peak_traced_bytes(8 * 10**6) < 3 * _peak_traced_bytes(10**6)


def _form_primes(c: int, d: int, lo: int, hi: int) -> np.ndarray:
    """Ascending primes p in [lo, hi] with d*p == x**2 + c*y**2 for some
    x, y >= 1, by enumerating y and a numpy range of x: no symbol
    arithmetic.  For p = 1 mod 3 (Gauss; Cox, Primes of the Form x^2 + ny^2,
    Thm 4.15, and Ireland & Rosen, ch. 9), (27, 1) gives the p at which 2
    is a cubic residue and (243, 4) those at which 3 is; neither form takes
    a prime p = 2 mod 3."""
    found = []
    for y in range(1, math.isqrt(d * hi // c) + 1):
        least, most = d * lo - c * y * y, d * hi - c * y * y
        x = np.arange(math.isqrt(least - 1) + 1 if least > 0 else 1, math.isqrt(most) + 1)
        n = x * x + c * y * y
        found.append(n[n % d == 0] // d)
    n = np.sort(np.concatenate(found))
    primes = kernels.sieve_primes(hi, lo)
    n = n[primes[np.minimum(np.searchsorted(primes, n), primes.size - 1)] == n]
    return n[np.r_[True, n[1:] != n[:-1]]]  # each prime once, whatever (x, y) gave it


# (c, d) with d*p == x**2 + c*y**2 exactly at the primes p = 1 mod 3 where
# 2, or 3, is a cubic residue.
CUBIC_FORMS = {2: (27, 1), 3: (243, 4)}


@cache
def _cubic_residue_primes(a: int, hi: int) -> np.ndarray:
    return _form_primes(*CUBIC_FORMS[a], 1, hi)


def test_cubic_forms_count_the_residues_of_2_and_3():
    """The form counts at 1e6 against the scan's count of split primes
    with v = 1 there, 13032 for radicand 2."""
    assert _cubic_residue_primes(2, 10**6).size == 13032
    split = sum(1 for p in kernels.sieve_primes(10**6).tolist() if p % 3 == 1)
    for n in (2, 3):
        rep = character_sum(n, 3, 10**6)
        assert split - rep.final.tallies[1] == _cubic_residue_primes(n, 10**6).size


@pytest.mark.parametrize("n", [2, 3])
def test_character_sum_matches_the_cubic_forms(n):
    """At every checkpoint to 1e7: n's symbol is 0 at both ideals above a
    split p exactly where the form represents p (tally 0, beside the
    degree-2 ideals above p = 2 mod 3), and 1 and 2 once each elsewhere."""
    bound = 10**7
    rep = character_sum(n, 3, bound)
    form = _cubic_residue_primes(n, bound)
    primes = kernels.sieve_primes(bound)
    primes = primes[primes != n]
    for row in rep.checkpoints:
        split = int(np.count_nonzero((primes % 3 == 1) & (primes <= row.bound)))
        inert = int(np.count_nonzero((primes % 3 == 2) & (primes * primes <= row.bound)))
        cubic = int(np.searchsorted(form, row.bound, side="right"))
        assert row.tallies == (2 * cubic + inert, split - cubic, split - cubic)


@pytest.mark.parametrize("radicands", [(2,), (3,), (2, 3)])
def test_density_matches_the_cubic_forms(radicands):
    """All-zero targets match both ideals above p where every radicand is a
    cubic residue (the primes every form represents) and every degree-2
    ideal, at each checkpoint to 1e7."""
    bound = 10**7
    rep = density_experiment(normalize_inputs(3, list(radicands)), (0,) * len(radicands), bound)
    both = _cubic_residue_primes(radicands[0], bound)
    for a in radicands[1:]:
        both = np.intersect1d(both, _cubic_residue_primes(a, bound))
    primes = kernels.sieve_primes(bound)
    inert = primes[(primes % 3 == 2) & ~np.isin(primes, radicands)]
    for row in rep.checkpoints:
        cubic = int(np.searchsorted(both, row.bound, side="right"))
        high = int(np.searchsorted(inert * inert, row.bound, side="right"))
        assert row.matches == 2 * cubic + high


# Windows of [lo, hi] in powmod's float64 regime just below 1.9e8, across
# that limit and just below 2**31 (both int64), and the regime each takes.
FORM_WINDOWS = [
    (189_000_000, 189_800_000, "float"),
    (189_400_000, 190_200_000, "int64"),
    (2**31 - 800_000, 2**31 - 1, "int64"),
]


@pytest.mark.parametrize("lo, hi, regime", FORM_WINDOWS)
def test_residues_match_the_cubic_forms_near_the_regime_limits(monkeypatch, lo, hi, regime):
    """Lane for lane, v == 1 exactly at the primes each form represents."""
    primes = kernels.sieve_primes(hi, lo, 3)
    calls = spy_ladder(monkeypatch)
    vals = radsym.density._residues(3, primes, (2, 3))
    assert residue_regimes(calls) == [regime]
    for row, a in zip(vals, (2, 3)):
        assert np.array_equal(primes[row == 1], _form_primes(*CUBIC_FORMS[a], lo, hi))
