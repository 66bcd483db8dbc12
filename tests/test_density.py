import math
import tracemalloc
from functools import cache

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

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

    monkeypatch.setattr(radsym.density, "ThreadPoolExecutor", refuse)
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
    assert rep.final.value == 0 and rep.final.normalized == 0.0


def test_character_sum_tally_conservation_and_value():
    rep = character_sum(2, 3, 10**4)
    stat = rep.final
    assert sum(stat.tallies) == stat.ideals > 0
    z = [complex(math.cos(2 * math.pi * k / 3), math.sin(2 * math.pi * k / 3)) for k in range(3)]
    want = sum(t * z[k] for k, t in enumerate(stat.tallies))
    assert abs(stat.value - want) < 1e-9
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

    def spy(base, exp, mod):
        reduced = int((np.asarray(base) % mod).max())
        exact_blocks.append(int(mod.max()) ** 2 * reduced >= 2**63)
        return real(base, exp, mod)

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
    window, block and checkpoint edges inside every scan."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(radsym.density, "_WINDOW_SCALE", 1)
        mp.setattr(radsym.density, "_BLOCK", 5)
        _check_study(*study)


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_matched_roots_count_the_matching_exponents(data):
    """Against discrete logs c_j of v_j base a fixed root g: the ideal of
    root g**k matches when c_j == s_j * k mod l for every j, so the matched
    root is 1 when every k in 1 .. l-1 does, 0 when none does, and g**k for
    the one k that does."""
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
    roots = radsym.density._matched_roots(l, primes, vals, targets)
    g = np.ascontiguousarray(kernels.unity_roots(primes, l)[:, 0])
    logs = kernels.exponent_lookup(vals, g, primes, l)
    assert (logs >= 0).all()
    for i, p in enumerate(primes.tolist()):
        ks = [k for k in range(1, l) if all(c == s * k % l for c, s in zip(logs[:, i], targets))]
        if len(ks) == l - 1:
            assert roots[i] == 1
        elif not ks:
            assert roots[i] == 0
        else:
            assert len(ks) == 1 and roots[i] == pow(int(g[i]), ks[0], p)


def test_matched_roots_stay_lane_sized(monkeypatch):
    """The scan raises residues per radicand against (n,) exponents and
    guards and takes roots with a scalar exponent; no powmod call gets a 2-D
    exponent, so the powers w**s are built on (n,) lanes, never as an
    (m, n) block."""
    shapes = []
    real = kernels.powmod

    def spy(base, exp, mod):
        shapes.append(np.shape(exp))
        return real(base, exp, mod)

    monkeypatch.setattr(kernels, "powmod", spy)
    rep = density_experiment(normalize_inputs(7, [2, 3, 5]), (0, 1, 2), 10**5)
    assert rep.matches > 0
    assert () in shapes  # the guard v**l
    assert all(len(shape) < 2 for shape in shapes), shapes


def test_scan_refuses_a_residue_outside_the_subgroup(monkeypatch):
    """With 7 left in the scan, 7**((7-1)/3) == 0 mod 7 is no root of unity."""
    monkeypatch.setattr(radsym.density, "_excluded_primes", lambda s: frozenset({s.l}))
    with pytest.raises(AssertionError, match="subgroup"):
        density_experiment(normalize_inputs(3, [7]), (1,), 1000)


def test_windows_tile_the_range():
    for l, bound in [(3, 2), (3, 1000), (7, 10**6), (13, 2**31 - 1)]:
        windows = radsym.density._windows(l, bound)
        assert windows[0][0] == 1 and windows[-1][1] == bound
        assert all(hi + 1 == lo for (_, hi), (lo, _) in zip(windows, windows[1:]))


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
