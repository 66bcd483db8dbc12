import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import radsym.radical
from radsym.arith import exact_lth_root, factorize
from radsym.radical import (
    OracleScaleError,
    _nullspace_mod,
    _rref_mod,
    brute_force_kernel,
    consistency_check,
    degree,
    normalize_inputs,
    rank_and_kernel,
    reduce_basis,
    translate_targets,
)


def brute_count(l, values):
    """Reference relation count: every exponent tuple's big-integer product
    is tested for an exact l-th root, with no filter."""
    import itertools

    count = 0
    for lam in itertools.product(range(l), repeat=len(values)):
        prod = 1
        for a, e in zip(values, lam):
            prod *= a**e
        if exact_lth_root(prod, l) is not None:
            count += 1
    return count


def transform_quotient(s, result, j):
    """prod raw_i**E_ji divided by b_j, as an exact rational, which must
    always be an l-th power of a rational."""
    num = Fraction(1)
    for a, e in zip(s.raw, result.transform[j]):
        num *= Fraction(a) ** int(e)
    return num / result.b[j]


def test_normalize_inputs():
    s = normalize_inputs(3, [8, 12, -5, 12, 1])
    assert s.raw == (8, 12, -5, 12, 1)
    assert s.normalized == (12, 5, 12)  # duplicates kept, 8 and 1 dropped
    assert s.index_map == (None, 0, 1, 2, None)
    with pytest.raises(ValueError):
        normalize_inputs(3, [0])
    with pytest.raises(ValueError):
        normalize_inputs(4, [2])
    with pytest.raises(ValueError):
        normalize_inputs(2, [2])


def test_exponent_matrix_examples():
    s = normalize_inputs(3, [2, 3, 6])
    assert s.primes == (2, 3)
    assert s.exponents == ((1, 0), (0, 1), (1, 1))
    s = normalize_inputs(3, [2, 4])
    assert s.primes == (2,) and s.exponents == ((1,), (2,))
    s = normalize_inputs(3, [12, 18])
    assert s.primes == (2, 3) and s.exponents == ((2, 1), (1, 2))
    s = normalize_inputs(3, [8, -1])
    assert s.primes == () and s.exponents == ()


@st.composite
def radicand_lists(draw):
    """(l, radicands): signs, +-1, exact l-th powers, prime powers with
    exponents past l, and duplicates."""
    l = draw(st.sampled_from([3, 5, 7, 11, 13]))
    prime_power = st.tuples(st.sampled_from((2, 3, 5, 7, 11)), st.integers(1, l + 1))
    magnitude = st.one_of(
        st.just(1),
        st.integers(2, 9).map(lambda c: c**l),
        st.lists(prime_power, min_size=1, max_size=2).map(
            lambda pes: math.prod(p**e for p, e in pes)
        ),
    )
    values = draw(st.lists(
        st.tuples(magnitude, st.sampled_from((1, -1))).map(math.prod), max_size=6
    ))
    if values and draw(st.booleans()):
        values.insert(draw(st.integers(0, len(values))), draw(st.sampled_from(values)))
    return l, values


@settings(max_examples=200, deadline=None)
@given(radicand_lists())
@example((3, [8, -1, 1]))
@example((5, [-(2**7) * 3, -(2**7) * 3, 3**5]))
def test_input_set_exponent_matrix_properties(inputs):
    l, values = inputs
    s = normalize_inputs(l, values)
    assert all(p < q for p, q in zip(s.primes, s.primes[1:]))
    assert len(s.exponents) == len(s.normalized)
    assert all(len(row) == len(s.primes) for row in s.exponents)
    assert all(0 <= e < l for row in s.exponents for e in row)
    assert all(any(row[j] for row in s.exponents) for j in range(len(s.primes)))
    for core, row in zip(s.normalized, s.exponents):
        assert math.prod(p**e for p, e in zip(s.primes, row)) == core


def test_rank_and_kernel_examples():
    assert 2 * 3 * 6**2 == 6**3  # the relation behind the expected kernel
    kb = rank_and_kernel(normalize_inputs(3, [2, 3, 6]))
    assert kb.rank == 2 and kb.basis == ((1, 1, 2),)
    assert brute_count(3, (2, 3, 6)) == 3

    assert 2 * 4 == 2**3
    kb = rank_and_kernel(normalize_inputs(3, [2, 4]))
    assert kb.rank == 1 and kb.basis == ((1, 1),)
    assert brute_count(3, (2, 4)) == 3

    kb = rank_and_kernel(normalize_inputs(3, []))
    assert kb.rank == 0 and kb.basis == ()


def test_rank_and_kernel_row_reduces_once(monkeypatch):
    calls = []
    real = radsym.radical._rref_mod

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(radsym.radical, "_rref_mod", counted)
    kb = rank_and_kernel(normalize_inputs(3, [2, 3, 6]))
    assert kb.rank == 2 and kb.basis == ((1, 1, 2),)
    assert len(calls) == 1


def test_kernel_soundness_and_completeness():
    rng = random.Random(4242)
    for l in (3, 5):
        for _ in range(30):
            values = [rng.choice([2, 3, 5, 6, 10, 12, 18, 45, 50]) for _ in range(rng.randint(1, 4))]
            s = normalize_inputs(l, values)
            kb = rank_and_kernel(s)
            for vec in kb.basis:
                prod = 1
                for a, e in zip(s.normalized, vec):
                    prod *= a**e
                assert exact_lth_root(prod, l) is not None
            # span size matches the exhaustive count
            m = len(s.normalized)
            assert brute_count(l, s.normalized) == l ** (m - kb.rank)


def test_reduce_basis_example_12_18():
    s = normalize_inputs(3, [12, 18])
    assert 12 * 18 == 6**3  # the pair collapses to one generator
    r = reduce_basis(s)
    assert r.t == 1
    assert r.b == (12,)
    assert r.exclusive_primes == (2,)
    assert r.transform.tolist() == [[1, 0]]


def test_reduce_basis_no_shared_primes():
    r = reduce_basis(normalize_inputs(3, [2, 3]))
    assert r.t == 2 and r.b == (2, 3)
    assert r.transform.tolist() == [[1, 0], [0, 1]]


def test_reduce_basis_drops_powers():
    r = reduce_basis(normalize_inputs(3, [8]))
    assert r.t == 0 and r.b == ()


def test_reduce_basis_exclusive_after_backward_elimination():
    # 6 and 2 share the prime 2; clearing it leaves {2, 9} whose pivot
    # primes 2 and 3 are exclusive in both directions
    r = reduce_basis(normalize_inputs(3, [6, 2]))
    assert r.t == 2
    assert sorted(r.b) == [2, 9]
    for j, q in enumerate(r.exclusive_primes):
        for k, b in enumerate(r.b):
            assert (b % q == 0) == (j == k)


# (l, radicands, t, b, exclusive_primes, transform), which the reduce and
# degree reports print.  In [12, 18, 5, 45], 18 drops once 12 clears its 2,
# and 45's pivot 3 then clears 12's 3; in [6, 2] and [30, 42, 70, 105] later
# pivots clear earlier kept rows.  At l = 5, -32 is an l-th power dropped
# before the elimination, and 96 (core 3) and the second 3 drop against the
# first 3.
PINNED_REDUCTIONS = [
    (3, [12, 18, 5, 45], 3, (4, 5, 9), (2, 5, 3),
     [[1, 0, 2, 1], [0, 0, 1, 0], [0, 0, 2, 1]]),
    (3, [6, 2], 2, (2, 9), (2, 3), [[0, 1], [2, 1]]),
    (5, [6, 2], 2, (2, 81), (2, 3), [[0, 1], [4, 1]]),
    (3, [2, 4, 3, 6, 10], 3, (2, 3, 5), (2, 3, 5),
     [[1, 0, 0, 0, 0], [0, 0, 1, 0, 0], [2, 0, 0, 0, 1]]),
    (5, [2, 4, 3, 6, 10], 3, (2, 3, 5), (2, 3, 5),
     [[1, 0, 0, 0, 0], [0, 0, 1, 0, 0], [4, 0, 0, 0, 1]]),
    (3, [-2, 8, -27, 12], 2, (2, 3), (2, 3), [[1, 0, 0, 0], [1, 0, 0, 1]]),
    (5, [-32, 3, 96, -7, 3], 2, (3, 7), (3, 7),
     [[0, 1, 0, 0, 0], [0, 0, 0, 1, 0]]),
    (5, [12, 18, 50, 75], 3, (4, 81, 25), (2, 3, 5),
     [[3, 1, 0, 0], [2, 1, 0, 0], [1, 2, 1, 0]]),
    (3, [30, 42, 70, 105], 3, (98, 175, 63), (2, 5, 3),
     [[2, 1, 1, 0], [2, 1, 0, 0], [2, 0, 1, 0]]),
]


@pytest.mark.parametrize("l, radicands, t, b, exclusive, transform", PINNED_REDUCTIONS)
def test_reduce_basis_pinned_output(l, radicands, t, b, exclusive, transform):
    r = reduce_basis(normalize_inputs(l, radicands))
    assert (r.t, r.b, r.exclusive_primes) == (t, b, exclusive)
    assert r.transform.tolist() == transform


def test_reduce_basis_invariants_random():
    rng = random.Random(777)
    for l in (3, 5):
        for _ in range(40):
            values = []
            for _ in range(rng.randint(1, 4)):
                a = rng.randint(2, 400) * rng.choice([1, -1])
                if rng.random() < 0.3:
                    a *= l
                if values and rng.random() < 0.2:
                    a = values[-1]
                values.append(a)
            s = normalize_inputs(l, values)
            r = reduce_basis(s)
            # every b is l-th-power-free and > 1
            for b in r.b:
                assert b > 1
                assert all(e < l for _, e in factorize(b).factors)
            # pairwise exclusivity of the pivot primes
            for j, q in enumerate(r.exclusive_primes):
                for k, b in enumerate(r.b):
                    assert (b % q == 0) == (j == k)
            # transform rows reproduce each b up to a rational l-th power
            for j in range(r.t):
                quotient = transform_quotient(s, r, j)
                num = exact_lth_root(quotient.numerator, l)
                den = exact_lth_root(quotient.denominator, l)
                assert num is not None and den is not None
                assert Fraction(num, den) ** l == quotient


def test_degree_examples():
    assert degree(normalize_inputs(3, [2, 3, 6])) == 9
    assert degree(normalize_inputs(5, [2, 3])) == 25
    assert brute_count(5, (2, 3)) == 1
    assert degree(normalize_inputs(3, [])) == 1


def test_brute_force_kernel_examples(monkeypatch):
    assert brute_force_kernel(normalize_inputs(3, [2, 3, 6])) == 3
    assert brute_force_kernel(normalize_inputs(3, [2, 3])) == 1
    assert brute_force_kernel(normalize_inputs(3, [])) == 1
    # 29 = 1 mod 7 is a cube residue at the first filter prime 7 but no
    # cube, so the count must add filter primes before it can certify.
    assert brute_force_kernel(normalize_inputs(3, [29])) == 1
    assert brute_force_kernel(normalize_inputs(3, [2] * 12)) == 3**11
    monkeypatch.setattr(radsym.radical, "ORACLE_LIMIT", 10)
    with pytest.raises(OracleScaleError, match="l\\*\\*3 exceeds the scale guard 10"):
        brute_force_kernel(normalize_inputs(3, [2, 3, 5]))
    assert brute_force_kernel(normalize_inputs(3, [2, 3])) == 1  # 3**2 <= 10


# The first primes 1 + 2l*i, which the oracle's filter would take unless
# they divide a core.
FIRST_FILTER_PRIMES = {3: (7, 13, 19), 5: (11, 31, 41), 7: (29, 43, 71)}
MERSENNE_61 = 2**61 - 1


@st.composite
def oracle_inputs(draw):
    """(l, radicands) with m <= 6: signs, +-1, exact l-th powers, shared
    primes, duplicates, radicands above 2**62 and the first filter primes."""
    l = draw(st.sampled_from(sorted(FIRST_FILTER_PRIMES)))
    primes = st.sampled_from((2, 3, 5) + FIRST_FILTER_PRIMES[l])
    magnitude = st.one_of(
        st.just(1),
        st.integers(2, 9).map(lambda c: c**l),
        st.lists(primes, min_size=1, max_size=4).map(math.prod),
        st.tuples(primes, primes).map(lambda pq: MERSENNE_61 * pq[0] * pq[1]),
    )
    values = draw(st.lists(
        st.tuples(magnitude, st.sampled_from((1, -1))).map(math.prod), max_size=6
    ))
    if len(values) >= 2 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, len(values) - 1), min_size=2, max_size=2))
        values[i] = values[j]
    return l, values


@settings(max_examples=80, deadline=None)
@given(oracle_inputs())
@example((3, []))
@example((3, [7, 13, 19, 7 * 13 * 19, 2]))
@example((5, [11, 31, 41, 11**2 * 31, -(11**5)]))
@example((3, [MERSENNE_61 * 4, MERSENNE_61 * 2, 2, 1, -1]))
def test_brute_force_kernel_matches_plain_enumeration(inputs):
    l, values = inputs
    s = normalize_inputs(l, values)
    m = len(s.normalized)
    rank = rank_and_kernel(s).rank
    assert brute_force_kernel(s) == brute_count(l, s.normalized) == l ** (m - rank)


def test_brute_force_kernel_memory_is_bounded():
    s = normalize_inputs(3, [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31])  # 3**11 tuples
    too_big = normalize_inputs(3, list(range(2, 40)))  # 3**36 tuples
    tracemalloc.start()
    try:
        assert brute_force_kernel(s) == 1
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        with pytest.raises(OracleScaleError):
            brute_force_kernel(too_big)
        _, refused_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a k x m symbol matrix and at most m products; one int64 array over
    # all 177147 tuples would be 1.4 MB
    assert peak < 3 * 2**20
    assert refused_peak < 2**16


@st.composite
def matrices_mod_l(draw):
    """(l, rows): k x m matrices over Z/l with k > m among them, as the
    oracle's symbol matrices start with k = m rows and double k."""
    l = draw(st.sampled_from([3, 5, 7, 11, 13]))
    m = draw(st.integers(0, 7))
    k = draw(st.integers(0, 2 * m + 2))
    # few distinct values, so rank deficiency and repeated rows are common
    entry = st.one_of(st.just(0), st.integers(0, l - 1))
    flat = draw(st.lists(entry, min_size=k * m, max_size=k * m))
    return l, m, [flat[i * m : (i + 1) * m] for i in range(k)]


@settings(max_examples=200, deadline=None)
@given(matrices_mod_l())
@example((3, 3, [[1, 1, 2], [2, 2, 1], [0, 0, 0], [1, 1, 2]]))
@example((5, 2, []))
@example((7, 0, [[], []]))
def test_rref_and_nullspace_mod_l(case):
    l, m, rows = case
    r, pivots = _rref_mod(rows, l)
    basis = _nullspace_mod(r, pivots, m, l)
    assert len(pivots) + len(basis) == m
    for v in basis:
        assert len(v) == m
        for row in rows:
            assert sum(a * x for a, x in zip(row, v)) % l == 0
        assert next(x for x in v if x) == 1
    free = [c for c in range(m) if c not in pivots]
    assert pivots == sorted(pivots)
    # one vector per free column, ascending: vector i is nonzero at free[i]
    # and 0 at every other free column
    assert [[v[c] != 0 for c in free] for v in basis] == [
        [c == d for c in free] for d in free
    ]
    assert r == _rref_mod(r, l)[0]  # reduced: a second pass changes nothing


def test_consistency_check_examples():
    s = normalize_inputs(3, [2, 3, 6])
    assert consistency_check(s, (1, 1, 2), rank_and_kernel(s))
    assert not consistency_check(s, (1, 1, 1), rank_and_kernel(s))
    s2 = normalize_inputs(3, [2, 3])
    for r in [(0, 0), (1, 2), (2, 2)]:
        assert consistency_check(s2, r, rank_and_kernel(s2))
    with pytest.raises(ValueError):
        consistency_check(s2, (1,), rank_and_kernel(s2))


def test_consistency_dropped_entries_need_zero():
    s = normalize_inputs(3, [8, 2])
    assert consistency_check(s, (0, 1), rank_and_kernel(s))
    assert not consistency_check(s, (1, 1), rank_and_kernel(s))


def test_translate_targets():
    s = normalize_inputs(3, [12, 18])
    r = reduce_basis(s)
    assert consistency_check(s, (1, 2), rank_and_kernel(s))
    assert translate_targets(r, (1, 2)) == (1,)

    s2 = normalize_inputs(3, [2, 3])
    r2 = reduce_basis(s2)
    assert translate_targets(r2, (2, 1)) == (2, 1)  # identity transform

    s3 = normalize_inputs(3, [8])
    assert translate_targets(reduce_basis(s3), (0,)) == ()
    with pytest.raises(ValueError):
        translate_targets(r2, (1,))


def test_triple_equality_random():
    rng = random.Random(31337)
    for l in (3, 5):
        for _ in range(40):
            values = [rng.randint(2, 1000) * rng.choice([1, -1]) for _ in range(rng.randint(1, 4))]
            s = normalize_inputs(l, values)
            t = reduce_basis(s).t
            rank = rank_and_kernel(s).rank
            relations = brute_force_kernel(s)
            m = len(s.normalized)
            assert l**t == l**rank == l**m // relations
