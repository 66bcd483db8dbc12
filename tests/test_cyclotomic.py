import cmath
import math
import random
from functools import cache

import pytest
from hypothesis import example, given, settings, strategies as st

from radsym.arith import (
    FiniteFieldElement,
    RamifiedPrimeError,
    ff_from_int,
    ff_from_poly,
    is_prime,
    multiplicative_order,
    poly_gcd,
    poly_is_irreducible,
    poly_trim,
)
from radsym import cyclotomic
from radsym.cyclotomic import (
    CyclotomicInt,
    PrimeIdeal,
    SymbolUndefinedError,
    UnsupportedModulusError,
    cyclo_norm,
    eisenstein_check,
    is_primary,
    primes_above,
    residue_symbol,
    symbol_over_integer,
)
from radsym.cyclotomic import (
    _canonical_key,
    _element_of_order_l,
    _frobenius_orbits,
    _linear_roots,
    _separates,
    _split_by_field,
    _split_by_periods,
)


def embed(alpha: CyclotomicInt, ideal):
    """Image of alpha in GF(p)[X]/(g) under zeta -> X."""
    return ff_from_poly(ideal.p, ideal.g, alpha.coeffs)


def ceval(alpha: CyclotomicInt) -> complex:
    z = cmath.exp(2j * cmath.pi / alpha.l)
    return sum(c * z**i for i, c in enumerate(alpha.coeffs))


def local_polymul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return tuple(out)


@pytest.mark.parametrize("l", [3, 5, 7])
def test_ring_ops_match_complex_evaluation(l):
    rng = random.Random(97 + l)
    for _ in range(60):
        a = CyclotomicInt(l, tuple(rng.randint(-10, 10) for _ in range(l - 1)))
        b = CyclotomicInt(l, tuple(rng.randint(-10, 10) for _ in range(l - 1)))
        for got, want in [
            (ceval(a + b), ceval(a) + ceval(b)),
            (ceval(a * b), ceval(a) * ceval(b)),
            (ceval(a - b), ceval(a) - ceval(b)),
        ]:
            scale = max(1.0, abs(want))
            assert abs(got - want) / scale < 1e-6


@pytest.mark.parametrize("l", [3, 5])
def test_conjugate_matches_root_substitution(l):
    rng = random.Random(31 + l)
    z = cmath.exp(2j * cmath.pi / l)
    for _ in range(40):
        a = CyclotomicInt(l, tuple(rng.randint(-8, 8) for _ in range(l - 1)))
        for k in range(1, l):
            got = ceval(a.conjugate(k))
            want = sum(c * z ** (i * k) for i, c in enumerate(a.coeffs))
            assert abs(got - want) < 1e-6 * max(1.0, abs(want))


def test_cyclo_norm_examples():
    assert cyclo_norm(CyclotomicInt(3, (1, 3))) == 7  # (1+3z)(1+3z^2) = 1-3+9
    assert cyclo_norm(CyclotomicInt.from_int(3, 4)) == 4**2
    assert cyclo_norm(CyclotomicInt.from_int(5, -2)) == (-2) ** 4
    assert cyclo_norm(CyclotomicInt.zeta(3)) == 1
    assert cyclo_norm(CyclotomicInt.zeta(5)) == 1


def test_cyclo_norm_multiplicative():
    rng = random.Random(11)
    for l in (3, 5):
        for _ in range(25):
            a = CyclotomicInt(l, tuple(rng.randint(-6, 6) for _ in range(l - 1)))
            b = CyclotomicInt(l, tuple(rng.randint(-6, 6) for _ in range(l - 1)))
            assert cyclo_norm(a * b) == cyclo_norm(a) * cyclo_norm(b)


def test_primes_above_split_example():
    roots = [w for w in range(7) if (w * w + w + 1) % 7 == 0]
    assert sorted(roots) == [2, 4]
    ideals = primes_above(7, 3)
    assert [I.g for I in ideals] == [(5, 1), (3, 1)]  # X-2 then X-4
    assert all(I.f == 1 and I.norm == 7 for I in ideals)


def test_primes_above_inert_example():
    ideals = primes_above(2, 3)
    assert len(ideals) == 1
    assert ideals[0].g == (1, 1, 1) and ideals[0].f == 2 and ideals[0].norm == 4
    assert all((w * w + w + 1) % 2 != 0 for w in range(2))  # no roots mod 2


def test_primes_above_13():
    roots = sorted(w for w in range(13) if (w * w + w + 1) % 13 == 0)
    assert roots == [3, 9]
    ideals = primes_above(13, 3)
    assert [I.g for I in ideals] == [(10, 1), (4, 1)]


def test_primes_above_ramified():
    with pytest.raises(RamifiedPrimeError):
        primes_above(3, 3)
    with pytest.raises(RamifiedPrimeError):
        primes_above(5, 5)


@pytest.mark.parametrize("p, l", [(7, 3), (31, 5), (1021001, 1021)])
def test_split_prime_root_check_fires_on_bad_roots(monkeypatch, p, l):
    """At f = 1 primes_above checks its linear factors by their roots, and
    raises as the product check did when one root is no l-th root of
    unity, is 1, or repeats another, or when the leading coefficient is off."""
    assert multiplicative_order(p, l) == 1
    real = cyclotomic._linear_factors
    good = real(p, l)
    w = (-good[0][0]) % p
    stranger = next(x for x in range(2, p) if pow(x, l, p) != 1)
    corruptions = {
        "not a root": [((-stranger) % p, 1)] + good[1:],
        "root 1": [(p - 1, 1)] + good[1:],
        "repeated root": [good[1]] + good[1:],
        "not monic": [((-w) % p, 2)] + good[1:],
        "one missing": good[1:],
    }
    assert primes_above(p, l)  # the true factors pass
    for name, factors in corruptions.items():
        monkeypatch.setattr(cyclotomic, "_linear_factors", lambda p, l, fs=factors: fs)
        with pytest.raises(AssertionError, match="does not reproduce the cyclotomic"):
            primes_above(p, l)
        monkeypatch.setattr(cyclotomic, "_linear_factors", real)


@pytest.mark.parametrize("l", [3, 5, 7, 11, 13])
def test_primes_above_invariants(l):
    phi = tuple([1] * l)
    for p in [q for q in range(2, 200) if all(q % d for d in range(2, q))]:
        if p == l:
            continue
        f = multiplicative_order(p, l)
        ideals = primes_above(p, l)
        assert len(ideals) == (l - 1) // f
        assert len(set(I.g for I in ideals)) == len(ideals)
        assert (p**f - 1) % l == 0
        product = (1,)
        for I in ideals:
            assert len(I.g) == f + 1 and I.g[-1] == 1
            product = local_polymul(product, I.g, p)
        assert product == tuple(c % p for c in phi)
        # zeta images are pairwise distinct in the residue field
        for I in ideals:
            x = ff_from_poly(p, I.g, (0, 1))
            images = set()
            acc = ff_from_poly(p, I.g, (1,))
            for _ in range(l):
                images.add(acc.coeffs)
                acc = acc * x
            assert len(images) == l
        assert primes_above(p, l) == ideals  # deterministic


def _min_poly_over_base(roots, p):
    """prod (X - r) for Frobenius-conjugate roots; coefficients must be in GF(p)."""
    modulus = roots[0].modulus
    coeffs = [ff_from_int(p, modulus, 1)]
    for r in roots:
        nxt = [ff_from_int(p, modulus, 0) for _ in range(len(coeffs) + 1)]
        for i, c in enumerate(coeffs):
            nxt[i + 1] = nxt[i + 1] + c
            nxt[i] = nxt[i] - c * r
        coeffs = nxt
    out = []
    for c in coeffs:
        if any(v != 0 for v in c.coeffs[1:]):
            raise AssertionError("minimal polynomial coefficient escaped GF(p)")
        out.append(c.coeffs[0])
    return poly_trim(out)


def reference_split(p, l, theta):
    """The factors of Phi_l mod p as products of X - theta**j over the cosets
    j0*<p>, for theta of exact order l in GF(p**f): GF(p**f) arithmetic only,
    no power sums."""
    theta_pow = [ff_from_int(p, theta.modulus, 1)]
    for _ in range(1, l):
        theta_pow.append(theta_pow[-1] * theta)
    return [_min_poly_over_base([theta_pow[j] for j in orbit], p)
            for orbit in _frobenius_orbits(p, l)]


def all_splits(p, l):
    """The factors of Phi_l mod p from the period path, the field path and
    the reference, each canonically sorted, with the same per-(p, l) seed;
    the last two share one element of order l."""
    f = multiplicative_order(p, l)
    seed = p * 1_000_003 + l * 1_009
    theta = _element_of_order_l(p, l, f, random.Random(seed))
    splits = (_split_by_periods(p, l, f, random.Random(seed)),
              _split_by_field(p, l, f, theta),
              reference_split(p, l, theta))
    return [sorted(split, key=lambda g: _canonical_key(g, p)) for split in splits]


SWEEP_L = (5, 7, 11, 13, 17, 19, 23, 29, 31)
SWEEP_P = [p for p in range(2, 3000) if is_prime(p)]


def takes_periods(p, l):
    """primes_above's rule: the period path where f >= k, or where a random
    period element is likely to separate the factors and k**2 <= f**3."""
    f = multiplicative_order(p, l)
    k = (l - 1) // f
    return f >= k or _separates(p, k) and k * k <= f**3


def test_period_sweep_covers_the_hard_cases():
    # the sweep below reaches both sides of primes_above's rule, p = 2 and 3,
    # primes p <= f, where Newton's identities would divide by m = 0 mod p,
    # primes below the number k of factors, which no single period splits,
    # and k = 2 at p = 3 mod 4 (one power) and at p = 5 and 1 mod 8 (one and
    # more rounds of the Tonelli-Shanks loop), where the roots of the
    # period's quadratic come from one square root
    cases = [(l, p, multiplicative_order(p, l)) for l in SWEEP_L for p in SWEEP_P
             if p != l and 1 < multiplicative_order(p, l) < l - 1]
    assert any(takes_periods(p, l) for l, p, _ in cases)
    assert any(not takes_periods(p, l) for l, p, _ in cases)
    assert {(7, 2), (13, 3), (31, 2)} <= {(l, p) for l, p, _ in cases}
    assert any(p <= f and p >= (l - 1) // f for l, p, f in cases)  # (11, 3): f = 5, k = 2
    assert any(p < (l - 1) // f for l, p, f in cases)  # (31, 2): f = 5, k = 6
    # the period side below k is (43, 2) in the hypothesis twin's examples
    quadratic = {p % 8 for l, p, f in cases if (l - 1) // f == 2 and p > 2}
    assert {1, 3, 5} <= quadratic


@pytest.mark.parametrize("l", SWEEP_L)
def test_period_split_matches_field_split(l):
    swept = 0
    for p in SWEEP_P:
        if p == l or not 1 < multiplicative_order(p, l) < l - 1:
            continue
        periods, field, reference = all_splits(p, l)
        assert periods == field == reference, (p, l)
        swept += 1
    assert swept > 100


def test_field_side_at_p_at_most_f():
    # f = 5, k = 14 and f = 8, k = 39: primes_above takes the field path, and
    # as p <= f, Berlekamp-Massey builds the factors from their power sums
    for p, l in ((5, 71), (5, 313)):
        f = multiplicative_order(p, l)
        assert p <= f and not takes_periods(p, l)
        reference = reference_split(p, l, _element_of_order_l(p, l, f, random.Random(l)))
        assert [I.g for I in primes_above(p, l)] == sorted(
            reference, key=lambda g: _canonical_key(g, p))


def test_field_side_where_no_period_separates():
    # f < k, and a random period element is unlikely to separate the
    # factors: never where p < k, rarely at (7, 43) (f = 6, k = 7, each draw
    # with probability 7!/7**7) and (41, 137) (f = 8, k = 17); the period
    # path would need several rounds of draws, so primes_above takes the
    # field path even where k**2 <= f**3, as at (2, 127): f = 7, k = 18
    for p, l in ((3, 13), (2, 31), (5, 31), (2, 127), (7, 43), (41, 137)):
        f = multiplicative_order(p, l)
        k = (l - 1) // f
        assert f < k and not _separates(p, k) and not takes_periods(p, l)
        reference = reference_split(p, l, _element_of_order_l(p, l, f, random.Random(l)))
        assert [I.g for I in primes_above(p, l)] == sorted(
            reference, key=lambda g: _canonical_key(g, p))


@pytest.mark.parametrize("l", [7, 13, 17, 31])
def test_primes_above_factors_irreducible_and_canonical(l):
    for p in SWEEP_P[:60]:
        if p == l:
            continue
        f = multiplicative_order(p, l)
        ideals = primes_above(p, l)
        assert [I.f for I in ideals] == [f] * ((l - 1) // f)
        assert all(len(I.g) == f + 1 and poly_is_irreducible(I.g, p) for I in ideals), (p, l)
        keys = [_canonical_key(I.g, p) for I in ideals]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)


@settings(deadline=None, max_examples=40)
@given(st.sampled_from([q for q in range(5, 44) if is_prime(q)]), st.integers(2, 2**20))
@example(43, 2)  # f = 14 >= k = 3 > p: primes_above refines by several periods
@example(31, 2)  # f = 5, k = 6 > p: primes_above takes the field path, the periods several rounds
def test_period_split_matches_field_split_at_random_primes(l, n):
    p = n
    while p == l or not is_prime(p):
        p += 1
    f = multiplicative_order(p, l)
    if not 1 < f < l - 1:
        return
    periods, field, reference = all_splits(p, l)
    assert periods == field == reference
    assert [I.g for I in primes_above(p, l)] == periods


def test_period_split_near_the_cap(monkeypatch):
    # f >= k with p far below k**2, so one random period element rarely
    # separates the factors and the split takes several rounds; no gcd may
    # reach a polynomial of degree above k, as one with Phi_l would
    def small_gcd(a, b, p):
        assert max(len(a), len(b)) - 1 <= k, "gcd above degree k"
        return poly_gcd(a, b, p)

    monkeypatch.setattr(cyclotomic, "poly_gcd", small_gcd)
    for p, l in ((41, 1009), (13, 1009), (3, 1021)):
        f = multiplicative_order(p, l)
        k = (l - 1) // f
        assert f >= k and not _separates(p, k) and takes_periods(p, l)
        seed = p * 1_000_003 + l * 1_009
        periods = _split_by_periods(p, l, f, random.Random(seed))
        field = _split_by_field(p, l, f, _element_of_order_l(p, l, f, random.Random(seed)))
        assert sorted(periods, key=lambda g: _canonical_key(g, p)) == sorted(
            field, key=lambda g: _canonical_key(g, p)), (p, l)
        ideals = primes_above(p, l)
        assert len(ideals) == k and all(I.f == f for I in ideals)
        assert all(poly_is_irreducible(I.g, p) for I in ideals), (p, l)
        keys = [_canonical_key(I.g, p) for I in ideals]
        assert keys == sorted(keys) and len(set(keys)) == k


def test_period_path_builds_no_field_element(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("built a FiniteFieldElement")

    monkeypatch.setattr(FiniteFieldElement, "__init__", refuse)
    # each (p, l) has f >= k, or p >= k and k**2 <= f**3, so primes_above
    # takes the period path; 65537 at l = 13 (k = 2) takes the roots of the
    # period's quadratic from a square root, 83 at l = 13 (k = 3) by
    # Cantor-Zassenhaus, and the primes p <= f or p < k take
    # Berlekamp-Massey or several rounds of period draws
    for p, l in ((2, 7), (5, 13), (2, 17), (7, 31), (3, 11), (2, 43), (65537, 13),
                 (83, 13)):
        f = multiplicative_order(p, l)
        assert 1 < f < l - 1 and takes_periods(p, l), (p, l)
        assert len(primes_above(p, l)) == (l - 1) // f
    with pytest.raises(AssertionError, match="FiniteFieldElement"):
        primes_above(13, 7)  # f = 2, k = 3, k**2 > f**3: the GF(p**f) construction
    with pytest.raises(AssertionError, match="FiniteFieldElement"):
        primes_above(2, 127)  # f = 7, k = 18 > p: the GF(p**f) construction
    with pytest.raises(AssertionError, match="FiniteFieldElement"):
        primes_above(7, 43)  # f = 6, k = 7 = p: one draw rarely separates


def test_linear_roots_of_a_quadratic():
    # one square root gives both roots, at p = 3 mod 4 by a single power and
    # at p = 1 mod 4 by the Tonelli-Shanks loop, down to p = 1 mod 2**6
    rng = random.Random(5)
    for p in (3, 5, 7, 13, 17, 41, 97, 193, 65537, 2**31 - 1, 998244353):
        for _ in range(20):
            a, b = rng.sample(range(p), 2)
            m = (a * b % p, -(a + b) % p, 1)
            assert sorted(_linear_roots(m, p, rng)) == sorted((a, b)), (p, a, b)


def ideal_with_root(p, l, root):
    for I in primes_above(p, l):
        if I.g == ((-root) % p, 1):
            return I
    raise AssertionError("no such ideal")


def test_residue_symbol_golden():
    P = ideal_with_root(7, 3, 2)
    assert pow(2, (7 - 1) // 3, 7) == 4 and pow(2, 2, 7) == 4  # 4 is the image of zeta^2
    assert residue_symbol(2, P) == 2
    P2 = primes_above(2, 3)[0]
    assert residue_symbol(3, P2) == 0
    for I in primes_above(7, 3) + primes_above(13, 3) + primes_above(5, 3):
        assert residue_symbol(8, I) == 0  # 8 = 2**3


def test_residue_symbol_zeta():
    # the symbol of zeta itself is (norm-1)/l mod l
    for p in (7, 13, 2, 5):
        for I in primes_above(p, 3):
            e = (I.norm - 1) // 3
            assert residue_symbol(CyclotomicInt.zeta(3), I) == e % 3


def test_residue_symbol_undefined():
    P = primes_above(7, 3)[0]
    with pytest.raises(SymbolUndefinedError):
        residue_symbol(7, P)
    with pytest.raises(SymbolUndefinedError):
        residue_symbol(14, P)


def test_residue_symbol_agrees_with_field_machinery():
    # the per-ideal zeta-log table must match an explicit residue-field walk,
    # at f = 1 and at f >= 2 on both sides of the f >= k split rule: l = 7,
    # p = 13 (f = 2 < k = 3) and l = 13, p = 3 (f = 3 < k = 4) take the
    # GF(p**f) construction, l = 7, p = 2 (f = 3 >= k = 2) the periods
    rng = random.Random(64)
    cases = [(13, 3, 1), (31, 3, 1), (11, 5, 1), (13, 7, 2), (2, 7, 3), (3, 13, 3)]
    for p, l, f in cases:
        assert multiplicative_order(p, l) == f
    for I in [I for p, l, _ in cases for I in primes_above(p, l)]:
        e = (I.norm - 1) // I.l
        for _ in range(20):
            a = CyclotomicInt(I.l, tuple(rng.randint(-9, 9) for _ in range(I.l - 1)))
            img = embed(a, I)
            if img.is_zero():
                continue
            y = img**e
            x = ff_from_poly(I.p, I.g, (0, 1))
            acc = ff_from_poly(I.p, I.g, (1,))
            want = None
            for i in range(I.l):
                if y == acc:
                    want = i
                    break
                acc = acc * x
            assert want is not None
            assert residue_symbol(a, I) == want


@pytest.mark.parametrize("l", [3, 7, 13])
def test_residue_symbol_int_at_degree_one(l):
    # a plain int at an f = 1 ideal: a**((p-1)/l) == root**i mod p
    rng = random.Random(4000 + l)
    primes = [p for p in range(2 * l + 1, 5000, 2 * l) if is_prime(p)][:6]
    primes.append(next(p for p in range(2 * l * 10**5 + 1, 2 * l * 10**6, 2 * l) if is_prime(p)))
    for p in primes:
        for I in primes_above(p, l):
            root = (-I.g[0]) % p
            for a in [rng.randint(-(10**15), 10**15) for _ in range(30)] + [1, -1, p + 1]:
                if a % p == 0:
                    continue
                i = residue_symbol(a, I)
                assert 0 <= i < l and pow(a, (p - 1) // l, p) == pow(root, i, p)
            for a in (0, p, -3 * p):
                with pytest.raises(SymbolUndefinedError, match="symbol undefined"):
                    residue_symbol(a, I)
            fresh = PrimeIdeal(I.l, I.p, I.f, I.g)  # the cached table is no field
            assert fresh == I and hash(fresh) == hash(I) and repr(fresh) == repr(I)
    # the same at f >= 2, once a CyclotomicInt has built the tuple-keyed table
    for I in [I for p in (2, 3, 5) if p != l for I in primes_above(p, l) if I.f >= 2]:
        residue_symbol(CyclotomicInt.zeta(l), I)
        assert "_symbol_table" in vars(I)
        fresh = PrimeIdeal(I.l, I.p, I.f, I.g)
        assert fresh == I and hash(fresh) == hash(I) and repr(fresh) == repr(I)


def test_residue_symbol_rejects_a_root_of_lower_order():
    bogus = PrimeIdeal(3, 7, 1, (6, 1))  # X - 1: zeta would map to 1
    assert residue_symbol(8, bogus) == 0  # 8 == 1 mod 7
    with pytest.raises(AssertionError, match="not a root of unity image"):
        residue_symbol(3, bogus)  # 3**2 == 2 mod 7 is no power of 1


def assert_same_symbol(a, I):
    """residue_symbol of the plain int a (closed form at f >= 2) equals that
    of the same value as a CyclotomicInt (the residue-field power), and both
    raise SymbolUndefinedError, with the same message, when p divides a."""
    exact = CyclotomicInt.from_int(I.l, a)
    if a % I.p:
        assert residue_symbol(a, I) == residue_symbol(exact, I), (a, I)
        return
    with pytest.raises(SymbolUndefinedError) as closed:
        residue_symbol(a, I)
    with pytest.raises(SymbolUndefinedError) as field:
        residue_symbol(exact, I)
    assert str(closed.value) == str(field.value)


@pytest.mark.parametrize("l", [3, 5, 7])
def test_rational_closed_form_matches_field_power(l):
    from radsym.density import enumerate_prime_ideals

    degrees = set()
    for I in enumerate_prime_ideals(l, 2000):
        degrees.add(I.f)
        for a in range(-60, 61):
            assert_same_symbol(a, I)
    assert degrees == {f for f in range(1, l) if (l - 1) % f == 0}  # every inertia degree


@cache
def inert_primes(l):
    """The primes below 2000 of inertia degree f >= 2 in Q(zeta_l)."""
    return tuple(p for p in range(2, 2000) if p != l and is_prime(p) and multiplicative_order(p, l) >= 2)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_rational_closed_form_matches_field_power_at_random_primes(data):
    l = data.draw(st.sampled_from((3, 5, 7, 11, 13)))
    p = data.draw(st.sampled_from(inert_primes(l)))
    I = data.draw(st.sampled_from(primes_above(p, l)))
    a = data.draw(st.integers(-(10**12), 10**12) | st.integers(-50, 50).map(lambda k: k * p))
    assert I.f >= 2
    assert_same_symbol(a, I)


def sample_elements(l, rng, count):
    out = []
    while len(out) < count:
        if rng.random() < 0.4:
            out.append(CyclotomicInt.from_int(l, rng.randint(-40, 40) or 1))
        else:
            out.append(CyclotomicInt(l, tuple(rng.randint(-6, 6) for _ in range(l - 1))))
    return out


@pytest.mark.parametrize("l", [3, 5])
def test_symbol_multiplicative(l):
    from radsym.density import enumerate_prime_ideals

    rng = random.Random(500 + l)
    for I in enumerate_prime_ideals(l, 2000):
        for _ in range(100):
            a, b = sample_elements(l, rng, 2)
            try:
                ea, eb, eab = (
                    residue_symbol(a, I),
                    residue_symbol(b, I),
                    residue_symbol(a * b, I),
                )
            except SymbolUndefinedError:
                continue
            assert eab == (ea + eb) % l


def field_elements(p, g):
    f = len(g) - 1
    coords = [()]
    for _ in range(f):
        coords = [c + (v,) for c in coords for v in range(p)]
    return [ff_from_poly(p, g, c) for c in coords]


@pytest.mark.parametrize("l", [3, 5])
def test_symbol_power_criterion(l):
    from radsym.density import enumerate_prime_ideals

    rng = random.Random(700 + l)
    for I in enumerate_prime_ideals(l, 300):
        lth_powers = {(x**l).coeffs for x in field_elements(I.p, I.g)}
        for _ in range(10):
            (a,) = sample_elements(l, rng, 1)
            img = embed(a, I)
            if img.is_zero():
                continue
            assert (residue_symbol(a, I) == 0) == (img.coeffs in lth_powers)


@pytest.mark.parametrize("l", [3, 5])
def test_symbol_conjugate_consistency_and_powers(l):
    from radsym.density import enumerate_prime_ideals

    rng = random.Random(900 + l)
    by_p = {}
    for I in enumerate_prime_ideals(l, 300):
        by_p.setdefault(I.p, []).append(I)
    for p, ideals in by_p.items():
        for _ in range(10):
            a = rng.randint(2, 10**4)
            if a % p == 0:
                continue
            alpha = CyclotomicInt.from_int(l, a)  # takes the residue-field power at f >= 2
            flags = {residue_symbol(alpha, I) == 0 for I in ideals}
            assert len(flags) == 1  # zero at one conjugate iff zero at all
            c = rng.randint(2, 50)
            if c % p:
                for I in ideals:
                    assert residue_symbol(CyclotomicInt.from_int(l, c**l), I) == 0


# -- primary elements -------------------------------------------------------


def in_pi_squared_ideal(beta: CyclotomicInt) -> bool:
    """Membership of beta in ((1-zeta)^2) via exact division by conjugates."""
    l = beta.l
    pi = CyclotomicInt.from_int(l, 1) - CyclotomicInt.zeta(l)
    gamma = pi * pi
    cofactor = CyclotomicInt.from_int(l, 1)
    for k in range(2, l):
        cofactor = cofactor * gamma.conjugate(k)
    norm = cyclo_norm(gamma)
    assert norm == l * l
    prod = beta * cofactor
    return all(c % norm == 0 for c in prod.coeffs)


def is_primary_oracle(alpha: CyclotomicInt) -> bool:
    return any(
        in_pi_squared_ideal(alpha - CyclotomicInt.from_int(alpha.l, c))
        for c in range(alpha.l)
    )


def test_is_primary_examples():
    assert is_primary(CyclotomicInt.from_int(3, 5))
    assert not is_primary(CyclotomicInt.zeta(3))
    assert not is_primary_oracle(CyclotomicInt.zeta(3))
    assert is_primary(CyclotomicInt(3, (1, 3)))
    assert is_primary_oracle(CyclotomicInt(3, (1, 3)))


def test_is_primary_matches_oracle_small_grid():
    for c0 in range(-4, 5):
        for c1 in range(-4, 5):
            a = CyclotomicInt(3, (c0, c1))
            assert is_primary(a) == is_primary_oracle(a), (c0, c1)


# -- symbols over composite moduli ------------------------------------------


def test_symbol_over_integer_golden():
    a = CyclotomicInt(3, (1, 3))
    assert symbol_over_integer(a, 2) == 2
    assert symbol_over_integer(a, 1) == 0
    assert symbol_over_integer(a, -1) == 0


def test_symbol_over_integer_split_prime_sum():
    a = CyclotomicInt(3, (1, 3))
    for q in (13, 19, 31):
        total = sum(residue_symbol(a, I) for I in primes_above(q, 3)) % 3
        assert symbol_over_integer(a, q) == total
        assert symbol_over_integer(a, q * q) == 2 * total % 3


def test_symbol_over_integer_errors():
    a = CyclotomicInt(3, (1, 3))  # norm 7
    with pytest.raises(ValueError, match="7"):
        symbol_over_integer(a, 7)
    with pytest.raises(ValueError):
        symbol_over_integer(a, 3)
    with pytest.raises(ValueError):
        symbol_over_integer(a, 0)


def test_eisenstein_golden_pair():
    alpha = CyclotomicInt(3, (1, 3))
    hits = [I for I in primes_above(7, 3) if embed(alpha, I).is_zero()]
    assert len(hits) == 1 and hits[0].g == (5, 1)  # zeta = 2 kills 1+3*zeta mod 7
    assert residue_symbol(2, hits[0]) == 2
    assert symbol_over_integer(alpha, 2) == 2
    assert eisenstein_check(alpha, 2)


def test_eisenstein_trivial_and_inert():
    assert eisenstein_check(CyclotomicInt(3, (1, 3)), 1)
    two = CyclotomicInt.from_int(3, 2)  # inert, norm 4 = 2**2, primary
    for a in (5, 7, 11, 25):
        assert eisenstein_check(two, a)


def test_eisenstein_errors():
    with pytest.raises(ValueError):
        eisenstein_check(CyclotomicInt.zeta(3), 2)  # not primary
    with pytest.raises(UnsupportedModulusError):
        eisenstein_check(CyclotomicInt.from_int(3, 7), 2)  # norm 49, but f(7) = 1
    with pytest.raises(ValueError):
        eisenstein_check(CyclotomicInt(3, (1, 3)), 14)  # shares 7 with the norm
    with pytest.raises(ValueError):
        eisenstein_check(CyclotomicInt(3, (1, 3)), 6)  # divisible by l
