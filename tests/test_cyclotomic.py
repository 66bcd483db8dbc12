import cmath
import math
import random
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from radsym.arith import RamifiedPrimeError, ff_from_poly, is_prime, multiplicative_order
from radsym.cyclotomic import (
    CyclotomicInt,
    SymbolUndefinedError,
    UnsupportedModulusError,
    cyclo_norm,
    eisenstein_check,
    is_primary,
    primes_above,
    residue_symbol,
    symbol_over_integer,
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


@pytest.mark.parametrize("l", [3, 5, 7])
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


def test_residue_symbol_degree1_agrees_with_field_machinery():
    # the linear-factor shortcut must match an explicit residue-field walk
    rng = random.Random(64)
    for I in primes_above(13, 3) + primes_above(31, 3) + primes_above(11, 5):
        assert I.f == 1
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
