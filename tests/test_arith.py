import math

import pytest
from hypothesis import given, settings, strategies as st

import radsym.arith
from radsym.arith import (
    FactorizationError,
    RamifiedPrimeError,
    exact_lth_root,
    factorize,
    ff_from_int,
    ff_from_poly,
    integer_nth_root,
    is_prime,
    multiplicative_order,
    order_table,
    poly_divmod,
    poly_is_irreducible,
    poly_mul,
    poly_sub,
)


def test_factorize_examples():
    f = factorize(216)
    assert f.sign == 1 and f.factors == ((2, 3), (3, 3))
    f = factorize(-12)
    assert f.sign == -1 and f.factors == ((2, 2), (3, 1))
    f = factorize(1)
    assert f.sign == 1 and f.factors == ()


def test_factorize_rejects_zero():
    with pytest.raises(ValueError):
        factorize(0)


@settings(deadline=None)
@given(st.integers(min_value=-(10**12), max_value=10**12).filter(lambda n: n != 0))
def test_factorize_roundtrip(n):
    f = factorize(n)
    assert f.sign * math.prod(p**e for p, e in f.factors) == n
    assert all(e >= 1 for _, e in f.factors)
    assert list(f.primes()) == sorted(set(f.primes()))


def test_factorize_large_semiprime():
    p, q = 1_000_003, 1_000_033
    f = factorize(p * q)
    assert f.factors == ((p, 1), (q, 1))


def test_factorize_bound_and_budget(monkeypatch):
    with pytest.raises(ValueError, match=rf"^\|n\| exceeds the configured factorization bound {1 << 96}$"):
        factorize(1 << 97)
    monkeypatch.setattr(radsym.arith, "FACTOR_BOUND", 100)
    assert factorize(-100).factors == ((2, 2), (5, 2))
    with pytest.raises(ValueError, match=r"^\|n\| exceeds the configured factorization bound 100$"):
        factorize(101)
    monkeypatch.undo()
    p = next(n for n in range(2**41, 2**41 + 200) if is_prime(n))
    q = next(n for n in range(2**41 + 200, 2**41 + 600) if is_prime(n))
    monkeypatch.setattr(radsym.arith, "FACTOR_BUDGET", 8)
    with pytest.raises(FactorizationError, match="^factorization budget exhausted; lower the input bound$"):
        factorize(p * q)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 + 1)
    # past ~3.3e24 is_prime defers to sympy's BPSW test
    assert is_prime(2**89 - 1)
    assert not is_prime((2**61 - 1) * (2**31 - 1))  # no factor <= 37


# psi_j of OEIS A014233: the least odd composite that is a strong pseudoprime
# to each of the first j primes, j = 1..13
PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
       341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
       3825123056546413051, 318665857834031151167461, 3317044064679887385961981)


def test_is_prime_rejects_every_strong_pseudoprime_bound():
    for psi in PSI:
        assert not is_prime(psi), psi
    assert 399165290221 * 798330580441 == PSI[11]
    assert is_prime(399165290221) and is_prime(798330580441)


def test_is_prime_matches_sympy_at_the_witness_bounds():
    from sympy import isprime

    # odd n on both sides of each bound where the witness count changes
    for psi in sorted(set(PSI)):
        for n in range(psi - 600, psi + 601, 2):
            assert is_prime(n) == isprime(n), n


def test_integer_nth_root():
    for n, k, want in [(0, 3, 0), (1, 5, 1), (26, 3, 2), (27, 3, 3), (10**18, 3, 10**6)]:
        assert integer_nth_root(n, k) == want
    for n in range(1, 200):
        r = integer_nth_root(n, 3)
        assert r**3 <= n < (r + 1) ** 3


def test_exact_lth_root_examples():
    assert exact_lth_root(216, 3) == 6
    assert exact_lth_root(-27, 3) == -3
    assert exact_lth_root(12, 3) is None


@settings(deadline=None)
@given(
    st.integers(min_value=-(10**6), max_value=10**6),
    st.sampled_from([3, 5, 7]),
)
def test_exact_lth_root_roundtrip(c, l):
    assert exact_lth_root(c**l, l) == c


def test_multiplicative_order():
    assert multiplicative_order(7, 3) == 1
    assert multiplicative_order(2, 3) == 2
    assert multiplicative_order(2, 7) == 3
    assert pow(2, 3, 7) == 1 and pow(2, 1, 7) != 1 and pow(2, 2, 7) != 1
    with pytest.raises(RamifiedPrimeError):
        multiplicative_order(3, 3)
    for l in (3, 5, 7, 11):
        for p in (2, 3, 5, 7, 11, 13, 101):
            if p == l:
                continue
            f = multiplicative_order(p, l)
            assert (l - 1) % f == 0
            assert pow(p, f, l) == 1



def test_order_table_matches_repeated_multiplication():
    for l in (3, 5, 7, 11, 13, 101):
        table = order_table(l)
        for r in range(1, l):
            f, cur = 1, r
            while cur != 1:
                cur = cur * r % l
                f += 1
            assert table[r] == f


F4 = (1, 1, 1)  # X^2 + X + 1 over GF(2)


def test_ff_pow_examples():
    x = ff_from_int(7, (0, 1), 2)
    assert x**2 == ff_from_int(7, (0, 1), 4)
    # Lagrange in GF(4): every nonzero element cubes to 1
    one = ff_from_int(2, F4, 1)
    for coeffs in [(1, 0), (0, 1), (1, 1)]:
        assert ff_from_poly(2, F4, coeffs) ** 3 == one
    # the class of X squared reduces to X + 1
    assert ff_from_poly(2, F4, (0, 1)) ** 2 == ff_from_poly(2, F4, (1, 1))


@pytest.mark.parametrize(
    "p,modulus",
    [
        (7, (0, 1)),
        (2, F4),
        (2, (1, 1, 0, 1)),  # GF(8)
        (5, (2, 1, 1)),  # GF(25): X^2 + X + 2 irreducible mod 5
    ],
)
def test_ff_pow_distributes(p, modulus):
    import random

    assert poly_is_irreducible(modulus, p) or len(modulus) == 2
    rng = random.Random(1234 + p + len(modulus))
    f = len(modulus) - 1
    order = p**f - 1
    one = ff_from_int(p, modulus, 1)
    for _ in range(100):
        x = ff_from_poly(p, modulus, tuple(rng.randrange(p) for _ in range(f)))
        y = ff_from_poly(p, modulus, tuple(rng.randrange(p) for _ in range(f)))
        e = rng.randrange(0, 3 * order)
        assert (x * y) ** e == x**e * y**e
        if not x.is_zero():
            assert x**order == one


GF9 = (1, 0, 1)  # X^2 + 1 over GF(3)
GF343 = (5, 0, 0, 1)  # X^3 - 2 over GF(7): 2 is not a cube mod 7


@pytest.mark.parametrize(
    "p,modulus", [(3, GF9), (5, (2, 1, 1)), (2, (1, 1, 0, 1)), (7, GF343)]
)
def test_pow_matches_repeated_multiplication(p, modulus):
    import random

    assert poly_is_irreducible(modulus, p)
    rng = random.Random(p * 100 + len(modulus))
    f = len(modulus) - 1
    for _ in range(8):
        x = ff_from_poly(p, modulus, tuple(rng.randrange(p) for _ in range(f)))
        product = ff_from_int(p, modulus, 1)
        for e in range(p**f + 2):
            assert x**e == product, (x, e)
            product = product * x


@pytest.mark.parametrize("p", [3, 5])
def test_irreducible_low_degree_iff_no_root(p):
    from itertools import product

    for d in (2, 3):
        for lead in range(1, p):
            for low in product(range(p), repeat=d):
                h = low + (lead,)
                has_root = any(
                    sum(c * pow(r, i, p) for i, c in enumerate(h)) % p == 0 for r in range(p)
                )
                assert poly_is_irreducible(h, p) == (not has_root), h


def mobius(n):
    out, q = 1, 2
    while q * q <= n:
        if n % q == 0:
            n //= q
            if n % q == 0:
                return 0
            out = -out
        q += 1
    return -out if n > 1 else out


def gauss_count(p, d):
    """N(d) = (1/d) * sum over k | d of mu(k) * p**(d/k): the number of monic
    irreducibles of degree d over GF(p)."""
    return sum(mobius(k) * p ** (d // k) for k in range(1, d + 1) if d % k == 0) // d


def monic_polys(p, d):
    from itertools import product

    return [low + (1,) for low in product(range(p), repeat=d)]


def local_polymul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return tuple(out)


@pytest.mark.parametrize("p,top", [(2, 6), (3, 4), (5, 4)])
def test_irreducible_exactly_the_non_products(p, top):
    """Every monic h of degree d <= top: reducible exactly when it is a
    product of two monic factors of lower degree (squares included), and the
    irreducibles number Gauss's N(d)."""
    polys = {d: monic_polys(p, d) for d in range(1, top + 1)}
    for d in range(1, top + 1):
        products = {
            local_polymul(a, b, p)
            for i in range(1, d // 2 + 1)
            for a in polys[i]
            for b in polys[d - i]
        }
        irreducible = {h for h in polys[d] if poly_is_irreducible(h, p)}
        assert irreducible == set(polys[d]) - products, (p, d)
        assert len(irreducible) == gauss_count(p, d), (p, d)


def test_irreducible_scales_and_small_degrees():
    # a unit multiple answers like the monic polynomial; coefficients are
    # read mod p, and trailing zeros mod p lower the degree
    for p in (3, 5):
        for h in monic_polys(p, 3):
            want = poly_is_irreducible(h, p)
            for c in range(2, p):
                assert poly_is_irreducible(tuple(c * x for x in h), p) == want
                assert poly_is_irreducible(tuple(c * x + p for x in h) + (p,), p) == want
    for p in (2, 7, 1_000_003):
        for h in [(), (0,), (3,), (p,), (0, p), (1, 0, p)]:
            assert not poly_is_irreducible(h, p), h  # degree < 1 mod p
        for h in [(0, 1), (5, 3), (1, 1 + p)]:
            assert poly_is_irreducible(h, p), h  # degree 1
    assert gauss_count(2, 6) == 9 and gauss_count(5, 4) == 150


def test_field_elements_need_a_monic_modulus():
    for p, modulus in [(5, (1, 1, 2)), (5, (1, 1, 5)), (7, (3,)), (7, ())]:
        with pytest.raises(ValueError, match="monic"):
            ff_from_poly(p, modulus, (1, 2))
        with pytest.raises(ValueError, match="monic"):
            ff_from_int(p, modulus, 3)
    # monic mod p is enough: 6 == 1 mod 5
    assert ff_from_poly(5, (2, 1, 6), (0, 0, 1)).coeffs == (3, 4)


@settings(max_examples=80)
@given(st.sampled_from((2, 3, 7, 65537)), st.lists(st.integers(-10**6, 10**6), max_size=9),
       st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=5))
def test_poly_quotient_and_remainder_divide(p, a, b):
    if b[-1] % p == 0:
        b[-1] = 1  # a unit leading coefficient
    q, r = poly_divmod(a, b, p)
    assert len(r) < len(b)
    assert poly_sub(a, poly_mul(q, b, p), p) == r
    with pytest.raises(ZeroDivisionError):
        poly_divmod(a, [0, 0], p)
