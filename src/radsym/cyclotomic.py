"""Arithmetic in Z[zeta_l] and residue symbols at its prime ideals.

zeta_l is a primitive l-th root of unity for an odd prime l.  Elements are
held in the power basis 1, zeta, ..., zeta^(l-2).  Prime ideals above a
rational prime p != l are represented by the monic irreducible factors of the
l-th cyclotomic polynomial mod p.  The residue symbol reduces its argument
once mod (g, p), raises it to (p**f - 1)/l in the residue field GF(p)[X]/(g),
held as plain ints at f = 1 and as tuples of f coefficients above, and looks
the result up in the ideal's table of the powers of zeta.

Phi_l mod p has k = (l-1)/f factors of degree f = ord(p mod l).  When
f >= k they are split off by Gaussian periods, with GF(p) arithmetic alone:
Frobenius maps X**j to X**(j*p), so the sums of X**j over the cosets of <p>
in (Z/l)* span the subalgebra of GF(p)[X]/(Phi_l) that is isomorphic to
GF(p)**k (Berlekamp's), and gcd(Phi_l, y - r) over the values r of one such
element y groups the factors.  When k > f the factors are the minimal
polynomials of the powers of an element of order l in GF(p**f), which is
faster there than k gcds with Phi_l.

A rational integer a prime to p needs no such power at an ideal of inertia
degree f >= 2: its symbol there is 0.  Since f = ord(p mod l) > 1, l does not
divide p - 1, yet it divides p**f - 1 = (p - 1)(1 + p + ... + p**(f-1)); so l
divides the second factor and (p**f - 1)/l is a multiple of p - 1.  The image
of a lies in GF(p)*, where a**(p - 1) = 1, hence a**((p**f - 1)/l) = 1 =
zeta**0.  ``residue_symbol`` answers plain ints at f >= 2 this way; a
``CyclotomicInt`` argument, rational or not, always takes the field power.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property

from .arith import (
    FiniteFieldElement,
    RamifiedPrimeError,
    _check_l,
    _mulmod,
    _powmod,
    _rref_mod,
    factorize,
    ff_from_int,
    ff_from_poly,
    multiplicative_order,
    poly_divmod,
    poly_gcd,
    poly_is_irreducible,
    poly_mod,
    poly_mul,
    poly_sub,
    poly_trim,
)


class SymbolUndefinedError(ValueError):
    """The argument lies in the prime ideal, so its symbol is undefined."""


class UnsupportedModulusError(ValueError):
    """The reciprocity check only accepts moduli generating a prime ideal."""


@dataclass(frozen=True)
class CyclotomicInt:
    """sum(coeffs[i] * zeta**i) with exactly l-1 coefficients."""

    l: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.l - 1:
            raise ValueError(f"need exactly {self.l - 1} coefficients")

    @classmethod
    def from_int(cls, l: int, n: int) -> "CyclotomicInt":
        _check_l(l)
        return cls(l, (n,) + (0,) * (l - 2))

    @classmethod
    def zeta(cls, l: int, power: int = 1) -> "CyclotomicInt":
        _check_l(l)
        return _from_exponent_dict(l, {power % l: 1})

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def _lift(self, other):
        if isinstance(other, CyclotomicInt):
            if other.l != self.l:
                raise ValueError("mixed cyclotomic orders")
            return other
        return NotImplemented

    def __add__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return CyclotomicInt(self.l, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return CyclotomicInt(self.l, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        l = self.l
        wrapped: dict[int, int] = {}
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b == 0:
                    continue
                k = (i + j) % l
                wrapped[k] = wrapped.get(k, 0) + a * b
        return _from_exponent_dict(l, wrapped)

    def conjugate(self, k: int) -> "CyclotomicInt":
        """The Galois image sending zeta to zeta**k (k coprime to l)."""
        if math.gcd(k, self.l) != 1:
            raise ValueError("conjugation exponent must be coprime to l")
        moved = {}
        for i, c in enumerate(self.coeffs):
            if c:
                e = i * k % self.l
                moved[e] = moved.get(e, 0) + c
        return _from_exponent_dict(self.l, moved)


def _from_exponent_dict(l: int, powers: dict[int, int]) -> CyclotomicInt:
    # zeta**(l-1) = -(1 + zeta + ... + zeta**(l-2)) collapses the top term
    top = powers.get(l - 1, 0)
    return CyclotomicInt(l, tuple(powers.get(i, 0) - top for i in range(l - 1)))


def cyclo_norm(alpha: CyclotomicInt) -> int:
    """Field norm down to Q: the product of all Galois conjugates."""
    prod = alpha
    for k in range(2, alpha.l):
        prod = prod * alpha.conjugate(k)
    if not prod.is_rational():
        raise AssertionError("conjugate product is not rational")
    return prod.coeffs[0]


def is_primary(alpha: CyclotomicInt) -> bool:
    """Congruent to a rational integer mod (1 - zeta)**2.

    Writing zeta = 1 - pi, zeta**i == 1 - i*pi mod pi**2, so alpha differs
    from a rational integer by (sum i*c_i) * pi mod pi**2; a rational integer
    is divisible by pi exactly when l divides it.
    """
    return sum(i * c for i, c in enumerate(alpha.coeffs)) % alpha.l == 0


@dataclass(frozen=True)
class PrimeIdeal:
    """A prime of Z[zeta_l] above p != l: (p, g(zeta)) with g | Phi_l mod p."""

    l: int
    p: int
    f: int
    g: tuple[int, ...]

    @property
    def norm(self) -> int:
        return self.p**self.f

    @cached_property
    def _symbol_table(self) -> tuple[int, dict]:
        """(e, logs) for ``residue_symbol``: the exponent e = (p**f - 1)/l,
        and the residue of zeta**i mapped to i, for i in [0, l), as an int
        mod p at f = 1, where zeta maps to the root of g, and above as the
        tuple of the f coefficients of X**i mod g.  Cached on the instance,
        outside the compared and hashed fields."""
        p, g, l = self.p, self.g, self.l
        logs = {}
        if self.f == 1:
            root = (-g[0]) % p
            w = 1
            for i in range(l):
                logs.setdefault(w, i)
                w = w * root % p
        else:
            x = (0, 1) + (0,) * (len(g) - 3)
            w = (1,) + (0,) * (len(g) - 2)
            for i in range(l):
                logs.setdefault(w, i)
                w = _mulmod(w, x, g, p)
        return (self.norm - 1) // l, logs

    def __str__(self) -> str:
        return f"({self.p}, {poly_str(self.g)})"


def poly_str(g: tuple[int, ...]) -> str:
    terms = []
    for i in range(len(g) - 1, -1, -1):
        c = g[i]
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        elif i == 1:
            terms.append("X" if c == 1 else f"{c}*X")
        else:
            terms.append(f"X^{i}" if c == 1 else f"{c}*X^{i}")
    return "+".join(terms) if terms else "0"


def cyclotomic_modulus(l: int, p: int) -> tuple[int, ...]:
    """Phi_l reduced mod p: 1 + X + ... + X**(l-1)."""
    return poly_mod((1,) * l, p)


def _canonical_key(g: tuple[int, ...], p: int) -> tuple[int, ...]:
    # orders linear factors X - w by ascending root w and is deterministic
    # for higher degrees
    return tuple((-c) % p for c in g)


def _min_poly_over_base(roots: list[FiniteFieldElement], p: int) -> tuple[int, ...]:
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


def _random_irreducible(p: int, f: int, rng: random.Random) -> tuple[int, ...]:
    while True:
        cand = tuple(rng.randrange(p) for _ in range(f)) + (1,)
        if poly_is_irreducible(cand, p):
            return cand


def _frobenius_orbits(p: int, l: int) -> list[list[int]]:
    """The cosets of <p> in (Z/l)*, each sorted, in order of least element.

    Frobenius sends zeta**j to zeta**(j*p), so each coset is the exponent set
    of the roots zeta**j of one irreducible factor of Phi_l mod p.
    """
    subgroup = [1]
    cur = p % l
    while cur != 1:
        subgroup.append(cur)
        cur = cur * p % l
    seen: set[int] = set()
    orbits = []
    for j in range(1, l):
        if j not in seen:
            orbit = sorted(j * h % l for h in subgroup)
            seen.update(orbit)
            orbits.append(orbit)
    return orbits


def _split_by_field(p: int, l: int, f: int, rng: random.Random) -> list[tuple[int, ...]]:
    """The factors of Phi_l mod p as minimal polynomials of the powers of one
    element theta of exact order l in GF(p**f) = GF(p)[X]/(random irreducible)."""
    modulus = _random_irreducible(p, f, rng)
    e = (p**f - 1) // l
    one = ff_from_int(p, modulus, 1)
    while True:
        z = ff_from_poly(p, modulus, tuple(rng.randrange(p) for _ in range(f)))
        if z.is_zero():
            continue
        theta = z**e
        if theta != one:
            break
    theta_pow = [one]
    for _ in range(1, l):
        theta_pow.append(theta_pow[-1] * theta)
    return [_min_poly_over_base([theta_pow[j] for j in orbit], p)
            for orbit in _frobenius_orbits(p, l)]


def _krylov_min_poly(rows: list[list[int]], p: int) -> tuple[int, ...]:
    """Monic minimal polynomial over GF(p) of the linear map v -> v * rows,
    applied to the start vector -1 = (p-1, ..., p-1), ascending coefficients.

    The k + 1 images w_0, ..., w_k are the columns of a k x (k+1) matrix.
    Once w_d depends on w_0, ..., w_(d-1), so does every later image, so
    the pivots are exactly the columns before d and the reduced form holds
    w_d = sum of r[i][d] * w_i.
    """
    k = len(rows)
    images = [[p - 1] * k]
    for _ in range(k):
        out = [0] * k
        for wb, row in zip(images[-1], rows):
            if wb:
                for d, t in enumerate(row):
                    out[d] += wb * t
        images.append([x % p for x in out])
    r, pivots = _rref_mod(list(zip(*images)), p)
    d = len(pivots)
    return tuple((-row[d]) % p for row in r[:d]) + (1,)


def _linear_roots(m: tuple[int, ...], p: int, rng: random.Random) -> list[int]:
    """The roots in GF(p) of a monic m that is a product of distinct linear
    factors: by trial for small p, else by Cantor-Zassenhaus, splitting m
    with gcd(m, (T + delta)**((p-1)/2) - c) for c in -1, 0, 1."""
    d = len(m) - 1
    if d == 1:
        return [(-m[0]) % p]
    if p < 64:
        return [r for r in range(p) if sum(c * pow(r, i, p) for i, c in enumerate(m)) % p == 0]
    half = (p - 1) // 2
    while True:
        delta = rng.randrange(p)
        h = _powmod((delta, 1) + (0,) * (d - 2), half, m, p)
        parts = [g for g in (poly_gcd(poly_sub(h, (c,), p), m, p) for c in (1, 0, p - 1))
                 if len(g) > 1]
        if len(parts) > 1:
            return [r for g in parts for r in _linear_roots(g, p, rng)]


def _split_by_periods(p: int, l: int, f: int, phi: tuple[int, ...],
                      rng: random.Random) -> list[tuple[int, ...]]:
    """The factors of phi = Phi_l mod p by Gaussian periods, with GF(p)
    arithmetic.

    The periods P_c = sum of X**j over the k cosets c of <p> are fixed by
    Frobenius, so they span the subalgebra of GF(p)[X]/(Phi_l) isomorphic to
    GF(p)**k: each y = sum a_c P_c takes one value y_i in GF(p) modulo each
    factor g_i.  Its minimal polynomial, found by Krylov elimination in the
    period basis, is the product of T - r over those values, and the gcd
    of a piece of Phi_l with y - r is the product of its g_i with y_i = r.
    Random y refine the pieces until each has degree f.
    """
    orbits = _frobenius_orbits(p, l)
    k = len(orbits)
    where = [0] * l
    for c, orbit in enumerate(orbits):
        for j in orbit:
            where[j] = c
    pieces = [phi]
    factors: list[tuple[int, ...]] = []
    while pieces:
        y = [rng.randrange(p) for _ in range(k)]
        # y * P_b = sum over h in <p> of sigma_h(y * X**j0), j0 in b: each
        # X**m with m != 0 becomes P of m's coset, X**0 becomes f = -f * sum P_c
        rows = []
        for orbit in orbits:
            j0 = orbit[0]
            row = [0] * k
            for i in range(1, l):
                if i + j0 != l:
                    row[where[(i + j0) % l]] += y[where[i]]
            const = f * y[where[l - j0]]
            rows.append([(x - const) % p for x in row])
        roots = _linear_roots(_krylov_min_poly(rows, p), p, rng)
        # y as a polynomial of degree <= l - 2: X**(l-1) = -(1 + ... + X**(l-2))
        top = y[where[l - 1]]
        ypoly = [-top] + [y[where[j]] - top for j in range(1, l - 1)]
        refine = []
        for piece in pieces:
            # each factor of the piece has one of the roots as its value; the
            # factors left after all but the last root have the last one
            for r in roots[:-1]:
                if len(piece) == 1:
                    break
                ypoly[0] = -top - r
                g = poly_gcd(piece, ypoly, p)
                if len(g) > 1:
                    (factors if len(g) - 1 == f else refine).append(g)
                    piece = poly_divmod(piece, g, p)[0]
            if len(piece) > 1:
                (factors if len(piece) - 1 == f else refine).append(piece)
        pieces = refine
    return factors


def primes_above(p: int, l: int) -> list[PrimeIdeal]:
    """All (l-1)/f prime ideals of Z[zeta_l] above p, canonically sorted.

    The factors of Phi_l mod p all share degree f = ord(p mod l); there are
    k = (l-1)/f of them.  At f = 1 they are X - theta**j for theta of order
    l in GF(p); at k = 1 Phi_l itself.  Otherwise, when f >= k, Gaussian
    periods split Phi_l with GF(p) arithmetic alone (``_split_by_periods``);
    when k > f the factors are the minimal polynomials of the powers of one
    element of order l in GF(p**f) (``_split_by_field``).  The period path
    costs about k gcds with Phi_l, the field path a search for an
    irreducible of degree f and a power to an exponent of f*log2(p) bits.
    The f >= k rule is not the measured crossover: the period path already
    wins at l = 31, f = 5, k = 6 (1.7 against 3.5 ms per prime) and at
    l = 61, f = 6, k = 10 (5.6 against 6.8 ms), and loses from about
    k >= 2f (ROADMAP open item 3).  Each factor is checked to have degree f
    and their product to be Phi_l.  The random choices are seeded
    per (p, l), so repeated calls do the same work; the sorted output does
    not depend on them.
    """
    _check_l(l)
    if p == l:
        raise RamifiedPrimeError(f"p = l = {l} is ramified; its unique prime is out of scope")
    f = multiplicative_order(p, l)
    phi = cyclotomic_modulus(l, p)
    if f == l - 1:
        return [PrimeIdeal(l, p, f, phi)]

    rng = random.Random(p * 1_000_003 + l * 1_009)
    if f == 1:
        e = (p - 1) // l
        while True:
            theta = pow(rng.randrange(2, p), e, p)
            if theta > 1:
                break
        factors = []
        w = theta
        for _ in range(l - 1):
            factors.append(((-w) % p, 1))
            w = w * theta % p
    elif f * f >= l - 1:
        factors = _split_by_periods(p, l, f, phi, rng)
    else:
        factors = _split_by_field(p, l, f, rng)

    factors.sort(key=lambda g: _canonical_key(g, p))
    product: tuple[int, ...] = (1,)
    for g in factors:
        if len(g) - 1 != f:
            raise AssertionError("factor degree disagrees with the inertia degree")
        product = poly_mul(product, g, p)
    if product != phi:
        raise AssertionError("factor product does not reproduce the cyclotomic polynomial")
    return [PrimeIdeal(l, p, f, g) for g in factors]


def residue_symbol(alpha: "CyclotomicInt | int", ideal: PrimeIdeal) -> int:
    """Exponent i in [0, l) with alpha**((p**f - 1)/l) == zeta**i mod the ideal.

    Raises SymbolUndefinedError when alpha lies in the ideal.  A plain int
    prime to p has exponent 0 at every ideal of inertia degree f >= 2 without
    any field arithmetic: l divides p**f - 1 but not p - 1, so it divides
    1 + p + ... + p**(f-1) and (p**f - 1)/l is a multiple of p - 1, while
    a**(p - 1) == 1 mod p.  A CyclotomicInt takes the power in GF(p**f) even
    when it is rational, so the exact path stays reachable.
    """
    p, f = ideal.p, ideal.f
    if isinstance(alpha, int):
        c = alpha % p
        if c and f >= 2:
            return 0
    else:
        if alpha.l != ideal.l:
            raise ValueError("cyclotomic order mismatch")
        # zeta -> X mod (g, p); at f = 1 that evaluates at the root of g
        c = poly_divmod(alpha.coeffs, ideal.g, p)[1]
        if f == 1:
            c = c[0] if c else 0
    if not c:
        raise SymbolUndefinedError(f"argument lies in {ideal}; symbol undefined")
    e, logs = ideal._symbol_table
    if f == 1:
        y = pow(c, e, p)
    else:
        y = _powmod(c + (0,) * (f - len(c)), e, ideal.g, p)
    i = logs.get(y)
    if i is None:
        raise AssertionError("residue power is not a root of unity image")
    return i


def symbol_over_integer(alpha: CyclotomicInt, n: int) -> int:
    """Symbol exponent of alpha over the ideal (n): summed over primes above n.

    n must be coprime to both l and the norm of alpha.  Each prime q | n is
    unramified, so (q) contributes every ideal above q with the multiplicity
    of q in n.
    """
    l = alpha.l
    if n == 0:
        raise ValueError("modulus must be nonzero")
    if math.gcd(n, l) != 1:
        raise ValueError(f"modulus shares the prime {l} with l")
    norm = cyclo_norm(alpha)
    shared = math.gcd(abs(n), abs(norm))
    if shared != 1:
        q = factorize(shared).factors[0][0]
        raise ValueError(f"modulus and argument share the prime {q}")
    total = 0
    for q, e in factorize(abs(n)).factors:
        for ideal in primes_above(q, l):
            total += e * residue_symbol(alpha, ideal)
    return total % l


def eisenstein_check(alpha: CyclotomicInt, a: int) -> bool:
    """Compare the two reciprocal symbols for primary alpha and rational a.

    alpha must generate a prime ideal (its norm is p**f for the inertia
    degree f of p), and a must be coprime to l and to that norm.  Returns
    whether symbol(a at (alpha)) equals symbol(alpha over a).
    """
    l = alpha.l
    if not is_primary(alpha):
        raise ValueError("alpha is not primary")
    if math.gcd(a, l) != 1:
        raise ValueError("a must be coprime to l")
    norm = abs(cyclo_norm(alpha))
    if norm == 1:
        raise UnsupportedModulusError("alpha is a unit; it generates no prime ideal")
    fact = factorize(norm)
    if len(fact.factors) != 1:
        raise UnsupportedModulusError("norm of alpha is not a prime power")
    p, k = fact.factors[0]
    if p == l:
        raise UnsupportedModulusError("alpha lies above l; out of scope")
    if k != multiplicative_order(p, l):
        raise UnsupportedModulusError("norm exponent disagrees with the inertia degree")
    if math.gcd(a, norm) != 1:
        raise ValueError("a must be coprime to the norm of alpha")
    hits = [P for P in primes_above(p, l) if not poly_divmod(alpha.coeffs, P.g, p)[1]]
    if len(hits) != 1:
        raise AssertionError("alpha should lie in exactly one ideal above p")
    left = residue_symbol(a, hits[0])
    right = symbol_over_integer(alpha, a)
    return left == right
