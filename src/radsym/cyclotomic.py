"""Arithmetic in Z[zeta_l] and residue symbols at its prime ideals.

zeta_l is a primitive l-th root of unity for an odd prime l.  Elements are
held in the power basis 1, zeta, ..., zeta^(l-2).  Prime ideals above a
rational prime p != l are represented by the monic irreducible factors of the
l-th cyclotomic polynomial mod p.  The residue symbol reduces its argument
once mod (g, p), raises it to (p**f - 1)/l in the residue field GF(p)[X]/(g),
held as plain ints at f = 1 and as tuples of f coefficients above, and looks
the result up in the ideal's table of the powers of zeta.

Phi_l mod p has k = (l-1)/f factors of degree f = ord(p mod l).  Each is
built from the power sums of its roots, which lie in GF(p), by
Berlekamp-Massey.  Where f >= k, or where k**2 <= f**3 and a random
element of the span of the Gaussian periods is likely to take k distinct
values, the power sums come from those periods, with GF(p) arithmetic
alone: Frobenius maps X**j to X**(j*p), so the sums of X**j over the cosets
of <p> in (Z/l)* span the subalgebra of GF(p)[X]/(Phi_l) that is
isomorphic to GF(p)**k (Berlekamp's).  Random elements of it split its
identity into the k primitive idempotents, one per factor, and the trace
form reads each factor's power sums from its idempotent; at k = 2 the two
values of an element come from one square root.  Elsewhere the power sums
are traces of the powers of an element of order l in GF(p**f).

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
import operator
import random
from dataclasses import dataclass
from functools import cached_property

from .arith import (
    FiniteFieldElement,
    RamifiedPrimeError,
    _check_l,
    _mulmod,
    _powmod,
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


def _from_power_sums(sums: list[int], p: int) -> tuple[int, ...]:
    """The monic polynomial g of degree f over GF(p) with distinct nonzero
    roots whose power sums are s_m = sums[m], m = 0..2f-1, ascending
    coefficients.

    Each root r contributes the geometric term r**m of weight 1 to s_m, so g
    is the minimal polynomial of the sequence, which Berlekamp-Massey reads
    off its first 2f terms.  It divides by no m, so it holds at every p,
    p <= f included, where Newton's identities would divide by m = 0."""
    c, b = [1], [1]  # connection polynomials, ascending: c[0] = 1
    length, shift, last = 0, 1, 1
    for n, s in enumerate(sums):
        d = (s + sum(map(operator.mul, c[1:], reversed(sums[:n])))) % p
        if not d:
            shift += 1
            continue
        coef = d * pow(last, -1, p) % p
        old = c
        c = c + [0] * (len(b) + shift - len(c))
        for i, bi in enumerate(b, shift):
            c[i] = (c[i] - coef * bi) % p
        if 2 * length <= n:
            length, b, last, shift = n + 1 - length, old, d, 1
        else:
            shift += 1
    return tuple(reversed(c[:length + 1]))


def _element_of_order_l(p: int, l: int, f: int, rng: random.Random) -> FiniteFieldElement:
    """An element theta of exact order l in GF(p**f) = GF(p)[X]/(random
    irreducible of degree f): a random power to (p**f - 1)/l other than 1."""
    modulus = _random_irreducible(p, f, rng)
    e = (p**f - 1) // l
    one = ff_from_int(p, modulus, 1)
    while True:
        z = ff_from_poly(p, modulus, tuple(rng.randrange(p) for _ in range(f)))
        if z.is_zero():
            continue
        theta = z**e
        if theta != one:
            return theta


def _split_by_field(p: int, l: int, f: int, theta: FiniteFieldElement) -> list[tuple[int, ...]]:
    """The factors of Phi_l mod p from the powers of an element theta of
    exact order l in GF(p**f) = GF(p)[X]/(modulus).

    The factor whose roots are theta**j for j in a coset j0*<p> has power
    sums s_m = Tr(theta**(j0*m)), the trace down to GF(p).  The trace is
    linear, so the traces Tr(X**i) of the modulus (its own power sums, by
    Newton's identities) give it for each of the l powers of theta."""
    modulus = theta.modulus
    # Tr(X**i) for i < f: t_0 = f, and t_m + c_1 t_(m-1) + ... + m c_m = 0
    # for the coefficient c_i of X**(f-i) in the modulus
    top = modulus[::-1]
    traces = [f]
    for m in range(1, f):
        t = m * top[m] + sum(map(operator.mul, top[1:m], reversed(traces[1:])))
        traces.append(-t % p)
    power_traces = []
    w = ff_from_int(p, modulus, 1)
    for _ in range(l):
        power_traces.append(sum(map(operator.mul, w.coeffs, traces)) % p)
        w = w * theta
    return [_from_power_sums([power_traces[orbit[0] * m % l] for m in range(2 * f)], p)
            for orbit in _frobenius_orbits(p, l)]


def _sqrt_mod(a: int, p: int) -> int:
    """A square root of the nonzero square a mod the odd prime p, by
    Tonelli-Shanks: one power at p = 3 mod 4, else a loop over the 2-part of
    p - 1 with the least quadratic nonresidue."""
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def _linear_roots(m: tuple[int, ...], p: int, rng: random.Random) -> list[int]:
    """The roots in GF(p) of a monic m that is a product of distinct linear
    factors: a quadratic from one square root of its discriminant at odd p,
    else by trial for small p, else by Cantor-Zassenhaus, splitting m with
    gcd(m, (T + delta)**((p-1)/2) - c) for c in -1, 0, 1."""
    d = len(m) - 1
    if d == 1:
        return [(-m[0]) % p]
    if d == 2 and p > 2:
        c, b = m[0], m[1]
        s = _sqrt_mod((b * b - 4 * c) % p, p)
        half = (p + 1) // 2
        return [(-b - s) * half % p, (s - b) * half % p]
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


def _separates(p: int, k: int) -> bool:
    """Whether one random period element is likely to take k distinct
    values, one at each factor of Phi_l mod p, which ``primes_above``'s path
    rule reads.  The k values are uniform in GF(p)**k, so distinct with
    probability q = prod(1 - j/p) over j < k, which is 0 when p < k and
    about 0.6 or more when p >= k**2; likely means q >= 1/32.  Below that
    the period split mostly takes several rounds of draws, so the rule
    keeps it only where f >= k."""
    return math.prod(1 - j / p for j in range(k)) >= 1 / 32


def _split_by_periods(p: int, l: int, f: int, rng: random.Random) -> list[tuple[int, ...]]:
    """The factors of Phi_l mod p by Gaussian periods, with GF(p)
    arithmetic.

    The periods P_c = sum of X**j over the k cosets c of <p> are fixed by
    Frobenius, so they span the subalgebra B of A = GF(p)[X]/(Phi_l)
    isomorphic to GF(p)**k: each y = sum a_c P_c takes one value in GF(p)
    modulo each factor g_i, and B's primitive idempotents e_i, 1 modulo g_i
    and 0 modulo the others, pick the factors out (Berlekamp).  Starting
    from the single block 1 = -sum P_c, each round draws a random y and
    splits every block e by y's values on it: the images e, e*y, e*y**2, ...
    in the period basis first depend on each other at the minimal
    polynomial m of y on e*B, the product of T - r over those values, and
    q(y)*e / q(r) with q = m / (T - r) is the idempotent of e's factors
    where y = r.  Rounds go on until there are k blocks, one per factor.

    The trace of A, a sum over the l - 1 roots zeta**j of Phi_l, reads
    each factor's power sums from its idempotent a = sum a_c P_c: s_m =
    Tr(a * X**m), and Tr(X**n) = -1 unless l divides n, where it is l - 1.
    Of the f terms X**(j+m) of P_c * X**m, only j = -m mod l can have
    trace l - 1, so s_m = l * a_(c(-m)) - f * sum a_c for the coset c(-m)
    of -m; this holds at every m in 1..2f-1, none a multiple of l since
    2f - 1 < l, and s_0 = f.  ``_from_power_sums`` builds g_i from them.
    """
    orbits = _frobenius_orbits(p, l)
    k = len(orbits)
    where = [0] * l
    for c, orbit in enumerate(orbits):
        for j in orbit:
            where[j] = c
    blocks = [[p - 1] * k]  # the identity, -sum P_c
    while len(blocks) < k:
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
        columns = list(zip(*rows))
        split = []
        for e in blocks:
            # each image e*y**t is reduced against the earlier ones, scaled
            # to 1 at their pivots, along with its combination of the images
            images, reduced = [e], []
            while True:
                t = len(images) - 1
                v, comb = list(images[-1]), [0] * t + [1]
                for pivot, u, cu in reduced:
                    c = v[pivot]
                    if c:
                        v = [(a - c * b) % p for a, b in zip(v, u)]
                        for i, b in enumerate(cu):
                            comb[i] = (comb[i] - c * b) % p
                pivot = next((i for i, a in enumerate(v) if a), None)
                if pivot is None:
                    break
                inv = pow(v[pivot], -1, p)
                reduced.append((pivot, [a * inv % p for a in v], [a * inv % p for a in comb]))
                w = images[-1]
                images.append([sum(map(operator.mul, w, col)) % p for col in columns])
            if t == 1:
                split.append(e)
                continue
            # comb is m, monic of degree t; its quotient q by T - r, by
            # Horner's rule, weighs the images e*y**i, i < t
            for r in _linear_roots(tuple(comb), p, rng):
                q, acc = [0] * t, 0
                for i in range(t, 0, -1):
                    acc = (acc * r + comb[i]) % p
                    q[i - 1] = acc
                scale = pow(sum(c * pow(r, i, p) for i, c in enumerate(q)), -1, p)
                split.append([sum(map(operator.mul, q, col)) * scale % p
                              for col in zip(*images[:t])])
        blocks = split
    factors = []
    for a in blocks:
        total = f * sum(a)
        sums = [f] + [(l * a[where[l - m]] - total) % p for m in range(1, 2 * f)]
        factors.append(_from_power_sums(sums, p))
    return factors


def primes_above(p: int, l: int) -> list[PrimeIdeal]:
    """All (l-1)/f prime ideals of Z[zeta_l] above p, canonically sorted.

    The factors of Phi_l mod p all share degree f = ord(p mod l); there are
    k = (l-1)/f of them.  At f = 1 they are X - theta**j for theta of order
    l in GF(p); at k = 1 Phi_l itself.  Otherwise each factor is built from
    the power sums of its roots (``_from_power_sums``), read from Gaussian
    periods (``_split_by_periods``, with GF(p) arithmetic alone) or from
    the traces of the l powers of an element of order l in GF(p**f)
    (``_split_by_field``).  The period path's work grows as k**3 per round
    of draws (the images of each idempotent under a k x k matrix, their
    elimination and the roots of a polynomial of degree up to k), the field
    path's as k*f**3 (l products in GF(p**f)).  One round does where a
    random period element takes k distinct values, which ``_separates``
    finds likely always when p >= k**2 and never when p < k; there the
    periods are taken when k**2 <= f**3, and the split study of
    BENCH_density.json times both methods on either side of that rule.
    Elsewhere the periods are taken only where f >= k, in several rounds.
    Each factor is checked to have degree f and their product to be Phi_l:
    at f = 1 by its roots, l-1 distinct w != 1 with w**l == 1 of monic
    linear factors, which Phi_l has and no other polynomial of its degree;
    at f >= 2 by multiplying them out.  At l = 1021 and p near 10**6 an
    f = 1 call takes about 2.5 ms on 2 vCPUs, where the product took
    0.17-0.29 s; every other f takes under 0.3 s, 0.07-0.1 s of it in the
    product, and at l near 1000 and p < 200, where f >= k but one draw
    rarely separates, 0.03-0.12 s, most of it in the product too.
    The random choices are seeded per (p, l), so repeated calls do the same
    work; the sorted output does not depend on them.
    """
    _check_l(l)
    if p == l:
        raise RamifiedPrimeError(f"p = l = {l} is ramified; its unique prime is out of scope")
    f = multiplicative_order(p, l)
    k = (l - 1) // f
    phi = cyclotomic_modulus(l, p)
    if f == l - 1:
        return [PrimeIdeal(l, p, f, phi)]

    rng = random.Random(p * 1_000_003 + l * 1_009)
    if f == 1:
        factors = _linear_factors(p, l, rng)
    elif f >= k or _separates(p, k) and k * k <= f**3:
        factors = _split_by_periods(p, l, f, rng)
    else:
        factors = _split_by_field(p, l, f, _element_of_order_l(p, l, f, rng))

    factors.sort(key=lambda g: _canonical_key(g, p))
    if any(len(g) - 1 != f for g in factors):
        raise AssertionError("factor degree disagrees with the inertia degree")
    if f == 1:
        # Phi_l is monic of degree l-1 and its roots are the w != 1 with
        # w**l == 1, so l-1 distinct such roots of monic X - w give it whole
        roots = {(-g[0]) % p for g in factors if g[1] == 1}
        whole = len(factors) == len(roots) == l - 1 and all(
            w != 1 and pow(w, l, p) == 1 for w in roots
        )
    else:
        product: tuple[int, ...] = (1,)
        for g in factors:
            product = poly_mul(product, g, p)
        whole = product == phi
    if not whole:
        raise AssertionError("factor product does not reproduce the cyclotomic polynomial")
    return [PrimeIdeal(l, p, f, g) for g in factors]


def _linear_factors(p: int, l: int, rng: random.Random) -> list[tuple[int, ...]]:
    """The factors X - theta**j, j = 1 .. l-1, of Phi_l mod p at f = 1, for
    a random theta of order l in GF(p)."""
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
    return factors


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
