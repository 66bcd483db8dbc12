"""Exact integer arithmetic and small finite fields.

Factorization (trial division plus Brent's cycle method), perfect l-th power
detection, multiplicative orders, row reduction over Z/p, dense polynomial
arithmetic over GF(p), and elements of GF(p)[X]/(g).  Everything here is
exact; a computation that cannot finish within its budget raises instead of
approximating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

from .kernels import sieve_primes

# Largest |n| that factorize accepts, and the cycle method's iteration budget;
# both read at each call.
FACTOR_BOUND = 1 << 96
FACTOR_BUDGET = 4_000_000

_TRIAL_LIMIT = 1_000_000

# Miller-Rabin with the first j primes as witnesses is a proof below psi_j,
# the least odd composite that is a strong pseudoprime to all of them (OEIS
# A014233; psi_12 and psi_13 are from Sorenson & Webster).  _MR_TIERS holds
# (psi_j, j) for each distinct bound; psi_8 = psi_7 and psi_11 = psi_10 =
# psi_9.  The same primes serve for trial division.  Inputs from psi_13 on
# fall back to sympy's BPSW test, imported lazily.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_TIERS = (
    (2_047, 1),
    (1_373_653, 2),
    (25_326_001, 3),
    (3_215_031_751, 4),
    (2_152_302_898_747, 5),
    (3_474_749_660_383, 6),
    (341_550_071_728_321, 7),
    (3_825_123_056_546_413_051, 9),
    (318_665_857_834_031_151_167_461, 12),
    (3_317_044_064_679_887_385_961_981, 13),
)


class FactorizationError(RuntimeError):
    """Raised when factorization cannot finish within its iteration budget."""


class RamifiedPrimeError(ValueError):
    """Raised for the one rational prime whose order mod l is undefined (p = l)."""


@dataclass(frozen=True)
class PrimeFactorization:
    """A nonzero integer as sign * product(p**e), primes strictly increasing."""

    sign: int
    factors: tuple[tuple[int, int], ...]

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


@cache
def _small_primes() -> tuple[int, ...]:
    return tuple(int(p) for p in sieve_primes(_TRIAL_LIMIT))


def _miller_rabin(n: int, bases: tuple[int, ...]) -> bool:
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime(n: int) -> bool:
    """Primality, proven below psi_13 ~ 3.3e24 and by BPSW (via sympy) above.

    Trial division by the primes up to 41 settles n < 43**2.  Larger n take
    Miller-Rabin with the first j primes as witnesses, for the least j whose
    bound psi_j (``_MR_TIERS``) exceeds n: at most 4 below 3.2e9, and all 13
    only from psi_12 ~ 3.2e23 on."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:
        return True
    for bound, j in _MR_TIERS:
        if n < bound:
            return _miller_rabin(n, _MR_WITNESSES[:j])
    from sympy import isprime  # deferred: only giant inputs pay the import

    return bool(isprime(n))


def _brent_factor(n: int, budget: list[int]) -> int:
    """One nontrivial factor of odd composite n, or raise on budget exhaustion."""
    for c in range(1, 64):
        y, r, q = 2, 1, 1
        g, x, ys = 1, 2, 2
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                step = min(128, r - k)
                for _ in range(step):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += step
            budget[0] -= 2 * r
            if budget[0] < 0:
                raise FactorizationError(
                    "factorization budget exhausted; lower the input bound"
                )
            r <<= 1
        if g == n:
            # backtrack one block to recover the factor the batch gcd skipped
            while True:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
                if g > 1:
                    break
        if g != n:
            return g
    raise FactorizationError("cycle method failed to split a composite input")


def _factor_into(n: int, out: dict[int, int], budget: list[int]) -> None:
    if n == 1:
        return
    if is_prime(n):
        out[n] = out.get(n, 0) + 1
        return
    d = _brent_factor(n, budget)
    _factor_into(d, out, budget)
    _factor_into(n // d, out, budget)


def factorize(n: int) -> PrimeFactorization:
    """Exact prime factorization of a nonzero integer.

    Raises ValueError for n == 0 or |n| > FACTOR_BOUND, and FactorizationError
    if the cycle method exceeds FACTOR_BUDGET iterations (never a wrong answer).
    """
    if n == 0:
        raise ValueError("cannot factorize 0")
    if abs(n) > FACTOR_BOUND:
        raise ValueError(f"|n| exceeds the configured factorization bound {FACTOR_BOUND}")
    sign = 1 if n > 0 else -1
    m = abs(n)
    powers: dict[int, int] = {}
    for p in _small_primes():
        if p * p > m:
            break
        while m % p == 0:
            powers[p] = powers.get(p, 0) + 1
            m //= p
    if m > 1:
        if m < _TRIAL_LIMIT * _TRIAL_LIMIT or is_prime(m):
            powers[m] = powers.get(m, 0) + 1
        else:
            _factor_into(m, powers, [FACTOR_BUDGET])
    return PrimeFactorization(sign, tuple(sorted(powers.items())))


def integer_nth_root(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 0, k >= 1, by integer Newton iteration."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k < 1:
        raise ValueError("k must be positive")
    if n == 0:
        return 0
    if k == 1 or n == 1:
        return n if k == 1 else 1
    x = 1 << -(-n.bit_length() // k)  # power of two >= true root
    while True:
        t = ((k - 1) * x + n // x ** (k - 1)) // k
        if t >= x:
            return x
        x = t


def exact_lth_root(n: int, l: int) -> int | None:
    """The integer c with c**l == n, or None.  c may be negative (l is odd)."""
    if n == 0:
        return 0
    m = abs(n)
    r = integer_nth_root(m, l)
    if r**l != m:
        return None
    return r if n > 0 else -r


@cache
def order_table(l: int) -> tuple[int, ...]:
    """``order_table(l)[r]`` is the multiplicative order of r mod the odd
    prime l, for 1 <= r < l (entry 0 is unused).  With g a primitive root,
    g**k has order (l-1) / gcd(k, l-1)."""
    n = l - 1
    qs = factorize(n).primes()
    g = next(g for g in range(2, l) if all(pow(g, n // q, l) != 1 for q in qs))
    table = [0] * l
    cur = 1
    for k in range(n):
        table[cur] = n // math.gcd(k, n)
        cur = cur * g % l
    return tuple(table)


def _check_l(l: int) -> None:
    if l == 2 or not is_prime(l):
        raise ValueError(f"l must be an odd prime, got {l}")


def multiplicative_order(p: int, l: int) -> int:
    """Smallest f >= 1 with p**f == 1 mod l; divides l - 1.

    Requires odd prime l and prime p != l; p == l raises RamifiedPrimeError.
    """
    _check_l(l)
    if p == l:
        raise RamifiedPrimeError(f"p = l = {l} is ramified; it has no inertia degree")
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    return order_table(l)[p % l]


# ---------------------------------------------------------------------------
# Row reduction over Z/p: matrices as lists of rows.


def _rref_mod(a: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over Z/p of the rows a; pivots take the first
    nonzero column with the smallest row index."""
    m = [[x % p for x in row] for row in a]
    pivots: list[int] = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        pivot_row = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = pow(m[r][c], -1, p)
        top = m[r] = [x * inv % p for x in m[r]]
        for i, row in enumerate(m):
            if i != r and row[c]:
                factor = row[c]
                m[i] = [(x - factor * y) % p for x, y in zip(row, top)]
        pivots.append(c)
    return m, pivots


def _nullspace_mod(r: list[list[int]], pivots: list[int], cols: int, p: int) -> list[list[int]]:
    """Basis of the right nullspace over Z/p of a matrix with ``cols`` columns
    whose reduced row echelon form and pivot columns ``_rref_mod`` gave as r
    and pivots: one vector per free column, ascending, each scaled so its
    first nonzero entry is 1."""
    pivot_set = set(pivots)
    basis = []
    for free in range(cols):
        if free in pivot_set:
            continue
        v = [0] * cols
        v[free] = 1
        for row, pc in zip(r, pivots):
            v[pc] = -row[free] % p
        inv = pow(next(x for x in v if x), -1, p)
        basis.append([x * inv % p for x in v])
    return basis


# ---------------------------------------------------------------------------
# Dense polynomials over GF(p): ascending coefficient tuples, no trailing zeros.


def poly_trim(coeffs) -> tuple[int, ...]:
    c = tuple(coeffs)
    n = len(c)
    while n and c[n - 1] == 0:
        n -= 1
    return c[:n]


def poly_mod(a, p: int) -> tuple[int, ...]:
    return poly_trim(c % p for c in a)


def poly_sub(a, b, p: int) -> tuple[int, ...]:
    n = max(len(a), len(b))
    return poly_trim(
        ((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p for i in range(n)
    )


def poly_mul(a, b, p: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return poly_trim(out)


def poly_divmod(a, b, p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(a // b, a mod b) over GF(p); b's leading coefficient must be a unit
    mod p.  Each step reads only its top term mod p; the remainder is
    reduced once at the end.  b is trimmed only when its top coefficient is
    0, and both results are trimmed in place before the one tuple each."""
    if not b or not b[-1]:
        b = poly_trim(b)
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
    inv = pow(b[-1], -1, p)
    db = len(b) - 1
    low = b[:-1]
    r = list(a)
    q = [0] * (len(r) - db)  # empty when a is shorter than b
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i] * inv % p
        if c:
            q[i - db] = c
            for j, bj in enumerate(low, i - db):
                r[j] -= c * bj
    while q and not q[-1]:
        q.pop()
    r = [c % p for c in r[:db]]
    while r and not r[-1]:
        r.pop()
    return tuple(q), tuple(r)


def poly_monic(a, p: int) -> tuple[int, ...]:
    a = poly_trim(a)
    if not a:
        return a
    inv = pow(a[-1], -1, p)
    return tuple(c * inv % p for c in a)


def poly_gcd(a, b, p: int) -> tuple[int, ...]:
    a, b = poly_mod(a, p), poly_mod(b, p)
    while b:
        a, b = b, poly_divmod(a, b, p)[1]
    return poly_monic(a, p)


def _mulmod(a, b, g, p: int) -> tuple[int, ...]:
    """a * b mod (g, p) for residues of the monic g of degree f: exactly f
    coefficients in [0, p), as a FiniteFieldElement holds them.  Products are
    summed unreduced; each coefficient is taken mod p once."""
    f = len(g) - 1
    out = [0] * (2 * f - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    for k in range(2 * f - 2, f - 1, -1):
        c = out[k] % p
        if c:
            for j in range(f):
                out[k - f + j] -= c * g[j]
    return tuple(c % p for c in out[:f])


def _powmod(a, e: int, g, p: int) -> tuple[int, ...]:
    """a**e mod (g, p) for a residue a of the monic g and e >= 0, by
    left-to-right square-and-multiply."""
    if e == 0:
        return (1,) + (0,) * (len(g) - 2)
    result = a
    for bit in bin(e)[3:]:
        result = _mulmod(result, result, g, p)
        if bit == "1":
            result = _mulmod(a, result, g, p)
    return result


def poly_is_irreducible(h, p: int) -> bool:
    """Distinct-degree test: h of degree d >= 1 is reducible iff it has an
    irreducible factor of some degree i <= d/2, i.e. iff
    gcd(X**(p**i) - X, h) != 1 for some 1 <= i <= d // 2, since X**(p**i) - X
    is the product of the monic irreducibles of degree dividing i.  Each step
    raises the last power to the p-th, so the test takes at most d // 2
    Frobenius powers and stops at the first factor found.  h need not be
    monic; it is scaled to be."""
    h = poly_monic(poly_mod(h, p), p)
    d = len(h) - 1
    if d < 1:
        return False
    x = (0, 1) + (0,) * (d - 2)
    xp = x
    for _ in range(d // 2):
        xp = _powmod(xp, p, h, p)
        if len(poly_gcd(poly_sub(xp, x, p), h, p)) > 1:
            return False
    return True


@dataclass(frozen=True)
class FiniteFieldElement:
    """An element of GF(p)[X]/(modulus), coefficients padded to degree f."""

    p: int
    modulus: tuple[int, ...]
    coeffs: tuple[int, ...]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def _lift(self, other):
        if isinstance(other, FiniteFieldElement):
            if other.p != self.p or other.modulus != self.modulus:
                raise ValueError("mixed finite fields")
            return other
        return NotImplemented

    def __add__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return FiniteFieldElement(
            self.p,
            self.modulus,
            tuple((a + b) % self.p for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __sub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return FiniteFieldElement(
            self.p,
            self.modulus,
            tuple((a - b) % self.p for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __mul__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return FiniteFieldElement(
            self.p, self.modulus, _mulmod(self.coeffs, other.coeffs, self.modulus, self.p)
        )

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "FiniteFieldElement":
        if e < 0:
            raise ValueError("negative exponents not supported")
        return FiniteFieldElement(
            self.p, self.modulus, _powmod(self.coeffs, e, self.modulus, self.p)
        )


def ff_from_poly(p: int, modulus: tuple[int, ...], coeffs) -> FiniteFieldElement:
    """coeffs mod (modulus, p); the modulus must be monic of degree >= 1 mod p."""
    modulus = tuple(modulus)
    if len(modulus) < 2 or modulus[-1] % p != 1:
        raise ValueError(f"the modulus must be monic of degree >= 1 mod {p}, got {modulus}")
    reduced = poly_divmod(coeffs, modulus, p)[1]
    return FiniteFieldElement(p, modulus, reduced + (0,) * (len(modulus) - 1 - len(reduced)))


def ff_from_int(p: int, modulus: tuple[int, ...], n: int) -> FiniteFieldElement:
    return ff_from_poly(p, modulus, (n,))
