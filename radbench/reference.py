"""Independent number theory used to check radsym's replies.

Nothing here imports radsym.  Each function recomputes a fact by a route
other than the one radsym takes, so a check that compares the two catches a
wrong answer rather than restating it:

* ranks and consistency come from Gaussian elimination over Z/l on exponent
  vectors found by plain trial division;
* symbols at a split prime p come from rational powers a**((p-1)/l) mod p,
  never from ideals or finite-field arithmetic;
* at a prime of inertia degree f >= 2 every rational symbol is 0, because
  (p**f - 1)/l is then a multiple of p - 1.

Inputs stay small (radicands below 1000, bounds of 1e5), so plain Python is
fast enough.
"""

from __future__ import annotations

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_upto(n: int) -> list[int]:
    """Primes <= n by a bytearray sieve."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, int(n**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return [p for p in range(n + 1) if sieve[p]]


def factor(n: int) -> dict[int, int]:
    """Prime factorization of 1 <= n by trial division (small n only)."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def order_mod(p: int, l: int) -> int:
    """Smallest f >= 1 with p**f == 1 mod l."""
    f, cur = 1, p % l
    while cur != 1:
        cur = cur * p % l
        f += 1
    return f


def is_lth_power(a: int, l: int) -> bool:
    return all(e % l == 0 for e in factor(abs(a)).values())


def exponent_rows(radicands, l: int) -> list[list[int]]:
    """Exponent vectors mod l of |a| over the primes dividing any radicand."""
    facts = [factor(abs(a)) for a in radicands]
    primes = sorted({q for f in facts for q in f})
    return [[f.get(q, 0) % l for q in primes] for f in facts]


def rank_mod(rows: list[list[int]], l: int) -> int:
    """Rank over Z/l by row reduction."""
    m = [list(r) for r in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(m)) if m[i][c] % l), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][c], -1, l)
        m[rank] = [x * inv % l for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c] % l:
                k = m[i][c]
                m[i] = [(x - k * y) % l for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def radical_rank(radicands, l: int) -> int:
    """log_l of the degree of Q(a_i**(1/l)): the rank of the exponent matrix."""
    return rank_mod(exponent_rows(radicands, l), l)


def targets_consistent(radicands, targets, l: int) -> bool:
    """Targets are realizable iff appending them as a column keeps the rank:
    every relation among the radicands must then also kill the targets."""
    rows = exponent_rows(radicands, l)
    augmented = [row + [t % l] for row, t in zip(rows, targets)]
    return rank_mod(augmented, l) == rank_mod(rows, l)


def _unity_generator(p: int, l: int) -> int:
    e = (p - 1) // l
    z = 2
    while True:
        w = pow(z, e, p)
        if w != 1:
            return w
        z += 1


def split_symbol_ok(a: int, p: int, l: int, w: int, e: int) -> bool:
    """Whether e is the symbol of a at the ideal (p, X - w): a**((p-1)/l)
    must equal w**e mod p, and w must be a nontrivial l-th root of unity."""
    return (
        pow(w, l, p) == 1
        and w % p != 1
        and 0 <= e < l
        and pow(a, (p - 1) // l, p) == pow(w, e, p)
    )


def _scan_primes(l: int, bound: int, exclude: set[int]):
    """(p, f) for every prime p outside exclude with p**f <= bound."""
    for p in primes_upto(bound):
        if p == l or p in exclude:
            continue
        f = order_mod(p, l)
        if p**f <= bound:
            yield p, f


def density_counts(l: int, radicands, targets, bound: int) -> tuple[int, int]:
    """(ideals, matches) over prime ideals of norm <= bound above primes not
    dividing l or any radicand; an ideal matches when every radicand's symbol
    equals its target.

    At a split p the ideals are (p, X - w) for the l-1 roots w = g**k of one
    generator g, so the symbols follow from rational powers alone.  Above a
    prime of degree f >= 2 every symbol is 0.
    """
    exclude = {q for a in radicands for q in factor(abs(a))}
    targets = [t % l for t in targets]
    ideals = matches = 0
    for p, f in _scan_primes(l, bound, exclude):
        if f >= 2:
            ideals += (l - 1) // f
            if not any(targets):
                matches += (l - 1) // f
            continue
        ideals += l - 1
        values = [pow(a, (p - 1) // l, p) for a in radicands]
        g = _unity_generator(p, l)
        w = 1
        for _ in range(l - 1):
            w = w * g % p
            if all(pow(w, t, p) == v for t, v in zip(targets, values)):
                matches += 1
    return ideals, matches


def charsum_tallies(n: int, l: int, bound: int, exclude: set[int] | None = None) -> list[int]:
    """Count of ideals at which n has symbol k, for k in 0..l-1.

    At a split p with n**((p-1)/l) == 1 all l-1 ideals give 0; otherwise the
    exponents at the l-1 ideals are a permutation of 1..l-1.  Ideals of degree
    f >= 2 all give 0.  By default the primes dividing n are excluded.
    """
    if exclude is None:
        exclude = set(factor(abs(n)))
    tallies = [0] * l
    for p, f in _scan_primes(l, bound, exclude):
        if f >= 2:
            tallies[0] += (l - 1) // f
        elif pow(n, (p - 1) // l, p) == 1:
            tallies[0] += l - 1
        else:
            for k in range(1, l):
                tallies[k] += 1
    return tallies
