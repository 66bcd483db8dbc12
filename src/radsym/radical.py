"""Degree of Q(a_1**(1/l), ..., a_m**(1/l)) over Q for an odd prime l.

Two independent routes are implemented and always cross-asserted: successive
elimination of shared primes in one pass over the rows of the exponent matrix
(producing radicands with pairwise-exclusive prime divisors), and the rank
over Z/l of that matrix by its own row reduction.  A third, slower oracle
counts the multiplicative relations from a certified basis: the relations
lie in the kernel over Z/l of the cores' l-th power residue symbols at a few
small primes, and that kernel is the group of relations once each vector of
its basis has an exact big-integer l-th root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import (
    PrimeFactorization,
    _check_l,
    _nullspace_mod,
    _rref_mod,
    exact_lth_root,
    factorize,
    is_prime,
)
from .cyclotomic import PrimeIdeal, residue_symbol


class DegreeMismatchError(RuntimeError):
    """The two degree methods disagreed: an internal bug, never user error."""


class OracleScaleError(ValueError):
    """The oracle's l**m relation space exceeds its scale guard."""


@dataclass(frozen=True)
class InputSet:
    """Raw radicands plus their positive l-th-power-free cores.

    ``index_map[i]`` is the position of raw entry i among the normalized
    cores, or None when the entry is an exact l-th power (core 1) and was
    dropped.  Duplicates are kept as distinct entries.  ``factorizations[i]``
    factors raw entry i, once for the exponent matrix and the density scan.
    ``primes`` are the primes dividing some core, ascending, and
    ``exponents[i][j]`` is the exponent of ``primes[j]`` in core i, in [0, l):
    the exponent matrix of the cores mod l.
    """

    l: int
    raw: tuple[int, ...]
    normalized: tuple[int, ...]
    index_map: tuple[int | None, ...]
    factorizations: tuple[PrimeFactorization, ...]
    primes: tuple[int, ...]
    exponents: tuple[tuple[int, ...], ...]


def normalize_inputs(l: int, radicands) -> InputSet:
    """A core's primes are those of nonzero exponent mod l in its radicand."""
    _check_l(l)
    raw = tuple(int(a) for a in radicands)
    rows: list[dict[int, int]] = []
    index_map: list[int | None] = []
    facts = []
    for a in raw:
        if a == 0:
            raise ValueError("radicands must be nonzero")
        facts.append(factorize(a))
        row = {p: e % l for p, e in facts[-1].factors if e % l}
        index_map.append(len(rows) if row else None)
        if row:
            rows.append(row)
    primes = sorted({p for row in rows for p in row})
    return InputSet(
        l, raw,
        tuple(math.prod(p**e for p, e in row.items()) for row in rows),
        tuple(index_map), tuple(facts), tuple(primes),
        tuple(tuple(row.get(p, 0) for p in primes) for row in rows),
    )


@dataclass(frozen=True)
class KernelBasis:
    """Left-kernel relations: each basis vector lam has prod a_i**lam_i an
    exact l-th power.  The span has l**(m - rank) elements."""

    l: int
    rank: int
    basis: tuple[tuple[int, ...], ...]


def rank_and_kernel(s: InputSet) -> KernelBasis:
    r, pivots = _rref_mod(list(zip(*s.exponents)), s.l)
    basis = _nullspace_mod(r, pivots, len(s.exponents), s.l)
    return KernelBasis(s.l, len(pivots), tuple(tuple(v) for v in basis))


@dataclass(frozen=True, eq=False)
class ReductionResult:
    """Output of the successive elimination: t radicands b_j, each owning an
    exclusive prime q_j that divides no other b_k, and the mod-l exponents
    expressing each b_j as a product of the raw inputs times an l-th power."""

    l: int
    t: int
    b: tuple[int, ...]
    exclusive_primes: tuple[int, ...]
    transform: np.ndarray


def reduce_basis(s: InputSet) -> ReductionResult:
    """Successive elimination on exponent vectors mod l, in one pass.

    Each row of the exponent matrix, extended by an identity tail that tracks
    it as a product of the cores, is first reduced against every kept row,
    clearing that row's pivot column.  If its prime part is then zero it is an
    exact l-th power and is dropped.  Otherwise its first nonzero column
    becomes its pivot, its prime q_j, and that column is cleared from the kept
    rows, so every kept row owns a prime no other kept row has.

    Reducing a new row against the kept rows lazily gives the same row as
    clearing each pivot column from all later rows as soon as it is picked:
    restricted to their pivot columns the kept rows form an invertible
    diagonal, so exactly one vector of the new row plus their span is zero
    there, and its tail and first nonzero column follow.  Working on exponent
    vectors keeps the intermediate numbers bounded; the integers b_j are
    rebuilt at the end.
    """
    l = s.l
    n = len(s.primes)
    m = len(s.normalized)
    kept: list[list[int]] = []
    pivots: list[int] = []
    for i, entries in enumerate(s.exponents):
        row = list(entries) + [int(k == i) for k in range(m)]
        for col, pivot_row in zip(pivots, kept):
            if row[col]:
                row = _clear(row, pivot_row, col, l)
        col = next((c for c in range(n) if row[c]), None)
        if col is None:
            continue
        kept = [_clear(old, row, col, l) if old[col] else old for old in kept]
        kept.append(row)
        pivots.append(col)

    transform = np.zeros((len(kept), len(s.raw)), dtype=np.int64)
    for i, pos in enumerate(s.index_map):
        if pos is not None:
            transform[:, i] = [row[n + pos] for row in kept]
    _assert_exclusive(kept, pivots)
    return ReductionResult(
        l,
        len(kept),
        tuple(math.prod(q**e for q, e in zip(s.primes, row[:n])) for row in kept),
        tuple(s.primes[col] for col in pivots),
        transform,
    )


def _clear(row: list[int], pivot_row: list[int], col: int, l: int) -> list[int]:
    """row plus the multiple of pivot_row that zeroes column col, mod l."""
    factor = -row[col] * pow(pivot_row[col], -1, l) % l
    return [(x + factor * y) % l for x, y in zip(row, pivot_row)]


def _assert_exclusive(vecs, cols) -> None:
    for j, col in enumerate(cols):
        for k, vec in enumerate(vecs):
            if (vec[col] != 0) != (k == j):
                raise AssertionError("pivot prime exclusivity violated")


def checked_degree(red: ReductionResult, kernel: KernelBasis) -> int:
    """l**t from the elimination, asserted equal to l**rank from the matrix;
    a mismatch raises DegreeMismatchError (an internal bug)."""
    if red.t != kernel.rank:
        raise DegreeMismatchError(
            f"elimination gives l**{red.t} but the matrix rank gives l**{kernel.rank}"
        )
    return red.l**red.t


def degree(s: InputSet) -> int:
    """Degree of the radical extension, by elimination and by matrix rank."""
    return checked_degree(reduce_basis(s), rank_and_kernel(s))


def _filter_primes(cores: tuple[int, ...], l: int, k: int) -> list[int]:
    """The first k primes q = 1 + 2l*i that divide no core."""
    out: list[int] = []
    q = 1
    while len(out) < k:
        q += 2 * l
        if is_prime(q) and all(a % q for a in cores):
            out.append(q)
    return out


def _symbol_exponents(cores: tuple[int, ...], l: int, q: int) -> list[int]:
    """Each core's l-th power residue symbol mod q as an exponent c in Z/l:
    a**((q-1)/l) == w**c mod q for the first w = x**((q-1)/l) != 1, read at
    the degree-1 ideal (q, zeta - w).  q must be 1 mod l and divide no core."""
    e = (q - 1) // l
    w = next(z for z in (pow(x, e, q) for x in range(2, q)) if z != 1)
    ideal = PrimeIdeal(l, q, 1, ((-w) % q, 1))
    return [residue_symbol(a, ideal) for a in cores]


# Largest l**m that brute_force_kernel accepts, read at each call.
ORACLE_LIMIT = 10**7


def brute_force_kernel(s: InputSet) -> int:
    """Certified count of the exponent tuples lam in [0, l)**m whose product
    prod a_i**lam_i of the cores is an exact l-th power.  Guards at
    l**m <= ORACLE_LIMIT.

    Independent of the factorizations: at k small primes q = 1 mod l dividing
    no core, an l-th power P has P**((q-1)/l) == 1 mod q, so every relation
    lies in the kernel over Z/l of the k x m matrix C of the cores' symbol
    exponents.  Once each vector of a basis of ker C has a big-integer
    product with an exact l-th root, ker C is the group of relations, since
    products of l-th powers are l-th powers, and the count is l**dim.
    Otherwise k doubles: by Chebotarev a product that is no l-th power has a
    nontrivial symbol at a positive density of q.  The cost does not grow
    with l**m.
    """
    l = s.l
    cores = s.normalized
    m = len(cores)
    if l**m > ORACLE_LIMIT:
        raise OracleScaleError(f"l**{m} exceeds the scale guard {ORACLE_LIMIT}")
    k = m
    while True:
        symbols = [_symbol_exponents(cores, l, q) for q in _filter_primes(cores, l, k)]
        r, pivots = _rref_mod(symbols, l)
        basis = _nullspace_mod(r, pivots, m, l)
        if all(
            exact_lth_root(math.prod(a**e for a, e in zip(cores, v)), l) is not None
            for v in basis
        ):
            return l ** len(basis)
        k *= 2


def consistency_check(s: InputSet, targets, kernel: KernelBasis) -> bool:
    """Whether the target exponents can be realized by any prime ideal:
    dropped entries need target 0 and every relation of ``kernel``, which is
    ``rank_and_kernel(s)``, must vanish."""
    targets = tuple(int(r) % s.l for r in targets)
    if len(targets) != len(s.raw):
        raise ValueError(
            f"need one target per radicand: got {len(targets)} for {len(s.raw)}"
        )
    reduced = []
    for r, pos in zip(targets, s.index_map):
        if pos is None:
            if r != 0:
                return False
        else:
            reduced.append(r)
    for relation in kernel.basis:
        if sum(c * r for c, r in zip(relation, reduced)) % s.l != 0:
            return False
    return True


def translate_targets(result: ReductionResult, targets) -> tuple[int, ...]:
    """Map per-radicand targets r to per-b targets s via s_j = sum E_ji r_i.

    The targets must pass ``consistency_check``: only then does an ideal give
    every raw radicand its target exactly where it gives every b_j its s_j.
    """
    targets = tuple(int(r) % result.l for r in targets)
    if len(targets) != result.transform.shape[1]:
        raise ValueError(
            f"need {result.transform.shape[1]} targets, got {len(targets)}"
        )
    r = np.array(targets, dtype=np.int64)
    return tuple(int(x) for x in (result.transform @ r) % result.l)
