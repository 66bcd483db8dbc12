"""Acceptance suite: one test per release criterion, with pinned tolerances.

Run as `pytest tests/test_acceptance.py -v -s` to see one pass line per
criterion.  Tolerances and runtime budgets are asserted here, not in the
library.
"""

import functools
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from radsym.arith import exact_lth_root, ff_from_poly
from radsym.cyclotomic import (
    CyclotomicInt,
    SymbolUndefinedError,
    cyclo_norm,
    eisenstein_check,
    is_primary,
    primes_above,
    residue_symbol,
    symbol_over_integer,
)
from radsym.density import character_sum, density_experiment, enumerate_prime_ideals
from radsym.radical import (
    brute_force_kernel,
    consistency_check,
    normalize_inputs,
    rank_and_kernel,
    reduce_basis,
)


def _pass(n: int, message: str) -> None:
    print(f"criterion {n}: PASS - {message}")


# -- 1: degree triple equality ----------------------------------------------


def _random_input_set(rng: random.Random, l: int) -> list[int]:
    if rng.random() < 0.05:
        return []
    m = rng.randint(1, 4)
    values: list[int] = []
    for i in range(m):
        if values and rng.random() < 0.2:
            values.append(rng.choice(values))  # duplicate entry
            continue
        a = rng.randint(2, 10**4)
        roll = rng.random()
        if roll < 0.25:
            a = l * rng.randint(1, 10**4 // l)  # divisible by l
        elif roll < 0.35:
            c = rng.randint(1, 9)
            a = c**l if c**l <= 10**4 else c  # perfect power now and then
        elif roll < 0.40:
            a = 1
        if rng.random() < 0.5:
            a = -a
        values.append(a)
    return values


def test_criterion_1_degree_triple_equality():
    start = time.monotonic()
    checked = 0
    for l in (3, 5, 7):
        rng = random.Random(20260809 + l)
        for _ in range(200):
            values = _random_input_set(rng, l)
            s = normalize_inputs(l, values)
            t = reduce_basis(s).t
            rank = rank_and_kernel(s).rank
            relations = brute_force_kernel(s)
            m = len(s.normalized)
            assert l**t == l**rank == l**m // relations, (l, values)
            checked += 1
    elapsed = time.monotonic() - start
    assert checked == 600
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _pass(1, f"600 random sets agree across all three methods in {elapsed:.1f}s")


# -- 2: symbol laws on all ideals of norm <= 2000 ----------------------------


def _field_elements(p, g):
    coords = [()]
    for _ in range(len(g) - 1):
        coords = [c + (v,) for c in coords for v in range(p)]
    return [ff_from_poly(p, g, c) for c in coords]


def _random_alpha(rng, l):
    if rng.random() < 0.4:
        return CyclotomicInt.from_int(l, rng.randint(-50, 50) or 1)
    return CyclotomicInt(l, tuple(rng.randint(-6, 6) for _ in range(l - 1)))


def test_criterion_2_symbol_laws():
    pairs = powers = sweeps = 0
    for l in (3, 5):
        rng = random.Random(4000 + l)
        for ideal in enumerate_prime_ideals(l, 2000):
            # (a) multiplicativity: 50 random pairs
            done = 0
            while done < 50:
                a, b = _random_alpha(rng, l), _random_alpha(rng, l)
                try:
                    ea = residue_symbol(a, ideal)
                    eb = residue_symbol(b, ideal)
                    eab = residue_symbol(a * b, ideal)
                except SymbolUndefinedError:
                    continue
                assert eab == (ea + eb) % l, (ideal, a, b)
                done += 1
                pairs += 1
            # (b) trivial symbol iff the image has an l-th root: full sweep
            power_images = {(x**l).coeffs for x in _field_elements(ideal.p, ideal.g)}
            assert len(power_images) == 1 + (ideal.norm - 1) // l
            for _ in range(8):
                a = _random_alpha(rng, l)
                img = ff_from_poly(ideal.p, ideal.g, a.coeffs)
                if img.is_zero():
                    continue
                assert (residue_symbol(a, ideal) == 0) == (img.coeffs in power_images)
                sweeps += 1
            # (c) exact l-th powers have trivial symbol
            for _ in range(8):
                c = rng.randint(2, 500)
                if c % ideal.p == 0:
                    continue
                assert residue_symbol(CyclotomicInt.from_int(l, c**l), ideal) == 0
                powers += 1
    _pass(2, f"{pairs} multiplicativity pairs, {sweeps} root sweeps, {powers} powers")


# -- 3: hand-verified fixed points -------------------------------------------


def test_criterion_3_golden_values():
    seven = primes_above(7, 3)
    target = [I for I in seven if I.g == (5, 1)]  # X + 5 == X - 2 mod 7
    assert len(target) == 1
    assert residue_symbol(2, target[0]) == 2  # value zeta^2

    two = primes_above(2, 3)
    assert len(two) == 1
    assert residue_symbol(3, two[0]) == 0  # value 1

    alpha = CyclotomicInt(3, (1, 3))
    hits = [I for I in seven if ff_from_poly(7, I.g, alpha.coeffs).is_zero()]
    assert hits == target
    assert residue_symbol(2, hits[0]) == 2
    assert symbol_over_integer(alpha, 2) == 2
    assert eisenstein_check(alpha, 2)
    _pass(3, "all three fixed points match exactly")


# -- 4: reciprocity over generated cases --------------------------------------


def test_criterion_4_eisenstein_cases():
    cases = []
    for c0 in range(-15, 16):
        for c1 in range(-15, 16):
            if c1 % 3 != 0:
                continue
            alpha = CyclotomicInt(3, (c0, c1))
            norm = cyclo_norm(alpha)
            if norm > 500 or norm == 3 or norm < 2:
                continue
            if any(norm % d == 0 for d in range(2, int(norm**0.5) + 1)):
                continue
            assert is_primary(alpha)
            coprime = [a for a in range(2, 51) if math.gcd(a, 3 * norm) == 1]
            cases.append((alpha, coprime[len(cases) % len(coprime)]))
            if len(cases) == 25:
                break
        if len(cases) == 25:
            break
    assert len(cases) == 25
    for alpha, a in cases:
        assert eisenstein_check(alpha, a), (alpha.coeffs, a)
    _pass(4, "25 generated reciprocity cases all agree")


# -- 5: density convergence ----------------------------------------------------


def test_criterion_5_density_convergence():
    start = time.monotonic()
    s = normalize_inputs(3, [2, 5])
    rep = density_experiment(s, (0, 0), 2 * 10**6, threads=1)
    elapsed = time.monotonic() - start
    assert rep.consistent and rep.t == 2
    assert abs(rep.empirical - 1 / 9) <= 0.01, rep.empirical
    assert elapsed < 300.0, f"took {elapsed:.1f}s"

    s2 = normalize_inputs(3, [12, 18])
    consistent = [r for r in [(i, j) for i in range(3) for j in range(3)]
                  if consistency_check(s2, r, rank_and_kernel(s2))]
    assert sorted(consistent) == [(0, 0), (1, 2), (2, 1)]
    for r in consistent:
        rep2 = density_experiment(s2, r, 10**6)
        assert rep2.t == 1
        assert abs(rep2.empirical - 1 / 3) <= 0.02, (r, rep2.empirical)
    rep3 = density_experiment(s2, (1, 1), 10**6)
    assert not rep3.consistent and rep3.matches == 0
    _pass(5, f"1/9 within 0.01 at 2e6 ({elapsed:.1f}s); 1/3 within 0.02; zero on inconsistent")


# -- 6: character sum decay ----------------------------------------------------


def test_criterion_6_character_sum_decay():
    rep = character_sum(2, 3, 10**6)
    stat = rep.final
    assert sum(stat.tallies) == stat.ideals
    assert stat.normalized <= 0.02, stat.normalized
    _pass(6, f"normalized magnitude {stat.normalized:.5f} over {stat.ideals} ideals")


# -- 7: primary criterion vs membership oracle ---------------------------------


@functools.cache
def _pi_squared_test(l: int) -> tuple[CyclotomicInt, int]:
    """(cofactor, norm) with gamma = (1 - zeta)**2, norm = N(gamma) = l**2
    and cofactor = prod of the other conjugates of gamma: beta lies in
    (gamma) exactly when every coefficient of beta * cofactor is divisible
    by the norm."""
    pi = CyclotomicInt.from_int(l, 1) - CyclotomicInt.zeta(l)
    gamma = pi * pi
    cofactor = CyclotomicInt.from_int(l, 1)
    for k in range(2, l):
        cofactor = cofactor * gamma.conjugate(k)
    norm = cyclo_norm(gamma)
    assert norm == l * l
    return cofactor, norm


def _in_pi_squared(beta: CyclotomicInt) -> bool:
    cofactor, norm = _pi_squared_test(beta.l)
    prod = beta * cofactor
    return all(c % norm == 0 for c in prod.coeffs)


def test_criterion_7_primary_matches_oracle():
    checked = 0
    for l in (3, 5):
        coords = [()]
        for _ in range(l - 1):
            coords = [c + (v,) for c in coords for v in range(-5, 6)]
        for coeffs in coords:
            alpha = CyclotomicInt(l, coeffs)
            oracle = any(
                _in_pi_squared(alpha - CyclotomicInt.from_int(l, c)) for c in range(l)
            )
            assert is_primary(alpha) == oracle, (l, coeffs)
            checked += 1
    assert checked == 11**2 + 11**4
    _pass(7, f"criterion agrees with the ideal-membership oracle on {checked} elements")


# -- 8: byte-identical reports --------------------------------------------------


def _cli(*argv: str) -> subprocess.CompletedProcess:
    """Run the CLI in a child process that imports radsym from this checkout."""
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    return subprocess.run(
        [sys.executable, "-m", "radsym", *argv], capture_output=True, text=True, env=env
    )


def test_criterion_8_determinism():
    commands = [
        ["degree", "-l", "7", "--format", "json", "--seed", "3", "14", "21", "98"],
        ["density", "-l", "3", "-x", "30000", "--targets", "2,1", "--format", "json",
         "--seed", "5", "12", "18"],
        ["charsum", "-l", "5", "-x", "20000", "--format", "json", "--seed", "9", "6"],
        ["symbol", "-l", "5", "-p", "11", "--format", "json", "2", "3"],
    ]
    for argv in commands:
        first = _cli(*argv)
        second = _cli(*argv)
        assert first.returncode == second.returncode == 0, first.stderr
        assert first.stdout == second.stdout, argv

    base = ["density", "-l", "3", "-x", "30000", "--targets", "0,0",
            "--format", "json", "2", "5"]
    one = json.loads(_cli(*base, "--threads", "1").stdout)
    four = json.loads(_cli(*base, "--threads", "4").stdout)
    assert one["result"] == four["result"]
    assert one["checkpoints"] == four["checkpoints"]
    _pass(8, "byte-identical reports; results independent of --threads")
