"""Radical extension degrees, power residue symbols, and density experiments.

The library computes the degree of Q(a_1**(1/l), ..., a_m**(1/l)) over Q for
an odd prime l by two independent routes, evaluates l-th power residue
symbols at prime ideals of Z[zeta_l], and empirically verifies that primes
realizing a prescribed tuple of symbol values have density 1 / l**t.
"""

from .arith import (
    FactorizationError,
    FiniteFieldElement,
    PrimeFactorization,
    RamifiedPrimeError,
    exact_lth_root,
    factorize,
    is_prime,
    multiplicative_order,
)
from .cyclotomic import (
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
from .density import (
    CharSumReport,
    DensityReport,
    character_sum,
    density_experiment,
    enumerate_prime_ideals,
)
from .radical import (
    DegreeMismatchError,
    InputSet,
    KernelBasis,
    OracleScaleError,
    ReductionResult,
    brute_force_kernel,
    consistency_check,
    degree,
    normalize_inputs,
    rank_and_kernel,
    reduce_basis,
    translate_targets,
)

__version__ = "0.1.0"

__all__ = [
    "CharSumReport",
    "CyclotomicInt",
    "DegreeMismatchError",
    "DensityReport",
    "FactorizationError",
    "FiniteFieldElement",
    "InputSet",
    "KernelBasis",
    "OracleScaleError",
    "PrimeFactorization",
    "PrimeIdeal",
    "RamifiedPrimeError",
    "ReductionResult",
    "SymbolUndefinedError",
    "UnsupportedModulusError",
    "brute_force_kernel",
    "character_sum",
    "consistency_check",
    "cyclo_norm",
    "degree",
    "density_experiment",
    "eisenstein_check",
    "enumerate_prime_ideals",
    "exact_lth_root",
    "factorize",
    "is_prime",
    "is_primary",
    "multiplicative_order",
    "normalize_inputs",
    "primes_above",
    "rank_and_kernel",
    "reduce_basis",
    "residue_symbol",
    "symbol_over_integer",
    "translate_targets",
]
