"""Primover arithmetic: overpseudoprimes, cyclotomic cosets, and primover
divisors of a^n - 1."""

from primover.arith import (
    DETERMINISTIC_PRIMALITY_BOUND,
    Factorization,
    FactorizationCache,
    PrimalityResult,
    check_prime,
    euler_phi,
    factorize,
    is_prime,
    mult_order,
    order_tower,
    prime_count,
    prime_power_orders,
    primes_upto,
    use_config,
)
from primover.classification import (
    Classification,
    Evidence,
    ScanReport,
    Status,
    classify,
    is_strong_pseudoprime,
    is_superpseudoprime,
    overpseudoprime_by_coset_count,
    overpseudoprime_by_order_criterion,
    overpseudoprimes_upto,
    scan,
    strong_pseudoprime_ordinal,
)
from primover.config import Config, load_config
from primover.construct import (
    CofactorBoundReport,
    CofactorProduct,
    ConstructionVerdict,
    ExponentIdentity,
    cofactor_bound_report,
    cofactor_terms,
    exponent_identity,
    generalized_fermat,
    primitive_cofactor,
    primitive_cofactor_value,
    prime_power_cofactor,
    two_prime_cofactor,
    two_prime_power_cofactor,
    verify_generalized_fermat,
)
from primover.cosets import CosetDecomposition, coset_count, decompose
from primover.errors import (
    DomainError,
    EnumerationCeilingError,
    IncompleteFactorizationError,
    ResourceError,
    TooManyDivisorsError,
)

__version__ = "0.1.0"
