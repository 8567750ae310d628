"""Polynomial factorization over finite fields with an order-driven
distinct-degree engine.

Quick start::

    from ffq import field_new, parse_poly, factor

    ctx = field_new(2)
    f = parse_poly("x^6+x^4+x+1", ctx)
    for g, mult in factor(f).factors:
        print(g, mult)
"""

from . import errors
from .classical import distinct_degree_parts, splitting_degree
from .ddf import (
    DdfResult,
    ddf,
    extract_small_degrees,
    frobenius_power_sequence,
    order_with_fallback,
    recursion_audit,
)
from .factor import Factorization, edf, factor, is_irreducible, sff
from .fields import ExtensionField, FieldCtx, PrimeField, field_new, is_probable_prime
from .order import (
    OracleConfig,
    OrderEstimate,
    OrderOracle,
    PhaseParams,
    RunRecord,
    estimate_order,
    exact_order,
    measurement_distribution,
    rational_reconstruct,
    sample_measurement,
)
from .poly import (
    Endo,
    Poly,
    counters,
    frobenius,
    gcd,
    modcomp,
    mulmod,
    powmod,
    random_monic,
    random_poly,
    reset_counters,
    x_poly,
)
from .rng import make_rng, rand_below, trial_rng
from .textio import format_element, format_poly, parse_element, parse_poly

__version__ = "0.1.0"

__all__ = [
    "errors",
    "field_new",
    "FieldCtx",
    "PrimeField",
    "ExtensionField",
    "is_probable_prime",
    "Poly",
    "Endo",
    "x_poly",
    "gcd",
    "mulmod",
    "powmod",
    "modcomp",
    "frobenius",
    "random_poly",
    "random_monic",
    "counters",
    "reset_counters",
    "parse_poly",
    "format_poly",
    "parse_element",
    "format_element",
    "PhaseParams",
    "RunRecord",
    "OrderEstimate",
    "OracleConfig",
    "OrderOracle",
    "measurement_distribution",
    "sample_measurement",
    "rational_reconstruct",
    "exact_order",
    "estimate_order",
    "frobenius_power_sequence",
    "extract_small_degrees",
    "order_with_fallback",
    "ddf",
    "DdfResult",
    "recursion_audit",
    "Factorization",
    "sff",
    "edf",
    "factor",
    "is_irreducible",
    "distinct_degree_parts",
    "splitting_degree",
    "make_rng",
    "trial_rng",
    "rand_below",
]
