"""Beurling generalized prime number systems.

Construct generalized prime sequences, enumerate their integers, build N/psi
counting tables, evaluate the associated zeta-side transforms exactly
piecewise, and collect numerical evidence for the Chebyshev-estimate
hypotheses (the L1 condition, the tail-sup condition, and the little-o trend).
"""

from .counting import CountingTable, build_table, build_table_from_system
from .errors import CapacityError, DomainError, InvalidSystemError
from .hypothesis import (
    ChebyshevReport,
    IntegralReport,
    TrendReport,
    chebyshev_verdict,
    l1_condition,
    little_o_trend,
    tail_sup,
    zhang_condition,
)
from .semigroup import EnumerationResult, GenInteger, enumerate_integers, jump_arrays
from .systems import PrimeSequence, PrimeSystemSpec, materialize, rational_primes_below
from .zeta import (
    BoundaryScan,
    IdentityReport,
    ZetaResult,
    boundary_scan,
    fourier_E1_boundary,
    g_eval,
    identity_check,
    laplace_psi,
    neg_logderiv,
    zeta_dirichlet,
    zeta_euler,
    zeta_stieltjes,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryScan",
    "CapacityError",
    "ChebyshevReport",
    "CountingTable",
    "DomainError",
    "EnumerationResult",
    "GenInteger",
    "IdentityReport",
    "IntegralReport",
    "InvalidSystemError",
    "PrimeSequence",
    "PrimeSystemSpec",
    "TrendReport",
    "ZetaResult",
    "boundary_scan",
    "build_table",
    "build_table_from_system",
    "chebyshev_verdict",
    "enumerate_integers",
    "fourier_E1_boundary",
    "g_eval",
    "identity_check",
    "jump_arrays",
    "l1_condition",
    "laplace_psi",
    "little_o_trend",
    "materialize",
    "neg_logderiv",
    "rational_primes_below",
    "tail_sup",
    "zeta_dirichlet",
    "zeta_euler",
    "zeta_stieltjes",
    "zhang_condition",
]
