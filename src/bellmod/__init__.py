"""Bell, derangement, Stirling and Touchard-polynomial arithmetic mod p,
plus verifiers for the congruence identities connecting them."""

from .modarith import (
    IndexTooLargeError,
    NotPrimeError,
    PrimeContext,
    binomial_mod,
    is_prime,
    make_context,
    primes_in_range,
)
from .sequences import (
    bell_mod,
    bell_row,
    bell_triangle_row,
    derangement_mod,
    derangement_row,
    derangement_series_mod,
    signed_series_row,
    stirling2_mod,
    touchard_coeff_matrix,
    touchard_poly,
    touchard_polys_by_recursion,
    touchard_polys_from_matrix,
    touchard_value_table,
)
from .congruences import (
    BadModulusError,
    BadPointError,
    Identity,
    ReportBlock,
    VerificationReport,
    report_sort_key,
)

__version__ = "0.1.0"

__all__ = [
    "IndexTooLargeError",
    "NotPrimeError",
    "PrimeContext",
    "binomial_mod",
    "is_prime",
    "make_context",
    "primes_in_range",
    "bell_mod",
    "bell_row",
    "bell_triangle_row",
    "derangement_mod",
    "derangement_row",
    "derangement_series_mod",
    "signed_series_row",
    "stirling2_mod",
    "touchard_coeff_matrix",
    "touchard_poly",
    "touchard_polys_by_recursion",
    "touchard_polys_from_matrix",
    "touchard_value_table",
    "BadModulusError",
    "BadPointError",
    "Identity",
    "ReportBlock",
    "VerificationReport",
    "report_sort_key",
    "__version__",
]
