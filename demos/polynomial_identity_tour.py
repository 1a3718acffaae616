"""
A polynomial identity with its proof machinery on display
=========================================================

Weight the Touchard polynomials T_1..T_{p-1} by powers of -1/m and the sum
collapses to a closed form: (-x)^m times the sum is congruent mod p to
-x^p times a short factorial polynomial in -x.  Both sides live here as
rows of coefficients over the prime field, one row per weight, so equality
is exact and visible.
"""

import numpy as np

from bellmod import make_context
from bellmod.congruences import (
    geometric_sum_lemma_check,
    proof_intermediate,
    theorem2_lhs,
    theorem2_rhs,
    unit_power_table,
    verify_special_cases,
    weighted_touchard_sum,
)
from bellmod.sequences import touchard_coeff_matrix, touchard_value_table

P = 7
ctx = make_context(P)
matrix = touchard_coeff_matrix(ctx)  # M[n, k] = S(n, k) mod P


def coeffs(row):
    """A row of coefficients as a list, without its trailing zeros."""
    return np.trim_zeros(row, "b").tolist()


print(f"both sides as coefficient lists mod {P} (ascending degree):")
ms = list(range(1, 7))
lhs_rows = theorem2_lhs(ctx, ms, weighted_touchard_sum(ctx, ms, matrix))
for m, lhs, rhs in zip(ms, map(coeffs, lhs_rows), map(coeffs, theorem2_rhs(ctx, ms))):
    tag = "equal" if lhs == rhs else "DIFFER"
    print(f"  m = {m}: lhs {lhs}")
    print(f"         rhs {rhs}  -> {tag}")

# the collapse pivots on r, the least positive residue of -m: only the
# terms x^r..x^{p-1} survive in the intermediate closed form
print()
m = 3
[mid] = proof_intermediate(ctx, [m])
[direct] = weighted_touchard_sum(ctx, [m], matrix)
print(f"intermediate closed form at m = {m}: {coeffs(mid)}")
print(f"direct weighted sum:                {coeffs(direct)}")

# underneath sits a geometric sum that vanishes except at one index
print()
print(f"geometric sums at m = {m}: nonzero only where p divides m + j")
[geometric] = geometric_sum_lemma_check(ctx, [m], unit_power_table(ctx))  # one block of reports, one per j
for rep in geometric:
    if rep.lhs != 0:
        print(f"  j = {rep.params['j']}: sum = {rep.lhs}")

# low weights have hand-sized displays; m = 4 evaluates to
# (-6 + 6x - 3x^2 + x^3) / x^3, checked here at every x
print()
print("low-weight rational forms at every point of the field:")
[reports] = verify_special_cases(ctx, range(1, P), touchard_value_table(ctx, matrix))
for x in range(1, P):
    marks = [
        f"m={r.params['m']}:{'ok' if r.passed else 'BAD'}"
        for r in reports
        if r.params["x"] == x
    ]
    print(f"  x = {x}: " + "  ".join(marks))
