"""Bell, derangement, Stirling-set and Touchard-polynomial values mod p.

Every family here has at least two independent computation routes (for
example the binomial recurrence and the additive triangle for Bell
numbers), so the verification layer can cross-check one against the other
instead of trusting a single code path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .modarith import (
    DensePoly,
    IndexTooLargeError,
    PrimeContext,
    Residue,
    binomial_mod,
    powers_mod,
)

__all__ = [
    "BellRow",
    "DerangementRow",
    "bell_row",
    "bell_triangle_row",
    "bell_mod",
    "derangement_row",
    "derangement_series_mod",
    "derangement_mod",
    "signed_series_row",
    "stirling2_mod",
    "touchard_poly",
    "touchard_polys_by_recursion",
    "touchard_coeff_matrix",
    "touchard_polys_from_matrix",
    "touchard_value_table",
]

# int64 products of two residues stay below p**2, so a chunk of
# _DOT_LIMIT // p**2 of them sums below 2**62, and adding the running
# residue to it cannot reach 2**63.
_DOT_LIMIT = 2**62


def _mod_matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact a @ b for residue entries, reduced mod p.

    As with np.matmul, a 1-D operand is a vector, so this is also the dot
    product and the vector-matrix product.
    """
    inner = a.shape[-1]
    chunk = max(1, _DOT_LIMIT // (p * p))
    if inner <= chunk:
        return (a @ b) % p
    acc = 0
    for i in range(0, inner, chunk):
        acc = (acc + a[..., i : i + chunk] @ b[i : i + chunk]) % p
    return acc


@dataclass(frozen=True)
class BellRow:
    """Bell numbers B_0 .. B_{p-1} reduced mod p, as a read-only array."""

    ctx: PrimeContext
    values: np.ndarray

    def __post_init__(self):
        p = self.ctx.p
        assert self.values.shape == (p,)
        assert int(self.values[0]) == 1 % p and int(self.values[1]) == 1 % p


@dataclass(frozen=True)
class DerangementRow:
    """Derangement counts D_0 .. D_{p-1} reduced mod p."""

    ctx: PrimeContext
    values: np.ndarray

    def __post_init__(self):
        p = self.ctx.p
        assert self.values.shape == (p,)
        assert int(self.values[0]) == 1 % p and int(self.values[1]) == 0


def bell_row(ctx: PrimeContext) -> BellRow:
    """B_0 .. B_{p-1} mod p by the binomial recurrence.

    B_{n+1} = sum_k C(n, k) B_k = n! sum_k (B_k / k!) (1 / (n-k)!), so the
    row is built as b_k = B_k / k!: each step is one dot of b_0 .. b_n with
    the inverse factorials 1/n! .. 1/0!, and B_k = k! b_k at the end.
    """
    p = ctx.p
    step = (ctx.fact[:-1] * ctx.inv_fact[1:] % p).tolist()  # step[n] = n!/(n+1)!
    rev = ctx.inv_fact[::-1].copy()  # rev[p-1-j] = 1/j!
    b = np.zeros(p, dtype=np.int64)
    b[0] = 1 % p
    for n in range(p - 1):
        dot = int(_mod_matmul(b[: n + 1], rev[p - 1 - n :], p))
        b[n + 1] = dot * step[n] % p
    values = b * ctx.fact % p
    values.setflags(write=False)
    return BellRow(ctx, values)


def _bell_triangle(ctx: PrimeContext, count: int) -> np.ndarray:
    """B_0 .. B_{count-1} mod p by the additive (Aitken) triangle.

    Row n+1 starts with the last entry of row n and accumulates partial
    sums; B_n is the first entry of row n.  Row n holds n + 1 residues, so
    its prefix sums stay below count * (p - 1), which must be below 2**63.
    """
    p = ctx.p
    if count * (p - 1) >= 2**63:
        raise IndexTooLargeError(f"{count} Bell triangle rows need {count} * (p - 1) < 2**63")
    values = np.zeros(count, dtype=np.int64)
    values[0] = 1 % p
    row = np.array([1 % p], dtype=np.int64)
    for n in range(1, count):
        row = np.cumsum(np.concatenate((row[-1:], row))) % p
        values[n] = row[0]
    return values


def bell_triangle_row(ctx: PrimeContext) -> BellRow:
    """B_0 .. B_{p-1} mod p by the additive triangle of _bell_triangle.
    Independent of the factorial tables, so it cross-checks bell_row."""
    values = _bell_triangle(ctx, ctx.p)
    values.setflags(write=False)
    return BellRow(ctx, values)


def bell_mod(n: int, ctx: PrimeContext, row: BellRow) -> Residue:
    """B_n mod p for any 0 <= n < p**2.

    Indices below p read the precomputed row.  Larger ones are folded with
    the shift congruence B_{qp+s} = sum_j C(q, j) B_{s+j} (mod p), where an
    index s+j that reaches p is folded once more through
    B_{p+t} = B_t + B_{t+1}.
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    p = ctx.p
    if n >= p * p:
        raise IndexTooLargeError(f"index {n} needs n < p**2 = {p * p}")
    vals = row.values
    if n < p:
        return Residue(int(vals[n]), ctx)
    q, s = divmod(n, p)
    total = 0
    fq, invf = int(ctx.fact[q]), ctx.inv_fact[: q + 1].tolist()
    for j in range(q + 1):
        t = s + j
        if t < p:
            b = int(vals[t])
        else:
            # s + j <= 2p - 2, so one extra fold always lands inside the row
            t -= p
            b = (int(vals[t]) + int(vals[t + 1])) % p
        c = fq * invf[j] % p * invf[q - j] % p
        total = (total + c * b) % p
    return Residue(total, ctx)


def derangement_row(ctx: PrimeContext) -> DerangementRow:
    """D_0 .. D_{p-1} mod p by D_n = n D_{n-1} + (-1)^n."""
    p = ctx.p
    values = np.zeros(p, dtype=np.int64)
    values[0] = 1 % p
    cur = 1 % p
    sign = 1
    for n in range(1, p):
        sign = -sign
        cur = (n * cur + sign) % p
        values[n] = cur
    values.setflags(write=False)
    return DerangementRow(ctx, values)


def derangement_series_mod(n: int, ctx: PrimeContext) -> Residue:
    """D_n mod p from the alternating falling-factorial series.

    (-1)^n D_n = sum_{r=0}^{n} (-1)^r n(n-1)...(n-r+1); every term is an
    integer, so the whole sum can be taken mod p directly.  Independent of
    the recurrence in derangement_row.
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    p = ctx.p
    if n >= p:
        raise IndexTooLargeError(f"index {n} needs n < p = {p}")
    acc = 0
    term = 1
    sign = 1
    for r in range(n + 1):
        acc = (acc + sign * term) % p
        term = term * ((n - r) % p) % p
        sign = -sign
    if n % 2 == 1:
        acc = -acc % p
    return Residue(acc, ctx)


def derangement_mod(n: int, ctx: PrimeContext, sigma: np.ndarray) -> Residue:
    """D_n mod p for any n >= 0.

    (-1)^n D_n mod p is periodic in n with period p, because the
    falling-factorial series picks up a factor divisible by p in every
    term beyond the residue of n.  So one signed-series row covers all
    indices.
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    p = ctx.p
    v = int(sigma[n % p])
    return Residue(v if n % 2 == 0 else -v % p, ctx)


def signed_series_row(ctx: PrimeContext) -> np.ndarray:
    """sigma[n] = (-1)^n D_n mod p for all n < p, vectorized.

    D_n = n! * sum_{t<=n} (-1)^t / t!, with the inner prefix sums read off
    the inverse-factorial table; a final alternating sign gives sigma.
    """
    p = ctx.p
    alt = ctx.inv_fact.copy()
    alt[1::2] = (p - alt[1::2]) % p
    acc = np.cumsum(alt) % p  # prefix sums stay below p * p < 2**62
    sigma = ctx.fact * acc % p
    sigma[1::2] = (p - sigma[1::2]) % p
    sigma.setflags(write=False)
    return sigma


def stirling2_mod(n: int, k: int, ctx: PrimeContext) -> Residue:
    """Set-partition count S(n, k) mod p by the explicit alternating sum.

    k! S(n, k) = sum_j C(k, j) (-1)^(k-j) j^n, with 0^0 = 1.  Requires
    k < p so that 1/k! exists.
    """
    if n < 0 or k < 0:
        raise ValueError("indices must be nonnegative")
    p = ctx.p
    if k >= p:
        raise IndexTooLargeError(f"block count {k} needs k < p = {p}")
    total = 0
    for j in range(k + 1):
        term = binomial_mod(k, j, ctx).value * pow(j, n, p) % p
        total = (total + term) if (k - j) % 2 == 0 else (total - term)
        total %= p
    return Residue(total * int(ctx.inv_fact[k]) % p, ctx)


def touchard_poly(n: int, ctx: PrimeContext) -> DensePoly:
    """T_n as a polynomial: coefficient of x^k is S(n, k); needs n < p."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    if n >= ctx.p:
        raise IndexTooLargeError(f"index {n} needs n < p = {ctx.p}")
    return DensePoly(ctx, [stirling2_mod(n, k, ctx).value for k in range(n + 1)])


def touchard_polys_by_recursion(n_max: int, ctx: PrimeContext) -> list[DensePoly]:
    """[T_0 .. T_{n_max}] via T_{n+1} = x * sum_k C(n, k) T_k.

    Built entirely from DensePoly operations; independent of the explicit
    Stirling sum behind touchard_poly.
    """
    if n_max < 0:
        raise ValueError("index must be nonnegative")
    if n_max >= ctx.p:
        raise IndexTooLargeError(f"index {n_max} needs n < p = {ctx.p}")
    polys = [DensePoly(ctx, (1,))]
    for n in range(n_max):
        acc = DensePoly(ctx)
        for k, t_k in enumerate(polys):
            acc = acc.add(t_k.scale(binomial_mod(n, k, ctx)))
        polys.append(acc.mul_monomial(1))
    return polys


def touchard_coeff_matrix(ctx: PrimeContext) -> np.ndarray:
    """Matrix M with M[n, k] = S(n, k) mod p for n, k < p, vectorized.

    Rows come from the Stirling triangle S(n, k) = k S(n-1, k) + S(n-1, k-1),
    one O(p) step per row: a third route to the coefficients, independent
    of the weighted-sum recursion of touchard_polys_by_recursion and of the
    explicit alternating sum of stirling2_mod.
    """
    p = ctx.p
    m = np.zeros((p, p), dtype=np.int64)
    m[0, 0] = 1 % p
    k = np.arange(1, p, dtype=np.int64)
    for n in range(1, p):
        # k < p and S(n-1, k) < p, so each product stays below p**2
        m[n, 1:] = (k * m[n - 1, 1:] + m[n - 1, :-1]) % p
    m.setflags(write=False)
    return m


def touchard_polys_from_matrix(ctx: PrimeContext, matrix: np.ndarray) -> list[DensePoly]:
    """[T_0 .. T_{p-1}] as polynomials, read off the coefficient matrix."""
    return [DensePoly(ctx, matrix[n, : n + 1].tolist()) for n in range(ctx.p)]


def touchard_value_table(ctx: PrimeContext, matrix: np.ndarray) -> np.ndarray:
    """Table E with E[n, x] = T_n(x) mod p for all n, x < p."""
    p = ctx.p
    powers = powers_mod(np.arange(p), p, p).T  # powers[k, x] = x^k
    table = _mod_matmul(matrix, powers, p)
    table.setflags(write=False)
    return table
