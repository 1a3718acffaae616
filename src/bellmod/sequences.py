"""Bell, derangement, Stirling-set and Touchard-polynomial values mod p.

Every family here has at least two independent computation routes (for
example the binomial recurrence and the additive triangle for Bell
numbers), so the verification layer can cross-check one against the other
instead of trusting a single code path.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .modarith import IndexTooLargeError, PrimeContext, binomial_mod, powers_mod

__all__ = [
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

# A float64 dot of residue products is exact when inner * (p - 1)**2 is at
# most _FLOAT_DOT_LIMIT: every product and every partial sum is then an
# integer no larger than 2**53, which float64 holds exactly, so no step
# rounds, in any summation order, with or without FMA.  Every prime with
# (p - 1)**2 <= 2**53, that is up to 94,906,249, takes at least one product
# per chunk, and _mod_matmul refuses every larger one; bell_row's longest
# dot, p - 1 terms, fits one chunk for every prime up to 208,057.
_FLOAT_DOT_LIMIT = 2**53


def _float_chunk(p: int) -> int:
    """The most residue products one float64 dot sums exactly mod p; 0
    when not even one product of two residues is exact."""
    return _FLOAT_DOT_LIMIT // (p - 1) ** 2


def _mod_matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact a @ b for 1-D or 2-D residue operands, reduced mod p, as int64.

    As with np.matmul, a 1-D operand is a vector, so this is also the dot
    product and the vector-matrix product.  The inner axis is taken one
    chunk of _float_chunk(p) terms at a time: each chunk is converted to
    float64, multiplied by np.einsum, whose loops run on one thread where
    a float64 matmul would start BLAS threads, and its exact integer sums
    are reduced in int64.  Raises OverflowError where the chunk is 0.
    """
    chunk = _float_chunk(p)
    if not chunk:
        raise OverflowError(f"residue products mod {p} need (p - 1)**2 <= {_FLOAT_DOT_LIMIT} to be exact")
    # 'ki,ij->kj', without k for a 1-D a and without j for a 1-D b
    spec = f"{'ki'[2 - a.ndim :]},{'ij'[: b.ndim]}->{'k'[: a.ndim - 1]}{'j'[: b.ndim - 1]}"
    acc = 0
    for i in range(0, a.shape[-1], chunk):
        # the converted chunks are freed as einsum returns and the sum is
        # reduced in place, which keeps the peak to the chunks and the product
        part = np.einsum(
            spec, a[..., i : i + chunk].astype(np.float64, copy=False),
            b[i : i + chunk].astype(np.float64, copy=False),
        ).astype(np.int64, copy=False)
        part += acc
        part %= p
        acc = part
    return acc


def bell_row(ctx: PrimeContext) -> np.ndarray:
    """B_0 .. B_{p-1} mod p by the binomial recurrence, as a read-only
    int64 array.

    B_{n+1} = sum_k C(n, k) B_k = n! sum_k (B_k / k!) (1 / (n-k)!), so the
    row is built as b_k = B_k / k!: each step is one dot of b_0 .. b_n with
    the inverse factorials 1/n! .. 1/0!, and B_k = k! b_k at the end.  The
    row is kept in float64.  A dot that fits one float64 chunk, which every
    dot does up to p = 208,057, is one BLAS np.dot; a longer one is one
    _mod_matmul call.
    """
    p = ctx.p
    step = (ctx.fact[:-1] * ctx.inv_fact[1:] % p).tolist()  # step[n] = n!/(n+1)!
    rev = ctx.inv_fact[::-1].astype(np.float64)  # rev[p-1-j] = 1/j!
    b = np.zeros(p)
    b[0] = 1 % p
    chunk = _float_chunk(p)
    for n in range(p - 1):
        x, y = b[: n + 1], rev[p - 1 - n :]
        b[n + 1] = int(np.dot(x, y) if n < chunk else _mod_matmul(x, y, p)) % p * step[n] % p
    values = b.astype(np.int64) * ctx.fact % p
    assert values[1] == 1 % p  # B_1 = 1, a cheap self-check of the recurrence
    values.setflags(write=False)
    return values


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


def bell_triangle_row(ctx: PrimeContext) -> np.ndarray:
    """B_0 .. B_{p-1} mod p by the additive triangle of _bell_triangle.
    Independent of the factorial tables, so it cross-checks bell_row."""
    values = _bell_triangle(ctx, ctx.p)
    assert values[1] == 1 % ctx.p  # B_1 = 1
    values.setflags(write=False)
    return values


def bell_mod(n: int, ctx: PrimeContext, row: np.ndarray) -> int:
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
    if n < p:
        return int(row[n])
    q, s = divmod(n, p)
    total = 0
    fq, invf = int(ctx.fact[q]), ctx.inv_fact[: q + 1].tolist()
    for j in range(q + 1):
        t = s + j
        if t < p:
            b = int(row[t])
        else:
            # s + j <= 2p - 2, so one extra fold always lands inside the row
            t -= p
            b = (int(row[t]) + int(row[t + 1])) % p
        c = fq * invf[j] % p * invf[q - j] % p
        total = (total + c * b) % p
    return total


def derangement_row(ctx: PrimeContext) -> np.ndarray:
    """D_0 .. D_{p-1} mod p by D_n = n D_{n-1} + (-1)^n, as a read-only
    int64 array."""
    p = ctx.p
    values = np.zeros(p, dtype=np.int64)
    values[0] = 1 % p
    cur = 1 % p
    sign = 1
    for n in range(1, p):
        sign = -sign
        cur = (n * cur + sign) % p
        values[n] = cur
    assert values[0] == 1 % p and values[1] == 0  # D_0 = 1, D_1 = 0
    values.setflags(write=False)
    return values


def derangement_series_mod(n: int, ctx: PrimeContext) -> int:
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
    return acc


def derangement_mod(n: int, ctx: PrimeContext, sigma: np.ndarray) -> int:
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
    return v if n % 2 == 0 else -v % p


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


def stirling2_mod(n: int, k: int, ctx: PrimeContext) -> int:
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
        term = binomial_mod(k, j, ctx) * pow(j, n, p) % p
        total = (total + term) if (k - j) % 2 == 0 else (total - term)
        total %= p
    return total * int(ctx.inv_fact[k]) % p


def touchard_poly(n: int, ctx: PrimeContext) -> tuple[int, ...]:
    """T_n as its coefficients S(n, 0) .. S(n, n) mod p; needs n < p.

    S(n, n) = 1, so the tuple has n + 1 entries, as from the other routes.
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    if n >= ctx.p:
        raise IndexTooLargeError(f"index {n} needs n < p = {ctx.p}")
    return tuple(stirling2_mod(n, k, ctx) for k in range(n + 1))


def touchard_polys_by_recursion(n_max: int, ctx: PrimeContext) -> list[tuple[int, ...]]:
    """[T_0 .. T_{n_max}] as coefficient tuples, via T_{n+1} = x * sum_k C(n, k) T_k.

    Built from binomials and coefficient lists alone; independent of the
    explicit Stirling sum behind touchard_poly and of the Stirling triangle
    behind touchard_coeff_matrix.
    """
    if n_max < 0:
        raise ValueError("index must be nonnegative")
    if n_max >= ctx.p:
        raise IndexTooLargeError(f"index {n_max} needs n < p = {ctx.p}")
    p = ctx.p
    polys = [(1,)]
    for n in range(n_max):
        acc = [0] * (n + 2)  # T_{n+1} has degree n + 1
        for k, t_k in enumerate(polys):
            c = binomial_mod(n, k, ctx)
            for i, t in enumerate(t_k):
                acc[i + 1] = (acc[i + 1] + c * t) % p
        polys.append(tuple(acc))
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


def touchard_polys_from_matrix(ctx: PrimeContext, matrix: np.ndarray) -> list[tuple[int, ...]]:
    """[T_0 .. T_{p-1}] as coefficient tuples, read off the coefficient matrix."""
    return [tuple(matrix[n, : n + 1].tolist()) for n in range(ctx.p)]


def touchard_value_table(ctx: PrimeContext, matrix: np.ndarray, xs: Sequence[int]) -> np.ndarray:
    """Table E with E[n, i] = T_n(xs[i]) mod p for all n < p, one column per point of xs."""
    p = ctx.p
    table = _mod_matmul(matrix, powers_mod(xs, p, p).T, p)  # M @ X with X[k, i] = xs[i]^k
    table.setflags(write=False)
    return table
