"""Exact integer references for every sequence the package reduces mod p.

All values here are computed with arbitrary-precision ints and exact
rationals, by routes chosen to be independent of the modular kernels, so
that reducing an oracle value and computing it natively mod p are two
genuinely different code paths.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import factorial

from .modarith import IndexTooLargeError

__all__ = [
    "BELL_MAX",
    "DERANGEMENT_MAX",
    "STIRLING_MAX",
    "EGF_MAX",
    "BRUTE_MAX",
    "bell_exact",
    "derangement_exact",
    "derangement_series_exact",
    "derangement_brute",
    "stirling2_exact",
    "egf_bell_series",
    "egf_bell_check",
]

BELL_MAX = 1200
DERANGEMENT_MAX = 1200
STIRLING_MAX = 400
EGF_MAX = 60
BRUTE_MAX = 9

# B_{n+1} = sum_k C(n, k) B_k, extended lazily with an incrementally
# maintained Pascal row.
_bells: list[int] = [1]
_binrow: list[int] = [1]


def bell_exact(n: int) -> int:
    """The n-th Bell number as an exact integer, for n <= BELL_MAX."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    if n > BELL_MAX:
        raise IndexTooLargeError(f"index {n} exceeds the oracle cap {BELL_MAX}")
    while len(_bells) <= n:
        _bells.append(sum(c * b for c, b in zip(_binrow, _bells)))
        _binrow[:] = (
            [1]
            + [_binrow[i] + _binrow[i + 1] for i in range(len(_binrow) - 1)]
            + [1]
        )
    return _bells[n]


_ders: list[int] = [1, 0]


def derangement_exact(n: int) -> int:
    """Fixed-point-free permutation count via D_n = n D_{n-1} + (-1)^n."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    if n > DERANGEMENT_MAX:
        raise IndexTooLargeError(f"index {n} exceeds the oracle cap {DERANGEMENT_MAX}")
    while len(_ders) <= n:
        k = len(_ders)
        _ders.append(k * _ders[-1] + (-1) ** k)
    return _ders[n]


def derangement_series_exact(n: int) -> int:
    """D_n via the exact rational series n! * sum_{k<=n} (-1)^k / k!.

    The partial sums are kept as Fractions; the result must come out an
    integer, which is asserted rather than assumed.
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    if n > DERANGEMENT_MAX:
        raise IndexTooLargeError(f"index {n} exceeds the oracle cap {DERANGEMENT_MAX}")
    partial = sum(Fraction((-1) ** k, factorial(k)) for k in range(n + 1))
    value = factorial(n) * partial
    if value.denominator != 1:
        raise ArithmeticError(f"series for D_{n} did not reduce to an integer")
    return value.numerator


def derangement_brute(n: int) -> int:
    """Count derangements by enumerating all permutations; n <= BRUTE_MAX."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    if n > BRUTE_MAX:
        raise IndexTooLargeError(f"index {n} exceeds the oracle cap {BRUTE_MAX}")
    return sum(
        1
        for perm in permutations(range(n))
        if all(perm[i] != i for i in range(n))
    )


_stirling_rows: list[list[int]] = [[1]]


def stirling2_exact(n: int, k: int) -> int:
    """S(n, k) by the triangle S(n, k) = k S(n-1, k) + S(n-1, k-1).

    The modular kernel uses the explicit alternating sum instead, so the
    two routes share no algebra.
    """
    if n < 0 or k < 0:
        raise ValueError("indices must be nonnegative")
    if n > STIRLING_MAX:
        raise IndexTooLargeError(f"index {n} exceeds the oracle cap {STIRLING_MAX}")
    if k > n:
        return 0
    while len(_stirling_rows) <= n:
        prev = _stirling_rows[-1]
        m = len(_stirling_rows)
        row = [0] * (m + 1)
        for j in range(1, m):
            row[j] = j * prev[j] + prev[j - 1]
        row[m] = 1
        _stirling_rows.append(row)
    return _stirling_rows[n][k]


def egf_bell_series(n_terms: int) -> list[Fraction]:
    """First coefficients of exp(exp(x) - 1) as exact rationals.

    Composed by Horner's rule over truncated series: with g = exp(x) - 1,
    exp(g) = sum_m g^m / m! is evaluated as (...((1/M!) g + 1/(M-1)!) g
    + ...) + 1.
    """
    if n_terms < 1:
        raise ValueError("need at least one term")
    if n_terms > EGF_MAX + 1:
        raise IndexTooLargeError(f"{n_terms} terms exceeds the oracle cap {EGF_MAX + 1}")
    size = n_terms
    g = [Fraction(0)] + [Fraction(1, factorial(k)) for k in range(1, size)]
    acc = [Fraction(0)] * size
    acc[0] = Fraction(1, factorial(size - 1))
    for m in range(size - 2, -1, -1):
        # acc <- acc * g + 1/m!, truncated to `size` coefficients
        nxt = [Fraction(0)] * size
        for i, a in enumerate(acc):
            if a == 0:
                continue
            for j, b in enumerate(g):
                if i + j >= size:
                    break
                nxt[i + j] += a * b
        nxt[0] += Fraction(1, factorial(m))
        acc = nxt
    return acc


def egf_bell_check(n_max: int) -> bool:
    """Does n! * [x^n] exp(exp(x) - 1) equal B_n for all n <= n_max?"""
    if n_max > EGF_MAX:
        raise IndexTooLargeError(f"index {n_max} exceeds the oracle cap {EGF_MAX}")
    coeffs = egf_bell_series(n_max + 1)
    return all(
        factorial(n) * coeffs[n] == bell_exact(n) for n in range(n_max + 1)
    )

