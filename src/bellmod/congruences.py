"""Verifiers for the congruence identities tying Bell numbers, derangement
counts and Touchard polynomials together modulo a prime.

Every public ``verify_*`` function computes both sides of one identity by
routes that share as little code as possible and returns its reports as
columnar blocks; nothing here ever asserts, so a false identity simply
shows up as a failing report.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

import numpy as np

from . import oracle
from .modarith import (
    IndexTooLargeError,
    PrimeContext,
    mod_convolve,
    powers_mod,
    primitive_root,
)
from .sequences import _bell_triangle, _mod_matmul, bell_mod

__all__ = [
    "BadModulusError",
    "BadPointError",
    "Identity",
    "VerificationReport",
    "ReportBlock",
    "PARAM_ORDER",
    "report_sort_key",
    "s_m",
    "s_m_all_units",
    "s_m_many",
    "s_m_chain",
    "theorem1_rhs",
    "verify_theorem1",
    "verify_intro_constant",
    "verify_corollary",
    "verify_eq4",
    "verify_bell_p",
    "verify_touchard",
    "weighted_touchard_sum",
    "theorem2_lhs",
    "theorem2_rhs",
    "verify_theorem2",
    "verify_theorem2_eval",
    "verify_special_cases",
    "proof_intermediate",
    "verify_proof_intermediate",
    "verify_factorial_lemma",
    "unit_power_table",
    "geometric_sum_lemma_check",
]


class BadModulusError(ValueError):
    """Raised when a weight m is a multiple of p, so 1/m does not exist."""


class BadPointError(ValueError):
    """Raised when an evaluation point x is a multiple of p."""


class Identity(Enum):
    """Stable identifiers for the identities the sweep engine can check."""

    TOUCHARD_EQ1 = "TOUCHARD_EQ1"
    THEOREM1 = "THEOREM1"
    INTRO_CONSTANT = "INTRO_CONSTANT"
    COROLLARY = "COROLLARY"
    EQ4_BASE = "EQ4_BASE"
    EQ4_STEP = "EQ4_STEP"
    BELL_P = "BELL_P"
    THEOREM2_POLY = "THEOREM2_POLY"
    THEOREM2_EVAL = "THEOREM2_EVAL"
    SPECIAL_CASE_M = "SPECIAL_CASE_M"
    PROOF_INTERMEDIATE = "PROOF_INTERMEDIATE"
    FACTORIAL_LEMMA = "FACTORIAL_LEMMA"
    GEOMETRIC_SUM = "GEOMETRIC_SUM"


_IDENTITY_RANK = {ident: i for i, ident in enumerate(Identity)}

# canonical key order for params, report sorting and serialization
PARAM_ORDER = ("m", "n", "x", "k", "l", "j", "r")

# weights per block: the weighted-power kernel holds one (block x p) array
# of powers of u at a time, and the sweep runs its m-major identities one
# block of weights at a time, whatever the number of weights
WEIGHT_BLOCK = 256


@dataclass(frozen=True, eq=False, slots=True)
class VerificationReport:
    """One checked instance of one identity at one prime.

    ``lhs`` and ``rhs`` are canonical residues (ints), or for polynomial-valued
    identities tuples of them with trailing zeros stripped.  ``params`` always
    includes ``p``, mirrored in the dedicated field for convenience.
    """

    identity: Identity
    p: int
    params: dict[str, int]
    lhs: int | tuple[int, ...]
    rhs: int | tuple[int, ...]
    passed: bool


@dataclass(frozen=True, eq=False, slots=True)
class ReportBlock:
    """The reports of one identity at one prime with one set of params, as
    columns: ``params`` maps each param name to an integer array with one
    entry per report, in report_sort_key order.  ``lhs`` and ``rhs`` are
    int64 arrays of one shape, one entry per report or, for polynomial-valued
    identities, one zero-padded row of coefficients per report; ``passed``
    is the boolean mask of reports that pass.

    Indexing or iterating a block yields its reports as VerificationReport
    rows, which the sweep never builds.  A slice is the block of its rows, a
    view; a list of row indices is the block of those rows, copied.
    """

    identity: Identity
    p: int
    params: dict[str, np.ndarray]
    lhs: np.ndarray
    rhs: np.ndarray
    passed: np.ndarray

    def __len__(self) -> int:
        return len(self.passed)

    def __getitem__(self, i: int | slice | list[int]) -> VerificationReport | ReportBlock:
        if isinstance(i, (slice, list)):
            params = {k: col[i] for k, col in self.params.items()}
            return ReportBlock(self.identity, self.p, params, self.lhs[i], self.rhs[i], self.passed[i])
        params = {"p": self.p}
        params.update((k, int(col[i])) for k, col in self.params.items())
        lhs, rhs = self.lhs[i], self.rhs[i]
        if self.lhs.ndim == 2:
            lhs, rhs = _coeff_tuples(np.stack([lhs, rhs]))
        else:
            lhs, rhs = int(lhs), int(rhs)
        return VerificationReport(self.identity, self.p, params, lhs, rhs, bool(self.passed[i]))

    def __iter__(self) -> Iterator[VerificationReport]:
        return map(self.__getitem__, range(len(self)))


def _block(identity: Identity, ctx: PrimeContext, params: dict, lhs, rhs) -> ReportBlock:
    """A block whose pass mask compares the sides report by report: entry
    by entry, or all of a row's coefficients.  Sides of two shapes raise
    ValueError, since they would broadcast into a wrong mask."""
    if lhs.shape != rhs.shape:
        raise ValueError(f"report sides of shapes {lhs.shape} and {rhs.shape}")
    passed = (lhs == rhs).all(axis=tuple(range(1, lhs.ndim)))
    return ReportBlock(identity, ctx.p, params, lhs, rhs, passed)


def report_sort_key(r: VerificationReport) -> tuple:
    """Canonical total order: identity, then p, then params."""
    return (
        _IDENTITY_RANK[r.identity],
        r.p,
        tuple(r.params.get(k, -1) for k in PARAM_ORDER),
    )


def _require_units(ctx: PrimeContext, ms: Sequence[int]) -> np.ndarray:
    """Check every weight of ms in one pass and return the weights folded
    into [1, 2p) as int64: a weight below p is kept, a larger one becomes
    p + (m mod p).  The fold keeps each weight's residue and whether it is
    below p, whatever the size of m; the pivot of the proofs is
    r = -fold mod p.  A weight below 1 raises ValueError, a multiple of p
    BadModulusError.
    """
    p = ctx.p
    w = np.asarray(ms)  # object dtype for weights past int64
    r = w % p
    bad = (w < 1) | (r == 0)
    if bad.any():
        m = ms[int(bad.argmax())]
        if m < 1:
            raise ValueError(f"weight m must be positive, got {m}")
        raise BadModulusError(f"m = {m} is a multiple of p = {p}")
    return np.where(w < p, w, p + r).astype(np.int64, copy=False)


def s_m(ctx: PrimeContext, m: int, row: np.ndarray) -> int:
    """The weighted Bell sum sum_{0<k<p} B_k / (-m)^k mod p."""
    _require_units(ctx, [m])
    p = ctx.p
    vals = row.tolist()
    u = pow(-m % p, p - 2, p)
    acc = 0
    upow = 1
    for k in range(1, p):
        upow = upow * u % p
        acc = (acc + vals[k] * upow) % p
    return acc


def s_m_all_units(ctx: PrimeContext, row: np.ndarray) -> np.ndarray:
    """S_m for every unit weight at once, as a read-only int64 array
    indexed by m mod p (slot 0 unused).

    S_m is f(u) = sum_{0<k<p} B_k u^k at u = 1/(-m), and u^(p-1) = 1, so
    with a generator g and n = p - 1 the values E_j = f(g^j) form one
    length-n DFT of (B_{p-1}, B_1, ..., B_{n-1}).  Bluestein's identity
    jk = C(j+k, 2) - C(j, 2) - C(k, 2) turns it into one correlation, which
    mod_convolve computes exactly, so the whole table costs O(p log p).
    Weight m then reads E at dlog(1/(-m)) = dlog(-1) - dlog(m) (mod n).
    """
    p = ctx.p
    n = p - 1
    g = primitive_root(p)
    pw = powers_mod(g, n, p)  # pw[e] = g^e
    dlog = np.zeros(p, dtype=np.int64)
    dlog[pw] = np.arange(n, dtype=np.int64)
    # tri[t] = C(t, 2) mod n; the partial sums stay below n**2 < 2**62
    tri = np.zeros(2 * n - 1, dtype=np.int64)
    tri[1:] = np.cumsum(np.arange(2 * n - 2, dtype=np.int64) % n) % n
    chirp = pw[tri]
    unchirp = pw[-tri[:n] % n]
    coeffs = np.roll(row[1:], 1)  # B_{p-1} stands in for B_0 u^0
    x = coeffs * unchirp % p
    corr = mod_convolve(x[::-1], chirp, p)[n - 1 : 2 * n - 1]
    evals = corr * unchirp % p
    table = np.zeros(p, dtype=np.int64)
    table[1:] = evals[(n // 2 - dlog[1:]) % n]
    table.setflags(write=False)
    return table


def s_m_many(ctx: PrimeContext, ms: Sequence[int], sm: np.ndarray) -> np.ndarray:
    """s_m for many weights at once, as int64 aligned with ms: each
    weight's entry of the s_m_all_units table sm, read at its residue."""
    return sm[_require_units(ctx, ms) % ctx.p]


def theorem1_rhs(
    ctx: PrimeContext, ms: Sequence[int], drow: np.ndarray, sigma: np.ndarray
) -> np.ndarray:
    """(-1)^(m-1) D_{m-1} mod p for every weight of ms, aligned with ms.

    For m - 1 < p this reads the derangement row directly.  Larger weights
    use the alternating falling-factorial series, which mod p depends on
    m - 1 only through its residue; the series carries the sign itself.
    So each weight is folded below 2p before any int64 arithmetic.
    """
    p = ctx.p
    n0 = _require_units(ctx, ms) - 1
    d = drow[n0.clip(max=p - 1)]
    return np.where(n0 < p, np.where(n0 % 2 == 0, d, -d % p), sigma[n0 % p])


def verify_theorem1(
    ctx: PrimeContext, ms: Sequence[int], sm: np.ndarray, drow: np.ndarray, sigma: np.ndarray
) -> list[ReportBlock]:
    """Check sum_{0<k<p} B_k / (-m)^k = (-1)^(m-1) D_{m-1} (mod p) at every
    weight m of ms, in order.  The left side reads each weight from the
    s_m_all_units table sm through s_m_many; the scalar s_m checks that
    table as an independent route."""
    lhs = s_m_many(ctx, ms, sm)
    rhs = theorem1_rhs(ctx, ms, drow, sigma)
    return [_block(Identity.THEOREM1, ctx, {"m": np.asarray(ms)}, lhs, rhs)]


def verify_intro_constant(ctx: PrimeContext, m: int, row: np.ndarray) -> list[ReportBlock]:
    """Check that sum_{n=0}^{p-1} B_n / (-m)^n is the same integer mod every
    prime not dividing m: 1 + (-1)^(m-1) D_{m-1}, with D taken exactly.

    At m = 8 the constant is -1853.
    """
    lhs = (1 + s_m(ctx, m, row)) % ctx.p  # the n = 0 term contributes B_0 = 1
    sign = 1 if (m - 1) % 2 == 0 else -1
    rhs = (1 + sign * oracle.derangement_exact(m - 1)) % ctx.p
    params = {"m": np.array([m])}
    return [_block(Identity.INTRO_CONSTANT, ctx, params, np.array([lhs]), np.array([rhs]))]


def verify_corollary(ctx: PrimeContext, row: np.ndarray, drow: np.ndarray) -> list[ReportBlock]:
    """Check the closed form B_n = sum_{0<m<p} (-1)^m D_{m-1} (-m)^n (mod p)
    for 0 < n < p, plus the power-sum kernel it rests on:
    sum_{0<m<p} (-m)^(n-k) = -[n = k] (mod p) for 0 < n, k < p.
    """
    p = ctx.p
    base = (p - np.arange(1, p, dtype=np.int64)) % p  # (-m) mod p for m = 1..p-1
    weights = drow[: p - 1].copy()  # D_{m-1} for m = 1..p-1
    weights[::2] = (p - weights[::2]) % p  # odd m gets the minus sign
    pw = powers_mod(base, p, p)  # pw[m-1, e] = (-m)^e
    closed = _mod_matmul(weights, pw[:, 1:], p)  # n = 1..p-1
    # kernel power sums K[e] = sum_m (-m)^e; p - 1 residues sum below p**2
    kernel = pw[:, : p - 1].sum(axis=0) % p
    ks = np.arange(1, p)  # n and k both run 1..p-1
    bell = row[1:p]
    lhs = kernel[(ks[:, None] - ks) % (p - 1)]  # row n - 1 holds K[n - k] for every k
    rhs = np.eye(p - 1, dtype=np.int64) * ((p - 1) % p)
    # canonical order: each {n} report just before its own {n, k} block
    blocks = []
    for i, n in enumerate(range(1, p)):
        one = slice(i, i + 1)
        grid = {"n": np.full(p - 1, n), "k": ks}
        blocks.append(_block(Identity.COROLLARY, ctx, {"n": ks[one]}, bell[one], closed[one]))
        blocks.append(_block(Identity.COROLLARY, ctx, grid, lhs[i], rhs[i]))
    return blocks


def verify_eq4(ctx: PrimeContext, sm: np.ndarray) -> list[ReportBlock]:
    """Check the weighted-sum chain: S_1 = 1 and m S_m = S_1 - S_{m+1}
    (mod p) for 1 <= m <= p - 2, on the s_m_all_units table sm.  Needs
    p >= 3 to have any chain step.
    """
    p = ctx.p
    if p < 3:
        raise BadModulusError("the chain needs p >= 3")
    s = sm[1:p]  # s[m - 1] = S_m
    ms = np.arange(1, p - 1)
    return [
        _block(Identity.EQ4_BASE, ctx, {"m": ms[:1]}, s[:1], np.array([1 % p])),
        _block(Identity.EQ4_STEP, ctx, {"m": ms}, ms * s[:-1] % p, (s[0] - s[1:]) % p),
    ]


def s_m_chain(ctx: PrimeContext) -> list[int]:
    """All S_m for m = 1..p-1 unrolled from the chain alone: S_1 = 1 and
    S_{m+1} = 1 - m S_m.  Returns a list indexed by m (slot 0 unused).
    No Bell number is ever computed; compare against s_m_all_units to close
    the loop.
    """
    p = ctx.p
    if p < 3:
        raise BadModulusError("the chain needs p >= 3")
    out = [0] * p
    out[1] = 1 % p
    for m in range(1, p - 1):
        out[m + 1] = (1 - m * out[m]) % p
    return out


def verify_bell_p(ctx: PrimeContext, row: np.ndarray) -> list[ReportBlock]:
    """Check B_p = 2 (mod p).

    The left side extends the Bell row one step by the genuine binomial
    recurrence B_p = sum_k C(p-1, k) B_k; the right side is the constant.
    """
    p = ctx.p
    w = ctx.inv_fact * ctx.inv_fact[::-1] % p
    lhs = int(ctx.fact[p - 1]) * int(_mod_matmul(w, row, p)) % p
    return [_block(Identity.BELL_P, ctx, {}, np.array([lhs]), np.array([2 % p]))]


def verify_touchard(ctx: PrimeContext, n_max: int, row: np.ndarray) -> list[ReportBlock]:
    """Check B_{p+n} = B_n + B_{n+1} (mod p) for 0 <= n <= n_max.

    The left side continues the additive triangle to row p + n_max; the
    right side reads the recurrence row through bell_mod, whose fold takes
    over from n + 1 = p on.  The triangle's prefix sums stay below
    (p + n_max + 1)(p - 1), and past 2**63 it raises IndexTooLargeError.
    """
    p = ctx.p
    if p + n_max >= p * p:
        raise IndexTooLargeError(f"n_max {n_max} needs p + n < p**2")
    lhs = _bell_triangle(ctx, p + n_max + 1)[p:]
    ns = range(n_max + 1)
    rhs = np.array(
        [(bell_mod(n, ctx, row) + bell_mod(n + 1, ctx, row)) % p for n in ns],
        dtype=np.int64,
    )
    return [_block(Identity.TOUCHARD_EQ1, ctx, {"n": np.arange(n_max + 1)}, lhs, rhs)]


def _weighted_power_rows(ctx: PrimeContext, r: np.ndarray, table: np.ndarray) -> np.ndarray:
    """sum_{0<n<p} table[n] u^n mod p with u = 1/(-m), one row per pivot
    r = -m mod p from _require_units.

    u^(p-1) = 1, so u^n = r^(p-1-n): the powers of u are the powers of r
    read backwards.  table holds residues in p rows indexed by n.  Each
    block of WEIGHT_BLOCK weights is one exact product of its powers of u
    with table[1:].
    """
    p = ctx.p
    out = np.empty((len(r), table.shape[1]), dtype=np.int64)
    for lo in range(0, len(r), WEIGHT_BLOCK):
        upow = powers_mod(r[lo : lo + WEIGHT_BLOCK], p, p)[:, ::-1]
        out[lo : lo + len(upow)] = _mod_matmul(upow[:, 1:], table[1:], p)
    return out


def _zeros(rows: int, cols: int) -> np.ndarray:
    """An int64 array of zeros for the forms of degree p + m.  numpy refuses
    a shape past its index range with ValueError; such a weight needs a
    table too large to hold, so that raises MemoryError here, as a table
    too large to allocate does."""
    try:
        return np.zeros((rows, cols), dtype=np.int64)
    except ValueError:
        raise MemoryError(f"no int64 array holds {rows} x {cols} entries") from None


def _row_lengths(rows: np.ndarray) -> np.ndarray:
    """Each row of coefficients' length with its trailing zeros stripped:
    the largest 1-based column of a nonzero entry, or 0 for a zero row."""
    return (np.arange(1, rows.shape[1] + 1) * (rows != 0)).max(axis=1, initial=0)


def _coeff_tuples(rows: np.ndarray) -> list[tuple[int, ...]]:
    """Each row of coefficients as a tuple of ints with its trailing zeros
    stripped, so a zero row gives ().  Rows are converted one at a time, so
    no list of the whole array is held next to the tuples."""
    return [tuple(row[:n].tolist()) for row, n in zip(rows, _row_lengths(rows).tolist())]


def _inv_pow(ctx: PrimeContext, bases: Sequence[int], exps: Sequence[int]) -> np.ndarray:
    """b**(-e) mod p for every exponent e (rows) and unit b (columns):
    b^(p-1) = 1, so b^(-e) is a power of b read backwards."""
    p = ctx.p
    return powers_mod(bases, p - 1, p)[:, [-e % (p - 1) for e in exps]].T


def _require_points(ctx: PrimeContext, xs: Sequence[int]) -> list[int]:
    """xs reduced mod p; a multiple of p raises BadPointError."""
    p = ctx.p
    for x in xs:
        if x % p == 0:
            raise BadPointError(f"x = {x} is a multiple of p = {p}")
    return [x % p for x in xs]


def weighted_touchard_sum(ctx: PrimeContext, ms: Sequence[int], matrix: np.ndarray) -> np.ndarray:
    """sum_{0<n<p} T_n(x) / (-m)^n mod p for every weight in ms, one row of
    the coefficients of x^0..x^(p-1) per weight, from the coefficient
    matrix M[n, k] = S(n, k) mod p."""
    return _weighted_power_rows(ctx, -_require_units(ctx, ms) % ctx.p, matrix)


def theorem2_lhs(ctx: PrimeContext, ms: Sequence[int], sums: np.ndarray) -> np.ndarray:
    """(-x)^m sum_{0<n<p} T_n(x) / (-m)^n mod p for every weight of ms, one
    row of p + max(ms) coefficients per weight, given the weighted Touchard
    sums from weighted_touchard_sum."""
    p = ctx.p
    w = np.asarray(ms, dtype=np.int64).reshape(-1, 1)
    out = _zeros(len(w), p + int(w.max(initial=0)))
    np.put_along_axis(out, w + np.arange(p), np.where(w % 2 == 0, sums, -sums % p), axis=1)
    return out


def _falling_products(ctx: PrimeContext, w: np.ndarray) -> np.ndarray:
    """(m-1)!/l! mod p at column l of the row of each weight m of w, for
    every l < m, and 0 at l >= m.

    It is the integer product (l+1)(l+2)...(m-1), accumulated downward from
    l = m-1 for all weights at once, with each factor reduced mod p; it is
    never formed by modular division, which would break once the factorials
    vanish.
    """
    p = ctx.p
    out = _zeros(len(w), int(w.max(initial=0)))
    c = np.ones(len(w), dtype=np.int64)  # (l+1)...(m-1) for each weight with l < m
    for l in range(out.shape[1] - 1, -1, -1):
        live = w > l
        out[live, l] = c[live]
        c[live] = c[live] * (l % p) % p
    return out


def theorem2_rhs(ctx: PrimeContext, ms: Sequence[int]) -> np.ndarray:
    """-x^p sum_{l=0}^{m-1} ((m-1)!/l!) (-x)^l mod p for every weight of ms,
    one row of p + max(ms) coefficients per weight."""
    _require_units(ctx, ms)
    p = ctx.p
    f = _falling_products(ctx, np.asarray(ms, dtype=np.int64))
    f[:, ::2] = -f[:, ::2] % p  # -x^p (-x)^l = -x^(p+l) at even l
    return np.pad(f, ((0, 0), (p, 0)))


def verify_theorem2(
    ctx: PrimeContext, ms: Sequence[int], sums: np.ndarray
) -> list[ReportBlock]:
    """Compare both sides of the polynomial congruence coefficient by
    coefficient at every weight of ms, given their weighted Touchard sums
    from weighted_touchard_sum; they agree identically in x when the
    identity holds."""
    lhs, rhs = theorem2_lhs(ctx, ms, sums), theorem2_rhs(ctx, ms)
    return [_block(Identity.THEOREM2_POLY, ctx, {"m": np.asarray(ms)}, lhs, rhs)]


def verify_theorem2_eval(
    ctx: PrimeContext, ms: Sequence[int], xs: Sequence[int], values: np.ndarray
) -> list[ReportBlock]:
    """Check the evaluated form at every weight m of ms and every point x
    of xs with p not dividing x, in m-major order:

    sum_{0<n<p} T_n(x) / (-m)^n = -x^p sum_l ((m-1)!/l!) (-x)^l / (-x)^m.

    The left side weights the tabulated T_n(x).  On the right,
    R_m(y) = sum_{l<m} ((m-1)!/l!) y^l follows the closed form's own
    recurrence R_1 = 1, R_{m+1} = m R_m + y^m, taken at y = -x for every m
    up to max(ms) at once; each weight's R_m(-x) is multiplied by -x^p and
    divided by (-x)^m.
    """
    p = ctx.p
    xs = _require_points(ctx, xs)
    if not ms or not xs:
        return []
    lhs = _weighted_power_rows(ctx, -_require_units(ctx, ms) % p, values[:, xs])
    w = np.asarray(ms, dtype=np.int64)
    y = p - np.array(xs, dtype=np.int64)  # -x mod p
    rm = _zeros(int(w.max()), len(xs))  # rm[m-1] = R_m(-x)
    rm[0], ypow = 1 % p, y
    for m in range(1, len(rm)):
        rm[m] = (m % p * rm[m - 1] + ypow) % p
        ypow = ypow * y % p
    neg_xp = [-pow(x, p, p) % p for x in xs]
    rhs = rm[w - 1] * neg_xp % p * _inv_pow(ctx, y, ms) % p
    grid = {"m": np.repeat(ms, len(xs)), "x": np.tile(xs, len(ms))}
    return [_block(Identity.THEOREM2_EVAL, ctx, grid, lhs.ravel(), rhs.ravel())]


# numerators of the displayed low-weight cases, ascending and padded with
# zeros to one length; the denominator of case m is x^(m-1)
_SPECIAL_NUMERATORS = {
    2: (-1, 1, 0, 0),
    3: (2, -2, 1, 0),
    4: (-6, 6, -3, 1),
}


def verify_special_cases(
    ctx: PrimeContext, xs: Sequence[int], values: np.ndarray
) -> list[ReportBlock]:
    """Check the displayed m = 2, 3, 4 evaluations of the weighted sum
    against their hard-coded rational forms, at every point of xs coprime
    to p, in m-major order.  Weights divisible by p are skipped.
    """
    p = ctx.p
    xs = _require_points(ctx, xs)
    if not xs:
        return []
    ms = [m for m in _SPECIAL_NUMERATORS if m % p]
    lhs = _weighted_power_rows(ctx, -_require_units(ctx, ms) % p, values[:, xs])
    num = _mod_matmul(np.array([_SPECIAL_NUMERATORS[m] for m in ms]) % p, powers_mod(xs, 4, p).T, p)
    rhs = num * _inv_pow(ctx, xs, [m - 1 for m in ms]) % p
    grid = {"m": np.repeat(ms, len(xs)), "x": np.tile(xs, len(ms))}
    return [_block(Identity.SPECIAL_CASE_M, ctx, grid, lhs.ravel(), rhs.ravel())]


def proof_intermediate(ctx: PrimeContext, ms: Sequence[int]) -> np.ndarray:
    """The closed form the weighted Touchard sum collapses to, for every
    weight of ms, one row of the coefficients of x^0..x^(p-1) per weight:

    sum_{0<n<p} T_n(x) / (-m)^n = ((-1)^(r+1) / r!) sum_{k=r}^{p-1}
    (-x)^k / (k-r)!  (mod p), with r the least positive residue of -m.
    """
    p = ctx.p
    r = (-_require_units(ctx, ms) % p)[:, None]
    k = np.arange(p)
    idx = k - r  # negative exactly below x^r
    v = np.where(idx >= 0, ctx.inv_fact[r] * ctx.inv_fact[idx.clip(0)] % p, 0)
    return np.where((r + 1 + k) % 2 == 0, v, -v % p)


def verify_proof_intermediate(
    ctx: PrimeContext, ms: Sequence[int], sums: np.ndarray
) -> list[ReportBlock]:
    """Compare each weight's direct weighted Touchard sum, from
    weighted_touchard_sum, against its closed form."""
    params = {"m": np.asarray(ms), "r": -_require_units(ctx, ms) % ctx.p}
    return [_block(Identity.PROOF_INTERMEDIATE, ctx, params, sums, proof_intermediate(ctx, ms))]


def verify_factorial_lemma(ctx: PrimeContext, ms: Sequence[int]) -> list[ReportBlock]:
    """Check the two-branch reduction of (m-1)!/l! mod p for 0 <= l < m, at
    every weight m of ms, in m-major order:

    it vanishes for l < m + r - p, and otherwise equals
    (-1)^(r+1) / (r! (p + l - m - r)!), with r the least positive residue
    of -m.  The left side is the bare integer product (l+1)...(m-1) from
    _falling_products.
    """
    p = ctx.p
    r = -_require_units(ctx, ms) % p
    w = np.asarray(ms, dtype=np.int64)
    f = _falling_products(ctx, w)
    cols = np.broadcast_to(np.arange(f.shape[1]), f.shape)
    live = cols < w[:, None]  # every l < m, m-major
    m, r, l, lhs = np.repeat(w, w), np.repeat(r, w), cols[live], f[live]
    del f  # free the square table before the report columns are built
    idx = p + l - m - r  # negative exactly below the split l < m + r - p
    rhs = np.where(idx >= 0, ctx.inv_fact[r] * ctx.inv_fact[idx.clip(0)] % p, 0)
    rhs = np.where(r % 2 == 0, -rhs % p, rhs)
    return [_block(Identity.FACTORIAL_LEMMA, ctx, {"m": m, "l": l, "r": r}, lhs, rhs)]


def unit_power_table(ctx: PrimeContext) -> np.ndarray:
    """J with J[n, j-1] = j^n mod p for 0 <= n < p and 0 < j < p, as a
    read-only int64 array."""
    p = ctx.p
    jpow = powers_mod(np.arange(1, p, dtype=np.int64), p, p).T
    jpow.setflags(write=False)
    return jpow


def geometric_sum_lemma_check(
    ctx: PrimeContext, ms: Sequence[int], jpow: np.ndarray
) -> list[ReportBlock]:
    """Check sum_{n=1}^{p-1} (j / (-m))^n = -[p divides m + j] (mod p)
    for every weight m of ms and every j in 1..p-1, in m-major order.

    The left side is the weighted-power kernel over jpow, the
    unit_power_table J[n, j-1] = j^n, the kernel the Touchard-sum verifiers
    share; the right side is the closed-form indicator.
    """
    p = ctx.p
    fold = _require_units(ctx, ms)
    lhs = _weighted_power_rows(ctx, -fold % p, jpow).ravel()
    j = np.tile(np.arange(1, p), len(ms))
    rhs = np.where((np.repeat(fold, p - 1) + j) % p == 0, p - 1, 0)
    return [_block(Identity.GEOMETRIC_SUM, ctx, {"m": np.repeat(ms, p - 1), "j": j}, lhs, rhs)]
