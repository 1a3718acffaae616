"""Verifiers for the congruence identities tying Bell numbers, derangement
counts and Touchard polynomials together modulo a prime.

Every public ``verify_*`` function computes both sides of one identity by
routes that share as little code as possible and returns structured
reports; nothing here ever asserts, so a false identity simply shows up as
a failing report.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import islice
from typing import Iterable, Sequence

import numpy as np

from . import oracle
from .modarith import (
    DensePoly,
    IndexTooLargeError,
    PrimeContext,
    Residue,
    mod_convolve,
    normalize,
    powers_mod,
    primitive_root,
)
from .sequences import (
    BellRow,
    DerangementRow,
    _mod_matmul,
    bell_mod,
    bell_row,
    derangement_row,
    signed_series_row,
    touchard_coeff_matrix,
    touchard_value_table,
)

__all__ = [
    "BadModulusError",
    "BadPointError",
    "Identity",
    "VerificationReport",
    "PARAM_ORDER",
    "make_report",
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
    "weighted_touchard_sums",
    "theorem2_lhs",
    "theorem2_rhs",
    "verify_theorem2",
    "verify_theorem2_many",
    "verify_theorem2_eval",
    "verify_theorem2_eval_many",
    "verify_special_cases",
    "verify_special_cases_many",
    "proof_intermediate",
    "verify_proof_intermediate",
    "verify_proof_intermediate_many",
    "verify_factorial_lemma",
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

# weights handled per block by the batched Touchard-sum kernels: a block
# holds one (block x p) array of powers of u, and one (block x (p + max m))
# array of closed-form coefficients, whatever the number of weights
WEIGHT_BLOCK = 256


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """One checked instance of one identity at one prime.

    ``lhs`` and ``rhs`` are canonical residues (ints), or tuples of them
    for polynomial-valued identities.  ``params`` always includes ``p``,
    mirrored in the dedicated field for convenience.
    """

    identity: Identity
    p: int
    params: dict[str, int]
    lhs: int | tuple[int, ...]
    rhs: int | tuple[int, ...]
    passed: bool


def make_report(
    identity: Identity,
    ctx: PrimeContext,
    params: dict[str, int],
    lhs: int | tuple[int, ...],
    rhs: int | tuple[int, ...],
) -> VerificationReport:
    full = {"p": ctx.p}
    full.update(params)
    return VerificationReport(identity, ctx.p, full, lhs, rhs, lhs == rhs)


def report_sort_key(r: VerificationReport) -> tuple:
    """Canonical total order: identity, then p, then params."""
    return (
        _IDENTITY_RANK[r.identity],
        r.p,
        tuple(r.params.get(k, -1) for k in PARAM_ORDER),
    )


def _require_unit(ctx: PrimeContext, m: int) -> None:
    if m < 1:
        raise ValueError(f"weight m must be positive, got {m}")
    if m % ctx.p == 0:
        raise BadModulusError(f"m = {m} is a multiple of p = {ctx.p}")


def _neg_inv(ctx: PrimeContext, m: int) -> int:
    """1 / (-m) mod p for a unit m."""
    return pow(-m % ctx.p, ctx.p - 2, ctx.p)


def s_m(ctx: PrimeContext, m: int, row: BellRow | None = None) -> Residue:
    """The weighted Bell sum sum_{0<k<p} B_k / (-m)^k mod p."""
    _require_unit(ctx, m)
    p = ctx.p
    if row is None:
        row = bell_row(ctx)
    vals = row.values.tolist()
    u = _neg_inv(ctx, m)
    acc = 0
    upow = 1
    for k in range(1, p):
        upow = upow * u % p
        acc = (acc + vals[k] * upow) % p
    return Residue(acc, ctx)


def s_m_all_units(ctx: PrimeContext, row: BellRow | None = None) -> list[int]:
    """S_m for every unit weight at once, as a list indexed by m mod p
    (slot 0 unused).

    S_m is f(u) = sum_{0<k<p} B_k u^k at u = 1/(-m), and u^(p-1) = 1, so
    with a generator g and n = p - 1 the values E_j = f(g^j) form one
    length-n DFT of (B_{p-1}, B_1, ..., B_{n-1}).  Bluestein's identity
    jk = C(j+k, 2) - C(j, 2) - C(k, 2) turns it into one correlation, which
    mod_convolve computes exactly, so the whole table costs O(p log p).
    Weight m then reads E at dlog(1/(-m)) = dlog(-1) - dlog(m) (mod n).
    Raises OverflowError where the convolution would not be exact.
    """
    p = ctx.p
    if row is None:
        row = bell_row(ctx)
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
    coeffs = np.roll(row.values[1:], 1)  # B_{p-1} stands in for B_0 u^0
    x = coeffs * unchirp % p
    corr = mod_convolve(x[::-1], chirp, p)[n - 1 : 2 * n - 1]
    evals = corr * unchirp % p
    table = np.zeros(p, dtype=np.int64)
    table[1:] = evals[(n // 2 - dlog[1:]) % n]
    return table.tolist()


def s_m_many(
    ctx: PrimeContext, ms: Sequence[int], row: BellRow | None = None
) -> list[int]:
    """s_m for many weights at once; aligned with ms.

    Reads every weight from the s_m_all_units table, or takes the direct
    s_m loop per weight at a prime where that table's convolution would
    not be exact.
    """
    for m in ms:
        _require_unit(ctx, m)
    if not ms:
        return []
    if row is None:
        row = bell_row(ctx)
    try:
        table = s_m_all_units(ctx, row)
    except OverflowError:
        return [s_m(ctx, m, row).value for m in ms]
    p = ctx.p
    return [table[m % p] for m in ms]


def theorem1_rhs(
    ctx: PrimeContext,
    m: int,
    drow: DerangementRow | None = None,
    sigma: np.ndarray | None = None,
) -> Residue:
    """(-1)^(m-1) D_{m-1} mod p.

    For m - 1 < p this reads the derangement row directly.  Larger weights
    use the alternating falling-factorial series, which mod p depends on
    m - 1 only through its residue; the series carries the sign itself.
    """
    _require_unit(ctx, m)
    p = ctx.p
    n0 = m - 1
    if n0 < p:
        if drow is None:
            drow = derangement_row(ctx)
        d = int(drow.values[n0])
        return Residue(d if n0 % 2 == 0 else -d % p, ctx)
    if sigma is None:
        sigma = signed_series_row(ctx)
    return Residue(int(sigma[n0 % p]), ctx)


def verify_theorem1(
    ctx: PrimeContext,
    m: int,
    row: BellRow | None = None,
    drow: DerangementRow | None = None,
    sigma: np.ndarray | None = None,
) -> VerificationReport:
    """Check sum_{0<k<p} B_k / (-m)^k = (-1)^(m-1) D_{m-1} (mod p)."""
    lhs = s_m(ctx, m, row)
    rhs = theorem1_rhs(ctx, m, drow, sigma)
    return make_report(Identity.THEOREM1, ctx, {"m": m}, lhs.value, rhs.value)


def verify_intro_constant(
    ctx: PrimeContext, m: int = 8, row: BellRow | None = None
) -> VerificationReport:
    """Check that sum_{n=0}^{p-1} B_n / (-m)^n is the same integer mod every
    prime not dividing m: 1 + (-1)^(m-1) D_{m-1}, with D taken exactly.

    At the default weight m = 8 the constant is -1853.
    """
    _require_unit(ctx, m)
    lhs = (1 + s_m(ctx, m, row).value) % ctx.p  # the n = 0 term contributes B_0 = 1
    sign = 1 if (m - 1) % 2 == 0 else -1
    rhs = normalize(1 + sign * oracle.derangement_exact(m - 1), ctx)
    return make_report(Identity.INTRO_CONSTANT, ctx, {"m": m}, lhs, rhs.value)


def verify_corollary(
    ctx: PrimeContext,
    row: BellRow | None = None,
    drow: DerangementRow | None = None,
) -> list[VerificationReport]:
    """Check the closed form B_n = sum_{0<m<p} (-1)^m D_{m-1} (-m)^n (mod p)
    for 0 < n < p, plus the power-sum kernel it rests on:
    sum_{0<m<p} (-m)^(n-k) = -[n = k] (mod p) for 0 < n, k < p.
    """
    p = ctx.p
    if row is None:
        row = bell_row(ctx)
    if drow is None:
        drow = derangement_row(ctx)
    base = (p - np.arange(1, p, dtype=np.int64)) % p  # (-m) mod p for m = 1..p-1
    weights = drow.values[: p - 1].copy()  # D_{m-1} for m = 1..p-1
    weights[::2] = (p - weights[::2]) % p  # odd m gets the minus sign
    reports = []
    cur = np.ones(p - 1, dtype=np.int64)
    for n in range(1, p):
        cur = cur * base % p
        rhs = int(_mod_matmul(weights, cur, p))
        lhs = int(row.values[n])
        reports.append(make_report(Identity.COROLLARY, ctx, {"n": n}, lhs, rhs))
    # kernel power sums K[e] = sum_m (-m)^e
    kernel = np.zeros(max(p - 1, 1), dtype=np.int64)
    cur = np.ones(p - 1, dtype=np.int64)
    kernel[0] = (p - 1) % p
    for e in range(1, p - 1):
        cur = cur * base % p
        kernel[e] = cur.sum() % p  # p - 1 residues sum below p**2 < 2**62
    for n in range(1, p):
        for k in range(1, p):
            lhs = int(kernel[(n - k) % (p - 1)])
            rhs = (p - 1) % p if n == k else 0
            reports.append(
                make_report(Identity.COROLLARY, ctx, {"n": n, "k": k}, lhs, rhs)
            )
    return reports


def verify_eq4(
    ctx: PrimeContext, row: BellRow | None = None
) -> list[VerificationReport]:
    """Check the weighted-sum chain: S_1 = 1 and m S_m = S_1 - S_{m+1}
    (mod p) for 1 <= m <= p - 2.  Needs p >= 3 to have any chain step.
    """
    p = ctx.p
    if p < 3:
        raise BadModulusError("the chain needs p >= 3")
    if row is None:
        row = bell_row(ctx)
    svals = s_m_many(ctx, list(range(1, p)), row)
    s = dict(zip(range(1, p), svals))
    reports = [make_report(Identity.EQ4_BASE, ctx, {"m": 1}, s[1], 1 % p)]
    for m in range(1, p - 1):
        lhs = m * s[m] % p
        rhs = (s[1] - s[m + 1]) % p
        reports.append(make_report(Identity.EQ4_STEP, ctx, {"m": m}, lhs, rhs))
    return reports


def s_m_chain(ctx: PrimeContext) -> list[int]:
    """All S_m for m = 1..p-1 unrolled from the chain alone: S_1 = 1 and
    S_{m+1} = 1 - m S_m.  Returns a list indexed by m (slot 0 unused).
    No Bell number is ever computed; compare against s_m_many to close the
    loop.
    """
    p = ctx.p
    if p < 3:
        raise BadModulusError("the chain needs p >= 3")
    out = [0] * p
    out[1] = 1 % p
    for m in range(1, p - 1):
        out[m + 1] = (1 - m * out[m]) % p
    return out


def verify_bell_p(ctx: PrimeContext, row: BellRow | None = None) -> VerificationReport:
    """Check B_p = 2 (mod p).

    The left side extends the Bell row one step by the genuine binomial
    recurrence B_p = sum_k C(p-1, k) B_k; the right side is the constant.
    """
    p = ctx.p
    if row is None:
        row = bell_row(ctx)
    w = ctx.inv_fact_np * ctx.inv_fact_np[::-1] % p
    lhs = int(ctx.fact[p - 1]) * int(_mod_matmul(w, row.values, p)) % p
    return make_report(Identity.BELL_P, ctx, {}, lhs, 2 % p)


def verify_touchard(
    ctx: PrimeContext, n_max: int | None = None, row: BellRow | None = None
) -> list[VerificationReport]:
    """Check B_{p+n} = B_n + B_{n+1} (mod p) for 0 <= n <= n_max.

    Both sides go through bell_mod, so indices past p exercise the
    composed index folds against the single fold.
    """
    p = ctx.p
    if n_max is None:
        n_max = p
    if p + n_max >= p * p:
        raise IndexTooLargeError(f"n_max {n_max} needs p + n < p**2")
    if row is None:
        row = bell_row(ctx)
    reports = []
    for n in range(n_max + 1):
        lhs = bell_mod(p + n, ctx, row).value
        rhs = (bell_mod(n, ctx, row).value + bell_mod(n + 1, ctx, row).value) % p
        reports.append(make_report(Identity.TOUCHARD_EQ1, ctx, {"n": n}, lhs, rhs))
    return reports


def _weighted_power_rows(
    ctx: PrimeContext, ms: Sequence[int], table: np.ndarray
) -> np.ndarray:
    """sum_{0<n<p} table[n] u^n mod p with u = 1/(-m), one row per weight.

    table holds residues in p rows indexed by n.  Each block of WEIGHT_BLOCK
    weights is one exact product of its powers of u with table[1:].
    """
    p = ctx.p
    out = np.empty((len(ms), table.shape[1]), dtype=np.int64)
    for lo in range(0, len(ms), WEIGHT_BLOCK):
        block = ms[lo : lo + WEIGHT_BLOCK]
        for m in block:
            _require_unit(ctx, m)
        upow = powers_mod([_neg_inv(ctx, m) for m in block], p, p)
        out[lo : lo + len(block)] = _mod_matmul(upow[:, 1:], table[1:], p)
    return out


def _eval_rows(
    ctx: PrimeContext, polys: Iterable[DensePoly], xs: Sequence[int]
) -> np.ndarray:
    """Every polynomial at every point x, one row per polynomial.

    The polynomials are taken WEIGHT_BLOCK at a time, and each block gets
    one Horner pass over its stacked dense coefficients.
    """
    p = ctx.p
    x = np.array(xs, dtype=np.int64)
    rows = []
    it = iter(polys)
    while block := list(islice(it, WEIGHT_BLOCK)):
        coeffs = np.zeros((len(block), max(len(f.coeffs) for f in block)), dtype=np.int64)
        for i, f in enumerate(block):
            coeffs[i, : len(f.coeffs)] = f.coeffs
        acc = np.zeros((len(block), len(x)), dtype=np.int64)
        for col in coeffs.T[::-1]:
            acc = (acc * x + col[:, None]) % p
        rows.append(acc)
    return np.concatenate(rows)


def _inv_pow(ctx: PrimeContext, bases: Sequence[int], exps: Sequence[int]) -> np.ndarray:
    """b**(-e) mod p for every exponent e (rows) and unit b (columns)."""
    p = ctx.p
    table = powers_mod([pow(b, p - 2, p) for b in bases], p - 1, p)
    return table[:, [e % (p - 1) for e in exps]].T


def _require_points(ctx: PrimeContext, xs: Sequence[int]) -> list[int]:
    """xs reduced mod p; a multiple of p raises BadPointError."""
    p = ctx.p
    for x in xs:
        if x % p == 0:
            raise BadPointError(f"x = {x} is a multiple of p = {p}")
    return [x % p for x in xs]


def _grid_reports(
    identity: Identity, ctx: PrimeContext, ms: Sequence[int], xs: Sequence[int],
    lhs: np.ndarray, rhs: np.ndarray,
) -> list[VerificationReport]:
    """One report per (m, x), m-major, from (len(ms), len(xs)) residues."""
    return [
        make_report(identity, ctx, {"m": m, "x": x}, lv, rv)
        for m, lrow, rrow in zip(ms, lhs.tolist(), rhs.tolist())
        for x, lv, rv in zip(xs, lrow, rrow)
    ]


def weighted_touchard_sums(
    ctx: PrimeContext, ms: Sequence[int], matrix: np.ndarray | None = None
) -> list[DensePoly]:
    """sum_{0<n<p} T_n(x) / (-m)^n as a polynomial mod p for every weight
    in ms, from the coefficient matrix M[n, k] = S(n, k) mod p."""
    if matrix is None:
        matrix = touchard_coeff_matrix(ctx)
    return [DensePoly(ctx, row) for row in _weighted_power_rows(ctx, ms, matrix).tolist()]


def weighted_touchard_sum(
    ctx: PrimeContext, m: int, polys: Sequence[DensePoly] | None = None
) -> DensePoly:
    """sum_{0<n<p} T_n(x) / (-m)^n as a polynomial mod p."""
    matrix = None
    if polys is not None:
        matrix = np.array([f._padded(ctx.p) for f in polys], dtype=np.int64)
    return weighted_touchard_sums(ctx, [m], matrix)[0]


def theorem2_lhs(
    ctx: PrimeContext, m: int, polys: Sequence[DensePoly] | None = None
) -> DensePoly:
    """(-x)^m sum_{0<n<p} T_n(x) / (-m)^n as a polynomial mod p."""
    inner = weighted_touchard_sum(ctx, m, polys)
    sign = 1 if m % 2 == 0 else -1
    return inner.mul_monomial(m, sign)


def theorem2_rhs(ctx: PrimeContext, m: int) -> DensePoly:
    """-x^p sum_{l=0}^{m-1} ((m-1)!/l!) (-x)^l as a polynomial mod p.

    (m-1)!/l! is the integer product (l+1)(l+2)...(m-1), accumulated
    downward from l = m-1 with each factor reduced mod p; it is never
    formed by modular division, which would break once the factorials
    vanish.
    """
    _require_unit(ctx, m)
    p = ctx.p
    coeffs = [0] * (p + m)
    c = 1  # (m-1)!/l! at l = m-1 is the empty product
    for l in range(m - 1, -1, -1):
        coeffs[p + l] = -c % p if l % 2 == 0 else c
        if l > 0:
            c = c * (l % p) % p
    return DensePoly(ctx, coeffs)


def verify_theorem2_many(
    ctx: PrimeContext, ms: Sequence[int], sums: Sequence[DensePoly]
) -> list[VerificationReport]:
    """verify_theorem2 for every weight in ms, given their weighted
    Touchard sums from weighted_touchard_sums."""
    reports = []
    for m, inner in zip(ms, sums):
        lhs = inner.mul_monomial(m, 1 if m % 2 == 0 else -1)
        rhs = theorem2_rhs(ctx, m)
        reports.append(
            make_report(Identity.THEOREM2_POLY, ctx, {"m": m}, lhs.coeffs, rhs.coeffs)
        )
    return reports


def verify_theorem2(
    ctx: PrimeContext, m: int, polys: Sequence[DensePoly] | None = None
) -> VerificationReport:
    """Compare both sides of the polynomial congruence as coefficient
    tuples; they agree identically in x when the identity holds."""
    return verify_theorem2_many(ctx, [m], [weighted_touchard_sum(ctx, m, polys)])[0]


def verify_theorem2_eval_many(
    ctx: PrimeContext,
    ms: Sequence[int],
    xs: Sequence[int],
    values: np.ndarray | None = None,
) -> list[VerificationReport]:
    """Check the evaluated form at every weight m of ms and every point x
    of xs with p not dividing x, in m-major order:

    sum_{0<n<p} T_n(x) / (-m)^n = -x^p sum_l ((m-1)!/l!) (-x)^l / (-x)^m.

    The left side weights the tabulated T_n(x); the right side evaluates
    the closed-form polynomial, built once per m, and divides by (-x)^m.
    """
    p = ctx.p
    xs = _require_points(ctx, xs)
    if not ms or not xs:
        return []
    if values is None:
        values = touchard_value_table(ctx)
    lhs = _weighted_power_rows(ctx, ms, values[:, xs])
    num = _eval_rows(ctx, (theorem2_rhs(ctx, m) for m in ms), xs)
    rhs = num * _inv_pow(ctx, [p - x for x in xs], ms) % p
    return _grid_reports(Identity.THEOREM2_EVAL, ctx, ms, xs, lhs, rhs)


def verify_theorem2_eval(
    ctx: PrimeContext,
    m: int,
    x: int,
    values: np.ndarray | None = None,
) -> VerificationReport:
    """verify_theorem2_eval_many at one weight m and one point x."""
    return verify_theorem2_eval_many(ctx, [m], [x], values)[0]


# numerators of the displayed low-weight cases, ascending; the denominator
# of case m is x^(m-1)
_SPECIAL_NUMERATORS = {
    2: (-1, 1),
    3: (2, -2, 1),
    4: (-6, 6, -3, 1),
}


def verify_special_cases_many(
    ctx: PrimeContext, xs: Sequence[int], values: np.ndarray | None = None
) -> list[VerificationReport]:
    """Check the displayed m = 2, 3, 4 evaluations of the weighted sum
    against their hard-coded rational forms, at every point of xs coprime
    to p, in m-major order.  Weights divisible by p are skipped.
    """
    p = ctx.p
    xs = _require_points(ctx, xs)
    if not xs:
        return []
    if values is None:
        values = touchard_value_table(ctx)
    ms = [m for m in _SPECIAL_NUMERATORS if m % p]
    lhs = _weighted_power_rows(ctx, ms, values[:, xs])
    num = _eval_rows(ctx, (DensePoly(ctx, _SPECIAL_NUMERATORS[m]) for m in ms), xs)
    rhs = num * _inv_pow(ctx, xs, [m - 1 for m in ms]) % p
    return _grid_reports(Identity.SPECIAL_CASE_M, ctx, ms, xs, lhs, rhs)


def verify_special_cases(
    ctx: PrimeContext, x: int, values: np.ndarray | None = None
) -> list[VerificationReport]:
    """verify_special_cases_many at one point x."""
    return verify_special_cases_many(ctx, [x], values)


def least_positive_residue_of_neg(ctx: PrimeContext, m: int) -> int:
    """r in [1, p-1] with r = -m (mod p); the pivot index of the proofs."""
    _require_unit(ctx, m)
    return (-m) % ctx.p


def proof_intermediate(ctx: PrimeContext, m: int) -> DensePoly:
    """The closed form the weighted Touchard sum collapses to:

    sum_{0<n<p} T_n(x) / (-m)^n = ((-1)^(r+1) / r!) sum_{k=r}^{p-1}
    (-x)^k / (k-r)!  (mod p), with r the least positive residue of -m.
    """
    p = ctx.p
    r = least_positive_residue_of_neg(ctx, m)
    coeffs = [0] * p
    for k in range(r, p):
        v = ctx.inv_fact[r] * ctx.inv_fact[k - r] % p
        coeffs[k] = v if (r + 1 + k) % 2 == 0 else -v % p
    return DensePoly(ctx, coeffs)


def verify_proof_intermediate_many(
    ctx: PrimeContext, ms: Sequence[int], sums: Sequence[DensePoly]
) -> list[VerificationReport]:
    """Compare each weight's direct weighted Touchard sum, from
    weighted_touchard_sums, against its closed form."""
    reports = []
    for m, lhs in zip(ms, sums):
        r = least_positive_residue_of_neg(ctx, m)
        rhs = proof_intermediate(ctx, m).coeffs
        reports.append(
            make_report(Identity.PROOF_INTERMEDIATE, ctx, {"m": m, "r": r}, lhs.coeffs, rhs)
        )
    return reports


def verify_proof_intermediate(
    ctx: PrimeContext, m: int, polys: Sequence[DensePoly] | None = None
) -> VerificationReport:
    """Compare the direct weighted Touchard sum against its closed form."""
    return verify_proof_intermediate_many(ctx, [m], [weighted_touchard_sum(ctx, m, polys)])[0]


def verify_factorial_lemma(ctx: PrimeContext, m: int) -> list[VerificationReport]:
    """Check the two-branch reduction of (m-1)!/l! mod p for 0 <= l < m:

    it vanishes for l < m + r - p, and otherwise equals
    (-1)^(r+1) / (r! (p + l - m - r)!), with r the least positive residue
    of -m.  The left side is the bare integer product (l+1)...(m-1) with
    factors reduced mod p.
    """
    p = ctx.p
    r = least_positive_residue_of_neg(ctx, m)
    reports = []
    c = 1
    split = m + r - p
    rows = []
    for l in range(m - 1, -1, -1):
        rows.append((l, c))
        if l > 0:
            c = c * (l % p) % p
    for l, lhs in reversed(rows):
        if l < split:
            rhs = 0
        else:
            rhs = ctx.inv_fact[r] * ctx.inv_fact[p + l - m - r] % p
            if (r + 1) % 2 == 1:
                rhs = -rhs % p
        reports.append(
            make_report(Identity.FACTORIAL_LEMMA, ctx, {"m": m, "l": l, "r": r}, lhs, rhs)
        )
    return reports


def geometric_sum_lemma_check(ctx: PrimeContext, m: int) -> list[VerificationReport]:
    """Check sum_{n=1}^{p-1} (j / (-m))^n = -[p divides m + j] (mod p)
    for every j in 1..p-1, by direct accumulation of the powers.
    """
    _require_unit(ctx, m)
    p = ctx.p
    u = _neg_inv(ctx, m)
    js = np.arange(1, p, dtype=np.int64)
    q = js * u % p
    acc = np.zeros(p - 1, dtype=np.int64)
    cur = np.ones(p - 1, dtype=np.int64)
    for _ in range(1, p):
        cur = cur * q % p
        acc = (acc + cur) % p
    reports = []
    for idx, j in enumerate(range(1, p)):
        rhs = (p - 1) % p if (m + j) % p == 0 else 0
        reports.append(
            make_report(
                Identity.GEOMETRIC_SUM, ctx, {"m": m, "j": j}, int(acc[idx]), rhs
            )
        )
    return reports
