"""Prime-field scalar and polynomial arithmetic.

Everything else in the package builds on this module: verified prime
contexts carrying factorial tables, canonical residues in ``[0, p)``, and
normalized dense polynomials over GF(p).
"""

from __future__ import annotations

import math
from typing import Iterable, Union

import numpy as np

__all__ = [
    "NotPrimeError",
    "IndexTooLargeError",
    "ContextMismatchError",
    "PrimeContext",
    "Residue",
    "DensePoly",
    "make_context",
    "is_prime",
    "normalize",
    "mod_pow",
    "mod_inv",
    "binomial_mod",
    "primes_in_range",
    "primitive_root",
    "powers_mod",
    "mod_convolve",
    "CONV_EXACT_LIMIT",
]

MAX_PRIME = 2**31  # exclusive upper bound for context moduli

# NTT-friendly primes q = c * 2**k + 1, each with primitive root 3.  All are
# below 2**30, so a product of two residues fits int64.
_NTT_PRIMES = (998244353, 167772161, 469762049)
_NTT_ROOT = 3
# the largest power of two dividing every q - 1 caps the transform length
_NTT_MAX_LENGTH = 2**23

# mod_convolve is exact when every coefficient of the integer convolution is
# below this product of the NTT primes, because the CRT then recovers it
# uniquely.  With entries in [0, p) a coefficient sums at most
# min(len(a), len(b)) products, so the condition is
# min(len(a), len(b)) * (p - 1)**2 < CONV_EXACT_LIMIT.
CONV_EXACT_LIMIT = _NTT_PRIMES[0] * _NTT_PRIMES[1] * _NTT_PRIMES[2]


class NotPrimeError(ValueError):
    """Raised when a modulus fails the primality check."""


class IndexTooLargeError(ValueError):
    """Raised when a sequence index is outside the supported range."""


class ContextMismatchError(ValueError):
    """Raised when operands from different prime contexts are mixed."""


# Deterministic Miller-Rabin witness set, valid for all n < 3_215_031_751,
# which covers every modulus below MAX_PRIME.
_MR_BASES = (2, 3, 5, 7)


def is_prime(n: int) -> bool:
    """Deterministic primality test for n < 2**31."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeContext:
    """A verified prime modulus together with factorial tables.

    ``fact[i] = i! mod p`` and ``inv_fact[i]`` is its multiplicative
    inverse, for ``0 <= i < p``.  The tables are plain int tuples (used by
    scalar code, immune to overflow) plus read-only int64 array copies for
    vectorized kernels.
    """

    __slots__ = ("p", "fact", "inv_fact", "fact_np", "inv_fact_np")

    def __init__(self, p: int):
        if not isinstance(p, int) or isinstance(p, bool):
            raise NotPrimeError(f"modulus must be an int, got {p!r}")
        if p >= MAX_PRIME:
            raise OverflowError(f"modulus {p} is not below 2**31")
        if not is_prime(p):
            raise NotPrimeError(f"{p} is not prime")
        self.p = p
        fact = [1] * p
        for i in range(1, p):
            fact[i] = fact[i - 1] * i % p
        # Wilson's theorem: (p-1)! = -1 mod p.  A cheap self-check that the
        # table construction and the primality test agree.
        assert fact[p - 1] == p - 1 or p == 2
        inv_fact = [1] * p
        inv_fact[p - 1] = pow(fact[p - 1], p - 2, p)
        for i in range(p - 1, 0, -1):
            inv_fact[i - 1] = inv_fact[i] * i % p
        self.fact = tuple(fact)
        self.inv_fact = tuple(inv_fact)
        self.fact_np = np.array(fact, dtype=np.int64)
        self.inv_fact_np = np.array(inv_fact, dtype=np.int64)
        self.fact_np.setflags(write=False)
        self.inv_fact_np.setflags(write=False)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeContext) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeContext", self.p))

    def __repr__(self) -> str:
        return f"PrimeContext(p={self.p})"


def make_context(p: int) -> PrimeContext:
    """Validate p and build its context; the only way to obtain one."""
    return PrimeContext(p)


def _same_ctx(a: PrimeContext, b: PrimeContext) -> None:
    if a.p != b.p:
        raise ContextMismatchError(f"mixed moduli {a.p} and {b.p}")


ResidueLike = Union["Residue", int]


class Residue:
    """An integer in [0, p) tagged with its context.

    Arithmetic only combines residues from the same context; a plain int
    operand is reduced into the context first.
    """

    __slots__ = ("value", "ctx")

    def __init__(self, value: int, ctx: PrimeContext):
        if not 0 <= value < ctx.p:
            raise ValueError(f"{value} is not canonical modulo {ctx.p}")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "ctx", ctx)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Residue is immutable")

    def _coerce(self, other: ResidueLike) -> int:
        if isinstance(other, Residue):
            _same_ctx(self.ctx, other.ctx)
            return other.value
        if isinstance(other, int):
            return other % self.ctx.p
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: ResidueLike) -> "Residue":
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Residue((self.value + v) % self.ctx.p, self.ctx)

    __radd__ = __add__

    def __sub__(self, other: ResidueLike) -> "Residue":
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Residue((self.value - v) % self.ctx.p, self.ctx)

    def __rsub__(self, other: ResidueLike) -> "Residue":
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Residue((v - self.value) % self.ctx.p, self.ctx)

    def __mul__(self, other: ResidueLike) -> "Residue":
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Residue(self.value * v % self.ctx.p, self.ctx)

    __rmul__ = __mul__

    def __truediv__(self, other: ResidueLike) -> "Residue":
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return self * mod_inv(Residue(v, self.ctx))

    def __pow__(self, exponent: int) -> "Residue":
        return mod_pow(self, exponent)

    def __neg__(self) -> "Residue":
        return Residue(-self.value % self.ctx.p, self.ctx)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Residue):
            return other.ctx.p == self.ctx.p and other.value == self.value
        if isinstance(other, int):
            return self.value == other % self.ctx.p
        return NotImplemented

    # == equates a residue with every congruent int, so no hash can agree
    # with it: residues are unhashable
    __hash__ = None

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"Residue({self.value} mod {self.ctx.p})"


def normalize(n: int, ctx: PrimeContext) -> Residue:
    """Reduce an arbitrary (possibly negative) int into [0, p)."""
    return Residue(n % ctx.p, ctx)


def mod_pow(base: Residue, exponent: int) -> Residue:
    """base**exponent with exponent >= 0; 0**0 = 1 by convention."""
    if exponent < 0:
        raise ValueError("exponent must be nonnegative; divide instead")
    return Residue(pow(base.value, exponent, base.ctx.p), base.ctx)


def mod_inv(a: Residue) -> Residue:
    """Multiplicative inverse via Fermat; zero has none."""
    if a.value == 0:
        raise ZeroDivisionError(f"0 is not invertible modulo {a.ctx.p}")
    return Residue(pow(a.value, a.ctx.p - 2, a.ctx.p), a.ctx)


def binomial_mod(n: int, k: int, ctx: PrimeContext) -> Residue:
    """C(n, k) mod p from the factorial tables; requires 0 <= n < p."""
    if n < 0 or k < 0:
        raise ValueError("binomial arguments must be nonnegative")
    if n >= ctx.p:
        raise IndexTooLargeError(f"binomial row {n} needs n < p = {ctx.p}")
    if k > n:
        return Residue(0, ctx)
    v = ctx.fact[n] * ctx.inv_fact[k] % ctx.p * ctx.inv_fact[n - k] % ctx.p
    return Residue(v, ctx)


def primes_in_range(lo: int, hi: int) -> list[int]:
    """All primes in the inclusive range [lo, hi], via a segmented sieve."""
    if hi < lo or hi < 2:
        return []
    lo = max(lo, 2)
    if hi >= MAX_PRIME:
        raise OverflowError(f"range end {hi} is not below 2**31")
    root = math.isqrt(hi)
    base = bytearray([1]) * (root + 1)
    base[0:2] = b"\x00" * len(base[0:2])
    for i in range(2, math.isqrt(root) + 1):
        if base[i]:
            base[i * i :: i] = b"\x00" * len(base[i * i :: i])
    small = [i for i in range(2, root + 1) if base[i]]
    seg = bytearray([1]) * (hi - lo + 1)
    for q in small:
        start = max(q * q, (lo + q - 1) // q * q)
        seg[start - lo :: q] = b"\x00" * len(seg[start - lo :: q])
    return [lo + i for i, flag in enumerate(seg) if flag]


def primitive_root(p: int) -> int:
    """The least generator of GF(p)* for a prime p.

    g generates exactly when g**((p-1)/q) != 1 for every prime q dividing
    p - 1; the primes come from trial division of p - 1.
    """
    n = p - 1
    factors = []
    rest = n
    q = 2
    while q * q <= rest:
        if rest % q == 0:
            factors.append(q)
            while rest % q == 0:
                rest //= q
        q += 1
    if rest > 1:
        factors.append(rest)
    for g in range(1, p):
        if all(pow(g, n // q, p) != 1 for q in factors):
            return g
    raise NotPrimeError(f"{p} has no primitive root")


def powers_mod(base, count: int, mod) -> np.ndarray:
    """base**i % mod for 0 <= i < count, as int64.

    ``base`` and ``mod`` are ints, or equal-shaped int arrays giving one row
    of powers each; every modulus must be below 2**31 so that products of
    residues fit int64.  The table doubles per numpy step, so the work is
    O(count) in O(log count) steps.
    """
    mod = np.asarray(mod, dtype=np.int64)[..., None]
    step = np.asarray(base, dtype=np.int64)[..., None] % mod
    out = np.empty(step.shape[:-1] + (count,), dtype=np.int64)
    filled = min(count, 1)
    out[..., :filled] = 1 % mod
    while filled < count:
        take = min(filled, count - filled)
        out[..., filled : filled + take] = out[..., :take] * step % mod
        filled += take
        step = step * step % mod
    return out


def _ntt_forward(a: np.ndarray, w: np.ndarray, q: np.ndarray) -> None:
    """In-place decimation-in-frequency NTT along the last axis.

    a has shape (..., 3, n) with one row per NTT prime, w[:, i] is the
    i-th power of that prime's primitive n-th root for i < n/2, and q is
    the primes as a (3, 1) column.  Output is in bit-reversed order.
    """
    n = a.shape[-1]
    qb = q[:, :, None]
    h = n // 2
    while h >= 1:
        blocks = a.reshape(a.shape[:-1] + (n // (2 * h), 2, h))
        u, v = blocks[..., 0, :], blocks[..., 1, :]
        total = (u + v) % qb
        diff = (u - v + qb) * w[:, None, :: n // (2 * h)] % qb
        blocks[..., 0, :] = total
        blocks[..., 1, :] = diff
        h //= 2


def _ntt_inverse(a: np.ndarray, w: np.ndarray, q: np.ndarray) -> None:
    """In-place decimation-in-time transform, undoing _ntt_forward up to the
    factor n when w holds the inverse roots; takes bit-reversed input."""
    n = a.shape[-1]
    qb = q[:, :, None]
    h = 1
    while h < n:
        blocks = a.reshape(a.shape[:-1] + (n // (2 * h), 2, h))
        u = blocks[..., 0, :]
        t = blocks[..., 1, :] * w[:, None, :: n // (2 * h)] % qb
        total = (u + t) % qb
        diff = (u - t) % qb
        blocks[..., 0, :] = total
        blocks[..., 1, :] = diff
        h *= 2


def mod_convolve(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """The linear convolution of two residue vectors, reduced mod p.

    Entries must lie in [0, p) with p < 2**31.  The integer convolution is
    taken by number-theoretic transforms modulo the three NTT primes and
    recombined by the CRT, with integer arithmetic only, so the result is
    exact whenever min(len(a), len(b)) * (p - 1)**2 < CONV_EXACT_LIMIT;
    OverflowError is raised when that bound or the transform length cap
    fails.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    la, lb = a.shape[0], b.shape[0]
    if la == 0 or lb == 0:
        return np.zeros(0, dtype=np.int64)
    if p >= MAX_PRIME:
        raise OverflowError(f"modulus {p} is not below 2**31")
    for v in (a, b):
        if v.min() < 0 or v.max() >= p:
            raise ValueError(f"entries must be residues in [0, {p})")
    if min(la, lb) * (p - 1) ** 2 >= CONV_EXACT_LIMIT:
        raise OverflowError(
            f"a length-{min(la, lb)} convolution mod {p} can exceed CONV_EXACT_LIMIT"
        )
    size = la + lb - 1
    n = 1 << (size - 1).bit_length()
    if n > _NTT_MAX_LENGTH:
        raise OverflowError(f"transform length {n} exceeds {_NTT_MAX_LENGTH}")

    q = np.array(_NTT_PRIMES, dtype=np.int64)[:, None]
    roots = [pow(_NTT_ROOT, (qi - 1) // n, qi) for qi in _NTT_PRIMES]
    inv_roots = [pow(r, -1, qi) for r, qi in zip(roots, _NTT_PRIMES)]
    w = powers_mod(roots, n // 2, _NTT_PRIMES)
    w_inv = powers_mod(inv_roots, n // 2, _NTT_PRIMES)

    spec = np.zeros((2, 3, n), dtype=np.int64)
    spec[0, :, :la] = a % q
    spec[1, :, :lb] = b % q
    _ntt_forward(spec, w, q)
    prod = spec[0] * spec[1] % q
    _ntt_inverse(prod, w_inv, q)
    n_inv = np.array([[pow(n, -1, qi)] for qi in _NTT_PRIMES], dtype=np.int64)
    r = prod[:, :size] * n_inv % q

    # Garner: c = x1 + x2*q1 + x3*q1*q2 with x_i in [0, q_i); every product
    # below stays under 2**61.
    q1, q2, q3 = _NTT_PRIMES
    x1 = r[0]
    x2 = (r[1] - x1) % q2 * pow(q1, -1, q2) % q2
    x3 = ((r[2] - x1) % q3 - x2 * (q1 % q3)) % q3 * pow(q1 * q2, -1, q3) % q3
    return (x1 % p + x2 * (q1 % p) % p + x3 * (q1 * q2 % p) % p) % p


def _coeff_value(c: ResidueLike, ctx: PrimeContext) -> int:
    """A non-int coefficient reduced into ctx; a Residue must belong to it."""
    if isinstance(c, Residue):
        _same_ctx(ctx, c.ctx)
    return int(c) % ctx.p


class DensePoly:
    """Dense polynomial over one prime context.

    Coefficients are stored ascending by degree with trailing zeros
    stripped; the zero polynomial is the empty tuple and has degree -1.
    """

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: PrimeContext, coeffs: Iterable[ResidueLike] = ()):
        p = ctx.p
        vals = [c % p if c.__class__ is int else _coeff_value(c, ctx) for c in coeffs]
        while vals and vals[-1] == 0:
            vals.pop()
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "coeffs", tuple(vals))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("DensePoly is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def _padded(self, size: int) -> list[int]:
        out = list(self.coeffs)
        out.extend(0 for _ in range(size - len(out)))
        return out

    def add(self, other: "DensePoly") -> "DensePoly":
        _same_ctx(self.ctx, other.ctx)
        size = max(len(self.coeffs), len(other.coeffs))
        a, b = self._padded(size), other._padded(size)
        return DensePoly(self.ctx, [x + y for x, y in zip(a, b)])

    def sub(self, other: "DensePoly") -> "DensePoly":
        _same_ctx(self.ctx, other.ctx)
        size = max(len(self.coeffs), len(other.coeffs))
        a, b = self._padded(size), other._padded(size)
        return DensePoly(self.ctx, [x - y for x, y in zip(a, b)])

    def scale(self, c: ResidueLike) -> "DensePoly":
        if isinstance(c, Residue):
            _same_ctx(self.ctx, c.ctx)
        v = int(c) % self.ctx.p
        return DensePoly(self.ctx, [v * x for x in self.coeffs])

    def mul(self, other: "DensePoly") -> "DensePoly":
        _same_ctx(self.ctx, other.ctx)
        if self.is_zero() or other.is_zero():
            return DensePoly(self.ctx)
        p = self.ctx.p
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = (out[i + j] + a * b) % p
        return DensePoly(self.ctx, out)

    def mul_monomial(self, k: int, c: ResidueLike = 1) -> "DensePoly":
        """Multiply by c * x**k."""
        if k < 0:
            raise ValueError("monomial degree must be nonnegative")
        if isinstance(c, Residue):
            _same_ctx(self.ctx, c.ctx)
        v = int(c) % self.ctx.p
        return DensePoly(self.ctx, [0] * k + [v * x for x in self.coeffs])

    def eval(self, x: ResidueLike) -> Residue:
        if isinstance(x, Residue):
            _same_ctx(self.ctx, x.ctx)
        p = self.ctx.p
        xv = int(x) % p
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * xv + c) % p
        return Residue(acc, self.ctx)

    def equals(self, other: "DensePoly") -> bool:
        _same_ctx(self.ctx, other.ctx)
        return self.coeffs == other.coeffs

    def __add__(self, other: "DensePoly") -> "DensePoly":
        return self.add(other)

    def __sub__(self, other: "DensePoly") -> "DensePoly":
        return self.sub(other)

    def __mul__(self, other: "DensePoly") -> "DensePoly":
        return self.mul(other)

    def __neg__(self) -> "DensePoly":
        return self.scale(-1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DensePoly):
            return NotImplemented
        return other.ctx.p == self.ctx.p and other.coeffs == self.coeffs

    def __hash__(self) -> int:
        return hash((self.coeffs, self.ctx.p))

    def __repr__(self) -> str:
        return f"DensePoly(p={self.ctx.p}, coeffs={list(self.coeffs)})"

