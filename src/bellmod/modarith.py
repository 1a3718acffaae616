"""Prime-field arithmetic on plain ints and int64 arrays.

Everything else in the package builds on this module: verified prime
contexts carrying factorial tables, binomials mod p, the prime sieve and
primitive roots, and exact convolution of residue vectors, taken as one
product of two decimal integers (Kronecker substitution) in the standard
library's ``decimal``.  A residue is a plain int in ``[0, p)``.
"""

from __future__ import annotations

import decimal
import math
from itertools import accumulate
import numpy as np

__all__ = [
    "NotPrimeError",
    "IndexTooLargeError",
    "PrimeContext",
    "make_context",
    "is_prime",
    "binomial_mod",
    "primes_in_range",
    "primitive_root",
    "powers_mod",
    "mod_convolve",
]

MAX_PRIME = 2**31  # exclusive upper bound for context moduli

# Exact decimal arithmetic for mod_convolve's one product: a result that
# would need rounding raises instead of being returned.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation],
)


class NotPrimeError(ValueError):
    """Raised when a modulus fails the primality check."""


class IndexTooLargeError(ValueError):
    """Raised when a sequence index is outside the supported range."""


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
    inverse, for ``0 <= i < p``, as read-only int64 arrays.  Scalar code
    takes ``int()`` of the entries it reads, so its residues stay Python
    ints.
    """

    __slots__ = ("p", "fact", "inv_fact")

    def __init__(self, p: int):
        if not isinstance(p, int) or isinstance(p, bool):
            raise NotPrimeError(f"modulus must be an int, got {p!r}")
        if p >= MAX_PRIME:
            raise OverflowError(f"modulus {p} is not below 2**31")
        if not is_prime(p):
            raise NotPrimeError(f"{p} is not prime")
        self.p = p
        self.fact = np.fromiter(accumulate(range(1, p), lambda f, i: f * i % p, initial=1), np.int64, p)
        # Wilson's theorem: (p-1)! = -1 mod p.  A cheap self-check that the
        # table construction and the primality test agree.
        assert self.fact[p - 1] == p - 1 or p == 2
        # Wilson again: i! (p-1-i)! = (-1)^(i+1), so 1/i! is (p-1-i)!,
        # negated at even i; every entry is a unit, so p - x needs no %
        self.inv_fact = self.fact[::-1].copy()
        np.subtract(p, self.inv_fact[0::2], out=self.inv_fact[0::2])
        self.fact.setflags(write=False)
        self.inv_fact.setflags(write=False)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeContext) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeContext", self.p))

    def __repr__(self) -> str:
        return f"PrimeContext(p={self.p})"


def make_context(p: int) -> PrimeContext:
    """Validate p and build its context; the same as ``PrimeContext(p)``."""
    return PrimeContext(p)


def binomial_mod(n: int, k: int, ctx: PrimeContext) -> int:
    """C(n, k) mod p from the factorial tables; requires 0 <= n < p."""
    if n < 0 or k < 0:
        raise ValueError("binomial arguments must be nonnegative")
    if n >= ctx.p:
        raise IndexTooLargeError(f"binomial row {n} needs n < p = {ctx.p}")
    if k > n:
        return 0
    return int(ctx.fact[n]) * int(ctx.inv_fact[k]) % ctx.p * int(ctx.inv_fact[n - k]) % ctx.p


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


def _pack(v: np.ndarray, d: int, p: int) -> decimal.Decimal:
    """sum v[i] * 10**(d * i) as one Decimal: the digits of each residue
    written into its own d-digit slot, the last entry's slot first."""
    cells = np.zeros((len(v), d), dtype=np.uint8)
    rest = v[::-1]
    for j in range(1, len(str(p - 1)) + 1):
        rest, cells[:, -j] = np.divmod(rest, 10)
    cells += ord("0")
    return decimal.Decimal(str(cells, "ascii"))


def mod_convolve(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """The linear convolution of two residue vectors, reduced mod p.

    Entries must lie in [0, p) with p < 2**31.  By Kronecker substitution
    each vector becomes one integer, its entries in slots of d decimal
    digits, d the length of min(len(a), len(b)) * (p - 1)**2.  A coefficient
    of the integer convolution sums at most min(len(a), len(b)) products
    below (p - 1)**2, so it is below 10**d and no slot carries into the
    next: the one product of the two integers holds every coefficient in its
    own slot.  _EXACT traps rounding, so a product it cannot hold exactly
    raises rather than returns.  Each slot is read back mod p digit by
    digit, every partial value below 10 * p, which fits int64.
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
    d = len(str(min(la, lb) * (p - 1) ** 2))
    size = la + lb - 1
    text = str(_EXACT.multiply(_pack(a, d, p), _pack(b, d, p))).zfill(size * d).encode()
    cells = np.frombuffer(text, dtype=np.uint8).reshape(size, d)[::-1]  # the top slot comes first
    out = np.zeros(size, dtype=np.int64)
    for j in range(d):
        out = (10 * out + cells[:, j] - ord("0")) % p
    return out
