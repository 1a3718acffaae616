"""Prime-field arithmetic on plain ints and int64 arrays.

Everything else in the package builds on this module: verified prime
contexts carrying factorial tables, binomials mod p, the prime sieve and
primitive roots, and exact convolution of residue vectors.  A residue is
a plain int in ``[0, p)``.
"""

from __future__ import annotations

import bisect
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
    "ntt_plan",
    "CONV_EXACT_LIMIT",
]

MAX_PRIME = 2**31  # exclusive upper bound for context moduli

# NTT-friendly primes q = c * 2**k + 1, each with primitive root 3, largest
# first.  All are below 2**30, so a product of two residues fits int64.
_NTT_PRIMES = (998244353, 469762049, 167772161)
_NTT_ROOT = 3
# the largest power of two dividing every q - 1 caps the transform length
_NTT_MAX_LENGTH = 2**23
# _NTT_PRODUCTS[k - 1] is the product of the first k NTT primes
_NTT_PRODUCTS = tuple(math.prod(_NTT_PRIMES[:k]) for k in range(1, len(_NTT_PRIMES) + 1))

# A convolution taken modulo the first k NTT primes is exact when every
# coefficient of the integer convolution is below their product, because the
# CRT then recovers it uniquely.  With entries in [0, p) a coefficient sums
# at most min(len(a), len(b)) products, so k primes suffice when
# min(len(a), len(b)) * (p - 1)**2 < _NTT_PRODUCTS[k - 1], and mod_convolve
# is exact whenever min(len(a), len(b)) * (p - 1)**2 < CONV_EXACT_LIMIT.
CONV_EXACT_LIMIT = _NTT_PRODUCTS[-1]


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
    """Validate p and build its context; the only way to obtain one."""
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


def _ntt_forward(a: np.ndarray, w: np.ndarray, q: np.ndarray) -> None:
    """In-place decimation-in-frequency NTT along the last axis.

    a has shape (..., k, n) with one row per NTT prime, w[:, i] is the
    i-th power of that prime's primitive n-th root for i < n/2, and q is
    the k primes as a (k, 1) column.  Output is in bit-reversed order.
    Each butterfly writes into a or into one scratch array.  A difference
    is offset by q before it is reduced: numpy's % is exact on a negative
    dividend too, but about 3x slower there.
    """
    n = a.shape[-1]
    qb = q[:, :, None]
    scratch = np.empty(a.shape[:-1] + (n // 2,), dtype=np.int64)
    h = n // 2
    while h >= 1:
        blocks = a.reshape(a.shape[:-1] + (n // (2 * h), 2, h))
        u, v = blocks[..., 0, :], blocks[..., 1, :]
        t = scratch.reshape(u.shape)
        tw = np.ascontiguousarray(w[:, None, :: n // (2 * h)])
        np.subtract(u, v, out=t)
        np.add(t, qb, out=t)
        np.add(u, v, out=u)
        np.remainder(u, qb, out=u)
        np.multiply(t, tw, out=t)
        np.remainder(t, qb, out=v)
        h //= 2


def _ntt_inverse(a: np.ndarray, w: np.ndarray, q: np.ndarray) -> None:
    """In-place decimation-in-time transform, undoing _ntt_forward up to the
    factor n when w holds the inverse roots; takes bit-reversed input.
    Writes and offsets as _ntt_forward does."""
    n = a.shape[-1]
    qb = q[:, :, None]
    scratch = np.empty(a.shape[:-1] + (n // 2,), dtype=np.int64)
    h = 1
    while h < n:
        blocks = a.reshape(a.shape[:-1] + (n // (2 * h), 2, h))
        u, v = blocks[..., 0, :], blocks[..., 1, :]
        t = scratch.reshape(u.shape)
        tw = np.ascontiguousarray(w[:, None, :: n // (2 * h)])
        np.multiply(v, tw, out=t)
        np.remainder(t, qb, out=t)
        np.subtract(u, t, out=v)
        np.add(v, qb, out=v)
        np.remainder(v, qb, out=v)
        np.add(u, t, out=u)
        np.remainder(u, qb, out=u)
        h *= 2


def ntt_plan(la: int, lb: int, p: int) -> tuple[int, int]:
    """The transform length and the number of NTT primes with which
    mod_convolve takes nonempty vectors of lengths la and lb mod p.  It
    reads the sizes alone, so a caller can refuse a convolution before it
    builds the inputs.  OverflowError where p is not below 2**31, where
    min(la, lb) * (p - 1)**2 reaches CONV_EXACT_LIMIT, or where the
    transform would be longer than _NTT_MAX_LENGTH."""
    if p >= MAX_PRIME:
        raise OverflowError(f"modulus {p} is not below 2**31")
    bound = min(la, lb) * (p - 1) ** 2
    if bound >= CONV_EXACT_LIMIT:
        raise OverflowError(
            f"a length-{min(la, lb)} convolution mod {p} can exceed CONV_EXACT_LIMIT"
        )
    n = 1 << (la + lb - 2).bit_length()
    if n > _NTT_MAX_LENGTH:
        raise OverflowError(f"transform length {n} exceeds {_NTT_MAX_LENGTH}")
    return n, bisect.bisect_right(_NTT_PRODUCTS, bound) + 1


def mod_convolve(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """The linear convolution of two residue vectors, reduced mod p.

    Entries must lie in [0, p) with p < 2**31.  The integer convolution is
    taken by number-theoretic transforms modulo the fewest leading NTT
    primes whose product exceeds min(len(a), len(b)) * (p - 1)**2, and
    recombined by the CRT, with integer arithmetic only, so the result is
    exact whenever min(len(a), len(b)) * (p - 1)**2 < CONV_EXACT_LIMIT;
    ntt_plan raises OverflowError when that bound or the transform length
    cap fails.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    la, lb = a.shape[0], b.shape[0]
    if la == 0 or lb == 0:
        return np.zeros(0, dtype=np.int64)
    n, primes = ntt_plan(la, lb, p)
    for v in (a, b):
        if v.min() < 0 or v.max() >= p:
            raise ValueError(f"entries must be residues in [0, {p})")
    size = la + lb - 1

    qs = _NTT_PRIMES[:primes]
    q = np.array(qs, dtype=np.int64)[:, None]
    roots = [pow(_NTT_ROOT, (qi - 1) // n, qi) for qi in qs]
    inv_roots = [pow(r, -1, qi) for r, qi in zip(roots, qs)]
    w = powers_mod(roots, n // 2, qs)
    w_inv = powers_mod(inv_roots, n // 2, qs)

    spec = np.zeros((2, len(qs), n), dtype=np.int64)
    spec[0, :, :la] = a % q
    spec[1, :, :lb] = b % q
    _ntt_forward(spec, w, q)
    # the pointwise product and the 1/n scaling overwrite spec[0], so the
    # transform's peak memory is spec and the butterflies' scratch
    prod = spec[0]
    np.multiply(prod, spec[1], out=prod)
    np.remainder(prod, q, out=prod)
    _ntt_inverse(prod, w_inv, q)
    n_inv = np.array([[pow(n, -1, qi)] for qi in qs], dtype=np.int64)
    r = prod[:, :size]
    np.multiply(r, n_inv, out=r)
    np.remainder(r, q, out=r)

    # Garner: c = x_0 + x_1 Q_1 + x_2 Q_2 + ... with Q_i = q_0 ... q_{i-1}
    # and digits x_i in [0, q_i).  Once digit x_i is known, row j > i of r
    # becomes (r_j - x_i) / q_i mod q_j, so row i + 1 is the next digit.
    # The difference is offset by the least multiple of q_j that is at least
    # q_0 > x_i, which keeps the dividend of % nonnegative, as the butterflies
    # keep theirs, and its residue unchanged.  Every product stays under 2**61.
    out = np.zeros(size, dtype=np.int64)
    big = 1  # Q_i
    for i, qi in enumerate(qs):
        x = r[i]
        for j in range(i + 1, len(qs)):
            offset = qs[j] * -(-qs[0] // qs[j])
            r[j] = (r[j] - x + offset) % qs[j] * pow(qi, -1, qs[j]) % qs[j]
        out = (out + x * (big % p)) % p
        big *= qi
    return out
