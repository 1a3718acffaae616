import decimal
import random
import tracemalloc

import numpy as np
import pytest

from bellmod import modarith
from bellmod.modarith import (
    IndexTooLargeError,
    NotPrimeError,
    binomial_mod,
    is_prime,
    make_context,
    mod_convolve,
    powers_mod,
    primes_in_range,
    primitive_root,
)

SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
                61, 67, 71, 73, 79, 83, 89, 97]


def test_make_context_tables():
    ctx = make_context(7)
    assert list(ctx.fact) == [1, 1, 2, 6, 3, 1, 6]
    assert ctx.fact[6] == 6  # Wilson: (p-1)! = -1
    assert list(make_context(2).fact) == [1, 1]
    for p in primes_in_range(2, 3000) + [9949, 9967, 9973]:
        ctx = make_context(p)
        running = [1]
        for i in range(1, p):
            running.append(running[-1] * i % p)
        assert ctx.fact.tolist() == running, p
        assert (ctx.fact * ctx.inv_fact % p == 1).all(), p


def test_make_context_peak_memory():
    """The context holds two int64 tables of p entries and builds them with
    no p-entry Python list beside them: at most 24 bytes per entry."""
    p = 99991
    make_context(p)  # imports and caches warmed outside the trace
    tracemalloc.start()
    try:
        make_context(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * p, peak / p


def test_make_context_rejections():
    for bad in (0, 1, 4, 9, 15, 100):
        with pytest.raises(NotPrimeError):
            make_context(bad)
    with pytest.raises(OverflowError):
        make_context(2**31)
    with pytest.raises(OverflowError):
        make_context(2**31 + 11)
    for bad in (True, 7.0, "7"):
        with pytest.raises(NotPrimeError, match="modulus must be an int"):
            make_context(bad)


def test_context_equality_and_hash():
    """Contexts are equal, and hash equal, exactly when their primes are,
    so a set or dict keyed by contexts holds one per prime."""
    a, b = make_context(7), make_context(7)
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != make_context(11) and a != 7
    assert repr(a) == "PrimeContext(p=7)"


def test_is_prime_against_trial_division():
    def trial(n):
        if n < 2:
            return False
        d = 2
        while d * d <= n:
            if n % d == 0:
                return False
            d += 1
        return True

    for n in range(0, 2000):
        assert is_prime(n) == trial(n), n
    # largest 31-bit prime, and a known strong-pseudoprime trap for base 2
    assert is_prime(2**31 - 1)
    assert not is_prime(2047)


def test_wilson_and_fermat_all_small_primes():
    for p in primes_in_range(2, 100):
        ctx = make_context(p)
        assert ctx.fact[p - 1] == p - 1 or p == 2


def test_binomial_examples():
    ctx7 = make_context(7)
    assert binomial_mod(4, 2, ctx7) == 6
    assert binomial_mod(3, 5, ctx7) == 0  # k > n
    for n in range(7):
        assert binomial_mod(n, 0, ctx7) == 1
    with pytest.raises(IndexTooLargeError):
        binomial_mod(7, 2, ctx7)
    with pytest.raises(ValueError):
        binomial_mod(-1, 0, ctx7)


def test_binomial_pascal_identity():
    for p in primes_in_range(2, 50):
        ctx = make_context(p)
        for n in range(1, p):
            for k in range(1, n + 1):
                lhs = binomial_mod(n, k, ctx)
                rhs = (binomial_mod(n - 1, k - 1, ctx) + binomial_mod(n - 1, k, ctx)) % p
                assert lhs == rhs


def test_primes_in_range():
    assert primes_in_range(2, 20) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert primes_in_range(24, 28) == []
    assert primes_in_range(7, 7) == [7]
    assert primes_in_range(0, 1) == []
    assert primes_in_range(10, 2) == []
    assert primes_in_range(0, 300) == [n for n in range(301) if is_prime(n)]
    assert primes_in_range(9970, 9980) == [9973]


def test_primitive_root():
    for p in SMALL_PRIMES + [1009]:
        g = primitive_root(p)
        orders = [len({pow(h, e, p) for e in range(p - 1)}) for h in range(1, g + 1)]
        assert orders[-1] == p - 1, p  # g generates GF(p)*
        assert all(k < p - 1 for k in orders[:-1]), p  # and is the least one
    for q in (998244353, 469762049, 167772161):
        assert primitive_root(q) == 3


def test_powers_mod():
    for base, mod in ((3, 7), (0, 5), (10, 11), (2**31 - 2, 2**31 - 1)):
        for count in (0, 1, 2, 3, 17):
            assert powers_mod(base, count, mod).tolist() == [
                pow(base, e, mod) for e in range(count)
            ]
    rows = powers_mod([2, 3], 6, [5, 7])
    assert rows.tolist() == [[pow(2, e, 5) for e in range(6)], [pow(3, e, 7) for e in range(6)]]


def _exact_convolution(a, b):
    return np.convolve(np.array(a, dtype=object), np.array(b, dtype=object)).tolist()


def test_mod_convolve_matches_exact_convolution():
    rng = random.Random(5)
    for p in (2, 3, 101, 9973, 2**31 - 1):
        # the whole range, then the top of it: entries near 2**31 at the last p
        for lo in (0, max(0, p - 1000)):
            for la, lb in ((1, 1), (1, 7), (5, 2), (33, 64), (300, 1000)):
                a = [rng.randrange(lo, p) for _ in range(la)]
                b = [rng.randrange(lo, p) for _ in range(lb)]
                got = mod_convolve(a, b, p).tolist()
                assert got == [c % p for c in _exact_convolution(a, b)], (p, lo, la, lb)
    assert mod_convolve([], [1, 2], 7).tolist() == []


def test_mod_convolve_long_extreme_vectors():
    # every entry p - 1 near 2**31 gives the largest coefficients, up to
    # 2**15 * (p - 1)**2 ~ 2**77, far past int64; each is (p-1)**2 times
    # its number of terms
    p, length = 2**31 - 1, 2**15
    top = np.full(length, p - 1, dtype=np.int64)
    got = mod_convolve(top, top, p).tolist()
    terms = [min(t + 1, 2 * length - 1 - t) for t in range(2 * length - 1)]
    assert got == [(p - 1) ** 2 * k % p for k in terms]


@pytest.mark.parametrize("p, length", [(101, 100), (3001, 64), (4999, 64), (100000007, 64)])
def test_mod_convolve_slot_width(p, length):
    # all-(p-1) inputs make the middle coefficients exactly the bound
    # min(len) * (p-1)**2, which has d digits, the slot width; at p = 101
    # it is 10**6, so a slot one digit short carries into the next
    a, b = [p - 1] * length, [p - 1] * 100
    exact = _exact_convolution(a, b)
    assert max(exact) == length * (p - 1) ** 2
    assert mod_convolve(a, b, p).tolist() == [c % p for c in exact]


def test_mod_convolve_bounds():
    p = 101
    b = [p - 1] * 9
    with pytest.raises(ValueError):
        mod_convolve([p], b, p)
    with pytest.raises(ValueError):
        mod_convolve([-1], b, p)
    with pytest.raises(OverflowError):
        mod_convolve([1], [1], 2**31)


def test_mod_convolve_never_rounds(monkeypatch):
    # at a precision of six digits, a 6-digit product is still exact and a
    # 15-digit one must raise rather than round
    monkeypatch.setattr(modarith._EXACT, "prec", 6)
    assert mod_convolve([1, 2], [3], 101).tolist() == [3, 6]
    with pytest.raises(decimal.DecimalException):
        mod_convolve([100, 100], [100, 100], 101)
