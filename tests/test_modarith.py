import random

import numpy as np
import pytest

from bellmod import modarith
from bellmod.modarith import (
    ContextMismatchError,
    DensePoly,
    IndexTooLargeError,
    NotPrimeError,
    Residue,
    binomial_mod,
    is_prime,
    make_context,
    mod_convolve,
    mod_inv,
    mod_pow,
    normalize,
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
    for p in SMALL_PRIMES:
        ctx = make_context(p)
        for i in range(p):
            assert ctx.fact[i] * ctx.inv_fact[i] % p == 1


def test_make_context_rejections():
    for bad in (0, 1, 4, 9, 15, 100):
        with pytest.raises(NotPrimeError):
            make_context(bad)
    with pytest.raises(OverflowError):
        make_context(2**31)
    with pytest.raises(OverflowError):
        make_context(2**31 + 11)


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
        for a in range(1, p):
            assert mod_pow(Residue(a, ctx), p - 1).value == 1


def test_mod_pow_examples():
    ctx7 = make_context(7)
    assert mod_pow(Residue(2, ctx7), 6).value == 1
    assert mod_pow(Residue(5, ctx7), 3).value == 6
    assert mod_pow(Residue(3, make_context(5)), 0).value == 1
    with pytest.raises(ValueError):
        mod_pow(Residue(2, ctx7), -1)


def test_mod_inv():
    ctx7 = make_context(7)
    assert mod_inv(Residue(3, ctx7)).value == 5
    for p in primes_in_range(2, 100):
        ctx = make_context(p)
        assert mod_inv(Residue(1, ctx)).value == 1
        for a in range(1, p):
            assert (mod_inv(Residue(a, ctx)) * a).value == 1
    with pytest.raises(ZeroDivisionError):
        mod_inv(Residue(0, make_context(5)))


def test_normalize():
    assert normalize(-8, make_context(3)).value == 1
    assert normalize(-1853, make_context(3)).value == 1
    assert normalize(-1853, make_context(5)).value == 2
    assert normalize(0, make_context(11)).value == 0
    assert normalize(22, make_context(11)).value == 0


def test_binomial_examples():
    ctx7 = make_context(7)
    assert binomial_mod(4, 2, ctx7).value == 6
    assert binomial_mod(3, 5, ctx7).value == 0  # k > n
    for n in range(7):
        assert binomial_mod(n, 0, ctx7).value == 1
    with pytest.raises(IndexTooLargeError):
        binomial_mod(7, 2, ctx7)
    with pytest.raises(ValueError):
        binomial_mod(-1, 0, ctx7)


def test_binomial_pascal_identity():
    for p in primes_in_range(2, 50):
        ctx = make_context(p)
        for n in range(1, p):
            for k in range(1, n + 1):
                lhs = binomial_mod(n, k, ctx).value
                rhs = (
                    binomial_mod(n - 1, k - 1, ctx).value
                    + binomial_mod(n - 1, k, ctx).value
                ) % p
                assert lhs == rhs


def test_primes_in_range():
    assert primes_in_range(2, 20) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert primes_in_range(24, 28) == []
    assert primes_in_range(7, 7) == [7]
    assert primes_in_range(0, 1) == []
    assert primes_in_range(10, 2) == []
    assert primes_in_range(0, 300) == [n for n in range(301) if is_prime(n)]
    assert primes_in_range(9970, 9980) == [9973]


def test_residue_arithmetic():
    ctx = make_context(7)
    a, b = Residue(3, ctx), Residue(5, ctx)
    assert (a + b).value == 1
    assert (a - b).value == 5
    assert (b - a).value == 2
    assert (a * b).value == 1
    assert (a / b).value == (a * mod_inv(b)).value
    assert (-a).value == 4
    assert (a**3).value == 6
    assert a + 4 == 0
    assert 4 + a == 0
    assert 1 - a == 5
    assert a == 3 and a == 10 and a == -4
    assert int(a) == 3
    with pytest.raises(ValueError):
        Residue(7, ctx)
    with pytest.raises(ValueError):
        Residue(-1, ctx)


def test_residue_is_unhashable():
    # a == 3 and a == 10 both hold, so no hash could agree with ==
    ctx = make_context(7)
    a = Residue(3, ctx)
    with pytest.raises(TypeError):
        hash(a)
    with pytest.raises(TypeError):
        {a, 3}
    assert a == 3 and a == 10


def test_residue_context_guard():
    a = Residue(3, make_context(5))
    b = Residue(3, make_context(7))
    with pytest.raises(ContextMismatchError):
        a + b
    with pytest.raises(ContextMismatchError):
        a * b
    assert a != b


def test_poly_basics():
    ctx = make_context(5)
    one_x = DensePoly(ctx, (1, 1))
    neg = DensePoly(ctx, (-1, -1))
    assert one_x.add(neg).is_zero()
    assert DensePoly(ctx).degree == -1
    assert DensePoly(ctx, (0, 0, 0)).is_zero()
    assert DensePoly(ctx, (1, 0, 2)).degree == 2
    assert DensePoly(ctx, (1, 0, 1)).eval(3).value == 0  # 9 + 1 = 10
    shifted = one_x.mul_monomial(2)
    assert list(shifted.coeffs) == [0, 0, 1, 1]  # x^2 + x^3
    assert one_x.scale(3).coeffs == (3, 3)
    assert one_x.mul(one_x).coeffs == (1, 2, 1)
    assert one_x.eval(Residue(4, ctx)).value == 0
    assert one_x.sub(one_x).is_zero()


def test_poly_algebra_properties():
    rng = random.Random(20260814)
    for p in (2, 5, 13):
        ctx = make_context(p)

        def rand_poly():
            deg = rng.randrange(0, 6)
            return DensePoly(ctx, [rng.randrange(p) for _ in range(deg + 1)])

        for _ in range(40):
            a, b, c = rand_poly(), rand_poly(), rand_poly()
            assert a.add(b).equals(b.add(a))
            assert a.mul(b).equals(b.mul(a))
            assert a.add(b).add(c).equals(a.add(b.add(c)))
            assert a.mul(b).mul(c).equals(a.mul(b.mul(c)))
            assert a.mul(b.add(c)).equals(a.mul(b).add(a.mul(c)))
            # equals is an equivalence: reflexive plus symmetry via copies
            assert a.equals(a)
            assert a.equals(DensePoly(ctx, a.coeffs))
            x = rng.randrange(p)
            assert a.mul(b).eval(x).value == a.eval(x).value * b.eval(x).value % p


def test_poly_context_guard():
    a = DensePoly(make_context(5), (1, 2))
    b = DensePoly(make_context(7), (1, 2))
    with pytest.raises(ContextMismatchError):
        a.add(b)
    with pytest.raises(ContextMismatchError):
        a.equals(b)
    assert a != b  # __eq__ compares moduli without raising
    ctx7, ctx11 = make_context(7), make_context(11)
    with pytest.raises(ContextMismatchError):
        DensePoly(ctx7, [1, Residue(5, ctx11)])
    assert DensePoly(ctx7, [Residue(5, ctx7), 9]).coeffs == (5, 2)


def test_primitive_root():
    for p in SMALL_PRIMES + [1009]:
        g = primitive_root(p)
        orders = [len({pow(h, e, p) for e in range(p - 1)}) for h in range(1, g + 1)]
        assert orders[-1] == p - 1, p  # g generates GF(p)*
        assert all(k < p - 1 for k in orders[:-1]), p  # and is the least one
    for q in modarith._NTT_PRIMES:
        assert primitive_root(q) == modarith._NTT_ROOT


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


def test_mod_convolve_bounds(monkeypatch):
    p = 101
    a, b = [p - 1] * 4, [p - 1] * 9
    with pytest.raises(ValueError):
        mod_convolve([p], b, p)
    with pytest.raises(ValueError):
        mod_convolve([-1], b, p)
    with pytest.raises(OverflowError):
        mod_convolve([1], [1], 2**31)
    monkeypatch.setattr(modarith, "CONV_EXACT_LIMIT", 4 * (p - 1) ** 2 + 1)
    assert mod_convolve(a, b, p).tolist() == [c % p for c in _exact_convolution(a, b)]
    with pytest.raises(OverflowError):
        mod_convolve(a + [0], b, p)
    monkeypatch.setattr(modarith, "CONV_EXACT_LIMIT", 10**30)
    monkeypatch.setattr(modarith, "_NTT_MAX_LENGTH", 16)
    assert len(mod_convolve(a, b, p)) == 12
    with pytest.raises(OverflowError):
        mod_convolve(a, b + [0] * 5, p)
