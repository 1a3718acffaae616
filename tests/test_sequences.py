import math

import numpy as np
import pytest

from bellmod import oracle
from bellmod.congruences import s_m
from bellmod.modarith import (
    IndexTooLargeError,
    PrimeContext,
    binomial_mod,
    is_prime,
    make_context,
    primes_in_range,
)
from bellmod.sequences import (
    _DOT_LIMIT,
    _mod_matmul,
    bell_mod,
    bell_row,
    bell_triangle_row,
    derangement_mod,
    derangement_row,
    derangement_series_mod,
    signed_series_row,
    stirling2_mod,
    touchard_coeff_matrix,
    touchard_poly,
    touchard_polys_by_recursion,
    touchard_polys_from_matrix,
    touchard_value_table,
)


def test_bell_row_known_values(cache):
    assert cache.bell(11).values[:9].tolist() == [1, 1, 2, 5, 4, 8, 5, 8, 4]
    assert cache.bell(2).values.tolist() == [1, 1]
    assert cache.bell(3).values.tolist() == [1, 1, 2]
    assert cache.bell(5).values.tolist() == [1, 1, 2, 0, 0]
    assert int(cache.bell(7).values[6]) == 0  # B_6 = 203 = 7 * 29


def test_bell_rows_cross_path():
    for p in primes_in_range(2, 200) + [1009, 2003, 9973]:
        ctx = make_context(p)
        a = bell_row(ctx).values
        b = bell_triangle_row(ctx).values
        assert np.array_equal(a, b), p


def test_bell_row_values_are_read_only(cache):
    row = cache.bell(13)
    with pytest.raises(ValueError):
        row.values[0] = 5


def test_factorial_tables_are_int64_and_residues_hold_ints(cache):
    """One read-only int64 copy of each factorial table, while every scalar
    route that reads them still returns Python ints."""
    assert PrimeContext.__slots__ == ("p", "fact", "inv_fact")
    ctx, row = cache.ctx(11), cache.bell(11)
    for table in (ctx.fact, ctx.inv_fact):
        assert isinstance(table, np.ndarray) and table.dtype == np.int64
        assert not table.flags.writeable
    residues = [
        binomial_mod(7, 3, ctx),
        bell_mod(5, ctx, row),
        bell_mod(40, ctx, row),  # above p, through the shift fold
        stirling2_mod(7, 3, ctx),
        derangement_mod(9, ctx, cache.sigma(11)),
        s_m(ctx, 3, row),
    ]
    assert [type(r.value) for r in residues] == [int] * len(residues)
    assert all(type(c) is int for c in touchard_poly(6, ctx).coeffs)


def test_bell_mod_small(cache):
    ctx = cache.ctx(5)
    row = cache.bell(5)
    assert bell_mod(6, ctx, row).value == 3  # 203 mod 5
    assert bell_mod(7, ctx, row).value == 2  # 877 mod 5
    for n in range(5):
        assert bell_mod(n, ctx, row).value == int(row.values[n])
    with pytest.raises(IndexTooLargeError):
        bell_mod(25, ctx, row)
    with pytest.raises(ValueError):
        bell_mod(-1, ctx, row)


def test_bell_mod_against_exact_oracle(cache):
    # the two-level index fold must reproduce true Bell numbers
    for p in (2, 3, 5, 7, 11, 13, 17):
        ctx = cache.ctx(p)
        row = cache.bell(p)
        for n in range(min(p * p, 290)):
            want = oracle.reduce(oracle.bell_exact(n), ctx)
            assert bell_mod(n, ctx, row) == want, (p, n)


def test_bell_p_is_two(cache):
    for p in primes_in_range(2, 300):
        assert bell_mod(p, cache.ctx(p), cache.bell(p)).value == 2 % p


def test_derangement_row_known_values(cache):
    assert cache.drow(11).values[:9].tolist() == [1, 0, 1, 2, 9, 0, 1, 6, 5]
    assert cache.drow(2).values.tolist() == [1, 0]
    assert int(cache.drow(7).values[5]) == 2  # 44 mod 7


def test_derangement_series_examples(cache):
    assert derangement_series_mod(0, cache.ctx(11)).value == 1
    assert derangement_series_mod(4, cache.ctx(7)).value == 2  # D_4 = 9
    assert derangement_series_mod(3, cache.ctx(5)).value == 2  # D_3 = 2
    with pytest.raises(IndexTooLargeError):
        derangement_series_mod(7, cache.ctx(7))


def test_derangement_series_matches_row(cache):
    for p in primes_in_range(2, 101):
        row = cache.drow(p).values
        for n in range(p):
            assert derangement_series_mod(n, cache.ctx(p)).value == int(row[n])


def test_signed_series_row(cache):
    for p in primes_in_range(2, 101):
        sigma = signed_series_row(cache.ctx(p))
        row = cache.drow(p).values
        for n in range(p):
            want = int(row[n]) if n % 2 == 0 else (p - int(row[n])) % p
            assert int(sigma[n]) == want


def test_derangement_mod_any_index(cache):
    for p in (2, 3, 5, 7, 13):
        ctx = cache.ctx(p)
        sigma = signed_series_row(ctx)
        for n in range(60):
            want = oracle.reduce(oracle.derangement_exact(n), ctx)
            assert derangement_mod(n, ctx, sigma) == want, (p, n)


def test_stirling2_mod(cache):
    assert stirling2_mod(4, 2, cache.ctx(11)).value == 7
    assert stirling2_mod(3, 0, cache.ctx(7)).value == 0
    assert stirling2_mod(0, 0, cache.ctx(7)).value == 1  # 0^0 = 1 convention
    for p in (5, 13):
        for n in range(p):
            assert stirling2_mod(n, n, cache.ctx(p)).value == 1
    assert stirling2_mod(4, 1, cache.ctx(2)).value == 1
    with pytest.raises(IndexTooLargeError):
        stirling2_mod(9, 7, cache.ctx(7))
    with pytest.raises(IndexTooLargeError):
        stirling2_mod(4, 2, cache.ctx(2))


def test_touchard_poly_examples(cache):
    assert list(touchard_poly(0, cache.ctx(7)).coeffs) == [1]
    assert list(touchard_poly(3, cache.ctx(7)).coeffs) == [0, 1, 3, 1]
    assert touchard_poly(2, cache.ctx(5)).eval(1).value == 2  # T_2(1) = B_2
    with pytest.raises(IndexTooLargeError):
        touchard_poly(7, cache.ctx(7))


def test_touchard_recursion_examples(cache):
    polys = touchard_polys_by_recursion(1, cache.ctx(5))
    assert [list(q.coeffs) for q in polys] == [[1], [0, 1]]
    t2 = touchard_polys_by_recursion(2, cache.ctx(7))[2]
    assert list(t2.coeffs) == [0, 1, 1]  # x(T_0 + T_1)
    t4 = touchard_polys_by_recursion(4, cache.ctx(11))[4]
    assert t4.eval(1).value == 4  # B_4 = 15 mod 11


def test_touchard_cross_path(cache):
    for p in primes_in_range(2, 61):
        ctx = cache.ctx(p)
        recursed = touchard_polys_by_recursion(p - 1, ctx)
        for n in range(p):
            assert touchard_poly(n, ctx).equals(recursed[n]), (p, n)


def test_touchard_at_one_is_bell(cache):
    for p in primes_in_range(2, 101):
        ctx = cache.ctx(p)
        matrix = touchard_coeff_matrix(ctx)
        row = cache.bell(p).values
        # row sums of the coefficient matrix evaluate the polynomials at 1
        sums = matrix.sum(axis=1) % p
        assert np.array_equal(sums, row), p


def test_touchard_matrix_matches_explicit(cache):
    for p in (2, 3, 5, 7, 13, 31, 61):
        ctx = cache.ctx(p)
        matrix = touchard_coeff_matrix(ctx)
        for n in range(p):
            want = [stirling2_mod(n, k, ctx).value for k in range(p)]
            assert matrix[n].tolist() == want, (p, n)


def test_touchard_polys_from_matrix(cache):
    ctx = cache.ctx(13)
    polys = touchard_polys_from_matrix(ctx, cache.matrix(13))
    for n in range(13):
        assert polys[n].equals(touchard_poly(n, ctx))


def test_touchard_value_table(cache):
    for p in (2, 5, 13, 31, 101):
        ctx = cache.ctx(p)
        table = touchard_value_table(ctx, cache.matrix(p))
        polys = touchard_polys_from_matrix(ctx, cache.matrix(p))
        for n in range(p):
            for x in range(p):
                assert int(table[n, x]) == polys[n].eval(x).value, (p, n, x)


def test_theorem1_rhs_periodicity_in_m(cache):
    # (-1)^(m-1) D_{m-1} and its p-shift agree mod p, with exact D values
    for p in primes_in_range(2, 61):
        ctx = cache.ctx(p)
        for m in range(1, 2 * p + 1):
            if m % p == 0:
                continue
            a = (-1) ** (m - 1) * oracle.derangement_exact(m - 1)
            b = (-1) ** (m + p - 1) * oracle.derangement_exact(m + p - 1)
            assert oracle.reduce(a, ctx) == oracle.reduce(b, ctx), (p, m)


def _first_chunked_prime(inner):
    """The least prime p whose chunk size _DOT_LIMIT // p**2 falls below inner."""
    p = math.isqrt(_DOT_LIMIT // inner)
    while _DOT_LIMIT // (p * p) >= inner or not is_prime(p):
        p += 1
    return p


@pytest.mark.parametrize("inner", [2, 3, 40])
def test_mod_matmul_chunked_branches_are_exact(inner):
    # at p = 2**31 - 1 the chunk is one term, and just past the threshold it
    # is just below inner, so both reach the chunked loop; from three terms of
    # (p - 1)**2 on, an unchunked int64 sum at p = 2**31 - 1 would wrap
    rng = np.random.default_rng(inner)
    for p in (2**31 - 1, _first_chunked_prime(inner)):
        assert _DOT_LIMIT // (p * p) < inner
        top = np.full(inner, p - 1, dtype=np.int64)
        vec = rng.integers(0, p, inner, dtype=np.int64)
        mat = rng.integers(0, p, (inner, 5), dtype=np.int64)
        mat[:, 0] = p - 1
        left = rng.integers(0, p, (3, inner), dtype=np.int64)
        left[0] = p - 1
        for a, b in ((top, top), (vec, top), (top, mat), (vec, mat), (left, mat)):
            exact = a.astype(object) @ b.astype(object) % p
            got = _mod_matmul(a, b, p)
            assert np.shape(got) == np.shape(exact)
            assert np.array_equal(np.asarray(got, dtype=object), exact), (p, a.shape, b.shape)


def test_rows_match_sympy_mod_p():
    """A differential oracle outside this package: sympy's exact Bell,
    subfactorial and Stirling numbers, reduced mod p."""
    sympy = pytest.importorskip("sympy")
    from sympy.functions.combinatorial.numbers import stirling

    for p in primes_in_range(2, 61):
        ctx = make_context(p)
        assert bell_row(ctx).values.tolist() == [int(sympy.bell(n)) % p for n in range(p)]
        assert derangement_row(ctx).values.tolist() == [
            int(sympy.subfactorial(n)) % p for n in range(p)
        ]
        assert touchard_coeff_matrix(ctx).tolist() == [
            [int(stirling(n, k)) % p for k in range(p)] for n in range(p)
        ], p
