import numpy as np
import pytest

from bellmod import cli, oracle, sequences
from bellmod.congruences import s_m, s_m_all_units
from bellmod.modarith import (
    IndexTooLargeError,
    PrimeContext,
    binomial_mod,
    is_prime,
    make_context,
    primes_in_range,
)
from bellmod.sequences import (
    _FLOAT_DOT_LIMIT,
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

from conftest import poly_eval


def test_bell_row_known_values(cache):
    assert cache.bell(11)[:9].tolist() == [1, 1, 2, 5, 4, 8, 5, 8, 4]
    assert cache.bell(2).tolist() == [1, 1]
    assert cache.bell(3).tolist() == [1, 1, 2]
    assert cache.bell(5).tolist() == [1, 1, 2, 0, 0]
    assert int(cache.bell(7)[6]) == 0  # B_6 = 203 = 7 * 29


def test_bell_rows_cross_path():
    for p in primes_in_range(2, 200) + [1009, 2003, 9973]:
        ctx = make_context(p)
        a = bell_row(ctx)
        b = bell_triangle_row(ctx)
        assert np.array_equal(a, b), p


@pytest.mark.parametrize(
    "build",
    [
        bell_row,
        bell_triangle_row,
        derangement_row,
        signed_series_row,
        touchard_coeff_matrix,
        lambda ctx: touchard_value_table(ctx, touchard_coeff_matrix(ctx), range(ctx.p)),
        lambda ctx: s_m_all_units(ctx, bell_row(ctx)),
    ],
    ids=[
        "bell_row",
        "bell_triangle_row",
        "derangement_row",
        "signed_series_row",
        "touchard_coeff_matrix",
        "touchard_value_table",
        "s_m_all_units",
    ],
)
def test_tables_are_read_only_int64(cache, build):
    """Every per-prime table is a bare int64 array that no reader can
    write, since a sweep shares each one across identities."""
    p = 13
    table = build(cache.ctx(p))
    assert type(table) is np.ndarray and table.dtype == np.int64
    assert table.shape in {(p,), (p, p)}
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0] = 5


# each refusal of a negative index or a count past a cap, as (call on the
# context of 7, error, message)
REFUSALS = {
    "derangement_series_mod": (lambda ctx: derangement_series_mod(-1, ctx), ValueError, "nonnegative"),
    "derangement_mod": (lambda ctx: derangement_mod(-1, ctx, signed_series_row(ctx)), ValueError, "nonnegative"),
    "stirling2_mod_n": (lambda ctx: stirling2_mod(-1, 0, ctx), ValueError, "nonnegative"),
    "stirling2_mod_k": (lambda ctx: stirling2_mod(0, -1, ctx), ValueError, "nonnegative"),
    "touchard_poly": (lambda ctx: touchard_poly(-1, ctx), ValueError, "nonnegative"),
    "touchard_polys_by_recursion": (lambda ctx: touchard_polys_by_recursion(-1, ctx), ValueError, "nonnegative"),
    "touchard_polys_by_recursion_cap": (lambda ctx: touchard_polys_by_recursion(7, ctx), IndexTooLargeError, "n < p = 7"),
    "derangement_series_exact": (lambda ctx: oracle.derangement_series_exact(-1), ValueError, "nonnegative"),
    "stirling2_exact_n": (lambda ctx: oracle.stirling2_exact(-1, 0), ValueError, "nonnegative"),
    "stirling2_exact_k": (lambda ctx: oracle.stirling2_exact(0, -1), ValueError, "nonnegative"),
    "egf_bell_series_empty": (lambda ctx: oracle.egf_bell_series(0), ValueError, "at least one term"),
    "egf_bell_series_cap": (lambda ctx: oracle.egf_bell_series(oracle.EGF_MAX + 2), IndexTooLargeError, "oracle cap"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_index_refusals(cache, case):
    call, error, message = REFUSALS[case]
    with pytest.raises(error, match=message) as info:
        call(cache.ctx(7))
    assert info.type is error  # a cap refusal is not a bare ValueError, nor the reverse


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
        binomial_mod(3, 7, ctx),  # k > n
        bell_mod(5, ctx, row),
        bell_mod(40, ctx, row),  # above p, through the shift fold
        stirling2_mod(7, 3, ctx),
        derangement_mod(9, ctx, cache.sigma(11)),
        derangement_mod(30, ctx, cache.sigma(11)),  # above p, odd
        derangement_series_mod(9, ctx),
        s_m(ctx, 3, row),
    ]
    assert [type(r) for r in residues] == [int] * len(residues)
    # every Touchard route gives T_n as a tuple of n + 1 Python ints
    routes = {
        "explicit": [touchard_poly(n, ctx) for n in range(11)],
        "recursion": touchard_polys_by_recursion(10, ctx),
        "matrix": touchard_polys_from_matrix(ctx, cache.matrix(11)),
    }
    for name, polys in routes.items():
        assert len(polys) == 11, name
        for n, coeffs in enumerate(polys):
            assert type(coeffs) is tuple and len(coeffs) == n + 1, (name, n)
            assert all(type(c) is int for c in coeffs), (name, n)


def test_bell_mod_small(cache):
    ctx = cache.ctx(5)
    row = cache.bell(5)
    assert bell_mod(6, ctx, row) == 3  # 203 mod 5
    assert bell_mod(7, ctx, row) == 2  # 877 mod 5
    for n in range(5):
        assert bell_mod(n, ctx, row) == int(row[n])
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
            assert bell_mod(n, ctx, row) == oracle.bell_exact(n) % p, (p, n)


def test_bell_p_is_two(cache):
    for p in primes_in_range(2, 300):
        assert bell_mod(p, cache.ctx(p), cache.bell(p)) == 2 % p


def test_derangement_row_known_values(cache):
    assert cache.drow(11)[:9].tolist() == [1, 0, 1, 2, 9, 0, 1, 6, 5]
    assert cache.drow(2).tolist() == [1, 0]
    assert int(cache.drow(7)[5]) == 2  # 44 mod 7


def test_derangement_series_examples(cache):
    assert derangement_series_mod(0, cache.ctx(11)) == 1
    assert derangement_series_mod(4, cache.ctx(7)) == 2  # D_4 = 9
    assert derangement_series_mod(3, cache.ctx(5)) == 2  # D_3 = 2
    with pytest.raises(IndexTooLargeError):
        derangement_series_mod(7, cache.ctx(7))


def test_derangement_series_matches_row(cache):
    for p in primes_in_range(2, 101):
        row = cache.drow(p)
        for n in range(p):
            assert derangement_series_mod(n, cache.ctx(p)) == int(row[n])


def test_signed_series_row(cache):
    for p in primes_in_range(2, 101):
        sigma = signed_series_row(cache.ctx(p))
        row = cache.drow(p)
        for n in range(p):
            want = int(row[n]) if n % 2 == 0 else (p - int(row[n])) % p
            assert int(sigma[n]) == want


def test_derangement_mod_any_index(cache):
    for p in (2, 3, 5, 7, 13):
        ctx = cache.ctx(p)
        sigma = signed_series_row(ctx)
        for n in range(60):
            assert derangement_mod(n, ctx, sigma) == oracle.derangement_exact(n) % p, (p, n)


def test_stirling2_mod(cache):
    assert stirling2_mod(4, 2, cache.ctx(11)) == 7
    assert stirling2_mod(3, 0, cache.ctx(7)) == 0
    assert stirling2_mod(0, 0, cache.ctx(7)) == 1  # 0^0 = 1 convention
    for p in (5, 13):
        for n in range(p):
            assert stirling2_mod(n, n, cache.ctx(p)) == 1
    assert stirling2_mod(4, 1, cache.ctx(2)) == 1
    with pytest.raises(IndexTooLargeError):
        stirling2_mod(9, 7, cache.ctx(7))
    with pytest.raises(IndexTooLargeError):
        stirling2_mod(4, 2, cache.ctx(2))


def test_touchard_poly_examples(cache):
    assert touchard_poly(0, cache.ctx(7)) == (1,)
    assert touchard_poly(3, cache.ctx(7)) == (0, 1, 3, 1)
    assert poly_eval(touchard_poly(2, cache.ctx(5)), 1, 5) == 2  # T_2(1) = B_2
    with pytest.raises(IndexTooLargeError):
        touchard_poly(7, cache.ctx(7))


def test_touchard_recursion_examples(cache):
    polys = touchard_polys_by_recursion(1, cache.ctx(5))
    assert polys == [(1,), (0, 1)]
    t2 = touchard_polys_by_recursion(2, cache.ctx(7))[2]
    assert t2 == (0, 1, 1)  # x(T_0 + T_1)
    t4 = touchard_polys_by_recursion(4, cache.ctx(11))[4]
    assert poly_eval(t4, 1, 11) == 4  # B_4 = 15 mod 11


def test_touchard_cross_path(cache):
    for p in primes_in_range(2, 61):
        ctx = cache.ctx(p)
        recursed = touchard_polys_by_recursion(p - 1, ctx)
        for n in range(p):
            assert touchard_poly(n, ctx) == recursed[n], (p, n)


def test_touchard_at_one_is_bell(cache):
    for p in primes_in_range(2, 101):
        ctx = cache.ctx(p)
        matrix = touchard_coeff_matrix(ctx)
        row = cache.bell(p)
        # row sums of the coefficient matrix evaluate the polynomials at 1
        sums = matrix.sum(axis=1) % p
        assert np.array_equal(sums, row), p


def test_touchard_matrix_matches_explicit(cache):
    for p in (2, 3, 5, 7, 13, 31, 61):
        ctx = cache.ctx(p)
        matrix = touchard_coeff_matrix(ctx)
        for n in range(p):
            want = [stirling2_mod(n, k, ctx) for k in range(p)]
            assert matrix[n].tolist() == want, (p, n)


def test_touchard_polys_from_matrix(cache):
    ctx = cache.ctx(13)
    polys = touchard_polys_from_matrix(ctx, cache.matrix(13))
    for n in range(13):
        assert polys[n] == touchard_poly(n, ctx)


def test_touchard_value_table(cache):
    for p in (2, 5, 13, 31, 101):
        ctx = cache.ctx(p)
        table = touchard_value_table(ctx, cache.matrix(p), range(p))
        polys = touchard_polys_from_matrix(ctx, cache.matrix(p))
        for n in range(p):
            for x in range(p):
                assert int(table[n, x]) == poly_eval(polys[n], x, p), (p, n, x)


def test_touchard_value_table_at_the_sampled_points(cache):
    """Past X_ALL_LIMIT the table holds one column per seeded point of the
    sweep, in order, and each column is T_n at that point."""
    p = 211
    xs = cli._x_grid(cli.SweepConfig(p, p, ("eq10",)), p)
    table = touchard_value_table(cache.ctx(p), cache.matrix(p), xs)
    assert table.shape == (211, 32)
    for n, coeffs in enumerate(cache.matrix(p).tolist()):
        assert table[n].tolist() == [poly_eval(coeffs, x, p) for x in xs], n


def test_theorem1_rhs_periodicity_in_m():
    # (-1)^(m-1) D_{m-1} and its p-shift agree mod p, with exact D values
    for p in primes_in_range(2, 61):
        for m in range(1, 2 * p + 1):
            if m % p == 0:
                continue
            a = (-1) ** (m - 1) * oracle.derangement_exact(m - 1)
            b = (-1) ** (m + p - 1) * oracle.derangement_exact(m + p - 1)
            assert a % p == b % p, (p, m)


@pytest.mark.parametrize("inner", [2, 3, 40])
def test_mod_matmul_refuses_where_no_product_is_exact(inner):
    # from 94,906,297 up to the contexts' cap 2**31 - 1, (p - 1)**2 is past
    # 2**53, so no float64 product of two residues is exact and the chunk is
    # 0: every operand shape is refused before any product is taken
    for p in (94906297, 2**31 - 1):
        assert sequences._float_chunk(p) == 0
        top = np.full(inner, p - 1, dtype=np.int64)
        mat = np.full((inner, 5), p - 1, dtype=np.int64)
        left = np.full((3, inner), p - 1, dtype=np.int64)
        for a, b in ((top, top), (top, mat), (left, mat)):
            with pytest.raises(OverflowError, match=f"^residue products mod {p} need "):
                _mod_matmul(a, b, p)


def _assert_exact_products(p, inner):
    """_mod_matmul against object-dtype products over inner terms, for 1-D.1-D,
    1-D.2-D and 2-D.2-D operands: maximal residues p - 1 on their own, and
    as the first row or column beside residues drawn from the top 1000 below
    p, whose products are large and often odd."""
    rng = np.random.default_rng(p + inner)
    top = np.full(inner, p - 1, dtype=np.int64)
    left = rng.integers(p - 1000, p, (3, inner), dtype=np.int64)
    left[0] = p - 1
    mat = rng.integers(p - 1000, p, (inner, 4), dtype=np.int64)
    mat[:, 0] = p - 1
    for a, b in ((top, top), (left[1], left[2]), (top, mat), (left[1], mat), (left, mat)):
        exact = a.astype(object) @ b.astype(object) % p
        got = _mod_matmul(a, b, p)
        assert got.dtype == np.int64 and np.shape(got) == np.shape(exact)
        assert np.array_equal(np.asarray(got, dtype=object), exact), (p, inner, a.shape, b.shape)


@pytest.mark.parametrize("extra", [0, 1])
def test_float_chunk_edges_are_exact(extra):
    # one chunk of maximal residues sums to at most 2**53; one term more
    # starts a second chunk
    p = 3000017
    chunk = sequences._float_chunk(p)
    assert chunk == 1000
    assert chunk * (p - 1) ** 2 <= _FLOAT_DOT_LIMIT < (chunk + 1) * (p - 1) ** 2
    _assert_exact_products(p, chunk + extra)


def test_float_branch_ends_where_one_product_is_inexact():
    # 94,906,249 is the largest prime whose chunk is one product, and the
    # next prime, 94,906,297, the first whose chunk is 0.  Over 2048 terms
    # the chunks' residues are summed in int64 one at a time: summed
    # unreduced, their products would pass 2**63.  The next prime refuses
    # even 3-element operands
    last, first = 94906249, 94906297
    assert is_prime(last) and is_prime(first)
    assert not any(is_prime(q) for q in range(last + 1, first))
    assert sequences._float_chunk(last) == 1 and sequences._float_chunk(first) == 0
    _assert_exact_products(last, 3)
    _assert_exact_products(last, 2048)
    with pytest.raises(OverflowError, match=f"^residue products mod {first} need"):
        _mod_matmul(np.ones(3, dtype=np.int64), np.ones(3, dtype=np.int64), first)


def test_float_dot_bound_is_tight():
    # the largest inner the bound admits at p = 208057 sums maximal residues
    # exactly; that prime is the last whose every Bell step fits one chunk
    p = 208057
    inner = (_FLOAT_DOT_LIMIT - 1) // (p - 1) ** 2
    assert inner >= p - 1 and (208067 - 1) ** 3 >= _FLOAT_DOT_LIMIT
    top = np.full(inner, p - 1, dtype=np.int64)
    exact = top.astype(object) @ top.astype(object)
    assert int(np.dot(top.astype(np.float64), top.astype(np.float64))) == exact
    # an odd count of odd products sums to an odd integer in [2**53, 2**54),
    # which float64 cannot hold, so the bound must refuse this input
    odd = (2**53 // (p - 2) ** 2 + 1) | 1
    assert 2**53 <= odd * (p - 2) ** 2 and odd * (p - 1) ** 2 < 2**54
    vec = np.full(odd, p - 2, dtype=np.int64)
    exact = vec.astype(object) @ vec.astype(object)
    assert int(np.dot(vec.astype(np.float64), vec.astype(np.float64))) != exact
    assert odd * (p - 1) ** 2 >= _FLOAT_DOT_LIMIT


def test_bell_row_routes_by_the_float_bound(monkeypatch):
    # a step whose n + 1 terms fit one float64 chunk is one np.dot, and a
    # longer step one _mod_matmul call.  At 1009 every step fits; with the
    # bound cut to chunks of c = 100 terms, exactly the p - 1 - c steps
    # n >= c call _mod_matmul, which sums them a chunk at a time
    ctx = make_context(1009)
    p, c = ctx.p, 100
    calls = []
    real = sequences._mod_matmul

    def spy(a, b, p):
        calls.append(len(a))
        return real(a, b, p)

    monkeypatch.setattr(sequences, "_mod_matmul", spy)
    whole = bell_row(ctx)
    assert calls == []
    monkeypatch.setattr(sequences, "_FLOAT_DOT_LIMIT", c * (p - 1) ** 2)
    assert sequences._float_chunk(p) == c
    chunked = bell_row(ctx)
    assert calls == list(range(c + 1, p))  # n + 1 terms for n = c .. p - 2
    assert chunked.dtype == np.int64 and not chunked.flags.writeable
    assert np.array_equal(whole, chunked)
    assert np.array_equal(chunked, bell_triangle_row(ctx))


def test_rows_match_sympy_mod_p():
    """A differential oracle outside this package: sympy's exact Bell,
    subfactorial and Stirling numbers, reduced mod p."""
    sympy = pytest.importorskip("sympy")
    from sympy.functions.combinatorial.numbers import stirling

    for p in primes_in_range(2, 61):
        ctx = make_context(p)
        assert bell_row(ctx).tolist() == [int(sympy.bell(n)) % p for n in range(p)]
        assert derangement_row(ctx).tolist() == [
            int(sympy.subfactorial(n)) % p for n in range(p)
        ]
        assert touchard_coeff_matrix(ctx).tolist() == [
            [int(stirling(n, k)) % p for k in range(p)] for n in range(p)
        ], p
