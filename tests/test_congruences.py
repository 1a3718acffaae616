import inspect
import random

import numpy as np
import pytest

import bellmod
from bellmod import congruences as cg
from bellmod import modarith, oracle, sequences
from bellmod.congruences import (
    BadModulusError,
    BadPointError,
    Identity,
    geometric_sum_lemma_check,
    proof_intermediate,
    report_sort_key,
    s_m,
    s_m_all_units,
    s_m_chain,
    s_m_many,
    theorem1_rhs,
    theorem2_lhs,
    theorem2_rhs,
    verify_bell_p,
    verify_corollary,
    verify_eq4,
    verify_factorial_lemma,
    verify_intro_constant,
    verify_proof_intermediate,
    verify_special_cases,
    verify_theorem1,
    verify_theorem2,
    verify_theorem2_eval,
    verify_touchard,
    weighted_touchard_sum,
)
from bellmod.modarith import IndexTooLargeError, primes_in_range
from bellmod.sequences import (
    touchard_coeff_matrix,
    touchard_polys_by_recursion,
    touchard_polys_from_matrix,
)

from conftest import poly_eval


def rows(blocks):
    """The reports of a verifier's blocks, in order."""
    return [r for b in blocks for r in b]


@pytest.mark.parametrize(
    "module", [cg, sequences, modarith, oracle, bellmod], ids=lambda module: module.__name__
)
def test_public_functions_take_every_table(module):
    """No public function defaults a parameter, so none builds a table or
    picks a grid of its own: the caller passes every one.  Reading every
    name of each ``__all__`` also catches a stale entry."""
    defaulted = [
        f"{name}({param.name})"
        for name in module.__all__
        if inspect.isfunction(func := getattr(module, name))
        for param in inspect.signature(func).parameters.values()
        if param.default is not param.empty
    ]
    assert defaulted == []


def test_s_m_examples(cache):
    assert s_m(cache.ctx(7), 1, cache.bell(7)) == 1
    assert s_m(cache.ctx(7), 2, cache.bell(7)) == 0
    assert s_m(cache.ctx(7), 9, cache.bell(7)) == 0  # 9 = 2 mod 7
    assert s_m(cache.ctx(5), 8, cache.bell(5)) == 1
    with pytest.raises(BadModulusError):
        s_m(cache.ctx(7), 14, cache.bell(7))
    with pytest.raises(ValueError):
        s_m(cache.ctx(7), 0, cache.bell(7))


def test_s_m_many_matches_scalar(cache):
    for p in (2, 3, 5, 7, 13, 31, 61):
        ctx = cache.ctx(p)
        row = cache.bell(p)
        ms = [m for m in range(1, 3 * p + 1) if m % p != 0]
        got = s_m_many(ctx, ms, cache.sm(p))
        assert got.tolist() == [s_m(ctx, m, row) for m in ms]
    assert s_m_many(cache.ctx(7), [], cache.sm(7)).tolist() == []


def test_s_m_many_all_units_route(cache):
    # the chain never touches a Bell number and s_m sums powers directly,
    # so both are independent of the chirp-z table behind s_m_many
    for p in (2, 3, 5, 1009, 9973):
        ctx, row = cache.ctx(p), cache.bell(p)
        units = list(range(1, p))
        got = s_m_many(ctx, units, cache.sm(p)).tolist()
        if p >= 3:
            assert got == s_m_chain(ctx)[1:], p
        sample = random.Random(p).sample(units, min(p - 1, 24))
        assert [got[m - 1] for m in sample] == [s_m(ctx, m, row) for m in sample]
        above = [m + k * p for m, k in zip(sample, (1, 2, 7, 10**30) * 6)]
        assert s_m_many(ctx, above, cache.sm(p)).tolist() == [got[m - 1] for m in sample], p
        assert s_m_all_units(ctx, row)[1:].tolist() == got


def test_s_m_depends_only_on_m_mod_p(cache):
    for p in primes_in_range(2, 101):
        ctx, sm = cache.ctx(p), cache.sm(p)
        ms = list(range(1, p))
        assert s_m_many(ctx, ms, sm).tolist() == s_m_many(ctx, [m + p for m in ms], sm).tolist()


def test_s_m_chain_reproduces_direct_sums(cache):
    for p in primes_in_range(3, 101):
        ctx = cache.ctx(p)
        chain = s_m_chain(ctx)
        direct = s_m_many(ctx, list(range(1, p)), cache.sm(p))
        assert chain[1:] == direct.tolist()
    with pytest.raises(BadModulusError):
        s_m_chain(cache.ctx(2))


def test_theorem1_example(cache):
    [rep] = rows(verify_theorem1(cache.ctx(7), [3], cache.sm(7), cache.drow(7), cache.sigma(7)))
    assert rep.lhs == rep.rhs == 1
    assert rep.passed
    assert rep.params == {"p": 7, "m": 3}


def test_theorem1_rhs_routes_agree_with_oracle(cache):
    # small weights read the derangement row, larger ones the signed
    # series; both must match the exact alternating-sign derangements.  One
    # call per prime takes weights on both sides of the switch, up to
    # m - 1 = p - 2 and from m - 1 = p on
    for p in (2, 3, 5, 7, 13, 31):
        ctx = cache.ctx(p)
        ms = [m for m in range(1, 3 * p + 1) if m % p]
        assert p - 1 in ms and p + 1 in ms
        want = [(-1) ** (m - 1) * oracle.derangement_exact(m - 1) % p for m in ms]
        assert theorem1_rhs(ctx, ms, cache.drow(p), cache.sigma(p)).tolist() == want, p


def test_theorem1_sweep(cache):
    # verify_theorem1 reads its left side from the s_m_all_units table, so
    # the scalar s_m power loop is checked against the right side here, at
    # every weight
    for p in primes_in_range(2, 31):
        ctx = cache.ctx(p)
        row, drow = cache.bell(p), cache.drow(p)
        ms = [m for m in range(1, 3 * p + 1) if m % p]
        reports = rows(verify_theorem1(ctx, ms, cache.sm(p), drow, cache.sigma(p)))
        assert [r.params["m"] for r in reports] == ms
        assert all(r.passed for r in reports), p
        for m, rhs in zip(ms, theorem1_rhs(ctx, ms, drow, cache.sigma(p)).tolist()):
            assert s_m(ctx, m, row) == rhs, (p, m)
    assert rows(verify_theorem1(cache.ctx(7), [], cache.sm(7), cache.drow(7), cache.sigma(7))) == []


def test_theorem1_past_int64_weights(cache):
    # only m - 1 mod p and, below p, the index and its parity matter, so a
    # weight far past int64 reports the sides of its fold p + r
    for p in (7, 13):
        ctx = cache.ctx(p)
        for r in range(1, p):
            [big] = rows(verify_theorem1(ctx, [10**30 * p + r], cache.sm(p), cache.drow(p), cache.sigma(p)))
            [small] = rows(verify_theorem1(ctx, [p + r], cache.sm(p), cache.drow(p), cache.sigma(p)))
            assert big.passed and big.params["m"] == 10**30 * p + r
            assert (big.lhs, big.rhs) == (small.lhs, small.rhs), (p, r)
        with pytest.raises(BadModulusError):
            verify_theorem1(ctx, [1, 10**30 * p], cache.sm(p), cache.drow(p), cache.sigma(p))
        with pytest.raises(BadModulusError):
            theorem1_rhs(ctx, [2 * p, 1], cache.drow(p), cache.sigma(p))
        with pytest.raises(ValueError):
            s_m_many(ctx, [1, -(10**30)], cache.sm(p))


def test_intro_constant_examples(cache):
    [rep] = rows(verify_intro_constant(cache.ctx(3), 8, cache.bell(3)))
    assert (rep.lhs, rep.rhs) == (1, 1)
    assert rows(verify_intro_constant(cache.ctx(5), 8, cache.bell(5)))[0].lhs == 2
    [rep] = rows(verify_intro_constant(cache.ctx(7), 1, cache.bell(7)))
    assert rep.lhs == rep.rhs == 2  # 1 + D_0 = 2 at weight 1


def test_intro_constant_is_minus_1853(cache):
    # at the sweep's weight 8 the full sum is 1 + s_8 = 1 - D_7 = -1853
    for p in primes_in_range(3, 100):
        [rep] = rows(verify_intro_constant(cache.ctx(p), 8, cache.bell(p)))
        assert rep.passed
        assert rep.lhs == -1853 % p


def test_corollary_all_pass(cache):
    for p in primes_in_range(2, 31):
        reports = rows(verify_corollary(cache.ctx(p), cache.bell(p), cache.drow(p)))
        assert len(reports) == (p - 1) + (p - 1) ** 2
        assert all(r.passed for r in reports), p


def test_corollary_kernel_reports_carry_both_indices(cache):
    reports = rows(verify_corollary(cache.ctx(5), cache.bell(5), cache.drow(5)))
    kernel = [r for r in reports if "k" in r.params]
    assert len(kernel) == 16
    diag = [r for r in kernel if r.params["n"] == r.params["k"]]
    assert all(r.lhs == 4 for r in diag)  # -1 mod 5 on the diagonal


def test_eq4_chain(cache):
    reports = rows(verify_eq4(cache.ctx(7), cache.sm(7)))
    assert reports[0].identity is Identity.EQ4_BASE
    assert reports[0].lhs == 1
    assert len(reports) == 1 + 5
    assert all(r.passed for r in reports)
    for p in primes_in_range(3, 101):
        assert all(r.passed for r in rows(verify_eq4(cache.ctx(p), cache.sm(p)))), p
    with pytest.raises(BadModulusError):
        verify_eq4(cache.ctx(2), cache.sm(2))


def test_bell_p(cache):
    [rep] = rows(verify_bell_p(cache.ctx(7), cache.bell(7)))
    assert rep.lhs == rep.rhs == 2
    for p in primes_in_range(2, 300):
        assert rows(verify_bell_p(cache.ctx(p), cache.bell(p)))[0].passed, p


def test_touchard_fold_consistency(cache):
    for p in primes_in_range(2, 31):
        # the index fold reaches at most p^2 - 1, capping n_max at p=2, 3
        n_max = min(2 * p, p * p - p - 1)
        reports = rows(verify_touchard(cache.ctx(p), n_max, cache.bell(p)))
        assert len(reports) == n_max + 1
        assert all(r.passed for r in reports), p
    with pytest.raises(IndexTooLargeError):
        verify_touchard(cache.ctx(5), 20, cache.bell(5))


def test_touchard_fails_on_a_corrupt_row(cache):
    # the left side continues the additive triangle, which never reads the
    # row, so a wrong entry anywhere in the row fails a report
    for p in (5, 7, 31):
        for k in range(p):
            row = cache.bell(p).copy()
            row[k] = (row[k] + 1) % p
            reports = rows(verify_touchard(cache.ctx(p), p, row))
            assert [r.params["n"] for r in reports if not r.passed][:1] == [max(k - 1, 0)], (p, k)


def test_touchard_triangle_int64_bound(cache):
    ctx = cache.ctx(7)
    assert sequences._bell_triangle(ctx, 20).tolist() == [oracle.bell_exact(n) % 7 for n in range(20)]
    # the first row count whose prefix sums could reach 2**63
    with pytest.raises(IndexTooLargeError):
        sequences._bell_triangle(ctx, 2**63 // 6 + 1)


def test_touchard_against_exact_bell_numbers(cache):
    # the shift identity on true Bell numbers, reduced afterwards
    for p in primes_in_range(2, 31):
        ctx = cache.ctx(p)
        for n in range(2 * p + 1):
            lhs = oracle.bell_exact(p + n)
            rhs = oracle.bell_exact(n) + oracle.bell_exact(n + 1)
            assert lhs % p == rhs % p, (p, n)


def test_theorem2_polynomial_examples(cache):
    ctx3 = cache.ctx(3)
    lhs = theorem2_lhs(ctx3, [2, 5], weighted_touchard_sum(ctx3, [2, 5], cache.matrix(3)))
    assert cg._coeff_tuples(lhs) == [(0, 0, 0, 2, 1), (0, 0, 0, 0, 0, 0, 1, 2)]
    assert cg._coeff_tuples(theorem2_rhs(ctx3, [2])) == [(0, 0, 0, 2, 1)]
    assert cg._coeff_tuples(theorem2_rhs(cache.ctx(5), [4])) == [(0, 0, 0, 0, 0, 4, 1, 2, 1)]
    # congruent weights differ on the left only by the monomial prefactor
    two, five = cg._coeff_tuples(lhs)
    assert five == (0,) * 3 + tuple(-c % 3 for c in two)


def test_coeff_tuples_strips_trailing_zeros_only():
    rows = np.array([[0, 0, 0, 0], [0, 2, 0, 1], [3, 0, 1, 0], [0, 0, 0, 5]])
    assert cg._coeff_tuples(rows) == [(), (0, 2, 0, 1), (3, 0, 1), (0, 0, 0, 5)]
    assert all(type(v) is int for v in cg._coeff_tuples(rows)[1])
    assert cg._coeff_tuples(np.zeros((0, 4), dtype=np.int64)) == []


def test_theorem2_rhs_shape(cache):
    for p in (3, 5, 13):
        ctx = cache.ctx(p)
        ms = _weights(p)
        for m, coeffs in zip(ms, cg._coeff_tuples(theorem2_rhs(ctx, ms))):
            assert len(coeffs) - 1 == p + m - 1, (p, m)
            top = coeffs[-1]
            assert top == (1 if (m - 1) % 2 == 1 else p - 1)


def test_theorem2_sweep(cache):
    for p in primes_in_range(2, 31):
        ctx = cache.ctx(p)
        ms = _weights(p)
        reports = rows(verify_theorem2(ctx, ms, weighted_touchard_sum(ctx, ms, cache.matrix(p))))
        assert [r.params["m"] for r in reports] == ms
        for rep in reports:
            assert rep.passed, (p, rep.params)
            assert isinstance(rep.lhs, tuple)


def test_theorem2_eval_examples(cache):
    [rep] = rows(verify_theorem2_eval(cache.ctx(5), [2], [2], cache.values(5)))
    assert rep.lhs == rep.rhs == 3
    [rep] = rows(verify_theorem2_eval(cache.ctx(7), [3], [1], cache.values(7)))
    assert rep.lhs == rep.rhs == 1
    with pytest.raises(BadPointError):
        verify_theorem2_eval(cache.ctx(5), [2], [10], cache.values(5))


def test_theorem2_eval_matches_polynomial_route(cache):
    for p in primes_in_range(2, 13):
        ctx = cache.ctx(p)
        values = cache.values(p)
        polys = touchard_polys_from_matrix(ctx, cache.matrix(p))
        ms, xs = _weights(p), list(range(1, p))
        reports = iter(rows(verify_theorem2_eval(ctx, ms, xs, values)))
        lhs_rows = theorem2_lhs(ctx, ms, weighted_touchard_sum(ctx, ms, _matrix_of(polys, p)))
        for m, lhs_row in zip(ms, lhs_rows):
            for x in xs:
                rep = next(reports)
                assert (rep.params["m"], rep.params["x"]) == (m, x)
                assert rep.passed, (p, m, x)
                # undo the (-x)^m prefactor on the evaluated lhs
                pref = pow(-x % p, m, p)
                assert poly_eval(lhs_row.tolist(), x, p) == pref * rep.lhs % p


def test_theorem2_eval_at_one_is_theorem1(cache):
    # T_n(1) = B_n collapses the weighted sum to the Bell-number sum
    for p in primes_in_range(2, 61):
        ctx = cache.ctx(p)
        values = cache.values(p)
        row, drow = cache.bell(p), cache.drow(p)
        ms = list(range(1, p))
        rhs = theorem1_rhs(ctx, ms, drow, cache.sigma(p)).tolist()
        for m, rep, want in zip(ms, rows(verify_theorem2_eval(ctx, ms, [1], values)), rhs):
            assert rep.lhs == s_m(ctx, m, row)
            assert rep.rhs == want


def test_special_cases(cache):
    reports = rows(verify_special_cases(cache.ctx(7), [1], cache.values(7)))
    by_m = {r.params["m"]: r for r in reports}
    assert set(by_m) == {2, 3, 4}
    assert by_m[4].lhs == by_m[4].rhs == 5
    assert all(r.passed for r in reports)
    # weights divisible by p are skipped
    assert {r.params["m"] for r in rows(verify_special_cases(cache.ctx(2), [1], cache.values(2)))} == {3}
    assert {r.params["m"] for r in rows(verify_special_cases(cache.ctx(3), [1], cache.values(3)))} == {2, 4}
    with pytest.raises(BadPointError):
        verify_special_cases(cache.ctx(5), [0], cache.values(5))


def test_special_cases_sweep(cache):
    for p in primes_in_range(2, 31):
        ctx = cache.ctx(p)
        values = cache.values(p)
        reports = rows(verify_special_cases(ctx, list(range(1, p)), values))
        assert {r.params["x"] for r in reports} == set(range(1, p))
        assert all(r.passed for r in reports), p


def test_special_cases_at_one_match_theorem1(cache):
    for p in primes_in_range(5, 61):
        ctx = cache.ctx(p)
        row = cache.bell(p)
        for rep in rows(verify_special_cases(ctx, [1], cache.values(p))):
            assert rep.lhs == s_m(ctx, rep.params["m"], row), p


def test_proof_intermediate(cache):
    ctx = cache.ctx(3)
    assert cg._coeff_tuples(proof_intermediate(ctx, [2])) == [(0, 2, 1)]
    [rep] = rows(verify_proof_intermediate(ctx, [2], weighted_touchard_sum(ctx, [2], cache.matrix(3))))
    assert rep.passed
    assert rep.params == {"p": 3, "m": 2, "r": 1}
    for p in primes_in_range(2, 31):
        ctx = cache.ctx(p)
        ms = _weights(p)
        reports = rows(verify_proof_intermediate(ctx, ms, weighted_touchard_sum(ctx, ms, cache.matrix(p))))
        assert [r.params["m"] for r in reports] == ms
        assert all(r.passed for r in reports), p


def _weights(p):
    return [m for m in range(1, 2 * p + 1) if m % p]


def _matrix_of(polys, p):
    """The coefficient matrix M[n, k] of a list of p polynomials."""
    return np.array([c + (0,) * (p - len(c)) for c in polys], dtype=np.int64)


def _touchard_grid(ctx, ms, xs, values, sums):
    """Every Touchard-sum report of one prime, as the sweep builds them."""
    return (
        rows(verify_theorem2(ctx, ms, sums))
        + rows(verify_theorem2_eval(ctx, ms, xs, values))
        + rows(verify_special_cases(ctx, xs, values))
        + rows(verify_proof_intermediate(ctx, ms, sums))
    )


def test_batched_eval_matches_polynomial_route(cache):
    # the recursion polynomials share no code with the value table or the
    # coefficient matrix behind the batched verifiers
    for p in primes_in_range(2, 13):
        ctx = cache.ctx(p)
        ms, xs = _weights(p), list(range(1, p))
        polys = touchard_polys_by_recursion(p - 1, ctx)
        values = cache.values(p)
        evals = rows(verify_theorem2_eval(ctx, ms, xs, values))
        assert [(r.params["m"], r.params["x"]) for r in evals] == [(m, x) for m in ms for x in xs]
        special = {(r.params["m"], r.params["x"]): r for r in rows(verify_special_cases(ctx, xs, values))}
        assert set(special) == {(m, x) for m in (2, 3, 4) if m % p for x in xs}
        sums = weighted_touchard_sum(ctx, ms, touchard_coeff_matrix(ctx))
        lhs_rows = theorem2_lhs(ctx, ms, weighted_touchard_sum(ctx, ms, _matrix_of(polys, p)))
        for i, m in enumerate(ms):
            lhs_poly = lhs_rows[i].tolist()
            u = pow(-m % p, p - 2, p)
            direct = [sum(poly_eval(polys[n], x, p) * pow(u, n, p) for n in range(1, p)) % p for x in xs]
            assert [poly_eval(sums[i].tolist(), x, p) for x in xs] == direct, (p, m)
            for x, rep in zip(xs, evals[i * len(xs) : (i + 1) * len(xs)]):
                assert rep.passed and rep.lhs == direct[x - 1], (p, m, x)
                assert poly_eval(lhs_poly, x, p) == pow(-x % p, m, p) * rep.lhs % p
                if (m, x) in special:
                    assert special[(m, x)].passed and special[(m, x)].lhs == rep.lhs


def test_eq10_recurrence_matches_theorem2_rhs(cache):
    # eq10 runs the closed form's recurrence in m; theorem2_rhs builds the
    # same closed form as coefficients, so its value over (-x)^m must agree
    for p in primes_in_range(2, 13):
        ctx = cache.ctx(p)
        ms, xs = [m for m in range(1, 3 * p + 1) if m % p], list(range(1, p))
        evals = rows(verify_theorem2_eval(ctx, ms, xs, cache.values(p)))
        got = {(r.params["m"], r.params["x"]): r.rhs for r in evals}
        for m, coeffs in zip(ms, theorem2_rhs(ctx, ms)):
            poly = coeffs.tolist()
            for x in xs:
                want = poly_eval(poly, x, p) * pow(-x % p, (p - 2) * m, p) % p
                assert got[(m, x)] == want, (p, m, x)
        assert len(got) == len(ms) * len(xs)


def test_corrupt_table_entry_fails_exactly_its_point(cache):
    p, bad_x = 11, 4
    ctx = cache.ctx(p)
    ms, xs = _weights(p), list(range(1, p))
    values = cache.values(p).copy()
    values[6, bad_x] = (values[6, bad_x] + 1) % p
    reports = rows(verify_theorem2_eval(ctx, ms, xs, values)) + rows(verify_special_cases(ctx, xs, values))
    failed = [r for r in reports if not r.passed]
    assert failed == [r for r in reports if r.params["x"] == bad_x]
    assert len(failed) == len(ms) + 3


def test_weight_blocks_do_not_change_reports(cache, monkeypatch):
    p = 13
    ctx = cache.ctx(p)
    ms, xs = _weights(p) + [7 * p + 2], list(range(1, p))
    matrix, values = cache.matrix(p), cache.values(p)

    def grid():
        reports = _touchard_grid(ctx, ms, xs, values, weighted_touchard_sum(ctx, ms, matrix))
        return [(r.identity, r.params, r.lhs, r.rhs, r.passed) for r in reports]

    whole = grid()
    monkeypatch.setattr(cg, "WEIGHT_BLOCK", 3)  # 27 weights: nine blocks
    assert grid() == whole
    assert all(passed for *_, passed in whole)


def test_batched_report_sides_are_python_ints(cache):
    ctx = cache.ctx(7)
    ms, xs = _weights(7), [1, 3, 6]
    values = cache.values(7)
    sums = weighted_touchard_sum(ctx, ms, cache.matrix(7))
    for rep in _touchard_grid(ctx, ms, xs, values, sums):
        sides = (rep.lhs, rep.rhs) if isinstance(rep.lhs, int) else rep.lhs + rep.rhs
        assert all(type(v) is int for v in sides), rep
        assert all(type(v) is int for v in rep.params.values()), rep
        assert rep.passed


def test_batched_verifiers_on_empty_grids(cache):
    ctx = cache.ctx(7)
    values = cache.values(7)
    assert rows(verify_theorem2_eval(ctx, [], [1, 2], values)) == []
    assert rows(verify_theorem2_eval(ctx, [1, 2], [], values)) == []
    assert rows(verify_special_cases(ctx, [], values)) == []
    none = weighted_touchard_sum(ctx, [], cache.matrix(7))
    assert none.shape == (0, 7)
    assert rows(verify_theorem2(ctx, [], none)) == []
    assert rows(verify_proof_intermediate(ctx, [], none)) == []
    assert rows(geometric_sum_lemma_check(ctx, [], cache.jpow(7))) == []
    assert rows(verify_factorial_lemma(ctx, [])) == []
    with pytest.raises(BadModulusError):
        geometric_sum_lemma_check(ctx, [1, 14], cache.jpow(7))
    with pytest.raises(BadPointError):
        verify_theorem2_eval(ctx, [1], [3, 14], values)
    with pytest.raises(BadModulusError):
        verify_theorem2_eval(ctx, [1, 14], [3], values)
    with pytest.raises(BadModulusError):
        weighted_touchard_sum(ctx, [7], cache.matrix(7))
    with pytest.raises(BadModulusError):
        verify_factorial_lemma(ctx, [1, 14])


def pivots(ctx, ms):
    """The r param, the least positive residue of -m, of each weight's
    intermediate and factorial reports."""
    sums = weighted_touchard_sum(ctx, ms, touchard_coeff_matrix(ctx))
    inter = [r.params["r"] for r in rows(verify_proof_intermediate(ctx, ms, sums))]
    fact = {r.params["m"]: r.params["r"] for r in rows(verify_factorial_lemma(ctx, ms))}
    assert inter == [fact[m] for m in ms]
    return inter


def test_least_positive_residue(cache):
    assert pivots(cache.ctx(3), [2]) == [1]
    assert pivots(cache.ctx(7), [3]) == [4]
    for verify in (verify_factorial_lemma, proof_intermediate):
        with pytest.raises(BadModulusError):
            verify(cache.ctx(7), [7])


def test_factorial_lemma(cache):
    for p, m in ((5, 2), (3, 7), (5, 1), (7, 20)):
        reports = rows(verify_factorial_lemma(cache.ctx(p), [m]))
        assert len(reports) == m
        assert [r.params["l"] for r in reports] == list(range(m))
        assert all(r.passed for r in reports), (p, m)
    # below the split both sides vanish
    reports = rows(verify_factorial_lemma(cache.ctx(3), [7]))
    split = 7 + pivots(cache.ctx(3), [7])[0] - 3
    assert split > 0
    for r in reports[:split]:
        assert r.lhs == r.rhs == 0


def test_factorial_lemma_sweep(cache):
    for p in primes_in_range(2, 13):
        ctx = cache.ctx(p)
        ms = [m for m in range(1, 3 * p + 1) if m % p]
        reports = rows(verify_factorial_lemma(ctx, ms))
        assert [(r.params["m"], r.params["l"]) for r in reports] == [(m, l) for m in ms for l in range(m)]
        assert all(r.passed for r in reports), p
        one_weight = [r for m in ms for r in rows(verify_factorial_lemma(ctx, [m]))]
        assert [(r.params, r.lhs, r.rhs) for r in one_weight] == [(r.params, r.lhs, r.rhs) for r in reports]


def test_unit_power_table(cache):
    """J[n, j-1] = j^n mod p, as a read-only int64 array of p rows, one
    column per unit j, that the geometric lemma's calls share."""
    for p in (2, 3, 13):
        table = cg.unit_power_table(cache.ctx(p))
        assert type(table) is np.ndarray and table.dtype == np.int64
        assert table.tolist() == [[pow(j, n, p) for j in range(1, p)] for n in range(p)]
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 5


def test_geometric_sum(cache):
    reports = rows(geometric_sum_lemma_check(cache.ctx(5), [2], cache.jpow(5)))
    hits = {r.params["j"]: r.lhs for r in reports}
    assert hits == {1: 0, 2: 0, 3: 4, 4: 0}
    reports = rows(geometric_sum_lemma_check(cache.ctx(7), [6], cache.jpow(7)))
    assert [r.lhs for r in reports if r.params["j"] == 1] == [6]


def test_geometric_sum_has_one_hit_per_weight(cache):
    for p in primes_in_range(2, 31):
        ctx = cache.ctx(p)
        for m in range(1, 2 * p + 1):
            if m % p == 0:
                continue
            reports = rows(geometric_sum_lemma_check(ctx, [m], cache.jpow(p)))
            assert all(r.passed for r in reports)
            hits = [r.params["j"] for r in reports if r.rhs != 0]
            assert hits == [(-m) % p], (p, m)


def test_geometric_batch_matches_direct_powers(cache, monkeypatch):
    # the batched lemma runs on the shared weighted-power kernel; the
    # reference is the plain-int sum of (j u)^n the scalar loop computed
    for p in primes_in_range(2, 23):
        ctx = cache.ctx(p)
        ms = _weights(p) + [7 * p + 1]
        reports = rows(geometric_sum_lemma_check(ctx, ms, cache.jpow(p)))
        assert [(r.params["m"], r.params["j"]) for r in reports] == [
            (m, j) for m in ms for j in range(1, p)
        ]
        for r in reports:
            m, j = r.params["m"], r.params["j"]
            u = pow(-m % p, p - 2, p)
            assert r.lhs == sum(pow(j * u, n, p) for n in range(1, p)) % p, (p, m, j)
            assert type(r.lhs) is int and r.passed
        scalar = [r for m in ms for r in rows(geometric_sum_lemma_check(ctx, [m], cache.jpow(p)))]
        assert [(r.params, r.lhs, r.rhs) for r in scalar] == [(r.params, r.lhs, r.rhs) for r in reports]
    monkeypatch.setattr(cg, "WEIGHT_BLOCK", 3)
    blocked = rows(geometric_sum_lemma_check(cache.ctx(23), ms, cache.jpow(23)))
    assert [(r.params, r.lhs) for r in blocked] == [(r.params, r.lhs) for r in reports]


def make_report(identity, ctx, params, lhs, rhs):
    """One report with int sides, read back as the only row of its block."""
    columns = {k: np.array([v]) for k, v in params.items()}
    [report] = cg._block(identity, ctx, columns, np.array([lhs]), np.array([rhs]))
    return report


def test_block_compares_rows_of_one_shape(cache):
    ctx = cache.ctx(7)
    params = {"m": np.array([1, 2])}
    rows = np.array([[1, 2, 0], [3, 4, 0]])
    block = cg._block(Identity.THEOREM2_POLY, ctx, params, rows, np.array([[1, 2, 0], [3, 5, 0]]))
    assert block.passed.tolist() == [True, False]
    assert [(r.lhs, r.rhs) for r in block] == [((1, 2), (1, 2)), ((3, 4), (3, 5))]
    # sides that would broadcast against each other into a wrong mask
    for lhs, rhs in ((rows[:, :1], rows), (rows[:, 0], rows[:, :1]), (rows[:, 0], rows[:1, 0])):
        with pytest.raises(ValueError, match="shapes"):
            cg._block(Identity.THEOREM2_POLY, ctx, params, lhs, rhs)


def test_make_report_and_sort_key(cache):
    ctx = cache.ctx(7)
    rep = make_report(Identity.THEOREM1, ctx, {"m": 3}, 1, 1)
    assert rep.params == {"p": 7, "m": 3}
    assert rep.passed
    bad = make_report(Identity.THEOREM1, ctx, {"m": 4}, 1, 2)
    assert not bad.passed
    reports = [
        make_report(Identity.THEOREM1, cache.ctx(11), {"m": 1}, 0, 0),
        make_report(Identity.TOUCHARD_EQ1, cache.ctx(13), {"n": 2}, 0, 0),
        make_report(Identity.THEOREM1, cache.ctx(11), {"m": 3}, 0, 0),
        make_report(Identity.THEOREM1, cache.ctx(7), {"m": 9}, 0, 0),
    ]
    ordered = sorted(reports, key=report_sort_key)
    assert [r.identity for r in ordered][0] is Identity.TOUCHARD_EQ1
    assert [(r.p, r.params.get("m")) for r in ordered[1:]] == [
        (7, 9),
        (11, 1),
        (11, 3),
    ]
