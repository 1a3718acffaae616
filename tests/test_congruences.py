import random

import pytest

from bellmod import congruences as cg
from bellmod import modarith, oracle
from bellmod.congruences import (
    BadModulusError,
    BadPointError,
    Identity,
    geometric_sum_lemma_check,
    least_positive_residue_of_neg,
    make_report,
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
    verify_proof_intermediate_many,
    verify_special_cases,
    verify_special_cases_many,
    verify_theorem1,
    verify_theorem2,
    verify_theorem2_eval,
    verify_theorem2_eval_many,
    verify_theorem2_many,
    verify_touchard,
    weighted_touchard_sums,
)
from bellmod.modarith import IndexTooLargeError, primes_in_range
from bellmod.sequences import (
    touchard_coeff_matrix,
    touchard_polys_by_recursion,
    touchard_polys_from_matrix,
    touchard_value_table,
)


def test_s_m_examples(cache):
    assert s_m(cache.ctx(7), 1).value == 1
    assert s_m(cache.ctx(7), 2).value == 0
    assert s_m(cache.ctx(7), 9).value == 0  # 9 = 2 mod 7
    assert s_m(cache.ctx(5), 8).value == 1
    with pytest.raises(BadModulusError):
        s_m(cache.ctx(7), 14)
    with pytest.raises(ValueError):
        s_m(cache.ctx(7), 0)


def test_s_m_many_matches_scalar(cache):
    for p in (2, 3, 5, 7, 13, 31, 61):
        ctx = cache.ctx(p)
        row = cache.bell(p)
        ms = [m for m in range(1, 3 * p + 1) if m % p != 0]
        got = s_m_many(ctx, ms, row)
        assert got == [s_m(ctx, m, row).value for m in ms]
    assert s_m_many(cache.ctx(7), []) == []


def test_s_m_many_all_units_route(cache):
    # the chain never touches a Bell number and s_m sums powers directly,
    # so both are independent of the chirp-z table behind s_m_many
    for p in (2, 3, 5, 1009, 9973):
        ctx, row = cache.ctx(p), cache.bell(p)
        units = list(range(1, p))
        got = s_m_many(ctx, units, row)
        if p >= 3:
            assert got == s_m_chain(ctx)[1:], p
        sample = random.Random(p).sample(units, min(p - 1, 24))
        assert [got[m - 1] for m in sample] == [s_m(ctx, m, row).value for m in sample]
        above = [m + k * p for m, k in zip(sample, (1, 2, 7, 10**30) * 6)]
        assert s_m_many(ctx, above, row) == [got[m - 1] for m in sample], p
        assert s_m_all_units(ctx, row)[1:] == got


def test_s_m_many_falls_back_to_scalar_loop(cache, monkeypatch):
    ctx, row = cache.ctx(101), cache.bell(101)
    ms = [1, 2, 50, 100, 102, 304, 10**30 + 2]
    expected = s_m_many(ctx, ms, row)
    calls = []
    real = cg.s_m

    def counted(ctx, m, row=None):
        calls.append(m)
        return real(ctx, m, row)

    monkeypatch.setattr(cg, "s_m", counted)
    monkeypatch.setattr(modarith, "CONV_EXACT_LIMIT", 100 * 100**2)  # one term short
    with pytest.raises(OverflowError):
        s_m_all_units(ctx, row)
    assert s_m_many(ctx, ms, row) == expected
    assert calls == ms


def test_s_m_depends_only_on_m_mod_p(cache):
    for p in primes_in_range(2, 101):
        ctx = cache.ctx(p)
        row = cache.bell(p)
        ms = list(range(1, p))
        assert s_m_many(ctx, ms, row) == s_m_many(ctx, [m + p for m in ms], row)


def test_s_m_chain_reproduces_direct_sums(cache):
    for p in primes_in_range(3, 101):
        ctx = cache.ctx(p)
        chain = s_m_chain(ctx)
        direct = s_m_many(ctx, list(range(1, p)), cache.bell(p))
        assert chain[1:] == direct
    with pytest.raises(BadModulusError):
        s_m_chain(cache.ctx(2))


def test_theorem1_example(cache):
    rep = verify_theorem1(cache.ctx(7), 3)
    assert rep.lhs == rep.rhs == 1
    assert rep.passed
    assert rep.params == {"p": 7, "m": 3}


def test_theorem1_rhs_routes_agree_with_oracle(cache):
    # small weights read the derangement row, larger ones the signed
    # series; both must match the exact alternating-sign derangements
    for p in (2, 3, 5, 7, 13, 31):
        ctx = cache.ctx(p)
        for m in range(1, 3 * p + 1):
            if m % p == 0:
                continue
            want = oracle.reduce((-1) ** (m - 1) * oracle.derangement_exact(m - 1), ctx)
            assert theorem1_rhs(ctx, m) == want, (p, m)


def test_theorem1_sweep(cache):
    for p in primes_in_range(2, 31):
        ctx = cache.ctx(p)
        row, drow = cache.bell(p), cache.drow(p)
        for m in range(1, 3 * p + 1):
            if m % p == 0:
                continue
            assert verify_theorem1(ctx, m, row, drow).passed, (p, m)


def test_intro_constant_examples(cache):
    rep = verify_intro_constant(cache.ctx(3))
    assert (rep.lhs, rep.rhs) == (1, 1)
    assert verify_intro_constant(cache.ctx(5)).lhs == 2
    rep = verify_intro_constant(cache.ctx(7), m=1)
    assert rep.lhs == rep.rhs == 2  # 1 + D_0 = 2 at weight 1


def test_intro_constant_is_minus_1853(cache):
    # at the default weight the full sum is 1 + s_8 = 1 - D_7 = -1853
    for p in primes_in_range(3, 100):
        rep = verify_intro_constant(cache.ctx(p))
        assert rep.passed
        assert rep.lhs == -1853 % p


def test_corollary_all_pass(cache):
    for p in primes_in_range(2, 31):
        reports = verify_corollary(cache.ctx(p), cache.bell(p), cache.drow(p))
        assert len(reports) == (p - 1) + (p - 1) ** 2
        assert all(r.passed for r in reports), p


def test_corollary_kernel_reports_carry_both_indices(cache):
    reports = verify_corollary(cache.ctx(5))
    kernel = [r for r in reports if "k" in r.params]
    assert len(kernel) == 16
    diag = [r for r in kernel if r.params["n"] == r.params["k"]]
    assert all(r.lhs == 4 for r in diag)  # -1 mod 5 on the diagonal


def test_eq4_chain(cache):
    reports = verify_eq4(cache.ctx(7), cache.bell(7))
    assert reports[0].identity is Identity.EQ4_BASE
    assert reports[0].lhs == 1
    assert len(reports) == 1 + 5
    assert all(r.passed for r in reports)
    for p in primes_in_range(3, 101):
        assert all(r.passed for r in verify_eq4(cache.ctx(p), cache.bell(p))), p
    with pytest.raises(BadModulusError):
        verify_eq4(cache.ctx(2))


def test_bell_p(cache):
    rep = verify_bell_p(cache.ctx(7), cache.bell(7))
    assert rep.lhs == rep.rhs == 2
    for p in primes_in_range(2, 300):
        assert verify_bell_p(cache.ctx(p), cache.bell(p)).passed, p


def test_touchard_fold_consistency(cache):
    for p in primes_in_range(2, 31):
        # the index fold reaches at most p^2 - 1, capping n_max at p=2, 3
        n_max = min(2 * p, p * p - p - 1)
        reports = verify_touchard(cache.ctx(p), n_max, cache.bell(p))
        assert len(reports) == n_max + 1
        assert all(r.passed for r in reports), p
    with pytest.raises(IndexTooLargeError):
        verify_touchard(cache.ctx(5), 20)


def test_touchard_against_exact_bell_numbers(cache):
    # the shift identity on true Bell numbers, reduced afterwards
    for p in primes_in_range(2, 31):
        ctx = cache.ctx(p)
        for n in range(2 * p + 1):
            lhs = oracle.bell_exact(p + n)
            rhs = oracle.bell_exact(n) + oracle.bell_exact(n + 1)
            assert oracle.reduce(lhs, ctx) == oracle.reduce(rhs, ctx), (p, n)


def test_theorem2_polynomial_examples(cache):
    ctx3 = cache.ctx(3)
    assert list(theorem2_lhs(ctx3, 2).coeffs) == [0, 0, 0, 2, 1]
    assert list(theorem2_rhs(ctx3, 2).coeffs) == [0, 0, 0, 2, 1]
    assert list(theorem2_rhs(cache.ctx(5), 4).coeffs) == [0, 0, 0, 0, 0, 4, 1, 2, 1]
    assert list(theorem2_lhs(ctx3, 5).coeffs) == [0, 0, 0, 0, 0, 0, 1, 2]
    # congruent weights differ on the left only by the monomial prefactor
    assert theorem2_lhs(ctx3, 5).equals(theorem2_lhs(ctx3, 2).mul_monomial(3, -1))


def test_theorem2_rhs_shape(cache):
    for p in (3, 5, 13):
        ctx = cache.ctx(p)
        for m in range(1, 2 * p + 1):
            if m % p == 0:
                continue
            poly = theorem2_rhs(ctx, m)
            assert poly.degree == p + m - 1, (p, m)
            top = poly.coeffs[-1]
            assert top == (1 if (m - 1) % 2 == 1 else p - 1)


def test_theorem2_sweep(cache):
    for p in primes_in_range(2, 31):
        ctx = cache.ctx(p)
        polys = touchard_polys_from_matrix(ctx)
        for m in range(1, 2 * p + 1):
            if m % p == 0:
                continue
            rep = verify_theorem2(ctx, m, polys)
            assert rep.passed, (p, m)
            assert isinstance(rep.lhs, tuple)


def test_theorem2_eval_examples(cache):
    rep = verify_theorem2_eval(cache.ctx(5), 2, 2)
    assert rep.lhs == rep.rhs == 3
    rep = verify_theorem2_eval(cache.ctx(7), 3, 1)
    assert rep.lhs == rep.rhs == 1
    with pytest.raises(BadPointError):
        verify_theorem2_eval(cache.ctx(5), 2, 10)


def test_theorem2_eval_matches_polynomial_route(cache):
    for p in primes_in_range(2, 13):
        ctx = cache.ctx(p)
        values = touchard_value_table(ctx)
        polys = touchard_polys_from_matrix(ctx)
        for m in range(1, 2 * p + 1):
            if m % p == 0:
                continue
            lhs_poly = theorem2_lhs(ctx, m, polys)
            for x in range(1, p):
                rep = verify_theorem2_eval(ctx, m, x, values)
                assert rep.passed, (p, m, x)
                # undo the (-x)^m prefactor on the evaluated lhs
                pref = pow(-x % p, m, p)
                assert lhs_poly.eval(x).value == pref * rep.lhs % p


def test_theorem2_eval_at_one_is_theorem1(cache):
    # T_n(1) = B_n collapses the weighted sum to the Bell-number sum
    for p in primes_in_range(2, 61):
        ctx = cache.ctx(p)
        values = touchard_value_table(ctx)
        row, drow = cache.bell(p), cache.drow(p)
        for m in range(1, p):
            rep = verify_theorem2_eval(ctx, m, 1, values)
            assert rep.lhs == s_m(ctx, m, row).value
            assert rep.rhs == theorem1_rhs(ctx, m, drow).value


def test_special_cases(cache):
    reports = verify_special_cases(cache.ctx(7), 1)
    by_m = {r.params["m"]: r for r in reports}
    assert set(by_m) == {2, 3, 4}
    assert by_m[4].lhs == by_m[4].rhs == 5
    assert all(r.passed for r in reports)
    # weights divisible by p are skipped
    assert {r.params["m"] for r in verify_special_cases(cache.ctx(2), 1)} == {3}
    assert {r.params["m"] for r in verify_special_cases(cache.ctx(3), 1)} == {2, 4}
    with pytest.raises(BadPointError):
        verify_special_cases(cache.ctx(5), 0)


def test_special_cases_sweep(cache):
    for p in primes_in_range(2, 31):
        ctx = cache.ctx(p)
        values = touchard_value_table(ctx)
        for x in range(1, p):
            assert all(r.passed for r in verify_special_cases(ctx, x, values)), (p, x)


def test_special_cases_at_one_match_theorem1(cache):
    for p in primes_in_range(5, 61):
        ctx = cache.ctx(p)
        row = cache.bell(p)
        for rep in verify_special_cases(ctx, 1):
            assert rep.lhs == s_m(ctx, rep.params["m"], row).value, p


def test_proof_intermediate(cache):
    ctx = cache.ctx(3)
    assert list(proof_intermediate(ctx, 2).coeffs) == [0, 2, 1]
    rep = verify_proof_intermediate(ctx, 2)
    assert rep.passed
    assert rep.params == {"p": 3, "m": 2, "r": 1}
    for p in primes_in_range(2, 31):
        ctx = cache.ctx(p)
        polys = touchard_polys_from_matrix(ctx)
        for m in range(1, 2 * p + 1):
            if m % p == 0:
                continue
            assert verify_proof_intermediate(ctx, m, polys).passed, (p, m)


def _weights(p):
    return [m for m in range(1, 2 * p + 1) if m % p]


def _touchard_grid(ctx, ms, xs, values, sums):
    """Every Touchard-sum report of one prime, as the sweep builds them."""
    return (
        verify_theorem2_many(ctx, ms, sums)
        + verify_theorem2_eval_many(ctx, ms, xs, values)
        + verify_special_cases_many(ctx, xs, values)
        + verify_proof_intermediate_many(ctx, ms, sums)
    )


def test_batched_eval_matches_polynomial_route(cache):
    # the recursion polynomials share no code with the value table or the
    # coefficient matrix behind the batched verifiers
    for p in primes_in_range(2, 13):
        ctx = cache.ctx(p)
        ms, xs = _weights(p), list(range(1, p))
        polys = touchard_polys_by_recursion(p - 1, ctx)
        values = touchard_value_table(ctx)
        evals = verify_theorem2_eval_many(ctx, ms, xs, values)
        assert [(r.params["m"], r.params["x"]) for r in evals] == [(m, x) for m in ms for x in xs]
        special = {(r.params["m"], r.params["x"]): r for r in verify_special_cases_many(ctx, xs, values)}
        assert set(special) == {(m, x) for m in (2, 3, 4) if m % p for x in xs}
        sums = weighted_touchard_sums(ctx, ms, touchard_coeff_matrix(ctx))
        for i, m in enumerate(ms):
            lhs_poly = theorem2_lhs(ctx, m, polys)
            u = pow(-m % p, p - 2, p)
            direct = [sum(polys[n].eval(x).value * pow(u, n, p) for n in range(1, p)) % p for x in xs]
            assert [sums[i].eval(x).value for x in xs] == direct, (p, m)
            for x, rep in zip(xs, evals[i * len(xs) : (i + 1) * len(xs)]):
                assert rep.passed and rep.lhs == direct[x - 1], (p, m, x)
                assert lhs_poly.eval(x).value == pow(-x % p, m, p) * rep.lhs % p
                if (m, x) in special:
                    assert special[(m, x)].passed and special[(m, x)].lhs == rep.lhs


def test_corrupt_table_entry_fails_exactly_its_point(cache):
    p, bad_x = 11, 4
    ctx = cache.ctx(p)
    ms, xs = _weights(p), list(range(1, p))
    values = touchard_value_table(ctx).copy()
    values[6, bad_x] = (values[6, bad_x] + 1) % p
    reports = verify_theorem2_eval_many(ctx, ms, xs, values) + verify_special_cases_many(ctx, xs, values)
    failed = [r for r in reports if not r.passed]
    assert failed == [r for r in reports if r.params["x"] == bad_x]
    assert len(failed) == len(ms) + 3


def test_weight_blocks_do_not_change_reports(cache, monkeypatch):
    p = 13
    ctx = cache.ctx(p)
    ms, xs = _weights(p) + [7 * p + 2], list(range(1, p))
    matrix, values = touchard_coeff_matrix(ctx), touchard_value_table(ctx)

    def grid():
        reports = _touchard_grid(ctx, ms, xs, values, weighted_touchard_sums(ctx, ms, matrix))
        return [(r.identity, r.params, r.lhs, r.rhs, r.passed) for r in reports]

    whole = grid()
    monkeypatch.setattr(cg, "WEIGHT_BLOCK", 3)  # 27 weights: nine blocks
    assert grid() == whole
    assert all(passed for *_, passed in whole)


def test_batched_report_sides_are_python_ints(cache):
    ctx = cache.ctx(7)
    ms, xs = _weights(7), [1, 3, 6]
    values = touchard_value_table(ctx)
    sums = weighted_touchard_sums(ctx, ms)
    for rep in _touchard_grid(ctx, ms, xs, values, sums):
        sides = (rep.lhs, rep.rhs) if isinstance(rep.lhs, int) else rep.lhs + rep.rhs
        assert all(type(v) is int for v in sides), rep
        assert all(type(v) is int for v in rep.params.values()), rep
        assert rep.passed


def test_batched_verifiers_on_empty_grids(cache):
    ctx = cache.ctx(7)
    values = touchard_value_table(ctx)
    assert verify_theorem2_eval_many(ctx, [], [1, 2], values) == []
    assert verify_theorem2_eval_many(ctx, [1, 2], [], values) == []
    assert verify_special_cases_many(ctx, [], values) == []
    assert weighted_touchard_sums(ctx, []) == []
    assert verify_theorem2_many(ctx, [], []) == []
    assert verify_proof_intermediate_many(ctx, [], []) == []
    with pytest.raises(BadPointError):
        verify_theorem2_eval_many(ctx, [1], [3, 14], values)
    with pytest.raises(BadModulusError):
        verify_theorem2_eval_many(ctx, [1, 14], [3], values)
    with pytest.raises(BadModulusError):
        weighted_touchard_sums(ctx, [7])


def test_least_positive_residue(cache):
    assert least_positive_residue_of_neg(cache.ctx(3), 2) == 1
    assert least_positive_residue_of_neg(cache.ctx(7), 3) == 4
    with pytest.raises(BadModulusError):
        least_positive_residue_of_neg(cache.ctx(7), 7)


def test_factorial_lemma(cache):
    for p, m in ((5, 2), (3, 7), (5, 1), (7, 20)):
        reports = verify_factorial_lemma(cache.ctx(p), m)
        assert len(reports) == m
        assert [r.params["l"] for r in reports] == list(range(m))
        assert all(r.passed for r in reports), (p, m)
    # below the split both sides vanish
    reports = verify_factorial_lemma(cache.ctx(3), 7)
    split = 7 + least_positive_residue_of_neg(cache.ctx(3), 7) - 3
    assert split > 0
    for r in reports[:split]:
        assert r.lhs == r.rhs == 0


def test_factorial_lemma_sweep(cache):
    for p in primes_in_range(2, 13):
        for m in range(1, 3 * p + 1):
            if m % p == 0:
                continue
            assert all(r.passed for r in verify_factorial_lemma(cache.ctx(p), m))


def test_geometric_sum(cache):
    reports = geometric_sum_lemma_check(cache.ctx(5), 2)
    hits = {r.params["j"]: r.lhs for r in reports}
    assert hits == {1: 0, 2: 0, 3: 4, 4: 0}
    reports = geometric_sum_lemma_check(cache.ctx(7), 6)
    assert [r.lhs for r in reports if r.params["j"] == 1] == [6]


def test_geometric_sum_has_one_hit_per_weight(cache):
    for p in primes_in_range(2, 31):
        ctx = cache.ctx(p)
        for m in range(1, 2 * p + 1):
            if m % p == 0:
                continue
            reports = geometric_sum_lemma_check(ctx, m)
            assert all(r.passed for r in reports)
            hits = [r.params["j"] for r in reports if r.rhs != 0]
            assert hits == [(-m) % p], (p, m)


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
