"""Acceptance gate: one check per shipped guarantee, every congruence exact.

Each test prints a single ``criterion N ...: PASS/FAIL`` line (visible under
``pytest -s``) and then asserts, so a red gate names exactly what broke.
"""

from time import perf_counter

from bellmod import congruences as cg
from bellmod import oracle
from bellmod.cli import SweepConfig
from bellmod.modarith import make_context, primes_in_range
from bellmod.sequences import (
    bell_mod,
    bell_row,
    bell_triangle_row,
    derangement_mod,
    derangement_row,
    derangement_series_mod,
    signed_series_row,
    stirling2_mod,
    touchard_coeff_matrix,
    touchard_value_table,
)

from conftest import render_stream, sweep_blocks

_ROWS: dict[int, tuple] = {}


def _row(p):
    """Shared per-prime context and Bell row; several criteria reuse them."""
    if p not in _ROWS:
        ctx = make_context(p)
        _ROWS[p] = (ctx, bell_row(ctx))
    return _ROWS[p]


def _rows(blocks):
    """The reports of a verifier's blocks, in order."""
    return [r for b in blocks for r in b]


def _verdict(num: int, desc: str, ok: bool) -> None:
    print(f"criterion {num} ({desc}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_01_intro_constant():
    ok = True
    for p in primes_in_range(3, 1000):
        ctx, row = _row(p)
        [rep] = _rows(cg.verify_intro_constant(ctx, 8, row))
        ok = ok and rep.passed and rep.lhs == -1853 % p
    _verdict(1, "weighted Bell sum is -1853 mod every odd prime to 1000", ok)


def test_criterion_02_theorem1():
    ok = True
    for p in primes_in_range(2, 200):
        ctx, row = _row(p)
        drow = derangement_row(ctx)
        sigma = signed_series_row(ctx)
        ms = [m for m in range(1, 3 * p + 1) if m % p]
        lhs = cg.s_m_many(ctx, ms, cg.s_m_all_units(ctx, row))
        ok = ok and lhs.tolist() == cg.theorem1_rhs(ctx, ms, drow, sigma).tolist()
    _verdict(2, "weighted sums match signed derangements, p <= 200, m <= 3p", ok)


def test_criterion_03_corollary():
    ok = True
    for p in primes_in_range(2, 100):
        ctx, row = _row(p)
        reports = _rows(cg.verify_corollary(ctx, row, derangement_row(ctx), cg.unit_power_table(ctx)))
        ok = ok and len(reports) == (p - 1) + (p - 1) ** 2
        ok = ok and all(r.passed for r in reports)
    _verdict(3, "Bell closed form plus power-sum kernel, p <= 100", ok)


def test_criterion_04_weighted_sum_chain():
    ok = True
    for p in primes_in_range(3, 101):
        ctx, row = _row(p)
        sm = cg.s_m_all_units(ctx, row)
        ok = ok and all(r.passed for r in _rows(cg.verify_eq4(ctx, sm)))
        chain = cg.s_m_chain(ctx)
        direct = cg.s_m_many(ctx, list(range(1, p)), sm)
        ok = ok and chain[1:] == direct.tolist()
    _verdict(4, "chain relation holds and unrolls to the direct sums, p <= 101", ok)


def test_criterion_05_bell_p_is_two():
    ok = True
    for p in primes_in_range(2, 1000):
        ctx, row = _row(p)
        ok = ok and _rows(cg.verify_bell_p(ctx, row))[0].passed
    _verdict(5, "B_p = 2 mod p for every prime to 1000", ok)


def test_criterion_06_touchard_congruence():
    ok = True
    for p in primes_in_range(2, 101):
        ctx, row = _row(p)
        # the index fold reaches p^2 - 1, so the full 0..2p range needs the
        # exact route at p = 2 and 3; everywhere else the fold covers it
        n_max = min(2 * p, p * p - p - 1)
        reports = _rows(cg.verify_touchard(ctx, n_max, row))
        ok = ok and len(reports) == n_max + 1 and all(r.passed for r in reports)
        for n in range(2 * p + 1):
            lhs = oracle.bell_exact(p + n)
            rhs = oracle.bell_exact(n) + oracle.bell_exact(n + 1)
            ok = ok and lhs % p == rhs % p
            if n <= n_max:
                got = bell_mod(p + n, ctx, row)
                ok = ok and got == lhs % p
    _verdict(6, "index-shift congruence for p <= 101, n up to 2p", ok)


def test_criterion_07_theorem2_polynomials():
    ok = True
    for p in primes_in_range(2, 61):
        ctx = make_context(p)
        ms = [m for m in range(1, 2 * p + 1) if m % p]
        sums = cg.weighted_touchard_sum(ctx, ms, touchard_coeff_matrix(ctx))
        reports = _rows(cg.verify_theorem2(ctx, ms, sums))
        want = len(ms)
        if p <= 31:
            reports += _rows(cg.verify_proof_intermediate(ctx, ms, sums))
            reports += _rows(cg.verify_factorial_lemma(ctx, ms))
            reports += _rows(cg.geometric_sum_lemma_check(ctx, ms, cg.unit_power_table(ctx)))
            want += len(ms) + sum(ms) + len(ms) * (p - 1)
        ok = ok and len(reports) == want and all(r.passed for r in reports)
    _verdict(7, "polynomial identity p <= 61 plus proof lemmas p <= 31", ok)


def test_criterion_08_eval_and_special_cases():
    ok = True
    for p in primes_in_range(2, 97):
        ctx, row = _row(p)
        drow = derangement_row(ctx)
        values = touchard_value_table(ctx, touchard_coeff_matrix(ctx), range(p))
        xs = list(range(1, p))
        low = [m for m in (2, 3, 4) if m % p]
        reports = _rows(cg.verify_special_cases(ctx, xs, values[:, xs]))
        ok = ok and all(r.passed for r in reports)
        seen = [(r.params["m"], r.params["x"]) for r in reports]
        ok = ok and seen == [(m, x) for m in low for x in xs]
        ok = ok and all(r.passed for r in _rows(cg.verify_theorem2_eval(ctx, low, xs, values[:, xs])))
        at_one = _rows(cg.verify_special_cases(ctx, [1], values[:, [1]]))
        rhs = cg.theorem1_rhs(ctx, [rep.params["m"] for rep in at_one], drow, signed_series_row(ctx)).tolist()
        for rep, want in zip(at_one, rhs):
            m = rep.params["m"]
            ok = ok and rep.lhs == cg.s_m(ctx, m, row)
            ok = ok and rep.rhs == want
    _verdict(8, "evaluated identity and low-weight cases, p <= 97, all x", ok)


def test_criterion_09_oracle_agreement():
    ok = oracle.egf_bell_check(30)
    ok = ok and [oracle.bell_exact(n) for n in range(9)] == [
        1, 1, 2, 5, 15, 52, 203, 877, 4140,
    ]
    ok = ok and [oracle.derangement_exact(n) for n in range(9)] == [
        1, 0, 1, 2, 9, 44, 265, 1854, 14833,
    ]
    for n in range(203):
        ok = ok and oracle.derangement_series_exact(n) == oracle.derangement_exact(n)
    for n in range(oracle.BRUTE_MAX + 1):
        ok = ok and oracle.derangement_brute(n) == oracle.derangement_exact(n)
    for p in primes_in_range(2, 101):
        ctx, row = _row(p)
        tri = bell_triangle_row(ctx)
        sigma = signed_series_row(ctx)
        drow = derangement_row(ctx)
        for n in range(2 * p + 1):
            want_b = oracle.bell_exact(n) % p
            if n < p * p:
                ok = ok and bell_mod(n, ctx, row) == want_b
            want_d = oracle.derangement_exact(n) % p
            ok = ok and derangement_mod(n, ctx, sigma) == want_d
            if n < p:
                ok = ok and int(row[n]) == want_b
                ok = ok and int(tri[n]) == want_b
                ok = ok and int(drow[n]) == want_d
                ok = ok and derangement_series_mod(n, ctx) == want_d
    for p in primes_in_range(2, 61):
        ctx = make_context(p)
        matrix = touchard_coeff_matrix(ctx)
        for n in range(p):
            for k in range(n + 1):
                want = oracle.stirling2_exact(n, k) % p
                ok = ok and int(matrix[n, k]) == want
                ok = ok and stirling2_mod(n, k, ctx) == want
    _verdict(9, "every modular path reduces the exact oracle values", ok)


def test_criterion_10_performance_and_determinism():
    t0 = perf_counter()
    ctx = make_context(9973)
    row = bell_row(ctx)
    t_row = perf_counter() - t0
    ok = t_row <= 10.0 and int(row[0]) == 1

    t0 = perf_counter()
    cfg = SweepConfig(prime_lo=2, prime_hi=500, identities=("theorem1",), workers=4)
    summary, blocks = sweep_blocks(cfg)
    t_sweep = perf_counter() - t0
    ok = ok and t_sweep <= 60.0 and summary.reports_failed == 0
    ok = ok and summary.reports_total == sum(map(len, blocks)) > 0

    small = dict(prime_lo=2, prime_hi=150, identities=("theorem1", "bellp"))
    _, r1 = sweep_blocks(SweepConfig(workers=1, **small))
    _, r4 = sweep_blocks(SweepConfig(workers=4, **small))
    streams_equal = all(
        render_stream(r1, fmt) == render_stream(r4, fmt)
        for fmt in ("text", "jsonl", "csv")
    )
    ok = ok and streams_equal
    print(
        f"criterion 10 timings: bell_row(9973) {t_row:.2f}s, "
        f"weighted-sum sweep p<=500 {t_sweep:.2f}s, "
        f"streams identical: {streams_equal}"
    )
    _verdict(10, "performance floor and worker-count determinism", ok)
