import hashlib
import json
import subprocess
import sys

import pytest

from bellmod import congruences as cg
from bellmod.cli import (
    SweepConfig,
    _m_grid,
    _pool_size,
    _parse_range,
    _x_grid,
    main,
    render_reports,
    run_sweep,
)
from bellmod.congruences import Identity, make_report
from bellmod.modarith import make_context


def run_main(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_seq_bell_exact(capsys):
    code, out, _ = run_main(capsys, "seq", "bell", "0..8")
    assert code == 0
    assert out == "1 1 2 5 15 52 203 877 4140\n"


def test_seq_derangement_exact(capsys):
    code, out, _ = run_main(capsys, "seq", "derangement", "0..8")
    assert code == 0
    assert out == "1 0 1 2 9 44 265 1854 14833\n"


def test_seq_touchard_mod(capsys):
    code, out, _ = run_main(capsys, "seq", "touchard", "3", "--mod", "7")
    assert code == 0
    assert out == "[0,1,3,1]\n"


def test_seq_touchard_exact_rows(capsys):
    code, out, _ = run_main(capsys, "seq", "touchard", "0..2")
    assert code == 0
    assert out == "[1]\n[0,1]\n[0,1,1]\n"


def test_seq_bell_mod(capsys):
    code, out, _ = run_main(capsys, "seq", "bell", "0..8", "--mod", "11")
    assert code == 0
    assert out == "1 1 2 5 4 8 5 8 4\n"


def test_seq_derangement_mod_goes_past_p(capsys):
    code, out, _ = run_main(capsys, "seq", "derangement", "7..9", "--mod", "7")
    assert code == 0
    assert out == "1854 14833 133496\n".replace(
        "1854", str(1854 % 7)
    ).replace("14833", str(14833 % 7)).replace("133496", str(133496 % 7))


def test_seq_stirling(capsys):
    code, out, _ = run_main(capsys, "seq", "stirling", "4", "--k", "2")
    assert (code, out) == (0, "7\n")
    code, out, _ = run_main(capsys, "seq", "stirling", "4", "--k", "2", "--mod", "11")
    assert (code, out) == (0, "7\n")


def test_seq_usage_errors(capsys):
    assert run_main(capsys, "seq", "stirling", "4")[0] == 2
    assert run_main(capsys, "seq", "bell", "9..2")[0] == 2
    assert run_main(capsys, "seq", "bell", "abc")[0] == 2
    assert run_main(capsys, "seq", "bell", "-3")[0] == 2
    assert run_main(capsys, "seq", "bell", "30", "--mod", "5")[0] == 2  # 30 >= 25
    assert run_main(capsys, "seq", "bell", "3", "--mod", "4")[0] == 2
    assert run_main(capsys, "seq", "bell", "2000")[0] == 2  # oracle cap


def test_verify_theorem1_sweep(capsys):
    code, out, err = run_main(
        capsys, "verify", "--identities", "theorem1", "--primes", "3..50",
        "--m-max", "100",
    )
    assert code == 0
    assert "failures: 0" in err
    assert all(line.endswith("PASS") for line in out.splitlines())


def test_verify_intro_constant(capsys):
    code, out, _ = run_main(
        capsys, "verify", "--identities", "intro", "--primes", "3..200", "--m", "8"
    )
    assert code == 0
    for line, p in zip(out.splitlines(), (3, 5, 7)):
        assert line.startswith(f"INTRO_CONSTANT p={p} m=8 lhs={-1853 % p} ")


def test_verify_theorem2_sweep(capsys):
    code, _, err = run_main(
        capsys, "verify", "--identities", "theorem2", "--primes", "2..31",
        "--m-max", "62",
    )
    assert code == 0
    assert "failures: 0" in err


def test_verify_usage_errors(capsys):
    assert run_main(capsys, "verify", "--primes", "50..3")[0] == 2
    assert run_main(
        capsys, "verify", "--primes", "3..7", "--identities", "nope"
    )[0] == 2
    assert run_main(capsys, "verify", "--primes", "3..7", "--x", "abc")[0] == 2
    assert run_main(capsys, "verify", "--primes", "3..7", "--m", "-3")[0] == 2
    assert run_main(capsys, "verify", "--primes", "3..7", "--m", "0")[0] == 2
    assert run_main(capsys, "verify", "--primes", "3..7", "--workers", "0")[0] == 2
    assert run_main(capsys, "verify", "--primes", "3..7", "--workers", "-2")[0] == 2


def test_verify_weight_past_oracle_cap_is_usage_error(capsys):
    # the intro constant takes D_{m-1} exactly, and the oracle stops at 1200
    code, out, err = run_main(
        capsys, "verify", "--identities", "intro", "--primes", "3..7", "--m", "5000"
    )
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_pool_size_clamps_to_jobs_and_cpus(monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: 4)
    assert _pool_size(1, 10) == 1
    assert _pool_size(3, 10) == 3
    assert _pool_size(64, 10) == 4
    assert _pool_size(64, 2) == 2
    assert _pool_size(8, 0) == 1
    monkeypatch.setattr("os.cpu_count", lambda: None)
    assert _pool_size(8, 10) == 1
    for bad in (0, -1):
        with pytest.raises(ValueError):
            _pool_size(bad, 10)


def test_verify_jsonl_schema(capsys):
    code, out, _ = run_main(
        capsys, "verify", "--identities", "theorem1,theorem2", "--primes", "5..7",
        "--format", "jsonl",
    )
    assert code == 0
    for line in out.splitlines():
        obj = json.loads(line)
        assert set(obj) == {"identity", "p", "params", "lhs", "rhs", "pass"}
        assert isinstance(obj["p"], int)
        assert "p" not in obj["params"]
        assert obj["pass"] is True
        if obj["identity"] == "THEOREM2_POLY":
            assert isinstance(obj["lhs"], list)
            assert all(isinstance(c, str) for c in obj["lhs"])
        else:
            assert isinstance(obj["lhs"], str)


def test_verify_csv_header(capsys):
    code, out, _ = run_main(
        capsys, "verify", "--identities", "geometric", "--primes", "5..5",
        "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "identity,p,m,n,x,pass,lhs,rhs,k,l,j,r"
    assert lines[1].startswith("GEOMETRIC_SUM,5,1,,,true,")


def test_verify_out_file(tmp_path, capsys):
    target = tmp_path / "reports.jsonl"
    code, out, _ = run_main(
        capsys, "verify", "--identities", "bellp", "--primes", "2..13",
        "--format", "jsonl", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    lines = target.read_text().splitlines()
    assert len(lines) == 6
    assert json.loads(lines[0])["identity"] == "BELL_P"


def test_verify_out_unwritable_is_usage_error(capsys, tmp_path):
    code, _, err = run_main(
        capsys, "verify", "--identities", "bellp", "--primes", "2..3",
        "--out", str(tmp_path / "missing" / "x.txt"),
    )
    assert code == 2
    assert err


def test_verify_failure_exits_one(capsys, monkeypatch):
    # sabotage the weighted sums so the pipeline sees real failures
    real = cg.s_m_many

    def crooked(ctx, ms, row=None):
        return [(v + 1) % ctx.p for v in real(ctx, ms, row)]

    monkeypatch.setattr(cg, "s_m_many", crooked)
    code, out, err = run_main(
        capsys, "verify", "--identities", "theorem1", "--primes", "3..7"
    )
    assert code == 1
    assert "first failure: THEOREM1 p=3 m=1" in err
    assert out.splitlines()[0].endswith("FAIL")


def test_run_sweep_deterministic_across_workers():
    cfg = dict(
        prime_lo=2, prime_hi=19, identities=("theorem1", "eq10", "special"),
    )
    s1, r1 = run_sweep(SweepConfig(workers=1, **cfg))
    s2, r2 = run_sweep(SweepConfig(workers=2, **cfg))
    assert s1.reports_total == s2.reports_total > 0
    assert s1.reports_failed == s2.reports_failed == 0
    for fmt in ("text", "jsonl", "csv"):
        assert render_reports(r1, fmt) == render_reports(r2, fmt)


# sha256 of `verify --identities all --primes 2..31 --format jsonl`, pinned
# before the Touchard-sum verifiers were batched
ALL_2_31_SHA256 = "4eab9f4e132e0b2ccbe8cc2014bc173f6fcccf0cf81e7d51a8a22999ff2e5255"


@pytest.mark.parametrize("workers", ["1", "2"])
def test_verify_all_stream_is_pinned(capsys, tmp_path, workers):
    target = tmp_path / "all.jsonl"
    code, _, err = run_main(
        capsys, "verify", "--identities", "all", "--primes", "2..31", "--format", "jsonl",
        "--workers", workers, "--out", str(target),
    )
    assert code == 0, err
    assert "checked 23466 reports across 11 primes" in err
    assert hashlib.sha256(target.read_bytes()).hexdigest() == ALL_2_31_SHA256


def test_run_sweep_first_failure_is_canonical(monkeypatch):
    real = cg.s_m_many

    def crooked(ctx, ms, row=None):
        return [(v + 1) % ctx.p for v in real(ctx, ms, row)]

    monkeypatch.setattr(cg, "s_m_many", crooked)
    summary, reports = run_sweep(
        SweepConfig(prime_lo=3, prime_hi=13, identities=("theorem1",))
    )
    assert summary.reports_failed == summary.reports_total
    failed = [r for r in reports if not r.passed]
    assert summary.first_failure is failed[0]
    assert (summary.first_failure.p, summary.first_failure.params["m"]) == (3, 1)


def test_bench(capsys, monkeypatch):
    code, out, _ = run_main(capsys, "bench", "101")
    assert code == 0
    assert "bell_row(101):" in out
    assert "all-units route over 100 units:" in out
    assert "direct s_m loop over 29 sampled weights:" in out
    assert "all weighted sums match" in out
    assert run_main(capsys, "bench", "4")[0] == 2

    real = cg.s_m

    def crooked(ctx, m, row=None):
        return real(ctx, m, row) + 1

    monkeypatch.setattr(cg, "s_m", crooked)
    code, out, err = run_main(capsys, "bench", "101")
    assert code == 1
    assert "ROUTE MISMATCH at m = 1:" in err
    assert "all weighted sums match" not in out


def test_parse_range():
    assert _parse_range("7", "x") == (7, 7)
    assert _parse_range("3..9", "x") == (3, 9)
    for bad in ("9..3", "a", "1..2..3", ""):
        with pytest.raises(Exception):
            _parse_range(bad, "x")


def test_m_grid_skips_multiples_of_p():
    cfg = SweepConfig(prime_lo=5, prime_hi=5, identities=("theorem1",), m_max=12)
    assert _m_grid(cfg, 5) == [1, 2, 3, 4, 6, 7, 8, 9, 11, 12]
    single = SweepConfig(prime_lo=5, prime_hi=5, identities=("theorem1",), m_single=10)
    assert _m_grid(single, 5) == []


def test_x_grid_modes():
    cfg = SweepConfig(prime_lo=2, prime_hi=200, identities=("eq10",))
    assert _x_grid(cfg, 7) == [1, 2, 3, 4, 5, 6]
    xs = _x_grid(cfg, 103)
    assert len(xs) == 32
    assert xs == sorted(set(xs))
    assert all(0 < x < 103 for x in xs)
    assert _x_grid(cfg, 103) == xs  # same seed, same sample
    other = SweepConfig(prime_lo=2, prime_hi=200, identities=("eq10",), seed=1)
    assert _x_grid(other, 103) != xs
    pinned = SweepConfig(prime_lo=2, prime_hi=200, identities=("eq10",), x_mode="3")
    assert _x_grid(pinned, 7) == [3]
    assert _x_grid(pinned, 3) == []  # 3 = 0 mod 3 has no inverse


def test_render_text_format():
    ctx = make_context(7)
    rep = make_report(Identity.THEOREM1, ctx, {"m": 3}, 1, 1)
    assert render_reports([rep], "text") == "THEOREM1 p=7 m=3 lhs=1 rhs=1 PASS\n"
    poly = make_report(Identity.PROOF_INTERMEDIATE, ctx, {"m": 2, "r": 5},
                       (0, 2, 1), (0, 2, 1))
    line = render_reports([poly], "text").strip()
    assert line == "PROOF_INTERMEDIATE p=7 m=2 r=5 lhs=[0;2;1] rhs=[0;2;1] PASS"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "bellmod", "seq", "bell", "0..8"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1 1 2 5 15 52 203 877 4140\n"
