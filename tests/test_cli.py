import ast
import concurrent.futures
import errno
import gc
import hashlib
import importlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
import weakref
from collections import Counter
from concurrent.futures import Future
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest

from bellmod import cli, oracle, sequences
from bellmod import congruences as cg
from bellmod.cli import (
    IDENTITIES,
    SweepConfig,
    _m_grid,
    _pool_size,
    _parse_range,
    _x_grid,
    main,
    render_reports,
    run_sweep,
)
from bellmod.congruences import Identity, report_sort_key
from bellmod.modarith import make_context, primes_in_range

from conftest import render_stream, sweep_blocks


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
    # a range that runs out of bounds part way prints nothing but the line
    # of its first refused index
    refused = {
        ("touchard", "0..2", "--mod", "2"): "index 2 needs n < p = 2\n",
        ("touchard", "399..401"): "index 401 exceeds the oracle cap 400\n",
        ("bell", "3..30", "--mod", "5"): "index 25 needs n < p**2 = 25\n",
    }
    for argv, line in refused.items():
        assert run_main(capsys, "seq", *argv) == (2, "", line), argv


def test_seq_streams_its_range(capsys, monkeypatch):
    """seq prints a range a chunk of SPOOL_CELLS terms at a time, so its
    peak memory does not grow with the range; the line is the same."""
    with open(os.devnull, "w") as null:
        monkeypatch.setattr(sys, "stdout", null)
        assert main(["seq", "derangement", "0..8", "--mod", "7"]) == 0  # the imports and tables of p = 7
        tracemalloc.start()
        try:
            code = main(["seq", "derangement", "0..200000", "--mod", "7"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0 and peak < 1 << 20, peak
    monkeypatch.undo()
    # chunks of 7 terms join into the one line of the exact values
    monkeypatch.setattr(cli, "SPOOL_CELLS", 7)
    code, out, _ = run_main(capsys, "seq", "derangement", "3..1200", "--mod", "7")
    assert (code, out) == (0, " ".join(str(oracle.derangement_exact(n) % 7) for n in range(3, 1201)) + "\n")
    code, out, _ = run_main(capsys, "seq", "touchard", "0..13")
    rows = ("[" + ",".join(str(oracle.stirling2_exact(n, k)) for k in range(n + 1)) + "]" for n in range(14))
    assert (code, out) == (0, "\n".join(rows) + "\n")
    # an index refused past the first chunk still leaves stdout empty
    assert run_main(capsys, "seq", "bell", "3..30", "--mod", "5") == (2, "", "index 25 needs n < p**2 = 25\n")


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
    # a prime range past the contexts' 2**31 cap raises OverflowError inside
    code, out, err = run_main(capsys, "verify", "--primes", "2147483640..2147483650")
    assert (code, out, err) == (2, "", "range end 2147483650 is not below 2**31\n")
    for flag, value in (("--m-max", "-3"), ("--m-max", "0"), ("--n-max", "-1")):
        code, out, err = run_main(capsys, "verify", "--primes", "5", "--identities", "all", flag, value)
        assert (code, out) == (2, ""), (flag, value)
        assert err.startswith(flag) and len(err.splitlines()) == 1, (flag, value)
    # one weight and a weight range together
    code, out, err = run_main(
        capsys, "verify", "--primes", "7", "--identities", "theorem1", "--m", "5", "--m-max", "3"
    )
    assert (code, out) == (2, "") and len(err.splitlines()) == 1
    # the lowest grid bounds still run
    assert run_main(capsys, "verify", "--primes", "5", "--m-max", "1", "--n-max", "0")[0] == 0


def test_verify_weight_past_oracle_cap_is_usage_error(capsys):
    # the intro constant takes D_{m-1} exactly, and the oracle stops at 1200
    code, out, err = run_main(
        capsys, "verify", "--identities", "intro", "--primes", "3..7", "--m", "5000"
    )
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_weight_past_int64(capsys):
    m = "100000000000000000000001"
    code, out, err = run_main(capsys, "verify", "--identities", "theorem1", "--primes", "7", "--m", m)
    assert (code, out) == (0, f"THEOREM1 p=7 m={m} lhs=5 rhs=5 PASS\n")
    # geometric reads the indicator -[p | m + j] from the fold, so m + j
    # never passes int64
    for big in (m, "9223372036854775806"):
        code, out, err = run_main(capsys, "verify", "--identities", "geometric", "--primes", "7", "--m", big)
        assert code == 0 and "failures: 0" in err, big
        assert out.count(" PASS\n") == len(out.splitlines()) == 6, big
    # these build degree-(p+m) objects, so such a weight is a usage error
    for token in ("theorem2", "eq10", "factorial"):
        for big in (m, "4611686018427387905", "9223372036854775806"):
            code, out, err = run_main(capsys, "verify", "--identities", token, "--primes", "7", "--m", big)
            assert (code, out) == (2, ""), (token, big)
            assert len(err.splitlines()) == 1 and "Traceback" not in err, (token, big)


def test_n_max_past_the_touchard_cap_is_usage_error(capsys, monkeypatch):
    # B_{p+n} needs p + n < p**2, so at p = 2 the cap is n <= 1 and at p = 3
    # it is n <= 5; an explicit --n-max past the lowest prime's cap stops
    # before any prime is swept
    def unswept(job):
        raise AssertionError("a prime was swept")

    with monkeypatch.context() as patch:
        patch.setattr(cli, "_sweep_prime", unswept)
        for primes, n_max, p, cap in (("2..3", "50", 2, 1), ("3..7", "6", 3, 5)):
            code, out, err = run_main(
                capsys, "verify", "--identities", "touchard", "--primes", primes, "--n-max", n_max
            )
            assert (code, out, err) == (2, "", f"--n-max {n_max} is above p*p - p - 1 = {cap} at p = {p}\n")
    code, out, err = run_main(capsys, "verify", "--identities", "touchard", "--primes", "3", "--n-max", "5")
    assert code == 0 and "failures: 0" in err
    assert out.count(" PASS\n") == len(out.splitlines()) == 6
    # the default grid n <= min(p, p*p - p - 1) is unchanged: n <= 1 at p = 2
    code, out, _ = run_main(capsys, "verify", "--identities", "touchard", "--primes", "2")
    assert code == 0 and [line.split()[2] for line in out.splitlines()] == ["n=0", "n=1"]
    # --n-max only bounds touchard
    assert run_main(capsys, "verify", "--identities", "bellp", "--primes", "2..3", "--n-max", "50")[0] == 0


def test_out_of_memory_is_usage_error(capsys, monkeypatch):
    def exhausted(p):
        raise MemoryError()

    monkeypatch.setattr(cli, "make_context", exhausted)
    code, out, err = run_main(capsys, "verify", "--identities", "bellp", "--primes", "3..7")
    assert (code, out) == (2, "")
    assert err == "out of memory\n"


@pytest.mark.parametrize("fault", ["memory_at_last_prime", "disk_full"])
@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_failed_sweep_writes_nothing(capsys, monkeypatch, tmp_path, fault, to_file):
    """The stream is all or nothing: a sweep that fails at its last prime,
    or a spool that cannot be made, leaves stdout and --out empty."""
    if fault == "memory_at_last_prime":
        real = cg.verify_bell_p

        def exhausted(ctx, row):
            if ctx.p == 13:
                raise MemoryError()
            return real(ctx, row)

        monkeypatch.setattr(cg, "verify_bell_p", exhausted)
        expected = "out of memory\n"
    else:
        made = []

        def full(*args, **kwargs):
            if len(made) == 3:
                raise OSError(errno.ENOSPC, "No space left on device")
            made.append(real_temporary_file(*args, **kwargs))
            return made[-1]

        real_temporary_file = cli.tempfile.TemporaryFile
        monkeypatch.setattr(cli.tempfile, "TemporaryFile", full)
        expected = "[Errno 28] No space left on device\n"
    target = tmp_path / "all.csv"
    argv = ["verify", "--identities", "all", "--primes", "2..13", "--format", "csv"]
    code, out, err = run_main(capsys, *argv, *(["--out", str(target)] if to_file else []))
    assert (code, out, err) == (2, "", expected)
    assert not target.exists()
    if fault == "disk_full":
        assert len(made) == 3 and all(fh.closed for fh in made)


def test_repeated_or_reordered_tokens_do_not_change_the_stream(capsys):
    def stream(identities):
        code, out, _ = run_main(
            capsys, "verify", "--identities", identities, "--primes", "2..13", "--format", "jsonl"
        )
        assert code == 0
        return out

    assert stream("eq4,eq4") == stream("eq4")
    assert stream("eq10,theorem1") == stream("theorem1,eq10")


@pytest.mark.parametrize(
    "builders, tokens",
    [
        (
            ("touchard_coeff_matrix", "touchard_value_table"),
            "touchard,theorem1,intro,corollary,eq4,bellp,factorial,geometric",
        ),
        (("bell_row",), "theorem2,eq10,special,intermediate,factorial,geometric"),
    ],
    ids=["no_touchard_tables", "no_bell_row"],
)
def test_each_token_builds_only_its_tables(capsys, monkeypatch, builders, tokens):
    def unused(*args):
        raise AssertionError("a table no selected identity reads was built")

    for name in builders:
        monkeypatch.setattr(cli, name, unused)
    code, _, err = run_main(capsys, "verify", "--identities", tokens, "--primes", "2..13")
    assert code == 0, err
    assert "failures: 0" in err


@pytest.mark.parametrize(
    "module, builder",
    [
        pytest.param(module, name, id=name)
        for module, name in [
            (cli, "bell_row"),
            (cli, "derangement_row"),
            (cli, "signed_series_row"),
            (cli, "touchard_coeff_matrix"),
            (cli, "touchard_value_table"),
            (cg, "s_m_all_units"),
            (cg, "unit_power_table"),
        ]
    ],
)
def test_sweep_builds_each_table_once_per_prime(monkeypatch, module, builder):
    """Every identity reads its tables from PrimeTables, which builds each
    one through the module name it calls, so every identity at once builds
    each table once per prime: theorem1 and corollary share one derangement
    row, and theorem1 and eq4 one S_m table.  At seven weights to a slice,
    every grid from p = 5 on spans several calls of each sliced verifier,
    and geometric's calls share one power table."""
    built, real = [], getattr(module, builder)

    def counted(ctx, *tables):
        built.append(ctx.p)
        return real(ctx, *tables)

    monkeypatch.setattr(module, builder, counted)
    monkeypatch.setattr(cg, "WEIGHT_BLOCK", 7)
    summary = run_sweep(SweepConfig(prime_lo=2, prime_hi=13, identities=tuple(IDENTITIES)), lambda b: None)
    assert summary.reports_failed == 0
    assert built == primes_in_range(2, 13)


def test_value_table_holds_only_the_points_eq10_reads(capsys, monkeypatch):
    """Past X_ALL_LIMIT eq10 reads X_SAMPLE_SIZE seeded points, and the
    value table holds a column for each of them and for no other x."""
    shapes, real = [], cli.touchard_value_table

    def spy(*args):
        table = real(*args)
        shapes.append(table.shape)
        return table

    monkeypatch.setattr(cli, "touchard_value_table", spy)
    code, _, err = run_main(capsys, "verify", "--identities", "eq10", "--primes", "211")
    assert code == 0, err
    assert "failures: 0" in err
    assert shapes == [(211, 32)]


def test_tracer_names_resolve():
    """Every (module, attribute) the benchmark's tracer wraps exists, read
    from perfbench/child.py without running it, so renaming or removing a
    traced function fails here."""
    tree = ast.parse((Path(__file__).resolve().parent.parent / "perfbench" / "child.py").read_text())
    [wrapped] = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["WRAPPED"]
    ]
    pairs = [(module, attr) for module, attr, _ in ast.literal_eval(wrapped)]
    assert pairs
    assert [f"{m}.{a}" for m, a in pairs if not hasattr(importlib.import_module(m), a)] == []


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
    for target in (tmp_path / "missing" / "x.txt", tmp_path):  # a missing directory, a directory
        code, out, err = run_main(
            capsys, "verify", "--identities", "bellp", "--primes", "2..3", "--out", str(target),
        )
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err


def test_verify_failure_exits_one(capsys, monkeypatch):
    # sabotage the weighted sums so the pipeline sees real failures
    real = cg.s_m_many

    def crooked(ctx, ms, sm):
        return (real(ctx, ms, sm) + 1) % ctx.p

    monkeypatch.setattr(cg, "s_m_many", crooked)
    code, out, err = run_main(
        capsys, "verify", "--identities", "theorem1", "--primes", "3..7"
    )
    assert code == 1
    assert "first failure: THEOREM1 p=3 m=1" in err
    assert out.splitlines()[0].endswith("FAIL")
    # a scalar failure is echoed as its stream line, with no coefficient note
    assert err.splitlines()[1] == "first failure: " + out.splitlines()[0]


@pytest.mark.parametrize(
    "identity, bump, expected",
    [
        ("intermediate", 2, "index 2 (lhs 1, rhs 0)"),
        ("theorem2", 2, "index 3 (lhs 4, rhs 0)"),  # times -x at m = 1
        ("intermediate", None, "index 4 (lhs 0, rhs 1)"),  # the top one dropped
    ],
)
def test_first_failure_names_first_differing_coefficient(capsys, monkeypatch, identity, bump, expected):
    real = cg.weighted_touchard_sum

    def crooked(ctx, ms, matrix=None):
        sums = real(ctx, ms, matrix)
        if bump is None:
            sums[0, -1] = 0
        else:
            sums[0, bump] = (sums[0, bump] + 1) % ctx.p
        return sums

    monkeypatch.setattr(cg, "weighted_touchard_sum", crooked)
    code, out, err = run_main(capsys, "verify", "--identities", identity, "--primes", "5..7")
    assert code == 1
    summary, first = err.splitlines()
    assert summary.startswith("checked 20 reports across 2 primes in ")
    assert summary.endswith("s; failures: 2")
    # the stream line is unchanged; only stderr names the coefficient
    assert first == f"first failure: {out.splitlines()[0]}; first differing coefficient: {expected}"


# grids for the canonical-order test: the default, weights past 3p, one
# weight, and one prime above X_ALL_LIMIT, where x is sampled
ORDER_GRIDS = {
    "default": dict(prime_lo=2, prime_hi=23),
    "m_max": dict(prime_lo=2, prime_hi=23, m_max=3 * 23),
    "m_single": dict(prime_lo=2, prime_hi=23, m_single=5),
    "sampled_x": dict(prime_lo=103, prime_hi=103),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("grid", ORDER_GRIDS)
def test_run_sweep_returns_canonical_order(grid, workers):
    """run_sweep does not sort: each verifier must emit its (identity, p)
    group in report_sort_key order, and a stable sort by identity only
    regroups the prime-major stream.  This checks the result against the
    full key sort."""
    covered = set()
    for token in [*IDENTITIES, "all"]:
        tokens = tuple(IDENTITIES) if token == "all" else (token,)
        _, blocks = sweep_blocks(SweepConfig(identities=tokens, workers=workers, **ORDER_GRIDS[grid]))
        reports = [r for b in blocks for r in b]
        canonical = sorted(reports, key=report_sort_key)
        assert len(reports) == len(canonical) > 0, token
        assert all(a is b for a, b in zip(reports, canonical)), token
        covered |= {r.identity for r in reports}
    assert covered == set(Identity)


def test_run_sweep_deterministic_across_workers():
    cfg = dict(
        prime_lo=2, prime_hi=19, identities=("theorem1", "eq10", "special"),
    )
    s1, r1 = sweep_blocks(SweepConfig(workers=1, **cfg))
    s2, r2 = sweep_blocks(SweepConfig(workers=2, **cfg))
    assert s1.reports_total == s2.reports_total > 0
    assert s1.reports_failed == s2.reports_failed == 0
    for fmt in ("text", "jsonl", "csv"):
        assert render_stream(r1, fmt) == render_stream(r2, fmt)


# sha256 of `verify --identities all --primes 2..31` per format: jsonl pinned
# before the Touchard-sum verifiers were batched, text and csv before the
# sweep emitted report blocks
ALL_2_31_SHA256 = {
    "jsonl": "4eab9f4e132e0b2ccbe8cc2014bc173f6fcccf0cf81e7d51a8a22999ff2e5255",
    "text": "b46fb4509053256981c44acde0583bf573b6c19855c999bd7d5bae6ed5539a15",
    "csv": "2553c946007c78cd149e4096f80cff4edb775fc507c3d362af7e18773ce3342f",
}
PINNED_RUNS = [
    pytest.param(fmt, workers, id=workers if fmt == "jsonl" else f"{fmt}-{workers}")
    for fmt in ALL_2_31_SHA256
    for workers in ("1", "2")
]


@pytest.mark.parametrize("fmt, workers", PINNED_RUNS)
def test_verify_all_stream_is_pinned(capsys, tmp_path, fmt, workers):
    target = tmp_path / f"all.{fmt}"
    code, _, err = run_main(
        capsys, "verify", "--identities", "all", "--primes", "2..31", "--format", fmt,
        "--workers", workers, "--out", str(target),
    )
    assert code == 0, err
    assert "checked 23466 reports across 11 primes" in err
    assert hashlib.sha256(target.read_bytes()).hexdigest() == ALL_2_31_SHA256[fmt]


# sha256 of `verify --identities theorem2,intermediate --primes 257..263` per
# format: 512 and 524 weights, so 2 and 3 slices of the default WEIGHT_BLOCK,
# which no grid of 2..31 spans
POLY_257_263_SHA256 = {
    "jsonl": "bcf1616a8c125ebf873f2a4acce646659c0d87b0202855743573f27ba80cabaf",
    "text": "815013b4d87c4fe24f84d3bea2e793d795a459241fbc2579122f37253e2b012c",
    "csv": "245f5dd874211644ed5ad34281b60ee9310e6355763d51f267790d27d48f1011",
}


@pytest.mark.parametrize("fmt, workers", PINNED_RUNS)
def test_verify_polynomial_stream_is_pinned(capsys, tmp_path, fmt, workers):
    target = tmp_path / f"poly.{fmt}"
    code, _, err = run_main(
        capsys, "verify", "--identities", "theorem2,intermediate", "--primes", "257..263",
        "--format", fmt, "--workers", workers, "--out", str(target),
    )
    assert code == 0, err
    assert "checked 2072 reports across 2 primes" in err
    assert hashlib.sha256(target.read_bytes()).hexdigest() == POLY_257_263_SHA256[fmt]


@pytest.mark.parametrize("fmt", ALL_2_31_SHA256)
def test_verify_writes_block_by_block(capsys, monkeypatch, fmt):
    """The writer never holds the whole stream: no single write is longer
    than the largest block's text, and the writes make up the pinned
    stream."""
    chunks = []

    class Recorder:
        def write(self, text):
            chunks.append(text)
            return len(text)

    monkeypatch.setattr(sys, "stdout", Recorder())
    argv = ["verify", "--identities", "all", "--primes", "2..31", "--format", fmt]
    assert main(argv) == 0
    stream = "".join(chunks).encode()
    assert hashlib.sha256(stream).hexdigest() == ALL_2_31_SHA256[fmt]
    _, blocks = sweep_blocks(SweepConfig(prime_lo=2, prime_hi=31, identities=tuple(IDENTITIES)))
    assert max(map(len, chunks)) <= max(len(render_stream([b], fmt)) for b in blocks) < len(stream)


# every verifier the sweep calls, each returning the blocks of one call
SWEPT_VERIFIERS = [name for name in cg.__all__ if name.startswith("verify_")] + ["geometric_sum_lemma_check"]


@pytest.mark.parametrize("fmt", ALL_2_31_SHA256)
def test_verify_holds_one_prime_at_a_time(capsys, monkeypatch, tmp_path, fmt):
    """Memory is bounded by one verifier call: once a block of the next
    call is built, no block of an earlier call, at this prime or an earlier
    one, is alive.  A WEIGHT_BLOCK of 7 makes the m-major identities one
    call per slice of weights.  Blocks are slotted and take no weak
    reference, so the check watches the pass mask each block owns."""
    calls = []  # (p, weak refs to the pass masks of its blocks) per verifier call

    def counted(real):
        def verify(ctx, *args):
            blocks = real(ctx, *args)
            calls.append((ctx.p, [weakref.ref(b.passed) for b in blocks]))
            return blocks

        return verify

    def alive(earlier):
        return [p for p, masks in earlier if any(mask() is not None for mask in masks)]

    real = cli._sweep_prime

    def watched(job):
        for b in real(job):
            assert any(mask() is b.passed for mask in calls[-1][1]), "a block of an uncounted call"
            if alive(calls[:-1]):
                gc.collect()  # blocks hold no cycles; collect only to rule one out
            assert not alive(calls[:-1]), f"blocks of p = {alive(calls[:-1])} outlive their turn"
            yield b

    for name in SWEPT_VERIFIERS:
        monkeypatch.setattr(cg, name, counted(getattr(cg, name)))
    monkeypatch.setattr(cg, "WEIGHT_BLOCK", 7)
    monkeypatch.setattr(cli, "_sweep_prime", watched)
    target = tmp_path / f"all.{fmt}"
    code, _, err = run_main(
        capsys, "verify", "--identities", "all", "--primes", "2..31", "--format", fmt, "--out", str(target),
    )
    assert code == 0, err
    assert len({p for p, _ in calls}) == 11
    assert hashlib.sha256(target.read_bytes()).hexdigest() == ALL_2_31_SHA256[fmt]


@pytest.mark.parametrize("fmt, workers", PINNED_RUNS)
def test_weight_slices_keep_the_stream(capsys, monkeypatch, tmp_path, fmt, workers):
    """theorem2, intermediate, factorial and geometric are swept one
    WEIGHT_BLOCK of weights at a time, theorem2 and intermediate with the
    matching rows of the weighted sums.  At the default block no grid of
    2..31 spans two slices; at 7, every grid from p = 5 on does, and the
    stream is still the pinned one."""
    monkeypatch.setattr(cg, "WEIGHT_BLOCK", 7)
    target = tmp_path / f"all.{fmt}"
    code, _, err = run_main(
        capsys, "verify", "--identities", "all", "--primes", "2..31", "--format", fmt,
        "--workers", workers, "--out", str(target),
    )
    assert code == 0, err
    assert "checked 23466 reports across 11 primes" in err
    assert hashlib.sha256(target.read_bytes()).hexdigest() == ALL_2_31_SHA256[fmt]
    _, blocks = sweep_blocks(
        SweepConfig(prime_lo=29, prime_hi=31, identities=tuple(IDENTITIES), workers=int(workers))
    )
    sliced = (Identity.THEOREM2_POLY, Identity.PROOF_INTERMEDIATE, Identity.FACTORIAL_LEMMA, Identity.GEOMETRIC_SUM)
    count = Counter((b.identity, b.p) for b in blocks)
    # 56 and 60 weights, seven to a slice
    assert [count[identity, p] for p in (29, 31) for identity in sliced] == [8] * 4 + [9] * 4


def test_pool_keeps_at_most_its_size_of_primes_in_flight(monkeypatch):
    """With a pool, the sweep runs at most the pool's size of primes ahead
    of the prime whose blocks are being taken, so swept primes do not queue
    up in the parent.  An executor that sweeps each job as it is submitted
    is the worst case: nothing ever waits for a worker."""
    submitted = []

    class Eager:
        def __init__(self, max_workers):
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, job):
            submitted.append(job[0])
            future = Future()
            future.set_result(fn(job))
            return future

    monkeypatch.setattr("os.cpu_count", lambda: 4)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Eager)
    primes = primes_in_range(2, 31)
    taken = []
    for b in cli._prime_blocks(SweepConfig(prime_lo=2, prime_hi=31, identities=("bellp",), workers=2), primes):
        ahead = submitted[submitted.index(b.p) + 1 :]
        assert len(ahead) == min(2, len(primes) - 1 - primes.index(b.p)), (b.p, ahead)
        taken.append(b.p)
    assert taken == submitted == primes


def _cells_per_row(b):
    """The value cells of one row of b: its params, both sides, a polynomial
    side being its coefficient columns, and its pass word."""
    return len(b.params) + (2 * b.lhs.shape[1] if b.lhs.ndim == 2 else 2) + 1


@pytest.mark.parametrize("fmt", ALL_2_31_SHA256)
def test_verify_renders_large_blocks_in_slices(capsys, monkeypatch, tmp_path, fmt):
    """A block of more than SPOOL_CELLS cells is rendered a slice of rows at
    a time, so render memory does not grow with the block; the stream is
    the same."""
    real = cli.render_reports
    rendered = []

    def recorded(b, fmt):
        rendered.append((len(b), _cells_per_row(b)))
        return real(b, fmt)

    monkeypatch.setattr(cli, "SPOOL_CELLS", 12)
    monkeypatch.setattr(cli, "render_reports", recorded)
    target = tmp_path / f"all.{fmt}"
    code, _, err = run_main(
        capsys, "verify", "--identities", "all", "--primes", "2..31", "--format", fmt, "--out", str(target),
    )
    assert code == 0, err
    # a row wider than the budget is rendered on its own
    assert all(rows * cells <= 12 or rows == 1 for rows, cells in rendered)
    assert any(rows * cells == 12 for rows, cells in rendered)
    assert sum(rows for rows, _ in rendered) == 23466
    assert hashlib.sha256(target.read_bytes()).hexdigest() == ALL_2_31_SHA256[fmt]


def test_verify_renders_at_most_spool_rows_cells(capsys, monkeypatch, tmp_path):
    """SPOOL_CELLS bounds the value cells of one render call, not its rows:
    a row's cells are its params, both sides and its pass word, a polynomial
    side counting one cell per coefficient column, so a call holds at most
    max(1, SPOOL_CELLS // width) rows of a block whose rows have width
    cells.  The widths of the polynomial rows are read off the whole sweep."""
    _, blocks = sweep_blocks(SweepConfig(prime_lo=2, prime_hi=31, identities=tuple(IDENTITIES)))
    widths = {
        (b.identity, b.p): len(b.params) + max(len(x) + len(y) for x, y in zip(b.lhs, b.rhs)) + 1
        for b in blocks
        if b.lhs.ndim == 2
    }
    real = cli.render_reports
    calls = []

    def recorded(b, fmt):
        calls.append((b.identity, b.p, len(b), _cells_per_row(b)))
        return real(b, fmt)

    monkeypatch.setattr(cli, "SPOOL_CELLS", 64)
    monkeypatch.setattr(cli, "render_reports", recorded)
    target = tmp_path / "all.jsonl"
    code, _, err = run_main(
        capsys, "verify", "--identities", "all", "--primes", "2..31", "--format", "jsonl", "--out", str(target),
    )
    assert code == 0, err
    poly = [(rows, widths[identity, p]) for identity, p, rows, _ in calls if (identity, p) in widths]
    assert all(rows <= max(1, 64 // width) for rows, width in poly) and max(rows for rows, _ in poly) > 1
    assert all(rows * cells <= 64 for _, _, rows, cells in calls if rows > 1)
    assert any(rows * cells == 64 for _, _, rows, cells in calls)
    assert sum(rows for _, _, rows, _ in calls) == 23466
    assert hashlib.sha256(target.read_bytes()).hexdigest() == ALL_2_31_SHA256["jsonl"]


@pytest.mark.parametrize("fmt", ALL_2_31_SHA256)
def test_verify_stream_builds_no_report_rows(capsys, monkeypatch, tmp_path, fmt):
    def unbuilt(*args):
        raise AssertionError("a VerificationReport was built on the sweep path")

    real = cg.weighted_touchard_sum

    def crooked(ctx, ms, matrix=None):
        sums = real(ctx, ms, matrix)
        sums[:, 2] = (sums[:, 2] + 1) % ctx.p
        return sums

    def untimed(err):
        return re.sub(r" in \d+\.\d+s;", " in Ts;", err).splitlines()

    # a failing sweep, whose first failure carries a coefficient note
    failing = ("verify", "--identities", "theorem1,intermediate", "--primes", "5..7", "--format", fmt)
    with monkeypatch.context() as patch:
        patch.setattr(cg, "weighted_touchard_sum", crooked)
        expected = run_main(capsys, *failing)
        patch.setattr(cg, "VerificationReport", unbuilt)
        code, out, err = run_main(capsys, *failing)
    assert code == expected[0] == 1 and out == expected[1]
    assert untimed(err) == untimed(expected[2])
    assert "first differing coefficient: index 2" in err
    monkeypatch.setattr(cg, "VerificationReport", unbuilt)
    target = tmp_path / f"all.{fmt}"
    code, _, err = run_main(
        capsys, "verify", "--identities", "all", "--primes", "2..31", "--format", fmt,
        "--out", str(target),
    )
    assert code == 0, err
    assert hashlib.sha256(target.read_bytes()).hexdigest() == ALL_2_31_SHA256[fmt]


@pytest.mark.parametrize("fmt", ALL_2_31_SHA256)
def test_verify_stream_builds_no_polynomial_objects(capsys, monkeypatch, tmp_path, fmt):
    # the closed forms and polynomial sides stay int64 rows from the tables
    # to the report blocks: no reference Touchard route runs on the sweep
    def unbuilt(*args):
        raise AssertionError("a Touchard polynomial route ran on the sweep path")

    routes = ("touchard_poly", "touchard_polys_by_recursion", "touchard_polys_from_matrix")
    patched = [(sequences, name) for name in routes]
    patched += [(cli, name) for name in routes if hasattr(cli, name)]
    for module, name in patched:
        monkeypatch.setattr(module, name, unbuilt)
    for module, name in patched:
        with pytest.raises(AssertionError):
            getattr(module, name)(2, make_context(5))
    target = tmp_path / f"all.{fmt}"
    code, _, err = run_main(
        capsys, "verify", "--identities", "all", "--primes", "2..31", "--format", fmt,
        "--out", str(target),
    )
    assert code == 0, err
    assert hashlib.sha256(target.read_bytes()).hexdigest() == ALL_2_31_SHA256[fmt]


def test_run_sweep_first_failure_is_canonical(monkeypatch):
    real = cg.s_m_many

    def crooked(ctx, ms, sm):
        return (real(ctx, ms, sm) + 1) % ctx.p

    monkeypatch.setattr(cg, "s_m_many", crooked)
    summary, blocks = sweep_blocks(
        SweepConfig(prime_lo=3, prime_hi=13, identities=("theorem1",))
    )
    assert summary.reports_failed == summary.reports_total
    failed = [r for b in blocks for r in b if not r.passed]
    fields = attrgetter("identity", "p", "params", "lhs", "rhs", "passed")
    assert fields(summary.first_failure[0]) == fields(failed[0])
    assert (summary.first_failure.p, summary.first_failure.params["m"]) == (3, 1)
    # a one-row copy, so no block outlives its turn in a failing sweep
    first, source = summary.first_failure, blocks[0]
    assert len(first) == 1 and first.identity is source.identity
    for key in source.params:
        assert not np.shares_memory(first.params[key], source.params[key])
    for side in ("lhs", "rhs", "passed"):
        assert not np.shares_memory(getattr(first, side), getattr(source, side))


def test_first_failure_is_canonical_across_identities(capsys, monkeypatch):
    """theorem2 fails from p = 3 on and theorem1 only at p = 7, so the
    theorem2 failure arrives first, yet the first failure is theorem1's:
    the lowest identity rank wins, then the earliest prime."""
    real_sums, real_weighted = cg.s_m_many, cg.weighted_touchard_sum

    def crooked_sums(ctx, ms, sm):
        sums = real_sums(ctx, ms, sm)
        return (sums + 1) % ctx.p if ctx.p == 7 else sums

    def crooked_weighted(ctx, ms, matrix=None):
        sums = real_weighted(ctx, ms, matrix)
        sums[:, 2] = (sums[:, 2] + 1) % ctx.p
        return sums

    monkeypatch.setattr(cg, "s_m_many", crooked_sums)
    monkeypatch.setattr(cg, "weighted_touchard_sum", crooked_weighted)
    summary, blocks = sweep_blocks(SweepConfig(prime_lo=3, prime_hi=7, identities=("theorem2", "theorem1")))
    failed = [r for b in blocks for r in b if not r.passed]
    fields = attrgetter("identity", "p", "params", "lhs", "rhs", "passed")
    assert {r.identity for r in failed} == {Identity.THEOREM1, Identity.THEOREM2_POLY}
    assert fields(summary.first_failure[0]) == fields(failed[0])
    assert (summary.first_failure.identity, summary.first_failure.p) == (Identity.THEOREM1, 7)
    code, out, err = run_main(capsys, "verify", "--identities", "theorem2,theorem1", "--primes", "3..7")
    first_fail = next(line for line in out.splitlines() if line.endswith("FAIL"))
    assert code == 1 and first_fail.startswith("THEOREM1 p=7 m=1 ")
    assert err.splitlines()[1] == f"first failure: {first_fail}"


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
    monkeypatch.undo()

    # a wrong D_5 fails theorem1 at the one weight 6, in the weighted-sum sweep
    real_drow = cli.derangement_row

    def crooked_drow(ctx):
        row = real_drow(ctx).copy()
        row[5] = (row[5] + 1) % ctx.p
        return row

    monkeypatch.setattr(cli, "derangement_row", crooked_drow)
    code, out, err = run_main(capsys, "bench", "101")
    assert code == 1
    assert err == "MISMATCHES: 1\n"
    assert "weighted-sum sweep over 200 weights:" in out
    assert "all weighted sums match" not in out


def test_bench_builds_the_s_m_table_once(capsys, monkeypatch):
    """bench times the S_m table of PrimeTables and sweeps theorem1 on that
    same table."""
    built, real = [], cg.s_m_all_units

    def counted(ctx, row):
        built.append(ctx.p)
        return real(ctx, row)

    monkeypatch.setattr(cg, "s_m_all_units", counted)
    assert run_main(capsys, "bench", "101")[0] == 0
    assert built == [101]


@pytest.mark.parametrize(
    "argv",
    [("verify", "--identities", "bellp", "--primes", "31", "--out", "F"), ("seq", "bell", "3", "--mod", "31")],
    ids=["verify", "seq"],
)
def test_past_the_float_product_bound_exits_two(capsys, monkeypatch, tmp_path, argv):
    """Where not even one product of two residues is exact in float64,
    _mod_matmul refuses the Bell row's first step: the run exits 2 with one
    line naming p and the bound, and writes no report and no --out file."""
    monkeypatch.setattr(sequences, "_FLOAT_DOT_LIMIT", 30**2 - 1)  # one short of one product at p = 31
    assert sequences._float_chunk(31) == 0
    monkeypatch.chdir(tmp_path)
    code, out, err = run_main(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "residue products mod 31 need (p - 1)**2 <= 899 to be exact\n"
    assert not (tmp_path / "F").exists()


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
    assert _x_grid(cfg, 101) == list(range(1, 101))  # the last prime checked at every x
    xs = _x_grid(cfg, 103)
    # the sample is drawn from the seed and p, and streams above 101 depend on it
    assert xs == [5, 7, 11, 16, 19, 20, 25, 34, 36, 37, 40, 41, 42, 44, 48, 50,
                  52, 53, 54, 56, 57, 65, 68, 70, 71, 75, 76, 86, 87, 90, 96, 98]
    assert len(xs) == 32
    assert xs == sorted(set(xs))
    assert all(0 < x < 103 for x in xs)
    assert _x_grid(cfg, 103) == xs  # same seed, same sample
    other = SweepConfig(prime_lo=2, prime_hi=200, identities=("eq10",), seed=1)
    assert _x_grid(other, 103) != xs
    pinned = SweepConfig(prime_lo=2, prime_hi=200, identities=("eq10",), x=3)
    assert _x_grid(pinned, 7) == [3]
    assert _x_grid(pinned, 3) == []  # 3 = 0 mod 3 has no inverse


def test_render_text_format():
    ctx = make_context(7)
    rep = cg._block(Identity.THEOREM1, ctx, {"m": np.array([3])}, np.array([1]), np.array([1]))
    assert render_reports(rep, "text") == "THEOREM1 p=7 m=3 lhs=1 rhs=1 PASS\n"
    poly = cg._block(Identity.PROOF_INTERMEDIATE, ctx, {"m": np.array([2]), "r": np.array([5])},
                     np.array([[0, 2, 1, 0]]), np.array([[0, 2, 1, 0]]))
    line = render_reports(poly, "text").strip()
    assert line == "PROOF_INTERMEDIATE p=7 m=2 r=5 lhs=[0;2;1] rhs=[0;2;1] PASS"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "bellmod", "seq", "bell", "0..8"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1 1 2 5 15 52 203 877 4140\n"


def test_corrupt_table_entry_fails_exactly_its_reports_at_a_benchmark_prime():
    """At p = 9973 one wrong entry of one table fails exactly the reports
    that read it.  A Bell residue B_k moves every S_m by its term B_k u^k
    and B_p by (-1)^k B_k; eq4 is left out there, since which chain steps
    that breaks depends on k.  The slot of S_r fails the weights r and
    r + p and the two chain steps that contain S_r.  D_j fails only the
    weight j + 1 below p, and sigma[j] only the weight j + 1 + p above it:
    the period split of the right side of Theorem 1."""
    p = 9973
    clean = cli.PrimeTables(p, SweepConfig(p, p, ()))

    def failing(tokens, **tables):
        t = cli.PrimeTables(p, SweepConfig(p, p, tokens))
        for name in ("row", "sm", "drow", "sigma"):
            setattr(t, name, tables.get(name, getattr(clean, name)))
        return {
            (b.identity, int(b.params["m"][i]) if "m" in b.params else None)
            for token in tokens
            for b in IDENTITIES[token](t)
            for i in np.flatnonzero(~b.passed)
        }

    def bumped(table, i):
        bad = table.copy()
        bad[i] = (bad[i] + 1) % p
        return bad

    bell_side, chain = ("theorem1", "intro", "bellp"), ("theorem1", "intro", "bellp", "eq4")
    weights = [m for m in range(1, 2 * p + 1) if m % p]
    assert failing(chain) == set()
    row = bumped(clean.row, 1234)
    assert failing(bell_side, row=row, sm=cg.s_m_all_units(clean.ctx, row)) == {
        *((Identity.THEOREM1, m) for m in weights), (Identity.INTRO_CONSTANT, 8), (Identity.BELL_P, None)
    }
    for r in (2, 5678, p - 2):
        assert failing(chain, sm=bumped(clean.sm, r)) == {
            (Identity.THEOREM1, r), (Identity.THEOREM1, r + p), (Identity.EQ4_STEP, r - 1), (Identity.EQ4_STEP, r)
        }, r
    for j in (0, 4321, p - 2):
        assert failing(chain, drow=bumped(clean.drow, j)) == {(Identity.THEOREM1, j + 1)}, j
        assert failing(chain, sigma=bumped(clean.sigma, j)) == {(Identity.THEOREM1, j + 1 + p)}, j
