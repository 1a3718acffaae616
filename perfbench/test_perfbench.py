"""Tests of the benchmark itself, on a tiny workload.

    python3 -m pytest -q perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run

ROOT = Path(__file__).resolve().parent.parent
SMOKE = {
    "argv": ["--identities", "all", "--primes", "2..13", "--format", "jsonl"],
    "reports": 2614,
    "sha256": None,
}


@pytest.fixture()
def spec():
    spec = run.load_spec(ROOT)
    spec["workloads"]["smoke"] = SMOKE
    spec["workloads"]["broken"] = dict(SMOKE, argv=["--identities", "nosuch", "--primes", "2..13", "--format", "jsonl"])
    return spec


def smoke_child(tmp_path, mode="plain"):
    argv = ["verify", *SMOKE["argv"], "--workers", "1", "--out", "{out}"]
    return run.spawn(ROOT, tmp_path, mode, argv, time.monotonic() + 60)


@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(spec, trace):
    # traced: long enough for several untraced + traced pairs, so medians are taken
    result = run.run_workload(ROOT, spec, "smoke", seed=0, seconds=4 if trace else 0, trace=trace)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    assert result["correct"] and result["failed"] == 0
    if trace:
        assert result["attempted"] >= 4 * SMOKE["reports"]
    else:
        assert result["attempted"] == SMOKE["reports"]
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    if trace:
        counted = [m["name"] for m in wanted if m["unit"] in ("count", "bytes")]
        assert all(isinstance(metrics[name], int) for name in counted)
        assert metrics["congruences.theorem2_rhs.calls"] > 0
        assert metrics["sequences.bell_row.term_ops"] == sum(p * (p - 1) // 2 for p in (2, 3, 5, 7, 11, 13))
        assert sum(v for k, v in metrics.items() if k.startswith("reports.")) == SMOKE["reports"]
        assert metrics["trace.uncovered_s"] > 0  # start-up and import lie outside every span
    else:
        assert metrics["pass_ratio"] == 1.0
        assert 0 < metrics["setup_s"] < metrics["wall_s"]


def test_traced_stream_matches_untraced(tmp_path):
    plain = smoke_child(tmp_path)
    traced = smoke_child(tmp_path, "trace")
    assert plain.rc == traced.rc == 0
    assert plain.stream == traced.stream
    assert len(traced.result["spans"]) > 0


def test_peak_rss_leaves_out_the_parent(tmp_path):
    ballast = bytearray(160 * 2**20)
    ballast[:: 4096] = b"\1" * len(ballast[:: 4096])  # touch every page
    child = run.spawn(ROOT, tmp_path, "setup", [], time.monotonic() + 60)
    assert child.rc == 0
    assert child.rss_mb < 120
    del ballast


def test_tampered_stream_fails_every_report(tmp_path):
    child = smoke_child(tmp_path)
    good = run.judge(child, SMOKE["reports"], "jsonl", None, None)
    assert good.failed == 0
    assert run.judge(child, SMOKE["reports"], "jsonl", good.sha256, None).failed == 0

    i = child.stream.index(b'"lhs": "') + len(b'"lhs": "')
    digit = child.stream[i : i + 1]
    tampered = dataclasses.replace(child, stream=child.stream[:i] + (b"2" if digit == b"1" else b"1") + child.stream[i + 1 :])
    for pinned, reference in ((good.sha256, None), (None, good.sha256)):
        assert run.judge(tampered, SMOKE["reports"], "jsonl", pinned, reference).failed == SMOKE["reports"]

    # a failing report the program's own summary does not admit to
    flipped = dataclasses.replace(child, stream=child.stream.replace(b'"pass": true}', b'"pass": false}', 1))
    assert run.judge(flipped, SMOKE["reports"], "jsonl", None, None).failed == SMOKE["reports"]
    # a missing report
    truncated = dataclasses.replace(child, stream=child.stream[: child.stream.rindex(b"{")])
    assert run.judge(truncated, SMOKE["reports"], "jsonl", None, None).failed == SMOKE["reports"]


def test_nonzero_exit_fails_every_report(spec):
    result = run.run_workload(ROOT, spec, "broken", seed=0, seconds=0, trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == SMOKE["reports"]
    assert result["metrics"]["pass_ratio"]["value"] == 0.0


def test_count_reports_per_format():
    assert run.count_reports(b"a p=2 lhs=1 rhs=1 PASS\nb p=2 lhs=1 rhs=0 FAIL\n", "text") == (2, 1)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_all_small", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_the_workload_table():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.load_spec(ROOT)["workloads"])
