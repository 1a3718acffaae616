"""End-to-end benchmark of ``bellmod verify``, with per-layer tracing.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed 0 --seconds 50

Run it from the root of a source checkout; the program is imported from
``src/``.  Each workload (argv, pinned report count and stream sha256 in
``perfbench/workloads.json``) runs as one fresh child process at a time
that calls ``bellmod.cli.main(argv)`` with ``--workers 1``.  Children run
back to back while the next one is expected to finish within ``--seconds``
(at least one), and each metric is the median over the run's children.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json:
wall time from spawn to exit, set-up time from spawn until ``bellmod.cli``
is imported (also sampled by import-only children), reports per second,
peak RSS from ``os.wait4`` (both taken by ``perfbench/launch.py``) and the
share of expected reports that passed.
``--trace 1`` alternates untraced and traced children and reports the
per-layer metrics: self time and calls of every wrapped function, computed
work counts, reports per identity, the time no span covers, and the
tracing overhead as traced over untraced wall time.

Every child is checked: exit code 0, the expected number of reports, no
failing report, the same stream as every other child of the run, and the
pinned sha256, which holds at every seed because no workload's stream
depends on it.  A child that fails a check counts all of its reports as
failed.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (with ``--workload all``, one
such object per workload, keyed by name).  Without ``src/bellmod`` under the current
directory it prints no result and exits 2.
"""

from __future__ import annotations

import argparse
import array
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
LAUNCH = HERE / "launch.py"
SETUP_PROBES = 5
# every child is killed once the run has lasted this long, so that the
# whole benchmark ends within its 180 s limit
HARD_LIMIT_S = 170.0
SUMMARY = re.compile(rb"checked (\d+) reports across \d+ primes in [\d.]+s; failures: (\d+)")
IDENTITY = {
    "jsonl": re.compile(rb'^\{"identity": "(\w+)"', re.M),
    "text": re.compile(rb"^(\w+) ", re.M),
}


@dataclass
class Child:
    rc: int
    wall_s: float
    rss_mb: float
    setup_s: float | None
    result: dict | None
    stream: bytes
    stderr: bytes


@dataclass
class Verdict:
    failed: int
    sha256: str | None


def spawn(root: Path, work: Path, mode: str, argv: list[str], deadline: float) -> Child:
    """Run one child to completion through launch.py, which measures its
    wall time and peak RSS."""
    launch_path, result_path = work / "launch.json", work / "result.json"
    err_path, out_path = work / "stderr.txt", work / "stream"
    spans_path = work / "result.json.spans"
    for path in (launch_path, result_path, spans_path, out_path):
        path.unlink(missing_ok=True)
    argv = [a.replace("{out}", str(out_path)) for a in argv]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    # A fixed hash seed keeps dict and set layouts, and so timings,
    # repeatable; the stream does not depend on it.
    env["PYTHONHASHSEED"] = "0"
    timeout = max(0.0, deadline - time.monotonic())
    subprocess.run(
        [sys.executable, str(LAUNCH), str(launch_path), str(timeout), str(err_path),
         sys.executable, str(CHILD), mode, str(result_path), *argv],
        env=env, stdin=subprocess.DEVNULL, check=True,
    )
    launch = json.loads(launch_path.read_text())
    result = json.loads(result_path.read_text()) if result_path.exists() else None
    if result is not None and spans_path.exists():
        flat = array.array("q", spans_path.read_bytes())
        result["spans"] = list(zip(*[iter(flat)] * 4))
    return Child(
        rc=launch["rc"],
        wall_s=launch["wall_s"],
        rss_mb=launch["rss_mb"],
        setup_s=result["t_imported"] - launch["start"] if result else None,
        result=result,
        stream=out_path.read_bytes() if out_path.exists() else b"",
        stderr=err_path.read_bytes(),
    )


def count_reports(stream: bytes, fmt: str) -> tuple[int, int]:
    """(reports, reports not marked as passing) in one rendered stream."""
    lines = stream.count(b"\n")
    passing = b'"pass": true}\n' if fmt == "jsonl" else b" PASS\n"
    return lines, lines - stream.count(passing)


def judge(child: Child, expected: int, fmt: str, pinned: str | None, reference: str | None) -> Verdict:
    """Failed reports of one child: all of them unless the child exited 0,
    printed the expected count, and wrote the pinned and reference stream."""
    sha = hashlib.sha256(child.stream).hexdigest() if child.stream else None
    if child.rc != 0 or sha is None or child.result is None:
        return Verdict(expected, sha)
    if (pinned and sha != pinned) or (reference and sha != reference):
        return Verdict(expected, sha)
    count, failing = count_reports(child.stream, fmt)
    summary = SUMMARY.search(child.stderr)
    if count != expected or summary is None or (int(summary[1]), int(summary[2])) != (count, failing):
        return Verdict(expected, sha)
    return Verdict(failing, sha)


def self_times(result: dict) -> dict[str, float]:
    """Per-layer metrics of one traced child: self time and calls of every
    wrapped function, plus the computed work counts."""
    names = result["names"]
    spans = result["spans"]
    covered = [0] * len(spans)
    self_ns = [0] * len(names)
    calls = [0] * len(names)
    for idx, parent, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    for sid, (idx, parent, start, end) in enumerate(spans):
        self_ns[idx] += end - start - covered[sid]
        calls[idx] += 1
    metrics: dict[str, float] = {}
    for i, name in enumerate(names):
        metrics[f"{name}.s"] = self_ns[i] / 1e9
        metrics[f"{name}.calls"] = calls[i]
    metrics.update(result["counts"])
    metrics["trace.spanned_s"] = sum(end - start for _, parent, start, end in spans if parent < 0) / 1e9
    return metrics


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def run_workload(root: Path, spec: dict, name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload for about ``seconds`` and return the result object."""
    wl = spec["workloads"][name]
    argv = ["verify", *wl["argv"], "--seed", str(seed), "--workers", "1", "--out", "{out}"]
    fmt = wl["argv"][wl["argv"].index("--format") + 1]
    pinned = wl["sha256"]
    work = root / ".bench_build" / "perfbench" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    samples: dict[str, list[float]] = {"wall_s": [], "setup_s": [], "peak_rss_mb": [], "traced_wall_s": []}
    layers: list[dict[str, float]] = []
    attempted = failed = 0
    reference = None
    try:
        if not trace:
            for _ in range(SETUP_PROBES):
                probe = spawn(root, work, "setup", [], deadline)
                if probe.rc != 0 or probe.setup_s is None:
                    raise RuntimeError(f"set-up probe failed: {probe.stderr.decode(errors='replace')}")
                samples["setup_s"].append(probe.setup_s)
        modes = ["plain", "trace"] if trace else ["plain"]
        t0 = time.monotonic()
        while True:
            for mode in modes:
                child = spawn(root, work, mode, argv, deadline)
                verdict = judge(child, wl["reports"], fmt, pinned, reference)
                reference = reference or verdict.sha256
                attempted += wl["reports"]
                failed += verdict.failed
                if verdict.failed:
                    sys.stderr.write(f"{name}: {mode} child failed (rc {child.rc}): "
                                     + child.stderr.decode(errors="replace")[-2000:] + "\n")
                if mode == "plain":
                    samples["wall_s"].append(child.wall_s)
                    samples["peak_rss_mb"].append(child.rss_mb)
                    if child.setup_s is not None:
                        samples["setup_s"].append(child.setup_s)
                elif child.result is not None and "spans" in child.result:
                    layer = self_times(child.result)
                    # program time outside spans: start-up, import and
                    # teardown, but not the writing of the spans
                    layer["trace.uncovered_s"] = (
                        child.wall_s - layer.pop("trace.spanned_s") - child.result["dump_s"]
                    )
                    for ident, n in Counter(IDENTITY[fmt].findall(child.stream)).items():
                        layer[f"reports.{ident.decode().lower()}"] = n
                    layers.append(layer)
                    samples["traced_wall_s"].append(child.wall_s)
            rounds = len(samples["wall_s"])
            elapsed = time.monotonic() - t0
            if time.monotonic() + elapsed / rounds > t0 + seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for key, values in samples.items():
        if values:
            q1, med, q3 = quartiles(values)
            print(f"# {name} {key}: median {med:.6g}, quartiles {q1:.6g}..{q3:.6g}, n={len(values)}")
    if trace:
        if not layers:
            raise RuntimeError("no traced child produced spans")
        metrics = {}
        for key in set().union(*layers):
            values = [layer.get(key, 0) for layer in layers]
            # counts repeat exactly; median_low keeps them whole numbers
            median = statistics.median if isinstance(values[0], float) else statistics.median_low
            metrics[key] = median(values)
        for m in spec["per_layer"]:
            if m["name"].startswith("reports."):  # identities this workload skips
                metrics.setdefault(m["name"], 0)
        metrics["trace.overhead_ratio"] = (
            statistics.median(samples["traced_wall_s"]) / statistics.median(samples["wall_s"])
        )
    else:
        wall = statistics.median(samples["wall_s"])
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(samples["setup_s"]),
            "reports_per_s": wl["reports"] / wall,
            "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
            "pass_ratio": 1 - failed / attempted,
        }
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}


def load_spec(root: Path) -> dict:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    spec["workloads"] = json.loads((HERE / "workloads.json").read_text())["workloads"]
    return spec


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "bellmod" / "cli.py").is_file():
        print(f"no bellmod source under {root / 'src'}; run from the repository root", file=sys.stderr)
        return 2
    spec = load_spec(root)
    names = list(spec["workloads"]) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in spec["workloads"]:
            print(f"unknown workload {name!r}; pick from {', '.join(spec['workloads'])} or all",
                  file=sys.stderr)
            return 2
    results = {}
    for name in names:
        try:
            results[name] = run_workload(root, spec, name, args.seed, args.seconds, bool(args.trace))
        except RuntimeError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        if args.workload == "all":
            for metric, m in results[name]["metrics"].items():
                print(f"{name} {metric} {m['value']:.6g} {m['unit']}")
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
