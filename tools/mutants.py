"""Mutation check of the tier-1 tests.

    python3 tools/mutants.py

Each mutant below swaps one exact piece of text in one file for another.
For each one, the script copies the repository to a temporary directory,
applies the mutant there, runs the tier-1 tests in the copy and reports the
first test that failed (the mutant is killed) or that every test passed
(it survived).  The repository itself is never modified.  An unmutated copy is tested first, since a suite that already
fails kills every mutant.

Exits 0 when every mutant is killed, 1 when one survives or its text no
longer occurs exactly once in its file, and 2 when the unmutated copy
fails.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = [
    sys.executable, "-m", "pytest", "-q", "-x", "-rf", "-p", "no:cacheprovider",
    "--continue-on-collection-errors",
]
COPY_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache")

CLI = "src/bellmod/cli.py"
CONGRUENCES = "src/bellmod/congruences.py"

# name -> (file, exact old text, new text, what the mutant breaks)
MUTANTS = {
    "sort_key_dropped": (
        CLI,
        "sorted(chain.from_iterable(chunks), key=lambda b: cg._IDENTITY_RANK[b.identity])",
        "list(chain.from_iterable(chunks))",
        "run_sweep keeps the prime-major block order",
    ),
    "corollary_order_swapped": (
        CONGRUENCES,
        """        blocks.append(_block(Identity.COROLLARY, ctx, {"n": ks[one]}, bell[one], closed[one]))
        blocks.append(_block(Identity.COROLLARY, ctx, grid, lhs[i], rhs[i]))""",
        """        blocks.append(_block(Identity.COROLLARY, ctx, grid, lhs[i], rhs[i]))
        blocks.append(_block(Identity.COROLLARY, ctx, {"n": ks[one]}, bell[one], closed[one]))""",
        "each {n, k} corollary block comes before its {n} block",
    ),
    "template_params_swapped": (
        CLI,
        """ps = "".join(f" {k}=%d" for k in keys)""",
        """ps = "".join(f" {k}=%d" for k in keys[::-1])""",
        "the text template names the params in reverse order",
    ),
    "mask_from_lhs_alone": (
        CONGRUENCES,
        "passed = lhs == rhs",
        "passed = lhs == lhs",
        "every report with int sides passes",
    ),
    "first_failure_from_last_block": (
        CLI,
        "failing[0][int(np.argmin(failing[0].passed))]",
        "failing[-1][int(np.argmin(failing[-1].passed))]",
        "the first failure comes from the last failing block",
    ),
    "empty_tuple_dropped": (
        CLI,
        """    return "[" + ";".join(map(str, side)) + "]"
""",
        """    return "[" + ";".join(map(str, side)) + "]" if side else ""
""",
        "the text and csv polynomial side of the zero polynomial is empty",
    ),
    "csv_header_per_block": (
        CLI,
        "fh.write(render_reports([block], args.format, header=False))",
        "fh.write(render_reports([block], args.format))",
        "every csv block repeats the header",
    ),
    "one_write": (
        CLI,
        """        fh.write(render_reports(blocks[:1], args.format))
        for block in blocks[1:]:
            fh.write(render_reports([block], args.format, header=False))""",
        """        fh.write(render_reports(blocks, args.format))""",
        "the writer renders the whole stream into one string",
    ),
    "m_max_bound_dropped": (
        CLI,
        """("--m-max", args.m_max, 1)""",
        """("--m-max", args.m_max, -(2**63))""",
        "--m-max below 1 silently empties the weight grid",
    ),
    "factorial_factor_shifted": (
        CONGRUENCES,
        "c[live] = c[live] * (lv % p) % p",
        "c[live] = c[live] * ((lv + 1) % p) % p",
        "the factorial lemma's product takes one factor too many",
    ),
}


def run_tier1(root: Path) -> str | None:
    """None when the tier-1 tests pass in root, else the first failing test
    (or the tail of pytest's output when it names none)."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(TIER1, cwd=root, env=env, capture_output=True, text=True)
    if proc.returncode == 0:
        return None
    failed = [line.split()[1] for line in proc.stdout.splitlines() if line.startswith("FAILED ")]
    return failed[0] if failed else proc.stdout.strip()[-200:]


def check(name: str | None) -> str:
    """'killed by TEST', 'survived' or 'stale' for one mutant; for name
    None, the unmutated copy's 'passed' or 'failed: ...'."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=COPY_IGNORE)
        if name is None:
            failed = run_tier1(copy)
            return "passed" if failed is None else f"failed: {failed}"
        path, old, new, _ = MUTANTS[name]
        text = (copy / path).read_text()
        if text.count(old) != 1:
            return "stale"
        (copy / path).write_text(text.replace(old, new))
        failed = run_tier1(copy)
        return "survived" if failed is None else f"killed by {failed}"


def main() -> int:
    baseline = check(None)
    if baseline != "passed":
        print(f"the unmutated copy {baseline}", file=sys.stderr)
        return 2
    bad = []
    for name in MUTANTS:
        verdict = check(name)
        print(f"{name}: {verdict} ({MUTANTS[name][3]})", flush=True)
        if not verdict.startswith("killed"):
            bad.append(name)
    print(f"survivors: {', '.join(bad) if bad else 'none'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
