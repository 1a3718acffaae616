import hashlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout: a refactor under a demo must print the same bytes
STDOUT_SHA256 = {
    "constant_across_primes.py": "5be2af72913d12041a4d2a50130c2f1176963585434d32cca6f438ec3d1e238c",
    "index_shift_walkthrough.py": "86f1e5049d134f61870ca5a0170bd6f615c401026cbd0d0dd7f443e34edd1be3",
    "polynomial_identity_tour.py": "0a6ed5db8da46df32bf429e1cca77642379289c8c00b8377cf84a8a8f36d93e3",
}


def test_demos_exist():
    assert len(DEMOS) >= 3
    assert sorted(STDOUT_SHA256) == [path.name for path in DEMOS]


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_runs(script):
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[script.name]


def test_readme_quickstart_runs():
    """The python block under "Library quickstart" in README.md runs as
    written, so the quickstart cannot go stale against the library."""
    section = (ROOT / "README.md").read_text().split("## Library quickstart\n", 1)[1].split("\n## ", 1)[0]
    [code] = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    exec(compile(code, "README.md quickstart", "exec"), {})
