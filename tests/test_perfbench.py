"""The benchmark's own self-test, run as part of the suite.

`perfbench/layers.py` wraps library functions by name and reads their
results, so renaming one of them or changing what it returns breaks the
benchmark.  Running `python3 perfbench/selftest.py` here makes that a test
failure.  It takes a few seconds and writes nothing outside `__pycache__`.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    done = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for w in spec["workloads"]:
        assert f"selftest ok: {w['name']}" in done.stdout, done.stdout
