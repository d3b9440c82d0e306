"""Smoke test of the benchmark: every workload at small size, both modes.

    python3 -m pytest benchmarks/test_run.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "benchmarks" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_small_run_passes_every_check(trace, section):
    proc = run("--workload", "all", "--size", "small", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert [r["workload"] for r in results] == [w["name"] for w in SPEC["workloads"]]
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    for r in results:
        assert r["correct"] is True and r["failed"] == 0 and r["attempted"] >= 1
        assert {k: v["unit"] for k, v in r["metrics"].items()} == expected
        if section == "end_to_end":
            assert all(v["value"] > 0 for v in r["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run("--workload", "wide-grid", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
