"""Smoke test of the benchmark: every workload at tiny sizes, untraced and
traced, reports every metric that BENCHMARK.json names, with its unit, and
passes its correctness checks.

    python3 -m pytest perfbench
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


def _run(cwd, out, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args, "--out", str(out)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_smoke_reports_every_metric(tmp_path, trace, section):
    proc = _run(ROOT, tmp_path, "--workload", "all", "--smoke",
                "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"], proc.stdout
    assert result["failed"] == 0 and result["attempted"] > 0
    # toy-128 runs under --workload all although BENCHMARK.json omits it
    for workload in [w["name"] for w in SPEC["workloads"]] + ["toy-128"]:
        reported = {name.split("/", 1)[1]: v
                    for name, v in result["metrics"].items()
                    if name.startswith(workload + "/")}
        assert sorted(reported) == sorted(m["name"] for m in SPEC[section])
        for m in SPEC[section]:
            assert reported[m["name"]]["unit"] == m["unit"]
            if section == "end_to_end":
                assert reported[m["name"]]["value"] > 0


def test_fails_without_the_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, tmp_path / "out", "--workload", "toy-128",
                "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
