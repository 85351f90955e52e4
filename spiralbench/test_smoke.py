"""Smoke test of the benchmark at tiny sizes; it makes no timing assertions.

Run from the repository root:

    python -m pytest spiralbench/test_smoke.py
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = {"check-population": 5, "cover-population": 9, "wide-measure": 9}


def bench(capsys, workload: str, trace: int) -> dict:
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv + ["--items", str(TINY[workload])]) == 0
    return json.loads(capsys.readouterr().out.splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted(capsys, workload, trace, section):
    result = bench(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in SPEC[section]}


def test_workloads_in_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_flipped_verdict_raises_fail_share(tmp_path):
    cli = run.load_cli()
    items = workloads.build("check-population", 3, tmp_path, cli.main, size=5)
    assert any(item.expected == 1 for item in items)
    args = argparse.Namespace(workload="check-population", seconds=0)
    before, _ = run.timed_run(cli, args, items, [(0.0, 0.0)])
    flip = next(item for item in items if item.name not in run.Pass(cli, items, run.REFERENCE["check-population"]).failures)
    flip.expected = 1 - flip.expected
    after, record = run.timed_run(cli, args, items, [(0.0, 0.0)])
    assert flip.name in record["failures"]
    assert after["correct_share"] < before["correct_share"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, f"{HERE.name}/run.py", "--workload", "check-population",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
