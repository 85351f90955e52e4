"""The names the benchmark in spiralbench/ takes from the library, checked without running it.

The tracer wraps library functions by module and name, and the workloads
pass check names on the command line and compare the reports' names and
keys, so a renamed or deleted check would otherwise show only as a
benchmark failure.  Both files are executed from their source text:
nothing under spiralbench/ is imported as a package or written.
"""

import importlib
import json
import sys
import types
from pathlib import Path

import pytest

from spiralcover import VerificationReport, verification
from spiralcover.cli import main
from spiralcover.verification import _GRID_CHECKS as CHECKS
from spiralcover.serialize import dumps, dumps_spec, function_spec

BENCH = Path(__file__).resolve().parents[1] / "spiralbench"


def load(name: str) -> types.ModuleType:
    path = BENCH / f"{name}.py"
    module = types.ModuleType(f"spiralbench_{name}")
    sys.modules[module.__name__] = module  # dataclasses look their module up there
    exec(compile(path.read_text(), str(path), "exec"), vars(module))
    return module


@pytest.fixture(scope="module")
def tracer():
    return load("tracer")


@pytest.fixture(scope="module")
def workloads():
    return load("workloads")


def report_names(checks: str, example, tmp_path) -> list[str]:
    src, out = tmp_path / "in.json", tmp_path / "out.json"
    src.write_text(dumps_spec(function_spec(*example)))
    assert main(["check", "-i", str(src), "--checks", checks, "-o", str(out)]) == 0
    return [c["check"] for c in json.loads(out.read_text())["checks"]]


def test_traced_functions_resolve(tracer):
    for module, name, _hook in tracer.TRACED:
        assert callable(getattr(importlib.import_module(f"spiralcover.{module}"), name)), f"{module}.{name}"


def test_check_calls_each_check_through_its_module_name(monkeypatch, worked_example, tmp_path):
    # the tracer rebinds verification's names, so `check` must call each check_* through them, once
    calls = []
    for name in ("check_membership", "check_wedge_containment"):

        def counted(*args, _fn=getattr(verification, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(verification, name, counted)
    report_names("all", worked_example, tmp_path)
    assert sorted(calls) == ["check_membership", "check_wedge_containment"]


def test_wide_checks_are_cli_checks(workloads):
    assert set(workloads.WIDE_CHECKS.split(",")) <= set(CHECKS)


def test_report_names(workloads, worked_example, tmp_path):
    # the README example, to which every check applies
    assert tuple(report_names("all", worked_example, tmp_path)) == workloads.ALL_CHECKS
    assert tuple(report_names(workloads.WIDE_CHECKS, worked_example, tmp_path)) == workloads.WIDE_REPORTS


def test_report_keys(workloads):
    report = VerificationReport("membership", 0.5, 0.1j, 1e-9, 896)
    assert set(json.loads(dumps(report))) == workloads.REPORT_KEYS
