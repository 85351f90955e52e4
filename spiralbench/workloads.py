"""Seeded inputs, expected verdicts and output checks for the benchmark workloads.

spiralcover only ever sees the JSON files written here.  Every expected
exit code is fixed by construction, never by running spiralcover:

* class members (built from a probability measure with the declared
  parameters) must pass every check and the covering test, so they expect 0;
* the two kinds of non-member below provably fail, so they expect 1.

The population follows ``tests/conftest.py`` draw for draw, so a given
seed yields the same maps as the test suite's population with that seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

POPULATION_SIZE = 100     # conftest entries; each gives a complex-mu and a real-mu map
NONMEMBER_EVERY = 10      # every tenth item is a non-member
MISLABEL = 0.3            # non-members declare beta0 + MISLABEL
WIDE_MEMBERS = 36
WIDE_ATOMS = (64, 2048)   # log-uniform atom counts of wide-measure maps
WIDE_COPIES = 3           # wide-measure members per atom count: 12 counts
ARC = math.pi / 3         # wide non-member atoms lie at angles in (-ARC, ARC)

ALL_CHECKS = (
    "membership",
    "distortion-coefficient",
    "derivative-disk",
    "schwarz",
    "value-bounds",
    "derivative-bounds",
    "interior-identity",
    "growth",
    "wedge-containment",
)
WIDE_CHECKS = "membership,distortion,derivative-disk,schwarz,value-bounds,interior-identity"
WIDE_REPORTS = (
    "membership",
    "distortion-coefficient",
    "derivative-disk",
    "schwarz",
    "value-bounds",
    "interior-identity",
)
REPORT_KEYS = {"check", "passed", "worst_margin", "worst_z", "tolerance", "samples"}
COVER_ARGS = ["--r-inner", "0.95", "--rho", "0.999", "--samples", "2048"]

WORKLOADS = ("check-population", "cover-population", "wide-measure")


@dataclass
class Item:
    """One CLI invocation with the exit code fixed when its input was generated."""

    name: str
    argv: list[str]
    expected: int
    reports: tuple[str, ...] | None  # check names of a check report; None for a cover report
    atoms: int
    output: Path


@dataclass(frozen=True)
class Entry:
    """One conftest population entry: a measure and two parameter draws."""

    angles: np.ndarray
    weights: np.ndarray
    mu: complex
    beta: float
    real_mu: complex
    real_beta: float


def draw_params(rng: np.random.Generator, real: bool = False) -> tuple[complex, float]:
    """Same draws as conftest.draw_params: mu in the parameter disk (|mu| >= 0.05) or in (0.05, 2]."""
    if real:
        mu = complex(rng.uniform(0.05, 2.0), 0.0)
    else:
        while True:
            mu = complex(1.0 + np.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
            if abs(mu) >= 0.05:
                break
    return mu, float(rng.uniform(0.0, 0.95))


def random_atoms(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Same draws as spiralcover.random_measure: uniform angles, normalized uniform weights."""
    angles = rng.uniform(0.0, 2.0 * np.pi, size=n)
    weights = rng.uniform(size=n)
    return angles, weights / weights.sum()


def population(seed: int, count: int = POPULATION_SIZE) -> list[Entry]:
    """conftest.build_population(count, seed), as raw draws."""
    rng = np.random.default_rng(seed)
    entries = []
    for i in range(count):
        n = int(rng.integers(1, 9))
        angles, weights = random_atoms(np.random.default_rng(seed + 1000 + i), n)
        mu, beta = draw_params(rng)
        real_mu, real_beta = draw_params(rng, real=True)
        entries.append(Entry(angles, weights, mu, beta, real_mu, real_beta))
    return entries


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def measure_spec(mu: complex, beta: float, angles, weights) -> dict:
    atoms = [{"angle": float(a), "weight": float(w)} for a, w in zip(angles, weights)]
    return {"mu": _pair(mu), "beta": float(beta), "measure": {"atoms": atoms}}


def mislabelled_spec(mu: complex, beta0: float, angles, weights) -> dict:
    """The G(mu, beta0) member of the measure, in factor form, declared as beta0 + 0.3.

    Its class margin is (1-beta0)*Re H(z) - 0.3 with H the Herglotz
    integral of the measure.  On the grid ring |z| = 0.995, Re H is at most
    0.075 at the grid angle farthest from all atoms when there are at most
    8 atoms (a gap of at least pi/4), and at most 0.0045 at z = -0.995 when
    every atom lies within pi/3 of angle 0.  Either way membership fails.
    """
    factors = [
        {"node": _pair(complex(np.exp(-1j * a))), "exponent": _pair(mu * (1.0 - beta0) * w)}
        for a, w in zip(angles, weights)
    ]
    return {"mu": _pair(mu), "beta": beta0 + MISLABEL, "factors": factors}


def bare_power_spec(mu: complex, beta0: float) -> dict:
    """(1-z)**(mu*beta0) declared as a member of G(mu, beta0 + 0.3).

    The declared core is (1-z)**(mu*(beta0+0.3)), and the exponent ratio
    k = 1 + 0.3/beta0 is real.  A core sample is f(w) only if
    k*Log(1 - 0.95e^{it}) + 2*pi*i*m/(mu*beta0) has imaginary part in
    (-pi/2, pi/2); near |arg(1 - 0.95e^{it})| = arcsin(0.95) the m = 0 term
    leaves that strip and |m| >= 1 shifts by more than pi/beta0, so those
    samples are not covered and `cover` fails.
    """
    return {"mu": _pair(mu), "beta": beta0 + MISLABEL, "prefactor": _pair(mu * beta0), "factors": []}


def _interleave(members: list, nonmember: Callable[[int, tuple], tuple]) -> list:
    """Members in order, with a non-member at every NONMEMBER_EVERY-th position.

    nonmember(k, last) builds the k-th non-member; last is the member before it.
    """
    out = []
    for m in members:
        out.append(m)
        if len(out) % NONMEMBER_EVERY == NONMEMBER_EVERY - 1:
            out.append(nonmember(len(out) // NONMEMBER_EVERY, m))
    return out


def _specs(workload: str, seed: int, size: int | None) -> list[tuple[str, dict, int, bool]]:
    """(name, spec, expected exit code, real mu in (0, 2]) for each item, in run order."""
    if workload in ("check-population", "cover-population"):
        entries = population(seed, POPULATION_SIZE if size is None else size)
        nm_rng = np.random.default_rng([seed, 1])
        members = []
        for i, e in enumerate(entries):
            members.append((f"c{i:03d}", measure_spec(e.mu, e.beta, e.angles, e.weights), 0, False, e))
            if workload == "check-population":
                spec = measure_spec(e.real_mu, e.real_beta, e.angles, e.weights)
                members.append((f"r{i:03d}", spec, 0, True, e))

        def nonmember(k: int, last: tuple):
            e = last[4]
            if workload == "cover-population":
                beta0 = float(nm_rng.uniform(0.05, 0.65))
                return (f"n{k:03d}", bare_power_spec(e.mu, beta0), 1, False, e)
            real = k % 2 == 1
            beta0 = float(nm_rng.uniform(0.0, 0.65))
            mu = e.real_mu if real else e.mu
            return (f"n{k:03d}", mislabelled_spec(mu, beta0, e.angles, e.weights), 1, real, e)

        return [t[:4] for t in _interleave(members, nonmember)]

    if workload == "wide-measure":
        rng = np.random.default_rng([seed, 2])
        n_members = WIDE_MEMBERS if size is None else size
        lo, hi = WIDE_ATOMS

        def ladder(count: int, copies: int) -> list[int]:
            # fixed log-uniform atom counts in a fixed order, so the work per pass and
            # the peak memory (which depends on allocation order) do not depend on the
            # seed, which draws everything else
            levels = np.linspace(0.0, 1.0, max(1, -(-count // copies)))
            return [int(n) for n in np.repeat(np.rint(lo * (hi / lo) ** levels), copies)[:count]]

        member_atoms = ladder(n_members, WIDE_COPIES)
        nonmember_atoms = ladder(n_members // (NONMEMBER_EVERY - 1), 1)
        members = []
        for i, n in enumerate(member_atoms):
            mu, beta = draw_params(rng)
            angles, weights = random_atoms(rng, n)
            members.append((f"w{i:03d}", measure_spec(mu, beta, angles, weights), 0, False))

        def nonmember(k: int, last: tuple):
            mu, _ = draw_params(rng)
            n = nonmember_atoms[k]
            angles = rng.uniform(-ARC, ARC, size=n)
            weights = rng.uniform(size=n)
            beta0 = float(rng.uniform(0.0, 0.65))
            spec = mislabelled_spec(mu, beta0, angles, weights / weights.sum())
            return (f"n{k:03d}", spec, 1, False)

        return _interleave(members, nonmember)

    raise ValueError(f"unknown workload {workload!r}")


def _atoms(spec: dict) -> int:
    return len(spec["measure"]["atoms"]) if "measure" in spec else len(spec["factors"])


def build(workload: str, seed: int, workdir: Path, run_cli, size: int | None = None) -> list[Item]:
    """Write the workload's inputs under workdir and return its items in run order.

    check- and cover-population inputs go through `spiralcover construct`
    first, as in the README pipeline, so the timed invocations read the
    12-digit factor form.  ``size`` shrinks the population for smoke tests.
    """
    raw, specs, outs = workdir / "raw", workdir / "specs", workdir / "out"
    for d in (raw, specs, outs):
        d.mkdir(parents=True, exist_ok=True)
    items = []
    for name, spec, expected, real in _specs(workload, seed, size):
        spec_path = specs / f"{name}.json"
        if workload == "wide-measure":
            spec_path.write_text(json.dumps(spec))
        else:
            raw_path = raw / f"{name}.json"
            raw_path.write_text(json.dumps(spec))
            run_cli(["construct", "-i", str(raw_path), "-o", str(spec_path)])
        out = outs / f"{name}.json"
        if workload == "check-population":
            argv = ["check", "-i", str(spec_path), "--checks", "all", "-o", str(out)]
            reports = tuple(c for c in ALL_CHECKS if real or c != "derivative-bounds")
        elif workload == "cover-population":
            argv = ["cover", "-i", str(spec_path), *COVER_ARGS, "-o", str(out)]
            reports = None
        else:
            argv = ["check", "-i", str(spec_path), "--checks", WIDE_CHECKS, "-o", str(out)]
            reports = WIDE_REPORTS
        items.append(Item(name, argv, expected, reports, _atoms(spec), out))
    return items


def _report_problem(r) -> str | None:
    if not isinstance(r, dict) or set(r) != REPORT_KEYS:
        return "report keys differ from the schema"
    if not isinstance(r["passed"], bool) or not isinstance(r["samples"], int) or r["samples"] < 1:
        return "bad passed or samples field"
    numbers = [r["worst_margin"], r["tolerance"], *r["worst_z"]] if isinstance(r["worst_z"], list) else []
    if len(numbers) != 4 or not all(isinstance(x, (int, float)) and math.isfinite(x) for x in numbers):
        return "bad worst_margin, worst_z or tolerance field"
    return None


def output_problem(item: Item, rc: int, data: bytes | None) -> str | None:
    """Why the output does not parse as the report schema, or None when it does."""
    if data is None:
        return "no output file"
    try:
        obj = json.loads(data)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        return f"output is not JSON: {exc}"
    if item.reports is None:
        problem = _report_problem(obj)
        passed = obj["passed"] if problem is None else None
        if problem is None and (obj["check"] != "covering" or obj["samples"] != 2048):
            problem = "not a 2048-sample covering report"
    else:
        if not isinstance(obj, dict) or set(obj) != {"checks", "passed"} or not isinstance(obj["checks"], list):
            return "check report keys differ from the schema"
        problem = next((p for p in map(_report_problem, obj["checks"]) if p), None)
        if problem is None and tuple(r["check"] for r in obj["checks"]) != item.reports:
            problem = "check names differ from the requested checks"
        passed = obj["passed"]
        if problem is None and (not isinstance(passed, bool) or passed != all(r["passed"] for r in obj["checks"])):
            problem = "passed disagrees with the individual checks"
    if problem is None and rc != (0 if passed else 1):
        problem = f"exit code {rc} disagrees with passed={passed}"
    return problem


def failed_checks(data: bytes) -> list[str]:
    """Names of the failing checks in a well-formed report."""
    obj = json.loads(data)
    return [r["check"] for r in obj.get("checks", [obj]) if not r["passed"]]
