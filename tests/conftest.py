"""Shared fixtures: the seeded random population used across suites, and a guard on numpy's error state."""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass

import numpy as np
import pytest

import spiralcover as sc

MASTER_SEED = 20260809
POPULATION_SIZE = 100


def draw_params(rng: np.random.Generator, real: bool = False) -> sc.ClassParams:
    """Random admissible class parameters.

    General draws cover the full parameter disk (rejecting a small
    neighborhood of 0 where the class is defined but numerically wild);
    real draws cover (0.05, 2] for the starlike-only statements.
    """
    if real:
        mu = complex(rng.uniform(0.05, 2.0), 0.0)
    else:
        while True:
            mu = 1.0 + np.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
            if abs(mu) >= 0.05:
                break
    return sc.ClassParams(mu, rng.uniform(0.0, 0.95))


@dataclass(frozen=True)
class PopulationEntry:
    measure: sc.AtomicCircleMeasure
    params: sc.ClassParams
    f: sc.ProductForm
    real_params: sc.ClassParams
    real_f: sc.ProductForm


def build_population(count: int = POPULATION_SIZE, seed: int = MASTER_SEED) -> list[PopulationEntry]:
    rng = np.random.default_rng(seed)
    entries = []
    for i in range(count):
        n = int(rng.integers(1, 9))
        sigma = sc.random_measure(n, seed + 1000 + i)
        params = draw_params(rng)
        real_params = draw_params(rng, real=True)
        entries.append(
            PopulationEntry(
                measure=sigma,
                params=params,
                f=sc.construct(params, sigma),
                real_params=real_params,
                real_f=sc.construct(real_params, sigma),
            )
        )
    return entries


def build_interior_population(count: int = POPULATION_SIZE, seed: int = MASTER_SEED) -> list[tuple]:
    """(f, params) of class members whose measure has no atom: 1 to 4 nodes c_k inside the disk.

    f = (1-z)**mu / prod (1 - c_k*z)**(mu*a_k), with a_k in [-0.15, 0.4] (in 30 % of the maps with
    imaginary parts up to 0.05) and mu drawn as draw_params draws it.  Its class expression
    (2/mu)*z*f'/f + (1+z)/(1-z) = 1 - sum a_k + sum a_k*(1 + c_k*z)/(1 - c_k*z) has a harmonic real
    part, least on the circle; beta is 1e-3 below its least value B over 2**15 angles, and a draw
    whose beta falls outside [0, 0.95) is drawn again.
    """
    rng = np.random.default_rng(seed)
    circle = np.exp(2j * np.pi * np.arange(2**15) / 2**15)
    members = []
    while len(members) < count:
        n = int(rng.integers(1, 5))
        c = rng.uniform(0.55, 0.995, n) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))
        a = rng.uniform(-0.15, 0.4, n) + (1j * rng.uniform(-0.05, 0.05, n) if rng.uniform() < 0.3 else 0.0)
        mu = draw_params(rng).mu
        w = c[:, None] * circle
        beta = float(((1.0 - a.sum()) + (a[:, None] * (1.0 + w) / (1.0 - w)).sum(axis=0)).real.min()) - 1e-3
        if 0.0 <= beta < 0.95:
            members.append((sc.ProductForm(mu, np.column_stack([c, mu * a])), sc.ClassParams(mu, beta)))
    return members


def growth_shifts(params) -> list[float]:
    """The 32 shifts t = 2*cos(phi)*k/33, k = 1..32, spread over (0, 2*cos(phi))."""
    return [2.0 * math.cos(params.phi) * k / 33.0 for k in range(1, 33)]


def reference_growth_margin(ev, params, ts, eval_log=sc.eval_log):
    """The rate L(z, t)/t of the growth inequality, one row per shift t of ts, from complex logs.

    For 0 < t < 2*cos(phi) the point z' = z*(1 - exp(-i*phi)*t) stays in the disk, and
    with g = log(f/(1-z)**mu) the inequality is L >= 0 with
    L = Re g(z) - Re g(z') - Re(mu)*(1-beta)*log(1 - t/(2*cos(phi))).  g(z) comes from
    the evaluation, and g at all shifted points z' from one eval_log (or stand-in) call
    on the ratio map, prefactor p - mu with f's factors.  As t -> 0+ the rate tends to
    (|mu|/2) times the class margin, which is what check_growth reports.
    """
    rot = cmath.exp(-1j * params.phi)
    cos2 = 2.0 * math.cos(params.phi)
    power = -params.mu.real * (1.0 - params.beta)
    shifted = ev.points * np.array([[1.0 - rot * t] for t in ts])
    ratio = sc.ProductForm(ev.f.prefactor - params.mu, ev.f.factors)
    g = (ev.log_f - params.mu * ev.log_1mz).real
    rows = np.array([[power * math.log1p(-t / cos2)] for t in ts])
    return (g - eval_log(ratio, shifted).real + rows) / np.array([[t] for t in ts])


def report_oracle(obj):
    """The value json.dumps writes for a report: floats at 12 significant digits, complex values as [re, im]."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, complex):
        return [report_oracle(obj.real), report_oracle(obj.imag)]
    if isinstance(obj, dict):
        return {k: report_oracle(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [report_oracle(v) for v in obj]
    return obj


def report_json(value) -> str:
    """value as the package's report files write JSON, for input files: json.dumps of report_oracle(value)."""
    return json.dumps(report_oracle(value), indent=2) + "\n"


def bit_equal(a, b) -> bool:
    """Same shape and the same float64 bits, complex values part by part, so -0.0 differs from 0.0."""
    dtype = np.complex128 if np.iscomplexobj(a) or np.iscomplexobj(b) else np.float64
    a, b = np.asarray(a, dtype=dtype), np.asarray(b, dtype=dtype)
    # ascontiguousarray is at least 1-d, as the int64 view of a complex value needs
    return a.shape == b.shape and np.array_equal(*(np.ascontiguousarray(x).view(np.int64) for x in (a, b)))


@pytest.fixture(autouse=True)
def numpy_error_state_restored():
    """Every test leaves numpy's floating-point error state as it found it.

    A leak is restored before it is reported, so it fails each test that leaks it
    and hides no warning from the tests after it.
    """
    before = np.geterr()
    yield
    after = np.geterr()
    np.seterr(**before)
    assert after == before, "numpy's error state leaked out of the test"


@pytest.fixture(scope="session")
def population() -> list[PopulationEntry]:
    return build_population()


@pytest.fixture(scope="session")
def interior_population() -> list[tuple]:
    return build_interior_population()


@pytest.fixture(scope="session")
def worked_example() -> tuple[sc.ProductForm, sc.ClassParams]:
    """The interior-node showcase map with mu = 1, beta = 0.6."""
    f = sc.ProductForm(1.0, (((0.9 + 0.4j), 0.2), ((0.9 - 0.4j), 0.2)))
    return f, sc.ClassParams(1.0, 0.6)


@pytest.fixture()
def grid() -> sc.GridSpec:
    return sc.DEFAULT_GRID
