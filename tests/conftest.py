"""Shared fixtures: the seeded random population used across suites, and a guard on numpy's error state."""

from __future__ import annotations

import cmath
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
def worked_example() -> tuple[sc.ProductForm, sc.ClassParams]:
    """The interior-node showcase map with mu = 1, beta = 0.6."""
    f = sc.ProductForm(1.0, (((0.9 + 0.4j), 0.2), ((0.9 - 0.4j), 0.2)))
    return f, sc.ClassParams(1.0, 0.6)


@pytest.fixture()
def grid() -> sc.GridSpec:
    return sc.DEFAULT_GRID
