"""Shared fixtures: the seeded random population used across suites, and a guard on numpy's error state."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
import pytest

import spiralcover as sc
from spiralcover.kernel import _log_into

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


def reference_growth_margin(ev, params, ts, eval_log=sc.eval_log):
    """growth_margin from complex logs: Re(log f(z') - log f(z)) and Re(mu*(Log(1-z') - Log(1-z))).

    The formula whose bytes the real-part scan must reproduce, with no blocks of its
    own: all shifted points z' in one eval_log (or stand-in) call and one log_principal.
    """
    rot = cmath.exp(-1j * params.phi)
    cos2 = 2.0 * math.cos(params.phi)
    power = -params.mu.real * (1.0 - params.beta)
    shifted = ev.points * np.array([[1.0 - rot * t] for t in ts])
    lhs = np.exp((eval_log(ev.f, shifted) - ev.log_f).real)
    log_ratio = params.mu * (sc.log_principal(1.0 - shifted) - ev.log_1mz)
    rhs = np.exp(log_ratio.real) * np.array([[(1.0 - t / cos2) ** power] for t in ts])
    return rhs - lhs


def log_modulus(w):
    """ln|w| through _log_into with angles off, as the growth scan takes it, into fresh arrays."""
    arr = np.asarray(w, dtype=np.complex128)
    flat = np.ascontiguousarray(arr)
    out = np.empty(flat.shape)
    _log_into(flat, np.empty(flat.shape, dtype=np.complex128), out)
    return out.item() if arr.ndim == 0 else out


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
