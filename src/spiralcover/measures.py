"""Probability measures on the unit circle in atomic form.

An atomic measure is the universal input here: finite sums of point
masses are dense in the function class being modelled, so nothing more
general is represented.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Tuple

import numpy as np

from .kernel import DomainError

__all__ = [
    "AtomicCircleMeasure",
    "make_measure",
    "dirac_reweight",
    "random_measure",
]

CIRCLE_TOL = 1e-9       # admissible distance from the unit circle on input
MERGE_TOL = 1e-12       # atoms closer than this are merged by weight addition
SUM_EXACT_TOL = 1e-12   # weight sums within this of 1 are accepted as-is
SUM_RESCALE_TOL = 1e-6  # deviations up to this are renormalized, beyond is an error


@dataclass(frozen=True, eq=False)
class AtomicCircleMeasure:
    """Nonnegative point masses on |zeta| = 1 with total mass 1.

    Instances are produced by :func:`make_measure` and are immutable;
    the arrays are safe to share across threads.
    """

    points: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.complex128)
        wts = np.asarray(self.weights, dtype=np.float64)
        if pts.ndim != 1 or wts.shape != pts.shape or pts.size == 0:
            raise ValueError("points and weights must be matching 1-d arrays")
        if np.any(np.abs(np.abs(pts) - 1.0) > MERGE_TOL):
            raise ValueError("atom off the unit circle")
        if np.any(wts < 0):
            raise ValueError("negative atom weight")
        if abs(wts.sum() - 1.0) > MERGE_TOL:
            raise ValueError("weights do not sum to 1")
        d = np.abs(pts[:, None] - pts[None, :])
        np.fill_diagonal(d, np.inf)
        if np.any(d <= MERGE_TOL):
            raise ValueError("duplicate atoms not merged")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)
        self.points.setflags(write=False)
        self.weights.setflags(write=False)

    def __len__(self) -> int:
        return self.points.size

    @property
    def atoms(self) -> list[Tuple[complex, float]]:
        return [(complex(p), float(w)) for p, w in zip(self.points, self.weights)]

    def weight_near(self, point: complex, tol: float = MERGE_TOL) -> float:
        """Total weight of atoms within tol of the given point."""
        hit = np.abs(self.points - point) <= tol
        return float(self.weights[hit].sum())

    def to_dict(self) -> dict:
        """Angle-based JSON form; angles keep the atoms exactly on the circle."""
        return {
            "atoms": [
                {"angle": float(np.angle(p)), "weight": float(w)}
                for p, w in zip(self.points, self.weights)
            ]
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AtomicCircleMeasure":
        atoms = data["atoms"]
        return make_measure(
            [(np.exp(1j * float(a["angle"])), float(a["weight"])) for a in atoms]
        )


def make_measure(atoms: Iterable[Tuple[complex, float]]) -> AtomicCircleMeasure:
    """Validate, project onto the circle, merge near-duplicates, normalize.

    Points may sit up to 1e-9 off the circle and are radially projected
    back.  Weight sums off 1 by more than 1e-12 but less than 1e-6 are
    rescaled; larger deviations are treated as caller bugs and rejected.
    """
    items = list(atoms)
    if not items:
        raise ValueError("measure needs at least one atom")
    pts = np.asarray([complex(p) for p, _ in items], dtype=np.complex128)
    wts = np.asarray([float(w) for _, w in items], dtype=np.float64)
    if np.any(wts < 0):
        raise ValueError("negative atom weight")
    mods = np.abs(pts)
    if np.any(np.abs(mods - 1.0) > CIRCLE_TOL):
        raise ValueError("atom further than 1e-9 from the unit circle")
    pts = pts / mods

    total = wts.sum()
    if total <= 0:
        raise ValueError("zero total mass")
    dev = abs(total - 1.0)
    if dev > SUM_RESCALE_TOL:
        raise ValueError(f"weight sum {total} deviates from 1 by {dev:.3g} (> 1e-6)")
    if dev > SUM_EXACT_TOL:
        wts = wts / total

    # merge clusters closer than MERGE_TOL; prevents catastrophic
    # cancellation in downstream log sums without changing the measure
    merged_pts: list[complex] = []
    merged_wts: list[float] = []
    for p, w in zip(pts, wts):
        for i, q in enumerate(merged_pts):
            if abs(p - q) <= MERGE_TOL:
                merged_wts[i] += w
                break
        else:
            merged_pts.append(complex(p))
            merged_wts.append(float(w))

    warr = np.asarray(merged_wts)
    s = warr.sum()
    if abs(s - 1.0) > SUM_EXACT_TOL:
        warr = warr / s
    return AtomicCircleMeasure(np.asarray(merged_pts), warr)


def dirac_reweight(sigma: AtomicCircleMeasure, r: float, beta1: float) -> AtomicCircleMeasure:
    """Blend sigma with a Dirac mass at 1: [r(1-b1)/(1-r*b1)]*sigma + [(1-r)/(1-r*b1)]*delta_1.

    The result is again a probability measure; it is the measure that
    re-expresses a class member over rescaled parameters.
    """
    if not 0 < r <= 1:
        raise DomainError("r must lie in (0, 1]")
    if not 0 <= beta1 < 1:
        raise DomainError("beta1 must lie in [0, 1)")
    if r * beta1 >= 1:
        raise DomainError("r*beta1 must be < 1")
    scale = r * (1 - beta1) / (1 - r * beta1)
    dirac = (1 - r) / (1 - r * beta1)
    atoms = [(p, scale * w) for p, w in sigma.atoms]
    if dirac > 0:
        atoms.append((1.0 + 0.0j, dirac))
    return make_measure(atoms)


def random_measure(n: int, seed: int) -> AtomicCircleMeasure:
    """n atoms with angles uniform on [0, 2*pi), normalized uniform weights.

    Deterministic per seed; used as a test-input generator.
    """
    if n < 1:
        raise ValueError("need at least one atom")
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0.0, 2.0 * np.pi, size=n)
    weights = rng.uniform(size=n)
    weights = weights / weights.sum()
    return make_measure(list(zip(np.exp(1j * angles), weights)))

