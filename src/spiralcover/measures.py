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
# admissible ||p| - 1| of a stored atom.  make_measure's projection leaves at most
# 2 eps and exp(1j*angle) 1 eps; a MERGE_TOL-sized offset would let an atom between
# two near-duplicates hide them from the neighbour-gap check
ON_CIRCLE_TOL = 4 * np.finfo(np.float64).eps


def _angular_neighbours(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Angle order of the atoms and the chord from each sorted atom to the next.

    The last chord wraps round from the largest angle to the smallest, so
    atoms either side of angle pi are neighbours; a lone atom's chord is inf.
    """
    order = np.argsort(np.angle(pts))
    s = pts[order]
    gaps = np.abs(s[np.arange(1, s.size + 1) % s.size] - s)
    return order, gaps if s.size > 1 else np.full(1, np.inf)


@dataclass(frozen=True, eq=False)
class AtomicCircleMeasure:
    """Nonnegative point masses on |zeta| = 1 with total mass 1.

    Instances are produced by :func:`make_measure`, or by its checks on
    arrays (random_measure, and the measure reader in serialize), and are
    immutable: the arrays are read-only.
    """

    points: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.complex128)
        wts = np.asarray(self.weights, dtype=np.float64)
        if pts.ndim != 1 or wts.shape != pts.shape or pts.size == 0:
            raise ValueError("points and weights must be matching 1-d arrays")
        if not (np.isfinite(pts).all() and np.isfinite(wts).all()):
            raise ValueError("non-finite atom point or weight")
        if (np.abs(np.abs(pts) - 1.0) > ON_CIRCLE_TOL).any():
            raise ValueError("atom off the unit circle")
        if (wts < 0).any():
            raise ValueError("negative atom weight")
        if abs(wts.sum() - 1.0) > SUM_EXACT_TOL:
            raise ValueError("weights do not sum to 1")
        if (_angular_neighbours(pts)[1] <= MERGE_TOL).any():
            raise ValueError("duplicate atoms not merged")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)
        self.points.setflags(write=False)
        self.weights.setflags(write=False)

    def __len__(self) -> int:
        return self.points.size


def make_measure(atoms: Iterable[Tuple[complex, float]]) -> AtomicCircleMeasure:
    """Validate, project onto the circle, merge near-duplicates, normalize.

    Points may sit up to 1e-9 off the circle and are radially projected
    back.  Weight sums off 1 by more than 1e-12 but less than 1e-6 are
    rescaled; larger deviations are treated as caller bugs and rejected.
    An atom within MERGE_TOL of its angular predecessor (wrapping at +-pi)
    joins its cluster, which keeps its first atom's position and place in
    the input order and the sum of its weights taken in input order.
    """
    items = list(atoms)
    pts = np.asarray([complex(p) for p, _ in items], dtype=np.complex128)
    wts = np.asarray([float(w) for _, w in items], dtype=np.float64)
    return _measure(pts, wts)


def _measure(pts: np.ndarray, wts: np.ndarray) -> AtomicCircleMeasure:
    """make_measure on the atoms' points and weights as matching 1-d arrays."""
    if pts.size == 0:
        raise ValueError("measure needs at least one atom")
    if not (np.isfinite(pts).all() and np.isfinite(wts).all()):
        raise ValueError("non-finite atom point or weight")
    if (wts < 0).any():
        raise ValueError("negative atom weight")
    mods = np.abs(pts)
    if (np.abs(mods - 1.0) > CIRCLE_TOL).any():
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

    # merging prevents catastrophic cancellation in downstream log sums
    order, gaps = _angular_neighbours(pts)
    joins = gaps <= MERGE_TOL  # sorted atom k + 1 (cyclically) joins the cluster of atom k
    if joins.any():
        idx = np.arange(pts.size)
        # cluster name: sorted position of its start; atoms ahead of the first start
        # close the cluster that wraps round pi (with no start, all atoms are one)
        head = np.maximum.accumulate(np.where(joins[idx - 1], -1, idx))
        head[head < 0] = max(head[-1], 0)
        first = np.full(pts.size, pts.size)
        np.minimum.at(first, head, order)
        root = first[head][np.argsort(order)]  # input index of the first atom of its cluster
        keep = root == idx
        pts, wts = pts[keep], np.bincount((np.cumsum(keep) - 1)[root], weights=wts)

    s = wts.sum()
    if abs(s - 1.0) > SUM_EXACT_TOL:
        wts = wts / s
    return AtomicCircleMeasure(pts, wts)


def dirac_reweight(sigma: AtomicCircleMeasure, r: float, beta1: float) -> AtomicCircleMeasure:
    """Blend sigma with a Dirac mass at 1: [r(1-b1)/(1-r*b1)]*sigma + [(1-r)/(1-r*b1)]*delta_1.

    The result is again a probability measure; it is the measure that
    re-expresses a class member over rescaled parameters.
    """
    if not 0 < r <= 1:
        raise DomainError("r must lie in (0, 1]")
    if not 0 <= beta1 < 1:
        raise DomainError("beta1 must lie in [0, 1)")
    scale = r * (1 - beta1) / (1 - r * beta1)
    dirac = (1 - r) / (1 - r * beta1)
    pts, wts = sigma.points, scale * sigma.weights
    if dirac > 0:
        pts, wts = np.append(pts, 1.0 + 0.0j), np.append(wts, dirac)
    return _measure(pts, wts)


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
    return _measure(np.exp(1j * angles), weights)

