"""Image-domain geometry: boundary curves, winding tests, covering checks.

Containment of image domains is certified on compact exhaustions
(samples of an inner curve tested against the image boundary at a
larger radius): the maps are unbounded near boundary atoms, so the
honest desk-scale statement is nested-compact containment, which the
subordination theorems imply and a winding test decides.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .kernel import DomainError
from .functions import (
    ClassParams,
    ProductForm,
    boundary_exponent,
    boundary_rotation,
    core_function,
    eval_log,
    evaluate,
    _in_admissible_region,
)
from .verification import InteriorSpirallikeMap, VerificationReport, _report

__all__ = [
    "PolyLine",
    "Disk",
    "IndeterminateWindingError",
    "boundary_curve",
    "winding_number",
    "winding_numbers",
    "contains_point",
    "CoveringResult",
    "check_covering",
    "covering_radius",
    "boundary_gap_profile",
    "minimize_boundary_gap",
    "wedge_spirals",
    "wedge_margin",
    "check_wedge_containment",
    "CoveringComposition",
    "covering_composition",
]

GUARD_FACTOR = 1e-12  # of the curve diameter; closer points are indeterminate
MAX_TURN = 0.2        # radians of turning per segment before bisection
REFINE_TOL = 0.05     # chord length, relative to the local modulus, before bisection
DISTANCE_BLOCK = 16   # segments per bounding box in the curve-distance search
PRUNE_SLACK = 1e-9    # relative slack on the distance upper bound, for rounding


class IndeterminateWindingError(ValueError):
    """Query point within guard distance of the discretized curve."""


@dataclass(frozen=True, eq=False)
class PolyLine:
    """Ordered sample of a curve in the image plane."""

    points: np.ndarray
    closed: bool

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.complex128).ravel()
        if self.closed and pts.size < 16:
            raise ValueError("closed polyline needs at least 16 points")
        if pts.size < 2:
            raise ValueError("polyline needs at least 2 points")
        seg = np.diff(pts)
        if self.closed:
            seg = np.concatenate([seg, [pts[0] - pts[-1]]])
        if np.any(seg == 0):
            raise ValueError("consecutive polyline points coincide")
        object.__setattr__(self, "points", pts)
        self.points.setflags(write=False)

    def __len__(self) -> int:
        return self.points.size

    def diameter(self) -> float:
        """Bounding-box diagonal; the scale for winding guard distances."""
        re, im = self.points.real, self.points.imag
        return float(math.hypot(re.max() - re.min(), im.max() - im.min()))

    def to_csv(self) -> str:
        from .serialize import fmt

        lines = ["re,im"]
        lines += [f"{fmt(p.real)},{fmt(p.imag)}" for p in self.points]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Disk:
    center: complex
    radius: float

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError("disk radius must be nonnegative")


def _adaptive_closed_curve(
    fn: Callable[[np.ndarray], np.ndarray],
    rho: float,
    n: int,
) -> PolyLine:
    thetas = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    values = np.asarray(fn(rho * np.exp(1j * thetas)), dtype=np.complex128)
    budget = 16 * n

    for _ in range(64):
        nxt = np.roll(values, -1)
        gaps = np.roll(thetas, -1) - thetas
        gaps[-1] += 2.0 * np.pi
        chords = np.abs(nxt - values)
        local = np.maximum(np.maximum(np.abs(values), np.abs(nxt)), 1e-12 * np.abs(values).max())
        flags = chords > REFINE_TOL * local

        # turning angle at each vertex flags both adjacent segments;
        # curves of power-map type have high curvature near the image of z ~ 1
        seg = nxt - values
        prev = np.roll(seg, 1)
        nz = (np.abs(seg) > 0) & (np.abs(prev) > 0)
        turn = np.zeros_like(chords)
        turn[nz] = np.abs(np.angle(seg[nz] / prev[nz]))
        vert_flags = turn > MAX_TURN
        flags |= vert_flags | np.roll(vert_flags, -1)

        room = budget - thetas.size
        if not flags.any() or room <= 0:
            break
        idx = np.nonzero(flags)[0]
        if idx.size > room:
            order = np.argsort(-(chords[idx] / local[idx]))
            idx = idx[order[:room]]
        new_thetas = thetas[idx] + gaps[idx] / 2.0
        new_values = np.asarray(fn(rho * np.exp(1j * new_thetas)), dtype=np.complex128)
        thetas = np.concatenate([thetas, new_thetas])
        values = np.concatenate([values, new_values])
        order = np.argsort(thetas)
        thetas, values = thetas[order], values[order]

    scale = np.abs(values).max()
    if scale == 0 or np.all(np.abs(np.roll(values, -1) - values) <= 1e-15 * scale):
        raise DomainError("degenerate boundary curve (constant map?)")
    # drop exact duplicates so the polyline invariant holds
    keep = np.abs(values - np.roll(values, 1)) > 0
    keep[0] = True
    return PolyLine(values[keep], closed=True)


def boundary_curve(f: ProductForm, rho: float, n: int = 256) -> PolyLine:
    """Adaptive closed sample of f(rho * e^{i*theta}).

    Segments are bisected while their chord exceeds REFINE_TOL times
    the local modulus scale or the turning angle exceeds MAX_TURN, up to
    16*n points.
    """
    if not 0.0 < rho < 1.0:
        raise DomainError("rho must lie in (0, 1)")
    if n < 64:
        raise ValueError("need at least 64 initial samples")
    return _adaptive_closed_curve(lambda z: evaluate(f, z), rho, n)


def _crossing_windings(a: np.ndarray, b: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Winding numbers around pts of the closed polygon with edges a[k] -> b[k].

    Crossing rule (Hormann & Agathos, Comput. Geom. 20, 2001): the
    horizontal line through a point meets only the edges whose half-open
    y-span holds its height.  An upward edge with the point on its left
    adds +1, a downward edge with the point on its right adds -1.  The
    samples are sorted by height, so each edge finds its points by
    bisection and only crossing (edge, point) pairs are tested.
    """
    order = np.argsort(pts.imag)
    heights = pts.imag[order]
    first = np.searchsorted(heights, np.minimum(a.imag, b.imag))
    counts = np.searchsorted(heights, np.maximum(a.imag, b.imag)) - first
    edge_idx = np.repeat(np.arange(a.size), counts)
    # sorted positions first[k], ..., first[k] + counts[k] - 1 of each edge k
    pos = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts - first, counts)
    pt_idx = order[pos]
    tail, head, w = a[edge_idx], b[edge_idx], pts[pt_idx]
    va, vb = tail - w, head - w
    # (a-w) x (b-w) > 0 when w is left of a -> b: the cross product of the
    # dense angle sum, whose rounding error shrinks as w nears either vertex
    side = np.sign(va.real * vb.imag - va.imag * vb.real)
    signs = np.where(head.imag > tail.imag, np.maximum(side, 0.0), np.minimum(side, 0.0))
    return np.bincount(pt_idx, weights=signs, minlength=pts.size).astype(np.int64)


def _curve_distances(a: np.ndarray, b: np.ndarray, pts: np.ndarray, guard: float) -> np.ndarray:
    """Distance from each of pts to the polyline with segments a[k] -> b[k].

    Segments are grouped DISTANCE_BLOCK at a time.  A (point, block)
    pair is searched only when the block's bounding box is no farther
    than the point's distance to the nearest block start vertex, a point
    on the curve; the relative slack and the guard absorb rounding in
    the bounds and in the segment formula.  Searched pairs get the same
    per-segment formula as a dense scan, so the minimum is the same float.
    """
    n_blocks = -(-a.size // DISTANCE_BLOCK)
    # the last block repeats the final segment; a repeat leaves the minimum unchanged
    seg = np.minimum(np.arange(n_blocks * DISTANCE_BLOCK), a.size - 1).reshape(n_blocks, DISTANCE_BLOCK)
    start, end = a[seg], b[seg]
    edge = end - start
    edge_sq = np.abs(edge) ** 2
    edge_sq = np.where(edge_sq > 0, edge_sq, 1.0)
    x_lo = np.minimum(start.real, end.real).min(axis=1)
    x_hi = np.maximum(start.real, end.real).max(axis=1)
    y_lo = np.minimum(start.imag, end.imag).min(axis=1)
    y_hi = np.maximum(start.imag, end.imag).max(axis=1)

    dists = np.empty(pts.size, dtype=np.float64)
    # bounds the (point, segment) pairs of one pass even when nothing is pruned
    chunk = max(1, 2_000_000 // seg.size)
    for lo in range(0, pts.size, chunk):
        w = pts[lo : lo + chunk]
        px, py = w.real[:, None], w.imag[:, None]
        dx = np.clip(px, x_lo, x_hi) - px
        dy = np.clip(py, y_lo, y_hi) - py
        box_sq = dx * dx + dy * dy
        ux, uy = start[:, 0].real - px, start[:, 0].imag - py
        vertex_sq = ux * ux + uy * uy
        upper = np.sqrt(vertex_sq.min(axis=1)) * (1.0 + PRUNE_SLACK) + guard
        # a point's nearest start vertex lies in its own block's box, so every
        # point keeps a block and reduceat sees no empty run
        keep = box_sq <= (upper * upper)[:, None]
        pt_k, blk_k = np.nonzero(keep)
        va = start[blk_k] - w[pt_k, None]
        e = edge[blk_k]
        t = -(va.real * e.real + va.imag * e.imag) / edge_sq[blk_k]
        t = np.clip(t, 0.0, 1.0)
        near = np.abs(va + t * e).min(axis=1)
        dists[lo : lo + chunk] = np.minimum.reduceat(near, np.searchsorted(pt_k, np.arange(w.size)))
    return dists


def winding_numbers(poly: PolyLine, points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Winding numbers of a closed polyline around many points at once.

    Returns (windings, indeterminate, distances); a point closer to the
    curve than the guard distance cannot be classified at the curve's
    own resolution and is marked indeterminate instead.  The cost is the
    crossing (edge, point) pairs plus the segments of the pruned distance
    blocks, not points x vertices.
    """
    if not poly.closed:
        raise ValueError("winding numbers need a closed polyline")
    pts = np.atleast_1d(np.asarray(points, dtype=np.complex128))
    if not np.all(np.isfinite(pts)):
        raise DomainError("non-finite point")
    a = poly.points
    b = np.roll(a, -1)
    guard = GUARD_FACTOR * poly.diameter()
    dists = _curve_distances(a, b, pts, guard)
    return _crossing_windings(a, b, pts), dists < guard, dists


def winding_number(poly: PolyLine, w: complex) -> int:
    """Signed angle sum / 2*pi, rounded; raises when w sits on the curve."""
    wn, indet, _ = winding_numbers(poly, [w])
    if indet[0]:
        raise IndeterminateWindingError(f"point {w} within guard distance of the curve")
    return int(wn[0])


def contains_point(
    f: ProductForm,
    w: complex,
    rho: float,
    curve: Optional[PolyLine] = None,
) -> Optional[bool]:
    """Whether w lies in the image of the rho-disk; None when indeterminate.

    Univalence turns 'winding equals one' into exact membership, up to
    the guard distance of the discretized curve.
    """
    if curve is None:
        curve = boundary_curve(f, rho)
    wn, indet, _ = winding_numbers(curve, [w])
    if indet[0]:
        return None
    return bool(wn[0] == 1)


def _winding_margins(curve: PolyLine, pts: np.ndarray):
    """Winding test of pts against curve: (indeterminate, margins).

    A sample passes when it winds once and is determinate; its margin is
    its distance to the curve.  Failing samples carry margin <= -guard,
    so pass/fail follows the sign of the worst margin.
    """
    wn, indet, dists = winding_numbers(curve, pts)
    guard = GUARD_FACTOR * curve.diameter()
    margins = np.where((wn == 1) & ~indet, dists, -np.maximum(dists, guard))
    return indet, margins


@dataclass(frozen=True)
class CoveringResult:
    """Report plus the per-sample indeterminate flags of a covering check."""

    report: VerificationReport
    indeterminate: np.ndarray

    @property
    def indeterminate_count(self) -> int:
        return int(self.indeterminate.sum())


def check_covering(
    f: ProductForm,
    params: ClassParams,
    r_inner: float,
    rho_outer: float,
    m: int = 256,
    curve_n: int = 512,
) -> CoveringResult:
    """Certify the covering theorem on a compact exhaustion.

    Samples m points of the covered core map on |z| = r_inner and
    requires each to wind once inside f(|z| = rho_outer).  The signed
    distance to the curve is the reported margin; indeterminate samples
    fail the check rather than passing silently.
    """
    if not 0.0 < r_inner < rho_outer < 1.0:
        raise DomainError("need 0 < r_inner < rho_outer < 1")
    if m < 1:
        raise ValueError("need at least one sample")
    curve = boundary_curve(f, rho_outer, n=curve_n)
    core = core_function(params)
    theta = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
    ws = evaluate(core, r_inner * np.exp(1j * theta))
    indet, margins = _winding_margins(curve, ws)
    return CoveringResult(_report("covering", margins, ws, 0.0), indet)


def covering_radius(s: float) -> float:
    """Radius of the disk around 1 covered by every class image, s = mu*beta.

    sqrt(1 + 2**(2s) - 2**(s+1)) collapses to 2**s - 1 on (0, 1]; the
    radius saturates at 1 on (1, 2].
    """
    if not 0.0 < s <= 2.0:
        raise DomainError("s must lie in (0, 2]")
    if s <= 1.0:
        return 2.0**s - 1.0
    return 1.0


def boundary_gap_profile(s: float, t: float) -> float:
    """Squared distance |(1 + e^{it})**s - 1|**2 from 1 to the core image boundary.

    Equals (2*cos(t/2))**(2s) + 1 - 2*(2*cos(t/2))**s * cos(s*t/2); even
    in t, with limit 1 at t = +-pi.
    """
    if not 0.0 < s <= 2.0:
        raise DomainError("s must lie in (0, 2]")
    if not -math.pi <= t <= math.pi:
        raise DomainError("t must lie in [-pi, pi]")
    c = 2.0 * math.cos(t / 2.0)
    if c <= 0.0:
        return 1.0
    return c ** (2.0 * s) + 1.0 - 2.0 * c**s * math.cos(s * t / 2.0)


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def minimize_boundary_gap(s: float) -> tuple[float, float]:
    """Golden-section minimum of the gap profile over t in [0, pi - 1e-9].

    The profile is monotone on [0, pi] (increasing for s < 1,
    decreasing for s > 1, constant at s = 1), so golden section over
    the bracket converges to the global minimum; the square root of the
    value reproduces the closed-form covering radius.
    """
    if not 0.0 < s <= 2.0:
        raise DomainError("s must lie in (0, 2]")
    lo, hi = 0.0, math.pi - 1e-9
    x1 = hi - _INV_GOLDEN * (hi - lo)
    x2 = lo + _INV_GOLDEN * (hi - lo)
    f1 = boundary_gap_profile(s, x1)
    f2 = boundary_gap_profile(s, x2)
    while hi - lo > 1e-10:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_GOLDEN * (hi - lo)
            f1 = boundary_gap_profile(s, x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_GOLDEN * (hi - lo)
            f2 = boundary_gap_profile(s, x2)
    t_min = (lo + hi) / 2.0
    return t_min, boundary_gap_profile(s, t_min)


def wedge_spirals(
    exponent: complex,
    rotation: float,
    t_range: tuple[float, float],
    n: int = 200,
) -> tuple[PolyLine, PolyLine]:
    """The two bounding spirals e^{-exponent*t} * e^{i*exponent*(rotation +- pi/2)}."""
    exponent = complex(exponent)
    if not _in_admissible_region(exponent):
        raise DomainError("wedge exponent outside the admissible region")
    if not abs(rotation) < math.pi / 2:
        raise DomainError("|rotation| must be < pi/2")
    t0, t1 = t_range
    if not t1 > t0:
        raise DomainError("empty t range")
    if n < 2:
        raise ValueError("need at least 2 points per spiral")
    ts = np.linspace(t0, t1, n)
    curves = []
    for sign in (+1.0, -1.0):
        anchor = cmath.exp(1j * exponent * (rotation + sign * math.pi / 2.0))
        curves.append(PolyLine(np.exp(-exponent * ts) * anchor, closed=False))
    return curves[0], curves[1]


def wedge_margin(exponent: complex, rotation: float, log_w) -> np.ndarray | float:
    """Signed distance (in matched spiral parameter) of image points to the wedge.

    An image point with canonical log L lies in the wedge exactly when
    Im(L/exponent) falls in (rotation - pi/2, rotation + pi/2); the
    margin is the distance to the nearer bounding spiral.
    """
    theta = (np.asarray(log_w, dtype=np.complex128) / exponent).imag
    out = np.minimum(rotation + math.pi / 2.0 - theta, theta - (rotation - math.pi / 2.0))
    return float(out) if np.ndim(log_w) == 0 else out


def check_wedge_containment(f: ProductForm, tolerance: float = 1e-9) -> VerificationReport:
    """Image samples of f stay inside the wedge of its own boundary asymptotics.

    f is sampled at 512 points of |z| = 0.999.  Only containment is
    asserted; minimality of the wedge is not grid-decidable.
    """
    nu = boundary_exponent(f)
    rot = boundary_rotation(f)
    theta = np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)
    zz = 0.999 * np.exp(1j * theta)
    return _report("wedge-containment", wedge_margin(nu, rot, eval_log(f, zz)), zz, tolerance)


@dataclass(frozen=True)
class CoveringComposition:
    """g(z) = 1 - (1-z)**(1/beta) * (s(z)/z)**(1/(mu*beta)); image covers the unit disk.

    The log of s(z)/z comes from the canonical log of the backing
    product form, never from Log of evaluated values.  The Moebius
    companion (1-g)/(1+g) covers the right half-plane.
    """

    s: InteriorSpirallikeMap
    phi: float
    alpha: float
    beta: float
    mu: complex

    def _log_core(self, zz: np.ndarray) -> np.ndarray:
        from .kernel import log_principal

        return log_principal(1.0 - zz) / self.beta + self.s.log_ratio(zz) / (self.mu * self.beta)

    def __call__(self, z):
        zz = np.asarray(z, dtype=np.complex128)
        out = 1.0 - np.exp(self._log_core(zz))
        return complex(out) if np.ndim(z) == 0 else out

    def half_plane_map(self, z):
        """(1-g)/(1+g); covers the right half-plane when g covers the disk."""
        zz = np.asarray(z, dtype=np.complex128)
        core = np.exp(self._log_core(zz))
        out = core / (2.0 - core)
        return complex(out) if np.ndim(z) == 0 else out


def covering_composition(
    s: InteriorSpirallikeMap,
    phi: float,
    alpha: float,
    beta: float,
    rho: float = 0.999,
    samples: int = 256,
) -> tuple[CoveringComposition, VerificationReport]:
    """Build the unit-disk covering composition and verify coverage by winding.

    Needs phi in (-pi/2, pi/2), alpha < cos(phi), beta in
    (0, alpha/cos(phi)], and an interior-spirallike s of matching angle
    and order at least alpha.  Samples of the open unit disk (radii 0.2
    to 0.95) must wind once inside g(|z| = rho).
    """
    if not abs(phi) < math.pi / 2:
        raise DomainError("|phi| must be < pi/2")
    if not alpha < math.cos(phi):
        raise DomainError("alpha must be < cos(phi)")
    if not 0.0 < beta <= alpha / math.cos(phi):
        raise DomainError("beta must lie in (0, alpha/cos(phi)]")
    if abs(s.phi - phi) > 1e-9:
        raise DomainError("s has a different spiral angle than phi")
    if s.order < alpha - 1e-12:
        raise DomainError("s is not spirallike of order alpha")
    if abs(s(0.0)) > 1e-12:
        raise DomainError("s(0) must be 0")
    mu = cmath.exp(1j * phi) * 2.0 * (math.cos(phi) - alpha) / (1.0 - beta)
    g = CoveringComposition(s=s, phi=phi, alpha=alpha, beta=beta, mu=mu)

    curve = _adaptive_closed_curve(g, rho, 512)
    n_r = 4
    n_ang = max(1, samples // n_r)
    radii = np.linspace(0.2, 0.95, n_r)
    theta = np.linspace(0.0, 2.0 * np.pi, n_ang, endpoint=False)
    pts = (radii[:, None] * np.exp(1j * theta)[None, :]).ravel()
    margins = _winding_margins(curve, pts)[1]
    return g, _report("disk-coverage", margins, pts, 0.0)
