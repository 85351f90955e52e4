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
from typing import Callable

import numpy as np

from .kernel import DomainError
from .functions import (
    ClassParams,
    ProductForm,
    core_function,
    evaluate,
    _like,
    _wedge_exponent,
)
# spiralbench/tracer.py wraps check_wedge_containment under geometry's name until it takes the checks from the table
from .verification import InteriorSpirallikeMap, VerificationReport, _report, check_wedge_containment

__all__ = [
    "PolyLine",
    "boundary_curve",
    "winding_numbers",
    "check_covering",
    "covering_radius",
    "boundary_gap_profile",
    "minimize_boundary_gap",
    "wedge_spirals",
    "CoveringComposition",
    "covering_composition",
]

GUARD_FACTOR = 1e-12  # of the curve diameter; closer points are indeterminate
MAX_TURN = 0.2        # radians of turning per segment before bisection
REFINE_TOL = 0.05     # chord length, relative to the local modulus, before bisection
DISTANCE_BLOCK = 16   # segments per bounding box in the curve-distance search
PRUNE_SLACK = 1e-9    # relative slack on distance bounds, for rounding
ANCHOR_EVERY = 16     # samples per exact distance that bounds its neighbours in a winding report


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


@np.errstate(all="ignore")
def _curve_values(fn: Callable[[np.ndarray], np.ndarray], rho: float, thetas: np.ndarray) -> np.ndarray:
    """fn at rho*e^{i*theta}; DomainError when a value overflows, with or without a warning."""
    values = np.asarray(fn(rho * np.exp(1j * thetas)), dtype=np.complex128)
    if not np.all(np.isfinite(values)):
        raise DomainError("boundary curve overflows: the map is not finite on |z| = rho")
    return values


def _next(x: np.ndarray) -> np.ndarray:
    """x[k + 1] at index k, cyclically: np.roll(x, -1) by slicing."""
    return np.concatenate([x[1:], x[:1]])


# warnings off: adjacent segments whose lengths differ beyond the float range overflow their turning ratio
@np.errstate(all="ignore")
def _adaptive_closed_curve(
    fn: Callable[[np.ndarray], np.ndarray],
    rho: float,
    n: int,
) -> PolyLine:
    thetas = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    values = _curve_values(fn, rho, thetas)
    budget = 16 * n

    # up to 64 inserting passes; the iteration after the last one only measures
    for inserted in range(65):
        # segment k runs from vertex k to vertex k + 1
        seg = _next(values) - values
        chords = np.abs(seg)
        mods = np.abs(values)
        local = np.maximum(np.maximum(mods, _next(mods)), 1e-12 * mods.max())
        flags = chords > REFINE_TOL * local

        # turning angle at each vertex flags both adjacent segments;
        # curves of power-map type have high curvature near the image of z ~ 1
        prev = np.concatenate([seg[-1:], seg[:-1]])
        nz = chords > 0
        nz &= np.concatenate([nz[-1:], nz[:-1]])
        # a vertex next to a zero-length segment does not turn: its ratio stays 1
        turn = np.abs(np.angle(np.divide(seg, prev, out=np.ones_like(seg), where=nz)))
        vert_flags = turn > MAX_TURN
        flags |= vert_flags | _next(vert_flags)

        room = budget - thetas.size
        if inserted == 64 or not flags.any() or room <= 0:
            break
        idx = np.nonzero(flags)[0]
        if idx.size > room:
            order = np.argsort(-(chords[idx] / local[idx]))
            idx = idx[order[:room]]
        gaps = _next(thetas) - thetas
        gaps[-1] += 2.0 * np.pi
        new_thetas = thetas[idx] + gaps[idx] / 2.0
        new_values = _curve_values(fn, rho, new_thetas)
        thetas = np.concatenate([thetas, new_thetas])
        order = np.argsort(thetas)
        thetas = thetas[order]
        values = np.concatenate([values, new_values])[order]

    scale = mods.max()
    if scale == 0 or np.all(chords <= 1e-15 * scale):
        raise DomainError("degenerate boundary curve (constant map?)")
    # drop exact duplicates so the polyline invariant holds
    keep = np.concatenate([[True], chords[:-1] > 0])
    return PolyLine(values[keep], closed=True)


def boundary_curve(f: ProductForm, rho: float, n: int = 256) -> PolyLine:
    """Adaptive closed sample of f(rho * e^{i*theta}).

    Segments are bisected while their chord exceeds REFINE_TOL times
    the local modulus scale or the turning angle exceeds MAX_TURN, up to
    16*n points.  A map that overflows on the circle raises DomainError.
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
    cross = va.real * vb.imag - va.imag * vb.real
    _require_finite(cross)
    side = np.sign(cross)
    signs = np.where(head.imag > tail.imag, np.maximum(side, 0.0), np.minimum(side, 0.0))
    return np.bincount(pt_idx, weights=signs, minlength=pts.size).astype(np.int64)


def _require_finite(values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        raise DomainError("winding test overflows: the curve is too large for float arithmetic")


def _distance_index(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, ...]:
    """Segment blocks of the polyline a[k] -> b[k], built once per curve for _index_distances.

    Segments are grouped DISTANCE_BLOCK at a time, each block with its
    bounding box and its start vertex, a point on the curve.
    """
    n_blocks = -(-a.size // DISTANCE_BLOCK)
    # the last block repeats the final segment; a repeat leaves the minimum unchanged
    seg = np.minimum(np.arange(n_blocks * DISTANCE_BLOCK), a.size - 1).reshape(n_blocks, DISTANCE_BLOCK)
    start, end = a[seg], b[seg]
    edge = end - start
    edge_sq = np.abs(edge) ** 2
    _require_finite(edge_sq)
    edge_sq = np.where(edge_sq > 0, edge_sq, 1.0)
    x_lo = np.minimum(start.real, end.real).min(axis=1)
    x_hi = np.maximum(start.real, end.real).max(axis=1)
    y_lo = np.minimum(start.imag, end.imag).min(axis=1)
    y_hi = np.maximum(start.imag, end.imag).max(axis=1)
    return start, edge, edge_sq, x_lo, x_hi, y_lo, y_hi


@np.errstate(all="ignore")
def _index_distances(blocks: tuple[np.ndarray, ...], pts: np.ndarray, guard: float) -> np.ndarray:
    """Distance from each of pts to the polyline of a _distance_index.

    A (point, block) pair is searched only when the block's bounding box
    is no farther than the point's distance to the nearest block start
    vertex; the relative slack and the guard absorb rounding in the
    bounds and in the segment formula.  Searched pairs get the same
    per-segment formula as a dense scan, so the minimum is the same float.
    A distance that overflows raises DomainError.
    """
    start, edge, edge_sq, x_lo, x_hi, y_lo, y_hi = blocks
    dists = np.empty(pts.size, dtype=np.float64)
    # bounds the (point, segment) pairs of one pass even when nothing is pruned
    chunk = max(1, 2_000_000 // start.size)
    for lo in range(0, pts.size, chunk):
        w = pts[lo : lo + chunk]
        px, py = w.real[:, None], w.imag[:, None]
        # np.minimum(np.maximum(...)) is np.clip without its wrapper's cost
        dx = np.minimum(np.maximum(px, x_lo), x_hi) - px
        dy = np.minimum(np.maximum(py, y_lo), y_hi) - py
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
        t = np.minimum(np.maximum(t, 0.0), 1.0)
        near = np.abs(va + t * e).min(axis=1)
        dists[lo : lo + chunk] = np.minimum.reduceat(near, np.searchsorted(pt_k, np.arange(w.size)))
    _require_finite(dists)
    return dists


@np.errstate(all="ignore")
def _windings(curve: PolyLine, points) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...], float]:
    """Checked samples, their winding numbers around curve, its distance index and guard.

    The one entry of winding_numbers and _winding_report: a non-finite
    sample, or a curve whose cross products or segment lengths overflow,
    raises DomainError, with or without a warning.
    """
    pts = np.atleast_1d(np.asarray(points, dtype=np.complex128))
    if not np.all(np.isfinite(pts)):
        raise DomainError("non-finite point")
    a = curve.points
    b = _next(a)
    return pts, _crossing_windings(a, b, pts), _distance_index(a, b), GUARD_FACTOR * curve.diameter()


def winding_numbers(poly: PolyLine, points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Winding numbers of a closed polyline around many points at once.

    Returns (windings, indeterminate, distances); a point closer to the
    curve than the guard distance cannot be classified at the curve's
    own resolution and is marked indeterminate instead.  The cost is the
    crossing (edge, point) pairs plus the segments of the pruned distance
    blocks, not points x vertices.  A curve too large for float
    arithmetic raises DomainError.
    """
    if not poly.closed:
        raise ValueError("winding numbers need a closed polyline")
    pts, wn, blocks, guard = _windings(poly, points)
    dists = _index_distances(blocks, pts, guard)
    return wn, dists < guard, dists


def _winding_report(check: str, curve: PolyLine, pts: np.ndarray) -> VerificationReport:
    """Winding test of pts against curve, reported at tolerance 0.

    A sample passes when it winds once and is determinate; its margin is
    its distance to the curve.  Failing samples carry margin <= -guard,
    so pass/fail follows the sign of the worst margin.  The report counts
    the indeterminate samples.

    Exact distances are taken every ANCHOR_EVERY-th sample and where
    they can decide the report.  The distance is 1-Lipschitz, so the
    anchors on either side bound each sample between them, widened for
    rounding as in _index_distances.  Samples that may be indeterminate
    or may hold the worst margin get exact distances; every other sample
    keeps a lower bound on its margin strictly above the worst, so the
    report equals the one with exact distances everywhere.  Every round
    queries the one distance index built with the windings.
    """
    pts, wn, blocks, guard = _windings(curve, pts)
    lo, hi = np.full(pts.size, -np.inf), np.full(pts.size, np.inf)
    exact = np.zeros(pts.size, dtype=bool)

    def settle(mask):
        idx = np.flatnonzero(mask & ~exact)
        if idx.size:
            lo[idx] = hi[idx] = _index_distances(blocks, pts[idx], guard)
            exact[idx] = True

    index = np.arange(pts.size)
    settle(index % ANCHOR_EVERY == 0)
    anchors, anchor_dists = pts[::ANCHOR_EVERY], lo[::ANCHOR_EVERY]
    left = index // ANCHOR_EVERY
    for j in (left, (left + 1) % anchors.size):
        reach = np.abs(pts - anchors[j])
        spread = (anchor_dists[j] + reach) * PRUNE_SLACK + guard
        lo = np.maximum(lo, anchor_dists[j] - reach - spread)
        hi = np.minimum(hi, anchor_dists[j] + reach + spread)

    settle(lo < guard)  # may be indeterminate
    fail = (wn != 1) | (hi < guard)
    if fail.any():
        # a failing margin is -max(d, guard); the worst is the largest max(d, guard)
        settle(fail & (np.maximum(hi, guard) >= max(guard, lo[fail].max())))
    else:
        settle(lo <= hi.min())
    margins = np.where(fail, -np.maximum(hi, guard), lo)
    return _report(check, margins, pts, 0.0, int(np.count_nonzero(hi < guard)))


def check_covering(
    f: ProductForm,
    params: ClassParams,
    r_inner: float,
    rho_outer: float,
    m: int = 256,
) -> VerificationReport:
    """Certify the covering theorem on a compact exhaustion.

    Samples m points of the covered core map on |z| = r_inner and
    requires each to wind once inside f(|z| = rho_outer), sampled by
    boundary_curve from 512 initial points.  The signed
    distance to the curve is the reported margin; indeterminate samples
    fail the check rather than passing silently.  Exact distances are
    taken at every ANCHOR_EVERY-th sample and wherever the 1-Lipschitz
    bounds from those cannot rule a sample out (_winding_report); the
    report is the one exact distances at every sample give.
    """
    if not 0.0 < r_inner < rho_outer < 1.0:
        raise DomainError("need 0 < r_inner < rho_outer < 1")
    if m < 1:
        raise ValueError("need at least one sample")
    curve = boundary_curve(f, rho_outer, n=512)
    theta = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
    ws = evaluate(core_function(params), r_inner * np.exp(1j * theta))
    return _winding_report("covering", curve, ws)


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
    # on [-pi, pi], c >= 2*cos(pi/2) > 0
    c = 2.0 * math.cos(t / 2.0)
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


def wedge_spirals(exponent: complex, rotation: float) -> tuple[PolyLine, PolyLine]:
    """The two bounding spirals e^{-exponent*t} * e^{i*exponent*(rotation +- pi/2)}.

    Each is sampled at 200 equally spaced t in [-1, 5].
    """
    exponent = _wedge_exponent(exponent, rotation)
    ts = np.linspace(-1.0, 5.0, 200)
    curves = []
    for sign in (+1.0, -1.0):
        anchor = cmath.exp(1j * exponent * (rotation + sign * math.pi / 2.0))
        curves.append(PolyLine(np.exp(-exponent * ts) * anchor, closed=False))
    return curves[0], curves[1]


@dataclass(frozen=True)
class CoveringComposition:
    """g(z) = 1 - (1-z)**(1/beta) * (s(z)/z)**(1/(mu*beta)); image covers the unit disk.

    The log of s(z)/z comes from the canonical log of the backing
    product form, never from Log of evaluated values.  The Moebius
    companion (1-g)/(1+g) covers the right half-plane.  With phi the
    spiral angle of s, it needs phi in (-pi/2, pi/2), alpha < cos(phi),
    beta in (0, alpha/cos(phi)], and s of order at least alpha; other
    parameters raise DomainError.
    """

    s: InteriorSpirallikeMap
    alpha: float
    beta: float

    def __post_init__(self):
        phi = self.s.phi
        if not abs(phi) < math.pi / 2:
            raise DomainError("|phi| must be < pi/2")
        if not self.alpha < math.cos(phi):
            raise DomainError("alpha must be < cos(phi)")
        if not 0.0 < self.beta <= self.alpha / math.cos(phi):
            raise DomainError("beta must lie in (0, alpha/cos(phi)]")
        if self.s.order < self.alpha - 1e-12:
            raise DomainError("s is not spirallike of order alpha")

    @property
    def mu(self) -> complex:
        """e^{i*phi} * 2*(cos(phi) - alpha)/(1 - beta), with phi the spiral angle of s."""
        phi = self.s.phi
        return cmath.exp(1j * phi) * 2.0 * (math.cos(phi) - self.alpha) / (1.0 - self.beta)

    def _core(self, z) -> np.ndarray:
        """1 - g at the points z; Log(1-z) and log s(z)/z from one pass."""
        log_1mz, log_ratio = self.s._log_parts(z)
        return np.exp(log_1mz / self.beta + log_ratio / (self.mu * self.beta))

    def __call__(self, z):
        return _like(z, 1.0 - self._core(z))

    def half_plane_map(self, z):
        """(1-g)/(1+g); covers the right half-plane when g covers the disk."""
        core = self._core(z)
        return _like(z, core / (2.0 - core))


def covering_composition(
    s: InteriorSpirallikeMap,
    alpha: float,
    beta: float,
) -> tuple[CoveringComposition, VerificationReport]:
    """Build the unit-disk covering composition and verify coverage by winding.

    CoveringComposition rejects parameters outside its rules.  256
    samples of the open unit disk (4 radii from 0.2 to 0.95, 64 angles
    each) must wind once inside g(|z| = 0.999).
    """
    g = CoveringComposition(s=s, alpha=alpha, beta=beta)

    curve = _adaptive_closed_curve(g, 0.999, 512)
    radii = np.linspace(0.2, 0.95, 4)
    theta = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    pts = (radii[:, None] * np.exp(1j * theta)[None, :]).ravel()
    return g, _winding_report("disk-coverage", curve, pts)
