"""Deterministic SVG rendering of image-plane figures.

A fixed 1024 x 1024 canvas with a viewport computed from the geometry
bounding box plus a 5% margin keeps output byte-stable for golden-file
comparisons; only the leading version comment may differ between tool
versions.
"""

from __future__ import annotations

from html import escape
from typing import Sequence

import numpy as np

from . import __version__
from .serialize import fmt

__all__ = ["render_svg"]

CANVAS = 1024.0
MARGIN = 0.05
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
DISK_COLOR = "#555555"
DISK_CENTER = 1.0 + 0.0j  # f(0) = 1, the center of the covering disk


def _bounds(curves: Sequence[np.ndarray], disk_radius: float | None) -> tuple[float, float, float, float]:
    xs: list[float] = []
    ys: list[float] = []
    for c in curves:
        xs += [float(c.real.min()), float(c.real.max())]
        ys += [float(c.imag.min()), float(c.imag.max())]
    if disk_radius is not None:
        xs += [DISK_CENTER.real - disk_radius, DISK_CENTER.real + disk_radius]
        ys += [DISK_CENTER.imag - disk_radius, DISK_CENTER.imag + disk_radius]
    if not xs:
        raise ValueError("nothing to render")
    return min(xs), max(xs), min(ys), max(ys)


def render_svg(
    curves: Sequence[np.ndarray],
    disk_radius: float | None = None,
    open_curves: Sequence[np.ndarray] = (),
    labels: Sequence[str] = (),
) -> str:
    """SVG document for closed image curves, an optional covering disk about 1, and open spirals.

    Each curve or spiral is a complex array of its points.
    """
    everything = list(curves) + list(open_curves)
    x0, x1, y0, y1 = _bounds(everything, disk_radius)
    span = max(x1 - x0, y1 - y0, 1e-30)
    pad = MARGIN * span
    x0, y0 = x0 - pad, y0 - pad
    span = max(x1 + pad - x0, y1 + pad - y0)
    scale = CANVAS / span

    def toxy(p: complex) -> tuple[str, str]:
        # image plane is y-up, SVG is y-down
        return fmt((p.real - x0) * scale), fmt(CANVAS - (p.imag - y0) * scale)

    def path(points: np.ndarray, color: str, closed: bool) -> str:
        """A closed curve drawn solid, its path ending in Z, or an open spiral drawn thinner and dashed."""
        d = " ".join(f"{'M' if i == 0 else 'L'} {x} {y}" for i, (x, y) in enumerate(map(toxy, points)))
        style = 'stroke-width="2"' if closed else 'stroke-width="1" stroke-dasharray="6 4"'
        return f'<path d="{d}{" Z" if closed else ""}" fill="none" stroke="{color}" {style} />'

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f"<!-- spiralcover {__version__} -->",
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{fmt(CANVAS)}" '
        f'height="{fmt(CANVAS)}" viewBox="0 0 {fmt(CANVAS)} {fmt(CANVAS)}">',
        f'<rect width="{fmt(CANVAS)}" height="{fmt(CANVAS)}" fill="#ffffff" />',
    ]
    if disk_radius is not None:
        cx, cy = toxy(DISK_CENTER)
        parts.append(
            f'<circle cx="{cx}" cy="{cy}" r="{fmt(disk_radius * scale)}" fill="none" '
            f'stroke="{DISK_COLOR}" stroke-width="1.5" stroke-dasharray="6 4" />'
        )
    for i, points in enumerate(curves):
        parts.append(path(points, PALETTE[i % len(PALETTE)], closed=True))
    for i, points in enumerate(open_curves):
        parts.append(path(points, PALETTE[(i + len(curves)) % len(PALETTE)], closed=False))
    for i, text in enumerate(labels):
        parts.append(
            f'<text x="12" y="{fmt(24.0 + 20.0 * i)}" font-family="monospace" '
            f'font-size="16" fill="{PALETTE[i % len(PALETTE)]}">{escape(text, quote=False)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
