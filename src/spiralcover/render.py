"""Deterministic SVG rendering of image-plane figures.

A fixed 1024 x 1024 canvas with a viewport computed from the geometry
bounding box plus a 5% margin keeps output byte-stable for golden-file
comparisons; only the leading version comment may differ between tool
versions.
"""

from __future__ import annotations

from html import escape
from typing import Sequence

from . import __version__
from .geometry import Disk, PolyLine
from .serialize import fmt

__all__ = ["render_svg"]

CANVAS = 1024.0
MARGIN = 0.05
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
DISK_COLOR = "#555555"


def _bounds(curves: Sequence[PolyLine], disks: Sequence[Disk]) -> tuple[float, float, float, float]:
    xs: list[float] = []
    ys: list[float] = []
    for c in curves:
        xs += [float(c.points.real.min()), float(c.points.real.max())]
        ys += [float(c.points.imag.min()), float(c.points.imag.max())]
    for d in disks:
        xs += [d.center.real - d.radius, d.center.real + d.radius]
        ys += [d.center.imag - d.radius, d.center.imag + d.radius]
    if not xs:
        raise ValueError("nothing to render")
    return min(xs), max(xs), min(ys), max(ys)


def render_svg(
    curves: Sequence[PolyLine],
    disks: Sequence[Disk] = (),
    open_curves: Sequence[PolyLine] = (),
    labels: Sequence[str] = (),
) -> str:
    """SVG document for closed image curves, optional disks and spirals."""
    everything = list(curves) + list(open_curves)
    x0, x1, y0, y1 = _bounds(everything, disks)
    span = max(x1 - x0, y1 - y0, 1e-30)
    pad = MARGIN * span
    x0, y0 = x0 - pad, y0 - pad
    span = max(x1 + pad - x0, y1 + pad - y0)
    scale = CANVAS / span

    def toxy(p: complex) -> tuple[str, str]:
        # image plane is y-up, SVG is y-down
        return fmt((p.real - x0) * scale), fmt(CANVAS - (p.imag - y0) * scale)

    def path(poly: PolyLine, color: str, width: float, dashed: bool = False) -> str:
        cmds = []
        for i, p in enumerate(poly.points):
            x, y = toxy(complex(p))
            cmds.append(f"{'M' if i == 0 else 'L'} {x} {y}")
        if poly.closed:
            cmds.append("Z")
        dash = ' stroke-dasharray="6 4"' if dashed else ""
        return (
            f'<path d="{" ".join(cmds)}" fill="none" stroke="{color}" '
            f'stroke-width="{fmt(width)}"{dash} />'
        )

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f"<!-- spiralcover {__version__} -->",
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{fmt(CANVAS)}" '
        f'height="{fmt(CANVAS)}" viewBox="0 0 {fmt(CANVAS)} {fmt(CANVAS)}">',
        f'<rect width="{fmt(CANVAS)}" height="{fmt(CANVAS)}" fill="#ffffff" />',
    ]
    for d in disks:
        cx, cy = toxy(d.center)
        parts.append(
            f'<circle cx="{cx}" cy="{cy}" r="{fmt(d.radius * scale)}" fill="none" '
            f'stroke="{DISK_COLOR}" stroke-width="1.5" stroke-dasharray="6 4" />'
        )
    for i, poly in enumerate(curves):
        parts.append(path(poly, PALETTE[i % len(PALETTE)], 2.0))
    for i, poly in enumerate(open_curves):
        parts.append(path(poly, PALETTE[(i + len(curves)) % len(PALETTE)], 1.0, dashed=True))
    for i, text in enumerate(labels):
        parts.append(
            f'<text x="12" y="{fmt(24.0 + 20.0 * i)}" font-family="monospace" '
            f'font-size="16" fill="{PALETTE[i % len(PALETTE)]}">{escape(text, quote=False)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
