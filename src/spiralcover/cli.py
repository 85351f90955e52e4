"""Command-line front end.

Subcommands: construct, check, distort, cover, radius-table, render.
Exit status 0 means every requested check passed, 1 means a check
failed, 2 means the input was malformed or inapplicable.  Identical
inputs produce byte-identical JSON/CSV output; SVG output is identical
up to its version comment line.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .kernel import DomainError
from .functions import boundary_exponent, boundary_rotation
from .measures import random_measure
from .verification import (
    DEFAULT_GRID,
    GridSpec,
    check_derivative_disk,
    check_derivative_value_bounds,
    check_distortion,
    check_growth,
    check_interior_identity,
    check_membership,
    check_schwarz,
    check_value_bounds,
)
from .geometry import (
    Disk,
    boundary_curve,
    check_covering,
    check_wedge_containment,
    covering_radius,
    minimize_boundary_gap,
    wedge_spirals,
)
from .render import render_svg
from .serialize import dumps, fmt, load_function_spec

CHECK_ORDER = (
    "membership",
    "distortion",
    "derivative-disk",
    "schwarz",
    "value-bounds",
    "derivative-bounds",
    "interior-identity",
    "growth",
    "wedge-containment",
)


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read JSON from {path}: {exc}") from exc


def _grid_from_args(args) -> GridSpec:
    radii = DEFAULT_GRID.radii
    if args.grid_radii:
        radii = tuple(float(r) for r in args.grid_radii.split(","))
    angles = args.grid_angles if args.grid_angles else DEFAULT_GRID.angles_per_ring
    return GridSpec(radii=radii, angles_per_ring=angles)


def cmd_construct(args) -> int:
    if args.input is None:
        if args.seed is None:
            raise ValueError("construct needs --input, or --seed to generate a random measure")
        sigma = random_measure(args.samples or 4, args.seed)
        _write(args.output, dumps(sigma.to_dict()))
        return 0
    f, params = load_function_spec(_load_json(args.input))
    _write(args.output, dumps(f.to_dict(params)))
    return 0


def _run_named_check(name: str, f, params, grid, tol, args):
    if name == "membership":
        return check_membership(f, params, grid, tol)
    if name == "distortion":
        return check_distortion(f, params, grid, tol)
    if name == "derivative-disk":
        return check_derivative_disk(f, params, grid, tol)
    if name == "schwarz":
        return check_schwarz(f, params, grid, tol)
    if name == "value-bounds":
        return check_value_bounds(f, params, grid, tol)
    if name == "derivative-bounds":
        return check_derivative_value_bounds(f, params, grid, tol)
    if name == "interior-identity":
        return check_interior_identity(f, params, grid)
    if name == "growth":
        return check_growth(f, params, grid, tolerance=tol)
    if name == "wedge-containment":
        return check_wedge_containment(f, params, tolerance=tol)
    raise ValueError(f"unknown check {name!r}")


def cmd_check(args) -> int:
    f, params = load_function_spec(_load_json(args.input))
    grid = _grid_from_args(args)
    tol = args.tolerance
    if args.checks == "all":
        names = [n for n in CHECK_ORDER if n != "derivative-bounds"]
        # the derivative envelopes are only stated for real mu in (0, 2]
        if params.mu.imag == 0.0 and 0.0 < params.mu.real <= 2.0:
            names.insert(5, "derivative-bounds")
    else:
        names = [n.strip() for n in args.checks.split(",") if n.strip()]
    reports = [_run_named_check(n, f, params, grid, tol, args) for n in names]
    passed = all(r.passed for r in reports)
    _write(args.output, dumps({"checks": [r.to_dict() for r in reports], "passed": passed}))
    return 0 if passed else 1


def cmd_distort(args) -> int:
    f, params = load_function_spec(_load_json(args.input))
    grid = _grid_from_args(args)
    reports = [
        check_distortion(f, params, grid, args.tolerance),
        check_derivative_disk(f, params, grid, args.tolerance),
    ]
    passed = all(r.passed for r in reports)
    _write(args.output, dumps({"checks": [r.to_dict() for r in reports], "passed": passed}))
    return 0 if passed else 1


def cmd_cover(args) -> int:
    f, params = load_function_spec(_load_json(args.input))
    result = check_covering(f, params, args.r_inner, args.rho, m=args.samples)
    if result.indeterminate_count:
        print(f"warning: {result.indeterminate_count} indeterminate winding sample(s)", file=sys.stderr)
    _write(args.output, dumps(result.report.to_dict()))
    return 0 if result.report.passed else 1


def cmd_radius_table(args) -> int:
    n = args.samples or 64
    rows = ["s,r_closed,r_numeric,chen_owa,ratio"]
    worst = 0.0
    for k in range(1, n + 1):
        s = 2.0 * k / n
        r_closed = covering_radius(s)
        r_numeric = math.sqrt(minimize_boundary_gap(s)[1])
        chen_owa = s / 4.0
        rows.append(
            f"{fmt(s)},{fmt(r_closed)},{fmt(r_numeric)},{fmt(chen_owa)},{fmt(r_closed / chen_owa)}"
        )
        worst = max(worst, abs(r_closed - r_numeric))
    _write(args.output, "\n".join(rows) + "\n")
    if worst > 1e-8:
        print(f"radius columns disagree by {worst:.3g}", file=sys.stderr)
        return 1
    return 0


def cmd_render(args) -> int:
    data = _load_json(args.input)
    specs = data["functions"] if isinstance(data, dict) and "functions" in data else [data]
    if not specs:
        raise ValueError("no function specs to render")
    if len(specs) > 4:
        raise ValueError("at most 4 overlay curves")
    loaded = [load_function_spec(spec) for spec in specs]
    curves = [boundary_curve(f, args.rho, n=args.samples or 256) for f, _ in loaded]

    if args.output and args.output.endswith(".csv"):
        if len(curves) != 1:
            raise ValueError("CSV output supports exactly one curve")
        _write(args.output, curves[0].to_csv())
        return 0

    disks: list[Disk] = []
    if isinstance(data, dict) and data.get("covering_disk"):
        _, params = loaded[0]
        s = params.mu * params.beta
        if s.imag != 0.0:
            raise ValueError("covering disk needs real mu*beta")
        disks.append(Disk(1.0 + 0.0j, covering_radius(s.real)))

    spirals = []
    if isinstance(data, dict) and data.get("wedge"):
        f0, p0 = loaded[0]
        nu = boundary_exponent(f0, p0)
        rot = boundary_rotation(f0, p0)
        up, down = wedge_spirals(nu, rot, (-1.0, 5.0), n=200)
        spirals = [up, down]

    labels = list(data.get("labels", [])) if isinstance(data, dict) else []
    _write(args.output, render_svg(curves, disks, spirals, labels))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="spiralcover", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, output_required=False):
        sp.add_argument("--input", "-i", help="input JSON path")
        sp.add_argument("--output", "-o", help="output path ('-' for stdout)")
        sp.add_argument("--grid-radii", help="comma-separated grid radii")
        sp.add_argument("--grid-angles", type=int, help="angles per grid ring")
        sp.add_argument("--rho", type=float, default=0.99, help="boundary curve radius")
        sp.add_argument("--r-inner", type=float, default=0.9, help="inner sample radius")
        sp.add_argument("--samples", type=int, help="sample count (command-specific)")
        sp.add_argument("--seed", type=int, help="random seed")
        sp.add_argument("--tolerance", type=float, default=1e-9, help="pass tolerance")

    sp = sub.add_parser("construct", help="canonicalize a function spec or emit a random measure")
    common(sp)
    sp.set_defaults(fn=cmd_construct)

    sp = sub.add_parser("check", help="run verification checks on a function spec")
    common(sp)
    sp.add_argument("--checks", default="membership", help="comma list or 'all'")
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("distort", help="distortion-theorem suite")
    common(sp)
    sp.set_defaults(fn=cmd_distort)

    sp = sub.add_parser("cover", help="covering check against the core map")
    common(sp)
    sp.set_defaults(fn=cmd_cover)

    sp = sub.add_parser("radius-table", help="covering radius table (CSV)")
    common(sp)
    sp.set_defaults(fn=cmd_radius_table)

    sp = sub.add_parser("render", help="render image boundary curves to SVG")
    common(sp)
    sp.set_defaults(fn=cmd_render)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.fn in (cmd_check, cmd_distort, cmd_cover, cmd_render) and not args.input:
        print("error: --input is required for this command", file=sys.stderr)
        return 2
    if args.samples is None:
        args.samples = {"cover": 256, "radius-table": 64, "render": 256}.get(args.command, 256)
    try:
        return args.fn(args)
    except (ValueError, DomainError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
