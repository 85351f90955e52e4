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
    _derivative_bounds_apply,
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


def _any_params(params) -> bool:
    return True


# CLI name -> (runner (f, params, grid, tol) -> report, applies(params)), in `--checks all`
# order.  The runners look their check up by name when called, so wrappers installed on
# the module names (spiralbench's tracer) see every call.
CHECKS = {
    "membership": (lambda f, p, grid, tol: check_membership(f, p, grid, tol), _any_params),
    "distortion": (lambda f, p, grid, tol: check_distortion(f, p, grid, tol), _any_params),
    "derivative-disk": (lambda f, p, grid, tol: check_derivative_disk(f, p, grid, tol), _any_params),
    "schwarz": (lambda f, p, grid, tol: check_schwarz(f, p, grid, tol), _any_params),
    "value-bounds": (lambda f, p, grid, tol: check_value_bounds(f, p, grid, tol), _any_params),
    "derivative-bounds": (
        lambda f, p, grid, tol: check_derivative_value_bounds(f, p, grid, tol),
        _derivative_bounds_apply,
    ),
    # exact algebra, held to its own 1e-12 tolerance
    "interior-identity": (lambda f, p, grid, tol: check_interior_identity(f, p, grid), _any_params),
    "growth": (lambda f, p, grid, tol: check_growth(f, p, grid, tol), _any_params),
    # samples f on |z| = 0.999, not the grid
    "wedge-containment": (lambda f, p, grid, tol: check_wedge_containment(f, tolerance=tol), _any_params),
}


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
        sigma = random_measure(args.samples, args.seed)
        _write(args.output, dumps(sigma.to_dict()))
        return 0
    f, params = load_function_spec(_load_json(args.input))
    _write(args.output, dumps(f.to_dict(params)))
    return 0


def cmd_check(args) -> int:
    f, params = load_function_spec(_load_json(args.input))
    if args.checks == "all":
        names = [name for name, (_, applies) in CHECKS.items() if applies(params)]
    else:
        names = [n.strip() for n in args.checks.split(",") if n.strip()]
        if not names:
            raise ValueError("no checks named")
        for name in names:
            if name not in CHECKS:
                raise ValueError(f"unknown check {name!r}")
    grid = _grid_from_args(args)
    reports = [CHECKS[name][0](f, params, grid, args.tolerance) for name in names]
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
    n = args.samples
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
    curves = [boundary_curve(f, args.rho, n=args.samples) for f, _ in loaded]

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
        f0, _ = loaded[0]
        nu = boundary_exponent(f0)
        rot = boundary_rotation(f0)
        up, down = wedge_spirals(nu, rot, (-1.0, 5.0), n=200)
        spirals = [up, down]

    labels = list(data.get("labels", [])) if isinstance(data, dict) else []
    _write(args.output, render_svg(curves, disks, spirals, labels))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="spiralcover", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    flags = {
        "input": (("--input", "-i"), dict(help="input JSON path")),
        "output": (("--output", "-o"), dict(help="output path ('-' for stdout)")),
        "grid-radii": (("--grid-radii",), dict(help="comma-separated grid radii")),
        "grid-angles": (("--grid-angles",), dict(type=int, help="angles per grid ring")),
        "tolerance": (("--tolerance",), dict(type=float, default=1e-9, help="pass tolerance")),
        "checks": (("--checks",), dict(default="membership", help="comma list or 'all'")),
        "rho": (("--rho",), dict(type=float, default=0.99, help="boundary curve radius")),
        "r-inner": (("--r-inner",), dict(type=float, default=0.9, help="inner sample radius")),
        "samples": (("--samples",), dict(type=int, help="sample count (default %(default)s)")),
        "seed": (("--seed",), dict(type=int, help="random seed")),
    }
    grid = ("grid-radii", "grid-angles", "tolerance")
    # name -> (handler, help, the flags it reads, defaults); any other flag exits 2
    commands = {
        "construct": (cmd_construct, "canonicalize a function spec or emit a random measure",
                      ("input", "output", "samples", "seed"), dict(samples=256)),
        "check": (cmd_check, "run verification checks on a function spec",
                  ("input", "output", *grid, "checks"), {}),
        "distort": (cmd_check, "distortion-theorem suite: check --checks distortion,derivative-disk",
                    ("input", "output", *grid), dict(checks="distortion,derivative-disk")),
        "cover": (cmd_cover, "covering check against the core map",
                  ("input", "output", "rho", "r-inner", "samples"), dict(samples=256)),
        "radius-table": (cmd_radius_table, "covering radius table (CSV)", ("output", "samples"), dict(samples=64)),
        "render": (cmd_render, "render image boundary curves to SVG",
                   ("input", "output", "rho", "samples"), dict(samples=256)),
    }
    for name, (fn, summary, reads, defaults) in commands.items():
        sp = sub.add_parser(name, help=summary)
        for flag in reads:
            sp.add_argument(*flags[flag][0], **flags[flag][1])
        sp.set_defaults(fn=fn, **defaults)
    return p


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        if args.fn in (cmd_check, cmd_cover, cmd_render) and not args.input:
            raise ValueError("--input is required for this command")
        if getattr(args, "samples", 1) < 1:
            raise ValueError("--samples must be at least 1")
        return args.fn(args)
    except (ValueError, DomainError, KeyError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
