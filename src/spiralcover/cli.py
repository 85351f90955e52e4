"""Command-line front end.

Subcommands: construct, check, cover, radius-table, render.
Exit status 0 means every requested check passed, 1 means a check
failed, 2 means the input was malformed, inapplicable or too large to
allocate.  Identical inputs produce byte-identical JSON/CSV output; SVG
output is identical up to its version comment line.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .kernel import DomainError
from .functions import boundary_exponent, boundary_rotation
from .measures import random_measure
from .verification import DEFAULT_GRID, PASS_TOL, GridSpec, _run_checks
from .geometry import GAP_SCAN_T, boundary_curve, boundary_gap_profile, check_covering, covering_radius, wedge_spirals
from .render import render_svg
from .serialize import (
    curve_csv, dumps, dumps_spec, fmt, function_spec, load_function_spec, load_json, load_render_input, measure_spec,
)


def _write(path: str | None, text: str) -> None:
    """text as UTF-8, whatever the locale: to the file at path, or to stdout for None or '-'."""
    if path is None or path == "-":
        sys.stdout.flush()
        sys.stdout.buffer.write(text.encode("utf-8"))
    else:
        Path(path).write_bytes(text.encode("utf-8"))


def _grid_from_args(args) -> GridSpec:
    """The grid the --grid-* flags name: DEFAULT_GRID itself, whose points are computed once, if neither is given."""
    if args.grid_radii is None and args.grid_angles is None:
        return DEFAULT_GRID
    radii = DEFAULT_GRID.radii
    if args.grid_radii is not None:
        radii = tuple(float(r) for r in args.grid_radii.split(","))
    angles = DEFAULT_GRID.angles_per_ring if args.grid_angles is None else args.grid_angles
    return GridSpec(radii=radii, angles_per_ring=angles)


def cmd_construct(args) -> int:
    if args.input is None:
        if args.seed is None:
            raise ValueError("construct needs --input, or --seed to generate a random measure")
        sigma = random_measure(256 if args.samples is None else args.samples, args.seed)
        _write(args.output, dumps_spec(measure_spec(sigma)))
        return 0
    if args.seed is not None or args.samples is not None:
        raise ValueError("construct --input reads neither --seed nor --samples")
    f, params = load_function_spec(load_json(args.input))
    _write(args.output, dumps_spec(function_spec(f, params)))
    return 0


def cmd_check(args) -> int:
    f, params = load_function_spec(load_json(args.input))
    reports = _run_checks(args.checks, f, params, _grid_from_args(args), args.tolerance)
    _write(args.output, dumps(reports))
    return 0 if all(r.passed for r in reports) else 1


def cmd_cover(args) -> int:
    f, params = load_function_spec(load_json(args.input))
    report = check_covering(f, params, args.r_inner, args.rho, m=args.samples)
    if report.indeterminate:
        print(f"warning: {report.indeterminate} undecided arc(s)", file=sys.stderr)
    _write(args.output, dumps(report))
    return 0 if report.passed else 1


def cmd_radius_table(args) -> int:
    n = args.samples
    # the s column first, so a table too large to allocate exits 2 before any row
    column = 2.0 * np.arange(1, n + 1) / n
    rows = ["s,r_closed,r_numeric,chen_owa,ratio"]
    worst = 0.0
    for s in column.tolist():
        r_closed = covering_radius(s)
        r_numeric = math.sqrt(boundary_gap_profile(s, GAP_SCAN_T).min())
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
    loaded, covering_disk, wedge, labels = load_render_input(load_json(args.input))
    if args.output and args.output.endswith(".csv"):
        if len(loaded) != 1 or covering_disk or wedge or labels:
            raise ValueError("CSV output takes exactly one curve and no covering_disk, wedge or labels")
        _write(args.output, curve_csv(boundary_curve(loaded[0][0], args.rho, n=args.samples).points))
        return 0
    curves = [boundary_curve(f, args.rho, n=args.samples).points for f, _ in loaded]

    disk_radius = None
    if covering_disk:
        _, params = loaded[0]
        s = params.mu * params.beta
        if params.beta == 0.0:
            raise ValueError("covering disk needs beta > 0: at beta = 0 the core map (1-z)**(mu*beta) is constant")
        if s.imag != 0.0:
            raise ValueError("covering disk needs real mu*beta")
        disk_radius = covering_radius(s.real)

    spirals = ()
    if wedge:
        f0, _ = loaded[0]
        spirals = wedge_spirals(boundary_exponent(f0), boundary_rotation(f0))

    _write(args.output, render_svg(curves, disk_radius, spirals, labels))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="spiralcover", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    flags = {
        "input": (("--input", "-i"), dict(help="input JSON path")),
        "output": (("--output", "-o"), dict(help="output path ('-' for stdout)")),
        "grid-radii": (("--grid-radii",), dict(help="comma-separated grid radii")),
        "grid-angles": (("--grid-angles",), dict(type=int, help="angles per grid ring")),
        "tolerance": (("--tolerance",), dict(type=float, default=PASS_TOL, help="pass tolerance")),
        "checks": (("--checks",), dict(default="membership", help="comma list or 'all'")),
        "rho": (("--rho",), dict(type=float, default=0.99, help="boundary circle radius")),
        "r-inner": (("--r-inner",), dict(type=float, default=0.9, help="radius of the core disk to cover")),
        "samples": (("--samples",), dict(type=int, help="sample count (default %(default)s)")),
        "arcs": (("--samples",), dict(type=int, help="equal start arcs on |z| = rho (default %(default)s)")),
        "seed": (("--seed",), dict(type=int, help="random seed")),
    }
    grid = ("grid-radii", "grid-angles", "tolerance")
    # name -> (handler, help, the flags it reads, defaults); any other flag exits 2
    commands = {
        "construct": (cmd_construct, "canonicalize a function spec, or emit a random measure of --samples atoms "
                      "(256 if not given) for --seed",
                      ("input", "output", "samples", "seed"), {}),
        "check": (cmd_check, "run verification checks on a function spec",
                  ("input", "output", *grid, "checks"), {}),
        "cover": (cmd_cover, "covering check against the core map",
                  ("input", "output", "rho", "r-inner", "arcs"), dict(samples=256)),
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
        if getattr(args, "samples", None) is not None and args.samples < 1:
            raise ValueError("--samples must be at least 1")
        if not 0.0 <= getattr(args, "tolerance", 0.0) < math.inf:
            raise ValueError("--tolerance must be finite and at least 0")
        return args.fn(args)
    except (ValueError, DomainError, KeyError, TypeError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
