"""Spans around spiralcover's public functions, recorded from outside the program.

Each traced function is replaced by a wrapper in every ``spiralcover.*``
module that holds it, because ``cli``, ``verification`` and ``geometry``
bind names with ``from .functions import ...``: patching only the defining
module would miss their calls.  Spans are kept in memory as
(name, start, end, parent span, item, info) and summarized at the end.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

CHECKS = (
    "check_membership",
    "check_distortion",
    "check_derivative_disk",
    "check_schwarz",
    "check_value_bounds",
    "check_derivative_value_bounds",
    "check_interior_identity",
    "check_growth",
)


def _points(args, kwargs, pos: int, key: str) -> int:
    return int(np.size(args[pos] if len(args) > pos else kwargs[key]))


def _log_terms(args, kwargs, result) -> dict:
    # one complex log per point for the (1 - z) term and per point per factor
    f = args[0] if args else kwargs["f"]
    return {"point_factors": _points(args, kwargs, 1, "z") * (len(f.factors) + 1)}


def _winding(args, kwargs, result) -> dict:
    poly = args[0] if args else kwargs["poly"]
    samples = _points(args, kwargs, 1, "points")
    return {"samples": samples, "pairs": samples * len(poly.points), "indeterminate": int(result[1].sum())}


def _curve(args, kwargs, result) -> dict:
    n = args[2] if len(args) > 2 else kwargs.get("n", 256)
    return {"n": int(n), "curve_points": len(result.points)}


def _make_measure(args, kwargs, result) -> dict:
    atoms = args[0] if args else kwargs["atoms"]
    return {"atoms": len(atoms) if hasattr(atoms, "__len__") else len(result)}


def _report(args, kwargs, result) -> dict:
    return {"grid_points": int(result.samples)}


# (module, function, info hook or None); info is computed after the call returns
TRACED = (
    ("kernel", "log_principal", lambda a, k, r: {"elements": int(np.size(a[0] if a else k["w"]))}),
    ("functions", "eval_log", _log_terms),
    ("functions", "log_derivative", _log_terms),
    ("functions", "evaluate", lambda a, k, r: {"points": int(np.size(r))}),
    ("functions", "construct", None),
    ("measures", "make_measure", _make_measure),
    *(("verification", name, _report) for name in CHECKS),
    ("geometry", "winding_numbers", _winding),
    ("geometry", "boundary_curve", _curve),
    ("geometry", "check_covering", None),
    ("geometry", "check_wedge_containment", None),
    ("serialize", "load_function_spec", None),
    ("serialize", "dumps", None),
    ("cli", "main", None),
)


class Tracer:
    """Records spans of the TRACED functions while installed."""

    def __init__(self):
        self.spans: list = []
        self.item: str | None = None
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, name: str, fn, info_hook):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = [name, start, end, parent, self.item, None]
            if info_hook is not None:
                spans[idx][5] = info_hook(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every alias of each traced function in every loaded spiralcover module."""
        modules = [m for n, m in list(sys.modules.items()) if n == "spiralcover" or n.startswith("spiralcover.")]
        for mod_name, fn_name, hook in TRACED:
            orig = getattr(sys.modules[f"spiralcover.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", orig, hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._undo):
            setattr(mod, attr, orig)
        self._undo.clear()

    def write(self, path: Path) -> None:
        """Write the spans as gzipped JSON lines: name, start, end, parent, item, info."""
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def summarize(spans: list, items: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass over `items` invocations."""
    self_s = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            self_s[s[3]] -= s[2] - s[1]
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    info: dict[str, float] = defaultdict(float)
    evaluations: dict[int, int] = defaultdict(int)
    for i, (name, start, end, parent, _item, extra) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        own[name] += self_s[i]
        for key, value in (extra or {}).items():
            info[f"{name}.{key}"] += value
        if name == "functions.evaluate" and parent >= 0 and spans[parent][0] == "geometry.boundary_curve":
            evaluations[parent] += extra["points"]
    # the refinement loop stops without notice once 16*n points are evaluated
    exhausted = sum(
        1 for i, s in enumerate(spans) if s[0] == "geometry.boundary_curve" and evaluations[i] >= 16 * s[5]["n"]
    )
    busy = total["cli.main"]

    def per(num: float, den: float, scale: float = 1.0) -> float:
        return num / den * scale if den else 0.0

    lp, wn, mm = "kernel.log_principal", "geometry.winding_numbers", "measures.make_measure"
    m = {
        f"{lp}.calls": calls[lp],
        f"{lp}.elements": info[f"{lp}.elements"],
        f"{lp}.s": total[lp],
        f"{lp}.ns_per_element": per(total[lp], info[f"{lp}.elements"], 1e9),
        f"{lp}.self_share": per(own[lp], busy),
        "functions.eval_log.calls": calls["functions.eval_log"],
        "functions.eval_log.calls_per_item": per(calls["functions.eval_log"], items),
        "functions.eval_log.point_factors": info["functions.eval_log.point_factors"],
        "functions.eval_log.self_s": own["functions.eval_log"],
        "functions.log_derivative.calls": calls["functions.log_derivative"],
        "functions.log_derivative.point_factors": info["functions.log_derivative.point_factors"],
        "functions.log_derivative.s": total["functions.log_derivative"],
        "functions.evaluate.calls": calls["functions.evaluate"],
        "functions.evaluate.self_s": own["functions.evaluate"],
        "functions.construct.s": total["functions.construct"],
        **{f"verification.{c}.s": total[f"verification.{c}"] for c in CHECKS},
        "verification.grid_points": sum(info[f"verification.{c}.grid_points"] for c in CHECKS),
        f"{mm}.calls": calls[mm],
        f"{mm}.atoms": info[f"{mm}.atoms"],
        f"{mm}.atoms_per_item": per(info[f"{mm}.atoms"], items),
        f"{mm}.s": total[mm],
        f"{mm}.self_share": per(own[mm], busy),
        f"{wn}.calls": calls[wn],
        f"{wn}.samples": info[f"{wn}.samples"],
        f"{wn}.pairs": info[f"{wn}.pairs"],
        f"{wn}.pairs_per_item": per(info[f"{wn}.pairs"], items),
        f"{wn}.s": total[wn],
        f"{wn}.ns_per_pair": per(total[wn], info[f"{wn}.pairs"], 1e9),
        f"{wn}.indeterminate": info[f"{wn}.indeterminate"],
        f"{wn}.self_share": per(own[wn], busy),
        "geometry.boundary_curve.calls": calls["geometry.boundary_curve"],
        "geometry.boundary_curve.s": total["geometry.boundary_curve"],
        "geometry.boundary_curve.curve_points": info["geometry.boundary_curve.curve_points"],
        "geometry.boundary_curve.evaluations": sum(evaluations.values()),
        "geometry.boundary_curve.budget_exhausted": exhausted,
        "geometry.check_covering.s": total["geometry.check_covering"],
        "geometry.check_wedge_containment.s": total["geometry.check_wedge_containment"],
        "serialize.load_function_spec.s": total["serialize.load_function_spec"],
        "serialize.dumps.s": total["serialize.dumps"],
        "cli.main.calls": calls["cli.main"],
        "cli.main.s": busy,
        "cli.main.self_s": own["cli.main"],
    }
    return {k: float(v) for k, v in m.items()}


def unit(name: str) -> str:
    """Unit of a per-layer metric, from the last part of its name."""
    last = name.rsplit(".", 1)[-1]
    if last in ("s", "self_s"):
        return "s"
    if last.startswith("ns_per"):
        return "ns"
    if last.endswith("share"):
        return "ratio"
    if last.startswith("items_per_s"):
        return "1/s"
    if last == "output_bytes":
        return "bytes"
    return "count"


def item_counts(spans: list) -> dict[str, dict[str, int]]:
    """Exact per-input counts: eval_log calls, winding pairs and make_measure atoms."""
    out: dict[str, dict[str, int]] = defaultdict(lambda: {"eval_log_calls": 0, "winding_pairs": 0, "make_measure_atoms": 0})
    for name, _start, _end, _parent, item, extra in spans:
        if name == "functions.eval_log":
            out[item]["eval_log_calls"] += 1
        elif name == "geometry.winding_numbers":
            out[item]["winding_pairs"] += extra["pairs"]
        elif name == "measures.make_measure":
            out[item]["make_measure_atoms"] += extra["atoms"]
    return dict(out)
