"""Every file format of the package: the one reader and writer of its JSON and CSV.

A report is written from its six fields in one fixed form, the text
json.dumps(..., indent=2) gives them with every float at 12 significant
digits, so report diffs stay stable at the verification tolerance.
Function specs and measures written by `construct` are inputs, not
reports: json.dumps writes them at round-trip precision, so loading
them gives back the same floats.
"""

from __future__ import annotations

import json
import math
import reprlib
from typing import Any

import numpy as np

from .functions import ClassParams, ProductForm, construct
from .measures import AtomicCircleMeasure
from .verification import VerificationReport

__all__ = [
    "fmt", "dumps", "dumps_spec",
    "load_json", "load_function_spec", "load_measure", "load_render_input",
    "function_spec", "measure_spec", "curve_csv",
]

RENDER_OPTIONS = ("covering_disk", "wedge", "labels")


def fmt(x: float) -> str:
    """12-significant-digit text form of a float."""
    return f"{float(x):.12g}"


_escape = json.encoder.encode_basestring_ascii

# the layouts json.dumps(..., indent=2) gives a report's six fields and a check document, each value a %s slot
_REPORT = json.dumps(
    {"check": 0, "passed": 0, "worst_margin": 0, "worst_z": [0, 0], "tolerance": 0, "samples": 0}, indent=2
).replace("0", "%s")
_CHECKS = json.dumps({"checks": [0], "passed": 0}, indent=2).replace("0", "%s")
_ENTRY = _REPORT.replace("\n", "\n    ")  # a report as an entry of the checks list


def _number(x) -> str:
    """x at 12 significant digits as json writes the float; NaN and infinities raise ValueError, as json's do."""
    x = float(fmt(x))
    if not math.isfinite(x):
        raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")
    return float.__repr__(x)


def _values(r: VerificationReport) -> tuple:
    """The fields of r as JSON text, in the order _REPORT takes them."""
    z = r.worst_location
    return (
        _escape(r.check), "true" if r.passed else "false",
        _number(r.worst_margin), _number(z.real), _number(z.imag), _number(r.tolerance), r.samples,
    )


def dumps(reports: VerificationReport | list[VerificationReport]) -> str:
    """JSON of one report, or of the check document {"checks": [...], "passed": ...} of a non-empty list of them.

    The text is json.dumps(..., indent=2)'s for the six fields
    {check, passed, worst_margin, worst_z: [re, im], tolerance, samples},
    with every float at 12 significant digits.
    """
    if isinstance(reports, VerificationReport):
        return _REPORT % _values(reports) + "\n"
    entries = ",\n    ".join([_ENTRY % _values(r) for r in reports])
    return _CHECKS % (entries, "true" if all(r.passed for r in reports) else "false") + "\n"


def dumps_spec(obj: Any) -> str:
    """Indented JSON at round-trip precision; NaN and infinities raise ValueError, as JSON has no form for them."""
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """The JSON object of pairs; a key given twice raises ValueError naming it, as neither value is surely meant."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"JSON object has repeated key {reprlib.repr(key)}")
            seen.add(key)
    return obj


def load_json(path: str) -> Any:
    """The JSON value in the UTF-8 file at path; an unreadable, undecodable, malformed or too deeply nested
    file, or an object with a repeated key, raises ValueError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except (OSError, UnicodeDecodeError, ValueError, RecursionError) as exc:
        raise ValueError(f"cannot read JSON from {path}: {exc}") from exc


def _fields(obj: Any, name: str, keys: tuple[str, ...], optional: tuple[str, ...] = ()) -> dict:
    """obj, if a JSON object with every key of keys, any of optional and no other; else ValueError naming it."""
    if not isinstance(obj, dict):
        raise ValueError(f"{name} must be a JSON object")
    for key in obj:
        if key not in keys and key not in optional:
            raise ValueError(f"{name} has unknown key {reprlib.repr(key)}")
    for key in keys:
        if key not in obj:
            raise ValueError(f"{name} missing key {key!r}")
    return obj


def _pairs(items: Any, name: str, item: str, keys: tuple[str, str], read) -> list[tuple]:
    """(read(it[keys[0]]), read(it[keys[1]])) for each object it, an item, of the list name."""
    if not isinstance(items, list):
        raise ValueError(f"{name!r} must be a list of {{{keys[0]}, {keys[1]}}} objects")
    first, second = keys
    try:  # an item of two keys, both read, holds no other
        rows = [(read(it[first]), read(it[second])) for it in items if len(it) == 2]
    except (KeyError, TypeError):
        rows = []
    if len(rows) != len(items):  # _fields names what is wrong with the first bad item
        rows = [(read(it[first]), read(it[second])) for it in items if _fields(it, item, keys)]
    return rows


def _as_float(v) -> float:
    """A JSON number as a float; other values, named by type alone, and integers beyond float range raise ValueError."""
    if isinstance(v, float):  # first: nearly every value read is one, and this test is the cheapest
        return float(v)
    if isinstance(v, int) and not isinstance(v, bool):
        try:
            return float(v)
        except OverflowError:
            raise ValueError("integer too large for a float") from None
    json_type = {str: "a string", list: "an array", dict: "an object", bool: "a boolean", type(None): "null"}
    raise ValueError(f"expected a number, got {json_type.get(type(v), type(v).__name__)}")


def _as_complex(v) -> complex:
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(_as_float(v[0]), _as_float(v[1]))
    return complex(_as_float(v), 0.0)


def load_measure(data: Any) -> AtomicCircleMeasure:
    """A measure from its JSON form {"atoms": [{"angle", "weight"}, ...]}."""
    atoms = _pairs(_fields(data, "measure", ("atoms",))["atoms"], "atoms", "atom", ("angle", "weight"), _as_float)
    angles, weights = np.array(atoms, dtype=np.float64).reshape(-1, 2).T
    if not np.isfinite(angles).all():
        raise ValueError("non-finite atom angle")
    return AtomicCircleMeasure(np.exp(1j * angles), weights)


def load_function_spec(data: Any) -> tuple[ProductForm, ClassParams]:
    """Parse {"mu", "beta"} plus either "factors" or "measure", never both.

    In factor form a "prefactor" key overrides the default prefactor
    mu, which keeps bare power maps like (1-z)**(mu*beta) representable;
    a measure fixes the prefactor, so "prefactor" beside it is an error.
    """
    if isinstance(data, dict) and "measure" in data:
        if "factors" in data or "prefactor" in data:
            raise ValueError("a measure spec cannot also hold 'factors' or 'prefactor'")
        _fields(data, "function spec", ("mu", "beta", "measure"))
    else:
        _fields(data, "function spec", ("mu", "beta", "factors"), ("prefactor",))
    params = ClassParams(_as_complex(data["mu"]), _as_float(data["beta"]))
    if "measure" in data:
        return construct(params, load_measure(data["measure"])), params
    prefactor = _as_complex(data["prefactor"]) if "prefactor" in data else params.mu
    factors = _pairs(data["factors"], "factors", "factor", ("node", "exponent"), _as_complex)
    return ProductForm(prefactor, factors), params


def load_render_input(data: Any) -> tuple[list[tuple[ProductForm, ClassParams]], bool, bool, list[str]]:
    """Maps and options of {"functions": [spec, ...]} or of one spec, either with any keys of RENDER_OPTIONS."""
    opts = data if isinstance(data, dict) else {}
    rest = {k: v for k, v in opts.items() if k not in RENDER_OPTIONS} if isinstance(data, dict) else data
    specs = _fields(rest, "render input", ("functions",))["functions"] if "functions" in opts else [rest]
    if not isinstance(specs, list):
        raise ValueError("'functions' must be a list of function specs")
    covering_disk, wedge = opts.get("covering_disk", False), opts.get("wedge", False)
    labels = opts.get("labels", [])
    if not (isinstance(covering_disk, bool) and isinstance(wedge, bool)):
        raise ValueError("'covering_disk' and 'wedge' must be true or false")
    if not (isinstance(labels, list) and all(isinstance(label, str) for label in labels)):
        raise ValueError("'labels' must be a list of strings")
    if not specs:
        raise ValueError("no function specs to render")
    if len(specs) > 4:
        raise ValueError("at most 4 overlay curves")
    if len(labels) > len(specs):
        raise ValueError("more labels than function specs")  # label i takes the colour of curve i
    return [load_function_spec(spec) for spec in specs], covering_disk, wedge, labels


def function_spec(f: ProductForm, params: ClassParams) -> dict:
    """Spec form of f under params; the prefactor is written only when it is not mu."""
    d: dict = {"mu": [params.mu.real, params.mu.imag], "beta": params.beta}
    if f.prefactor != params.mu:
        d["prefactor"] = [f.prefactor.real, f.prefactor.imag]
    d["factors"] = [{"node": [c.real, c.imag], "exponent": [e.real, e.imag]} for c, e in f.factors]
    return d


def measure_spec(sigma: AtomicCircleMeasure) -> dict:
    """Angle-based JSON form; angles keep the atoms exactly on the circle."""
    atoms = zip(sigma.points, sigma.weights)
    return {"atoms": [{"angle": float(np.angle(p)), "weight": float(w)} for p, w in atoms]}


def curve_csv(points: np.ndarray) -> str:
    """The complex points as CSV rows re,im at 12 significant digits, under a header."""
    return "re,im\n" + "".join(f"{fmt(p.real)},{fmt(p.imag)}\n" for p in points)
