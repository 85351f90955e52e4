"""JSON and CSV interchange with deterministic float formatting.

Reports serialize every float at 12 significant digits, so report diffs
stay stable at the verification tolerance.  Function specs and measures
written by `construct` are inputs, not reports: they serialize at
round-trip precision, so loading them gives back the same floats.
"""

from __future__ import annotations

import json
from typing import Any

from .functions import ClassParams, ProductForm, construct
from .measures import AtomicCircleMeasure, _as_float

__all__ = [
    "fmt",
    "round12",
    "to_jsonable",
    "dumps",
    "dumps_spec",
    "load_function_spec",
]


def fmt(x: float) -> str:
    """12-significant-digit text form of a float."""
    return f"{float(x):.12g}"


def round12(x: float) -> float:
    return float(fmt(x))


def to_jsonable(obj: Any) -> Any:
    """Recursively round floats to 12 significant digits for stable output."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return round12(obj)
    if isinstance(obj, complex):
        return [round12(obj.real), round12(obj.imag)]
    if isinstance(obj, dict):
        return {k: to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    return obj


def dumps(obj: Any) -> str:
    """Indented JSON of a report, at 12 significant digits."""
    return dumps_spec(to_jsonable(obj))


def dumps_spec(obj: Any) -> str:
    """Indented JSON at round-trip precision; NaN and infinities raise ValueError, as JSON has no form for them."""
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def _as_complex(v) -> complex:
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(_as_float(v[0]), _as_float(v[1]))
    return complex(_as_float(v), 0.0)


def load_function_spec(data: dict) -> tuple[ProductForm, ClassParams]:
    """Parse {"mu", "beta"} plus either "factors" or "measure", never both.

    In factor form a "prefactor" key overrides the default prefactor
    mu, which keeps bare power maps like (1-z)**(mu*beta) representable;
    a measure fixes the prefactor, so "prefactor" beside it is an error.
    """
    if not isinstance(data, dict):
        raise ValueError("function spec must be a JSON object")
    try:
        mu = _as_complex(data["mu"])
        beta = _as_float(data["beta"])
    except KeyError as exc:
        raise ValueError(f"function spec missing key {exc}") from exc
    params = ClassParams(mu, beta)
    if "measure" in data:
        if "factors" in data or "prefactor" in data:
            raise ValueError("a measure spec cannot also hold 'factors' or 'prefactor'")
        sigma = AtomicCircleMeasure.from_dict(data["measure"])
        return construct(params, sigma), params
    if "factors" not in data:
        raise ValueError("function spec needs 'factors' or 'measure'")
    if not isinstance(data["factors"], list):
        raise ValueError("'factors' must be a list of {node, exponent} objects")
    prefactor = _as_complex(data["prefactor"]) if "prefactor" in data else mu
    factors = tuple(
        (_as_complex(f["node"]), _as_complex(f["exponent"])) for f in data["factors"]
    )
    return ProductForm(prefactor, factors), params
