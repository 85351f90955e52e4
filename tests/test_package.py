import numpy as np
import pytest

import spiralcover
from spiralcover import functions, geometry, kernel, measures, verification

from conftest import bit_equal

MODULES = (kernel, measures, functions, verification, geometry)


def test_all_is_the_module_lists_in_order():
    names = [name for mod in MODULES for name in mod.__all__]
    assert spiralcover.__all__ == names
    assert len(set(names)) == len(names)


def test_public_name_count():
    assert len(spiralcover.__all__) == 48


def test_each_name_is_its_module_object():
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(spiralcover, name) is getattr(mod, name), name


RING = np.exp(2j * np.pi * np.arange(16) / 16)

# each public constructor that keeps an array: the caller's arrays, the constructor, the arrays the object keeps
KEEPERS = {
    "PolyLine": (lambda: [RING.copy()], geometry.PolyLine, lambda o: [o.points]),
    "GridEvaluation-raw-points": (
        lambda: [0.5 * RING],
        lambda z: verification.GridEvaluation(functions.ProductForm(1.0), z),
        lambda o: [o.points],
    ),
    "ProductForm-one-factor": (
        lambda: [np.array([[0.6j, 0.3]])],
        lambda a: functions.ProductForm(1.0, a),
        lambda o: [o.nodes, o.exponents],
    ),
    "ProductForm-three-factors": (
        lambda: [np.array([[0.6j, 0.3], [-0.5, 0.2 + 0.1j], [1.0, 0.1]])],
        lambda a: functions.ProductForm(1.0, a),
        lambda o: [o.nodes, o.exponents],
    ),
    "AtomicCircleMeasure": (
        lambda: [np.array([1.0, -1.0], dtype=complex), np.array([0.25, 0.75])],
        measures.AtomicCircleMeasure,
        lambda o: [o.points, o.weights],
    ),
}


@pytest.mark.parametrize("name", list(KEEPERS))
def test_kept_arrays_are_copies(name):
    # the object keeps read-only copies and the caller's arrays stay writable; a later write must not reach
    # the object: PolyLine(a) then a[1] = a[0] would put a zero-length edge in a polygon that rejects one
    make, build, kept = KEEPERS[name]
    inputs = make()
    obj = build(*inputs)
    before = [a.copy() for a in kept(obj)]
    assert all(a.flags.writeable for a in inputs)
    assert not any(a.flags.writeable for a in kept(obj))
    for a in inputs:
        a.flat[1] = a.flat[0]
    assert all(bit_equal(a, b) for a, b in zip(kept(obj), before))
