import spiralcover
from spiralcover import functions, geometry, kernel, measures, verification

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
