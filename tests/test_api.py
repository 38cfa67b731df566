"""The package's public names: each layer module's __all__ declares them once."""

import inspect

import pytest

import gcspiral
from gcspiral import cli, errors, lcg, lddc, profiles, quadrature, svg, synthesis

REEXPORTED = (errors, lcg, lddc, profiles, synthesis)


def test_package_all_is_the_layer_lists():
    assert gcspiral.__all__ == ["__version__", *(n for m in REEXPORTED for n in m.__all__)]
    assert len(set(gcspiral.__all__)) == len(gcspiral.__all__) == 39
    for module in REEXPORTED:
        for name in module.__all__:
            assert getattr(gcspiral, name) is getattr(module, name)
    assert isinstance(gcspiral.__version__, str)


def test_package_exports_nothing_else():
    # Submodules aside, the package's public attributes are exactly __all__:
    # The errors.py check helpers stay in their module; profile documents are
    # the CLI's.
    public = {n for n, v in vars(gcspiral).items() if n[0] != "_" and not inspect.ismodule(v)}
    assert public == set(gcspiral.__all__) - {"__version__"}
    for name in ("PROFILE_KINDS", "profile_from_dict", "profile_from_json"):
        assert name in cli.__all__ and name not in vars(profiles)


@pytest.mark.parametrize(
    "module",
    [cli, errors, lcg, lddc, profiles, quadrature, svg, synthesis],
    ids=lambda m: m.__name__,
)
def test_listed_functions_and_classes_are_defined_in_their_module(module):
    # bench/tracing.py times only the functions that pass this check.
    for name in module.__all__:
        value = getattr(module, name)
        if inspect.isfunction(value) or inspect.isclass(value):
            assert value.__module__ == module.__name__, name
