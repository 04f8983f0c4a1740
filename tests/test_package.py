"""The package namespace: every module's public names, each declared once."""

import pytest

import wittengap
from wittengap import bounds, report, shrinkers, spectral, sturm

MODULES = (bounds, report, shrinkers, spectral, sturm)


def test_package_all_is_the_modules_all_in_order():
    assert wittengap.__all__ == [name for module in MODULES for name in module.__all__]
    assert len(set(wittengap.__all__)) == len(wittengap.__all__) == 61
    # GridSweep is the one s-grid oracle; its two former aliases are gone
    for name in ("sup_bound_grid", "sup_bound_grid_sweep"):
        assert name not in wittengap.__all__ and not hasattr(bounds, name)


def test_every_export_is_the_defining_modules_object():
    for module in MODULES:
        for name in module.__all__:
            obj = getattr(module, name)
            assert getattr(wittengap, name) is obj
            # declared where it is defined, not re-exported from another module
            assert getattr(obj, "__module__", module.__name__) == module.__name__


@pytest.mark.parametrize(
    "module, name",
    [
        (sturm, "EigenvalueRangeError"),
        (sturm, "IterationCapError"),
        (sturm, "CellWidthError"),
        (sturm, "IntervalLengthError"),
        (sturm, "MeasureUnderflowError"),
        (shrinkers, "ArcIntegrationError"),
        (shrinkers, "CurvatureDiameter"),
        (spectral, "stiffness_matrix"),
    ],
)
def test_named_errors_and_late_names_are_exported(module, name):
    assert name in wittengap.__all__
    assert getattr(wittengap, name) is getattr(module, name)
