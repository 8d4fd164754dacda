"""Every error class of cmtwist derives from ValueError: the command line
turns a ValueError into exit code 2, and anything else would escape as a
traceback."""

import importlib
import inspect
import pkgutil

import pytest

import cmtwist

MODULES = [cmtwist] + [importlib.import_module(f"cmtwist.{info.name}")
                       for info in pkgutil.iter_modules(cmtwist.__path__)]


def _error_classes(module):
    return [obj for obj in vars(module).values()
            if inspect.isclass(obj) and issubclass(obj, BaseException)
            and obj.__module__ == module.__name__]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_error_classes_are_value_errors(module):
    escaping = [cls.__name__ for cls in _error_classes(module)
                if not issubclass(cls, ValueError)]
    assert escaping == [], f"{module.__name__}: {escaping}"


def test_the_scan_finds_the_error_classes():
    found = {cls.__name__ for module in MODULES for cls in _error_classes(module)}
    assert found >= {"BSDError", "NotApplicable", "CoeffError", "EisensteinError",
                     "LSeriesError", "ModSymError", "QFieldError", "RegistryError"}
