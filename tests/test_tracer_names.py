"""The names perfbench/tracing.py wraps must exist in mgs.

The tracer skips a private name it cannot find, so a renamed comparison
route would silently read 0 in its metric; a missing method or counted
callable crashes a traced run.  The tracer module is loaded by path, so
this test reads it without changing or running it.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _function(layer, cls_name, name):
    module = importlib.import_module(f"mgs.{layer}")
    owner = module if cls_name is None else vars(module)[cls_name]
    value = vars(owner).get(name)
    assert inspect.isfunction(value), f"mgs.{layer}.{cls_name or ''}.{name} is gone"
    return value


def test_traced_names_exist():
    tracing = _tracing()
    for layer in tracing.LAYERS:
        importlib.import_module(f"mgs.{layer}")
    for layer, names in tracing.PRIVATE_SPANS.items():
        for name in names:
            _function(layer, None, name)
    for layer, cls_name, name in tracing.METHOD_SPANS + tracing.COUNTED:
        _function(layer, cls_name, name)
    for qualified in tracing.OBSERVERS:
        layer, name = qualified.split(".")
        _function(layer, None, name)


def test_observed_arguments_exist():
    read = {
        "topology._compare_enumerate": ("a", "r_max"),
        "logic.holds_in": ("table", "sentence"),
        "classify.enumerate_markings": ("table", "arity"),
    }
    for qualified, arguments in read.items():
        layer, name = qualified.split(".")
        params = inspect.signature(_function(layer, None, name)).parameters
        assert set(arguments) <= set(params), qualified
