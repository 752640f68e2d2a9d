"""The benchmark's tracer rebinds designkit names by string; keep them real."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def tracing_assignment(name):
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return node.value
    raise AssertionError(f"perfbench/tracing.py defines no {name}")


def test_every_traced_inner_name_is_a_callable_attribute():
    inner = ast.literal_eval(tracing_assignment("INNER"))
    assert inner
    for modname, names in inner.items():
        module = importlib.import_module(modname)
        for name in names:
            assert callable(getattr(module, name, None)), f"{modname}.{name}"


def test_every_counter_key_names_a_callable_designkit_function():
    # The values are lambdas, so only the keys are read as literals.  A span is
    # named after the function's own module and name, so the key must match both.
    keys = [ast.literal_eval(key) for key in tracing_assignment("COUNTERS").keys]
    assert keys
    for key in keys:
        modname, name = key.split(".")
        fn = getattr(importlib.import_module(f"designkit.{modname}"), name, None)
        assert callable(fn), f"designkit.{key}"
        assert (fn.__module__, fn.__name__) == (f"designkit.{modname}", name), key
