"""The benchmark's tracer rebinds designkit names by string; keep them real."""

import ast
import contextlib
import importlib
import io
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


# The library functions that cli's handlers call, by the module that defines them.
CLI_CALLS = {
    "catalog": ("loads", "dumps", "canonical_json"),
    "classical": ("classify", "search_designs", "gen_projective_plane"),
    "cpmaps": ("functor_q", "functor_q_on_hom", "is_cp", "verify_cp_design"),
    "quantum": ("validate", "classify_quantum", "to_classical"),
}


def run_catalog_list(cli):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["catalog", "--list"]) == 0


def test_after_one_request_the_called_library_functions_are_cli_attributes():
    # The tracer finds what to wrap among the functions in vars(designkit.cli).
    cli = importlib.import_module("designkit.cli")
    run_catalog_list(cli)
    for modname, names in CLI_CALLS.items():
        module = importlib.import_module(f"designkit.{modname}")
        for name in names:
            assert vars(cli).get(name) is getattr(module, name), f"cli.{name}"


def test_a_cli_attribute_patched_after_the_first_request_survives_later_ones(
        tmp_path, monkeypatch):
    cli = importlib.import_module("designkit.cli")
    run_catalog_list(cli)
    classify = cli.classify
    calls = []

    def counting(design):
        calls.append(design.v)
        return classify(design)

    monkeypatch.setattr(cli, "classify", counting)
    path = tmp_path / "fano.json"
    path.write_text(cli.catalog_text("fano"), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        for _ in range(2):
            assert cli.main(["verify-classical", str(path)]) == 0
    assert cli.classify is counting
    assert calls == [7, 7]
