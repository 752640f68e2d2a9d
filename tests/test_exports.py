"""The package surface: every public name is declared once, in its module's
``__all__``; the package exports the union of those lists and imports a
module only when one of its names is first asked for."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import designkit

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
MODULES = ["designkit"] + [
    f"designkit.{info.name}" for info in pkgutil.iter_modules(designkit.__path__)
]
# The modules whose lists make up the package's, in export order; cli exports nothing.
EXPORTING = ("linalg", "classical", "quantum", "cpmaps", "catalog")
# The names the package listed when it declared them itself; each must stay exported.
FORMER_EXPORTS = """
    __version__ Tolerance DEFAULT_TOL NatMatrix ComplexMatrix mat_mul kron transpose adjoint
    trace split_by_projector ClassicalDesign DesignParams HomPair IdentityCheck CheckFailed
    InfeasibleParametersError classify check_identities to_block verify_hom compose_hom tensor
    dual gen_projective_plane gen_complete search_designs designs_isomorphic QuantumDesign
    QuantumParams MubFamily validate classify_quantum to_classical tensor_q mub_generate
    mub_verify Algebra CpMap ChoiMatrix choi superop_from_choi is_cp is_trace_preserving
    classical_to_cp quantum_design_to_cp functor_q functor_q_on_hom embed_commutative
    verify_cp_design FormatError catalog_get catalog_names catalog_expected
""".split()


def fresh_modules(statement: str, roots: tuple = ("designkit", "numpy")) -> list[str]:
    """Run ``statement`` in a new interpreter importing from src/; return the
    modules it leaves loaded whose top-level package is in ``roots``."""
    probe = (f"import sys\n{statement}\n"
             f"print(*sorted(m for m in sys.modules if m.split('.')[0] in {roots!r}))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", probe], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True, timeout=60)
    return proc.stdout.split()


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), name
    missing = [entry for entry in exported if not hasattr(module, entry)]
    assert missing == [], name


def test_importing_the_package_loads_no_module_and_no_numpy():
    assert fresh_modules("import designkit") == ["designkit"]


def test_a_name_loads_only_the_module_that_declares_it():
    loaded = fresh_modules("from designkit import Tolerance")
    assert [m for m in loaded if m.startswith("designkit")] == ["designkit", "designkit.linalg"]


def test_from_the_package_import_cli_loads_no_library_module_and_no_numpy():
    assert fresh_modules("from designkit import cli") == ["designkit", "designkit.cli"]


@pytest.mark.parametrize("stem", EXPORTING)
def test_from_the_package_import_a_module_loads_what_importing_it_loads(stem):
    assert fresh_modules(f"from designkit import {stem}") == fresh_modules(f"import designkit.{stem}")


def test_verify_cpmap_leaves_numpy_ma_unloaded(tmp_path):
    # numpy.ma adds to start-up, and np.unique(..., axis=0) imports it on first use.
    path = tmp_path / "cp.json"
    path.write_text(designkit.catalog_text("cp-k2r2"), encoding="utf-8")
    loaded = fresh_modules("import contextlib, io\nfrom designkit.cli import main\n"
                           "with contextlib.redirect_stdout(io.StringIO()):\n"
                           f"    assert main(['verify-cpmap', {str(path)!r}, '--json']) == 0")
    assert "designkit.cpmaps" in loaded
    assert "numpy.ma" not in loaded


def test_generate_mub_leaves_numpy_ma_unloaded():
    # The MUB family is written by the table writer, whose np.unique takes no axis.
    loaded = fresh_modules("import contextlib, io\nfrom designkit.cli import main\n"
                           "with contextlib.redirect_stdout(io.StringIO()):\n"
                           "    assert main(['generate', 'mub', '--dim', '5', '--count', '6']) == 0")
    assert "designkit.catalog" in loaded
    assert "numpy.ma" not in loaded


def test_version_loads_no_hashlib_and_a_report_does():
    # OpenSSL's _hashlib adds milliseconds to start-up; only a report's digest needs it.
    request = ("import contextlib, io\nfrom designkit.cli import main\n"
               "with contextlib.redirect_stdout(io.StringIO()):\n"
               "    assert main({argv!r}) == 0")
    roots = ("hashlib", "_hashlib")
    assert fresh_modules(request.format(argv=["--version"]), roots) == []
    report = ["verify-classical", str(SRC / "designkit" / "data" / "fano.json")]
    assert fresh_modules(request.format(argv=report), roots) == ["_hashlib", "hashlib"]


@pytest.mark.parametrize("argv,code", [(["--version"], 0), (["--help"], 0),
                                       (["no-such-command"], 2)])
def test_requests_that_argparse_ends_load_no_library_module_and_no_numpy(argv, code):
    # What ``python -m designkit.cli ARGV`` runs; the front end runs as __main__.
    loaded = fresh_modules("import contextlib, io, runpy\n"
                           f"sys.argv = ['designkit', *{argv!r}]\n"
                           "with contextlib.redirect_stdout(io.StringIO()), "
                           "contextlib.redirect_stderr(io.StringIO()):\n"
                           "    try:\n"
                           "        runpy.run_module('designkit.cli', run_name='__main__')\n"
                           "    except SystemExit as exc:\n"
                           f"        assert exc.code == {code}")
    assert loaded == ["designkit"]


def test_a_handler_request_loads_the_library_and_keeps_its_output(tmp_path):
    path = tmp_path / "fano.json"
    path.write_text(designkit.catalog_text("fano"), encoding="utf-8")
    loaded = fresh_modules("import contextlib, io\nfrom designkit.cli import main\n"
                           "with contextlib.redirect_stdout(io.StringIO()):\n"
                           f"    assert main(['verify-classical', {str(path)!r}]) == 0")
    assert [m for m in loaded if m.startswith("designkit")] == sorted(MODULES)
    assert "numpy" in loaded
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-m", "designkit.cli", "verify-classical", str(path)],
                          env=env, cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (
        "verify-classical: PASS\n"
        "  k = 3\n"
        "  lambda = 1\n"
        "  r = 3\n"
        "  symmetric = True\n"
        "  [pass] b*k = r*v  {'lhs': 21, 'rhs': 21}\n"
        "  [pass] lambda*(v-1) = r*(k-1)  {'lhs': 6, 'rhs': 6}\n"
    )


def test_the_package_exports_the_module_lists_in_module_order():
    assert sorted(MODULES) == sorted(["designkit", "designkit.cli"]
                                     + [f"designkit.{stem}" for stem in EXPORTING])
    want = ["__version__"]
    for stem in EXPORTING:
        want += importlib.import_module(f"designkit.{stem}").__all__
    assert designkit.__all__ == want
    assert len(want) == len(set(want))


def test_dir_and_star_import_cover_every_exported_name():
    assert set(designkit.__all__) <= set(dir(designkit))
    namespace: dict = {}
    exec("from designkit import *", namespace)
    assert [name for name in designkit.__all__ if name not in namespace] == []
    for stem in EXPORTING:
        module = importlib.import_module(f"designkit.{stem}")
        for name in module.__all__:
            assert namespace[name] is getattr(module, name), name


def test_every_former_export_stays_exported():
    assert [name for name in FORMER_EXPORTS if name not in designkit.__all__] == []


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        designkit.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from designkit import no_such_name", {})


@pytest.mark.parametrize("stem", EXPORTING)
def test_each_module_list_names_exactly_its_public_top_level_definitions(stem):
    tree = ast.parse((SRC / "designkit" / f"{stem}.py").read_text(encoding="utf-8"))
    defined, exported = set(), None
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            if names == {"__all__"}:
                exported = ast.literal_eval(node.value)
            defined |= names
    public = sorted(name for name in defined if not name.startswith("_"))
    assert exported is not None
    assert sorted(exported) == public


def test_the_version_is_declared_once_in_the_package():
    tomllib = pytest.importorskip("tomllib")
    config = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert "version" not in config["project"]
    assert "version" in config["project"]["dynamic"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "designkit.__version__"}
