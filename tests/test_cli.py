import argparse
import ast
import hashlib
import io
import json
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import designkit
from designkit import cli, cpmaps, quantum
from designkit.catalog import FormatError, canonical_json, catalog_text, dumps, loads
from designkit.classical import (
    CheckFailed,
    ClassicalDesign,
    InfeasibleParametersError,
    gen_projective_plane,
    verify_hom,
)
from designkit.cli import main
from designkit.cpmaps import Algebra, CpMap
from designkit.linalg import DEFAULT_TOL, ComplexMatrix, NatMatrix
from designkit.quantum import QuantumDesign, validate


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def fano_file(tmp_path):
    return write(tmp_path, "fano.json", catalog_text("fano"))


def test_verify_classical_block_design_passes(fano_file, capsys):
    code, out, _ = run(capsys, "verify-classical", fano_file, "--block", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "design-report/1"
    assert doc["tool"] == "designkit"
    assert doc["command"] == "verify-classical"
    assert doc["input_digest"].startswith("sha256:")
    assert doc["passed"] is True
    assert doc["parameters"] == {"k": 3, "r": 3, "lambda": 1, "symmetric": True}
    names = [c["name"] for c in doc["checks"]]
    assert "block-design parameters present" in names
    assert "b*k = r*v" in names
    assert "lambda*(v-1) = r*(k-1)" in names
    assert all(c["passed"] for c in doc["checks"])


def test_verify_classical_human_output(fano_file, capsys):
    code, out, _ = run(capsys, "verify-classical", fano_file)
    assert code == 0
    assert out.splitlines()[0] == "verify-classical: PASS"


def test_verify_classical_block_flag_fails_on_irregular_design(tmp_path, capsys):
    design = ClassicalDesign(NatMatrix([[1, 1], [1, 0]]))
    path = write(tmp_path, "irregular.json", dumps(design))
    code, out, _ = run(capsys, "verify-classical", path, "--block", "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["passed"] is False
    missing = next(c for c in doc["checks"] if c["name"] == "block-design parameters present")
    assert missing["passed"] is False
    assert missing["missing"] == ["k", "r", "lambda"]
    assert "counting identities skipped: k or r not classified" in doc["notes"]


def test_verify_classical_without_block_flag_tolerates_missing_params(tmp_path, capsys):
    design = ClassicalDesign(NatMatrix([[1, 1], [1, 0]]))
    path = write(tmp_path, "irregular.json", dumps(design))
    code, out, _ = run(capsys, "verify-classical", path, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["checks"] == []
    assert doc["parameters"]["k"] is None


def test_verify_classical_json_report_is_byte_identical_across_runs(fano_file, capsys):
    _, first, _ = run(capsys, "verify-classical", fano_file, "--block", "--json")
    _, second, _ = run(capsys, "verify-classical", fano_file, "--block", "--json")
    assert first == second
    assert first == canonical_json(json.loads(first))


def test_verify_quantum_mub_passes(tmp_path, capsys):
    path = write(tmp_path, "mub.json", catalog_text("mub-2-2"))
    code, out, _ = run(capsys, "verify-quantum", path, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["parameters"]["r"] == 1
    assert doc["parameters"]["k"] == pytest.approx(2.0)
    assert doc["parameters"]["degree"] == 2
    assert doc["parameters"]["commutative"] is False
    names = [c["name"] for c in doc["checks"]]
    assert "b*k = r*v" in names  # 2*2.0 == 1*4
    assert "lambda*(v-1) = r*(k-1)" not in names  # degree 2: balance does not apply


def test_verify_quantum_reads_both_identity_sides_as_reals(tmp_path, capsys):
    # r is an integer trace, but r*v is read in the reals: 4.0, not 4.
    path = write(tmp_path, "mub.json", catalog_text("mub-2-2"))
    code, out, _ = run(capsys, "verify-quantum", path)
    assert code == 0
    assert out.endswith("  [pass] b*k = r*v  {'lhs': 4.0, 'rhs': 4.0}\n")


def test_verify_quantum_rejects_corrupted_projector(tmp_path, capsys):
    doc = json.loads(catalog_text("mub-2-2"))
    doc["projectors"][0][0][0] = [0.7, 0.0]  # no longer idempotent
    path = write(tmp_path, "bad.json", canonical_json(doc))
    code, out, _ = run(capsys, "verify-quantum", path, "--json")
    assert code == 1
    rep = json.loads(out)
    assert rep["passed"] is False
    failing = [c for c in rep["checks"] if not c["passed"]]
    assert failing and failing[0]["index"] == 0


def test_verify_quantum_validates_each_family_once(tmp_path, capsys, monkeypatch):
    calls = []

    def counting(design, tol):
        calls.append(design.v)
        return validate(design, tol)

    # The first request that runs a handler binds cli's library names.
    assert run(capsys, "catalog", "--list")[0] == 0
    monkeypatch.setattr(cli, "validate", counting)
    monkeypatch.setattr(quantum, "validate", counting)
    path = write(tmp_path, "mub.json", catalog_text("mub-2-2"))
    code, _, _ = run(capsys, "verify-quantum", path, "--json")
    assert code == 0
    assert calls == [4]


def test_verify_cpmap_example_reports_both_readings(tmp_path, capsys):
    path = write(tmp_path, "cp.json", catalog_text("cp-k2r2"))
    code, out, _ = run(capsys, "verify-cpmap", path, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["parameters"]["trace_preserving"] is False
    sup = doc["parameters"]["superoperator_reading"]
    assert sup["k"] == pytest.approx(2.0, abs=1e-12)
    assert sup["r"] == pytest.approx(2.0, abs=1e-12)
    assert sup["lambda_residual"] == pytest.approx(0.5, abs=1e-12)
    assert sup["lambda_balanced"] is False
    choi = doc["parameters"]["choi_reading"]
    assert choi["k"] == pytest.approx(1.5, abs=1e-12)
    assert choi["r"] == pytest.approx(1.5, abs=1e-12)
    assert choi["lambda_residual"] == pytest.approx(1.0, abs=1e-12)
    assert any("reported, not asserted" in n for n in doc["notes"])


def test_verify_cpmap_rejects_transpose_map(tmp_path, capsys):
    swap = [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
    f = CpMap(Algebra.matrix(2), Algebra.matrix(2), ComplexMatrix(swap))
    path = write(tmp_path, "transpose.json", dumps(f))
    code, out, _ = run(capsys, "verify-cpmap", path, "--json")
    assert code == 1
    doc = json.loads(out)
    cp_check = next(c for c in doc["checks"] if c["name"].startswith("completely positive"))
    assert cp_check["passed"] is False
    assert cp_check["min_choi_eigenvalue"] == pytest.approx(-1.0, abs=1e-9)


def test_verify_cpmap_names_largest_entry_when_gram_overflows(tmp_path, capsys):
    huge = ComplexMatrix([[1e300] * 2] * 2)
    f = CpMap(Algebra.commutative(2), Algebra.commutative(2), huge)
    path = write(tmp_path, "huge.json", dumps(f))
    code, out, err = run(capsys, "verify-cpmap", path, "--json")
    assert code == 2
    assert out == ""
    assert err == "error: m m^dagger is not finite; the largest |entry| of the map is 1e+300\n"


def test_verify_cpmap_near_binary64_limit_gives_named_error_without_warnings(tmp_path, capsys):
    # is_cp stays finite here; the unit sums and m m^dagger do not, so the map
    # is refused with the named message instead of a numpy warning.
    near_max = ComplexMatrix([[1e308] * 2] * 2)
    f = CpMap(Algebra.commutative(2), Algebra.commutative(2), near_max)
    path = write(tmp_path, "near-max.json", dumps(f))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "verify-cpmap", path, "--json")
    assert code == 2
    assert out == ""
    assert err == "error: m m^dagger is not finite; the largest |entry| of the map is 1e+308\n"


def test_verify_cpmap_names_largest_entry_when_choi_eigenvalues_overflow(tmp_path, capsys):
    # The one Choi block [[a, a], [a, -a]] has eigenvalues +-sqrt(2) a, beyond binary64.
    a = 1.7e308
    f = CpMap(Algebra.commutative(1), Algebra.matrix(2), ComplexMatrix([[a], [a], [a], [-a]]))
    path = write(tmp_path, "overflowing-choi.json", dumps(f))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "verify-cpmap", path, "--json")
    assert code == 2
    assert out == ""
    assert err == ("error: Choi eigenvalues are not finite; the largest |entry| of the map "
                   "is 1.7e+308\n")


@pytest.mark.parametrize("argv", [["verify-quantum", "--json"], ["convert", "q2c"]])
def test_overflowing_projector_gives_named_error_without_warnings(tmp_path, capsys, argv):
    # p p overflows, so neither the projector check nor the joint eigenbasis
    # can be computed in binary64.
    path = write(tmp_path, "big.json", dumps(QuantumDesign((ComplexMatrix([[1e200]]),))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, argv[0], *argv[1:], path)
    assert code == 2
    assert out == ""
    assert err == "error: projector 0: p p is not finite; its largest |entry| is 1e+200\n"


@pytest.mark.parametrize("command, schema_doc, position", [
    ("verify-quantum",
     {"schema": "quantum-design/1", "dim": 1, "projectors": [[[["BIG", 0]]]]},
     "projectors[0][0][0][0]"),
    ("verify-cpmap",
     {"schema": "cp-map/1", "convention": "superoperator",
      "in": {"kind": "commutative", "n": 2}, "out": {"kind": "commutative", "n": 2},
      "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, "BIG"]]]},
     "matrix[1][1][1]"),
])
def test_oversize_integer_literal_is_a_format_error_with_position(
        tmp_path, capsys, command, schema_doc, position):
    text = canonical_json(schema_doc).replace('"BIG"', "1" + "0" * 400)
    path = write(tmp_path, "oversize.json", text)
    code, out, err = run(capsys, command, path, "--json")
    assert code == 2
    assert out == ""
    assert err == f"error: {position}: number out of binary64 range\n"


def test_generate_complete_then_verify(tmp_path, capsys):
    out_path = str(tmp_path / "complete.json")
    code, _, _ = run(capsys, "generate", "complete", "--v", "4", "--k", "2", "-o", out_path)
    assert code == 0
    code, out, _ = run(capsys, "verify-classical", out_path, "--block", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["parameters"] == {"k": 2, "r": 3, "lambda": 1, "symmetric": False}


def test_generate_complete_rejects_oversized_request_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "generate", "complete", "--v", "40", "--k", "20")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert "exceeds the limit of 1000000 incidence cells" in err


def test_generate_writes_to_stdout_by_default(capsys):
    code, out, _ = run(capsys, "generate", "projective-plane", "--order", "2")
    assert code == 0
    assert loads(out).chi == loads(catalog_text("fano")).chi


def test_generate_projective_plane_rejects_non_prime_order(capsys):
    code, out, err = run(capsys, "generate", "projective-plane", "--order", "4")
    assert code == 2
    assert out == ""
    assert err == "error: order 4 is not prime\n"


def test_generate_projective_plane_rejects_oversized_order_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "generate", "projective-plane", "--order", "37")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == "error: (d^2+d+1)^2 = 1979649 exceeds the limit of 1000000 incidence cells\n"


@pytest.mark.parametrize("dim, count", [(2, 1), (2, 3), (3, 4), (5, 6), (7, 3)])
def test_generate_mub_prints_the_verified_design(capsys, dim, count):
    code, out, _ = run(capsys, "generate", "mub", "--dim", str(dim), "--count", str(count))
    assert code == 0
    assert out == dumps(quantum.mub_verify(quantum.mub_generate(dim, count)).design)


def test_generate_mub_rejects_non_prime_dimension(capsys):
    code, out, err = run(capsys, "generate", "mub", "--dim", "4", "--count", "2")
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_generate_mub_rejects_oversized_request_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "generate", "mub", "--dim", "37", "--count", "27")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == ("error: max(k,1)*d^3 = 1367631 exceeds the limit of 1000000 "
                   "projector entries\n")


def test_convert_round_trip_preserves_block_multiset(fano_file, tmp_path, capsys):
    qpath = str(tmp_path / "fano-q.json")
    code, _, _ = run(capsys, "convert", "c2q", fano_file, "-o", qpath)
    assert code == 0
    cpath = str(tmp_path / "fano-back.json")
    code, _, _ = run(capsys, "convert", "q2c", qpath, "-o", cpath)
    assert code == 0
    original = loads(catalog_text("fano"))
    back = loads((tmp_path / "fano-back.json").read_text(encoding="utf-8"))
    cols = lambda d: sorted(zip(*d.chi.tolist()))
    assert cols(back) == cols(original)


def test_convert_c2q_refuses_multiplicities(tmp_path, capsys):
    path = write(
        tmp_path, "multi.json",
        canonical_json({"schema": "classical-design/1", "v": 1, "b": 1, "incidence": [[2]]}),
    )
    code, out, err = run(capsys, "convert", "c2q", path)
    assert code == 1
    assert "to_block" in err


def test_a_failed_check_exits_1_under_every_command(tmp_path, capsys):
    # Projector 0 is idempotent but not Hermitian.
    family = QuantumDesign((ComplexMatrix([[1, 1], [0, 0]]), ComplexMatrix([[0, 0], [0, 1]])))
    path = write(tmp_path, "skew.json", dumps(family))
    code, out, _ = run(capsys, "verify-quantum", path, "--json")
    assert code == 1
    assert [c["passed"] for c in json.loads(out)["checks"]] == [False, True]
    assert run(capsys, "convert", "q2c", path) == (
        1, "", "error: not a projector family: indices [0] fail validation\n")
    assert run(capsys, "tensor", path, path) == (
        1, "", "error: first operand fails projector validation\n")


def test_convert_c2q_refuses_a_design_without_constant_sums_with_exit_1(tmp_path, capsys):
    path = write(tmp_path, "irregular.json", dumps(ClassicalDesign.from_rows([[1, 1], [1, 0]])))
    assert run(capsys, "convert", "c2q", path) == (
        1, "", "error: not a block design: missing parameters ['k', 'r', 'lambda']\n")


def test_verify_quantum_reports_a_non_real_pairwise_trace_as_a_failed_check(tmp_path, capsys):
    # Under a loose tolerance [[I, X], [0, 0]] and [[0, 0], [Y, I]] pass as
    # projectors, and Tr(p1 p2) = Tr(X Y) is far from real.
    p1 = np.zeros((6, 6), dtype=np.complex128)
    p1[:3, :3], p1[:3, 3:] = np.eye(3), 0.25
    p2 = np.zeros((6, 6), dtype=np.complex128)
    p2[3:, 3:], p2[3:, :3] = np.eye(3), 0.25j
    path = write(tmp_path, "skew.json", dumps(QuantumDesign((ComplexMatrix(p1), ComplexMatrix(p2)))))
    code, out, err = run(capsys, "verify-quantum", path, "--abs-eps", "0.3", "--rel-eps", "0",
                         "--json")
    assert (code, err) == (1, "")
    check = json.loads(out)["checks"][-1]
    assert check == {"name": "pairwise traces are real", "passed": False,
                     "error": "pairwise trace of projectors 0, 1 is not real: 0.5625j"}


def test_convert_q2c_refuses_a_non_commuting_family_with_exit_1(tmp_path, capsys):
    path = write(tmp_path, "mub.json", catalog_text("mub-2-2"))
    assert run(capsys, "convert", "q2c", path) == (
        1, "", "error: projectors do not pairwise commute; no joint eigenbasis\n")


def test_a_linalg_error_is_refused_input_not_a_failed_trace_check(tmp_path, capsys, monkeypatch):
    def diverge(design, tol):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(quantum, "_joint_patterns", diverge)
    path = write(tmp_path, "mub.json", catalog_text("mub-2-2"))
    assert run(capsys, "verify-quantum", path, "--json") == (
        2, "", "error: Eigenvalues did not converge\n")


def test_check_failed_is_the_one_failed_check_type():
    assert issubclass(CheckFailed, ValueError)
    assert issubclass(InfeasibleParametersError, CheckFailed)
    assert issubclass(quantum._NotCommuting, CheckFailed)
    assert designkit.CheckFailed is CheckFailed
    assert not issubclass(FormatError, CheckFailed)


def test_cli_imports_no_private_designkit_name():
    # Dunders such as __version__ are public; a single leading underscore is not.
    tree = ast.parse(open(cli.__file__, encoding="utf-8").read())
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and (node.level > 0 or (node.module or "").startswith("designkit"))
                for alias in node.names]
    assert ("cpmaps", "functor_q_on_hom") in imported
    assert [pair for pair in imported
            if pair[1].startswith("_") and not pair[1].endswith("__")] == []


def test_the_private_twins_of_public_functions_are_gone():
    assert not hasattr(quantum, "_classify_projectors")
    assert not hasattr(quantum, "_mub_design")
    assert not hasattr(cpmaps, "_lift")


def test_tensor_classical_designs(fano_file, tmp_path, capsys):
    other = write(tmp_path, "complete.json", catalog_text("complete-3-2"))
    out_path = str(tmp_path / "product.json")
    code, _, _ = run(capsys, "tensor", fano_file, other, "-o", out_path)
    assert code == 0
    product = loads((tmp_path / "product.json").read_text(encoding="utf-8"))
    assert (product.v, product.b) == (21, 21)


def test_tensor_mixed_kinds_is_a_usage_error(fano_file, tmp_path, capsys):
    other = write(tmp_path, "mub.json", catalog_text("mub-2-2"))
    code, _, err = run(capsys, "tensor", fano_file, other)
    assert code == 2
    assert "both" in err


def test_dual_rejects_quantum_documents(tmp_path, capsys):
    path = write(tmp_path, "mub.json", catalog_text("mub-2-2"))
    code, _, err = run(capsys, "dual", path)
    assert code == 2
    assert "classical-design/1" in err


# sha256 of stdout for classical documents, as canonical_json rendered them from
# one Python list per row; every way of rendering them must reproduce the bytes.
# A name ending in .json is that catalog entry's file; "q2c" converts the c2q
# image (functor_q) of the entry after it back.
PINNED_CLASSICAL_STDOUT = {
    ("generate", "projective-plane", "--order", "13"):
        "966a3284a20fab0728fdef04e3d214e50bb8d02346cc4d67dc8e33914a255c62",
    ("generate", "complete", "--v", "7", "--k", "3"):
        "96b6595433bbe29b60b3286316ed957b20c29bfb245698784dc78a571952fe69",
    ("dual", "fano.json"): "27bf5a29cb887e11d9bfd54d16c45e2d2e4d4b9cfee67b102663b9ee060def5d",
    ("dual", "pg2-5.json"): "7280e4b47c99687203187e079afb424fcf51f51f6fccde7b4ac89ebf08d80a3a",
    ("dual", "complete-3-2.json"): "a9039446201f9ac6186d1d503c4399c4483938a06a828aadc2c2e2efa76ae1ce",
    ("tensor", "pg2-3.json", "pg2-3.json"):
        "f3426c42a1bdc0bf9e941eb67f7cdeb8b19552311daf15ecc77232fcef3b543c",
    ("tensor", "fano.json", "complete-3-2.json"):
        "faf8a4d2140cf4b654caa288cd8cb87cdf3c0c24d3ed41ec63b9181996647cda",
    ("q2c", "pg2-3.json"): "d212883db8208ad362b211a5b8db3ac4fb065dce74a8a142d45b41a71d861515",
}


@pytest.mark.parametrize("argv", list(PINNED_CLASSICAL_STDOUT), ids=" ".join)
def test_classical_documents_keep_their_pinned_bytes(argv, tmp_path, capsys):
    args = [write(tmp_path, a, catalog_text(a[: -len(".json")])) if a.endswith(".json") else a
            for a in argv]
    if args[0] == "q2c":
        code, image, _ = run(capsys, "convert", "c2q", args[1])
        assert code == 0
        args = ["convert", "q2c", write(tmp_path, "image.json", image)]
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_CLASSICAL_STDOUT[argv]


def test_dual_transposes(fano_file, tmp_path, capsys):
    out_path = str(tmp_path / "dual.json")
    code, _, _ = run(capsys, "dual", fano_file, "-o", out_path)
    assert code == 0
    dual = loads((tmp_path / "dual.json").read_text(encoding="utf-8"))
    original = loads(catalog_text("fano"))
    assert dual.chi.tolist() == list(map(list, zip(*original.chi.tolist())))


# `search --json` reports recorded from the hand-built documents that came
# before the report went through the shared report path; the bytes must not
# change.
FANO_SEARCH_REPORT = (
    '{"checks":[{"name":"parameters feasible","passed":true},{"found":2,"name":"at least one '
    'design found","passed":true}],"command":"search","designs":[[[1,1,1,0,0,0,0],'
    '[1,0,0,1,1,0,0],[1,0,0,0,0,1,1],[0,1,0,1,0,1,0],[0,1,0,0,1,0,1],[0,0,1,1,0,0,1],'
    '[0,0,1,0,1,1,0]],[[1,1,1,0,0,0,0],[1,0,0,1,1,0,0],[1,0,0,0,0,1,1],[0,1,0,1,0,1,0],'
    '[0,1,0,0,1,0,1],[0,0,1,0,1,1,0],[0,0,1,1,0,0,1]]],'
    '"input_digest":"sha256:57ade89bd110cd255f989ab2f3f71b417b937c647d652d26dbf9f4ba4ac9248f",'
    '"notes":[],"parameters":{"found":2},"passed":true,"schema":"design-report/1",'
    '"subject":{"b":7,"canonical":true,"k":3,"lambda":1,"limit":2,"r":3,"type":"search","v":7},'
    '"tolerance":{"abs_eps":1e-09,"rel_eps":1e-09},"tool":"designkit","tool_version":"0.1.0"}\n'
)
INFEASIBLE_SEARCH_REPORT = (
    '{"checks":[{"error":"infeasible: lambda*(v-1) = 3 differs from r*(k-1) = 2","name":'
    '"parameters feasible","passed":false}],"command":"search","designs":[],"input_digest":'
    '"sha256:41dfcc9ebd9e2ee863d837d1d51b7eb1995fb28cad3332c5cd54dbced7065fb8","notes":[],'
    '"parameters":{"found":0},"passed":false,"schema":"design-report/1","subject":{"b":4,'
    '"canonical":false,"k":2,"lambda":1,"limit":null,"r":2,"type":"search","v":4},"tolerance":'
    '{"abs_eps":1e-09,"rel_eps":1e-09},"tool":"designkit","tool_version":"0.1.0"}\n'
)


def test_search_json_output_is_deterministic(capsys):
    argv = ["search", "--v", "7", "--b", "7", "--k", "3", "--r", "3",
            "--lambda", "1", "--canonical", "--limit", "2", "--json"]
    code1, first, _ = run(capsys, *argv)
    code2, second, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert first == second == FANO_SEARCH_REPORT
    doc = json.loads(first)
    assert doc["parameters"]["found"] == 2
    assert len(doc["designs"]) == 2
    assert doc["passed"] is True


def test_search_infeasible_parameters_fail(capsys):
    code, out, _ = run(capsys, "search", "--v", "4", "--b", "4", "--k", "2",
                       "--r", "2", "--lambda", "1", "--json")
    assert code == 1
    assert out == INFEASIBLE_SEARCH_REPORT
    doc = json.loads(out)
    assert doc["passed"] is False
    feasible = next(c for c in doc["checks"] if c["name"] == "parameters feasible")
    assert feasible["passed"] is False
    assert "differs" in feasible["error"]


def test_search_refuses_oversized_candidate_set(capsys):
    code, out, err = run(capsys, "search", "--v", "23", "--b", "23", "--k", "11",
                         "--r", "11", "--lambda", "5", "--limit", "1", "--json")
    assert code == 2
    assert out == ""
    assert "exceeds the limit of 1000000 incidence cells" in err


def test_search_refuses_more_blocks_than_it_can_recurse_through(capsys):
    code, out, err = run(capsys, "search", "--v", "2", "--b", "2000", "--k", "1",
                         "--r", "1000", "--lambda", "0", "--limit", "1", "--json")
    assert (code, out, err) == (2, "", "error: b = 2000 exceeds the limit of 512 blocks\n")


def test_requests_in_one_process_do_not_share_state(capsys):
    fano = ["search", "--v", "7", "--b", "7", "--k", "3", "--r", "3",
            "--lambda", "1", "--canonical", "--limit", "2", "--json"]
    infeasible = ["search", "--v", "4", "--b", "4", "--k", "2", "--r", "2",
                  "--lambda", "1", "--json"]
    assert run(capsys, *fano)[:2] == (0, FANO_SEARCH_REPORT)
    assert run(capsys, *fano, "--bogus")[:2] == (2, "")
    assert run(capsys, "--version")[:2] == (0, f"designkit {cli.__version__}\n")
    assert run(capsys, *infeasible)[:2] == (1, INFEASIBLE_SEARCH_REPORT)
    assert run(capsys, *fano)[:2] == (0, FANO_SEARCH_REPORT)


def test_main_reuses_the_parser_built_at_import(monkeypatch, capsys):
    def refuse():
        raise AssertionError("build_parser called per request")

    monkeypatch.setattr(cli, "build_parser", refuse)
    assert run(capsys, "--version")[:2] == (0, f"designkit {cli.__version__}\n")
    assert run(capsys, "catalog", "--list")[0] == 0


def test_search_human_output_prints_rows(capsys):
    code, out, _ = run(capsys, "search", "--v", "3", "--b", "3", "--k", "2",
                       "--r", "2", "--lambda", "1", "--canonical")
    assert code == 0
    assert out.splitlines()[0] == "search: found 1 design(s)"
    assert "1 1 0" in out


def test_hom_check_identity_passes_with_zero_lift_residuals(fano_file, capsys):
    idx = " ".join(str(i) for i in range(7))
    code, out, _ = run(capsys, "hom-check", fano_file, fano_file,
                       "--fv", idx, "--fb", idx, "--json")
    assert code == 0
    doc = json.loads(out)
    lift = doc["parameters"]["lift_residuals"]
    assert lift["hom"] == 0.0
    assert lift["embedding"] == 0.0
    assert lift["outer"] == 0.0
    assert lift["all_within_tolerance"] is True
    assert "indices are 0-based" in doc["notes"]
    assert "+" in doc["input_digest"]


def test_hom_check_reports_witness_cell_on_failure(fano_file, capsys):
    idx = " ".join(str(i) for i in range(7))
    swapped = "1 0 2 3 4 5 6"  # permute points without touching blocks
    code, out, _ = run(capsys, "hom-check", fano_file, fano_file,
                       "--fv", swapped, "--fb", idx, "--json")
    assert code == 1
    doc = json.loads(out)
    chk = doc["checks"][0]
    assert chk["passed"] is False
    assert isinstance(chk["cell"], list) and len(chk["cell"]) == 2
    assert chk["lhs"] != chk["rhs"]
    assert "lift_residuals" not in doc["parameters"]


def test_hom_check_rejects_non_integer_maps(fano_file, capsys):
    code, _, err = run(capsys, "hom-check", fano_file, fano_file,
                       "--fv", "a b", "--fb", "0 1 2 3 4 5 6")
    assert code == 2
    assert "--fv" in err


def test_hom_check_rejects_out_of_range_indices(fano_file, capsys):
    idx = " ".join(str(i) for i in range(7))
    bad = "0 1 2 3 4 5 9"
    code, out, err = run(capsys, "hom-check", fano_file, fano_file,
                       "--fv", bad, "--fb", idx)
    assert code == 2
    assert out == ""
    assert err == "error: point image out of range 0..6\n"


# hom-check --json bytes for an identity, a relabelling and a block merge,
# pinned so that any way of computing the lifted residuals must reproduce them.
HOM_CHECK_FANO_IDENTITY = (
    '{"checks":[{"cell":null,"lhs":null,"name":"homomorphism square","passed":true,"rhs":null}],'
    '"command":"hom-check",'
    '"input_digest":"sha256:27bf5a29cb887e11d9bfd54d16c45e2d2e4d4b9cfee67b102663b9ee060def5d+'
    'sha256:27bf5a29cb887e11d9bfd54d16c45e2d2e4d4b9cfee67b102663b9ee060def5d",'
    '"notes":["indices are 0-based",'
    '"lift_residuals.outer is nonzero for non-injective block maps; informational"],'
    '"parameters":{"dst":{"b":7,"v":7},"f_b":[0,1,2,3,4,5,6],"f_v":[0,1,2,3,4,5,6],'
    '"lift_residuals":{"all_within_tolerance":true,"embedding":0.0,"hom":0.0,"outer":0.0},'
    '"src":{"b":7,"v":7}},"passed":true,"schema":"design-report/1","subject":{"type":"hom"},'
    '"tolerance":{"abs_eps":1e-09,"rel_eps":1e-09},"tool":"designkit","tool_version":"0.1.0"}\n'
)
HOM_CHECK_PG2_3_RELABELLED = (
    '{"checks":[{"cell":null,"lhs":null,"name":"homomorphism square","passed":true,"rhs":null}],'
    '"command":"hom-check",'
    '"input_digest":"sha256:8f23820fa71b5a9c21c4a15cc93550f17a62ff405cb607b68a18831d1d13c04e+'
    'sha256:32fd46963f5148ed513eaff14cfb2d0337fb37575108b51fe8d55aa531120f67",'
    '"notes":["indices are 0-based",'
    '"lift_residuals.outer is nonzero for non-injective block maps; informational"],'
    '"parameters":{"dst":{"b":13,"v":13},"f_b":[1,4,7,10,0,3,6,9,12,2,5,8,11],"f_v":[2,7,12,4,9,'
    '1,6,11,3,8,0,5,10],"lift_residuals":{"all_within_tolerance":true,"embedding":0.0,"hom":0.0,'
    '"outer":0.0},"src":{"b":13,"v":13}},"passed":true,"schema":"design-report/1",'
    '"subject":{"type":"hom"},"tolerance":{"abs_eps":1e-09,"rel_eps":1e-09},"tool":"designkit",'
    '"tool_version":"0.1.0"}\n'
)
HOM_CHECK_BLOCK_MERGE = (
    '{"checks":[{"cell":null,"lhs":null,"name":"homomorphism square","passed":true,"rhs":null}],'
    '"command":"hom-check",'
    '"input_digest":"sha256:d0aa2bed14f6fccb7bb135aa5c857e1ebab2515b86aaa994558a37c79c348f06+'
    'sha256:dca436f6a6f59f232bc74c9a3b0af87156f382a4003fe088271010c9fddf2f5f",'
    '"notes":["indices are 0-based",'
    '"lift_residuals.outer is nonzero for non-injective block maps; informational"],'
    '"parameters":{"dst":{"b":2,"v":2},"f_b":[0,0,1],"f_v":[0,1],'
    '"lift_residuals":{"all_within_tolerance":false,"embedding":0.0,"hom":0.0,"outer":1.0},'
    '"src":{"b":3,"v":2}},"passed":true,"schema":"design-report/1","subject":{"type":"hom"},'
    '"tolerance":{"abs_eps":1e-09,"rel_eps":1e-09},"tool":"designkit","tool_version":"0.1.0"}\n'
)


def relabelled_pg2_3():
    plane = gen_projective_plane(3)
    f_v = [(5 * p + 2) % 13 for p in range(13)]
    f_b = [(3 * j + 1) % 13 for j in range(13)]
    moved = [[0] * 13 for _ in range(13)]
    for i, row in enumerate(plane.chi.tolist()):
        for j, x in enumerate(row):
            moved[f_v[i]][f_b[j]] = x
    return dumps(plane), dumps(ClassicalDesign.from_rows(moved)), f_v, f_b


@pytest.mark.parametrize("case", ["fano", "pg2-3", "merge", "merge-abs-eps-1"])
def test_hom_check_json_bytes_are_pinned(tmp_path, capsys, case):
    extra = []
    if case == "fano":
        fano = catalog_text("fano")
        src, dst, f_v, f_b, want = fano, fano, range(7), range(7), HOM_CHECK_FANO_IDENTITY
    elif case == "pg2-3":
        src, dst, f_v, f_b = relabelled_pg2_3()
        want = HOM_CHECK_PG2_3_RELABELLED
    else:
        # Blocks 0 and 1 both map to block 0: outer is chi'[0, 0] = 1.
        src = dumps(ClassicalDesign.from_rows([[1, 1, 0], [0, 0, 1]]))
        dst = dumps(ClassicalDesign.from_rows([[1, 0], [0, 1]]))
        f_v, f_b, want = [0, 1], [0, 0, 1], HOM_CHECK_BLOCK_MERGE
        if case == "merge-abs-eps-1":
            # The lift verdict is exact, so hom-check takes no tolerance to loosen it.
            extra = ["--abs-eps", "1"]
    code, out, err = run(capsys, "hom-check", write(tmp_path, "src.json", src),
                         write(tmp_path, "dst.json", dst), "--fv", " ".join(map(str, f_v)),
                         "--fb", " ".join(map(str, f_b)), "--json", *extra)
    if extra:
        assert (code, out) == (2, "")
        assert err.endswith("error: unrecognized arguments: --abs-eps 1\n")
    else:
        assert (code, out, err) == (0, want, "")


def test_hom_check_proves_the_square_once(tmp_path, capsys, monkeypatch, fano_file):
    calls = []

    def counting(src, dst, hom):
        calls.append(hom)
        return verify_hom(src, dst, hom)

    # raising=False: cli imports no verify_hom, but a call through it would count here.
    monkeypatch.setattr(cli, "verify_hom", counting, raising=False)
    monkeypatch.setattr(cpmaps, "verify_hom", counting)
    src, dst, f_v, f_b = relabelled_pg2_3()
    code, _, _ = run(capsys, "hom-check", write(tmp_path, "src.json", src),
                     write(tmp_path, "dst.json", dst), "--fv", " ".join(map(str, f_v)),
                     "--fb", " ".join(map(str, f_b)), "--json")
    assert code == 0
    assert len(calls) == 1
    # A failing square, the swapped map of the witness test, is proved once too,
    # and reports the cell that verify_hom finds.
    code, out, _ = run(capsys, "hom-check", fano_file, fano_file,
                       "--fv", "1 0 2 3 4 5 6", "--fb", "0 1 2 3 4 5 6", "--json")
    assert code == 1
    assert len(calls) == 2
    chk = json.loads(out)["checks"][0]
    assert (chk["passed"], chk["cell"], chk["lhs"], chk["rhs"]) == (False, [0, 0], 1, 0)


def test_hom_check_refuses_an_outer_residual_beyond_binary64(tmp_path, capsys):
    huge = 10**400
    src = write(tmp_path, "src.json", dumps(ClassicalDesign.from_rows([[huge, huge]])))
    dst = write(tmp_path, "dst.json", dumps(ClassicalDesign.from_rows([[huge]])))
    code, out, err = run(capsys, "hom-check", src, dst, "--fv", "0", "--fb", "0 0")
    assert (code, out) == (2, "")
    assert err == f"error: outer residual {huge} (an entry of a merged destination block) " \
                  "exceeds binary64\n"


def test_catalog_list(tmp_path, capsys):
    names = "complete-3-2\ncp-k2r2\nfano\nmub-2-2\nmub-3-4\npg2-3\npg2-5\n"
    assert run(capsys, "catalog", "--list") == (0, names, "")
    # -o writes the same bytes to the file and nothing to stdout.
    out_path = tmp_path / "names.txt"
    assert run(capsys, "catalog", "--list", "-o", str(out_path)) == (0, "", "")
    assert out_path.read_bytes() == names.encode()


def test_catalog_refuses_a_name_together_with_list(capsys):
    assert run(capsys, "catalog", "fano", "--list") == (
        2, "", "error: catalog takes a NAME or --list, not both (got 'fano')\n")


def test_catalog_prints_entry_bytes(tmp_path, capsys):
    out_path = str(tmp_path / "fano.json")
    code, _, _ = run(capsys, "catalog", "fano", "-o", out_path)
    assert code == 0
    assert (tmp_path / "fano.json").read_text(encoding="utf-8") == catalog_text("fano")


def test_catalog_unknown_name_is_usage_error(capsys):
    # The line lists what is available.
    assert run(capsys, "catalog", "nope") == (
        2, "", "error: unknown catalog entry 'nope' (available: complete-3-2, cp-k2r2, "
               "fano, mub-2-2, mub-3-4, pg2-3, pg2-5)\n")


def test_missing_input_file_is_usage_error(capsys):
    code, _, err = run(capsys, "verify-classical", "/nonexistent/file.json")
    assert code == 2
    assert "error:" in err


def test_stdin_dash_reads_document(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(catalog_text("fano")))
    code, out, _ = run(capsys, "verify-classical", "-", "--block", "--json")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_version_flag_exits_zero(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert "designkit" in out


def test_no_arguments_is_usage_error(capsys):
    code, _, err = run(capsys)
    assert code == 2
    assert "usage" in err.lower()


def test_malformed_tolerance_is_usage_error(tmp_path, capsys):
    # Text mode, where an unchecked inf or nan would print a passing report.
    mub = write(tmp_path, "mub.json", catalog_text("mub-2-2"))
    commands = [
        ["verify-cpmap", write(tmp_path, "cp.json", catalog_text("cp-k2r2"))],
        ["verify-quantum", mub],
        ["convert", "q2c", mub],
    ]
    for argv in commands:
        for value in ["garbage", "-1", "nan", "inf"]:
            code, out, err = run(capsys, *argv, f"--abs-eps={value}")
            assert (argv[0], value, code, out) == (argv[0], value, 2, "")
            assert "error" in err
            assert "unrecognized arguments" not in err


def _subparsers(parser):
    """Each subcommand's parser by its full name, nested ones included."""
    found = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                found[name] = sub
                found.update({f"{name} {k}": v for k, v in _subparsers(sub).items()})
    return found


def test_only_the_commands_a_tolerance_can_change_take_one():
    takes = {
        flag: {name for name, sub in _subparsers(cli.build_parser()).items()
               if any(flag in a.option_strings for a in sub._actions)}
        for flag in ("--abs-eps", "--rel-eps")
    }
    inexact = {"verify-quantum", "verify-cpmap", "convert", "tensor"}
    assert takes == {"--abs-eps": inexact, "--rel-eps": inexact}


@pytest.mark.parametrize("flag", [["--abs-eps", "1"], ["--rel-eps", "0"]])
@pytest.mark.parametrize("command", ["verify-classical", "search", "hom-check"])
def test_exact_commands_refuse_a_tolerance(fano_file, capsys, command, flag):
    argv = {
        "verify-classical": [fano_file],
        "search": ["--v", "7", "--b", "7", "--k", "3", "--r", "3", "--lambda", "1"],
        "hom-check": [fano_file, fano_file, "--fv", "0 1 2 3 4 5 6", "--fb", "0 1 2 3 4 5 6"],
    }[command]
    for mode in ([], ["--json"]):
        code, out, err = run(capsys, command, *argv, *mode, *flag)
        assert (code, out) == (2, "")
        assert err.endswith(f"error: unrecognized arguments: {' '.join(flag)}\n")


@pytest.mark.parametrize("flag", [["--abs-eps", "1e-9"], ["--rel-eps", "0"]])
@pytest.mark.parametrize("operation", ["convert c2q", "classical tensor"])
def test_exact_operations_refuse_a_tolerance(fano_file, capsys, operation, flag):
    # convert and tensor take a tolerance for q2c and quantum operands only.
    argv = {"convert c2q": ["convert", "c2q", fano_file],
            "classical tensor": ["tensor", fano_file, fano_file]}[operation]
    code, out, err = run(capsys, *argv, *flag)
    assert (code, out) == (2, "")
    assert err == f"error: {operation} is exact and takes no --abs-eps or --rel-eps\n"


def test_unset_tolerance_flags_keep_the_default_tolerance(tmp_path, capsys):
    classical = write(tmp_path, "c.json", catalog_text("complete-3-2"))
    code, quantum_text, _ = run(capsys, "convert", "c2q", classical)
    assert code == 0
    quantum = write(tmp_path, "q.json", quantum_text)
    abs_eps, rel_eps = DEFAULT_TOL.abs_eps, DEFAULT_TOL.rel_eps
    for flags, want in (([], (abs_eps, rel_eps)), (["--abs-eps", "0.5"], (0.5, rel_eps)),
                        (["--rel-eps", "0"], (abs_eps, 0.0))):
        code, out, _ = run(capsys, "verify-quantum", quantum, "--json", *flags)
        assert json.loads(out)["tolerance"] == {"abs_eps": want[0], "rel_eps": want[1]}
    default = ["--abs-eps", repr(abs_eps), "--rel-eps", repr(rel_eps)]
    for argv in (["convert", "q2c", quantum], ["tensor", quantum, quantum]):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert run(capsys, *argv, *default) == (0, out, "")
    assert run(capsys, "tensor", classical, classical)[0] == 0


def test_malformed_json_file_is_usage_error(tmp_path, capsys):
    path = write(tmp_path, "broken.json", "{nope")
    code, _, err = run(capsys, "verify-classical", path)
    assert code == 2
    assert "invalid JSON" in err


def test_digest_hashes_the_text_a_slice_at_a_time():
    # The digest is the sha256 of the whole text's UTF-8 bytes, whatever the
    # slices; multi-byte characters sit where a byte-wise cut would split them.
    n = cli._DIGEST_SLICE
    texts = ["", "a", "x" * n, "x" * (n + 1), "x" * (n - 1) + "\u00e9" + "ab",
             "y" * (n - 1) + "\U0001f600" * 3, "\u4e2d" * (2 * n + 1),
             "z" * (n - 2) + "\u20ac\u00e9\U0001f600" * n, '{"a":"\u00e9"}\n']
    for text in texts:
        assert cli._digest(text) == "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()
    # No whole-text copy: a 6 MB ASCII text is hashed within a small fraction of itself.
    big = "[0.25,-1]," * 600_000
    tracemalloc.start()
    try:
        digest = cli._digest(big)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert digest == "sha256:" + hashlib.sha256(big.encode("ascii")).hexdigest()
    assert peak < len(big) // 16, peak
