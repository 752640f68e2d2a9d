import io
import json
import time
import warnings

import pytest

from designkit.catalog import canonical_json, catalog_text, dumps, loads
from designkit.classical import ClassicalDesign
from designkit.cli import main
from designkit.cpmaps import Algebra, CpMap
from designkit.linalg import ComplexMatrix, NatMatrix
from designkit.quantum import QuantumDesign


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


def test_generate_mub_rejects_non_prime_dimension(capsys):
    code, out, err = run(capsys, "generate", "mub", "--dim", "4", "--count", "2")
    assert code == 2
    assert out == ""
    assert "error:" in err


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


def test_dual_transposes(fano_file, tmp_path, capsys):
    out_path = str(tmp_path / "dual.json")
    code, _, _ = run(capsys, "dual", fano_file, "-o", out_path)
    assert code == 0
    dual = loads((tmp_path / "dual.json").read_text(encoding="utf-8"))
    original = loads(catalog_text("fano"))
    assert dual.chi.tolist() == list(map(list, zip(*original.chi.tolist())))


# `search --json` reports recorded from the hand-built documents that came
# before the report went through _report; the bytes must not change.
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
    code, _, err = run(capsys, "hom-check", fano_file, fano_file,
                       "--fv", bad, "--fb", idx)
    assert code == 2
    assert "error:" in err


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog", "--list")
    assert code == 0
    assert out.split() == ["complete-3-2", "cp-k2r2", "fano", "mub-2-2",
                           "mub-3-4", "pg2-3", "pg2-5"]


def test_catalog_prints_entry_bytes(tmp_path, capsys):
    out_path = str(tmp_path / "fano.json")
    code, _, _ = run(capsys, "catalog", "fano", "-o", out_path)
    assert code == 0
    assert (tmp_path / "fano.json").read_text(encoding="utf-8") == catalog_text("fano")


def test_catalog_unknown_name_is_usage_error(capsys):
    code, _, err = run(capsys, "catalog", "no-such-entry")
    assert code == 2
    assert "unknown catalog entry" in err
    assert "fano" in err  # lists what is available


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


def test_malformed_tolerance_is_usage_error(fano_file, capsys):
    code, _, _ = run(capsys, "verify-classical", fano_file, "--abs-eps", "garbage")
    assert code == 2


def test_malformed_json_file_is_usage_error(tmp_path, capsys):
    path = write(tmp_path, "broken.json", "{nope")
    code, _, err = run(capsys, "verify-classical", path)
    assert code == 2
    assert "invalid JSON" in err
