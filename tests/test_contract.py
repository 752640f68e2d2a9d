"""The exit-code contract of the CLI, request by request, on edge-valued documents.

Every request ends in exit 0 (checks pass), 1 (checks fail) or 2 (refused),
never in an escaped exception, and the same argv gives the same bytes every
time.  A request that writes nothing to stdout and exits 1 or 2 writes one
``error:`` line to stderr; exit 2 always leaves stdout empty.
"""

import json
import warnings

import numpy as np
import pytest

from designkit.catalog import dumps
from designkit.classical import ClassicalDesign
from designkit.cli import main
from designkit.cpmaps import Algebra, CpMap
from designkit.linalg import ComplexMatrix, NatMatrix
from designkit.quantum import QuantumDesign

ENTRIES = {
    "0": 0,
    "1": 1,
    "2^53-1": 2**53 - 1,
    "2^53+1": 2**53 + 1,
    "2^63-1": 2**63 - 1,
    "2^63+1": 2**63 + 1,
    "10^400": 10**400,
}

FLOATS = {
    "0": 0.0,
    "1": 1.0,
    "-0.0": -0.0,
    "5e-324": 5e-324,
    "1e154": 1e154,
    "1e200": 1e200,
    "1e308": 1e308,
    "-1e308": -1e308,
}

# Each request reads the documents named in its argv: "square" is [[e, 1], [1, e]],
# and "row" = [[e, e]] maps onto "one" = [[e]] by merging its two blocks.
REQUESTS = {
    "verify-classical": ["verify-classical", "square", "--block", "--json"],
    "verify-classical-text": ["verify-classical", "square"],
    "dual": ["dual", "square"],
    "tensor": ["tensor", "square", "square"],
    "convert-c2q": ["convert", "c2q", "square"],
    "hom-check-identity": ["hom-check", "square", "square", "--fv", "0 1", "--fb", "0 1",
                           "--json"],
    "hom-check-merge": ["hom-check", "row", "one", "--fv", "0", "--fb", "0 0", "--json"],
}

# Quantum documents: "q1" is the family [[e]]; "q2" is diag(e, 0) and diag(0, 1);
# "q2-imag" is diag(1, 0) and [[0, i e], [-i e, 1]].  Maps: "c1" and "m1" are
# [[e]] on Commutative(1) and Matrix(1); "c2" and "m2" are the identity on
# Commutative(2) and Matrix(2) with e at its first corner and at the end of its
# first row; "c2-diag" and "m2-diag" have e at both diagonal corners instead,
# so that every unit sum is e and the total of them overflows first.
QUANTUM = ["q1", "q2", "q2-imag"]
MAPS = ["c1", "c2", "c2-diag", "m1", "m2", "m2-diag"]
FLOAT_REQUESTS = {
    **{f"verify-quantum-{q}": ["verify-quantum", q, "--json"] for q in QUANTUM},
    **{f"verify-quantum-text-{q}": ["verify-quantum", q] for q in QUANTUM},
    **{f"convert-q2c-{q}": ["convert", "q2c", q] for q in QUANTUM},
    **{f"tensor-{q}": ["tensor", q, q] for q in QUANTUM},
    **{f"verify-cpmap-{f}": ["verify-cpmap", f, "--json"] for f in MAPS},
    **{f"verify-cpmap-text-{f}": ["verify-cpmap", f] for f in MAPS},
}

# Requests that read no document.  Each generate kind asks for just past its bound.
PLAIN_REQUESTS = {
    "generate-projective-plane-32": ["generate", "projective-plane", "--order", "32"],
    "generate-complete-19-8": ["generate", "complete", "--v", "19", "--k", "8"],
    "generate-mub-37-20": ["generate", "mub", "--dim", "37", "--count", "20"],
    "search-feasible": ["search", "--v", "7", "--b", "7", "--k", "3", "--r", "3",
                        "--lambda", "1", "--limit", "2", "--json"],
    "search-feasible-text": ["search", "--v", "7", "--b", "7", "--k", "3", "--r", "3",
                             "--lambda", "1", "--limit", "2"],
    "search-infeasible": ["search", "--v", "4", "--b", "4", "--k", "2", "--r", "2",
                          "--lambda", "1", "--json"],
    "search-infeasible-text": ["search", "--v", "4", "--b", "4", "--k", "2", "--r", "2",
                               "--lambda", "1"],
    "search-oversized-cells": ["search", "--v", "23", "--b", "23", "--k", "11", "--r", "11",
                               "--lambda", "5", "--limit", "1"],
    "search-oversized-blocks": ["search", "--v", "2", "--b", "514", "--k", "1", "--r", "257",
                                "--lambda", "0", "--limit", "1"],
    "catalog-known": ["catalog", "fano"],
    "catalog-unknown": ["catalog", "nope"],
}


# Requests past a size bound: each exits 2 naming the bound before it allocates,
# or prints its report.  "tall" is 100000 x 1 ones, whose v x v Gram matrix would
# take 74.5 GiB; "wide" is 2 x 100000 ones, whose functor_q image would hold
# 2 * 10^10 complex entries (298 GiB); "big" is 1000 x 1000, whose tensor square
# has 10^12 cells; "q32" is the identity on C^32, whose tensor square has
# (32*32)^2 > 10^6 entries.
SIZE_DOCUMENTS = {
    "tall": lambda: ClassicalDesign(NatMatrix._raw(np.ones((100000, 1), dtype=np.int64))),
    "wide": lambda: ClassicalDesign(NatMatrix._raw(np.ones((2, 100000), dtype=np.int64))),
    "big": lambda: ClassicalDesign(NatMatrix._raw(np.eye(1000, dtype=np.int64))),
    "q32": lambda: QuantumDesign((ComplexMatrix(np.eye(32)),)),
}
SIZE_REQUESTS = {  # name -> (argv, exit code, stderr)
    "verify-classical-tall": (["verify-classical", "tall", "--json"], 0, ""),
    "verify-classical-tall-text": (["verify-classical", "tall"], 0, ""),
    "search-zero-blocks-huge-b": (["search", "--v", "1", "--b", "1000000000000", "--k", "0",
                                   "--r", "0", "--lambda", "0", "--json"], 2,
                                  "error: v*b = 1000000000000 exceeds the limit of 1000000 "
                                  "incidence cells\n"),
    "search-zero-blocks-wide": (["search", "--v", "2", "--b", "3000000", "--k", "0", "--r", "0",
                                 "--lambda", "0", "--json"], 2,
                                "error: v*b = 6000000 exceeds the limit of 1000000 "
                                "incidence cells\n"),
    "tensor-oversized": (["tensor", "big", "big"], 2,
                         "error: v1*v2*b1*b2 = 1000000000000 exceeds the limit of 1000000 "
                         "incidence cells\n"),
    "tensor-q-oversized": (["tensor", "q32", "q32"], 2,
                           "error: v1*v2*(b1*b2)^2 = 1048576 exceeds the limit of 1000000 "
                           "projector entries\n"),
    "convert-c2q-wide": (["convert", "c2q", "wide"], 2,
                         "error: v*b^2 = 20000000000 exceeds the limit of 10000000 "
                         "projector entries\n"),
}

# Option values refused as bad input, although the parameters have 30 designs.
REFUSED_OPTIONS = {  # name -> (argv, stderr)
    "search-limit-0": (["search", "--v", "7", "--b", "7", "--k", "3", "--r", "3", "--lambda",
                        "1", "--canonical", "--limit", "0"],
                       "error: --limit must be at least 1, got 0\n"),
    "search-limit-negative": (["search", "--v", "7", "--b", "7", "--k", "3", "--r", "3",
                               "--lambda", "1", "--canonical", "--limit", "-3", "--json"],
                              "error: --limit must be at least 1, got -3\n"),
}


def documents(e):
    return {
        "square": ClassicalDesign.from_rows([[e, 1], [1, e]]),
        "row": ClassicalDesign.from_rows([[e, e]]),
        "one": ClassicalDesign.from_rows([[e]]),
    }


def float_documents(e):
    def family(*mats):
        return QuantumDesign(tuple(ComplexMatrix(m) for m in mats))

    def superop(kind, n, d, *cells):
        m = [[complex(i == j) for j in range(d)] for i in range(d)]
        for i, j in cells:
            m[i][j] = e
        return CpMap(Algebra(kind, n), Algebra(kind, n), ComplexMatrix(m))

    return {
        "q1": family([[e]]),
        "q2": family([[e, 0], [0, 0]], [[0, 0], [0, 1]]),
        "q2-imag": family([[1, 0], [0, 0]], [[0, 1j * e], [-1j * e, 1]]),
        "c1": superop("commutative", 1, 1, (0, 0)),
        "c2": superop("commutative", 2, 2, (0, 0), (0, 1)),
        "c2-diag": superop("commutative", 2, 2, (0, 0), (1, 1)),
        "m1": superop("matrix", 1, 1, (0, 0)),
        "m2": superop("matrix", 2, 4, (0, 0), (0, 3)),
        "m2-diag": superop("matrix", 2, 4, (0, 0), (3, 3)),
    }


def assert_contract(tmp_path, capsys, docs, argv):
    paths = {}
    for name, obj in docs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(dumps(obj), encoding="utf-8")
    argv = [str(paths.get(tok, tok)) for tok in argv]
    runs = []
    for _ in range(2):
        code = main(argv)  # an exception escaping main fails the test here
        captured = capsys.readouterr()
        runs.append((code, captured.out, captured.err))
    code, out, err = runs[0]
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
    if code != 0 and out == "":
        assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1
    if code == 0:
        assert err == ""
    assert runs[1] == runs[0]
    return runs[0]


@pytest.mark.parametrize("entry", list(ENTRIES))
@pytest.mark.parametrize("request_name", list(REQUESTS))
def test_classical_requests_keep_the_exit_code_contract(tmp_path, capsys, request_name, entry):
    assert_contract(tmp_path, capsys, documents(ENTRIES[entry]), REQUESTS[request_name])


@pytest.mark.parametrize("entry", list(FLOATS))
@pytest.mark.parametrize("request_name", list(FLOAT_REQUESTS))
def test_float_requests_keep_the_exit_code_contract(tmp_path, capsys, request_name, entry):
    assert_contract(tmp_path, capsys, float_documents(FLOATS[entry]),
                    FLOAT_REQUESTS[request_name])


@pytest.mark.parametrize("request_name", list(PLAIN_REQUESTS))
def test_requests_without_documents_keep_the_exit_code_contract(tmp_path, capsys, request_name):
    assert_contract(tmp_path, capsys, {}, PLAIN_REQUESTS[request_name])


@pytest.mark.parametrize("request_name", list(SIZE_REQUESTS))
def test_requests_past_a_size_bound_keep_the_exit_code_contract(tmp_path, capsys, request_name):
    argv, want_code, want_err = SIZE_REQUESTS[request_name]
    docs = {name: make() for name, make in SIZE_DOCUMENTS.items() if name in argv}
    code, out, err = assert_contract(tmp_path, capsys, docs, argv)
    assert (code, err) == (want_code, want_err)
    if code == 0:  # all rows equal and 0/1: balanced with lambda = r = 1
        assert '"lambda":1,' in out or "  lambda = 1\n" in out


@pytest.mark.parametrize("request_name", list(REFUSED_OPTIONS))
def test_a_limit_below_one_is_refused_as_bad_input(tmp_path, capsys, request_name):
    argv, want_err = REFUSED_OPTIONS[request_name]
    assert assert_contract(tmp_path, capsys, {}, argv) == (2, "", want_err)


def test_hom_check_of_the_tall_identity_scatters_by_index(tmp_path, capsys):
    # A dense dst.v x src.v point selector would take 74.5 GiB here.
    argv = ["hom-check", "tall", "tall", "--fv", " ".join(map(str, range(100000))),
            "--fb", "0", "--json"]
    code, out, err = assert_contract(tmp_path, capsys, {"tall": SIZE_DOCUMENTS["tall"]()}, argv)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["checks"] == [{"cell": None, "lhs": None, "name": "homomorphism square",
                              "passed": True, "rhs": None}]
    assert doc["parameters"]["lift_residuals"] == {"all_within_tolerance": True,
                                                   "embedding": 0.0, "hom": 0.0, "outer": 0.0}


@pytest.mark.parametrize("mode", [[], ["--json"]])
@pytest.mark.parametrize("name", ["c1", "c2-diag"])
def test_lambda_search_refuses_a_bracket_beyond_binary64(tmp_path, capsys, name, mode):
    # [[1e154]] on Commutative(1) and diag(1e154, 1e154) on Commutative(2) are
    # regular with r = 1e154, and max|m m^dagger| = 1e308 puts the balance
    # bound max|m m^dagger| + |r| + 1 past half the binary64 range: exit 2
    # naming the bound, with no NaN and no numpy warning.
    path = tmp_path / f"{name}.json"
    path.write_text(dumps(float_documents(1e154)[name]), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["verify-cpmap", str(path), *mode])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == ("error: lambda balance bound max|m m^dagger| + |r| + 1 = 1e+308 "
                            "exceeds 8.988465674311579e+307, half the binary64 range\n")
