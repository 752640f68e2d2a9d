"""Ground truth for every benchmark request, independent of designkit.

Each ``expect_*`` function returns a check ``(stdout, stderr) -> None`` that
raises :class:`Mismatch` when the output differs from what the input's
construction implies.  Integer facts are recomputed with plain int64 numpy;
float facts are compared with a slack far above rounding noise and far below
any difference that would change a verdict.
"""

from __future__ import annotations

import json
import math

import numpy as np

from inputs import canonical, digest

FLOAT_SLACK = 1e-8


class Mismatch(Exception):
    """Output of a request differs from its ground truth."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise Mismatch(msg)


def _close(got, want, what: str) -> None:
    _require(isinstance(got, (int, float)) and abs(got - want) <= FLOAT_SLACK * max(1.0, abs(want)),
             f"{what}: got {got!r}, expected {want!r}")


def classical_params(chi: np.ndarray) -> dict:
    """(k, r, lambda, symmetric) of an incidence matrix by an int64 Gram product."""
    v, b = chi.shape
    col = chi.sum(axis=0)
    row = chi.sum(axis=1)
    k = int(col[0]) if np.all(col == col[0]) else None
    r = int(row[0]) if np.all(row == row[0]) else None
    lam = None
    if k is not None and r is not None and v >= 2:
        g = chi.astype(np.int64) @ chi.T.astype(np.int64)
        off = g[~np.eye(v, dtype=bool)]
        if np.all(np.diag(g) == r) and np.all(off == off[0]):
            lam = int(off[0])
    return {"k": k, "r": r, "lambda": lam, "symmetric": v == b}


def _report(out: str, command: str, input_digest: str, passed: bool) -> dict:
    try:
        doc = json.loads(out)
    except json.JSONDecodeError as exc:
        raise Mismatch(f"report is not JSON: {exc}") from None
    _require(out == canonical(doc), "report is not canonical JSON")
    _require(doc.get("schema") == "design-report/1", "wrong report schema")
    _require(doc.get("command") == command, f"wrong command {doc.get('command')!r}")
    _require(doc.get("input_digest") == input_digest, "input digest differs from sha256 of the input")
    _require(doc.get("passed") is passed, f"passed is {doc.get('passed')!r}, expected {passed}")
    _require(doc["passed"] == all(c["passed"] for c in doc["checks"]),
             "passed disagrees with the checks")
    return doc


def _checks_all(doc: dict, passed: bool, count: int) -> None:
    _require(len(doc["checks"]) == count, f"{len(doc['checks'])} checks, expected {count}")
    _require(all(c["passed"] is passed for c in doc["checks"]), "a check has the wrong verdict")


def expect_document(want: str):
    """Document output whose digest must be ``want``, that of the benchmark's own rendering."""
    def check(out: str, err: str) -> None:
        _require(digest([out]) == want, "output differs from the expected document")
    return check


def expect_error():
    """Exit 1 with an error line on stderr and nothing on stdout."""
    def check(out: str, err: str) -> None:
        _require(out == "", "unexpected output on stdout")
        _require(err.startswith("error: "), f"no error message on stderr: {err[:80]!r}")
    return check


def classical_verdict(chi: np.ndarray, block: bool) -> tuple[dict, bool, int]:
    """Expected parameters, verdict and check count of verify-classical."""
    p = classical_params(chi)
    v, b = chi.shape
    checks = []
    if block:
        checks.append(None not in (p["k"], p["r"], p["lambda"]))
    if p["k"] is not None and p["r"] is not None:
        checks.append(b * p["k"] == p["r"] * v)
        if p["lambda"] is not None:
            checks.append(p["lambda"] * (v - 1) == p["r"] * (p["k"] - 1))
    return p, all(checks), len(checks)


def expect_verify_classical(chi: np.ndarray, input_digest: str, block: bool):
    params, passed, count = classical_verdict(chi, block)
    v, b = chi.shape
    zero_one = bool(np.all((chi == 0) | (chi == 1)))

    def check(out: str, err: str) -> None:
        doc = _report(out, "verify-classical", input_digest, passed)
        _require(doc["subject"] == {"type": "classical", "v": v, "b": b, "zero_one": zero_one},
                 f"wrong subject {doc['subject']!r}")
        _require(doc["parameters"] == params, f"parameters {doc['parameters']!r}, expected {params!r}")
        _require(len(doc["checks"]) == count, f"{len(doc['checks'])} checks, expected {count}")
        for c in doc["checks"]:
            if "lhs" in c:
                _require(c["passed"] == (c["lhs"] == c["rhs"]), f"identity verdict wrong in {c!r}")
    return check, 0 if passed else 1


def expect_hom_check(src: np.ndarray, dst: np.ndarray, f_v, f_b, src_digest: str, dst_digest: str):
    moved = np.zeros((dst.shape[0], src.shape[1]), dtype=np.int64)
    np.add.at(moved, np.asarray(f_v), src)
    target = dst[:, np.asarray(f_b)]
    passed = bool(np.array_equal(moved, target))

    def check(out: str, err: str) -> None:
        doc = _report(out, "hom-check", src_digest + "+" + dst_digest, passed)
        par = doc["parameters"]
        _require(par["f_v"] == list(map(int, f_v)) and par["f_b"] == list(map(int, f_b)),
                 "maps echoed wrongly")
        _require(par["src"] == {"v": src.shape[0], "b": src.shape[1]}
                 and par["dst"] == {"v": dst.shape[0], "b": dst.shape[1]}, "sizes echoed wrongly")
        _checks_all(doc, passed, 1)
        chk = doc["checks"][0]
        if passed:
            lift = par["lift_residuals"]
            _require(lift["all_within_tolerance"] is True, "lifted squares reported off tolerance")
            for key in ("hom", "embedding", "outer"):
                _require(0.0 <= lift[key] <= FLOAT_SLACK, f"lift residual {key} = {lift[key]!r}")
        else:
            _require("lift_residuals" not in par, "lift computed for a failing hom")
            i, j = chk["cell"]
            _require(int(moved[i, j]) == chk["lhs"] and int(target[i, j]) == chk["rhs"]
                     and chk["lhs"] != chk["rhs"], f"witness {chk!r} is not a failing cell")
    return check, 0 if passed else 1


def expect_search(v: int, b: int, k: int, r: int, lam: int, limit: int | None, found: int | None):
    """``search --canonical --json`` report with ``found`` designs (None: infeasible).

    Every returned design is re-checked with an int64 Gram product, must be
    distinct, and must list its columns as nondecreasing point-index tuples
    (the --canonical ordering).
    """
    request = {"v": v, "b": b, "k": k, "r": r, "lambda": lam}

    def check(out: str, err: str) -> None:
        want = 0 if found is None else found
        doc = _report(out, "search", digest([canonical({**request, "limit": limit, "canonical": True})]),
                      want > 0)
        _require(doc["subject"] == {"type": "search", **request, "limit": limit, "canonical": True},
                 "request echoed wrongly")
        designs = doc["designs"]
        _require(doc["parameters"]["found"] == len(designs) == want,
                 f"found {doc['parameters']['found']} designs, expected {want}")
        _require(doc["checks"][0]["passed"] is (found is not None), "feasibility verdict wrong")
        seen = set()
        for inc in designs:
            chi = np.array(inc, dtype=np.int64)
            _require(chi.shape == (v, b) and bool(np.all((chi == 0) | (chi == 1))),
                     "design has the wrong shape or entries")
            _require(classical_params(chi) == {"k": k, "r": r, "lambda": lam, "symmetric": v == b},
                     "returned design does not have the requested parameters")
            cols = [tuple(np.flatnonzero(chi[:, j])) for j in range(b)]
            _require(cols == sorted(cols), "columns are not in canonical order")
            key = chi.tobytes()
            _require(key not in seen, "a design is returned twice")
            seen.add(key)
    return check, 0 if found else 1


def expect_verify_quantum(shape: tuple[int, ...], input_digest: str, r: int, k: float,
                          trace_values: list[float], commutative: bool):
    """verify-quantum on a valid family of v projectors on C^b, shape (v, b, b)."""
    v, b = shape[0], shape[1]
    identities = 2 if len(trace_values) == 1 else 1

    def check(out: str, err: str) -> None:
        doc = _report(out, "verify-quantum", input_digest, True)
        _require(doc["subject"] == {"type": "quantum", "v": v, "b": b}, "wrong subject")
        par = doc["parameters"]
        _require(par["v"] == v and par["b"] == b and par["r"] == r, f"r = {par['r']!r}, expected {r}")
        _close(par["k"], k, "k")
        _require(par["degree"] == len(trace_values), f"degree {par['degree']}, expected {len(trace_values)}")
        for got, want in zip(par["trace_values"], trace_values):
            _close(got, want, "trace value")
        _require(par["commutative"] is commutative, f"commutative is {par['commutative']!r}")
        _checks_all(doc, True, v + identities)
        for c in doc["checks"][:v]:
            _require(c["hermiticity_residual"] <= FLOAT_SLACK and c["idempotency_residual"] <= FLOAT_SLACK,
                     f"projector residuals too large in {c!r}")
    return check, 0


def expect_incidence_up_to_columns(chi: np.ndarray):
    """q2c output: the source incidence matrix, blocks in any order."""
    want = sorted(map(tuple, chi.T.tolist()))

    def check(out: str, err: str) -> None:
        doc = json.loads(out)
        _require(out == canonical(doc) and doc["schema"] == "classical-design/1", "not a classical document")
        got = np.array(doc["incidence"], dtype=np.int64)
        _require(got.shape == chi.shape and doc["v"] == chi.shape[0] and doc["b"] == chi.shape[1],
                 f"shape {got.shape}, expected {chi.shape}")
        _require(sorted(map(tuple, got.T.tolist())) == want, "columns differ from the source incidence")
    return check


def expect_mub_document(d: int):
    """generate mub --count d+1: rank-1 projectors, traces {0, 1/d}, sum (d+1) I."""
    def check(out: str, err: str) -> None:
        doc = json.loads(out)
        _require(out == canonical(doc) and doc["schema"] == "quantum-design/1", "not a quantum document")
        raw = np.array(doc["projectors"], dtype=np.float64)
        _require(raw.shape == (d * (d + 1), d, d, 2) and doc["dim"] == d, f"shape {raw.shape}")
        p = raw[..., 0] + 1j * raw[..., 1]
        _require(np.abs(p - p.conj().transpose(0, 2, 1)).max() <= FLOAT_SLACK, "not Hermitian")
        _require(np.abs(p @ p - p).max() <= FLOAT_SLACK, "not idempotent")
        tr = np.einsum("aij,bji->ab", p, p).real
        basis = np.arange(d * (d + 1)) // d
        want = np.where(basis[:, None] == basis[None, :], 0.0, 1.0 / d)
        np.fill_diagonal(want, 1.0)
        _require(np.abs(tr - want).max() <= FLOAT_SLACK, "pairwise traces are not {0, 1/d}")
        _require(np.abs(p.sum(axis=0) - (d + 1) * np.eye(d)).max() <= FLOAT_SLACK, "sum is not (d+1) I")
    return check


def expect_verify_cpmap(input_digest: str, in_alg: tuple[str, int], out_alg: tuple[str, int], *,
                        min_eig: float, tp: bool, k: float, r: float,
                        lam: float | None = None):
    """verify-cpmap with the Choi minimum eigenvalue computed from the construction."""
    cp = min_eig >= -FLOAT_SLACK
    square = in_alg[0] == out_alg[0] == "matrix" and in_alg[1] == out_alg[1]

    def check(out: str, err: str) -> None:
        doc = _report(out, "verify-cpmap", input_digest, cp)
        par = doc["parameters"]
        _require(par["in"] == {"kind": in_alg[0], "n": in_alg[1]}
                 and par["out"] == {"kind": out_alg[0], "n": out_alg[1]}, "algebras echoed wrongly")
        cp_check = doc["checks"][0]
        _require(cp_check["passed"] is cp, f"CP verdict {cp_check['passed']!r}, expected {cp}")
        _close(cp_check["min_choi_eigenvalue"], min_eig, "min Choi eigenvalue")
        _require(doc["checks"][1]["passed"] and doc["checks"][2]["passed"], "k or r not found")
        _require(par["trace_preserving"] is tp, f"trace_preserving is {par['trace_preserving']!r}")
        reading = par["superoperator_reading"]
        _close(reading["k"], k, "k")
        _close(reading["r"], r, "r")
        _require(math.isfinite(reading["lambda_residual"]), "lambda residual is not finite")
        if lam is not None:
            _close(reading["lambda"], lam, "lambda")
            _require(reading["lambda_balanced"] is True, "balanced design reported unbalanced")
        _require(("choi_reading" in par) is square, "choi_reading present iff Matrix(n) -> Matrix(n)")
    return check, 0 if cp else 1
