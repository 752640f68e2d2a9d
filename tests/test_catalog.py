import functools
import gc
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from designkit import catalog
from designkit.catalog import (
    FormatError,
    canonical_json,
    catalog_expected,
    catalog_get,
    catalog_names,
    catalog_text,
    classical_from_doc,
    classical_to_doc,
    cpmap_from_doc,
    cpmap_to_doc,
    dumps,
    loads,
    quantum_from_doc,
    quantum_to_doc,
)
from designkit.classical import (
    ClassicalDesign,
    classify,
    dual,
    gen_complete,
    gen_projective_plane,
    tensor,
)
from designkit.cpmaps import Algebra, CpMap, functor_q, verify_cp_design
from designkit.linalg import DEFAULT_TOL, ComplexMatrix, NatMatrix
from designkit.quantum import (
    QuantumDesign,
    _batch_size,
    classify_quantum,
    mub_generate,
    mub_verify,
    tensor_q,
)
from test_properties import assert_nat_storage


def test_canonical_json_is_sorted_compact_and_newline_terminated():
    assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}\n'


def test_canonical_json_uses_shortest_float_rendering():
    assert canonical_json({"x": 0.1, "y": 1.0}) == '{"x":0.1,"y":1.0}\n'


def test_canonical_json_rejects_non_finite():
    with pytest.raises(ValueError):
        canonical_json({"x": float("inf")})


def test_classical_document_round_trip_is_byte_identical():
    design = gen_projective_plane(3)
    text = dumps(design)
    again = dumps(loads(text))
    assert text == again
    assert loads(text).chi == design.chi


def test_quantum_document_round_trip_preserves_binary64():
    from designkit.quantum import mub_generate, mub_verify

    design = mub_verify(mub_generate(3, 4)).design
    text = dumps(design)
    back = loads(text)
    assert dumps(back) == text
    for p, q in zip(design.projectors, back.projectors):
        assert np.array_equal(p.a, q.a)  # exact, not approximate


def test_cpmap_document_round_trip():
    m = ComplexMatrix([[1.0, 0.0, 0.0, 1.0], [0.0, 0.5, 0.5, 0.0], [0.0, 0.5, 0.5, 0.0], [1.0, 0.0, 0.0, 1.0]])
    f = CpMap(Algebra.matrix(2), Algebra.matrix(2), m)
    text = dumps(f)
    back = loads(text)
    assert dumps(back) == text
    assert np.array_equal(back.m.a, m.a)
    assert back.in_alg == f.in_alg and back.out_alg == f.out_alg


def test_loads_rejects_invalid_json():
    with pytest.raises(FormatError):
        loads("{not json")


def test_loads_rejects_unknown_schema():
    with pytest.raises(FormatError) as err:
        loads('{"schema":"mystery/9"}')
    assert "mystery/9" in str(err.value)


def test_loads_rejects_non_object():
    with pytest.raises(FormatError):
        loads("[1,2,3]")


def test_classical_parse_reports_ragged_row_position():
    doc = {"schema": "classical-design/1", "v": 2, "b": 3,
           "incidence": [[1, 0, 1], [1, 0]]}
    with pytest.raises(FormatError) as err:
        classical_from_doc(doc)
    msg = str(err.value)
    assert "row 1" in msg and "expected 3" in msg


def test_classical_parse_rejects_bad_entries():
    base = {"schema": "classical-design/1", "v": 1, "b": 2}
    with pytest.raises(FormatError):
        classical_from_doc({**base, "incidence": [[1, -1]]})
    with pytest.raises(FormatError):
        classical_from_doc({**base, "incidence": [[1, 0.5]]})
    with pytest.raises(FormatError):
        classical_from_doc({**base, "incidence": [[1, True]]})
    with pytest.raises(FormatError):
        classical_from_doc({**base, "v": 2, "incidence": [[1, 1]]})


def test_quantum_parse_rejects_shape_and_value_errors():
    good = quantum_to_doc(QuantumDesign(projectors=(ComplexMatrix.identity(2),)))
    bad = json.loads(canonical_json(good))
    bad["projectors"][0][0] = [[1.0, 0.0]]  # row of length 1, expected 2
    with pytest.raises(FormatError) as err:
        quantum_from_doc(bad)
    assert "row 0" in str(err.value)
    bad = json.loads(canonical_json(good))
    bad["projectors"][0][0][0] = [1.0]  # not an [re, im] pair
    with pytest.raises(FormatError):
        quantum_from_doc(bad)
    bad = json.loads(canonical_json(good))
    bad["projectors"][0][0][0] = [float("nan"), 0.0]
    with pytest.raises(FormatError) as err:
        quantum_from_doc(bad)
    assert "non-finite" in str(err.value)


def test_cpmap_parse_rejects_bad_algebras():
    good = json.loads(dumps(CpMap(Algebra.matrix(2), Algebra.matrix(2), ComplexMatrix(np.eye(4)))))
    bad = dict(good)
    bad["in"] = {"kind": "weird", "n": 2}
    with pytest.raises(FormatError):
        cpmap_from_doc(bad)
    bad = dict(good)
    bad["convention"] = "choi"
    with pytest.raises(FormatError):
        cpmap_from_doc(bad)
    bad = dict(good)
    bad["matrix"] = [[[1.0, 0.0]] * 4] * 3  # wrong row count
    with pytest.raises(FormatError):
        cpmap_from_doc(bad)


def test_catalog_lists_expected_entries():
    assert catalog_names() == [
        "complete-3-2",
        "cp-k2r2",
        "fano",
        "mub-2-2",
        "mub-3-4",
        "pg2-3",
        "pg2-5",
    ]


def test_catalog_files_are_canonical_and_round_trip():
    for name in catalog_names():
        text = catalog_text(name)
        assert text == dumps(loads(text))


def test_catalog_classical_entries_match_generators_and_metadata():
    assert catalog_get("fano").chi == gen_projective_plane(2).chi
    assert catalog_get("pg2-3").chi == gen_projective_plane(3).chi
    assert catalog_get("pg2-5").chi == gen_projective_plane(5).chi
    assert catalog_get("complete-3-2").chi == gen_complete(3, 2).chi
    for name in ("fano", "pg2-3", "pg2-5", "complete-3-2"):
        design = catalog_get(name)
        expected = catalog_expected(name)
        params = classify(design)
        assert (design.v, design.b) == (expected["v"], expected["b"])
        assert (params.k, params.r, params.lam) == (
            expected["k"], expected["r"], expected["lam"],
        )


def test_catalog_quantum_entries_match_metadata():
    for name in ("mub-2-2", "mub-3-4"):
        design = catalog_get(name)
        expected = catalog_expected(name)
        params = classify_quantum(design)
        assert (design.v, design.b) == (expected["v"], expected["b"])
        assert params.r == expected["r"]
        assert DEFAULT_TOL.close(params.k, expected["k"])
        assert params.degree == expected["degree"]
        for got, want in zip(sorted(params.lam_set), expected["lam_set"]):
            assert abs(got - want) < 1e-9


def test_catalog_cp_entry_is_the_exact_example_matrix():
    f = catalog_get("cp-k2r2")
    want = np.array(
        [[1, 0, 0, 1], [0, 0.5, 0.5, 0], [0, 0.5, 0.5, 0], [1, 0, 0, 1]], dtype=complex
    )
    assert np.array_equal(f.m.a, want)  # 1 and 0.5 are binary64-exact
    rep = verify_cp_design(f)
    expected = catalog_expected("cp-k2r2")
    assert rep.k == pytest.approx(expected["k"], abs=1e-12)
    assert rep.r == pytest.approx(expected["r"], abs=1e-12)


def test_dumps_rejects_unknown_objects():
    with pytest.raises(TypeError):
        dumps(42)


def test_quantum_parse_allocates_nothing_for_a_short_document():
    # dim * dim * v entries that the document does not hold are never
    # allocated: the first misshapen projector is refused by position.
    doc = {"schema": "quantum-design/1", "dim": 10**6, "projectors": [[]] * 10**6}
    with pytest.raises(FormatError, match=r"^projectors\[0\]: expected 1000000 rows, got 0$"):
        quantum_from_doc(doc)
    good = quantum_to_doc(QuantumDesign((ComplexMatrix.identity(2),)))["projectors"][0]
    bad_entry = [[[1.0, 0.0], [0.0, "x"]], [[0.0, 0.0], [1.0, 0.0]]]
    doc = {"schema": "quantum-design/1", "dim": 2, "projectors": [good, bad_entry, 7]}
    with pytest.raises(FormatError, match=r"^projectors\[1\]\[0\]\[1\]\[1\]: expected a number"):
        quantum_from_doc(doc)


def test_loaded_projectors_are_views_into_one_array():
    design = loads(dumps(mub_verify(mub_generate(3, 4)).design))
    assert design._stack.shape == (12, 3, 3) and design._stack.flags["C_CONTIGUOUS"]
    assert all(np.shares_memory(p.a, design._stack) for p in design.projectors)


def test_loads_leaves_no_collection_over_the_tree_behind():
    # 56 projectors of 7 x 7 [re, im] lists are far past the 700 allocations that
    # start a collection; the tree is freed before the collector resumes, so the
    # parse runs none at all, not even one over the whole tree as it re-enables.
    text = dumps(mub_verify(mub_generate(7, 8)).design)
    events = []

    def record(phase, info):
        events.append((phase, info["generation"]))

    gc.collect()
    gc.callbacks.append(record)
    try:
        design = loads(text)
    finally:
        gc.callbacks.remove(record)
    assert design.v == 56 and events == []


# --- The per-entry walk that parsed every matrix before the bulk parser ---
# It is kept here, unchanged but for the binary64-range check in _oracle_real,
# as the reference the bulk parser must match: same accepted documents, same
# values bit for bit, same FormatError messages.


def _oracle_require(cond: bool, msg: str) -> None:
    if not cond:
        raise FormatError(msg)


def _oracle_get(doc: dict, key: str, where: str):
    _oracle_require(isinstance(doc, dict), f"{where}: expected an object")
    _oracle_require(key in doc, f"{where}: missing key {key!r}")
    return doc[key]


def _oracle_nat(x, where: str) -> int:
    _oracle_require(isinstance(x, int) and not isinstance(x, bool) and x >= 0,
                    f"{where}: expected a nonnegative integer, got {x!r}")
    return x


def _oracle_real(x, where: str) -> float:
    _oracle_require(isinstance(x, (int, float)) and not isinstance(x, bool),
                    f"{where}: expected a number, got {x!r}")
    try:
        val = float(x)
    except OverflowError:
        raise FormatError(f"{where}: number out of binary64 range") from None
    _oracle_require(math.isfinite(val), f"{where}: non-finite number")
    return val


def _oracle_complex_entry(x, where: str) -> complex:
    _oracle_require(isinstance(x, list) and len(x) == 2, f"{where}: expected [re, im]")
    return complex(_oracle_real(x[0], where + "[0]"), _oracle_real(x[1], where + "[1]"))


def oracle_complex_rows(rows, nrows: int, ncols: int, where: str) -> np.ndarray:
    _oracle_require(isinstance(rows, list) and len(rows) == nrows,
                    f"{where}: expected {nrows} rows, got {len(rows) if isinstance(rows, list) else type(rows).__name__}")
    out = np.zeros((nrows, ncols), dtype=np.complex128)
    for i, row in enumerate(rows):
        _oracle_require(isinstance(row, list) and len(row) == ncols,
                        f"{where} row {i} has {len(row) if isinstance(row, list) else '?'} entries, expected {ncols}")
        for j, entry in enumerate(row):
            out[i, j] = _oracle_complex_entry(entry, f"{where}[{i}][{j}]")
    return out


def oracle_classical_from_doc(doc: dict) -> ClassicalDesign:
    _oracle_require(_oracle_get(doc, "schema", "document") == "classical-design/1",
                    "schema mismatch: expected 'classical-design/1'")
    v = _oracle_nat(_oracle_get(doc, "v", "document"), "v")
    b = _oracle_nat(_oracle_get(doc, "b", "document"), "b")
    _oracle_require(v >= 1 and b >= 1, "v and b must be >= 1")
    rows = _oracle_get(doc, "incidence", "document")
    _oracle_require(isinstance(rows, list) and len(rows) == v,
                    f"incidence: expected {v} rows, got {len(rows) if isinstance(rows, list) else type(rows).__name__}")
    data = []
    for i, row in enumerate(rows):
        _oracle_require(isinstance(row, list) and len(row) == b,
                        f"incidence row {i} has {len(row) if isinstance(row, list) else '?'} entries, expected {b}")
        data.append([_oracle_nat(x, f"incidence[{i}][{j}]") for j, x in enumerate(row)])
    return ClassicalDesign(NatMatrix(data))


def oracle_matrix_doc(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def oracle_dumps(obj) -> str:
    """The document text of obj, one Python value per entry, through canonical_json."""
    if isinstance(obj, ClassicalDesign):
        return canonical_json(classical_to_doc(obj))
    if isinstance(obj, QuantumDesign):
        return canonical_json({"schema": "quantum-design/1", "dim": obj.b,
                               "projectors": [oracle_matrix_doc(p.a) for p in obj.projectors]})
    return canonical_json({
        "schema": "cp-map/1", "convention": obj.convention,
        "in": {"kind": obj.in_alg.kind, "n": obj.in_alg.n},
        "out": {"kind": obj.out_alg.kind, "n": obj.out_alg.n},
        "matrix": oracle_matrix_doc(obj.m.a)})


def _outcome(parse, doc):
    """("ok", value) or (exception type name, message) for parse(doc)."""
    try:
        return "ok", parse(doc)
    except Exception as exc:  # compared by type and message
        return type(exc).__name__, str(exc)


def _oracle_loads(text: str, monkeypatch):
    doc = json.loads(text)
    if doc.get("schema") == "classical-design/1":
        return oracle_classical_from_doc(doc)
    with monkeypatch.context() as m:
        m.setattr(catalog, "_complex_rows", oracle_complex_rows)
        return catalog.loads(text)


def _same_value(a, b) -> bool:
    if isinstance(a, ClassicalDesign):
        if not isinstance(b, ClassicalDesign):
            return False
        assert_nat_storage(a.chi)
        assert_nat_storage(b.chi)
        return a.chi == b.chi
    if isinstance(a, QuantumDesign):
        return (isinstance(b, QuantumDesign) and len(a.projectors) == len(b.projectors)
                and all(p.a.dtype == q.a.dtype and p.a.shape == q.a.shape
                        and p.a.tobytes() == q.a.tobytes()
                        for p, q in zip(a.projectors, b.projectors)))
    return (isinstance(b, CpMap) and (a.in_alg, a.out_alg) == (b.in_alg, b.out_alg)
            and a.m.a.dtype == b.m.a.dtype and a.m.a.shape == b.m.a.shape
            and a.m.a.tobytes() == b.m.a.tobytes())


# Replacement values for one leaf or entry.  "@1e400@" becomes the bare
# literal 1e400, which json reads as inf.
_ODD_VALUES = [
    True, False, None, "1", "0.5", "", [], [0], [0, 0], [[0.5, 0.0]], {},
    float("nan"), float("inf"), float("-inf"), "@1e400@", -0.0, 0.0, -1, 0, 1, 2, 0.5,
    1.0, -2.5e-300, 5e-324, 2**53 + 1, 2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 2**64 + 3,
    10**400, -(10**400), 2**1024 - 2**970, 2**1024 - 2**971, 1e308, -1.7976931348623157e308,
]


def _random_matrix(rng, nrows, ncols):
    vals = rng.standard_normal((nrows, ncols, 2)) * 10.0 ** rng.integers(-5, 5)
    out = vals.tolist()
    if rng.random() < 0.3:  # integer literals, as hand-written documents have
        out[rng.integers(nrows)][rng.integers(ncols)] = [int(rng.integers(-9, 9)), 0]
    return out


def _random_valid_doc(rng):
    kind = rng.integers(3)
    if kind == 0:
        v, b = (int(x) for x in rng.integers(1, 5, size=2))
        chi = rng.integers(0, 3, size=(v, b)).tolist()
        if rng.random() < 0.2:
            chi[rng.integers(v)][rng.integers(b)] = 2**64 + int(rng.integers(100))
        return {"schema": "classical-design/1", "v": v, "b": b, "incidence": chi}
    if kind == 1:
        dim = int(rng.integers(1, 4))
        count = int(rng.integers(1, 4))
        return {"schema": "quantum-design/1", "dim": dim,
                "projectors": [_random_matrix(rng, dim, dim) for _ in range(count)]}
    algs = []
    for _ in range(2):
        k = ("commutative", "matrix")[rng.integers(2)]
        n = int(rng.integers(1, 3))
        algs.append(({"kind": k, "n": n}, n * n if k == "matrix" else n))
    (alg_in, d_in), (alg_out, d_out) = algs
    return {"schema": "cp-map/1", "convention": "superoperator", "in": alg_in,
            "out": alg_out, "matrix": _random_matrix(rng, d_out, d_in)}


def _matrices(doc):
    if doc["schema"] == "classical-design/1":
        return [doc["incidence"]]
    if doc["schema"] == "quantum-design/1":
        return doc["projectors"]
    return [doc["matrix"]]


def _mutate(doc, rng, which=None) -> str:
    """Spoil one place of the which-th matrix, or of a random one; returns what was done."""
    mats = _matrices(doc)
    rows = mats[rng.integers(len(mats)) if which is None else which]
    if not (isinstance(rows, list) and rows):
        return "none"
    i = int(rng.integers(len(rows)))
    if not (isinstance(rows[i], list) and rows[i]):
        return "none"
    j = int(rng.integers(len(rows[i])))
    odd = _ODD_VALUES[rng.integers(len(_ODD_VALUES))]
    pair = isinstance(rows[i][j], list) and len(rows[i][j]) == 2
    what = ("leaf", "entry", "leaf", "drop-entry", "add-entry", "drop-row", "row",
            "deeper", "short-pair", "long-pair")[rng.integers(10)]
    if what == "leaf" and pair:
        rows[i][j][rng.integers(2)] = odd
    elif what in ("leaf", "entry"):
        rows[i][j] = odd
    elif what == "drop-entry":
        del rows[i][j]
    elif what == "add-entry":
        rows[i].append(rows[i][j])
    elif what == "drop-row":
        del rows[i]
    elif what == "row":
        rows[i] = odd
    elif what == "deeper":
        rows[i][j] = [rows[i][j]]
    elif what == "short-pair":
        rows[i][j] = [1.0]
    else:
        rows[i][j] = [1.0, 0.0, 0.0]
    return what


_FAULTS = ("number out of binary64 range", "non-finite number", "expected [re, im]",
           "expected a number", "expected a nonnegative integer", "rows, got", " entries, expected")


def _parse_like_the_oracle(doc, monkeypatch) -> str:
    """Parse doc with loads and with the entry-walk oracle; "ok" or the fault's message."""
    text = json.dumps(doc).replace('"@1e400@"', "1e400")
    got = _outcome(loads, text)
    want = _outcome(lambda t: _oracle_loads(t, monkeypatch), text)
    assert got[0] == want[0], (text[:2000], got, want)
    if got[0] == "ok":
        assert _same_value(got[1], want[1]), text[:2000]
        return "ok"
    assert got[0] == "FormatError", (text[:2000], got)
    assert got[1] == want[1], text[:2000]
    return got[1]


def test_bulk_parser_matches_the_entry_walk_on_seeded_documents(monkeypatch):
    rng = np.random.default_rng(20230)
    outcomes = {"ok": 0}
    mutations = set()
    for trial in range(1500):
        doc = _random_valid_doc(rng)
        if trial % 4:
            for _ in range(int(rng.integers(1, 3))):
                mutations.add(_mutate(doc, rng))
        got = _parse_like_the_oracle(doc, monkeypatch)
        kind = "ok" if got == "ok" else next(k for k in _FAULTS if k in got)
        outcomes[kind] = outcomes.get(kind, 0) + 1
    assert mutations - {"none"} == {"leaf", "entry", "drop-entry", "add-entry", "drop-row",
                                    "row", "deeper", "short-pair", "long-pair"}
    assert outcomes["ok"] > 400
    assert all(outcomes.get(kind, 0) >= 5 for kind in _FAULTS), outcomes

    # Families that span two decode batches, spoiled in any projector:
    # a refused batch must still name the projector, not the batch.
    dim = 64
    step = _batch_size(dim)
    assert step == 8
    named = set()
    for trial in range(8):
        count = int(rng.integers(step + 1, step + 5))
        doc = {"schema": "quantum-design/1", "dim": dim,
               "projectors": [_random_matrix(rng, dim, dim) for _ in range(count)]}
        if trial % 4:  # alternately in the first batch and in the last
            _mutate(doc, rng, int(rng.integers(step) if trial % 2 else rng.integers(step, count)))
        got = _parse_like_the_oracle(doc, monkeypatch)
        if got.startswith("projectors["):
            named.add(int(got[len("projectors["):got.index("]")]) // step)
    assert named >= {0, 1}, named


# --- Text that is not canonical: json.loads, then one walk per matrix ---
# Indented text and json's default separators both take the general path.


def _spoiled_texts(doc, places: dict) -> list[str]:
    """doc, indented and with default separators, with each path in ``places`` set to its value."""
    doc = json.loads(json.dumps(doc))
    for path, value in places.items():
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return [json.dumps(doc, indent=1).replace('"@1e400@"', "1e400"),
            json.dumps(doc).replace('"@1e400@"', "1e400")]


def test_the_general_path_names_the_first_fault_in_document_order(monkeypatch):
    def raises(doc, places, position, fault):
        for text in _spoiled_texts(doc, places):
            got = _outcome(loads, text)
            want = _outcome(lambda t: _oracle_loads(t, monkeypatch), text)
            assert got == want == ("FormatError", f"{position}: {fault}"), (text, got, want)

    pairs = [[[0.5, -0.5]] * 3 for _ in range(3)]
    cpmap = {"schema": "cp-map/1", "convention": "superoperator",
             "in": {"kind": "commutative", "n": 3}, "out": {"kind": "commutative", "n": 3},
             "matrix": pairs}
    quantum = {"schema": "quantum-design/1", "dim": 3, "projectors": [pairs] * 4}
    # A non-finite number comes before a later entry of the wrong type, in its
    # own row or in a later one, and before a wrong type in its own pair.
    for early in (float("nan"), "@1e400@"):
        for late in ("x", True):
            for late_place in ((0, 2), (1, 0), (2, 2)):
                raises(cpmap, {("matrix", 0, 1, 1): early, ("matrix", *late_place, 0): late},
                       "matrix[0][1][1]", "non-finite number")
                raises(quantum, {("projectors", 2, 0, 1, 1): early,
                                 ("projectors", 2, *late_place, 0): late},
                       "projectors[2][0][1][1]", "non-finite number")
            raises(cpmap, {("matrix", 1, 1, 0): early, ("matrix", 1, 1, 1): late},
                   "matrix[1][1][0]", "non-finite number")
    # A value fault in projector i comes before a misshapen projector i + 1.
    for value, fault in ((float("nan"), "non-finite number"), ("x", "expected a number, got 'x'"),
                         ([1.0], "expected [re, im]")):
        for misshapen in ([], [[[0.0, 0.0]] * 3] * 2, [[[0.0, 0.0]] * 2] * 3, 7):
            where = "projectors[1][2][2]" + ("" if value == [1.0] else "[1]")
            place = ("projectors", 1, 2, 2) + (() if value == [1.0] else (1,))
            raises(quantum, {place: value, ("projectors", 2): misshapen}, where, fault)
    # An incidence's -1 comes before a 1.5, in its row or in a later one.
    incidence = {"schema": "classical-design/1", "v": 3, "b": 4, "incidence": [[1, 0, 0, 1]] * 3}
    for late_place in ((0, 3), (1, 0), (2, 1)):
        raises(incidence, {("incidence", 0, 2): -1, ("incidence", *late_place): 1.5},
               "incidence[0][2]", "expected a nonnegative integer, got -1")
    raises(incidence, {("incidence", 1, 1): 1.5, ("incidence", 2): [1, 0]},
           "incidence[1][1]", "expected a nonnegative integer, got 1.5")


def _large_objects() -> list:
    """pg2-23, the conjugated pg2-5 family and a seeded mixed-unitary channel on Matrix(16)."""
    rng = np.random.default_rng(28)
    weights = rng.dirichlet(np.ones(3))
    m = sum(w * np.kron(u, u.conj()) for w, u in zip(weights, (_haar(16, rng) for _ in range(3))))
    return [gen_projective_plane(23), _conjugated_family(5),
            CpMap(in_alg=Algebra.matrix(16), out_alg=Algebra.matrix(16), m=ComplexMatrix._raw(m))]


def _bits(obj) -> np.ndarray:
    return (obj.chi.a if isinstance(obj, ClassicalDesign) else _complex_array(obj)).view(np.uint64)


def test_large_non_canonical_texts_read_like_their_canonical_text():
    rng = np.random.default_rng(29)
    for obj in _large_objects():
        want = _bits(loads(dumps(obj)))
        doc = {ClassicalDesign: classical_to_doc, QuantumDesign: quantum_to_doc,
               CpMap: cpmap_to_doc}[type(obj)](obj)
        for text in (json.dumps(doc, indent=1), json.dumps(doc)):
            got = loads(text)
            assert type(got) is type(obj) and np.array_equal(_bits(got), want)
        # One fault in the last row of the incidence or matrix, or in the last
        # projector, written into the default-separator text in place of that
        # element, and named as the oracle's entry check names it there.
        key = next(k for k in ("incidence", "projectors", "matrix") if k in doc)
        head, found, tail = text.rpartition(json.dumps(doc[key][-1]))
        assert found
        place, node = [len(doc[key]) - 1], doc[key][-1]
        while isinstance(node[0], list):  # down to a row of numbers or an [re, im] pair
            place.append(int(rng.integers(len(node))))
            node = node[place[-1]]
        where = key + "".join(f"[{i}]" for i in place)
        if key == "incidence":
            j = int(rng.integers(len(node)))
            node[j] = 1.5
            want = _outcome(lambda x: _oracle_nat(x, f"{where}[{j}]"), 1.5)
        else:
            node[int(rng.integers(2))] = float("nan") if key == "projectors" else True
            want = _outcome(lambda x: _oracle_complex_entry(x, where), node)
        bad = head + json.dumps(doc[key][-1]) + tail
        assert want[0] == "FormatError" and _outcome(loads, bad) == want


# --- Canonical one-digit incidences, read from the text without a tree ---


def _oracle_loads_text(text: str):
    """loads through json.loads and the entry walk: the general path's rules and messages."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from None
    return oracle_classical_from_doc(doc)


def _text_mutation(text: str, rng) -> tuple[str, str]:
    """(what, text with one place of the canonical document spoiled or restyled)."""
    first, last = text.index("["), text.rindex("]")
    cut = text[first:last + 1]
    digits = [i for i, c in enumerate(cut) if c.isdigit()]
    commas = [i for i, c in enumerate(cut) if c == ","]
    brackets = [i for i, c in enumerate(cut) if c in "[]"]

    def at(i, new, drop=1):  # the cut with cut[i:i + drop] replaced by new
        return text[:first] + cut[:i] + new + cut[i + drop:] + text[last + 1:]

    def pick(seq):
        return seq[int(rng.integers(len(seq)))]

    what = pick(["digit", "separator", "comma", "bracket", "row-length", "v-b", "other-key",
                 "second-key", "multi-digit", "non-ascii", "non-ascii-key"])
    if what == "digit":
        return what, at(pick(digits), pick(list("23456789-. t:")))
    if what == "separator" and len(cut) > 5:  # a "," "[" or "]" inside the cut, in place
        i = pick(commas + brackets[1:-1])
        return what, at(i, pick([c for c in "01,[]" if c != cut[i]]))
    if what == "comma" and commas:
        return what, at(pick(commas), pick([",,", ""]))
    if what == "bracket":
        i = pick(brackets)
        return what, at(i, pick(["", cut[i] * 2]))
    if what == "row-length":
        end = pick([i for i, c in enumerate(cut) if c == "]"][:-1])  # a row's "]"
        if cut[end - 2] == "," and rng.random() < 0.5:
            return what, at(end - 2, "", 2)  # drop the row's last ",d"
        return what, at(end, ",0]")
    if what == "v-b":
        key = pick(["v", "b"])
        n = json.loads(text)[key]
        return what, text.replace(f'"{key}":{n}', f'"{key}":' + pick([str(n - 1), str(n + 1),
                                                                       f"{n}.0", "true"]), 1)
    if what == "other-key":  # "[" or "]" in a string or a list, either side of the incidence
        s = json.dumps(pick(["[", "]", "a[b", "]]", "[[1]]", [0], [[1]]]))
        return what, (text.replace("{", '{"a":' + s + ",", 1) if rng.random() < 0.5
                      else text[:-2] + ',"z":' + s + "}\n")
    if what == "second-key":
        other = pick(["0", "[[1]]", '"[]"', cut])
        return what, (text.replace("{", '{"incidence":' + other + ",", 1) if rng.random() < 0.5
                      else text[:-2] + ',"incidence":' + other + "}\n")
    if what == "multi-digit":
        return what, at(pick(digits), pick(["10", "12", "99", "100"]))
    if what == "non-ascii":
        i = pick(digits)
        return what, pick([at(i, "\u0661"), at(i, cut[i] + "\u00a0"), at(i, "\ud800")])
    if what == "non-ascii-key":  # before the incidence, which must still be read in place
        return what, text.replace("{", '{"\u00e9\u4e2d":1,', 1)
    return "none", text


def test_canonical_texts_parse_like_the_entry_walk(monkeypatch):
    rng = np.random.default_rng(20231)
    taken = []  # what the read from the skeleton returned for each text: None sends it the general way

    def spy(text, real=catalog._streamed):
        taken.append(real(text))
        return taken[-1]

    monkeypatch.setattr(catalog, "_streamed", spy)
    fast, mutations, outcomes = 0, set(), {}
    for trial in range(1500):
        v, b = (int(x) for x in rng.integers(1, 9, size=2))
        chi = rng.integers(0, 10 if trial % 5 == 0 else 2, size=(v, b)).tolist()
        text = canonical_json({"schema": "classical-design/1", "v": v, "b": b, "incidence": chi})
        what = "none"
        if trial % 4:
            what, text = _text_mutation(text, rng)
        mutations.add(what)
        got = _outcome(loads, text)
        want = _outcome(_oracle_loads_text, text)
        assert got[0] == want[0] and got[0] in ("ok", "FormatError"), (text, got, want)
        if got[0] == "ok":
            assert _same_value(got[1], want[1]), text
        else:
            assert got[1] == want[1], text
        fast += taken[-1] is not None
        if what in ("none", "non-ascii-key"):
            assert taken[-1] is not None, text
        outcomes[got[0]] = outcomes.get(got[0], 0) + 1
    assert mutations == {"none", "digit", "separator", "comma", "bracket", "row-length", "v-b",
                         "other-key", "second-key", "multi-digit", "non-ascii", "non-ascii-key"}, \
        mutations
    assert fast > 400 and outcomes["ok"] > fast and outcomes["FormatError"] > 400, (fast, outcomes)


def test_canonical_incidence_builds_no_document_tree(monkeypatch):
    trees = []
    monkeypatch.setattr(catalog, "classical_from_doc",
                        lambda doc, real=catalog.classical_from_doc: trees.append(doc) or real(doc))
    rng = np.random.default_rng(5)
    a = gen_projective_plane(11).chi.a
    design = ClassicalDesign(NatMatrix._raw(a[rng.permutation(133)][:, rng.permutation(133)]))
    doc = classical_to_doc(design)
    assert loads(dumps(design)).chi == design.chi and trees == []
    # Key order is the skeleton's business: a compact incidence is still read from the text.
    reordered = dict(reversed(list(doc.items())))
    assert loads(json.dumps(reordered, separators=(",", ":"))).chi == design.chi and trees == []
    ten = json.loads(canonical_json(doc))
    ten["incidence"][3][4] = 10
    general = {  # text -> the incidence it holds; each goes through the tree
        json.dumps(doc, indent=1): design.chi,
        json.dumps(reordered): design.chi,
        canonical_json(ten): NatMatrix(ten["incidence"]),
    }
    for n, (text, chi) in enumerate(general.items(), 1):
        assert loads(text).chi == chi and len(trees) == n


def test_classical_parse_allocates_nothing_for_a_short_document():
    # A short text that claims v = b = 10**6 is refused by the length of its cut
    # before any v x b array, and then by its row count.
    text = '{"b":1000000,"incidence":[[1]],"schema":"classical-design/1","v":1000000}\n'
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match=r"^incidence: expected 1000000 rows, got 1$"):
            loads(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**5, peak


def _haar(n, rng):
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _pair_rows(m):
    return np.stack([m.real, m.imag], axis=-1).tolist()


def _benchmark_style_texts():
    """Canonical documents of the kinds the benchmark feeds the CLI, rendered with numpy."""
    rng = np.random.default_rng(7)
    texts = []
    for d in (2, 3):
        chi = gen_projective_plane(d).chi.tolist()
        texts.append(canonical_json({"schema": "classical-design/1", "v": len(chi),
                                     "b": len(chi[0]), "incidence": chi}))
        b = len(chi[0])
        u = _haar(b, rng)
        stack = [u @ np.diag(np.array(row, dtype=np.complex128)) @ u.conj().T for row in chi]
        texts.append(canonical_json({"schema": "quantum-design/1", "dim": b,
                                     "projectors": [_pair_rows(p) for p in stack]}))
        texts.append(canonical_json({
            "schema": "cp-map/1", "convention": "superoperator",
            "in": {"kind": "commutative", "n": b}, "out": {"kind": "commutative", "n": len(chi)},
            "matrix": _pair_rows(np.array(chi, dtype=np.complex128))}))
    for d in (3, 5):
        texts.append(dumps(mub_verify(mub_generate(d, d + 1)).design))
    for n in (2, 3, 4):
        weights = rng.dirichlet(np.ones(3))
        m = sum(w * np.kron(u, u.conj()) for w, u in zip(weights, (_haar(n, rng) for _ in range(3))))
        for mat in (m, m.reshape(n, n, n, n).transpose(1, 0, 3, 2).reshape(n * n, n * n)):
            texts.append(canonical_json({
                "schema": "cp-map/1", "convention": "superoperator",
                "in": {"kind": "matrix", "n": n}, "out": {"kind": "matrix", "n": n},
                "matrix": _pair_rows(mat)}))
    return texts


def test_benchmark_style_documents_round_trip_byte_for_byte(monkeypatch):
    for text in _benchmark_style_texts():
        obj = loads(text)
        assert dumps(obj) == text
        assert _same_value(obj, _oracle_loads(text, monkeypatch))
        assert oracle_dumps(obj) == text


# --- Projector lists and matrix rows, read from the text a batch at a time ---
# A batch's layout is checked as bytes with its numerals deleted, and json
# reads its numbers as one flat list, brackets turned into spaces.


def _tree_loads(text: str):
    """loads by the general path alone: json.loads, then quantum_ or cpmap_from_doc."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise FormatError("invalid JSON: nested too deeply") from None
    return {"quantum-design/1": quantum_from_doc, "cp-map/1": cpmap_from_doc}[doc["schema"]](doc)


def _streamable_texts():
    """Canonical quantum and CP-map texts: the benchmark-style ones, the functor image of
    pg2-5 (31 diagonal 0/1 projectors, four to a batch, each number spelled d.d) and a
    family of 20 x 20 projectors, ten to a batch, so that a fault can sit past the first
    batch of either reader."""
    texts = [t for t in _benchmark_style_texts() if '"classical-design/1"' not in t]
    rng = np.random.default_rng(24)
    stack = rng.standard_normal((25, 20, 20)) + 1j * rng.standard_normal((25, 20, 20))
    assert catalog._BATCH_ENTRIES // 400 == 10 and catalog._BATCH_ENTRIES // 31**2 == 4
    return texts + [dumps(functor_q(gen_projective_plane(5))), dumps(QuantumDesign._from_stack(stack))]


@functools.cache
def _cut_marks(text: str) -> dict:
    """Where the cut of a canonical text has its numbers, commas, brackets and row ends."""
    first, last = text.index("["), text.rindex("]")
    cut = text[first:last + 1]
    marks = {"numbers": [(m.start(), m.end()) for m in re.finditer(r"-?[0-9][0-9.eE+-]*", cut)],
             "commas": [], "between": [], "brackets": [], "closes": [],
             "row-ends": [m.start() for m in re.finditer(r"\]\]", cut)]}
    depth = 0
    for i, c in enumerate(cut):
        depth += (c == "[") - (c == "]")
        if c == ",":
            marks["commas"].append(i)
            if depth == 1:  # between two elements of the list
                marks["between"].append(i)
        elif c in "[]":
            marks["brackets"].append(i)
            if c == "]":
                marks["closes"].append(i)
    return marks


# Numbers spelled so that Python's float() takes them and JSON refuses them, or
# neither does: each must fail exactly as json.loads of the whole text fails.
_REFUSED_SPELLINGS = ("+1", ".5", "5.", "01", "-01", "1.e5", "1e", "--1", "1-1", "", "0x1", "1_0",
                      "\u0661")


def _cut_mutation(text: str, rng) -> tuple[str, str]:
    """(what, text with its large list, or a key beside it, restyled or spoiled in one place)."""
    first, last = text.index("["), text.rindex("]")
    cut = text[first:last + 1]
    marks = _cut_marks(text)
    numbers, between = marks["numbers"], marks["between"]

    def pick(seq):
        return seq[int(rng.integers(len(seq)))]

    def at(i, new, drop=0):  # the text with cut[i:i + drop] replaced by new
        return text[:first] + cut[:i] + new + cut[i + drop:] + text[last + 1:]

    what = pick(["none", "space-between", "space-inside", "extra-key", "number", "bad-value",
                 "trailing-comma", "drop-bracket", "empty-list", "wrong-dim", "ragged-row",
                 "deep", "number-grammar", "slot-hop", "hop-left", "hop-right", "gap-numeral",
                 "bracket-kind", "two-dots"])
    if what == "space-between" and between:
        return what, at(pick(between) + 1, pick([" ", "\n", "\t "]))
    if what == "space-inside":
        return what, at(pick(marks["commas"]) + 1, " ")
    if what == "extra-key":
        extra = '"z":' + pick(["[1]", "[[0,0]]", "[]"])
        return what, (text.replace("{", "{" + extra + ",", 1) if rng.random() < 0.5
                      else text[:-2] + "," + extra + "}\n")
    if what == "number":
        lo, hi = pick(numbers)
        return what, at(lo, pick(["-0", "1E5", "-2.5e-3", "1e400", "-1e400", "9" * 400,
                                  "-" + "1" * 400, "0.0", "5e-324"]), hi - lo)
    if what == "bad-value":
        lo, hi = pick(numbers)
        return what, at(lo, pick(["NaN", "Infinity", "-Infinity", "true", "null", '"1"', "[]",
                                  "{}"]), hi - lo)
    if what == "trailing-comma":
        return what, at(pick(marks["closes"]), ",")
    if what == "drop-bracket":
        return what, at(pick(marks["brackets"]), "", 1)
    if what == "empty-list":
        return what, text[:first] + "[]" + text[last + 1:]
    if what == "wrong-dim":
        key, n = pick(re.findall(r'"(dim|n)":([0-9]+)', text))
        return what, text.replace(f'"{key}":{n}', f'"{key}":' + pick([str(int(n) - 1),
                                                                       str(int(n) + 1), f"{n}.0",
                                                                       "true"]), 1)
    if what == "ragged-row":  # one row loses or gains its last entry
        end = pick(marks["row-ends"])  # where a row's last entry ends
        start = cut.rindex("[", 0, end)
        return what, (at(start - 1, "", end + 1 - start + 1) if cut[start - 1] == ","
                      else at(end + 1, ",[0,0]"))
    if what == "deep":  # an entry or an element in far more brackets than json nests
        lo, hi = pick(numbers)
        return what, at(lo, "[" * 5000 + cut[lo:hi] + "]" * 5000, hi - lo)
    if what == "number-grammar":
        lo, hi = pick(numbers)
        return what, at(lo, pick(_REFUSED_SPELLINGS), hi - lo)
    if what == "slot-hop":  # a number moved across its entry's bracket, or a 7 put beyond it
        lo, hi = pick(numbers)
        num, seven = (cut[lo:hi], "") if rng.random() < 0.5 else ("7", cut[lo:hi])
        if cut[lo - 1] == "[":  # "[re," becomes "re[," or "7[re,"
            return what, at(lo - 1, num + "[" + seven, hi - lo + 1)
        return what, at(lo, seven + "]" + num, hi - lo + 1)  # ",im]" becomes ",]im" or ",im]7"
    if what == "hop-left":  # a real part moved before every "[" that opens it: ",[[re," is ",re[[,"
        lo, hi = pick([(lo, hi) for lo, hi in numbers if cut[lo - 1] == "["])
        start = len(cut[:lo].rstrip("["))
        return what, at(start, cut[lo:hi] + cut[start:lo], hi - start)
    if what == "hop-right":  # an imaginary part moved past every "]" that follows it: ",im]]," is ",]]im,"
        lo, hi = pick([(lo, hi) for lo, hi in numbers if cut[hi] == "]"])
        end = len(cut) - len(cut[hi:].lstrip("]"))
        return what, at(lo, cut[hi:end] + cut[lo:hi], end - lo)
    if what == "gap-numeral":  # a numeral run beside a comma between two entries, in no slot
        i = pick([i for i in marks["commas"] if cut[i - 1] == "]"])
        return what, at(i + int(rng.integers(2)), pick(["5", "0.5", "-2.5e-3", "1e5"]))
    if what == "bracket-kind":  # one bracket turned round, or made a brace
        i = pick(marks["brackets"])
        return what, at(i, pick({"[": ["]", "{"], "]": ["[", "}"]}[cut[i]]), 1)
    if what == "two-dots":  # a number given a second "."
        lo, hi = pick(numbers)
        return what, at(hi, ".5" if "." in cut[lo:hi] else ".5.5")
    return "none", text


def test_streamed_decode_matches_the_tree_on_seeded_texts(monkeypatch):
    rng = np.random.default_rng(2024)
    streamed = []  # what the read from the skeleton returned: None sends a text the general way

    def spy(text, real=catalog._streamed):
        streamed.append(real(text))
        return streamed[-1]

    monkeypatch.setattr(catalog, "_streamed", spy)
    texts = _streamable_texts()
    seen = {}  # what -> set of (fast path taken, outcome kind)
    for trial in range(500):
        text = texts[trial % len(texts)]
        what, text = _cut_mutation(text, rng)
        got = _outcome(loads, text)
        want = _outcome(_tree_loads, text)
        assert got[0] == want[0] and got[0] in ("ok", "FormatError"), (what, text[:300], got, want)
        if got[0] == "ok":
            assert _same_value(got[1], want[1]), (what, text[:300])
        else:
            assert got[1] == want[1], (what, text[:300])
        fast = streamed[-1] is not None
        assert not fast or got[0] == "ok", what
        if what == "none":
            assert fast, (what, text[:300])
        seen.setdefault(what, set()).add((fast, got[0]))
    # Both outcomes occur: canonical text takes the fast path, restyled text falls
    # back and parses, and every fault falls back to raise on the general path.
    fails = {(False, "FormatError")}
    assert seen == {"none": {(True, "ok")}, "space-inside": {(False, "ok")},
                    "space-between": {(False, "ok")}, "extra-key": {(False, "ok")},
                    "number": {(True, "ok"), *fails}, "bad-value": fails,
                    "trailing-comma": fails, "drop-bracket": fails, "empty-list": fails,
                    "wrong-dim": fails, "ragged-row": fails, "deep": fails,
                    "number-grammar": fails, "slot-hop": fails, "hop-left": fails,
                    "hop-right": fails, "gap-numeral": fails, "bracket-kind": fails,
                    "two-dots": fails}, seen


def test_respelled_numbers_and_separators_read_as_on_the_tree_path():
    # In the 25 projectors of 20 x 20, ten to a batch: the first, middle and
    # last number, each comma between two projectors (two of them between
    # batches) and the end of the list, each respelled.
    text = _streamable_texts()[-1]
    first, last = text.index("["), text.rindex("]")
    marks = _cut_marks(text)
    places = [(first + lo, first + hi, _REFUSED_SPELLINGS)
              for lo, hi in (marks["numbers"][i] for i in (0, len(marks["numbers"]) // 2, -1))]
    places += [(first + i, first + i + 1, ("5", " ", "", "5,")) for i in marks["between"]]
    places.append((last, last, ("5", " ", "5,")))
    assert len(places) == 28
    for lo, hi, spellings in places:
        for new in spellings:
            bad = text[:lo] + new + text[hi:]
            got, want = _outcome(loads, bad), _outcome(_tree_loads, bad)
            assert got[0] == want[0] and (got == want or _same_value(got[1], want[1])), (lo, new)


# Entries at the edges of binary64 and of its shortest repr, and integer
# literals; "@-0@" becomes the bare literal -0, which json reads as the int 0.
_EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                1.7976931348623157e308, 0.30000000000000004, -0.1, 1 / 3, 1e-05, 1e16, -2.5e-300)
_EDGE_INTS = (0, "@-0@", 7, 9007199254740993, -9007199254740993)
_EDGE_SPELLINGS = ("-0.0", "5e-324", "2.2250738585072014e-308", "1e+308", "-1e+308",
                   "1.7976931348623157e+308", "0.30000000000000004", "0.3333333333333333", "1e-05",
                   "1e+16", "[0,", ",-0]", "[-0,", ",7]", "9007199254740993")
# One bad entry, past the first batch: each must fail exactly as on the tree path.
_EDGE_FAULTS = ("1e400", "-1e400", "9" * 400, "NaN", "true", '"0.5"', "[]", "[0.5]")


def _edge_text(rng, kind: str, fault: str | None) -> str:
    """Canonical text of a seeded family or map whose entries sit at the edges above."""
    if kind == "quantum":  # 20 x 20 projectors, ten to a batch
        shape, head = (int(rng.integers(11, 26)), 20, 20), {"schema": "quantum-design/1", "dim": 20}
    else:  # rows of 300 or 512 entries, 13 or 8 to a batch, 16 rows
        n_in = int(rng.choice([300, 512]))
        shape, head = (16, n_in), {"schema": "cp-map/1", "convention": "superoperator",
                                   "in": {"kind": "commutative", "n": n_in},
                                   "out": {"kind": "matrix", "n": 4}}
    leaves = (rng.standard_normal((*shape, 2)) * 10.0 ** rng.integers(-20, 20, (*shape, 2))).tolist()
    flat = [pair for rows in (leaves if kind == "quantum" else [leaves]) for row in rows for pair in row]
    edges = _EDGE_FLOATS + _EDGE_INTS
    for pair in flat:
        if rng.random() < 0.3:
            pair[int(rng.integers(2))] = edges[int(rng.integers(len(edges)))]
    if fault is not None:  # in an entry of the second batch or later
        batch = catalog._BATCH_ENTRIES // (shape[-1] * (shape[-2] if kind == "quantum" else 1))
        per = len(flat) // shape[0]
        flat[int(rng.integers(batch * per, len(flat)))][int(rng.integers(2))] = "@" + fault + "@"
    doc = {**head, "projectors" if kind == "quantum" else "matrix": leaves}
    return re.sub(r'"@(.*?)@"', lambda m: m.group(1).replace('\\"', '"'), canonical_json(doc))


def test_edge_values_read_bit_for_bit_as_on_the_tree_path(monkeypatch):
    rng = np.random.default_rng(25)
    streamed = []

    def spy(text, real=catalog._streamed):
        streamed.append(real(text))
        return streamed[-1]

    monkeypatch.setattr(catalog, "_streamed", spy)
    checked, spelled = set(), set()
    for trial in range(40):
        kind = ("quantum", "cpmap")[trial % 2]
        fault = None if trial % 4 < 2 else _EDGE_FAULTS[trial // 4 % len(_EDGE_FAULTS)]
        text = _edge_text(rng, kind, fault)
        spelled |= {lit for lit in _EDGE_SPELLINGS if lit in text}
        got, want = _outcome(loads, text), _outcome(_tree_loads, text)
        if fault is None:
            assert got[0] == want[0] == "ok" and streamed[-1] is not None, (kind, got, want)
            a, b = ((x._stack if kind == "quantum" else x.m.a) for x in (got[1], want[1]))
            assert a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))
        else:
            assert got == want and got[0] == "FormatError" and streamed[-1] is None, (fault, got)
        checked.add((kind, fault is None))
    assert checked == {("quantum", True), ("quantum", False), ("cpmap", True), ("cpmap", False)}
    assert spelled == set(_EDGE_SPELLINGS)


class _CountedPattern:
    """A compiled pattern whose searches are logged."""

    def __init__(self, pattern, log: list):
        self.pattern, self.log = pattern, log

    def search(self, *args):
        self.log.append(self.pattern.pattern)
        return self.pattern.search(*args)


def test_batches_whose_every_number_has_a_dot_skip_the_full_check(monkeypatch):
    # The full check's slot scans run only for a batch that misses the dotted
    # layout: none of the families and channels designkit writes, and every
    # batch with one number spelled without a ".".
    scans, streamed = [], []

    def spy(text, real=catalog._streamed):
        streamed.append(real(text))
        return streamed[-1]

    monkeypatch.setattr(catalog, "_EMPTY_RE", _CountedPattern(catalog._EMPTY_RE, scans))
    monkeypatch.setattr(catalog, "_EMPTY_IM", _CountedPattern(catalog._EMPTY_IM, scans))
    monkeypatch.setattr(catalog, "_streamed", spy)
    rng = np.random.default_rng(30)
    objs = [mub_generate(d, d + 1).design for d in (3, 5, 7)]
    for d in (2, 3, 5):
        chi = gen_projective_plane(d).chi.a
        u = _haar(chi.shape[1], rng)
        objs.append(QuantumDesign._from_stack(np.stack([u @ np.diag(row.astype(complex)) @ u.conj().T
                                                        for row in chi])))
    for n in (2, 4, 8):
        weights = rng.dirichlet(np.ones(3))
        m = sum(w * np.kron(u, u.conj()) for w, u in zip(weights, (_haar(n, rng) for _ in range(3))))
        objs.append(CpMap(in_alg=Algebra.matrix(n), out_alg=Algebra.matrix(n), m=ComplexMatrix._raw(m)))
    for obj in objs:
        got = loads(dumps(obj))
        assert streamed[-1] is not None and _same_value(got, obj)
    assert scans == []
    text = dumps(objs[-4])  # the conjugated pg2-5 family: 31 projectors, four to a batch
    first = text.index("[")
    numbers = _cut_marks(text)["numbers"]
    for literal in ("1e-05", "-0", "7", "-9007199254740993"):
        lo, hi = numbers[int(rng.integers(len(numbers) // 2, len(numbers)))]
        bad = text[:first + lo] + literal + text[first + hi:]
        scans.clear()
        got, want = loads(bad), _tree_loads(bad)
        assert streamed[-1] is not None and _same_value(got, want), literal
        assert sorted(scans) == sorted([catalog._EMPTY_RE.pattern.pattern,
                                        catalog._EMPTY_IM.pattern.pattern]), literal


# Entries n / 10 (n in 0..99) are read and written as a fixed-width grid of
# digits; these values look like them and must not be.
_NOT_FIXED = (-0.0, 10.0, 0.30000000000000004, 1e-05)


def _tenths(rng, kind: str, spoil: str | None, edge: float):
    """A seeded family or map of n / 10 entries in four batches or more; with ``edge`` in
    one entry of its first, a middle or its last batch (``spoil``)."""
    if kind == "quantum":  # 16 x 16 projectors, 16 to a batch
        shape, per = (int(rng.integers(49, 90)), 16, 16), 16
    else:  # rows of 1024 entries, 4 to a batch
        shape, per = (16, 1024), 4
    a = (rng.integers(0, 100, (*shape, 2)) / 10.0).view(np.complex128)[..., 0]
    if rng.random() < 0.5:  # some batches all 0/1, as in a functor image
        a[: per * 2] = rng.integers(0, 2, a[: per * 2].shape)
    batches = -(-shape[0] // per)
    if spoil is not None:
        at = {"first": 0, "middle": batches // 2, "last": batches - 1}[spoil]
        entry = a[at * per + int(rng.integers(min(per, shape[0] - at * per)))].reshape(-1)
        i = int(rng.integers(entry.size))
        entry[i] = complex(edge, entry[i].imag) if rng.random() < 0.5 else complex(entry[i].real, edge)
    if kind == "quantum":
        return QuantumDesign._from_stack(a), batches
    return CpMap(in_alg=Algebra.commutative(1024), out_alg=Algebra.matrix(4),
                 m=ComplexMatrix._raw(a)), batches


def test_tenths_read_and_write_as_on_the_tree_path(monkeypatch):
    rng = np.random.default_rng(26)
    grids = []  # per batch read or written: whether the digit grid took it

    def spy(real):
        def counted(*args):
            out = real(*args)
            grids.append(out is not None)
            return out
        return counted

    monkeypatch.setattr(catalog, "_digit_grid", spy(catalog._digit_grid))
    monkeypatch.setattr(catalog, "_fixed_text", spy(catalog._fixed_text))
    seen = set()
    for trial in range(48):
        kind = ("quantum", "cpmap")[trial % 2]
        spoil = (None, "first", "middle", "last")[trial // 2 % 4]
        edge = _NOT_FIXED[trial // 8 % len(_NOT_FIXED)]
        obj, batches = _tenths(rng, kind, spoil, edge)
        grids.clear()
        text = dumps(obj)
        to_doc = quantum_to_doc if kind == "quantum" else cpmap_to_doc
        assert text == canonical_json(to_doc(obj)), (kind, spoil, edge)
        got, want = loads(text), _tree_loads(text)
        a, b, c = ((x._stack if kind == "quantum" else x.m.a) for x in (got, want, obj))
        assert a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))
        assert np.array_equal(a.view(np.uint64), c.view(np.uint64))
        # Written, then read: every batch but the spoiled one on the grid, both ways.
        fixed = [batches - (spoil is not None)] * 2
        assert len(grids) == 2 * batches and [sum(grids[:batches]), sum(grids[batches:])] == fixed
        seen.add((kind, spoil, edge if spoil else None))
    assert len(seen) == 2 * (1 + 3 * len(_NOT_FIXED))


def test_functor_image_reads_no_batch_through_json(monkeypatch):
    # Each of the eight batches of the pg2-5 image is a digit grid; json parses
    # only the skeleton.  A conjugated family shows that the count is live.
    calls = []
    real = json.loads

    def counting(s, *args, **kwargs):
        calls.append(isinstance(s, bytes))
        return real(s, *args, **kwargs)

    for design, flat in ((functor_q(gen_projective_plane(5)), 0), (_conjugated_family(5), 8)):
        text = dumps(design)
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(catalog.json, "loads", counting)
            got = loads(text)
        assert _same_value(got, design) and calls.count(False) == 1 and calls.count(True) == flat


def test_huge_and_tiny_entries_render_without_a_numpy_warning():
    a = np.array([[1e308, -1e308], [5e-324, 0.5]]) + 1j * np.array([[0.1, 2.5], [-1e308, 9.9]])
    f = CpMap(in_alg=Algebra.commutative(2), out_alg=Algebra.commutative(2), m=ComplexMatrix._raw(a))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dumps(f) == canonical_json(cpmap_to_doc(f))
        assert _same_value(loads(dumps(f)), f)


def _conjugated_family(d: int):
    """The diagonal family of PG(2, d) conjugated by a seeded Haar unitary, as a QuantumDesign."""
    chi = gen_projective_plane(d).chi.a
    b = chi.shape[1]
    u = _haar(b, np.random.default_rng(d))
    diag = np.zeros((len(chi), b, b), dtype=np.complex128)
    diag[:, np.arange(b), np.arange(b)] = chi
    return QuantumDesign._from_stack(u @ diag @ u.conj().T)


def test_codec_holds_one_batch_of_a_conjugated_family_not_its_tree():
    # 31 projectors of 31 x 31 (pg2-5): 476 kB of stack and about 1.3 MB of
    # text, whose whole tree would take about 4 MB.  loads holds the stack and
    # one batch's tree; dumps holds the text twice (its pieces and their join).
    design = _conjugated_family(5)
    stack_bytes = design._stack.nbytes
    text = dumps(design)
    assert design.b == 31 and len(text) > 2 * stack_bytes
    for call, bound in ((lambda: loads(text), 4 * stack_bytes),
                        (lambda: dumps(design), 2 * len(text) + 2 * stack_bytes)):
        tracemalloc.start()
        try:
            out = call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out == text if isinstance(out, str) else _same_value(out, design)
        assert peak < bound, (peak, bound, stack_bytes)


def _complex_array(obj) -> np.ndarray:
    return obj._stack if isinstance(obj, QuantumDesign) else obj.m.a


def _assert_written_like_the_tree(obj) -> None:
    """dumps(obj) is canonical_json of its tree, and loads of it gives back obj's every bit."""
    text = dumps(obj)
    assert text == canonical_json((quantum_to_doc if isinstance(obj, QuantumDesign) else cpmap_to_doc)(obj))
    got, want = (np.ascontiguousarray(_complex_array(x)) for x in (loads(text), obj))
    assert got.shape == want.shape and np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.fixture
def written(monkeypatch):
    """Per batch dumps writes: "grid", or (distinct numbers in it, numbers json rendered for it)."""
    out, rendered = [], []
    real_fixed, real_table, real_encode = catalog._fixed_text, catalog._table_text, catalog._CANONICAL.encode

    def fixed(a):
        text = real_fixed(a)
        if text is not None:
            out.append("grid")
        return text

    def table(a):
        rendered.clear()
        text = real_table(a)
        out.append((np.unique(np.ascontiguousarray(a).view(np.uint64)).size, sum(rendered)))
        return text

    def encode(o):
        rendered.append(len(o) if isinstance(o, list) else 0)
        return real_encode(o)

    monkeypatch.setattr(catalog, "_fixed_text", fixed)
    monkeypatch.setattr(catalog, "_table_text", table)
    monkeypatch.setattr(catalog._CANONICAL, "encode", encode)
    return out


def test_each_distinct_number_of_a_batch_is_rendered_once(written):
    # MUB families and their tensor products repeat a few values; a functor
    # image takes the grid, and a conjugated family's numbers are mostly distinct.
    mubs = [mub_generate(d, d + 1).design for d in (2, 3, 5, 7, 11, 13)]
    cases = [*mubs, tensor_q(mubs[0], mubs[1]), functor_q(gen_projective_plane(5)), _conjugated_family(5)]
    for obj in cases:
        written.clear()
        _assert_written_like_the_tree(obj)
        a = _complex_array(obj)
        if obj is cases[-2]:
            assert written == ["grid"] * len(written) and len(written) == 8
            continue
        assert all(entry != "grid" and entry[0] == entry[1] for entry in written), written
        assert len(written) == -(-len(a) // max(1, catalog._BATCH_ENTRIES // a[0].size))
        distinct = sum(n for n, _ in written)
        if obj is cases[-1]:
            assert distinct > a.size  # of 2 * a.size numbers
        elif obj.b >= 5:
            assert distinct * 20 < a.size, (obj.b, distinct)


# Values that json spells in full: both zeros, the least subnormal and normal, the
# extremes and a decimal with no exact binary64.
_FEW_VALUES = (-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1e308, 0.1)


def test_seeded_arrays_drawn_from_few_values_are_written_like_the_tree():
    rng = np.random.default_rng(27)
    pool = np.array(_FEW_VALUES)
    for trial in range(60):
        values = rng.choice(pool, int(rng.integers(1, len(pool) + 1)), replace=False)
        if trial % 2 == 0:
            b = int(rng.integers(1, 30))
            a = rng.choice(values, (int(rng.integers(1, 40)), b, b, 2))
            obj = QuantumDesign._from_stack(a.view(np.complex128)[..., 0])
        else:  # as built, in Fortran order, or one row longer than a batch in Fortran order
            n_in = int(rng.choice([3, 700, catalog._BATCH_ENTRIES + 1]))
            m = rng.choice(values, (int(rng.integers(1, 9)), n_in, 2)).view(np.complex128)[..., 0]
            if trial % 4 == 1:
                m = np.asfortranarray(m)
            obj = CpMap(in_alg=Algebra.commutative(n_in), out_alg=Algebra.commutative(len(m)),
                        m=ComplexMatrix._raw(m))
        _assert_written_like_the_tree(obj)


def test_a_non_finite_number_is_refused_as_json_refuses_it():
    # No design or map holds one, but the table writer keeps json's refusal.
    for bad in (float("nan"), float("inf"), -float("inf")):
        a = np.zeros((3, 4, 4), dtype=np.complex128)
        a[1, 2, 3] = complex(0.5, bad)
        with pytest.raises(ValueError) as tree:
            canonical_json(catalog._complex_doc(a))
        with pytest.raises(ValueError) as got:
            catalog._table_text(a)
        assert str(got.value) == str(tree.value)


def test_batches_that_alternate_between_grid_and_table_are_written_like_the_tree(written):
    # Each batch is tenths (the grid), a few values or random normals (the table).
    rng = np.random.default_rng(127)
    for kind in ("quantum", "cpmap"):
        shape, per = ((int(rng.integers(49, 90)), 16, 16), 16) if kind == "quantum" else ((16, 1024), 4)
        a = np.empty(shape, dtype=np.complex128)
        kinds = []
        for lo in range(0, shape[0], per):
            part = a[lo:lo + per].view(np.float64)
            kinds.append(("grid", "few", "distinct")[int(rng.integers(3))])
            if kinds[-1] == "grid":
                part[:] = rng.integers(0, 100, part.shape) / 10.0
            elif kinds[-1] == "few":
                part[:] = rng.choice(np.array(_FEW_VALUES), part.shape)
            else:
                part[:] = rng.standard_normal(part.shape)
        obj = (QuantumDesign._from_stack(a) if kind == "quantum" else
               CpMap(in_alg=Algebra.commutative(1024), out_alg=Algebra.matrix(4), m=ComplexMatrix._raw(a)))
        written.clear()
        _assert_written_like_the_tree(obj)
        assert [w if w == "grid" else "few" if w[1] <= len(_FEW_VALUES) else "distinct"
                for w in written] == kinds
        assert all(w == "grid" or w[0] == w[1] for w in written)


# Entries at the edges of each decimal width the renderer lays out: 9/10,
# 99/100, the largest int64 and, as Python ints, the first values beyond it.
_INT64_EDGES = (0, 1, 9, 10, 99, 100, 999, 1000, 10**18 - 1, 10**18, 2**63 - 1)
_BEYOND_INT64 = (2**63, 2**64, 10**19, 10**25, 10**40 - 1, 10**40)


def _seeded_incidences(rng):
    """(kind, entries) for seeded incidence matrices of every shape and width."""
    shapes = ((1, 1), (1, None), (None, 1), (None, None))
    for trial in range(120):
        v, b = (int(rng.integers(1, 13)) if n is None else n for n in shapes[trial % 4])
        kind = ("zero-one", "all-zero", "small", "edges", "wide", "beyond-int64")[trial % 6]
        if kind == "zero-one":
            yield kind, rng.integers(0, 2, (v, b)).tolist()
        elif kind == "all-zero":
            yield kind, [[0] * b for _ in range(v)]
        elif kind == "small":
            yield kind, rng.integers(0, 12, (v, b)).tolist()
        elif kind == "edges":
            yield kind, rng.choice(np.array(_INT64_EDGES), (v, b)).tolist()
        elif kind == "wide":  # every width from 1 to 19 digits
            yield kind, (rng.integers(0, 2**63 - 1, (v, b)) // 10 ** rng.integers(0, 19, (v, b))).tolist()
        else:
            rows = [[int(x) for x in rng.choice(np.array(_INT64_EDGES[:6]), b)] for _ in range(v)]
            rows[int(rng.integers(v))][int(rng.integers(b))] = _BEYOND_INT64[trial // 6 % len(_BEYOND_INT64)]
            yield kind, rows


def test_dumps_renders_classical_designs_like_canonical_json_of_the_doc():
    rng = np.random.default_rng(22)
    small = ClassicalDesign(NatMatrix([[1, 0], [1, 1], [0, 1]]))
    checked, kinds, widths = 0, set(), set()
    for kind, rows in _seeded_incidences(rng):
        design = ClassicalDesign(NatMatrix(rows))
        a = design.chi.a
        # dual's transpose, column and row slices, and Fortran order are all views
        # or layouts the renderer reads without a copy of its own.
        layouts = {"as built": design, "dual": dual(design), "tensor": tensor(design, small),
                   "fortran": ClassicalDesign(NatMatrix._raw(np.asfortranarray(a)))}
        if a.shape[1] > 1:
            layouts["columns"] = ClassicalDesign(NatMatrix._raw(a[:, 1:]))
        if a.shape[0] > 2:
            layouts["every other row"] = ClassicalDesign(NatMatrix._raw(a[::2]))
        for layout, d in layouts.items():
            want = oracle_dumps(d)
            assert dumps(d) == want, (kind, layout, want)
            checked += 1
            kinds.add((kind, d.chi.a.dtype == object))
            widths.add(len(str(max(max(row) for row in d.chi.tolist()))))
    assert checked >= 500, checked
    assert {("zero-one", False), ("all-zero", False), ("edges", False), ("wide", False),
            ("beyond-int64", True)} <= kinds, kinds
    assert {1, 2, 3, 19, 20, 26} <= widths, sorted(widths)


def test_bundled_catalog_matches_build_script(tmp_path):
    # Run the script as its README line does, from a checkout without an
    # installed designkit, with DATA rebound to a scratch directory.
    root = pathlib.Path(__file__).resolve().parent.parent
    rebind_and_run = (
        "import importlib.util, pathlib, sys\n"
        "spec = importlib.util.spec_from_file_location('build_catalog', sys.argv[1])\n"
        "module = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(module)\n"
        "module.DATA = pathlib.Path(sys.argv[2])\n"
        "module.main()\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    subprocess.run(
        [sys.executable, "-c", rebind_and_run, str(root / "tools" / "build_catalog.py"), str(tmp_path)],
        cwd=tmp_path, env=env, check=True, capture_output=True,
    )
    bundled = root / "src" / "designkit" / "data"
    names = sorted(p.name for p in bundled.glob("*.json"))
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == (bundled / name).read_bytes(), name
