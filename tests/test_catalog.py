import gc
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

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
from designkit.cpmaps import Algebra, CpMap, verify_cp_design
from designkit.linalg import DEFAULT_TOL, ComplexMatrix, NatMatrix
from designkit.quantum import QuantumDesign, _batch_size, classify_quantum, mub_generate, mub_verify
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


COLLECTOR_CALLS = {
    "loads": lambda: loads(dumps(gen_projective_plane(2))),
    "loads-invalid-json": lambda: loads("{not json"),
    "loads-bad-entry": lambda: loads('{"schema":"classical-design/1","v":1,"b":1,'
                                     '"incidence":[[-1]]}'),
    "dumps": lambda: dumps(mub_verify(mub_generate(3, 4)).design),
}


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("call", list(COLLECTOR_CALLS))
def test_codec_pauses_the_cycle_collector_and_restores_its_state(monkeypatch, call, enabled):
    # The parse and the render each run with the collector off.
    seen = []
    for owner, name in ((catalog.json, "loads"), (catalog, "canonical_json")):
        def spy(text, real=getattr(owner, name)):
            seen.append(gc.isenabled())
            return real(text)
        monkeypatch.setattr(owner, name, spy)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        try:
            COLLECTOR_CALLS[call]()
        except FormatError:
            assert call.startswith("loads-")
        else:
            assert not call.startswith("loads-")
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen and not any(seen)


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
    taken = []  # what _canonical_design returned for each text: None sends it the general way

    def spy(text, real=catalog._canonical_design):
        taken.append(real(text))
        return taken[-1]

    monkeypatch.setattr(catalog, "_canonical_design", spy)
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
