"""Bit-exact JSON file formats and the bundled catalog of known designs.

Four schemas, all canonical JSON (sorted keys, compact separators, LF,
trailing newline, shortest round-trip rendering of binary64):

* ``classical-design/1``: v, b, and the integer incidence matrix.
* ``quantum-design/1``: dim and the projector list; every complex entry is a
  two-element ``[re, im]`` array.
* ``cp-map/1``: input/output algebra descriptors plus the superoperator
  matrix in the same ``[re, im]`` encoding.
* ``design-report/1``: emitted by the CLI; input digest, detected
  parameters, per-check verdicts, tool version.

Parsing is strict: wrong schema, ragged rows, unexpected types, non-finite
numbers and integers beyond binary64 all raise :class:`FormatError` with a
position.  Each matrix is checked and converted in bulk: one type scan, then
one numpy conversion, with the sign or finiteness checked on the converted
array.  A projector family converts in batches of whole projectors.  Only a
refused matrix or batch is walked, projector by projector and entry by
entry, to find the position of its first fault.

A classical document whose incidence is written canonically (no whitespace,
every entry one decimal digit, as every 0/1 design designkit renders) builds
no tree for it (``_canonical_design``): json parses the text with its first
``[`` to last ``]`` cut out, the cut is checked against its one possible
layout as bytes, and numpy reads its digits from one byte buffer.  Any other
text, and every error, goes the general way above, with the same messages.

Rendering gives ``canonical_json`` of the document tree for every schema.
A classical document is written straight from the integer array, digit by
digit in numpy (``_classical_text``), without building the tree; the other
schemas go through ``canonical_json``, which skips json's cycle check
because every value rendered is a tree this package built.
"""

from __future__ import annotations

import functools
import gc
import json
import math
import sys
from importlib import resources
from itertools import chain
from typing import NoReturn

import numpy as np

from .classical import ClassicalDesign
from .cpmaps import COMMUTATIVE, MATRIX, Algebra, CpMap
from .linalg import ComplexMatrix, NatMatrix
from .quantum import QuantumDesign, _batch_size

__all__ = [
    "SCHEMA_CLASSICAL",
    "SCHEMA_QUANTUM",
    "SCHEMA_CPMAP",
    "SCHEMA_REPORT",
    "FormatError",
    "canonical_json",
    "classical_to_doc",
    "classical_from_doc",
    "quantum_to_doc",
    "quantum_from_doc",
    "cpmap_to_doc",
    "cpmap_from_doc",
    "dumps",
    "loads",
    "catalog_names",
    "catalog_expected",
    "catalog_get",
    "catalog_text",
]

SCHEMA_CLASSICAL = "classical-design/1"
SCHEMA_QUANTUM = "quantum-design/1"
SCHEMA_CPMAP = "cp-map/1"
SCHEMA_REPORT = "design-report/1"


class FormatError(ValueError):
    """Malformed document: wrong schema, shape, type, or non-finite number."""


def canonical_json(doc) -> str:
    """Render a JSON-compatible value canonically (deterministic bytes).

    ``doc`` must be acyclic: json's per-container cycle check is skipped, so a
    cycle ends in RecursionError.  Every value designkit renders is a tree it
    built itself, and the check took about a third of rendering a large
    projector family.
    """
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False,
                      check_circular=False) + "\n"


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise FormatError(msg)


def _get(doc: dict, key: str, where: str):
    _require(isinstance(doc, dict), f"{where}: expected an object")
    _require(key in doc, f"{where}: missing key {key!r}")
    return doc[key]


def _nat(x, where: str) -> int:
    _require(isinstance(x, int) and not isinstance(x, bool) and x >= 0,
             f"{where}: expected a nonnegative integer, got {x!r}")
    return x


def _real(x, where: str) -> float:
    _require(isinstance(x, (int, float)) and not isinstance(x, bool),
             f"{where}: expected a number, got {x!r}")
    try:
        val = float(x)
    except OverflowError:
        raise FormatError(f"{where}: number out of binary64 range") from None
    _require(math.isfinite(val), f"{where}: non-finite number")
    return val


def _complex_entry(x, where: str) -> None:
    _require(isinstance(x, list) and len(x) == 2, f"{where}: expected [re, im]")
    _real(x[0], where + "[0]")
    _real(x[1], where + "[1]")


def _only(items, kinds) -> bool:
    # isinstance(x, kinds) and not a bool, for every x, decided once per type.
    return all(issubclass(t, kinds) and not issubclass(t, bool) for t in set(map(type, items)))


def _entries(rows, nrows: int, ncols: int) -> list | None:
    """The entries of ``rows`` in row-major order if it is nrows lists of ncols, else None."""
    if isinstance(rows, list) and len(rows) == nrows and _only(rows, list) \
            and set(map(len, rows)) <= {ncols}:
        return list(chain.from_iterable(rows))
    return None


def _rows_error(rows, nrows: int, ncols: int, where: str, entry) -> NoReturn:
    """Raise the FormatError of the first fault in a matrix the bulk check refused.

    ``entry(x, position)`` raises for a bad entry.
    """
    _require(isinstance(rows, list) and len(rows) == nrows,
             f"{where}: expected {nrows} rows, got {len(rows) if isinstance(rows, list) else type(rows).__name__}")
    for i, row in enumerate(rows):
        _require(isinstance(row, list) and len(row) == ncols,
                 f"{where} row {i} has {len(row) if isinstance(row, list) else '?'} entries, expected {ncols}")
        for j, x in enumerate(row):
            entry(x, f"{where}[{i}][{j}]")
    raise AssertionError(f"{where}: the bulk check refused a matrix the entry walk accepts")


def _complex_rows(rows, nrows: int, ncols: int, where: str) -> np.ndarray:
    """An nrows x ncols matrix of [re, im] pairs, converted to binary64 in one step."""
    # The entries are themselves nrows * ncols lists of 2; None if misshapen.
    leaves = _entries(_entries(rows, nrows, ncols), nrows * ncols, 2)
    if leaves is not None and _only(leaves, (int, float)):
        try:
            re_im = np.fromiter(leaves, np.float64, count=len(leaves))
        except OverflowError:  # an integer literal beyond binary64
            pass
        else:
            if np.isfinite(re_im).all():
                return re_im.view(np.complex128).reshape(nrows, ncols)
    _rows_error(rows, nrows, ncols, where, _complex_entry)


def _complex_doc(a: np.ndarray) -> list:
    """Nested lists of ``[re, im]`` pairs, one list level per axis of ``a``."""
    return np.stack([a.real, a.imag], -1).tolist()


def classical_to_doc(design: ClassicalDesign) -> dict:
    return {
        "schema": SCHEMA_CLASSICAL,
        "v": design.v,
        "b": design.b,
        "incidence": design.chi.tolist(),
    }


def _classical_text(design: ClassicalDesign) -> str:
    """``canonical_json(classical_to_doc(design))``, written from the integer array.

    The decimal digits of every entry are formed in numpy, one place value at
    a time, in one byte buffer that also holds the brackets and commas; a mask
    drops each entry's leading zeros.  An object array (entries beyond int64)
    takes the same steps on Python ints.
    """
    a = design.chi.a
    v, b = a.shape
    width = len(str(a.max()))
    # Row i: "[", each entry's `width` digits and "," ("]" after the row's last),
    # then "," ("]" after the last row).
    text = np.full((v, b * (width + 1) + 2), ord(","), np.uint8)
    text[:, 0] = ord("[")
    text[-1, -1] = ord("]")
    cells = text[:, 1:-1].reshape(v, b, width + 1)
    cells[:, -1, -1] = ord("]")
    if width > 1:  # one-digit entries, as in any 0/1 matrix, have no leading zeros to drop
        keep = np.ones(text.shape, bool)
        significant = keep[:, 1:-1].reshape(v, b, width + 1)
    q = a
    for k in range(width - 1, 0, -1):  # the digit of place 10**(width - 1 - k)
        np.add(q % 10, ord("0"), out=cells[:, :, k], casting="unsafe")
        q = q // 10
        significant[:, :, k - 1] = q > 0
    np.add(q, ord("0"), out=cells[:, :, 0], casting="unsafe")  # the leading place: q < 10
    rows = text[keep] if width > 1 else text
    return (f'{{"b":{b},"incidence":[{rows.tobytes().decode("ascii")},'
            f'"schema":"{SCHEMA_CLASSICAL}","v":{v}}}\n')


_ZERO_DIGITS = bytes.maketrans(b"123456789", b"000000000")
_DIGIT_VALUES = bytes.maketrans(b"0123456789", bytes(range(10)))


def _canonical_design(text: str) -> ClassicalDesign | None:
    """The design of a classical document whose incidence is canonical one-digit text, else None.

    The skeleton is ``text`` with everything from its first ``[`` to its last
    ``]`` (the cut) replaced by ``[]``.  It holds no other ``[`` that a ``]``
    closes, so if its top-level ``incidence`` is a list, that list is the cut.
    The cut's length must be ``v (2b + 2) + 1``, checked before anything is
    allocated.  With every digit mapped to ``0`` it must then equal
    ``[[0,...,0],...,[0,...,0]]``; the digits, with the brackets and commas
    deleted, are the row-major entries, read by numpy from one byte buffer.
    """
    first, last = text.find("["), text.rfind("]")
    if first < 0:
        return None
    try:
        doc = json.loads(text[:first] + "[]" + text[last + 1:])
    except (ValueError, RecursionError):  # the full parse reports it
        return None
    if not (isinstance(doc, dict) and doc.get("schema") == SCHEMA_CLASSICAL
            and isinstance(doc.get("incidence"), list)):
        return None
    v, b = doc.get("v"), doc.get("b")
    if not (type(v) is int and type(b) is int and v >= 1 and b >= 1
            and last - first == v * (2 * b + 2)):
        return None
    cut = text[first:last + 1].encode("ascii", "replace")  # never raises: non-ASCII is "?"
    row = b"[" + b"0," * (b - 1) + b"0]"
    if cut.translate(_ZERO_DIGITS) != b"[" + b",".join([row] * v) + b"]":
        return None
    digits = np.frombuffer(cut.translate(_DIGIT_VALUES, b"[],"), np.uint8)
    return ClassicalDesign(NatMatrix._raw(digits.astype(np.int64).reshape(v, b)))


def classical_from_doc(doc: dict) -> ClassicalDesign:
    _require(_get(doc, "schema", "document") == SCHEMA_CLASSICAL,
             f"schema mismatch: expected {SCHEMA_CLASSICAL!r}")
    v = _nat(_get(doc, "v", "document"), "v")
    b = _nat(_get(doc, "b", "document"), "b")
    _require(v >= 1 and b >= 1, "v and b must be >= 1")
    rows = _get(doc, "incidence", "document")
    entries = _entries(rows, v, b)
    # The type scan comes first: numpy would truncate 1.5 and take True or "1".
    if entries is not None and _only(entries, int):
        m = NatMatrix._from_ints(entries, (v, b))  # None if some entry is negative
        if m is not None:
            return ClassicalDesign(m)
    _rows_error(rows, v, b, "incidence", _nat)


def quantum_to_doc(design: QuantumDesign) -> dict:
    return {
        "schema": SCHEMA_QUANTUM,
        "dim": design.b,
        "projectors": _complex_doc(design._stack),
    }


def quantum_from_doc(doc: dict) -> QuantumDesign:
    _require(_get(doc, "schema", "document") == SCHEMA_QUANTUM,
             f"schema mismatch: expected {SCHEMA_QUANTUM!r}")
    dim = _nat(_get(doc, "dim", "document"), "dim")
    _require(dim >= 1, "dim must be >= 1")
    raw = _get(doc, "projectors", "document")
    _require(isinstance(raw, list) and len(raw) >= 1, "projectors: expected a nonempty list")
    # A short document must not allocate a stack it does not hold: shape first.
    rows = _entries(raw, len(raw), dim)
    if rows is None or not _only(rows, list) or set(map(len, rows)) != {dim}:
        for i, p in enumerate(raw):
            _complex_rows(p, dim, dim, f"projectors[{i}]")
    stack = np.empty((len(raw), dim, dim), dtype=np.complex128)
    step = _batch_size(dim)
    for lo in range(0, len(raw), step):
        batch = stack[lo : lo + step]
        try:  # the batch's rows, one after another, as one (len(batch) * dim) x dim matrix
            batch[:] = _complex_rows(rows[lo * dim : (lo + step) * dim], len(batch) * dim, dim,
                                     "projectors").reshape(batch.shape)
        except FormatError:  # name the first refused projector, not the batch
            for i in range(lo, lo + len(batch)):
                _complex_rows(raw[i], dim, dim, f"projectors[{i}]")
            raise
    return QuantumDesign._from_stack(stack)


def _algebra_to_doc(alg: Algebra) -> dict:
    return {"kind": alg.kind, "n": alg.n}


def _algebra_from_doc(doc, where: str) -> Algebra:
    kind = _get(doc, "kind", where)
    _require(kind in (COMMUTATIVE, MATRIX), f"{where}: unknown algebra kind {kind!r}")
    n = _nat(_get(doc, "n", where), where + ".n")
    _require(n >= 1, f"{where}: algebra dimension must be >= 1")
    return Algebra(kind=kind, n=n)


def cpmap_to_doc(f: CpMap) -> dict:
    return {
        "schema": SCHEMA_CPMAP,
        "convention": f.convention,
        "in": _algebra_to_doc(f.in_alg),
        "out": _algebra_to_doc(f.out_alg),
        "matrix": _complex_doc(f.m.a),
    }


def cpmap_from_doc(doc: dict) -> CpMap:
    _require(_get(doc, "schema", "document") == SCHEMA_CPMAP,
             f"schema mismatch: expected {SCHEMA_CPMAP!r}")
    convention = _get(doc, "convention", "document")
    _require(convention == "superoperator", f"unsupported convention {convention!r}")
    in_alg = _algebra_from_doc(_get(doc, "in", "document"), "in")
    out_alg = _algebra_from_doc(_get(doc, "out", "document"), "out")
    m = _complex_rows(
        _get(doc, "matrix", "document"), out_alg.coord_dim, in_alg.coord_dim, "matrix"
    )
    return CpMap(in_alg=in_alg, out_alg=out_alg, m=ComplexMatrix(m))


def _collector_paused(fn):
    # Document trees are acyclic, so collections while one is built or walked free nothing;
    # the collector resumes once fn has returned, when the tree is gone and none need scan it.
    @functools.wraps(fn)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()
    return paused


@_collector_paused
def dumps(obj) -> str:
    """Canonical document text for a design or map object."""
    if isinstance(obj, ClassicalDesign):
        return _classical_text(obj)
    if isinstance(obj, QuantumDesign):
        return canonical_json(quantum_to_doc(obj))
    if isinstance(obj, CpMap):
        return canonical_json(cpmap_to_doc(obj))
    raise TypeError(f"cannot serialize {type(obj).__name__}")


@_collector_paused
def loads(text: str):
    """Parse a document, dispatching on its schema field."""
    design = _canonical_design(text)
    if design is not None:
        return design
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise FormatError("invalid JSON: nested too deeply") from None
    except ValueError:  # json's only other error: an integer literal past the digit limit
        raise FormatError("invalid JSON: an integer literal has more than "
                          f"{sys.get_int_max_str_digits()} digits") from None
    _require(isinstance(doc, dict), "document: expected an object")
    schema = _get(doc, "schema", "document")
    if schema == SCHEMA_CLASSICAL:
        return classical_from_doc(doc)
    if schema == SCHEMA_QUANTUM:
        return quantum_from_doc(doc)
    if schema == SCHEMA_CPMAP:
        return cpmap_from_doc(doc)
    raise FormatError(f"unknown schema {schema!r}")


# name -> (data file, expected parameters confirmed by classification)
_CATALOG: dict[str, tuple[str, dict]] = {
    "fano": ("fano.json", {"v": 7, "b": 7, "k": 3, "r": 3, "lam": 1}),
    "pg2-3": ("pg2-3.json", {"v": 13, "b": 13, "k": 4, "r": 4, "lam": 1}),
    "pg2-5": ("pg2-5.json", {"v": 31, "b": 31, "k": 6, "r": 6, "lam": 1}),
    "complete-3-2": ("complete-3-2.json", {"v": 3, "b": 3, "k": 2, "r": 2, "lam": 1}),
    "mub-2-2": (
        "mub-2-2.json",
        {"v": 4, "b": 2, "r": 1, "k": 2.0, "degree": 2, "lam_set": (0.0, 0.5)},
    ),
    "mub-3-4": (
        "mub-3-4.json",
        {"v": 12, "b": 3, "r": 1, "k": 4.0, "degree": 2, "lam_set": (0.0, 1.0 / 3.0)},
    ),
    "cp-k2r2": ("cp-k2r2.json", {"k": 2.0, "r": 2.0}),
}


def catalog_names() -> list[str]:
    return sorted(_CATALOG)


def _entry(name: str) -> tuple[str, dict]:
    if name not in _CATALOG:
        raise ValueError(f"unknown catalog entry {name!r} "
                         f"(available: {', '.join(catalog_names())})")
    return _CATALOG[name]


def catalog_expected(name: str) -> dict:
    """Parameters recorded for a catalog entry (copy)."""
    return dict(_entry(name)[1])


def catalog_text(name: str) -> str:
    """Raw canonical document text of a catalog entry."""
    fname = _entry(name)[0]
    return resources.files(__package__).joinpath("data", fname).read_text(encoding="utf-8")


def catalog_get(name: str):
    """Load a bundled catalog entry by name."""
    return loads(catalog_text(name))
