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
position.  Canonical text is read fast, from the text (below).  Any other
text goes the general way: ``json.loads`` builds its tree, and each matrix is
walked once, row by row and entry by entry in document order, raising at the
first fault; its numbers are then converted by numpy in one step
(``_complex_rows``, ``classical_from_doc``).  A projector family is walked
projector by projector.  Such text is read exactly, but more slowly.

Each document has one large list: the incidence, the projectors or the
matrix.  ``loads`` first parses the skeleton, the text with everything from
its first ``[`` to its last ``]`` (the cut) replaced by ``[]`` (``_streamed``).
If the large list's key holds that placeholder, the cut is the list, and a
canonical one (no whitespace, as designkit renders it) is read from the text
without a tree.  Its layout is checked as bytes.  A one-digit incidence, and
a batch of whole projectors or matrix rows whose every number is ``d.d`` (as
in a ``functor_q`` image), is a fixed-width grid: with every digit mapped to
``0`` it equals one layout, and numpy reads its digits from one byte buffer
(``_digit_grid``).  Any other batch, its numerals deleted, must equal the
layout of its shape, and json reads it as one flat list of numbers.  Any
other text, and every error, goes the general way above, with the same
messages.

Rendering gives ``canonical_json`` of the document tree for every schema,
and builds that tree for none.  A classical document is written straight
from the integer array, digit by digit in numpy (``_classical_text``).  A
quantum or CP-map document joins its complex array's batches between the
fixed text of its other keys (``_complex_text``).  A batch of numbers from
0.0 to 9.9 (a ``functor_q`` image, a ``classical_to_cp`` map) is a grid of
digits (``_fixed_text``).  Any other (a MUB family, a conjugated family, a
channel) is written from a table of its distinct numbers, each rendered by
json once (``_table_text``).  The encoder skips json's cycle check, because
every value rendered is a tree this package built.
"""

from __future__ import annotations

import json
import math
import re
import sys
from importlib import resources
from itertools import chain, islice

import numpy as np

from .classical import ClassicalDesign
from .cpmaps import COMMUTATIVE, MATRIX, Algebra, CpMap
from .linalg import ComplexMatrix, NatMatrix
from .quantum import QuantumDesign

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


# The encoder of canonical_json, and of each batch of a rendered complex array.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False,
                              check_circular=False)

# Complex entries per codec batch, about one pg2-7 projector (57 x 57): the
# parse holds one batch's text, bytes and numbers at a time.
_BATCH_ENTRIES = 1 << 12


def canonical_json(doc) -> str:
    """Render a JSON-compatible value canonically (deterministic bytes).

    ``doc`` must be acyclic: json's per-container cycle check is skipped, so a
    cycle ends in RecursionError.  Every value designkit renders is a tree it
    built itself, and the check took about a third of rendering a large
    projector family.
    """
    return _CANONICAL.encode(doc) + "\n"


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


def _rows(rows, nrows: int, ncols: int, where: str):
    """(i, row) for each row of ``rows``, checked in document order to be nrows lists of ncols."""
    if not (isinstance(rows, list) and len(rows) == nrows):
        raise FormatError(f"{where}: expected {nrows} rows, got "
                          f"{len(rows) if isinstance(rows, list) else type(rows).__name__}")
    for i, row in enumerate(rows):
        if not (isinstance(row, list) and len(row) == ncols):
            raise FormatError(f"{where} row {i} has {len(row) if isinstance(row, list) else '?'} "
                              f"entries, expected {ncols}")
        yield i, row


def _complex_rows(rows, nrows: int, ncols: int, where: str) -> np.ndarray:
    """An nrows x ncols matrix of [re, im] pairs: each entry checked in document order,
    then all converted to binary64 in one step."""
    for i, row in _rows(rows, nrows, ncols, where):
        for j, x in enumerate(row):
            # A pair of finite floats needs no call; the sum of two huge ones may
            # overflow, and then the call accepts them.
            if not (type(x) is list and len(x) == 2 and type(x[0]) is float
                    and type(x[1]) is float and math.isfinite(x[0] + x[1])):
                _complex_entry(x, f"{where}[{i}][{j}]")
    leaves = chain.from_iterable(chain.from_iterable(rows))
    return np.fromiter(leaves, np.float64, count=2 * nrows * ncols).view(np.complex128).reshape(nrows, ncols)


def _complex_doc(a: np.ndarray) -> list:
    """Nested lists of ``[re, im]`` pairs, one list level per axis of ``a``."""
    return np.stack([a.real, a.imag], -1).tolist()


def _parts(a: np.ndarray):
    """(lo, a[lo:hi]): ``a`` cut along its first axis into parts of about ``_BATCH_ENTRIES`` entries."""
    step = max(1, _BATCH_ENTRIES // a[0].size)
    for lo in range(0, len(a), step):
        yield lo, a[lo : lo + step]


def _fixed_text(a: np.ndarray) -> str | None:
    """``_CANONICAL.encode(_complex_doc(a))`` if its every number is d.d (0.0 to 9.9, not -0.0), else None.

    ``_layout(b"0.0", ...)`` with the digits written in: each list is ``[`` and
    its elements, each followed by one byte, so each axis is one reshape of a view.
    """
    f = np.stack([a.real, a.imag], -1)
    n = np.rint(f * 10) if 0 <= f.min() <= f.max() < 10 else None  # so f * 10 cannot overflow
    if n is None or not (n / 10 == f).all() or np.signbit(f).any():
        return None
    text = leaves = np.frombuffer(_layout(b"0.0", f.shape), np.uint8).copy()
    for k in f.shape:
        leaves = leaves[..., 1:].reshape(*leaves.shape[:-1], k, -1)[..., :-1]
    leaves[..., ::2] = np.stack(np.divmod(n.astype(np.uint8), 10), -1) + ord("0")
    return text.tobytes().decode("ascii")


def _table_text(a: np.ndarray) -> str:
    """``_CANONICAL.encode(_complex_doc(a))``, each distinct number rendered once.

    The numbers, real and imaginary parts in row-major order, are told apart by
    their bits, so ``-0.0`` is not ``0.0``.  json renders the distinct ones (and
    refuses a non-finite one); their text is interleaved with the brackets and
    commas that the shape fixes.  ``np.unique`` takes a 1-D view: with ``axis``
    it would import ``numpy.ma``.
    """
    values, inverse = np.unique(np.ascontiguousarray(a).reshape(-1).view(np.uint64),
                                return_inverse=True)
    reprs = _CANONICAL.encode(values.view(np.float64).tolist())[1:-1].split(",")
    seps, depth = [","], 1  # the text after each number but the last, in the innermost lists
    for n in reversed(a.shape):  # n lists of depth `depth`, apart by "]" * depth + "," + "[" * depth
        seps = (seps + ["]" * depth + "," + "[" * depth]) * n
        seps.pop()
        depth += 1
    tokens = [None] * (2 * len(inverse) - 1)
    tokens[::2] = map(reprs.__getitem__, inverse.tolist())
    tokens[1::2] = seps
    return "[" * depth + "".join(tokens) + "]" * depth


def _complex_text(doc: dict, key: str, a: np.ndarray) -> str:
    """``canonical_json({**doc, key: _complex_doc(a)})``, rendered a batch of ``a`` at a time."""
    parts = []
    for k in sorted([*doc, key]):
        parts.append(("," if parts else "{") + _CANONICAL.encode(k) + ":")
        if k != key:
            parts.append(_CANONICAL.encode(doc[k]))
            continue
        for lo, part in _parts(a):  # each part's list, less its brackets
            text = _fixed_text(part) or _table_text(part)
            parts.append(("," if lo else "[") + text[1:-1])
        parts.append("]")
    parts.append("}\n")
    return "".join(parts)


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
_NUMERALS = b"0123456789.-+eE"  # every character a JSON number can hold
_BRACKETS_AS_SPACES = bytes.maketrans(b"[]", b"  ")
_EMPTY_RE, _EMPTY_IM = re.compile(rb"\[,"), re.compile(rb",\]")  # an [re, im] slot with no number


def _layout(leaf: bytes, shape: tuple) -> bytes:
    """Canonical JSON of nested lists of the given shape, with every innermost element ``leaf``."""
    for n in reversed(shape):
        leaf = b"[" + b",".join([leaf] * n) + b"]"
    return leaf


def _digit_grid(text: str, lo: int, hi: int, leaf: bytes, shape: tuple) -> np.ndarray | None:
    """The digits of ``text[lo:hi]`` if it is ``_layout(leaf, shape)`` less its outer brackets
    with any digits for the leaf's zeros, else None (in O(1) when the length differs)."""
    size = len(leaf)
    for n in reversed(shape):
        size = n * (size + 1) + 1
    if hi - lo != size - 2:
        return None
    cut = text[lo:hi].encode("ascii", "replace")  # never raises: non-ASCII is "?"
    if cut.translate(_ZERO_DIGITS) != b",".join([_layout(leaf, shape[1:])] * shape[0]):
        return None
    return np.frombuffer(cut.translate(_DIGIT_VALUES, b"[],."), np.uint8)


def _canonical_design(text: str, doc: dict, first: int, last: int) -> ClassicalDesign | None:
    """The design of a classical document whose incidence, the cut, is canonical one-digit text.

    With every digit mapped to ``0`` the cut must equal ``[[0,...,0],...,[0,...,0]]``;
    its digits are the row-major entries.
    """
    v, b = doc.get("v"), doc.get("b")
    digits = (_digit_grid(text, first + 1, last, b"0", (v, b))
              if type(v) is int and type(b) is int and v >= 1 and b >= 1 else None)
    return None if digits is None else ClassicalDesign(NatMatrix._raw(digits.astype(np.int64).reshape(v, b)))


def _canonical_complex(text: str, first: int, last: int, shape: tuple) -> np.ndarray:
    """The complex array of ``shape`` that the cut spells canonically (``shape[0]`` None: any length).

    Each element of the list ends where ``]`` closes its last entry and all
    its axes at once, and each but the last is followed by a comma.  The list
    is read a batch of whole elements at a time.  With its numerals deleted, a
    batch's text must equal the layout its shape fixes (``[[,],...],...``),
    and it may hold no ``[,`` or ``,]``, so every [re, im] slot holds one run
    of numerals and no other place holds any.  json reads the batch, its
    brackets turned into spaces, as one flat list of numbers, so JSON's number
    grammar decides what a number is.  Other text raises ValueError, json's
    errors or OverflowError (an integer beyond binary64).
    """
    inner = shape[1:]
    closes = re.compile(r"\]" * len(shape))
    room = (last - first) // (6 * math.prod(inner))  # "[0,0]," is the shortest entry
    bounds = [first, *(m.end() for m in islice(closes.finditer(text, first, last), room + 1))]
    if not (1 < len(bounds) <= room + 1 and bounds[-1] == last and shape[0] in (None, len(bounds) - 1)):
        raise ValueError(f"not a list of at most {room} canonical arrays of shape {inner}")
    out = np.empty((len(bounds) - 1, *inner), dtype=np.complex128)
    for lo, part in _parts(out):
        start, end = bounds[lo] + 1, bounds[lo + len(part)]
        if lo and text[start - 1] != ",":
            raise ValueError(f"elements {lo} on are not canonical text")
        digits = _digit_grid(text, start, end, b"0.0", (*part.shape, 2))
        if digits is not None:  # "a.b" is (10 a + b) / 10, correctly rounded as float() rounds it
            part.reshape(-1).view(np.float64)[:] = (10 * digits[::2] + digits[1::2]).astype(np.float64) / 10
            continue
        cut = text[start:end].encode("ascii")
        if (cut.translate(None, _NUMERALS) != _layout(b"", (*part.shape, 2))[1:-1]
                or _EMPTY_RE.search(cut) or _EMPTY_IM.search(cut)):
            raise ValueError(f"elements {lo} on are not canonical text")
        part.reshape(-1)[:] = np.fromiter(json.loads(b"[" + cut.translate(_BRACKETS_AS_SPACES) + b"]"),
                                          np.float64, count=2 * part.size).view(np.complex128)
    if not np.isfinite(out).all():
        raise ValueError("a non-finite number")
    return out


def classical_from_doc(doc: dict) -> ClassicalDesign:
    _require(_get(doc, "schema", "document") == SCHEMA_CLASSICAL,
             f"schema mismatch: expected {SCHEMA_CLASSICAL!r}")
    v = _nat(_get(doc, "v", "document"), "v")
    b = _nat(_get(doc, "b", "document"), "b")
    _require(v >= 1 and b >= 1, "v and b must be >= 1")
    rows = _get(doc, "incidence", "document")
    for i, row in _rows(rows, v, b, "incidence"):
        for j, x in enumerate(row):
            if type(x) is not int or x < 0:  # numpy would truncate 1.5 and take True or "1"
                _nat(x, f"incidence[{i}][{j}]")
    return ClassicalDesign(NatMatrix._from_ints(list(chain.from_iterable(rows)), (v, b)))


def _complex_fields(obj) -> tuple[dict, str, np.ndarray]:
    """A quantum design's or CP map's document less its complex array, that array's key, the array."""
    if isinstance(obj, QuantumDesign):
        return {"schema": SCHEMA_QUANTUM, "dim": obj.b}, "projectors", obj._stack
    return ({"schema": SCHEMA_CPMAP, "convention": obj.convention,
             "in": _algebra_to_doc(obj.in_alg), "out": _algebra_to_doc(obj.out_alg)},
            "matrix", obj.m.a)


def quantum_to_doc(design: QuantumDesign) -> dict:
    doc, key, a = _complex_fields(design)
    return {**doc, key: _complex_doc(a)}


def quantum_from_doc(doc: dict) -> QuantumDesign:
    _require(_get(doc, "schema", "document") == SCHEMA_QUANTUM,
             f"schema mismatch: expected {SCHEMA_QUANTUM!r}")
    dim = _nat(_get(doc, "dim", "document"), "dim")
    _require(dim >= 1, "dim must be >= 1")
    raw = _get(doc, "projectors", "document")
    _require(isinstance(raw, list) and len(raw) >= 1, "projectors: expected a nonempty list")
    # Each projector's array is allocated once its walk has found dim x dim
    # entries in the document, so a short document allocates nothing it does not hold.
    return QuantumDesign._from_stack(np.stack([_complex_rows(p, dim, dim, f"projectors[{i}]")
                                               for i, p in enumerate(raw)]))


def _canonical_quantum(text: str, doc: dict, first: int, last: int) -> QuantumDesign | None:
    """The family of a quantum document whose projector list, the cut, is written canonically."""
    dim = doc.get("dim")
    if not (type(dim) is int and dim >= 1):
        return None
    return QuantumDesign._from_stack(_canonical_complex(text, first, last, (None, dim, dim)))


def _algebra_to_doc(alg: Algebra) -> dict:
    return {"kind": alg.kind, "n": alg.n}


def _algebra_from_doc(doc, where: str) -> Algebra:
    kind = _get(doc, "kind", where)
    _require(kind in (COMMUTATIVE, MATRIX), f"{where}: unknown algebra kind {kind!r}")
    n = _nat(_get(doc, "n", where), where + ".n")
    _require(n >= 1, f"{where}: algebra dimension must be >= 1")
    return Algebra(kind=kind, n=n)


def cpmap_to_doc(f: CpMap) -> dict:
    doc, key, a = _complex_fields(f)
    return {**doc, key: _complex_doc(a)}


def _cpmap_algebras(doc: dict) -> tuple[Algebra, Algebra]:
    _require(_get(doc, "schema", "document") == SCHEMA_CPMAP,
             f"schema mismatch: expected {SCHEMA_CPMAP!r}")
    convention = _get(doc, "convention", "document")
    _require(convention == "superoperator", f"unsupported convention {convention!r}")
    return (_algebra_from_doc(_get(doc, "in", "document"), "in"),
            _algebra_from_doc(_get(doc, "out", "document"), "out"))


def cpmap_from_doc(doc: dict) -> CpMap:
    in_alg, out_alg = _cpmap_algebras(doc)
    m = _complex_rows(
        _get(doc, "matrix", "document"), out_alg.coord_dim, in_alg.coord_dim, "matrix"
    )
    return CpMap(in_alg=in_alg, out_alg=out_alg, m=ComplexMatrix._raw(m))


def _canonical_cpmap(text: str, doc: dict, first: int, last: int) -> CpMap:
    """The map of a CP-map document whose matrix, the cut, is written canonically."""
    in_alg, out_alg = _cpmap_algebras(doc)
    m = _canonical_complex(text, first, last, (out_alg.coord_dim, in_alg.coord_dim))
    return CpMap(in_alg=in_alg, out_alg=out_alg, m=ComplexMatrix._raw(m))


# schema -> the key of its one large list, and the reader of a document whose
# cut is that list; a reader returns None or raises where the text needs the tree.
_CUT_READERS = (
    (SCHEMA_CLASSICAL, "incidence", _canonical_design),
    (SCHEMA_QUANTUM, "projectors", _canonical_quantum),
    (SCHEMA_CPMAP, "matrix", _canonical_cpmap),
)


def _streamed(text: str):
    """The object of a document read without a tree for its one large list, else None.

    The skeleton is ``text`` with everything from its first ``[`` to its last
    ``]`` (the cut) replaced by ``[]``.  It holds no other ``[`` that a ``]``
    closes, so if the large list's key holds a list, that list is the cut.
    """
    first, last = text.find("["), text.rfind("]")
    if not 0 <= first < last:
        return None
    try:
        doc = json.loads(text[:first] + "[]" + text[last + 1:])
        if not isinstance(doc, dict):
            return None
        for schema, key, read in _CUT_READERS:
            if doc.get("schema") == schema and isinstance(doc.get(key), list):
                return read(text, doc, first, last)
    except (ValueError, RecursionError, OverflowError):  # FormatError too: the general path raises it
        pass
    return None


def dumps(obj) -> str:
    """Canonical document text for a design or map object."""
    if isinstance(obj, ClassicalDesign):
        return _classical_text(obj)
    if isinstance(obj, (QuantumDesign, CpMap)):
        return _complex_text(*_complex_fields(obj))
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def loads(text: str):
    """Parse a document, dispatching on its schema field."""
    obj = _streamed(text)
    if obj is not None:
        return obj
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
