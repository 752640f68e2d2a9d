"""Exact integer matrices, dense complex linear algebra, and tolerance plumbing.

Two matrix flavours back everything in this package:

* :class:`NatMatrix` holds nonnegative integers, as an int64 array when every
  entry is below 2**63 and as an object array of Python ints otherwise.
  Arithmetic is exact either way: each operation takes the machine path only
  when a bound on its inputs proves that nothing overflows or rounds, and
  :meth:`NatMatrix.tolist` returns Python ints.
* :class:`ComplexMatrix` holds finite binary64 complex entries and carries
  projectors, bases and superoperator matrices.

Every floating-point comparison in the package goes through
:class:`Tolerance`, so each check states its slack explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "NatMatrix",
    "ComplexMatrix",
    "mat_mul",
    "kron",
    "transpose",
    "adjoint",
    "trace",
    "split_by_projector",
]


@dataclass(frozen=True)
class Tolerance:
    """Comparison slack: x ~ y iff ``|x - y| <= abs_eps + rel_eps * max(|x|, |y|)``
    and ``|x - y|`` is finite."""

    abs_eps: float = 1e-9
    rel_eps: float = 1e-9

    def __post_init__(self) -> None:
        if not (0.0 <= self.abs_eps < math.inf and 0.0 <= self.rel_eps < math.inf):
            raise ValueError(f"tolerance parameters must be finite and nonnegative, got "
                             f"abs_eps={self.abs_eps!r}, rel_eps={self.rel_eps!r}")

    def slack(self, scale):
        """The allowed gap at magnitude ``scale``: ``abs_eps + rel_eps * scale``."""
        return self.abs_eps + self.rel_eps * scale

    def close(self, x, y) -> bool:
        """Tol-equality for real or complex scalars: :meth:`isclose` of two scalars."""
        return bool(self.isclose(x, y))

    def isclose(self, a, b) -> np.ndarray:
        """Entrywise tol-equality of two broadcastable arrays, as a boolean array."""
        a = np.asarray(a)
        b = np.asarray(b)
        # The slack is inf when an entry is, so the gap must be finite too; a gap
        # between finite entries near 1e308 overflows to inf, which is not close.
        with np.errstate(over="ignore", invalid="ignore"):
            slack = self.slack(np.maximum(np.abs(a), np.abs(b)))
            d = np.abs(a - b)
        return (d <= slack) & (d < np.inf)

    def allclose(self, a, b) -> bool:
        """Entrywise tol-equality of two arrays; False on shape mismatch or a non-finite gap."""
        if np.shape(a) != np.shape(b):
            return False
        return bool(self.isclose(a, b).all())

    def near_int(self, x) -> int | None:
        """Nearest integer if ``x`` is tol-equal to one, else None."""
        x = complex(x)
        n = int(round(x.real))
        return n if self.close(x, n) else None


DEFAULT_TOL = Tolerance()


# int64 holds every nonnegative integer below this; NatMatrix stores larger
# entries as Python ints.
_INT64_BOUND = 2**63
# binary64 holds every integer up to this, so a float64 product whose partial
# sums stay below it is exact.
_FLOAT64_BOUND = 2**53


def _integral(x) -> int | None:
    """``x`` as a Python int if it is a bool, an integer or an integral float, else None."""
    if isinstance(x, (int, np.integer, np.bool_)) or (isinstance(x, float) and x.is_integer()):
        return int(x)
    return None


def _as_nat(x) -> int:
    n = _integral(x)
    if n is None or n < 0:
        raise ValueError(f"entry {x!r} is not a nonnegative integer")
    return n


def _peak(a: np.ndarray) -> int:
    return int(a.max())


class NatMatrix:
    """Dense matrix of nonnegative integers with exact arithmetic.

    Entries are stored as an int64 array when every entry is below 2**63, and
    as an object array of Python ints otherwise.  Products, sums and Kronecker
    powers use machine arithmetic only under a bound that rules out overflow
    and rounding, so they never overflow or round.  Instances are treated as
    immutable and no operation in this module mutates its inputs.
    """

    __slots__ = ("a",)

    def __init__(self, entries) -> None:
        if isinstance(entries, np.ndarray) and entries.dtype.kind in "biu" and (entries >= 0).all():
            entries = entries.tolist()  # Python ints (bools), converted in one call
        rows = [list(r) for r in entries]
        if not rows or not rows[0]:
            raise ValueError("matrix must have at least one row and one column")
        ncols = len(rows[0])
        for i, r in enumerate(rows):
            if len(r) != ncols:
                raise ValueError(f"row {i} has {len(r)} entries, expected {ncols}")
        flat = list(chain.from_iterable(rows))
        shape = (len(rows), ncols)
        m = self._from_ints(flat, shape) if set(map(type, flat)) == {int} else None
        if m is None:
            m = self._from_ints(list(map(_as_nat, flat)), shape)  # names the first bad entry
        self.a = m.a

    @classmethod
    def _from_ints(cls, ints: list[int], shape: tuple[int, int]) -> "NatMatrix | None":
        # Internal: Python ints in row-major order, converted in one pass and
        # checked for sign on the array; None if some entry is negative.
        try:
            a = np.fromiter(ints, np.int64, count=len(ints))
        except OverflowError:  # some entry is outside int64
            a = np.array(ints, dtype=object)
        if a.min() < 0:
            return None
        return cls._raw(a.reshape(shape))

    @classmethod
    def _raw(cls, a: np.ndarray) -> "NatMatrix":
        # Internal: wrap an int64 array, or an object array of nonnegative
        # Python ints, which is stored as int64 when every entry fits.
        if a.dtype == object and _peak(a) < _INT64_BOUND:
            a = a.astype(np.int64)
        m = object.__new__(cls)
        m.a = a
        return m

    @classmethod
    def identity(cls, n: int) -> "NatMatrix":
        if n < 1:
            raise ValueError("identity needs n >= 1")
        return cls._raw(np.eye(n, dtype=np.int64))

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    def _sums(self, axis: int) -> list[int]:
        a = self.a
        if _peak(a) * a.shape[axis] >= _INT64_BOUND:
            a = a.astype(object)
        return a.sum(axis=axis).tolist()

    def row_sums(self) -> list[int]:
        return self._sums(1)

    def col_sums(self) -> list[int]:
        return self._sums(0)

    def tolist(self) -> list[list[int]]:
        return self.a.tolist()

    def to_complex(self) -> "ComplexMatrix":
        return ComplexMatrix(self.a.astype(np.complex128))

    def __eq__(self, other) -> bool:
        if not isinstance(other, NatMatrix):
            return NotImplemented
        return self.a.shape == other.a.shape and bool(np.all(self.a == other.a))

    def __hash__(self):
        return hash((self.a.shape, tuple(map(tuple, self.tolist()))))

    def __repr__(self) -> str:
        return f"NatMatrix({self.tolist()!r})"


def _require_finite(a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")


class ComplexMatrix:
    """Dense complex128 matrix; construction rejects non-finite entries."""

    __slots__ = ("a",)

    def __init__(self, entries) -> None:
        a = np.array(entries, dtype=np.complex128)
        if a.ndim != 2 or a.size == 0:
            raise ValueError("matrix must be 2-D with at least one entry")
        _require_finite(a)
        self.a = a

    @classmethod
    def _raw(cls, a: np.ndarray) -> "ComplexMatrix":
        # Internal: wrap a 2-D complex128 array of finite entries without a copy.
        m = object.__new__(cls)
        m.a = a
        return m

    @classmethod
    def identity(cls, n: int) -> "ComplexMatrix":
        if n < 1:
            raise ValueError("identity needs n >= 1")
        return cls(np.eye(n, dtype=np.complex128))

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ComplexMatrix):
            return NotImplemented
        return self.a.shape == other.a.shape and bool(np.all(self.a == other.a))

    def __hash__(self):
        return hash((self.a.shape, self.a.tobytes()))

    def __repr__(self) -> str:
        return f"ComplexMatrix({self.a.tolist()!r})"


def _pairwise(a, b, opname: str):
    if isinstance(a, NatMatrix) and isinstance(b, NatMatrix):
        return "nat"
    if isinstance(a, ComplexMatrix) and isinstance(b, ComplexMatrix):
        return "complex"
    raise TypeError(f"{opname} needs two NatMatrix or two ComplexMatrix operands")


def mat_mul(a, b):
    """Matrix product; exact for NatMatrix, binary64 for ComplexMatrix."""
    kind = _pairwise(a, b, "mat_mul")
    if a.cols != b.rows:
        raise ValueError(
            f"dimension mismatch: {a.rows}x{a.cols} @ {b.rows}x{b.cols}"
        )
    if kind == "nat":
        x, y = a.a, b.a
        if x.dtype == y.dtype == np.int64 and _peak(x) * _peak(y) * a.cols < _FLOAT64_BOUND:
            return NatMatrix._raw(_float64_matmul(x, y))
        return NatMatrix._raw(x.astype(object) @ y.astype(object))
    return ComplexMatrix(a.a @ b.a)


def _float64_matmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Exact product of int64 arrays with max|x| * max|y| * inner < 2**53.

    Every product and partial sum is then an integer below 2**53, which
    binary64 holds exactly, so the BLAS product in float64 is the integer
    product (numpy's int64 matmul does not call BLAS).  When ``y`` is the
    transposed view of ``x``, as in a Gram matrix ``x x^T``, ``x`` is converted
    once and multiplied by its own transpose, which numpy computes as one
    symmetric product (syrk).
    """
    xf = x.astype(np.float64)
    transposed = (y.shape == x.shape[::-1] and y.strides == x.strides[::-1]
                  and y.__array_interface__["data"][0] == x.__array_interface__["data"][0])
    product = xf @ (xf.T if transposed else y.astype(np.float64))
    del xf  # not held while the product converts
    return product.astype(np.int64)


def kron(a, b):
    """Kronecker product, same flavour rules as :func:`mat_mul`."""
    kind = _pairwise(a, b, "kron")
    if kind == "nat":
        x, y = a.a, b.a
        if x.dtype == y.dtype == np.int64 and _peak(x) * _peak(y) < _INT64_BOUND:
            return NatMatrix._raw(np.kron(x, y))
        return NatMatrix._raw(np.kron(x.astype(object), y.astype(object)))
    return ComplexMatrix(np.kron(a.a, b.a))


def transpose(m: NatMatrix) -> NatMatrix:
    """Transpose of an integer matrix."""
    if not isinstance(m, NatMatrix):
        raise TypeError("transpose expects a NatMatrix; use adjoint for complex")
    return NatMatrix._raw(m.a.T)  # a view: NatMatrix is immutable


def adjoint(m: ComplexMatrix) -> ComplexMatrix:
    """Conjugate transpose of a complex matrix."""
    if not isinstance(m, ComplexMatrix):
        raise TypeError("adjoint expects a ComplexMatrix")
    return ComplexMatrix(m.a.conj().T)


def trace(m: ComplexMatrix) -> complex:
    """Trace of a square complex matrix."""
    if not isinstance(m, ComplexMatrix):
        raise TypeError("trace expects a ComplexMatrix")
    if m.rows != m.cols:
        raise ValueError(f"trace needs a square matrix, got {m.rows}x{m.cols}")
    return complex(np.trace(m.a))


def _as_vectors(vectors, dim: int | None = None) -> list[np.ndarray]:
    out = []
    for i, v in enumerate(vectors):
        w = np.asarray(v, dtype=np.complex128).reshape(-1)
        if not np.all(np.isfinite(w.real)) or not np.all(np.isfinite(w.imag)):
            raise ValueError(f"vector {i} has non-finite entries")
        if dim is None:
            dim = w.shape[0]
        elif w.shape[0] != dim:
            raise ValueError(f"vector {i} has length {w.shape[0]}, expected {dim}")
        out.append(w)
    return out


def split_by_projector(
    basis: Sequence[np.ndarray], p: ComplexMatrix, tol: Tolerance = DEFAULT_TOL
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Split an orthonormal family into the image and kernel parts of ``p``.

    ``p`` restricted to span(basis) must again be a projector: the compressed
    matrix B* p B has to be Hermitian with eigenvalues tol-equal to 0 or 1.
    Returns ``(image_vectors, kernel_vectors)``, each orthonormal, whose
    concatenation spans the input space.  Raises ValueError when the subspace
    is not invariant or an eigenvalue is not near {0, 1}.
    """
    vs = _as_vectors(basis)
    if not vs:
        return [], []
    dim = vs[0].shape[0]
    if p.rows != p.cols or p.rows != dim:
        raise ValueError(f"projector is {p.rows}x{p.cols}, vectors have length {dim}")
    b = np.column_stack(vs)
    m = b.conj().T @ p.a @ b
    if not tol.allclose(m, m.conj().T):
        raise ValueError("projector is not Hermitian on the given subspace")
    w, vecs = np.linalg.eigh((m + m.conj().T) / 2.0)
    for ev in w:
        if tol.near_int(ev) not in (0, 1):
            raise ValueError(f"subspace does not split cleanly: eigenvalue {ev!r}")
    u = b @ vecs
    img = [u[:, i].copy() for i in range(len(w)) if w[i] > 0.5]
    ker = [u[:, i].copy() for i in range(len(w)) if w[i] <= 0.5]
    if img and not tol.allclose(p.a @ np.column_stack(img), np.column_stack(img)):
        raise ValueError("image part is not fixed by the projector within tolerance")
    if ker and not tol.allclose(
        p.a @ np.column_stack(ker), np.zeros((dim, len(ker)))
    ):
        raise ValueError("kernel part is not annihilated within tolerance")
    return img, ker
