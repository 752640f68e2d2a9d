"""Exact integer matrices, dense complex linear algebra, and tolerance plumbing.

Two matrix flavours back everything in this package:

* :class:`NatMatrix` holds nonnegative integers as Python ints inside an
  object-dtype array, so counting arguments stay exact at any magnitude.
* :class:`ComplexMatrix` holds finite binary64 complex entries and carries
  projectors, bases and superoperator matrices.

Every floating-point comparison in the package goes through
:class:`Tolerance`, so each check states its slack explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    "orthonormalize",
    "split_by_projector",
    "min_eigenvalue_hermitian",
]


@dataclass(frozen=True)
class Tolerance:
    """Comparison slack: x ~ y iff ``|x - y| <= abs_eps + rel_eps * max(|x|, |y|)``
    and ``|x - y|`` is finite."""

    abs_eps: float = 1e-9
    rel_eps: float = 1e-9

    def __post_init__(self) -> None:
        if not (self.abs_eps >= 0.0 and self.rel_eps >= 0.0):
            raise ValueError("tolerance parameters must be nonnegative")

    def close(self, x, y) -> bool:
        """Tol-equality for real or complex scalars; never across a non-finite gap."""
        d = abs(x - y)
        # The slack is inf too when x or y is, so the gap must be finite.
        return d <= self.abs_eps + self.rel_eps * max(abs(x), abs(y)) and d < math.inf

    def allclose(self, a, b) -> bool:
        """Entrywise tol-equality of two arrays; False on shape mismatch or a non-finite gap."""
        a = np.asarray(a)
        b = np.asarray(b)
        if a.shape != b.shape:
            return False
        # A gap between finite entries near 1e308 overflows to inf, which is not close.
        with np.errstate(over="ignore", invalid="ignore"):
            slack = self.abs_eps + self.rel_eps * np.maximum(np.abs(a), np.abs(b))
            d = np.abs(a - b)
        return bool(((d <= slack) & (d < np.inf)).all())

    def near_int(self, x) -> int | None:
        """Nearest integer if ``x`` is tol-equal to one, else None."""
        x = complex(x)
        n = int(round(x.real))
        return n if self.close(x, n) else None


DEFAULT_TOL = Tolerance()


def _as_nat(x) -> int:
    if isinstance(x, (bool, np.bool_)):
        return int(x)
    if isinstance(x, (int, np.integer)):
        n = int(x)
    elif isinstance(x, float) and x.is_integer():
        n = int(x)
    else:
        raise ValueError(f"entry {x!r} is not a nonnegative integer")
    if n < 0:
        raise ValueError(f"entry {x!r} is not a nonnegative integer")
    return n


class NatMatrix:
    """Dense matrix of nonnegative integers with exact arithmetic.

    Entries are Python ints held in an object-dtype array; products, sums and
    Kronecker powers therefore never overflow or round.  Instances are treated
    as immutable and no operation in this module mutates its inputs.
    """

    __slots__ = ("a",)

    def __init__(self, entries) -> None:
        rows = [list(r) for r in entries]
        if not rows or not rows[0]:
            raise ValueError("matrix must have at least one row and one column")
        ncols = len(rows[0])
        for i, r in enumerate(rows):
            if len(r) != ncols:
                raise ValueError(f"row {i} has {len(r)} entries, expected {ncols}")
        a = np.empty((len(rows), ncols), dtype=object)
        for i, r in enumerate(rows):
            for j, x in enumerate(r):
                a[i, j] = _as_nat(x)
        self.a = a

    @classmethod
    def _raw(cls, a: np.ndarray) -> "NatMatrix":
        # Internal: wrap an object array already known to hold nonneg ints.
        m = object.__new__(cls)
        m.a = a
        return m

    @classmethod
    def identity(cls, n: int) -> "NatMatrix":
        if n < 1:
            raise ValueError("identity needs n >= 1")
        a = np.empty((n, n), dtype=object)
        for i in range(n):
            for j in range(n):
                a[i, j] = 1 if i == j else 0
        return cls._raw(a)

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    def row_sums(self) -> list[int]:
        return [int(s) for s in self.a.sum(axis=1)]

    def col_sums(self) -> list[int]:
        return [int(s) for s in self.a.sum(axis=0)]

    def tolist(self) -> list[list[int]]:
        return [[int(x) for x in row] for row in self.a]

    def to_complex(self) -> "ComplexMatrix":
        return ComplexMatrix(np.array(self.tolist(), dtype=np.complex128))

    def __eq__(self, other) -> bool:
        if not isinstance(other, NatMatrix):
            return NotImplemented
        return self.a.shape == other.a.shape and bool(np.all(self.a == other.a))

    def __hash__(self):
        return hash((self.a.shape, tuple(map(tuple, self.tolist()))))

    def __repr__(self) -> str:
        return f"NatMatrix({self.tolist()!r})"


class ComplexMatrix:
    """Dense complex128 matrix; construction rejects non-finite entries."""

    __slots__ = ("a",)

    def __init__(self, entries) -> None:
        a = np.array(entries, dtype=np.complex128)
        if a.ndim != 2 or a.size == 0:
            raise ValueError("matrix must be 2-D with at least one entry")
        if not (np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag))):
            raise ValueError("matrix entries must be finite")
        self.a = a

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
        return NatMatrix._raw(a.a @ b.a)
    return ComplexMatrix(a.a @ b.a)


def kron(a, b):
    """Kronecker product, same flavour rules as :func:`mat_mul`."""
    kind = _pairwise(a, b, "kron")
    if kind == "nat":
        return NatMatrix._raw(np.kron(a.a, b.a))
    return ComplexMatrix(np.kron(a.a, b.a))


def transpose(m: NatMatrix) -> NatMatrix:
    """Transpose of an integer matrix."""
    if not isinstance(m, NatMatrix):
        raise TypeError("transpose expects a NatMatrix; use adjoint for complex")
    return NatMatrix._raw(m.a.T.copy())


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


def orthonormalize(
    vectors: Sequence[np.ndarray], tol: Tolerance = DEFAULT_TOL
) -> list[np.ndarray]:
    """Modified Gram-Schmidt with a re-orthogonalization pass.

    Returns an orthonormal list spanning the same space; vectors whose
    residual after projection has norm <= tol.abs_eps are dropped.
    """
    vs = _as_vectors(vectors)
    basis: list[np.ndarray] = []
    for v in vs:
        w = v.astype(np.complex128, copy=True)
        for _ in range(2):
            for u in basis:
                w = w - (u.conj() @ w) * u
        n = float(np.linalg.norm(w))
        if n > tol.abs_eps:
            basis.append(w / n)
    return basis


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


def min_eigenvalue_hermitian(m: ComplexMatrix, tol: Tolerance = DEFAULT_TOL) -> float:
    """Smallest eigenvalue of a Hermitian matrix.

    Raises ValueError when the matrix is not square or not Hermitian within
    ``tol`` at the scale of its largest entry.
    """
    if m.rows != m.cols:
        raise ValueError(f"matrix is {m.rows}x{m.cols}, expected square")
    if not tol.allclose(m.a, m.a.conj().T):
        raise ValueError("matrix is not Hermitian within tolerance")
    return float(np.linalg.eigvalsh((m.a + m.a.conj().T) / 2.0)[0])
