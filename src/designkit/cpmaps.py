"""Completely positive maps bridging classical and quantum designs.

Conventions, fixed package-wide:

* vec is row-major: ``vec(X)[i*n + j] = X[i, j]``.
* Algebras are either Commutative(n) (coordinates: the n diagonal entries)
  or Matrix(n) (coordinates: the n^2 entries of vec).  A CpMap's matrix acts
  on coordinate vectors; the only convention tag is "superoperator".
* The Choi matrix uses index order (input (x) output):
  ``C[(i, k), (j, l)] = f(E_ij)[k, l]``, so C is the block matrix whose
  (i, j) block is the image of the matrix unit E_ij.

Commutative legs embed into matrix algebras as diagonals (E_ii maps through,
E_ij with i != j maps to 0) whenever a Choi matrix is built.  The Choi matrix
of a map with a commutative leg is then a direct sum of small blocks, which
``is_cp`` reads straight off the superoperator instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classical import ClassicalDesign, HomPair, classify, verify_hom
from .linalg import DEFAULT_TOL, ComplexMatrix, Tolerance
from .quantum import QuantumDesign
from .quantum import validate as validate_projectors

__all__ = [
    "Algebra",
    "CpMap",
    "ChoiMatrix",
    "CpCheck",
    "CpDesignReport",
    "HomLiftCheck",
    "vec",
    "unvec",
    "embed_commutative",
    "choi",
    "superop_from_choi",
    "is_cp",
    "is_trace_preserving",
    "classical_to_cp",
    "quantum_design_to_cp",
    "functor_q",
    "functor_q_on_hom",
    "verify_cp_design",
]

COMMUTATIVE = "commutative"
MATRIX = "matrix"


@dataclass(frozen=True)
class Algebra:
    """Finite-dimensional algebra descriptor: Commutative(n) or Matrix(n)."""

    kind: str
    n: int

    def __post_init__(self) -> None:
        if self.kind not in (COMMUTATIVE, MATRIX):
            raise ValueError(f"unknown algebra kind {self.kind!r}")
        if self.n < 1:
            raise ValueError("algebra dimension must be >= 1")

    @classmethod
    def commutative(cls, n: int) -> "Algebra":
        return cls(kind=COMMUTATIVE, n=n)

    @classmethod
    def matrix(cls, n: int) -> "Algebra":
        return cls(kind=MATRIX, n=n)

    @property
    def coord_dim(self) -> int:
        return self.n if self.kind == COMMUTATIVE else self.n * self.n

    def identity_vector(self) -> np.ndarray:
        """Coordinates of the algebra unit: all-ones resp. vec(I)."""
        if self.kind == COMMUTATIVE:
            return np.ones(self.n, dtype=np.complex128)
        return np.eye(self.n, dtype=np.complex128).reshape(-1)


@dataclass(frozen=True)
class CpMap:
    """Linear map between algebras, stored as a coordinate matrix."""

    in_alg: Algebra
    out_alg: Algebra
    m: ComplexMatrix
    convention: str = "superoperator"

    def __post_init__(self) -> None:
        if self.convention != "superoperator":
            raise ValueError(f"unsupported convention {self.convention!r}")
        want = (self.out_alg.coord_dim, self.in_alg.coord_dim)
        got = (self.m.rows, self.m.cols)
        if got != want:
            raise ValueError(f"matrix shape {got} does not match algebras {want}")


@dataclass(frozen=True)
class ChoiMatrix:
    """Choi matrix of a map, index order (input (x) output)."""

    m: ComplexMatrix
    n_in: int
    n_out: int
    source: CpMap


def vec(x: np.ndarray) -> np.ndarray:
    """Row-major vectorization."""
    return np.asarray(x, dtype=np.complex128).reshape(-1)


def unvec(x: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`vec` for square n x n matrices."""
    x = np.asarray(x, dtype=np.complex128)
    if x.size != n * n:
        raise ValueError(f"cannot unvec length {x.size} into {n}x{n}")
    return x.reshape(n, n)


def _diag_embedder(n: int) -> np.ndarray:
    # (n^2, n): places a coordinate vector on the diagonal of vec form.
    e = np.zeros((n * n, n), dtype=np.complex128)
    e[:: n + 1] = np.eye(n)
    return e


def embed_commutative(f: CpMap) -> CpMap:
    """Rewrite commutative legs as diagonal subalgebras of Matrix(n).

    Off-diagonal matrix units are sent to 0 on an embedded input leg
    (conditional expectation onto the diagonal, then the original map); an
    embedded output leg lands on diagonal matrices.  Matrix legs pass
    through unchanged, and a fully matrix-algebra map is returned as-is.
    """
    if f.in_alg.kind == MATRIX and f.out_alg.kind == MATRIX:
        return f
    ni, no = f.in_alg.n, f.out_alg.n
    # The diagonal of an n x n matrix sits at every (n+1)-th vec coordinate.
    rows = slice(None) if f.out_alg.kind == MATRIX else slice(None, None, no + 1)
    cols = slice(None) if f.in_alg.kind == MATRIX else slice(None, None, ni + 1)
    m = np.zeros((no * no, ni * ni), dtype=np.complex128)
    m[rows, cols] = f.m.a
    return CpMap(in_alg=Algebra.matrix(ni), out_alg=Algebra.matrix(no), m=ComplexMatrix(m))


def choi(f: CpMap) -> ChoiMatrix:
    """Choi matrix C = sum_ij E_ij (x) f(E_ij), index order (in (x) out).

    Commutative legs are embedded as diagonal matrix algebras first.
    """
    g = embed_commutative(f)
    ni = g.in_alg.n
    no = g.out_alg.n
    c = g.m.a.reshape(no, no, ni, ni).transpose(2, 0, 3, 1).reshape(ni * no, ni * no)
    return ChoiMatrix(m=ComplexMatrix(c), n_in=ni, n_out=no, source=f)


def superop_from_choi(matrix: ComplexMatrix, n_in: int, n_out: int) -> CpMap:
    """Read a (n_in*n_out)-square matrix as a Choi matrix and invert it."""
    dim = n_in * n_out
    if matrix.rows != dim or matrix.cols != dim:
        raise ValueError(
            f"Choi matrix must be {dim}x{dim} for Matrix({n_in}) -> Matrix({n_out})"
        )
    m = (
        matrix.a.reshape(n_in, n_out, n_in, n_out)
        .transpose(1, 3, 0, 2)
        .reshape(n_out * n_out, n_in * n_in)
    )
    return CpMap(in_alg=Algebra.matrix(n_in), out_alg=Algebra.matrix(n_out), m=ComplexMatrix(m))


@dataclass(frozen=True)
class CpCheck:
    """Complete-positivity verdict with the witness minimum Choi eigenvalue."""

    is_cp: bool
    min_eigenvalue: float
    hermitian: bool


def _choi_blocks(f: CpMap) -> np.ndarray:
    """Diagonal blocks of the Choi matrix, stacked; every other entry is 0.

    A commutative leg makes the Choi matrix a direct sum, up to one
    permutation applied to rows and columns alike: block i of a map out of
    Commutative(n) is f(E_ii), and block k of a map into Commutative(n) is
    the k-th output coordinate as a functional on the input matrix.  A
    Matrix -> Matrix map has one block, the whole Choi matrix.
    """
    m = f.m.a
    ni, no = f.in_alg.n, f.out_alg.n
    if f.in_alg.kind == MATRIX and f.out_alg.kind == MATRIX:
        return choi(f).m.a[np.newaxis]
    if f.in_alg.kind == MATRIX:
        return m.reshape(no, ni, ni)
    if f.out_alg.kind == MATRIX:
        return m.T.reshape(ni, no, no)
    return m.reshape(no * ni, 1, 1)


def is_cp(f: CpMap, tol: Tolerance = DEFAULT_TOL) -> CpCheck:
    """Complete positivity via Choi positive semidefiniteness, block by block."""
    c = _choi_blocks(f)
    c_h = c.conj().swapaxes(-1, -2)
    hermitian = tol.allclose(c, c_h)
    # Halve before adding: (c + c^dagger) / 2 overflows for entries near 1e308.
    herm_part = c_h / 2.0
    herm_part += c / 2.0
    eigenvalues = np.linalg.eigvalsh(herm_part)
    top = float(np.abs(c).max(initial=0.0))
    if not np.isfinite(eigenvalues).all():
        raise ValueError("Choi eigenvalues are not finite; the largest |entry| of the map is "
                         f"{top!r}")
    low = float(eigenvalues.min())
    slack = tol.abs_eps + tol.rel_eps * top
    return CpCheck(is_cp=hermitian and low >= -slack, min_eigenvalue=low, hermitian=hermitian)


def is_trace_preserving(f: CpMap, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Tr f(X) = Tr X, read off the superoperator as w_out^dagger m = w_in^dagger.

    The trace of an algebra element x is w^dagger x for the unit coordinates w.
    """
    w_in = f.in_alg.identity_vector()
    w_out = f.out_alg.identity_vector()
    with np.errstate(over="ignore", invalid="ignore"):
        traces = w_out.conj() @ f.m.a
    return bool(np.isfinite(traces).all()) and tol.allclose(traces, w_in)


def classical_to_cp(design: ClassicalDesign) -> CpMap:
    """Incidence matrix as a map Commutative(b) -> Commutative(v)."""
    return CpMap(
        in_alg=Algebra.commutative(design.b),
        out_alg=Algebra.commutative(design.v),
        m=design.chi.to_complex(),
    )


def quantum_design_to_cp(design: QuantumDesign) -> CpMap:
    """Projector family as a map Commutative(v) -> Matrix(b), column i = vec(p_i)."""
    if not validate_projectors(design).ok:
        raise ValueError("design fails projector validation")
    cols = np.column_stack([vec(p.a) for p in design.projectors])
    return CpMap(
        in_alg=Algebra.commutative(design.v),
        out_alg=Algebra.matrix(design.b),
        m=ComplexMatrix(cols),
    )


def functor_q(design: ClassicalDesign) -> QuantumDesign:
    """Diagonal-projector quantum design of a 0/1 block design.

    Row i of the incidence matrix becomes the diagonal projector
    p_i = diag(chi[i, :]).  The result classifies with the same (k, r),
    degree 1 and trace set {lambda}, and is commutative.  Refuses matrices
    with multiplicities (apply to_block first; parameters will change) and
    designs missing any of k, r, lambda.
    """
    if not design.is_zero_one:
        raise ValueError(
            "incidence matrix has entries > 1; apply to_block first "
            "(parameters will change)"
        )
    params = classify(design)
    missing = [
        name
        for name, val in (("k", params.k), ("r", params.r), ("lambda", params.lam))
        if val is None
    ]
    if missing:
        raise ValueError(f"not a block design: missing parameters {missing}")
    rows = design.chi.tolist()
    projectors = tuple(
        ComplexMatrix(np.diag(np.array(row, dtype=np.complex128))) for row in rows
    )
    return QuantumDesign(projectors=projectors)


@dataclass(frozen=True)
class HomLiftCheck:
    """Residuals for the lifted homomorphism squares (max-abs each).

    hom_residual: F_v chi - chi' F_b, the incidence square itself.
    embedding_residual: (F_b (x) F_b) Delta - Delta' F_b, the copy square.
    outer_residual: chi' mu' (F_b (x) F_b) - F_v chi mu on all of C^(b*b);
    zero whenever the block map is injective (permutations in particular),
    and an honest obstruction witness when it is not.
    """

    hom_residual: float
    embedding_residual: float
    outer_residual: float
    ok: bool


def _subset_matrix(images: tuple[int, ...], target: int) -> np.ndarray:
    f = np.zeros((target, len(images)), dtype=np.complex128)
    for src, dst in enumerate(images):
        f[dst, src] = 1.0
    return f


def functor_q_on_hom(
    src: ClassicalDesign,
    dst: ClassicalDesign,
    hom: HomPair,
    tol: Tolerance = DEFAULT_TOL,
) -> HomLiftCheck:
    """Numerically check the lifted commuting squares of a verified hom.

    Precondition: verify_hom(src, dst, hom) passes; raises ValueError
    otherwise.  Delta is the diagonal comultiplication x -> x (x) x on
    coordinates; mu = Delta^T is the multiplication.
    """
    check = verify_hom(src, dst, hom)
    if not check.ok:
        raise ValueError(f"hom square fails at cell {check.cell}: {check.lhs} != {check.rhs}")
    chi_s = src.chi.to_complex().a
    chi_d = dst.chi.to_complex().a
    f_v = _subset_matrix(hom.f_v, dst.v)
    f_b = _subset_matrix(hom.f_b, dst.b)
    hom_res = float(np.abs(f_v @ chi_s - chi_d @ f_b).max())
    # F_b (x) F_b is a b'^2 x b^2 selector, so both products with it are read
    # off by index: (F_b (x) F_b) Delta has column j = e_(f(j), f(j)), and
    # mu' (F_b (x) F_b) has a 1 at (f(j), (j, k)) exactly when f(j) = f(k).
    f = np.asarray(hom.f_b, dtype=np.intp)
    sb, db = src.b, dst.b
    copied = np.zeros((db * db, sb), dtype=np.complex128)
    copied[f * (db + 1), np.arange(sb)] = 1.0
    emb_res = float(np.abs(copied - _diag_embedder(db) @ f_b).max())
    j, k = np.nonzero(f[:, np.newaxis] == f[np.newaxis, :])
    merged = np.zeros((db, sb * sb), dtype=np.complex128)
    merged[f[j], j * sb + k] = 1.0
    outer_res = float(np.abs(chi_d @ merged - f_v @ chi_s @ _diag_embedder(sb).T).max())
    slack = tol.abs_eps + tol.rel_eps
    ok = hom_res <= slack and emb_res <= slack and outer_res <= slack
    return HomLiftCheck(
        hom_residual=hom_res,
        embedding_residual=emb_res,
        outer_residual=outer_res,
        ok=ok,
    )


@dataclass(frozen=True)
class CpDesignReport:
    """Design-condition report for a coordinate map.

    k is the uniformity constant (unit covector condition), r the regularity
    constant (unit vector condition); each is None when its residual exceeds
    tolerance.  lam minimizes || m m^dagger - [lam (w w^dagger - I) + r I] ||_max
    over real lam (w = unit coordinates of the output algebra); the residual
    is always reported and lam_balanced is claimed only when it is at most
    abs_eps.
    """

    k: float | None
    r: float | None
    uniformity_residual: float
    regularity_residual: float
    lam: float | None
    lam_residual: float | None
    lam_balanced: bool


def _gram(m: np.ndarray) -> np.ndarray:
    """m m^dagger; raises ValueError naming the largest |entry| when it is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        gram = m @ m.conj().T
    if not np.all(np.isfinite(gram)):
        raise ValueError("m m^dagger is not finite; the largest |entry| of the map is "
                         f"{float(np.abs(m).max())!r}")
    return gram


def verify_cp_design(f: CpMap, tol: Tolerance = DEFAULT_TOL) -> CpDesignReport:
    """Check the uniformity / regularity / balance conditions of a map.

    Works on any algebra combination: the unit coordinate vector is all-ones
    for Commutative(n) and vec(I) for Matrix(n).  Note a transposed (dual)
    map swaps the roles of k and r.
    """
    m = f.m.a
    w_in = f.in_alg.identity_vector()
    w_out = f.out_alg.identity_vector()
    with np.errstate(over="ignore", invalid="ignore"):
        row = w_out.conj() @ m
        col = m @ w_in
    if not (np.isfinite(row).all() and np.isfinite(col).all()):
        # A unit sum beyond binary64 needs an entry whose square is beyond it too.
        _gram(m)
    k_est = complex(row @ w_in) / f.in_alg.n
    unif_res = float(np.abs(row - k_est * w_in.conj()).max())
    unif_slack = tol.abs_eps + tol.rel_eps * max(1.0, float(np.abs(row).max(initial=0.0)))
    k_ok = unif_res <= unif_slack and abs(k_est.imag) <= unif_slack
    r_est = complex(w_out.conj() @ col) / f.out_alg.n
    reg_res = float(np.abs(col - r_est * w_out).max())
    reg_slack = tol.abs_eps + tol.rel_eps * max(1.0, float(np.abs(col).max(initial=0.0)))
    r_ok = reg_res <= reg_slack and abs(r_est.imag) <= reg_slack
    lam = None
    lam_res = None
    if r_ok:
        gram = _gram(m)
        eye = np.eye(f.out_alg.coord_dim, dtype=np.complex128)
        shape = np.outer(w_out, w_out.conj()) - eye
        base = gram - r_est.real * eye
        # Only the entries where shape is nonzero move with lam.
        moving = shape != 0
        fixed = float(np.abs(base[~moving]).max(initial=0.0))
        base, shape = base[moving], shape[moving]

        def residual(lam_val: float) -> float:
            return float(np.abs(base - lam_val * shape).max(initial=fixed))

        span = float(np.abs(gram).max(initial=0.0)) + abs(r_est.real) + 1.0
        lo, hi = -span, span
        for _ in range(120):
            third = (hi - lo) / 3.0
            m1, m2 = lo + third, hi - third
            if residual(m1) < residual(m2):
                hi = m2
            else:
                lo = m1
        lam = (lo + hi) / 2.0
        lam_res = residual(lam)
    return CpDesignReport(
        k=k_est.real if k_ok else None,
        r=r_est.real if r_ok else None,
        uniformity_residual=unif_res,
        regularity_residual=reg_res,
        lam=lam,
        lam_residual=lam_res,
        lam_balanced=lam_res is not None and lam_res <= tol.abs_eps,
    )
