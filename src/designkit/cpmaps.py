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
E_ij with i != j maps to 0) whenever a Choi-based check needs them.
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


def _diag_selector(n: int) -> np.ndarray:
    # (n, n^2): picks the diagonal coordinates out of vec(X).
    s = np.zeros((n, n * n), dtype=np.complex128)
    for i in range(n):
        s[i, i * n + i] = 1.0
    return s


def _diag_embedder(n: int) -> np.ndarray:
    # (n^2, n): places a coordinate vector on the diagonal of vec form.
    return _diag_selector(n).T.copy()


def embed_commutative(f: CpMap) -> CpMap:
    """Rewrite commutative legs as diagonal subalgebras of Matrix(n).

    Off-diagonal matrix units are sent to 0 on an embedded input leg
    (conditional expectation onto the diagonal, then the original map); an
    embedded output leg lands on diagonal matrices.  Matrix legs pass
    through unchanged, and a fully matrix-algebra map is returned as-is.
    """
    if f.in_alg.kind == MATRIX and f.out_alg.kind == MATRIX:
        return f
    m = f.m.a
    if f.in_alg.kind == COMMUTATIVE:
        m = m @ _diag_selector(f.in_alg.n)
    if f.out_alg.kind == COMMUTATIVE:
        m = _diag_embedder(f.out_alg.n) @ m
    return CpMap(
        in_alg=Algebra.matrix(f.in_alg.n),
        out_alg=Algebra.matrix(f.out_alg.n),
        m=ComplexMatrix(m),
    )


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


def is_cp(f: CpMap, tol: Tolerance = DEFAULT_TOL) -> CpCheck:
    """Complete positivity via Choi positive semidefiniteness."""
    c = choi(f).m.a
    hermitian = tol.allclose(c, c.conj().T)
    low = float(np.linalg.eigvalsh((c + c.conj().T) / 2.0)[0])
    slack = tol.abs_eps + tol.rel_eps * float(np.abs(c).max(initial=0.0))
    return CpCheck(is_cp=hermitian and low >= -slack, min_eigenvalue=low, hermitian=hermitian)


def is_trace_preserving(f: CpMap, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Tr f(X) = Tr X, read off the superoperator as w_out^dagger m = w_in^dagger.

    The trace of an algebra element x is w^dagger x for the unit coordinates w.
    """
    w_in = f.in_alg.identity_vector()
    w_out = f.out_alg.identity_vector()
    return tol.allclose(w_out.conj() @ f.m.a, w_in)


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
    delta_s = _diag_embedder(src.b)
    delta_d = _diag_embedder(dst.b)
    emb_res = float(np.abs(np.kron(f_b, f_b) @ delta_s - delta_d @ f_b).max())
    mu_s = delta_s.T
    mu_d = delta_d.T
    outer_res = float(
        np.abs(chi_d @ mu_d @ np.kron(f_b, f_b) - f_v @ chi_s @ mu_s).max()
    )
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


def verify_cp_design(f: CpMap, tol: Tolerance = DEFAULT_TOL) -> CpDesignReport:
    """Check the uniformity / regularity / balance conditions of a map.

    Works on any algebra combination: the unit coordinate vector is all-ones
    for Commutative(n) and vec(I) for Matrix(n).  Note a transposed (dual)
    map swaps the roles of k and r.
    """
    m = f.m.a
    w_in = f.in_alg.identity_vector()
    w_out = f.out_alg.identity_vector()
    row = w_out.conj() @ m
    k_est = complex(row @ w_in) / f.in_alg.n
    unif_res = float(np.abs(row - k_est * w_in.conj()).max())
    unif_slack = tol.abs_eps + tol.rel_eps * max(1.0, float(np.abs(row).max(initial=0.0)))
    k_ok = unif_res <= unif_slack and abs(k_est.imag) <= unif_slack
    col = m @ w_in
    r_est = complex(w_out.conj() @ col) / f.out_alg.n
    reg_res = float(np.abs(col - r_est * w_out).max())
    reg_slack = tol.abs_eps + tol.rel_eps * max(1.0, float(np.abs(col).max(initial=0.0)))
    r_ok = reg_res <= reg_slack and abs(r_est.imag) <= reg_slack
    lam = None
    lam_res = None
    if r_ok:
        with np.errstate(over="ignore", invalid="ignore"):
            gram = m @ m.conj().T
        if not np.all(np.isfinite(gram)):
            raise ValueError("m m^dagger is not finite; the largest |entry| of the map is "
                             f"{float(np.abs(m).max())!r}")
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
