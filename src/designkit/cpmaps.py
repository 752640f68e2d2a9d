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

import math
from dataclasses import dataclass

import numpy as np

from .classical import CheckFailed, ClassicalDesign, HomPair, _check_size, classify, verify_hom
from .linalg import DEFAULT_TOL, ComplexMatrix, Tolerance
from .quantum import QuantumDesign, _require_projectors

__all__ = [
    "COMMUTATIVE",
    "MATRIX",
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

# Most complex entries, v * b^2, that functor_q builds: 160 MB of complex128.  It
# admits the 133^3-entry image of pg2-11 and refuses pg2-17's 307^3.
_FUNCTOR_Q_MAX_ENTRIES = 10**7


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
    slack = tol.slack(top)
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
    _require_projectors(design, DEFAULT_TOL)
    return CpMap(in_alg=Algebra.commutative(design.v), out_alg=Algebra.matrix(design.b),
                 m=ComplexMatrix(design._stack.reshape(design.v, -1).T))


def functor_q(design: ClassicalDesign) -> QuantumDesign:
    """Diagonal-projector quantum design of a 0/1 block design.

    Row i of the incidence matrix becomes the diagonal projector
    p_i = diag(chi[i, :]).  The result classifies with the same (k, r),
    degree 1 and trace set {lambda}, and is commutative.  Raises CheckFailed
    for matrices with multiplicities (apply to_block first; parameters will
    change) and designs missing any of k, r, lambda.  Refuses more than
    _FUNCTOR_Q_MAX_ENTRIES projector entries, v * b^2, before anything else.
    """
    _check_size(design.v * design.b**2, "v*b^2", "projector entries", _FUNCTOR_Q_MAX_ENTRIES)
    if not design.is_zero_one:
        raise CheckFailed(
            "incidence matrix has entries > 1; apply to_block first "
            "(parameters will change)"
        )
    missing = classify(design).missing
    if missing:
        raise CheckFailed(f"not a block design: missing parameters {missing}")
    stack = np.zeros((design.v, design.b, design.b), dtype=np.complex128)
    stack[:, np.arange(design.b), np.arange(design.b)] = design.chi.a
    return QuantumDesign._from_stack(stack)


@dataclass(frozen=True)
class HomLiftCheck:
    """Residuals for the lifted homomorphism squares (max-abs each).

    hom_residual: F_v chi - chi' F_b, the incidence square itself; 0.0, as
    verify_hom proves it exactly.
    embedding_residual: (F_b (x) F_b) Delta - Delta' F_b, the copy square;
    always 0.0.
    outer_residual: chi' mu' (F_b (x) F_b) - F_v chi mu on all of C^(b*b):
    the largest entry of chi' in a block that two or more source blocks map
    to, so zero whenever the block map is injective (permutations in
    particular), and an honest obstruction witness when it is not.
    ok: every square commutes, decided exactly: outer_residual is 0.
    """

    hom_residual: float
    embedding_residual: float
    outer_residual: float
    ok: bool


def functor_q_on_hom(src: ClassicalDesign, dst: ClassicalDesign, hom: HomPair) -> HomLiftCheck:
    """Prove the hom square with verify_hom, then check its lifted squares by index.

    A failed hom square raises CheckFailed whose ``witness`` is verify_hom's
    HomCheck.  Delta is the diagonal comultiplication x -> x (x) x on
    coordinates; mu = Delta^T is the multiplication.  F_v and F_b are the 0/1
    selector matrices of the point and block maps.  Every residual is read
    off the integer data in O(v' b'); no selector is built.  The residuals are
    integers, so the verdict is exact and takes no tolerance; an outer
    residual beyond binary64 raises ValueError.
    """
    check = verify_hom(src, dst, hom)
    if not check.ok:
        raise CheckFailed(f"hom square fails at cell {check.cell}: {check.lhs} != {check.rhs}",
                          witness=check)
    # The hom residual is 0: verify_hom has proved F_v chi = chi' F_b exactly.  The
    # embedding residual is 0: (F_b (x) F_b) Delta and Delta' F_b send block j to e_(f(j), f(j)).
    # At (i, (j, k)), chi' mu' (F_b (x) F_b) is chi'[i, f(j)] when f(j) = f(k)
    # and 0 otherwise; F_v chi mu is (F_v chi)[i, j] = chi'[i, f(j)] when j = k
    # and 0 otherwise.  They differ exactly where j != k and f(j) = f(k), by
    # chi'[i, f(j)]: the largest entry of chi' in a block hit twice or more.
    merged = np.bincount(hom.f_b, minlength=dst.b) > 1
    outer = dst.chi.a.max(axis=0)[merged].max(initial=0)
    try:
        outer_res = float(outer)
    except OverflowError:
        raise ValueError(f"outer residual {outer} (an entry of a merged destination block) "
                         "exceeds binary64") from None
    return HomLiftCheck(hom_residual=0.0, embedding_residual=0.0, outer_residual=outer_res,
                        ok=bool(outer == 0))


@dataclass(frozen=True)
class CpDesignReport:
    """Design-condition report for a coordinate map.

    k is the uniformity constant (unit covector condition), r the regularity
    constant (unit vector condition); each is None when its residual exceeds
    tolerance.  When r is present, lam_residual is
    || m m^dagger - [lam (w w^dagger - I) + r I] ||_max (w = unit coordinates of
    the output algebra) and lam is the unique real minimiser of that norm over
    the moving entries, those where w w^dagger - I is nonzero.  The fixed
    entries enter only lam_residual, so a map whose fixed entries dominate
    still reports this one lam.  lam_balanced is claimed only when the
    residual is at most abs_eps.
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


def _balance_fit(base: np.ndarray, shape: np.ndarray, fixed: float) -> tuple[float, float]:
    """(lam, max(fixed, max_e |base_e - lam shape_e|)) for the unique real lam
    minimising the moving part, where every shape_e is +1 or -1.

    |base_e - lam shape_e| = |c_e - lam| with c_e = base_e shape_e, so lam is the
    real centre of the smallest disc holding every c_e.  Since
    |c_e - t|^2 = t^2 - 2 x_e t + q_e with x_e = Re c_e and q_e = |c_e|^2, lam
    maximises H(t) - t^2, where H is the upper concave envelope of the points
    (x_e, q_e).  On the envelope edge from a to b that maximum is at the point
    equidistant from c_a and c_b, t = (q_b - q_a) / (2 (x_b - x_a)), clipped to
    [x_a, x_b].  No moving entry, or only zeros, gives lam = 0.
    """
    c = base * shape
    top = float(np.abs(c).max(initial=0.0))
    lam = 0.0
    if top > 0.0:
        # Exact scaling by a power of two 2^e >= max|c_e|, so q_e <= 1 cannot overflow.
        e = math.frexp(top)[1]
        x, y = np.ldexp(c.real, -e), np.ldexp(c.imag, -e)
        q = x * x + y * y
        order = np.lexsort((q, x))
        x, q = x[order], q[order]
        last = np.append(x[1:] != x[:-1], True)  # the highest point of each x
        hull: list[tuple[float, float]] = []
        for b in zip(x[last].tolist(), q[last].tolist()):
            # Drop the last vertex while it is on or below the chord to b.
            while len(hull) > 1 and ((hull[-1][0] - hull[-2][0]) * (b[1] - hull[-2][1])
                                     >= (hull[-1][1] - hull[-2][1]) * (b[0] - hull[-2][0])):
                hull.pop()
            hull.append(b)
        lam = hull[-1][0]
        for (xa, qa), (xb, qb) in zip(hull, hull[1:]):
            t = (qb - qa) / (2.0 * (xb - xa))
            if t < xb:
                lam = max(xa, t)
                break
        lam = math.ldexp(lam, e)
    return lam, float(np.abs(base - lam * shape).max(initial=fixed))


def verify_cp_design(f: CpMap, tol: Tolerance = DEFAULT_TOL) -> CpDesignReport:
    """Check the uniformity / regularity / balance conditions of a map.

    Works on any algebra combination: the unit coordinate vector is all-ones
    for Commutative(n) and vec(I) for Matrix(n).  Note a transposed (dual)
    map swaps the roles of k and r.  lam is computed in closed form from the
    moving entries alone, and the balance residual is evaluated once, at lam,
    over every entry.
    """
    m = f.m.a
    w_in = f.in_alg.identity_vector()
    w_out = f.out_alg.identity_vector()
    with np.errstate(over="ignore", invalid="ignore"):
        row = w_out.conj() @ m
        col = m @ w_in
        k_est = complex(row @ w_in) / f.in_alg.n
        r_est = complex(w_out.conj() @ col) / f.out_alg.n
        unif_res = float(np.abs(row - k_est * w_in.conj()).max())
        reg_res = float(np.abs(col - r_est * w_out).max())
    # Every unit sum enters its total and its residual.  A sum, total or residual
    # beyond binary64 needs an entry whose square is beyond it too.
    if not np.isfinite([k_est, r_est, unif_res, reg_res]).all():
        _gram(m)
    unif_slack = tol.slack(max(1.0, float(np.abs(row).max(initial=0.0))))
    k_ok = unif_res <= unif_slack and abs(k_est.imag) <= unif_slack
    reg_slack = tol.slack(max(1.0, float(np.abs(col).max(initial=0.0))))
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
        span = float(np.abs(gram).max(initial=0.0)) + abs(r_est.real) + 1.0
        bound = float(np.finfo(np.float64).max) / 2.0  # keeps every |base - lam shape| finite
        if not span <= bound:
            raise ValueError(f"lambda balance bound max|m m^dagger| + |r| + 1 = {span!r} "
                             f"exceeds {bound!r}, half the binary64 range")
        lam, lam_res = _balance_fit(base[moving], shape[moving].real, fixed)
    return CpDesignReport(
        k=k_est.real if k_ok else None,
        r=r_est.real if r_ok else None,
        uniformity_residual=unif_res,
        regularity_residual=reg_res,
        lam=lam,
        lam_residual=lam_res,
        lam_balanced=lam_res is not None and lam_res <= tol.abs_eps,
    )
