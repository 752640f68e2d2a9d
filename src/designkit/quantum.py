"""Projector families as quantum designs.

A quantum design on a b-dimensional space is an ordered family of v complex
b x b orthogonal projectors.  This module validates projector families,
classifies the analogue parameters (r = common trace, k = sum coefficient,
degree = number of distinct pairwise trace values, commutativity), tensors
designs, recovers an incidence matrix from a commuting family via a common
eigenbasis, and builds/verifies mutually unbiased bases in prime dimension.
Its counting identities are classical.check_identities under Tolerance.close.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classical import _COMPLETE_MAX_CELLS, CheckFailed, ClassicalDesign, _check_size, _is_prime
from .linalg import (
    DEFAULT_TOL,
    ComplexMatrix,
    NatMatrix,
    Tolerance,
    _require_finite,
    split_by_projector,
)

__all__ = [
    "QuantumDesign",
    "QuantumParams",
    "ProjectorCheck",
    "ValidationReport",
    "MubFamily",
    "MubReport",
    "validate",
    "classify_quantum",
    "to_classical",
    "tensor_q",
    "mub_generate",
    "mub_verify",
]


@dataclass(frozen=True)
class QuantumDesign:
    """Ordered family of b x b complex matrices meant to be projectors, views of one array:
    ``_stack``, C-contiguous (v, b, b) complex128.  A design is treated as immutable,
    though its arrays are writeable: validate keeps its report on it, per Tolerance."""

    projectors: tuple[ComplexMatrix, ...]

    def __post_init__(self) -> None:
        projectors = tuple(self.projectors)
        if not projectors:
            raise ValueError("a quantum design needs at least one projector")
        b = projectors[0].rows
        for i, p in enumerate(projectors):
            if p.rows != p.cols or p.rows != b:
                raise ValueError(f"projector {i} is {p.rows}x{p.cols}, expected {b}x{b}")
        self._hold(np.stack([p.a for p in projectors]))

    @classmethod
    def _from_stack(cls, stack: np.ndarray) -> "QuantumDesign":
        # Internal: the family of a fresh (v, b, b) complex128 array, v, b >= 1, uncopied.
        _require_finite(stack)
        design = object.__new__(cls)
        design._hold(np.ascontiguousarray(stack))
        return design

    def _hold(self, stack: np.ndarray) -> None:
        object.__setattr__(self, "_stack", stack)
        object.__setattr__(self, "projectors", tuple(map(ComplexMatrix._raw, stack)))
        object.__setattr__(self, "_reports", {})  # Tolerance -> ValidationReport

    @property
    def v(self) -> int:
        return self._stack.shape[0]

    @property
    def b(self) -> int:
        return self._stack.shape[1]


@dataclass(frozen=True)
class ProjectorCheck:
    """Hermiticity and idempotency residuals (max-abs) for one projector."""

    index: int
    hermiticity_residual: float
    idempotency_residual: float
    ok: bool


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[ProjectorCheck, ...]
    ok: bool


@dataclass(frozen=True)
class QuantumParams:
    """Classified parameters of a projector family.

    r: common trace when it is tol-equal to one natural number, else None.
    k: sum coefficient when the projectors sum to k * identity, else None.
    degree: number of pairwise-trace clusters; lam_set: their means, sorted.
    commutative: the family has a joint eigenbasis within the residual
    threshold b * (abs_eps + rel_eps) (see to_classical).
    """

    r: int | None
    k: float | None
    degree: int
    lam_set: tuple[float, ...]
    commutative: bool

    @property
    def lam(self) -> float | None:
        return self.lam_set[0] if self.degree == 1 else None


def validate(design: QuantumDesign, tol: Tolerance = DEFAULT_TOL) -> ValidationReport:
    """Check p = p^dagger = p^2 for every family member, with residuals, and keep the
    report on the design for the checks that need a projector family at an equal tolerance.

    Raises ValueError naming the projector and its largest |entry| when p p
    is not finite in binary64.
    """
    checks: list[ProjectorCheck] = []
    step = _batch_size(design.b)
    for lo in range(0, design.v, step):
        a = design._stack[lo : lo + step]
        a_h = a.conj().swapaxes(1, 2)
        with np.errstate(over="ignore", invalid="ignore"):
            a_sq = a @ a
        finite = np.isfinite(a_sq).all(axis=(1, 2))
        if not finite.all():
            i = int(np.argmin(finite))
            raise ValueError(f"projector {lo + i}: p p is not finite; its largest |entry| is "
                             f"{float(np.abs(a[i]).max())!r}")
        # Each magnitude once, for the residuals and the verdicts alike; |p^dagger|
        # is |p| transposed, bit for bit.
        mag, herm_gap, idem_gap = np.abs(a), np.abs(a - a_h), np.abs(a_sq - a)
        herm = herm_gap.max(axis=(1, 2)).tolist()
        idem = idem_gap.max(axis=(1, 2)).tolist()
        ok = (tol._within(herm_gap, np.maximum(mag, mag.swapaxes(1, 2)))
              & tol._within(idem_gap, np.maximum(np.abs(a_sq), mag))).all(axis=(1, 2)).tolist()
        checks += map(ProjectorCheck, range(lo, lo + len(a)), herm, idem, ok)
    report = ValidationReport(checks=tuple(checks), ok=all(c.ok for c in checks))
    design._reports[tol] = report
    return report


def _require_projectors(design: QuantumDesign, tol: Tolerance) -> None:
    rep = design._reports.get(tol) or validate(design, tol)
    if not rep.ok:
        bad = [c.index for c in rep.checks if not c.ok]
        raise CheckFailed(f"not a projector family: indices {bad} fail validation")


def _cluster(values: np.ndarray, threshold: float) -> list[list[float]]:
    # Sorted values join the open cluster while x - first <= threshold, so no
    # cluster spreads wider than threshold.  x - first rises with x, so a cluster
    # ends where searchsorted puts first + threshold, give or take that sum's rounding.
    xs = np.sort(values, kind="stable")
    out: list[list[float]] = []
    lo = 0
    while lo < xs.size:
        first = xs[lo]
        hi = int(np.searchsorted(xs, first + threshold, side="right"))
        while hi < xs.size and xs[hi] - first <= threshold:
            hi += 1
        while xs[hi - 1] - first > threshold:
            hi -= 1
        out.append(xs[lo:hi].tolist())
        lo = hi
    return out


def classify_quantum(design: QuantumDesign, tol: Tolerance = DEFAULT_TOL) -> QuantumParams:
    """Read off (r, k, degree, lam_set, commutative) from a projector family.

    commutative is decided by the joint-eigenbasis proof that to_classical
    runs, so the two always agree.  Raises CheckFailed when the family fails
    projector validation or a pairwise trace comes out non-real far beyond
    tolerance.
    """
    _require_projectors(design, tol)
    stack = design._stack
    v, b = design.v, design.b
    traces = np.einsum("aii->a", stack)
    r0 = tol.near_int(traces[0])
    r = r0 if r0 is not None and r0 >= 0 and tol.isclose(traces, r0).all() else None
    total = stack.sum(axis=0)
    k_cand = float(np.trace(total).real) / b
    k = k_cand if tol.allclose(total, k_cand * np.eye(b)) else None
    # gram[i, j] = Tr(p_i p_j) = sum over (a, c) of p_i[a, c] p_j[c, a]: BLAS
    # products against batches of transposed projectors.
    flat = stack.reshape(v, b * b)
    gram = np.empty((v, v), dtype=np.complex128)
    step = _batch_size(b)
    for lo in range(0, v, step):
        transposed = stack[lo : lo + step].transpose(0, 2, 1).reshape(-1, b * b)
        gram[:, lo : lo + step] = flat @ transposed.T
    pairs = np.triu_indices(v, 1)
    z = gram[pairs]
    not_real = ~tol.isclose(z.imag, 0.0)
    if not_real.any():
        first = int(np.argmax(not_real))
        i, j = int(pairs[0][first]), int(pairs[1][first])
        raise CheckFailed(
            f"pairwise trace of projectors {i}, {j} is not real: {complex(z[first])!r}"
        )
    scale = float(np.abs(z.real).max(initial=0.0))
    threshold = 10.0 * tol.slack(scale)
    clusters = _cluster(z.real, threshold)
    lam_set = tuple(sum(c) / len(c) for c in clusters)
    try:
        _joint_patterns(design, tol)
        commutative = True
    except _NotCommuting:
        commutative = False
    return QuantumParams(
        r=r, k=k, degree=len(lam_set), lam_set=lam_set, commutative=commutative
    )


class _NotCommuting(CheckFailed):
    """The family has no joint eigenbasis within tolerance."""

    def __init__(self) -> None:
        super().__init__("projectors do not pairwise commute; no joint eigenbasis")


def _weights(v: int) -> np.ndarray:
    # Fixed pseudo-random weights in [1, 2), the splitmix64 hash of 1..v.
    # Generic weights give the distinct joint eigenspaces of a commuting
    # family distinct eigenvalues of sum_i c_i p_i, unless two patterns happen
    # to have nearly equal weight sums, which the fallback covers.  (Numpy's
    # own generators would do, but importing numpy.random takes about 12 ms.)
    x = np.arange(1, v + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return 1.0 + (x >> np.uint64(11)).astype(np.float64) * 2.0**-53


def _batch_size(b: int) -> int:
    # Projectors per batch of b x b matrices, about 2^15 complex entries a
    # batch.  Products over all v projectors at once raised the median peak
    # RSS of a quantum benchmark pass from 91.5 to 100.6 MB.
    return max(1, (1 << 15) // (b * b))


def _joint_patterns(design: QuantumDesign, tol: Tolerance) -> np.ndarray:
    """v x b 0/1 matrix: entry (i, j) says whether p_i fixes joint eigenvector j.

    Diagonalises h = sum_i c_i p_i once; for a commuting family its
    eigenvectors u_j are joint eigenvectors (Horn & Johnson, Matrix Analysis,
    1.3) and d_ij = rint(Re u_j^dagger p_i u_j) is the pattern.  One residual
    decides: the family commutes when every column has

        max_i ||p_i u_j - d_ij u_j||_max <= b * (abs_eps + rel_eps)

    (the residual is infinite when some d_ij is not 0 or 1).  The threshold is
    the spectral-norm bound on a b x b commutator whose entries are within
    tolerance.  Columns above it are coupled to partners k with
    |u_k^dagger p_i u_j| above it; a coupling times the gap |w_j - w_k|
    larger than sum(c) * b * (abs_eps + rel_eps) proves non-commutation, and
    otherwise each connected component of coupled columns is refined one
    projector at a time on its own columns and its residuals recomputed.
    Columns come image-first, projector 0 most significant.  Raises
    _NotCommuting.
    """
    v, b = design.v, design.b
    stack = design._stack
    c = _weights(v)
    h = np.zeros((b, b), dtype=np.complex128)
    for weight, a in zip(c, stack):
        h += weight * a
    w, u = np.linalg.eigh(h)
    threshold = b * tol.slack(1.0)
    pattern, residual, coupling = _patterns(stack, u, threshold)
    failing = np.flatnonzero(residual > threshold)
    if failing.size:
        components = _coupled_components(stack, w, u, failing, coupling,
                                         float(c.sum()) * threshold, threshold)
        # Each split is held to the residual's own threshold.
        split_tol = Tolerance(abs_eps=threshold, rel_eps=0.0)
        refined = []
        for cols in components:
            # A group down to one vector leaves the refinement: its residual decides.
            groups, done = [[u[:, k] for k in cols]], []
            for p in design.projectors:
                try:
                    parts = [part for vecs in groups
                             for part in split_by_projector(vecs, p, split_tol)]
                except ValueError as exc:
                    raise _NotCommuting() from exc
                groups = [part for part in parts if len(part) > 1]
                done += [part[0] for part in parts if len(part) == 1]
            u[:, cols] = np.column_stack(done + [x for vecs in groups for x in vecs])
            refined += cols
        pattern[:, refined], residual, _ = _patterns(stack, u[:, refined])
        if not (residual <= threshold).all():
            raise _NotCommuting()
    order = np.lexsort(-pattern[::-1])
    return pattern[:, order].astype(np.int64)


def _patterns(stack: np.ndarray, u: np.ndarray, threshold: float | None = None) -> tuple:
    # d_ij = rint(Re u_j^dagger p_i u_j) and the column residuals
    # max_i ||p_i u_j - d_ij u_j||_max, infinite where some d_ij is not 0 or 1.
    # One product p_i u per projector, in batches.  If every residual is above
    # threshold after the first batch, as on mutually unbiased bases, the coupling
    # max_i |u_k^dagger p_i u_j| of all columns is read off the same products, else None.
    step = _batch_size(u.shape[0])
    rows = []
    residual = np.zeros(u.shape[1])
    coupling = None if threshold is None else np.zeros((u.shape[1], u.shape[1]))
    for lo in range(0, len(stack), step):
        r = stack[lo : lo + step] @ u
        d = np.rint(np.einsum("aj,saj->sj", u.conj(), r).real)
        np.maximum(residual, np.abs(d[:, np.newaxis, :] * u - r).max(axis=(0, 1)), out=residual)
        residual[~((d == 0.0) | (d == 1.0)).all(axis=0)] = np.inf
        rows.append(d)
        if coupling is not None and (lo or (residual > threshold).all()):
            np.maximum(coupling, np.abs(u.conj().T @ r).max(axis=0), out=coupling)
        else:
            coupling = None
    return np.concatenate(rows), residual, coupling


def _coupled_components(
    stack: np.ndarray, w: np.ndarray, u: np.ndarray, failing: np.ndarray,
    coupling: np.ndarray | None, witness_bound: float, threshold: float,
) -> list[list[int]]:
    # Connected components of the graph joining each failing column j to its
    # partners k, those with max_i |u_k^dagger p_i u_j| above threshold.
    # Pairwise commutators within tolerance keep |w_j - w_k| |u_k^dagger p_i u_j|
    # = |u_k^dagger [h, p_i] u_j| below witness_bound, so a larger value proves
    # the family does not commute.  Unless _patterns gave it, coupling is formed here.
    if coupling is None:
        coupling = np.zeros((u.shape[0], failing.size))
        u_h, u_f = u.conj().T, u[:, failing]
        step = _batch_size(u.shape[0])
        for lo in range(0, len(stack), step):
            m = np.abs(u_h @ stack[lo : lo + step] @ u_f)
            np.maximum(coupling, m.max(axis=0), out=coupling)
    coupling[failing, np.arange(failing.size)] = 0.0
    if not (np.abs(w[:, np.newaxis] - w[failing]) * coupling).max() <= witness_bound:
        raise _NotCommuting()
    components: list[set[int]] = []
    for col, j in enumerate(failing.tolist()):
        merged = {j, *np.flatnonzero(coupling[:, col] > threshold).tolist()}
        joined = [comp for comp in components if comp & merged]
        components = [comp for comp in components if not comp & merged]
        components.append(merged.union(*joined))
    return [sorted(comp) for comp in components]


def to_classical(design: QuantumDesign, tol: Tolerance = DEFAULT_TOL) -> ClassicalDesign:
    """Joint eigenbasis of a commuting projector family, as an incidence matrix.

    Entry (i, j) records whether projector i fixes joint eigenvector j.  The
    result is a v x b 0/1 matrix, unique up to column (block) ordering;
    columns come image-first, projector 0 most significant.  A basis counts
    as joint when max_i ||p_i u_j - d_ij u_j||_max <= b * (abs_eps + rel_eps)
    for every column u_j with pattern d_.j.  Raises CheckFailed for an invalid
    projector family, and when the family has no joint eigenbasis, i.e. does
    not commute.
    """
    _require_projectors(design, tol)
    return ClassicalDesign(NatMatrix._raw(_joint_patterns(design, tol)))


def tensor_q(q1: QuantumDesign, q2: QuantumDesign, tol: Tolerance = DEFAULT_TOL) -> QuantumDesign:
    """Kronecker products p_i (x) q_j in lexicographic (i, j) order."""
    _check_size(q1.v * q2.v * (q1.b * q2.b) ** 2, "v1*v2*(b1*b2)^2", "projector entries")
    for name, q in (("first", q1), ("second", q2)):
        if not validate(q, tol).ok:
            raise CheckFailed(f"{name} operand fails projector validation")
    s1 = q1._stack[:, np.newaxis, :, np.newaxis, :, np.newaxis]  # p_i[a, d] on axes 0, 2, 4
    s2 = q2._stack[np.newaxis, :, np.newaxis, :, np.newaxis, :]  # q_j[c, e] on axes 1, 3, 5
    return QuantumDesign._from_stack((s1 * s2).reshape(q1.v * q2.v, q1.b * q2.b, -1))


@dataclass(frozen=True)
class MubFamily:
    """Ordered orthonormal bases of C^d; each matrix holds one basis as columns."""

    bases: tuple[ComplexMatrix, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "bases", tuple(self.bases))
        if not self.bases:
            raise ValueError("a basis family needs at least one basis")
        d = self.bases[0].rows
        for i, m in enumerate(self.bases):
            if m.rows != d or m.cols != d:
                raise ValueError(f"basis {i} is {m.rows}x{m.cols}, expected {d}x{d}")

    @property
    def d(self) -> int:
        return self.bases[0].rows

    @property
    def k(self) -> int:
        return len(self.bases)

    @property
    def design(self) -> QuantumDesign:
        """The projectors x x^dagger onto every basis vector, basis by basis, unverified."""
        x = np.concatenate([m.a.T for m in self.bases])
        return QuantumDesign._from_stack(x[:, :, np.newaxis] * x.conj()[:, np.newaxis, :])


def mub_generate(d: int, k: int) -> MubFamily:
    """k mutually unbiased bases of C^d for prime d, 1 <= k <= d + 1.

    Basis 0 is computational.  For d = 2 the further bases are the +-x and
    +-y eigenbases.  For odd prime d, basis t (1 <= t <= d) has vectors
    with components omega^(t*l^2 + j*l) / sqrt(d), omega = exp(2*pi*i/d),
    j indexing the vector and l the component.  Refuses more than
    _COMPLETE_MAX_CELLS complex entries in the projectors, k * d^3, before
    anything else.
    """
    # At least one basis, and before the prime test, whose trial division is
    # slow for a huge d.
    _check_size(max(k, 1) * d**3, "max(k,1)*d^3", "projector entries", _COMPLETE_MAX_CELLS)
    if not _is_prime(d):
        raise ValueError(f"dimension {d} is not prime")
    if not 1 <= k <= d + 1:
        raise ValueError(f"need 1 <= k <= d + 1 = {d + 1}, got k={k}")
    bases = [ComplexMatrix(np.eye(d, dtype=np.complex128))]
    if d == 2:
        s = 1.0 / math.sqrt(2.0)
        extra = [
            ComplexMatrix(np.array([[s, s], [s, -s]], dtype=np.complex128)),
            ComplexMatrix(np.array([[s, s], [1j * s, -1j * s]], dtype=np.complex128)),
        ]
        bases.extend(extra[: k - 1])
    else:
        omega = np.exp(2j * np.pi / d)
        ls = np.arange(d)
        for t in range(1, k):
            cols = [omega ** ((t * ls * ls + j * ls) % d) / math.sqrt(d) for j in range(d)]
            bases.append(ComplexMatrix(np.column_stack(cols)))
    return MubFamily(bases=tuple(bases[:k]))


@dataclass(frozen=True)
class MubReport:
    """Verification outcome for a family of claimed mutually unbiased bases.

    trace_failures lists the first offending (basis a, vector i, basis b,
    vector j, observed, expected) tuples; trace_failure_count is the total.
    """

    d: int
    k: int
    basis_residuals: tuple[float, ...]
    orthonormal: bool
    trace_failures: tuple[tuple[int, int, int, int, float, float], ...]
    trace_failure_count: int
    sum_ok: bool
    params: QuantumParams | None
    classification_ok: bool
    design: QuantumDesign
    ok: bool


_MUB_FAILURE_CAP = 20


def mub_verify(family: MubFamily, tol: Tolerance = DEFAULT_TOL) -> MubReport:
    """Check the unbiasedness trace law and package the family as a design.

    Checks, in order: each basis is orthonormal; every pair of projectors
    p = x x^dagger obeys Tr(p_i^a p_j^b) = 1/d for a != b, delta_ij for
    a = b; the projectors sum to k * identity; and the resulting design
    classifies with r = 1, degree 2 (1 when k = 1) and trace values inside
    {0, 1/d}.  All outcomes land in the report; a failed check never raises.
    """
    d = family.d
    k = family.k
    eye = np.eye(d)
    grams = [m.a.conj().T @ m.a for m in family.bases]
    residuals = tuple(float(np.abs(g - eye).max()) for g in grams)
    orthonormal = all(tol.allclose(g, eye) for g in grams)
    vectors = np.column_stack([m.a for m in family.bases])
    overlaps = np.abs(vectors.conj().T @ vectors) ** 2
    # Row a*d + i, column b*d + j holds Tr(p_i^a p_j^b); its law is delta_ij
    # within a basis and 1/d across bases.  Pairs are read once, on and above
    # the diagonal, in row-major order.
    basis = np.arange(k * d) // d
    expected = np.where(basis[:, np.newaxis] == basis, np.eye(k * d), 1.0 / d)
    rows, cols = np.nonzero(np.triu(~tol.isclose(overlaps, expected)))
    count = len(rows)
    failures = [
        (*divmod(p, d), *divmod(q, d), float(overlaps[p, q]), float(expected[p, q]))
        for p, q in zip(rows[:_MUB_FAILURE_CAP].tolist(), cols[:_MUB_FAILURE_CAP].tolist())
    ]
    total = vectors @ vectors.conj().T
    sum_ok = tol.allclose(total, k * eye)
    design = family.design
    params: QuantumParams | None
    try:
        params = classify_quantum(design, tol)
    except CheckFailed:
        params = None
    expected_degree = 1 if k == 1 else 2
    classification_ok = (
        params is not None
        and params.r == 1
        and params.degree == expected_degree
        and all(
            tol.close(x, 0.0) or tol.close(x, 1.0 / d) for x in params.lam_set
        )
    )
    ok = orthonormal and count == 0 and sum_ok and classification_ok
    return MubReport(
        d=d,
        k=k,
        basis_residuals=residuals,
        orthonormal=orthonormal,
        trace_failures=tuple(failures),
        trace_failure_count=count,
        sum_ok=sum_ok,
        params=params,
        classification_ok=classification_ok,
        design=design,
        ok=ok,
    )
