"""Projector families as quantum designs.

A quantum design on a b-dimensional space is an ordered family of v complex
b x b orthogonal projectors.  This module validates projector families,
classifies the analogue parameters (r = common trace, k = sum coefficient,
degree = number of distinct pairwise trace values, commutativity), checks the
real-valued counting identities, tensors designs, recovers an incidence
matrix from a commuting family via a common eigenbasis, and builds/verifies
mutually unbiased bases in prime dimension.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .classical import ClassicalDesign, IdentityCheck, _is_prime
from .linalg import (
    DEFAULT_TOL,
    ComplexMatrix,
    NatMatrix,
    Tolerance,
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
    "check_identities_q",
    "to_classical",
    "tensor_q",
    "mub_generate",
    "mub_verify",
]


@dataclass(frozen=True)
class QuantumDesign:
    """Ordered family of square complex matrices meant to be projectors."""

    projectors: tuple[ComplexMatrix, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "projectors", tuple(self.projectors))
        if not self.projectors:
            raise ValueError("a quantum design needs at least one projector")
        b = self.projectors[0].rows
        for i, p in enumerate(self.projectors):
            if p.rows != p.cols or p.rows != b:
                raise ValueError(
                    f"projector {i} is {p.rows}x{p.cols}, expected {b}x{b}"
                )

    @property
    def v(self) -> int:
        return len(self.projectors)

    @property
    def b(self) -> int:
        return self.projectors[0].rows


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
    commutative: all pairs of projectors commute within tolerance.
    """

    r: int | None
    k: float | None
    degree: int
    lam_set: tuple[float, ...]
    commutative: bool

    @property
    def lam(self) -> float | None:
        return self.lam_set[0] if self.degree == 1 else None


class _NotFinite(ValueError):
    """A projector whose square leaves binary64: out-of-range input, not a failed check."""


def validate(design: QuantumDesign, tol: Tolerance = DEFAULT_TOL) -> ValidationReport:
    """Check p = p^dagger = p^2 for every family member, with residuals.

    Raises ValueError naming the projector and its largest |entry| when p p
    is not finite in binary64.
    """
    checks = []
    for i, p in enumerate(design.projectors):
        a = p.a
        a_h = a.conj().T
        with np.errstate(over="ignore", invalid="ignore"):
            a_sq = a @ a
        if not np.isfinite(a_sq).all():
            raise _NotFinite(f"projector {i}: p p is not finite; its largest |entry| is "
                             f"{float(np.abs(a).max())!r}")
        herm = float(np.abs(a - a_h).max())
        idem = float(np.abs(a_sq - a).max())
        ok = tol.allclose(a, a_h) and tol.allclose(a_sq, a)
        checks.append(
            ProjectorCheck(
                index=i, hermiticity_residual=herm, idempotency_residual=idem, ok=ok
            )
        )
    return ValidationReport(checks=tuple(checks), ok=all(c.ok for c in checks))


def _require_projectors(design: QuantumDesign, tol: Tolerance) -> None:
    rep = validate(design, tol)
    if not rep.ok:
        bad = [c.index for c in rep.checks if not c.ok]
        raise ValueError(f"not a projector family: indices {bad} fail validation")


def _cluster(values: list[float], threshold: float) -> list[list[float]]:
    # Sorted values join the open cluster while within threshold of its first
    # value, so no cluster spreads wider than threshold.
    out: list[list[float]] = []
    for x in sorted(values):
        if out and x - out[-1][0] <= threshold:
            out[-1].append(x)
        else:
            out.append([x])
    return out


def classify_quantum(design: QuantumDesign, tol: Tolerance = DEFAULT_TOL) -> QuantumParams:
    """Read off (r, k, degree, lam_set, commutative) from a projector family.

    commutative is decided by the joint-eigenbasis proof that to_classical
    runs, so the two always agree.  Raises ValueError when the family fails
    projector validation or a pairwise trace comes out non-real far beyond
    tolerance.
    """
    _require_projectors(design, tol)
    stack = np.stack([p.a for p in design.projectors])
    v, b = design.v, design.b
    traces = np.einsum("aii->a", stack)
    r0 = tol.near_int(traces[0])
    r = r0 if r0 is not None and r0 >= 0 and all(tol.close(t, r0) for t in traces) else None
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
    imag = np.abs(z.imag)
    not_real = ~((imag <= tol.abs_eps + tol.rel_eps * imag) & (imag < np.inf))
    if not_real.any():
        first = int(np.argmax(not_real))
        i, j = int(pairs[0][first]), int(pairs[1][first])
        raise ValueError(
            f"pairwise trace of projectors {i}, {j} is not real: {complex(z[first])!r}"
        )
    vals = z.real.tolist()
    scale = max((abs(x) for x in vals), default=0.0)
    threshold = 10.0 * (tol.abs_eps + tol.rel_eps * scale)
    clusters = _cluster(vals, threshold)
    lam_set = tuple(sum(c) / len(c) for c in clusters)
    try:
        _joint_patterns(design, tol)
        commutative = True
    except _NotCommuting:
        commutative = False
    return QuantumParams(
        r=r, k=k, degree=len(lam_set), lam_set=lam_set, commutative=commutative
    )


def check_identities_q(
    v: int, b: int, params: QuantumParams, tol: Tolerance = DEFAULT_TOL
) -> list[IdentityCheck]:
    """Real-valued counting identities, compared with tolerance.

    Emits b*k = r*v always (k and r must be classified); emits
    lambda*(v-1) = r*(k-1) only when the family has degree 1.
    """
    if params.k is None or params.r is None:
        raise ValueError("check_identities_q needs both k and r classified")
    lhs1 = b * params.k
    rhs1 = float(params.r * v)
    out = [
        IdentityCheck(name="b*k = r*v", lhs=lhs1, rhs=rhs1, passed=tol.close(lhs1, rhs1))
    ]
    if params.degree == 1:
        lam = params.lam_set[0]
        lhs2 = lam * (v - 1)
        rhs2 = params.r * (params.k - 1)
        out.append(
            IdentityCheck(
                name="lambda*(v-1) = r*(k-1)",
                lhs=lhs2,
                rhs=rhs2,
                passed=tol.close(lhs2, rhs2),
            )
        )
    return out


class _NotCommuting(ValueError):
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

    Diagonalises h = sum_i c_i p_i once; for a commuting family every
    u^dagger p_i u is then diagonal with 0/1 entries (Horn & Johnson, Matrix
    Analysis, 1.3).  Columns come image-first, projector 0 most significant,
    the order of the refinement by one projector at a time.  That refinement
    runs only when the check fails and the failure could come from mixed
    eigenvectors of nearly equal eigenvalues of h.  Raises _NotCommuting.
    """
    v, b = design.v, design.b
    arrays = [p.a for p in design.projectors]
    c = _weights(v)
    h = np.zeros((b, b), dtype=np.complex128)
    for weight, a in zip(c, arrays):
        h += weight * a
    w, u = np.linalg.eigh(h)
    u_h = u.conj().T
    gaps = np.abs(w[:, np.newaxis] - w[np.newaxis, :])
    idx = np.arange(b)
    rows = []
    diagonal_ok = True
    off_max = witness = 0.0
    step = _batch_size(b)
    for lo in range(0, v, step):
        m = u_h @ np.stack(arrays[lo : lo + step]) @ u
        diag = m[:, idx, idx]
        rows.append(np.rint(diag.real))
        diagonal_ok = diagonal_ok and tol.allclose(diag, rows[-1])
        m[:, idx, idx] = 0.0
        off = np.abs(m)
        off_max = max(off_max, float(off.max()))
        # u_j^dagger [p_i, h] u_k = (w_k - w_j) m[i, j, k]
        off *= gaps
        witness = max(witness, float(off.max()))
    pattern = np.concatenate(rows)
    if (
        diagonal_ok
        and bool(((pattern == 0.0) | (pattern == 1.0)).all())
        and tol.close(off_max, 0.0)
    ):
        order = np.lexsort(-pattern[::-1])
        return pattern[:, order].astype(np.int64)
    # Pairwise commutators within tolerance keep [p_i, h] below
    # sum_l c_l * b * (abs_eps + rel_eps) in spectral norm, so a larger witness
    # proves the family does not commute; a smaller one may be eigenvectors
    # mixed across a gap too small to separate them, so refine.
    if not witness <= float(c.sum()) * b * (tol.abs_eps + tol.rel_eps):
        raise _NotCommuting()
    return _refine(design, tol)


def _refine(design: QuantumDesign, tol: Tolerance) -> np.ndarray:
    """Joint patterns by refining the standard basis by each projector in turn."""
    b = design.b
    eye = np.eye(b, dtype=np.complex128)
    groups: list[tuple[list[np.ndarray], tuple[int, ...]]] = [
        ([eye[:, i] for i in range(b)], ())
    ]
    for p in design.projectors:
        refined: list[tuple[list[np.ndarray], tuple[int, ...]]] = []
        for vecs, pattern in groups:
            try:
                img, ker = split_by_projector(vecs, p, tol)
            except ValueError as exc:
                raise _NotCommuting() from exc
            if img:
                refined.append((img, pattern + (1,)))
            if ker:
                refined.append((ker, pattern + (0,)))
        groups = refined
    columns = [pattern for vecs, pattern in groups for _ in vecs]
    return np.array(columns, dtype=np.int64).T


def to_classical(design: QuantumDesign, tol: Tolerance = DEFAULT_TOL) -> ClassicalDesign:
    """Joint eigenbasis of a commuting projector family, as an incidence matrix.

    Entry (i, j) records whether projector i fixes joint eigenvector j.  The
    result is a v x b 0/1 matrix, unique up to column (block) ordering;
    columns come image-first, projector 0 most significant.  Raises
    ValueError for an invalid projector family, and when the family has no
    joint eigenbasis, i.e. does not commute.
    """
    _require_projectors(design, tol)
    return ClassicalDesign(NatMatrix(_joint_patterns(design, tol).tolist()))


def tensor_q(q1: QuantumDesign, q2: QuantumDesign, tol: Tolerance = DEFAULT_TOL) -> QuantumDesign:
    """Kronecker products p_i (x) q_j in lexicographic (i, j) order."""
    for name, q in (("first", q1), ("second", q2)):
        if not validate(q, tol).ok:
            raise ValueError(f"{name} operand fails projector validation")
    projectors = [
        ComplexMatrix(np.kron(p.a, q.a))
        for p, q in itertools.product(q1.projectors, q2.projectors)
    ]
    return QuantumDesign(projectors=tuple(projectors))


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


def mub_generate(d: int, k: int) -> MubFamily:
    """k mutually unbiased bases of C^d for prime d, 1 <= k <= d + 1.

    Basis 0 is computational.  For d = 2 the further bases are the +-x and
    +-y eigenbases.  For odd prime d, basis t (1 <= t <= d) has vectors
    with components omega^(t*l^2 + j*l) / sqrt(d), omega = exp(2*pi*i/d),
    j indexing the vector and l the component.
    """
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
    {0, 1/d}.  All outcomes land in the report; nothing raises on failure.
    """
    d = family.d
    k = family.k
    residuals = tuple(
        float(np.abs(m.a.conj().T @ m.a - np.eye(d)).max()) for m in family.bases
    )
    orthonormal = all(
        tol.allclose(m.a.conj().T @ m.a, np.eye(d)) for m in family.bases
    )
    vectors = np.column_stack([m.a for m in family.bases])
    overlaps = np.abs(vectors.conj().T @ vectors) ** 2
    failures: list[tuple[int, int, int, int, float, float]] = []
    count = 0
    for a in range(k):
        for i in range(d):
            for bb in range(k):
                for j in range(d):
                    if (a, i) > (bb, j):
                        continue
                    expected = (1.0 if (i == j) else 0.0) if a == bb else 1.0 / d
                    got = float(overlaps[a * d + i, bb * d + j])
                    if not tol.close(got, expected):
                        count += 1
                        if len(failures) < _MUB_FAILURE_CAP:
                            failures.append((a, i, bb, j, got, expected))
    total = vectors @ vectors.conj().T
    sum_ok = tol.allclose(total, k * np.eye(d))
    projectors = tuple(
        ComplexMatrix(np.outer(vectors[:, c], vectors[:, c].conj()))
        for c in range(k * d)
    )
    design = QuantumDesign(projectors=projectors)
    params: QuantumParams | None
    try:
        params = classify_quantum(design, tol)
    except ValueError:
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
