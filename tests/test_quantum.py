import numpy as np
import pytest

from designkit.classical import gen_complete, gen_projective_plane
from designkit.cpmaps import functor_q
from designkit.linalg import DEFAULT_TOL, ComplexMatrix, Tolerance
from designkit.quantum import (
    MubFamily,
    QuantumDesign,
    QuantumParams,
    check_identities_q,
    classify_quantum,
    mub_generate,
    mub_verify,
    tensor_q,
    to_classical,
    validate,
)
from designkit.quantum import _cluster


def basis_projectors(d):
    eye = np.eye(d, dtype=np.complex128)
    return QuantumDesign(
        projectors=tuple(ComplexMatrix(np.outer(eye[:, i], eye[:, i])) for i in range(d))
    )


def random_unitary(n, seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def conjugate(design, u):
    return QuantumDesign(
        projectors=tuple(ComplexMatrix(u @ p.a @ u.conj().T) for p in design.projectors)
    )


def test_quantum_design_shape_validation():
    with pytest.raises(ValueError):
        QuantumDesign(projectors=())
    with pytest.raises(ValueError):
        QuantumDesign(
            projectors=(ComplexMatrix.identity(2), ComplexMatrix.identity(3))
        )
    with pytest.raises(ValueError):
        QuantumDesign(projectors=(ComplexMatrix([[1.0, 0.0]]),))


def test_validate_accepts_projector_family():
    rep = validate(basis_projectors(3))
    assert rep.ok
    assert all(c.hermiticity_residual == 0.0 for c in rep.checks)
    assert all(c.idempotency_residual == 0.0 for c in rep.checks)


def test_validate_reports_residuals_for_failures():
    not_herm = ComplexMatrix([[0.0, 1.0], [0.0, 0.0]])
    not_idem = ComplexMatrix(0.5 * np.eye(2))
    rep = validate(QuantumDesign(projectors=(not_herm, not_idem)))
    assert not rep.ok
    assert not rep.checks[0].ok and rep.checks[0].hermiticity_residual == 1.0
    assert not rep.checks[1].ok and rep.checks[1].idempotency_residual == 0.25


def test_classify_quantum_functor_image():
    p = classify_quantum(functor_q(gen_projective_plane(2)))
    assert p.r == 3
    assert DEFAULT_TOL.close(p.k, 3.0)
    assert p.degree == 1
    assert len(p.lam_set) == 1 and DEFAULT_TOL.close(p.lam_set[0], 1.0)
    assert DEFAULT_TOL.close(p.lam, 1.0)
    assert p.commutative


def test_classify_quantum_basis_pvm():
    p = classify_quantum(basis_projectors(3))
    assert (p.r, p.degree, p.commutative) == (1, 1, True)
    assert DEFAULT_TOL.close(p.k, 1.0)
    assert DEFAULT_TOL.close(p.lam_set[0], 0.0)


def test_classify_quantum_mub_family():
    p = classify_quantum(mub_verify(mub_generate(2, 2)).design)
    assert p.r == 1
    assert DEFAULT_TOL.close(p.k, 2.0)
    assert p.degree == 2
    assert p.lam is None
    assert not p.commutative
    lam = sorted(p.lam_set)
    assert abs(lam[0] - 0.0) < 1e-9 and abs(lam[1] - 0.5) < 1e-9


def test_classify_quantum_unclassifiable_parameters():
    # traces 1 and 2 -> no common r; sum diag(2, 1) -> no k
    p1 = ComplexMatrix(np.diag([1.0, 0.0]))
    p2 = ComplexMatrix(np.eye(2))
    params = classify_quantum(QuantumDesign(projectors=(p1, p2)))
    assert params.r is None and params.k is None


def test_classify_quantum_rejects_invalid_family():
    with pytest.raises(ValueError):
        classify_quantum(QuantumDesign(projectors=(ComplexMatrix([[0.5, 0], [0, 0.5]]),)))


def test_classify_quantum_single_projector_degree_zero():
    params = classify_quantum(QuantumDesign(projectors=(ComplexMatrix.identity(2),)))
    assert params.degree == 0 and params.lam_set == () and params.lam is None


def test_check_identities_q_functor_image():
    design = functor_q(gen_projective_plane(2))
    params = classify_quantum(design)
    checks = check_identities_q(design.v, design.b, params)
    assert [c.name for c in checks] == ["b*k = r*v", "lambda*(v-1) = r*(k-1)"]
    assert all(c.passed for c in checks)
    assert checks[0].lhs == pytest.approx(21.0, abs=1e-9)
    assert checks[1].lhs == pytest.approx(6.0, abs=1e-9)


def test_check_identities_q_detects_violation():
    params = QuantumParams(r=2, k=2.0, degree=1, lam_set=(1.0,), commutative=True)
    checks = check_identities_q(4, 4, params)
    assert checks[0].passed  # 8 = 8
    assert not checks[1].passed  # 3 != 2


def test_check_identities_q_skips_balance_for_degree_two():
    params = QuantumParams(r=1, k=2.0, degree=2, lam_set=(0.0, 0.5), commutative=False)
    checks = check_identities_q(4, 2, params)
    assert [c.name for c in checks] == ["b*k = r*v"]


def test_check_identities_q_requires_classified_k_r():
    params = QuantumParams(r=None, k=1.0, degree=1, lam_set=(0.0,), commutative=True)
    with pytest.raises(ValueError):
        check_identities_q(2, 2, params)


def test_to_classical_recovers_functor_image_up_to_column_order():
    chi = gen_projective_plane(2)
    design = functor_q(chi)
    back = to_classical(design)
    assert sorted(zip(*back.chi.tolist())) == sorted(zip(*chi.chi.tolist()))


def test_to_classical_after_unitary_conjugation():
    chi = gen_projective_plane(2)
    u = random_unitary(7, seed=42)
    rotated = conjugate(functor_q(chi), u)
    back = to_classical(rotated)
    assert sorted(zip(*back.chi.tolist())) == sorted(zip(*chi.chi.tolist()))


def test_to_classical_basis_pvm_gives_permutation_matrix():
    back = to_classical(basis_projectors(3))
    cols = sorted(zip(*back.chi.tolist()))
    assert cols == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_to_classical_rejects_noncommuting_family():
    design = mub_verify(mub_generate(2, 2)).design
    with pytest.raises(ValueError):
        to_classical(design)


def test_to_classical_succeeds_exactly_when_classify_quantum_commutes():
    # classify_quantum's pairwise commutators are the reference for the
    # refinement's verdict.  The two measure different residuals, so they may
    # differ within a few tolerances of the boundary; the rotation angles
    # here stay orders of magnitude away from it on either side.
    rng = np.random.default_rng(1209)
    verdicts = set()
    for _ in range(120):
        v, b = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        chi = rng.integers(0, 2, size=(v, b))
        u = random_unitary(b, seed=int(rng.integers(2**31)))
        stack = [u @ np.diag(row).astype(np.complex128) @ u.conj().T for row in chi]
        eps = rng.choice([0.0, 1e-13, 1e-12, 1e-7, 1e-2])
        i = int(rng.integers(v))
        h = rng.normal(size=(b, b)) + 1j * rng.normal(size=(b, b))
        w, vecs = np.linalg.eigh(h + h.conj().T)
        rot = vecs @ np.diag(np.exp(1j * eps * w)) @ vecs.conj().T
        stack[i] = rot @ stack[i] @ rot.conj().T
        design = QuantumDesign(projectors=tuple(ComplexMatrix(p) for p in stack))
        commutative = classify_quantum(design).commutative
        verdicts.add(commutative)
        if commutative:
            back = to_classical(design)
            if eps == 0.0:
                assert sorted(zip(*back.chi.tolist())) == sorted(zip(*chi.tolist()))
        else:
            with pytest.raises(ValueError, match="do not pairwise commute"):
                to_classical(design)
    assert verdicts == {True, False}


def test_to_classical_rejects_invalid_family():
    with pytest.raises(ValueError, match="not a projector family: indices \\[0\\]"):
        to_classical(QuantumDesign(projectors=(ComplexMatrix([[0.5, 0], [0, 0.5]]),)))


def test_cluster_spread_never_exceeds_threshold():
    values = [float(x) for x in np.linspace(0.0, 9e-7, 100)]
    clusters = _cluster(values, 1e-8)
    assert len(clusters) > 1
    assert all(c[-1] - c[0] <= 1e-8 for c in clusters)
    assert sorted(x for c in clusters for x in c) == values


def test_tensor_q_parameters_multiply():
    fq = functor_q(gen_projective_plane(2))
    t = tensor_q(fq, fq)
    assert (t.v, t.b) == (49, 49)
    p = classify_quantum(t)
    assert p.r == 9
    assert DEFAULT_TOL.close(p.k, 9.0)
    assert p.commutative
    # distinct pairs (i,j) != (a,b): trace is 1*1 when both indices differ
    # and 3*1 when exactly one matches; 3*3 only occurs on the diagonal
    lam = sorted(p.lam_set)
    assert p.degree == 2
    for got, want in zip(lam, (1.0, 3.0)):
        assert abs(got - want) < 1e-9


def test_tensor_q_of_pvms_is_pvm():
    t = tensor_q(basis_projectors(2), basis_projectors(3))
    p = classify_quantum(t)
    assert (t.v, t.b) == (6, 6)
    assert p.r == 1 and p.degree == 1
    assert DEFAULT_TOL.close(p.lam_set[0], 0.0)


def test_tensor_q_validates_operands():
    bad = QuantumDesign(projectors=(ComplexMatrix(0.5 * np.eye(2)),))
    with pytest.raises(ValueError):
        tensor_q(basis_projectors(2), bad)


def test_mub_generate_qubit_bases_are_pauli_eigenbases():
    fam = mub_generate(2, 3)
    s = 1 / np.sqrt(2)
    assert DEFAULT_TOL.allclose(fam.bases[0].a, np.eye(2))
    assert DEFAULT_TOL.allclose(fam.bases[1].a, np.array([[s, s], [s, -s]]))
    assert DEFAULT_TOL.allclose(fam.bases[2].a, np.array([[s, s], [1j * s, -1j * s]]))


def test_mub_generate_odd_prime_formula():
    fam = mub_generate(3, 2)
    omega = np.exp(2j * np.pi / 3)
    want = np.array(
        [[omega ** ((l * l + j * l) % 3) / np.sqrt(3) for j in range(3)] for l in range(3)]
    )
    assert DEFAULT_TOL.allclose(fam.bases[1].a, want)


def test_mub_generate_guards():
    with pytest.raises(ValueError):
        mub_generate(4, 2)
    with pytest.raises(ValueError):
        mub_generate(6, 2)
    with pytest.raises(ValueError):
        mub_generate(3, 0)
    with pytest.raises(ValueError):
        mub_generate(3, 5)


@pytest.mark.parametrize("d,k", [(2, 1), (2, 2), (2, 3), (3, 4), (5, 6), (7, 3)])
def test_mub_verify_accepts_generated_families(d, k):
    rep = mub_verify(mub_generate(d, k))
    assert rep.ok
    assert rep.orthonormal and rep.sum_ok and rep.trace_failure_count == 0
    assert rep.params is not None
    assert rep.params.r == 1
    assert DEFAULT_TOL.close(rep.params.k, float(k))
    assert rep.params.degree == (1 if k == 1 else 2)
    assert rep.design.v == d * k and rep.design.b == d


def test_mub_verify_rejects_duplicated_basis():
    eye = ComplexMatrix(np.eye(2))
    rep = mub_verify(MubFamily(bases=(eye, eye)))
    assert not rep.ok
    assert rep.trace_failure_count > 0
    a, i, b, j, got, want = rep.trace_failures[0]
    assert (a, i, b, j) == (0, 0, 1, 0)
    assert got == pytest.approx(1.0)
    assert want == pytest.approx(0.5)
    # the projector sum is still 2*I here, so only the trace law convicts
    assert rep.sum_ok


def test_mub_verify_rejects_non_orthonormal_basis():
    fam = mub_generate(2, 2)
    scaled = MubFamily(bases=(fam.bases[0], ComplexMatrix(2 * fam.bases[1].a)))
    rep = mub_verify(scaled)
    assert not rep.ok
    assert not rep.orthonormal
    assert rep.basis_residuals[1] == pytest.approx(3.0)


def test_mub_family_shape_validation():
    with pytest.raises(ValueError):
        MubFamily(bases=())
    with pytest.raises(ValueError):
        MubFamily(bases=(ComplexMatrix.identity(2), ComplexMatrix.identity(3)))
