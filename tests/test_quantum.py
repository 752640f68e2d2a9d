import numpy as np
import pytest

from designkit import quantum
from designkit.classical import ClassicalDesign, gen_complete, gen_projective_plane
from designkit.cpmaps import functor_q
from designkit.linalg import DEFAULT_TOL, ComplexMatrix, NatMatrix, Tolerance, split_by_projector
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


def _validate_reference(design, tol=DEFAULT_TOL):
    # validate as it was before it shared a^dagger and a @ a between the
    # residuals and the verdict.
    out = []
    for p in design.projectors:
        a = p.a
        herm = float(np.abs(a - a.conj().T).max())
        idem = float(np.abs(a @ a - a).max())
        ok = tol.allclose(a, a.conj().T) and tol.allclose(a @ a, a)
        out.append((herm, idem, ok))
    return out


def test_validate_matches_reference_bit_for_bit():
    rng = np.random.default_rng(11)
    for trial in range(40):
        n = int(rng.integers(1, 9))
        u = random_unitary(n, trial)
        projectors = []
        for _ in range(int(rng.integers(1, 5))):
            diag = rng.integers(0, 2, size=n).astype(np.complex128)
            a = u @ np.diag(diag) @ u.conj().T
            if rng.random() < 0.5:  # a near miss or a clear failure
                a = a + 10.0 ** rng.integers(-14, 0) * rng.standard_normal((n, n))
            projectors.append(ComplexMatrix(a))
        rep = validate(QuantumDesign(projectors=tuple(projectors)))
        got = [(c.hermiticity_residual, c.idempotency_residual, c.ok) for c in rep.checks]
        assert got == _validate_reference(QuantumDesign(projectors=tuple(projectors)))
        assert rep.ok == all(ok for _, _, ok in got)


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


def test_classify_quantum_names_the_first_non_real_pairwise_trace():
    # Under a loose tolerance [[I, X], [0, 0]] and [[0, 0], [Y, I]] pass as
    # projectors, and Tr(p1 p2) = Tr(X Y) = 25 * 0.25 * 0.25i is far from real.
    tol = Tolerance(abs_eps=0.3, rel_eps=0.0)
    p1 = np.zeros((10, 10), dtype=np.complex128)
    p1[:5, :5] = np.eye(5)
    p1[:5, 5:] = 0.25
    p2 = np.zeros((10, 10), dtype=np.complex128)
    p2[5:, 5:] = np.eye(5)
    p2[5:, :5] = 0.25j
    zero = np.zeros((10, 10))
    design = QuantumDesign(tuple(ComplexMatrix(p) for p in (zero, p1, p2, p2)))
    assert validate(design, tol).ok
    with pytest.raises(ValueError) as err:
        classify_quantum(design, tol)
    assert str(err.value) == "pairwise trace of projectors 1, 2 is not real: 1.5625j"


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


def pairwise_commutative(design, tol=DEFAULT_TOL):
    # classify_quantum's commutativity verdict before the joint eigenbasis:
    # every pair of projectors compared with dense products.
    stack = [p.a for p in design.projectors]
    return all(
        tol.allclose(stack[i] @ stack[j], stack[j] @ stack[i])
        for i in range(len(stack))
        for j in range(i + 1, len(stack))
    )


def refine_to_classical(design, tol=DEFAULT_TOL):
    # to_classical before the joint eigenbasis: refine the standard basis by
    # each projector in turn (image part first).
    if not validate(design, tol).ok:
        raise ValueError("not a projector family")
    b = design.b
    eye = np.eye(b, dtype=np.complex128)
    groups = [([eye[:, i] for i in range(b)], ())]
    for p in design.projectors:
        refined = []
        for vecs, pattern in groups:
            try:
                img, ker = split_by_projector(vecs, p, tol)
            except ValueError as exc:
                raise ValueError("projectors do not pairwise commute; no joint eigenbasis") from exc
            if img:
                refined.append((img, pattern + (1,)))
            if ker:
                refined.append((ker, pattern + (0,)))
        groups = refined
    patterns = [pattern for vecs, pattern in groups for _ in vecs]
    return ClassicalDesign(NatMatrix([[patterns[j][i] for j in range(b)] for i in range(design.v)]))


def rotated_family(rng, chi, eps):
    # Conjugated 0/1 diagonals; one projector then rotated by exp(i eps h).
    v, b = chi.shape
    u = random_unitary(b, seed=int(rng.integers(2**31)))
    stack = [u @ np.diag(row).astype(np.complex128) @ u.conj().T for row in chi]
    h = rng.normal(size=(b, b)) + 1j * rng.normal(size=(b, b))
    w, vecs = np.linalg.eigh(h + h.conj().T)
    rot = vecs @ np.diag(np.exp(1j * eps * w)) @ vecs.conj().T
    i = int(rng.integers(v))
    stack[i] = rot @ stack[i] @ rot.conj().T
    return QuantumDesign(projectors=tuple(ComplexMatrix(p) for p in stack))


def seeded_patterns(rng):
    v, b = int(rng.integers(1, 8)), int(rng.integers(1, 8))
    chi = rng.integers(0, 2, size=(v, b))
    if b > 1 and rng.random() < 0.4:  # a repeated column
        chi[:, 0] = chi[:, 1]
    if rng.random() < 0.3:  # an all-zero column
        chi[:, int(rng.integers(b))] = 0
    return chi


def assert_matches_oracles(design):
    commutative = classify_quantum(design).commutative
    assert commutative == pairwise_commutative(design)
    if commutative:
        assert to_classical(design) == refine_to_classical(design)
    else:
        with pytest.raises(ValueError, match="do not pairwise commute"):
            to_classical(design)
        with pytest.raises(ValueError, match="do not pairwise commute"):
            refine_to_classical(design)
    return commutative


def test_joint_eigenbasis_matches_pairwise_and_refinement_oracles():
    rng = np.random.default_rng(5150)
    verdicts = {}
    for _ in range(200):
        eps = float(rng.choice([0.0, 1e-13, 1e-12, 1e-7, 1e-2]))
        chi = seeded_patterns(rng)
        commutative = assert_matches_oracles(rotated_family(rng, chi, eps))
        verdicts.setdefault(eps, set()).add(commutative)
    assert verdicts == {0.0: {True}, 1e-13: {True}, 1e-12: {True}, 1e-7: {True, False},
                        1e-2: {True, False}}
    for d, k in ((2, 2), (2, 3), (3, 1), (3, 4), (5, 3), (7, 8)):
        assert assert_matches_oracles(mub_verify(mub_generate(d, k)).design) == (k == 1)


def test_classify_quantum_commutes_exactly_when_to_classical_succeeds_near_the_boundary():
    rng = np.random.default_rng(2718)
    verdicts = set()
    for _ in range(60):
        chi = rng.integers(0, 2, size=(int(rng.integers(2, 7)), int(rng.integers(2, 7))))
        for eps in (1e-10, 1e-9, 1e-8):
            design = rotated_family(rng, chi, eps)
            commutative = classify_quantum(design).commutative
            verdicts.add(commutative)
            try:
                to_classical(design)
                converted = True
            except ValueError:
                converted = False
            assert converted == commutative
    assert verdicts == {True, False}


def test_joint_eigenbasis_needs_no_refinement_for_generic_families(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("refinement ran")

    rng = np.random.default_rng(8086)
    designs = [rotated_family(rng, seeded_patterns(rng), 0.0) for _ in range(40)]
    designs += [functor_q(gen_projective_plane(d)) for d in (2, 3, 5)]
    designs.append(conjugate(designs[-1], random_unitary(31, seed=31)))
    want = [refine_to_classical(d) for d in designs]
    monkeypatch.setattr(quantum, "split_by_projector", refuse)
    for design, chi in zip(designs, want):
        assert classify_quantum(design).commutative
        assert to_classical(design) == chi
    with pytest.raises(AssertionError, match="refinement ran"):
        quantum._refine(designs[0], DEFAULT_TOL)


def test_equal_weight_sums_fall_back_to_the_refinement(monkeypatch):
    # With weights 1, 2, 3 the patterns (1, 1, 0) and (0, 0, 1) both weigh 3,
    # so sum_i c_i p_i cannot separate their joint eigenspaces.
    monkeypatch.setattr(quantum, "_weights", lambda v: np.arange(1.0, v + 1.0))
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return split_by_projector(*args, **kwargs)

    monkeypatch.setattr(quantum, "split_by_projector", counting)
    chi = np.array([[1, 0, 1, 0], [1, 0, 0, 1], [0, 1, 0, 1]])
    for seed in range(5):
        design = conjugate(QuantumDesign(tuple(
            ComplexMatrix(np.diag(row).astype(np.complex128)) for row in chi)),
            random_unitary(4, seed=seed))
        calls.clear()
        assert classify_quantum(design).commutative
        assert to_classical(design) == refine_to_classical(design)
        assert to_classical(design).chi.tolist() == [[1, 1, 0, 0], [1, 0, 1, 0], [0, 0, 1, 1]]
        assert calls  # the refinement ran
    # A non-commuting family under the same weights is still refused.
    mub = mub_verify(mub_generate(3, 2)).design
    assert not classify_quantum(mub).commutative
    with pytest.raises(ValueError, match="do not pairwise commute"):
        to_classical(mub)


def test_joint_eigenbasis_refuses_diagonals_off_zero_and_one():
    # Validation keeps such families away from the joint eigenbasis; on its
    # own, the check still must not round 0.5 to a pattern entry.
    for diag in ([0.5, 1.0], [0.0, 0.4], [1.0, 1.0 - 1e-6]):
        design = QuantumDesign((ComplexMatrix(np.diag(diag).astype(np.complex128)),))
        with pytest.raises(ValueError, match="do not pairwise commute"):
            quantum._joint_patterns(design, DEFAULT_TOL)


def test_joint_eigenbasis_at_v_b_133():
    plane = gen_projective_plane(11)
    want = sorted(zip(*plane.chi.tolist()))
    diagonal = functor_q(plane)
    for design in (diagonal, conjugate(diagonal, random_unitary(133, seed=133))):
        params = classify_quantum(design)
        assert params.commutative and params.r == 12 and params.degree == 1
        assert DEFAULT_TOL.close(params.lam_set[0], 1.0)
        assert sorted(zip(*to_classical(design).chi.tolist())) == want


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
