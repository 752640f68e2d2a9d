import json
import math
import time

import numpy as np
import pytest

from designkit import quantum
from designkit.catalog import dumps
from designkit.classical import (
    CheckFailed,
    ClassicalDesign,
    check_identities,
    gen_complete,
    gen_projective_plane,
)
from designkit.cli import main
from designkit.cpmaps import functor_q
from designkit.linalg import DEFAULT_TOL, ComplexMatrix, NatMatrix, Tolerance, split_by_projector
from designkit.quantum import (
    MubFamily,
    QuantumDesign,
    QuantumParams,
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
    checks = check_identities(design.v, design.b, params.k, float(params.r), params.lam,
                              DEFAULT_TOL.close)
    assert [c.name for c in checks] == ["b*k = r*v", "lambda*(v-1) = r*(k-1)"]
    assert all(c.passed for c in checks)
    assert checks[0].lhs == pytest.approx(21.0, abs=1e-9)
    assert checks[1].lhs == pytest.approx(6.0, abs=1e-9)


def test_check_identities_q_detects_violation():
    params = QuantumParams(r=2, k=2.0, degree=1, lam_set=(1.0,), commutative=True)
    checks = check_identities(4, 4, params.k, float(params.r), params.lam, DEFAULT_TOL.close)
    assert checks[0].passed  # 8 = 8
    assert not checks[1].passed  # 3 != 2


def test_check_identities_q_skips_balance_for_degree_two():
    params = QuantumParams(r=1, k=2.0, degree=2, lam_set=(0.0, 0.5), commutative=False)
    checks = check_identities(4, 2, params.k, float(params.r), params.lam, DEFAULT_TOL.close)
    assert [c.name for c in checks] == ["b*k = r*v"]


def test_check_identities_q_requires_classified_k_r():
    params = QuantumParams(r=None, k=1.0, degree=1, lam_set=(0.0,), commutative=True)
    with pytest.raises(ValueError):
        check_identities(2, 2, params.k, params.r, params.lam, DEFAULT_TOL.close)


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
    # The commutator witness refuses mutually unbiased bases before any split.
    assert not classify_quantum(mub_verify(mub_generate(5, 3)).design).commutative
    # The patch is live: a family whose weight sums tie must refine.
    monkeypatch.setattr(quantum, "_weights", lambda v: np.arange(1.0, v + 1.0))
    chi = np.array([[1, 0, 1, 0], [1, 0, 0, 1], [0, 1, 0, 1]])
    tied = conjugate(QuantumDesign(tuple(
        ComplexMatrix(np.diag(row).astype(np.complex128)) for row in chi)),
        random_unitary(4, seed=0))
    with pytest.raises(AssertionError, match="refinement ran"):
        to_classical(tied)


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


def _two_sided_coupling(stack, u, failing):
    # max_i |u_k^dagger p_i u_j| over the failing columns j, formed as (u^dagger p_i) u_F.
    step = quantum._batch_size(u.shape[0])
    return np.max([np.abs(u.conj().T @ stack[lo : lo + step] @ u[:, failing]).max(axis=0)
                   for lo in range(0, len(stack), step)], axis=0)


def test_coupling_of_a_family_failing_everywhere_comes_from_the_first_products():
    # Mutually unbiased bases, in one batch, and random rank-one families of
    # 48 x 48 projectors, 14 to a batch: every column fails in the first batch.
    # Rotated planes fail in some columns only and keep the two-sided product.
    rng = np.random.default_rng(26)
    families = [mub_verify(mub_generate(d, k)).design for d, k in ((2, 3), (3, 4), (5, 3), (13, 14))]
    for v in (20, 40):
        x = rng.normal(size=(v, 48)) + 1j * rng.normal(size=(v, 48))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        families.append(QuantumDesign._from_stack(x[:, :, np.newaxis] * x[:, np.newaxis, :].conj()))
    chi = np.array(gen_projective_plane(3).chi.tolist())
    families += [rotated_family(rng, chi, eps) for eps in (1e-7, 1e-2)]
    reused = kept = 0
    for design in families:
        stack, c = design._stack, quantum._weights(design.v)
        w, u = np.linalg.eigh(np.einsum("a,aij->ij", c, stack))
        threshold = design.b * DEFAULT_TOL.slack(1.0)
        _, residual, coupling = quantum._patterns(stack, u, threshold)
        failing = np.flatnonzero(residual > threshold)
        if not failing.size:
            continue
        want = _two_sided_coupling(stack, u, failing)
        if coupling is not None:
            reused += 1
            assert failing.size == design.b
            assert np.abs(coupling - want).max() <= 1e-13
        else:
            kept += 1
        verdicts = []
        for given in (coupling, None):
            try:
                verdicts.append(quantum._coupled_components(
                    stack, w, u, failing, given, float(c.sum()) * threshold, threshold))
            except quantum._NotCommuting:
                verdicts.append("not commuting")
        assert verdicts[0] == verdicts[1]
    assert reused == 6 and kept >= 1


def test_joint_eigenbasis_refuses_diagonals_off_zero_and_one():
    # Validation keeps such families away from the joint eigenbasis; on its
    # own, the check still must not round 0.5 to a pattern entry.
    for diag in ([0.5, 1.0], [0.0, 0.4], [1.0, 1.0 - 1e-6], [2.0, 1.0], [-1.0, 0.0]):
        design = QuantumDesign((ComplexMatrix(np.diag(diag).astype(np.complex128)),))
        with pytest.raises(ValueError, match="do not pairwise commute"):
            quantum._joint_patterns(design, DEFAULT_TOL)


def test_joint_eigenbasis_threshold_is_b_times_tolerance():
    # The last column's residual is its diagonal's distance from 1.
    for b in (2, 5):
        threshold = b * (DEFAULT_TOL.abs_eps + DEFAULT_TOL.rel_eps)
        for gap, commutes in ((0.9 * threshold, True), (1.1 * threshold, False)):
            diag = np.ones(b)
            diag[-1] -= gap
            design = QuantumDesign((ComplexMatrix(np.diag(diag).astype(np.complex128)),))
            if commutes:
                assert quantum._joint_patterns(design, DEFAULT_TOL).tolist() == [[1] * b]
            else:
                with pytest.raises(ValueError, match="do not pairwise commute"):
                    quantum._joint_patterns(design, DEFAULT_TOL)


def test_refined_columns_are_rechecked_against_every_projector(monkeypatch):
    # Under equal weights the two qubit bases sum to h = 2 I, so no gap
    # witnesses the failure; the first projector splits the plane into single
    # vectors, and only the residual of the later projectors refuses them.
    monkeypatch.setattr(quantum, "_weights", lambda v: np.ones(v))
    design = mub_verify(mub_generate(2, 2)).design
    assert not classify_quantum(design).commutative
    with pytest.raises(ValueError, match="do not pairwise commute"):
        to_classical(design)


def test_joint_eigenbasis_at_v_b_133():
    plane = gen_projective_plane(11)
    want = sorted(zip(*plane.chi.tolist()))
    diagonal = functor_q(plane)
    for design in (diagonal, conjugate(diagonal, random_unitary(133, seed=133))):
        params = classify_quantum(design)
        assert params.commutative and params.r == 12 and params.degree == 1
        assert DEFAULT_TOL.close(params.lam_set[0], 1.0)
        assert sorted(zip(*to_classical(design).chi.tolist())) == want


def count_splits(monkeypatch):
    # The number of vectors handed to each split_by_projector call.
    calls = []

    def counting(vecs, p, tol):
        calls.append(len(vecs))
        return split_by_projector(vecs, p, tol)

    monkeypatch.setattr(quantum, "split_by_projector", counting)
    return calls


def test_rotated_plane_at_v_b_133_refines_only_coupled_columns(monkeypatch):
    # One projector of a conjugated pg2-11 image rotated by exp(i eps h).  The
    # fallback splits only columns coupled to a failing one, never the whole
    # space, so the eps = 1e-10 decision stays well under 0.5 s.
    calls = count_splits(monkeypatch)
    chi = np.array(gen_projective_plane(11).chi.tolist())
    rng = np.random.default_rng(133)
    for eps in (1e-10, 1e-9, 1e-8):
        design = rotated_family(rng, chi, eps)
        start = time.perf_counter()
        patterns = quantum._joint_patterns(design, DEFAULT_TOL)
        if eps == 1e-10:
            assert time.perf_counter() - start < 0.5
        # Pairwise commutator entries reach about 1.5e-8 at eps = 1e-8, inside
        # the residual threshold 133 * 2e-9.
        assert sorted(zip(*patterns.tolist())) == sorted(zip(*chi.tolist()))
        assert classify_quantum(design).commutative
        assert to_classical(design).chi.tolist() == patterns.tolist()
    assert calls and max(calls) < 133


def test_verify_quantum_and_convert_q2c_agree_on_rotated_planes(tmp_path, capsys, monkeypatch):
    calls = count_splits(monkeypatch)
    chi = np.array(gen_projective_plane(5).chi.tolist())
    rng = np.random.default_rng(31)
    verdicts = set()
    for eps in (1e-10, 1e-9, 1e-8, 1e-7):
        for _ in range(2):
            path = tmp_path / "rotated.json"
            path.write_text(dumps(rotated_family(rng, chi, eps)), encoding="utf-8")
            main(["verify-quantum", str(path), "--json"])
            commutative = json.loads(capsys.readouterr().out)["parameters"]["commutative"]
            code = main(["convert", "q2c", str(path)])
            capsys.readouterr()
            assert code == (0 if commutative else 1)
            verdicts.add(commutative)
    assert verdicts == {True, False}
    assert calls  # the fallback ran on some of them


def test_to_classical_rejects_invalid_family():
    with pytest.raises(ValueError, match="not a projector family: indices \\[0\\]"):
        to_classical(QuantumDesign(projectors=(ComplexMatrix([[0.5, 0], [0, 0.5]]),)))


def test_cluster_spread_never_exceeds_threshold():
    values = [float(x) for x in np.linspace(0.0, 9e-7, 100)]
    clusters = _cluster(values, 1e-8)
    assert len(clusters) > 1
    assert all(c[-1] - c[0] <= 1e-8 for c in clusters)
    assert sorted(x for c in clusters for x in c) == values


def _validate_loop(design, tol=DEFAULT_TOL):
    # validate one projector at a time, as it was before the family became one array.
    checks = []
    for i, p in enumerate(design.projectors):
        a = p.a
        a_h = a.conj().T
        with np.errstate(over="ignore", invalid="ignore"):
            a_sq = a @ a
        if not np.isfinite(a_sq).all():
            raise ValueError(f"projector {i}: p p is not finite; its largest |entry| is "
                             f"{float(np.abs(a).max())!r}")
        herm = float(np.abs(a - a_h).max())
        idem = float(np.abs(a_sq - a).max())
        ok = tol.allclose(a, a_h) and tol.allclose(a_sq, a)
        checks.append(quantum.ProjectorCheck(
            index=i, hermiticity_residual=herm, idempotency_residual=idem, ok=ok))
    return quantum.ValidationReport(checks=tuple(checks), ok=all(c.ok for c in checks))


def _cluster_sequential(values, threshold):
    # _cluster as it was before searchsorted: one Python comparison per value.
    out = []
    for x in sorted(values):
        if out and x - out[-1][0] <= threshold:
            out[-1].append(x)
        else:
            out.append([x])
    return out


def _bits(report):
    return [(c.index, c.hermiticity_residual.hex(), c.idempotency_residual.hex(), c.ok)
            for c in report.checks], report.ok


def test_batched_validate_matches_the_loop_oracle_bit_for_bit():
    # Families up to b = 70 span several batches (_batch_size(70) = 6).
    rng = np.random.default_rng(1401)
    for trial in range(60):
        b = int(rng.choice([1, 2, 5, 9, 33, 70]))
        v = int(rng.integers(1, min(3 * quantum._batch_size(b) + 2, 100)))
        u = random_unitary(b, trial)
        stack = []
        for _ in range(v):
            p = u @ np.diag(rng.integers(0, 2, size=b)).astype(np.complex128) @ u.conj().T
            if rng.random() < 0.3:
                p = p + 10.0 ** rng.integers(-16, 0) * rng.standard_normal((b, b))
            stack.append(ComplexMatrix(p))
        design = QuantumDesign(tuple(stack))
        tol = Tolerance(abs_eps=10.0 ** rng.integers(-15, -6), rel_eps=1e-9)
        assert _bits(validate(design, tol)) == _bits(_validate_loop(design, tol))


@pytest.mark.parametrize("b, bad", [(2, 1), (2, 5), (64, 3), (64, 9), (64, 17)])
def test_batched_validate_names_the_same_non_finite_projector(b, bad):
    # _batch_size(64) = 8, so indices 9 and 17 sit in later batches.
    eye = np.eye(b, dtype=np.complex128)
    stack = [ComplexMatrix(eye) for _ in range(20)]
    stack[bad] = ComplexMatrix(np.full((b, b), 1e200 * (1 + 1j)))
    stack[bad + 1] = ComplexMatrix(np.full((b, b), 1e300))
    design = QuantumDesign(tuple(stack))
    with pytest.raises(ValueError) as got:
        validate(design)
    with pytest.raises(ValueError) as want:
        _validate_loop(design)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith(f"projector {bad}: p p is not finite")


def test_cluster_matches_the_sequential_oracle_on_seeded_values():
    # Values sit a few ulps either side of first + j * threshold, so that
    # x - first lands on the threshold and first + threshold rounds both ways;
    # x - first is inexact when first and x differ in sign or magnitude.
    rng = np.random.default_rng(1402)
    rounded_up = rounded_down = 0
    for trial in range(400):
        threshold = 0.0 if trial % 10 == 0 else float(10.0 ** rng.uniform(-9, 2))
        first = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 2))
        values = []
        for j in rng.integers(0, 4, size=int(rng.integers(0, 30))).tolist():
            x = first + j * threshold
            k = int(rng.integers(-2, 3))
            for _ in range(abs(k)):
                x = float(np.nextafter(x, math.copysign(math.inf, k)))
            values.append(x)
        edge = first + threshold
        rounded_up += any(x <= edge and x - first > threshold for x in values)
        rounded_down += any(x > edge and x - first <= threshold for x in values)
        got = quantum._cluster(np.array(values), threshold)
        want = _cluster_sequential(values, threshold)
        assert [[x.hex() for x in c] for c in got] == [[x.hex() for x in c] for c in want]
        assert [sum(c) / len(c) for c in got] == [sum(c) / len(c) for c in want]
    assert rounded_up and rounded_down  # both corrections to searchsorted ran


def test_cluster_keeps_a_value_exactly_at_the_threshold():
    # 0.3 - 0.1 is 0.19999999999999998 and joins 0.1 under threshold 0.2, while
    # 0.30000000000000004 - 0.1 is 0.20000000000000004 and does not, although
    # 0.1 + 0.2 rounds to 0.30000000000000004 itself.
    values = np.array([0.1, 0.3, 0.30000000000000004, 0.5])
    assert quantum._cluster(values, 0.2) == [[0.1, 0.3], [0.30000000000000004, 0.5]]
    assert quantum._cluster(values, 0.2) == _cluster_sequential(values.tolist(), 0.2)
    assert quantum._cluster(np.array([1.0, 2.0, 3.0]), 1.0) == [[1.0, 2.0], [3.0]]


def test_cluster_and_classify_of_one_projector_have_no_pairs():
    assert quantum._cluster(np.empty(0), 1e-8) == _cluster_sequential([], 1e-8) == []
    params = classify_quantum(QuantumDesign((ComplexMatrix([[1.0]]),)))
    assert (params.degree, params.lam_set) == (0, ())


def test_projectors_are_views_into_one_family_array():
    eye = np.eye(3, dtype=np.complex128)
    given = tuple(ComplexMatrix(np.outer(eye[i], eye[i])) for i in range(3))
    design = QuantumDesign(projectors=given)
    stack = design._stack
    assert stack.shape == (3, 3, 3) and stack.flags["C_CONTIGUOUS"]
    assert design.projectors == given and design == QuantumDesign(projectors=given)
    assert all(np.shares_memory(p.a, stack) for p in design.projectors)
    built = [functor_q(gen_projective_plane(2)), mub_verify(mub_generate(3, 4)).design,
             tensor_q(basis_projectors(2), basis_projectors(3))]
    for design in built:
        assert design._stack.flags["C_CONTIGUOUS"]
        assert all(np.shares_memory(p.a, design._stack) for p in design.projectors)


def nearly_a_projector_family():
    # Projector 0 misses idempotency by about 1e-6: a failure at the default
    # tolerance and a pass at abs_eps = 1e-3.
    return QuantumDesign(projectors=(ComplexMatrix(np.diag([1.0 + 1e-6, 0.0])),
                                     ComplexMatrix(np.diag([0.0, 1.0]))))


def count_validations(monkeypatch):
    calls = []

    def counting(design, tol):
        calls.append(tol)
        return validate(design, tol)

    monkeypatch.setattr(quantum, "validate", counting)
    return calls


def test_classify_quantum_reads_the_report_validate_kept_at_an_equal_tolerance(monkeypatch):
    loose = Tolerance(abs_eps=1e-3)
    for design, tol in ((basis_projectors(3), DEFAULT_TOL),
                        (nearly_a_projector_family(), loose)):
        assert validate(design, tol).ok
        calls = count_validations(monkeypatch)
        params = classify_quantum(design, Tolerance(abs_eps=tol.abs_eps, rel_eps=tol.rel_eps))
        assert calls == [] and params.r == 1
    design = nearly_a_projector_family()
    assert not validate(design).ok
    calls = count_validations(monkeypatch)
    with pytest.raises(CheckFailed, match=r"^not a projector family: indices \[0\] fail"):
        classify_quantum(design, Tolerance())
    assert calls == []


def test_a_different_tolerance_validates_again_and_the_verdict_follows_it(monkeypatch, tmp_path):
    design = nearly_a_projector_family()
    assert not validate(design).ok
    calls = count_validations(monkeypatch)
    loose = Tolerance(abs_eps=1e-3)
    params = classify_quantum(design, loose)
    assert (params.r, params.degree, params.commutative) == (1, 1, True)
    assert to_classical(design, loose).chi.tolist() == [[1, 0], [0, 1]]
    assert calls == [loose]
    with pytest.raises(CheckFailed, match="not a projector family"):
        classify_quantum(design)
    assert calls == [loose]
    path = tmp_path / "near.json"
    path.write_text(dumps(design), encoding="utf-8")
    assert main(["verify-quantum", str(path), "--json"]) == 1
    assert main(["verify-quantum", str(path), "--json", "--abs-eps", "1e-3"]) == 0


def test_family_builders_match_their_per_projector_oracles_bit_for_bit():
    # functor_q, MubFamily.design and tensor_q fill the family array in one operation
    # each; their oracles build one projector at a time.
    for order in (2, 3, 5):
        design = gen_projective_plane(order)
        want = [np.diag(np.array(row, dtype=np.complex128)) for row in design.chi.tolist()]
        assert [p.a.tobytes() for p in functor_q(design).projectors] == \
            [a.tobytes() for a in want]
    for d, k in ((2, 3), (5, 6), (13, 14)):
        family = mub_generate(d, k)
        vectors = np.column_stack([m.a for m in family.bases])
        want = [np.outer(x, x.conj()) for x in vectors.T]
        assert [p.a.tobytes() for p in family.design.projectors] == \
            [a.tobytes() for a in want]
    rng = np.random.default_rng(1403)
    for trial in range(12):
        q1 = conjugate(functor_q(gen_projective_plane(2)), random_unitary(7, trial))
        n = int(rng.integers(1, 4))
        q2 = conjugate(basis_projectors(n), random_unitary(n, trial))
        want = [np.kron(p.a, q.a) for p in q1.projectors for q in q2.projectors]
        assert [p.a.tobytes() for p in tensor_q(q1, q2).projectors] == \
            [a.tobytes() for a in want]


def test_mub_design_keeps_the_finiteness_refusal():
    # x x^dagger overflows here as np.outer did, warning included.
    with pytest.raises(ValueError, match="^matrix entries must be finite$"), \
            np.errstate(over="ignore", invalid="ignore"):
        MubFamily((ComplexMatrix([[1e200]]),)).design


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


def test_mub_generate_refuses_more_than_the_entry_bound_first(monkeypatch):
    monkeypatch.setattr(quantum, "_COMPLETE_MAX_CELLS", 3 * 5**3)
    assert mub_generate(5, 3).k == 3  # k * d^3 at the bound itself
    with pytest.raises(ValueError, match=r"^max\(k,1\)\*d\^3 = 500 exceeds the limit of 375 "
                       "projector entries$"):
        mub_generate(5, 4)

    # A huge prime is refused before its trial division, also with k = 0.
    def unreachable(n):
        raise AssertionError(f"the prime test ran for {n}")

    monkeypatch.setattr(quantum, "_is_prime", unreachable)
    with pytest.raises(ValueError, match=rf"^max\(k,1\)\*d\^3 = {(2**61 - 1) ** 3} exceeds"):
        mub_generate(2**61 - 1, 0)


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


def trace_law_oracle(family, tol):
    # The trace law as first written: one tol.close per pair, in row-major order.
    d, k = family.d, family.k
    vectors = np.column_stack([m.a for m in family.bases])
    overlaps = np.abs(vectors.conj().T @ vectors) ** 2
    failures = []
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
                        if len(failures) < 20:
                            failures.append((a, i, bb, j, got, expected))
    return tuple(failures), count


def test_mub_trace_law_matches_the_loop_oracle_on_seeded_families():
    rng = np.random.default_rng(5150)
    counts = set()
    for d, k in [(2, 3), (3, 4), (5, 6), (7, 3)]:
        bases = [m.a for m in mub_generate(d, k).bases]
        families = [bases, bases + bases[:1], [random_unitary(d, int(rng.integers(1000)))] * k]
        for scale in (1e-11, 1e-9, 1e-6, 1e-3):
            families.append([m + scale * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
                             for m in bases])
        for tol in (DEFAULT_TOL, Tolerance(abs_eps=1e-6, rel_eps=0.0)):
            for mats in families:
                family = MubFamily(bases=tuple(ComplexMatrix(m) for m in mats))
                rep = mub_verify(family, tol)
                want = trace_law_oracle(family, tol)
                assert (rep.trace_failures, rep.trace_failure_count) == want
                counts.add(rep.trace_failure_count)
    assert 0 in counts and max(counts) > 20  # the cap of 20 is exercised


def test_mub_verify_rejects_non_orthonormal_basis():
    fam = mub_generate(2, 2)
    scaled = MubFamily(bases=(fam.bases[0], ComplexMatrix(2 * fam.bases[1].a)))
    rep = mub_verify(scaled)
    assert not rep.ok
    assert not rep.orthonormal
    assert rep.basis_residuals[1] == pytest.approx(3.0)


def test_mub_verify_lets_a_linalg_error_escape(monkeypatch):
    # A failed eigh is refused input, not a failed classification.
    def diverge(design, tol):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(quantum, "_joint_patterns", diverge)
    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        mub_verify(mub_generate(2, 2))


def test_mub_family_shape_validation():
    with pytest.raises(ValueError):
        MubFamily(bases=())
    with pytest.raises(ValueError):
        MubFamily(bases=(ComplexMatrix.identity(2), ComplexMatrix.identity(3)))
