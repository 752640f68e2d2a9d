import numpy as np
import pytest

from designkit.classical import ClassicalDesign, HomPair, classify, gen_complete, gen_projective_plane
from designkit.cpmaps import (
    Algebra,
    CpMap,
    choi,
    classical_to_cp,
    embed_commutative,
    functor_q,
    functor_q_on_hom,
    is_cp,
    is_trace_preserving,
    quantum_design_to_cp,
    superop_from_choi,
    unvec,
    vec,
    verify_cp_design,
)
from designkit.linalg import DEFAULT_TOL, ComplexMatrix
from designkit.quantum import QuantumDesign, classify_quantum, mub_generate, mub_verify

K2R2_4X4 = [
    [1.0, 0.0, 0.0, 1.0],
    [0.0, 0.5, 0.5, 0.0],
    [0.0, 0.5, 0.5, 0.0],
    [1.0, 0.0, 0.0, 1.0],
]


def identity_map(n):
    return CpMap(Algebra.matrix(n), Algebra.matrix(n), ComplexMatrix(np.eye(n * n)))


def depolarizing_map():
    v = np.eye(2).reshape(-1)
    return CpMap(Algebra.matrix(2), Algebra.matrix(2), ComplexMatrix(0.5 * np.outer(v, v)))


def transpose_map():
    m = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            m[2 * i + j, 2 * j + i] = 1.0
    return CpMap(Algebra.matrix(2), Algebra.matrix(2), ComplexMatrix(m))


def example_4x4_map():
    return CpMap(Algebra.matrix(2), Algebra.matrix(2), ComplexMatrix(K2R2_4X4))


def test_algebra_descriptor():
    assert Algebra.commutative(3).coord_dim == 3
    assert Algebra.matrix(3).coord_dim == 9
    assert np.array_equal(Algebra.commutative(2).identity_vector(), np.ones(2))
    assert np.array_equal(
        Algebra.matrix(2).identity_vector(), np.array([1, 0, 0, 1], dtype=complex)
    )
    with pytest.raises(ValueError):
        Algebra("group", 2)
    with pytest.raises(ValueError):
        Algebra.matrix(0)


def test_cpmap_shape_validation():
    with pytest.raises(ValueError):
        CpMap(Algebra.matrix(2), Algebra.matrix(2), ComplexMatrix(np.eye(3)))
    with pytest.raises(ValueError):
        CpMap(Algebra.commutative(2), Algebra.matrix(2), ComplexMatrix(np.eye(2)))
    with pytest.raises(ValueError):
        CpMap(
            Algebra.matrix(2),
            Algebra.matrix(2),
            ComplexMatrix(np.eye(4)),
            convention="choi",
        )


def test_vec_is_row_major():
    x = np.array([[1, 2], [3, 4]], dtype=complex)
    assert np.array_equal(vec(x), np.array([1, 2, 3, 4], dtype=complex))
    assert np.array_equal(unvec(vec(x), 2), x)
    with pytest.raises(ValueError):
        unvec(np.arange(3, dtype=complex), 2)


def test_embed_commutative_action_on_diagonals():
    design = gen_projective_plane(2)
    f = classical_to_cp(design)
    g = embed_commutative(f)
    assert g.in_alg == Algebra.matrix(7) and g.out_alg == Algebra.matrix(7)
    rng = np.random.default_rng(4)
    x = rng.normal(size=7)
    chi = np.array(design.chi.tolist(), dtype=float)
    lhs = g.m.a @ vec(np.diag(x.astype(complex)))
    rhs = vec(np.diag((chi @ x).astype(complex)))
    assert DEFAULT_TOL.allclose(lhs, rhs)
    # off-diagonal matrix units are annihilated
    e01 = np.zeros((7, 7), dtype=complex)
    e01[0, 1] = 1.0
    assert DEFAULT_TOL.allclose(g.m.a @ vec(e01), np.zeros(49))


def test_embed_commutative_is_identity_on_matrix_maps():
    f = identity_map(2)
    assert embed_commutative(f) is f


def test_choi_blocks_follow_definition():
    rng = np.random.default_rng(12)
    m = rng.normal(size=(9, 4)) + 1j * rng.normal(size=(9, 4))
    f = CpMap(Algebra.matrix(2), Algebra.matrix(3), ComplexMatrix(m))
    c = choi(f)
    assert c.m.rows == 6 and c.m.cols == 6
    for i in range(2):
        for j in range(2):
            e = np.zeros((2, 2), dtype=complex)
            e[i, j] = 1.0
            block = c.m.a[3 * i : 3 * i + 3, 3 * j : 3 * j + 3]
            assert DEFAULT_TOL.allclose(block, unvec(m @ vec(e), 3))


def test_choi_of_identity_channel():
    c = choi(identity_map(2))
    vals = np.linalg.eigvalsh(c.m.a)
    assert DEFAULT_TOL.allclose(vals, [0.0, 0.0, 0.0, 2.0])


def test_superop_from_choi_inverts_choi():
    rng = np.random.default_rng(31)
    m = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    f = CpMap(Algebra.matrix(3), Algebra.matrix(3), ComplexMatrix(m))
    back = superop_from_choi(choi(f).m, 3, 3)
    assert DEFAULT_TOL.allclose(back.m.a, m)
    with pytest.raises(ValueError):
        superop_from_choi(ComplexMatrix(np.eye(4)), 2, 3)


def test_is_cp_accepts_standard_channels():
    assert is_cp(identity_map(2)).is_cp
    assert is_cp(identity_map(3)).is_cp
    assert is_cp(depolarizing_map()).is_cp
    check = is_cp(example_4x4_map())
    assert check.is_cp
    assert check.min_eigenvalue == pytest.approx(0.5, abs=1e-12)


def test_is_cp_rejects_transpose_with_witness():
    check = is_cp(transpose_map())
    assert not check.is_cp
    assert check.hermitian
    assert check.min_eigenvalue == pytest.approx(-1.0, abs=1e-9)


def test_is_cp_rejects_non_hermiticity_preserving_map():
    n = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    m = np.outer(vec(n), vec(np.eye(2)))
    check = is_cp(CpMap(Algebra.matrix(2), Algebra.matrix(2), ComplexMatrix(m)))
    assert not check.is_cp and not check.hermitian


def test_is_cp_accepts_design_images():
    for design in (
        functor_q(gen_projective_plane(2)),
        mub_verify(mub_generate(2, 2)).design,
        mub_verify(mub_generate(3, 4)).design,
    ):
        assert is_cp(quantum_design_to_cp(design)).is_cp


def test_is_cp_classical_design_embeds_to_diagonal_choi():
    f = classical_to_cp(gen_projective_plane(2))
    check = is_cp(f)
    assert check.is_cp
    c = choi(f).m.a
    assert DEFAULT_TOL.allclose(c, np.diag(np.diag(c)))
    assert np.all(np.diag(c).real >= -1e-12)


def test_is_cp_rejects_negative_commutative_entry():
    f = CpMap(Algebra.commutative(1), Algebra.commutative(1), ComplexMatrix([[-1.0]]))
    check = is_cp(f)
    assert not check.is_cp and check.min_eigenvalue == pytest.approx(-1.0)


def test_is_trace_preserving():
    assert is_trace_preserving(identity_map(2))
    assert is_trace_preserving(depolarizing_map())
    assert is_trace_preserving(transpose_map())
    assert not is_trace_preserving(example_4x4_map())


def test_classical_to_cp_trace_preservation_after_normalization():
    design = gen_projective_plane(2)
    f = classical_to_cp(design)
    assert not is_trace_preserving(f)
    normalized = CpMap(f.in_alg, f.out_alg, ComplexMatrix(f.m.a / 3.0))
    assert is_trace_preserving(normalized)


def test_quantum_design_to_cp_columns_are_vec_projectors():
    design = functor_q(gen_projective_plane(2))
    f = quantum_design_to_cp(design)
    assert f.in_alg == Algebra.commutative(7)
    assert f.out_alg == Algebra.matrix(7)
    for i, p in enumerate(design.projectors):
        assert DEFAULT_TOL.allclose(f.m.a[:, i], vec(p.a))


def test_quantum_design_to_cp_requires_valid_design():
    bad = QuantumDesign(projectors=(ComplexMatrix(0.5 * np.eye(2)),))
    with pytest.raises(ValueError):
        quantum_design_to_cp(bad)


def test_functor_q_produces_diagonal_commutative_design():
    design = gen_projective_plane(2)
    q = functor_q(design)
    assert (q.v, q.b) == (7, 7)
    chi = design.chi.tolist()
    for i, p in enumerate(q.projectors):
        assert DEFAULT_TOL.allclose(p.a, np.diag(np.array(chi[i], dtype=complex)))
    params = classify_quantum(q)
    cls = classify(design)
    assert params.r == cls.r
    assert DEFAULT_TOL.close(params.k, float(cls.k))
    assert params.degree == 1
    assert DEFAULT_TOL.close(params.lam_set[0], float(cls.lam))
    assert params.commutative


def test_functor_q_refuses_multiplicities():
    d = ClassicalDesign.from_rows([[2, 0], [0, 2]])
    with pytest.raises(ValueError) as err:
        functor_q(d)
    assert "to_block" in str(err.value)


def test_functor_q_refuses_unclassified_designs():
    d = ClassicalDesign.from_rows([[1, 1], [1, 0]])  # k not constant
    with pytest.raises(ValueError) as err:
        functor_q(d)
    assert "missing" in str(err.value)


def test_functor_q_on_hom_identity_and_automorphism():
    design = gen_projective_plane(2)
    ident = HomPair(f_v=tuple(range(7)), f_b=tuple(range(7)))
    lift = functor_q_on_hom(design, design, ident)
    assert lift.ok
    assert lift.hom_residual == 0.0
    assert lift.embedding_residual == 0.0
    assert lift.outer_residual == 0.0


def test_functor_q_on_hom_requires_verified_hom():
    design = gen_projective_plane(2)
    broken = HomPair(f_v=tuple(range(7)), f_b=(1, 0, 2, 3, 4, 5, 6))
    with pytest.raises(ValueError):
        functor_q_on_hom(design, design, broken)


def test_functor_q_on_hom_flags_non_injective_block_map():
    src = ClassicalDesign.from_rows([[1, 0], [0, 1]])
    dst = ClassicalDesign.from_rows([[1]])
    hom = HomPair(f_v=(0, 0), f_b=(0, 0))
    lift = functor_q_on_hom(src, dst, hom)
    assert lift.hom_residual == 0.0
    assert lift.embedding_residual == 0.0
    assert lift.outer_residual == pytest.approx(1.0)
    assert not lift.ok


def test_verify_cp_design_identity_channel():
    rep = verify_cp_design(identity_map(2))
    assert rep.k == pytest.approx(1.0, abs=1e-12)
    assert rep.r == pytest.approx(1.0, abs=1e-12)
    assert rep.lam == pytest.approx(0.0, abs=1e-9)
    assert rep.lam_residual == pytest.approx(0.0, abs=1e-9)
    assert rep.lam_balanced


def test_verify_cp_design_example_4x4_superoperator_reading():
    rep = verify_cp_design(example_4x4_map())
    assert rep.k == pytest.approx(2.0, abs=1e-12)
    assert rep.r == pytest.approx(2.0, abs=1e-12)
    assert rep.uniformity_residual == pytest.approx(0.0, abs=1e-12)
    assert rep.regularity_residual == pytest.approx(0.0, abs=1e-12)
    # best achievable balance residual is exactly 1/2; never claimed as pass
    assert rep.lam_residual == pytest.approx(0.5, abs=1e-9)
    assert not rep.lam_balanced


def test_verify_cp_design_example_4x4_choi_reading():
    rep = verify_cp_design(superop_from_choi(ComplexMatrix(K2R2_4X4), 2, 2))
    assert rep.k == pytest.approx(1.5, abs=1e-12)
    assert rep.r == pytest.approx(1.5, abs=1e-12)
    assert rep.lam_residual == pytest.approx(1.0, abs=1e-9)
    assert not rep.lam_balanced


def test_verify_cp_design_classical_balance_in_commutative_coordinates():
    rep = verify_cp_design(classical_to_cp(gen_projective_plane(2)))
    assert rep.k == pytest.approx(3.0, abs=1e-12)
    assert rep.r == pytest.approx(3.0, abs=1e-12)
    assert rep.lam == pytest.approx(1.0, abs=1e-6)
    assert rep.lam_residual == pytest.approx(0.0, abs=1e-9)
    assert rep.lam_balanced


def test_verify_cp_design_complete_design_balances_with_distinct_k_r():
    rep = verify_cp_design(classical_to_cp(gen_complete(4, 2)))
    assert rep.k == pytest.approx(2.0, abs=1e-12)
    assert rep.r == pytest.approx(3.0, abs=1e-12)
    assert rep.lam == pytest.approx(1.0, abs=1e-6)
    assert rep.lam_residual == pytest.approx(0.0, abs=1e-9)
    assert rep.lam_balanced


def test_verify_cp_design_povm_map_of_functor_image():
    rep = verify_cp_design(quantum_design_to_cp(functor_q(gen_projective_plane(2))))
    assert rep.k == pytest.approx(3.0, abs=1e-12)
    assert rep.r == pytest.approx(3.0, abs=1e-12)
    # the matrix-coordinate balance equation cannot hold for diagonal
    # projectors: off-diagonal coordinates force residual 1
    assert rep.lam_residual == pytest.approx(1.0, abs=1e-6)
    assert not rep.lam_balanced


def test_verify_cp_design_reports_absent_constants():
    f = CpMap(Algebra.commutative(2), Algebra.commutative(2), ComplexMatrix(np.diag([1.0, 2.0])))
    rep = verify_cp_design(f)
    assert rep.k is None and rep.r is None
    assert rep.uniformity_residual == pytest.approx(0.5)
    assert rep.regularity_residual == pytest.approx(0.5)
    assert rep.lam is None and rep.lam_residual is None
    assert not rep.lam_balanced


def test_trace_preservation_matches_unit_uniformity():
    # k = 1 in the uniformity report iff the map is trace-preserving
    cases = [
        identity_map(2),
        depolarizing_map(),
        transpose_map(),
        example_4x4_map(),
        classical_to_cp(gen_projective_plane(2)),
    ]
    for f in cases:
        rep = verify_cp_design(f)
        k_is_one = rep.k is not None and abs(rep.k - 1.0) <= 1e-9
        assert k_is_one == is_trace_preserving(f)


def choi_partial_trace_is_tp(f, tol=DEFAULT_TOL):
    # Reference: the partial trace of the Choi matrix over the output factor
    # is the input identity.
    c = choi(f)
    t = c.m.a.reshape(c.n_in, c.n_out, c.n_in, c.n_out)
    return tol.allclose(np.einsum("ikjk->ij", t), np.eye(c.n_in))


def full_matrix_lam_search(f):
    # Reference: 120 ternary steps, each over the whole residual matrix.
    m = f.m.a
    w_in = f.in_alg.identity_vector()
    w_out = f.out_alg.identity_vector()
    r_est = complex(w_out.conj() @ (m @ w_in)) / f.out_alg.n
    gram = m @ m.conj().T
    target_j = np.outer(w_out, w_out.conj())
    eye = np.eye(f.out_alg.coord_dim, dtype=np.complex128)
    base = gram - r_est.real * eye

    def residual(lam_val):
        return float(np.abs(base - lam_val * (target_j - eye)).max())

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
    return lam, residual(lam)


def random_unitary(n, rng):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def mixed_unitary_channel(n, rng):
    weights = rng.dirichlet(np.ones(3))
    m = sum(w * np.kron(u, u.conj()) for w, u in
            zip(weights, (random_unitary(n, rng) for _ in weights)))
    return CpMap(Algebra.matrix(n), Algebra.matrix(n), ComplexMatrix(m))


def test_trace_functional_matches_choi_partial_trace_on_random_maps():
    rng = np.random.default_rng(20231209)
    verdicts = set()
    kinds = (Algebra.commutative, Algebra.matrix)
    for make_in in kinds:
        for make_out in kinds:
            for _ in range(40):
                a_in, a_out = make_in(int(rng.integers(1, 5))), make_out(int(rng.integers(1, 5)))
                w_in, w_out = a_in.identity_vector(), a_out.identity_vector()
                shape = (a_out.coord_dim, a_in.coord_dim)
                m = rng.normal(size=shape) + 1j * rng.normal(size=shape)
                # Make the map trace preserving, then move it off by a chosen
                # distance on either side of the tolerance.
                m += np.outer(w_out, w_in - w_out.conj() @ m) / (w_out.conj() @ w_out)
                eps = rng.choice([0.0, 1e-12, 1e-6, 1.0])
                m += eps * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
                f = CpMap(a_in, a_out, ComplexMatrix(m))
                verdict = is_trace_preserving(f)
                assert verdict == choi_partial_trace_is_tp(f)
                verdicts.add((make_in, make_out, verdict))
    assert len(verdicts) == 8


def test_lam_search_matches_full_matrix_reference_exactly():
    rng = np.random.default_rng(1209)
    maps = [mixed_unitary_channel(n, rng) for n in range(2, 9)]
    maps += [classical_to_cp(gen_projective_plane(d)) for d in (2, 3, 5)]
    maps += [classical_to_cp(gen_complete(v, k)) for v, k in ((4, 2), (5, 3), (6, 2))]
    maps += [quantum_design_to_cp(functor_q(gen_projective_plane(d))) for d in (2, 3)]
    maps += [quantum_design_to_cp(mub_verify(mub_generate(d, d + 1)).design) for d in (2, 3, 5)]
    maps.append(superop_from_choi(ComplexMatrix(K2R2_4X4), 2, 2))
    for f in maps:
        rep = verify_cp_design(f)
        assert rep.r is not None
        assert (rep.lam, rep.lam_residual) == full_matrix_lam_search(f)
