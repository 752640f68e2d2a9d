import inspect
import tracemalloc
import warnings

import numpy as np
import pytest

from designkit import cpmaps
from designkit.classical import (
    CheckFailed,
    ClassicalDesign,
    HomCheck,
    HomPair,
    classify,
    gen_complete,
    gen_projective_plane,
    verify_hom,
)
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
from designkit.linalg import DEFAULT_TOL, ComplexMatrix, NatMatrix
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


def test_is_cp_and_trace_preservation_stay_finite_near_binary64_limit():
    # Column sums of 2e308 overflow; the map is CP and is not trace preserving.
    f = CpMap(Algebra.commutative(2), Algebra.commutative(2), ComplexMatrix([[1e308] * 2] * 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        check = is_cp(f)
        assert check.is_cp and check.min_eigenvalue == 1e308
        assert not is_trace_preserving(f)


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
    with pytest.raises(ValueError, match=r"not a projector family: indices \[0\] fail validation"):
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


def test_functor_refusals_are_failed_checks():
    for rows in ([[2, 0], [0, 2]], [[1, 1], [1, 0]]):
        with pytest.raises(CheckFailed):
            functor_q(ClassicalDesign.from_rows(rows))
    design = gen_projective_plane(2)
    with pytest.raises(CheckFailed, match="hom square fails"):
        functor_q_on_hom(design, design, HomPair(f_v=tuple(range(7)), f_b=(1, 0, 2, 3, 4, 5, 6)))


def test_a_failed_hom_square_carries_the_verify_hom_witness():
    design = gen_projective_plane(2)
    broken = HomPair(f_v=tuple(range(7)), f_b=(1, 0, 2, 3, 4, 5, 6))
    with pytest.raises(CheckFailed, match="hom square fails") as info:
        functor_q_on_hom(design, design, broken)
    assert info.value.witness == verify_hom(design, design, broken)
    assert not info.value.witness.ok and info.value.witness.cell is not None
    assert CheckFailed("no witness").witness is None


def test_functor_q_refuses_an_oversized_image_before_classifying(monkeypatch):
    def never(design):
        raise AssertionError("classify ran")

    monkeypatch.setattr(cpmaps, "classify", never)
    wide = ClassicalDesign(NatMatrix._raw(np.ones((2, 100000), dtype=np.int64)))
    with pytest.raises(ValueError, match=r"^v\*b\^2 = 20000000000 exceeds the limit of "
                                         r"10000000 projector entries$"):
        functor_q(wide)
    assert cpmaps._FUNCTOR_Q_MAX_ENTRIES >= 133**3  # the pg2-11 image


def test_functor_q_on_hom_flags_non_injective_block_map():
    src = ClassicalDesign.from_rows([[1, 0], [0, 1]])
    dst = ClassicalDesign.from_rows([[1]])
    hom = HomPair(f_v=(0, 0), f_b=(0, 0))
    lift = functor_q_on_hom(src, dst, hom)
    assert lift.hom_residual == 0.0
    assert lift.embedding_residual == 0.0
    assert lift.outer_residual == pytest.approx(1.0)
    assert not lift.ok


def test_functor_q_on_hom_decides_exactly_and_names_an_outer_beyond_binary64():
    assert list(inspect.signature(functor_q_on_hom).parameters) == ["src", "dst", "hom"]
    design = gen_projective_plane(2)
    ident = HomPair(f_v=tuple(range(7)), f_b=tuple(range(7)))
    assert functor_q_on_hom(design, design, ident).ok is True
    merge = HomPair(f_v=(0, 1), f_b=(0, 0, 1))
    src = ClassicalDesign.from_rows([[1, 1, 0], [0, 0, 1]])
    dst = ClassicalDesign.from_rows([[1, 0], [0, 1]])
    assert functor_q_on_hom(src, dst, merge).ok is False
    huge = 10**400
    src = ClassicalDesign.from_rows([[huge, huge]])
    dst = ClassicalDesign.from_rows([[huge]])
    with pytest.raises(ValueError, match=f"outer residual {huge} .* exceeds binary64"):
        functor_q_on_hom(src, dst, HomPair(f_v=(0,), f_b=(0, 0)))


def _subset_matrix(images, target):
    # (target, len(images)): the 0/1 selector of a point or block map.
    f = np.zeros((target, len(images)), dtype=np.complex128)
    for src, dst in enumerate(images):
        f[dst, src] = 1.0
    return f


def _diag_embedder(n):
    # (n^2, n): places a coordinate vector on the diagonal of vec form.
    e = np.zeros((n * n, n), dtype=np.complex128)
    e[:: n + 1] = np.eye(n)
    return e


def dense_functor_q_on_hom(src, dst, hom):
    # The lifted residuals as first written, with the dense Kronecker product.
    chi_s = src.chi.to_complex().a
    chi_d = dst.chi.to_complex().a
    f_v = _subset_matrix(hom.f_v, dst.v)
    f_b = _subset_matrix(hom.f_b, dst.b)
    hom_res = float(np.abs(f_v @ chi_s - chi_d @ f_b).max())
    delta_s = _diag_embedder(src.b)
    delta_d = _diag_embedder(dst.b)
    emb_res = float(np.abs(np.kron(f_b, f_b) @ delta_s - delta_d @ f_b).max())
    outer_res = float(
        np.abs(chi_d @ delta_d.T @ np.kron(f_b, f_b) - f_v @ chi_s @ delta_s.T).max()
    )
    return hom_res, emb_res, outer_res


def seeded_homs(rng):
    for d in (2, 3, 5):
        chi = np.array(gen_projective_plane(d).chi.tolist())
        v, b = chi.shape
        points, blocks = rng.permutation(v), rng.permutation(b)
        src = ClassicalDesign.from_rows(chi[points][:, blocks].tolist())
        # A relabelling, with the block map it induces.
        perm = rng.permutation(v)
        moved = np.zeros_like(chi)
        moved[perm] = np.array(src.chi.tolist())
        order = rng.permutation(b)
        dst = ClassicalDesign.from_rows(moved[:, order].tolist())
        f_b = [int(np.argsort(order)[j]) for j in range(b)]
        yield src, dst, HomPair(f_v=perm.tolist(), f_b=f_b)
        # Points merged into fewer classes: the pushed blocks, deduplicated and
        # shuffled with one unused extra block, give a non-injective block map.
        for classes in (1, 2, max(2, v // 3)):
            f_v = rng.integers(0, classes, size=v)
            f_v[:classes] = np.arange(classes)
            pushed = np.zeros((classes, b), dtype=np.int64)
            np.add.at(pushed, f_v, np.array(src.chi.tolist()))
            cols, f_b = np.unique(pushed.T, axis=0, return_inverse=True)
            cols = np.vstack([cols, np.full((1, classes), 3)])
            shuffle = rng.permutation(len(cols))
            dst = ClassicalDesign.from_rows(cols[shuffle].T.tolist())
            f_b = np.argsort(shuffle)[f_b.reshape(-1)]
            yield src, dst, HomPair(f_v=f_v.tolist(), f_b=f_b.tolist())


def test_functor_q_on_hom_matches_dense_kronecker_reference_exactly():
    rng = np.random.default_rng(7707)
    injective = set()
    for src, dst, hom in seeded_homs(rng):
        lift = functor_q_on_hom(src, dst, hom)
        want = dense_functor_q_on_hom(src, dst, hom)
        assert (lift.hom_residual, lift.embedding_residual, lift.outer_residual) == want
        injective.add(len(set(hom.f_b)) == len(hom.f_b))
        assert lift.ok == (lift.outer_residual == 0.0)
    assert injective == {True, False}


def test_functor_q_on_hom_allocates_less_than_the_target_incidence(monkeypatch):
    design = gen_projective_plane(11)
    ident = HomPair(f_v=tuple(range(design.v)), f_b=tuple(range(design.b)))
    monkeypatch.setattr(cpmaps, "verify_hom", lambda *args: HomCheck(ok=True))
    tracemalloc.start()
    try:
        lift = functor_q_on_hom(design, design, ident)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert lift.ok
    # The dense selectors would take 133^3 complex entries (37 MB) here.
    assert peak < design.chi.a.nbytes


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


@pytest.mark.parametrize("in_alg, out_alg, m", [
    # Every unit sum is finite; their total overflows.
    (Algebra.commutative(2), Algebra.commutative(2), np.diag([1e308, 1e308])),
    (Algebra.matrix(2), Algebra.matrix(2), np.diag([1e308, 1.0, 1.0, 1e308])),
    # Every unit sum and both totals are finite, r is absent, and the
    # uniformity residual overflows.
    (Algebra.commutative(3), Algebra.commutative(2),
     np.array([[1.7e308, -1.7e308, 1.7e308], [0.0, 0.0, 1.0]])),
], ids=["commutative-total", "matrix-total", "commutative-residual"])
def test_verify_cp_design_refuses_a_reading_beyond_binary64(in_alg, out_alg, m):
    f = CpMap(in_alg, out_alg, ComplexMatrix(m))
    top = float(np.abs(m).max())
    with pytest.raises(ValueError) as err:
        verify_cp_design(f)
    assert str(err.value) == (
        f"m m^dagger is not finite; the largest |entry| of the map is {top!r}")


@pytest.mark.parametrize("x, refused", [(9.4e153, False), (9.49e153, True), (1e154, True)])
def test_lambda_search_runs_exactly_while_its_bracket_fits_binary64(x, refused):
    # diag(x, x) on Commutative(2) is regular with r = x, and the bracket is
    # x^2 + x + 1: 8.8e307 fits under half the binary64 range, 9.0e307 does not.
    f = CpMap(Algebra.commutative(2), Algebra.commutative(2), ComplexMatrix(np.diag([x, x])))
    if refused:
        with pytest.raises(ValueError, match="half the binary64 range"):
            verify_cp_design(f)
        return
    rep = verify_cp_design(f)
    assert rep.r == x
    assert np.isfinite([rep.lam, rep.lam_residual]).all()
    assert rep.lam_residual == abs(x * x - x)


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


def test_lam_fit_is_no_worse_than_the_full_matrix_ternary_reference():
    # The closed form minimises exactly; the ternary search stops within
    # rounding of the minimum.  Slack: 4 ulp of the largest entry of m m^dagger.
    rng = np.random.default_rng(1209)
    maps = [mixed_unitary_channel(n, rng) for n in range(2, 9)]
    maps += [classical_to_cp(gen_projective_plane(d)) for d in (2, 3, 5)]
    maps += [classical_to_cp(gen_complete(v, k)) for v, k in ((4, 2), (5, 3), (6, 2))]
    maps += [quantum_design_to_cp(functor_q(gen_projective_plane(d))) for d in (2, 3)]
    maps += [quantum_design_to_cp(mub_verify(mub_generate(d, d + 1)).design) for d in (2, 3, 5)]
    maps.append(superop_from_choi(ComplexMatrix(K2R2_4X4), 2, 2))
    balanced = 0
    for f in maps:
        rep = verify_cp_design(f)
        assert rep.r is not None
        ref_lam, ref_res = full_matrix_lam_search(f)
        top = float(np.abs(f.m.a @ f.m.a.conj().T).max())
        assert rep.lam_residual <= ref_res + 4 * np.finfo(float).eps * max(1.0, top)
        if rep.lam_balanced:
            # A balanced map has one lam at residual 0, which both find.
            assert rep.lam == pytest.approx(ref_lam, abs=1e-9)
            balanced += 1
    assert balanced == 6


def brute_force_balance(base, shape, fixed):
    # Reference: the minimiser is the real part of one entry's c or the point
    # equidistant from two of them, so try every such candidate over every entry.
    c = base * shape
    cands = set(c.real.tolist())
    for i in range(len(c)):
        for j in range(i):
            if c[i].real != c[j].real:
                cands.add((abs(c[i]) ** 2 - abs(c[j]) ** 2) / (2 * (c[i].real - c[j].real)))
    moving = {t: float(np.abs(base - t * shape).max()) for t in cands}
    lam = min(moving, key=moving.get)
    return lam, moving[lam], max(fixed, min(moving.values()))


def balance_inputs(rng, count):
    # 1-12 moving entries each: complex, all real, on a coarse grid (ties of
    # Re c and repeated points), with +1, -1 or mixed shape and with fixed
    # entries absent, minor or dominant.
    for i in range(count):
        e = 1 + i % 12
        z = rng.normal(size=e) * 10.0 ** rng.integers(-3, 4)
        kind = i // 12 % 3
        if kind == 0:
            z = z + 1j * rng.normal(size=e) * 10.0 ** rng.integers(-3, 4)
        elif kind == 2:
            z = rng.integers(-2, 3, size=e) + 1j * rng.integers(-2, 3, size=e)
        shape = [np.ones(e), -np.ones(e), rng.choice([-1.0, 1.0], size=e)][i // 36 % 3]
        top = float(np.abs(z).max())
        fixed = [0.0, 0.5 * top, 3.0 * top][i // 108 % 3]
        yield z.astype(np.complex128), shape, fixed


def test_balance_fit_matches_the_brute_force_minimum():
    rng = np.random.default_rng(18)
    eps = np.finfo(float).eps
    kinds = set()
    for base, shape, fixed in balance_inputs(rng, 1296):
        lam, res = cpmaps._balance_fit(base, shape, fixed)
        ref_lam, ref_moving, ref_res = brute_force_balance(base, shape, fixed)
        top = float(np.abs(base).max())
        # The residual of the moving part is the minimum, and lam its minimiser:
        # |c - t|^2 grows at least as (t - lam)^2 away from lam.
        moving = float(np.abs(base - lam * shape).max())
        assert abs(moving - ref_moving) <= 4 * eps * top
        assert abs(lam - ref_lam) <= 1e-7 * top
        assert res == max(fixed, moving)
        assert abs(res - ref_res) <= 4 * eps * top
        kinds.add((len(base), bool(np.any(base.imag)), tuple(sorted(set(shape)))))
    assert {k[0] for k in kinds} == set(range(1, 13))
    assert {k[1:] for k in kinds if k[0] > 1} == {
        (imag, signs) for imag in (False, True) for signs in ((-1.0,), (1.0,), (-1.0, 1.0))}


def test_balance_fit_single_entries_and_ties_are_exact():
    # One entry: the centre is its real part.
    assert cpmaps._balance_fit(np.array([3.0 + 4.0j]), np.array([-1.0]), 0.0) == (-3.0, 4.0)
    # A repeated point and a tie of Re c: the highest point of the tie decides.
    base = np.array([1.0 + 2.0j, 1.0 + 2.0j, 1.0 - 5.0j, 5.0 + 0.0j])
    lam, res = cpmaps._balance_fit(base, np.ones(4), 0.0)
    ref_lam, ref_moving, _ = brute_force_balance(base, np.ones(4), 0.0)
    assert (lam, res) == (ref_lam, ref_moving)
    # No moving entry, or only zeros: lam is 0 and the fixed entries stay.
    assert cpmaps._balance_fit(np.zeros(0, np.complex128), np.zeros(0), 2.5) == (0.0, 2.5)
    assert cpmaps._balance_fit(np.zeros(3, np.complex128), np.ones(3), 0.0) == (0.0, 0.0)


@pytest.mark.parametrize("s", [1.0, 2.0 ** 20, 1e100])
def test_fixed_dominated_map_reports_the_moving_minimiser(s):
    # m m^T = [[16, 8], [8, 8]] s^2 and r = 4 s.  The off-diagonal 8 s^2 moves
    # with lam; the diagonal of m m^T - r I is fixed and reaches 16 s^2 - 4 s,
    # more than the moving part at any lam near 8 s^2.  The report gives the one
    # minimiser of the moving part, whatever the bracket max|m m^dagger| + |r| + 1.
    f = CpMap(Algebra.commutative(2), Algebra.commutative(2),
              ComplexMatrix(np.array([[4.0, 0.0], [2.0, 2.0]]) * s))
    rep = verify_cp_design(f)
    assert rep.r == 4.0 * s
    assert rep.lam == 8.0 * s * s
    assert rep.lam_residual == 16.0 * s * s - 4.0 * s
    assert not rep.lam_balanced


def test_a_map_onto_one_coordinate_reports_lam_zero():
    # Commutative(1) has no moving entry: w w^dagger - I = 0.
    f = CpMap(Algebra.commutative(3), Algebra.commutative(1), ComplexMatrix([[1.0, 2.0, 3.0]]))
    rep = verify_cp_design(f)
    assert (rep.r, rep.lam, rep.lam_residual) == (6.0, 0.0, 8.0)


def diag_selector(n):
    # Reference: (n, n^2) 0/1 matrix picking the diagonal out of vec(X).
    s = np.zeros((n, n * n), dtype=np.complex128)
    for i in range(n):
        s[i, i * n + i] = 1.0
    return s


def product_embed(f):
    # Reference: commutative legs embedded by dense products with 0/1 selectors.
    m = f.m.a
    if f.in_alg.kind == "commutative":
        m = m @ diag_selector(f.in_alg.n)
    if f.out_alg.kind == "commutative":
        m = diag_selector(f.out_alg.n).T @ m
    return m


def dense_choi(f):
    ni, no = f.in_alg.n, f.out_alg.n
    return product_embed(f).reshape(no, no, ni, ni).transpose(2, 0, 3, 1).reshape(ni * no, ni * no)


def dense_is_cp(f, tol=DEFAULT_TOL):
    # Reference: one eigvalsh over the whole Choi matrix.
    c = dense_choi(f)
    hermitian = tol.allclose(c, c.conj().T)
    herm_part = c.conj().T / 2.0
    herm_part += c / 2.0
    eigenvalues = np.linalg.eigvalsh(herm_part)
    low = float(eigenvalues[0])
    cmax = float(np.abs(c).max(initial=0.0))
    slack = tol.abs_eps + tol.rel_eps * cmax
    return hermitian and low >= -slack, low, hermitian, cmax, bool(np.isfinite(eigenvalues).all())


def seeded_maps(rng):
    # Maps on all four algebra pairs; per pair CP, not CP and not Hermitian.
    def gauss(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    def psd(n, rank):
        g = gauss(n, rank)
        return g @ g.conj().T

    def herm(n):
        h = gauss(n, n)
        return h + h.conj().T

    def skew_last(blocks):
        # An anti-Hermitian part in the last block only: the Hermitian part
        # stays PSD, but the map does not preserve Hermiticity.
        h = gauss(*blocks[-1].shape)
        return blocks[:-1] + [blocks[-1] + h - h.conj().T]

    maps = []
    for _ in range(6):
        ni, no = (int(x) for x in rng.integers(1, 6, size=2))
        rank = int(rng.integers(1, ni + 1))
        images = [psd(no, rank) for _ in range(ni)]
        functionals = [psd(ni, rank) for _ in range(no)]
        weights = [rng.random(size=(1, 1)) for _ in range(ni * no)]
        maps += [
            # Commutative -> Matrix: column i is vec f(E_ii).
            *(CpMap(Algebra.commutative(ni), Algebra.matrix(no),
                    ComplexMatrix(np.column_stack([vec(b) for b in bs])))
              for bs in (images, skew_last(images))),
            CpMap(Algebra.commutative(ni), Algebra.matrix(no),
                  ComplexMatrix(np.column_stack([vec(herm(no)) for _ in range(ni)]))),
            CpMap(Algebra.commutative(ni), Algebra.matrix(no), ComplexMatrix(gauss(no * no, ni))),
            # Matrix -> Commutative: row k is the functional X -> sum M_k[i, j] X[i, j].
            *(CpMap(Algebra.matrix(ni), Algebra.commutative(no),
                    ComplexMatrix(np.vstack([vec(b) for b in bs])))
              for bs in (functionals, skew_last(functionals))),
            CpMap(Algebra.matrix(ni), Algebra.commutative(no),
                  ComplexMatrix(np.vstack([vec(herm(ni)) for _ in range(no)]))),
            CpMap(Algebra.matrix(ni), Algebra.commutative(no), ComplexMatrix(gauss(no, ni * ni))),
            *(CpMap(Algebra.commutative(ni), Algebra.commutative(no),
                    ComplexMatrix(np.reshape(bs, (no, ni))))
              for bs in (weights, skew_last(weights))),
            CpMap(Algebra.commutative(ni), Algebra.commutative(no),
                  ComplexMatrix(rng.normal(size=(no, ni)))),
            CpMap(Algebra.commutative(ni), Algebra.commutative(no), ComplexMatrix(gauss(no, ni))),
            mixed_unitary_channel(no, rng),
            CpMap(Algebra.matrix(ni), Algebra.matrix(no), ComplexMatrix(gauss(no * no, ni * ni))),
        ]
    maps.append(transpose_map())
    for d in (2, 3, 5):
        plane = classical_to_cp(gen_projective_plane(d))
        maps += [plane, quantum_design_to_cp(functor_q(gen_projective_plane(d)))]
    for d, count in ((2, 3), (3, 4), (5, 6), (7, 8)):
        povm = quantum_design_to_cp(mub_verify(mub_generate(d, count)).design)
        # The adjoint reads the measurement statistics X -> (Tr p_i X)_i.
        maps += [povm, CpMap(povm.out_alg, povm.in_alg, ComplexMatrix(povm.m.a.conj().T))]
    # Entries near the top of the binary64 range.
    for f in list(maps[:22]):
        top = f.m.a / float(np.abs(f.m.a).max()) * 1e308
        maps.append(CpMap(f.in_alg, f.out_alg, ComplexMatrix(top)))
    return maps


def test_embed_commutative_and_choi_match_dense_products_exactly():
    rng = np.random.default_rng(4401)
    maps = seeded_maps(rng)
    assert {(f.in_alg.kind, f.out_alg.kind) for f in maps} == {
        (a, b) for a in ("commutative", "matrix") for b in ("commutative", "matrix")
    }
    for f in maps:
        g = embed_commutative(f)
        assert np.array_equal(g.m.a, product_embed(f))
        assert np.array_equal(choi(f).m.a, dense_choi(f))


def test_is_cp_blocks_match_dense_choi_reference():
    rng = np.random.default_rng(4402)
    seen = set()
    overflowed = 0
    for f in seeded_maps(rng):
        want_cp, want_low, want_hermitian, cmax, finite = dense_is_cp(f)
        if not finite:
            # Eigenvalues beyond binary64 are refused with the largest entry, not
            # reported as -inf.
            with pytest.raises(ValueError) as err:
                is_cp(f)
            assert str(err.value) == ("Choi eigenvalues are not finite; the largest |entry| "
                                      f"of the map is {cmax!r}")
            overflowed += 1
            continue
        check = is_cp(f)
        pair = (f.in_alg.kind, f.out_alg.kind)
        assert (check.is_cp, check.hermitian) == (want_cp, want_hermitian)
        # LAPACK rescales a matrix whose norm is beyond about 1e146 but
        # returns a 1 x 1 one as it is, so near 1e308 a Commutative ->
        # Commutative map may differ from the dense reference in the last bit.
        if pair == ("matrix", "matrix") or (pair[0] == pair[1] and cmax < 1e146):
            assert check.min_eigenvalue == want_low
        else:
            assert abs(check.min_eigenvalue - want_low) <= 1e-12 * max(1.0, cmax)
        seen.add((pair, check.is_cp, check.hermitian))
    # Every algebra pair shows CP, Hermitian but not CP, and non-Hermitian maps.
    assert len(seen) == 12
    assert overflowed > 0


def test_is_cp_never_builds_the_choi_matrix_for_a_commutative_leg(monkeypatch):
    def refuse(f):
        raise AssertionError("dense Choi matrix built")

    maps = [f for f in seeded_maps(np.random.default_rng(4403))
            if "commutative" in (f.in_alg.kind, f.out_alg.kind)]

    def outcome(f):
        try:
            return is_cp(f)
        except ValueError as exc:  # eigenvalues beyond binary64
            return str(exc)

    want = [outcome(f) for f in maps]
    monkeypatch.setattr(cpmaps, "choi", refuse)
    assert [outcome(f) for f in maps] == want
    with pytest.raises(AssertionError):
        is_cp(identity_map(2))
