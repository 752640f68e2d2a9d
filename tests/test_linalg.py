import numpy as np
import pytest

from designkit.linalg import (
    DEFAULT_TOL,
    ComplexMatrix,
    NatMatrix,
    Tolerance,
    adjoint,
    kron,
    mat_mul,
    min_eigenvalue_hermitian,
    orthonormalize,
    split_by_projector,
    trace,
    transpose,
)


def test_tolerance_scalar_close():
    tol = Tolerance(abs_eps=1e-9, rel_eps=1e-9)
    assert tol.close(1.0, 1.0 + 5e-10)
    assert not tol.close(1.0, 1.0 + 5e-8)
    assert tol.close(1e6, 1e6 * (1 + 5e-10))
    assert tol.close(1j, 1j + 1e-10)


def test_tolerance_rejects_negative_eps():
    with pytest.raises(ValueError):
        Tolerance(abs_eps=-1.0)
    with pytest.raises(ValueError):
        Tolerance(rel_eps=-1e-3)


def test_tolerance_allclose_shape_mismatch_is_false():
    assert not DEFAULT_TOL.allclose(np.zeros((2, 2)), np.zeros((2, 3)))


def test_tolerance_never_counts_a_non_finite_gap_as_close():
    tol = Tolerance(abs_eps=1e-9, rel_eps=1e-9)
    inf = float("inf")
    cases = ((inf, 1.0), (1.0, -inf), (complex(inf, 0.0), 0.0), (inf, inf),
             (np.float64(inf), np.float64(2.0)), (float("nan"), 1.0))
    with np.errstate(invalid="ignore"):  # inf - inf is NaN
        for x, y in cases:
            assert not tol.close(x, y)
            assert not tol.allclose([x, 1.0], [y, 1.0])
    assert not tol.allclose(np.full((2, 2), inf), np.ones((2, 2)))
    assert not tol.allclose([1e308], [-1e308])  # the gap overflows
    # Finite inputs keep their verdicts, also at the top of the binary64 range.
    assert tol.close(1e308, 1e308 * (1 + 5e-10))
    assert tol.allclose([1e308, 0.0], [1e308 * (1 + 5e-10), 5e-10])
    assert not tol.allclose([1e308], [1e307])


def test_tolerance_near_int():
    assert DEFAULT_TOL.near_int(3.0 + 1e-12) == 3
    assert DEFAULT_TOL.near_int(2.5) is None
    assert DEFAULT_TOL.near_int(-1.0) == -1


def test_nat_matrix_construction_and_sums():
    m = NatMatrix([[1, 2], [3, 4]])
    assert (m.rows, m.cols) == (2, 2)
    assert m.row_sums() == [3, 7]
    assert m.col_sums() == [4, 6]
    assert m.tolist() == [[1, 2], [3, 4]]


def test_nat_matrix_rejects_bad_entries():
    with pytest.raises(ValueError):
        NatMatrix([[1, -1]])
    with pytest.raises(ValueError):
        NatMatrix([[1, 2.5]])
    with pytest.raises(ValueError):
        NatMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        NatMatrix([])


def test_nat_matrix_accepts_integral_floats_and_numpy_ints():
    m = NatMatrix([[np.int64(2), 3.0]])
    assert m.tolist() == [[2, 3]]


def test_nat_matrix_arithmetic_is_exact_at_large_magnitude():
    big = 10**12
    m = NatMatrix([[big, big], [big, big]])
    prod = mat_mul(m, m)
    assert prod.tolist() == [[2 * big * big] * 2] * 2
    kr = kron(m, m)
    assert kr.tolist()[0][0] == big * big
    assert kr.rows == 4 and kr.cols == 4


def test_mat_mul_matches_plain_loops():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = rng.integers(0, 5, size=(3, 4))
        b = rng.integers(0, 5, size=(4, 2))
        got = mat_mul(NatMatrix(a.tolist()), NatMatrix(b.tolist())).tolist()
        want = [
            [sum(int(a[i, t]) * int(b[t, j]) for t in range(4)) for j in range(2)]
            for i in range(3)
        ]
        assert got == want


def test_mat_mul_dimension_mismatch():
    with pytest.raises(ValueError):
        mat_mul(NatMatrix([[1, 2]]), NatMatrix([[1, 2]]))


def test_mat_mul_rejects_mixed_kinds():
    with pytest.raises(TypeError):
        mat_mul(NatMatrix([[1]]), ComplexMatrix([[1.0]]))


def test_kron_block_structure():
    a = NatMatrix([[1, 2], [0, 1]])
    b = NatMatrix([[3, 0], [0, 3]])
    k = kron(a, b)
    want = [
        [3, 0, 6, 0],
        [0, 3, 0, 6],
        [0, 0, 3, 0],
        [0, 0, 0, 3],
    ]
    assert k.tolist() == want


def test_kron_associative_complex():
    rng = np.random.default_rng(5)
    a, b, c = (
        ComplexMatrix(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        for _ in range(3)
    )
    left = kron(kron(a, b), c)
    right = kron(a, kron(b, c))
    assert DEFAULT_TOL.allclose(left.a, right.a)


def test_transpose_and_adjoint():
    m = NatMatrix([[1, 2, 3], [4, 5, 6]])
    t = transpose(m)
    assert t.tolist() == [[1, 4], [2, 5], [3, 6]]
    assert transpose(t).tolist() == m.tolist()
    c = ComplexMatrix([[0, 1j], [0, 0]])
    ca = adjoint(c)
    assert ca.a[1, 0] == -1j and ca.a[0, 1] == 0
    assert np.array_equal(adjoint(ca).a, c.a)
    with pytest.raises(TypeError):
        transpose(c)
    with pytest.raises(TypeError):
        adjoint(m)


def test_trace():
    assert trace(ComplexMatrix.identity(5)) == 5
    with pytest.raises(ValueError):
        trace(ComplexMatrix([[1.0, 2.0]]))


def test_complex_matrix_rejects_non_finite():
    with pytest.raises(ValueError):
        ComplexMatrix([[np.inf, 0], [0, 1]])
    with pytest.raises(ValueError):
        ComplexMatrix([[np.nan * 1j, 0], [0, 1]])


def test_orthonormalize_produces_orthonormal_basis():
    rng = np.random.default_rng(3)
    vecs = [rng.normal(size=4) + 1j * rng.normal(size=4) for _ in range(3)]
    basis = orthonormalize(vecs)
    assert len(basis) == 3
    g = np.array([[u.conj() @ v for v in basis] for u in basis])
    assert DEFAULT_TOL.allclose(g, np.eye(3))


def test_orthonormalize_drops_dependent_vectors():
    v = np.array([1.0, 2.0, 0.0])
    basis = orthonormalize([v, 2 * v, np.array([0.0, 0.0, 1.0])])
    assert len(basis) == 2


def test_orthonormalize_drops_tiny_vectors():
    basis = orthonormalize([np.array([1e-12, 0.0]), np.array([0.0, 1.0])])
    assert len(basis) == 1


def test_split_by_projector_diagonal():
    p = ComplexMatrix(np.diag([1.0, 1.0, 0.0]))
    basis = [np.eye(3)[:, i] for i in range(3)]
    img, ker = split_by_projector(basis, p)
    assert len(img) == 2 and len(ker) == 1
    for u in img:
        assert DEFAULT_TOL.allclose(p.a @ u, u)
    for u in ker:
        assert DEFAULT_TOL.allclose(p.a @ u, np.zeros(3))


def test_split_by_projector_rotated():
    rng = np.random.default_rng(9)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    u, _ = np.linalg.qr(g)
    p = ComplexMatrix(u[:, :2] @ u[:, :2].conj().T)
    basis = [np.eye(4)[:, i] for i in range(4)]
    img, ker = split_by_projector(basis, p)
    assert len(img) == 2 and len(ker) == 2
    stacked = np.column_stack(img + ker)
    assert DEFAULT_TOL.allclose(stacked.conj().T @ stacked, np.eye(4))


def test_split_by_projector_rejects_non_binary_spectrum():
    p = ComplexMatrix(0.5 * np.eye(2))
    basis = [np.eye(2)[:, i] for i in range(2)]
    with pytest.raises(ValueError):
        split_by_projector(basis, p)


def test_split_by_projector_empty_basis():
    assert split_by_projector([], ComplexMatrix.identity(2)) == ([], [])


def test_min_eigenvalue_hermitian_known_values():
    assert min_eigenvalue_hermitian(ComplexMatrix(np.diag([-1.0, 1.0]))) == -1.0
    pauli_x = ComplexMatrix([[0.0, 1.0], [1.0, 0.0]])
    assert abs(min_eigenvalue_hermitian(pauli_x) + 1.0) < 1e-12
    swap = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            swap[2 * i + j, 2 * j + i] = 1.0
    assert abs(min_eigenvalue_hermitian(ComplexMatrix(swap)) + 1.0) < 1e-12


def test_min_eigenvalue_hermitian_guards():
    with pytest.raises(ValueError):
        min_eigenvalue_hermitian(ComplexMatrix([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        min_eigenvalue_hermitian(ComplexMatrix([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))


def test_trace_multiplicative_under_kron():
    rng = np.random.default_rng(17)
    for _ in range(25):
        a = ComplexMatrix(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        b = ComplexMatrix(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        assert DEFAULT_TOL.close(trace(kron(a, b)), trace(a) * trace(b))


def test_adjoint_reverses_products():
    rng = np.random.default_rng(23)
    for _ in range(25):
        a = ComplexMatrix(rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2)))
        b = ComplexMatrix(rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4)))
        lhs = adjoint(mat_mul(a, b))
        rhs = mat_mul(adjoint(b), adjoint(a))
        assert DEFAULT_TOL.allclose(lhs.a, rhs.a)
