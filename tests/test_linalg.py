import re
import tracemalloc

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
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            Tolerance(abs_eps=bad)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            Tolerance(rel_eps=bad)


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


def scalar_close(tol, x, y):
    # The scalar rule as first written, before close delegated to isclose.
    d = abs(x - y)
    return d <= tol.abs_eps + tol.rel_eps * max(abs(x), abs(y)) and d < float("inf")


def test_tolerance_isclose_is_close_entrywise():
    tol = Tolerance(abs_eps=1e-9, rel_eps=1e-9)
    inf = float("inf")
    values = [0.0, 1e-10, 1.0, 1.0 + 1e-9, 1.0 + 3e-9, -1.0, 1j, complex(1.0, 1e-10),
              1e308, 1e308 * (1 + 5e-10), -1e308, inf, -inf, float("nan"),
              -0.0, 5e-324, -5e-324, 1.0 + 2.1e-9, complex(0.0, -1e-9), 1.7976931348623157e308,
              complex(inf, 0.0)]
    n = len(values)
    xs, ys = zip(*[(x, y) for x in values for y in values])
    want = [scalar_close(tol, x, y) for x, y in zip(xs, ys)]
    assert [tol.close(x, y) for x, y in zip(xs, ys)] == want
    assert {type(tol.close(x, y)) for x, y in zip(xs, ys)} == {bool}
    got = tol.isclose(np.array(xs).reshape(n, n), np.array(ys).reshape(n, n))
    assert got.shape == (n, n)
    assert got.reshape(-1).tolist() == want
    assert any(want) and not all(want)


def test_tolerance_slack_is_the_formula_written_out():
    # Every check that reads its slack from the method keeps the bits of the
    # formula it wrote out before, b * (abs_eps + rel_eps) included.
    scales = [0.0, 1.0, 2.5, 1e-300, 1e300]
    for tol in (DEFAULT_TOL, Tolerance(abs_eps=0.0, rel_eps=3e-7), Tolerance(1e-3, 0.0),
                Tolerance(abs_eps=0.1, rel_eps=0.2)):
        for scale in scales:
            assert tol.slack(scale) == tol.abs_eps + tol.rel_eps * scale
        assert tol.slack(1.0) == tol.abs_eps + tol.rel_eps
        assert tol.slack(np.array(scales)).tolist() == [tol.slack(s) for s in scales]


def test_tolerance_near_int():
    assert DEFAULT_TOL.near_int(3.0 + 1e-12) == 3
    assert DEFAULT_TOL.near_int(2.5) is None
    assert DEFAULT_TOL.near_int(-1.0) == -1
    # Beyond int64 the nearest integer is a Python int, and the rule still holds.
    assert DEFAULT_TOL.near_int(1e300) == int(1e300)
    assert DEFAULT_TOL.near_int(-1e300) == -int(1e300)
    assert DEFAULT_TOL.near_int(complex(1e300, 1.0)) == int(1e300)
    assert DEFAULT_TOL.near_int(complex(1.0, 1e-3)) is None


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


def test_nat_matrix_names_the_first_bad_entry_of_any_input():
    for entries, bad in (([[1, 2], [3, -4]], "-4"), ([[1, 2.5, -1]], "2.5"),
                         (np.array([[0, 1], [-2, -3]]), "np.int64(-2)"),
                         (np.array([[1.0, 0.5]]), "np.float64(0.5)"),
                         ([[np.float32(1.0)]], "np.float32(1.0)"), ([[1, "2"]], "'2'"),
                         ([[0, -(2**63) - 1]], str(-(2**63) - 1)),
                         ([[0, -(10**400)]], str(-(10**400)))):
        with pytest.raises(ValueError, match=re.escape(f"entry {bad} is not a nonnegative integer")):
            NatMatrix(entries)


def test_nat_matrix_accepts_integral_floats_and_numpy_ints():
    m = NatMatrix([[np.int64(2), 3.0]])
    assert m.tolist() == [[2, 3]]
    assert NatMatrix([[True, 2]]).tolist() == [[1, 2]]  # a bool is 0 or 1, as _integral says


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


def _float64_peak(x: NatMatrix, y: NatMatrix) -> tuple[list, int]:
    """mat_mul(x, y) as lists, and the tracemalloc peak of the call in bytes."""
    tracemalloc.start()
    try:
        got = mat_mul(x, y).tolist()
        return got, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_gram_product_converts_its_operand_once():
    # x @ transpose(x) and transpose(x) @ x convert x to float64 once and multiply
    # it by its own transpose; any other pair, even a view of the same shape,
    # converts both operands.  Every product equals the object-dtype one exactly.
    # The operands are 3 x 4000 (or 4000 x 3), so each float64 copy is 96 kB
    # and the 3 x 3 product is tiny next to it.
    rng = np.random.default_rng(24)
    a = rng.integers(0, 2**20, size=(3, 4000))  # max^2 * 4000 < 2**53: the float64 path
    copy_bytes = a.size * 8
    tall = np.ascontiguousarray(a.T)
    cases = (
        ("wide x x^T", NatMatrix._raw(a), transpose(NatMatrix._raw(a)), True),
        ("tall x^T x", transpose(NatMatrix._raw(tall)), NatMatrix._raw(tall), True),
        ("wide x times a copy of x^T", NatMatrix._raw(a), NatMatrix._raw(tall.copy()), False),
        ("tall x^T times a copy of x", transpose(NatMatrix._raw(tall)), NatMatrix._raw(tall.copy()),
         False),
        ("a transposed view of other rows", NatMatrix._raw(a), NatMatrix._raw(a[::-1].T), False),
    )
    for name, x, y, once in cases:
        got, peak = _float64_peak(x, y)
        assert got == (x.a.astype(object) @ y.a.astype(object)).tolist(), name
        assert (peak < 1.5 * copy_bytes) is once, (name, peak)
    # Square and single-entry Gram matrices, as classify forms them, on both paths.
    for shape in ((1, 1), (7, 7), (13, 5), (5, 13)):
        b = rng.integers(0, 3, size=shape)
        m = NatMatrix._raw(b)
        for y in (transpose(m), NatMatrix._raw(np.ascontiguousarray(b.T))):
            assert mat_mul(m, y).tolist() == (b.astype(object) @ b.T.astype(object)).tolist()


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
    assert np.shares_memory(t.a, m.a)  # a view, not a copy: NatMatrix is immutable
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
