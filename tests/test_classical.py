import itertools
import math
import time

import numpy as np
import pytest

from designkit.classical import (
    ClassicalDesign,
    HomPair,
    InfeasibleParametersError,
    check_identities,
    classify,
    compose_hom,
    designs_isomorphic,
    dual,
    gen_complete,
    gen_projective_plane,
    search_designs,
    tensor,
    to_block,
    verify_hom,
)

# Incidence matrix of the plane of order 2 in the generator's normalized
# lexicographic point/line order; frozen as a regression anchor.
FANO_ROWS = [
    [0, 1, 0, 1, 0, 1, 0],
    [1, 0, 0, 1, 1, 0, 0],
    [0, 0, 1, 1, 0, 0, 1],
    [1, 1, 1, 0, 0, 0, 0],
    [0, 1, 0, 0, 1, 0, 1],
    [1, 0, 0, 0, 0, 1, 1],
    [0, 0, 1, 0, 1, 1, 0],
]


def fano():
    return ClassicalDesign.from_rows(FANO_ROWS)


def find_fano_automorphism():
    """First non-identity point permutation that permutes the line set,
    together with the induced block map."""
    design = fano()
    rows = [tuple(r) for r in design.chi.tolist()]
    cols = list(zip(*rows))
    for perm in itertools.permutations(range(7)):
        if perm == tuple(range(7)):
            continue
        permuted_cols = list(zip(*(rows[perm.index(i)] for i in range(7))))
        try:
            f_b = tuple(cols.index(c) for c in permuted_cols)
        except ValueError:
            continue
        if sorted(f_b) == list(range(7)):
            return HomPair(f_v=perm, f_b=f_b)
    raise AssertionError("no automorphism found")


def test_generator_output_is_frozen_fano_matrix():
    assert gen_projective_plane(2).chi.tolist() == FANO_ROWS


def test_classify_fano():
    p = classify(fano())
    assert (p.k, p.r, p.lam, p.symmetric) == (3, 3, 1, True)


def test_classify_all_ones():
    p = classify(ClassicalDesign.from_rows([[1] * 3] * 3))
    assert (p.k, p.r, p.lam) == (3, 3, 3)


def test_classify_identity_matrix():
    p = classify(ClassicalDesign.from_rows([[1, 0], [0, 1]]))
    assert (p.k, p.r, p.lam, p.symmetric) == (1, 1, 0, True)


def test_classify_partial_parameters():
    # column sums agree, row sums do not
    p = classify(ClassicalDesign.from_rows([[1, 1], [1, 1], [0, 0]]))
    assert p.k == 2 and p.r is None and p.lam is None
    # balance fails though k and r exist
    p = classify(ClassicalDesign.from_rows([[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]]))
    assert p.k == 2 and p.r == 2 and p.lam is None


def test_classify_single_point_has_no_lambda():
    d = ClassicalDesign.from_rows([[2, 2]])
    p = classify(d)
    assert (p.k, p.r, p.lam, p.symmetric) == (2, 4, None, False)
    assert not d.is_zero_one


def test_classify_multiplicity_diagonal_breaks_balance():
    # chi chi^T diagonal is sum of squares, not r, once entries exceed 1
    p = classify(ClassicalDesign.from_rows([[2, 0], [0, 2]]))
    assert p.k == 2 and p.r == 2 and p.lam is None


def test_check_identities_fano():
    p = classify(fano())
    checks = check_identities(7, 7, p.k, p.r, p.lam)
    assert [(c.name, c.lhs, c.rhs, c.passed) for c in checks] == [
        ("b*k = r*v", 21, 21, True),
        ("lambda*(v-1) = r*(k-1)", 6, 6, True),
    ]


def test_check_identities_detects_violation():
    checks = check_identities(4, 4, 2, 2, 1)
    assert checks[0].passed  # 8 = 8
    assert not checks[1].passed  # 3 != 2


def test_check_identities_requires_k_and_r():
    with pytest.raises(ValueError):
        check_identities(3, 3, None, 1)


def test_to_block_thresholds_and_is_idempotent():
    d = ClassicalDesign.from_rows([[2, 0], [1, 1]])
    blocked = to_block(d)
    assert blocked.chi.tolist() == [[1, 0], [1, 1]]
    assert to_block(blocked).chi == blocked.chi
    assert blocked.is_zero_one


def test_verify_hom_identity():
    d = fano()
    hom = HomPair(f_v=tuple(range(7)), f_b=tuple(range(7)))
    assert verify_hom(d, d, hom).ok


def test_verify_hom_automorphism_matches_plain_loop_oracle():
    d = fano()
    hom = find_fano_automorphism()
    result = verify_hom(d, d, hom)
    chi = d.chi.tolist()
    ok = all(
        sum(chi[a][j] for a in range(7) if hom.f_v[a] == i) == chi[i][hom.f_b[j]]
        for i in range(7)
        for j in range(7)
    )
    assert result.ok and ok


def test_verify_hom_failure_reports_first_cell():
    src = ClassicalDesign.from_rows([[1, 0], [0, 1]])
    dst = ClassicalDesign.from_rows([[1, 0], [0, 1]])
    hom = HomPair(f_v=(0, 1), f_b=(1, 0))  # swap blocks but not points
    result = verify_hom(src, dst, hom)
    assert not result.ok
    assert result.cell == (0, 0)
    assert (result.lhs, result.rhs) == (1, 0)


def test_hom_pair_refuses_non_integral_images():
    with pytest.raises(ValueError, match="f_v image 1.5 is not an integer"):
        HomPair(f_v=(1.5,), f_b=(0,))
    with pytest.raises(ValueError, match="f_b image 0.9 is not an integer"):
        HomPair(f_v=(1,), f_b=(0.9,))
    hom = HomPair(f_v=(1.0, np.int64(2), True), f_b=(np.uint8(0),))
    assert (hom.f_v, hom.f_b) == ((1, 2, 1), (0,))
    assert {type(x) for x in hom.f_v + hom.f_b} == {int}


def test_verify_hom_range_validation():
    d = fano()
    with pytest.raises(ValueError):
        verify_hom(d, d, HomPair(f_v=(0,) * 7, f_b=(9,) * 7))
    with pytest.raises(ValueError):
        verify_hom(d, d, HomPair(f_v=(0,) * 6, f_b=(0,) * 7))


def test_compose_hom():
    auto = find_fano_automorphism()
    ident = HomPair(f_v=tuple(range(7)), f_b=tuple(range(7)))
    assert compose_hom(ident, auto) == auto
    assert compose_hom(auto, ident) == auto
    twice = compose_hom(auto, auto)
    assert verify_hom(fano(), fano(), twice).ok
    assert twice.f_v == tuple(auto.f_v[x] for x in auto.f_v)


def test_compose_hom_dimension_mismatch():
    h1 = HomPair(f_v=(0, 1), f_b=(0,))
    h2 = HomPair(f_v=(0,), f_b=(0,))
    with pytest.raises(ValueError):
        compose_hom(h1, h2)


def test_compose_hom_refuses_negative_images():
    second = HomPair(f_v=(5, 7), f_b=(1, 3))
    with pytest.raises(ValueError, match="point maps do not compose"):
        compose_hom(HomPair(f_v=(-1,), f_b=(0,)), second)
    with pytest.raises(ValueError, match="block maps do not compose"):
        compose_hom(HomPair(f_v=(0,), f_b=(-2,)), second)


def test_tensor_multiplies_parameters():
    t = tensor(fano(), gen_complete(3, 2))
    p = classify(t)
    assert (t.v, t.b) == (21, 21)
    assert (p.k, p.r) == (6, 6)
    assert p.lam is None  # pairwise intersections are no longer constant


def test_tensor_matches_kron_oracle():
    a = ClassicalDesign.from_rows([[1, 0], [1, 1]])
    b = ClassicalDesign.from_rows([[2, 1]])
    t = tensor(a, b)
    assert t.chi.tolist() == [[2, 1, 0, 0], [2, 1, 2, 1]]


def test_dual_swaps_k_and_r():
    d = gen_complete(4, 2)
    p = classify(d)
    q = classify(dual(d))
    assert (p.k, p.r) == (2, 3)
    assert (q.k, q.r) == (3, 2)
    assert dual(dual(d)).chi == d.chi


def test_projective_plane_parameters():
    for order, n in [(2, 7), (3, 13), (5, 31), (7, 57)]:
        d = gen_projective_plane(order)
        p = classify(d)
        assert (d.v, d.b) == (n, n)
        assert (p.k, p.r, p.lam, p.symmetric) == (order + 1, order + 1, 1, True)
        for c in check_identities(d.v, d.b, p.k, p.r, p.lam):
            assert c.passed


def test_projective_plane_rejects_non_prime_order():
    for bad in (0, 1, 4, 6, 8, 9):
        with pytest.raises(ValueError):
            gen_projective_plane(bad)


def test_projective_plane_refuses_a_non_integral_order():
    with pytest.raises(ValueError, match="order 2.7 is not an integer"):
        gen_projective_plane(2.7)
    assert gen_projective_plane(3.0) == gen_projective_plane(np.int64(3))


def test_projective_plane_size_guard_is_exact(monkeypatch):
    import designkit.classical as classical

    monkeypatch.setattr(classical, "_COMPLETE_MAX_CELLS", 13 * 13)
    assert gen_projective_plane(3).v == 13
    with pytest.raises(ValueError, match=r"^\(d\^2\+d\+1\)\^2 = 961 exceeds the limit of 169 "
                       "incidence cells$"):
        gen_projective_plane(5)


def test_projective_plane_refuses_oversized_orders_at_once():
    start = time.perf_counter()
    # 10**18 + 9 is refused before a trial division up to 10**9 could start.
    for order in (37, 10**18 + 9):
        size = (order * order + order + 1) ** 2
        with pytest.raises(ValueError, match=rf"^\(d\^2\+d\+1\)\^2 = {size} exceeds the limit "
                           "of 1000000 incidence cells$"):
            gen_projective_plane(order)
    assert time.perf_counter() - start < 0.1


def test_generators_match_their_loop_oracles():
    for d in (2, 3, 5, 7, 11):
        reps = [t for t in itertools.product(range(d), repeat=3)
                if any(t) and next(x for x in t if x) == 1]
        want = [[1 if sum(p * q for p, q in zip(pt, ln)) % d == 0 else 0 for ln in reps]
                for pt in reps]
        assert gen_projective_plane(d).chi.tolist() == want
    for v, k in [(1, 1), (4, 2), (5, 3), (6, 1), (5, 5), (7, 3)]:
        blocks = list(itertools.combinations(range(v), k))
        want = [[1 if i in blk else 0 for blk in blocks] for i in range(v)]
        assert gen_complete(v, k).chi.tolist() == want


def test_complete_design_matrix_and_parameters():
    d = gen_complete(3, 2)
    assert d.chi.tolist() == [[1, 1, 0], [1, 0, 1], [0, 1, 1]]
    for v, k in [(4, 2), (5, 3), (6, 1), (5, 5)]:
        d = gen_complete(v, k)
        p = classify(d)
        assert d.b == math.comb(v, k)
        assert p.k == k
        assert p.r == math.comb(v - 1, k - 1)
        if k >= 2:
            assert p.lam == math.comb(v - 2, k - 2)
        else:
            assert p.lam == 0


def test_complete_design_size_guard_is_exact(monkeypatch):
    import designkit.classical as classical

    monkeypatch.setattr(classical, "_COMPLETE_MAX_CELLS", 60)
    for v in range(1, 9):
        for k in range(1, v + 1):
            if v * math.comb(v, k) <= 60:
                assert gen_complete(v, k).b == math.comb(v, k)
            else:
                with pytest.raises(ValueError, match="limit of 60 incidence cells"):
                    gen_complete(v, k)


def test_complete_design_rejects_bad_k():
    with pytest.raises(ValueError):
        gen_complete(3, 0)
    with pytest.raises(ValueError):
        gen_complete(3, 4)


def test_search_finds_exactly_the_triangle():
    found = search_designs(3, 3, 2, 2, 1, canonical_only=True)
    assert len(found) == 1
    assert found[0].chi == gen_complete(3, 2).chi


def test_search_non_canonical_counts_column_orderings():
    found = search_designs(3, 3, 2, 2, 1, canonical_only=False)
    assert len(found) == 6  # 3! orderings of the three blocks


def test_search_respects_limit():
    found = search_designs(7, 7, 3, 3, 1, limit=5, canonical_only=True)
    assert len(found) == 5
    for d in found:
        p = classify(d)
        assert (p.k, p.r, p.lam) == (3, 3, 1)
    assert search_designs(3, 3, 2, 2, 1, limit=0) == []


def test_search_infeasible_parameters_raise():
    with pytest.raises(InfeasibleParametersError) as err:
        search_designs(4, 4, 2, 2, 1)
    assert "infeasible" in str(err.value)
    with pytest.raises(InfeasibleParametersError):
        search_designs(6, 4, 2, 2, 1)  # b*k = 8 != r*v = 12


def test_search_k_zero_gives_empty_design():
    found = search_designs(2, 3, 0, 0, 0)
    assert len(found) == 1
    assert found[0].chi.tolist() == [[0, 0, 0], [0, 0, 0]]


def test_search_refuses_oversized_candidate_set_at_once():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="limit of 1000000 incidence cells for v=23, k=11"):
        search_designs(23, 23, 11, 11, 5, limit=1)
    assert time.perf_counter() - start < 0.1
    with pytest.raises(InfeasibleParametersError):
        search_designs(23, 23, 11, 11, 6)  # infeasible still comes first


def test_search_block_guard_is_exact(monkeypatch):
    import designkit.classical as classical

    monkeypatch.setattr(classical, "_SEARCH_MAX_BLOCKS", 6)
    assert len(search_designs(2, 6, 1, 3, 0, limit=1)) == 1
    with pytest.raises(ValueError, match="^b = 8 exceeds the limit of 6 blocks$"):
        search_designs(2, 8, 1, 4, 0, limit=1)
    with pytest.raises(InfeasibleParametersError):
        search_designs(2, 8, 1, 3, 0)  # infeasible still comes first
    # With k = 0 nothing is placed, so the one all-zero design still comes back.
    assert search_designs(2, 8, 0, 0, 0)[0].chi.tolist() == [[0] * 8, [0] * 8]


def test_search_at_the_block_bound_stays_under_the_recursion_limit():
    # One frame of the inner recursion per block placed.
    found = search_designs(2, 512, 1, 256, 0, limit=1)
    assert found[0].chi.tolist() == [[1] * 256 + [0] * 256, [0] * 256 + [1] * 256]


def test_search_validates_ranges():
    with pytest.raises(ValueError):
        search_designs(3, 3, 4, 4, 1)
    with pytest.raises(ValueError):
        search_designs(0, 3, 1, 1, 1)


def test_designs_isomorphic_accepts_row_permutation():
    d = fano()
    rows = d.chi.tolist()
    shuffled = ClassicalDesign.from_rows([rows[i] for i in (3, 0, 6, 2, 5, 1, 4)])
    assert designs_isomorphic(d, shuffled)


def test_designs_isomorphic_rejects_different_designs():
    a = ClassicalDesign.from_rows([[1, 0], [0, 1]])
    b = ClassicalDesign.from_rows([[1, 1], [0, 0]])
    assert not designs_isomorphic(a, b)
    assert not designs_isomorphic(a, gen_complete(3, 2))  # shape mismatch


def test_designs_isomorphic_size_guard():
    big = ClassicalDesign.from_rows([[1] * 9] * 9)
    with pytest.raises(ValueError):
        designs_isomorphic(big, big)


def test_designs_isomorphic_takes_more_than_eight_blocks():
    found = search_designs(6, 10, 3, 5, 2)  # b = 10; only v drives the cost
    assert len(found) == 12
    assert all(designs_isomorphic(design, found[0]) for design in found)
    rows = found[0].chi.tolist()
    rows[0][0] = 1 - rows[0][0]
    assert not designs_isomorphic(ClassicalDesign.from_rows(rows), found[0])
