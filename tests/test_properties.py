"""Randomized invariants, seeded for reproducibility.

Each suite draws at least 200 cases from a small parameter pool and checks a
law that must hold exactly (integer identities) or within tolerance (float
identities, round trips).
"""

import ast
import bisect
import itertools
import math
import operator
import sys
from pathlib import Path

import numpy as np
import pytest

from designkit import linalg
from designkit.catalog import dumps, loads
from designkit.classical import (
    ClassicalDesign,
    DesignParams,
    HomCheck,
    HomPair,
    IdentityCheck,
    InfeasibleParametersError,
    _lex_bound,
    _search_feasible,
    check_identities,
    classify,
    compose_hom,
    dual,
    gen_complete,
    gen_projective_plane,
    search_designs,
    tensor,
    to_block,
    verify_hom,
)
from designkit.cpmaps import Algebra, CpMap, functor_q
from designkit.linalg import (
    DEFAULT_TOL,
    ComplexMatrix,
    NatMatrix,
    Tolerance,
    kron,
    mat_mul,
    transpose,
)
from designkit.quantum import (
    QuantumDesign,
    QuantumParams,
    classify_quantum,
    mub_generate,
    mub_verify,
    tensor_q,
    validate,
)

N_CASES = 200


def _classical_pool():
    pool = [gen_projective_plane(2), gen_projective_plane(3)]
    for v in range(3, 7):
        for k in range(1, v):
            pool.append(gen_complete(v, k))
    return pool


def _random_unitary(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r))).conj()


def _random_projector(rng, u, rank):
    cols = rng.choice(u.shape[0], size=rank, replace=False)
    vs = u[:, cols]
    return ComplexMatrix(vs @ vs.conj().T)


def test_counting_identities_hold_on_generated_designs_and_their_closures():
    rng = np.random.default_rng(2024)
    pool = _classical_pool()
    for _ in range(N_CASES):
        design = pool[rng.integers(len(pool))]
        op = rng.integers(3)
        if op == 1:
            design = dual(design)
        elif op == 2:
            design = tensor(design, pool[rng.integers(len(pool))])
        params = classify(design)
        assert params.k is not None and params.r is not None
        for check in check_identities(design.v, design.b, params.k, params.r, params.lam):
            assert check.passed, (check.name, check.lhs, check.rhs)
            assert check.lhs == check.rhs  # exact integers


def test_quantum_identities_hold_on_diagonal_images_of_block_designs():
    rng = np.random.default_rng(7)
    pool = [d for d in _classical_pool() if classify(d).lam is not None]
    for _ in range(N_CASES):
        design = pool[rng.integers(len(pool))]
        q = functor_q(design)
        if rng.integers(4) == 0:
            u = _random_unitary(rng, q.b)
            q = QuantumDesign(projectors=tuple(
                ComplexMatrix(u @ p.a @ u.conj().T) for p in q.projectors
            ))
        assert validate(q).ok
        params = classify_quantum(q)
        src = classify(design)
        assert params.r == src.r
        assert params.k is not None and DEFAULT_TOL.close(params.k, float(src.k))
        assert params.degree == 1
        for check in check_identities(q.v, q.b, params.k, float(params.r), params.lam,
                                      DEFAULT_TOL.close):
            assert check.passed, (check.name, check.lhs, check.rhs)


def test_tensor_multiplies_uniformity_and_regularity():
    rng = np.random.default_rng(99)
    pool = _classical_pool()
    quantum_pool = [
        mub_verify(mub_generate(2, 2)).design,
        mub_verify(mub_generate(3, 2)).design,
        functor_q(gen_complete(3, 2)),
        functor_q(gen_complete(4, 2)),
    ]
    for i in range(N_CASES):
        if i % 2 == 0:
            a = pool[rng.integers(len(pool))]
            b = pool[rng.integers(len(pool))]
            pa, pb, pt = classify(a), classify(b), classify(tensor(a, b))
            assert pt.k == pa.k * pb.k
            assert pt.r == pa.r * pb.r
        else:
            a = quantum_pool[rng.integers(len(quantum_pool))]
            b = quantum_pool[rng.integers(len(quantum_pool))]
            pa, pb = classify_quantum(a), classify_quantum(b)
            pt = classify_quantum(tensor_q(a, b))
            assert pt.r == pa.r * pb.r
            assert DEFAULT_TOL.close(pt.k, pa.k * pb.k)


def test_pairwise_traces_of_random_projector_families_are_real_nonnegative():
    rng = np.random.default_rng(513)
    for _ in range(N_CASES):
        d = int(rng.integers(2, 7))
        rank = int(rng.integers(1, d + 1))
        v = int(rng.integers(2, 5))
        shared = _random_unitary(rng, d)
        projectors = []
        for _ in range(v):
            u = shared if rng.integers(2) == 0 else _random_unitary(rng, d)
            projectors.append(_random_projector(rng, u, rank))
        family = QuantumDesign(projectors=tuple(projectors))
        assert validate(family).ok
        stack = np.stack([p.a for p in family.projectors])
        gram = np.einsum("aij,bji->ab", stack, stack)
        assert np.max(np.abs(gram.imag)) < 1e-9
        assert gram.real.min() > -1e-9
        params = classify_quantum(family)  # must not raise: traces are real
        assert params.r == rank  # equal-rank family always classifies r


def _subset_index(v, k):
    subsets = list(itertools.combinations(range(v), k))
    return subsets, {s: i for i, s in enumerate(subsets)}


def _permutation_hom(perm, subsets, index):
    f_b = tuple(index[tuple(sorted(perm[x] for x in s))] for s in subsets)
    return HomPair(f_v=tuple(perm), f_b=f_b)


def test_permutation_homs_of_complete_designs_compose_and_verify():
    rng = np.random.default_rng(31337)
    for _ in range(N_CASES):
        v = int(rng.integers(4, 7))
        k = int(rng.integers(2, 4))
        design = gen_complete(v, k)
        subsets, index = _subset_index(v, k)
        p1 = [int(x) for x in rng.permutation(v)]
        p2 = [int(x) for x in rng.permutation(v)]
        h1 = _permutation_hom(p1, subsets, index)
        h2 = _permutation_hom(p2, subsets, index)
        assert verify_hom(design, design, h1).ok
        assert verify_hom(design, design, h2).ok
        composed = compose_hom(h1, h2)
        expected = _permutation_hom([p2[p1[x]] for x in range(v)], subsets, index)
        assert composed == expected
        assert verify_hom(design, design, composed).ok
        identity = _permutation_hom(list(range(v)), subsets, index)
        assert compose_hom(identity, h1) == h1
        assert compose_hom(h1, identity) == h1


def test_file_round_trips_are_byte_identical_for_random_documents():
    rng = np.random.default_rng(777)
    for _ in range(N_CASES):
        kind = rng.integers(3)
        if kind == 0:
            v = int(rng.integers(1, 6))
            b = int(rng.integers(1, 6))
            obj = ClassicalDesign(NatMatrix(rng.integers(0, 4, size=(v, b))))
        elif kind == 1:
            d = int(rng.integers(2, 5))
            u = _random_unitary(rng, d)
            obj = QuantumDesign(projectors=tuple(
                _random_projector(rng, u, int(rng.integers(1, d + 1)))
                for _ in range(int(rng.integers(1, 4)))
            ))
        else:
            algs = [Algebra.commutative(int(rng.integers(1, 4))),
                    Algebra.matrix(int(rng.integers(1, 4)))]
            in_alg = algs[rng.integers(2)]
            out_alg = algs[rng.integers(2)]
            m = rng.normal(size=(out_alg.coord_dim, in_alg.coord_dim))
            obj = CpMap(in_alg, out_alg, ComplexMatrix(m + 1j * rng.normal(size=m.shape)))
        text = dumps(obj)
        back = loads(text)
        assert dumps(back) == text
        if isinstance(obj, ClassicalDesign):
            assert back.chi == obj.chi
        elif isinstance(obj, QuantumDesign):
            for p, q in zip(obj.projectors, back.projectors):
                assert np.array_equal(p.a, q.a)
        else:
            assert np.array_equal(back.m.a, obj.m.a)


# Reference implementations on object arrays of Python ints, kept from before
# NatMatrix stored bounded entries as int64.


def _objects(m):
    return np.array(m.tolist(), dtype=object)


def oracle_classify(design):
    """classify with an object-dtype Gram product and a scan of its entries."""
    chi = _objects(design.chi)
    col = [int(s) for s in chi.sum(axis=0)]
    k = col[0] if all(s == col[0] for s in col) else None
    row = [int(s) for s in chi.sum(axis=1)]
    r = row[0] if all(s == row[0] for s in row) else None
    lam = None
    if k is not None and r is not None and design.v >= 2:
        g = chi @ chi.T
        if all(int(g[i, i]) == r for i in range(design.v)):
            off = [int(g[i, j]) for i in range(design.v) for j in range(design.v) if i != j]
            if all(x == off[0] for x in off):
                lam = off[0]
    return DesignParams(k=k, r=r, lam=lam, symmetric=design.v == design.b)


def oracle_verify_hom(src, dst, hom):
    """verify_hom as a loop over target points and source blocks, for in-range maps."""
    chi_s = src.chi.tolist()
    chi_d = dst.chi.tolist()
    for i in range(dst.v):
        for j in range(src.b):
            lhs = sum(chi_s[a][j] for a in range(src.v) if hom.f_v[a] == i)
            rhs = chi_d[i][hom.f_b[j]]
            if lhs != rhs:
                return HomCheck(ok=False, cell=(i, j), lhs=lhs, rhs=rhs)
    return HomCheck(ok=True)


def assert_nat_storage(m):
    """int64 when every entry is below 2**63, else Python ints; tolist gives Python ints."""
    listed = [x for row in m.tolist() for x in row]
    assert {type(x) for x in listed} == {int}
    if max(listed) < 2**63:
        assert m.a.dtype == np.int64
    else:
        assert m.a.dtype == object and {type(x) for x in m.a.flat} == {int}


def _assert_same(got, want_objects):
    assert_nat_storage(got)
    assert got.tolist() == want_objects.tolist()


def test_exact_arithmetic_on_both_sides_of_the_int64_and_float64_bounds(monkeypatch):
    float_products = []
    real = linalg._float64_matmul
    monkeypatch.setattr(linalg, "_float64_matmul",
                        lambda x, y: float_products.append(x.shape) or real(x, y))
    top = 2**63 - 1

    # Construction: int64 up to 2**63 - 1, Python ints from 2**63 on, whatever the input type.
    for entries, dtype in (
        ([[top, 0]], np.int64), ([[2**63, 0]], object), ([[np.uint64(2**64 - 1), 1]], object),
        ([[2**70, True, 3.0, np.int64(4)]], object), ([[top, True, 3.0, np.int64(4)]], np.int64),
        (np.array([[top, 1]], dtype=np.uint64), np.int64),
        (np.array([[2**64 - 1, 1]], dtype=np.uint64), object),
    ):
        m = NatMatrix(entries)
        assert m.a.dtype == dtype
        assert_nat_storage(m)
        assert m.tolist() == [[int(x) for x in row] for row in entries]
        assert transpose(m).a.dtype == dtype
        assert transpose(m).tolist() == _objects(m).T.tolist()

    # Sums: int64 while max * count < 2**63; past it int64 would wrap to a negative.
    for row, total in (([2**62 - 1, 2**62 - 1], 2**63 - 2), ([2**62, 2**62], 2**63),
                       ([2**70, 1], 2**70 + 1)):
        m = NatMatrix([row])
        assert m.row_sums() == [total] == _objects(m).sum(axis=1).tolist()
        assert m.col_sums() == row
        assert {type(x) for x in m.row_sums() + m.col_sums()} == {int}

    # Products: float64 BLAS while max|A| max|B| inner < 2**53, else Python ints.
    # [[2**27, 1]] @ [[2**26], [1]] = 2**53 + 1, which binary64 rounds to 2**53.
    cases = [
        ([[2**26 - 1, 1]], [[2**26], [1]], True),  # bound 2**53 - 2**27
        ([[2**53 - 1]], [[1]], True),  # bound 2**53 - 1
        ([[2**53]], [[1]], False),  # bound 2**53
        ([[2**27, 1]], [[2**26], [1]], False),  # bound 2**54
        ([[2**31]], [[2**32 - 1]], False),  # product 2**63 - 2**31: stored int64
        ([[2**31]], [[2**32]], False),  # product 2**63: stored as a Python int
        ([[2**70, 1]], [[0], [5]], False),
        ([[2**62 + 1, 7]], [[0], [0]], True),  # a zero factor: bound 0
    ]
    for a, b, on_blas in cases:
        x, y = NatMatrix(a), NatMatrix(b)
        float_products.clear()
        _assert_same(mat_mul(x, y), _objects(x) @ _objects(y))
        assert bool(float_products) == on_blas, (a, b)

    # Kronecker products: int64 while max|A| max|B| < 2**63.
    for a, b in (([[2**31, 1]], [[2**32 - 1], [2]]), ([[2**31, 1]], [[2**32], [2]]),
                 ([[2**70]], [[0, 1]]), ([[2**70]], [[0, 0]])):
        x, y = NatMatrix(a), NatMatrix(b)
        _assert_same(kron(x, y), np.kron(_objects(x), _objects(y)))
        got = tensor(ClassicalDesign(x), ClassicalDesign(y)).chi
        assert got == kron(x, y)
    assert kron(NatMatrix([[2**31]]), NatMatrix([[2**32 - 1]])).a.dtype == np.int64
    assert kron(NatMatrix([[2**31]]), NatMatrix([[2**32]])).a.dtype == object

    # classify and verify_hom at the same boundaries, on both product paths.
    big = 2**62
    designs = [
        ClassicalDesign(NatMatrix([[big, big], [big, big]])),  # sums reach 2**63
        ClassicalDesign(NatMatrix([[big - 1, 0], [0, big - 1]])),
        ClassicalDesign(NatMatrix([[2**26, 2**26], [2**26, 2**26]])),  # Gram bound 2**53
        ClassicalDesign(NatMatrix([[2**26 - 1] * 2] * 2)),  # Gram bound just below
        ClassicalDesign(NatMatrix([[2**70, 1]])),
    ]
    float_products.clear()
    for design in designs:
        assert classify(design) == oracle_classify(design)
        merge = HomPair(f_v=(0,) * design.v, f_b=tuple(range(design.b)))
        target = ClassicalDesign(NatMatrix([design.chi.col_sums()]))
        for dst in (target, to_block(target)):
            got = verify_hom(design, dst, merge)
            assert got == oracle_verify_hom(design, dst, merge)
            assert {type(x) for x in (got.lhs, got.rhs)} <= {int, type(None)}
    assert float_products  # the 2**26 - 1 designs stay below 2**53


def _random_chi(rng):
    v, b = int(rng.integers(1, 7)), int(rng.integers(1, 7))
    kind = rng.integers(4)
    if kind == 0:
        return rng.integers(0, 2, size=(v, b))
    if kind == 1:  # multiplicities
        return rng.integers(0, 4, size=(v, b))
    if kind == 2:  # entries near 2**62, so that sums and products leave int64
        return rng.integers(0, 2, size=(v, b)) * (2**62 - int(rng.integers(2)))
    design = _classical_pool()[int(rng.integers(len(_classical_pool())))]
    return design.chi.a[rng.permutation(design.v)][:, rng.permutation(design.b)]


def test_vectorised_classify_and_verify_hom_match_the_loop_oracles():
    rng = np.random.default_rng(2718)
    seen = {"lam": 0, "no-lam": 0, "v=1": 0, "hom-ok": 0, "hom-fail": 0, "merged-fail": 0,
            "many-fail": 0}
    for _ in range(N_CASES):
        src = ClassicalDesign(NatMatrix(_random_chi(rng)))
        params = classify(src)
        assert params == oracle_classify(src)
        assert {type(x) for x in (params.k, params.r, params.lam)} <= {int, type(None)}
        seen["lam" if params.lam is not None else "no-lam"] += 1
        seen["v=1"] += src.v == 1

        # A point map that may merge points, a block permutation, and the
        # target that makes the square commute; then one cell of it changed.
        dst_v = int(rng.integers(1, src.v + 1))
        f_v = tuple(int(x) for x in rng.integers(0, dst_v, size=src.v))
        f_b = tuple(int(x) for x in rng.permutation(src.b))
        moved = np.zeros((dst_v, src.v), dtype=object)
        moved[list(f_v), range(src.v)] = 1
        image = moved @ _objects(src.chi)
        target = np.empty_like(image)
        target[:, list(f_b)] = image
        hom = HomPair(f_v=f_v, f_b=f_b)
        dst = ClassicalDesign(NatMatrix(target.tolist()))
        assert verify_hom(src, dst, hom) == oracle_verify_hom(src, dst, hom) == HomCheck(ok=True)
        seen["hom-ok"] += 1
        for _ in range(int(rng.integers(1, 4))):
            i, j = int(rng.integers(dst_v)), int(rng.integers(src.b))
            target[i, j] += int(rng.integers(1, 3))
        dst = ClassicalDesign(NatMatrix(target.tolist()))
        got = verify_hom(src, dst, hom)
        assert got == oracle_verify_hom(src, dst, hom) and not got.ok
        seen["hom-fail"] += 1
        seen["merged-fail"] += len(set(f_v)) < src.v
        # Against an unrelated target, usually with many failing cells.
        dst = ClassicalDesign(NatMatrix(_random_chi(rng)))
        hom = HomPair(f_v=tuple(int(x) for x in rng.integers(0, dst.v, size=src.v)),
                      f_b=tuple(int(x) for x in rng.integers(0, dst.b, size=src.b)))
        got = verify_hom(src, dst, hom)
        assert got == oracle_verify_hom(src, dst, hom)
        seen["many-fail"] += not got.ok and len(set(hom.f_v)) < src.v and src.b > 1
    assert all(count >= 10 for count in seen.values()), seen


def dense_verify_hom(src, dst, hom):
    """verify_hom as it was before it scattered by index: a dense dst.v x src.v
    selector times chi, for in-range maps."""
    moved = np.zeros((dst.v, src.v), dtype=np.int64)
    moved[list(hom.f_v), np.arange(src.v)] = 1
    lhs = mat_mul(NatMatrix._raw(moved), src.chi).a
    rhs = dst.chi.a[:, list(hom.f_b)]
    bad = lhs != rhs
    if not bad.any():
        return HomCheck(ok=True)
    i, j = divmod(int(bad.argmax()), src.b)
    return HomCheck(ok=False, cell=(i, j), lhs=int(lhs[i, j]), rhs=int(rhs[i, j]))


HUGE_ENTRIES = (0, 1, 2**62 - 1, 2**62, 2**63 - 1, 2**63, 2**64 + 3, 10**30)


def _moved_target(chi, f_v, f_b, dst_v):
    # The target that makes the square commute: sums of chi's rows, as Python ints.
    target = np.zeros((dst_v, chi.shape[1]), dtype=object)
    for a, i in enumerate(f_v):
        target[i] += chi[a]
    out = np.empty_like(target)
    out[:, list(f_b)] = target
    return out


def test_verify_hom_by_index_matches_the_dense_selector_oracle():
    rng = np.random.default_rng(1729)
    seen = {"relabel": 0, "swap-fail": 0, "merge-ok": 0, "merge-fail": 0, "int64": 0,
            "object": 0, "sum-past-2^63": 0}
    for trial in range(N_CASES):
        if trial % 3 == 2:  # entries on both sides of 2**63
            shape = (int(rng.integers(1, 6)), int(rng.integers(1, 6)))
            rows = np.array(HUGE_ENTRIES, dtype=object)[rng.integers(len(HUGE_ENTRIES), size=shape)]
        else:
            rows = _random_chi(rng)
        src = ClassicalDesign(NatMatrix(rows.tolist()))
        v, b, chi = src.v, src.b, _objects(src.chi)
        seen["int64" if int(chi.max()) * v < 2**63 else "object"] += 1

        # A relabelling, then the same target with two point images swapped.
        f_v, f_b = rng.permutation(v).tolist(), rng.permutation(b).tolist()
        dst = ClassicalDesign(NatMatrix(_moved_target(chi, f_v, f_b, v).tolist()))
        cases = [(dst, HomPair(f_v=tuple(f_v), f_b=tuple(f_b)), "relabel", True)]
        if v >= 2:
            x, y = rng.choice(v, size=2, replace=False).tolist()
            f_v[x], f_v[y] = f_v[y], f_v[x]
            cases.append((dst, HomPair(f_v=tuple(f_v), f_b=tuple(f_b)), "swap-fail", None))
        # A point map that merges points, which makes non-0/1 sums; then one cell off.
        dst_v = int(rng.integers(1, v + 1))
        f_v, f_b = rng.integers(0, dst_v, size=v).tolist(), rng.permutation(b).tolist()
        hom = HomPair(f_v=tuple(f_v), f_b=tuple(f_b))
        target = _moved_target(chi, f_v, f_b, dst_v)
        seen["sum-past-2^63"] += int(target.max()) >= 2**63 > int(chi.max())
        cases.append((ClassicalDesign(NatMatrix(target.tolist())), hom, "merge-ok", True))
        target[int(rng.integers(dst_v)), int(rng.integers(b))] += 2**63
        cases.append((ClassicalDesign(NatMatrix(target.tolist())), hom, "merge-fail", False))
        for dst, hom, tag, want in cases:
            got = verify_hom(src, dst, hom)
            assert got == dense_verify_hom(src, dst, hom) == oracle_verify_hom(src, dst, hom)
            assert {type(x) for x in (got.lhs, got.rhs)} <= {int, type(None)}
            assert want is None or got.ok == want
            seen[tag] += got.ok != tag.endswith("fail")
    assert all(count >= 10 for count in seen.values()), seen


def test_classify_reads_balance_of_tall_designs_without_the_gram_matrix():
    # With b < v, classify decides balance from the rows alone; the oracle
    # still reads the v x v Gram matrix.
    rng = np.random.default_rng(16180)
    seen = {"equal 0/1 rows": 0, "equal rows with a 2": 0, "one cell flipped": 0,
            "stacked identities": 0, "lam": 0, "no-lam, k and r present": 0}
    for _ in range(5 * N_CASES):
        b = int(rng.integers(1, 6))
        v = int(rng.integers(b + 1, 10))
        kind = list(seen)[int(rng.integers(4))]
        chi = np.tile(rng.integers(0, 2, size=b), (v, 1))
        if kind == "equal rows with a 2":
            chi[:, rng.integers(b)] = 2
        elif kind == "one cell flipped":
            chi[rng.integers(v), rng.integers(b)] ^= 1
        elif kind == "stacked identities":  # regular and uniform, rows unequal for b >= 2
            chi = np.eye(b, dtype=np.int64)[rng.integers(0, b, size=v)]
        design = ClassicalDesign(NatMatrix(chi))
        params = classify(design)
        assert params == oracle_classify(design), chi.tolist()
        seen[kind] += 1
        seen["lam"] += params.lam is not None
        seen["no-lam, k and r present"] += (params.lam is None and params.k is not None
                                            and params.r is not None)
    assert all(count >= 10 for count in seen.values()), seen


# The depth-first search with the row bound alone, kept from before
# search_designs cut subtrees by its pair and lex-order bounds.


def search_oracle(v, b, k, r, lam, limit=None, canonical_only=True):
    """search_designs without its pair and lex-order bounds, for feasible parameters."""
    if limit is not None and limit <= 0:
        return []
    subsets = list(itertools.combinations(range(v), k))
    pair_idx = [[(s[i], s[j]) for i in range(k) for j in range(i + 1, k)] for s in subsets]
    row_cnt = [0] * v
    pair_cnt = [[0] * v for _ in range(v)]
    chosen = []
    found = []

    def fits(ci):
        for p in subsets[ci]:
            if row_cnt[p] >= r:
                return False
        for (x, y) in pair_idx[ci]:
            if pair_cnt[x][y] >= lam:
                return False
        return True

    def place(ci, sign):
        for p in subsets[ci]:
            row_cnt[p] += sign
        for (x, y) in pair_idx[ci]:
            pair_cnt[x][y] += sign

    def emit():
        for i in range(v):
            for j in range(i + 1, v):
                if pair_cnt[i][j] != lam:
                    return
        chi = [[0] * b for _ in range(v)]
        for j, ci in enumerate(chosen):
            for p in subsets[ci]:
                chi[p][j] = 1
        found.append(ClassicalDesign(NatMatrix(chi)))

    def rec(depth, start):
        if depth == b:
            emit()
            return limit is not None and len(found) >= limit
        remaining = b - depth
        deficit = max(r - c for c in row_cnt)
        if deficit > remaining:
            return False
        lo = start if canonical_only else 0
        for ci in range(lo, len(subsets)):
            if fits(ci):
                place(ci, +1)
                chosen.append(ci)
                stop = rec(depth + 1, ci)
                chosen.pop()
                place(ci, -1)
                if stop:
                    return True
        return False

    if k == 0:
        found.append(ClassicalDesign(NatMatrix([[0] * b for _ in range(v)])))
        return found
    rec(0, 0)
    return found


def _column_indices(designs, v, k):
    """Each design as its sequence of indices into the lex-ordered k-subsets."""
    index = {s: i for i, s in enumerate(itertools.combinations(range(v), k))}
    return [tuple(index[tuple(np.flatnonzero(col))] for col in design.chi.a.T)
            for design in designs]


WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
LIMITS = (1, 5, 20, None)


def _benchmark_searches():
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SEARCHES" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/workloads.py defines no SEARCHES")


def _search_cases():
    """(parameters, canonical_only) -> the limits to compare at."""
    cases = {}
    for v, b, k, r, lam, limit, _found in _benchmark_searches():
        cases.setdefault(((v, b, k, r, lam), True), set()).add(limit)
    # The last five sit at the edges of the proof that a point's row needs no
    # bound: k = 1 with no pairs, v = 1, k = v with repeated blocks, repeated pairs.
    for params in ((3, 3, 2, 2, 1), (4, 6, 2, 3, 1), (5, 10, 2, 4, 1), (4, 4, 3, 3, 2),
                   (9, 12, 3, 4, 1), (4, 8, 1, 2, 0), (2, 2, 1, 1, 0), (1, 3, 1, 3, 0),
                   (3, 4, 3, 4, 4), (3, 6, 2, 4, 2)):
        for canonical in (True, False) if params[1] <= 6 else (True,):
            cases.setdefault((params, canonical), set()).update(LIMITS)
    cases[((7, 14, 3, 6, 2), True)].add(100)
    cases[((6, 10, 3, 5, 2), True)].update((1, 5, None))
    return cases.items()


# The exhaustive oracle search at (9,12,3,4,1) takes minutes, so there it
# runs to 20 designs only.  Its exhaustive output would be every canonical
# design in lex order of column indices, and there are 840 of them: AG(2,3)
# is the only 2-(9,3,1) design, it has 9!/|AGL(2,3)| = 362880/432
# labellings, and lambda = 1 repeats no block.  So 840 distinct designs in
# increasing order are exactly that output.
ORACLE_STOP = {(9, 12, 3, 4, 1): (20, 840)}  # params -> (oracle limit, exhaustive count)


@pytest.mark.parametrize("params, canonical, limits", [
    pytest.param(p, c, sorted(lims, key=lambda n: math.inf if n is None else n),
                 id=",".join(map(str, p)) + ("-canonical" if c else "-all"))
    for (p, c), lims in _search_cases()
])
def test_pruned_search_returns_the_oracle_designs_in_the_oracle_order(params, canonical, limits):
    v, b, k, r, lam = params
    # Stopping at a limit only truncates the depth-first order, so one oracle
    # run to the largest limit gives the first n for every smaller n too.
    oracle_limit, exhaustive_count = ORACLE_STOP.get(params, (limits[-1], None))
    want = _column_indices(
        search_oracle(*params, limit=oracle_limit, canonical_only=canonical), v, k)
    for limit in limits:
        found = search_designs(*params, limit=limit, canonical_only=canonical)
        got = _column_indices(found, v, k)
        if limit is None and exhaustive_count is not None:
            assert got[:len(want)] == want
            assert len(got) == exhaustive_count
            assert all(x < y for x, y in zip(got, got[1:]))
            assert all(list(seq) == sorted(seq) for seq in got)
            assert all((p.k, p.r, p.lam) == (k, r, lam) for p in map(classify, found))
        else:
            assert got == want[:limit], (limit, len(got), len(want))


def _nodes(search, *args, **kwargs):
    """Calls of the search's inner ``rec``, one per node visited."""
    rec = next(c for c in search.__code__.co_consts if getattr(c, "co_name", None) == "rec")
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        count += event == "call" and frame.f_code is rec

    sys.setprofile(profile)
    try:
        search(*args, **kwargs)
    finally:
        sys.setprofile(None)
    return count


# Nodes that search_designs visited when its bounds were written; the oracle
# visits 5596, 43488, 258485 and 1400889 on the first four searches.  The rest
# were counted before the search dropped its row bound, which never cut.  A
# bound that stops cutting leaves the designs unchanged, so only this count
# shows it.
NODE_BUDGET = {
    ((7, 7, 3, 3, 1), None, True): 156,
    ((6, 10, 3, 5, 2), None, True): 212,
    ((7, 14, 3, 6, 2), 30, True): 419,
    ((7, 14, 3, 6, 2), 100, True): 1441,
    ((9, 12, 3, 4, 1), 1, True): 25,
    ((13, 13, 4, 4, 1), 1, True): 14,
    ((15, 35, 3, 7, 1), 1, True): 36,
    ((16, 20, 4, 5, 1), 1, True): 1276,
    ((3, 3, 2, 2, 1), None, False): 16,
    ((4, 6, 2, 3, 1), None, False): 1957,
}


def test_pruned_search_visits_no_more_nodes_than_its_budget():
    assert _nodes(search_oracle, 7, 7, 3, 3, 1) == 5596  # the counter counts nodes
    for (params, limit, canonical), budget in NODE_BUDGET.items():
        nodes = _nodes(search_designs, *params, limit=limit, canonical_only=canonical)
        assert nodes <= budget, (params, limit, canonical)


# The lex bound's table as search_designs built it before it ranked each Gram
# cell's last subset: one bitmask per k-subset, then suffix unions.


def lex_missing_oracle(v, k):
    """(covered, missing): missing[i] holds the cells no subset at index i or later covers."""
    cells = []
    for s in itertools.combinations(range(v), k):
        points = 0
        for p in s:
            points |= 1 << p
        mask = 0
        for p in s:
            mask |= (points >> p << p) << (p * v)  # cells (p, y) for y >= p in s
        cells.append(mask)
    suffix = list(itertools.accumulate(reversed(cells), operator.or_))[::-1]
    return suffix[0], [suffix[0] ^ m for m in suffix]


def test_lex_cut_matches_the_bitmask_oracle():
    rng = np.random.default_rng(20261018)
    cases = 0
    for v in range(1, 11):
        for k in range(1, v + 1):
            covered, missing = lex_missing_oracle(v, k)
            got_covered, cut = _lex_bound(v, k)
            assert got_covered == covered, (v, k)
            bits = [i for i in range(v * v) if covered >> i & 1]
            for density in (0.0, 0.05, 0.3, 1.0):
                need = sum(1 << i for i in bits if rng.random() < density)
                for start in range(len(missing)):
                    want = bisect.bisect_left(missing, True, lo=start,
                                              key=lambda m: bool(need & m))
                    assert cut(need, start) == want, (v, k, need, start)
                    cases += 1
    assert cases >= N_CASES


def check_identities_oracle(v, b, params):
    """The classical counting identities as first written: exact integers."""
    if params.k is None or params.r is None:
        raise ValueError("check_identities needs both k and r classified")
    out = [
        IdentityCheck(
            name="b*k = r*v",
            lhs=b * params.k,
            rhs=params.r * v,
            passed=b * params.k == params.r * v,
        )
    ]
    if params.lam is not None:
        lhs = params.lam * (v - 1)
        rhs = params.r * (params.k - 1)
        out.append(
            IdentityCheck(name="lambda*(v-1) = r*(k-1)", lhs=lhs, rhs=rhs, passed=lhs == rhs)
        )
    return out


def check_identities_q_oracle(v, b, params, tol=DEFAULT_TOL):
    """The quantum counting identities as first written, compared with tolerance."""
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


def search_feasible_oracle(v, b, k, r, lam):
    """The search precheck as first written."""
    if v < 1 or b < 1 or k < 0 or r < 0 or lam < 0:
        raise ValueError("parameters must satisfy v, b >= 1 and k, r, lambda >= 0")
    if k > v:
        raise ValueError(f"block size k={k} exceeds point count v={v}")
    if b * k != r * v:
        raise InfeasibleParametersError(
            f"infeasible: b*k = {b * k} differs from r*v = {r * v}"
        )
    if v >= 2 and lam * (v - 1) != r * (k - 1):
        raise InfeasibleParametersError(
            f"infeasible: lambda*(v-1) = {lam * (v - 1)} differs from "
            f"r*(k-1) = {r * (k - 1)}"
        )


def _outcome(call, *args):
    """(name, lhs, type, rhs, type, passed) per check, or the exception's type and text."""
    try:
        got = call(*args)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    if got is None:
        return None
    return [(c.name, c.lhs, type(c.lhs), c.rhs, type(c.rhs), c.passed) for c in got]


EDGES = [0, 1, 2, 2**63 + 1, 10**400]


def _draw(rng, low=0):
    if rng.integers(3) == 0:
        return EDGES[rng.integers(low, len(EDGES))]
    return int(rng.integers(low, 12))


def _consistent(rng):
    """(v, b, k, r, lam) with b*k = r*v, and with both identities at v = 2."""
    k, t = _draw(rng), _draw(rng)
    v = 2 if rng.integers(2) else _draw(rng, low=1)
    return v, v * t, k, k * t, k * t * (k - 1) if v == 2 else _draw(rng)


def test_one_check_identities_matches_the_classical_and_search_oracles():
    rng = np.random.default_rng(131313)
    seen = set()
    for case in range(4 * N_CASES):
        if case % 2:
            v, b, k, r, lam = _consistent(rng)
        else:
            v, b, k, r, lam = _draw(rng, low=1), _draw(rng, low=1), _draw(rng), _draw(rng), _draw(rng)
        if case < 8:  # v = 1 and k = 0 come first, whatever the draws
            v, k = (1, k) if case < 4 else (v, 0)
        for given in (lam, None):
            params = DesignParams(k=k, r=r, lam=given, symmetric=v == b)
            want = _outcome(check_identities_oracle, v, b, params)
            assert _outcome(check_identities, v, b, k, r, given) == want, (v, b, k, r, given)
            assert all(row[2] is int and row[4] is int for row in want)
            seen.update(row[5] for row in want)
        want = _outcome(search_feasible_oracle, v, b, k, r, lam)
        assert _outcome(_search_feasible, v, b, k, r, lam) == want, (v, b, k, r, lam)
        seen.add(want[0] if want else None)
    assert {True, False, None, InfeasibleParametersError, ValueError} <= seen
    for k, r in ((None, 1), (1, None)):
        params = DesignParams(k=k, r=r, lam=1, symmetric=True)
        assert _outcome(check_identities, 3, 3, k, r, 1) == _outcome(
            check_identities_oracle, 3, 3, params)


def test_one_check_identities_matches_the_quantum_oracle():
    # v and b count projectors and dimensions, so they stay small; r, k and the
    # trace values range up to the edges, where both sides overflow alike.
    rng = np.random.default_rng(424242)
    seen = set()
    for case in range(2 * N_CASES):
        v, b = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        r = _draw(rng)
        consistent = case % 2 and r < 2**63
        k = r * v / b if consistent else float(rng.integers(0, 12)) + rng.random()
        degree = int(rng.integers(3))
        lam_set = tuple(sorted(float(x) for x in rng.integers(0, 4, size=degree)))
        if consistent and degree == 1 and v > 1:
            lam_set = (r * (k - 1) / (v - 1),)
        tol = Tolerance(abs_eps=0.5, rel_eps=0.0) if case % 4 == 3 else DEFAULT_TOL
        params = QuantumParams(r=r, k=k, degree=degree, lam_set=lam_set, commutative=True)
        want = _outcome(check_identities_q_oracle, v, b, params, tol)
        got = _outcome(lambda: check_identities(v, b, params.k, float(params.r), params.lam,
                                                tol.close))
        assert got == want, (v, b, params, tol)
        if isinstance(want, list):
            assert all(row[2] is float and row[4] is float for row in want)
            seen.update(row[5] for row in want)
        else:
            seen.add(want[0])
    assert {True, False, OverflowError} <= seen
    params = QuantumParams(r=None, k=1.0, degree=1, lam_set=(0.0,), commutative=True)
    with pytest.raises(ValueError, match="needs both k and r classified"):
        check_identities_q_oracle(2, 2, params)
    with pytest.raises(ValueError, match="needs both k and r classified"):
        check_identities(2, 2, params.k, params.r, params.lam, DEFAULT_TOL.close)
