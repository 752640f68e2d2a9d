"""End-to-end acceptance gate.

Ten criteria, each printed as one pass/fail line (run with ``pytest -s``
to see them live).  Stated tolerances are asserted directly; stated time
limits are measured with ``time.perf_counter``.
"""

import contextlib
import json
import time

import numpy as np
import pytest

from designkit.catalog import catalog_text
from designkit.classical import (
    InfeasibleParametersError,
    check_identities,
    classify,
    designs_isomorphic,
    dual,
    gen_complete,
    gen_projective_plane,
    search_designs,
    tensor,
)
from designkit.cli import main
from designkit.cpmaps import (
    Algebra,
    CpMap,
    classical_to_cp,
    functor_q,
    is_cp,
    is_trace_preserving,
    quantum_design_to_cp,
    vec,
    verify_cp_design,
)
from designkit.linalg import ComplexMatrix, Tolerance
from designkit.quantum import (
    QuantumDesign,
    classify_quantum,
    mub_generate,
    mub_verify,
    to_classical,
    validate,
)


@contextlib.contextmanager
def criterion(number, description, limit_s=None):
    t0 = time.perf_counter()
    try:
        yield
    except AssertionError:
        print(f"criterion {number}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - t0
    if limit_s is not None:
        assert elapsed < limit_s, f"criterion {number}: took {elapsed:.3f}s, limit {limit_s}s"
    print(f"criterion {number}: PASS - {description} ({elapsed:.3f}s)")


def _sorted_columns(design):
    return sorted(zip(*design.chi.tolist()))


def test_criterion_1_fano_round_trip():
    with criterion(1, "projective plane of order 2 classifies as (7,7,3,3,1) "
                      "and both counting identities hold exactly", limit_s=1.0):
        fano = gen_projective_plane(2)
        params = classify(fano)
        assert (fano.v, fano.b) == (7, 7)
        assert (params.k, params.r, params.lam) == (3, 3, 1)
        assert params.symmetric
        checks = check_identities(fano.v, fano.b, params.k, params.r, params.lam)
        assert len(checks) == 2
        for chk in checks:
            assert chk.passed and chk.lhs == chk.rhs


def test_criterion_2_diagonal_functor_fidelity():
    with criterion(2, "diagonal-projector image of the Fano plane classifies as "
                      "r=3, k=3, degree 1, trace set {1}, commutative; identities "
                      "within 1e-9; conversion back recovers the incidence matrix "
                      "up to column permutation; all stable under a fixed unitary "
                      "conjugation", limit_s=1.0):
        tol = Tolerance(abs_eps=1e-9, rel_eps=1e-9)
        fano = gen_projective_plane(2)
        image = functor_q(fano)

        rng = np.random.default_rng(20240815)
        z = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
        q, r = np.linalg.qr(z)
        u = q * (np.diagonal(r) / np.abs(np.diagonal(r))).conj()
        conjugated = QuantumDesign(projectors=tuple(
            ComplexMatrix(u @ p.a @ u.conj().T) for p in image.projectors
        ))

        for family in (image, conjugated):
            assert validate(family, tol).ok
            params = classify_quantum(family, tol)
            assert params.r == 3
            assert abs(params.k - 3.0) <= 1e-9
            assert params.degree == 1
            assert abs(params.lam - 1.0) <= 1e-9
            assert params.commutative
            for chk in check_identities(family.v, family.b, params.k, float(params.r),
                                        params.lam, tol.close):
                assert chk.passed and abs(chk.lhs - chk.rhs) <= 1e-9
            recovered = to_classical(family, tol)
            assert _sorted_columns(recovered) == _sorted_columns(fano)


def test_criterion_3_bundled_4x4_map_readings(tmp_path, capsys):
    path = tmp_path / "cp.json"
    path.write_text(catalog_text("cp-k2r2"), encoding="utf-8")
    with criterion(3, "verify-cpmap on the bundled 4x4 matrix reports k=2 and r=2 "
                      "within 1e-12 in the superoperator reading; the lambda "
                      "residual is recorded in both readings and balance is not "
                      "claimed", limit_s=0.1):
        code = main(["verify-cpmap", str(path), "--json"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        sup = doc["parameters"]["superoperator_reading"]
        assert abs(sup["k"] - 2.0) <= 1e-12
        assert abs(sup["r"] - 2.0) <= 1e-12
        choi = doc["parameters"]["choi_reading"]
        for reading in (sup, choi):
            assert isinstance(reading["lambda_residual"], float)  # recorded
            assert reading["lambda_residual"] > 1e-9
            assert reading["lambda_balanced"] is False  # never claimed here


def test_criterion_4_mutually_unbiased_bases():
    with criterion(4, "MUB families (d=2,k=2) and (d=3,k=4) verify: trace law "
                      "within 1e-9, r=1, k = number of bases, trace set {0, 1/d}; "
                      "b*k = r*v holds", limit_s=1.0):
        for d, k in ((2, 2), (3, 4)):
            rep = mub_verify(mub_generate(d, k))
            assert rep.ok
            assert rep.orthonormal and rep.sum_ok
            assert rep.trace_failure_count == 0
            params = rep.params
            assert params.r == 1
            assert abs(params.k - k) <= 1e-9
            assert params.degree == (2 if k > 1 else 1)
            got = sorted(params.lam_set)
            want = [0.0, 1.0 / d]
            assert len(got) == 2
            assert all(abs(g - w) <= 1e-9 for g, w in zip(got, want))
            eq = check_identities(rep.design.v, rep.design.b, params.k, float(params.r),
                                  params.lam, Tolerance().close)[0]
            assert eq.name == "b*k = r*v" and eq.passed
            assert rep.classification_ok


def test_criterion_5_tensor_and_dual_structure():
    with criterion(5, "tensor(fano, fano) classifies with k=r=9 and no common "
                      "lambda; dual swaps (k, r) on the (4,6,2,3,1) fixture; "
                      "dual of dual is the identity; all integer-exact", limit_s=1.0):
        fano = gen_projective_plane(2)
        square = tensor(fano, fano)
        params = classify(square)
        assert (square.v, square.b) == (49, 49)
        assert params.k == 9 and params.r == 9
        assert params.lam is None  # not balanced: pair counts differ

        fixture = gen_complete(4, 2)
        fp = classify(fixture)
        assert (fp.k, fp.r) == (2, 3)
        dp = classify(dual(fixture))
        assert (dp.k, dp.r) == (3, 2)
        assert dual(dual(fixture)).chi == fixture.chi


def test_criterion_6_search_oracle():
    with criterion(6, "full canonical search at (7,7,3,3,1) returns designs all "
                      "isomorphic to the Fano plane; (3,3,2,2,1) returns exactly "
                      "the complete design; (4,4,2,2,1) fails the feasibility "
                      "precheck", limit_s=60.0):
        fano = gen_projective_plane(2)
        found = search_designs(7, 7, 3, 3, 1, canonical_only=True)
        assert len(found) >= 1
        for design in found:
            params = classify(design)
            assert (params.k, params.r, params.lam) == (3, 3, 1)
            assert designs_isomorphic(design, fano)

        small = search_designs(3, 3, 2, 2, 1, canonical_only=True)
        assert len(small) == 1
        assert small[0].chi == gen_complete(3, 2).chi

        with pytest.raises(InfeasibleParametersError):
            search_designs(4, 4, 2, 2, 1)


def test_criterion_7_cp_map_suite():
    with criterion(7, "is_cp accepts the identity, depolarizing, and every "
                      "projector-column map; rejects the qubit transpose with "
                      "witness eigenvalue -1 within 1e-9; trace preservation "
                      "holds exactly for the k=1 fixtures"):
        identity = CpMap(Algebra.matrix(2), Algebra.matrix(2), ComplexMatrix(np.eye(4)))
        eye2 = vec(np.eye(2, dtype=complex))
        depolarizing = CpMap(
            Algebra.matrix(2), Algebra.matrix(2),
            ComplexMatrix(0.5 * np.outer(eye2, eye2.conj())),
        )
        swap = np.zeros((4, 4))
        for i in range(2):
            for j in range(2):
                swap[2 * j + i, 2 * i + j] = 1.0
        transpose = CpMap(Algebra.matrix(2), Algebra.matrix(2), ComplexMatrix(swap))

        assert is_cp(identity).is_cp
        assert is_cp(depolarizing).is_cp
        fano = gen_projective_plane(2)
        images = [
            quantum_design_to_cp(functor_q(fano)),
            quantum_design_to_cp(mub_verify(mub_generate(2, 2)).design),
            quantum_design_to_cp(mub_verify(mub_generate(3, 4)).design),
        ]
        for f in images:
            assert is_cp(f).is_cp

        rejection = is_cp(transpose)
        assert not rejection.is_cp
        assert abs(rejection.min_eigenvalue - (-1.0)) <= 1e-9

        fano_map = classical_to_cp(fano)
        normalized = CpMap(fano_map.in_alg, fano_map.out_alg,
                           ComplexMatrix(fano_map.m.a / 3.0))
        fixtures = [identity, depolarizing, transpose, fano_map, normalized] + images
        for f in fixtures:
            k = verify_cp_design(f).k
            assert k is not None
            assert is_trace_preserving(f) == (abs(k - 1.0) <= 1e-9)


def test_criterion_8_property_suites_and_identity_orientation():
    import test_properties as props

    with criterion(8, "randomized suites (>= 200 cases each) pass: counting "
                      "identities, tensor multiplicativity, trace reality, hom "
                      "composition closure, file round trips; identities are "
                      "used in the orientation k*b = r*v and lam*(v-1) = r*(k-1), "
                      "the only one the (4,6,2,3,1) fixture satisfies"):
        assert props.N_CASES >= 200
        props.test_counting_identities_hold_on_generated_designs_and_their_closures()
        props.test_quantum_identities_hold_on_diagonal_images_of_block_designs()
        props.test_tensor_multiplies_uniformity_and_regularity()
        props.test_pairwise_traces_of_random_projector_families_are_real_nonnegative()
        props.test_permutation_homs_of_complete_designs_compose_and_verify()
        props.test_file_round_trips_are_byte_identical_for_random_documents()

        # Orientation witness: on the complete(4,2) fixture (v=4, b=6, k=2,
        # r=3, lam=1) the adopted forms hold and the transposed forms do not,
        # so the two cannot be confused by a symmetric example.
        v, b, k, r, lam = 4, 6, 2, 3, 1
        assert k * b == r * v == 12
        assert lam * (v - 1) == r * (k - 1) == 3
        assert k * v != r * b  # 8 != 18: rejected orientation
        assert lam * (v - 1) != k * (r - 1)  # 3 != 4: rejected orientation


def test_criterion_9_plane_of_order_23_is_generated_and_classified_quickly():
    with criterion(9, "gen_projective_plane(23) runs in under 0.1 s", limit_s=0.1):
        plane = gen_projective_plane(23)
    with criterion(9, "classify(pg2-23) gives (553,553,24,24,1) in under 0.3 s", limit_s=0.3):
        params = classify(plane)
    assert (plane.v, plane.b, params.k, params.r, params.lam) == (553, 553, 24, 24, 1)


def test_criterion_10_finishing_searches_run_quickly():
    with criterion(10, "search_designs(7,14,3,6,2, limit=30) runs in under 0.25 s", limit_s=0.25):
        found = search_designs(7, 14, 3, 6, 2, limit=30)
    assert len(found) == 30
    with criterion(10, "the full canonical search at (6,10,3,5,2) returns 12 designs "
                       "in under 0.1 s", limit_s=0.1):
        found = search_designs(6, 10, 3, 5, 2)
    assert len(found) == 12
