"""Classical designs as incidence matrices.

A design is a v x b matrix of nonnegative integers: rows are points, columns
are blocks (with multiplicity).  This module classifies uniformity/regularity/
balance, checks the two counting identities tying (v, b, k, r, lambda)
together, verifies and composes homomorphisms, builds tensor products and
duals, generates projective planes and complete designs, and searches for
0/1 designs with prescribed parameters.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from .linalg import NatMatrix, kron as _kron, transpose as _transpose

__all__ = [
    "ClassicalDesign",
    "DesignParams",
    "HomPair",
    "HomCheck",
    "IdentityCheck",
    "InfeasibleParametersError",
    "classify",
    "check_identities",
    "to_block",
    "verify_hom",
    "compose_hom",
    "tensor",
    "dual",
    "gen_projective_plane",
    "gen_complete",
    "search_designs",
    "designs_isomorphic",
]


@dataclass(frozen=True)
class ClassicalDesign:
    """Incidence matrix wrapper; chi has shape (points v, blocks b)."""

    chi: NatMatrix

    @property
    def v(self) -> int:
        return self.chi.rows

    @property
    def b(self) -> int:
        return self.chi.cols

    @property
    def is_zero_one(self) -> bool:
        return all(x in (0, 1) for row in self.chi.tolist() for x in row)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "ClassicalDesign":
        return cls(NatMatrix(rows))


@dataclass(frozen=True)
class DesignParams:
    """Classified parameters; a field is None when the property fails to hold.

    k: common column sum (uniformity), r: common row sum (regularity),
    lam: common off-diagonal entry of chi chi^T when additionally the diagonal
    equals r (balance; requires v >= 2), symmetric: v == b.
    """

    k: int | None
    r: int | None
    lam: int | None
    symmetric: bool


@dataclass(frozen=True)
class HomPair:
    """Design homomorphism: point map f_v and block map f_b, as image tuples.

    f_v[i] is the image of point i (0-based); likewise f_b for blocks.
    """

    f_v: tuple[int, ...]
    f_b: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "f_v", tuple(int(x) for x in self.f_v))
        object.__setattr__(self, "f_b", tuple(int(x) for x in self.f_b))


@dataclass(frozen=True)
class HomCheck:
    """Outcome of verify_hom; on failure, cell is the first offending (i, j)."""

    ok: bool
    cell: tuple[int, int] | None = None
    lhs: int | None = None
    rhs: int | None = None


@dataclass(frozen=True)
class IdentityCheck:
    """One counting identity instance with both sides evaluated."""

    name: str
    lhs: float
    rhs: float
    passed: bool


class InfeasibleParametersError(ValueError):
    """Requested design parameters violate a counting identity."""


def classify(design: ClassicalDesign) -> DesignParams:
    """Read off (k, r, lambda, symmetric) from the incidence matrix.

    Exact integer arithmetic throughout; any property that does not hold
    exactly yields None for its parameter.
    """
    chi = design.chi.a
    col = design.chi.col_sums()
    k = col[0] if all(s == col[0] for s in col) else None
    row = design.chi.row_sums()
    r = row[0] if all(s == row[0] for s in row) else None
    lam = None
    if k is not None and r is not None and design.v >= 2:
        g = chi @ chi.T
        if all(int(g[i, i]) == r for i in range(design.v)):
            off = [int(g[i, j]) for i in range(design.v) for j in range(design.v) if i != j]
            if all(x == off[0] for x in off):
                lam = off[0]
    return DesignParams(k=k, r=r, lam=lam, symmetric=design.v == design.b)


def check_identities(v: int, b: int, params: DesignParams) -> list[IdentityCheck]:
    """Evaluate the counting identities b*k = r*v and lambda*(v-1) = r*(k-1).

    Both sides are exact integers.  k and r must be present; the balance
    identity is only emitted when lam is present.
    """
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


def to_block(design: ClassicalDesign) -> ClassicalDesign:
    """Threshold multiplicities: entries > 0 become 1."""
    return ClassicalDesign(
        NatMatrix([[1 if x > 0 else 0 for x in row] for row in design.chi.tolist()])
    )


def verify_hom(src: ClassicalDesign, dst: ClassicalDesign, hom: HomPair) -> HomCheck:
    """Check the homomorphism square: moving a point then reading incidence
    against a source block equals reading incidence of the mapped block.

    Concretely, for every target point i and source block j,
    sum of chi_src[a, j] over points a with f_v[a] = i must equal
    chi_dst[i, f_b[j]].  Returns the first failing cell as a witness.
    """
    if len(hom.f_v) != src.v or len(hom.f_b) != src.b:
        raise ValueError(
            f"hom maps {len(hom.f_v)} points / {len(hom.f_b)} blocks, "
            f"source has {src.v} / {src.b}"
        )
    if any(not 0 <= x < dst.v for x in hom.f_v):
        raise ValueError(f"point image out of range 0..{dst.v - 1}")
    if any(not 0 <= x < dst.b for x in hom.f_b):
        raise ValueError(f"block image out of range 0..{dst.b - 1}")
    chi_s = src.chi.tolist()
    chi_d = dst.chi.tolist()
    for i in range(dst.v):
        for j in range(src.b):
            lhs = sum(chi_s[a][j] for a in range(src.v) if hom.f_v[a] == i)
            rhs = chi_d[i][hom.f_b[j]]
            if lhs != rhs:
                return HomCheck(ok=False, cell=(i, j), lhs=lhs, rhs=rhs)
    return HomCheck(ok=True)


def compose_hom(first: HomPair, second: HomPair) -> HomPair:
    """Compose homomorphisms: apply ``first``, then ``second``."""
    if first.f_v and max(first.f_v) >= len(second.f_v):
        raise ValueError("point maps do not compose: middle sizes disagree")
    if first.f_b and max(first.f_b) >= len(second.f_b):
        raise ValueError("block maps do not compose: middle sizes disagree")
    return HomPair(
        f_v=tuple(second.f_v[x] for x in first.f_v),
        f_b=tuple(second.f_b[x] for x in first.f_b),
    )


def tensor(d1: ClassicalDesign, d2: ClassicalDesign) -> ClassicalDesign:
    """Kronecker product of incidence matrices; points and blocks multiply."""
    return ClassicalDesign(_kron(d1.chi, d2.chi))


def dual(design: ClassicalDesign) -> ClassicalDesign:
    """Swap points and blocks (transpose)."""
    return ClassicalDesign(_transpose(design.chi))


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % p for p in range(2, int(math.isqrt(n)) + 1))


def gen_projective_plane(order: int) -> ClassicalDesign:
    """Projective plane of prime order d over the field with d elements.

    Points and lines are the nonzero triples over F_d normalized so that the
    first nonzero coordinate is 1, listed in lexicographic order; point P lies
    on line L iff P . L = 0 mod d.  Yields v = b = d^2 + d + 1, k = r = d + 1,
    lambda = 1.
    """
    d = int(order)
    if not _is_prime(d):
        raise ValueError(f"order {d} is not prime")
    reps = [
        t
        for t in itertools.product(range(d), repeat=3)
        if any(t) and next(x for x in t if x) == 1
    ]
    n = d * d + d + 1
    assert len(reps) == n
    chi = [
        [1 if sum(p * l for p, l in zip(pt, ln)) % d == 0 else 0 for ln in reps]
        for pt in reps
    ]
    return ClassicalDesign(NatMatrix(chi))


# Largest incidence matrix, in cells, that gen_complete enumerates.
_COMPLETE_MAX_CELLS = 10**6


def gen_complete(v: int, k: int) -> ClassicalDesign:
    """All k-subsets of v points as blocks, in lexicographic order.

    Parameters come out as r = C(v-1, k-1) and lambda = C(v-2, k-2).  Refuses
    more than _COMPLETE_MAX_CELLS incidence cells before enumerating anything.
    """
    if not 1 <= k <= v:
        raise ValueError(f"need 1 <= k <= v, got k={k}, v={v}")
    cells = v  # v * C(v, j) grows with j up to v / 2: stop once past the bound
    for j in range(min(k, v - k)):
        if cells > _COMPLETE_MAX_CELLS:
            break
        cells = cells * (v - j) // (j + 1)
    if cells > _COMPLETE_MAX_CELLS:
        raise ValueError(f"v*C(v,k) exceeds the limit of {_COMPLETE_MAX_CELLS} "
                         f"incidence cells for v={v}, k={k}")
    blocks = list(itertools.combinations(range(v), k))
    chi = [[1 if i in blk else 0 for blk in blocks] for i in range(v)]
    return ClassicalDesign(NatMatrix(chi))


def _search_feasible(v: int, b: int, k: int, r: int, lam: int) -> None:
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


def search_designs(
    v: int,
    b: int,
    k: int,
    r: int,
    lam: int,
    limit: int | None = None,
    canonical_only: bool = True,
) -> list[ClassicalDesign]:
    """Enumerate 0/1 designs with the exact parameters (v, b, k, r, lambda).

    Backtracks over columns drawn from the k-subsets of points.  With
    canonical_only, column index tuples must be lexicographically
    nondecreasing (repeated blocks stay allowed), which picks one
    representative per column ordering.  Raises InfeasibleParametersError
    when the counting identities already rule the parameters out.  ``limit``
    caps the number of returned designs; None means exhaustive.
    """
    _search_feasible(v, b, k, r, lam)
    if limit is not None and limit <= 0:
        return []
    subsets = list(itertools.combinations(range(v), k))
    pair_idx = [[(s[i], s[j]) for i in range(k) for j in range(i + 1, k)] for s in subsets]
    row_cnt = [0] * v
    pair_cnt = [[0] * v for _ in range(v)]
    chosen: list[int] = []
    found: list[ClassicalDesign] = []

    def fits(ci: int) -> bool:
        for p in subsets[ci]:
            if row_cnt[p] >= r:
                return False
        for (x, y) in pair_idx[ci]:
            if pair_cnt[x][y] >= lam:
                return False
        return True

    def place(ci: int, sign: int) -> None:
        for p in subsets[ci]:
            row_cnt[p] += sign
        for (x, y) in pair_idx[ci]:
            pair_cnt[x][y] += sign

    def emit() -> None:
        for i in range(v):
            for j in range(i + 1, v):
                if pair_cnt[i][j] != lam:
                    return
        chi = [[0] * b for _ in range(v)]
        for j, ci in enumerate(chosen):
            for p in subsets[ci]:
                chi[p][j] = 1
        found.append(ClassicalDesign(NatMatrix(chi)))

    def rec(depth: int, start: int) -> bool:
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
        # Only the all-zero design is possible; the prechecks already force
        # r = 0 and (for v >= 2) lam = 0 here.
        found.append(ClassicalDesign(NatMatrix([[0] * b for _ in range(v)])))
        return found
    rec(0, 0)
    return found


def designs_isomorphic(d1: ClassicalDesign, d2: ClassicalDesign) -> bool:
    """Isomorphism up to point relabeling and block reordering.

    Exhaustive over point permutations; restricted to v <= 8 and b <= 8.
    """
    if d1.v != d2.v or d1.b != d2.b:
        return False
    if d1.v > 8 or d1.b > 8:
        raise ValueError("isomorphism search is restricted to v <= 8 and b <= 8")
    rows1 = [tuple(row) for row in d1.chi.tolist()]
    cols2 = sorted(zip(*[tuple(row) for row in d2.chi.tolist()]))
    for perm in itertools.permutations(range(d1.v)):
        if sorted(zip(*(rows1[p] for p in perm))) == cols2:
            return True
    return False
