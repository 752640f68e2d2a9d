"""Classical designs as incidence matrices.

A design is a v x b matrix of nonnegative integers: rows are points, columns
are blocks (with multiplicity).  This module classifies uniformity/regularity/
balance, checks the two counting identities tying (v, b, k, r, lambda)
together, verifies and composes homomorphisms, builds tensor products and
duals, generates projective planes and complete designs, and searches for
0/1 designs with prescribed parameters.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .linalg import (_INT64_BOUND, NatMatrix, _integral, _peak, kron as _kron,
                     mat_mul as _mat_mul, transpose as _transpose)

__all__ = [
    "ClassicalDesign",
    "DesignParams",
    "HomPair",
    "HomCheck",
    "IdentityCheck",
    "CheckFailed",
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
        return bool(self.chi.a.max() <= 1)

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

    @property
    def missing(self) -> list[str]:
        """The names among k, r and lambda whose property fails to hold."""
        return [name for name, val in (("k", self.k), ("r", self.r), ("lambda", self.lam))
                if val is None]


@dataclass(frozen=True)
class HomPair:
    """Design homomorphism: point map f_v and block map f_b, as image tuples.

    f_v[i] is the image of point i (0-based); likewise f_b for blocks.
    """

    f_v: tuple[int, ...]
    f_b: tuple[int, ...]

    def __post_init__(self) -> None:
        for name in ("f_v", "f_b"):
            images = tuple(_as_int(x, f"{name} image") for x in getattr(self, name))
            object.__setattr__(self, name, images)


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


class CheckFailed(ValueError):
    """A check ran and the object failed it: a verdict, not refused input.  ``witness``
    is the failed check's own outcome, such as a HomCheck, when one is given."""

    def __init__(self, message: str, witness=None) -> None:
        super().__init__(message)
        self.witness = witness


class InfeasibleParametersError(CheckFailed):
    """Requested design parameters violate a counting identity."""


def _as_int(x, what: str) -> int:
    # Integral values only: 2.7 is refused, not truncated to 2.
    n = _integral(x)
    if n is None:
        raise ValueError(f"{what} {x!r} is not an integer")
    return n


def classify(design: ClassicalDesign) -> DesignParams:
    """Read off (k, r, lambda, symmetric) from the incidence matrix.

    Exact integer arithmetic throughout; any property that does not hold
    exactly yields None for its parameter.  Balance is read off the v x v
    Gram matrix only when b >= v, so that it costs no more than chi itself.
    """
    col = design.chi.col_sums()
    k = col[0] if all(s == col[0] for s in col) else None
    row = design.chi.row_sums()
    r = row[0] if all(s == row[0] for s in row) else None
    lam = None
    if k is not None and r is not None and design.v >= 2:
        if design.b < design.v:
            # Fisher's inequality: lam < r makes chi chi^T of rank v > b.  By Cauchy-
            # Schwarz, lam >= r needs equal rows, whose diagonal is r iff they are 0/1.
            if design.is_zero_one and (design.chi.a == design.chi.a[0]).all():
                lam = r
        else:
            g = _mat_mul(design.chi, _transpose(design.chi)).a
            if (np.diagonal(g) == r).all():
                off = g[~np.eye(design.v, dtype=bool)]
                if (off == off[0]).all():
                    lam = int(off[0])
    return DesignParams(k=k, r=r, lam=lam, symmetric=design.v == design.b)


def check_identities(
    v: int,
    b: int,
    k: float | None,
    r: float | None,
    lam: float | None = None,
    equal: Callable[[float, float], bool] = operator.eq,
) -> list[IdentityCheck]:
    """Evaluate the counting identities b*k = r*v and lambda*(v-1) = r*(k-1).

    The identities are the same in every model; only equality differs.  The
    default ``equal`` is exact, for integer (classical) parameters; pass
    ``Tolerance.close`` for real (quantum) ones.  k and r must be present;
    the balance identity is only emitted when lam is present.
    """
    if k is None or r is None:
        raise ValueError("check_identities needs both k and r classified")
    sides = [("b*k = r*v", b * k, r * v)]
    if lam is not None:
        sides.append(("lambda*(v-1) = r*(k-1)", lam * (v - 1), r * (k - 1)))
    return [IdentityCheck(name=name, lhs=lhs, rhs=rhs, passed=equal(lhs, rhs))
            for name, lhs, rhs in sides]


def to_block(design: ClassicalDesign) -> ClassicalDesign:
    """Threshold multiplicities: entries > 0 become 1."""
    return ClassicalDesign(NatMatrix._raw((design.chi.a > 0).astype(np.int64)))


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
    # Scatter chi's rows onto their image points: O(v b), no dst.v x src.v selector.
    chi = src.chi.a
    dtype = np.int64 if _peak(chi) * src.v < _INT64_BOUND else object
    lhs = np.zeros((dst.v, src.b), dtype=dtype)
    np.add.at(lhs, np.array(hom.f_v, dtype=np.intp), chi.astype(dtype, copy=False))
    rhs = dst.chi.a[:, hom.f_b]
    bad = lhs != rhs
    if not bad.any():
        return HomCheck(ok=True)
    i, j = divmod(int(bad.argmax()), src.b)  # the first failing cell in row-major order
    return HomCheck(ok=False, cell=(i, j), lhs=int(lhs[i, j]), rhs=int(rhs[i, j]))


def compose_hom(first: HomPair, second: HomPair) -> HomPair:
    """Compose homomorphisms: apply ``first``, then ``second``."""
    if any(not 0 <= x < len(second.f_v) for x in first.f_v):
        raise ValueError("point maps do not compose: middle sizes disagree")
    if any(not 0 <= x < len(second.f_b) for x in first.f_b):
        raise ValueError("block maps do not compose: middle sizes disagree")
    return HomPair(
        f_v=tuple(second.f_v[x] for x in first.f_v),
        f_b=tuple(second.f_b[x] for x in first.f_b),
    )


def tensor(d1: ClassicalDesign, d2: ClassicalDesign) -> ClassicalDesign:
    """Kronecker product of incidence matrices; points and blocks multiply."""
    _check_size(d1.v * d2.v * d1.b * d2.b, "v1*v2*b1*b2", "incidence cells")
    return ClassicalDesign(_kron(d1.chi, d2.chi))


def dual(design: ClassicalDesign) -> ClassicalDesign:
    """Swap points and blocks (transpose)."""
    return ClassicalDesign(_transpose(design.chi))


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % p for p in range(2, int(math.isqrt(n)) + 1))


# Largest incidence matrix, in cells, that a generator, tensor or search_designs
# builds or draws its candidate columns from; quantum.mub_generate and
# quantum.tensor_q bound their projector entries by it too.
_COMPLETE_MAX_CELLS = 10**6
# Most blocks search_designs places: it recurses once per block, and this
# stays well under CPython's default limit of 1000 frames.
_SEARCH_MAX_BLOCKS = 512


def _check_size(size: int, formula: str, unit: str, limit: int = _COMPLETE_MAX_CELLS) -> None:
    """Refuse to build more than ``limit`` cells, entries or blocks."""
    if size > limit:
        raise ValueError(f"{formula} = {size} exceeds the limit of {limit} {unit}")


def gen_projective_plane(order: int) -> ClassicalDesign:
    """Projective plane of prime order d over the field with d elements.

    Points and lines are the nonzero triples over F_d normalized so that the
    first nonzero coordinate is 1, listed in lexicographic order; point P lies
    on line L iff P . L = 0 mod d.  Yields v = b = d^2 + d + 1, k = r = d + 1,
    lambda = 1.  Refuses more than _COMPLETE_MAX_CELLS incidence cells
    (d > 31) before building anything.
    """
    d = _as_int(order, "order")
    # Before the prime test too, whose trial division is slow for a huge d.
    _check_size((d * d + d + 1) ** 2, "(d^2+d+1)^2", "incidence cells", _COMPLETE_MAX_CELLS)
    if not _is_prime(d):
        raise ValueError(f"order {d} is not prime")
    triples = np.indices((d, d, d)).reshape(3, -1).T  # lexicographic order
    first_nonzero = triples[np.arange(len(triples)), (triples != 0).argmax(axis=1)]
    reps = triples[first_nonzero == 1]  # the zero triple's first entry is 0
    chi = (reps @ reps.T) % d == 0
    return ClassicalDesign(NatMatrix._raw(chi.astype(np.int64)))


def _check_complete_size(v: int, k: int) -> None:
    cells = v  # v * C(v, j) grows with j up to v / 2: stop once past the bound
    for j in range(min(k, v - k)):
        if cells > _COMPLETE_MAX_CELLS:
            break
        cells = cells * (v - j) // (j + 1)
    if cells > _COMPLETE_MAX_CELLS:
        raise ValueError(f"v*C(v,k) exceeds the limit of {_COMPLETE_MAX_CELLS} "
                         f"incidence cells for v={v}, k={k}")


def gen_complete(v: int, k: int) -> ClassicalDesign:
    """All k-subsets of v points as blocks, in lexicographic order.

    Parameters come out as r = C(v-1, k-1) and lambda = C(v-2, k-2).  Refuses
    more than _COMPLETE_MAX_CELLS incidence cells before enumerating anything.
    """
    if not 1 <= k <= v:
        raise ValueError(f"need 1 <= k <= v, got k={k}, v={v}")
    _check_complete_size(v, k)
    blocks = np.array(list(itertools.combinations(range(v), k)), dtype=np.intp)
    chi = np.zeros((v, len(blocks)), dtype=np.int64)
    chi[blocks, np.arange(len(blocks))[:, np.newaxis]] = 1
    return ClassicalDesign(NatMatrix._raw(chi))


def _search_feasible(v: int, b: int, k: int, r: int, lam: int) -> None:
    if v < 1 or b < 1 or k < 0 or r < 0 or lam < 0:
        raise ValueError("parameters must satisfy v, b >= 1 and k, r, lambda >= 0")
    if k > v:
        raise ValueError(f"block size k={k} exceeds point count v={v}")
    # At v = 1, k <= v and b*k = r*v force the balance identity to hold.
    for idc in check_identities(v, b, k, r, lam):
        if not idc.passed:
            left, right = idc.name.split(" = ")
            raise InfeasibleParametersError(
                f"infeasible: {left} = {idc.lhs} differs from {right} = {idc.rhs}"
            )


def _lex_bound(v: int, k: int):
    """The Gram cells that some k-subset of range(v) covers, and the lex cut.

    Bit x*v + y (x <= y) stands for the Gram cell (x, y): a point on the
    diagonal, a pair above it.  The k-subsets are indexed in lex order, and
    cut(need, start) is the first index i >= start such that some cell of
    need lies in no subset at index i or later.  The last subset that holds
    a cell is the cell plus the largest other points, so the cut bisects
    over one breakpoint per cell, at most v(v+1)/2 of them.
    """
    count = math.comb(v, k)
    last: dict[int, int] = {}  # index of a last subset -> the cells it ends
    for x in range(v):
        # A k-subset s_0 < ... < s_(k-1) has index count - 1 - sum_i C(v-1-s_i, k-i)
        # in lex order.  The largest other points, with any cell point among
        # them, run up to v - 1 and add 0 to the sum; only x, then y, can add.
        head = count - 1 - math.comb(v - 1 - x, k)
        for y in range(x, v if k >= 2 else x + 1):
            rank = head - math.comb(v - 1 - y, k - 1) if y > x else head
            last[rank] = last.get(rank, 0) | 1 << (x * v + y)
    ends = sorted(last)
    # masks[j] holds the cells that no subset after ends[j] covers; it grows with j.
    masks = list(itertools.accumulate((last[e] for e in ends), operator.or_))

    def cut(need: int, start: int) -> int:
        j = bisect.bisect_left(masks, True, key=lambda m: bool(need & m))
        return max(start, ends[j] + 1) if j < len(ends) else count

    return masks[-1], cut


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
    when the counting identities already rule the parameters out, and
    ValueError when the candidate columns (the incidence matrix of
    gen_complete(v, k)) or the all-zero design of k = 0 would exceed
    _COMPLETE_MAX_CELLS, or when a search with k >= 1 would place more than
    _SEARCH_MAX_BLOCKS blocks.  ``limit`` caps the number of returned
    designs; None means exhaustive.

    One symmetric v x v table, row-major, holds what chi chi^T still lacks:
    left[x*v + y] = d(x, y), for the Gram cell that bit x*v + y of need
    stands for; r on the diagonal and lam off it at the root.  A node is cut
    only when its subtree holds no design, so the designs come out in plain
    depth-first order whatever the bounds cut:

    - pair bound: d(x, y) <= d(x, x), since every later block through
      {x, y} passes through x;
    - lex bound (canonical_only): every point and pair with a deficit lies in
      some k-subset at or after the last column placed.

    A point needs no bound of its own.  The pair bound holds at every node:
    at the root since lam*(v-1) = r*(k-1) and k <= v give lam <= r, and a
    block moves only its own points' rows, which pairs_bounded checks.  By
    the identities the precheck proved, (k-1)*d(x, x) = sum_(y != x) d(y, x)
    <= sum_(y != x) d(y, y) = k*(b - depth) - d(x, x): d(x, x) <= b - depth.
    """
    _search_feasible(v, b, k, r, lam)
    _check_complete_size(v, k)
    if limit is not None and limit <= 0:
        return []
    if k == 0:
        # Only the all-zero design fits: the prechecks force r = 0, and lam = 0 for v >= 2.
        _check_size(v * b, "v*b", "incidence cells")
        return [ClassicalDesign(NatMatrix._raw(np.zeros((v, b), dtype=np.int64)))]
    _check_size(b, "b", "blocks", _SEARCH_MAX_BLOCKS)
    subsets = list(itertools.combinations(range(v), k))
    grid = np.fromiter(itertools.chain.from_iterable(subsets), np.intp).reshape(-1, k)
    i, j = zip(*itertools.combinations_with_replacement(range(k), 2))
    # Each subset's Gram cells x*v + y with x <= y: its points and its pairs.
    cells = (grid[:, i] * v + grid[:, j]).tolist()
    mirror = [y * v + x for x in range(v) for y in range(v)]  # cell (x, y) -> (y, x)
    covered, lex_cut = _lex_bound(v, k)
    left = [r if x == y else lam for x in range(v) for y in range(v)]
    chosen: list[int] = []
    found: list[ClassicalDesign] = []

    def fits(ci: int) -> bool:
        for c in cells[ci]:
            if not left[c]:
                return False
        return True

    def place(ci: int) -> int:
        """Add column ci; return the cells it brings up to their target."""
        filled = 0
        for c in cells[ci]:
            left[c] = left[mirror[c]] = gap = left[c] - 1
            if not gap:
                filled |= 1 << c
        return filled

    def unplace(ci: int) -> None:
        for c in cells[ci]:
            left[c] = left[mirror[c]] = left[c] + 1

    def pairs_bounded(ci: int) -> bool:
        return all(max(left[p * v:p * v + v]) <= left[p * v + p] for p in subsets[ci])

    def emit() -> None:
        # No balance check: every column fitted, so left is nonnegative, and it sums
        # to r*v - b*k = 0 on the diagonal and lam*C(v, 2) - b*C(k, 2) = 0 above it.
        chi = np.zeros((v, b), dtype=np.int64)
        chi[[subsets[ci] for ci in chosen], np.arange(b)[:, np.newaxis]] = 1
        found.append(ClassicalDesign(NatMatrix._raw(chi)))

    def rec(depth: int, start: int, need: int) -> bool:
        """need holds the cells still below their target."""
        if depth == b:
            emit()
            return limit is not None and len(found) >= limit
        if canonical_only:
            # A column at index hi or later leaves a cell of need that no
            # later column covers, so the lex bound cuts it; hi == start
            # cuts this node.
            lo, hi = start, lex_cut(need, start)
        else:
            lo, hi = 0, len(subsets)
        for ci in range(lo, hi):
            if fits(ci):
                filled = place(ci)
                chosen.append(ci)
                stop = pairs_bounded(ci) and rec(depth + 1, ci, need ^ filled)
                chosen.pop()
                unplace(ci)
                if stop:
                    return True
        return False

    # Every covered cell starts below its target: r >= 1 on the diagonal,
    # and lam >= 1 wherever k >= 2 puts pairs.
    rec(0, 0, covered)
    return found


def designs_isomorphic(d1: ClassicalDesign, d2: ClassicalDesign) -> bool:
    """Isomorphism up to point relabeling and block reordering.

    Exhaustive over point permutations: v! of them, each compared by one sort
    of the b columns, so only v is restricted, to v <= 8.
    """
    if d1.v != d2.v or d1.b != d2.b:
        return False
    if d1.v > 8:
        raise ValueError("isomorphism search is restricted to v <= 8")
    rows1 = [tuple(row) for row in d1.chi.tolist()]
    cols2 = sorted(zip(*[tuple(row) for row in d2.chi.tolist()]))
    for perm in itertools.permutations(range(d1.v)):
        if sorted(zip(*(rows1[p] for p in perm))) == cols2:
            return True
    return False
