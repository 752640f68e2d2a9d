"""The three request mixes.  Each workload function writes its seeded input
into a work directory and lists one pass of requests (with repeats) plus a
short warm-up list.  Why each workload exists, and which inputs were left
out, is written down in README.md next to this file.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import inputs as gen
import oracle


@dataclass(frozen=True)
class Request:
    """One distinct designkit invocation and its ground truth.

    ``key`` names the request; every repeat of it must print the same bytes.
    """

    key: str
    argv: tuple[str, ...]
    rc: int
    check: Callable[[str, str], None]


class Mix:
    """Collects one pass of requests, with repeats, and writes input documents."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.requests: list[Request] = []
        self.warmup: list[Request] = []
        self.inputs: dict[str, str] = {}

    def put(self, name: str, chunks) -> tuple[str, str]:
        """Write a rendered document; returns its path and its sha256 digest."""
        path = self.workdir / name
        text = "".join(chunks)
        path.write_text(text, encoding="utf-8", newline="\n")
        self.inputs[name] = gen.digest([text])
        return str(path), self.inputs[name]

    def add(self, key: str, argv: list[str], rc: int, check, count: int, warm: bool = False) -> None:
        req = Request(key, tuple(argv), rc, check)
        self.requests.extend([req] * count)
        if warm:
            self.warmup.append(req)


# How often each request repeats in a pass follows one rule, Zipf's law of
# request popularity: within a family of like requests, listed from the
# smallest input to the largest, the i-th repeats round(ZIPF_HEAD / i) times,
# at least once.  Small requests are frequent and large ones rare.
ZIPF_HEAD = 8


def zipf(rank: int) -> int:
    return max(1, round(ZIPF_HEAD / rank))


PLANE_ORDERS = (2, 3, 5, 7, 11, 13, 17, 19, 23)
# Two families, each by v * b: searches that find designs, as
# (v, b, k, r, lambda, --limit, designs expected), and infeasible ones.
SEARCHES = (
    (7, 7, 3, 3, 1, None, 30),
    (6, 10, 3, 5, 2, None, 12),
    (7, 14, 3, 6, 2, 30, 30),
    (9, 12, 3, 4, 1, 1, 1),
    (13, 13, 4, 4, 1, 1, 1),
    (15, 35, 3, 7, 1, 1, 1),
)
INFEASIBLE = ((6, 4, 3, 2, 1), (7, 7, 3, 3, 2), (8, 8, 3, 3, 1), (10, 10, 3, 3, 1))


def classical(mix: Mix, rng: np.random.Generator) -> None:
    planes = {d: gen.projective_plane(d) for d in PLANE_ORDERS}
    relabelled = {}
    for rank, d in enumerate(PLANE_ORDERS, 1):
        chi, f_v, f_b = gen.relabel(planes[d], rng)
        relabelled[d] = (chi, f_v, f_b)
        path, sha = mix.put(f"pg2-{d}.json", gen.classical_doc(chi))
        check, rc = oracle.expect_verify_classical(chi, sha, block=True)
        mix.add(f"verify-classical pg2-{d}", ["verify-classical", path, "--block", "--json"],
                rc, check, zipf(rank), warm=d == 2)

    # Non-designs: classify leaves early and --block makes the command exit 1.
    non_designs = [(f"random-{n}", rng.integers(0, 2, size=(n, n))) for n in (31, 57, 133)]
    for d in (5, 7, 11, 13):
        chi = relabelled[d][0].copy()
        i, j = rng.integers(0, chi.shape[0]), rng.integers(0, chi.shape[1])
        chi[i, j] = 1 - chi[i, j]
        non_designs.append((f"flipped-pg2-{d}", chi))
    non_designs.sort(key=lambda item: item[1].size)
    for rank, (name, chi) in enumerate(non_designs, 1):
        path, sha = mix.put(f"{name}.json", gen.classical_doc(chi))
        check, rc = oracle.expect_verify_classical(chi, sha, block=True)
        mix.add(f"verify-classical {name}", ["verify-classical", path, "--block", "--json"],
                rc, check, zipf(rank))

    for rank, d in enumerate((2, 3, 5, 7, 11, 13), 1):
        mix.add(f"generate projective-plane {d}", ["generate", "projective-plane", "--order", str(d)],
                0, oracle.expect_document(gen.digest(gen.classical_doc(planes[d]))), zipf(rank),
                warm=d == 2)
    for rank, d in enumerate((3, 5, 7, 11), 1):
        chi = relabelled[d][0]
        mix.add(f"dual pg2-{d}", ["dual", str(mix.workdir / f"pg2-{d}.json")],
                0, oracle.expect_document(gen.digest(gen.classical_doc(chi.T))), zipf(rank),
                warm=d == 3)

    for rank, (d1, d2) in enumerate(((2, 2), (2, 3), (3, 3)), 1):
        prod = np.kron(relabelled[d1][0], relabelled[d2][0])
        path, sha = mix.put(f"tensor-{d1}-{d2}.json", gen.classical_doc(prod))
        mix.add(f"tensor pg2-{d1} pg2-{d2}",
                ["tensor", str(mix.workdir / f"pg2-{d1}.json"), str(mix.workdir / f"pg2-{d2}.json")],
                0, oracle.expect_document(sha), zipf(rank), warm=d1 == d2 == 2)
        check, rc = oracle.expect_verify_classical(prod, sha, block=False)
        mix.add(f"verify-classical tensor-{d1}-{d2}", ["verify-classical", path, "--json"], rc, check,
                zipf(rank))

    # Relabellings are homomorphisms from the plane onto its copy; a map with
    # two point images swapped is not, since distinct points of a plane lie on
    # distinct sets of lines.  The two kinds are separate families.
    for rank, d in enumerate((2, 3, 5, 7), 1):
        src = planes[d]
        src_path, src_sha = mix.put(f"plane-{d}.json", gen.classical_doc(src))
        dst, f_v, f_b = relabelled[d]
        dst_path = str(mix.workdir / f"pg2-{d}.json")
        dst_sha = mix.inputs[f"pg2-{d}.json"]
        maps = [("", f_v, zipf(rank))]
        if d > 2:
            bad = f_v.copy()
            i, j = rng.choice(len(bad), size=2, replace=False)
            bad[[i, j]] = bad[[j, i]]
            maps.append((" swapped", bad, zipf(rank - 1)))
        for tag, fv, repeats in maps:
            check, rc = oracle.expect_hom_check(src, dst, fv, f_b, src_sha, dst_sha)
            mix.add(f"hom-check pg2-{d}{tag}",
                    ["hom-check", src_path, dst_path, "--fv", " ".join(map(str, fv)),
                     "--fb", " ".join(map(str, f_b)), "--json"],
                    rc, check, repeats, warm=d == 2)

    catalog = {"complete-3-2": gen.complete_design(3, 2), "fano": planes[2],
               "pg2-3": planes[3], "pg2-5": planes[5]}
    for rank, (name, chi) in enumerate(catalog.items(), 1):
        mix.add(f"catalog {name}", ["catalog", name], 0,
                oracle.expect_document(gen.digest(gen.classical_doc(chi))), zipf(rank),
                warm=name == "fano")

    searches = [(params, limit, found, rank) for rank, (*params, limit, found)
                in enumerate(SEARCHES, 1)]
    searches += [(params, None, None, rank) for rank, params in enumerate(INFEASIBLE, 1)]
    for (v, b, k, r, lam), limit, found, rank in searches:
        argv = ["search", "--v", str(v), "--b", str(b), "--k", str(k), "--r", str(r),
                "--lambda", str(lam), "--canonical", "--json"]
        if limit is not None:
            argv += ["--limit", str(limit)]
        check, rc = oracle.expect_search(v, b, k, r, lam, limit, found)
        mix.add(f"search {v},{b},{k},{r},{lam} limit {limit}", argv, rc, check, zipf(rank),
                warm=(v, b, k, r, lam) == (7, 7, 3, 3, 1))


QUANTUM_PLANES = (2, 3, 5, 7)
MUB_DIMS = (3, 5, 7, 11, 13)
MUB_NOT_COMMUTATIVE = (3, 5, 13)


def quantum(mix: Mix, rng: np.random.Generator) -> None:
    for rank, d in enumerate(QUANTUM_PLANES, 1):
        count = zipf(rank)
        chi, _, _ = gen.relabel(gen.projective_plane(d), rng)
        b = chi.shape[1]
        diag = gen.diagonal_family(chi)
        path, _ = mix.put(f"pg2-{d}.json", gen.classical_doc(chi))
        mix.add(f"convert c2q pg2-{d}", ["convert", "c2q", path], 0,
                oracle.expect_document(gen.digest(gen.quantum_doc(diag))), count, warm=d == 2)
        u = gen.haar_unitary(b, rng)
        conj = u @ diag @ u.conj().T
        for tag, stack in (("diagonal", diag), ("conjugated", conj)):
            path, sha = mix.put(f"q-{tag}-{d}.json", gen.quantum_doc(stack))
            check, rc = oracle.expect_verify_quantum(stack.shape, sha, r=d + 1, k=float(d + 1),
                                                     trace_values=[1.0], commutative=True)
            mix.add(f"verify-quantum {tag} pg2-{d}", ["verify-quantum", path, "--json"],
                    rc, check, count, warm=d == 2 and tag == "diagonal")
            mix.add(f"convert q2c {tag} pg2-{d}", ["convert", "q2c", path], 0,
                    oracle.expect_incidence_up_to_columns(chi), count,
                    warm=d == 2 and tag == "diagonal")

    for rank, d in enumerate(MUB_DIMS, 1):
        mix.add(f"generate mub {d}", ["generate", "mub", "--dim", str(d), "--count", str(d + 1)],
                0, oracle.expect_mub_document(d), zipf(rank), warm=d == 3)
        stack = gen.mub_family(d, gen.haar_unitary(d, rng))
        path, sha = mix.put(f"mub-{d}.json", gen.quantum_doc(stack))
        check, rc = oracle.expect_verify_quantum(stack.shape, sha, r=1, k=float(d + 1),
                                                 trace_values=[0.0, 1.0 / d], commutative=False)
        mix.add(f"verify-quantum mub-{d}", ["verify-quantum", path, "--json"], rc, check, zipf(rank))
        if d in MUB_NOT_COMMUTATIVE:
            mix.add(f"convert q2c mub-{d}", ["convert", "q2c", path], 1, oracle.expect_error(),
                    zipf(MUB_NOT_COMMUTATIVE.index(d) + 1))


def _min_eig(c: np.ndarray) -> float:
    return float(np.linalg.eigvalsh((c + c.conj().T) / 2.0)[0])


NOT_CP_MARGIN = 0.05


def cpmap(mix: Mix, rng: np.random.Generator) -> None:
    for n in range(2, 17):
        count = zipf(n - 1)
        # A channel composed with the transpose is CP only if the channel breaks
        # entanglement.  Draws whose composition is not clearly non-CP are
        # redrawn, so that the ground truth never rests on rounding.
        for _ in range(100):
            m = gen.mixed_unitary_channel(n, rng)
            flipped = gen.transpose_superop(n) @ m
            low = _min_eig(gen.choi(flipped, n, n))
            if low < -NOT_CP_MARGIN:
                break
        else:
            raise RuntimeError(f"no clearly non-CP transposed channel found for n={n}")
        cases = (("channel", m, _min_eig(gen.choi(m, n, n))), ("transposed", flipped, low))
        for tag, mat, min_eig in cases:
            path, sha = mix.put(f"{tag}-{n}.json", gen.cpmap_doc(mat, "matrix", n, "matrix", n))
            check, rc = oracle.expect_verify_cpmap(sha, ("matrix", n), ("matrix", n),
                                                   min_eig=min_eig, tp=True, k=1.0, r=1.0)
            mix.add(f"verify-cpmap {tag}-{n}", ["verify-cpmap", path, "--json"], rc, check, count,
                    warm=n == 2)

    for rank, d in enumerate((2, 3, 5), 1):
        count = zipf(rank)
        chi, _, _ = gen.relabel(gen.projective_plane(d), rng)
        v = chi.shape[0]
        path, sha = mix.put(f"classical-pg2-{d}.json",
                            gen.cpmap_doc(chi, "commutative", v, "commutative", v))
        # The Choi matrix of a commutative map is diagonal with the entries of chi.
        check, rc = oracle.expect_verify_cpmap(sha, ("commutative", v), ("commutative", v),
                                               min_eig=0.0, tp=False, k=d + 1.0, r=d + 1.0, lam=1.0)
        mix.add(f"verify-cpmap classical-pg2-{d}", ["verify-cpmap", path, "--json"], rc, check, count,
                warm=d == 2)

    for rank, d in enumerate((5, 7, 11), 1):
        count = zipf(rank)
        stack = gen.mub_family(d, gen.haar_unitary(d, rng))
        v = stack.shape[0]
        # Column i is vec(p_i); the Choi matrix is block-diagonal with blocks p_i.
        path, sha = mix.put(f"mub-{d}.json",
                            gen.cpmap_doc(stack.reshape(v, d * d).T, "commutative", v, "matrix", d))
        check, rc = oracle.expect_verify_cpmap(sha, ("commutative", v), ("matrix", d),
                                               min_eig=0.0, tp=True, k=1.0, r=d + 1.0)
        mix.add(f"verify-cpmap mub-{d}", ["verify-cpmap", path, "--json"], rc, check, count)


WORKLOADS = {"classical": classical, "quantum": quantum, "cpmap": cpmap}


def build(name: str, seed: int, workdir: Path) -> Mix:
    mix = Mix(workdir)
    WORKLOADS[name](mix, np.random.default_rng(seed))
    return mix
