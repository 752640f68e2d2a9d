"""Seeded inputs for the benchmark, built and rendered without designkit.

Everything here follows the document formats and conventions that the
designkit README states (canonical JSON, ``[re, im]`` complex entries,
row-major ``vec``), so that the ground truth for every request comes from how
its input was built and not from the code under test.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from typing import Iterator

import numpy as np


def canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def _stream(doc: dict, key: str, items) -> Iterator[str]:
    """Canonical JSON of ``doc`` plus ``key: list(items)``, one item at a time,
    so that a large document is never held whole as nested lists or one string."""
    yield "{"
    for i, k in enumerate(sorted([*doc, key])):
        yield ("," if i else "") + json.dumps(k) + ":"
        if k != key:
            yield json.dumps(doc[k], sort_keys=True, separators=(",", ":"))
            continue
        yield "["
        for j, item in enumerate(items):
            yield ("," if j else "") + json.dumps(item, separators=(",", ":"), allow_nan=False)
        yield "]"
    yield "}\n"


def digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk.encode("utf-8"))
    return "sha256:" + h.hexdigest()


def _complex_rows(m: np.ndarray) -> list:
    return np.stack([m.real, m.imag], axis=-1).tolist()


def classical_doc(chi: np.ndarray) -> Iterator[str]:
    v, b = chi.shape
    return _stream({"schema": "classical-design/1", "v": v, "b": b}, "incidence",
                   (row.tolist() for row in chi.astype(np.int64)))


def quantum_doc(stack: np.ndarray) -> Iterator[str]:
    return _stream({"schema": "quantum-design/1", "dim": stack.shape[1]}, "projectors",
                   (_complex_rows(p) for p in stack.astype(np.complex128)))


def cpmap_doc(m: np.ndarray, in_kind: str, n_in: int, out_kind: str, n_out: int) -> Iterator[str]:
    return _stream({"schema": "cp-map/1", "convention": "superoperator",
                    "in": {"kind": in_kind, "n": n_in}, "out": {"kind": out_kind, "n": n_out}},
                   "matrix", (_complex_rows(row) for row in m.astype(np.complex128)))


def projective_plane(d: int) -> np.ndarray:
    """PG(2, d) for prime d: normalised triples in lexicographic order, P.L = 0 mod d."""
    reps = np.array([t for t in itertools.product(range(d), repeat=3)
                     if any(t) and next(x for x in t if x) == 1], dtype=np.int64)
    return ((reps @ reps.T) % d == 0).astype(np.int64)


def complete_design(v: int, k: int) -> np.ndarray:
    blocks = list(itertools.combinations(range(v), k))
    return np.array([[1 if i in blk else 0 for blk in blocks] for i in range(v)], dtype=np.int64)


def relabel(chi: np.ndarray, rng: np.random.Generator):
    """Seeded point and block permutations; returns (chi', f_v, f_b) with
    chi'[f_v[i], f_b[j]] = chi[i, j], so (f_v, f_b) is a homomorphism chi -> chi'."""
    f_v = rng.permutation(chi.shape[0])
    f_b = rng.permutation(chi.shape[1])
    out = np.zeros_like(chi)
    out[np.ix_(f_v, f_b)] = chi
    return out, f_v, f_b


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def diagonal_family(chi: np.ndarray) -> np.ndarray:
    """Row i of chi as the diagonal projector diag(chi[i, :]); shape (v, b, b)."""
    v, b = chi.shape
    stack = np.zeros((v, b, b), dtype=np.complex128)
    stack[:, np.arange(b), np.arange(b)] = chi
    return stack


def mub_family(d: int, u: np.ndarray) -> np.ndarray:
    """The d + 1 mutually unbiased bases of C^d (odd prime d), conjugated by u.

    Basis 0 is computational; basis t has vectors omega^(t l^2 + j l) / sqrt(d).
    Projectors come basis by basis, so i // d names the basis of projector i.
    """
    omega = np.exp(2j * np.pi / d)
    ls = np.arange(d)
    vecs = [np.eye(d, dtype=np.complex128)]
    for t in range(1, d + 1):
        vecs.append(np.column_stack(
            [omega ** ((t * ls * ls + j * ls) % d) / np.sqrt(d) for j in range(d)]))
    cols = u @ np.column_stack(vecs)
    return np.einsum("ia,ja->aij", cols, cols.conj())


def choi(m: np.ndarray, n_in: int, n_out: int) -> np.ndarray:
    """Choi matrix, index order (input x output), of a Matrix -> Matrix superoperator."""
    dim = n_in * n_out
    return m.reshape(n_out, n_out, n_in, n_in).transpose(2, 0, 3, 1).reshape(dim, dim)


def transpose_superop(n: int) -> np.ndarray:
    """vec(X^T) = P vec(X) for row-major vec."""
    p = np.zeros((n * n, n * n))
    idx = np.arange(n)
    p[(idx[None, :] * n + idx[:, None]).ravel(), (idx[:, None] * n + idx[None, :]).ravel()] = 1.0
    return p


def mixed_unitary_channel(n: int, rng: np.random.Generator, terms: int = 3) -> np.ndarray:
    """X -> sum_k p_k U_k X U_k^dagger as a superoperator: sum_k p_k U_k (x) conj(U_k)."""
    weights = rng.dirichlet(np.ones(terms))
    return sum(w * np.kron(u, u.conj())
               for w, u in zip(weights, (haar_unitary(n, rng) for _ in range(terms))))
