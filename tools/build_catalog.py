"""Regenerate the bundled catalog data files from the library generators.

Run from the repository root:  python3 tools/build_catalog.py
"""

from __future__ import annotations

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
# designkit need not be installed: import it from this checkout.
sys.path.insert(0, str(ROOT / "src"))

from designkit.catalog import dumps
from designkit.classical import gen_complete, gen_projective_plane
from designkit.cpmaps import Algebra, CpMap
from designkit.linalg import ComplexMatrix
from designkit.quantum import mub_generate, mub_verify

DATA = ROOT / "src" / "designkit" / "data"


def cp_k2r2() -> CpMap:
    m = ComplexMatrix(
        [
            [1.0, 0.0, 0.0, 1.0],
            [0.0, 0.5, 0.5, 0.0],
            [0.0, 0.5, 0.5, 0.0],
            [1.0, 0.0, 0.0, 1.0],
        ]
    )
    return CpMap(in_alg=Algebra.matrix(2), out_alg=Algebra.matrix(2), m=m)


def main() -> None:
    DATA.mkdir(parents=True, exist_ok=True)
    entries = {
        "fano.json": gen_projective_plane(2),
        "pg2-3.json": gen_projective_plane(3),
        "pg2-5.json": gen_projective_plane(5),
        "complete-3-2.json": gen_complete(3, 2),
        "mub-2-2.json": mub_verify(mub_generate(2, 2)).design,
        "mub-3-4.json": mub_verify(mub_generate(3, 4)).design,
        "cp-k2r2.json": cp_k2r2(),
    }
    for fname, obj in entries.items():
        path = DATA / fname
        path.write_text(dumps(obj), encoding="utf-8", newline="\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
