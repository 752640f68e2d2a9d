"""designkit benchmark: one closed-loop client calling ``designkit.cli.main``.

Run from the root of a designkit checkout:

    python3 perfbench/run.py --workload classical --seed 1 --seconds 34 --trace 0

The client renders its seeded inputs once, then issues whole passes of the
workload's request mix in a seeded order until ``--seconds`` have elapsed,
checking every output against the ground truth in oracle.py.  ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` runs every request untraced and
traced and prints the per-layer table.  The last line of stdout is one JSON
object; details, the environment and the spans go to perfbench/out/.
See README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = Path.cwd() / "src"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("classical", "quantum", "cpmap"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "designkit" / "cli.py").is_file():
        print(f"error: no designkit sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # The import is timed first, before the benchmark's own modules load numpy,
    # so that setup_s carries what every designkit command pays.
    start = time.perf_counter()
    import designkit.cli
    import_s = time.perf_counter() - start
    if Path(designkit.__file__).resolve().parent != (SRC / "designkit").resolve():
        print(f"error: imported designkit from {designkit.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import harness
    return harness.run(args, designkit.cli, import_s)


if __name__ == "__main__":
    sys.exit(main())
