"""One set-up of a designkit client in a fresh process, timed by its parent.

Imports ``designkit.cli`` (from ``PYTHONPATH``) and runs the warm-up requests
listed in a JSON file in-process, their output discarded, then prints their
exit codes as a JSON list:

    PYTHONPATH=src python3 perfbench/setup_probe.py warmup.json
"""

import contextlib
import io
import json
import sys

import designkit.cli


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        argvs = json.load(fh)
    codes = []
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes.append(designkit.cli.main(argv))
    print(json.dumps(codes))
    return 0


if __name__ == "__main__":
    sys.exit(main())
