"""The exit-code contract of the CLI on classical documents with edge entries.

Every request ends in exit 0 (checks pass), 1 (checks fail) or 2 (refused,
with an empty stdout and one ``error:`` line on stderr), never in an escaped
exception, and the same argv gives the same bytes every time.
"""

import pytest

from designkit.catalog import dumps
from designkit.classical import ClassicalDesign
from designkit.cli import main

ENTRIES = {
    "0": 0,
    "1": 1,
    "2^53-1": 2**53 - 1,
    "2^53+1": 2**53 + 1,
    "2^63-1": 2**63 - 1,
    "2^63+1": 2**63 + 1,
    "10^400": 10**400,
}

# Each request reads the documents named in its argv: "square" is [[e, 1], [1, e]],
# and "row" = [[e, e]] maps onto "one" = [[e]] by merging its two blocks.
REQUESTS = {
    "verify-classical": ["verify-classical", "square", "--block", "--json"],
    "verify-classical-text": ["verify-classical", "square"],
    "dual": ["dual", "square"],
    "tensor": ["tensor", "square", "square"],
    "convert-c2q": ["convert", "c2q", "square"],
    "hom-check-identity": ["hom-check", "square", "square", "--fv", "0 1", "--fb", "0 1",
                           "--json"],
    "hom-check-merge": ["hom-check", "row", "one", "--fv", "0", "--fb", "0 0", "--json"],
}


def documents(e):
    return {
        "square": ClassicalDesign.from_rows([[e, 1], [1, e]]),
        "row": ClassicalDesign.from_rows([[e, e]]),
        "one": ClassicalDesign.from_rows([[e]]),
    }


@pytest.mark.parametrize("entry", list(ENTRIES))
@pytest.mark.parametrize("request_name", list(REQUESTS))
def test_classical_requests_keep_the_exit_code_contract(tmp_path, capsys, request_name, entry):
    paths = {}
    for name, design in documents(ENTRIES[entry]).items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(dumps(design), encoding="utf-8")
    argv = [str(paths.get(tok, tok)) for tok in REQUESTS[request_name]]
    runs = []
    for _ in range(2):
        code = main(argv)  # an exception escaping main fails the test here
        captured = capsys.readouterr()
        runs.append((code, captured.out, captured.err))
    code, out, err = runs[0]
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
        assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1
    assert runs[1] == runs[0]
