"""README's code blocks run as written: the quick start and the command-line block."""

import io
import pathlib
import re
import shlex
import sys

import numpy as np

from designkit import catalog
from designkit.classical import DesignParams
from designkit import cli
from designkit.cli import main

README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _block(section: str, lang: str) -> str:
    """The first ``lang`` code block under the README heading ``## section``."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{lang}\n(.*?)```", body, re.S).group(1)


def _pipeline(line: str) -> list[list[str]]:
    """The argv of each command in one shell line, split at its pipes."""
    commands = [[]]
    for token in shlex.split(line, comments=True):
        if token == "|":
            commands.append([])
        else:
            commands[-1].append(token)
    return commands


def test_quick_start_runs_and_prints_its_commented_results(capsys):
    names = {}
    exec(compile(_block("Quick start", "python"), "README quick start", "exec"), names)
    printed = capsys.readouterr().out.splitlines()
    fano = names["fano"]
    # classify(fano): k=3, r=3, lam=1, symmetric
    assert names["classify"](fano) == DesignParams(k=3, r=3, lam=1, symmetric=True)
    # functor_q(fano): seven diagonal projectors on C^7
    stack = names["image"]._stack
    assert stack.shape == (7, 7, 7)
    assert np.array_equal(stack, np.eye(7) * np.diagonal(stack, axis1=1, axis2=2)[:, None, :])
    # classify_quantum(image): r=3, k=3.0, degree=1, commutative
    q = names["classify_quantum"](names["image"])
    assert (q.r, q.k, q.degree, q.commutative) == (3, 3.0, 1, True)
    # to_classical(image): the incidence matrix, up to column order
    back, chi = names["back"].chi.a, fano.chi.a
    assert back.shape == chi.shape and sorted(map(tuple, back.T)) == sorted(map(tuple, chi.T))
    # verify_cp_design(classical_to_cp(fano)): k=3, r=3, lam=1 balanced
    rep = names["verify_cp_design"](names["classical_to_cp"](fano))
    assert (rep.k, rep.r, rep.lam, rep.lam_balanced) == (3.0, 3.0, 1.0, True)
    assert printed == [repr(names["classify"](fano)), repr(q), repr(rep)]


def test_command_block_runs_through_main(tmp_path, monkeypatch, capsys):
    # Each line runs in one directory, a pipe feeding one command's stdout to the
    # next one's stdin; every command must exit 0.  Every classical document the
    # block reads is canonical, so none is parsed into a tree.
    trees = []
    monkeypatch.setattr(catalog, "classical_from_doc",
                        lambda doc, real=catalog.classical_from_doc: trees.append(doc) or real(doc))
    monkeypatch.chdir(tmp_path)
    lines = _block("Command line", "sh").replace("\\\n", " ").splitlines()
    ran = []
    for line in lines:
        piped = ""
        for argv in _pipeline(line):
            assert argv[0] == "designkit", line
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(piped.encode()),
                                                               encoding="utf-8"))
            code = main(argv[1:])
            out, err = capsys.readouterr()
            assert (code, err) == (0, ""), (argv, code, err)
            piped = out
            ran.append(argv[1])
        assert piped or " -o " in line, line  # the last command wrote stdout or a file
    assert len(ran) == 16 and "verify-classical" in ran and trees == []


def test_command_block_argv_take_the_plain_reader():
    # Each argv is read from the parser's table, into argparse's own namespace.
    lines = _block("Command line", "sh").replace("\\\n", " ").splitlines()
    argvs = [argv[1:] for line in lines for argv in _pipeline(line)]
    assert len(argvs) == 16
    for argv in argvs:
        plain = cli._plain_args(argv)
        assert plain is not None, argv
        assert repr(vars(plain)) == repr(vars(cli._PARSER.parse_args(argv))), argv
