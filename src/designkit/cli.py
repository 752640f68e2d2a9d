"""Command-line front end.

Subcommands: verify-classical, verify-quantum, verify-cpmap, generate,
convert, tensor, dual, search, hom-check, catalog.  ``-`` means stdin or
stdout for FILE arguments.  Exit codes: 0 all checks passed, 1 checks ran
and failed, 2 usage or format error.  Only ``main`` maps exceptions to exit
codes: CheckFailed, a verdict on the object such as "not a block design",
exits 1; any other ValueError or OSError, refused input, exits 2; each
writes one ``error:`` line to stderr.  ``--json`` switches reports from
human-readable lines to canonical design-report/1 documents, which are
byte-identical across runs for identical inputs.

Start-up: ``--version``, ``--help`` and usage errors load no numpy, no
library module and no ``hashlib`` (OpenSSL's ``_hashlib``), which only a
report's input digest needs.  The first request that runs a handler imports
numpy and all five library modules, once per process.  ``catalog`` and
classical-only requests load them all too: ``catalog`` imports the others at
module level, and perfbench/tracing.py reads these names from this module and
needs ``quantum`` and ``cpmaps`` loaded, until it can follow later imports.

Arguments: ``main`` reads an argv in plain form (command words, exact option
strings, each value its own token) from a table built once from the parser's
own actions, so every option, type, choice and default lives only in
``build_parser``.  argparse parses every other argv and prints all help, usage
and errors; the plain reader adds no option and accepts no argv that argparse
would refuse or read differently.
"""

from __future__ import annotations

import argparse
import functools
import operator
import sys

from . import __version__


# Module globals bound once, so that a name rebound after the first request,
# as perfbench/tracing.py does, keeps its binding.
@functools.cache
def _import_library() -> None:
    """Bind the library names that the handlers and ``main`` use."""
    global SCHEMA_REPORT, FormatError, canonical_json, catalog_names, catalog_text, \
        classical_to_doc, dumps, loads, \
        CheckFailed, ClassicalDesign, HomCheck, HomPair, InfeasibleParametersError, \
        check_identities, classify, dual_design, gen_complete, gen_projective_plane, \
        search_designs, tensor_designs, \
        MATRIX, CpMap, functor_q, functor_q_on_hom, is_cp, is_trace_preserving, \
        superop_from_choi, verify_cp_design, \
        DEFAULT_TOL, Tolerance, \
        QuantumDesign, classify_quantum, mub_generate, tensor_q, to_classical, validate
    from .catalog import (
        SCHEMA_REPORT,
        FormatError,
        canonical_json,
        catalog_names,
        catalog_text,
        classical_to_doc,
        dumps,
        loads,
    )
    from .classical import (
        CheckFailed,
        ClassicalDesign,
        HomCheck,
        HomPair,
        InfeasibleParametersError,
        check_identities,
        classify,
        dual as dual_design,
        gen_complete,
        gen_projective_plane,
        search_designs,
        tensor as tensor_designs,
    )
    from .cpmaps import (
        MATRIX,
        CpMap,
        functor_q,
        functor_q_on_hom,
        is_cp,
        is_trace_preserving,
        superop_from_choi,
        verify_cp_design,
    )
    from .linalg import DEFAULT_TOL, Tolerance
    from .quantum import (
        QuantumDesign,
        classify_quantum,
        mub_generate,
        tensor_q,
        to_classical,
        validate,
    )


EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

_DIGEST_SLICE = 1 << 16  # characters hashed per UTF-8 encoding in _digest


def _read_text(path: str) -> str:
    # A file, or stdin's bytes, is read as bytes and decoded once, as strict UTF-8;
    # "\r\n" and a lone "\r" become "\n", as in text mode, and a decode error counts
    # the input's bytes.  So stdin's locale encoding and newline mode play no part.
    # str.replace's search for "\r\n" is slow, so a text with no "\r" skips it.
    if path == "-":
        text = sys.stdin.buffer.read().decode("utf-8")
    else:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def _read_texts(*paths: str) -> list[str]:
    """``_read_text`` of each path, each path read once: stdin named twice gives its text twice."""
    texts = {path: _read_text(path) for path in dict.fromkeys(paths)}
    return [texts[path] for path in paths]


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _digest(text: str) -> str:
    # The sha256 of text's UTF-8 bytes, encoded a slice at a time: each character
    # encodes alone, so no whole-text copy is needed for the same digest.
    import hashlib

    h = hashlib.sha256()
    for lo in range(0, len(text), _DIGEST_SLICE):
        h.update(text[lo : lo + _DIGEST_SLICE].encode("utf-8"))
    return "sha256:" + h.hexdigest()


def _check(name: str, passed: bool, **extra) -> dict:
    entry = {"name": name, "passed": passed}
    entry.update(extra)
    return entry


def _emit(args, command: str, digest: str, subject: dict, parameters: dict,
          checks: list[dict], notes: list[str], **extra) -> int:
    """Write a design-report/1 document as JSON or as lines; return the exit code."""
    passed = all(c["passed"] for c in checks)
    if args.json:
        tol = getattr(args, "tol", DEFAULT_TOL)  # an exact command takes none
        sys.stdout.write(canonical_json({
            "schema": SCHEMA_REPORT,
            "tool": "designkit",
            "tool_version": __version__,
            "command": command,
            "input_digest": digest,
            "tolerance": {"abs_eps": tol.abs_eps, "rel_eps": tol.rel_eps},
            "subject": subject,
            "parameters": parameters,
            "checks": checks,
            "notes": notes,
            "passed": passed,
            **extra,
        }))
    else:
        lines = [f"{command}: {'PASS' if passed else 'FAIL'}"]
        for key, val in sorted(parameters.items()):
            lines.append(f"  {key} = {val!r}")
        for chk in checks:
            verdict = "pass" if chk["passed"] else "FAIL"
            fields = {k: v for k, v in chk.items() if k not in ("name", "passed")}
            suffix = f"  {fields!r}" if fields else ""
            lines.append(f"  [{verdict}] {chk['name']}{suffix}")
        for note in notes:
            lines.append(f"  note: {note}")
        sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK if passed else EXIT_FAIL


def _identity_checks(checks: list[dict], notes: list[str], v, b, k, r, lam, equal) -> None:
    """Append the counting-identity checks under ``equal``, or the note that they were skipped."""
    if k is None or r is None:
        notes.append("counting identities skipped: k or r not classified")
        return
    for idc in check_identities(v, b, k, r, lam, equal):
        checks.append(_check(idc.name, idc.passed, lhs=idc.lhs, rhs=idc.rhs))


def _load_as(text: str, want, what: str):
    obj = loads(text)
    if not isinstance(obj, want):
        raise FormatError(f"expected a {what} document, got {type(obj).__name__}")
    return obj


def cmd_verify_classical(args) -> int:
    text = _read_text(args.file)
    design = _load_as(text, ClassicalDesign, "classical-design/1")
    params = classify(design)
    checks: list[dict] = []
    notes: list[str] = []
    if args.block:
        missing = params.missing
        checks.append(_check("block-design parameters present", not missing, missing=missing))
    _identity_checks(checks, notes, design.v, design.b, params.k, params.r, params.lam,
                     operator.eq)
    return _emit(
        args,
        "verify-classical",
        _digest(text),
        {"type": "classical", "v": design.v, "b": design.b, "zero_one": design.is_zero_one},
        {"k": params.k, "r": params.r, "lambda": params.lam, "symmetric": params.symmetric},
        checks,
        notes,
    )


def cmd_verify_quantum(args) -> int:
    text = _read_text(args.file)
    design = _load_as(text, QuantumDesign, "quantum-design/1")
    rep = validate(design, args.tol)
    checks = [
        _check(f"projector {chk.index} is an orthogonal projector", chk.ok, index=chk.index,
               hermiticity_residual=chk.hermiticity_residual,
               idempotency_residual=chk.idempotency_residual)
        for chk in rep.checks
    ]
    notes: list[str] = []
    parameters: dict = {"v": design.v, "b": design.b}
    if rep.ok:
        try:
            params = classify_quantum(design, args.tol)
        except CheckFailed as exc:
            checks.append(_check("pairwise traces are real", False, error=str(exc)))
        else:
            parameters.update(
                {
                    "r": params.r,
                    "k": params.k,
                    "degree": params.degree,
                    "trace_values": list(params.lam_set),
                    "commutative": params.commutative,
                }
            )
            # A float r keeps r*v a float, as the real-valued reading of the family.
            r = None if params.r is None else float(params.r)
            _identity_checks(checks, notes, design.v, design.b, params.k, r, params.lam,
                             args.tol.close)
    return _emit(
        args,
        "verify-quantum",
        _digest(text),
        {"type": "quantum", "v": design.v, "b": design.b},
        parameters,
        checks,
        notes,
    )


def _cp_reading(rep) -> dict:
    return {
        "k": rep.k,
        "r": rep.r,
        "uniformity_residual": rep.uniformity_residual,
        "regularity_residual": rep.regularity_residual,
        "lambda": rep.lam,
        "lambda_residual": rep.lam_residual,
        "lambda_balanced": rep.lam_balanced,
    }


def cmd_verify_cpmap(args) -> int:
    text = _read_text(args.file)
    f = _load_as(text, CpMap, "cp-map/1")
    cp = is_cp(f, args.tol)
    tp = is_trace_preserving(f, args.tol)
    rep = verify_cp_design(f, args.tol)
    checks = [
        _check(
            "completely positive (Choi PSD)",
            cp.is_cp,
            min_choi_eigenvalue=cp.min_eigenvalue,
            choi_hermitian=cp.hermitian,
        ),
        _check(
            "uniformity constant k found",
            rep.k is not None,
            residual=rep.uniformity_residual,
        ),
        _check(
            "regularity constant r found",
            rep.r is not None,
            residual=rep.regularity_residual,
        ),
    ]
    parameters = {
        "in": {"kind": f.in_alg.kind, "n": f.in_alg.n},
        "out": {"kind": f.out_alg.kind, "n": f.out_alg.n},
        "trace_preserving": tp,
        "superoperator_reading": _cp_reading(rep),
    }
    notes = [
        "lambda balance is reported, not asserted; lambda_balanced is true "
        "only when the residual is at most abs_eps"
    ]
    if (
        f.in_alg.kind == MATRIX
        and f.out_alg.kind == MATRIX
        and f.in_alg.n == f.out_alg.n
    ):
        alt = verify_cp_design(superop_from_choi(f.m, f.in_alg.n, f.out_alg.n), args.tol)
        parameters["choi_reading"] = _cp_reading(alt)
        notes.append("choi_reading reinterprets the same matrix as a Choi matrix")
    return _emit(
        args,
        "verify-cpmap",
        _digest(text),
        {"type": "cp-map"},
        parameters,
        checks,
        notes,
    )


def cmd_generate(args) -> int:
    if args.kind == "projective-plane":
        obj = gen_projective_plane(args.order)
    elif args.kind == "complete":
        obj = gen_complete(args.v, args.k)
    else:
        obj = mub_generate(args.dim, args.count).design
    _write_text(args.output, dumps(obj))
    return EXIT_OK


def _refuse_tolerance(args, operation: str) -> None:
    """An exact operation of a command that takes a tolerance refuses an explicit one."""
    if args.abs_eps is not None or args.rel_eps is not None:
        raise ValueError(f"{operation} is exact and takes no --abs-eps or --rel-eps")


def cmd_convert(args) -> int:
    if args.direction == "c2q":
        _refuse_tolerance(args, "convert c2q")
        out = functor_q(_load_as(_read_text(args.file), ClassicalDesign, "classical-design/1"))
    else:
        out = to_classical(_load_as(_read_text(args.file), QuantumDesign, "quantum-design/1"),
                           args.tol)
    _write_text(args.output, dumps(out))
    return EXIT_OK


def cmd_tensor(args) -> int:
    a, b = map(loads, _read_texts(args.file1, args.file2))
    if isinstance(a, ClassicalDesign) and isinstance(b, ClassicalDesign):
        _refuse_tolerance(args, "classical tensor")
        out = tensor_designs(a, b)
    elif isinstance(a, QuantumDesign) and isinstance(b, QuantumDesign):
        out = tensor_q(a, b, args.tol)
    else:
        raise FormatError(
            f"tensor operands must both be classical or both quantum, "
            f"got {type(a).__name__} and {type(b).__name__}"
        )
    _write_text(args.output, dumps(out))
    return EXIT_OK


def cmd_dual(args) -> int:
    design = _load_as(_read_text(args.file), ClassicalDesign, "classical-design/1")
    _write_text(args.output, dumps(dual_design(design)))
    return EXIT_OK


def cmd_search(args) -> int:
    if args.limit is not None and args.limit < 1:
        raise ValueError(f"--limit must be at least 1, got {args.limit}")
    request = {
        "v": args.v,
        "b": args.b,
        "k": args.k,
        "r": args.r,
        "lambda": args.lam,
        "limit": args.limit,
        "canonical": args.canonical,
    }
    try:
        found = search_designs(
            args.v, args.b, args.k, args.r, args.lam,
            limit=args.limit, canonical_only=args.canonical,
        )
    except InfeasibleParametersError as exc:
        if not args.json:
            print(f"search: FAIL ({exc})")
            return EXIT_FAIL
        found = []
        checks = [_check("parameters feasible", False, error=str(exc))]
    else:
        checks = [
            _check("parameters feasible", True),
            _check("at least one design found", bool(found), found=len(found)),
        ]
    if args.json:
        return _emit(
            args,
            "search",
            _digest(canonical_json(request)),
            {"type": "search", **request},
            {"found": len(found)},
            checks,
            [],
            designs=[classical_to_doc(d)["incidence"] for d in found],
        )
    print(f"search: found {len(found)} design(s)")
    for idx, d in enumerate(found):
        print(f"design {idx}:")
        for row in d.chi.tolist():
            print("  " + " ".join(str(x) for x in row))
    return EXIT_OK if found else EXIT_FAIL


def _parse_map(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split())
    except ValueError:
        raise FormatError(f"{what}: expected space-separated integers, got {text!r}") from None


def cmd_hom_check(args) -> int:
    src_text, dst_text = _read_texts(args.src, args.dst)
    src = _load_as(src_text, ClassicalDesign, "classical-design/1")
    dst = _load_as(dst_text, ClassicalDesign, "classical-design/1")
    hom = HomPair(f_v=_parse_map(args.fv, "--fv"), f_b=_parse_map(args.fb, "--fb"))
    try:
        lift, result = functor_q_on_hom(src, dst, hom), HomCheck(ok=True)
    except CheckFailed as exc:
        lift, result = None, exc.witness
    checks = [
        _check(
            "homomorphism square",
            result.ok,
            cell=list(result.cell) if result.cell is not None else None,
            lhs=result.lhs,
            rhs=result.rhs,
        )
    ]
    parameters: dict = {
        "src": {"v": src.v, "b": src.b},
        "dst": {"v": dst.v, "b": dst.b},
        "f_v": list(hom.f_v),
        "f_b": list(hom.f_b),
    }
    notes = ["indices are 0-based"]
    if lift is not None:
        parameters["lift_residuals"] = {
            "hom": lift.hom_residual,
            "embedding": lift.embedding_residual,
            "outer": lift.outer_residual,
            "all_within_tolerance": lift.ok,
        }
        notes.append(
            "lift_residuals.outer is nonzero for non-injective block maps; informational"
        )
    return _emit(
        args,
        "hom-check",
        _digest(src_text) + "+" + _digest(dst_text),
        {"type": "hom"},
        parameters,
        checks,
        notes,
    )


def cmd_catalog(args) -> int:
    if args.list and args.name is not None:
        raise ValueError(f"catalog takes a NAME or --list, not both (got {args.name!r})")
    if args.name is None:
        text = "".join(f"{name}\n" for name in catalog_names())
    else:
        text = catalog_text(args.name)
    _write_text(args.output, text)
    return EXIT_OK


def _add_tol_args(p: argparse.ArgumentParser) -> None:
    # None when not given, so that an exact operation can refuse an explicit value.
    p.add_argument("--abs-eps", type=float, default=None,
                   help="absolute comparison slack (default 1e-9)")
    p.add_argument("--rel-eps", type=float, default=None,
                   help="relative comparison slack (default 1e-9)")


def _add_json_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true",
                   help="emit a canonical design-report/1 document")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="designkit",
        description="Verify, generate, convert, and search classical and "
        "quantum block designs. FILE arguments accept '-' for stdin/stdout.",
    )
    parser.add_argument("--version", action="version", version=f"designkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-classical", help="classify and check counting identities")
    p.add_argument("file")
    p.add_argument("--block", action="store_true",
                   help="require k, r and lambda to be present")
    _add_json_arg(p)
    p.set_defaults(handler=cmd_verify_classical)

    p = sub.add_parser("verify-quantum", help="validate projectors and classify")
    p.add_argument("file")
    _add_tol_args(p)
    _add_json_arg(p)
    p.set_defaults(handler=cmd_verify_quantum)

    p = sub.add_parser("verify-cpmap", help="CP / trace-preservation / design conditions")
    p.add_argument("file")
    _add_tol_args(p)
    _add_json_arg(p)
    p.set_defaults(handler=cmd_verify_cpmap)

    p = sub.add_parser("generate", help="emit a design document")
    gsub = p.add_subparsers(dest="kind", required=True)
    g = gsub.add_parser("projective-plane", help="projective plane of prime order")
    g.add_argument("--order", type=int, required=True)
    g.add_argument("-o", "--output", default=None)
    g.set_defaults(handler=cmd_generate)
    g = gsub.add_parser("complete", help="all k-subsets of v points")
    g.add_argument("--v", type=int, required=True)
    g.add_argument("--k", type=int, required=True)
    g.add_argument("-o", "--output", default=None)
    g.set_defaults(handler=cmd_generate)
    g = gsub.add_parser("mub", help="mutually unbiased bases as projectors")
    g.add_argument("--dim", type=int, required=True, help="prime dimension")
    g.add_argument("--count", type=int, required=True, help="number of bases")
    g.add_argument("-o", "--output", default=None)
    g.set_defaults(handler=cmd_generate)

    p = sub.add_parser("convert", help="classical <-> quantum design")
    p.add_argument("direction", choices=["c2q", "q2c"])
    p.add_argument("file")
    p.add_argument("-o", "--output", default=None)
    _add_tol_args(p)
    p.set_defaults(handler=cmd_convert)

    p = sub.add_parser("tensor", help="tensor two designs of the same kind")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("-o", "--output", default=None)
    _add_tol_args(p)
    p.set_defaults(handler=cmd_tensor)

    p = sub.add_parser("dual", help="transpose a classical design")
    p.add_argument("file")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(handler=cmd_dual)

    p = sub.add_parser("search", help="enumerate 0/1 designs with given parameters")
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--canonical", action="store_true",
                   help="one representative per column ordering")
    _add_json_arg(p)
    p.set_defaults(handler=cmd_search)

    p = sub.add_parser("hom-check", help="verify a design homomorphism pair")
    p.add_argument("src")
    p.add_argument("dst")
    p.add_argument("--fv", required=True, help="point images, 0-based, space-separated")
    p.add_argument("--fb", required=True, help="block images, 0-based, space-separated")
    _add_json_arg(p)
    p.set_defaults(handler=cmd_hom_check)

    p = sub.add_parser("catalog", help="print a bundled catalog entry")
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--list", action="store_true")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(handler=cmd_catalog)

    return parser


# parse_args makes a fresh namespace on every call, so one parser serves all.
_PARSER = build_parser()


def _plain_forms(parser: argparse.ArgumentParser, defaults: dict):
    """What argv may hold below ``parser``, read from its own actions.

    A parser with subcommands gives a dict of command word -> form; any other
    gives (positionals, required positional count, option string -> action,
    namespace defaults, required options), or None for a shape the plain reader
    leaves to argparse.  ``defaults`` are the names the levels above set, merged
    as argparse merges a subcommand's namespace into its parent's.  Only store
    and store-const actions enter the option map, so -h/--help, --version and
    any other kind of action, when given, are left to argparse.
    """
    level: dict = {}
    positionals, options, required, words = [], {}, [], None
    for action in parser._actions:
        if action.dest is not argparse.SUPPRESS and action.default is not argparse.SUPPRESS:
            level.setdefault(action.dest, action.default)
        if isinstance(action, argparse._SubParsersAction):
            words = action
        elif not action.option_strings:
            positionals.append(action)
        elif (isinstance(action, (argparse._StoreAction, argparse._StoreConstAction))
              and action.nargs in (None, 0)):
            options.update(dict.fromkeys(action.option_strings, action))
            if action.required:
                required.append(action)
        elif action.required:
            return None
    for dest, value in parser._defaults.items():
        level.setdefault(dest, value)
    defaults = {**defaults, **level}
    if words is not None:
        if positionals or required:
            return None
        return {word: _plain_forms(sub, {**defaults, words.dest: word})
                for word, sub in words.choices.items()}
    # Required positionals, or one optional one: argparse can match a "?" after a
    # required positional to nothing when an option follows, so leave that to it.
    nargs = [a.nargs for a in positionals]
    if nargs != ["?"] and any(n is not None for n in nargs):
        return None
    return positionals, nargs.count(None), options, defaults, required


# The plain reader's table.  It relies on argparse's private _actions, _defaults,
# _SubParsersAction, _StoreAction and _StoreConstAction.
_PLAIN = _plain_forms(_PARSER, {})


def _plain_value(action: argparse.Action, token: str):
    """``token`` converted and checked as argparse does; ValueError if it refuses it."""
    if token[:1] == "-" and token != "-":
        raise ValueError(token)  # an option, or a negative number: argparse's call
    value = token if action.type is None else action.type(token)
    if action.choices is not None and value not in action.choices:
        raise ValueError(token)
    return value


def _plain_args(argv: list[str]) -> argparse.Namespace | None:
    """The namespace argparse would make of a plain argv, or None to let it parse.

    Plain means command words, exact option strings, each value its own token
    that does not start with "-" (bar "-" itself), and the exact positional count.
    Help, abbreviations, "--opt=value", "-oFILE", "--", negative numbers, and
    unknown options or bad values all return None, so that argparse reads them
    and prints its usual help, usage and errors.
    """
    form, i, n = _PLAIN, 0, len(argv)
    given, seen = [], set()
    try:
        while isinstance(form, dict):
            if i == n:
                return None
            form = form.get(argv[i])
            i += 1
        if form is None:
            return None
        positionals, least, options, defaults, required = form
        values = dict(defaults)
        while i < n:
            token = argv[i]
            i += 1
            if token[:1] != "-" or token == "-":
                given.append(token)
                continue
            action = options.get(token)
            if action is None or (action.nargs is None and i == n):
                return None
            seen.add(action)
            if action.nargs == 0:
                values[action.dest] = action.const
            else:
                values[action.dest] = _plain_value(action, argv[i])
                i += 1  # a repeated option keeps its last value, as in argparse
        if not least <= len(given) <= len(positionals):
            return None
        for action, token in zip(positionals, given):
            values[action.dest] = _plain_value(action, token)
    except (TypeError, ValueError, argparse.ArgumentTypeError):
        return None
    if not seen.issuperset(required):
        return None
    return argparse.Namespace(**values)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_args(argv)
    if args is None:
        try:
            args = _PARSER.parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    _import_library()
    try:
        if hasattr(args, "abs_eps"):
            args.tol = Tolerance(
                abs_eps=DEFAULT_TOL.abs_eps if args.abs_eps is None else args.abs_eps,
                rel_eps=DEFAULT_TOL.rel_eps if args.rel_eps is None else args.rel_eps,
            )
        return args.handler(args)
    except CheckFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (OSError, ValueError) as exc:  # FormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
