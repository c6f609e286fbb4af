"""Command-line front end.

One verb per library operation family; every verb reads JSON documents (see
:mod:`bihom.documents` for the schemas), prints a human-readable report or,
with ``--json``, a machine-readable one, and exits with

* 0 when the requested check or construction succeeded,
* 1 on a semantic failure (an axiom report with violations, a singular
  twist or carrier twist, an invalid input object),
* 2 on unusable input (a file that cannot be read or decoded as JSON,
  schema violations, bad flags, an ``--output`` or a standard stream that
  cannot be written),
* 3 on an internal defect: an identity that the library asserts of its own
  results failed (a ``RuntimeError``), which is a bug in ``bihom`` rather
  than in the input.

Constructive verbs (``subadjacent``, ``semidirect``, ``induced-rep``,
``twist-rep``, ``tensor-rep``, ``push-lie``, and ``o-operator`` /
``rota-baxter`` / ``nijenhuis`` with ``--output``) write the constructed
object as a JSON document to ``--output``, or print it when the flag is
omitted.  Output documents re-verify under the matching ``verify`` verb.
``nijenhuis --output`` writes the trivial deformation of a pre-Lie
algebra only; over a BiHom-Lie algebra it exits 2.

A process pays only for its verb.  A well-formed argv (the verb, its
positionals as one contiguous run, and its long options spelled in full as
``--opt v`` or ``--opt=v``) is read straight from the ``_VERBS`` table,
without argparse; anything else, ``--help`` and every usage error included,
goes to the argparse parser of ``_build_parser``, which alone prints help,
usage and errors.  Each verb imports the modules it runs, so
``bihom.cohomology``, ``bihom.deformation`` and ``bihom.operators`` load only
for their verbs.  :func:`main` ends the process as soon as the report is
flushed, so no interpreter teardown runs after the answer is out.
"""

from __future__ import annotations

import json
import os
import re
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import NoReturn

from .algebra import (
    AxiomError,
    AxiomReport,
    BiHomLieAlgebra,
    BiHomPreLieAlgebra,
    check_bihom_lie,
    check_prelie,
    subadjacent,
)
from .documents import (
    DocumentError,
    _operator_context,
    _operator_matrix,
    algebra_to_doc,
    deformation_from_doc,
    deformation_to_doc,
    dump_json,
    load_algebra,
    load_json,
    load_representation,
    nijenhuis_from_doc,
    rep_to_doc,
    twists_from_doc,
)
from .representation import (
    LieRep,
    PreLieRep,
    adjoint_rep,
    check_prelie_rep,
    induced_lie_rep,
    semidirect_lie,
    semidirect_prelie,
    tensor_rep,
    trivial_rep,
    twist_rep,
)

__all__ = ["main", "run"]


class CliResult:
    """What a verb reports: its name, ``"pass"`` or ``"fail"``, the lines of
    the human-readable report and the extra keys of the ``--json`` one."""

    def __init__(self, command: str, status: str,
                 lines: list[str] | None = None,
                 payload: dict | None = None) -> None:
        self.command, self.status = command, status
        self.lines = [] if lines is None else lines
        self.payload = {} if payload is None else payload


def _styled(text: str, code: str) -> str:
    if sys.stdout.isatty():
        return f"\x1b[{code}m{text}\x1b[0m"
    return text


def _verdict(passed: bool) -> str:
    return _styled("PASS", "32;1") if passed else _styled("FAIL", "31;1")


def _check_result(command: str, label: str, report: AxiomReport,
                  extra_payload: dict | None = None) -> CliResult:
    status = "pass" if report.passed else "fail"
    lines = [f"{label}: {_verdict(report.passed)}"] + report.lines()
    payload = {"report": report.to_json()}
    if extra_payload:
        payload.update(extra_payload)
    return CliResult(command, status, lines, payload)


def _emit_document(result: CliResult, doc: dict, output: str | None) -> CliResult:
    """``result`` with ``doc`` written to ``output``, or printed without it."""
    result.payload["document"] = doc
    if output:
        dump_json(output, doc)
        result.payload["output"] = output
        result.lines.append(f"wrote {output}")
    else:
        result.payload["output"] = None
        result.lines.append(json.dumps(doc, indent=2))
    return result


def _require_prelie(obj, what: str) -> BiHomPreLieAlgebra:
    if not isinstance(obj, BiHomPreLieAlgebra):
        raise DocumentError(f"{what} requires a product (pre-Lie) algebra document")
    return obj


# ---------------------------------------------------------------------------
# verb handlers
# ---------------------------------------------------------------------------

def _cmd_verify(args) -> CliResult:
    obj = load_algebra(args.algebra)
    if isinstance(obj, BiHomPreLieAlgebra):
        return _check_result("verify", "BiHom-pre-Lie", check_prelie(obj),
                             {"kind": "prelie"})
    return _check_result("verify", "BiHom-Lie", check_bihom_lie(obj),
                         {"kind": "lie"})


def _cmd_subadjacent(args) -> CliResult:
    a = _require_prelie(load_algebra(args.algebra), "subadjacent")
    report = check_prelie(a)
    if not report.passed:
        return _check_result("subadjacent", "input BiHom-pre-Lie", report)
    return _emit_document(CliResult(
        "subadjacent", "pass", [f"sub-adjacent bracket of a dim-{a.dim} algebra"]),
        algebra_to_doc(subadjacent(a)), args.output)


def _cmd_semidirect(args) -> CliResult:
    rep = load_representation(args.representation)
    if isinstance(rep, PreLieRep):
        out = semidirect_prelie(rep)
        label = "semidirect BiHom-pre-Lie product"
    else:
        out = semidirect_lie(rep)
        label = "semidirect BiHom-Lie bracket"
    return _emit_document(CliResult(
        "semidirect", "pass", [f"{label} on dim {out.dim}"]),
        algebra_to_doc(out), args.output)


def _cmd_induced_rep(args) -> CliResult:
    rep = load_representation(args.representation)
    if not isinstance(rep, PreLieRep):
        raise DocumentError("induced-rep requires a pre-Lie representation "
                            "document (keys L and R)")
    base = check_prelie(rep.algebra)
    if not base.passed:
        return _check_result("induced-rep", "input BiHom-pre-Lie", base)
    report = check_prelie_rep(rep)
    if not report.passed:
        return _check_result("induced-rep", "input representation", report)
    out = induced_lie_rep(rep, args.variant)
    return _emit_document(CliResult(
        "induced-rep", "pass", [f"induced BiHom-Lie representation ({args.variant})"]),
        rep_to_doc(out), args.output)


def _cmd_twist_rep(args) -> CliResult:
    rep = load_representation(args.representation)
    if not isinstance(rep, PreLieRep):
        raise DocumentError("twist-rep requires a pre-Lie representation document")
    alpha, beta, phi, psi = twists_from_doc(load_json(args.twists), args.twists,
                                            rep.algebra.dim, rep.vdim)
    out = twist_rep(rep, alpha, beta, phi, psi)
    return _emit_document(CliResult("twist-rep", "pass", ["twisted representation"]),
                          rep_to_doc(out), args.output)


def _cmd_tensor_rep(args) -> CliResult:
    rv = load_representation(args.left)
    rw = load_representation(args.right)
    if not (isinstance(rv, PreLieRep) and isinstance(rw, PreLieRep)):
        raise DocumentError("tensor-rep requires two pre-Lie representation "
                            "documents")
    out = tensor_rep(rv, rw)
    return _emit_document(CliResult(
        "tensor-rep", "pass", [f"tensor representation on a dim-{out.vdim} carrier"]),
        rep_to_doc(out), args.output)


def _operator_arg(args, fallback: str | None, load, kind: type, needs: str):
    """The matrix of ``args.operator``, decoded with the shape its context
    fixes, and the ``kind`` of context it acts on: the one its document
    references, else the one at ``fallback``; a context given both ways is
    refused."""
    doc = load_json(args.operator)
    context = _operator_context(doc, Path(args.operator).parent, args.operator)
    if fallback and context is not None:
        key = "representation" if "representation" in doc else "algebra"
        raise DocumentError(f"{args.operator}.{key}: the context is embedded "
                            f"here and given again as {fallback}")
    if fallback:
        context = load(fallback)
    if not isinstance(context, kind):
        raise DocumentError(f"{args.command} needs {needs}, either embedded "
                            "in the operator document or as a second argument")
    return _operator_matrix(doc, args.operator, context), context


def _operator_result(args, label: str, check, build, *operands) -> CliResult:
    """``check(*operands)``'s report.  With ``--output`` only ``build`` runs:
    its construction proves the same hypotheses, and its document is written."""
    if args.output is None:
        return _check_result(args.command, label, check(*operands))
    try:
        doc = build(*operands)
    except AxiomError as exc:
        return _check_result(args.command, label, exc.report)
    return _emit_document(_check_result(args.command, label, AxiomReport(())),
                          doc, args.output)


def _cmd_o_operator(args) -> CliResult:
    from .operators import check_o_operator, induced_prelie_from_o

    matrix, context = _operator_arg(args, args.representation,
                                    load_representation, LieRep,
                                    "a BiHom-Lie representation")
    return _operator_result(
        args, "O-operator", check_o_operator,
        lambda T, r: algebra_to_doc(induced_prelie_from_o(T, r)), matrix, context)


def _cmd_rota_baxter(args) -> CliResult:
    from .operators import check_rota_baxter, rb_induced_prelie

    matrix, context = _operator_arg(args, args.algebra, load_algebra,
                                    BiHomLieAlgebra, "a BiHom-Lie algebra")
    return _operator_result(
        args, "Rota-Baxter (weight 0)", check_rota_baxter,
        lambda R, g: algebra_to_doc(rb_induced_prelie(R, g)), matrix, context)


# matched whole by re.fullmatch, compiled on first use like linalg._RATIONAL
_DEGREES = r"(\d+)(?:\.\.(\d+))?"


def _magnitude(numeral: str) -> tuple[int, str]:
    """A key that orders decimal numerals of any length by value."""
    digits = "".join(str(int(c)) for c in numeral).lstrip("0")
    return len(digits), digits


def _parse_degrees(spec: str, max_degree: int) -> list[int]:
    m = re.fullmatch(_DEGREES, spec)
    if not m:
        raise DocumentError(f"cannot parse degree range {spec!r}; use 'a..b'")
    # compared as numerals and clipped to --max-degree before int() reads
    # them: int() refuses more than 4300 digits
    lo, hi, cap = map(_magnitude, (m.group(1), m.group(2) or m.group(1),
                                   str(max(max_degree, 0))))
    if not lo[0] or hi < lo:
        raise DocumentError(f"degree range {spec!r} is empty or starts below 1")
    if lo > cap:
        raise DocumentError(
            f"degree range {spec!r} lies beyond --max-degree {max_degree}")
    return list(range(int(lo[1]), int(min(hi, cap)[1]) + 1))


def _cmd_cohomology(args) -> CliResult:
    from .cohomology import cohomology_table

    a = _require_prelie(load_algebra(args.algebra), "cohomology")
    base = check_prelie(a)
    if not base.passed:
        return _check_result("cohomology", "input BiHom-pre-Lie", base)
    if args.rep == "adjoint":
        rep = adjoint_rep(a)
    elif args.rep == "trivial":
        rep = trivial_rep(a)
    else:
        rep = load_representation(args.rep)
        if not isinstance(rep, PreLieRep):
            raise DocumentError("cohomology coefficients must form a pre-Lie "
                                "representation")
        if rep.algebra != a:
            raise DocumentError("coefficient representation is over a "
                                "different algebra")
    rep_report = check_prelie_rep(rep)
    if not rep_report.passed:
        return _check_result("cohomology", "coefficient representation",
                             rep_report)
    degrees = _parse_degrees(args.degrees, args.max_degree)
    reports = cohomology_table(a, rep, degrees)
    lines = []
    dims = []
    for r in reports:
        lines.append(f"H^{r.degree} = {r.dimH} (Z={r.dimZ}, B={r.dimB})")
        dims.append({"degree": r.degree, "Z": r.dimZ, "B": r.dimB, "H": r.dimH})
    return CliResult("cohomology", "pass", lines, {"dimensions": dims})


def _cmd_deform_check(args) -> CliResult:
    from .deformation import (check_lie_linear_deformation,
                              check_linear_deformation)

    obj = load_algebra(args.algebra)
    candidate = deformation_from_doc(load_json(args.deformation),
                                     args.deformation, obj.dim)
    if isinstance(obj, BiHomPreLieAlgebra):
        report = check_linear_deformation(obj, candidate)
        label = "linear deformation"
    else:
        report = check_lie_linear_deformation(obj, candidate)
        label = "BiHom-Lie linear deformation"
    return _check_result("deform-check", label, report)


def _cmd_nijenhuis(args) -> CliResult:
    from .deformation import (check_nijenhuis_lie, check_nijenhuis_prelie,
                              nijenhuis_trivial_deformation)

    obj = load_algebra(args.algebra)
    if args.output is not None:
        _require_prelie(obj, "nijenhuis --output")
    matrix = nijenhuis_from_doc(load_json(args.operator), args.operator,
                                obj.dim)
    if isinstance(obj, BiHomLieAlgebra):
        report = check_nijenhuis_lie(obj, matrix)
        return _check_result("nijenhuis", "Nijenhuis (BiHom-Lie)", report)
    return _operator_result(
        args, "Nijenhuis", check_nijenhuis_prelie,
        lambda a, N: deformation_to_doc(
            nijenhuis_trivial_deformation(a, N)[0]), obj, matrix)


def _cmd_equivalence(args) -> CliResult:
    from .deformation import check_equivalence

    a = _require_prelie(load_algebra(args.algebra), "equivalence")
    pi1 = deformation_from_doc(load_json(args.first), args.first, a.dim)
    pi2 = deformation_from_doc(load_json(args.second), args.second, a.dim)
    matrix = nijenhuis_from_doc(load_json(args.operator), args.operator, a.dim)
    report = check_equivalence(a, pi1, pi2, matrix)
    return _check_result("equivalence", "deformation equivalence", report)


def _cmd_push_lie(args) -> CliResult:
    from .deformation import push_deformation_to_lie

    a = _require_prelie(load_algebra(args.algebra), "push-lie")
    candidate = deformation_from_doc(load_json(args.deformation),
                                     args.deformation, a.dim)
    pushed = push_deformation_to_lie(a, candidate)
    return _emit_document(CliResult(
        "push-lie", "pass", ["deformation pushed to the sub-adjacent algebra"]),
        deformation_to_doc(pushed), args.output)


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------

# verb -> (help, whether it takes --output, its arguments as (name, options));
# the handler of verb "a-b" is _cmd_a_b.  _read_argv reads the option keys
# used here (default, choices, type=int, nargs="?"); a new kind of key needs
# its reading there too
_VERBS: dict[str, tuple[str, bool, list[tuple[str, dict]]]] = {
    "verify": ("check every defining axiom of an algebra", False,
               [("algebra", {})]),
    "subadjacent": ("build the sub-adjacent BiHom-Lie algebra", True,
                    [("algebra", {})]),
    "semidirect": ("build the semidirect product defined by a representation",
                   True, [("representation", {})]),
    "induced-rep": ("representation of the sub-adjacent algebra induced by a "
                    "pre-Lie representation", True,
                    [("representation", {}),
                     ("--variant", {"choices": ["full", "l-only"],
                                    "default": "full"})]),
    "twist-rep": ("twist an untwisted representation by a twist bundle", True,
                  [("representation", {}), ("twists", {})]),
    "tensor-rep": ("tensor product of two representations", True,
                   [("left", {}), ("right", {})]),
    "o-operator": ("check an O-operator; --output writes the induced pre-Lie "
                   "algebra", True,
                   [("operator", {}),
                    ("representation", {"nargs": "?", "default": None})]),
    "rota-baxter": ("check a weight-0 Rota-Baxter operator; --output writes "
                    "the induced pre-Lie algebra", True,
                    [("operator", {}),
                     ("algebra", {"nargs": "?", "default": None})]),
    "cohomology": ("cocycle/coboundary/cohomology dimensions per degree", False,
                   [("algebra", {}),
                    ("--rep", {"default": "adjoint",
                               "metavar": "adjoint|trivial|PATH",
                               "help": "coefficient representation "
                                       "(default: adjoint)"}),
                    ("--degrees", {"default": "1..2", "metavar": "a..b",
                                   "help": "degree range (default: 1..2)"}),
                    ("--max-degree", {"type": int, "default": 4,
                                      "help": "hard cap on computed degrees "
                                              "(default: 4)"})]),
    "deform-check": ("check that pi generates a linear deformation", False,
                     [("algebra", {}), ("deformation", {})]),
    "nijenhuis": ("check a Nijenhuis operator; --output writes its trivial "
                  "deformation", True, [("algebra", {}), ("operator", {})]),
    "equivalence": ("check that Id + tN intertwines two linear deformations",
                    False, [("algebra", {}), ("first", {}), ("second", {}),
                            ("operator", {})]),
    "push-lie": ("push a deformation to the sub-adjacent BiHom-Lie algebra",
                 True, [("algebra", {}), ("deformation", {})]),
}


def _read_argv(argv: list[str]) -> SimpleNamespace | None:
    """What ``_build_parser().parse_args(argv)`` returns for a
    well-formed ``argv``, read straight from ``_VERBS``; None for anything
    else.  Read are the verb, its positionals as one contiguous run, and its
    long options spelled in full, as ``--opt v`` or ``--opt=v``, whose value
    is nonempty, does not start with ``-``, is one of the ``choices`` and,
    for an ``int``, is ASCII digits.  Help, abbreviations, ``--``,
    interleaved positionals and every error are left to the parser."""
    if not argv or argv[0] not in _VERBS:
        return None
    verb = argv[0]
    _, outputs, arguments = _VERBS[verb]
    options = {"--json": None}
    if outputs:
        options["--output"] = {}
    options.update(arg for arg in arguments if arg[0].startswith("--"))
    values = {"command": verb, "json": False,
              "handler": globals()["_cmd_" + verb.replace("-", "_")]}
    for name, kwargs in options.items():
        if kwargs is not None:
            values[name[2:].replace("-", "_")] = kwargs.get("default")
    given, end, k = [], 0, 1
    while k < len(argv):
        token = argv[k]
        if token and token[0] != "-":
            if given and k != end:
                return None
            given.append(token)
            k = end = k + 1
            continue
        name, eq, value = token.partition("=")
        if name not in options:
            return None
        kwargs = options[name]
        if kwargs is None:
            if eq:
                return None
            values["json"] = True
            k += 1
            continue
        if not eq:
            if k + 1 == len(argv):
                return None
            value = argv[k + 1]
        k += 1 if eq else 2
        if not value or value[0] == "-" or value not in kwargs.get(
                "choices", (value,)):
            return None
        if kwargs.get("type") is int:
            if not (value.isascii() and value.isdigit()):
                return None
            try:
                value = int(value)
            except ValueError:  # past int()'s limit on digits
                return None
        values[name[2:].replace("-", "_")] = value
    positionals = [(name, kwargs) for name, kwargs in arguments
                   if not name.startswith("--")]
    required = sum("nargs" not in kwargs for _, kwargs in positionals)
    if not required <= len(given) <= len(positionals):
        return None
    for i, (name, kwargs) in enumerate(positionals):
        values[name] = given[i] if i < len(given) else kwargs["default"]
    return SimpleNamespace(**values)


def _build_parser() -> argparse.ArgumentParser:
    """The ``bihom`` parser of every verb, for the argvs that
    :func:`_read_argv` leaves to it: help and usage errors."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="bihom",
        description="Exact checks and constructions for BiHom-pre-Lie and "
                    "BiHom-Lie algebras given by structure constants.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, outputs, arguments) in _VERBS.items():
        p = sub.add_parser(name, help=help_)
        p.add_argument("--json", action="store_true",
                       help="emit a machine-readable report")
        if outputs:
            p.add_argument("--output", metavar="PATH", default=None,
                           help="write the constructed document here")
        for arg, kwargs in arguments:
            p.add_argument(arg, **kwargs)
        p.set_defaults(handler=globals()["_cmd_" + name.replace("-", "_")])
    return parser


def run(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            return 2 if exc.code else 0
    try:
        result = args.handler(args)
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AxiomError as exc:
        result = CliResult(args.command, "fail", [f"{exc}", *exc.report.lines()],
                           {"report": exc.report.to_json(), "message": str(exc)})
    except ValueError as exc:
        result = CliResult(args.command, "fail", [f"{exc}"],
                           {"message": str(exc)})
    except RuntimeError as exc:
        if args.json:
            print(json.dumps({"command": args.command, "status": "error",
                              "message": str(exc)}, indent=2))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 3
    if args.json:
        print(json.dumps({"command": result.command, "status": result.status,
                          **result.payload}, indent=2))
    else:
        for line in result.lines:
            print(line)
    return 0 if result.status == "pass" else 1


def main() -> NoReturn:
    """The process entry point (``python -m bihom.cli`` and the ``bihom``
    console script); it never returns.  It runs the verb of ``sys.argv``,
    flushes both standard streams and ends the process with the verb's exit
    code by ``os._exit``: nothing the verb built is used again, so no
    interpreter teardown runs.  A standard stream that cannot be written,
    such as a pipe whose reader has gone, exits 2; a failed standard output
    is reported on stderr, if stderr can still be written."""
    try:
        code = run()
        sys.stdout.flush()
    except OSError as exc:  # a verb's own file errors exit 2 inside run()
        code = 2
        try:
            print(f"error: cannot write standard output: {exc}", file=sys.stderr)
        except OSError:
            pass
    try:
        sys.stderr.flush()
    except OSError:
        code = 2
    os._exit(code)


if __name__ == "__main__":
    main()
