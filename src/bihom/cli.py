"""Command-line front end.

One verb per library operation family; every verb reads JSON documents (see
:mod:`bihom.documents` for the schemas), prints a human-readable report or,
with ``--json``, a machine-readable one, and exits with

* 0 when the requested check or construction succeeded,
* 1 on a semantic failure (an axiom report with violations, a singular
  twist, an invalid input object),
* 2 on unusable input (malformed JSON, schema violations, bad flags),
* 3 on an internal defect: an identity that the library asserts of its own
  results failed (a ``RuntimeError``), which is a bug in ``bihom`` rather
  than in the input.

Constructive verbs (``subadjacent``, ``semidirect``, ``induced-rep``,
``twist-rep``, ``tensor-rep``, ``push-lie``, and ``o-operator`` /
``rota-baxter`` / ``nijenhuis`` with ``--output``) write the constructed
object as a JSON document to ``--output``, or print it when the flag is
omitted.  Output documents re-verify under the matching ``verify`` verb.

Set ``BIHOM_COLOR=0`` to disable styling.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from pathlib import Path

from . import deformation as deform_mod
from .algebra import (
    AxiomError,
    AxiomReport,
    BiHomLieAlgebra,
    BiHomPreLieAlgebra,
    check_bihom_lie,
    check_prelie,
    subadjacent,
)
from .cohomology import cohomology_table
from .documents import (
    DocumentError,
    _check_shape,
    algebra_to_doc,
    deformation_from_doc,
    deformation_to_doc,
    dump_json,
    load_algebra,
    load_json,
    load_representation,
    nijenhuis_from_doc,
    operator_from_doc,
    rep_to_doc,
    twists_from_doc,
)
from .operators import (
    check_o_operator,
    check_rota_baxter,
    induced_prelie_from_o,
    rb_induced_prelie,
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


def _color_enabled() -> bool:
    if os.environ.get("BIHOM_COLOR", "") == "0":
        return False
    return sys.stdout.isatty()


def _styled(text: str, code: str) -> str:
    if _color_enabled():
        return f"\x1b[{code}m{text}\x1b[0m"
    return text


def _verdict(passed: bool) -> str:
    return _styled("PASS", "32;1") if passed else _styled("FAIL", "31;1")


def _report_lines(report: AxiomReport) -> list[str]:
    lines = []
    for v in report.violations:
        at = ",".join(str(i + 1) for i in v.indices)
        suffix = f" at basis ({at})" if v.indices else ""
        lines.append(f"violation: {v.axiom}{suffix}")
    return lines


def _check_result(command: str, label: str, report: AxiomReport,
                  extra_payload: dict | None = None) -> CliResult:
    status = "pass" if report.passed else "fail"
    lines = [f"{label}: {_verdict(report.passed)}"] + _report_lines(report)
    payload = {"report": report.to_json()}
    if extra_payload:
        payload.update(extra_payload)
    return CliResult(command, status, lines, payload)


def _emit_document(result: CliResult, doc: dict, output: str | None) -> None:
    result.payload["document"] = doc
    if output:
        dump_json(output, doc)
        result.payload["output"] = output
        result.lines.append(f"wrote {output}")
    else:
        result.payload["output"] = None
        result.lines.append(json.dumps(doc, indent=2))


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
    result = CliResult("subadjacent", "pass",
                       [f"sub-adjacent bracket of a dim-{a.dim} algebra"])
    _emit_document(result, algebra_to_doc(subadjacent(a)), args.output)
    return result


def _cmd_semidirect(args) -> CliResult:
    rep = load_representation(args.representation)
    if isinstance(rep, PreLieRep):
        out = semidirect_prelie(rep)
        label = "semidirect BiHom-pre-Lie product"
    else:
        out = semidirect_lie(rep)
        label = "semidirect BiHom-Lie bracket"
    result = CliResult("semidirect", "pass", [f"{label} on dim {out.dim}"])
    _emit_document(result, algebra_to_doc(out), args.output)
    return result


def _cmd_induced_rep(args) -> CliResult:
    rep = load_representation(args.representation)
    if not isinstance(rep, PreLieRep):
        raise DocumentError("induced-rep requires a pre-Lie representation "
                            "document (keys L and R)")
    report = check_prelie_rep(rep)
    if not report.passed:
        return _check_result("induced-rep", "input representation", report)
    out = induced_lie_rep(rep, args.variant)
    result = CliResult("induced-rep", "pass",
                       [f"induced BiHom-Lie representation ({args.variant})"])
    _emit_document(result, rep_to_doc(out), args.output)
    return result


def _cmd_twist_rep(args) -> CliResult:
    rep = load_representation(args.representation)
    if not isinstance(rep, PreLieRep):
        raise DocumentError("twist-rep requires a pre-Lie representation document")
    alpha, beta, phi, psi = twists_from_doc(load_json(args.twists), args.twists,
                                            rep.algebra.dim, rep.vdim)
    out = twist_rep(rep, alpha, beta, phi, psi)
    result = CliResult("twist-rep", "pass", ["twisted representation"])
    _emit_document(result, rep_to_doc(out), args.output)
    return result


def _cmd_tensor_rep(args) -> CliResult:
    rv = load_representation(args.left)
    rw = load_representation(args.right)
    if not (isinstance(rv, PreLieRep) and isinstance(rw, PreLieRep)):
        raise DocumentError("tensor-rep requires two pre-Lie representation "
                            "documents")
    out = tensor_rep(rv, rw)
    result = CliResult("tensor-rep", "pass",
                       [f"tensor representation on a dim-{out.vdim} carrier"])
    _emit_document(result, rep_to_doc(out), args.output)
    return result


def _operator_arg(args, fallback: str | None, load, kind: type, needs: str):
    """The matrix of ``args.operator`` and the ``kind`` of context it acts
    on: the one its document references, else the one at ``fallback``."""
    matrix, context = operator_from_doc(load_json(args.operator),
                                        Path(args.operator).parent,
                                        where=args.operator)
    if context is None and fallback:
        context = load(fallback)
    if not isinstance(context, kind):
        raise DocumentError(f"{args.command} needs {needs}, either embedded "
                            "in the operator document or as a second argument")
    shape = ((context.algebra.dim, context.vdim) if isinstance(context, LieRep)
             else (context.dim, context.dim))
    return _check_shape(matrix, shape, f"{args.operator}.matrix"), context


def _cmd_o_operator(args) -> CliResult:
    matrix, context = _operator_arg(args, args.representation,
                                    load_representation, LieRep,
                                    "a BiHom-Lie representation")
    report = check_o_operator(matrix, context)
    result = _check_result("o-operator", "O-operator", report)
    if report.passed and args.output is not None:
        out = induced_prelie_from_o(matrix, context)
        _emit_document(result, algebra_to_doc(out), args.output)
    return result


def _cmd_rota_baxter(args) -> CliResult:
    matrix, context = _operator_arg(args, args.algebra, load_algebra,
                                    BiHomLieAlgebra, "a BiHom-Lie algebra")
    report = check_rota_baxter(matrix, context)
    result = _check_result("rota-baxter", "Rota-Baxter (weight 0)", report)
    if report.passed and args.output is not None:
        out = rb_induced_prelie(matrix, context)
        _emit_document(result, algebra_to_doc(out), args.output)
    return result


_DEGREES_RE = re.compile(r"^(\d+)(?:\.\.(\d+))?$")


def _magnitude(numeral: str) -> tuple[int, str]:
    """A key that orders decimal numerals of any length by value."""
    digits = "".join(str(int(c)) for c in numeral).lstrip("0")
    return len(digits), digits


def _parse_degrees(spec: str, max_degree: int) -> list[int]:
    m = _DEGREES_RE.match(spec)
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
    obj = load_algebra(args.algebra)
    candidate = deformation_from_doc(load_json(args.deformation),
                                     args.deformation, obj.dim)
    if isinstance(obj, BiHomPreLieAlgebra):
        report = deform_mod.check_linear_deformation(obj, candidate)
        label = "linear deformation"
    else:
        report = deform_mod.check_lie_linear_deformation(obj, candidate)
        label = "BiHom-Lie linear deformation"
    return _check_result("deform-check", label, report)


def _cmd_nijenhuis(args) -> CliResult:
    obj = load_algebra(args.algebra)
    matrix = nijenhuis_from_doc(load_json(args.operator), args.operator,
                                obj.dim)
    if isinstance(obj, BiHomLieAlgebra):
        report = deform_mod.check_nijenhuis_lie(obj, matrix)
        return _check_result("nijenhuis", "Nijenhuis (BiHom-Lie)", report)
    report = deform_mod.check_nijenhuis_prelie(obj, matrix)
    result = _check_result("nijenhuis", "Nijenhuis", report)
    if report.passed and args.output is not None:
        candidate, _ = deform_mod.nijenhuis_trivial_deformation(obj, matrix)
        _emit_document(result, deformation_to_doc(candidate), args.output)
    return result


def _cmd_equivalence(args) -> CliResult:
    a = _require_prelie(load_algebra(args.algebra), "equivalence")
    pi1 = deformation_from_doc(load_json(args.first), args.first, a.dim)
    pi2 = deformation_from_doc(load_json(args.second), args.second, a.dim)
    matrix = nijenhuis_from_doc(load_json(args.operator), args.operator, a.dim)
    report = deform_mod.check_equivalence(a, pi1, pi2, matrix)
    return _check_result("equivalence", "deformation equivalence", report)


def _cmd_push_lie(args) -> CliResult:
    a = _require_prelie(load_algebra(args.algebra), "push-lie")
    candidate = deformation_from_doc(load_json(args.deformation),
                                     args.deformation, a.dim)
    pushed = deform_mod.push_deformation_to_lie(a, candidate)
    result = CliResult("push-lie", "pass",
                       ["deformation pushed to the sub-adjacent algebra"])
    _emit_document(result, deformation_to_doc(pushed), args.output)
    return result


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------

# verb -> (help, whether it takes --output, its arguments as (name, options));
# the handler of verb "a-b" is _cmd_a_b
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


def _build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The ``bihom`` parser.  When ``argv`` starts with a verb, only that
    verb's sub-parser is built, since a process runs one verb; the usage
    lines still list every verb."""
    parser = argparse.ArgumentParser(
        prog="bihom",
        description="Exact checks and constructions for BiHom-pre-Lie and "
                    "BiHom-Lie algebras given by structure constants.")
    verbs = list(_VERBS)
    options = {}
    if argv and argv[0] in _VERBS:
        verbs = [argv[0]]
        # the usage line of a full build; set always, the metavar would also
        # replace "command" in the no-verb and invalid-choice errors
        options["metavar"] = "{" + ",".join(_VERBS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, **options)
    for name in verbs:
        help_, outputs, arguments = _VERBS[name]
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
    parser = _build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        result = args.handler(args)
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AxiomError as exc:
        result = CliResult(args.command, "fail", [f"{exc}"])
        if exc.report is not None:
            result.lines.extend(_report_lines(exc.report))
            result.payload["report"] = exc.report.to_json()
        result.payload["message"] = str(exc)
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


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
