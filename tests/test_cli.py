import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from bihom import (BiHomPreLieAlgebra, BilinearProduct, Matrix, TwistPair,
                   adjoint_lie_rep, adjoint_rep, induced_lie_rep, subadjacent)
from bihom import cli
from bihom.cli import run
from bihom.documents import (
    algebra_to_doc,
    deformation_to_doc,
    dump_json,
    load_algebra,
    rep_to_doc,
)

from catalog import (
    dim2_abelian,
    dim2_nilpotent,
    dim3_graded,
    tensor,
)

Q = Fraction


@pytest.fixture
def nilpotent_file(tmp_path):
    path = tmp_path / "nilpotent.json"
    dump_json(path, algebra_to_doc(dim2_nilpotent(2, 3)))
    return path


@pytest.fixture
def abelian_file(tmp_path):
    path = tmp_path / "abelian.json"
    dump_json(path, algebra_to_doc(dim2_abelian()))
    return path


def run_lines(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


class TestVerify:
    def test_prelie_pass(self, capsys, nilpotent_file):
        code, out = run_lines(capsys, ["verify", str(nilpotent_file)])
        assert code == 0
        assert "BiHom-pre-Lie: PASS" in out

    def test_lie_pass(self, capsys, tmp_path, nilpotent_file):
        lie_path = tmp_path / "lie.json"
        dump_json(lie_path, algebra_to_doc(subadjacent(dim2_nilpotent(2, 3))))
        code, out = run_lines(capsys, ["verify", str(lie_path)])
        assert code == 0
        assert "BiHom-Lie: PASS" in out

    def test_non_commuting_twists_fail(self, capsys, tmp_path):
        doc = {
            "dim": 2,
            "product": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
            "alpha": [[1, 1], [0, 1]],
            "beta": [[1, 0], [1, 1]],
        }
        path = tmp_path / "bad.json"
        dump_json(path, doc)
        code, out = run_lines(capsys, ["verify", str(path)])
        assert code == 1
        assert "alpha-beta-commutation" in out

    def test_singular_twist_is_semantic_failure(self, capsys, tmp_path):
        doc = {
            "dim": 1, "product": [[[0]]],
            "alpha": [[0]], "beta": [[1]],
        }
        path = tmp_path / "singular.json"
        dump_json(path, doc)
        code, out = run_lines(capsys, ["verify", str(path)])
        assert code == 1

    def test_malformed_json_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run(["verify", str(path)]) == 2

    def test_zero_denominator_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "zero.json"
        dump_json(path, {"dim": 1, "product": [[["1/0"]]],
                         "alpha": [[1]], "beta": [[1]]})
        assert run(["verify", str(path)]) == 2
        assert f"{path}.product" in capsys.readouterr().err

    def test_self_referencing_path_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "loop.json"
        path.write_text('"loop.json"')
        assert run(["verify", str(path)]) == 2
        assert "path reference cycle" in capsys.readouterr().err

    @pytest.mark.parametrize("tensor", [[1], [["1"]]])
    def test_tensor_that_is_not_nested_arrays_is_input_error(
            self, capsys, tmp_path, tensor):
        path = tmp_path / "flat.json"
        dump_json(path, {"dim": 1, "product": tensor,
                         "alpha": [[1]], "beta": [[1]]})
        assert run(["verify", str(path)]) == 2
        assert f"{path}.product" in capsys.readouterr().err

    def test_missing_key_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "incomplete.json"
        dump_json(path, {"dim": 1, "alpha": [[1]], "beta": [[1]]})
        assert run(["verify", str(path)]) == 2

    def test_json_report_schema(self, capsys, nilpotent_file):
        code, out = run_lines(capsys, ["verify", str(nilpotent_file), "--json"])
        assert code == 0
        assert json.loads(out) == {
            "command": "verify",
            "status": "pass",
            "kind": "prelie",
            "report": {"passed": True, "violations": []},
        }

    def test_no_ansi_codes_in_output(self, capsys, nilpotent_file,
                                     monkeypatch):
        monkeypatch.setenv("BIHOM_COLOR", "0")
        code, out = run_lines(capsys, ["verify", str(nilpotent_file)])
        assert "\x1b[" not in out


class TestCohomology:
    def test_abelian_dimensions(self, capsys, abelian_file):
        code, out = run_lines(capsys, [
            "cohomology", str(abelian_file), "--rep", "adjoint",
            "--degrees", "1..2"])
        assert code == 0
        assert "H^1 = 4" in out
        assert "H^2 = 8" in out

    def test_json_golden(self, capsys, nilpotent_file):
        code, out = run_lines(capsys, [
            "cohomology", str(nilpotent_file), "--degrees", "1", "--json"])
        assert code == 0
        assert json.loads(out) == {
            "command": "cohomology",
            "status": "pass",
            "dimensions": [{"degree": 1, "Z": 1, "B": 0, "H": 1}],
        }

    def test_trivial_rep_selection(self, capsys, abelian_file):
        code, out = run_lines(capsys, [
            "cohomology", str(abelian_file), "--rep", "trivial",
            "--degrees", "1"])
        assert code == 0
        assert "H^1 = 2" in out

    def test_rep_from_file(self, capsys, tmp_path, nilpotent_file):
        rep = adjoint_rep(dim2_nilpotent(2, 3))
        rep_path = tmp_path / "rep.json"
        dump_json(rep_path, rep_to_doc(rep))
        code, out = run_lines(capsys, [
            "cohomology", str(nilpotent_file), "--rep", str(rep_path),
            "--degrees", "1"])
        assert code == 0

    def test_max_degree_cap(self, capsys, abelian_file):
        assert run(["cohomology", str(abelian_file),
                    "--degrees", "5..6"]) == 2

    def test_bad_range(self, capsys, abelian_file):
        assert run(["cohomology", str(abelian_file),
                    "--degrees", "x..y"]) == 2

    @pytest.mark.parametrize("degrees, message", [
        ("5..6", "lies beyond --max-degree 4"),
        ("0..2", "is empty or starts below 1"),
        ("3..2", "is empty or starts below 1"),
    ])
    def test_range_messages(self, capsys, abelian_file, degrees, message):
        assert run(["cohomology", str(abelian_file), "--degrees", degrees]) == 2
        assert capsys.readouterr().err == (
            f"error: degree range {degrees!r} {message}\n")

    def test_huge_upper_bound_is_clipped_before_the_walk(self, abelian_file):
        # walking 1..10^12 before applying --max-degree would take hours, so
        # each run is a process with a time limit
        env = dict(os.environ, BIHOM_COLOR="0",
                   PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent))

        def cohomology(degrees):
            return subprocess.run(
                [sys.executable, "-m", "bihom.cli", "cohomology",
                 str(abelian_file), "--degrees", degrees, "--json"],
                env=env, capture_output=True, text=True, timeout=60)

        huge, capped = cohomology("1..1000000000000"), cohomology("1..4")
        assert huge.returncode == capped.returncode == 0
        assert huge.stdout == capped.stdout and huge.stderr == ""
        assert [d["degree"] for d in json.loads(huge.stdout)["dimensions"]] == [
            1, 2, 3, 4]
        beyond = cohomology("5..1000000000000")
        assert beyond.returncode == 2 and beyond.stdout == ""
        assert beyond.stderr == ("error: degree range '5..1000000000000' lies "
                                 "beyond --max-degree 4\n")

    def test_bounds_past_the_int_digit_limit(self, capsys, abelian_file):
        # int() refuses strings of more than 4300 digits
        huge = "9" * 5000
        assert run(["cohomology", str(abelian_file), "--degrees", "1..4"]) == 0
        capped = capsys.readouterr()
        assert run(["cohomology", str(abelian_file), "--degrees",
                    f"1..{huge}"]) == 0
        assert capsys.readouterr() == capped
        assert run(["cohomology", str(abelian_file), "--degrees",
                    f"{huge}..{huge}"]) == 2
        assert capsys.readouterr() == (
            "", f"error: degree range '{huge}..{huge}' lies beyond "
                "--max-degree 4\n")


class TestConstructiveVerbs:
    def test_subadjacent_round_trip(self, capsys, tmp_path, nilpotent_file):
        out_path = tmp_path / "lie.json"
        code, _ = run_lines(capsys, ["subadjacent", str(nilpotent_file),
                                     "--output", str(out_path)])
        assert code == 0
        assert load_algebra(out_path) == subadjacent(dim2_nilpotent(2, 3))
        code, out = run_lines(capsys, ["verify", str(out_path)])
        assert code == 0 and "BiHom-Lie: PASS" in out

    def test_semidirect_round_trip(self, capsys, tmp_path):
        rep = adjoint_rep(dim2_nilpotent(2, 3))
        rep_path = tmp_path / "rep.json"
        dump_json(rep_path, rep_to_doc(rep))
        out_path = tmp_path / "semidirect.json"
        code, _ = run_lines(capsys, ["semidirect", str(rep_path),
                                     "--output", str(out_path)])
        assert code == 0
        code, out = run_lines(capsys, ["verify", str(out_path)])
        assert code == 0 and "BiHom-pre-Lie: PASS" in out

    def test_semidirect_lie_dispatch(self, capsys, tmp_path):
        rep = adjoint_lie_rep(subadjacent(dim2_nilpotent(2, 3)))
        rep_path = tmp_path / "lierep.json"
        dump_json(rep_path, rep_to_doc(rep))
        out_path = tmp_path / "out.json"
        code, _ = run_lines(capsys, ["semidirect", str(rep_path),
                                     "--output", str(out_path)])
        assert code == 0
        code, out = run_lines(capsys, ["verify", str(out_path)])
        assert code == 0 and "BiHom-Lie: PASS" in out

    def test_induced_rep_and_verify(self, capsys, tmp_path):
        rep = adjoint_rep(dim3_graded(2, 2, 3))
        rep_path = tmp_path / "rep.json"
        dump_json(rep_path, rep_to_doc(rep))
        for variant in ("full", "l-only"):
            out_path = tmp_path / f"induced-{variant}.json"
            code, _ = run_lines(capsys, ["induced-rep", str(rep_path),
                                         "--variant", variant,
                                         "--output", str(out_path)])
            assert code == 0
            doc = json.loads(out_path.read_text())
            assert "rho" in doc

    def test_twist_rep_verb(self, capsys, tmp_path):
        rep = adjoint_rep(dim2_nilpotent())
        rep_path = tmp_path / "rep.json"
        dump_json(rep_path, rep_to_doc(rep))
        twists_path = tmp_path / "twists.json"
        dump_json(twists_path, {
            "alpha": [[2, 0], [0, 4]], "beta": [[3, 0], [0, 9]],
            "phi": [[2, 0], [0, 4]], "psi": [[3, 0], [0, 9]]})
        out_path = tmp_path / "twisted.json"
        code, _ = run_lines(capsys, ["twist-rep", str(rep_path),
                                     str(twists_path), "--output",
                                     str(out_path)])
        assert code == 0

    def test_twist_rep_bad_hypotheses(self, capsys, tmp_path):
        rep = adjoint_rep(dim2_nilpotent())
        rep_path = tmp_path / "rep.json"
        dump_json(rep_path, rep_to_doc(rep))
        twists_path = tmp_path / "twists.json"
        dump_json(twists_path, {
            "alpha": [[2, 0], [0, 5]], "beta": [[3, 0], [0, 9]],
            "phi": [[2, 0], [0, 5]], "psi": [[3, 0], [0, 9]]})
        code, out = run_lines(capsys, ["twist-rep", str(rep_path),
                                       str(twists_path)])
        assert code == 1
        assert "alpha-multiplicative" in out

    def test_tensor_rep_verb(self, capsys, tmp_path):
        rep = adjoint_rep(dim2_nilpotent(2, 3))
        rep_path = tmp_path / "rep.json"
        dump_json(rep_path, rep_to_doc(rep))
        out_path = tmp_path / "tensor.json"
        code, _ = run_lines(capsys, ["tensor-rep", str(rep_path),
                                     str(rep_path), "--output",
                                     str(out_path)])
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["vdim"] == 4

    def test_document_printed_without_output_flag(self, capsys,
                                                  nilpotent_file):
        code, out = run_lines(capsys, ["subadjacent", str(nilpotent_file)])
        assert code == 0
        assert '"bracket"' in out


class TestOperatorVerbs:
    def test_o_operator_pass_and_construct(self, capsys, tmp_path):
        alg = dim3_graded(2, 2, 3)
        rep = induced_lie_rep(adjoint_rep(alg), "l-only")
        rep_path = tmp_path / "rep.json"
        dump_json(rep_path, rep_to_doc(rep))
        op_path = tmp_path / "op.json"
        dump_json(op_path, {"matrix": Matrix.identity(3).to_json()})
        out_path = tmp_path / "induced.json"
        code, out = run_lines(capsys, ["o-operator", str(op_path),
                                       str(rep_path), "--output",
                                       str(out_path)])
        assert code == 0 and "PASS" in out
        assert load_algebra(out_path) == alg

    def test_o_operator_embedded_rep(self, capsys, tmp_path):
        alg = dim2_nilpotent(2, 3)
        rep = induced_lie_rep(adjoint_rep(alg), "l-only")
        op_path = tmp_path / "op.json"
        dump_json(op_path, {"matrix": Matrix.zeros(2, 2).to_json(),
                            "representation": rep_to_doc(rep)})
        code, out = run_lines(capsys, ["o-operator", str(op_path)])
        assert code == 0

    def test_o_operator_failure_exit_code(self, capsys, tmp_path):
        glie = subadjacent(dim3_graded(2))
        rep = adjoint_lie_rep(glie)
        rep_path = tmp_path / "rep.json"
        dump_json(rep_path, rep_to_doc(rep))
        op_path = tmp_path / "op.json"
        dump_json(op_path, {"matrix": Matrix.identity(3).to_json()})
        code, out = run_lines(capsys, ["o-operator", str(op_path),
                                       str(rep_path)])
        assert code == 1 and "FAIL" in out

    def test_rota_baxter_pass(self, capsys, tmp_path):
        glie = subadjacent(dim2_nilpotent(2, 3))
        alg_path = tmp_path / "lie.json"
        dump_json(alg_path, algebra_to_doc(glie))
        op_path = tmp_path / "op.json"
        dump_json(op_path, {"matrix": Matrix.zeros(2, 2).to_json()})
        out_path = tmp_path / "rb.json"
        code, out = run_lines(capsys, ["rota-baxter", str(op_path),
                                       str(alg_path), "--output",
                                       str(out_path)])
        assert code == 0
        code, out = run_lines(capsys, ["verify", str(out_path)])
        assert code == 0

    def test_missing_context_is_input_error(self, capsys, tmp_path):
        op_path = tmp_path / "op.json"
        dump_json(op_path, {"matrix": [[0]]})
        assert run(["o-operator", str(op_path)]) == 2
        assert run(["rota-baxter", str(op_path)]) == 2


class TestDeformationVerbs:
    def test_deform_check_pass(self, capsys, tmp_path, nilpotent_file):
        pi_path = tmp_path / "pi.json"
        dump_json(pi_path, deformation_to_doc(BilinearProduct.zero(2)))
        code, out = run_lines(capsys, ["deform-check", str(nilpotent_file),
                                       str(pi_path)])
        assert code == 0

    def test_deform_check_flat_tensor_is_input_error(self, capsys, tmp_path,
                                                     nilpotent_file):
        pi_path = tmp_path / "pi.json"
        dump_json(pi_path, {"pi": [0]})
        assert run(["deform-check", str(nilpotent_file), str(pi_path)]) == 2
        assert f"{pi_path}.pi" in capsys.readouterr().err

    def test_deform_check_fail(self, capsys, tmp_path, nilpotent_file):
        pi_path = tmp_path / "pi.json"
        dump_json(pi_path, {"pi": tensor(2, {(1, 1, 0): 1}).to_json()})
        code, out = run_lines(capsys, ["deform-check", str(nilpotent_file),
                                       str(pi_path)])
        assert code == 1

    def test_nijenhuis_with_output_and_recheck(self, capsys, tmp_path,
                                               nilpotent_file):
        n_path = tmp_path / "n.json"
        dump_json(n_path, {"N": [[1, 0], [0, 1]]})
        out_path = tmp_path / "pi.json"
        code, out = run_lines(capsys, ["nijenhuis", str(nilpotent_file),
                                       str(n_path), "--output",
                                       str(out_path)])
        assert code == 0
        code, out = run_lines(capsys, ["deform-check", str(nilpotent_file),
                                       str(out_path)])
        assert code == 0

    def test_nijenhuis_lie_dispatch(self, capsys, tmp_path):
        glie = subadjacent(dim2_nilpotent(2, 3))
        alg_path = tmp_path / "lie.json"
        dump_json(alg_path, algebra_to_doc(glie))
        n_path = tmp_path / "n.json"
        dump_json(n_path, {"N": [[2, 0], [0, 2]]})
        code, out = run_lines(capsys, ["nijenhuis", str(alg_path),
                                       str(n_path)])
        assert code == 0
        assert "BiHom-Lie" in out

    def test_equivalence_verb(self, capsys, tmp_path, nilpotent_file):
        zero_path = tmp_path / "zero.json"
        dump_json(zero_path, deformation_to_doc(BilinearProduct.zero(2)))
        pi_path = tmp_path / "pi.json"
        alg = dim2_nilpotent(2, 3)
        dump_json(pi_path, deformation_to_doc(
            alg.product))
        n_path = tmp_path / "n.json"
        dump_json(n_path, {"N": [[1, 0], [0, 1]]})
        code, out = run_lines(capsys, ["equivalence", str(nilpotent_file),
                                       str(zero_path), str(pi_path),
                                       str(n_path)])
        assert code == 0

    def test_equivalence_failure_exit_code(self, capsys, tmp_path,
                                           nilpotent_file):
        zero_path = tmp_path / "zero.json"
        dump_json(zero_path, deformation_to_doc(BilinearProduct.zero(2)))
        pi_path = tmp_path / "pi.json"
        alg = dim2_nilpotent(2, 3)
        dump_json(pi_path, deformation_to_doc(
            alg.product))
        n_path = tmp_path / "n.json"
        dump_json(n_path, {"N": [[0, 0], [0, 0]]})
        code, out = run_lines(capsys, ["equivalence", str(nilpotent_file),
                                       str(zero_path), str(pi_path),
                                       str(n_path)])
        assert code == 1
        assert "equivalence-linear" in out

    def test_push_lie_round_trip(self, capsys, tmp_path, nilpotent_file):
        pi_path = tmp_path / "pi.json"
        alg = dim2_nilpotent(2, 3)
        dump_json(pi_path, deformation_to_doc(alg.product))
        out_path = tmp_path / "pushed.json"
        code, _ = run_lines(capsys, ["push-lie", str(nilpotent_file),
                                     str(pi_path), "--output",
                                     str(out_path)])
        assert code == 0
        lie_path = tmp_path / "lie.json"
        dump_json(lie_path, algebra_to_doc(subadjacent(alg)))
        code, out = run_lines(capsys, ["deform-check", str(lie_path),
                                       str(out_path)])
        assert code == 0


class TestWrongShapes:
    """A matrix or tensor that does not fit the algebra it is used with is
    unusable input: exit 2, with the field path."""

    @pytest.mark.parametrize("verb", [
        "twist-rep", "deform-check", "push-lie", "nijenhuis", "equivalence",
        "rota-baxter", "o-operator"])
    def test_exit_2_with_field_path(self, capsys, tmp_path, nilpotent_file,
                                    verb):
        def write(name, doc):
            path = tmp_path / name
            dump_json(path, doc)
            return str(path)

        alg = str(nilpotent_file)
        pi1 = write("pi1.json", {"pi": [[[0]]]})
        zero = write("zero.json", deformation_to_doc(BilinearProduct.zero(2)))
        n1 = write("n1.json", {"N": [[1]]})
        op = write("op.json", {"matrix": [[0]]})
        tensor_error = f"{pi1}.pi: tensor dimension 1 does not match dim 2"
        matrix_error = "{}: expected a 2x2 matrix, got 1x1"
        argv, error = {
            "twist-rep": (
                ["twist-rep", write("rep.json", rep_to_doc(adjoint_rep(
                    dim2_nilpotent()))), write("twists.json", {
                        "alpha": [[2]], "beta": [[3]],
                        "phi": [[1, 0], [0, 1]], "psi": [[1, 0], [0, 1]]})],
                matrix_error.format(f"{tmp_path / 'twists.json'}.alpha")),
            "deform-check": (["deform-check", alg, pi1], tensor_error),
            "push-lie": (["push-lie", alg, pi1], tensor_error),
            "nijenhuis": (["nijenhuis", alg, n1],
                          matrix_error.format(f"{n1}.N")),
            "equivalence": (["equivalence", alg, zero, zero, n1],
                            matrix_error.format(f"{n1}.N")),
            "rota-baxter": (
                ["rota-baxter", op, write("lie.json", algebra_to_doc(
                    subadjacent(dim2_nilpotent(2, 3))))],
                matrix_error.format(f"{op}.matrix")),
            "o-operator": (
                ["o-operator", op, write("lierep.json", rep_to_doc(
                    induced_lie_rep(adjoint_rep(dim2_nilpotent(2, 3)),
                                    "l-only")))],
                matrix_error.format(f"{op}.matrix")),
        }[verb]
        assert run(argv) == 2
        assert error in capsys.readouterr().err


class TestDimZero:
    def test_verify_dim_zero_document(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        dump_json(path, algebra_to_doc(
            BiHomPreLieAlgebra(BilinearProduct.zero(0), TwistPair.identity(0))))
        code, out = run_lines(capsys, ["verify", str(path), "--json"])
        assert code == 0
        assert json.loads(out)["report"] == {"passed": True, "violations": []}


class TestUsage:
    def test_no_command_is_usage_error(self, capsys):
        assert run([]) == 2

    def test_unknown_command_is_usage_error(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_missing_file_is_input_error(self, capsys):
        assert run(["verify", "/nonexistent/thing.json"]) == 2


class TestParserParity:
    """A parser built for the verb that ``argv`` names holds only that
    verb's sub-parser, yet prints the same help, usage errors and exit
    codes as the parser of every verb."""

    VERBS = ["verify", "subadjacent", "semidirect", "induced-rep", "twist-rep",
             "tensor-rep", "o-operator", "rota-baxter", "cohomology",
             "deform-check", "nijenhuis", "equivalence", "push-lie"]

    @staticmethod
    def outcome(parser, argv, capsys):
        try:
            parser.parse_args(argv)
            code = None
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize("verb", VERBS)
    def test_one_verb_parser_matches_the_full_one(self, capsys, verb):
        cases = [[verb, "--help"], [verb], [verb] + ["x"] * 6,
                 [verb, "x", "--bogus"]]
        if verb == "induced-rep":
            cases.append([verb, "x", "--variant", "bogus"])
        if verb == "cohomology":
            cases.append([verb, "x", "--max-degree", "two"])
        for argv in cases:
            one = self.outcome(cli._build_parser(argv), argv, capsys)
            assert one == self.outcome(cli._build_parser(), argv, capsys)
            assert one[0] == (0 if "--help" in argv else 2)

    def test_every_verb_is_listed(self, capsys):
        assert list(cli._VERBS) == self.VERBS
        assert run(["--help"]) == 0
        out = capsys.readouterr().out
        assert "{" + ",".join(self.VERBS) + "}" in out
        assert all(f"    {verb}" in out for verb in self.VERBS)

    def test_only_the_named_verb_is_built(self, capsys):
        parser = cli._build_parser(["verify", "x"])
        assert parser.parse_args(["verify", "x"]).command == "verify"
        with pytest.raises(SystemExit):
            parser.parse_args(["subadjacent", "x"])

    @pytest.mark.parametrize("argv, error", [
        ([], "bihom: error: the following arguments are required: command\n"),
        (["frobnicate"],
         "bihom: error: argument command: invalid choice: 'frobnicate' ("),
    ])
    def test_no_verb_errors(self, capsys, argv, error):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: bihom [-h]")
        assert "{" + ",".join(self.VERBS) + "}" in err and error in err


class TestInternalDefect:
    """A failed self-check of the library exits 3, without a traceback."""

    @staticmethod
    def broken(args):
        raise RuntimeError("internal defect: d o d != 0")

    def test_json_report(self, capsys, monkeypatch, nilpotent_file):
        monkeypatch.setattr(cli, "_cmd_verify", self.broken)
        code = run(["verify", str(nilpotent_file), "--json"])
        assert code == 3
        assert json.loads(capsys.readouterr().out) == {
            "command": "verify", "status": "error",
            "message": "internal defect: d o d != 0"}

    def test_plain_message_on_stderr(self, capsys, monkeypatch,
                                     nilpotent_file):
        monkeypatch.setattr(cli, "_cmd_verify", self.broken)
        assert run(["verify", str(nilpotent_file)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: internal defect: d o d != 0\n"
