"""A cold ``bihom`` process pays only for its verb.

``cli._read_argv`` reads a well-formed argv without argparse; wherever it
accepts one, ``_build_parser().parse_args(argv)`` must accept it too and
return an equal namespace.  A verb imports only the modules it runs, which
``-X importtime`` shows in a real process: on catalog inputs, and on every
job of both bench workloads, where no job imports argparse and no ``checks``
job loads the cochain complex.
"""

import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bihom
from bihom import cli
from bihom.documents import algebra_to_doc, dump_json

import workloads
from catalog import dim2_nilpotent

GOOD = {"--output": ["o.json", "x y", "a=b"], "--variant": ["full", "l-only"],
        "--rep": ["adjoint", "trivial", "r.json"], "--degrees": ["1..2", "3"],
        "--max-degree": ["3", "007", "12"]}
BAD = ["", "-", "-x", "bogus", "+3", "٣", "9" * 5000]
WORDS = ["a", "b.json", "dir/c.json", "x y", "a=b", "verify", "full", "7"]
JUNK = ["", "-", "-1", "-h", "--help", "--", "--js", "--out", "--outp=x",
        "--bogus", "-j", "--variant=", "--max", "--rep=-x", "--json",
        "--output", "--variant", "--max-degree", " 3", "--degrees=1..2", "x"]


def parsed(argv):
    """``_build_parser``'s namespace for ``argv``, or its exit code."""
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return cli._build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code


@st.composite
def argvs(draw):
    """An argv of a verb: its options, each spelled ``--opt v`` or
    ``--opt=v``, and its positionals, as one run or each anywhere among the
    options; then a few tokens of junk, options or positionals inserted
    anywhere, and now and then a head that is not a verb."""
    verb = draw(st.sampled_from(list(cli._VERBS)))
    _, outputs, arguments = cli._VERBS[verb]
    options = ["--json"] + ["--output"] * outputs + [
        name for name, _ in arguments if name.startswith("--")]
    width = sum(not name.startswith("--") for name, _ in arguments)
    pieces = []
    for option in draw(st.lists(st.sampled_from(options), max_size=4)):
        if option == "--json":
            pieces.append([draw(st.sampled_from([option] * 4 + ["--json=1"]))])
            continue
        value = draw(st.sampled_from(GOOD[option] * 2 + BAD))
        pieces.append([f"{option}={value}"] if draw(st.booleans())
                      else [option, value])
    size = draw(st.sampled_from([width] * 4 + [width - 1, width + 1]))
    run = [draw(st.sampled_from(WORDS)) for _ in range(size)]
    for piece in [run] if draw(st.booleans()) else [[word] for word in run]:
        pieces.insert(draw(st.integers(0, len(pieces))), piece)
    tokens = [token for piece in pieces for token in piece]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        tokens.insert(draw(st.integers(0, len(tokens))),
                      draw(st.sampled_from(JUNK + WORDS)))
    head = draw(st.sampled_from([verb] * 8 + ["--help", "bogus", "-x"]))
    return [head] + tokens


@settings(max_examples=1000)
@given(argvs())
def test_reader_agrees_with_the_parser(argv):
    ours = cli._read_argv(argv)
    if ours is not None:
        theirs = parsed(argv)
        assert not isinstance(theirs, (int, type(None))), argv
        assert vars(ours) == vars(theirs)


@pytest.mark.parametrize("argv", [
    ["verify", "a.json"],
    ["verify", "--json", "a.json"],
    ["subadjacent", "a.json", "--output", "o.json", "--json"],
    ["induced-rep", "--variant=l-only", "r.json", "--output=o.json"],
    ["tensor-rep", "l.json", "r.json", "--json"],
    ["o-operator", "op.json"],
    ["o-operator", "--json", "op.json", "rep.json"],
    ["rota-baxter", "op.json", "--output", "o.json", "--output", "p.json"],
    ["cohomology", "a.json", "--rep", "trivial", "--degrees=1..3",
     "--max-degree", "007", "--json"],
    ["cohomology", "--rep", "r.json", "a.json"],
    ["equivalence", "a", "b", "c", "d"],
])
def test_well_formed_argv_is_read_without_the_parser(argv):
    ours = cli._read_argv(argv)
    assert ours is not None
    assert vars(ours) == vars(parsed(argv))


@pytest.mark.parametrize("argv", [
    # a positional after an option that follows one: argparse's reading of
    # it differs between Python versions, so the parser decides
    ["o-operator", "OP", "--json", "REP"],
    ["tensor-rep", "l.json", "--json", "r.json"],
    ["verify", "-h"],
    ["verify", "a.json", "--js"],
    ["verify", "--", "a.json"],
    ["cohomology", "a.json", "--rep", "-x"],
    ["cohomology", "a.json", "--max-degree", "٣"],
    ["induced-rep", "r.json", "--variant", "bogus"],
    ["verify"],
    ["verify", "a", "b"],
    [],
])
def test_anything_else_is_left_to_the_parser(argv):
    assert cli._read_argv(argv) is None


def test_interleaved_positional_run_matches_the_parser(capsys):
    argv = ["o-operator", "OP", "--json", "REP"]
    expected = parsed(argv)
    code = cli.run(argv)
    if isinstance(expected, int):  # refused: a usage error
        assert code == expected == 2
    else:  # read: the operator document does not exist
        assert code == 2 and "OP" in capsys.readouterr().err


def imported(argv, cwd):
    """The exit code of a cold ``python -X importtime -m bihom.cli argv``
    with bytecode caching on, and the names of the modules it imported."""
    env = dict(os.environ, BIHOM_COLOR="0",
               PYTHONPATH=str(Path(bihom.__file__).resolve().parent.parent))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    out = subprocess.run([sys.executable, "-X", "importtime", "-m",
                          "bihom.cli", *argv], cwd=cwd, env=env,
                         capture_output=True, text=True, timeout=60)
    return out.returncode, {line.rsplit("|", 1)[-1].strip()
                            for line in out.stderr.splitlines()
                            if line.startswith("import time:")}


@pytest.fixture
def algebra_file(tmp_path):
    dump_json(tmp_path / "a.json", algebra_to_doc(dim2_nilpotent(2, 3)))
    return "a.json"


def test_verify_imports_no_parser_and_no_other_verb(tmp_path, algebra_file):
    code, modules = imported(["verify", algebra_file, "--json"], tmp_path)
    assert code == 0 and "bihom.documents" in modules
    assert modules.isdisjoint({"argparse", "bihom.cohomology",
                               "bihom.deformation", "bihom.operators"})


def test_cohomology_imports_its_module_only(tmp_path, algebra_file):
    code, modules = imported(["cohomology", algebra_file, "--degrees", "1",
                              "--json"], tmp_path)
    assert code == 0 and "bihom.cohomology" in modules
    assert modules.isdisjoint({"argparse", "bihom.deformation",
                               "bihom.operators"})


def test_help_still_imports_the_parser(tmp_path):
    code, modules = imported(["--help"], tmp_path)
    assert code == 0 and "argparse" in modules


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("workload", ["checks", "cohomology"])
def test_bench_jobs_import_no_parser(workload, seed, tmp_path):
    banned = {"argparse"} | ({"bihom.cohomology"} if workload == "checks"
                             else set())
    jobs = workloads.generate(workload, seed, tmp_path)
    failures = []
    for job in jobs:
        code, modules = imported(job.argv, tmp_path)
        if code != job.exit_code or modules & banned:
            failures.append((job.id, code, sorted(modules & banned)))
    assert jobs
    assert not failures, failures
