"""Each verb proves each hypothesis once per call.

Every ``check_*`` and ``is_*_morphism`` function is wrapped wherever a
``bihom`` module binds it, so calls through module globals, re-exports and
``from ... import`` bindings are all counted.  A verb run on valid inputs,
with ``--output`` where it has one, may call each of them at most once per
tuple of arguments (compared by identity).  So may every job of the
bench's ``checks`` workload, valid or corrupted, with its pinned exit code.
No bench job of either workload makes more eliminations than pinned, so a
matrix inverted again fails here, not only in a profile.
"""

import importlib
import json
import pkgutil
import sys
from collections import Counter

import pytest

import bihom
from bihom import (BilinearProduct, Matrix, adjoint_lie_rep, adjoint_rep,
                   induced_lie_rep, subadjacent)
from bihom.cli import run
from bihom.documents import algebra_to_doc, deformation_to_doc, dump_json, rep_to_doc

import workloads
from catalog import dim2_nilpotent, dim3_graded


def _is_checker(fn) -> bool:
    name = getattr(fn, "__name__", "")
    return (callable(fn) and getattr(fn, "__module__", "").startswith("bihom.")
            and (name.startswith("check_")
                 or (name.startswith("is_") and name.endswith("_morphism"))))


@pytest.fixture
def calls(monkeypatch):
    """A Counter of ``(checker, argument ids)`` filled while the test runs;
    the arguments are kept alive, so no id is reused."""
    seen: Counter = Counter()
    kept: list = []
    wrappers: dict = {}

    def wrap(fn):
        def counted(*args, **kwargs):
            kept.append((args, kwargs))
            key = tuple(map(id, args)) + tuple(
                (k, id(v)) for k, v in sorted(kwargs.items()))
            seen[(f"{fn.__module__}.{fn.__name__}", key)] += 1
            return fn(*args, **kwargs)
        return counted

    # the verbs import their modules on use, so every one is loaded first
    for info in pkgutil.iter_modules(bihom.__path__):
        importlib.import_module(f"bihom.{info.name}")
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "bihom" or name.startswith("bihom.")):
            continue
        for attr, value in list(vars(mod).items()):
            if _is_checker(value):
                if id(value) not in wrappers:
                    wrappers[id(value)] = wrap(value)
                monkeypatch.setattr(mod, attr, wrappers[id(value)])
    assert len(wrappers) >= 13  # every checker in the package
    return seen


@pytest.fixture
def docs(tmp_path):
    """Valid input documents for every verb, by name."""
    nil = dim2_nilpotent(2, 3)
    graded = dim3_graded(2, 2, 3)
    files = {
        "prelie": algebra_to_doc(nil),
        "lie": algebra_to_doc(subadjacent(nil)),
        "rep": rep_to_doc(adjoint_rep(nil)),
        "lie-rep": rep_to_doc(adjoint_lie_rep(subadjacent(nil))),
        "plain-rep": rep_to_doc(adjoint_rep(dim2_nilpotent())),
        "twists": {"alpha": [[2, 0], [0, 4]], "beta": [[3, 0], [0, 9]],
                   "phi": [[2, 0], [0, 4]], "psi": [[3, 0], [0, 9]]},
        "T": {"matrix": Matrix.identity(3).to_json(),
                       "representation": rep_to_doc(
                           induced_lie_rep(adjoint_rep(graded), "l-only"))},
        "R": {"matrix": Matrix.zeros(2, 2).to_json(),
                        "algebra": algebra_to_doc(subadjacent(nil))},
        "identity": {"N": Matrix.identity(2).to_json()},
        "double": {"N": Matrix.identity(2).scale(2).to_json()},
        "zero": deformation_to_doc(BilinearProduct.zero(2)),
        # Id is a Nijenhuis operator; its trivial deformation is P itself
        "product": deformation_to_doc(nil.product),
    }
    paths = {}
    for name, doc in files.items():
        paths[name] = str(tmp_path / f"{name}.json")
        dump_json(paths[name], doc)
    paths["out"] = str(tmp_path / "out.json")
    return paths


VERB_CALLS = {
    "verify-prelie": ["verify", "prelie"],
    "verify-lie": ["verify", "lie"],
    "subadjacent": ["subadjacent", "prelie", "--output", "out"],
    "semidirect": ["semidirect", "rep", "--output", "out"],
    "semidirect-lie": ["semidirect", "lie-rep", "--output", "out"],
    "induced-rep": ["induced-rep", "rep", "--output", "out"],
    "twist-rep": ["twist-rep", "plain-rep", "twists", "--output", "out"],
    "tensor-rep": ["tensor-rep", "rep", "rep", "--output", "out"],
    "o-operator": ["o-operator", "T", "--output", "out"],
    "rota-baxter": ["rota-baxter", "R", "--output", "out"],
    "cohomology": ["cohomology", "prelie", "--degrees", "1..3"],
    "cohomology-rep": ["cohomology", "prelie", "--rep", "rep"],
    "deform-check": ["deform-check", "prelie", "product"],
    "nijenhuis": ["nijenhuis", "prelie", "identity", "--output", "out"],
    "nijenhuis-lie": ["nijenhuis", "lie", "double"],
    "equivalence": ["equivalence", "prelie", "zero", "product", "identity"],
    "push-lie": ["push-lie", "prelie", "product", "--output", "out"],
}


def test_every_verb_is_covered():
    from bihom.cli import _VERBS
    assert {argv[0] for argv in VERB_CALLS.values()} == set(_VERBS)


@pytest.mark.parametrize("case", list(VERB_CALLS))
def test_each_hypothesis_proved_once(case, docs, calls, capsys):
    argv = [docs.get(word, word) for word in VERB_CALLS[case]]
    assert run(argv) == 0, capsys.readouterr()
    twice = {key: n for key, n in calls.items() if n > 1}
    assert not twice, twice


@pytest.mark.parametrize("seed", [1, 7])
def test_each_bench_checks_job_proves_each_hypothesis_once(seed, tmp_path,
                                                           monkeypatch, calls,
                                                           capsys):
    jobs = workloads.generate("checks", seed, tmp_path)
    monkeypatch.chdir(tmp_path)
    failures = []
    for job in jobs:
        calls.clear()
        code = run(job.argv)
        capsys.readouterr()
        twice = sorted({span for (span, _), n in calls.items() if n > 1})
        if code != job.exit_code or twice:
            failures.append((job.id, code, twice))
    assert jobs
    assert not failures, failures


# ``linalg._rref`` calls per bench job, the same at every seed: each algebra
# document loaded proves its two twists, each representation document its
# carrier twists, except identities and a carrier's twists that are the
# algebra's own; constructions hand over the inverses they know, and
# ``cohomology`` adds its solves
ELIMINATIONS = {
    "cohomology": {
        "heisenberg-adjoint": 4, "heisenberg-trivial": 6,
        "unipotent-adjoint": 6, "plane4-trivial": 4, "dim6-trivial": 6,
        "dim5-trivial": 8, "dim5-tensor": 6},
    "checks": {
        "tensor-rep": 4, "verify-prelie": 2, "verify-lie": 2, "subadjacent": 2,
        "semidirect": 2, "semidirect-lie": 2, "induced-rep": 2,
        "o-operator": 2, "rota-baxter": 2, "nijenhuis": 2, "deform-check": 2,
        **dict.fromkeys(
            ["verify-prelie.corrupt", "verify-lie.corrupt",
             "subadjacent.corrupt", "semidirect.corrupt",
             "semidirect-lie.corrupt", "induced-rep.corrupt",
             "o-operator.corrupt", "rota-baxter.corrupt", "nijenhuis.corrupt",
             "deform-check.corrupt"], 2)},
}


@pytest.mark.parametrize("workload", sorted(ELIMINATIONS))
@pytest.mark.parametrize("seed", [1, 7])
def test_bench_job_eliminations_at_most_pinned(workload, seed, tmp_path,
                                               monkeypatch, capsys,
                                               eliminations):
    jobs = workloads.generate(workload, seed, tmp_path)
    monkeypatch.chdir(tmp_path)
    counts = {}
    for job in jobs:
        eliminations.clear()
        assert run(job.argv) == job.exit_code, job.id
        capsys.readouterr()
        counts[job.id] = len(eliminations)
    pinned = ELIMINATIONS[workload]
    assert [job.id for job in jobs] == list(pinned)
    over = {job: (n, pinned[job]) for job, n in counts.items() if n > pinned[job]}
    assert not over, over


# failing inputs of the verbs whose --output runs only the construction
FAILING = {
    "o-operator": lambda: ["o-operator", {
        "matrix": Matrix.identity(3).to_json(),
        "representation": rep_to_doc(adjoint_lie_rep(subadjacent(dim3_graded(2))))}],
    "rota-baxter": lambda: ["rota-baxter", {
        "matrix": [[0, 1], [0, 0]],
        "algebra": algebra_to_doc(subadjacent(dim2_nilpotent(2, 3)))}],
    "nijenhuis": lambda: ["nijenhuis", algebra_to_doc(dim2_nilpotent(2, 3)),
                          {"N": [[0, 1], [0, 0]]}],
    "nijenhuis-base": lambda: ["nijenhuis", {
        "dim": 2, "product": [[[0, 1], [0, 0]], [[0, 0], [1, 0]]],
        "alpha": [[2, 0], [0, 4]], "beta": [[3, 0], [0, 9]]},
        {"N": [[1, 0], [0, 1]]}],
}


@pytest.mark.parametrize("case", list(FAILING))
@pytest.mark.parametrize("as_json", [False, True])
def test_failing_output_run_reports_like_the_check(case, as_json, tmp_path,
                                                   capsys):
    verb, *inputs = FAILING[case]()
    argv = [verb]
    for number, doc in enumerate(inputs):
        path = tmp_path / f"input{number}.json"
        dump_json(path, doc)
        argv.append(str(path))
    if as_json:
        argv.append("--json")
    assert run(argv) == 1
    checked = capsys.readouterr()
    out = tmp_path / "out.json"
    assert run(argv + ["--output", str(out)]) == 1
    built = capsys.readouterr()
    assert built == checked
    assert not out.exists()
    if as_json:
        payload = json.loads(built.out)
        assert payload["status"] == "fail" and payload["report"]["violations"]
    else:
        assert "FAIL" in built.out
