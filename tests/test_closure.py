"""Every document a construction writes is read back by the verbs that read
its kind.

Each constructive verb runs in-process through ``cli.run`` with
``--output`` on dim <= 3 catalog inputs that the verb's own check passes,
and on a dim-0 pre-Lie and a dim-0 BiHom-Lie algebra with a dim-2 carrier,
and each document it writes goes to the verbs that read it: an algebra to
``verify`` and, when it is pre-Lie, to ``cohomology --degrees 1..1``; a
representation to ``semidirect`` and, when it is pre-Lie, to
``cohomology --rep``; a deformation to ``deform-check`` against the algebra
it deforms.  A call that raises fails the test with its traceback; every
construction and every read-back must exit 0."""

import json
from pathlib import Path

import pytest

from bihom import Matrix, check_o_operator, subadjacent
from bihom.cli import run
from bihom.documents import algebra_to_doc, nijenhuis_to_doc, rep_to_doc

from catalog import (
    lie_rep_fixtures,
    nijenhuis_search,
    prelie_fixtures,
    prelie_rep_fixtures,
    rota_baxter_search,
)

# the identity-twist dim-3 graded algebras have 81 Nijenhuis and up to
# 19683 Rota-Baxter sign matrices, whose search alone takes seconds
SEARCHED = [(name, a) for name, a in prelie_fixtures()
            if name not in ("dim3-graded-1", "dim3-graded-2")]


def _spread(found: tuple, k: int = 3) -> list:
    """At most k operators, first to last, from a search's results."""
    return list(found[::max(1, len(found) // k)][:k])


class Closure:
    """Runs verbs in one directory; every call must exit 0."""

    def __init__(self, root: Path, capsys) -> None:
        self.root, self.capsys, self.count = root, capsys, 0

    def path(self, prefix: str) -> str:
        self.count += 1
        return str(self.root / f"{prefix}{self.count}.json")

    def write(self, doc: dict) -> str:
        path = self.path("in")
        Path(path).write_text(json.dumps(doc))
        return path

    def __call__(self, *argv: str) -> None:
        code = run(list(argv))
        out, err = self.capsys.readouterr()
        assert code == 0, f"{' '.join(argv)}: exit {code}\n{out[:800]}{err}"

    def construct(self, *argv: str) -> str:
        """The path that ``argv --output`` writes."""
        out = self.path("out")
        self(*argv, "--output", out)
        return out

    def read_algebra(self, path: str) -> None:
        self("verify", path)
        if "product" in json.loads(Path(path).read_text()):
            self("cohomology", path, "--degrees", "1..1")

    def read_rep(self, path: str, algebra: str | None = None) -> None:
        """``semidirect``, and ``cohomology --rep`` over ``algebra``."""
        self("semidirect", path)
        if algebra is not None:
            self("cohomology", algebra, "--rep", path, "--degrees", "1..1")


@pytest.fixture
def closure(tmp_path, capsys) -> Closure:
    return Closure(tmp_path, capsys)


def test_subadjacent(closure):
    for _, a in prelie_fixtures():
        closure.read_algebra(closure.construct("subadjacent",
                                               closure.write(algebra_to_doc(a))))


def test_semidirect(closure):
    for _, r in prelie_rep_fixtures() + lie_rep_fixtures():
        closure.read_algebra(closure.construct("semidirect",
                                               closure.write(rep_to_doc(r))))


def test_induced_rep(closure):
    for _, r in prelie_rep_fixtures():
        rep = closure.write(rep_to_doc(r))
        for variant in ("full", "l-only"):
            closure.read_rep(closure.construct("induced-rep", rep,
                                               "--variant", variant))


def test_tensor_rep(closure):
    by_algebra: dict = {}
    for _, r in prelie_rep_fixtures():
        by_algebra.setdefault(r.algebra, []).append(r)
    for a, reps in by_algebra.items():
        algebra = closure.write(algebra_to_doc(a))
        small = [r for r in reps if r.vdim <= 3]
        for rv, rw in zip(small, small[1:] + small[:1]):
            closure.read_rep(closure.construct(
                "tensor-rep", closure.write(rep_to_doc(rv)),
                closure.write(rep_to_doc(rw))), algebra)


def test_o_operator(closure):
    """Zero, the identity and, on an adjoint representation, Rota-Baxter
    operators, each where it is an O-operator."""
    searched = {subadjacent(a) for _, a in SEARCHED}
    for _, r in lie_rep_fixtures():
        g = r.algebra
        candidates = [Matrix.zeros(g.dim, r.vdim)]
        if r.vdim == g.dim:
            candidates.append(Matrix.identity(g.dim))
        if g in searched and r.rho == g.bracket.left_matrices():
            candidates += _spread(rota_baxter_search(g))
        for T in candidates:
            if check_o_operator(T, r).passed:
                closure.read_algebra(closure.construct(
                    "o-operator", closure.write({
                        "matrix": T.to_json(), "representation": rep_to_doc(r)})))


def test_rota_baxter(closure):
    for _, a in SEARCHED:
        g = subadjacent(a)
        for R in _spread(rota_baxter_search(g)):
            closure.read_algebra(closure.construct("rota-baxter", closure.write(
                {"matrix": R.to_json(), "algebra": algebra_to_doc(g)})))


def test_nijenhuis_and_push_lie(closure):
    for _, a in SEARCHED:
        algebra = closure.write(algebra_to_doc(a))
        lie = closure.construct("subadjacent", algebra)
        for N in _spread(nijenhuis_search(a)):
            pi = closure.construct("nijenhuis", algebra,
                                   closure.write(nijenhuis_to_doc(N)))
            closure("deform-check", algebra, pi)
            closure("deform-check", lie,
                    closure.construct("push-lie", algebra, pi))


# A dim-0 algebra acting on a dim-2 carrier: every action family is empty,
# an operator from the carrier to the algebra is the 0 x 2 matrix ``[]``
# and one on the algebra the 0 x 0 matrix ``[]``.
UNIT = [[1, 0], [0, 1]]
TWIST = [[2, 0], [0, 3]]
PRELIE0 = {"dim": 0, "product": [], "alpha": [], "beta": []}
LIE0 = {"dim": 0, "bracket": [], "alpha": [], "beta": []}


def test_dim0_prelie_algebra(closure):
    """The constructed sub-adjacent algebra and induced representations
    also take the zero operator ``[]``."""
    algebra = closure.write(PRELIE0)
    bare = closure.write({"matrix": []})
    lie = closure.construct("subadjacent", algebra)
    closure.read_algebra(lie)
    closure.read_algebra(closure.construct("rota-baxter", bare, lie))
    rep = closure.write({"algebra": PRELIE0, "vdim": 2, "L": [], "R": [],
                         "phi": UNIT, "psi": UNIT})
    closure.read_algebra(closure.construct("semidirect", rep))
    for variant in ("full", "l-only"):
        induced = closure.construct("induced-rep", rep, "--variant", variant)
        closure.read_rep(induced)
        closure.read_algebra(closure.construct("o-operator", bare, induced))
    twists = closure.write({"alpha": [], "beta": [], "phi": TWIST,
                            "psi": UNIT})
    closure.read_rep(closure.construct("twist-rep", rep, twists), algebra)
    closure.read_rep(closure.construct("tensor-rep", rep, rep), algebra)
    N = closure.write({"N": []})
    pi = closure.construct("nijenhuis", algebra, N)
    closure("deform-check", algebra, pi)
    closure("deform-check", closure.construct("subadjacent", algebra),
            closure.construct("push-lie", algebra, pi))


def test_dim0_lie_algebra(closure):
    closure.read_algebra(closure.write(LIE0))
    rep = {"algebra": LIE0, "vdim": 2, "rho": [], "phi": TWIST, "psi": UNIT}
    closure.read_rep(closure.write(rep))
    closure.read_algebra(closure.construct("semidirect", closure.write(rep)))
    operator = closure.write({"matrix": [], "representation": rep})
    closure("o-operator", operator)
    closure.read_algebra(closure.construct("o-operator", operator))
    bare = closure.write({"matrix": []})
    closure("o-operator", bare, closure.write(rep))
    closure.read_algebra(closure.construct("o-operator", bare,
                                           closure.write(rep)))
    rota_baxter = closure.write({"matrix": [], "algebra": LIE0})
    closure("rota-baxter", rota_baxter)
    closure.read_algebra(closure.construct("rota-baxter", rota_baxter))
    closure.read_algebra(closure.construct("rota-baxter", bare,
                                           closure.write(LIE0)))
    closure("nijenhuis", closure.write(LIE0), closure.write({"N": []}))
