"""Seeded workload generator for the bihom benchmark.

Every document is built through the public ``bihom`` constructors and
written as JSON; the program under test only ever sees those files.  The
seed changes the coordinates, never the mathematics:

* each workload runs a fixed list of jobs built from a few base algebras;
* the seed picks a change of basis for each base algebra (a dense unipotent
  matrix for the identity/unipotent-twist jobs, a signed scaled
  permutation for the diagonal-twist jobs, so diagonal twists stay
  diagonal and sparse systems stay sparse);
* on ``checks`` the seed also picks where each corrupted input is
  corrupted.

Because a change of basis is an isomorphism, cohomology dimensions do not
depend on the seed, so the pinned dimensions in ``expected.json`` are
checked on every seed.  A corruption bumps one entry at a position where
the diagonal twists force a named identity to fail, so the verdict and one
violated axiom are known for every seed; the full list of violated axiom
names is pinned for the default seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from bihom import (
    BiHomPreLieAlgebra,
    BilinearProduct,
    Matrix,
    TwistPair,
    adjoint_rep,
    induced_lie_rep,
    inverse,
    semidirect_lie,
    semidirect_prelie,
    subadjacent,
    tensor_rep,
    trivial_rep,
)
from bihom.documents import algebra_to_doc, rep_to_doc

WORKLOADS = ("cohomology", "checks")
REGIMES = ("dense", "twisted")
DEFAULT_SEED = 1

Q = Fraction


@dataclass
class Job:
    """One cold ``bihom`` invocation and what its output must show.

    ``argv`` is relative to the workload directory.  ``emits`` names the kind
    of document written to ``--output`` ("algebra", "rep" or "pi"), which is
    re-verified after the timed loop.  ``must_violate`` is an axiom the
    corruption is certain to break.  ``docs`` lists the input files with
    their document kinds, for the set-up probe.  ``regime`` is the
    cohomology regime of a cohomology job (one of ``REGIMES``).
    """

    id: str
    argv: list[str]
    status: str
    must_violate: str | None = None
    emits: str | None = None
    degrees: list[int] = field(default_factory=list)
    docs: list[tuple[str, str]] = field(default_factory=list)
    regime: str | None = None

    @property
    def exit_code(self) -> int:
        return 0 if self.status == "pass" else 1


# ---------------------------------------------------------------------------
# base algebras
# ---------------------------------------------------------------------------

def _tensor(dim: int, entries: dict) -> BilinearProduct:
    c = [[[Q(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j, k), v in entries.items():
        c[i][j][k] = Q(v)
    return BilinearProduct.from_entries(c)


def _diag(*values) -> Matrix:
    return Matrix.diagonal(values)


def heisenberg(twists: TwistPair | None = None) -> BiHomPreLieAlgebra:
    """``e1.e2 = e3``; multiplicative for twists diag(a, b, ab)."""
    return BiHomPreLieAlgebra(_tensor(3, {(0, 1, 2): 1}),
                              twists or TwistPair.identity(3))


def graded(gamma, twists: TwistPair | None = None) -> BiHomPreLieAlgebra:
    """``e1.e1 = e2, e1.e2 = e3, e2.e1 = gamma e3``: left-symmetric for
    every gamma."""
    return BiHomPreLieAlgebra(
        _tensor(3, {(0, 0, 1): 1, (0, 1, 2): 1, (1, 0, 2): gamma}),
        twists or TwistPair.identity(3))


def graded_unipotent(gamma) -> BiHomPreLieAlgebra:
    """The graded algebra with commuting unipotent twists
    ``e1 -> e1 + b e2 + c e3, e2 -> e2 + b(1+gamma) e3``."""
    g = Q(gamma)

    def uni(b, c):
        return Matrix.from_rows([[1, 0, 0], [b, 1, 0], [c, Q(b) * (1 + g), 1]])

    return graded(g, TwistPair(uni(1, 0), uni(2, 5)))


def associative_plane() -> BiHomPreLieAlgebra:
    """``e1.e1 = e1, e1.e2 = e2`` (upper-triangular 2x2 matrices)."""
    return BiHomPreLieAlgebra.classical(_tensor(2, {(0, 0, 0): 1, (0, 1, 1): 1}))


def nilpotent_plane(s, t) -> BiHomPreLieAlgebra:
    """``e1.e1 = e2`` with twists diag(s, s^2), diag(t, t^2)."""
    return BiHomPreLieAlgebra(_tensor(2, {(0, 0, 1): 1}),
                              TwistPair(_diag(s, s * s), _diag(t, t * t)))


# ---------------------------------------------------------------------------
# changes of basis
# ---------------------------------------------------------------------------

def _unipotent(rng: random.Random, n: int) -> Matrix:
    """Unit lower-triangular matrix with entries +-1 below the diagonal."""
    return Matrix.from_rows([[1 if i == j else rng.choice((-1, 1))
                              if j < i else 0 for j in range(n)]
                             for i in range(n)])


def _monomial(rng: random.Random, n: int) -> Matrix:
    """Signed, scaled permutation matrix."""
    perm = list(range(n))
    rng.shuffle(perm)
    scales = [rng.choice((1, -1, 2, -2, Q(1, 2), 3)) for _ in range(n)]
    return Matrix.from_rows([[scales[i] if perm[i] == j else 0
                              for j in range(n)] for i in range(n)])


def conjugate(a, g: Matrix):
    """The algebra transported along the isomorphism ``g``:
    ``x * y = g(g^-1 x . g^-1 y)`` with twists ``g alpha g^-1``,
    ``g beta g^-1``.  Works for product and bracket algebras alike."""
    ginv = inverse(g)
    n = a.dim
    tensor = a.product if isinstance(a, BiHomPreLieAlgebra) else a.bracket
    cols = [ginv.col(i) for i in range(n)]
    entries = tuple(tuple(g.apply(tensor.value(cols[i], cols[j]))
                          for j in range(n)) for i in range(n))
    twists = TwistPair(g @ a.alpha @ ginv, g @ a.beta @ ginv)
    return type(a)(BilinearProduct(n, entries), twists)


# ---------------------------------------------------------------------------
# single-entry corruptions with a known consequence
# ---------------------------------------------------------------------------

def _weights(m: Matrix) -> list[Fraction]:
    return [m.entries[i][i] for i in range(m.rows)]


def _bump_matrix(m: Matrix, i: int, j: int) -> Matrix:
    rows = [list(r) for r in m.entries]
    rows[i][j] += 1
    return Matrix.from_rows(rows)


def _bump_tensor(t: BilinearProduct, i: int, j: int, k: int) -> BilinearProduct:
    c = [[list(v) for v in plane] for plane in t.c]
    c[i][j][k] += 1
    return BilinearProduct.from_entries(c)


def _corrupt_tensor(rng: random.Random, t: BilinearProduct, alpha: Matrix):
    """Bump ``c[i][j][k]`` where ``alpha_k != alpha_i alpha_j``, which breaks
    alpha-multiplicativity whatever the rest of the data is."""
    w = _weights(alpha)
    n = t.dim
    spots = [(i, j, k) for i in range(n) for j in range(n) for k in range(n)
             if w[k] != w[i] * w[j]]
    return _bump_tensor(t, *rng.choice(spots))


def _corrupt_commuting(rng: random.Random, m: Matrix, left: Matrix,
                       right: Matrix) -> Matrix:
    """Bump ``m[p][q]`` where ``left_p != right_q`` for diagonal ``left``
    and ``right``, which breaks ``left m = m right``."""
    wl, wr = _weights(left), _weights(right)
    spots = [(p, q) for p in range(m.rows) for q in range(m.cols)
             if wl[p] != wr[q]]
    return _bump_matrix(m, *rng.choice(spots))


def _corrupt_rep_doc(rng: random.Random, r) -> dict:
    """Bump one entry of ``L_i`` (``rho_i`` for a BiHom-Lie representation)
    where ``phi_p != alpha_i phi_q``, which breaks the first representation
    identity."""
    doc = rep_to_doc(r)
    key = "rho" if "rho" in doc else "L"
    mats = r.rho if key == "rho" else r.L
    wa, wp = _weights(r.algebra.alpha), _weights(r.phi)
    m = r.vdim
    spots = [(i, p, q) for i in range(r.algebra.dim) for p in range(m)
             for q in range(m) if wp[p] != wa[i] * wp[q]]
    i, p, q = rng.choice(spots)
    doc[key][i] = _bump_matrix(mats[i], p, q).to_json()
    return doc


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _write(root: Path, name: str, doc: dict) -> str:
    (root / name).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return name


def _cohomology_job(root: Path, regime: str, jid: str, a: BiHomPreLieAlgebra,
                    coeff, degrees: str) -> Job:
    alg = _write(root, f"{jid}.algebra.json", algebra_to_doc(a))
    docs = [(alg, "algebra")]
    if coeff in ("adjoint", "trivial"):
        rep_arg = coeff
    else:
        rep_arg = _write(root, f"{jid}.coefficients.json", rep_to_doc(coeff))
        docs.append((rep_arg, "rep"))
    lo, hi = (int(x) for x in degrees.split(".."))
    return Job(jid, ["cohomology", alg, "--rep", rep_arg, "--degrees",
                     degrees, "--json"], "pass",
               degrees=list(range(lo, hi + 1)), docs=docs, regime=regime)


def _dense(rng: random.Random, root: Path) -> list[Job]:
    """Identity and unipotent twists: equivariance removes almost nothing,
    so the cochain spaces are large and the time goes into coboundary
    images and their expansion in the target basis."""
    def iso(a):
        return conjugate(a, _unipotent(rng, a.dim))

    heis = iso(heisenberg())
    unip = iso(graded_unipotent(2))
    plane4 = iso(semidirect_prelie(adjoint_rep(associative_plane())))
    return [
        _cohomology_job(root, "dense", "heisenberg-adjoint", heis, "adjoint",
                        "1..2"),
        _cohomology_job(root, "dense", "heisenberg-trivial", heis, "trivial",
                        "1..3"),
        _cohomology_job(root, "dense", "unipotent-adjoint", unip, "adjoint",
                        "1..2"),
        _cohomology_job(root, "dense", "plane4-trivial", plane4, "trivial",
                        "1..2"),
    ]


def _twisted(rng: random.Random, root: Path) -> list[Job]:
    """Dim-5/6 semidirect products with generic diagonal twists: few
    cochains survive equivariance, so the time goes into the kernel solve
    of the equivariance system and there are few images."""
    def iso(a):
        return conjugate(a, _monomial(rng, a.dim))

    heis = heisenberg(TwistPair(_diag(2, 5, 10), _diag(3, 7, 21)))
    six = iso(semidirect_prelie(adjoint_rep(heis)))
    plane = semidirect_prelie(adjoint_rep(nilpotent_plane(2, 3)))
    five = iso(semidirect_prelie(trivial_rep(plane)))
    return [
        _cohomology_job(root, "twisted", "dim6-trivial", six, "trivial",
                        "1..2"),
        _cohomology_job(root, "twisted", "dim5-trivial", five, "trivial",
                        "1..3"),
        _cohomology_job(root, "twisted", "dim5-tensor", five,
                        tensor_rep(adjoint_rep(five), trivial_rep(five)),
                        "1..1"),
    ]


def _checks(rng: random.Random, root: Path) -> list[Job]:
    """Cold checkers and constructions on dim-6..12 documents with generic
    diagonal twists.  Every checked input comes once valid and once with a
    single corrupted entry, so the mix, and with it the cost, is the same
    for every seed; the seed picks the coordinates and the corruptions."""
    def iso(a):
        return conjugate(a, _monomial(rng, a.dim))

    heis = iso(heisenberg(TwistPair(_diag(2, 5, 10), _diag(3, 7, 21))))
    grad = iso(graded(3, TwistPair(_diag(2, 4, 8), _diag(3, 9, 27))))
    ad_heis = adjoint_rep(heis)
    six = semidirect_prelie(ad_heis)
    twelve = semidirect_prelie(tensor_rep(ad_heis, ad_heis))
    six_g = semidirect_prelie(adjoint_rep(grad))
    ad_six = adjoint_rep(six)
    left_six = induced_lie_rep(ad_six, "l-only")
    lie_six = subadjacent(six_g)
    rb_lie = semidirect_lie(induced_lie_rep(adjoint_rep(grad), "l-only"))
    scale = rng.choice((1, 2, -1, Q(1, 2), 3))
    # An O-operator T: V -> g gives the weight-zero Rota-Baxter operator
    # (x, u) -> (T u, 0) on the semidirect product g + V; here T = scale Id.
    rota_baxter = Matrix.from_rows([[scale if j == i + 3 else 0
                                     for j in range(6)] for i in range(6)])
    # The scaled projection of a semidirect product onto its algebra part
    # is a Nijenhuis operator.
    nijenhuis = Matrix.from_rows([[scale if i == j < 3 else 0
                                   for j in range(6)] for i in range(6)])
    six_doc = _write(root, "dim6.algebra.json", algebra_to_doc(six))

    left = _write(root, "tensor-left.rep.json", rep_to_doc(ad_six))
    right = _write(root, "tensor-right.rep.json", rep_to_doc(trivial_rep(six)))
    jobs = [Job("tensor-rep", ["tensor-rep", left, right, "--output",
                               "out-tensor-rep.json", "--json"], "pass",
                emits="rep", docs=[(left, "rep"), (right, "rep")])]

    for bad in (False, True):
        tag = ".corrupt" if bad else ""

        def add(kind, argv, must, emits=None, docs=()):
            if emits:
                argv = argv + ["--output", f"out-{kind}{tag}.json"]
            jobs.append(Job(kind + tag, argv + ["--json"],
                            "fail" if bad else "pass",
                            must_violate=must if bad else None,
                            emits=None if bad else emits, docs=list(docs)))

        def algebra_doc(name, a):
            doc = algebra_to_doc(a)
            if bad:
                key = ("product" if isinstance(a, BiHomPreLieAlgebra)
                       else "bracket")
                doc[key] = _corrupt_tensor(rng, getattr(a, key),
                                           a.alpha).to_json()
            return _write(root, f"{name}{tag}.algebra.json", doc)

        def rep_doc(name, r):
            return _write(root, f"{name}{tag}.rep.json",
                          _corrupt_rep_doc(rng, r) if bad else rep_to_doc(r))

        f = algebra_doc("dim12", twelve)
        add("verify-prelie", ["verify", f], "alpha-multiplicative",
            docs=[(f, "algebra")])
        f = algebra_doc("lie6", lie_six)
        add("verify-lie", ["verify", f], "alpha-bracket-morphism",
            docs=[(f, "algebra")])
        f = algebra_doc("dim6g", six_g)
        add("subadjacent", ["subadjacent", f], "alpha-multiplicative",
            "algebra", [(f, "algebra")])
        f = rep_doc("adjoint6", ad_six)
        add("semidirect", ["semidirect", f], "rep1-phi-L", "algebra",
            [(f, "rep")])
        f = rep_doc("left6", left_six)
        add("semidirect-lie", ["semidirect", f], "lie-rep-1", "algebra",
            [(f, "rep")])
        f = rep_doc("induced6", adjoint_rep(six_g))
        add("induced-rep", ["induced-rep", f], "rep1-phi-L", "rep",
            [(f, "rep")])

        T = Matrix.identity(6).scale(scale)
        if bad:
            T = _corrupt_commuting(rng, T, left_six.algebra.alpha, left_six.phi)
        f = _write(root, f"o-operator{tag}.json", {
            "matrix": T.to_json(), "representation": rep_to_doc(left_six)})
        add("o-operator", ["o-operator", f], "T-phi-intertwining", "algebra",
            [(f, "operator")])

        R = rota_baxter
        if bad:
            R = _corrupt_commuting(rng, R, rb_lie.alpha, rb_lie.alpha)
        f = _write(root, f"rota-baxter{tag}.json", {
            "matrix": R.to_json(), "algebra": algebra_to_doc(rb_lie)})
        add("rota-baxter", ["rota-baxter", f], "R-alpha-commutation",
            docs=[(f, "operator")])

        N = nijenhuis
        if bad:
            N = _corrupt_commuting(rng, N, six.alpha, six.alpha)
        f = _write(root, f"nijenhuis{tag}.json", {"N": N.to_json()})
        add("nijenhuis", ["nijenhuis", six_doc, f], "N-alpha-commutation",
            "pi", [(six_doc, "algebra"), (f, "N")])

        # P + t (scale P) = (1 + t scale) P is a linear deformation of P.
        pi = six.product.scale(scale)
        if bad:
            pi = _corrupt_tensor(rng, pi, six.alpha)
        f = _write(root, f"deformation{tag}.json", {"pi": pi.to_json()})
        add("deform-check", ["deform-check", six_doc, f],
            "pi-alpha-equivariance", docs=[(six_doc, "algebra"), (f, "pi")])
    return jobs


def _cohomology(rng: random.Random, root: Path) -> list[Job]:
    """Both cohomology regimes in one job list: the dense jobs exercise the
    coboundary assembly, the twisted ones the equivariance solve.  Each job
    is tagged with its regime, and the traced run reports the
    regime-specific layer metrics per regime."""
    return _dense(rng, root) + _twisted(rng, root)


_BUILDERS = {"cohomology": _cohomology, "checks": _checks}


def generate(workload: str, seed: int, root: Path) -> list[Job]:
    """Write the workload's documents for ``seed`` under ``root`` and return
    its job list."""
    root.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng, root)
