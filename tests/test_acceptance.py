"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every assertion here is exact (rational arithmetic, zero tolerance).  Run
with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
"""

import functools
import itertools
import random
from fractions import Fraction

from bihom import (
    BiHomPreLieAlgebra,
    BilinearProduct,
    Matrix,
    adjoint_lie_rep,
    adjoint_rep,
    check_bihom_lie,
    check_equivalence,
    check_lie_linear_deformation,
    check_linear_deformation,
    check_lie_rep,
    check_nijenhuis_lie,
    check_nijenhuis_prelie,
    check_o_operator,
    check_prelie,
    check_prelie_rep,
    coboundary,
    coboundary_matrix,
    cochain_space,
    cohomology_table,
    deformed_product,
    induced_lie_rep,
    induced_prelie_from_o,
    is_lie_morphism,
    is_prelie_morphism,
    nijenhuis_trivial_deformation,
    push_deformation_to_lie,
    semidirect_lie,
    semidirect_prelie,
    subadjacent,
    tensor_rep,
    trivial_rep,
)
from bihom.cohomology import Cochain
from bihom.representation import PreLieRep, _semidirect_lie_raw, _semidirect_prelie_raw

from catalog import (
    classical_d1,
    classical_d2,
    corrupted_lie_reps,
    corrupted_prelie_reps,
    dim2_assoc,
    dim2_assoc_twisted,
    dim2_nilpotent,
    dim3_graded,
    lie_rep_fixtures,
    nijenhuis_search,
    prelie_fixtures,
    prelie_rep_fixtures,
    random_matrix,
    random_product,
    rota_baxter_search,
)

Q = Fraction


def criterion(number, label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number} ({label}): FAIL")
                raise
            print(f"\nACCEPTANCE {number} ({label}): PASS")
        return wrapper
    return decorate


_COMPLEXES = None


def complex_fixtures():
    """(name, algebra, representation, spaces, matrices) with dim A <= 3,
    dim V <= 2, spaces at degrees 1..5 and boundary matrices at 1..4."""
    global _COMPLEXES
    if _COMPLEXES is not None:
        return _COMPLEXES
    out = []
    for name, alg in prelie_fixtures():
        reps = [("trivial", trivial_rep(alg))]
        if alg.dim <= 2:
            reps.append(("adjoint", adjoint_rep(alg)))
        for rep_name, rep in reps:
            spaces = {n: cochain_space(alg, rep, n) for n in range(1, 6)}
            matrices = {n: coboundary_matrix(alg, rep, n) for n in range(1, 5)}
            out.append((f"{name}/{rep_name}", alg, rep, spaces, matrices))
    _COMPLEXES = out
    return out


_NIJENHUIS = None


def nijenhuis_fixtures():
    """(algebra, operator) pairs: the exhaustive sign-matrix search plus
    rational multiples of the identity."""
    global _NIJENHUIS
    if _NIJENHUIS is not None:
        return _NIJENHUIS
    searched = [dim2_nilpotent(), dim2_nilpotent(2, 3), dim2_assoc(),
                dim2_assoc_twisted(2, 3), dim3_graded(2), dim3_graded(2, 2, 3)]
    pairs = []
    for alg in searched:
        for mat in nijenhuis_search(alg):
            pairs.append((alg, mat))
    scalars = (Q(0), Q(1), Q(-1), Q(2), Q(1, 2), Q(-3, 2))
    for name, alg in prelie_fixtures()[:8]:
        for lam in scalars:
            pairs.append((alg, Matrix.identity(alg.dim).scale(lam)))
    _NIJENHUIS = pairs
    return pairs


@criterion(1, "coboundary composes to zero")
def test_criterion_1_square_zero():
    fixtures = complex_fixtures()
    checked = 0
    twisted = 0
    for name, alg, rep, spaces, matrices in fixtures:
        if not alg.alpha.is_identity or not alg.beta.is_identity:
            twisted += 1
        for n in (1, 2, 3):
            product = matrices[n + 1] @ matrices[n]
            assert product.is_zero, (name, n)
            checked += 1
    assert checked >= 50, f"only {checked} fixtures"
    assert twisted >= 5


@criterion(2, "coboundary images are cochains")
def test_criterion_2_well_definedness():
    def skew_ok(f):
        for idx in itertools.product(range(f.adim), repeat=f.degree):
            for p in range(f.degree - 2):
                swapped = list(idx)
                swapped[p], swapped[p + 1] = swapped[p + 1], swapped[p]
                if any(a + b != 0 for a, b in
                       zip(f.at(idx), f.at(tuple(swapped)))):
                    return False
        return True

    def equivariant_ok(f, alg, rep):
        for outer, inner in ((rep.phi, alg.alpha), (rep.psi, alg.beta)):
            cols = [inner.col(i) for i in range(alg.dim)]
            for idx in itertools.product(range(f.adim), repeat=f.degree):
                if outer.apply(f.at(idx)) != f.value([cols[i] for i in idx]):
                    return False
        return True

    for name, alg, rep, spaces, matrices in complex_fixtures():
        for n in (1, 2, 3):
            for g in spaces[n].basis:
                dg = coboundary(g, alg, rep)
                assert skew_ok(dg), (name, n)
                assert equivariant_ok(dg, alg, rep), (name, n)


@criterion(3, "semidirect products characterise representations")
def test_criterion_3_semidirect_biconditional():
    valid_prelie = prelie_rep_fixtures()
    assert len(valid_prelie) >= 20
    for name, rep in valid_prelie:
        assert check_prelie(semidirect_prelie(rep)).passed, name

    corrupted = corrupted_prelie_reps(20)
    assert len(corrupted) >= 20
    for name, rep in corrupted:
        assert not check_prelie_rep(rep).passed, name
        assert not check_prelie(_semidirect_prelie_raw(rep)).passed, name

    valid_lie = lie_rep_fixtures()
    assert len(valid_lie) >= 20
    for name, rep in valid_lie:
        assert check_bihom_lie(semidirect_lie(rep)).passed, name

    corrupted_lie = corrupted_lie_reps(20)
    assert len(corrupted_lie) >= 20
    for name, rep in corrupted_lie:
        assert not check_lie_rep(rep).passed, name
        assert not check_bihom_lie(_semidirect_lie_raw(rep)).passed, name


@criterion(4, "O-operators induce pre-Lie structures")
def test_criterion_4_o_operator_theorem():
    cases = []
    for name, alg in prelie_fixtures():
        rep = induced_lie_rep(adjoint_rep(alg), "l-only")
        cases.append((f"id on sub({name})", Matrix.identity(alg.dim), rep))
        cases.append((f"zero on sub({name})", Matrix.zeros(alg.dim, alg.dim), rep))
    for source in (dim2_assoc(), dim3_graded(2)):
        glie = subadjacent(source)
        ad = adjoint_lie_rep(glie)
        for mat in rota_baxter_search(glie):
            cases.append((f"rota-baxter {mat}", mat, ad))
    assert len(cases) >= 40
    for name, mat, rep in cases:
        assert check_o_operator(mat, rep).passed, name
        induced = induced_prelie_from_o(mat, rep)
        assert check_prelie(induced).passed, name
        assert is_lie_morphism(mat, subadjacent(induced), rep.algebra).passed, name


@criterion(5, "Nijenhuis operators generate trivial deformations")
def test_criterion_5_nijenhuis_pipeline():
    pairs = nijenhuis_fixtures()
    assert len(pairs) >= 50
    for alg, mat in pairs:
        assert check_nijenhuis_prelie(alg, mat).passed
        candidate, report = nijenhuis_trivial_deformation(alg, mat)
        assert report.passed
        assert check_linear_deformation(alg, candidate).passed
        assert check_equivalence(alg, BilinearProduct.zero(alg.dim), candidate,
                                 mat).passed
        deformed = BiHomPreLieAlgebra(deformed_product(alg, mat), alg.twists)
        assert check_prelie(deformed).passed
        assert is_prelie_morphism(mat, deformed, alg).passed


@criterion(6, "descent and push-down to the sub-adjacent algebra")
def test_criterion_6_descent_and_pushdown():
    for alg, mat in nijenhuis_fixtures():
        glie = subadjacent(alg)
        assert check_nijenhuis_lie(glie, mat).passed
        candidate = deformed_product(alg, mat)
        pushed = push_deformation_to_lie(alg, candidate)
        assert check_lie_linear_deformation(glie, pushed).passed


@criterion(7, "twisted coboundary reduces to the classical formulas")
def test_criterion_7_classical_oracle():
    rng = random.Random(424243)
    instances = 0
    while instances < 100:
        dim = rng.randint(1, 3)
        vdim = rng.randint(1, 2)
        product = random_product(rng, dim)
        alg = BiHomPreLieAlgebra.classical(product)
        L = tuple(random_matrix(rng, vdim, vdim) for _ in range(dim))
        R = tuple(random_matrix(rng, vdim, vdim) for _ in range(dim))
        rep = PreLieRep(alg, vdim, L, R, Matrix.identity(vdim),
                        Matrix.identity(vdim))
        c = [[list(product.c[i][j]) for j in range(dim)] for i in range(dim)]
        Lr = [[list(row) for row in m.entries] for m in L]
        Rr = [[list(row) for row in m.entries] for m in R]

        t1 = [[Q(rng.randint(-2, 2), rng.choice((1, 2))) for _ in range(vdim)]
              for _ in range(dim)]
        f1 = Cochain.from_map(1, dim, vdim, lambda idx: tuple(t1[idx[0]]))
        df1 = coboundary(f1, alg, rep)
        oracle1 = classical_d1(c, Lr, Rr, t1)
        for x in range(dim):
            for y in range(dim):
                assert df1.at((x, y)) == tuple(oracle1[x][y])

        t2 = [[[Q(rng.randint(-2, 2), rng.choice((1, 2))) for _ in range(vdim)]
               for _ in range(dim)] for _ in range(dim)]
        f2 = Cochain.from_map(2, dim, vdim, lambda idx: tuple(t2[idx[0]][idx[1]]))
        df2 = coboundary(f2, alg, rep)
        oracle2 = classical_d2(c, Lr, Rr, t2)
        for x in range(dim):
            for y in range(dim):
                for z in range(dim):
                    assert df2.at((x, y, z)) == tuple(oracle2[x][y][z])
        instances += 1
    assert instances >= 100


@criterion(8, "pinned cohomology dimensions")
def test_criterion_8_concrete_dimensions():
    from catalog import dim2_abelian
    abelian = dim2_abelian()
    reports = cohomology_table(abelian, adjoint_rep(abelian), [1, 2])
    assert reports[0].dimH == 4
    assert reports[1].dimH == 8

    nilpotent = dim2_nilpotent()
    report = cohomology_table(nilpotent, adjoint_rep(nilpotent), [1])[0]
    assert (report.dimZ, report.dimB, report.dimH) == (2, 0, 2)


@criterion(9, "tensor products of representations are representations")
def test_criterion_9_tensor_representations():
    pairs = []
    for name, alg in prelie_fixtures():
        ad, tv = adjoint_rep(alg), trivial_rep(alg)
        pairs.append((f"ad(x)tv({name})", ad, tv))
        pairs.append((f"tv(x)ad({name})", tv, ad))
        pairs.append((f"tv(x)tv({name})", tv, tv))
        if alg.dim <= 2:
            pairs.append((f"ad(x)ad({name})", ad, ad))
    pairs.append(("ad(x)ad(graded)", adjoint_rep(dim3_graded(2, 2, 3)),
                  adjoint_rep(dim3_graded(2, 2, 3))))
    assert len(pairs) >= 20
    for name, rv, rw in pairs:
        assert check_prelie_rep(tensor_rep(rv, rw)).passed, name
