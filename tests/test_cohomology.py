import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import bihom
from bihom import (
    BiHomPreLieAlgebra,
    BilinearProduct,
    Cochain,
    Matrix,
    PreLieRep,
    adjoint_rep,
    coboundary,
    coboundary_matrix,
    coboundary_preimage,
    cochain_from_linear_map,
    cochain_space,
    cohomology_dims,
    cohomology_table,
    is_coboundary,
    is_cocycle,
    kernel_basis,
    rank,
    semidirect_prelie,
    trivial_rep,
)
from bihom import cohomology
from bihom.cli import run

from catalog import (
    classical_d1,
    classical_d2,
    dim2_abelian,
    dim2_assoc,
    dim2_nilpotent,
    dim3_graded,
    dim3_graded_unipotent,
    dim3_heisenberg,
    prelie_fixtures,
    prelie_rep_fixtures,
    random_matrix,
    random_product,
)
from oracles import (DenseCochain, dense_kernel_basis, oracle_coboundary_matrix,
                     oracle_cochain_basis, oracle_cohomology,
                     oracle_derivation_dim)
import workloads

Q = Fraction


def local_skew_ok(f: Cochain) -> bool:
    n = f.degree
    for idx in itertools.product(range(f.adim), repeat=n):
        for p in range(n - 2):
            swapped = list(idx)
            swapped[p], swapped[p + 1] = swapped[p + 1], swapped[p]
            if any(a + b != 0 for a, b in zip(f.at(idx), f.at(tuple(swapped)))):
                return False
    return True


def local_equivariance_ok(f: Cochain, a, r) -> bool:
    for outer, inner in ((r.phi, a.alpha), (r.psi, a.beta)):
        cols = [inner.col(i) for i in range(a.dim)]
        for idx in itertools.product(range(f.adim), repeat=f.degree):
            if outer.apply(f.at(idx)) != f.value([cols[i] for i in idx]):
                return False
    return True


class TestCochainSpace:
    def test_degree_one_identity_twists_is_everything(self):
        for alg in (dim2_abelian(), dim2_nilpotent(), dim2_assoc()):
            for rep, m in ((adjoint_rep(alg), alg.dim), (trivial_rep(alg), 1)):
                assert cochain_space(alg, rep, 1).dim == alg.dim * m

    def test_abelian_degree_two_dimension(self):
        alg = dim2_abelian()
        assert cochain_space(alg, adjoint_rep(alg), 2).dim == 8

    def test_twisted_degree_one_matches_kernel_oracle(self):
        alg = dim2_nilpotent(2, 3)
        rep = adjoint_rep(alg)
        space = cochain_space(alg, rep, 1)
        # oracle: assemble the commutation constraints over the 4 raw
        # coordinates t[i][k] and take an exact kernel
        rows = []
        for twist in (alg.alpha, alg.beta):
            for i in range(2):
                for k in range(2):
                    row = [Q(0)] * 4
                    for kk in range(2):
                        row[2 * i + kk] += twist.entries[k][kk]
                    for j in range(2):
                        row[2 * j + k] -= twist.entries[j][i]
                    rows.append(row)
        oracle_dim = len(kernel_basis(Matrix.from_rows(rows)))
        assert space.dim == oracle_dim == 2
        # every solved basis element satisfies the raw constraints
        for f in space.basis:
            flat = [f.at((i,))[k] for i in range(2) for k in range(2)]
            for row in rows:
                assert sum((c * x for c, x in zip(row, flat)), Q(0)) == 0

    def test_degree_exceeding_dimension_is_zero(self):
        alg = dim2_nilpotent()
        rep = adjoint_rep(alg)
        assert cochain_space(alg, rep, 4).dim == 0

    def test_degree_zero_rejected(self):
        alg = dim2_nilpotent()
        with pytest.raises(ValueError):
            cochain_space(alg, adjoint_rep(alg), 0)

    @pytest.mark.parametrize("n", [0, -1])
    def test_space_below_degree_one_rejected(self, monkeypatch, n):
        # refused before any table is built: at n = -1 the twist power
        # alpha^(n-1) would first invert alpha
        def no_inverse(m):
            raise AssertionError("inverse called")
        alg = dim3_graded_unipotent(1)
        rep = adjoint_rep(alg)
        monkeypatch.setattr("bihom.linalg.inverse", no_inverse)
        with pytest.raises(ValueError,
                           match="cochain spaces are defined for degree >= 1"):
            cohomology.CochainSpace(alg, rep, n)

    def test_basis_members_satisfy_invariants(self):
        alg = dim3_graded(2, 2, 3)
        rep = adjoint_rep(alg)
        for n in (1, 2, 3):
            for f in cochain_space(alg, rep, n).basis:
                assert local_skew_ok(f)
                assert local_equivariance_ok(f, alg, rep)


class TestCoboundary:
    def test_degree_one_formula_untwisted(self):
        # d f(x, y) = x.f(y) + f(x).y - f(x.y) for the adjoint
        alg = dim2_assoc()
        rep = adjoint_rep(alg)
        rng = random.Random(5)
        f_mat = random_matrix(rng, 2, 2)
        f = cochain_from_linear_map(f_mat)
        df = coboundary(f, alg, rep)
        p = alg.product
        for x in range(2):
            for y in range(2):
                fx, fy = f_mat.col(x), f_mat.col(y)
                ex = tuple(Q(1 if t == x else 0) for t in range(2))
                ey = tuple(Q(1 if t == y else 0) for t in range(2))
                expected = tuple(
                    a + b - c for a, b, c in zip(
                        p.value(ex, fy), p.value(fx, ey),
                        f_mat.apply(p.basis_value(x, y))))
                assert df.at((x, y)) == expected

    def test_identity_cochain_on_nilpotent(self):
        alg = dim2_nilpotent()
        rep = adjoint_rep(alg)
        df = coboundary(cochain_from_linear_map(Matrix.identity(2)), alg, rep)
        assert df.at((0, 0)) == (Q(0), Q(1))
        for idx in ((0, 1), (1, 0), (1, 1)):
            assert df.at(idx) == (Q(0), Q(0))

    def test_abelian_coboundary_vanishes(self):
        alg = dim2_abelian()
        rep = adjoint_rep(alg)
        for f in cochain_space(alg, rep, 2).basis:
            assert coboundary(f, alg, rep).is_zero

    def test_rejects_non_cochain(self):
        alg = dim2_nilpotent(2, 3)
        rep = adjoint_rep(alg)
        # not equivariant for the twists
        bad = cochain_from_linear_map(Matrix.from_rows([[0, 1], [0, 0]]))
        with pytest.raises(ValueError):
            coboundary(bad, alg, rep)

    def test_rejects_non_skew(self):
        alg = dim2_abelian()
        rep = adjoint_rep(alg)
        # t[0][0][1] = e_1 is not zero, though the head (0, 0) repeats
        tensor = ((((Q(0),) * 2, (Q(1), Q(0))), ((Q(0),) * 2, (Q(0),) * 2)),
                  (((Q(0),) * 2, (Q(0),) * 2), ((Q(0),) * 2, (Q(0),) * 2)))
        with pytest.raises(ValueError, match="skew"):
            bad = Cochain.from_map(3, 2, 2,
                                   lambda idx: tensor[idx[0]][idx[1]][idx[2]])
            coboundary(bad, alg, rep)

    def test_output_invariants_hold(self):
        for name, alg in prelie_fixtures():
            if alg.dim > 2:
                continue
            rep = adjoint_rep(alg)
            for n in (1, 2):
                for f in cochain_space(alg, rep, n).basis:
                    df = coboundary(f, alg, rep)
                    assert local_skew_ok(df), name
                    assert local_equivariance_ok(df, alg, rep), name


class TestCoboundaryMatrix:
    def test_abelian_matrix_is_zero(self):
        alg = dim2_abelian()
        rep = adjoint_rep(alg)
        assert coboundary_matrix(alg, rep, 1).is_zero
        assert coboundary_matrix(alg, rep, 2).is_zero

    def test_composition_vanishes(self):
        for name, alg in prelie_fixtures():
            if alg.dim > 2:
                continue
            rep = adjoint_rep(alg)
            m1 = coboundary_matrix(alg, rep, 1)
            m2 = coboundary_matrix(alg, rep, 2)
            assert (m2 @ m1).is_zero, name

    def test_nilpotent_rank_regression(self):
        # kernel of d^1 is cut out by b = 0, d = 2a: two conditions on four
        # coordinates, hence rank 2 (and H^1 = 2 below)
        alg = dim2_nilpotent()
        rep = adjoint_rep(alg)
        assert rank(coboundary_matrix(alg, rep, 1)) == 2

    @pytest.mark.parametrize("n", [1, 2])
    def test_entries_match_the_per_image_oracle(self, n):
        # the oracle solves each image, built as a full tensor, in the
        # library's own bases of C^n and C^(n+1)
        reps = [(name, make(alg)) for name, alg in prelie_fixtures()
                if alg.dim <= 2 for make in (adjoint_rep, trivial_rep)]
        for name, rep in reps + prelie_rep_fixtures():
            alg = rep.algebra
            source, target = ([DenseCochain.from_map(m, f.adim, f.vdim, f.at)
                               for f in cochain_space(alg, rep, m).basis]
                              for m in (n, n + 1))
            assert coboundary_matrix(alg, rep, n) == \
                oracle_coboundary_matrix(alg, rep, source, target), name

    @pytest.mark.parametrize("make, ranks", [
        (lambda: semidirect_prelie(adjoint_rep(dim3_heisenberg())), [23, 121]),
        (lambda: dim3_graded_unipotent(2), [1, 1]),
    ], ids=["dim6", "dim3-graded-unipotent"])
    def test_rank_is_the_next_coboundary_dimension(self, make, ranks):
        # two public paths to dim B^(n+1): the matrix of D_n on the bases
        # of C^n and C^(n+1), and the table's rank(D_n K_n)
        alg = make()
        rep = adjoint_rep(alg)
        table = cohomology_table(alg, rep, [2, 3])
        assert [rank(coboundary_matrix(alg, rep, n)) for n in (1, 2)] == ranks
        assert [report.dimB for report in table] == ranks


class TestOneSystemPerDegree:
    """Each public function assembles E_n, K_n and D_n of a degree once: it
    builds one ``CochainSpace`` per degree it touches."""

    @pytest.fixture
    def built(self, monkeypatch):
        degrees = []
        init = cohomology.CochainSpace.__init__

        def counted(self, a, r, n):
            degrees.append(n)
            init(self, a, r, n)

        monkeypatch.setattr(cohomology.CochainSpace, "__init__", counted)
        return degrees

    def test_cohomology_table(self, built):
        alg = dim2_nilpotent()
        cohomology_table(alg, adjoint_rep(alg), [1, 2])
        assert sorted(built) == [1, 2, 3]

    def test_cohomology_table_solves_no_top_degree_kernel(self, monkeypatch):
        # of degree max+1 only E and D are read, so its K is never solved
        solved = []
        kernel = cohomology.CochainSpace.kernel.func

        def counted(self):
            solved.append(self.degree)
            return kernel(self)

        prop = cached_property(counted)
        prop.__set_name__(cohomology.CochainSpace, "kernel")
        monkeypatch.setattr(cohomology.CochainSpace, "kernel", prop)
        alg = dim2_nilpotent()
        cohomology_table(alg, adjoint_rep(alg), [1, 2])
        assert sorted(solved) == [1, 2]

    def test_cohomology_table_builds_no_coboundary_of_a_zero_image(
            self, monkeypatch):
        # dim C^2 = 0, so both images, D_1 K_1 (which lies in C^2) and
        # D_2 K_2, have no nonzero row, and d o d = 0 on them needs neither
        # D_2 nor D_3; D_1 is still built for the first image.
        built = []
        coboundary = cohomology.CochainSpace.coboundary.func

        def counted(self):
            built.append(self.degree)
            return coboundary(self)

        prop = cached_property(counted)
        prop.__set_name__(cohomology.CochainSpace, "coboundary")
        monkeypatch.setattr(cohomology.CochainSpace, "coboundary", prop)
        alg = dim2_abelian(Matrix.diagonal([2, 3]), Matrix.diagonal([5, 7]))
        rep = adjoint_rep(alg)
        assert [cochain_space(alg, rep, m).dim for m in (1, 2)] == [2, 0]
        built.clear()
        reports = cohomology_table(alg, rep, [1, 2])
        assert built == [1]
        assert [(r.dimZ, r.dimB, r.dimH) for r in reports] == [(2, 0, 2),
                                                               (0, 0, 0)]

    def test_coboundary_functions(self, built):
        alg = dim2_nilpotent()
        rep = adjoint_rep(alg)
        f = cochain_space(alg, rep, 2).basis[0]
        built.clear()
        coboundary(f, alg, rep)
        assert sorted(built) == [2, 3]
        built.clear()
        coboundary_matrix(alg, rep, 1)
        assert sorted(built) == [1, 2]
        built.clear()
        coboundary_preimage(f, alg, rep)
        assert sorted(built) == [1, 2]


class TestCohomologyDims:
    def test_abelian_pinned_dimensions(self):
        alg = dim2_abelian()
        rep = adjoint_rep(alg)
        reports = cohomology_table(alg, rep, [1, 2])
        assert (reports[0].dimZ, reports[0].dimB, reports[0].dimH) == (4, 0, 4)
        assert (reports[1].dimZ, reports[1].dimB, reports[1].dimH) == (8, 0, 8)

    def test_nilpotent_degree_one(self):
        alg = dim2_nilpotent()
        rep = adjoint_rep(alg)
        report = cohomology_dims(alg, rep, 1)
        assert (report.dimZ, report.dimB, report.dimH) == (2, 0, 2)

    def test_nilpotent_degree_two_against_dense_oracle(self):
        alg = dim2_nilpotent()
        rep = adjoint_rep(alg)
        report = cohomology_dims(alg, rep, 2)
        c = [[list(alg.product.c[i][j]) for j in range(2)] for i in range(2)]
        L = [[list(r_) for r_ in m.entries] for m in rep.L]
        R = [[list(r_) for r_ in m.entries] for m in rep.R]
        # Z^2: kernel of the full d^2 action on raw 2-cochain coordinates
        cols = []
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    t = [[[Q(0)] * 2 for _ in range(2)] for _ in range(2)]
                    t[i][j][k] = Q(1)
                    image = classical_d2(c, L, R, t)
                    cols.append([image[x][y][z][w]
                                 for x in range(2) for y in range(2)
                                 for z in range(2) for w in range(2)])
        d2 = Matrix.from_rows(list(zip(*cols)))
        oracle_z = len(kernel_basis(d2))
        # B^2: rank of d^1 on raw 1-cochain coordinates
        cols = []
        for i in range(2):
            for k in range(2):
                t = [[Q(0)] * 2 for _ in range(2)]
                t[i][k] = Q(1)
                image = classical_d1(c, L, R, t)
                cols.append([image[x][y][w]
                             for x in range(2) for y in range(2)
                             for w in range(2)])
        d1 = Matrix.from_rows(list(zip(*cols)))
        oracle_b = rank(d1)
        assert report.dimZ == oracle_z
        assert report.dimB == oracle_b
        assert report.dimH == oracle_z - oracle_b

    def test_invariant_dimension_relation(self):
        for name, alg in prelie_fixtures():
            if alg.dim > 2:
                continue
            rep = adjoint_rep(alg)
            for r in cohomology_table(alg, rep, [1, 2, 3]):
                assert r.dimH == r.dimZ - r.dimB >= 0, name


class TestMembership:
    def test_coboundary_is_cocycle(self):
        alg = dim2_nilpotent()
        rep = adjoint_rep(alg)
        f = coboundary(cochain_from_linear_map(Matrix.identity(2)), alg, rep)
        assert is_cocycle(f, alg, rep)

    def test_zero_cochain_is_coboundary_with_zero_witness(self):
        alg = dim2_nilpotent()
        rep = adjoint_rep(alg)
        zero = Cochain.zero(2, 2, 2)
        assert is_coboundary(zero, alg, rep)
        witness = coboundary_preimage(zero, alg, rep)
        assert witness is not None
        assert coboundary(witness, alg, rep) == zero

    def test_identity_cochain_is_not_cocycle(self):
        alg = dim2_nilpotent()
        rep = adjoint_rep(alg)
        assert not is_cocycle(cochain_from_linear_map(Matrix.identity(2)),
                              alg, rep)

    def test_nonzero_coboundary_witness_round_trip(self):
        alg = dim2_nilpotent()
        rep = adjoint_rep(alg)
        f = coboundary(cochain_from_linear_map(Matrix.identity(2)), alg, rep)
        witness = coboundary_preimage(f, alg, rep)
        assert witness is not None
        assert coboundary(witness, alg, rep) == f

    def test_non_coboundary_detected(self):
        alg = dim2_nilpotent()
        rep = adjoint_rep(alg)
        tensor = [[[Q(0)] * 2 for _ in range(2)] for _ in range(2)]
        tensor[0][1][0] = Q(1)
        f = Cochain.from_map(2, 2, 2, lambda idx: tensor[idx[0]][idx[1]])
        assert not is_coboundary(f, alg, rep)
        assert coboundary_preimage(f, alg, rep) is None

    def test_degree_one_membership_means_zero(self):
        alg = dim2_nilpotent()
        rep = adjoint_rep(alg)
        assert is_coboundary(Cochain.zero(1, 2, 2), alg, rep)
        assert not is_coboundary(cochain_from_linear_map(Matrix.identity(2)),
                                 alg, rep)


class TestClassicalOracleAgreement:
    def test_degree_one_and_two_match_on_random_instances(self):
        from bihom.algebra import BiHomPreLieAlgebra
        from bihom.representation import PreLieRep
        rng = random.Random(2027)
        for _ in range(25):
            dim = rng.randint(1, 3)
            vdim = rng.randint(1, 2)
            product = random_product(rng, dim)
            alg = BiHomPreLieAlgebra.classical(product)
            L = tuple(random_matrix(rng, vdim, vdim) for _ in range(dim))
            R = tuple(random_matrix(rng, vdim, vdim) for _ in range(dim))
            rep = PreLieRep(alg, vdim, L, R, Matrix.identity(vdim),
                            Matrix.identity(vdim))
            c = [[list(product.c[i][j]) for j in range(dim)] for i in range(dim)]
            Lr = [[list(r_) for r_ in m.entries] for m in L]
            Rr = [[list(r_) for r_ in m.entries] for m in R]

            t1 = [[(random_matrix(rng, 1, 1).entries[0][0]) for _ in range(vdim)]
                  for _ in range(dim)]
            f1 = Cochain.from_map(1, dim, vdim, lambda idx: tuple(t1[idx[0]]))
            df1 = coboundary(f1, alg, rep)
            oracle1 = classical_d1(c, Lr, Rr, t1)
            for x in range(dim):
                for y in range(dim):
                    assert df1.at((x, y)) == tuple(oracle1[x][y])

            t2 = [[[random_matrix(rng, 1, 1).entries[0][0] for _ in range(vdim)]
                   for _ in range(dim)] for _ in range(dim)]
            f2 = Cochain.from_map(2, dim, vdim,
                                  lambda idx: tuple(t2[idx[0]][idx[1]]))
            df2 = coboundary(f2, alg, rep)
            oracle2 = classical_d2(c, Lr, Rr, t2)
            for x in range(dim):
                for y in range(dim):
                    for z in range(dim):
                        assert df2.at((x, y, z)) == tuple(oracle2[x][y][z])


def dims(reports):
    return [(r.degree, r.dimZ, r.dimB, r.dimH) for r in reports]


class TestPerImageOracle:
    """The free-coordinate ranks against the per-image pipeline: every
    image built as a full tensor and solved in the target basis."""

    def test_catalog_fixtures(self):
        for name, alg in prelie_fixtures():
            reps = [("trivial", trivial_rep(alg))]
            if alg.dim <= 2:
                reps.append(("adjoint", adjoint_rep(alg)))
            for rep_name, rep in reps:
                assert dims(cohomology_table(alg, rep, [1, 2, 3])) == \
                    oracle_cohomology(alg, rep, [1, 2, 3]), (name, rep_name)

    def test_dim4_semidirect_product(self):
        alg = semidirect_prelie(adjoint_rep(dim2_assoc()))
        trivial, adjoint = trivial_rep(alg), adjoint_rep(alg)
        assert dims(cohomology_table(alg, trivial, [1, 2])) == \
            oracle_cohomology(alg, trivial, [1, 2])
        assert dims(cohomology_table(alg, adjoint, [1])) == \
            oracle_cohomology(alg, adjoint, [1])
        # The oracle needs about 15 s for the adjoint degree 2; this is the
        # value it gives.
        assert dims(cohomology_table(alg, adjoint, [2])) == [(2, 21, 11, 10)]

    def test_dim6_adjoint_finishes(self):
        alg = semidirect_prelie(adjoint_rep(dim3_heisenberg()))
        assert dims(cohomology_table(alg, adjoint_rep(alg), [1, 2])) == \
            [(1, 13, 0, 13), (2, 95, 23, 72)]

    def test_dim6_adjoint_degree_three(self):
        # Only this code has computed these dims; they hold in every basis
        # the benchmark's changes of basis have tried.
        alg = semidirect_prelie(adjoint_rep(dim3_heisenberg()))
        assert dims(cohomology_table(alg, adjoint_rep(alg), [3])) == \
            [(3, 291, 121, 170)]


def dim6():
    return semidirect_prelie(adjoint_rep(dim3_heisenberg()))


class TestDerivationOracle:
    """dim Z^1 with adjoint coefficients against the dimension of the
    derivations that commute with both twists, a separate dense system."""

    def test_catalog_fixtures(self):
        for name, alg in prelie_fixtures():
            assert cohomology_table(alg, adjoint_rep(alg), [1])[0].dimZ == \
                oracle_derivation_dim(alg), name

    @pytest.mark.parametrize("make, dim_z", [
        (dim6, 13),
        (lambda: semidirect_prelie(adjoint_rep(dim3_graded_unipotent(2))), 7),
        (lambda: semidirect_prelie(adjoint_rep(dim6())), 44),
    ], ids=["dim6", "g6", "dim12"])
    def test_pinned_scale_cases(self, make, dim_z):
        alg = make()
        assert cohomology_table(alg, adjoint_rep(alg), [1])[0].dimZ == \
            oracle_derivation_dim(alg) == dim_z


# dim12 = semidirect_prelie(adjoint_rep(dim6)) with adjoint coefficients: K_3
# is the 9504 x 9504 identity, which a dense kernel store held at about
# 776 MB peak.  Degrees 1 and 2 (about 1 s) run the exact elimination on the
# degree-1/2 systems.  Their twists are identities, so E_n is empty; g6 has
# unipotent twists, so its E_3 is not, and the E_n K_n = 0 assertion of the
# kernel solve runs at size.  The ranks of g6's coboundary matrices are its
# B^2 and B^3, so coboundary_matrix and cohomology_table agree there on a
# nonzero E_n, and their product checks d o d = 0 in the bases of C^1 and C^3.
DIM12 = """
import json, resource
from bihom import adjoint_rep, cohomology_table, semidirect_prelie
from catalog import dim3_heisenberg
dim6 = semidirect_prelie(adjoint_rep(dim3_heisenberg()))
dim12 = semidirect_prelie(adjoint_rep(dim6))
r12 = adjoint_rep(dim12)
reports = cohomology_table(dim12, r12, [1, 2]) + cohomology_table(dim12, r12, [3])
peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"dims": [(r.dimZ, r.dimB, r.dimH) for r in reports],
                  "peak_mb": peak_mb}))
"""


class TestScale:
    def test_dim12_adjoint_degrees_one_to_three(self):
        # a fresh interpreter, whose peak RSS is the computation's, unless
        # this process's own peak, which Linux carries into a child, is higher
        paths = [str(Path(bihom.__file__).resolve().parent.parent),
                 str(Path(__file__).resolve().parent)]
        out = subprocess.run([sys.executable, "-c", DIM12], capture_output=True,
                             text=True, timeout=600, check=True,
                             env=dict(os.environ,
                                      PYTHONPATH=os.pathsep.join(paths)))
        result = json.loads(out.stdout)
        assert result["dims"] == [[44, 0, 44], [599, 100, 499],
                                  [3469, 1129, 2340]]
        assert result["peak_mb"] < 200, result["peak_mb"]

    def test_g6_unipotent_degree_three(self):
        g6 = semidirect_prelie(adjoint_rep(dim3_graded_unipotent(2)))
        [report] = cohomology_table(g6, adjoint_rep(g6), [3])
        assert (report.dimZ, report.dimB, report.dimH) == (64, 14, 50)
        m1, m2 = (coboundary_matrix(g6, adjoint_rep(g6), n) for n in (1, 2))
        assert [rank(m1), rank(m2)] == [5, 14]
        assert (m2 @ m1).is_zero


class TestKernelStore:
    """A cochain space keeps K_n as one sparse matrix; its dense vectors,
    basis and combinations are read off it."""

    def test_dense_views_match_the_dense_oracle(self):
        for alg in (dim2_nilpotent(2, 3), dim3_graded(2, 2, 3), dim2_abelian()):
            rep = adjoint_rep(alg)
            for n in (1, 2, 3):
                space = cochain_space(alg, rep, n)
                oracle = dense_kernel_basis(
                    Matrix.from_sparse(space.equivariance, space.width))
                assert space.vectors == tuple(oracle)
                assert space.dim == len(oracle) == space.kernel.cols
                assert [f.coords for f in space.basis] == oracle
                coords = [Q(i + 1, 2) for i in range(space.dim)]
                expected = tuple(sum((c * v[k] for c, v in zip(coords, oracle)),
                                     Q(0)) for k in range(space.width))
                assert space.combine(coords).coords == expected
                # the free columns of E_n's RREF are the coordinates in C^n
                assert [space.kernel.sparse_rows[j] for j in space.free] == \
                    [{i: 1} for i in range(space.dim)]
                assert [expected[j] for j in space.free] == coords

    def test_cohomology_table_keeps_kernels_sparse(self, monkeypatch):
        spaces = []
        solve = cohomology.cochain_space

        def spy(a, r, n):
            spaces.append(solve(a, r, n))
            return spaces[-1]

        monkeypatch.setattr(cohomology, "cochain_space", spy)
        alg = semidirect_prelie(adjoint_rep(dim3_heisenberg()))
        cohomology_table(alg, adjoint_rep(alg), [1, 2])
        assert [space.degree for space in spaces] == [1, 2]
        for space in spaces:
            assert "entries" not in vars(space.kernel)
            assert "vectors" not in vars(space)

    def test_cohomology_table_builds_no_dense_structure(self):
        alg = semidirect_prelie(adjoint_rep(dim3_heisenberg()))
        cohomology_table(alg, adjoint_rep(alg), [1])
        assert "c" not in vars(alg.product)
        assert "entries" not in vars(alg.product.table)
        assert "entries" not in vars(alg.alpha)


class TestCallerErrors:
    """Inputs that do not belong together raise ValueError at every entry
    point, before any computation can blame the library."""

    FOREIGN = "representation is over a different algebra"

    @pytest.mark.parametrize("call", [coboundary, is_cocycle,
                                      coboundary_preimage, is_coboundary])
    @pytest.mark.parametrize("degree", [1, 2])
    def test_representation_over_another_algebra(self, call, degree):
        f = Cochain.zero(degree, 2, 2)
        with pytest.raises(ValueError, match=self.FOREIGN):
            call(f, dim2_nilpotent(), adjoint_rep(dim2_abelian()))

    def test_coboundary_matrix_over_another_algebra(self):
        with pytest.raises(ValueError, match=self.FOREIGN):
            coboundary_matrix(dim2_nilpotent(), adjoint_rep(dim2_abelian()), 1)


class TestAssertedIdentities:
    """Each identity that the solve of K_n or an evaluation of D_n asserts
    raises RuntimeError when it fails."""

    def test_inputs_must_solve_the_equivariance_system(self, monkeypatch):
        def outside(rows, width):
            # a unit column that the first row of E_n does not annihilate
            column = min(rows[0])
            return (Matrix.from_sparse([{column: Q(1)}], width).transpose(),
                    [column])

        monkeypatch.setattr(cohomology, "_kernel", outside)
        alg = dim2_nilpotent(2, 3)
        rep = adjoint_rep(alg)
        with pytest.raises(RuntimeError, match="E_n K"):
            cochain_space(alg, rep, 1)
        with pytest.raises(RuntimeError, match="E_n K"):
            cohomology_table(alg, rep, [1, 2])

    def test_images_must_be_skew(self, monkeypatch):
        rows_at = cohomology.CochainSpace.rows_at

        def skewed(self, X):
            rows = rows_at(self, X)
            if tuple(sorted(X[:-1])) != X[:-1]:
                rows[0][0] = rows[0].get(0, 0) + 1
            return rows

        monkeypatch.setattr(cohomology.CochainSpace, "rows_at", skewed)
        alg = dim2_nilpotent()
        with pytest.raises(RuntimeError, match="not skew"):
            cohomology_table(alg, adjoint_rep(alg), [1, 2])
        # the images of degree-1 cochains have one-index heads, all
        # canonical, so n = 2 is the first degree whose images can fail
        # skew-symmetry
        with pytest.raises(RuntimeError, match="not skew"):
            coboundary_matrix(alg, adjoint_rep(alg), 2)

    def test_images_must_be_equivariant(self):
        alg = dim2_nilpotent(2, 3)
        rep = adjoint_rep(alg)
        other = PreLieRep(alg, rep.vdim, rep.L, rep.R, rep.phi.scale(2), rep.psi)
        space = cochain_space(alg, rep, 1)
        with pytest.raises(RuntimeError, match="E_\\(n\\+1\\)"):
            cohomology._image(cohomology.CochainSpace(alg, rep, 1),
                              cohomology.CochainSpace(alg, other, 2),
                              space.kernel)

    def test_matrix_images_must_be_equivariant(self, monkeypatch):
        # the matrix reads the images at the free columns of E_(n+1), which
        # gives their coordinates only for images in C^(n+1)
        alg = dim2_nilpotent(2, 3)
        rep = adjoint_rep(alg)
        other = PreLieRep(alg, rep.vdim, rep.L, rep.R, rep.phi.scale(2), rep.psi)
        solve = cohomology.cochain_space
        monkeypatch.setattr(cohomology, "cochain_space", lambda a, r, n:
                            solve(a, other if n == 2 else r, n))
        with pytest.raises(RuntimeError, match="E_\\(n\\+1\\)"):
            coboundary_matrix(alg, rep, 1)

    def test_coboundary_must_square_to_zero(self):
        # e2.e1 = e2 fails left-symmetry, so its "adjoint" coefficients give
        # no complex.
        c = [[[Q(0)] * 2 for _ in range(2)] for _ in range(2)]
        c[1][0][1] = Q(1)
        alg = BiHomPreLieAlgebra.classical(BilinearProduct.from_entries(c))
        with pytest.raises(RuntimeError, match="square to zero"):
            cohomology_table(alg, adjoint_rep(alg), [1, 2])


def _fractions_only(values) -> bool:
    return all(type(x) is Fraction for x in values)


class TestExactRows:
    """The rows of the complex hold ``int`` wherever a value is integral,
    and ``Fraction`` only where it is not; no public result holds an
    ``int``, and the mixed rows give the oracle's dimensions."""

    @pytest.mark.parametrize("make, make_rep", [
        (dim3_heisenberg, adjoint_rep),
        # the RREFs of their E_n keep int entries beside the pivots
        (lambda: dim3_graded_unipotent(2), trivial_rep),
        (lambda: dim2_abelian(Matrix.from_rows([[1, 1], [0, 1]]),
                              Matrix.identity(2)), adjoint_rep),
        # a table with the entry 1/2
        (lambda: workloads.conjugate(dim2_nilpotent(2, 3),
                                     Matrix.diagonal([Q(1, 2), 3])),
         adjoint_rep),
    ], ids=["dim3-heisenberg", "dim3-graded-unipotent", "dim2-abelian-shear",
            "dim2-nilpotent-halved"])
    def test_public_results_hold_fractions(self, make, make_rep):
        alg = make()
        rep = make_rep(alg)
        for n in (1, 2):
            space = cochain_space(alg, rep, n)
            assert _fractions_only(x for v in space.vectors for x in v)
            assert _fractions_only(x for f in space.basis for x in f.coords)
            assert _fractions_only(space.combine(
                [Q(i + 1) for i in range(space.dim)]).coords)
            m = coboundary_matrix(alg, rep, n)
            assert _fractions_only(a for row in m.sparse_rows
                                   for a in row.values())
            assert _fractions_only(a for row in m.entries for a in row)
            for f in space.basis:
                df = coboundary(f, alg, rep)
                assert _fractions_only(df.coords)
                g = coboundary_preimage(df, alg, rep)
                assert g is not None and _fractions_only(g.coords)

    @given(fixture=st.sampled_from([(name, alg) for name, alg
                                    in prelie_fixtures() if alg.dim <= 3]),
           change=st.sampled_from([workloads._monomial, workloads._unipotent]),
           seed=st.integers(0, 2 ** 16),
           make_rep=st.sampled_from([trivial_rep, adjoint_rep]))
    def test_conjugates_match_the_oracle(self, fixture, change, seed, make_rep):
        # the bench's changes of basis: _monomial scales by 1/2 and 2, so
        # its conjugates give rows that mix int and Fraction entries
        name, alg = fixture
        alg = workloads.conjugate(alg, change(random.Random(seed), alg.dim))
        rep = make_rep(alg)
        assert dims(cohomology_table(alg, rep, [1, 2])) == \
            oracle_cohomology(alg, rep, [1, 2]), name

    @pytest.mark.parametrize("seed", [1, 7])
    def test_dense_bench_jobs_build_integer_rows(self, seed, tmp_path,
                                                 monkeypatch, capsys):
        # their documents are integral, so every table and every row of
        # E_n and D_n that a job builds holds ints only
        spaces = []
        init = cohomology.CochainSpace.__init__

        def kept(self, a, r, n):
            init(self, a, r, n)
            spaces.append(self)

        monkeypatch.setattr(cohomology.CochainSpace, "__init__", kept)
        monkeypatch.chdir(tmp_path)
        jobs = [job for job in workloads.generate("cohomology", seed, tmp_path)
                if job.regime == "dense"]
        assert jobs
        for job in jobs:
            assert run(job.argv) == 0, job.id
        capsys.readouterr()
        entries = []
        for space in spaces:
            built = vars(space)
            tables = built.get("tables", {})
            for table in tables.values():
                for rows in table:
                    entries.extend(a for row in rows for a in row.values())
            for name in ("equivariance", "coboundary"):
                entries.extend(a for row in built.get(name, ())
                               for a in row.values())
        assert entries
        assert {type(a) for a in entries} == {int}


class TestIdentityFamilies:
    """``E_n`` builds no family whose two twists are identities; the kernel
    it solves is still the oracle's basis of C^n."""

    @staticmethod
    def reps():
        # identity algebra twists with scaled carrier twists: that family is
        # not skipped, and it leaves no nonzero cochain
        alg = dim2_assoc()
        zero = Matrix.zeros(1, 1)
        scaled = PreLieRep(alg, 1, (zero,) * 2, (zero,) * 2,
                           Matrix.diagonal([2]), Matrix.diagonal([3]))
        return prelie_rep_fixtures() + [("scaled-carrier(dim2-assoc)", scaled)]

    def test_kernel_is_the_oracle_basis(self):
        for name, rep in self.reps():
            alg = rep.algebra
            for n in (1, 2, 3):
                basis = [DenseCochain.from_map(n, f.adim, f.vdim, f.at)
                         for f in cochain_space(alg, rep, n).basis]
                assert basis == oracle_cochain_basis(alg, rep, n), (name, n)
