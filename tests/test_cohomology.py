import itertools
import random
from fractions import Fraction
from functools import cached_property

import pytest

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
from bihom.cohomology import CochainSpace

from catalog import (
    classical_d1,
    classical_d2,
    dim2_abelian,
    dim2_assoc,
    dim2_nilpotent,
    dim3_graded,
    dim3_heisenberg,
    prelie_fixtures,
    random_matrix,
    random_product,
)
from oracles import oracle_cohomology

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

    def test_basis_permutation_does_not_change_dims(self):
        alg = dim2_nilpotent()
        rep = adjoint_rep(alg)
        source = cochain_space(alg, rep, 1)
        target = cochain_space(alg, rep, 2)
        permuted_source = CochainSpace(1, tuple(reversed(source.basis)))
        permuted_target = CochainSpace(2, tuple(reversed(target.basis)))
        m = coboundary_matrix(alg, rep, 1, source=source, target=target)
        mp = coboundary_matrix(alg, rep, 1, source=permuted_source,
                               target=permuted_target)
        assert rank(m) == rank(mp)
        assert len(kernel_basis(m)) == len(kernel_basis(mp))


class TestOneSystemPerDegree:
    """Each public function assembles E_n, K_n and D_n of a degree once: it
    builds one ``_Degree`` per degree it touches."""

    @pytest.fixture
    def built(self, monkeypatch):
        degrees = []
        init = cohomology._Degree.__init__

        def counted(self, a, r, n):
            degrees.append(n)
            init(self, a, r, n)

        monkeypatch.setattr(cohomology._Degree, "__init__", counted)
        return degrees

    def test_cohomology_table(self, built):
        alg = dim2_nilpotent()
        cohomology_table(alg, adjoint_rep(alg), [1, 2])
        assert sorted(built) == [1, 2, 3]

    def test_cohomology_table_solves_no_top_degree_kernel(self, monkeypatch):
        # of degree max+1 only E and D are read, so its K is never solved
        solved = []
        kernel = cohomology._Degree.kernel.func

        def counted(self):
            solved.append(self.n)
            return kernel(self)

        prop = cached_property(counted)
        prop.__set_name__(cohomology._Degree, "kernel")
        monkeypatch.setattr(cohomology._Degree, "kernel", prop)
        alg = dim2_nilpotent()
        cohomology_table(alg, adjoint_rep(alg), [1, 2])
        assert sorted(solved) == [1, 2]

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


class TestAssertedIdentities:
    """Each identity that an evaluation of D_n asserts raises RuntimeError
    when it fails."""

    def test_inputs_must_solve_the_equivariance_system(self):
        alg = dim2_nilpotent(2, 3)
        rep = adjoint_rep(alg)
        src, dst = cohomology._Degree(alg, rep, 1), cohomology._Degree(alg, rep, 2)
        not_a_cochain = (Q(0), Q(1), Q(0), Q(0))
        with pytest.raises(RuntimeError, match="E_n K"):
            cohomology._image(src, dst, [not_a_cochain])

    def test_images_must_be_skew(self, monkeypatch):
        rows_at = cohomology._Degree.rows_at

        def skewed(self, X):
            rows = rows_at(self, X)
            if tuple(sorted(X[:-1])) != X[:-1]:
                rows[0][0] = rows[0].get(0, 0) + 1
            return rows

        monkeypatch.setattr(cohomology._Degree, "rows_at", skewed)
        alg = dim2_nilpotent()
        with pytest.raises(RuntimeError, match="not skew"):
            cohomology_table(alg, adjoint_rep(alg), [1, 2])

    def test_images_must_be_equivariant(self):
        alg = dim2_nilpotent(2, 3)
        rep = adjoint_rep(alg)
        other = PreLieRep(alg, rep.vdim, rep.L, rep.R, rep.phi.scale(2), rep.psi)
        space = cochain_space(alg, rep, 1)
        with pytest.raises(RuntimeError, match="E_\\(n\\+1\\)"):
            cohomology._image(cohomology._Degree(alg, rep, 1),
                              cohomology._Degree(alg, other, 2), space.vectors)

    def test_coboundary_must_square_to_zero(self):
        # e2.e1 = e2 fails left-symmetry, so its "adjoint" coefficients give
        # no complex.
        c = [[[Q(0)] * 2 for _ in range(2)] for _ in range(2)]
        c[1][0][1] = Q(1)
        alg = BiHomPreLieAlgebra.classical(BilinearProduct.from_entries(c))
        with pytest.raises(RuntimeError, match="square to zero"):
            cohomology_table(alg, adjoint_rep(alg), [1, 2])
