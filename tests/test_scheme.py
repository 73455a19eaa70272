import random
from fractions import Fraction

import pytest

from clkset import (
    GeometryCtx,
    SchemeParams,
    build_incidence,
    build_relation,
    bundle_for,
    eigenvalue_p,
    geometry,
    in_rowspace,
    kernel_basis,
    point_pencil_family,
    qbinom,
    rowspace_equals_v0_v1,
    v1_eigen_check,
    valence,
)
from _oracles import free_columns_from_rref, rref_fraction
from clkset import SchemeBundle
from clkset.linalg import CertificateError, check_rref_certificate, rref_int, scale_to_int
from clkset.scheme import disjointness_vector_identity, full_spectrum_check, incidence_rows


class TestIncidence:
    def test_pg32_shape_and_sums(self, pg32):
        a = build_incidence(pg32)
        assert a.shape == (15, 35)
        for c in range(35):
            assert sum(a.rows[r][c] for r in range(15)) == 3
        for r in range(15):
            assert sum(a.rows[r]) == 7

    def test_full_row_rank(self, pg32, pg42):
        assert build_incidence(pg32).rank() == 15
        assert build_incidence(pg42).rank() == 31

    def test_row_sum_vector(self, pg32):
        a = build_incidence(pg32)
        ones = [1] * 35
        av = a.matvec(ones)
        assert all(v == qbinom(3, 1, 2) for v in av)


class TestRelations:
    def test_a0_identity(self, pg32):
        from clkset.linalg import ExactMatrix

        assert build_relation(0, pg32) == ExactMatrix.identity(35)

    def test_sum_is_all_ones(self, pg32):
        total = [[0] * 35 for _ in range(35)]
        for i in range(3):
            ai = build_relation(i, pg32)
            for r in range(35):
                for c in range(35):
                    total[r][c] += ai.rows[r][c]
        assert all(v == 1 for row in total for v in row)

    def test_row_sums_match_valences(self, pg32, pg33):
        for ctx in (pg32, pg33):
            p = ctx.params
            for i in range(p.k + 2):
                ai = build_relation(i, ctx)
                expected = valence(i, p)
                assert all(sum(row) == expected for row in ai.rows)
                assert expected == eigenvalue_p(0, i, p)

    def test_kneser_row_sum_matches_disjoint_count(self, pg32):
        from clkset import count_disjoint

        kneser = build_relation(2, pg32)
        assert all(sum(row) == count_disjoint(3, 2, 1, 1) for row in kneser.rows)

    def test_relations_commute(self, pg32):
        a1 = build_relation(1, pg32)
        a2 = build_relation(2, pg32)
        assert a1.matmul(a2) == a2.matmul(a1)


class TestKernelAndRowspace:
    def test_kernel_dimension(self, pg32):
        a = build_incidence(pg32)
        basis = kernel_basis(a)
        assert len(basis) == 35 - 15

    def test_rows_in_rowspace(self, pg32):
        a = build_incidence(pg32)
        for row in a.rows[:5]:
            assert in_rowspace(row, a)

    def test_pencil_characteristic_vector_in_rowspace(self, pg32):
        a = build_incidence(pg32)
        pen = point_pencil_family(pg32, 3)
        chi = [pen.chi(c) for c in range(35)]
        assert in_rowspace(chi, a)
        assert chi == a.rows[3]  # the pencil is literally a row of A

    def test_random_non_member_fails(self, pg32):
        rng = random.Random(2)
        a = build_incidence(pg32)
        hits = 0
        for _ in range(20):
            ids = rng.sample(range(35), 7)
            chi = [1 if c in ids else 0 for c in range(35)]
            if not in_rowspace(chi, a):
                hits += 1
        assert hits >= 19  # random 7-sets are essentially never members

    def test_routes_agree_on_random_vectors(self, pg32, pg33):
        rng = random.Random(4)
        for ctx in (pg32, pg33):
            a = build_incidence(ctx)
            n = a.ncols
            for _ in range(100):
                if rng.random() < 0.5:
                    v = [rng.randint(-2, 2) for _ in range(n)]
                else:  # genuine rowspace members mixed in
                    coeffs = [rng.randint(-2, 2) for _ in range(a.nrows)]
                    v = [
                        sum(c * a.rows[r][j] for r, c in enumerate(coeffs))
                        for j in range(n)
                    ]
                in_rowspace(v, a)  # internal assertion compares both routes


class TestDisjointnessIdentity:
    def test_every_line_pg32(self, pg32):
        a = build_incidence(pg32)
        for pi in range(35):
            assert disjointness_vector_identity(pi, pg32, a)

    def test_planes_pg42(self, pg42_planes):
        a = build_incidence(pg42_planes)
        for pi in range(0, 155, 9):
            assert disjointness_vector_identity(pi, pg42_planes, a)

    def test_incidence_column_is_point_vector(self, pg32):
        a = build_incidence(pg32)
        pi = 11
        chi = [Fraction(1 if c == pi else 0) for c in range(35)]
        v_pi = a.matvec(chi)
        expected = [
            1 if (pg32.kspace_masks[pi] >> p) & 1 else 0 for p in range(15)
        ]
        assert v_pi == expected


class TestBundle:
    @pytest.mark.parametrize("n,k,q", [(3, 1, 2), (3, 1, 3), (4, 1, 2), (4, 2, 2)])
    def test_kernel_int_matches_scaled_fraction_basis(self, n, k, q):
        ctx = geometry(n, k, q)
        rows, pivots = rref_fraction(incidence_rows(ctx))
        total = len(ctx.kspaces)
        expected = []
        for f, _, _ in free_columns_from_rref(rows, pivots, total):
            v = [Fraction(0)] * total
            v[f] = Fraction(1)
            for r, pcol in enumerate(pivots):
                v[pcol] = -rows[r][f]
            expected.append(scale_to_int(v))
        assert bundle_for(ctx).kernel_int() == expected

    @pytest.mark.parametrize(
        "n,k,q", [(3, 1, 2), (3, 1, 3), (4, 1, 2), (4, 2, 2), (5, 1, 2)]
    )
    def test_incidence_rref_matches_fraction_oracle(self, n, k, q):
        ctx = geometry(n, k, q)
        bundle = SchemeBundle(ctx)
        rows, pivots = rref_fraction(incidence_rows(ctx))
        free = free_columns_from_rref(rows, pivots, len(ctx.kspaces))
        assert bundle.incidence_rref() == (pivots, free)

    def test_tampered_incidence_certificate_raises(self, pg33):
        rows = incidence_rows(pg33)
        pivots, free = rref_int(rows, len(pg33.kspaces))
        check_rref_certificate(rows, pivots, free)
        j = next(j for j, (_, _, supp) in enumerate(free) if supp)
        f, scale, supp = free[j]
        (pcol, coef), *rest = supp
        tampered = free[:j] + [(f, scale, ((pcol, coef + 1), *rest))] + free[j + 1 :]
        with pytest.raises(CertificateError):
            check_rref_certificate(rows, pivots, tampered)

    def test_dropped_ctx_is_freed(self):
        import gc
        import weakref

        ctx = GeometryCtx(SchemeParams(n=3, k=1, q=2))
        assert bundle_for(ctx) is bundle_for(ctx)
        ref = weakref.ref(ctx)
        del ctx
        gc.collect()
        assert ref() is None


class TestEigenVerification:
    def test_pencil_shifted_vector(self, pg32):
        pen = point_pencil_family(pg32, 0)
        total = len(pg32.kspaces)
        v = [Fraction(pen.chi(c)) - Fraction(len(pen), total) for c in range(total)]
        assert v1_eigen_check(v, pg32)

    def test_all_ones_rejected(self, pg32):
        assert not v1_eigen_check([Fraction(1)] * 35, pg32)

    def test_zero_vector_degenerate(self, pg32):
        assert v1_eigen_check([Fraction(0)] * 35, pg32)

    def test_explicit_kneser_matrix_agrees(self, pg32):
        kneser = build_relation(2, pg32)
        pen = point_pencil_family(pg32, 5)
        total = 35
        v = [Fraction(pen.chi(c)) - Fraction(7, 35) for c in range(total)]
        assert v1_eigen_check(v, pg32, kneser)


class TestSpectralSplit:
    def test_pg32(self, pg32):
        split = rowspace_equals_v0_v1(pg32)
        assert (split.rank, split.dim_v0, split.dim_v1) == (15, 1, 14)
        assert split.ok

    def test_pg42(self, pg42):
        split = rowspace_equals_v0_v1(pg42)
        assert (split.rank, split.dim_v0, split.dim_v1) == (31, 1, 30)
        assert split.ok


class TestEigenspaceDimsIndependent:
    def test_pg32_dims_same_from_either_matrix(self, pg32):
        p = pg32.params
        a1 = build_relation(1, pg32)
        kneser = build_relation(2, pg32)
        for j in range(3):
            d1 = len(a1.eigenspace_basis(eigenvalue_p(j, 1, p)))
            d2 = len(kneser.eigenspace_basis(eigenvalue_p(j, 2, p)))
            assert d1 == d2


def test_full_spectrum_small():
    ctx = geometry(2, 1, 2)  # Fano plane lines
    cert = full_spectrum_check(ctx)
    assert cert.ok
    assert sum(cert.dims) == 7
    assert cert.dims[0] == 1
