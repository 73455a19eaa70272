import random
from fractions import Fraction

import pytest

from clkset import (
    GeometryCtx,
    SchemeParams,
    bundle_for,
    eigenvalue_p,
    geometry,
    point_pencil_family,
    qbinom,
    rowspace_equals_v0_v1,
    valence,
)
from _oracles import (
    eigenspace_rref,
    first_residual,
    free_columns_from_rref,
    full_spectrum_check_rref,
    kernel_basis_fraction,
    relation_rows,
    residual_fraction,
    rowspace_equals_v0_v1_rref,
    rref_fraction,
    scale_to_int,
    v1_eigen_check,
)
from clkset import SchemeBundle, scheme
from clkset.geometry import ids_of
from clkset.io import DiskCache
from clkset.linalg import (
    CertificateError,
    check_rref_certificate,
    rref_int,
)
from clkset.scheme import (
    SpectralSplit,
    SpectrumCertificate,
    disjointness_vector_identity,
    full_spectrum_check,
    incidence_rows,
    q_disjoint_coefficient,
)


def matvec(rows, v):
    return [sum(a * b for a, b in zip(row, v) if a) for row in rows]


def shifted(rows, lam):
    """Integer rows of M - lam I."""
    return [[v - lam * (r == c) for c, v in enumerate(row)] for r, row in enumerate(rows)]


class TestIncidence:
    def test_pg32_shape_and_sums(self, pg32):
        a = incidence_rows(pg32)
        assert (len(a), len(a[0])) == (15, 35)
        for c in range(35):
            assert sum(a[r][c] for r in range(15)) == 3
        for r in range(15):
            assert sum(a[r]) == 7

    def test_full_row_rank(self, pg32, pg42):
        assert len(rref_int(incidence_rows(pg32), 35)[0]) == 15
        assert len(rref_int(incidence_rows(pg42), 155)[0]) == 31

    def test_row_sum_vector(self, pg32):
        av = matvec(incidence_rows(pg32), [1] * 35)
        assert all(v == qbinom(3, 1, 2) for v in av)


class TestRelations:
    def test_a0_identity(self, pg32):
        assert relation_rows(0, pg32) == [[int(r == c) for c in range(35)] for r in range(35)]

    def test_sum_is_all_ones(self, pg32):
        total = [[0] * 35 for _ in range(35)]
        for i in range(3):
            ai = relation_rows(i, pg32)
            for r in range(35):
                for c in range(35):
                    total[r][c] += ai[r][c]
        assert all(v == 1 for row in total for v in row)

    def test_row_sums_match_valences(self, pg32, pg33):
        for ctx in (pg32, pg33):
            p = ctx.params
            for i in range(p.k + 2):
                ai = relation_rows(i, ctx)
                expected = valence(i, p)
                assert all(sum(row) == expected for row in ai)
                assert expected == eigenvalue_p(0, i, p)

    def test_kneser_row_sum_matches_disjoint_count(self, pg32):
        from clkset import count_disjoint

        kneser = relation_rows(2, pg32)
        assert all(sum(row) == count_disjoint(3, 2, 1, 1) for row in kneser)

    def test_relations_commute(self, pg32):
        a1 = relation_rows(1, pg32)
        a2 = relation_rows(2, pg32)

        def matmul(x, y):
            return [matvec(x, col) for col in zip(*y)]  # columns of x @ y

        assert matmul(a1, a2) == matmul(a2, a1)


class TestKernelAndRowspace:
    def test_kernel_dimension(self, pg32):
        basis = bundle_for(pg32).kernel_int()
        assert len(basis) == 35 - 15
        a = incidence_rows(pg32)
        assert all(not any(matvec(a, v)) for v in basis)

    def test_rows_in_rowspace(self, pg32):
        _, free = bundle_for(pg32).incidence_rref()
        for row in incidence_rows(pg32)[:5]:
            assert first_residual(free, row) is None

    def test_pencil_characteristic_vector_in_rowspace(self, pg32):
        _, free = bundle_for(pg32).incidence_rref()
        chi = point_pencil_family(pg32, 3).vector()
        assert first_residual(free, chi) is None
        assert chi == incidence_rows(pg32)[3]  # the pencil is literally a row of A

    def test_random_non_member_fails(self, pg32):
        rng = random.Random(2)
        _, free = bundle_for(pg32).incidence_rref()
        hits = 0
        for _ in range(20):
            ids = rng.sample(range(35), 7)
            chi = [1 if c in ids else 0 for c in range(35)]
            if first_residual(free, chi) is not None:
                hits += 1
        assert hits >= 19  # random 7-sets are essentially never members

    def test_routes_agree_on_random_vectors(self, pg32, pg33, pg42):
        # first_residual against the Fraction residual of the oracle RREF
        rng = random.Random(4)
        for ctx in (pg32, pg33, pg42):
            a = incidence_rows(ctx)
            total = len(ctx.kspaces)
            _, free = bundle_for(ctx).incidence_rref()
            rows, pivots = rref_fraction(a)
            misses = 0
            for _ in range(100):
                if rng.random() < 0.5:
                    v = [rng.randint(-2, 2) for _ in range(total)]
                else:  # genuine rowspace members mixed in
                    coeffs = [rng.randint(-2, 2) for _ in range(len(a))]
                    v = [sum(c * row[j] for c, row in zip(coeffs, a) if c) for j in range(total)]
                res = residual_fraction(rows, pivots, v)
                first = next((c for c, x in enumerate(res) if x), None)
                miss = first_residual(free, v)
                assert (None if miss is None else miss[1]) == first
                misses += miss is not None
            assert 0 < misses < 100


class TestDisjointnessIdentity:
    def test_every_line_pg32(self, pg32):
        for pi in range(35):
            assert disjointness_vector_identity(pi, pg32)

    def test_planes_pg42(self, pg42_planes):
        for pi in range(0, 155, 9):
            assert disjointness_vector_identity(pi, pg42_planes)

    def test_identity_against_matrix_product(self, pg33):
        # the popcount identity against A v with v in Fractions
        p = pg33.params
        coeff = q_disjoint_coefficient(p)
        a = incidence_rows(pg33)
        disj = pg33.disjointness_masks()
        inv = Fraction(1, qbinom(p.n, p.k, p.q))
        for pi in (0, 57, 129):
            v = [((disj[pi] >> c) & 1) - coeff * (inv - (c == pi)) for c in range(130)]
            assert not any(matvec(a, v))
            assert disjointness_vector_identity(pi, pg33)
        bad = GeometryCtx(SchemeParams(n=3, k=1, q=3))
        rel = bad.relation_masks()
        rel[1], rel[2] = rel[2], rel[1]  # "disjoint" now reads "meet in a point"
        assert not disjointness_vector_identity(0, bad)

    def test_incidence_column_is_point_vector(self, pg32):
        a = incidence_rows(pg32)
        pi = 11
        chi = [1 if c == pi else 0 for c in range(35)]
        v_pi = matvec(a, chi)
        expected = [
            1 if (pg32.kspace_masks[pi] >> p) & 1 else 0 for p in range(15)
        ]
        assert v_pi == expected


class TestBundle:
    @pytest.mark.parametrize("n,k,q", [(3, 1, 2), (3, 1, 3), (4, 1, 2), (4, 2, 2)])
    def test_kernel_int_matches_scaled_fraction_basis(self, n, k, q):
        ctx = geometry(n, k, q)
        total = len(ctx.kspaces)
        rows, pivots = rref_fraction(incidence_rows(ctx))
        expected = [scale_to_int(v) for v in kernel_basis_fraction(rows, pivots, total)]
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

    def test_later_cache_replaces_earlier(self, tmp_path):
        ctx = GeometryCtx(SchemeParams(n=3, k=1, q=4))  # its spread sample is cached
        first, second = DiskCache(str(tmp_path / "A")), DiskCache(str(tmp_path / "B"))
        assert bundle_for(ctx, first).cache is first
        bundle = bundle_for(ctx, second)
        assert bundle.cache is second
        assert bundle_for(ctx).cache is second  # no cache given: keep the current one
        bundle.spread_masks()
        assert not (tmp_path / "A").exists()
        assert [f.name for f in (tmp_path / "B").iterdir()] == ["spreads_n3_q4_k1_v1.json"]

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
        kneser = relation_rows(2, pg32)
        lam = eigenvalue_p(1, 2, pg32.params)
        rng = random.Random(8)
        pen = point_pencil_family(pg32, 5)
        vectors = [[35 * pen.chi(c) - 7 for c in range(35)], [1] * 35]
        vectors += [[rng.randint(-2, 2) for _ in range(35)] for _ in range(5)]
        for v in vectors:
            by_matrix = matvec(kneser, v) == [lam * x for x in v]
            assert v1_eigen_check(v, pg32) == by_matrix
        assert v1_eigen_check(vectors[0], pg32)


class TestSpectralSplit:
    def test_pg32(self, pg32):
        split = rowspace_equals_v0_v1(pg32)
        assert (split.rank, split.dim_v0, split.dim_v1) == (15, 1, 14)
        assert split.ok

    def test_pg42(self, pg42):
        split = rowspace_equals_v0_v1(pg42)
        assert (split.rank, split.dim_v0, split.dim_v1) == (31, 1, 30)
        assert split.ok

    def test_pg33(self, pg33):
        split = rowspace_equals_v0_v1(pg33)
        assert (split.rank, split.dim_v0, split.dim_v1, split.ok) == (40, 1, 39, True)

    def test_row_outside_v0_v1_fails(self, pg32, monkeypatch):
        # rank and dimensions still agree; only the span test can see it
        rows = incidence_rows(pg32)
        rows[0] = [1] + [0] * 34  # one line: not a member of V0 + V1
        monkeypatch.setattr(scheme, "incidence_rows", lambda ctx: rows)
        split = rowspace_equals_v0_v1(pg32)
        assert (split.rank, split.dim_v0, split.dim_v1, split.ok) == (15, 1, 14, False)

    @pytest.mark.parametrize("n,k,q", [(4, 2, 2), (3, 2, 2), (2, 1, 3)])
    def test_refused_without_disjoint_pairs(self, n, k, q):
        # n < 2k+1: K = 0, so V0 and V1 are not the eigenspaces of the theorem
        with pytest.raises(ValueError, match="n >= 2k\\+1"):
            rowspace_equals_v0_v1(geometry(n, k, q))


class TestEigenspaceDimsIndependent:
    def test_pg32_dims_same_from_either_matrix(self, pg32):
        p = pg32.params
        a1 = relation_rows(1, pg32)
        kneser = relation_rows(2, pg32)
        for j in range(3):
            d1 = 35 - len(rref_int(shifted(a1, eigenvalue_p(j, 1, p)), 35)[0])
            d2 = 35 - len(rref_int(shifted(kneser, eigenvalue_p(j, 2, p)), 35)[0])
            assert d1 == d2


@pytest.mark.parametrize(
    "n,k,q,dims", [(3, 1, 2, (1, 14, 20)), (3, 1, 3, (1, 39, 90)), (4, 1, 2, (1, 30, 124))]
)
def test_eigenspace_bases_match_fraction_oracle(n, k, q, dims):
    # the eigenspaces of the elimination oracle (rref_int, kernel_vectors)
    # against Fraction elimination
    ctx = geometry(n, k, q)
    p = ctx.params
    total = len(ctx.kspaces)
    a1 = relation_rows(1, ctx)
    for j in range(k + 2):
        lam = eigenvalue_p(j, 1, p)
        rows, pivots = rref_fraction(shifted(a1, lam))
        expected = [scale_to_int(v) for v in kernel_basis_fraction(rows, pivots, total)]
        assert eigenspace_rref(a1, lam) == expected
        assert len(expected) == dims[j]


def test_full_spectrum_small():
    ctx = geometry(2, 1, 2)  # Fano plane lines
    cert = full_spectrum_check(ctx)
    assert cert.ok
    assert sum(cert.dims) == 7
    assert cert.dims[0] == 1


def test_full_spectrum_pg42_planes(pg42_planes):
    cert = full_spectrum_check(pg42_planes)
    assert (cert.dims, cert.ok) == ((1, 30, 124, 0), True)


@pytest.mark.parametrize("n,k,q", [(2, 1, 2), (3, 1, 2), (3, 1, 3), (4, 1, 2), (4, 2, 2)])
def test_certificates_match_elimination_oracle(n, k, q):
    ctx = geometry(n, k, q)
    assert full_spectrum_check(ctx) == full_spectrum_check_rref(ctx)
    if n < 2 * k + 1:
        for route in (rowspace_equals_v0_v1, rowspace_equals_v0_v1_rref):
            with pytest.raises(ValueError, match="n >= 2k\\+1"):
                route(ctx)
    else:
        assert rowspace_equals_v0_v1(ctx) == rowspace_equals_v0_v1_rref(ctx)


@pytest.mark.parametrize(
    "n,k,q,dims",
    [
        (3, 1, 4, (1, 84, 272)),
        (3, 1, 5, (1, 155, 650)),
        (4, 1, 3, (1, 120, 1089)),
        (5, 1, 2, (1, 62, 588)),
        (5, 2, 2, (1, 62, 588, 744)),
    ],
)
def test_spectrum_dims_closed_form(n, k, q, dims):
    # m_j = [n+1 choose j]_q - [n+1 choose j-1]_q for j <= min(k+1, n-k), else 0
    closed = tuple(
        qbinom(n + 1, j, q) - (qbinom(n + 1, j - 1, q) if j else 0)
        if j <= min(k + 1, n - k)
        else 0
        for j in range(k + 2)
    )
    assert closed == dims
    assert full_spectrum_check(geometry(n, k, q)) == SpectrumCertificate(dims, True)


def test_split_pg52_lines(pg52):
    assert rowspace_equals_v0_v1(pg52) == SpectralSplit(63, 1, 62, True)


def test_moved_relation_pair_fails():
    ctx = GeometryCtx(SchemeParams(n=3, k=1, q=2))  # not the shared geometry()
    rel = ctx.relation_masks()
    x, e = 0, ids_of(rel[1][0])[0]
    for a, b in ((x, e), (e, x)):  # the pair now reads "disjoint"
        rel[1][a] ^= 1 << b
        rel[2][a] |= 1 << b
    assert not full_spectrum_check(ctx).ok
    assert not rowspace_equals_v0_v1(ctx).ok
    assert full_spectrum_check(geometry(3, 1, 2)).ok


def test_overlapping_relations_fail():
    ctx = GeometryCtx(SchemeParams(n=3, k=1, q=2))
    rel = ctx.relation_masks()
    e = ids_of(rel[1][0])[0]
    rel[2][0] |= 1 << e  # the pair now reads both "meet" and "disjoint"
    rel[2][e] |= 1
    assert not full_spectrum_check(ctx).ok


def test_mask_identities_checked_once_per_geometry(monkeypatch):
    ctx = GeometryCtx(SchemeParams(n=3, k=1, q=2))  # not the shared geometry()
    calls = []
    original = scheme._products_match

    def counted(rel, products):
        calls.append(len(products))
        return original(rel, products)

    monkeypatch.setattr(scheme, "_products_match", counted)
    assert full_spectrum_check(ctx).ok
    assert rowspace_equals_v0_v1(ctx).ok
    assert full_spectrum_check(ctx).ok
    # A_1 A_1 and A_1 A_2 once, then the split's own A^T A
    assert calls == [2, 1]


def test_wrong_eigenvalue_fails(pg32, monkeypatch):
    # P_{1,2} one too large: row 1 breaks the three-term recurrence
    def off_by_one(j, i, params):
        return eigenvalue_p(j, i, params) + ((j, i) == (1, 2))

    monkeypatch.setattr(scheme, "eigenvalue_p", off_by_one)
    assert not full_spectrum_check(pg32).ok
