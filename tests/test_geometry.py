import random
from collections import Counter

import pytest
from _oracles import (
    coordinate_permutation_images,
    relation_masks_pairwise,
    sigma_spread_masks_backtrack,
    span_point_ids_fieldcalls,
)

from clkset import (
    GeometrySizeError,
    SchemeParams,
    Subspace,
    geometry,
    point_pencil_family,
    qbinom,
)
from clkset.cli import main
from clkset.geometry import GeometryCtx, equal_mask, ids_of, mask_of, rref, tally
from clkset.io import save_family


class TestEnumeration:
    def test_pg32_counts(self, pg32):
        assert len(pg32.points) == 15
        assert len(pg32.kspaces) == 35

    def test_pg23_self_dual_counts(self):
        ctx = geometry(2, 1, 3)
        assert len(ctx.points) == 13
        assert len(ctx.kspaces) == 13

    def test_pg42_planes(self, pg42_planes):
        assert len(pg42_planes.kspaces) == 155
        assert qbinom(5, 3, 2) == 155

    def test_counts_match_qbinom(self):
        for n, k, q in ((3, 1, 2), (4, 1, 2), (3, 1, 3), (4, 2, 2)):
            ctx = geometry(n, k, q)
            assert len(ctx.kspaces) == qbinom(n + 1, k + 1, q)
            assert len(ctx.points) == qbinom(n + 1, 1, q)

    def test_ordering_deterministic(self, pg32):
        flats = [s.flat() for s in pg32.kspaces]
        assert flats == sorted(flats)
        assert pg32.points == sorted(pg32.points)

    def test_canonicality(self, pg32, pg33):
        for ctx in (pg32, pg33):
            for sub in ctx.kspaces:
                assert rref(sub.basis, ctx.field) == sub.basis

    def test_points_per_kspace(self, pg33):
        per = qbinom(pg33.params.k + 1, 1, pg33.params.q)
        for mask in pg33.kspace_masks:
            assert len(ids_of(mask)) == per

    def test_size_cap(self):
        with pytest.raises(GeometrySizeError):
            GeometryCtx(SchemeParams(n=9, k=2, q=5))

    @pytest.mark.parametrize("n,k,q", [(3, 1, 4), (3, 1, 5), (4, 2, 2)])
    def test_span_points_match_field_calls(self, n, k, q):
        # one prime-power field, one larger prime, and planes
        ctx = geometry(n, k, q)
        for sub, mask in zip(ctx.kspaces, ctx.kspace_masks):
            assert ids_of(mask) == span_point_ids_fieldcalls(ctx, sub.basis)
        sigma = ctx.subspaces_of_dim(n - 1)[-1]
        assert ids_of(ctx.point_mask(sigma)) == span_point_ids_fieldcalls(ctx, sigma.basis)


class TestIntersection:
    def test_self_meet(self, pg32):
        s = pg32.kspaces[0]
        assert pg32.intersection_dim(s, s) == s.dim

    def test_concurrent_lines(self, pg32):
        pencil = pg32.pencil(0)
        a, b = pg32.kspaces[pencil[0]], pg32.kspaces[pencil[1]]
        assert pg32.intersection_dim(a, b) == 0

    def test_disjoint_lines(self, pg32):
        disj = pg32.disjointness_masks()
        a = 0
        b = (disj[a] & -disj[a]).bit_length() - 1
        sub_a, sub_b = pg32.kspaces[a], pg32.kspaces[b]
        assert pg32.intersection_dim(sub_a, sub_b) == -1
        stacked = rref(sub_a.basis + sub_b.basis, pg32.field)
        assert len(stacked) == 4

    def test_rank_route_matches_point_count_route(self, pg33):
        for a in range(0, 30, 7):
            for b in range(a, 130, 11):
                by_rank = pg33.intersection_dim(pg33.kspaces[a], pg33.kspaces[b])
                assert by_rank == pg33.meet_dim_ids(a, b)


class TestPencilsAndFlats:
    def test_pencil_sizes(self, pg32):
        for point in range(len(pg32.points)):
            assert len(pg32.pencil(point)) == 7

    def test_pencil_size_formula_everywhere(self):
        for n, k, q in ((4, 1, 2), (3, 1, 3), (4, 2, 2)):
            ctx = geometry(n, k, q)
            expected = qbinom(n, k, q)
            for point in range(len(ctx.points)):
                assert len(ctx.pencil(point)) == expected

    def test_all_in_hyperplane(self, pg32):
        for h in pg32.hyperplanes():
            assert len(pg32.all_in(h)) == 7  # Fano plane line count

    def test_all_in_size_formula(self, pg42_planes):
        tau = pg42_planes.hyperplanes()[0]
        assert len(pg42_planes.all_in(tau)) == qbinom(4, 3, 2)

    def test_pencil_in(self, pg32):
        tau = pg32.hyperplanes()[0]
        point = (pg32.point_mask(tau) & -pg32.point_mask(tau)).bit_length() - 1
        assert len(pg32.pencil_in(point, tau)) == 3  # qbinom(2,1,2)

    def test_pencil_in_rejects_outside_point(self, pg32):
        tau = pg32.hyperplanes()[0]
        outside = next(
            p for p in range(15) if not (pg32.point_mask(tau) >> p) & 1
        )
        with pytest.raises(ValueError):
            pg32.pencil_in(outside, tau)


class TestRelations:
    def test_partition_of_pairs(self, pg32):
        rel = pg32.relation_masks()
        for c in range(35):
            assert rel[0][c] == 1 << c
            assert sum(rel[i][c] for i in range(3)) == pg32.full_kspace_mask

    def test_symmetry(self, pg33):
        rel = pg33.relation_masks()
        for i in range(3):
            for a in range(0, 130, 13):
                for b in range(0, 130, 7):
                    assert ((rel[i][a] >> b) & 1) == ((rel[i][b] >> a) & 1)

    @pytest.mark.parametrize(
        "n,k,q",
        [(3, 1, 2), (3, 1, 3), (4, 1, 2), (4, 2, 2), (5, 1, 2), (5, 2, 2), (3, 1, 5)],
    )
    def test_star_unions_match_pairwise_oracle(self, n, k, q):
        ctx = geometry(n, k, q)
        assert ctx.relation_masks() == relation_masks_pairwise(ctx)

    @pytest.mark.parametrize("n,k,q", [(3, 1, 2), (4, 1, 2), (4, 2, 2)])
    def test_every_table_symmetric(self, n, k, q):
        # the battery's tallies read |rel[i][c] & L| off the sum of the
        # members' rows, which holds only for symmetric tables
        for masks in geometry(n, k, q).relation_masks():
            for c, mask in enumerate(masks):
                assert all(masks[e] >> c & 1 for e in ids_of(mask)), c

    def test_disjoint_count_matches_formula(self, pg32):
        from clkset import count_disjoint

        disj = pg32.disjointness_masks()
        for c in range(35):
            assert disj[c].bit_count() == count_disjoint(3, 2, 1, 1)


class TestBitSlicedCounter:
    def test_tally_counts_rows_through_each_position(self):
        rng = random.Random(7)
        rows = [rng.getrandbits(50) for _ in range(40)]
        for mask in (0, 1, mask_of(rng.sample(range(40), 17)), (1 << 40) - 1):
            planes = tally(rows, mask)
            members = ids_of(mask)
            for e in range(50):
                count = sum(rows[c] >> e & 1 for c in members)
                assert sum((p >> e & 1) << b for b, p in enumerate(planes)) == count
                for t in range(len(members) + 1):
                    assert (equal_mask(planes, t, (1 << 50) - 1) >> e & 1) == (count == t)

    def test_targets_outside_the_counter_match_nowhere(self):
        planes = tally([0b111, 0b011, 0b001], 0b111)  # counts 3, 2, 1 at bits 0, 1, 2
        assert len(planes) == 2
        assert [equal_mask(planes, t, 0b111) for t in range(4)] == [0, 0b100, 0b010, 0b001]
        for t in (None, -1, 4, 5):
            assert equal_mask(planes, t, 0b111) == 0


class TestSpreads:
    def test_pg32_all_spreads(self, pg32):
        spreads = pg32.enumerate_all_spreads()
        assert len(spreads) == 56
        for s in spreads:
            covered = 0
            for c in s:
                assert covered & pg32.kspace_masks[c] == 0
                covered |= pg32.kspace_masks[c]
            assert covered == pg32.full_point_mask

    def test_pg32_spread_transitivity_counts(self, pg32):
        # every line lies in n0 / qbinom(3,1,2) spreads; every disjoint pair
        # in that count divided by q^(k^2+k) * qbinom(n-k-1,k)
        spreads = pg32.enumerate_all_spreads()
        per_line = Counter(c for s in spreads for c in s)
        assert set(per_line.values()) == {8}
        disj = pg32.disjointness_masks()
        pair_counts = set()
        for a in range(35):
            m = disj[a]
            while m:
                low = m & -m
                b = low.bit_length() - 1
                m ^= low
                if b > a:
                    pair_counts.add(
                        sum(1 for s in spreads if a in s and b in s)
                    )
        assert pair_counts == {2}

    def test_pg33_spread_counts_uniform(self, pg33):
        spreads = pg33.enumerate_all_spreads()
        assert len(spreads) == 8424
        per_line = Counter(c for s in spreads for c in s)
        assert set(per_line.values()) == {8424 // 13}
        # spreads through a fixed disjoint pair: n1 / (q^2 * qbinom(1,1,3))
        disj = pg33.disjointness_masks()
        a = 0
        b = (disj[0] & -disj[0]).bit_length() - 1
        through_pair = sum(1 for s in spreads if a in s and b in s)
        assert through_pair == (8424 // 13) // 9

    def test_rejected_without_divisibility(self):
        ctx = geometry(2, 1, 2)
        with pytest.raises(ValueError):
            ctx.enumerate_all_spreads()

    def test_guard_on_large_geometry(self, pg52):
        with pytest.raises(GeometrySizeError):
            pg52.enumerate_all_spreads()

    def test_spreads_within_sigma(self, pg52):
        sigma = pg52.subspaces_of_dim(3)[0]
        spreads = pg52.spreads_within(sigma)
        assert len(spreads) == 56
        tmask = pg52.point_mask(sigma)
        for s in spreads:
            covered = 0
            for c in s:
                covered |= pg52.kspace_masks[c]
            assert covered == tmask

    @pytest.mark.parametrize("q", [2, 3])
    def test_spreads_within_whole_space_match_enumeration(self, q):
        ctx = geometry(3, 1, q)
        whole = ctx.subspaces_of_dim(3)[0]
        assert ctx.sigma_spread_masks(whole) == [
            mask_of(s) for s in ctx.enumerate_all_spreads()
        ]
        assert [mask_of(s) for s in ctx.spreads_within(whole)] == ctx.sigma_spread_masks(whole)

    def test_permuted_spread_sample(self, pg33):
        sample = pg33.permuted_spread_sample()
        assert pg33.construct_spread() in sample
        for s in sample:
            assert pg33.is_partial_spread(s) and len(s) == 10
        assert sample == sorted(coordinate_permutation_images(pg33, pg33.construct_spread()))


class TestSigmaSpreads:
    """Spreads of every (2k+1)-space carried by rank order from one backtrack."""

    @pytest.mark.parametrize("n, k, q, picks", [
        (4, 1, 2, None),
        (5, 1, 2, None),
        (4, 1, 3, "ends"),
    ])
    def test_carried_spreads_match_backtrack(self, n, k, q, picks):
        ctx = GeometryCtx(SchemeParams(n=n, k=k, q=q))
        sigmas = ctx.subspaces_of_dim(2 * k + 1)
        if picks == "ends":
            sigmas = [sigmas[0], sigmas[len(sigmas) // 2], sigmas[-1]]
        for sigma in sigmas:
            expected = sigma_spread_masks_backtrack(ctx, sigma)
            assert ctx.sigma_spread_masks(sigma) == expected
            assert ctx.spreads_within(sigma) == [ids_of(m) for m in expected]

    def test_rank_map_is_the_basis_map(self, pg32, pg52):
        """c -> c.B carries the i-th point and the i-th line of PG(3,2) to the
        i-th point and the i-th line, by id, of every solid of PG(5,2)."""
        field = pg52.field

        def image(vec, basis):
            out = [0] * 6
            for c, row in zip(vec, basis):
                for j, v in enumerate(row):
                    out[j] = field.add(out[j], field.mul(c, v))
            return tuple(out)

        for sigma in pg52.subspaces_of_dim(3):
            points = [pg52.point_id[image(v, sigma.basis)] for v in pg32.points]
            assert tuple(points) == ids_of(pg52.point_mask(sigma))
            lines = [
                pg52.kspace_id[tuple(image(row, sigma.basis) for row in line.basis)]
                for line in pg32.kspaces
            ]
            assert tuple(lines) == pg52.all_in(sigma)

    def test_one_backtrack_per_geometry(self, monkeypatch):
        calls = []
        backtrack = GeometryCtx._spread_backtrack

        def counted(self, member_ids, target_mask):
            calls.append(target_mask)
            return backtrack(self, member_ids, target_mask)

        monkeypatch.setattr(GeometryCtx, "_spread_backtrack", counted)
        ctx = GeometryCtx(SchemeParams(n=5, k=1, q=2))
        sigmas = ctx.subspaces_of_dim(3)
        assert len(sigmas) == 651
        assert all(len(ctx.sigma_spread_masks(sigma)) == 56 for sigma in sigmas)
        assert len(calls) == 1

    def test_rank_table_matches_carried_kspaces(self, pg42):
        rows, spreads = pg42.sigma_rank_table()
        sigmas = pg42.subspaces_of_dim(3)
        assert spreads == pg42._local_spreads()[1] and len(spreads) == 56
        cells = {(c, r): ids_of(m) for c, row in enumerate(rows) for r, m in row}
        expected = {}
        for s, sigma in enumerate(sigmas):
            for r, c in enumerate(pg42._carried_kspaces(sigma)):
                expected.setdefault((c, r), []).append(s)
        assert cells == {key: tuple(where) for key, where in expected.items()}
        assert all([r for r, _ in row] == sorted({r for r, _ in row}) for row in rows)
        assert pg42.sigma_rank_table()[0] is rows

    def test_verify_keeps_no_sigma_spread_masks(self, tmp_path):
        """After a verify in PG(5,2), no int the geometry holds, through its
        dicts, lists and tuples, is the spread mask of any solid."""
        ctx = geometry(5, 1, 2)
        path = str(tmp_path / "pencil.clkset")
        save_family(path, point_pencil_family(ctx, 0))
        assert main(["verify", "--in", path, "--cache-dir", str(tmp_path / "c")]) == 0
        held, stack = set(), list(vars(ctx).values())
        while stack:
            value = stack.pop()
            if isinstance(value, int):
                held.add(value)
            elif isinstance(value, dict):
                stack += value.keys()
                stack += value.values()
            elif isinstance(value, (list, tuple)):
                stack += value
        masks = {m for sigma in ctx.subspaces_of_dim(3) for m in ctx.sigma_spread_masks(sigma)}
        assert len(masks) == 651 * 56
        assert not held & masks

    def test_guard_before_backtrack(self, monkeypatch):
        """Every solid of PG(4,4) has 85 points, over the spread point cap:
        refused before the backtrack starts."""

        def no_backtrack(self, member_ids, target_mask):
            raise AssertionError("backtracked above the spread point cap")

        monkeypatch.setattr(GeometryCtx, "_spread_backtrack", no_backtrack)
        ctx = geometry(4, 1, 4)
        with pytest.raises(GeometrySizeError, match="a 3-space has 85 points, exceeding cap 40"):
            ctx.sigma_spread_masks(ctx.subspaces_of_dim(3)[0])

    @pytest.mark.parametrize("corruption", ["other line", "point dropped", "triangle", "point outside"])
    def test_corrupted_kspace_mask_raises(self, corruption):
        ctx = GeometryCtx(SchemeParams(n=4, k=1, q=2))
        sigma0 = ctx.subspaces_of_dim(3)[0]
        first, second = ctx.all_in(sigma0)[:2]
        mask = ctx.kspace_masks[first]
        top = 1 << (mask.bit_length() - 1)
        inside = ctx.point_mask(sigma0) & ~mask
        outside = ctx.full_point_mask & ~ctx.point_mask(sigma0)
        ctx.kspace_masks[first] = {
            "other line": ctx.kspace_masks[second],
            "point dropped": mask & ~top,
            "triangle": mask & ~top | inside & -inside,
            "point outside": mask & ~top | outside & -outside,
        }[corruption]
        with pytest.raises(RuntimeError):
            ctx.sigma_spread_masks(ctx.subspaces_of_dim(3)[-1])


class TestSwitchingSets:
    def test_spread_differences_are_conjugate(self, pg32):
        spreads = pg32.enumerate_all_spreads()
        for s1 in spreads[:8]:
            for s2 in spreads[:8]:
                if s1 == s2:
                    continue
                r1 = tuple(c for c in s1 if c not in s2)
                r2 = tuple(c for c in s2 if c not in s1)
                assert pg32.are_conjugate_switching_sets(r1, r2)

    def test_identical_sets_are_not_conjugate(self, pg32):
        spread = pg32.enumerate_all_spreads()[0]
        assert not pg32.are_conjugate_switching_sets(spread, spread)

    def test_regulus_pairs_exist(self, pg32):
        # spreads sharing two lines differ in a regulus/opposite-regulus swap
        spreads = pg32.enumerate_all_spreads()
        found = False
        for i, s1 in enumerate(spreads):
            for s2 in spreads[i + 1 :]:
                shared = len(set(s1) & set(s2))
                assert shared in (0, 1, 2)
                if shared == 2:
                    r1 = tuple(c for c in s1 if c not in s2)
                    r2 = tuple(c for c in s2 if c not in s1)
                    assert len(r1) == len(r2) == 3
                    assert pg32.are_conjugate_switching_sets(r1, r2)
                    found = True
        assert found

    def test_non_partial_spread_rejected(self, pg32):
        pencil = pg32.pencil(0)[:2]
        assert not pg32.is_partial_spread(pencil)
        assert not pg32.are_conjugate_switching_sets(pencil, (30, 31))


class TestSubspaceFromVectors:
    def test_recanonicalization(self, pg32):
        field = pg32.field
        sub = pg32.kspaces[20]
        doubled = sub.basis + sub.basis
        again = Subspace.from_vectors(doubled, field, 3)
        assert again == sub
