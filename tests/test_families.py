import random
from fractions import Fraction

import pytest

from clkset import (
    BatteryConfig,
    BatteryDisagreement,
    FamilyError,
    SchemeBundle,
    Verdict,
    bundle_for,
    complement,
    difference,
    disjoint_union,
    family,
    full_family,
    geometry,
    hyperplane_family,
    intersection_distribution,
    point_flag_identity,
    point_pencil_family,
    run_battery,
)
from clkset.families import (
    _CHECKS,
    _count_at,
    check_disjointness_counts,
    check_kernel_orthogonality,
    check_meet_distribution,
    check_spread_intersections,
    check_switching_pairs,
    check_switching_sets,
)
from clkset.geometry import GeometryCtx, ids_of, mask_of
from clkset.scheme import LinearTerms, MeetRows
from clkset.qformulas import (
    SchemeParams,
    eigenvalue_p,
    hyperplane_family_parameter,
    parameter_range,
    valence,
)
from _oracles import BATTERY_ORACLES, SPREAD_ORACLES, switching_check_loop


class TestConstructors:
    def test_pencil_parameter(self, pg32):
        pen = point_pencil_family(pg32, 0)
        assert pen.x == 1 and len(pen) == 7

    def test_hyperplane_parameter_pg32(self, pg32):
        hyp = hyperplane_family(pg32, pg32.hyperplanes()[0])
        assert hyp.x == 1 and len(hyp) == 7
        assert hyp.x == hyperplane_family_parameter(pg32.params)

    def test_hyperplane_parameter_pg52(self, pg52):
        hyp = hyperplane_family(pg52, pg52.hyperplanes()[0])
        assert hyp.x == 5 and len(hyp) == 155

    def test_hyperplane_parameter_nonintegral(self, pg42):
        hyp = hyperplane_family(pg42, pg42.hyperplanes()[0])
        assert hyp.x == Fraction(7, 3)  # k+1 does not divide n+1

    def test_rejects_non_hyperplane(self, pg32):
        with pytest.raises(FamilyError):
            hyperplane_family(pg32, pg32.kspaces[0])

    def test_family_validation(self, pg32):
        with pytest.raises(FamilyError):
            family(pg32, [0, 0, 1])
        with pytest.raises(FamilyError):
            family(pg32, [99])

    def test_parameter_recomputed(self, pg32):
        fam = family(pg32, range(14))
        assert fam.x == Fraction(2)


class TestClosureOperations:
    def test_complement_parameter(self, pg32, pg32_bundle):
        pen = point_pencil_family(pg32, 0)
        comp = complement(pen)
        _, hi = parameter_range(pg32.params)
        assert comp.x == hi - pen.x == 4
        assert run_battery(comp, pg32_bundle).passed

    def test_union_of_pencils_rejected_with_witness(self, pg32):
        pen0 = point_pencil_family(pg32, 0)
        pen1 = point_pencil_family(pg32, 1)
        with pytest.raises(FamilyError) as err:
            disjoint_union(pen0, pen1)
        joining = err.value.witness
        assert joining in pen0 and joining in pen1

    def test_disjoint_union_parameter_and_battery(self, pg52, pg52_bundle):
        # a pencil and the family of a hyperplane avoiding its point
        point = 0
        hyp = next(
            h
            for h in pg52.hyperplanes()
            if not (pg52.point_mask(h) >> point) & 1
        )
        union = disjoint_union(
            point_pencil_family(pg52, point), hyperplane_family(pg52, hyp)
        )
        assert union.x == 6
        report = run_battery(union, pg52_bundle, BatteryConfig.fast())
        assert report.passed

    def test_difference(self, pg32, pg32_bundle):
        pen = point_pencil_family(pg32, 0)
        assert difference(full_family(pg32), pen) == complement(pen)
        diff = difference(full_family(pg32), pen)
        assert diff.x == 4

    def test_difference_requires_containment(self, pg32):
        pen0 = point_pencil_family(pg32, 0)
        pen1 = point_pencil_family(pg32, 1)
        with pytest.raises(FamilyError):
            difference(pen0, pen1)

    def test_closure_battery_matrix(self, pg33, pg33_bundle):
        pen = point_pencil_family(pg33, 0)
        hyp = hyperplane_family(pg33, pg33.hyperplanes()[0])
        for fam, x in ((pen, 1), (hyp, 1), (complement(pen), 9), (complement(hyp), 9)):
            assert fam.x == x
            assert run_battery(fam, pg33_bundle).passed


class TestDisjointnessCounts:
    def test_pencil_counts_pg32(self, pg32, pg32_bundle):
        pen = point_pencil_family(pg32, 0)
        disj = pg32.disjointness_masks()
        for c in range(35):
            count = (disj[c] & pen.mask).bit_count()
            assert count == (0 if c in pen else 4)
        assert check_disjointness_counts(pen, pg32_bundle).verdict is Verdict.PASS

    def test_full_family_counts(self, pg32, pg32_bundle):
        fam = full_family(pg32)
        disj = pg32.disjointness_masks()
        for c in range(35):
            assert (disj[c] & fam.mask).bit_count() == 16
        assert check_disjointness_counts(fam, pg32_bundle).verdict is Verdict.PASS

    def test_failure_produces_first_witness(self, pg32, pg32_bundle):
        rng = random.Random(0)
        while True:
            fam = family(pg32, rng.sample(range(35), 7))
            res = check_disjointness_counts(fam, pg32_bundle)
            if res.verdict is Verdict.FAIL:
                assert res.witness[0] == "kspace"
                break

    def test_empty_family_passes(self, pg32, pg32_bundle):
        fam = family(pg32, [])
        assert fam.x == 0
        assert run_battery(fam, pg32_bundle).passed

    def test_parameter_strictly_below_one_always_fails(self, pg32, pg32_bundle):
        # members would need a negative number of disjoint members
        rng = random.Random(8)
        for size in (1, 3, 6):
            fam = family(pg32, rng.sample(range(35), size))
            assert 0 < fam.x < 1
            res = check_disjointness_counts(fam, pg32_bundle)
            assert res.verdict is Verdict.FAIL


class TestMeetDistribution:
    def test_distribution_sums_to_size(self, pg32):
        pen = point_pencil_family(pg32, 0)
        for pi in range(35):
            assert sum(intersection_distribution(pen, pi)) == len(pen)

    def test_pencil_member_distribution(self, pg32):
        pen = point_pencil_family(pg32, 0)
        member = pen.ids[0]
        dist = intersection_distribution(pen, member)
        assert dist == (1, 6, 0)  # itself, six concurrent lines, none disjoint

    def test_formula_against_bruteforce(self, pg33, pg33_bundle):
        pen = point_pencil_family(pg33, 0)
        assert check_meet_distribution(pen, pg33_bundle).verdict is Verdict.PASS
        rel = pg33.relation_masks()
        from clkset.qformulas import meet_count_target

        for pi in (pen.ids[0], next(c for c in range(130) if c not in pen)):
            for i in (1, 2):
                direct = (rel[i][pi] & pen.mask).bit_count()
                assert direct == meet_count_target(
                    i, pg33.params, pen.x, member=pi in pen
                )


class TestSwitchingPairs:
    def test_pencil_passes_all_spread_difference_pairs(self, pg32):
        spreads = pg32.enumerate_all_spreads()
        pairs = []
        for s1 in spreads:
            for s2 in spreads:
                if s1 == s2:
                    continue
                pairs.append(
                    (
                        tuple(c for c in s1 if c not in s2),
                        tuple(c for c in s2 if c not in s1),
                    )
                )
        assert len(pairs) == 56 * 55
        pen = point_pencil_family(pg32, 0)
        res = check_switching_pairs(pen, pairs)
        assert res.verdict is Verdict.SAMPLED_PASS

    def test_empty_pair_list_is_skipped(self, pg32):
        pen = point_pencil_family(pg32, 0)
        assert check_switching_pairs(pen, []).verdict is Verdict.SKIPPED

    def test_invalid_pair_rejected(self, pg32):
        pen = point_pencil_family(pg32, 0)
        with pytest.raises(FamilyError):
            check_switching_pairs(pen, [(pen.ids[:2], pen.ids[2:4])])

    def test_non_member_fails_some_pair(self, pg32, pg32_bundle):
        rng = random.Random(1)
        fam = family(pg32, rng.sample(range(35), 7))
        report = run_battery(fam, pg32_bundle)
        assert report.results["switching-sets"].verdict is Verdict.FAIL


class TestSpreadIntersections:
    def test_pencil_meets_every_spread_once(self, pg32, pg32_bundle):
        pen = point_pencil_family(pg32, 0)
        for s in pg32.enumerate_all_spreads():
            assert sum(1 for c in s if c in pen) == 1
        res = check_spread_intersections(pen, pg32_bundle)
        assert res.verdict is Verdict.PASS

    def test_non_integer_x_fails_immediately(self, pg32, pg32_bundle):
        fam = family(pg32, range(8))
        res = check_spread_intersections(fam, pg32_bundle)
        assert res.verdict is Verdict.FAIL
        assert "non-integer" in res.witness[0]

    def test_skipped_without_spreads(self, pg42, pg42_bundle):
        pen = point_pencil_family(pg42, 0)
        res = check_spread_intersections(pen, pg42_bundle)
        assert res.verdict is Verdict.SKIPPED


class TestExtraPropertyIdentity:
    def test_pencil_all_point_hyperplane_pairs(self, pg32):
        pen = point_pencil_family(pg32, 3)
        for tau in pg32.hyperplanes():
            tmask = pg32.point_mask(tau)
            for point in range(15):
                if (tmask >> point) & 1:
                    assert point_flag_identity(pen, point, tau)

    def test_empty_family(self, pg32):
        fam = family(pg32, [])
        tau = pg32.hyperplanes()[0]
        point = (pg32.point_mask(tau) & -pg32.point_mask(tau)).bit_length() - 1
        assert point_flag_identity(fam, point, tau)

    def test_non_member_family_violates_somewhere(self, pg32):
        rng = random.Random(3)
        violated = False
        for _ in range(10):
            fam = family(pg32, rng.sample(range(35), 7))
            res = check_kernel_orthogonality(fam, __import__("clkset").bundle_for(pg32))
            if res.verdict is Verdict.PASS:
                continue
            for tau in pg32.hyperplanes():
                tmask = pg32.point_mask(tau)
                for point in range(15):
                    if (tmask >> point) & 1 and not point_flag_identity(
                        fam, point, tau
                    ):
                        violated = True
                        break
                if violated:
                    break
            if violated:
                break
        assert violated

    def test_precondition_validation(self, pg32):
        pen = point_pencil_family(pg32, 0)
        with pytest.raises(ValueError):
            point_flag_identity(pen, 0, pg32.kspaces[0])  # dim too small


class TestBattery:
    def test_pencil_all_pass(self, pg32, pg32_bundle):
        report = run_battery(point_pencil_family(pg32, 0), pg32_bundle)
        assert report.passed
        assert all(
            res.verdict is Verdict.PASS for res in report.results.values()
        )

    def test_agreement_fuzz(self, pg32, pg32_bundle):
        rng = random.Random(1)
        for _ in range(120):
            fam = family(pg32, rng.sample(range(35), 7))
            report = run_battery(fam, pg32_bundle)  # raises on disagreement
            assert report.agreed

    def test_fail_produces_kernel_witness(self, pg32, pg32_bundle):
        rng = random.Random(6)
        while True:
            fam = family(pg32, rng.sample(range(35), 7))
            report = run_battery(fam, pg32_bundle)
            if not report.passed:
                res = report.results["kernel"]
                assert res.verdict is Verdict.FAIL
                assert res.witness[0] == "kernel-vector"
                break

    def test_fast_config(self, pg32, pg32_bundle):
        report = run_battery(
            point_pencil_family(pg32, 0), pg32_bundle, BatteryConfig.fast()
        )
        assert set(report.results) == {"kernel", "disjointness-counts"}
        assert report.passed

    def test_bundle_of_another_geometry_refused(self, pg32, pg33_bundle):
        pencil = point_pencil_family(pg32, 0)
        with pytest.raises(ValueError, match=r"built for PG\(3,3\) k=1, .* PG\(3,2\) k=1"):
            run_battery(pencil, pg33_bundle)
        assert run_battery(pencil, SchemeBundle(pg32)).passed

    def test_switching_sets_skipped_above_spread_point_cap(self):
        # the solids of PG(4,4) have 85 points, more than the 40 the spread cap allows
        ctx = geometry(4, 1, 4)
        result = check_switching_sets(point_pencil_family(ctx, 0), bundle_for(ctx))
        assert result.verdict is Verdict.SKIPPED
        assert result.note == "spread enumeration guard: a 3-space has 85 points, exceeding cap 40"

    def test_report_lines(self, pg32, pg32_bundle):
        report = run_battery(point_pencil_family(pg32, 0), pg32_bundle)
        lines = report.lines()
        assert lines[0].startswith("x = 1")
        assert any("spread-intersections: pass" in line for line in lines)


def _oracle_roster(ctx, rng):
    """Pencils, hyperplane families, their complements, the empty and full
    families, one-swap near-pencils and random families of several sizes."""
    total = len(ctx.kspaces)
    roster = [family(ctx, []), full_family(ctx)]
    for point in (0, len(ctx.points) - 1):
        pen = point_pencil_family(ctx, point)
        out = [c for c in range(total) if c not in pen]
        roster += [pen, complement(pen)]
        for _ in range(2):
            drop, add = rng.choice(pen.ids), rng.choice(out)
            roster.append(family(ctx, [c for c in pen.ids if c != drop] + [add]))
    for hyp in ctx.hyperplanes()[:2]:
        fam = hyperplane_family(ctx, hyp)
        roster += [fam, complement(fam)]
    size = len(roster[2])
    for n_members in (1, size, size + 1, total // 2):
        roster.append(family(ctx, rng.sample(range(total), n_members)))
    return roster


class TestIntegerChecksMatchOracles:
    """The integer scans give the (verdict, witness, note) of the Fraction
    residual, the kernel bit walk, the literal K w product and the earlier
    popcount loops, witness types included (the CLI prints their repr).
    PG(3,4) is the one geometry here whose RREF has denominators (L_f = 2)."""

    @pytest.mark.parametrize(
        "n,k,q", [(3, 1, 2), (3, 1, 3), (3, 1, 4), (4, 1, 2), (4, 2, 2), (5, 1, 2)]
    )
    def test_roster(self, n, k, q):
        ctx = geometry(n, k, q)
        bundle = bundle_for(ctx)
        rng = random.Random(n * 100 + k * 10 + q)
        verdicts = set()
        for cand in _oracle_roster(ctx, rng):
            for name, oracle in BATTERY_ORACLES.items():
                res = _CHECKS[name](cand, bundle)
                verdict, witness, note = oracle(cand, bundle)
                got = (res.verdict, repr(res.witness), res.note)
                assert got == (verdict, repr(witness), note), (name, cand.ids[:8])
                verdicts.add((name, verdict))
        # both outcomes are exercised for every check that can fail here:
        # without disjoint pairs the three disjointness checks hold vacuously
        names = set(BATTERY_ORACLES)
        if n < 2 * k + 1:
            names -= {"disjointness-counts", "kneser-eigenvector", "eigenspace-split"}
        assert {(name, v) for name in names for v in (Verdict.PASS, Verdict.FAIL)} <= verdicts

    @pytest.mark.parametrize("n,k,q", [(3, 1, 3), (3, 1, 4), (5, 1, 2)])
    def test_residual_on_bitmask_matches_vector_scan(self, n, k, q):
        """The battery reads first_residual off the family bitmask, through
        the coefficient planes of LinearTerms; it names the same (position,
        column) as the scan of the 0/1 vector, None included."""
        from _oracles import first_residual

        ctx = geometry(n, k, q)
        bundle = bundle_for(ctx)
        free = bundle.incidence_rref()[1]
        misses = set()
        for cand in _oracle_roster(ctx, random.Random(q)):
            miss = bundle.linear_terms().first_residual(cand.mask)
            assert miss == first_residual(free, cand.vector())
            misses.add(miss is None)
        assert misses == {True, False}

    def test_non_integral_targets_miss_at_first_kspace(self, pg32, pg32_bundle):
        # x = 8/7: the targets are not integers, so the first k-space is the
        # witness and its Fraction target is printed as it was computed
        fam = family(pg32, range(8))
        for check in (check_disjointness_counts, check_meet_distribution):
            res = check(fam, pg32_bundle)
            assert res.verdict is Verdict.FAIL
            assert res.witness[:2] == ("kspace", 0)
            assert isinstance(res.witness[res.witness.index("expected") + 1], Fraction)
        pen = point_pencil_family(pg32, 0)
        swapped = family(pg32, pen.ids[1:] + (next(c for c in range(35) if c not in pen),))
        res = check_spread_intersections(swapped, pg32_bundle)
        assert res.verdict is Verdict.FAIL
        assert res.witness[-2:] == ("expected", 1) and type(res.witness[-1]) is int


class TestSpreadMeetsMatchOracles:
    """When n = 2k+1 a battery counts the global spread meets once for
    switching-sets and spread-intersections; each check still gives the
    (verdict, witness, note) of the loop it used to run on its own, in
    either order, on every spread (PG(3,2), PG(3,3)) and on the sample
    (PG(3,4), 85 points)."""

    @pytest.mark.parametrize("n,k,q", [(3, 1, 2), (3, 1, 3), (3, 1, 4), (5, 1, 2)])
    def test_roster(self, n, k, q):
        ctx = geometry(n, k, q)
        bundle = bundle_for(ctx)
        roster = _oracle_roster(ctx, random.Random(n * 100 + k * 10 + q))
        verdicts = set()
        for checks in (tuple(SPREAD_ORACLES), tuple(reversed(SPREAD_ORACLES))):
            config = BatteryConfig(checks=checks)
            for cand in roster:
                try:
                    report = run_battery(cand, bundle, config)
                except BatteryDisagreement as exc:
                    report = exc.report
                for name, oracle in SPREAD_ORACLES.items():
                    res = report.results[name]
                    verdict, witness, note = oracle(cand, bundle)
                    got = (res.verdict, repr(res.witness), res.note)
                    assert got == (verdict, repr(witness), note), (name, cand.ids[:8])
                    verdicts.add((name, verdict is Verdict.FAIL))
        assert verdicts == {(name, v) for name in SPREAD_ORACLES for v in (True, False)}


class TestSigmaSwitchingMatchesOracle:
    """When n > 2k+1, switching-sets tallies the spread meets of every
    (2k+1)-space at once; it gives the (verdict, witness, note) of the
    per-subspace popcount loop on pencils, hyperplane families, their union,
    the complements, one-swap near-pencils and random families, alone and in
    a battery, and the witness subspace is not always the first."""

    @pytest.mark.parametrize("n,k,q", [(4, 1, 2), (5, 1, 2)])
    def test_roster(self, n, k, q):
        ctx = geometry(n, k, q)
        bundle = bundle_for(ctx)
        rng = random.Random(n * 100 + k * 10 + q + 1)
        roster = _oracle_roster(ctx, rng)
        hyp = ctx.hyperplanes()[-1]
        off = next(pt for pt in range(len(ctx.points)) if not ctx.point_mask(hyp) >> pt & 1)
        union = family(ctx, set(ctx.pencil(off)) | set(ctx.all_in(hyp)))
        roster += [union, complement(union)]
        config = BatteryConfig(checks=("switching-sets",))
        outcomes, sigmas = set(), set()
        for cand in roster:
            expected = switching_check_loop(cand, bundle)
            expected = (expected[0], repr(expected[1]), expected[2])
            for res in (
                check_switching_sets(cand, bundle),
                run_battery(cand, bundle, config).results["switching-sets"],
            ):
                assert (res.verdict, repr(res.witness), res.note) == expected, cand.ids[:8]
            outcomes.add(res.verdict)
            if res.witness is not None:
                sigmas.add(res.witness[1])
        assert outcomes == {Verdict.PASS, Verdict.FAIL}
        assert len(sigmas) > 1

    @pytest.mark.parametrize("n,k,q", [(4, 1, 4), (3, 0, 2)])
    def test_skipped_notes(self, n, k, q):
        # the solids of PG(4,4) are above the spread point cap, and a line
        # has one spread of points, so no switching pair
        ctx = geometry(n, k, q)
        cand = point_pencil_family(ctx, 0)
        res = check_switching_sets(cand, bundle_for(ctx))
        expected = switching_check_loop(cand, bundle_for(ctx))
        assert (res.verdict, res.witness, res.note) == expected
        assert res.verdict is Verdict.SKIPPED

    def test_tampered_kspace_mask_raises(self):
        ctx = GeometryCtx(SchemeParams(n=4, k=1, q=2))
        sigma0 = ctx.subspaces_of_dim(3)[0]
        first, second = ctx.all_in(sigma0)[:2]
        ctx.kspace_masks[first] = ctx.kspace_masks[second]
        with pytest.raises(RuntimeError, match="not an order-keeping collineation"):
            check_switching_sets(point_pencil_family(ctx, 0), SchemeBundle(ctx))


class TestTallyWitnessShapes:
    """PG(3,3) lines, every spread listed: one-swap near-pencils whose first
    spread off x is a later spread or spread 0, and pencils less or plus one
    line, whose disjointness and meet targets are not integers and whose
    Kneser targets are integers but not multiples of the 130 k-spaces.  Each
    check, alone and in a battery, gives the (verdict, witness, note) of its
    popcount oracle, and each witness shape is reached."""

    def test_witnesses_match_popcount_oracles(self, pg33, pg33_bundle):
        masks = pg33_bundle.spread_masks()
        assert pg33_bundle.spreads_exhaustive() and len(masks) == 8424
        pen = point_pencil_family(pg33, 0)
        s0 = masks[0]
        add = next(c for c in range(130) if c not in pen and not s0 >> c & 1)
        keeps_s0 = next(c for c in pen.ids if not s0 >> c & 1)
        leaves_s0 = next(c for c in pen.ids if s0 >> c & 1)
        cands = {
            "spread 0 on x": family(pg33, [c for c in pen.ids if c != keeps_s0] + [add]),
            "spread 0 off x": family(pg33, [c for c in pen.ids if c != leaves_s0] + [add]),
            "12 lines": family(pg33, pen.ids[1:]),
            "14 lines": family(pg33, pen.ids + (add,)),
        }
        oracles = {**BATTERY_ORACLES, **SPREAD_ORACLES}
        witness = {}
        for label, cand in cands.items():
            report = run_battery(cand, pg33_bundle)
            for name, oracle in oracles.items():
                expected = oracle(cand, pg33_bundle)
                expected = (expected[0], repr(expected[1]), expected[2])
                for res in (report.results[name], _CHECKS[name](cand, pg33_bundle)):
                    assert (res.verdict, repr(res.witness), res.note) == expected, (label, name)
                witness[label, name] = report.results[name].witness
        # the first spread off x, and the first whose meet differs from
        # spread 0's: a later spread, then spread 0 itself against a later one
        spread, idx, _, meet = witness["spread 0 on x", "spread-intersections"][:4]
        assert (spread, meet) == ("spread", 0) and idx > 0
        assert witness["spread 0 off x", "spread-intersections"][:4] == ("spread", 0, "meet", 0)
        for label in ("spread 0 on x", "spread 0 off x"):
            gone, came = witness[label, "switching-sets"]
            assert set(gone) <= set(ids_of(s0)) and not set(came) & set(ids_of(s0))
        # non-integral targets miss at the first k-space
        for label in ("12 lines", "14 lines"):
            target = witness[label, "disjointness-counts"][3]
            assert witness[label, "disjointness-counts"][:2] == ("kspace", 0)
            assert isinstance(target, Fraction) and target.denominator != 1
            assert witness[label, "meet-distribution"][:2] == ("kspace", 0)
            assert witness[label, "kneser-eigenvector"] == ("kspace", 0)
            size, p = len(cands[label]), pg33.params
            deg, lam = valence(2, p), eigenvalue_p(1, 2, p)
            assert size * (deg - lam) % 130 and (lam * (130 - size) + size * deg) % 130


class TestMemberTally:
    @pytest.mark.parametrize("moved", [False, True])
    def test_counts_match_popcounts(self, pg32, moved):
        # families on both sides of half the k-spaces, on the relation
        # tables; the same tables with one pair moved from "meet" to
        # "disjoint" are still symmetric but no longer regular, so their
        # MeetRows, whose complement count rests on regularity, raise
        rel = [list(masks) for masks in pg32.relation_masks()]
        if moved:
            e = ids_of(rel[1][0])[0]
            for a, b in ((0, e), (e, 0)):
                rel[1][a] ^= 1 << b
                rel[2][a] |= 1 << b
            with pytest.raises(RuntimeError, match="relation 1 is not regular"):
                MeetRows(rel)
            return
        rows = MeetRows(rel)
        pen = point_pencil_family(pg32, 0)
        for cand in (pen, complement(pen), full_family(pg32), family(pg32, range(18))):
            planes = rows.tally(cand.mask)
            for i in (1, 2):
                for c in range(35):
                    got = _count_at(planes, (i - 1) * 35 + c)
                    assert got == (rel[i][c] & cand.mask).bit_count()


class TestSharedFamilyValues:
    """Each battery computes a family's meet counts, linear residual and
    spread meets once, however many checks read them, and the count checks
    never eliminate."""

    def test_one_build_per_family_per_battery(self, pg32, monkeypatch):
        calls = []
        for cls, name in ((MeetRows, "tally"), (LinearTerms, "first_residual")):
            original = getattr(cls, name)

            def counted(self, mask, original=original, name=name):
                calls.append((name, mask))
                return original(self, mask)

            monkeypatch.setattr(cls, name, counted)
        spread_calls = []
        original_meets = SchemeBundle.spread_meets

        def counted_meets(self, mask):
            spread_calls.append(mask)
            return original_meets(self, mask)

        monkeypatch.setattr(SchemeBundle, "spread_meets", counted_meets)
        bundle = SchemeBundle(pg32)
        pen = point_pencil_family(pg32, 0)
        cands = [pen, complement(pen), family(pg32, range(9)), pen]
        for cand in cands:
            del calls[:], spread_calls[:]
            try:
                run_battery(cand, bundle)
            except BatteryDisagreement:
                pass
            names = sorted(name for name, _ in calls)
            assert names == ["first_residual", "tally"], cand.ids[:8]
            assert {mask for _, mask in calls} == {cand.mask}
            assert spread_calls == [cand.mask]

    def test_first_miss_in_c_major_order(self, pg32, pg32_bundle):
        # exact targets miss nowhere; with relation 1 off for members and
        # relation 2 off for non-members, k-space 0 misses first, at the
        # relation of its own side (the complement is counted through the
        # members' complement, the pencil directly)
        from clkset.families import _first_count_miss
        from clkset.qformulas import meet_count_target

        rel = pg32.relation_masks()
        pen = point_pencil_family(pg32, 0)
        for cand in (pen, complement(pen)):
            t = {
                i: [int(meet_count_target(i, pg32.params, cand.x, member=m)) for m in (True, False)]
                for i in (1, 2)
            }
            assert _first_count_miss(cand, pg32_bundle, [(i, *t[i]) for i in (1, 2)]) is None
            t[1][0] += 1
            t[2][1] += 1
            i = 1 if cand.chi(0) else 2
            miss = _first_count_miss(cand, pg32_bundle, [(i, *t[i]) for i in (1, 2)])
            assert miss == (0, i, (rel[i][0] & cand.mask).bit_count())

    def test_count_checks_never_build_the_rref(self, pg33, monkeypatch):
        # the ladder workload's checks, on a bundle that cannot eliminate
        def refused(self):
            raise AssertionError("incidence_rref called")

        monkeypatch.setattr(SchemeBundle, "incidence_rref", refused)
        config = BatteryConfig(
            checks=("disjointness-counts", "kneser-eigenvector", "meet-distribution")
        )
        bundle = SchemeBundle(pg33)
        pen = point_pencil_family(pg33, 0)
        for cand in (pen, complement(pen)):
            report = run_battery(cand, bundle, config)
            assert report.passed and len(report.results) == 3
        report = run_battery(family(pg33, range(40)), bundle, config)
        assert {r.verdict for r in report.results.values()} == {Verdict.FAIL}


class TestSpreadThrough:
    @pytest.mark.parametrize("n,k,q", [(3, 1, 2), (3, 1, 3), (4, 1, 2), (5, 1, 2)])
    def test_transpose_of_spread_masks(self, n, k, q):
        # every spread of PG(3,2) and PG(3,3), none in PG(4,2), the sample of PG(5,2)
        bundle = bundle_for(geometry(n, k, q))
        masks = bundle.spread_masks()
        through = bundle.spread_through()
        assert len(through) == len(bundle.ctx.kspaces)
        for c, row in enumerate(through):
            assert row == mask_of(s for s, m in enumerate(masks) if m >> c & 1), c

    def test_built_on_first_use_only(self, pg32):
        bundle = SchemeBundle(pg32)
        bundle.spread_masks()
        assert bundle._spread_through is None
        config = BatteryConfig(checks=("spread-intersections",))
        run_battery(point_pencil_family(pg32, 0), bundle, config)
        through = bundle._spread_through
        assert through is not None and bundle.spread_through() is through


class TestSpreadSample:
    def test_built_once_per_geometry(self, pg52, monkeypatch):
        """Batteries and spread_masks() on a geometry above the spread point cap
        share one sample, and a shared sample gives the verdicts, witnesses
        and notes of a sample built per battery."""
        config = BatteryConfig(checks=("switching-sets", "spread-intersections"))
        cands = [point_pencil_family(pg52, 0), family(pg52, range(31))]
        expected = [
            [
                (res.verdict, repr(res.witness), res.note)
                for res in run_battery(cand, SchemeBundle(pg52), config).results.values()
            ]
            for cand in cands
        ]
        sample = pg52.permuted_spread_sample()
        calls = []
        original = GeometryCtx.permuted_spread_sample

        def counted(ctx):
            calls.append(ctx)
            return original(ctx)

        monkeypatch.setattr(GeometryCtx, "permuted_spread_sample", counted)
        bundle = SchemeBundle(pg52)
        got = [
            [
                (res.verdict, repr(res.witness), res.note)
                for res in run_battery(cand, bundle, config).results.values()
            ]
            for cand in cands
        ]
        assert bundle.spread_masks() == [mask_of(s) for s in sample]
        assert not bundle.spreads_exhaustive()
        assert calls == [pg52]
        assert got == expected
        assert {v for rows in got for v, _, _ in rows} >= {Verdict.SAMPLED_PASS, Verdict.FAIL}
