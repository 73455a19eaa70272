"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (run with -s to see them).  Every
comparison here is exact: the oracles are independent brute-force counts,
and no tolerance is applied anywhere except the deliberate cross-check of
the exact bound comparator against 50-digit floating evaluation.
"""

import math
import random
from fractions import Fraction

from _oracles import (
    disjoint_count_bruteforce,
    first_disjoint_pair,
    skew_pair_profile_bruteforce,
    valence_distribution_bruteforce,
)

from clkset import (
    BatteryConfig,
    SchemeParams,
    complement,
    count_disjoint,
    eigenvalue_separated,
    family,
    full_family,
    geometry,
    hyperplane_family,
    member_meet_count,
    nonexistence_window,
    pair_skew_count,
    point_flag_identity,
    point_pencil_family,
    qbinom,
    run_battery,
    search_all,
    skew_pair_component,
    skew_pair_outer_point,
    skew_pair_span_point,
    skew_pair_total,
    valence,
    within_classification_bound,
)
from clkset.geometry import ids_of, mask_of
from clkset.scheme import bundle_for, full_spectrum_check


def _announce(label):
    def deco(fn):
        def wrapped(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {label}: FAIL")
                raise
            print(f"\nACCEPTANCE {label}: PASS")

        wrapped.__name__ = fn.__name__
        return wrapped

    return deco


def _formula_grid():
    grid = []
    for q in (2, 3):
        for k in (0, 1, 2):
            for n in range(k + 1, 6):
                if qbinom(n + 1, k + 1, q) <= 10**5:
                    grid.append((n, k, q))
    return grid


@_announce("1 formula-vs-oracle")
def test_acceptance_1_formula_oracles():
    for n, k, q in _formula_grid():
        p = SchemeParams(n=n, k=k, q=q)
        ctx = geometry(n, k, q)
        # subspace counts: structural enumeration vs the closed form
        assert len(ctx.kspaces) == qbinom(n + 1, k + 1, q)
        assert len(ctx.points) == qbinom(n + 1, 1, q)
        # disjointness counts from a fixed m-space, all m, j = k
        for m in range(n + 1):
            fixed = ctx.subspaces_of_dim(m)[0]
            fmask = ctx.point_mask(fixed)
            brute = sum(1 for km in ctx.kspace_masks if km & fmask == 0)
            assert brute == count_disjoint(n, q, m, k), (n, k, q, m)
        # other target dimensions on the smaller geometries
        if len(ctx.kspaces) <= 2000:
            for m in range(n + 1):
                for j in range(n):
                    assert disjoint_count_bruteforce(ctx, m, j) == count_disjoint(
                        n, q, m, j
                    )
        # valences of every relation
        brute_dist = valence_distribution_bruteforce(ctx, 0)
        assert brute_dist == [valence(i, p) for i in range(k + 2)]
        # skew-to-pair counts, overall and per point class
        if n >= 2 * k + 1:
            a, b = first_disjoint_pair(ctx)
            by_dim, span_pt, outer_pt = skew_pair_profile_bruteforce(ctx, a, b)
            for i in range(-1, k + 1):
                assert skew_pair_component(i, p) == by_dim[i]
            assert skew_pair_total(p) == sum(by_dim.values())
            assert skew_pair_span_point(p) == span_pt
            if n > 2 * k + 1:
                assert skew_pair_outer_point(p) == outer_pt


@_announce("2 spectral-oracle")
def test_acceptance_2_spectrum():
    for n, k, q in ((3, 1, 2), (3, 1, 3), (4, 1, 2)):
        ctx = geometry(n, k, q)
        cert = full_spectrum_check(ctx)
        assert cert.ok, (n, k, q, cert)
        assert sum(cert.dims) == len(ctx.kspaces)
        assert cert.dims[0] == 1
        p = ctx.params
        for i in range(1, k + 2):
            assert eigenvalue_separated(i, p), (n, k, q, i)


def _trivial_roster(ctx):
    roster = []
    for point in range(len(ctx.points)):
        roster.append(point_pencil_family(ctx, point))
    for h in ctx.hyperplanes():
        roster.append(hyperplane_family(ctx, h))
    roster.extend([complement(fam) for fam in roster[: 2 * len(ctx.points)]])
    return roster


@_announce("3 battery-equivalence")
def test_acceptance_3_battery_equivalence():
    for n, k, q in ((3, 1, 2), (3, 1, 3)):
        ctx = geometry(n, k, q)
        bundle = bundle_for(ctx)
        total = len(ctx.kspaces)
        size = qbinom(n, k, q)
        roster = _trivial_roster(ctx)
        rng = random.Random(1)
        roster.extend(
            family(ctx, rng.sample(range(total), size)) for _ in range(500)
        )
        disagreements = 0
        for fam in roster:
            report = run_battery(fam, bundle)  # raises on any disagreement
            if not report.agreed:
                disagreements += 1
        assert disagreements == 0
        # property 8 runs against the full exhaustive spread list
        report = run_battery(roster[0], bundle)
        spread_note = report.results["spread-intersections"].note
        if (n, q) == (3, 2):
            assert spread_note == "all 56 spreads"


@_announce("4 classification-reproduction")
def test_acceptance_4_classification():
    ctx32 = geometry(3, 1, 2)
    res = search_all(ctx32, 1)
    assert len(res.families) == 30
    pencils = {point_pencil_family(ctx32, pt).ids for pt in range(15)}
    hyps = {hyperplane_family(ctx32, h).ids for h in ctx32.hyperplanes()}
    assert set(res.families) == pencils | hyps

    ctx42 = geometry(4, 1, 2)
    res42 = search_all(ctx42, 1)
    assert len(res42.families) == 31
    pencils42 = {point_pencil_family(ctx42, pt).ids for pt in range(31)}
    assert set(res42.families) == pencils42

    for lo, hi in ((0, 1), (1, 2)):
        rows = nonexistence_window(ctx42, lo, hi)
        assert all(row.families == 0 for row in rows), (lo, hi)


def _battery_passing_roster(ctx, bundle, wide=False):
    if wide:
        candidates = _trivial_roster(ctx) + [full_family(ctx)]
    else:
        candidates = [
            point_pencil_family(ctx, 0),
            hyperplane_family(ctx, ctx.hyperplanes()[0]),
            complement(point_pencil_family(ctx, 0)),
            full_family(ctx),
        ]
    out = []
    for fam in candidates:
        if len(fam) and run_battery(fam, bundle, BatteryConfig.fast()).passed:
            out.append(fam)
    return out


@_announce("5 counting-formula-consistency")
def test_acceptance_5_counting_formulas():
    """Every disjoint member pair spans exactly one (2k+1)-space sigma, so the
    pairs are enumerated sigma by sigma, from sigma's members by mask, and
    the spread meets are counted once per (family, sigma)."""
    for n, k, q in ((3, 1, 2), (5, 1, 2)):
        ctx = geometry(n, k, q)
        bundle = bundle_for(ctx)
        p = ctx.params
        disj = bundle.ctx.disjointness_masks()
        sigmas = [
            (mask_of(ctx.all_in(sigma)), ctx.sigma_spread_masks(sigma))
            for sigma in ctx.subspaces_of_dim(2 * k + 1)
        ]
        for fam in _battery_passing_roster(ctx, bundle, wide=(n == 3)):
            x = fam.x
            s1 = member_meet_count(p, x)
            d2_by_meet = {}
            disjoint_pairs = 0
            for pi in fam.ids:
                partners = (disj[pi] & fam.mask).bit_count()
                assert len(fam) - partners == s1, (n, q, x)
                disjoint_pairs += partners
            pairs = 0
            for in_sigma, spread_masks in sigmas:
                inside = in_sigma & fam.mask
                meets = {(m & fam.mask).bit_count() for m in spread_masks}
                for meet in meets - d2_by_meet.keys():
                    d2_by_meet[meet] = pair_skew_count(p, x, meet)
                targets = {d2_by_meet[meet] for meet in meets}
                sigma_pairs = 0
                for a in ids_of(inside):
                    for b in ids_of(disj[a] & inside):
                        if b > a:
                            direct = (disj[a] & disj[b] & fam.mask).bit_count()
                            assert targets == {direct}, (n, q, x, a, b)
                            sigma_pairs += 1
                if sigma_pairs and n > 3 * k + 1:
                    assert max(meets) <= math.floor(x), (n, q, x, max(meets))
                pairs += sigma_pairs
            assert 2 * pairs == disjoint_pairs, (n, q, x)


@_announce("6 bound-evaluator")
def test_acceptance_6_bound_evaluator():
    from mpmath import mp, mpf, sqrt

    mp.dps = 50
    rng = random.Random(1)
    checked = 0
    while checked < 50:
        q = rng.choice([2, 3, 4, 5, 7, 8, 9])
        k = rng.randint(1, 3)
        n = rng.randint(3 * k + 2, 3 * k + 9)
        p = SchemeParams(n=n, k=k, q=q)
        f = (
            mpf(q) ** (mpf(n) / 2 - mpf(k * k) / 4 - mpf(3 * k) / 4 - mpf(3) / 2)
            * mpf(q - 1) ** (mpf(k * k) / 4 - mpf(k) / 4 + mpf(1) / 2)
            * sqrt(mpf(q * q + q + 1))
        )
        x = Fraction(rng.randint(1, 10 ** rng.randint(1, 8)), rng.randint(1, 1000))
        margin = abs(mpf(x.numerator) / x.denominator - f) / f
        if margin <= mpf(10) ** -20:
            continue
        float_says = mpf(x.numerator) / x.denominator <= f
        assert within_classification_bound(p, x) == float_says
        checked += 1


@_announce("7 point-flag-identity")
def test_acceptance_7_point_flag_identity():
    for n, k, q in ((3, 1, 2), (3, 1, 3)):
        ctx = geometry(n, k, q)
        bundle = bundle_for(ctx)
        for fam in _battery_passing_roster(ctx, bundle):
            for tau in ctx.hyperplanes():
                tmask = ctx.point_mask(tau)
                for point in range(len(ctx.points)):
                    if (tmask >> point) & 1:
                        assert point_flag_identity(fam, point, tau)
