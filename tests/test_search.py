from fractions import Fraction

import pytest

from clkset import (
    SearchConfig,
    family,
    full_family,
    geometry,
    hyperplane_family,
    max_disjoint_subfamily,
    nonexistence_window,
    point_pencil_family,
    search_all,
    verify_max_disjoint,
)


def x1_shape(ctx, fam_ids):
    """Classify an x=1 family: 'pencil' if all members share a point,
    'hyperplane' if all members lie in a common hyperplane, else None."""
    common = ctx.full_point_mask
    for c in fam_ids:
        common &= ctx.kspace_masks[c]
    if common:
        return "pencil"
    union = 0
    for c in fam_ids:
        union |= ctx.kspace_masks[c]
    for h in ctx.hyperplanes():
        if union & ~ctx.point_mask(h) == 0:
            return "hyperplane"
    return None


class TestSearchPG32:
    def test_x1_classification(self, pg32, pg32_bundle):
        result = search_all(pg32, 1, SearchConfig(), pg32_bundle)
        assert len(result.families) == 30
        shapes = [x1_shape(pg32, fam) for fam in result.families]
        assert shapes.count("pencil") == 15
        assert shapes.count("hyperplane") == 15
        pencils = {point_pencil_family(pg32, p).ids for p in range(15)}
        hyps = {
            hyperplane_family(pg32, h).ids for h in pg32.hyperplanes()
        }
        assert set(result.families) == pencils | hyps

    def test_x1_results_pairwise_intersecting(self, pg32, pg32_bundle):
        result = search_all(pg32, 1, SearchConfig(), pg32_bundle)
        disj = pg32.disjointness_masks()
        for fam in result.families:
            mask = 0
            for c in fam:
                mask |= 1 << c
            assert all(disj[c] & mask == 0 for c in fam)

    def test_non_integral_size(self, pg32, pg32_bundle):
        result = search_all(pg32, Fraction(1, 2), SearchConfig(), pg32_bundle)
        assert result.families == ()
        assert "non-integral" in result.reason

    def test_full_parameter(self, pg32, pg32_bundle):
        result = search_all(pg32, 5, SearchConfig(), pg32_bundle)
        assert result.families == (tuple(range(35)),)

    def test_determinism(self, pg32, pg32_bundle):
        r1 = search_all(pg32, 1, SearchConfig(), pg32_bundle)
        r2 = search_all(pg32, 1, SearchConfig(), pg32_bundle)
        assert r1.families == r2.families
        assert r1.stats.nodes == r2.stats.nodes
        assert r1.stats.prunes == r2.stats.prunes

    def test_completeness_against_reference(self, pg32, pg32_bundle):
        # pruning-free subset enumeration restricted to families containing
        # line 0, compared with the propagating engine under the same fixture
        ref = search_all(
            pg32,
            1,
            SearchConfig(engine="reference", fix_in=(0,)),
            pg32_bundle,
        )
        fast = search_all(pg32, 1, SearchConfig(fix_in=(0,)), pg32_bundle)
        assert ref.families == fast.families
        assert len(ref.families) > 0

    def test_count_pruning_off_same_results(self, pg32, pg32_bundle):
        with_pruning = search_all(pg32, 1, SearchConfig(), pg32_bundle)
        without = search_all(
            pg32, 1, SearchConfig(count_pruning=False), pg32_bundle
        )
        assert with_pruning.families == without.families

    def test_symmetry_reduction_preserves_results(self, pg32, pg32_bundle):
        plain = search_all(pg32, 1, SearchConfig(), pg32_bundle)
        reduced = search_all(
            pg32, 1, SearchConfig(symmetry_reduce=True), pg32_bundle
        )
        assert plain.families == reduced.families

    def test_threads_preserve_results(self, pg32, pg32_bundle):
        plain = search_all(pg32, 1, SearchConfig(), pg32_bundle)
        threaded = search_all(pg32, 1, SearchConfig(threads=2), pg32_bundle)
        assert plain.families == threaded.families

    def test_threads_below_one_refused(self, pg32, pg32_bundle):
        for threads in (0, -1):
            with pytest.raises(ValueError, match="thread"):
                search_all(pg32, 1, SearchConfig(threads=threads), pg32_bundle)

    def test_pool_size_clamped(self, pg32, pg32_bundle, monkeypatch):
        """The pool never gets more workers than CPUs or root prefixes; a
        stand-in pool records its size and maps in this process."""
        import concurrent.futures
        import os

        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        plain = search_all(pg32, 1, SearchConfig(), pg32_bundle).families
        # PG(3,2) has 15 pivots, and root_prefixes(2T) splits at most 8 of them
        for cpus, threads, workers in [
            (2, 5000, 2),
            (None, 5000, 1),
            (10**6, 5000, 256),
            (10**6, 3, 3),
        ]:
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            assert search_all(pg32, 1, SearchConfig(threads=threads), pg32_bundle).families == plain
            assert sizes.pop() == workers

    def test_window_below_one_is_vacuous(self, pg32, pg32_bundle):
        report = nonexistence_window(pg32, 0, 1, SearchConfig(), pg32_bundle)
        assert report.all_empty
        assert all(row.reason is not None for row in report.rows)

    def test_battery_failure_raises(self, pg32, pg32_bundle, monkeypatch):
        import clkset.search
        from clkset.families import BatteryReport, CheckResult, Verdict

        def failing(cand, bundle, config=None):
            report = BatteryReport(x=cand.x, size=len(cand))
            report.results["kernel"] = CheckResult(Verdict.FAIL)
            return report

        monkeypatch.setattr(clkset.search, "run_battery", failing)
        with pytest.raises(RuntimeError, match="non-member"):
            search_all(pg32, 1, SearchConfig(), pg32_bundle)

    def test_cap_refusal(self):
        big = geometry(4, 2, 3)
        with pytest.raises(ValueError):
            search_all(big, 1, SearchConfig(max_kspaces=100))


class TestSearchPG42:
    def test_x1_pencils_only(self, pg42, pg42_bundle):
        result = search_all(pg42, 1, SearchConfig(), pg42_bundle)
        assert len(result.families) == 31
        assert all(x1_shape(pg42, fam) == "pencil" for fam in result.families)

    def test_window_between_one_and_two_empty(self, pg42, pg42_bundle):
        report = nonexistence_window(pg42, 1, 2, SearchConfig(), pg42_bundle)
        assert report.all_empty
        assert len(report.rows) == 14
        for row in report.rows:
            assert row.skew_audit is not None

    def test_window_below_one_empty(self, pg42, pg42_bundle):
        report = nonexistence_window(pg42, 0, 1, SearchConfig(), pg42_bundle)
        assert report.all_empty

    def test_full_space_parameter_non_integral(self, pg42, pg42_bundle):
        # the whole line set has x = 31/3 here; it is the unique family
        result = search_all(pg42, Fraction(31, 3), SearchConfig(), pg42_bundle)
        assert result.families == (tuple(range(155)),)

    def test_zero_parameter_gives_empty_family(self, pg42, pg42_bundle):
        result = search_all(pg42, 0, SearchConfig(), pg42_bundle)
        assert result.families == ((),)


class TestMaxDisjoint:
    def test_pencil_is_pairwise_intersecting(self, pg32):
        pen = point_pencil_family(pg32, 0)
        assert max_disjoint_subfamily(pen) == 1
        assert verify_max_disjoint(pen, 1)

    def test_full_family_attains_spread(self, pg32):
        assert max_disjoint_subfamily(full_family(pg32)) == 5

    def test_complement_of_pencil(self, pg32):
        from clkset import complement

        comp = complement(point_pencil_family(pg32, 0))
        assert max_disjoint_subfamily(comp) <= 5
        assert verify_max_disjoint(comp, 5)

    def test_empty(self, pg32):
        assert max_disjoint_subfamily(family(pg32, [])) == 0

    def test_matches_bruteforce_on_small_sets(self, pg32):
        import itertools
        import random

        rng = random.Random(5)
        disj = pg32.disjointness_masks()
        for _ in range(10):
            ids = tuple(sorted(rng.sample(range(35), 9)))
            best = 0
            for r in range(1, 6):
                for combo in itertools.combinations(ids, r):
                    if all(
                        (disj[a] >> b) & 1
                        for a, b in itertools.combinations(combo, 2)
                    ):
                        best = max(best, r)
            assert max_disjoint_subfamily(family(pg32, ids)) == best
