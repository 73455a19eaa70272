import functools
from fractions import Fraction

import pytest
from _oracles import IndexOrderEngine, reference_families

from clkset import (
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
    def test_x1_classification(self, pg32):
        result = search_all(pg32, 1)
        assert len(result.families) == 30
        shapes = [x1_shape(pg32, fam) for fam in result.families]
        assert shapes.count("pencil") == 15
        assert shapes.count("hyperplane") == 15
        pencils = {point_pencil_family(pg32, p).ids for p in range(15)}
        hyps = {
            hyperplane_family(pg32, h).ids for h in pg32.hyperplanes()
        }
        assert set(result.families) == pencils | hyps

    def test_x1_results_pairwise_intersecting(self, pg32):
        result = search_all(pg32, 1)
        disj = pg32.disjointness_masks()
        for fam in result.families:
            mask = 0
            for c in fam:
                mask |= 1 << c
            assert all(disj[c] & mask == 0 for c in fam)

    def test_non_integral_size(self, pg32):
        result = search_all(pg32, Fraction(1, 2))
        assert result.families == ()
        assert "non-integral" in result.reason

    def test_full_parameter(self, pg32):
        result = search_all(pg32, 5)
        assert result.families == (tuple(range(35)),)

    def test_determinism(self, pg32):
        r1 = search_all(pg32, 1)
        r2 = search_all(pg32, 1)
        assert r1.families == r2.families
        assert r1.stats.nodes == r2.stats.nodes
        assert r1.stats.prunes == r2.stats.prunes

    def test_completeness_against_reference(self, pg32):
        # pruning-free subset enumeration restricted to families containing
        # line 0, compared with the engine's families that contain it
        ref = reference_families(pg32, 1, fix_in=(0,))
        fast = _narrowed(search_all(pg32, 1), fix_in=(0,))
        assert ref == fast
        assert len(ref) > 0

    def test_threads_preserve_results(self, pg32, pg42):
        # each worker goes fail first inside its root prefix
        for ctx, x in ((pg32, 1), (pg32, 2), (pg42, 1)):
            plain = search_all(ctx, x)
            threaded = search_all(ctx, x, threads=2)
            assert plain.families == threaded.families

    def test_threads_below_one_refused(self, pg32):
        for threads in (0, -1):
            with pytest.raises(ValueError, match="thread"):
                search_all(pg32, 1, threads=threads)

    def test_pool_size_clamped(self, pg32, monkeypatch):
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
        plain = search_all(pg32, 1).families
        # PG(3,2) has 15 pivots, and root_prefixes(2T) splits at most 8 of them
        for cpus, threads, workers in [
            (2, 5000, 2),
            (None, 5000, 1),
            (10**6, 5000, 256),
            (10**6, 3, 3),
        ]:
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            assert search_all(pg32, 1, threads=threads).families == plain
            assert sizes.pop() == workers

    def test_window_below_one_is_vacuous(self, pg32):
        rows = nonexistence_window(pg32, 0, 1)
        assert all(row.families == 0 for row in rows)
        assert all(row.reason is not None for row in rows)

    def test_empty_window_refused(self, pg32):
        for lo, hi in ((2, 1), (1, 1), (Fraction(3, 2), Fraction(3, 2))):
            with pytest.raises(ValueError, match="empty window"):
                nonexistence_window(pg32, lo, hi)

    def test_window_without_parameter_refused(self, pg32):
        # no s/7 lies strictly inside these windows, so nothing is searched
        for lo, hi in ((1, Fraction(21, 20)), (Fraction(1, 7), Fraction(2, 7))):
            with pytest.raises(ValueError, match="no parameter s/7"):
                nonexistence_window(pg32, lo, hi)
        assert len(nonexistence_window(pg32, Fraction(1, 7), Fraction(3, 7))) == 1

    def test_window_below_zero_starts_at_its_first_parameter(self, pg32):
        rows = nonexistence_window(pg32, Fraction(-1, 2), Fraction(1, 2))
        assert [row.x for row in rows] == [Fraction(s, 7) for s in range(-3, 4)]
        assert [row.families for row in rows] == [0, 0, 0, 1, 0, 0, 0]
        (zero,) = nonexistence_window(pg32, Fraction(-1, 14), Fraction(1, 14))
        assert (zero.x, zero.size, zero.families) == (0, 0, 1)

    def test_skew_audit_skipped_at_and_below_minus_one(self):
        """The skew audit takes c = ceil(x) >= 0, so a window reaching
        x <= -1 searches every row and leaves the audit of those rows None;
        the rows with ceil(x) = 0 keep theirs."""
        from clkset.qformulas import excludes_skew_subfamily

        pg42 = geometry(4, 1, 2)
        rows = nonexistence_window(pg42, -2, 0)
        assert [row.size for row in rows] == list(range(-29, 0))
        assert all(row.families == 0 for row in rows)
        for row in rows:
            if row.x <= -1:
                assert row.skew_audit is None, row.x
            else:
                assert row.skew_audit == excludes_skew_subfamily(0, pg42.params, row.x)
        assert sum(row.skew_audit is None for row in rows) == 15

    def test_window_wider_than_the_family_sizes_refused(self, pg32):
        """A window holding more parameters s/base than there are family
        sizes 0..N is refused before anything is searched: PG(2,2) lines
        have 8 sizes and base 3, PG(3,2) lines 36 sizes and base 7."""
        pg22 = geometry(2, 1, 2)
        assert len(nonexistence_window(pg22, Fraction(-1, 6), Fraction(5, 2))) == 8
        with pytest.raises(ValueError, match="9 parameters s/3, more than the 8 family sizes"):
            nonexistence_window(pg22, Fraction(-1, 2), Fraction(5, 2))
        with pytest.raises(ValueError, match="more than the 36 family sizes"):
            nonexistence_window(pg32, 0, 10**9)

    def test_battery_failure_raises(self, pg32, monkeypatch):
        import clkset.search
        from clkset.families import BatteryReport, CheckResult, Verdict

        def failing(cand, bundle, config=None):
            report = BatteryReport(x=cand.x, size=len(cand))
            report.results["kernel"] = CheckResult(Verdict.FAIL)
            return report

        monkeypatch.setattr(clkset.search, "run_battery", failing)
        with pytest.raises(RuntimeError, match="non-member"):
            search_all(pg32, 1)

    def test_cap_refusal(self):
        big = geometry(6, 1, 2)
        assert len(big.kspaces) == 2667
        with pytest.raises(ValueError, match="2667 k-spaces, exceeding the search cap 2000"):
            search_all(big, 1)


class TestSearchPG42:
    def test_x1_pencils_only(self, pg42):
        result = search_all(pg42, 1)
        assert len(result.families) == 31
        assert all(x1_shape(pg42, fam) == "pencil" for fam in result.families)

    def test_window_between_one_and_two_empty(self, pg42):
        rows = nonexistence_window(pg42, 1, 2)
        assert all(row.families == 0 for row in rows)
        assert len(rows) == 14
        for row in rows:
            assert row.skew_audit is not None

    def test_window_below_one_empty(self, pg42):
        rows = nonexistence_window(pg42, 0, 1)
        assert all(row.families == 0 for row in rows)

    def test_full_space_parameter_non_integral(self, pg42):
        # the whole line set has x = 31/3 here; it is the unique family
        result = search_all(pg42, Fraction(31, 3))
        assert result.families == (tuple(range(155)),)

    def test_zero_parameter_gives_empty_family(self, pg42):
        result = search_all(pg42, 0)
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


def _engine(ctx, x):
    from clkset.search import _PropagateEngine

    return _PropagateEngine(ctx, Fraction(x))


def _narrowed(result, fix_in=(), fix_out=()):
    """The families of a search result containing fix_in and avoiding fix_out."""
    return tuple(
        fam
        for fam in result.families
        if set(fix_in) <= set(fam) and not set(fix_out) & set(fam)
    )


def _decode(planes, m):
    return sum((plane >> m & 1) << b for b, plane in enumerate(planes))


def _within(lo, t, hi):
    return t >= 0 and lo <= t <= hi


def _check_fixpoint(eng, ctx):
    """Recompute every counter and rule from the two masks alone: the
    counters must match, and no rule may fail or force an undecided k-space."""
    from clkset.scheme import bundle_for

    ins, outs = eng.in_mask, eng.out_mask
    assert ins & outs == 0
    assert eng.pend_in == eng.pend_out == 0
    assert ins.bit_count() <= eng.target <= eng.total - outs.bit_count()
    # T and O: position (i, m) is bit (i-1)N + m, and nothing lies beyond
    positions = eng.num_rel * eng.total
    assert not any(plane >> positions for plane in eng.tally_in + eng.tally_out)
    for i in range(1, eng.num_rel + 1):
        for m, nbs in enumerate(eng.rows.rel[i]):
            t = (nbs & ins).bit_count()
            o = (nbs & outs).bit_count()
            assert _decode(eng.tally_in, (i - 1) * eng.total + m) == t
            assert _decode(eng.tally_out, (i - 1) * eng.total + m) == o
            a = eng.deg[i] - o
            ok_in = _within(t, eng.t_in[i], a)
            ok_out = _within(t, eng.t_out[i], a)
            if ins >> m & 1 or outs >> m & 1:
                tgt = eng.t_in[i] if ins >> m & 1 else eng.t_out[i]
                assert ok_in if ins >> m & 1 else ok_out
                assert t == a or tgt not in (t, a)  # saturation spent
            else:
                assert ok_in and ok_out
    # Mup and Pdn: at each free column's bit, the least reachable value of
    # sum coef * chi_pivot less its start -m0, and p0 less the greatest
    free = bundle_for(ctx).incidence_rref()[1]
    free_mask = sum(1 << f for f, _, _ in free)
    assert not any(plane & ~free_mask for plane in eng.rise + eng.fall)
    for f, scale, supp in free:
        acc = lo = hi = 0
        for pcol, coef in supp:
            if ins >> pcol & 1:
                acc += coef
            elif not outs >> pcol & 1:
                lo, hi = lo + min(coef, 0), hi + max(coef, 0)
        m0 = sum(-coef for _, coef in supp if coef < 0)
        p0 = sum(coef for _, coef in supp if coef > 0)
        assert _decode(eng.rise, f) == acc + lo + m0
        assert _decode(eng.fall, f) == p0 - (acc + hi)
        can_out = not ins >> f & 1 and acc + lo <= 0 <= acc + hi
        can_in = not outs >> f & 1 and acc + lo <= scale <= acc + hi
        assert can_out or can_in
        if not (ins | outs) >> f & 1:
            assert can_out and can_in
    # fail first: the undecided pivot with the fewest undecided relation-1
    # neighbours, the lowest id on a tie
    undecided = [c for c in range(eng.total) if not (ins | outs) >> c & 1]
    near = eng.rows.rel[1]
    choices = sorted(
        (sum(near[c] >> d & 1 for d in undecided), c)
        for c in eng.linear.pivots
        if c in undecided
    )
    assert eng._next_pivot() == (choices[0][1] if choices else None)


class TestBitSlicedEngine:
    @pytest.mark.parametrize(
        "n,k,q,x", [(3, 1, 2, 2), (4, 1, 2, 1), (4, 2, 2, Fraction(3, 7))]
    )
    def test_counters_and_fixpoint_on_random_decisions(self, n, k, q, x):
        import random

        from clkset.search import SearchStats

        ctx = geometry(n, k, q)
        eng = _engine(ctx, x)
        stats = SearchStats()
        checked = 0
        for seed in range(6):
            rng = random.Random(seed)
            assert eng._start(0, 0, stats)
            _check_fixpoint(eng, ctx)
            while eng.in_mask | eng.out_mask != eng.full:
                undecided = [
                    c for c in range(eng.total) if not (eng.in_mask | eng.out_mask) >> c & 1
                ]
                bit = 1 << rng.choice(undecided)
                first = rng.random() < 0.5
                snap = eng._snapshot()
                for ins in (first, not first):
                    if eng._apply(bit if ins else 0, 0 if ins else bit, stats):
                        _check_fixpoint(eng, ctx)
                        checked += 1
                        break
                    eng._restore(snap)
                else:
                    break  # both values fail: a dead end
        assert checked >= 12

    @pytest.mark.parametrize("n,k,q,x", [(3, 1, 2, 2), (4, 2, 2, Fraction(3, 7))])
    def test_fixpoints_toward_a_family(self, n, k, q, x):
        """Deciding a family's pivots in random order passes only through
        reachable fixpoints, each checked with the branching rule, and ends
        with every k-space decided and no pivot left to branch on."""
        import random

        from clkset.geometry import mask_of
        from clkset.search import SearchStats

        ctx = geometry(n, k, q)
        eng = _engine(ctx, x)
        stats = SearchStats()
        rng = random.Random(1)
        for fam in rng.sample(search_all(ctx, x).families, 3):
            mask = mask_of(fam)
            assert eng._start(0, 0, stats)
            for c in rng.sample(eng.linear.pivots, len(eng.linear.pivots)):
                bit = 1 << c
                assert eng._apply(bit & mask, bit & ~mask, stats)
                _check_fixpoint(eng, ctx)
            assert (eng.in_mask, eng.out_mask) == (mask, eng.full & ~mask)
            assert eng._next_pivot() is None

    def test_leaf_with_undecided_coordinates_raises(self, pg32):
        from clkset.search import SearchStats

        eng = _engine(pg32, 1)
        eng._init_state()
        with pytest.raises(RuntimeError, match="undecided"):
            eng._leaf([], SearchStats())

    def test_tampered_counters_raise(self, pg32):
        """Each of the four counters raises once an add carries out of its
        top plane; nothing subtracts, so there is no underflow to catch."""
        from clkset.scheme import bundle_for
        from clkset.search import SearchStats

        eng = _engine(pg32, 1)
        # a pivot with a positive coefficient: in, it adds to Mup; out, to Pdn
        free = bundle_for(pg32).incidence_rref()[1]
        c = next(pcol for _, _, supp in free for pcol, coef in supp if coef > 0)
        wide_full = (1 << eng.num_rel * eng.total) - 1
        for name, ins, outs, full in [
            ("tally_in", 1, 0, wide_full),
            ("tally_out", 0, 1, wide_full),
            ("rise", 1 << c, 0, eng.full),
            ("fall", 0, 1 << c, eng.full),
        ]:
            eng._init_state()
            setattr(eng, name, [full] * len(getattr(eng, name)))
            with pytest.raises(RuntimeError, match="overflow"):
                eng._apply(ins, outs, SearchStats())

    def test_every_subset_of_pg23_lines_against_reference(self):
        # in PG(2,3) every set of lines is a family: 2^13 at sizes 0..13
        ctx = geometry(2, 1, 3)
        found = 0
        for size in range(14):
            x = Fraction(size, 4)
            fast = search_all(ctx, x)
            assert fast.families == reference_families(ctx, x)
            found += len(fast.families)
        assert found == 2**13

    def test_narrowed_pg32_x2_against_reference(self, pg32):
        narrow = dict(fix_in=(0, 1, 2), fix_out=tuple(range(21, 35)))
        fast = _narrowed(search_all(pg32, 2), **narrow)
        assert fast == reference_families(pg32, 2, **narrow)
        assert len(fast) == 2

    @pytest.mark.parametrize(
        "n,k,q,x,count,digest",
        [
            (3, 1, 2, 1, 30, "1cfdb4ef35c847fe87b845088af72499f295a006c85be23c206d15571d98ffd6"),
            (3, 1, 2, 2, 120, "4550625c52ed4504f87f2f64a5a38c8bb236645a7604f2dd946714de95afa93a"),
            (3, 1, 2, 3, 120, "836ea888ecf4829b0ea205e2c8d414bb3d08a43f519dacb402af7a012bb3c54a"),
            (3, 1, 3, 1, 80, "5657b94de1eca691bd41b1ca6e6bfb1054da96b7959a5ce1d18c722fe84a7920"),
            (4, 2, 2, Fraction(3, 7), 31, "ad3f51584a1430084a693775276fac576f2106946d18e8e695abef5f925d8151"),
        ],
    )
    def test_families_match_per_neighbour_engine(self, n, k, q, x, count, digest):
        """sha256 of repr(families) as found by the earlier per-neighbour
        engine (lists of neighbour ids and a FIFO queue)."""
        import hashlib

        result = search_all(geometry(n, k, q), x)
        assert len(result.families) == count
        assert hashlib.sha256(repr(result.families).encode()).hexdigest() == digest


# (forced, leaves, prunes in order) per search of the index-order engine
OBSERVED = {
    (4, 1, 2, Fraction(4, 3)): (
        34640, 0, [("count", 227), ("conflict", 158), ("size", 176), ("linear", 272)]
    ),
    (4, 1, 2, Fraction(5, 3)): (
        62202, 0, [("conflict", 833), ("count", 793), ("linear", 1172), ("size", 118)]
    ),
    (3, 1, 3, 1): (6749, 80, [("count", 71), ("linear", 68), ("conflict", 7)]),
    (4, 1, 2, 1): (4406, 31, [("count", 14), ("conflict", 7), ("linear", 2), ("size", 6)]),
    (3, 1, 2, 2): (
        13986, 120, [("count", 382), ("conflict", 375), ("size", 185), ("linear", 574)]
    ),
    (4, 2, 2, Fraction(3, 7)): (
        4100, 31, [("count", 18), ("conflict", 9), ("linear", 7), ("size", 2)]
    ),
    (3, 1, 4, 1): (36446, 170, [("count", 192), ("linear", 285), ("conflict", 12), ("size", 1)]),
    (5, 1, 2, 1): (34849, 63, [("count", 12), ("conflict", 8), ("linear", 2), ("size", 8)]),
}

# (nodes, forced, leaves, prunes in order) per search of the engine, which
# branches fail first
FAIL_FIRST = {
    (4, 1, 2, Fraction(4, 3)): (
        586, 22404, 0, [("count", 145), ("conflict", 122), ("size", 83), ("linear", 237)]
    ),
    (4, 1, 2, Fraction(5, 3)): (
        1420, 30918, 0, [("count", 245), ("conflict", 356), ("linear", 719), ("size", 101)]
    ),
    (3, 1, 3, 1): (220, 6611, 80, [("count", 58), ("linear", 70), ("conflict", 12), ("size", 1)]),
    (4, 1, 2, 1): (59, 4427, 31, [("count", 14), ("conflict", 7), ("linear", 2), ("size", 6)]),
    (3, 1, 2, 2): (
        1411, 10914, 120, [("count", 223), ("conflict", 240), ("size", 168), ("linear", 661)]
    ),
    (4, 2, 2, Fraction(3, 7)): (
        66, 4083, 31, [("count", 18), ("conflict", 9), ("linear", 7), ("size", 2)]
    ),
    (3, 1, 4, 1): (633, 37955, 170, [("count", 189), ("linear", 258), ("conflict", 17)]),
    (5, 1, 2, 1): (92, 35101, 63, [("count", 12), ("conflict", 8), ("linear", 2), ("size", 8)]),
    (4, 1, 2, 2): (
        3026, 59256, 0, [("size", 243), ("linear", 1975), ("count", 394), ("conflict", 415)]
    ),
    (4, 1, 2, Fraction(7, 3)): (
        5279, 90648, 31, [("conflict", 871), ("count", 431), ("size", 469), ("linear", 3478)]
    ),
}


@functools.cache
def _index_order(n, k, q, x):
    """(families, stats) of the index-order oracle, run once per search."""
    return IndexOrderEngine(geometry(n, k, q), Fraction(x)).solve()


class TestWavePropagation:
    @pytest.mark.parametrize(
        "n,k,q,x,nodes,count",
        [
            (4, 1, 2, Fraction(4, 3), 832, 0),
            (4, 1, 2, Fraction(5, 3), 2915, 0),
            (3, 1, 3, 1, 225, 80),
            (4, 1, 2, 1, 59, 31),
            (3, 1, 2, 2, 1635, 120),
            (4, 2, 2, Fraction(3, 7), 66, 31),
            (3, 1, 4, 1, 659, 170),
            (5, 1, 2, 1, 92, 63),
        ],
    )
    def test_nodes_match_per_decision_engine(self, n, k, q, x, nodes, count):
        """Node counts of the earlier engine, which decided one pending
        k-space at a time, on the index-order oracle: every successful
        propagation reaches the same fixpoint, so the search tree is the
        same.  The forced, leaf and prune counts, prune keys in order, are
        those of the engine that kept one tally and one ceiling per relation."""
        fams, stats = _index_order(n, k, q, x)
        assert (stats.nodes, len(fams)) == (nodes, count)
        forced, leaves, prunes = OBSERVED[n, k, q, x]
        assert (stats.forced, stats.leaves, list(stats.prunes.items())) == (
            forced,
            leaves,
            prunes,
        )

    @pytest.mark.parametrize("n,k,q,x", list(FAIL_FIRST))
    def test_fail_first_matches_index_order(self, n, k, q, x):
        """The engine's (nodes, forced, leaves, prunes in order) as pinned,
        and its families those of the index-order oracle, as sha256."""
        import hashlib

        fams, stats = _engine(geometry(n, k, q), x).solve()
        assert (stats.nodes, stats.forced, stats.leaves, list(stats.prunes.items())) == (
            FAIL_FIRST[n, k, q, x]
        )
        digests = [
            hashlib.sha256(repr(sorted(found)).encode()).hexdigest()
            for found in (fams, _index_order(n, k, q, x)[0])
        ]
        assert digests[0] == digests[1]

    @pytest.mark.parametrize("n,k,q,x", [(4, 1, 2, Fraction(4, 3)), (3, 1, 2, 2)])
    def test_restore_after_failed_wave(self, n, k, q, x):
        """A propagation that fails after some waves has moved the masks,
        both tallies and the linear counters; _restore puts every one of
        them back to the snapshot, which stays a fixpoint."""
        import random

        from clkset.geometry import ids_of
        from clkset.search import SearchStats

        ctx = geometry(n, k, q)
        eng = _engine(ctx, x)
        stats = SearchStats()
        moved = 0
        for seed in range(8):
            rng = random.Random(seed)
            assert eng._start(0, 0, stats)
            while eng.in_mask | eng.out_mask != eng.full:
                c = rng.choice(ids_of(eng.full & ~(eng.in_mask | eng.out_mask)))
                snap = eng._snapshot()
                for ins in rng.sample((True, False), 2):
                    if eng._apply(1 << c if ins else 0, 0 if ins else 1 << c, stats):
                        break
                    changed = [a != b for a, b in zip(eng._snapshot(), snap)]
                    # both masks, T, O, Mup and Pdn moved
                    moved += all(changed)
                    eng._restore(snap)
                    assert eng._snapshot() == snap
                    assert eng.pend_in == eng.pend_out == 0
                    _check_fixpoint(eng, ctx)
                else:
                    break  # both values fail: a dead end
        assert moved >= 5
