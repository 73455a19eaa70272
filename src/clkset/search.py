"""Exhaustive search for families with a given parameter.

There is one engine, and its one setting is the number of worker processes
(`threads`), which partitions the tree at the root without changing the
families or their order.  It branches only on the pivot columns of the
incidence matrix's RREF: the other coordinates of any admissible
characteristic vector are linear functions of the pivot coordinates
(orthogonality to the kernel of A), so they are forced, interval-pruned while
partially decided, and verified on completion.  Every k-space also carries
exact meet-count targets per relation, which prune and force.  Both rule
families are implied by membership, so the search returns exactly the
families whose battery passes, each battery-verified before it is reported.

It branches fail first: next on the undecided pivot with the fewest
undecided relation-1 neighbours, the lowest id on a tie.  Both values of
every chosen pivot are explored and a leaf has every pivot decided, so the
rule moves the node, forced and prune counts but never the families.

The state is two N-bit masks, members and non-members, and four bit-sliced
counters (Knuth, TAOCP 4A, 7.1.3) that only add, through `geometry._add`;
a scan from the top digit compares one with per-position bounds.
- The in-tally T and out-tally O count, at position (i, c), bit (i-1)N + c,
  the members and the non-members among c's relation-i neighbours, so
  deciding c adds one wide row of the SchemeBundle's MeetRows.  A side with
  target t needs T <= t and a ceiling deg_i - O >= t, that is O <= deg_i - t.
- Mup and Pdn count, at free column f's bit, how far the least and the
  greatest reachable value of sum coef * chi_pivot have risen and fallen;
  the coefficient planes and bounds are the SchemeBundle's LinearTerms.
  With m0_f and p0_f the magnitudes of f's negative and positive
  coefficients, 0 is reachable while Mup <= m0_f and Pdn <= p0_f, and L_f
  while Mup <= m0_f + L_f and Pdn <= p0_f - L_f.
Forced decisions wait in two pending masks; a k-space pending both ways, or
against its decided value, is a conflict.  A wave decides the whole pending
set and checks each rule once: size, the count rules (pushed relation by
relation) and the linear rule of the free columns whose support it touched.
The rules only tighten as decisions are added, so a successful propagation
reaches the same fixpoint however its decisions are grouped (chaotic
iteration of monotone rules, as in AC-3: Mackworth, Artif. Intell. 8, 1977).
The test suite checks the engine against a pruning-free subset enumeration.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .families import CLCandidate, _int_or_none, run_battery
from .geometry import GeometryCtx, _add, ids_of, mask_of
from .qformulas import (
    excludes_skew_subfamily,
    meet_count_target,
    qbinom,
    valence,
    within_classification_bound,
)
from .scheme import _planes, bundle_for

DEFAULT_SEARCH_CAP = 2000


@dataclass
class SearchStats:
    nodes: int = 0
    forced: int = 0  # coordinates decided by propagation, in failed waves too
    leaves: int = 0
    prunes: dict[str, int] = field(default_factory=dict)
    wall_seconds: float = 0.0

    def bump(self, rule: str, count: int = 1) -> None:
        self.prunes[rule] = self.prunes.get(rule, 0) + count


@dataclass
class SearchResult:
    families: tuple[tuple[int, ...], ...]
    stats: SearchStats
    reason: str | None = None  # set when the search was decided without DFS


def _exceeds(x, y, x_bound, y_bound, where: int) -> tuple[int, int, int]:
    """For counters x and y and bounds of as many planes, by one scan from
    the top digit: the positions in where with x or y above its bound, and
    those with x, and with y, at its bound."""
    over, x_eq, y_eq = 0, where, where
    for b in range(len(x) - 1, -1, -1):
        diff = x[b] ^ x_bound[b]
        over |= x_eq & diff & x[b]
        x_eq &= ~diff
        diff = y[b] ^ y_bound[b]
        over |= y_eq & diff & y[b]
        y_eq &= ~diff
        if not (x_eq or y_eq):
            break  # the lower digits decide nothing more
    return over, x_eq, y_eq


class _PropagateEngine:
    def __init__(self, ctx: GeometryCtx, x: Fraction):
        p = ctx.params
        self.total = len(ctx.kspaces)
        self.full = (1 << self.total) - 1
        self.reason: str | None = None
        size = x * qbinom(p.n, p.k, p.q)
        self.target = _int_or_none(size)
        if self.target is None:
            self.reason = f"non-integral family size {size}"
            return
        if not 0 <= self.target <= self.total:
            self.reason = f"family size {self.target} out of range"
            return
        self.num_rel = p.k + 1
        self.deg = [valence(i, p) for i in range(p.k + 2)]
        # -1 marks a target never met, possible only when that side is empty
        self.t_in, self.t_out = [-1] * (p.k + 2), [-1] * (p.k + 2)
        for i in range(1, p.k + 2):
            for member, targets, needed in (
                (True, self.t_in, self.target > 0),
                (False, self.t_out, self.target < self.total),
            ):
                want = meet_count_target(i, p, x, member=member)
                t = _int_or_none(want)
                if t is not None and 0 <= t <= self.deg[i]:
                    targets[i] = t
                elif needed:
                    side = "members" if member else "non-members"
                    self.reason = f"{side} need exactly {want} meets at relation {i}: impossible"
                    return
        bundle = bundle_for(ctx)
        self.rows, self.linear = bundle.meet_rows(), bundle.linear_terms()
        # position (i, c) of T and O is bit (i-1)N + c, and rep * mask copies
        # an N-bit mask into every relation's block
        self.rep = sum(1 << i * self.total for i in range(self.num_rel))
        self.width = max(self.deg[1:]).bit_length()
        # per side, member and non-member: where its target is met at all,
        # and the planes of t and of deg_i - t
        self.bounds = []
        for t in (self.t_in, self.t_out):
            met = [(self.full << (i - 1) * self.total, i) for i in range(1, p.k + 2) if t[i] >= 0]
            t_planes = _planes([(block, t[i]) for block, i in met], self.width)
            d_planes = _planes([(block, self.deg[i] - t[i]) for block, i in met], self.width)
            self.bounds.append((sum(block for block, _ in met), (t_planes, d_planes)))

    # -- mutable search state ------------------------------------------------

    def _init_state(self):
        self.in_mask = self.out_mask = self.pend_in = self.pend_out = 0
        self.tally_in, self.tally_out = [0] * self.width, [0] * self.width
        self.rise, self.fall = [0] * self.linear.width, [0] * self.linear.width

    def _snapshot(self):
        counters = self.tally_in, self.tally_out, self.rise, self.fall
        return self.in_mask, self.out_mask, *(planes[:] for planes in counters)

    def _restore(self, snap):
        self.in_mask, self.out_mask = snap[:2]
        self.tally_in, self.tally_out, self.rise, self.fall = (planes[:] for planes in snap[2:])
        self.pend_in = self.pend_out = 0

    # -- constraint propagation ----------------------------------------------

    def _push(self, ins: int, outs: int, stats: SearchStats) -> bool:
        """Add decisions to the pending masks; a k-space wanted both ways,
        or against its decided value, is a conflict."""
        ins |= self.pend_in
        outs |= self.pend_out
        if ins & (outs | self.out_mask) or outs & self.in_mask:
            stats.bump("conflict")
            return False
        self.pend_in = ins & ~self.in_mask
        self.pend_out = outs & ~self.out_mask
        return True

    def _count_rules(self, stats: SearchStats) -> bool:
        """The meet-count rules at every position (i, c): against its side's
        target t, a member or non-member needs T <= t and O <= deg_i - t, an
        undecided k-space one of the two sides; at T == t < deg_i - O its
        undecided neighbours are out, at T < t == deg_i - O they are in.
        Each relation's forces are pushed in turn."""
        in_mask, out_mask, rep, full = self.in_mask, self.out_mask, self.rep, self.full
        undec = full & ~(in_mask | out_mask)
        ins, outs, undecided = rep * in_mask, rep * out_mask, rep * undec
        ok, sat_out, sat_in = [], 0, 0
        for mine, (valid, bounds) in zip((ins, outs), self.bounds):
            where = (mine | undecided) & valid
            over, t_eq, o_eq = _exceeds(self.tally_in, self.tally_out, *bounds, where)
            ok.append(where & ~over)
            sat_out |= mine & t_eq & ~o_eq
            sat_in |= mine & o_eq & ~t_eq
        ok_in, ok_out = ok
        bad = ins & ~ok_in | outs & ~ok_out | undecided & ~(ok_in | ok_out)
        force_in, force_out = ok_in & ~ok_out & undecided, ok_out & ~ok_in & undecided
        if not (bad or force_in or force_out or sat_out or sat_in):
            return True
        for i, rel in enumerate(self.rows.rel[1:]):
            at = i * self.total
            if bad >> at & full:
                stats.bump("count")
                return False
            f_in, f_out = force_in >> at & full, force_out >> at & full
            for c in ids_of(sat_out >> at & full):
                f_out |= rel[c]
            for c in ids_of(sat_in >> at & full):
                f_in |= rel[c]
            if (f_in | f_out) & undec and not self._push(f_in & undec, f_out & undec, stats):
                return False
        return True

    def _linear_rule(self, cols: int, stats: SearchStats) -> bool:
        """Free column f is L_f * chi_f = sum coef * chi_pivot: it can be out
        while 0 is reachable, in while L_f is.  A wave with a column that can
        be neither and one whose force conflicts is labelled by the lower."""
        tb, rise, fall = self.linear, self.rise, self.fall
        zero = cols & ~_exceeds(rise, fall, *tb.zero_bounds, cols)[0]
        where = cols & tb.scale_reachable
        scale = where & ~_exceeds(rise, fall, *tb.scale_bounds, where)[0]
        can_out, can_in = zero & ~self.in_mask, scale & ~self.out_mask
        force_in, force_out = can_in & ~can_out, can_out & ~can_in
        bad = cols & ~(can_in | can_out)
        clash = force_in & self.pend_out | force_out & self.pend_in
        if bad or clash:
            first = (bad | clash) & -(bad | clash)
            stats.bump("linear" if first & bad else "conflict")
            return False
        self.pend_in |= force_in & ~self.in_mask
        self.pend_out |= force_out & ~self.out_mask
        return True

    def _wave(self, stats: SearchStats) -> bool:
        """Decide every pending k-space at once, then check each rule once on
        everything the wave changed; what that forces waits for the next wave."""
        new_in, new_out = self.pend_in, self.pend_out
        self.pend_in = self.pend_out = 0
        self.in_mask |= new_in
        self.out_mask |= new_out
        if not self.in_mask.bit_count() <= self.target <= self.total - self.out_mask.bit_count():
            stats.bump("size")
            return False
        tb, wide, cols = self.linear, self.rows.wide, 0
        for c in ids_of(new_in):
            _add(self.tally_in, wide[c])
        for c in ids_of(new_out):
            _add(self.tally_out, wide[c])
        for c in ids_of((new_in | new_out) & tb.pivot_mask):
            # a pivot in adds its positive terms to Mup, its negative ones to Pdn
            pos, neg, touched = tb.terms[c]
            up, down = (pos, neg) if new_in >> c & 1 else (neg, pos)
            for b, mask in up:
                _add(self.rise, mask, b)
            for b, mask in down:
                _add(self.fall, mask, b)
            cols |= touched
        return self._count_rules(stats) and (not cols or self._linear_rule(cols, stats))

    def _apply(self, ins: int, outs: int, stats: SearchStats) -> bool:
        """Decide the k-spaces in ins and outs, then everything pending, in
        waves to the fixpoint.  Only propagated decisions count as forced,
        including those of a wave that then failed."""
        before = self.in_mask | self.out_mask
        ok = self._push(ins, outs, stats)
        while ok and (self.pend_in or self.pend_out):
            ok = self._wave(stats)
        decided = (self.in_mask | self.out_mask) & ~before
        stats.forced += (decided & ~(ins | outs)).bit_count()
        return ok

    # -- driver ---------------------------------------------------------------

    def _next_pivot(self) -> int | None:
        """Fail first (Haralick and Elliott, Artif. Intell. 14, 1980): the
        undecided pivot with the fewest undecided relation-1 neighbours, the
        lowest id on a tie; None once every pivot is decided."""
        undecided = self.full & ~(self.in_mask | self.out_mask)
        near = self.rows.rel[1]
        return min(
            ids_of(self.linear.pivot_mask & undecided),
            key=lambda c: (near[c] & undecided).bit_count(),
            default=None,
        )

    def _leaf(self, out: list, stats: SearchStats) -> None:
        stats.leaves += 1
        if self.in_mask | self.out_mask != self.full:
            raise RuntimeError("leaf reached with undecided coordinates")
        if self.in_mask.bit_count() != self.target:
            stats.bump("size")
            return
        out.append(ids_of(self.in_mask))

    def _dfs(self, out: list, stats: SearchStats) -> None:
        c = self._next_pivot()
        if c is None:
            # propagation forces every remaining free coordinate
            self._leaf(out, stats)
            return
        stats.nodes += 1
        bit = 1 << c
        snap = self._snapshot()
        for ins, outs in ((bit, 0), (0, bit)):
            if self._apply(ins, outs, stats):
                self._dfs(out, stats)
            self._restore(snap)

    def _start(self, ins: int, outs: int, stats: SearchStats) -> bool:
        """A fresh state, every rule once over all k-spaces (so the root is a
        fixpoint too), then the decisions ins and outs."""
        self._init_state()
        return (
            self._linear_rule(self.linear.free_mask, stats)
            and self._count_rules(stats)
            and self._apply(ins, outs, stats)
        )

    def solve(self, ins: int = 0, outs: int = 0):
        """The families containing the k-spaces in ins and avoiding those in outs."""
        stats = SearchStats()
        if self.reason is not None:
            return [], stats
        out: list[tuple[int, ...]] = []
        if self._start(ins, outs, stats):
            self._dfs(out, stats)
        return out, stats

    def root_prefixes(self, width: int) -> list[tuple[int, int]]:
        """(ins, outs) assignments of the first few pivots, for tree partitioning."""
        prefixes = [(0, 0)]
        for pcol in self.linear.pivots[:8]:
            if len(prefixes) >= width:
                break
            bit = 1 << pcol
            prefixes = [
                pair for ins, outs in prefixes for pair in ((ins | bit, outs), (ins, outs | bit))
            ]
        return prefixes


def _solve_worker(args):
    n, k, q, x_num, x_den, ins, outs = args
    from .geometry import geometry

    return _PropagateEngine(geometry(n, k, q), Fraction(x_num, x_den)).solve(ins, outs)


def search_all(ctx: GeometryCtx, x, threads: int = 1) -> SearchResult:
    """The complete list of families with parameter x passing the battery,
    searched by `threads` worker processes."""
    if threads < 1:
        raise ValueError(f"need at least one thread, got {threads}")
    total = len(ctx.kspaces)
    if total > DEFAULT_SEARCH_CAP:
        raise ValueError(
            f"geometry has {total} k-spaces, exceeding the search cap "
            f"{DEFAULT_SEARCH_CAP}"
        )
    x = Fraction(x)
    started = time.perf_counter()
    engine = _PropagateEngine(ctx, x)
    reason = engine.reason
    if reason is not None:
        fams, stats = [], SearchStats()
    elif threads > 1:
        from concurrent.futures import ProcessPoolExecutor

        prefixes = engine.root_prefixes(threads * 2)
        p = ctx.params
        jobs = [
            (p.n, p.k, p.q, x.numerator, x.denominator, ins, outs)
            for ins, outs in prefixes
        ]
        fams = []
        stats = SearchStats()
        # every worker is forked up front: never more than CPUs or jobs
        workers = min(threads, os.cpu_count() or 1, len(prefixes))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for sub_fams, sub in pool.map(_solve_worker, jobs):
                fams.extend(sub_fams)
                stats.nodes += sub.nodes
                stats.forced += sub.forced
                stats.leaves += sub.leaves
                for rule, count in sub.prunes.items():
                    stats.bump(rule, count)
    else:
        fams, stats = engine.solve()
    fams = sorted(set(fams))
    bundle = bundle_for(ctx)
    for fam in fams:
        if not run_battery(CLCandidate(ctx, fam), bundle).passed:
            raise RuntimeError(f"search returned non-member family {fam[:8]}...")
    stats.wall_seconds = time.perf_counter() - started
    return SearchResult(families=tuple(fams), stats=stats, reason=reason)


@dataclass
class WindowRow:
    x: Fraction
    size: int
    families: int
    reason: str | None
    within_bound: bool | None
    skew_audit: object
    stats: SearchStats


def nonexistence_window(ctx: GeometryCtx, lo, hi, threads: int = 1) -> list[WindowRow]:
    """Search every admissible parameter s/base strictly inside (lo, hi) and
    report the outcomes together with the closed-form bound verdicts (the
    skew audit is None for x <= -1, which has no c = ceil(x) >= 0); a
    window holding no such parameter, or more of them than the N + 1 family
    sizes, is refused before anything is searched."""
    lo, hi = Fraction(lo), Fraction(hi)
    if lo >= hi:
        raise ValueError(f"empty window ({lo}, {hi}): need lo < hi")
    p = ctx.params
    base = qbinom(p.n, p.k, p.q)
    first, stop = math.floor(lo * base) + 1, math.ceil(hi * base)
    if stop <= first:
        raise ValueError(f"no parameter s/{base} lies strictly inside ({lo}, {hi})")
    sizes = len(ctx.kspaces) + 1
    if stop - first > sizes:
        raise ValueError(
            f"window ({lo}, {hi}) holds {stop - first} parameters s/{base}, "
            f"more than the {sizes} family sizes"
        )
    rows = []
    for s in range(first, stop):
        x = Fraction(s, base)
        result = search_all(ctx, x, threads)
        bound = within_classification_bound(p, x) if p.n >= 3 * p.k + 2 else None
        audit = None
        if p.n > 2 * p.k + 1 and math.ceil(x) >= 0:
            audit = excludes_skew_subfamily(math.ceil(x), p, x)
        rows.append(
            WindowRow(x, s, len(result.families), result.reason, bound, audit, result.stats)
        )
    return rows


def max_disjoint_subfamily(cand: CLCandidate) -> int:
    """Size of a largest pairwise-disjoint subfamily, by branch and bound."""
    ids = cand.ids
    n = len(ids)
    if n == 0:
        return 0
    disj = cand.ctx.disjointness_masks()
    local = [
        mask_of(b_pos for b_pos in range(a_pos + 1, n) if (disj[a] >> ids[b_pos]) & 1)
        for a_pos, a in enumerate(ids)
    ]
    best = 0

    def expand(candidates: int, size: int) -> None:
        nonlocal best
        if size + candidates.bit_count() <= best:
            return
        if not candidates:
            best = max(best, size)
            return
        low = candidates & -candidates
        v = low.bit_length() - 1
        expand(candidates & local[v], size + 1)  # take v
        expand(candidates ^ low, size)  # skip v
    expand((1 << n) - 1, 0)
    return best


def verify_max_disjoint(cand: CLCandidate, c: int) -> bool:
    """True iff no c+1 members are pairwise disjoint."""
    return max_disjoint_subfamily(cand) <= c
