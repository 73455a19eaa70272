"""Exhaustive search for families with a given parameter.

There is one engine, and its one setting is the number of worker processes
(`threads`), which partitions the tree at the root without changing the
families or their order.  It branches only on the pivot columns
of the incidence matrix's RREF: the remaining coordinates of any admissible
characteristic vector are linear functions of the pivot coordinates
(orthogonality to the kernel of A), so they are forced, interval-pruned while
partially decided, and verified on completion.  On top of that, every decided
k-space carries exact meet-count targets per relation; running counts against
those targets prune and force aggressively.  Both rule families are implied by
membership, so the search is exhaustive: it returns exactly the families whose
battery passes, and every returned family is battery-verified before it is
reported.

The state is two N-bit masks, members and non-members.  The meet counts are
bit-sliced (Knuth, TAOCP 4A, 7.1.3), in the counter of `geometry` that the
battery tallies with too: per relation i, the tally T_i (members
among each k-space's relation-i neighbours) and the ceiling A_i (deg_i minus
non-members among them) are lists of N-bit planes, one per binary digit, so
deciding a k-space adds or subtracts its neighbour mask with a ripple carry,
and a comparison against a target is one scan over the planes.  Forced
decisions wait in two pending masks; a k-space pending both ways, or against
its decided value, is a conflict.  Propagation runs in waves: a wave decides
the whole pending set at once and then checks each rule once on what it
changed (the size rule; per relation, the count rules on the wave and its
neighbours; the linear rule of every free column whose support it touched).
The rules only tighten as decisions are added, so a successful propagation
reaches the same fixpoint however its decisions are grouped (chaotic
iteration of monotone rules, as in AC-3: Mackworth, Artif. Intell. 8, 1977).
The test suite checks the engine against a pruning-free subset enumeration.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .families import CLCandidate, run_battery
from .geometry import GeometryCtx, _add, ids_of, mask_of
from .qformulas import (
    excludes_skew_subfamily,
    meet_count_target,
    qbinom,
    valence,
    within_classification_bound,
)
from .scheme import bundle_for

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


def _int_or_none(value: Fraction) -> int | None:
    return int(value) if value.denominator == 1 else None


def _sub(planes: list[int], bits: int) -> None:
    """Subtract 1 at every set bit of `bits` from a bit-sliced counter."""
    for b, plane in enumerate(planes):
        planes[b] = plane ^ bits
        bits &= ~plane
        if not bits:
            return
    if bits:
        raise RuntimeError("meet-count ceiling underflow")


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
        self.t_in = [-1] * (p.k + 2)
        self.t_out = [-1] * (p.k + 2)
        for i in range(1, p.k + 2):
            tin = _int_or_none(meet_count_target(i, p, x, member=True))
            tout = _int_or_none(meet_count_target(i, p, x, member=False))
            in_range = [t is not None and 0 <= t <= self.deg[i] for t in (tin, tout)]
            if self.target > 0 and not in_range[0]:
                self.reason = (
                    f"members need exactly {meet_count_target(i, p, x, True)} "
                    f"meets at relation {i}: impossible"
                )
                return
            if self.target < self.total and not in_range[1]:
                self.reason = (
                    f"non-members need exactly {meet_count_target(i, p, x, False)} "
                    f"meets at relation {i}: impossible"
                )
                return
            # -1 marks a target never met (possible only when the
            # corresponding side has no columns at completion)
            self.t_in[i] = tin if in_range[0] else -1
            self.t_out[i] = tout if in_range[1] else -1
        bundle = bundle_for(ctx)
        self.rel = bundle.relation_masks()
        pivots, free = bundle.incidence_rref()
        self.pivots = list(pivots)
        self.pivot_mask = mask_of(pivots)
        # free columns by position j: column, scale L_f, (pivot, coef) support
        self.free_cols = [f for f, _, _ in free]
        self.f_scale = [scale for _, scale, _ in free]
        self.f_supp = [supp for _, _, supp in free]
        # per pivot: its terms (j, coef) with coef < 0, with coef > 0, its js
        self.pivot_terms = {c: ([], [], []) for c in pivots}
        for j, supp in enumerate(self.f_supp):
            for pcol, coef in supp:
                neg, pos, cols = self.pivot_terms[pcol]
                (neg if coef < 0 else pos).append((j, coef))
                cols.append(j)

    # -- mutable search state ------------------------------------------------

    def _init_state(self):
        full = self.full
        self.in_mask = self.out_mask = 0
        self.pend_in = self.pend_out = 0
        # per relation: bit-sliced tally T_i and ceiling A_i, low digit first
        self.tally = [[0] * d.bit_length() for d in self.deg]
        self.ceiling = [
            [full if d >> b & 1 else 0 for b in range(d.bit_length())]
            for d in self.deg
        ]
        # linear rule of free column j: acc = sum of decided members' coefs;
        # lo and hi bound what the undecided support can still add
        self.acc = [0] * len(self.free_cols)
        self.lo = [sum(c for _, c in supp if c < 0) for supp in self.f_supp]
        self.hi = [sum(c for _, c in supp if c > 0) for supp in self.f_supp]

    def _snapshot(self):
        tally, ceiling = [t[:] for t in self.tally], [a[:] for a in self.ceiling]
        return self.in_mask, self.out_mask, tally, ceiling, self.acc[:], self.lo[:], self.hi[:]

    def _restore(self, snap):
        self.in_mask, self.out_mask, tally, ceiling, acc, lo, hi = snap
        self.tally = [t[:] for t in tally]
        self.ceiling = [a[:] for a in ceiling]
        self.acc, self.lo, self.hi = acc[:], lo[:], hi[:]
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

    def _window(self, i: int, t: int, w: int) -> tuple[int, int, int]:
        """For the k-spaces in w at relation i and target t: (T <= t <= A,
        T == t < A, T < t == A), by a most-significant-digit-first scan."""
        if t < 0:
            return 0, 0, 0
        t_gt = a_gt = 0
        t_eq = a_eq = w
        tally, ceiling = self.tally[i], self.ceiling[i]
        for b in range(len(tally) - 1, -1, -1):
            tp, ap = tally[b], ceiling[b]
            if t >> b & 1:
                t_eq &= tp
                a_eq &= ap
            else:
                t_gt |= t_eq & tp
                t_eq &= ~tp
                a_gt |= a_eq & ap
                a_eq &= ~ap
            if not (t_eq or a_eq):
                break  # the lower digits decide nothing more
        return (a_gt | a_eq) & ~t_gt, t_eq & ~a_eq, a_eq & ~t_eq

    def _count_rules(self, i: int, w: int, stats: SearchStats) -> bool:
        """The meet-count rules of relation i on the k-spaces in w."""
        in_mask, out_mask = self.in_mask, self.out_mask
        undec = self.full & ~(in_mask | out_mask)
        # members and undecided k-spaces against the member target,
        # non-members and undecided ones against the non-member target
        ok_in, in_hit, in_short = self._window(i, self.t_in[i], w & ~out_mask)
        ok_out, out_hit, out_short = self._window(i, self.t_out[i], w & ~in_mask)
        if w & (in_mask & ~ok_in | out_mask & ~ok_out | undec & ~(ok_in | ok_out)):
            stats.bump("count")
            return False
        force_in = ok_in & ~ok_out & undec
        force_out = ok_out & ~ok_in & undec
        # a decided k-space whose tally met its target: its undecided
        # neighbours are out; whose ceiling met it: they are all in
        force_out |= self._neighbours(i, in_mask & in_hit | out_mask & out_hit) & undec
        force_in |= self._neighbours(i, in_mask & in_short | out_mask & out_short) & undec
        return not (force_in or force_out) or self._push(force_in, force_out, stats)

    def _neighbours(self, i: int, sat: int) -> int:
        """The union of the relation-i neighbourhoods of the k-spaces in sat."""
        rel, nbs = self.rel[i], 0
        while sat:
            low = sat & -sat
            nbs |= rel[low.bit_length() - 1]
            sat ^= low
        return nbs

    def _linear_window(self, j: int, stats: SearchStats) -> bool:
        """Free column f = free_cols[j] is L_f * chi_f = sum coef * chi_pivot:
        once the reachable interval excludes 0 (or L_f), f is in (or out)."""
        bit = 1 << self.free_cols[j]
        acc, scale = self.acc[j], self.f_scale[j]
        lo, hi = acc + self.lo[j], acc + self.hi[j]
        can_out = not self.in_mask & bit and lo <= 0 <= hi
        can_in = not self.out_mask & bit and lo <= scale <= hi
        if not can_out and not can_in:
            stats.bump("linear")
            return False
        if can_out and can_in:
            return True
        return self._push(bit, 0, stats) if can_in else self._push(0, bit, stats)

    def _wave(self, stats: SearchStats) -> bool:
        """Decide every pending k-space at once, then check each rule once on
        everything the wave changed; what that forces waits for the next wave."""
        new_in, new_out = self.pend_in, self.pend_out
        self.pend_in = self.pend_out = 0
        self.in_mask |= new_in
        self.out_mask |= new_out
        n_in, n_out = self.in_mask.bit_count(), self.out_mask.bit_count()
        if not n_in <= self.target <= self.total - n_out:
            stats.bump("size")
            return False
        wave = new_in | new_out
        ins, outs = ids_of(new_in), ids_of(new_out)
        for i in range(1, self.num_rel + 1):
            rel, w = self.rel[i], wave
            for c in ins:
                _add(self.tally[i], rel[c])
                w |= rel[c]
            for c in outs:
                _sub(self.ceiling[i], rel[c])
                w |= rel[c]
            if not self._count_rules(i, w, stats):
                return False
        touched = set()
        acc, lo, hi, scale = self.acc, self.lo, self.hi, self.f_scale
        for c in ids_of(wave & self.pivot_mask):
            neg, pos, cols = self.pivot_terms[c]
            if new_in >> c & 1:
                for j, coef in neg + pos:
                    acc[j] += coef
            for j, coef in neg:
                lo[j] -= coef
            for j, coef in pos:
                hi[j] -= coef
            touched.update(cols)
        # a reachable interval still holding both 0 and L_f >= 1 decides nothing
        return all(
            self._linear_window(j, stats)
            for j in touched
            if acc[j] + lo[j] > 0 or acc[j] + hi[j] < scale[j]
        )

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

    def _next_pivot(self, start: int) -> int | None:
        decided = self.in_mask | self.out_mask
        for idx in range(start, len(self.pivots)):
            if not decided >> self.pivots[idx] & 1:
                return idx
        return None

    def _leaf(self, out: list, stats: SearchStats) -> None:
        stats.leaves += 1
        if self.in_mask | self.out_mask != self.full:
            raise RuntimeError("leaf reached with undecided coordinates")
        if self.in_mask.bit_count() != self.target:
            stats.bump("size")
            return
        out.append(ids_of(self.in_mask))

    def _dfs(self, start: int, out: list, stats: SearchStats) -> None:
        idx = self._next_pivot(start)
        if idx is None:
            # propagation forces every remaining free coordinate
            self._leaf(out, stats)
            return
        c = self.pivots[idx]
        stats.nodes += 1
        bit = 1 << c
        for ins, outs in ((bit, 0), (0, bit)):
            snap = self._snapshot()
            if self._apply(ins, outs, stats):
                self._dfs(idx + 1, out, stats)
            self._restore(snap)

    def _start(self, ins: int, outs: int, stats: SearchStats) -> bool:
        """A fresh state, every rule once over all k-spaces (so the root is a
        fixpoint too), then the decisions ins and outs."""
        self._init_state()
        return (
            all(self._linear_window(j, stats) for j in range(len(self.free_cols)))
            and all(
                self._count_rules(i, self.full, stats)
                for i in range(1, self.num_rel + 1)
            )
            and self._apply(ins, outs, stats)
        )

    def solve(self, ins: int = 0, outs: int = 0):
        """The families containing the k-spaces in ins and avoiding those in outs."""
        stats = SearchStats()
        if self.reason is not None:
            return [], stats
        out: list[tuple[int, ...]] = []
        if self._start(ins, outs, stats):
            self._dfs(0, out, stats)
        return out, stats

    def root_prefixes(self, width: int) -> list[tuple[int, int]]:
        """(ins, outs) assignments of the first few pivots, for tree partitioning."""
        prefixes = [(0, 0)]
        for pcol in self.pivots[:8]:
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


def nonexistence_window(ctx: GeometryCtx, lo, hi, threads: int = 1) -> list[WindowRow]:
    """Search every admissible parameter strictly inside (lo, hi) and report
    the outcomes together with the closed-form bound verdicts; a window
    holding no admissible parameter is refused."""
    lo, hi = Fraction(lo), Fraction(hi)
    if lo >= hi:
        raise ValueError(f"empty window ({lo}, {hi}): need lo < hi")
    p = ctx.params
    base = qbinom(p.n, p.k, p.q)
    rows = []
    s = int(lo * base) + 1
    while Fraction(s, base) < hi:
        x = Fraction(s, base)
        result = search_all(ctx, x, threads)
        bound = None
        if p.n >= 3 * p.k + 2:
            bound = within_classification_bound(p, x)
        audit = None
        if p.n > 2 * p.k + 1:
            c = int(x) if x.denominator == 1 else int(x) + 1
            audit = excludes_skew_subfamily(c, p, x)
        rows.append(
            WindowRow(
                x=x,
                size=s,
                families=len(result.families),
                reason=result.reason,
                within_bound=bound,
                skew_audit=audit,
            )
        )
        s += 1
    if not rows:
        raise ValueError(f"no parameter s/{base} lies strictly inside ({lo}, {hi})")
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
