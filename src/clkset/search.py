"""Exhaustive search for families with a given parameter.

The main engine branches only on the pivot columns of the incidence matrix's
RREF: the remaining coordinates of any admissible characteristic vector are
linear functions of the pivot coordinates (orthogonality to the kernel of A),
so they are forced, interval-pruned while partially decided, and verified on
completion.  On top of that, every decided k-space carries exact meet-count
targets per relation; running tallies against those targets prune and force
aggressively.  Both rule families are implied by membership, so the search is
exhaustive: it returns exactly the families whose battery passes, and every
returned family is battery-verified before it is reported.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .families import BatteryConfig, CLCandidate, run_battery
from .geometry import GeometryCtx, ids_of, mask_of
from .qformulas import (
    excludes_skew_subfamily,
    meet_count_target,
    qbinom,
    valence,
    within_classification_bound,
)
from .scheme import SchemeBundle, bundle_for

UNDEC, IN, OUT = 0, 1, 2

DEFAULT_SEARCH_CAP = 2000


@dataclass(frozen=True)
class SearchConfig:
    count_pruning: bool = True
    symmetry_reduce: bool = False
    engine: str = "propagate"  # or "reference"
    threads: int = 1
    fix_in: tuple[int, ...] = ()
    fix_out: tuple[int, ...] = ()
    max_kspaces: int = DEFAULT_SEARCH_CAP


@dataclass
class SearchStats:
    nodes: int = 0
    forced: int = 0
    leaves: int = 0
    prunes: dict[str, int] = field(default_factory=dict)
    wall_seconds: float = 0.0

    def bump(self, rule: str) -> None:
        self.prunes[rule] = self.prunes.get(rule, 0) + 1

    def merged(self, other: "SearchStats") -> "SearchStats":
        out = SearchStats(
            nodes=self.nodes + other.nodes,
            forced=self.forced + other.forced,
            leaves=self.leaves + other.leaves,
            prunes=dict(self.prunes),
            wall_seconds=self.wall_seconds + other.wall_seconds,
        )
        for k, v in other.prunes.items():
            out.prunes[k] = out.prunes.get(k, 0) + v
        return out


@dataclass
class SearchResult:
    families: tuple[tuple[int, ...], ...]
    stats: SearchStats
    reason: str | None = None  # set when the search was decided without DFS


def _int_or_none(value: Fraction) -> int | None:
    return int(value) if value.denominator == 1 else None


class _PropagateEngine:
    def __init__(
        self,
        ctx: GeometryCtx,
        bundle: SchemeBundle,
        x: Fraction,
        config: SearchConfig,
    ):
        self.ctx = ctx
        self.bundle = bundle
        self.config = config
        p = ctx.params
        self.total = len(ctx.kspaces)
        self.x = x
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
        self.t_in: list[int | None] = [None] * (p.k + 2)
        self.t_out: list[int | None] = [None] * (p.k + 2)
        for i in range(1, p.k + 2):
            tin = _int_or_none(meet_count_target(i, p, x, member=True))
            tout = _int_or_none(meet_count_target(i, p, x, member=False))
            if self.target > 0 and (tin is None or not 0 <= tin <= self.deg[i]):
                self.reason = (
                    f"members need exactly {meet_count_target(i, p, x, True)} "
                    f"meets at relation {i}: impossible"
                )
                return
            if self.target < self.total and (
                tout is None or not 0 <= tout <= self.deg[i]
            ):
                self.reason = (
                    f"non-members need exactly {meet_count_target(i, p, x, False)} "
                    f"meets at relation {i}: impossible"
                )
                return
            # -1 marks an unattainable target (possible only when the
            # corresponding side has no columns at completion)
            self.t_in[i] = tin if tin is not None else -1
            self.t_out[i] = tout if tout is not None else -1
        rel_masks = bundle.relation_masks()
        self.rel_idx: list = [None] + [
            [ids_of(rel_masks[i][c]) for c in range(self.total)]
            for i in range(1, p.k + 2)
        ]
        pivots, free = bundle.incidence_rref()
        self.pivots = list(pivots)
        self.free_cols = []
        self.f_scale: dict[int, int] = {}
        self.f_supp: dict[int, tuple[tuple[int, int], ...]] = {}
        self.pivot_supp: dict[int, list[tuple[int, int]]] = {c: [] for c in pivots}
        for f, scale, supp in free:
            self.free_cols.append(f)
            self.f_scale[f] = scale
            self.f_supp[f] = supp
            for pcol, coef in supp:
                self.pivot_supp[pcol].append((f, coef))
        self.perm_maps = None
        if config.symmetry_reduce:
            self.perm_maps = ctx.coordinate_permutation_maps()

    # -- mutable search state ------------------------------------------------

    def _init_state(self):
        total, nrel = self.total, self.num_rel
        self.state = [UNDEC] * total
        self.n_in = 0
        self.n_out = 0
        self.tally = [None] + [[0] * total for _ in range(nrel)]
        self.undec_nb = [None] + [
            [self.deg[i]] * total for i in range(1, nrel + 1)
        ]
        self.acc = {f: 0 for f in self.free_cols}
        self.rem = {f: len(self.f_supp[f]) for f in self.free_cols}
        self.lo = {}
        self.hi = {}
        for f in self.free_cols:
            lo = hi = 0
            for _, coef in self.f_supp[f]:
                if coef < 0:
                    lo += coef
                else:
                    hi += coef
            self.lo[f] = lo
            self.hi[f] = hi

    def _snapshot(self):
        return (
            self.state[:],
            self.n_in,
            self.n_out,
            [None] + [t[:] for t in self.tally[1:]],
            [None] + [u[:] for u in self.undec_nb[1:]],
            dict(self.acc),
            dict(self.rem),
            dict(self.lo),
            dict(self.hi),
        )

    def _restore(self, snap):
        (
            self.state,
            self.n_in,
            self.n_out,
            self.tally,
            self.undec_nb,
            self.acc,
            self.rem,
            self.lo,
            self.hi,
        ) = (
            snap[0][:],
            snap[1],
            snap[2],
            [None] + [t[:] for t in snap[3][1:]],
            [None] + [u[:] for u in snap[4][1:]],
            dict(snap[5]),
            dict(snap[6]),
            dict(snap[7]),
            dict(snap[8]),
        )

    # -- constraint propagation ----------------------------------------------

    def _column_window_ok(self, c: int, stats: SearchStats) -> bool:
        for i in range(1, self.num_rel + 1):
            t = self.tally[i][c]
            u = self.undec_nb[i][c]
            s = self.state[c]
            if s == IN:
                tgt = self.t_in[i]
                if t > tgt or t + u < tgt:
                    stats.bump("count")
                    return False
            elif s == OUT:
                tgt = self.t_out[i]
                if t > tgt or t + u < tgt:
                    stats.bump("count")
                    return False
        return True

    def _queue_saturation(self, c: int, i: int, force_val: int, queue) -> None:
        for m in self.rel_idx[i][c]:
            if self.state[m] == UNDEC:
                queue.append((m, force_val))

    def _linear_window(self, f: int, queue, stats: SearchStats) -> bool:
        lo = self.acc[f] + self.lo[f]
        hi = self.acc[f] + self.hi[f]
        scale = self.f_scale[f]
        s = self.state[f]
        can_out = s != IN and lo <= 0 <= hi
        can_in = s != OUT and lo <= scale <= hi
        if not can_out and not can_in:
            stats.bump("linear")
            return False
        if self.rem[f] == 0:
            value = self.acc[f]
            if value == 0:
                want = OUT
            elif value == scale:
                want = IN
            else:
                stats.bump("linear")
                return False
            if s == UNDEC:
                queue.append((f, want))
            elif s != want:
                stats.bump("linear")
                return False
        else:
            if not can_out and s == UNDEC:
                queue.append((f, IN))
            elif not can_in and s == UNDEC:
                queue.append((f, OUT))
        return True

    def _decide(self, c: int, val: int, queue, stats: SearchStats) -> bool:
        s = self.state[c]
        if s != UNDEC:
            if s != val:
                stats.bump("conflict")
                return False
            return True
        self.state[c] = val
        if val == IN:
            self.n_in += 1
            if self.n_in > self.target:
                stats.bump("size")
                return False
        else:
            self.n_out += 1
            if self.total - self.n_out < self.target:
                stats.bump("size")
                return False
        counting = self.config.count_pruning
        if counting and not self._column_window_ok(c, stats):
            return False
        for i in range(1, self.num_rel + 1):
            tally_i = self.tally[i]
            undec_i = self.undec_nb[i]
            t_in_i = self.t_in[i]
            t_out_i = self.t_out[i]
            for m in self.rel_idx[i][c]:
                undec_i[m] -= 1
                if val == IN:
                    tally_i[m] += 1
                if not counting:
                    continue
                t = tally_i[m]
                u = undec_i[m]
                sm = self.state[m]
                if sm == IN:
                    if t > t_in_i or t + u < t_in_i:
                        stats.bump("count")
                        return False
                    if u:
                        if t == t_in_i:
                            self._queue_saturation(m, i, OUT, queue)
                        elif t + u == t_in_i:
                            self._queue_saturation(m, i, IN, queue)
                elif sm == OUT:
                    if t > t_out_i or t + u < t_out_i:
                        stats.bump("count")
                        return False
                    if u:
                        if t == t_out_i:
                            self._queue_saturation(m, i, OUT, queue)
                        elif t + u == t_out_i:
                            self._queue_saturation(m, i, IN, queue)
                else:
                    ok_in = t <= t_in_i <= t + u
                    ok_out = t <= t_out_i <= t + u
                    if not ok_in and not ok_out:
                        stats.bump("count")
                        return False
                    if ok_in != ok_out:
                        queue.append((m, IN if ok_in else OUT))
        for f, coef in self.pivot_supp.get(c, ()):
            self.rem[f] -= 1
            if val == IN:
                self.acc[f] += coef
            if coef < 0:
                self.lo[f] -= coef
            else:
                self.hi[f] -= coef
            if not self._linear_window(f, queue, stats):
                return False
        return True

    def _apply(self, decisions, stats: SearchStats) -> bool:
        """Apply explicit decisions, then drain the propagation queue.
        Only propagated decisions count as forced."""
        queue = list(decisions)
        explicit = len(queue)
        head = 0
        while head < len(queue):
            c, val = queue[head]
            head += 1
            before = self.state[c]
            if not self._decide(c, val, queue, stats):
                return False
            if head > explicit and before == UNDEC:
                stats.forced += 1
        return True

    # -- driver ---------------------------------------------------------------

    def _next_pivot(self, start: int) -> int | None:
        for idx in range(start, len(self.pivots)):
            if self.state[self.pivots[idx]] == UNDEC:
                return idx
        return None

    def _symmetry_allows(self, c: int) -> bool:
        if self.perm_maps is None or self.n_in > 0:
            return True
        if any(self.state[d] != OUT for d in range(c)):
            return True  # smallest member not pinned yet; cannot prune
        return all(mapping[c] >= c for mapping in self.perm_maps)

    def _leaf(self, out: list, stats: SearchStats) -> None:
        stats.leaves += 1
        if any(s == UNDEC for s in self.state):
            raise AssertionError("leaf reached with undecided coordinates")
        if self.n_in != self.target:
            stats.bump("size")
            return
        if not self.config.count_pruning:
            masks = self.bundle.relation_masks()
            fam_mask = mask_of(c for c in range(self.total) if self.state[c] == IN)
            for i in range(1, self.num_rel + 1):
                for c in range(self.total):
                    tgt = self.t_in[i] if self.state[c] == IN else self.t_out[i]
                    if (masks[i][c] & fam_mask).bit_count() != tgt:
                        stats.bump("count")
                        return
        out.append(tuple(c for c in range(self.total) if self.state[c] == IN))

    def _dfs(self, start: int, out: list, stats: SearchStats) -> None:
        idx = self._next_pivot(start)
        if idx is None:
            # propagation forces every remaining free coordinate
            self._leaf(out, stats)
            return
        c = self.pivots[idx]
        stats.nodes += 1
        for val in (IN, OUT):
            if val == IN and not self._symmetry_allows(c):
                stats.bump("symmetry")
                continue
            snap = self._snapshot()
            if self._apply([(c, val)], stats):
                self._dfs(idx + 1, out, stats)
            self._restore(snap)

    def solve(self, prefix=()) -> tuple[list[tuple[int, ...]], SearchStats]:
        stats = SearchStats()
        if self.reason is not None:
            return [], stats
        self._init_state()
        out: list[tuple[int, ...]] = []
        decisions = [(f, OUT) for f in self.free_cols if not self.f_supp[f]]
        decisions += list(prefix)
        decisions += [(c, IN) for c in self.config.fix_in]
        decisions += [(c, OUT) for c in self.config.fix_out]
        if self._apply(decisions, stats):
            self._dfs(0, out, stats)
        return out, stats

    def root_prefixes(self, width: int) -> list[tuple[tuple[int, int], ...]]:
        """Assignments of the first few pivots, for tree partitioning."""
        prefixes: list[tuple[tuple[int, int], ...]] = [()]
        used = 0
        for pcol in self.pivots:
            if len(prefixes) >= width or used >= 8:
                break
            prefixes = [
                pref + ((pcol, val),) for pref in prefixes for val in (IN, OUT)
            ]
            used += 1
        return prefixes


def _reference_solve(
    ctx: GeometryCtx, bundle: SchemeBundle, x: Fraction, config: SearchConfig
) -> tuple[list[tuple[int, ...]], SearchStats, str | None]:
    """Plain subset enumeration with only size bounds: the pruning-free
    reference engine, feasible for small geometries (and restricted runs)."""
    p = ctx.params
    stats = SearchStats()
    size = x * qbinom(p.n, p.k, p.q)
    target = _int_or_none(size)
    if target is None:
        return [], stats, f"non-integral family size {size}"
    total = len(ctx.kspaces)
    if not 0 <= target <= total:
        return [], stats, f"family size {target} out of range"
    disj = bundle.disjointness_masks()
    t_in = meet_count_target(p.k + 1, p, x, member=True)
    t_out = meet_count_target(p.k + 1, p, x, member=False)
    chosen: list[int] = []
    found: list[tuple[int, ...]] = []
    fixed_in = set(config.fix_in)
    fixed_out = set(config.fix_out)

    def leaf_ok(mask: int, ids: tuple[int, ...]) -> bool:
        for c in ids:
            if (disj[c] & mask).bit_count() != t_in:
                return False
        for c in range(total):
            if not (mask >> c) & 1 and (disj[c] & mask).bit_count() != t_out:
                return False
        return True

    def rec(pos: int, mask: int) -> None:
        stats.nodes += 1
        if len(chosen) == target:
            stats.leaves += 1
            ids = tuple(chosen)
            if leaf_ok(mask, ids):
                found.append(ids)
            return
        if pos == total or len(chosen) + (total - pos) < target:
            stats.bump("size")
            return
        if pos not in fixed_out:
            chosen.append(pos)
            rec(pos + 1, mask | (1 << pos))
            chosen.pop()
        if pos not in fixed_in:
            rec(pos + 1, mask)

    rec(0, 0)
    found.sort()
    return found, stats, None


def _solve_worker(args):
    n, k, q, x_num, x_den, config, prefix = args
    from .geometry import geometry

    ctx = geometry(n, k, q)
    bundle = bundle_for(ctx)
    engine = _PropagateEngine(ctx, bundle, Fraction(x_num, x_den), config)
    fams, stats = engine.solve(prefix)
    return fams, stats


def search_all(
    ctx: GeometryCtx,
    x,
    config: SearchConfig | None = None,
    bundle: SchemeBundle | None = None,
) -> SearchResult:
    """The complete list of families with parameter x passing the battery."""
    if config is None:
        config = SearchConfig()
    if config.threads < 1:
        raise ValueError(f"need at least one thread, got {config.threads}")
    if bundle is None:
        bundle = bundle_for(ctx)
    total = len(ctx.kspaces)
    if total > config.max_kspaces:
        raise ValueError(
            f"geometry has {total} k-spaces, exceeding the search cap "
            f"{config.max_kspaces}"
        )
    x = Fraction(x)
    started = time.perf_counter()
    if config.engine == "reference":
        fams, stats, reason = _reference_solve(ctx, bundle, x, config)
    else:
        engine = _PropagateEngine(ctx, bundle, x, config)
        reason = engine.reason
        if reason is not None:
            fams, stats = [], SearchStats()
        elif config.threads > 1:
            from concurrent.futures import ProcessPoolExecutor

            prefixes = engine.root_prefixes(config.threads * 2)
            p = ctx.params
            jobs = [
                (p.n, p.k, p.q, x.numerator, x.denominator, config, pref)
                for pref in prefixes
            ]
            fams = []
            stats = SearchStats()
            # every worker is forked up front: never more than CPUs or jobs
            workers = min(config.threads, os.cpu_count() or 1, len(prefixes))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                for sub_fams, sub_stats in pool.map(_solve_worker, jobs):
                    fams.extend(sub_fams)
                    stats = stats.merged(sub_stats)
        else:
            fams, stats = engine.solve()
        if config.symmetry_reduce and reason is None:
            maps = ctx.coordinate_permutation_maps()
            closed = set(fams)
            for fam in fams:
                for mapping in maps:
                    closed.add(tuple(sorted(mapping[c] for c in fam)))
            fams = list(closed)
    fams = sorted(set(fams))
    battery = BatteryConfig()
    for fam in fams:
        if not run_battery(CLCandidate(ctx, fam), bundle, battery).passed:
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


@dataclass
class WindowReport:
    rows: list[WindowRow]

    @property
    def all_empty(self) -> bool:
        return all(r.families == 0 for r in self.rows)


def nonexistence_window(
    ctx: GeometryCtx,
    lo,
    hi,
    config: SearchConfig | None = None,
    bundle: SchemeBundle | None = None,
) -> WindowReport:
    """Search every admissible parameter strictly inside (lo, hi) and report
    the outcomes together with the closed-form bound verdicts."""
    if bundle is None:
        bundle = bundle_for(ctx)
    p = ctx.params
    base = qbinom(p.n, p.k, p.q)
    lo, hi = Fraction(lo), Fraction(hi)
    rows = []
    s = int(lo * base) + 1
    while Fraction(s, base) < hi:
        x = Fraction(s, base)
        if x > lo:
            result = search_all(ctx, x, config, bundle)
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
    return WindowReport(rows=rows)


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
