"""Families of k-spaces with exact rational parameter, and the battery of
equivalent membership tests.

A family is a set of k-space ids inside a GeometryCtx; its parameter is
x = |family| / qbinom(n,k).  The battery runs every applicable equivalent
characterization (row-space membership, kernel orthogonality, disjointness
counts, disjointness-matrix eigenvector, eigenspace split, meet distribution,
switching-set balance, spread intersection) and insists that all conclusive
verdicts agree; a disagreement is a defect in this package, never a property
of the input, and is raised loudly.

The battery reduces to four per-family computations, each kept on the
SchemeBundle for the family last asked about (`SchemeBundle.of_family`), so
it is made once per battery however many checks read it: the linear
residual of `SchemeBundle.linear_terms()` (rowspace, kernel); one tally of
the members' `meet_rows()`, every relation side by side, compared with
per-position target planes in one XOR scan (the four count checks); one
tally of their `spread_through()` rows (both spread checks when n = 2k+1);
and, inside the (2k+1)-spaces of a larger geometry, whose spreads are
carried from one by rank, one bit-sliced counter per spread indexed by
subspace (`GeometryCtx.sigma_rank_table`, switching-sets).  A family of more
than half the k-spaces is counted through its complement.
`SchemeBundle.spread_masks()` holds every spread (full passes) or above 40
points a sample (sampled passes).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .geometry import (
    GeometryCtx,
    GeometrySizeError,
    Subspace,
    _add,
    equal_mask,
    ids_of,
    mask_of,
)
from .qformulas import (
    eigenvalue_p,
    meet_count_target,
    parameter_range,
    qbinom,
    valence,
)
from .scheme import SchemeBundle, _planes, q_disjoint_coefficient


class FamilyError(ValueError):
    """Invalid family construction; carries a witness when one exists."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class CLCandidate:
    """A set of k-space ids with characteristic-vector view."""

    __slots__ = ("ctx", "ids", "mask")

    def __init__(self, ctx: GeometryCtx, ids):
        ids = tuple(sorted(ids))
        total = len(ctx.kspaces)
        if any(not 0 <= c < total for c in ids):
            raise FamilyError("k-space id out of range")
        if any(a == b for a, b in zip(ids, ids[1:])):
            raise FamilyError("duplicate k-space ids")
        self.ctx = ctx
        self.ids = ids
        self.mask = mask_of(ids)

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, c: int) -> bool:
        return (self.mask >> c) & 1 == 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CLCandidate)
            and other.ctx is self.ctx
            and other.ids == self.ids
        )

    def __hash__(self) -> int:
        return hash((id(self.ctx), self.ids))

    @property
    def x(self) -> Fraction:
        """The parameter |family| / qbinom(n,k), recomputed on demand."""
        p = self.ctx.params
        value = Fraction(len(self.ids), qbinom(p.n, p.k, p.q))
        lo, hi = parameter_range(p)
        if not lo <= value <= hi:
            raise RuntimeError(f"parameter {value} outside [{lo}, {hi}]")
        return value

    def chi(self, c: int) -> int:
        return (self.mask >> c) & 1

    def vector(self) -> list[int]:
        """The characteristic vector, one 0/1 entry per k-space id."""
        v = [0] * len(self.ctx.kspaces)
        for c in self.ids:
            v[c] = 1
        return v


def family(ctx: GeometryCtx, ids) -> CLCandidate:
    return CLCandidate(ctx, ids)


def point_pencil_family(ctx: GeometryCtx, point: int) -> CLCandidate:
    """All k-spaces through a point (the parameter-1 example)."""
    return CLCandidate(ctx, ctx.pencil(point))


def hyperplane_family(ctx: GeometryCtx, hyperplane: Subspace) -> CLCandidate:
    """All k-spaces inside a fixed hyperplane."""
    if hyperplane.dim != ctx.params.n - 1:
        raise FamilyError(f"need a hyperplane, got dimension {hyperplane.dim}")
    return CLCandidate(ctx, ctx.all_in(hyperplane))


def full_family(ctx: GeometryCtx) -> CLCandidate:
    return CLCandidate(ctx, range(len(ctx.kspaces)))


def complement(cand: CLCandidate) -> CLCandidate:
    total = len(cand.ctx.kspaces)
    return CLCandidate(cand.ctx, (c for c in range(total) if c not in cand))


def disjoint_union(a: CLCandidate, b: CLCandidate) -> CLCandidate:
    if a.ctx is not b.ctx:
        raise FamilyError("families live in different geometries")
    overlap = a.mask & b.mask
    if overlap:
        witness = (overlap & -overlap).bit_length() - 1
        raise FamilyError(
            f"families are not disjoint: both contain k-space {witness}",
            witness=witness,
        )
    return CLCandidate(a.ctx, a.ids + b.ids)


def difference(a: CLCandidate, b: CLCandidate) -> CLCandidate:
    """a minus b, requiring b to be contained in a."""
    if a.ctx is not b.ctx:
        raise FamilyError("families live in different geometries")
    stray = b.mask & ~a.mask
    if stray:
        witness = (stray & -stray).bit_length() - 1
        raise FamilyError(
            f"subtrahend is not contained in the family: k-space {witness}",
            witness=witness,
        )
    return CLCandidate(a.ctx, (c for c in a.ids if c not in b))


class Verdict(Enum):
    PASS = "pass"
    FAIL = "fail"
    SKIPPED = "skipped"
    SAMPLED_PASS = "sampled-pass"


@dataclass
class CheckResult:
    verdict: Verdict
    witness: object = None
    note: str = ""
    seconds: float = 0.0


@dataclass
class BatteryReport:
    x: Fraction
    size: int
    results: dict[str, CheckResult] = field(default_factory=dict)

    @property
    def conclusive(self) -> dict[str, Verdict]:
        """Verdicts that count toward agreement: full passes and fails, and
        definite failures found by sampled checks."""
        out = {}
        for name, res in self.results.items():
            if res.verdict in (Verdict.PASS, Verdict.FAIL):
                out[name] = res.verdict
        return out

    @property
    def agreed(self) -> bool:
        return len(set(self.conclusive.values())) <= 1

    @property
    def passed(self) -> bool:
        verdicts = set(self.conclusive.values())
        return self.agreed and verdicts == {Verdict.PASS}

    def lines(self) -> list[str]:
        out = [f"x = {self.x} (size {self.size})"]
        for name, res in self.results.items():
            line = f"{name}: {res.verdict.value}"
            if res.note:
                line += f" ({res.note})"
            if res.witness is not None and res.verdict is Verdict.FAIL:
                line += f" witness={res.witness}"
            out.append(line)
        return out


class BatteryDisagreement(RuntimeError):
    """Two conclusive definition checks disagreed: an internal defect."""

    def __init__(self, report: BatteryReport):
        super().__init__(
            "equivalent definition checks disagreed: "
            + ", ".join(f"{k}={v.value}" for k, v in report.conclusive.items())
        )
        self.report = report


@dataclass(frozen=True)
class BatteryConfig:
    checks: tuple[str, ...] = (
        "rowspace",
        "kernel",
        "disjointness-counts",
        "kneser-eigenvector",
        "eigenspace-split",
        "meet-distribution",
        "switching-sets",
        "spread-intersections",
    )

    @classmethod
    def fast(cls) -> "BatteryConfig":
        return cls(checks=("kernel", "disjointness-counts"))


# -- individual checks -------------------------------------------------------


def check_rowspace_membership(cand: CLCandidate, bundle: SchemeBundle) -> CheckResult:
    """Characteristic vector lies in the row space of the incidence matrix;
    a failure names the first column with a nonzero residual."""
    miss = bundle.of_family(cand.mask, bundle.linear_terms().first_residual)
    if miss is None:
        return CheckResult(Verdict.PASS)
    return CheckResult(Verdict.FAIL, witness=("residual-at", miss[1]))


def check_kernel_orthogonality(cand: CLCandidate, bundle: SchemeBundle) -> CheckResult:
    """Characteristic vector is orthogonal to ker(A); a failure names the
    first kernel_int() vector it is not orthogonal to."""
    miss = bundle.of_family(cand.mask, bundle.linear_terms().first_residual)
    if miss is None:
        return CheckResult(Verdict.PASS)
    return CheckResult(Verdict.FAIL, witness=("kernel-vector", miss[0]))


def _count_at(planes: list[int], e: int) -> int:
    """The count a bit-sliced counter holds at position e."""
    return sum((plane >> e & 1) << b for b, plane in enumerate(planes))


def _first_count_miss(
    cand: CLCandidate, bundle: SchemeBundle, targets, scale=1
) -> tuple[int, int, int] | None:
    """First (c, i, count) in c-major order, count the members meeting c in
    dimension k-i, where scale * count differs from t_in (c a member) or
    t_out (c not a member), over the (i, t_in, t_out) in targets; None when
    every count matches.  A target of None is not integral and so misses.
    The counts are the family's MeetRows tally, which every count check
    shares; the targets are laid out as planes at the same positions, and
    one XOR scan finds the misses."""
    counts = bundle.of_family(cand.mask, bundle.meet_rows().tally)
    total, full = len(cand.ctx.kspaces), cand.ctx.full_kspace_mask
    sides, misses = [], 0
    for i, t_in, t_out in targets:
        for side, t in ((cand.mask, t_in), (full & ~cand.mask, t_out)):
            side <<= (i - 1) * total
            t = None if t is None or t % scale else t // scale
            if t is None or not 0 <= t < 1 << len(counts):
                misses |= side
            else:
                sides.append((side, t))
    for plane, bound in zip(counts, _planes(sides, len(counts))):
        misses |= plane ^ bound
    first = 0
    for i, _, _ in targets:
        first |= misses >> (i - 1) * total & full
    if not first:
        return None
    c = (first & -first).bit_length() - 1
    i = next(i for i, _, _ in targets if misses >> (i - 1) * total + c & 1)
    return c, i, _count_at(counts, (i - 1) * total + c)


def _int_or_none(value: Fraction) -> int | None:
    return int(value) if value.denominator == 1 else None


def check_disjointness_counts(cand: CLCandidate, bundle: SchemeBundle) -> CheckResult:
    """Every k-space pi sees exactly (x - chi(pi)) * q^(k^2+k) * qbinom(n-k-1,k)
    members disjoint from it."""
    p = cand.ctx.params
    coeff = q_disjoint_coefficient(p)
    t_in, t_out = (cand.x - 1) * coeff, cand.x * coeff
    miss = _first_count_miss(cand, bundle, [(p.k + 1, *map(_int_or_none, (t_in, t_out)))])
    if miss is None:
        return CheckResult(Verdict.PASS)
    c, _, count = miss
    target = t_in if cand.chi(c) else t_out
    return CheckResult(Verdict.FAIL, witness=("kspace", c, "expected", target, "got", count))


def check_kneser_eigenvector(cand: CLCandidate, bundle: SchemeBundle) -> CheckResult:
    """T*chi - |L|*j is an eigenvector of the disjointness matrix K for the
    first nontrivial eigenvalue lam (T the number of k-spaces).

    K is regular of valence deg, so for w = T*chi - |L|*j and a_c = |K_c & L|
    the product (K w)_c is T*a_c - |L|*deg exactly: K w = lam w is one
    integer target for T*a_c on members and one on non-members."""
    p = cand.ctx.params
    total = len(cand.ctx.kspaces)
    size = len(cand)
    if size in (0, total):
        return CheckResult(Verdict.PASS, note="zero vector (constant family)")
    deg = valence(p.k + 1, p)
    lam = eigenvalue_p(1, p.k + 1, p)
    t_in, t_out = lam * (total - size) + size * deg, size * (deg - lam)
    miss = _first_count_miss(cand, bundle, [(p.k + 1, t_in, t_out)], scale=total)
    if miss is None:
        return CheckResult(Verdict.PASS)
    return CheckResult(Verdict.FAIL, witness=("kspace", miss[0]))


def check_eigenspace_split(cand: CLCandidate, bundle: SchemeBundle) -> CheckResult:
    """chi decomposes over the first two common eigenspaces: its projection
    w = T*chi - |L|*j off the all-one line is annihilated by (K - lam I).
    On span{chi, j} that is the equation of check_kneser_eigenvector, whose
    verdict and note this reports without a witness."""
    res = check_kneser_eigenvector(cand, bundle)
    return CheckResult(res.verdict, note=res.note)


def intersection_distribution(cand: CLCandidate, pi: int) -> tuple[int, ...]:
    """Counts of members meeting k-space pi in dimension k-i, for i = 0..k+1."""
    rel = cand.ctx.relation_masks()
    return tuple(
        (rel[i][pi] & cand.mask).bit_count() for i in range(cand.ctx.params.k + 2)
    )


def check_meet_distribution(cand: CLCandidate, bundle: SchemeBundle) -> CheckResult:
    """For every pi and every i in 1..k+1, the number of members meeting pi
    in dimension k-i matches the two-case closed form."""
    p = cand.ctx.params
    x = cand.x
    targets = {
        i: (meet_count_target(i, p, x, member=True), meet_count_target(i, p, x, member=False))
        for i in range(1, p.k + 2)
    }
    miss = _first_count_miss(cand, bundle, [(i, *map(_int_or_none, t)) for i, t in targets.items()])
    if miss is None:
        return CheckResult(Verdict.PASS)
    c, i, count = miss
    target = targets[i][0 if cand.chi(c) else 1]
    witness = ("kspace", c, "i", i, "expected", target, "got", count)
    return CheckResult(Verdict.FAIL, witness=witness)


def check_switching_pairs(cand: CLCandidate, pairs) -> CheckResult:
    """|L meet R| = |L meet R'| over the supplied conjugate switching-set
    pairs.  A pass over supplied pairs is only a sampled pass."""
    ctx = cand.ctx
    if not pairs:
        return CheckResult(Verdict.SKIPPED, note="no switching pairs supplied")
    for r1, r2 in pairs:
        if not ctx.are_conjugate_switching_sets(r1, r2):
            raise FamilyError(
                "supplied pair is not a pair of conjugate switching sets",
                witness=(tuple(r1), tuple(r2)),
            )
        if (mask_of(r1) & cand.mask).bit_count() != (mask_of(r2) & cand.mask).bit_count():
            return CheckResult(Verdict.FAIL, witness=(tuple(r1), tuple(r2)))
    return CheckResult(Verdict.SAMPLED_PASS, note=f"{len(pairs)} supplied pairs")


def _difference_pair(masks, idx: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(S0 \\ S, S \\ S0) for the first spread S0 and S = masks[idx]: the
    switching-set pair whose imbalance a differing spread meet shows."""
    s = masks[idx]
    return ids_of(masks[0] & ~s), ids_of(s & ~masks[0])


def check_switching_sets(cand: CLCandidate, bundle: SchemeBundle) -> CheckResult:
    """Switching-set balance over all spread-difference pairs inside
    (2k+1)-subspaces (the span-sized case uses the global spread list),
    checked via constancy of the spread meets, which is the same condition."""
    ctx = cand.ctx
    p = ctx.params
    if p.n == 2 * p.k + 1:
        masks = bundle.spread_masks()
        if len(masks) < 2:
            return CheckResult(Verdict.SKIPPED, note="fewer than two spreads known")
        meets = bundle.of_family(cand.mask, bundle.spread_meets)
        full = (1 << len(masks)) - 1
        off = full & ~equal_mask(meets, _count_at(meets, 0), full)
        if off:
            witness = _difference_pair(masks, (off & -off).bit_length() - 1)
            return CheckResult(Verdict.FAIL, witness=witness)
        if bundle.spreads_exhaustive():
            return CheckResult(Verdict.PASS, note=f"{len(masks)} spreads, all pairs")
        return CheckResult(Verdict.SAMPLED_PASS, note=f"{len(masks)} sampled spreads")
    try:
        rows, spreads = ctx.sigma_rank_table()
    except GeometrySizeError as exc:  # the cap is the same for every sigma
        return CheckResult(Verdict.SKIPPED, note=str(exc))
    if len(spreads) < 2:
        return CheckResult(Verdict.SKIPPED, note="no switching pairs available")
    sigmas = ctx.subspaces_of_dim(2 * p.k + 1)
    full = (1 << len(sigmas)) - 1
    # held[r]: the sigmas whose r-th k-space is a member, from the members'
    # rows or, for a family of more than half the k-spaces, the complement
    # of the non-members' rows
    outside = 2 * len(cand) > len(ctx.kspaces)
    held = [0] * qbinom(2 * p.k + 2, p.k + 1, p.q)
    for c in ids_of(ctx.full_kspace_mask & ~cand.mask if outside else cand.mask):
        for r, m in rows[c]:
            held[r] |= m
    if outside:
        held = [full & ~m for m in held]
    # spread j's meets, one bit-sliced counter indexed by sigma; misses[j] are
    # the sigmas where it differs from spread 0's
    width = len(spreads[0]).bit_length()
    first, misses, off = None, [], 0
    for spread in spreads:
        planes = [0] * width
        for r in spread:
            _add(planes, held[r])
        if first is None:
            first = planes
        miss = 0
        for a, b in zip(planes, first):
            miss |= a ^ b
        misses.append(miss)
        off |= miss
    if off:
        s = (off & -off).bit_length() - 1
        j = next(j for j, miss in enumerate(misses) if miss >> s & 1)
        pair = _difference_pair(ctx.sigma_spread_masks(sigmas[s]), j)
        return CheckResult(Verdict.FAIL, witness=("sigma", sigmas[s].basis, pair))
    return CheckResult(
        Verdict.PASS, note=f"spread pairs inside {len(sigmas)} span-dimensional subspaces"
    )


def check_spread_intersections(cand: CLCandidate, bundle: SchemeBundle) -> CheckResult:
    """|L meet S| = x for every k-spread S of bundle.spread_masks()."""
    p = cand.ctx.params
    if (p.n + 1) % (p.k + 1):
        return CheckResult(
            Verdict.SKIPPED, note=f"no k-spreads: {p.k + 1} does not divide {p.n + 1}"
        )
    meets = bundle.of_family(cand.mask, bundle.spread_meets)
    x = cand.x
    if x.denominator != 1:
        return CheckResult(
            Verdict.FAIL,
            witness=("non-integer parameter", x),
            note="spread meets are integers; non-integer x is impossible",
        )
    target = int(x)
    total = len(bundle.spread_masks())
    full = (1 << total) - 1
    off = full & ~equal_mask(meets, target, full)
    if off:
        idx = (off & -off).bit_length() - 1
        witness = ("spread", idx, "meet", _count_at(meets, idx), "expected", target)
        return CheckResult(Verdict.FAIL, witness=witness)
    if bundle.spreads_exhaustive():
        return CheckResult(Verdict.PASS, note=f"all {total} spreads")
    return CheckResult(Verdict.SAMPLED_PASS, note=f"{total} sampled spreads")


def point_flag_identity(cand: CLCandidate, point: int, tau: Subspace) -> bool:
    """Exact incidence identity tying the pencil through a point, the
    k-spaces inside a containing subspace tau, and the pencil inside tau."""
    ctx = cand.ctx
    p = ctx.params
    i = tau.dim
    if i < p.k + 1:
        raise ValueError(f"need dim(tau) >= k+1, got {i}")
    tmask = ctx.point_mask(tau)
    if not (tmask >> point) & 1:
        raise ValueError("point does not lie in tau")
    q, n, k = p.q, p.n, p.k
    in_tau = mask_of(ctx.all_in(tau))
    pencil_mask = ctx.pencil_masks[point]
    a = (pencil_mask & cand.mask).bit_count()
    b = (in_tau & cand.mask).bit_count()
    c_ = (pencil_mask & in_tau & cand.mask).bit_count()
    ratio = Fraction(qbinom(n - 1, k, q), qbinom(i - 1, k, q))
    lhs = a + ratio * Fraction(q**k - 1, q**i - 1) * b
    rhs = ratio * c_ + Fraction(q**k - 1, q**n - 1) * len(cand)
    return lhs == rhs


_CHECKS = {
    "rowspace": check_rowspace_membership,
    "kernel": check_kernel_orthogonality,
    "disjointness-counts": check_disjointness_counts,
    "kneser-eigenvector": check_kneser_eigenvector,
    "eigenspace-split": check_eigenspace_split,
    "meet-distribution": check_meet_distribution,
    "switching-sets": check_switching_sets,
    "spread-intersections": check_spread_intersections,
}

# Checks that hold vacuously when n < 2k+1, where no two k-spaces are disjoint.
_NEED_DISJOINT_PAIRS = (
    "disjointness-counts",
    "kneser-eigenvector",
    "eigenspace-split",
    "switching-sets",
)


def run_battery(
    cand: CLCandidate,
    bundle: SchemeBundle,
    config: BatteryConfig | None = None,
) -> BatteryReport:
    """Run every enabled definition check; raise BatteryDisagreement unless
    the conclusive verdicts agree.  The bundle must be one built for the
    family's own GeometryCtx."""
    p = cand.ctx.params
    if bundle.ctx is not cand.ctx:
        b = bundle.params
        raise ValueError(
            f"bundle built for PG({b.n},{b.q}) k={b.k}, not for the family's "
            f"geometry PG({p.n},{p.q}) k={p.k}"
        )
    if config is None:
        config = BatteryConfig()
    report = BatteryReport(x=cand.x, size=len(cand))
    for name in config.checks:
        if name not in _CHECKS:
            raise ValueError(f"unknown battery check: {name}")
        start = time.perf_counter()
        if name in _NEED_DISJOINT_PAIRS and p.n < 2 * p.k + 1:
            note = f"no two {p.k}-spaces of PG({p.n},{p.q}) are disjoint"
            result = CheckResult(Verdict.SKIPPED, note=note)
        else:
            result = _CHECKS[name](cand, bundle)
        result.seconds = time.perf_counter() - start
        report.results[name] = result
    if not report.agreed:
        raise BatteryDisagreement(report)
    return report
