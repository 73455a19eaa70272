"""Brute-force oracles used to pin expected values independently of the
implementation under test."""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm

from clkset import GeometryCtx
from clkset.families import Verdict
from clkset.geometry import GeometrySizeError, ids_of, mask_of
from clkset.linalg import kernel_vectors, rref_int
from clkset.qformulas import (
    _require_span_scale,
    eigenvalue_p,
    meet_count_target,
    qbinom,
    valence,
)
from clkset.scheme import (
    SpectralSplit,
    SpectrumCertificate,
    incidence_rows,
    q_disjoint_coefficient,
)
from clkset.search import _PropagateEngine


def count_subspaces_bruteforce(a: int, b: int, q: int) -> int:
    """Number of b-dim subspaces of GF(q)^a by enumerating all b x a matrices
    and deduplicating row spans (span stored as the frozenset of its vectors,
    each vector packed into an integer)."""
    if b == 0:
        return 1
    if b > a:
        return 0
    from clkset import field_ctx

    field = field_ctx(q)

    def pack(vec) -> int:
        acc = 0
        for v in vec:
            acc = acc * q + v
        return acc

    spans = set()
    coeffs = list(itertools.product(range(q), repeat=b))
    for flat in itertools.product(range(q), repeat=a * b):
        rows = [flat[r * a : (r + 1) * a] for r in range(b)]
        span = set()
        for combo in coeffs:
            vec = [0] * a
            for c, row in zip(combo, rows):
                if c:
                    for j, v in enumerate(row):
                        if v:
                            vec[j] = field.add(vec[j], field.mul(c, v))
            span.add(pack(vec))
        if len(span) == q**b:  # rows independent
            spans.add(frozenset(span))
    return len(spans)


def span_point_ids_fieldcalls(ctx: GeometryCtx, basis) -> tuple[int, ...]:
    """Ids of the points spanned by an RREF basis: every canonical coefficient
    vector times the basis, one FieldCtx.add/mul call per entry."""
    field = ctx.field
    ids = []
    for combo in itertools.product(range(field.q), repeat=len(basis)):
        if next((c for c in combo if c), None) != 1:
            continue
        vec = [0] * (ctx.params.n + 1)
        for c, row in zip(combo, basis):
            if c:
                for j, v in enumerate(row):
                    if v:
                        vec[j] = field.add(vec[j], field.mul(c, v))
        ids.append(ctx.point_id[tuple(vec)])
    return tuple(sorted(ids))


def sigma_spread_masks_backtrack(ctx: GeometryCtx, sigma) -> list[int]:
    """All k-spreads of a (2k+1)-space by backtracking over its own k-spaces,
    as k-space masks in increasing id-tuple order."""
    found = ctx._spread_backtrack(ctx.all_in(sigma), ctx.point_mask(sigma))
    return [mask_of(s) for s in found]


def factor_prime_power_trial(q: int) -> tuple[int, int] | None:
    """(p, e) with q = p**e and p prime by trial division, or None."""
    if q < 2:
        return None
    p = next(d for d in range(2, q + 1) if q % d == 0)
    e = 0
    while q % p == 0:
        q //= p
        e += 1
    return (p, e) if q == 1 else None


def disjoint_count_bruteforce(ctx: GeometryCtx, m: int, j: int) -> int:
    """Count j-spaces disjoint from the first m-space, via point masks."""
    m_mask = ctx.point_mask(ctx.subspaces_of_dim(m)[0])
    count = 0
    for sub in ctx.subspaces_of_dim(j):
        if ctx.point_mask(sub) & m_mask == 0:
            count += 1
    return count


def meet_dim_from_masks(ctx: GeometryCtx, mask_a: int, mask_b: int) -> int:
    return ctx._point_count_to_dim[(mask_a & mask_b).bit_count()]


def relation_masks_pairwise(ctx: GeometryCtx) -> list[list[int]]:
    """rel[i][c] = bitmask of k-spaces meeting k-space c in dim k-i, from the
    point counts of all O(N^2) pairs: the reference for the star unions."""
    k = ctx.params.k
    total = len(ctx.kspaces)
    rel = [[0] * total for _ in range(k + 2)]
    for c in range(total):
        rel[0][c] |= 1 << c
        for d in range(c + 1, total):
            i = k - ctx.meet_dim_ids(c, d)
            rel[i][c] |= 1 << d
            rel[i][d] |= 1 << c
    return rel


def reference_families(ctx: GeometryCtx, x, fix_in=(), fix_out=()):
    """The families with parameter x that contain every k-space in fix_in and
    none in fix_out, by plain subset enumeration with only size bounds: the
    pruning-free reference for the search engine.  A set of the family size
    is kept when each member is disjoint from exactly the member target of
    members and each non-member from the non-member target, with disjointness
    read off the point masks."""
    p = ctx.params
    x = Fraction(x)
    size = x * qbinom(p.n, p.k, p.q)
    total = len(ctx.kspaces)
    if size.denominator != 1 or not 0 <= size <= total:
        return ()
    target = int(size)
    masks = ctx.kspace_masks
    disj = [sum(1 << d for d in range(total) if not m & masks[d]) for m in masks]
    t_in = meet_count_target(p.k + 1, p, x, member=True)
    t_out = meet_count_target(p.k + 1, p, x, member=False)
    need = sum(1 << c for c in fix_in)
    chosen: list[int] = []
    found: list[tuple[int, ...]] = []

    def rec(pos: int, mask: int) -> None:
        if len(chosen) == target:
            if mask & need == need and all(
                (disj[c] & mask).bit_count() == (t_in if mask >> c & 1 else t_out)
                for c in range(total)
            ):
                found.append(tuple(chosen))
            return
        if len(chosen) + (total - pos) < target:
            return
        if pos not in fix_out:
            chosen.append(pos)
            rec(pos + 1, mask | 1 << pos)
            chosen.pop()
        if pos not in fix_in:
            rec(pos + 1, mask)

    rec(0, 0)
    return tuple(sorted(found))


class IndexOrderEngine(_PropagateEngine):
    """The search engine branching on the pivots in column order, as it did
    before it went fail first: the same propagation, so the same families,
    over another tree.  The node, forced and prune counts pinned on it are
    those of the earlier engines."""

    def _next_pivot(self, start: int = 0) -> int | None:
        decided, pivots = self.in_mask | self.out_mask, self.linear.pivots
        for idx in range(start, len(pivots)):
            if not decided >> pivots[idx] & 1:
                return idx
        return None

    def _dfs(self, out: list, stats, start: int = 0) -> None:
        idx = self._next_pivot(start)
        if idx is None:
            self._leaf(out, stats)
            return
        stats.nodes += 1
        bit = 1 << self.linear.pivots[idx]
        snap = self._snapshot()
        for ins, outs in ((bit, 0), (0, bit)):
            if self._apply(ins, outs, stats):
                self._dfs(out, stats, idx + 1)
            self._restore(snap)


def coordinate_permutation_images(ctx: GeometryCtx, ids) -> set[tuple[int, ...]]:
    """Images of the k-spaces in ids under every permutation of the n+1
    coordinates, each a sorted id tuple: every point is permuted and
    rescaled to leading entry 1, and each k-space is found by its point set."""
    field = ctx.field
    point_id = {pt: i for i, pt in enumerate(ctx.points)}
    kspace_id = {m: c for c, m in enumerate(ctx.kspace_masks)}

    def moved_point(pt, perm) -> int:
        vec = [pt[j] for j in perm]
        lead = field.inv(next(v for v in vec if v))
        return point_id[tuple(field.mul(lead, v) for v in vec)]

    def image(c, perm) -> int:
        points = ids_of(ctx.kspace_masks[c])
        return kspace_id[sum(1 << moved_point(ctx.points[i], perm) for i in points)]

    return {
        tuple(sorted(image(c, perm) for c in ids))
        for perm in itertools.permutations(range(ctx.params.n + 1))
    }


def valence_distribution_bruteforce(ctx: GeometryCtx, pi: int) -> list[int]:
    """Number of k-spaces meeting k-space pi in dimension k-i, for each i."""
    k = ctx.params.k
    counts = [0] * (k + 2)
    base = ctx.kspace_masks[pi]
    for c in range(len(ctx.kspaces)):
        if c == pi:
            continue
        dim = meet_dim_from_masks(ctx, base, ctx.kspace_masks[c])
        counts[k - dim] += 1
    counts[0] += 1  # pi itself
    return counts


def first_disjoint_pair(ctx: GeometryCtx) -> tuple[int, int]:
    masks = ctx.kspace_masks
    for a in range(len(masks)):
        for b in range(a + 1, len(masks)):
            if masks[a] & masks[b] == 0:
                return a, b
    raise AssertionError("no disjoint pair exists")


def skew_pair_profile_bruteforce(ctx: GeometryCtx, a: int, b: int):
    """For disjoint k-spaces a, b: (counts by meet dim with their span,
    through-span-point counts, through-outer-point counts).

    The per-point counts are asserted constant over the eligible points, as
    they must be.
    """
    k = ctx.params.k
    sub_a, sub_b = ctx.kspaces[a], ctx.kspaces[b]
    sigma = ctx.span(sub_a, sub_b)
    sigma_mask = ctx.point_mask(sigma)
    mask_a, mask_b = ctx.kspace_masks[a], ctx.kspace_masks[b]
    by_span_dim = {i: 0 for i in range(-1, k + 1)}
    skew_ids = []
    for c in range(len(ctx.kspaces)):
        mc = ctx.kspace_masks[c]
        if mc & mask_a or mc & mask_b:
            continue
        skew_ids.append(c)
        by_span_dim[meet_dim_from_masks(ctx, mc, sigma_mask)] += 1
    through = [0] * len(ctx.points)
    for c in skew_ids:
        for p in ids_of(ctx.kspace_masks[c]):
            through[p] += 1
    span_counts = set()
    outer_counts = set()
    for p, count in enumerate(through):
        bit = 1 << p
        if bit & sigma_mask:
            if not (bit & mask_a or bit & mask_b):
                span_counts.add(count)
        else:
            outer_counts.add(count)
    assert len(span_counts) == 1
    assert len(outer_counts) <= 1
    return by_span_dim, span_counts.pop(), (outer_counts.pop() if outer_counts else None)



def rref_fraction(rows) -> tuple[list[list[Fraction]], tuple[int, ...]]:
    """Gauss–Jordan over the rationals, pivoting on the smallest-magnitude
    entry of each column: (nonzero RREF rows as Fractions, pivot columns).
    The reference for the certified modular route of clkset.linalg.

    Each row is kept as a primitive integer vector (the row times the lcm of
    its denominators, divided by the gcd of its entries), which spans the
    same line as the rational row; a row is divided by its pivot only at the
    end.  No modulus, reconstruction or certificate is involved."""
    work = []
    for row in rows:
        scale = lcm(*(Fraction(v).denominator for v in row))
        work.append([int(Fraction(v) * scale) for v in row])
    ncols = len(work[0]) if work else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        best = None
        for i in range(r, len(work)):
            v = work[i][c]
            if v:
                key = (abs(v), i)
                if best is None or key < best[0]:
                    best = (key, i)
        if best is None:
            continue
        i = best[1]
        work[r], work[i] = work[i], work[r]
        a = work[r][c]
        nonzero = [(j, b) for j, b in enumerate(work[r]) if b]
        for i in range(len(work)):
            f = work[i][c]
            if i != r and f:
                row_i = [x * a for x in work[i]]
                for j, b in nonzero:
                    row_i[j] -= f * b
                g = gcd(*row_i)
                work[i] = [x // g for x in row_i] if g > 1 else row_i
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return [[Fraction(x, row[c]) for x in row] for row, c in zip(work, pivots)], tuple(pivots)


def fraction_rows(pivots, free_columns) -> list[list[Fraction]]:
    """The RREF rows as Fractions, from rref_int's integer form."""
    ncols = len(pivots) + len(free_columns)
    rows = [[Fraction(0)] * ncols for _ in pivots]
    row_of = {pcol: r for r, pcol in enumerate(pivots)}
    for r, pcol in enumerate(pivots):
        rows[r][pcol] = Fraction(1)
    for f, scale, supp in free_columns:
        for pcol, coef in supp:
            rows[row_of[pcol]][f] = Fraction(coef, scale)
    return rows


def kernel_basis_fraction(rows, pivots, ncols: int) -> list[list[Fraction]]:
    """Kernel basis from a Fraction RREF: 1 at each free column f and
    -R[r][f] at pivot r."""
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, pcol in enumerate(pivots):
            v[pcol] = -rows[r][f]
        basis.append(v)
    return basis


def scale_to_int(v) -> tuple[int, ...]:
    """Scale a rational vector to a primitive integer vector (sign kept)."""
    scale = lcm(*(Fraction(x).denominator for x in v))
    ints = [int(Fraction(x) * scale) for x in v]
    g = gcd(*ints)
    return tuple(x // g for x in ints) if g > 1 else tuple(ints)


def residual_fraction(rows, pivots, v) -> list[Fraction]:
    """v row-reduced as Fractions against the RREF rows."""
    res = [Fraction(x) for x in v]
    for r, pcol in enumerate(pivots):
        f = res[pcol]
        if f:
            res = [a - f * b for a, b in zip(res, rows[r])]
    return res


def first_residual(free_columns, v) -> tuple[int, int] | None:
    """The residual scan the battery's LinearTerms replaced: (position, column) of the first free column f of the RREF with
    L * v[f] != sum(coef * v[pivot]), or None when v is in the row space.

    Row-reducing v against the RREF leaves 0 at every pivot column and that
    integer divided by L at free column f; it is also the dot product of v
    with the f-th vector of kernel_vectors, so one scan decides both row-space
    membership and orthogonality to the kernel."""
    for idx, (f, scale, supp) in enumerate(free_columns):
        if scale * v[f] != sum(coef * v[pcol] for pcol, coef in supp):
            return idx, f
    return None


def free_columns_from_rref(rows, pivots, ncols: int):
    """(f, L, ((pivot, L * R[r][f]), ...)) per non-pivot column f of an RREF
    given as Fraction rows, L the lcm of the column's denominators."""
    pivot_set = set(pivots)
    out = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        scale = lcm(*(row[f].denominator for row in rows))
        supp = tuple(
            (pcol, int(rows[r][f] * scale)) for r, pcol in enumerate(pivots) if rows[r][f]
        )
        out.append((f, scale, supp))
    return out


# -- the former spectral certificates, by elimination --------------------------
# References for clkset.scheme.full_spectrum_check and rowspace_equals_v0_v1.


def relation_rows(i: int, ctx: GeometryCtx) -> list[list[int]]:
    """Dense rows of the relation matrix A_i."""
    if not 0 <= i <= ctx.params.k + 1:
        raise ValueError(f"relation index {i} out of range")
    total = len(ctx.kspaces)
    return [[(m >> c) & 1 for c in range(total)] for m in ctx.relation_masks()[i]]


def is_eigenvector(v, row_ids, lam) -> bool:
    """M v == lam v, for the 0/1 matrix M whose row r has its ones at row_ids[r]."""
    return all(sum(v[c] for c in ids) == lam * vr for ids, vr in zip(row_ids, v))


def v1_eigen_check(v, ctx: GeometryCtx) -> bool:
    """True iff K v = P_{1,k+1} v exactly (K the disjointness matrix); the
    zero vector passes degenerately."""
    p = ctx.params
    lam = eigenvalue_p(1, p.k + 1, p)
    return is_eigenvector(v, [ids_of(m) for m in ctx.disjointness_masks()], lam)


def eigenspace_rref(rows, lam: int) -> list[tuple[int, ...]]:
    """Primitive integer basis of ker(M - lam I), M given by its integer
    rows: one vector per free column of the certified RREF."""
    n = len(rows)
    shifted = [[v - lam if r == c else v for c, v in enumerate(row)] for r, row in enumerate(rows)]
    return kernel_vectors(rref_int(shifted, n)[1], n)


def _rank(rows, ncols: int) -> int:
    return len(rref_int(rows, ncols)[0])


def rowspace_equals_v0_v1_rref(ctx: GeometryCtx) -> SpectralSplit:
    """im(A^T) = V0 + V1 by elimination: the disjointness-matrix eigenspaces
    for the first two eigenvalues, compared in dimension with rank(A), and
    the rows of A must not raise the rank of their joint basis."""
    p = ctx.params
    _require_span_scale(p)
    total = len(ctx.kspaces)
    a = incidence_rows(ctx)
    kneser = relation_rows(p.k + 1, ctx)
    v0 = eigenspace_rref(kneser, eigenvalue_p(0, p.k + 1, p))
    v1 = eigenspace_rref(kneser, eigenvalue_p(1, p.k + 1, p))
    joint = v0 + v1
    rank_a = _rank(a, total)
    rank_joint = _rank(joint, total)
    ok = (
        len(v0) == 1
        and len(joint) == rank_a
        and len(joint) == rank_joint
        and _rank(joint + a, total) == rank_joint
    )
    return SpectralSplit(rank=rank_a, dim_v0=len(v0), dim_v1=len(v1), ok=ok)


def full_spectrum_check_rref(ctx: GeometryCtx) -> SpectrumCertificate:
    """The eigenspaces of A_1 by elimination, one per eigenvalue P_{j,1};
    every relation matrix must act on every basis vector by P_{j,i}, the
    dimensions must sum to the number of k-spaces and V0 must be a line."""
    p = ctx.params
    a1 = relation_rows(1, ctx)
    rel_ids = [[ids_of(m) for m in masks] for masks in ctx.relation_masks()]
    dims = []
    ok = True
    for j in range(p.k + 2):
        basis = eigenspace_rref(a1, eigenvalue_p(j, 1, p))
        dims.append(len(basis))
        if j == 0 and len(basis) != 1:
            ok = False
        for vec in basis:
            if not all(
                is_eigenvector(vec, rel_ids[i], eigenvalue_p(j, i, p))
                for i in range(p.k + 2)
            ):
                ok = False
    if sum(dims) != len(ctx.kspaces):
        ok = False
    return SpectrumCertificate(dims=tuple(dims), ok=ok)


# -- the battery's former linear, counting and spectral checks ----------------
# References for the integer scans of clkset.families: each returns the
# (verdict, witness, note) triple of the check it replaced.


def rowspace_check_fraction(cand, bundle):
    """Row-reduce chi as Fractions against the RREF rows; the first nonzero
    residual column is the witness."""
    pivots, free = bundle.incidence_rref()
    chi = [cand.chi(c) for c in range(len(cand.ctx.kspaces))]
    res = residual_fraction(fraction_rows(pivots, free), pivots, chi)
    for c, v in enumerate(res):
        if v:
            return Verdict.FAIL, ("residual-at", c), ""
    return Verdict.PASS, None, ""


def kernel_check_bitwalk(cand, bundle):
    """Dot chi with every integer kernel vector by walking the family's bits."""
    for idx, vec in enumerate(bundle.kernel_int()):
        acc = 0
        m = cand.mask
        while m:
            low = m & -m
            acc += vec[low.bit_length() - 1]
            m ^= low
        if acc:
            return Verdict.FAIL, ("kernel-vector", idx), ""
    return Verdict.PASS, None, ""


def disjointness_check_popcount(cand, bundle):
    coeff = q_disjoint_coefficient(cand.ctx.params)
    t_in, t_out = (cand.x - 1) * coeff, cand.x * coeff
    masks = bundle.ctx.disjointness_masks()
    for c in range(len(cand.ctx.kspaces)):
        count = (masks[c] & cand.mask).bit_count()
        target = t_in if cand.chi(c) else t_out
        if count != target:
            return Verdict.FAIL, ("kspace", c, "expected", target, "got", count), ""
    return Verdict.PASS, None, ""


def kneser_check_popcount(cand, bundle):
    p = cand.ctx.params
    total = len(cand.ctx.kspaces)
    size = len(cand)
    deg = valence(p.k + 1, p)
    lam = eigenvalue_p(1, p.k + 1, p)
    if size in (0, total):
        return Verdict.PASS, None, "zero vector (constant family)"
    masks = bundle.ctx.disjointness_masks()
    for c in range(total):
        a_c = (masks[c] & cand.mask).bit_count()
        if total * a_c - size * deg != lam * (total * cand.chi(c) - size):
            return Verdict.FAIL, ("kspace", c), ""
    return Verdict.PASS, None, ""


def eigenspace_check_literal(cand, bundle):
    """K w = P_{1,k+1} w through v1_eigen_check, which sums w over every set
    bit of every disjointness mask."""
    total = len(cand.ctx.kspaces)
    w = [total * cand.chi(c) - len(cand) for c in range(total)]
    if not any(w):
        return Verdict.PASS, None, "zero vector (constant family)"
    if v1_eigen_check(w, cand.ctx):
        return Verdict.PASS, None, ""
    return Verdict.FAIL, None, ""


def meet_check_popcount(cand, bundle):
    p = cand.ctx.params
    rel = bundle.relation_masks()
    targets_in = [meet_count_target(i, p, cand.x, member=True) for i in range(1, p.k + 2)]
    targets_out = [meet_count_target(i, p, cand.x, member=False) for i in range(1, p.k + 2)]
    for c in range(len(cand.ctx.kspaces)):
        targets = targets_in if cand.chi(c) else targets_out
        for i in range(1, p.k + 2):
            count = (rel[i][c] & cand.mask).bit_count()
            if count != targets[i - 1]:
                witness = ("kspace", c, "i", i, "expected", targets[i - 1], "got", count)
                return Verdict.FAIL, witness, ""
    return Verdict.PASS, None, ""


BATTERY_ORACLES = {
    "rowspace": rowspace_check_fraction,
    "kernel": kernel_check_bitwalk,
    "disjointness-counts": disjointness_check_popcount,
    "kneser-eigenvector": kneser_check_popcount,
    "eigenspace-split": eigenspace_check_literal,
    "meet-distribution": meet_check_popcount,
}


# -- the spread checks' former loops -------------------------------------------
# switching-sets and spread-intersections each counted |L meet S| over the
# spread masks themselves; a battery now counts them once for both, and
# switching-sets counts the meets inside every (2k+1)-space in one tally.


def _meet_constant_loop(cand, masks):
    seen = None
    seen_idx = 0
    for idx, m in enumerate(masks):
        meet = (m & cand.mask).bit_count()
        if seen is None:
            seen, seen_idx = meet, idx
        elif meet != seen:
            s0 = masks[seen_idx]
            witness = (
                tuple(c for c in ids_of(s0) if not (m >> c) & 1),
                tuple(c for c in ids_of(m) if not (s0 >> c) & 1),
            )
            return False, witness
    return True, None


def switching_check_loop(cand, bundle):
    ctx = cand.ctx
    p = ctx.params
    if p.n == 2 * p.k + 1:
        masks = bundle.spread_masks()
        if len(masks) < 2:
            return Verdict.SKIPPED, None, "fewer than two spreads known"
        ok, witness = _meet_constant_loop(cand, masks)
        if not ok:
            return Verdict.FAIL, witness, ""
        if bundle.spreads_exhaustive():
            return Verdict.PASS, None, f"{len(masks)} spreads, all pairs"
        return Verdict.SAMPLED_PASS, None, f"{len(masks)} sampled spreads"
    # inside the (2k+1)-spaces, one popcount list per subspace, which stops
    # at the first subspace whose meets are not constant
    checked = 0
    for sigma in ctx.subspaces_of_dim(2 * p.k + 1):
        try:
            masks = ctx.sigma_spread_masks(sigma)
        except GeometrySizeError as exc:  # the cap is the same for every sigma
            return Verdict.SKIPPED, None, str(exc)
        if len(masks) < 2:
            continue
        ok, witness = _meet_constant_loop(cand, masks)
        if not ok:
            return Verdict.FAIL, ("sigma", sigma.basis, witness), ""
        checked += 1
    if checked == 0:
        return Verdict.SKIPPED, None, "no switching pairs available"
    return Verdict.PASS, None, f"spread pairs inside {checked} span-dimensional subspaces"


def spread_intersections_check_loop(cand, bundle):
    p = cand.ctx.params
    if (p.n + 1) % (p.k + 1):
        return Verdict.SKIPPED, None, f"no k-spreads: {p.k + 1} does not divide {p.n + 1}"
    masks = bundle.spread_masks()
    x = cand.x
    if x.denominator != 1:
        note = "spread meets are integers; non-integer x is impossible"
        return Verdict.FAIL, ("non-integer parameter", x), note
    target = int(x)
    for idx, m in enumerate(masks):
        meet = (m & cand.mask).bit_count()
        if meet != target:
            return Verdict.FAIL, ("spread", idx, "meet", meet, "expected", target), ""
    if bundle.spreads_exhaustive():
        return Verdict.PASS, None, f"all {len(masks)} spreads"
    return Verdict.SAMPLED_PASS, None, f"{len(masks)} sampled spreads"


SPREAD_ORACLES = {
    "switching-sets": switching_check_loop,
    "spread-intersections": spread_intersections_check_loop,
}
