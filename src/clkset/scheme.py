"""Exact linear algebra over the k-space association scheme of PG(n,q).

The incidence matrix A has one row per point and one column per k-space; the
relation matrices A_i are the 0/1 matrices of "meet in dimension k-i", kept
as bitmasks.  Rank and kernel questions are answered from the certified RREF
of linalg.rref_int; the spectral certificates are integer identities checked
on the masks, with no elimination; nothing here uses fractions.
SchemeBundle also keeps the geometry's one spread list, as k-space bitmasks,
which the geometry's point count chooses: every spread up to
DEFAULT_SPREAD_POINT_CAP points, rebuilt in each process, the field-reduction
sample above.  Only the sample is cached, and a cached sample is used only
after it is checked against the geometry.
The battery and the search read the bundle's two rule tables, each built on
first use: MeetRows from the relation masks alone, and LinearTerms, the one
reader of the RREF's free columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count
from math import lcm

from .geometry import DEFAULT_SPREAD_POINT_CAP, GeometryCtx, _add, ids_of, mask_of, tally
from .linalg import FreeColumn, kernel_vectors, rref_int
from .qformulas import _require_span_scale, eigenvalue_p, qbinom


def incidence_rows(ctx: GeometryCtx) -> list[list[int]]:
    """Point-by-k-space 0/1 incidence rows, after its two regularity checks:
    every k-space has qbinom(k+1,1) points and every point lies on
    qbinom(n,k) k-spaces."""
    p = ctx.params
    points_per = qbinom(p.k + 1, 1, p.q)
    per_point = qbinom(p.n, p.k, p.q)
    for c, mask in enumerate(ctx.kspace_masks):
        if mask.bit_count() != points_per:
            raise RuntimeError(f"k-space {c} has {mask.bit_count()} points, not {points_per}")
    for pid, mask in enumerate(ctx.pencil_masks):
        if mask.bit_count() != per_point:
            raise RuntimeError(f"point {pid} lies on {mask.bit_count()} k-spaces, not {per_point}")
    return [
        [(mask >> pid) & 1 for mask in ctx.kspace_masks] for pid in range(len(ctx.points))
    ]


def disjointness_vector_identity(pi: int, ctx: GeometryCtx) -> bool:
    """Check that the characteristic vector of {k-spaces disjoint from pi}
    differs from coeff*(qbinom(n,k)^{-1} j - chi_pi) by a kernel vector of A,
    coeff = q^(k^2+k)*qbinom(n-k-1,k).  Scaled by T = qbinom(n,k), the
    difference meets row p of A in T*|pencil_p & disj_pi| - coeff*(r_p -
    T*[p in pi]), r_p the pencil size of p; every row must give 0."""
    p = ctx.params
    coeff = q_disjoint_coefficient(p)
    t = qbinom(p.n, p.k, p.q)
    disj = ctx.disjointness_masks()[pi]
    in_pi = ctx.kspace_masks[pi]
    return all(
        t * (pencil & disj).bit_count()
        == coeff * (pencil.bit_count() - t * ((in_pi >> pid) & 1))
        for pid, pencil in enumerate(ctx.pencil_masks)
    )


def q_disjoint_coefficient(params) -> int:
    """q^(k^2+k) * qbinom(n-k-1, k): k-spaces disjoint from a fixed k-space
    through a fixed point off it."""
    return params.q ** (params.k**2 + params.k) * qbinom(
        params.n - params.k - 1, params.k, params.q
    )


def _products_match(rel, products) -> bool:
    """Each (left, right, want) in products is an identity of 0/1 matrices
    L R^T = sum_j want[j] A_j, checked entry by entry: |left[x] & right[e]|
    must be want[j] for e in rel[j][x].  The relations must partition the
    k-spaces at every x (their sum is all ones and adds no carry, so their
    popcounts add up to N).  Then writing each rel[j][x] out as binary digits,
    one byte per k-space, and adding j times their values gives the relation
    index of row x, byte e holding the j with e in rel[j][x]."""
    total = len(rel[0])
    full = (1 << total) - 1
    fmt = f"0{total}b"
    zeros = int.from_bytes(b"0" * total, "big")
    for x in range(total):
        row = [masks[x] for masks in rel]
        if sum(row) != full or sum(map(int.bit_count, row)) != total:
            return False
        index = sum(
            j * (int.from_bytes(format(row[j], fmt).encode(), "big") - zeros)
            for j in range(1, len(rel))
        )
        where = index.to_bytes(total, "little")
        for left, right, want in products:
            got = list(map(int.bit_count, map(left[x].__and__, right)))
            if got != list(map(want.__getitem__, where)):
                return False
    return True


def _planes(pairs, width: int) -> list[int]:
    """The planes of a bound holding v at the bits of mask, per (mask, v)."""
    planes = [0] * width
    for mask, value in pairs:
        for b in range(value.bit_length()):
            planes[b] |= mask if value >> b & 1 else 0
    return planes


def member_tally(rows, mask: int, sizes: list[int]) -> list[int]:
    """tally(rows, mask): at each position e, the number of ids c in mask
    with bit e in rows[c].  sizes holds the planes of that count over all
    the rows; a mask of more than half the rows is counted through its
    complement, as sizes less the other rows' count by a bit-sliced
    subtraction, so that no tally adds more than half the rows."""
    if 2 * mask.bit_count() <= len(rows):
        return tally(rows, mask)
    rest = tally(rows, (1 << len(rows)) - 1 & ~mask)
    planes, borrow = [], 0
    for b, a in enumerate(sizes):
        x = rest[b] if b < len(rest) else 0
        planes.append(a ^ x ^ borrow)
        borrow = ~a & (x | borrow) | x & borrow
    return planes


class MeetRows:
    """Each k-space's relation rows side by side: wide[c] holds rel[i][c]
    at bit (i-1)N, so position (i, c') of a tally over a family counts its
    members meeting c' in dimension k-i (the relations are symmetric).
    valence holds the planes of deg_i at every position of block i-1; a
    relation whose rows differ in size raises, as the complement count
    of member_tally rests on it."""

    def __init__(self, rel: list[list[int]]):
        self.rel = rel
        total = len(rel[0])
        degrees = [masks[0].bit_count() for masks in rel[1:]]
        for i, masks in enumerate(rel[1:], 1):
            if any(m.bit_count() != degrees[i - 1] for m in masks):
                raise RuntimeError(f"relation {i} is not regular: its rows differ in size")
        blocks = [((1 << total) - 1) << j * total for j in range(len(degrees))]
        width = max(1, max(degrees).bit_length())
        self.valence = _planes(zip(blocks, degrees), width)
        self.wide = list(rel[1])
        for i in range(2, len(rel)):
            shift = (i - 1) * total
            self.wide = [w | m << shift for w, m in zip(self.wide, rel[i])]

    def tally(self, mask: int) -> list[int]:
        """The meet counts of the family mask at every position (i, c)."""
        return member_tally(self.wide, mask, self.valence)


class LinearTerms:
    """The RREF's equations L_f chi_f = sum coef chi_pivot as planes indexed
    by free column f: per pivot c, terms[c] holds the (plane, mask) pairs of
    its positive and its negative coefficients and the mask of the columns
    it is in; scale holds L_f.  With m0_f and p0_f the magnitudes of f's
    negative and positive coefficients, zero_bounds hold (m0_f, p0_f) and
    scale_bounds (m0_f + L_f, p0_f - L_f) where p0_f >= L_f
    (scale_reachable); no sum passes L_f + m0_f + p0_f."""

    def __init__(self, pivots: tuple[int, ...], free: list[FreeColumn]):
        self.pivots, self.pivot_mask = pivots, mask_of(pivots)
        self.free_mask = mask_of(f for f, _, _ in free)
        cols = [
            (1 << f, scale, -sum(v for _, v in supp if v < 0), sum(v for _, v in supp if v > 0))
            for f, scale, supp in free
        ]
        width = self.width = max((sum(col[1:]).bit_length() for col in cols), default=0)
        self.scale = _planes([(bit, scale) for bit, scale, _, _ in cols], width)
        self.zero_bounds = (
            _planes([(bit, m0) for bit, _, m0, _ in cols], width),
            _planes([(bit, p0) for bit, _, _, p0 in cols], width),
        )
        self.scale_reachable = sum(bit for bit, scale, _, p0 in cols if p0 >= scale)
        self.scale_bounds = (
            _planes([(bit, m0 + scale) for bit, scale, m0, _ in cols], width),
            _planes([(bit, p0 - scale) for bit, scale, _, p0 in cols if p0 >= scale], width),
        )
        sides = {c: ([], []) for c in pivots}
        for f, _, supp in free:
            for c, v in supp:
                sides[c][v < 0].append((1 << f, abs(v)))
        self.terms = {}
        for c, pair in sides.items():
            pos, neg = ([(b, m) for b, m in enumerate(_planes(side, width)) if m] for side in pair)
            self.terms[c] = pos, neg, sum(bit for side in pair for bit, _ in side)

    def first_residual(self, mask: int) -> tuple[int, int] | None:
        """linalg.first_residual of the family mask: (position, column) of
        the lowest free column f where L_f chi_f + the negative terms of
        the member pivots differ from their positive terms, or None."""
        pos, neg = [0] * self.width, [0] * self.width
        for c in ids_of(mask & self.pivot_mask):
            up, down, _ = self.terms[c]
            for b, m in up:
                _add(pos, m, b)
            for b, m in down:
                _add(neg, m, b)
        for b, m in enumerate(self.scale):
            _add(neg, m & mask, b)
        diff = 0
        for a, b in zip(pos, neg):
            diff |= a ^ b
        if not diff:
            return None
        f = (diff & -diff).bit_length() - 1
        return (self.free_mask & ((1 << f) - 1)).bit_count(), f


@dataclass(frozen=True)
class SpectralSplit:
    rank: int
    dim_v0: int
    dim_v1: int
    ok: bool


def rowspace_equals_v0_v1(ctx: GeometryCtx) -> SpectralSplit:
    """Verify im(A^T) = V0 + V1 without elimination.  Two k-spaces in
    relation i share [k-i+1] points, so A^T A = sum_i [k-i+1] A_i, checked
    on the rows of incidence_rows; on V_j, with the eigenmatrix certified by
    full_spectrum_check, it acts as mu_j = sum_i [k-i+1] P_{j,i}.  Its image,
    that of A^T, is V0 + V1 exactly when mu_0, mu_1 != 0 = mu_2 = ... .
    Raises ValueError when n < 2k+1: no two k-spaces are disjoint, K = 0 and
    the theorem does not apply."""
    p = ctx.params
    _require_span_scale(p)
    spectrum = full_spectrum_check(ctx)
    cols = [mask_of(compress(count(), col)) for col in zip(*incidence_rows(ctx))]
    shared = [qbinom(p.k + 1 - i, 1, p.q) for i in range(p.k + 2)]
    mu = [sum(s * eigenvalue_p(j, i, p) for i, s in enumerate(shared)) for j in range(p.k + 2)]
    ok = spectrum.ok and all(mu[:2]) and not any(mu[2:])
    ok = ok and _products_match(ctx.relation_masks(), [(cols, cols, shared)])
    dim_v0, dim_v1 = spectrum.dims[:2]
    return SpectralSplit(rank=dim_v0 + dim_v1, dim_v0=dim_v0, dim_v1=dim_v1, ok=ok)


@dataclass(frozen=True)
class SpectrumCertificate:
    dims: tuple[int, ...]
    ok: bool


def _intersection_products(p) -> list[list[int]]:
    """wants[i-1][j], the coefficient of A_j in A_1 A_i for i = 1..d, from
    the intersection numbers of the Grassmann graph (see full_spectrum_check)."""
    n, k, q = p.n, p.k, p.q
    d = min(k + 1, n - k)
    b = [q ** (2 * i + 1) * qbinom(k + 1 - i, 1, q) * qbinom(n - k - i, 1, q) for i in range(d + 1)]
    c = [qbinom(i, 1, q) ** 2 for i in range(d + 1)]
    wants = []
    for i in range(1, d + 1):
        want = [0] * (k + 2)
        want[i - 1], want[i] = b[i - 1], b[0] - b[i] - c[i]
        if i < d:
            want[i + 1] = c[i + 1]
        wants.append(want)
    return wants


def full_spectrum_check(ctx: GeometryCtx) -> SpectrumCertificate:
    """Exact verification of the whole eigenmatrix against the built scheme.

    The Grassmann graph on k-spaces has diameter d = min(k+1, n-k) and
    intersection numbers b_i = q^(2i+1)[k+1-i][n-k-i], c_i = [i]^2 and
    a_i = b_0 - b_i - c_i, where [m] = qbinom(m, 1, q) (Brouwer-Cohen-Neumaier
    9.3).  The relation masks must satisfy A_1 A_i = b_{i-1} A_{i-1} +
    a_i A_i + c_{i+1} A_{i+1} for i = 1..d (A_1 A_0 = A_1 as A_0 = I) and be
    empty beyond d: the k-spaces then form a distance-regular graph whose d+1
    eigenvalue sequences each satisfy the same recurrence (Delsarte 1973).
    So each row j <= d of eigenvalue_p must satisfy it with P_{j,0} = 1, be
    zero beyond d and have its own P_{j,1}.  Dimensions come from Biggs'
    formula m_j = N / sum_i P_{j,i}^2 / v_i, with the valences v_i read off
    the masks, over L = lcm(v_i) with exact division, and m_j = 0 for j > d;
    they must sum to N, and V0 must be the all-one line.  The mask identities
    are checked once per geometry (SchemeBundle.distance_regular).
    """
    p = ctx.params
    k = p.k
    total = len(ctx.kspaces)
    rel = ctx.relation_masks()
    wants = _intersection_products(p)
    d = len(wants)
    rows = [[eigenvalue_p(j, i, p) for i in range(k + 2)] for j in range(d + 1)]
    valences = [masks[0].bit_count() for masks in rel[: d + 1]]
    scale = lcm(*valences)
    biggs = [
        divmod(total * scale, sum(e * e * (scale // v) for e, v in zip(row, valences)))
        for row in rows
    ]
    dims = tuple(m for m, _ in biggs) + (0,) * (k + 1 - d)
    ok = (
        all(row[0] == 1 and not any(row[d + 1 :]) for row in rows)
        and all(
            row[1] * row[i] == sum(w * e for w, e in zip(want, row))
            for row in rows
            for i, want in enumerate(wants, 1)
        )
        and len({row[1] for row in rows}) == d + 1
        and not any(rem for _, rem in biggs)
        and dims[0] == 1
        and sum(dims) == total
        and bundle_for(ctx).distance_regular()
    )
    return SpectrumCertificate(dims=dims, ok=ok)


class SchemeBundle:
    """Per-geometry store of the scheme artifacts the battery and the search
    need: the incidence RREF in integer form, its kernel, the two rule
    tables, spread masks."""

    def __init__(self, ctx: GeometryCtx, cache=None):
        self.ctx = ctx
        self.cache = cache
        self._rref: tuple[tuple[int, ...], list[FreeColumn]] | None = None
        self._meet_rows: MeetRows | None = None
        self._linear_terms: LinearTerms | None = None
        self._spread_masks: list[int] | None = None
        self._spread_through: list[int] | None = None
        self._distance_regular: bool | None = None
        self._family: tuple[int | None, dict] = (None, {})

    @property
    def params(self):
        return self.ctx.params

    def distance_regular(self) -> bool:
        """Whether the relation masks satisfy A_1 A_i = sum_j wants[i-1][j] A_j
        for the intersection numbers of full_spectrum_check, entry by entry,
        and are empty beyond the diameter; checked once, as both spectral
        certificates rest on it."""
        if self._distance_regular is None:
            rel = self.relation_masks()
            wants = _intersection_products(self.params)
            self._distance_regular = not any(
                any(masks) for masks in rel[len(wants) + 1 :]
            ) and _products_match(rel, [(rel[1], rel[i], w) for i, w in enumerate(wants, 1)])
        return self._distance_regular

    def incidence_rref(self) -> tuple[tuple[int, ...], list[FreeColumn]]:
        """(pivot columns, free columns) of the incidence matrix's RREF, from
        the certified integer elimination of linalg.rref_int: for each free
        column f, (f, L, ((pivot column, L * R[r][f]), ...)) with L the lcm
        of the column's denominators and only nonzero coefficients listed."""
        if self._rref is None:
            self._rref = rref_int(incidence_rows(self.ctx), len(self.ctx.kspaces))
        return self._rref

    def meet_rows(self) -> MeetRows:
        if self._meet_rows is None:
            self._meet_rows = MeetRows(self.relation_masks())
        return self._meet_rows

    def linear_terms(self) -> LinearTerms:
        if self._linear_terms is None:
            self._linear_terms = LinearTerms(*self.incidence_rref())
        return self._linear_terms

    def of_family(self, mask: int, build):
        """build(mask), kept for the family mask the bundle was last asked
        about: a value several checks read is computed once per battery,
        and no more than one family's values are kept."""
        seen, values = self._family
        if seen != mask:
            values = {}
            self._family = (mask, values)
        if build not in values:
            values[build] = build(mask)
        return values[build]

    def kernel_int(self) -> list[tuple[int, ...]]:
        """Primitive integer kernel basis of the incidence matrix, one vector
        per free column: L at f and minus each coefficient at its pivot."""
        return kernel_vectors(self.incidence_rref()[1], len(self.ctx.kspaces))

    def relation_masks(self) -> list[list[int]]:
        return self.ctx.relation_masks()

    def spreads_exhaustive(self) -> bool:
        """Whether spread_masks() lists every k-spread, which it does up to
        DEFAULT_SPREAD_POINT_CAP points."""
        return len(self.ctx.points) <= DEFAULT_SPREAD_POINT_CAP

    def spread_masks(self) -> list[int]:
        """The geometry's one spread list, as k-space bitmasks: every k-spread,
        rebuilt by backtracking, when spreads_exhaustive(), otherwise the
        field-reduction spread and its coordinate-permutation images, read
        from the cache when a checked entry is there.  Empty when no k-spread
        exists."""
        if self._spread_masks is None:
            p = self.params
            if (p.n + 1) % (p.k + 1):
                spreads = []
            elif self.spreads_exhaustive():
                spreads = self.ctx.enumerate_all_spreads()
            else:
                spreads = self._cached_sample()
                if spreads is None:
                    spreads = self.ctx.permuted_spread_sample()
                    if self.cache:
                        self.cache.put("spreads", p, [list(s) for s in spreads])
            self._spread_masks = [mask_of(s) for s in spreads]
        return self._spread_masks

    def spread_through(self) -> list[int]:
        """The transpose of spread_masks(): per k-space c, the mask of the
        spread indices s with c in spread s.  Built on first use, in blocks
        of 512 spreads, so that no large temporary raises the peak memory: a
        block's masks are written out as one string of binary digits, one
        row per spread from the last to the first, and each k-space's column
        is read back with a strided slice."""
        if self._spread_through is None:
            masks = self.spread_masks()
            total = len(self.ctx.kspaces)
            fmt = f"0{total}b"
            through = [0] * total
            for start in range(0, len(masks), 512):
                block = masks[start : start + 512]
                digits = "".join([format(m, fmt) for m in reversed(block)])
                for c in range(total):
                    through[c] |= int(digits[total - 1 - c :: total], 2) << start
            self._spread_through = through
        return self._spread_through

    def spread_meets(self, mask: int) -> list[int]:
        """|L meet S| for the family mask L and the spreads S of
        spread_masks(), as the planes of a bit-sliced counter indexed by
        spread; every spread has one size."""
        masks = self.spread_masks()
        size = masks[0].bit_count() if masks else 0
        full = (1 << len(masks)) - 1
        return member_tally(self.spread_through(), mask, _planes([(full, size)], size.bit_length()))

    def _cached_sample(self) -> list[list[int]] | None:
        """The cached spread sample if it is one spread_masks() could have
        built here: a nonempty, sorted, unrepeated list of lists of in-range
        k-space ids whose point masks partition the points.  None for
        anything else, which is rebuilt."""
        payload = self.cache.get("spreads", self.params) if self.cache else None
        if not payload or type(payload) is not list:
            return None
        ctx = self.ctx
        for s in payload:
            if type(s) is not list or any(
                type(c) is not int or not 0 <= c < len(ctx.kspaces) for c in s
            ):
                return None
            if ctx.union_if_disjoint(s) != ctx.full_point_mask:
                return None
        return payload if all(a < b for a, b in zip(payload, payload[1:])) else None


def bundle_for(ctx: GeometryCtx, cache=None) -> SchemeBundle:
    """The one SchemeBundle of a geometry, kept on the ctx itself; a cache
    passed here replaces the one it had."""
    if ctx._bundle is None:
        ctx._bundle = SchemeBundle(ctx)
    if cache is not None:
        ctx._bundle.cache = cache
    return ctx._bundle
