"""Exact linear algebra over the k-space association scheme of PG(n,q).

The incidence matrix A has one row per point and one column per k-space; the
relation matrices A_i are the 0/1 matrices of "meet in dimension k-i".  Both
are integer rows, and every rank, kernel, eigenspace and row-space question is
answered from the certified RREF of linalg.rref_int; nothing here uses
fractions.  SchemeBundle also keeps the geometry's one spread list, as k-space
bitmasks, which the geometry's point count chooses: every spread up to
DEFAULT_SPREAD_POINT_CAP points, rebuilt in each process, the field-reduction
sample above.  Only the sample is cached, and a cached sample is used only
after it is checked against the geometry.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import DEFAULT_SPREAD_POINT_CAP, GeometryCtx, ids_of, mask_of
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


def build_relation(i: int, ctx: GeometryCtx) -> list[list[int]]:
    """Rows of the relation matrix A_i (symmetric 0/1; A_0 = I and
    sum_i A_i = J, both checked when the underlying masks are built)."""
    if not 0 <= i <= ctx.params.k + 1:
        raise ValueError(f"relation index {i} out of range")
    total = len(ctx.kspaces)
    return [[(m >> c) & 1 for c in range(total)] for m in ctx.relation_masks()[i]]


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


def _is_eigenvector(v, row_ids, lam) -> bool:
    """M v == lam v, for the 0/1 matrix M whose row r has its ones at row_ids[r]."""
    return all(sum(v[c] for c in ids) == lam * vr for ids, vr in zip(row_ids, v))


def v1_eigen_check(v, ctx: GeometryCtx) -> bool:
    """True iff K v = P_{1,k+1} v exactly (K the disjointness matrix).

    Together with the eigenvalue-separation property this certifies that v
    lies in the first nontrivial common eigenspace.  The zero vector passes
    degenerately; callers that care should flag it.
    """
    p = ctx.params
    lam = eigenvalue_p(1, p.k + 1, p)
    return _is_eigenvector(v, [ids_of(m) for m in ctx.disjointness_masks()], lam)


def _eigenspace(rows, lam: int) -> list[tuple[int, ...]]:
    """Primitive integer basis of ker(M - lam I), M given by its integer
    rows: one vector per free column of the certified RREF."""
    n = len(rows)
    shifted = [[v - lam if r == c else v for c, v in enumerate(row)] for r, row in enumerate(rows)]
    return kernel_vectors(rref_int(shifted, n)[1], n)


def _rank(rows, ncols: int) -> int:
    return len(rref_int(rows, ncols)[0])


@dataclass(frozen=True)
class SpectralSplit:
    rank: int
    dim_v0: int
    dim_v1: int
    ok: bool


def rowspace_equals_v0_v1(ctx: GeometryCtx) -> SpectralSplit:
    """Verify im(A^T) = V0 + V1: compute the disjointness-matrix eigenspaces
    for the first two eigenvalues, compare dimensions with rank(A), and check
    that appending the rows of A does not raise the rank of the joint basis.
    Raises ValueError when n < 2k+1: no two k-spaces are disjoint, K = 0 and
    the theorem does not apply."""
    p = ctx.params
    _require_span_scale(p)
    total = len(ctx.kspaces)
    a = incidence_rows(ctx)
    kneser = build_relation(p.k + 1, ctx)
    v0 = _eigenspace(kneser, eigenvalue_p(0, p.k + 1, p))
    v1 = _eigenspace(kneser, eigenvalue_p(1, p.k + 1, p))
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


@dataclass(frozen=True)
class SpectrumCertificate:
    dims: tuple[int, ...]
    ok: bool


def full_spectrum_check(ctx: GeometryCtx) -> SpectrumCertificate:
    """Exact verification of the whole eigenmatrix against the built scheme.

    Carves the common eigenspaces out of the distance-1 matrix, then checks
    every relation matrix on every primitive integer basis vector against
    the closed-form eigenvalues.  Dimensions must sum to the number of
    k-spaces and the first eigenspace must be the all-one line.
    """
    p = ctx.params
    a1 = build_relation(1, ctx)
    rel_ids = [[ids_of(m) for m in masks] for masks in ctx.relation_masks()]
    dims = []
    ok = True
    for j in range(p.k + 2):
        basis = _eigenspace(a1, eigenvalue_p(j, 1, p))
        dims.append(len(basis))
        if j == 0 and len(basis) != 1:
            ok = False
        for vec in basis:
            if not all(
                _is_eigenvector(vec, rel_ids[i], eigenvalue_p(j, i, p))
                for i in range(p.k + 2)
            ):
                ok = False
    if sum(dims) != len(ctx.kspaces):
        ok = False
    return SpectrumCertificate(dims=tuple(dims), ok=ok)


class SchemeBundle:
    """Per-geometry store of the scheme artifacts the battery and the search
    need: the incidence RREF in integer form, its kernel, spread masks."""

    def __init__(self, ctx: GeometryCtx, cache=None):
        self.ctx = ctx
        self.cache = cache
        self._rref: tuple[tuple[int, ...], list[FreeColumn]] | None = None
        self._spread_masks: list[int] | None = None

    @property
    def params(self):
        return self.ctx.params

    def incidence_rref(self) -> tuple[tuple[int, ...], list[FreeColumn]]:
        """(pivot columns, free columns) of the incidence matrix's RREF, from
        the certified integer elimination of linalg.rref_int: for each free
        column f, (f, L, ((pivot column, L * R[r][f]), ...)) with L the lcm
        of the column's denominators and only nonzero coefficients listed."""
        if self._rref is None:
            self._rref = rref_int(incidence_rows(self.ctx), len(self.ctx.kspaces))
        return self._rref

    def kernel_int(self) -> list[tuple[int, ...]]:
        """Primitive integer kernel basis of the incidence matrix, one vector
        per free column: L at f and minus each coefficient at its pivot."""
        return kernel_vectors(self.incidence_rref()[1], len(self.ctx.kspaces))

    def relation_masks(self) -> list[list[int]]:
        return self.ctx.relation_masks()

    def disjointness_masks(self) -> list[int]:
        return self.relation_masks()[self.params.k + 1]

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
