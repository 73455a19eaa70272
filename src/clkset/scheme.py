"""Exact linear algebra over the k-space association scheme of PG(n,q).

The incidence matrix A has one row per point and one column per k-space; the
relation matrices A_i are the 0/1 matrices of "meet in dimension k-i".  All
rank, kernel and eigenspace computations are exact (see linalg).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .geometry import GeometryCtx, GeometrySizeError
from .linalg import ExactMatrix, FreeColumn, rref_int, scale_to_int
from .qformulas import eigenvalue_p, qbinom


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


def build_incidence(ctx: GeometryCtx) -> ExactMatrix:
    """Point-by-k-space incidence matrix, with its two regularity checks."""
    return ExactMatrix(incidence_rows(ctx))


def build_relation(i: int, ctx: GeometryCtx) -> ExactMatrix:
    """Relation matrix A_i (symmetric 0/1; A_0 = I and sum_i A_i = J,
    both checked when the underlying masks are built)."""
    if not 0 <= i <= ctx.params.k + 1:
        raise ValueError(f"relation index {i} out of range")
    masks = ctx.relation_masks()[i]
    total = len(ctx.kspaces)
    return ExactMatrix(
        [[(masks[r] >> c) & 1 for c in range(total)] for r in range(total)]
    )


def kernel_basis(a: ExactMatrix) -> list[list[Fraction]]:
    """Basis of ker(A); every vector checked against A."""
    basis = a.kernel_basis()
    for v in basis:
        if any(a.matvec(v)):
            raise RuntimeError("kernel basis vector fails A v = 0")
    if len(basis) != a.ncols - a.rank():
        raise RuntimeError("kernel dimension differs from ncols - rank")
    return basis


def in_rowspace(v, a: ExactMatrix) -> bool:
    """Membership of v in the row space of A, computed two ways (residual
    against the RREF, and orthogonality to the kernel basis) that must
    agree."""
    by_residual = a.in_rowspace(v)
    by_kernel = all(
        sum((Fraction(x) * w for x, w in zip(v, kv) if x and w), Fraction(0)) == 0
        for kv in a.kernel_basis()
    )
    if by_residual != by_kernel:
        raise RuntimeError("row-space membership routes disagree")
    return by_residual


def disjointness_vector_identity(pi: int, ctx: GeometryCtx, a: ExactMatrix) -> bool:
    """Check that the characteristic vector of {k-spaces disjoint from pi}
    differs from q^(k^2+k)*qbinom(n-k-1,k)*(qbinom(n,k)^{-1} j - chi_pi) by a
    kernel vector of A, by direct multiplication."""
    p = ctx.params
    coeff = q_disjoint_coefficient(p)
    inv_total = Fraction(1, qbinom(p.n, p.k, p.q))
    disj = ctx.disjointness_masks()[pi]
    v = [
        Fraction((disj >> c) & 1) - coeff * (inv_total - (1 if c == pi else 0))
        for c in range(len(ctx.kspaces))
    ]
    return not any(a.matvec(v))


def q_disjoint_coefficient(params) -> int:
    """q^(k^2+k) * qbinom(n-k-1, k): k-spaces disjoint from a fixed k-space
    through a fixed point off it."""
    return params.q ** (params.k**2 + params.k) * qbinom(
        params.n - params.k - 1, params.k, params.q
    )


def v1_eigen_check(v, ctx: GeometryCtx, kneser: ExactMatrix | None = None) -> bool:
    """True iff K v = P_{1,k+1} v exactly (K the disjointness matrix).

    Together with the eigenvalue-separation property this certifies that v
    lies in the first nontrivial common eigenspace.  The zero vector passes
    degenerately; callers that care should flag it.
    """
    p = ctx.params
    lam = eigenvalue_p(1, p.k + 1, p)
    if kneser is not None:
        kv = kneser.matvec(v)
    else:
        masks = ctx.disjointness_masks()
        kv = []
        for c in range(len(ctx.kspaces)):
            m = masks[c]
            acc = 0
            while m:
                low = m & -m
                acc += v[low.bit_length() - 1]
                m ^= low
            kv.append(acc)
    return all(kvi == lam * vi for kvi, vi in zip(kv, v))


@dataclass(frozen=True)
class SpectralSplit:
    rank: int
    dim_v0: int
    dim_v1: int
    ok: bool


def rowspace_equals_v0_v1(ctx: GeometryCtx) -> SpectralSplit:
    """Verify im(A^T) = V0 + V1: compute the disjointness-matrix eigenspaces
    for the first two eigenvalues, compare dimensions with rank(A), and check
    every row of A against the joint basis."""
    p = ctx.params
    a = build_incidence(ctx)
    kneser = build_relation(p.k + 1, ctx)
    v0 = kneser.eigenspace_basis(eigenvalue_p(0, p.k + 1, p))
    v1 = kneser.eigenspace_basis(eigenvalue_p(1, p.k + 1, p))
    joint = ExactMatrix(v0 + v1)
    rank_a = a.rank()
    rows_ok = all(joint.in_rowspace(row) for row in a.rows)
    ok = (
        len(v0) == 1
        and len(v0) + len(v1) == rank_a
        and len(joint.rows) == joint.rank()
        and rows_ok
    )
    return SpectralSplit(rank=rank_a, dim_v0=len(v0), dim_v1=len(v1), ok=ok)


@dataclass(frozen=True)
class SpectrumCertificate:
    dims: tuple[int, ...]
    ok: bool


def full_spectrum_check(ctx: GeometryCtx) -> SpectrumCertificate:
    """Exact verification of the whole eigenmatrix against the built scheme.

    Carves the common eigenspaces out of the distance-1 matrix, then checks
    every relation matrix on every (integer-scaled) basis vector against the
    closed-form eigenvalues.  Dimensions must sum to the number of k-spaces
    and the first eigenspace must be the all-one line.
    """
    p = ctx.params
    total = len(ctx.kspaces)
    a1 = build_relation(1, ctx)
    rel = ctx.relation_masks()
    dims = []
    ok = True
    for j in range(p.k + 2):
        basis = a1.eigenspace_basis(eigenvalue_p(j, 1, p))
        dims.append(len(basis))
        if j == 0 and len(basis) != 1:
            ok = False
        for vec in basis:
            iv = scale_to_int(vec)
            for i in range(p.k + 2):
                lam = eigenvalue_p(j, i, p)
                for r in range(total):
                    acc = 0
                    m = rel[i][r]
                    while m:
                        low = m & -m
                        acc += iv[low.bit_length() - 1]
                        m ^= low
                    if acc != lam * iv[r]:
                        ok = False
                        break
                else:
                    continue
                break
    if sum(dims) != total:
        ok = False
    return SpectrumCertificate(dims=tuple(dims), ok=ok)


class SchemeBundle:
    """Per-geometry store of the scheme artifacts the battery and the search
    need: the incidence RREF in integer form, its kernel, spreads."""

    def __init__(self, ctx: GeometryCtx, cache=None):
        self.ctx = ctx
        self.cache = cache
        self._rref: tuple[tuple[int, ...], list[FreeColumn]] | None = None
        self._kernel_int: list[tuple[int, ...]] | None = None
        self._spreads: list[tuple[int, ...]] | None = None
        self._spreads_exhaustive: bool | None = None
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
        if self._kernel_int is None:
            total = len(self.ctx.kspaces)
            basis = []
            _, free = self.incidence_rref()
            for f, scale, supp in free:
                v = [0] * total
                v[f] = scale
                for pcol, coef in supp:
                    v[pcol] = -coef
                basis.append(tuple(v))
            self._kernel_int = basis
        return self._kernel_int

    def relation_masks(self) -> list[list[int]]:
        return self.ctx.relation_masks()

    def disjointness_masks(self) -> list[int]:
        return self.relation_masks()[self.params.k + 1]

    def spreads(self) -> tuple[list[tuple[int, ...]], bool]:
        """(spread list, exhaustive?) — exhaustive backtracking when the
        geometry is small enough, otherwise the field-reduction spread and
        its coordinate-permutation images."""
        if self._spreads is None:
            p = self.params
            if (p.n + 1) % (p.k + 1):
                self._spreads, self._spreads_exhaustive = [], False
            else:
                payload = self.cache.get("spreads", p) if self.cache else None
                if payload is not None:
                    self._spreads = [tuple(s) for s in payload["spreads"]]
                    self._spreads_exhaustive = bool(payload["exhaustive"])
                else:
                    try:
                        self._spreads = self.ctx.enumerate_all_spreads()
                        self._spreads_exhaustive = True
                    except GeometrySizeError:
                        self._spreads = self.ctx.permuted_spread_sample()
                        self._spreads_exhaustive = False
                    if self.cache:
                        self.cache.put(
                            "spreads",
                            p,
                            {
                                "spreads": [list(s) for s in self._spreads],
                                "exhaustive": self._spreads_exhaustive,
                            },
                        )
        return self._spreads, bool(self._spreads_exhaustive)

    def spread_masks(self) -> list[int]:
        """Bitmask (over k-space ids) of each spread in spreads()."""
        if self._spread_masks is None:
            spreads, _ = self.spreads()
            masks = []
            for s in spreads:
                m = 0
                for c in s:
                    m |= 1 << c
                masks.append(m)
            self._spread_masks = masks
        return self._spread_masks


def bundle_for(ctx: GeometryCtx, cache=None) -> SchemeBundle:
    """The one SchemeBundle of a geometry, kept on the ctx itself."""
    if ctx._bundle is None:
        ctx._bundle = SchemeBundle(ctx, cache=cache)
    b = ctx._bundle
    if cache is not None and b.cache is None:
        b.cache = cache
    return b
