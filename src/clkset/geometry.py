"""Enumeration and canonical representation of PG(n,q).

Subspaces are stored as reduced-row-echelon bases over GF(q); two values are
equal exactly when they describe the same subspace.  A GeometryCtx fixes a
deterministic id order (lexicographic on the flattened canonical matrices)
for the points and the k-spaces, and precomputes the incidence bitmasks the
rest of the package runs on.  Spreads are k-space bitmasks too, and the public
enumerators return them as id tuples.  Every (2k+1)-space's spreads are carried
from one backtrack by rank order: each subspace keeps only the ids of its
k-spaces in that order (GeometryCtx._carried_kspaces), and its spread masks are
rebuilt from them on request.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .gf import FieldCtx, FieldReduction, field_ctx
from .qformulas import SchemeParams, qbinom

DEFAULT_ENUM_CAP = 10**6
DEFAULT_Q_CAP = 16
DEFAULT_SPREAD_POINT_CAP = 40
DEFAULT_PERMUTATION_CAP = 5040


def mask_of(ids) -> int:
    """Bitmask with bit c set for every id c."""
    mask = 0
    for c in ids:
        mask |= 1 << c
    return mask


def ids_of(mask: int) -> tuple[int, ...]:
    """The set bits of a bitmask, in increasing order."""
    ids = []
    while mask:
        low = mask & -mask
        ids.append(low.bit_length() - 1)
        mask ^= low
    return tuple(ids)


# Bit-sliced counters (Knuth, TAOCP 4A, 7.1.3): a list of planes, low binary
# digit first; bit e of planes[b] is digit b of the count at position e.


def _add(planes: list[int], bits: int, start: int = 0) -> None:
    """Add 2^start at every set bit of `bits` to a bit-sliced counter."""
    for b in range(start, len(planes)):
        plane = planes[b]
        planes[b] = plane ^ bits
        bits &= plane
        if not bits:
            return
    if bits:
        raise RuntimeError("bit-sliced counter overflow")


def tally(rows, mask: int) -> list[int]:
    """The bit-sliced planes of the sum of rows[c] over the ids c in mask:
    position e counts the c in mask whose row has bit e."""
    planes = [0] * max(1, mask.bit_count().bit_length())
    for c in ids_of(mask):
        _add(planes, rows[c])
    return planes


def equal_mask(planes: list[int], t: int | None, full: int) -> int:
    """The positions in full whose count is t; none when t is None or
    outside the counter's range."""
    if t is None or not 0 <= t < 1 << len(planes):
        return 0
    eq = full
    for b, plane in enumerate(planes):
        eq &= plane if t >> b & 1 else ~plane
    return eq


def rref(rows, field: FieldCtx) -> tuple[tuple[int, ...], ...]:
    """Reduced row echelon form over GF(q); zero rows dropped, pivots 1."""
    work = [list(r) for r in rows]
    if not work:
        return ()
    cols = len(work[0])
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, len(work)):
            if work[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = field.inv(work[r][c])
        if inv != 1:
            work[r] = [field.mul(inv, v) for v in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [
                    field.sub(a, field.mul(f, b)) for a, b in zip(work[i], work[r])
                ]
        r += 1
        if r == len(work):
            break
    return tuple(tuple(row) for row in work[:r])


@dataclass(frozen=True)
class Subspace:
    """A subspace of PG(n,q), identified by its canonical RREF basis."""

    n: int
    q: int
    dim: int
    basis: tuple[tuple[int, ...], ...]

    @classmethod
    def from_vectors(cls, vectors, field: FieldCtx, n: int) -> "Subspace":
        canon = rref(vectors, field)
        if not canon:
            raise ValueError("empty span is not a projective subspace")
        return cls(n=n, q=field.q, dim=len(canon) - 1, basis=canon)

    def flat(self) -> tuple[int, ...]:
        return tuple(v for row in self.basis for v in row)


def _canonical_points(dim: int, field: FieldCtx) -> list[tuple[int, ...]]:
    """All canonical point vectors of PG(dim, q): leftmost nonzero entry 1."""
    q = field.q
    pts = []
    for lead in range(dim + 1):
        for tail in itertools.product(range(q), repeat=dim - lead):
            pts.append((0,) * lead + (1,) + tail)
    pts.sort()
    return pts


def _enumerate_rref_bases(n: int, d: int, field: FieldCtx):
    """Yield every canonical (d+1) x (n+1) RREF basis over GF(q)."""
    q = field.q
    rows = d + 1
    cols = n + 1
    for pivots in itertools.combinations(range(cols), rows):
        pivot_set = set(pivots)
        free_cells = [
            (r, c)
            for r in range(rows)
            for c in range(pivots[r] + 1, cols)
            if c not in pivot_set
        ]
        for values in itertools.product(range(q), repeat=len(free_cells)):
            mat = [[0] * cols for _ in range(rows)]
            for r, p in enumerate(pivots):
                mat[r][p] = 1
            for (r, c), v in zip(free_cells, values):
                mat[r][c] = v
            yield tuple(tuple(row) for row in mat)


class GeometrySizeError(ValueError):
    """Raised when an enumeration would exceed the configured cap."""


class GeometryCtx:
    """Enumerated points and k-spaces of PG(n,q) with incidence structure."""

    def __init__(self, params: SchemeParams):
        n, k, q = params.n, params.k, params.q
        if q > DEFAULT_Q_CAP:
            raise GeometrySizeError(f"field size {q} exceeds configured cap {DEFAULT_Q_CAP}")
        # #k-spaces >= #points > 2^n, so a large n is refused before counting
        total = params.num_kspaces if n < DEFAULT_ENUM_CAP.bit_length() else None
        if total is None or total > DEFAULT_ENUM_CAP:
            count = f"more than 2^{n}" if total is None else total
            raise GeometrySizeError(
                f"PG({n},{q}) has {count} {k}-spaces, exceeding the cap of {DEFAULT_ENUM_CAP}"
            )
        self.params = params
        self.field = field_ctx(params.q)
        self.points: list[tuple[int, ...]] = _canonical_points(params.n, self.field)
        if len(self.points) != params.num_points:
            raise RuntimeError(f"enumerated {len(self.points)} points, not {params.num_points}")
        self.point_id: dict[tuple[int, ...], int] = {
            p: i for i, p in enumerate(self.points)
        }
        self._dim_cache: dict[int, list[Subspace]] = {}
        self.kspaces: list[Subspace] = self.subspaces_of_dim(params.k)
        if len(self.kspaces) != total:
            raise RuntimeError(f"enumerated {len(self.kspaces)} {params.k}-spaces, not {total}")
        self.kspace_id: dict[tuple[tuple[int, ...], ...], int] = {
            s.basis: i for i, s in enumerate(self.kspaces)
        }
        if len(self.kspace_id) != len(self.kspaces):
            raise RuntimeError(f"duplicate {params.k}-spaces in the enumeration")
        self._coeff_points: dict[int, list[tuple[int, ...]]] = {}  # by span dimension
        self.kspace_masks: list[int] = []
        pencil_masks = [0] * len(self.points)
        for idx, sub in enumerate(self.kspaces):
            ids = self._span_point_ids(sub.basis)
            for pid in ids:
                pencil_masks[pid] |= 1 << idx
            self.kspace_masks.append(mask_of(ids))
        self.pencil_masks = pencil_masks
        self.full_kspace_mask = (1 << total) - 1
        self.full_point_mask = (1 << len(self.points)) - 1
        self._point_count_to_dim = {0: -1}
        acc = 0
        for d in range(params.n + 1):
            acc = qbinom(d + 1, 1, params.q)
            self._point_count_to_dim[acc] = d
        self._relations: list[list[int]] | None = None
        self._mask_cache: dict[tuple[tuple[int, ...], ...], int] = {}
        self._sigma_kspaces: dict[tuple[tuple[int, ...], ...], tuple[int, ...]] = {}
        self._sigma_rank_rows: list[tuple[tuple[int, int], ...]] | None = None
        self._sigma0_spreads: tuple[list[tuple[int, ...]], list[tuple[int, ...]]] | None = None
        self._bundle = None  # the scheme.SchemeBundle of bundle_for

    # -- enumeration ------------------------------------------------------

    def subspaces_of_dim(self, d: int) -> list[Subspace]:
        """All d-dimensional subspaces, lexicographic on flattened bases."""
        if not 0 <= d <= self.params.n:
            raise ValueError(f"dimension {d} out of range for PG({self.params.n},*)")
        if d not in self._dim_cache:
            subs = [
                Subspace(n=self.params.n, q=self.params.q, dim=d, basis=b)
                for b in _enumerate_rref_bases(self.params.n, d, self.field)
            ]
            subs.sort(key=Subspace.flat)
            self._dim_cache[d] = subs
        return self._dim_cache[d]

    def hyperplanes(self) -> list[Subspace]:
        return self.subspaces_of_dim(self.params.n - 1)

    def _span_point_ids(self, basis) -> tuple[int, ...]:
        dim = len(basis) - 1
        coeffs = self._coeff_points.get(dim)
        if coeffs is None:
            coeffs = self._coeff_points[dim] = _canonical_points(dim, self.field)
        add, mul = self.field.add_table, self.field.mul_table
        width = self.params.n + 1
        point_id = self.point_id
        ids = []
        for combo in coeffs:
            vec = [0] * width
            for c, row in zip(combo, basis):
                if c:
                    times = mul[c]
                    for j, v in enumerate(row):
                        if v:
                            vec[j] = add[vec[j]][times[v]]
            ids.append(point_id[tuple(vec)])
        ids.sort()
        return tuple(ids)

    def point_mask(self, sub: Subspace) -> int:
        """Bitmask over point ids of the points of an arbitrary subspace."""
        if sub.dim == self.params.k and sub.basis in self.kspace_id:
            return self.kspace_masks[self.kspace_id[sub.basis]]
        if sub.basis not in self._mask_cache:
            self._mask_cache[sub.basis] = mask_of(self._span_point_ids(sub.basis))
        return self._mask_cache[sub.basis]

    # -- incidence queries -------------------------------------------------

    def intersection_dim(self, a: Subspace, b: Subspace) -> int:
        """Projective dimension of the meet (-1 when disjoint), via the rank
        of the stacked bases: dim(a) + dim(b) + 1 - rank."""
        if a.n != b.n or a.q != b.q:
            raise ValueError("subspaces live in different ambient spaces")
        stacked = rref(a.basis + b.basis, self.field)
        return a.dim + b.dim + 1 - len(stacked)

    def span(self, a: Subspace, b: Subspace) -> Subspace:
        return Subspace.from_vectors(a.basis + b.basis, self.field, self.params.n)

    def meet_dim_ids(self, i: int, j: int) -> int:
        """Meet dimension of two enumerated k-spaces from point counts."""
        common = (self.kspace_masks[i] & self.kspace_masks[j]).bit_count()
        return self._point_count_to_dim[common]

    def relation_masks(self) -> list[list[int]]:
        """rel[i][c] = bitmask of k-spaces meeting k-space c in dim k-i.

        at_least[d][c], the k-spaces meeting c in dimension >= d, is the OR
        of star(S) over the d-subspaces S of c; star(S), the k-spaces
        through S, is the AND of the pencils of S's basis points."""
        if self._relations is None:
            k = self.params.k
            total = len(self.kspaces)
            at_least = []
            for d in range(k):
                level = [0] * total
                for sub in self.subspaces_of_dim(d):
                    star = self.full_kspace_mask
                    for row in sub.basis:
                        star &= self.pencil_masks[self.point_id[row]]
                    for c in ids_of(star):
                        level[c] |= star
                at_least.append(level)
            at_least.append([1 << c for c in range(total)])
            rel = [at_least[k]]
            for d in range(k - 1, -1, -1):
                rel.append([a & ~b for a, b in zip(at_least[d], at_least[d + 1])])
            rel.append([self.full_kspace_mask & ~a for a in at_least[0]])
            for c in range(total):  # the relations partition all pairs
                if sum(rel[i][c] for i in range(k + 2)) != self.full_kspace_mask:
                    raise RuntimeError(f"relation masks do not partition at {c}")
            self._relations = rel
        return self._relations

    def disjointness_masks(self) -> list[int]:
        return self.relation_masks()[self.params.k + 1]

    def pencil(self, point: int) -> tuple[int, ...]:
        """Ids of all k-spaces through a point."""
        return ids_of(self.pencil_masks[point])

    def all_in(self, tau: Subspace) -> tuple[int, ...]:
        """Ids of all k-spaces contained in tau."""
        if tau.dim < self.params.k:
            raise ValueError(f"{tau.dim}-space cannot contain a {self.params.k}-space")
        tmask = self.point_mask(tau)
        return tuple(
            c
            for c, m in enumerate(self.kspace_masks)
            if m & ~tmask == 0
        )

    def pencil_in(self, point: int, tau: Subspace) -> tuple[int, ...]:
        """Ids of all k-spaces through a point and inside tau."""
        tmask = self.point_mask(tau)
        if not (tmask >> point) & 1:
            raise ValueError(f"point {point} does not lie in the given subspace")
        pmask = self.pencil_masks[point]
        return tuple(
            c
            for c, m in enumerate(self.kspace_masks)
            if (pmask >> c) & 1 and m & ~tmask == 0
        )

    # -- spreads and switching sets ----------------------------------------

    def _require_spread_divisibility(self) -> None:
        n, k = self.params.n, self.params.k
        if (n + 1) % (k + 1):
            raise ValueError(
                f"no {k}-spread exists in PG({n},{self.params.q}): "
                f"{k + 1} does not divide {n + 1}"
            )

    def construct_spread(self) -> tuple[int, ...]:
        """The field-reduction spread: images of the points of
        PG((n+1)/(k+1)-1, q^(k+1)) under coordinate expansion."""
        self._require_spread_divisibility()
        n, k, q = self.params.n, self.params.k, self.params.q
        big = field_ctx(q ** (k + 1))
        red = FieldReduction(big, self.field)
        m = (n + 1) // (k + 1)
        alpha = big.p if big.e > 1 else 1
        members = []
        for pt in _canonical_points(m - 1, big):
            rows = []
            scalar = 1
            for _ in range(k + 1):
                rows.append(red.expand_vector(tuple(big.mul(scalar, w) for w in pt)))
                scalar = big.mul(scalar, alpha)
            sub = Subspace.from_vectors(rows, self.field, n)
            members.append(self.kspace_id[sub.basis])
        members.sort()
        spread = tuple(members)
        if self.union_if_disjoint(spread) != self.full_point_mask:
            raise RuntimeError("field-reduction spread does not partition the points")
        return spread

    def union_if_disjoint(self, ids) -> int | None:
        """Point mask of the union of k-spaces `ids`, or None when two meet."""
        union = 0
        for c in ids:
            m = self.kspace_masks[c]
            if union & m:
                return None
            union |= m
        return union

    def is_partial_spread(self, ids) -> bool:
        return self.union_if_disjoint(ids) is not None

    def are_conjugate_switching_sets(self, r1, r2) -> bool:
        """Two disjoint partial spreads covering exactly the same points."""
        if set(r1) & set(r2):
            return False
        union = self.union_if_disjoint(r1)
        return union is not None and union == self.union_if_disjoint(r2)

    def _spread_backtrack(
        self, member_ids, target_mask: int
    ) -> list[tuple[int, ...]]:
        masks = self.kspace_masks
        by_point: dict[int, list[int]] = {}
        for c in member_ids:
            low_point = (masks[c] & -masks[c]).bit_length() - 1
            by_point.setdefault(low_point, []).append(c)
        found: list[tuple[int, ...]] = []
        chosen: list[int] = []

        def rec(covered: int) -> None:
            if covered == target_mask:
                found.append(tuple(chosen))
                return
            free = ~covered & target_mask
            point = (free & -free).bit_length() - 1
            for c in by_point.get(point, ()):
                m = masks[c]
                if m & covered:
                    continue
                if m & ~target_mask:
                    continue
                chosen.append(c)
                rec(covered | m)
                chosen.pop()

        rec(0)
        found.sort()
        return found

    def enumerate_all_spreads(self) -> list[tuple[int, ...]]:
        """Complete list of k-spreads, by exhaustive backtracking over the
        lowest uncovered point.  Guarded: refuses geometries with more than
        DEFAULT_SPREAD_POINT_CAP points."""
        self._require_spread_divisibility()
        npts = len(self.points)
        if npts > DEFAULT_SPREAD_POINT_CAP:
            raise GeometrySizeError(
                f"spread enumeration guard: {npts} points exceeds cap {DEFAULT_SPREAD_POINT_CAP}"
            )
        return self._spread_backtrack(range(len(self.kspaces)), self.full_point_mask)

    def _local_spreads(self) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
        """The spreads of sigma0, the first (2k+1)-space, by rank: every k-space
        of sigma0 as the ranks of its points among sigma0's points, and every
        spread as the ranks of its k-spaces among sigma0's k-spaces, both lists
        in increasing id order.  Backtracked once per geometry."""
        if self._sigma0_spreads is None:
            p = self.params
            npts = qbinom(2 * p.k + 2, 1, p.q)
            if npts > DEFAULT_SPREAD_POINT_CAP:
                raise GeometrySizeError(
                    f"spread enumeration guard: a {2 * p.k + 1}-space has {npts} points, "
                    f"exceeding cap {DEFAULT_SPREAD_POINT_CAP}"
                )
            sigma0 = self.subspaces_of_dim(2 * p.k + 1)[0]
            target = self.point_mask(sigma0)
            members = self.all_in(sigma0)
            point_rank = {pid: i for i, pid in enumerate(ids_of(target))}
            kspaces = [
                tuple(point_rank[pid] for pid in ids_of(self.kspace_masks[c]))
                for c in members
            ]
            if len(members) != qbinom(2 * p.k + 2, p.k + 1, p.q) or any(
                len(s) != qbinom(p.k + 1, 1, p.q) for s in kspaces
            ):
                raise RuntimeError(f"the k-space masks of {sigma0.basis} are not its k-spaces")
            kspace_rank = {c: i for i, c in enumerate(members)}
            spreads = [
                tuple(kspace_rank[c] for c in s)
                for s in self._spread_backtrack(members, target)
            ]
            self._sigma0_spreads = (kspaces, spreads)
        return self._sigma0_spreads

    def _carried_kspaces(self, sigma: Subspace) -> tuple[int, ...]:
        """The ids of the k-spaces of a (2k+1)-space sigma, in the rank order
        of sigma0's k-spaces (`_local_spreads`), kept once per subspace;
        refused above DEFAULT_SPREAD_POINT_CAP points per subspace.

        With B the RREF basis of sigma, c -> c.B maps the coordinates of
        PG(2k+1,q) onto sigma and is strictly increasing in lexicographic
        order: c.B agrees with c on B's pivot columns, and before the pivot of
        row i it depends on c_0..c_(i-1) alone.  For a local RREF matrix M, M.B
        is again in RREF, so canonical points and bases map to canonical ones
        and the flattened order is kept.  Hence the i-th point of sigma is the
        image of the i-th point of sigma0, and the i-th k-space of sigma that
        of the i-th k-space of sigma0.  Each carried k-space is found as the
        AND of the pencils of its points; that it is one k-space, and that the
        ids increase, certify that the rank map is a collineation which keeps
        the order."""
        if sigma.dim != 2 * self.params.k + 1:
            raise ValueError(
                f"need a {2 * self.params.k + 1}-space, got dim {sigma.dim}"
            )
        ids = self._sigma_kspaces.get(sigma.basis)
        if ids is None:
            kspaces, _ = self._local_spreads()
            pts = ids_of(self.point_mask(sigma))
            pencils = self.pencil_masks
            carried = []
            for ranks in kspaces:
                star = self.full_kspace_mask
                for i in ranks:
                    star &= pencils[pts[i]]
                c = star.bit_length() - 1
                if star.bit_count() != 1 or (carried and c <= carried[-1]):
                    raise RuntimeError(
                        f"the rank map onto {sigma.basis} is not an order-keeping collineation"
                    )
                carried.append(c)
            ids = self._sigma_kspaces[sigma.basis] = tuple(carried)
        return ids

    def sigma_spread_masks(self, sigma: Subspace) -> list[int]:
        """All k-spreads of a (2k+1)-dimensional subspace, as k-space masks in
        increasing id-tuple order: sigma0's spreads carried by rank
        (`_carried_kspaces`), built on each call and not kept."""
        bits = [1 << c for c in self._carried_kspaces(sigma)]
        _, spreads = self._local_spreads()
        return [sum(map(bits.__getitem__, s)) for s in spreads]

    def sigma_rank_table(self) -> tuple[list[tuple[tuple[int, int], ...]], list[tuple[int, ...]]]:
        """(rows, spreads): rows[c] lists, by increasing rank r, the pairs
        (r, M) with M the mask of the indices s into subspaces_of_dim(2k+1)
        whose r-th carried k-space is c; spreads are sigma0's spreads by rank
        (`_local_spreads`).  So the spread j of subspace s meets a family L in
        the number of r in spreads[j] with bit s in the OR of L's M for r.
        Built on first use, from every subspace's carried k-spaces."""
        if self._sigma_rank_rows is None:
            cells: list[dict[int, int]] = [{} for _ in self.kspaces]
            for s, sigma in enumerate(self.subspaces_of_dim(2 * self.params.k + 1)):
                bit = 1 << s
                for r, c in enumerate(self._carried_kspaces(sigma)):
                    cell = cells[c]
                    cell[r] = cell.get(r, 0) | bit
            self._sigma_rank_rows = [tuple(sorted(cell.items())) for cell in cells]
        return self._sigma_rank_rows, self._local_spreads()[1]

    def spreads_within(self, sigma: Subspace) -> list[tuple[int, ...]]:
        """sigma_spread_masks(sigma) as id tuples, in increasing id order."""
        return [ids_of(m) for m in self.sigma_spread_masks(sigma)]

    # -- spreads sampled by coordinate permutations ---------------------------

    def _coordinate_permutations(self):
        count = math.factorial(self.params.n + 1)
        if count > DEFAULT_PERMUTATION_CAP:
            raise GeometrySizeError(
                f"{count} coordinate permutations exceed cap {DEFAULT_PERMUTATION_CAP}"
            )
        return itertools.permutations(range(self.params.n + 1))

    def _permuted_id(self, c: int, perm) -> int:
        """Id of the image of k-space c under a coordinate permutation."""
        moved = [tuple(row[j] for j in perm) for row in self.kspaces[c].basis]
        return self.kspace_id[rref(moved, self.field)]

    def permuted_spread_sample(self) -> list[tuple[int, ...]]:
        """Deduplicated images of the field-reduction spread under all
        coordinate permutations: a deterministic spread sample for
        geometries too large for exhaustive enumeration."""
        base = self.construct_spread()
        spreads = {base}
        for perm in self._coordinate_permutations():
            spreads.add(tuple(sorted(self._permuted_id(c, perm) for c in base)))
        return sorted(spreads)


_CTX_CACHE: dict[tuple[int, int, int], GeometryCtx] = {}


def geometry(n: int, k: int, q: int) -> GeometryCtx:
    """Shared GeometryCtx instances keyed by (n, k, q)."""
    key = (n, k, q)
    if key not in _CTX_CACHE:
        _CTX_CACHE[key] = GeometryCtx(SchemeParams(n=n, k=k, q=q))
    return _CTX_CACHE[key]
