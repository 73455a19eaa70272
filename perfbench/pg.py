"""PG(n,p) over a prime field, written apart from clkset.

The benchmark generates its inputs and checks the program's outputs with this
module only, so a fault in the program's enumeration, incidence or counting
code cannot hide behind the same fault in the checker.  Points are normalised
vectors (leftmost nonzero entry 1); a subspace is its canonical reduced row
echelon basis, the same text the CLKSET v1 format stores.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def gauss(a: int, b: int, q: int) -> int:
    """Gaussian binomial [a choose b]_q, zero outside 0 <= b <= a."""
    if b < 0 or a < 0 or b > a:
        return 0
    num = den = 1
    for i in range(b):
        num *= q ** (a - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def valence(i: int, n: int, k: int, q: int) -> int:
    """k-spaces meeting a fixed k-space of PG(n,q) in dimension k-i."""
    return q ** (i * i) * gauss(k + 1, i, q) * gauss(n - k, i, q)


def disjoint_coefficient(n: int, k: int, q: int) -> int:
    """q^(k^2+k) [n-k-1 choose k]_q: the closed-form disjointness scale."""
    return q ** (k * k + k) * gauss(n - k - 1, k, q)


def _normalised(n: int, p: int) -> list[tuple[int, ...]]:
    out = []
    for lead in range(n + 1):
        for tail in itertools.product(range(p), repeat=n - lead):
            out.append((0,) * lead + (1,) + tail)
    out.sort()
    return out


def _rref_bases(n: int, k: int, p: int):
    cols = n + 1
    for pivots in itertools.combinations(range(cols), k + 1):
        cells = [
            (r, c)
            for r in range(k + 1)
            for c in range(pivots[r] + 1, cols)
            if c not in pivots
        ]
        for values in itertools.product(range(p), repeat=len(cells)):
            mat = [[0] * cols for _ in range(k + 1)]
            for r, c in enumerate(pivots):
                mat[r][c] = 1
            for (r, c), v in zip(cells, values):
                mat[r][c] = v
            yield tuple(tuple(row) for row in mat)


class Space:
    """The points and k-spaces of PG(n,p), p prime, with point bitmasks."""

    def __init__(self, n: int, k: int, p: int):
        if p < 2 or any(p % d == 0 for d in range(2, p)):
            raise ValueError(f"prime field required, got q={p}")
        self.n, self.k, self.q = n, k, p
        self.points = _normalised(n, p)
        self.point_index = {v: i for i, v in enumerate(self.points)}
        self.kspaces = sorted(_rref_bases(n, k, p), key=lambda m: sum(m, ()))
        self.index = {m: i for i, m in enumerate(self.kspaces)}
        coeffs = _normalised(k, p)
        self.masks = []
        for mat in self.kspaces:
            mask = 0
            for co in coeffs:
                vec = tuple(
                    sum(c * row[j] for c, row in zip(co, mat)) % p for j in range(n + 1)
                )
                mask |= 1 << self.point_index[vec]
            self.masks.append(mask)
        if len(self.kspaces) != gauss(n + 1, k + 1, p):
            raise AssertionError("k-space enumeration is incomplete")

    def hyperplane_mask(self, normal: tuple[int, ...]) -> int:
        """Points x with normal . x = 0."""
        mask = 0
        for i, v in enumerate(self.points):
            if sum(a * b for a, b in zip(normal, v)) % self.q == 0:
                mask |= 1 << i
        return mask

    def pencil(self, point: int) -> frozenset[int]:
        return frozenset(c for c, m in enumerate(self.masks) if (m >> point) & 1)

    def inside(self, point_mask: int) -> frozenset[int]:
        return frozenset(c for c, m in enumerate(self.masks) if m & ~point_mask == 0)

    def parameter(self, size: int) -> Fraction:
        return Fraction(size, gauss(self.n, self.k, self.q))

    def is_member(self, family) -> bool:
        """Whether every k-space sees exactly (x - chi) q^(k^2+k) [n-k-1,k]_q
        members disjoint from it: the disjointness-count definition."""
        fam = frozenset(family)
        x = self.parameter(len(fam))
        coeff = disjoint_coefficient(self.n, self.k, self.q)
        members = [self.masks[c] for c in fam]
        for c, m in enumerate(self.masks):
            seen = 0
            for fm in members:
                if not fm & m:
                    seen += 1
            if seen != (x - (c in fam)) * coeff:
                return False
        return True

    def to_text(self, family) -> str:
        """CLKSET v1 text of a family (prime field: no POLY line)."""
        lines = ["CLKSET v1", f"{self.n} {self.q} {self.k}"]
        for c in sorted(family):
            lines.append(" ".join(str(v) for row in self.kspaces[c] for v in row))
        return "\n".join(lines) + "\n"

    def from_text(self, text: str) -> frozenset[int]:
        """Parse CLKSET v1 text into k-space indices; raises ValueError."""
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if len(lines) < 2 or lines[0].strip() != "CLKSET v1":
            raise ValueError("missing CLKSET v1 header")
        if tuple(int(v) for v in lines[1].split()) != (self.n, self.q, self.k):
            raise ValueError(f"parameter line {lines[1]!r} does not match")
        width = self.n + 1
        ids = []
        for ln in lines[2:]:
            vals = tuple(int(v) for v in ln.split())
            mat = tuple(vals[r * width : (r + 1) * width] for r in range(self.k + 1))
            if len(vals) != width * (self.k + 1) or mat not in self.index:
                raise ValueError(f"not a canonical {self.k}-space: {ln!r}")
            ids.append(self.index[mat])
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate k-space")
        return frozenset(ids)
