"""Dense exact linear algebra over the rationals.

Everything is built on `fractions.Fraction`; there is no floating point and
therefore no tolerance anywhere.  Elimination pivots on the smallest-magnitude
nonzero entry of the current column, which keeps numerator/denominator growth
modest on the integer matrices this package produces.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def _frac_rows(rows) -> list[list[Fraction]]:
    return [[Fraction(v) for v in row] for row in rows]


class ExactMatrix:
    """Immutable-by-convention dense matrix of Fractions."""

    def __init__(self, rows):
        self.rows = _frac_rows(rows)
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        if any(len(r) != self.ncols for r in self.rows):
            raise ValueError("ragged rows")
        self._rref: tuple[list[list[Fraction]], tuple[int, ...]] | None = None

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def shape(self) -> tuple[int, int]:
        return self.nrows, self.ncols

    def __getitem__(self, rc):
        r, c = rc
        return self.rows[r][c]

    def row(self, r: int) -> list[Fraction]:
        return self.rows[r]

    def matvec(self, v) -> list[Fraction]:
        if len(v) != self.ncols:
            raise ValueError("dimension mismatch")
        return [
            sum((row[j] * v[j] for j in range(self.ncols) if v[j]), Fraction(0))
            for row in self.rows
        ]

    def matmul(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        cols = list(zip(*other.rows))
        return ExactMatrix(
            [
                [sum((a * b for a, b in zip(row, col) if a and b), Fraction(0)) for col in cols]
                for row in self.rows
            ]
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, ExactMatrix) and self.rows == other.rows

    def add_scaled_identity(self, scale) -> "ExactMatrix":
        if self.nrows != self.ncols:
            raise ValueError("square matrix required")
        out = [row[:] for row in self.rows]
        for i in range(self.nrows):
            out[i][i] += scale
        return ExactMatrix(out)

    # -- elimination --------------------------------------------------------

    def rref(self) -> tuple[list[list[Fraction]], tuple[int, ...]]:
        """Reduced row echelon form; returns (rows, pivot column indices).

        Cached: the matrix must not be mutated after the first call.
        """
        if self._rref is not None:
            return self._rref
        work = [row[:] for row in self.rows]
        pivots: list[int] = []
        r = 0
        for c in range(self.ncols):
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
            inv = 1 / work[r][c]
            if inv != 1:
                work[r] = [v * inv for v in work[r]]
            for i in range(len(work)):
                if i != r and work[i][c]:
                    f = work[i][c]
                    row_r = work[r]
                    work[i] = [a - f * b for a, b in zip(work[i], row_r)]
            pivots.append(c)
            r += 1
            if r == len(work):
                break
        rows = [row for row in work[:r]]
        self._rref = (rows, tuple(pivots))
        return self._rref

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> list[list[Fraction]]:
        """Basis of the right kernel, one vector per free column."""
        rows, pivots = self.rref()
        pivot_set = set(pivots)
        basis = []
        for f in range(self.ncols):
            if f in pivot_set:
                continue
            v = [Fraction(0)] * self.ncols
            v[f] = Fraction(1)
            for r, p in enumerate(pivots):
                v[p] = -rows[r][f]
            basis.append(v)
        return basis

    def reduce_against(self, v) -> list[Fraction]:
        """Residual of v after elimination against this matrix's RREF rows."""
        rows, pivots = self.rref()
        res = [Fraction(x) for x in v]
        for r, p in enumerate(pivots):
            f = res[p]
            if f:
                row = rows[r]
                res = [a - f * b for a, b in zip(res, row)]
        return res

    def in_rowspace(self, v) -> bool:
        return not any(self.reduce_against(v))

    def eigenspace_basis(self, eigenvalue) -> list[list[Fraction]]:
        """Basis of ker(self - eigenvalue * I)."""
        return self.add_scaled_identity(-Fraction(eigenvalue)).kernel_basis()


def scale_to_int(v) -> tuple[int, ...]:
    """Scale a rational vector to a primitive integer vector (sign kept)."""
    lcm = 1
    for x in v:
        d = Fraction(x).denominator
        lcm = lcm // gcd(lcm, d) * d
    ints = [int(Fraction(x) * lcm) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    return tuple(ints)


def dot_int(a, b) -> int:
    return sum(x * y for x, y in zip(a, b) if x and y)
