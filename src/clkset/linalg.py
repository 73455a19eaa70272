"""Exact linear algebra over the rationals, decided over the integers.

There is no floating point and therefore no tolerance anywhere.  The one
elimination routine is `rref_int`: Gauss–Jordan modulo a 61-bit prime,
rational reconstruction of the reduced row echelon form, and an exact
certificate checked over the integers (`check_rref_certificate`).  When the
certificate fails (the prime divides a minor, or the entries need a larger
modulus) the next prime is taken and the residues of the primes that agree
on the pivots are combined by the Chinese remainder theorem (Dixon, Numer.
Math. 40, 1982).  A modular result never decides anything until that check
passes.

Everything else reads `rref_int`'s integer form `(pivots, free columns)`:
the rank is the number of pivots and `kernel_vectors` gives a primitive
integer kernel basis; row-space membership is read off the same form by
`scheme.LinearTerms`.
"""

from __future__ import annotations

from math import gcd, isqrt, lcm

# (f, L, ((pivot column, L * R[r][f]), ...)) for one non-pivot column f of the
# RREF R: L is the lcm of the column's denominators, and only nonzero
# coefficients are listed, in row order.
FreeColumn = tuple[int, int, tuple[tuple[int, int], ...]]


class CertificateError(ArithmeticError):
    """An RREF candidate failed its exact check over the integers."""


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981  # about 3.3 * 10^24


def _is_prime(n: int) -> bool:
    """Miller–Rabin with the first thirteen primes as bases: deterministic for
    every n below MR_EXACT_BELOW, far above the 61-bit range of the modular
    primes; above it a False is still exact, a True only probable."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def modular_primes():
    """The primes below 2^61 in descending order, starting at 2^61 - 1."""
    n = (1 << 61) - 1
    while n > 2:
        if _is_prime(n):
            yield n
        n -= 2


def _rref_mod(rows, ncols: int, p: int) -> tuple[list[list[int]], tuple[int, ...]]:
    """Gauss–Jordan modulo p: (the rank-many nonzero RREF rows, pivots)."""
    work = [[v % p for v in row] for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == len(work):
            break
        for i in range(r, len(work)):
            if work[i][c]:
                break
        else:
            continue
        work[r], work[i] = work[i], work[r]
        # rows r.. are zero left of c, so every update touches columns c.. only
        inv = pow(work[r][c], -1, p)
        tail = [v * inv % p for v in work[r][c:]]
        work[r][c:] = tail
        for i, row in enumerate(work):
            f = row[c]
            if f and i != r:
                row[c:] = [(a - f * b) % p for a, b in zip(row[c:], tail)]
        pivots.append(c)
        r += 1
    return work[:r], tuple(pivots)


def _reconstruct(x: int, m: int, bound: int) -> tuple[int, int] | None:
    """The fraction n/d with n = x*d mod m, |n| <= bound and 0 < d <= bound,
    in lowest terms, or None (Wang's half-extended Euclid)."""
    r0, r1, s0, s1 = m, x, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if s1 < 0:
        r1, s1 = -r1, -s1
    if s1 > bound or gcd(r1, s1) != 1:
        return None
    return r1, s1


def _free_columns(
    residues: list[int], m: int, pivots: tuple[int, ...], free: list[int]
) -> list[FreeColumn] | None:
    """Rational reconstruction of the non-pivot RREF entries, stored column
    by column in `residues` modulo m; None when an entry has no preimage."""
    bound = isqrt((m - 1) // 2)
    rank = len(pivots)
    out: list[FreeColumn] = []
    for j, f in enumerate(free):
        fracs = []
        for r in range(rank):
            x = residues[j * rank + r]
            if x <= bound:
                fracs.append((x, 1))
            elif m - x <= bound:
                fracs.append((x - m, 1))
            else:
                nd = _reconstruct(x, m, bound)
                if nd is None:
                    return None
                fracs.append(nd)
        scale = lcm(*(d for _, d in fracs))
        supp = tuple(
            (pivots[r], n * (scale // d)) for r, (n, d) in enumerate(fracs) if n
        )
        out.append((f, scale, supp))
    return out


def check_rref_certificate(rows, pivots: tuple[int, ...], free_columns: list[FreeColumn]) -> None:
    """Raise CertificateError unless (pivots, free_columns) is the RREF of
    the integer matrix `rows`, given pivot columns that are independent.

    Checked here: the pivots are increasing and the free columns are the
    others, in order; every coefficient of free column f sits at a pivot
    column < f; and L * A[:, f] == sum(coef * A[:, pivot]) over the
    integers, one big-int equation per column with one slot per row.  The
    independence is the caller's: rref_int takes the pivots from elimination
    modulo a prime, where the pivot columns have full rank, so they have a
    minor that is nonzero modulo p and hence over Z.  Together these make
    every pivot column independent of the columns before it and every free
    column dependent on them, so the pivots are the rational ones and the
    coefficients give the unique RREF.
    """
    ncols = len(pivots) + len(free_columns)
    if any(len(row) != ncols for row in rows):
        raise CertificateError("row length differs from pivots plus free columns")
    pivot_set = set(pivots)
    if list(pivots) != sorted(pivot_set) or [f for f, _, _ in free_columns] != [
        c for c in range(ncols) if c not in pivot_set
    ]:
        raise CertificateError("pivots and free columns do not partition the columns")
    worst = 1
    for f, scale, supp in free_columns:
        if scale < 1 or any(pcol not in pivot_set or pcol >= f for pcol, _ in supp):
            raise CertificateError(f"free column {f} is not in echelon form")
        worst = max(worst, scale + sum(abs(coef) for _, coef in supp))
    amax = max((abs(v) for row in rows for v in row), default=0)
    # every slot of the difference has |value| <= worst * amax < 2^(width-1)
    width = (worst * amax).bit_length() + 2
    cols = [0] * ncols
    for r, row in enumerate(rows):
        shift = width * r
        for c, v in enumerate(row):
            if v:
                cols[c] += v << shift
    for f, scale, supp in free_columns:
        if scale * cols[f] != sum(coef * cols[pcol] for pcol, coef in supp):
            raise CertificateError(f"free column {f} is not the stated combination")


def rref_int(rows, ncols: int) -> tuple[tuple[int, ...], list[FreeColumn]]:
    """Certified RREF of an integer matrix: (pivot columns, free columns).

    Each prime gives a candidate pivot tuple; the largest rank, then the
    lexicographically smallest tuple, is the one kept (an unlucky prime can
    only lose rank or push a pivot right).  Residues of the primes that agree
    on it are combined until reconstruction passes the certificate.
    """
    best = None
    residues: list[int] = []
    modulus = 1
    for p in modular_primes():
        red, pivots = _rref_mod(rows, ncols, p)
        pivot_set = set(pivots)
        free = [c for c in range(ncols) if c not in pivot_set]
        res = [row[f] for f in free for row in red]
        key = (-len(pivots), pivots)
        if best is None or key < best:
            best, residues, modulus = key, res, p
        elif key == best:
            inv = pow(modulus, -1, p)
            residues = [x + modulus * ((y - x) * inv % p) for x, y in zip(residues, res)]
            modulus *= p
        else:
            continue
        free_columns = _free_columns(residues, modulus, pivots, free)
        if free_columns is None:
            continue
        try:
            check_rref_certificate(rows, pivots, free_columns)
        except CertificateError:
            continue
        return pivots, free_columns
    raise CertificateError("ran out of 61-bit primes")


def kernel_vectors(free_columns: list[FreeColumn], ncols: int) -> list[tuple[int, ...]]:
    """Primitive integer basis of the right kernel, one vector per free
    column f of the RREF: L at f and minus each coefficient at its pivot."""
    basis = []
    for f, scale, supp in free_columns:
        v = [0] * ncols
        v[f] = scale
        for pcol, coef in supp:
            v[pcol] = -coef
        basis.append(tuple(v))
    return basis
