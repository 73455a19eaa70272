"""Finite field arithmetic GF(p^e) with a deterministic canonical modulus.

Elements are encoded as integer indices in [0, q): the polynomial
c_0 + c_1*a + ... + c_{e-1}*a^{e-1} has index c_0 + c_1*p + ... + c_{e-1}*p^{e-1}.
The modulus is the monic irreducible polynomial of degree e over GF(p) whose
base-p coefficient encoding is smallest; this makes canonical subspace forms
and serialized files bit-identical across runs and platforms.
"""

from __future__ import annotations

from functools import lru_cache

from .qformulas import factor_prime_power


def _poly_trim(c: list[int]) -> tuple[int, ...]:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a: tuple[int, ...], m: tuple[int, ...], p: int) -> tuple[int, ...]:
    a = list(a)
    dm = len(m) - 1
    inv_lead = pow(m[-1], p - 2, p)
    while len(a) - 1 >= dm and a:
        shift = len(a) - 1 - dm
        factor = (a[-1] * inv_lead) % p
        for i, mi in enumerate(m):
            a[shift + i] = (a[shift + i] - factor * mi) % p
        _poly_trim(a)
    return tuple(a)


def _index_to_poly(idx: int, p: int) -> tuple[int, ...]:
    c = []
    while idx:
        idx, digit = divmod(idx, p)
        c.append(digit)
    return tuple(c)


def _poly_to_index(c: tuple[int, ...], p: int) -> int:
    idx = 0
    for digit in reversed(c):
        idx = idx * p + digit
    return idx


def _is_irreducible(m: tuple[int, ...], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg(m)/2."""
    deg = len(m) - 1
    if deg <= 0:
        return False
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for idx in range(p**d):
            div = _index_to_poly(idx, p) + (0,) * (d - len(_index_to_poly(idx, p)))
            div = tuple(div[:d]) + (1,)
            if not _poly_mod(m, div, p):
                return False
    return True


def canonical_modulus(p: int, e: int) -> tuple[int, ...]:
    """Smallest (by base-p encoding of the coefficient list) monic
    irreducible polynomial of degree e over GF(p)."""
    if e == 1:
        return (0, 1)
    for idx in range(p**e):
        low = _index_to_poly(idx, p)
        m = tuple(low) + (0,) * (e - len(low)) + (1,)
        if _is_irreducible(m, p):
            return m
    raise RuntimeError(f"no irreducible polynomial of degree {e} over GF({p})")


class FieldCtx:
    """Arithmetic tables for GF(q), q = p^e, over the canonical modulus.

    All operations take and return element indices (plain ints); inner loops
    may index add_table[a][b] = a + b and mul_table[a][b] = a * b directly.
    """

    __slots__ = ("p", "e", "q", "modulus", "mul_table", "_inv", "add_table", "_neg")

    def __init__(self, q: int):
        self.p, self.e = factor_prime_power(q)
        self.q = q
        self.modulus = canonical_modulus(self.p, self.e)
        if not _is_irreducible(self.modulus, self.p) and self.e > 1:
            raise RuntimeError("canonical modulus failed irreducibility check")
        self._build_tables()

    def _build_tables(self) -> None:
        p, q = self.p, self.q
        polys = [_index_to_poly(i, p) for i in range(q)]
        add = [[0] * q for _ in range(q)]
        mul = [[0] * q for _ in range(q)]
        for a in range(q):
            pa = polys[a]
            for b in range(a, q):
                pb = polys[b]
                width = max(len(pa), len(pb))
                s = _poly_trim(
                    [
                        ((pa[i] if i < len(pa) else 0) + (pb[i] if i < len(pb) else 0))
                        % p
                        for i in range(width)
                    ]
                )
                add[a][b] = add[b][a] = _poly_to_index(s, p)
                prod = _poly_mod(_poly_mul(pa, pb, p), self.modulus, p)
                mul[a][b] = mul[b][a] = _poly_to_index(prod, p)
        self.add_table = add
        self.mul_table = mul
        neg = [0] * q
        inv = [0] * q
        for a in range(q):
            for b in range(q):
                if add[a][b] == 0:
                    neg[a] = b
                if a and mul[a][b] == 1:
                    inv[a] = b
        self._neg = neg
        self._inv = inv

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def sub(self, a: int, b: int) -> int:
        return self.add_table[a][self._neg[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in a finite field")
        return self._inv[a]

    def elements(self) -> range:
        return range(self.q)

    def __repr__(self) -> str:  # pragma: no cover
        return f"FieldCtx(q={self.q}, modulus={self.modulus})"


@lru_cache(maxsize=None)
def field_ctx(q: int) -> FieldCtx:
    return FieldCtx(q)


class FieldReduction:
    """Linear bijection GF(q^d) <-> GF(q)^d relative to the canonical models.

    `big` must be GF(q^d) for `small` = GF(q), same characteristic.  The
    small field embeds via the smallest root of its modulus inside the big
    field; each big element decomposes uniquely over the basis 1, a, ...,
    a^{d-1} (a the canonical generator of the big field) with coefficients
    in the embedded subfield.
    """

    def __init__(self, big: FieldCtx, small: FieldCtx):
        if big.p != small.p:
            raise ValueError("fields must share their characteristic")
        if big.e % small.e:
            raise ValueError(
                f"GF({small.q}) does not embed into GF({big.q}): {small.e} does not divide {big.e}"
            )
        self.big = big
        self.small = small
        self.degree = big.e // small.e
        self._embed = self._embedding_table()
        self._expand = self._expansion_table()

    def _embedding_table(self) -> list[int]:
        big, small = self.big, self.small
        root = None
        for w in range(big.q):
            acc = 0
            power = 1
            for coeff in small.modulus:
                if coeff:
                    acc = big.add(acc, big.mul(coeff, power))
                power = big.mul(power, w)
            if acc == 0:
                root = w
                break
        if root is None:
            raise RuntimeError("no embedding root found")
        table = []
        for c in range(small.q):
            acc = 0
            power = 1
            for digit in _index_to_poly(c, small.p) or (0,):
                acc = big.add(acc, big.mul(digit, power))
                power = big.mul(power, root)
            table.append(acc)
        return table

    def _expansion_table(self) -> dict[int, tuple[int, ...]]:
        big = self.big
        alpha = big.p if big.e > 1 else 0  # class of x, or irrelevant for d = 1
        if self.degree == 1:
            return {w: (w,) for w in range(big.q)}
        basis = [1]
        for _ in range(self.degree - 1):
            basis.append(big.mul(basis[-1], alpha))
        table: dict[int, tuple[int, ...]] = {}

        def rec(t: int, acc: int, coeffs: tuple[int, ...]) -> None:
            if t == self.degree:
                table[acc] = coeffs
                return
            for c in range(self.small.q):
                rec(
                    t + 1,
                    big.add(acc, big.mul(self._embed[c], basis[t])),
                    coeffs + (c,),
                )

        rec(0, 0, ())
        if len(table) != big.q:
            raise RuntimeError("basis expansion is not a bijection")
        return table

    def embed(self, c: int) -> int:
        """Image of a small-field element in the big field."""
        return self._embed[c]

    def expand(self, w: int) -> tuple[int, ...]:
        """Coordinates of a big-field element over the small field."""
        return self._expand[w]

    def expand_vector(self, vec: tuple[int, ...]) -> tuple[int, ...]:
        out: tuple[int, ...] = ()
        for w in vec:
            out += self._expand[w]
        return out
