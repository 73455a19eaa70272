import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    first_residual,
    fraction_rows,
    kernel_basis_fraction,
    residual_fraction,
    rref_fraction,
    scale_to_int,
)
from clkset import linalg
from clkset.linalg import (
    CertificateError,
    check_rref_certificate,
    kernel_vectors,
    modular_primes,
    rref_int,
)


def random_rows(rng, rows, cols, lo=-4, hi=4):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def certified_rref(rows):
    """rref_int of rows scaled to integers by the lcm of each row's
    denominators, in the oracle's (Fraction rows, pivots) form."""
    int_rows = []
    for row in rows:
        scale = lcm(*(Fraction(v).denominator for v in row))
        int_rows.append([int(Fraction(v) * scale) for v in row])
    pivots, free = rref_int(int_rows, len(rows[0]))
    return fraction_rows(pivots, free), pivots


def matvec(rows, v):
    return [sum(a * b for a, b in zip(row, v)) for row in rows]


class TestRref:
    def test_known_rank(self):
        pivots, _ = rref_int([[1, 2, 3], [2, 4, 6], [0, 1, 1]], 3)
        assert len(pivots) == 2

    def test_identity(self):
        rows = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
        assert rref_int(rows, 4) == ((0, 1, 2, 3), [])

    def test_rref_is_reduced(self):
        # the integer form: increasing pivots, the other columns free in
        # order, coefficients only at earlier pivots, and L the lcm of the
        # column's denominators (so L and the coefficients are coprime)
        rng = random.Random(3)
        for _ in range(25):
            ncols = rng.randint(1, 6)
            rows = random_rows(rng, rng.randint(1, 6), ncols)
            pivots, free = rref_int(rows, ncols)
            assert list(pivots) == sorted(set(pivots))
            assert [f for f, _, _ in free] == [c for c in range(ncols) if c not in pivots]
            for f, scale, supp in free:
                assert scale >= 1
                assert all(pcol in pivots and pcol < f for pcol, _ in supp)
                assert gcd(scale, *(coef for _, coef in supp)) == 1


@st.composite
def _matrices(draw, entries):
    """1..6 by 1..6 matrices, plus up to two repeated rows; zero rows and
    repeats make rank-deficient matrices common."""
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    row = st.one_of(st.just([0] * ncols), st.lists(entries, min_size=ncols, max_size=ncols))
    rows = draw(st.lists(row, min_size=nrows, max_size=nrows))
    return rows + [rows[i] for i in draw(st.lists(st.integers(0, nrows - 1), max_size=2))]


_SMALL_INTS = st.integers(-9, 9)
_RATIONALS = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))


class TestCertifiedRref:
    @settings(max_examples=300, deadline=None)
    @given(_matrices(_SMALL_INTS))
    def test_integer_matrices_match_oracle(self, rows):
        assert certified_rref(rows) == rref_fraction(rows)

    @settings(max_examples=300, deadline=None)
    @given(_matrices(_RATIONALS))
    def test_rational_matrices_match_oracle(self, rows):
        assert certified_rref(rows) == rref_fraction(rows)

    @pytest.mark.parametrize(
        "rows",
        [
            [[0]],
            [[5]],
            [[Fraction(-3, 7)]],
            [[0, 0, 0], [0, 0, 0]],
            [[0], [0], [0], [0]],
            [[1, 2, 3], [2, 4, 6], [3, 6, 9]],
            [[1], [2], [3], [4], [5], [6], [7]],
            [[1, 2, 3, 4, 5, 6, 7, 8]],
        ],
    )
    def test_edge_shapes_match_oracle(self, rows):
        assert certified_rref(rows) == rref_fraction(rows)

    def test_entry_needing_several_primes(self, monkeypatch):
        used = []

        def counted():
            for p in modular_primes():
                used.append(p)
                yield p

        monkeypatch.setattr(linalg, "modular_primes", counted)
        rows = [[3, 2**80 + 1]]
        result = certified_rref(rows)
        assert result == rref_fraction(rows)
        assert result[0][0][1] == Fraction(2**80 + 1, 3)
        assert len(used) > 1

    def test_prime_dividing_a_pivot(self):
        p1 = next(modular_primes())
        rows = [[p1, 1, 0], [0, 0, 1]]
        assert linalg._rref_mod(rows, 3, p1)[1] == (1, 2)
        result = certified_rref(rows)
        assert result == rref_fraction(rows)
        assert result[1] == (0, 2)

    def test_primes_descend_from_mersenne(self):
        gen = modular_primes()
        first = [next(gen) for _ in range(3)]
        assert first[0] == 2**61 - 1
        assert first == sorted(first, reverse=True)
        assert all(pow(2, p - 1, p) == 1 for p in first)


class TestRrefCertificate:
    ROWS = [[1, 0, 2, 1], [0, 1, 3, 1], [1, 1, 5, 2]]

    def test_correct_certificate_returns(self):
        pivots, free = rref_int(self.ROWS, 4)
        assert pivots == (0, 1)
        assert free == [(2, 1, ((0, 2), (1, 3))), (3, 1, ((0, 1), (1, 1)))]
        assert check_rref_certificate(self.ROWS, pivots, free) is None

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda free: [(2, 1, ((0, 2), (1, 4))), free[1]],  # wrong coefficient
            lambda free: [(2, 2, ((0, 2), (1, 3))), free[1]],  # wrong scale
            lambda free: [free[0], (3, 1, ((0, 1),))],  # dropped coefficient
            lambda free: [(2, 1, ((0, 2), (1, 3), (3, 0))), free[1]],  # entry at a non-pivot column
            lambda free: [free[1], free[0]],  # columns out of order
        ],
    )
    def test_tampered_certificate_raises(self, tamper):
        pivots, free = rref_int(self.ROWS, 4)
        with pytest.raises(CertificateError):
            check_rref_certificate(self.ROWS, pivots, tamper(free))


class TestKernel:
    def test_kernel_vectors_annihilated(self):
        rng = random.Random(5)
        for _ in range(25):
            ncols = rng.randint(1, 7)
            rows = random_rows(rng, rng.randint(1, 5), ncols)
            pivots, free = rref_int(rows, ncols)
            basis = kernel_vectors(free, ncols)
            for v in basis:
                assert not any(matvec(rows, v))
                assert gcd(*v) == 1
            assert len(basis) == ncols - len(pivots)

    def test_integer_scaling(self):
        v = [Fraction(1, 3), Fraction(-2, 5), Fraction(0)]
        assert scale_to_int(v) == (5, -6, 0)
        rng = random.Random(6)
        for _ in range(25):
            ncols = rng.randint(1, 7)
            rows = random_rows(rng, rng.randint(1, 5), ncols)
            frac_rows, pivots = rref_fraction(rows)
            expected = [scale_to_int(v) for v in kernel_basis_fraction(frac_rows, pivots, ncols)]
            assert kernel_vectors(rref_int(rows, ncols)[1], ncols) == expected


class TestRowspace:
    def test_rows_in_rowspace(self):
        rng = random.Random(7)
        for _ in range(10):
            rows = random_rows(rng, 4, 6)
            _, free = rref_int(rows, 6)
            for row in rows:
                assert first_residual(free, row) is None

    def test_combinations_in_rowspace(self):
        rng = random.Random(9)
        rows = random_rows(rng, 3, 6)
        combo = [(2 * a - b + 5 * c) for a, b, c in zip(*rows)]
        assert first_residual(rref_int(rows, 6)[1], combo) is None

    def test_rowspace_matches_kernel_orthogonality(self):
        rng = random.Random(11)
        rows = random_rows(rng, 4, 7)
        pivots, free = rref_int(rows, 7)
        kernel = kernel_vectors(free, 7)
        frac_rows, _ = rref_fraction(rows)
        for _ in range(100):
            v = [rng.randint(-3, 3) for _ in range(7)]
            miss = first_residual(free, v)
            by_kernel = next(
                (idx for idx, kv in enumerate(kernel) if sum(a * b for a, b in zip(v, kv))),
                None,
            )
            assert (miss is None) == (by_kernel is None)
            if miss is not None:
                assert miss[0] == by_kernel
                res = residual_fraction(frac_rows, pivots, v)
                assert miss[1] == next(c for c, x in enumerate(res) if x)


class TestEigenspace:
    def test_small_known_spectrum(self):
        # adjacency of the 4-cycle: eigenvalues 2, 0, -2
        c4 = [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]]

        def nullity(lam):
            shifted = [[v - lam * (r == c) for c, v in enumerate(row)] for r, row in enumerate(c4)]
            return 4 - len(rref_int(shifted, 4)[0])

        assert [nullity(lam) for lam in (2, 0, -2, 1)] == [1, 2, 1, 0]
