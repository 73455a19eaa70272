import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import rref_fraction
from clkset import linalg
from clkset.linalg import (
    CertificateError,
    ExactMatrix,
    check_rref_certificate,
    dot_int,
    modular_primes,
    rref_int,
    scale_to_int,
)


def random_matrix(rng, rows, cols, lo=-4, hi=4):
    return ExactMatrix(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]
    )


class TestRref:
    def test_known_rank(self):
        m = ExactMatrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
        assert m.rank() == 2

    def test_identity(self):
        m = ExactMatrix.identity(4)
        rows, pivots = m.rref()
        assert pivots == (0, 1, 2, 3)
        assert rows == ExactMatrix.identity(4).rows

    def test_rref_is_reduced(self):
        rng = random.Random(3)
        for _ in range(25):
            m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
            rows, pivots = m.rref()
            for r, p in enumerate(pivots):
                assert rows[r][p] == 1
                for r2 in range(len(rows)):
                    if r2 != r:
                        assert rows[r2][p] == 0


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
        assert ExactMatrix(rows).rref() == rref_fraction(rows)

    @settings(max_examples=300, deadline=None)
    @given(_matrices(_RATIONALS))
    def test_rational_matrices_match_oracle(self, rows):
        assert ExactMatrix(rows).rref() == rref_fraction(rows)

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
        assert ExactMatrix(rows).rref() == rref_fraction(rows)

    def test_entry_needing_several_primes(self, monkeypatch):
        used = []

        def counted():
            for p in modular_primes():
                used.append(p)
                yield p

        monkeypatch.setattr(linalg, "modular_primes", counted)
        rows = [[3, 2**80 + 1]]
        result = ExactMatrix(rows).rref()
        assert result == rref_fraction(rows)
        assert result[0][0][1] == Fraction(2**80 + 1, 3)
        assert len(used) > 1

    def test_prime_dividing_a_pivot(self):
        p1 = next(modular_primes())
        rows = [[p1, 1, 0], [0, 0, 1]]
        assert linalg._rref_mod(rows, 3, p1)[1] == (1, 2)
        result = ExactMatrix(rows).rref()
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
            m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 7))
            for v in m.kernel_basis():
                assert not any(m.matvec(v))
            assert len(m.kernel_basis()) == m.ncols - m.rank()

    def test_integer_scaling(self):
        v = [Fraction(1, 3), Fraction(-2, 5), Fraction(0)]
        iv = scale_to_int(v)
        assert iv == (5, -6, 0)


class TestRowspace:
    def test_rows_in_rowspace(self):
        rng = random.Random(7)
        for _ in range(10):
            m = random_matrix(rng, 4, 6)
            for row in m.rows:
                assert m.in_rowspace(row)

    def test_combinations_in_rowspace(self):
        rng = random.Random(9)
        m = random_matrix(rng, 3, 6)
        combo = [
            (2 * a - b + 5 * c)
            for a, b, c in zip(m.rows[0], m.rows[1], m.rows[2])
        ]
        assert m.in_rowspace(combo)

    def test_rowspace_matches_kernel_orthogonality(self):
        rng = random.Random(11)
        m = random_matrix(rng, 4, 7)
        kernel = m.kernel_basis()
        for _ in range(100):
            v = [rng.randint(-3, 3) for _ in range(7)]
            by_residual = m.in_rowspace(v)
            by_kernel = all(
                sum(Fraction(a) * b for a, b in zip(v, kv)) == 0 for kv in kernel
            )
            assert by_residual == by_kernel


class TestEigenspace:
    def test_small_known_spectrum(self):
        # adjacency of the 4-cycle: eigenvalues 2, 0, -2
        c4 = ExactMatrix(
            [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]]
        )
        assert len(c4.eigenspace_basis(2)) == 1
        assert len(c4.eigenspace_basis(0)) == 2
        assert len(c4.eigenspace_basis(-2)) == 1
        assert len(c4.eigenspace_basis(1)) == 0

    def test_matmul_identity(self):
        rng = random.Random(13)
        m = random_matrix(rng, 4, 4)
        assert m.matmul(ExactMatrix.identity(4)) == m


def test_dot_int():
    assert dot_int((1, 2, 3), (4, -5, 6)) == 12
