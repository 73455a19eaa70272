import math
import time
from fractions import Fraction

import pytest
from _oracles import (
    count_subspaces_bruteforce,
    disjoint_count_bruteforce,
    factor_prime_power_trial,
    first_disjoint_pair,
    skew_pair_profile_bruteforce,
    valence_distribution_bruteforce,
)

from clkset import (
    SchemeParams,
    count_disjoint,
    eigenvalue_p,
    eigenvalue_separated,
    excludes_skew_subfamily,
    geometry,
    member_meet_count,
    pair_meet_count_bound,
    pair_skew_count,
    pair_skew_count_bound,
    parameter_range,
    qbinom,
    skew_pair_component,
    skew_pair_outer_point,
    skew_pair_span_point,
    skew_pair_total,
    valence,
    within_classification_bound,
)
from clkset.qformulas import (
    classification_bound_fourth_power,
    factor_prime_power,
    is_prime_power,
    meet_count_target,
)


def test_prime_power_decomposition():
    assert factor_prime_power(2) == (2, 1)
    assert factor_prime_power(9) == (3, 2)
    assert factor_prime_power(16) == (2, 4)
    assert factor_prime_power(7) == (7, 1)
    for bad in (1, 6, 12, 15, 100):
        with pytest.raises(ValueError):
            factor_prime_power(bad)
    assert is_prime_power(8) and not is_prime_power(6)


def test_prime_power_decomposition_matches_trial_division():
    for q in range(5000):
        expected = factor_prime_power_trial(q)
        if expected is None:
            with pytest.raises(ValueError):
                factor_prime_power(q)
        else:
            assert factor_prime_power(q) == expected


def test_prime_power_decomposition_of_large_q():
    start = time.perf_counter()
    assert factor_prime_power(10**14 + 31) == (10**14 + 31, 1)
    assert time.perf_counter() - start < 0.05
    assert factor_prime_power(2**100) == (2, 100)
    assert factor_prime_power((2**61 - 1) ** 3) == (2**61 - 1, 3)
    with pytest.raises(ValueError, match="not a prime power"):
        factor_prime_power((10**7 + 19) * (10**7 + 79))
    with pytest.raises(ValueError, match="cannot decide"):
        factor_prime_power(2**127 - 1)  # prime, above the exact Miller–Rabin range


class TestQbinom:
    def test_trivial_values(self):
        assert qbinom(5, 0, 3) == 1
        assert qbinom(3, 1, 2) == 7
        assert qbinom(2, 5, 2) == 0

    def test_against_bruteforce(self):
        # matrix-enumeration oracle, kept to sizes where q^(a*b) is small
        assert count_subspaces_bruteforce(4, 2, 2) == 35
        assert qbinom(4, 2, 2) == 35
        for q, cap in ((2, 16), (3, 9)):
            for a in range(1, 7):
                for b in range(1, a + 1):
                    if a * b > cap:
                        continue
                    assert qbinom(a, b, q) == count_subspaces_bruteforce(a, b, q)

    def test_symmetry(self):
        for q in (2, 3, 4, 5, 7, 8, 9):
            for a in range(13):
                for b in range(a + 1):
                    assert qbinom(a, b, q) == qbinom(a, a - b, q)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            qbinom(3, 1, 1)
        with pytest.raises(ValueError):
            qbinom(-1, 0, 2)


class TestCountDisjoint:
    def test_frozen_examples(self):
        assert count_disjoint(3, 2, 1, 1) == 16
        assert count_disjoint(3, 2, 2, 1) == 0
        assert count_disjoint(5, 2, 2, 2) == 512

    def test_against_geometry(self):
        ctx = geometry(3, 1, 2)
        assert disjoint_count_bruteforce(ctx, 1, 1) == 16
        assert disjoint_count_bruteforce(ctx, 2, 1) == 0
        for m in range(4):
            for j in range(4):
                assert count_disjoint(3, 2, m, j) == disjoint_count_bruteforce(
                    ctx, m, j
                )

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            count_disjoint(3, 2, 4, 1)


class TestEigenvalues:
    def test_distance_zero_is_identity(self):
        for n, k, q in ((3, 1, 2), (4, 1, 2), (5, 2, 2), (4, 2, 3)):
            p = SchemeParams(n=n, k=k, q=q)
            for j in range(k + 2):
                assert eigenvalue_p(j, 0, p) == 1

    def test_valence_frozen(self):
        p = SchemeParams(n=3, k=1, q=2)
        assert eigenvalue_p(0, 1, p) == 18
        assert eigenvalue_p(1, 2, p) == -4

    def test_valence_closed_form(self):
        for n, k, q in ((3, 1, 2), (4, 1, 2), (5, 2, 2), (5, 1, 3), (4, 2, 3)):
            p = SchemeParams(n=n, k=k, q=q)
            for i in range(k + 2):
                assert eigenvalue_p(0, i, p) == valence(i, p)

    def test_valence_sum_is_total(self):
        for n, k, q in ((3, 1, 2), (4, 1, 2), (5, 2, 2), (5, 1, 3)):
            p = SchemeParams(n=n, k=k, q=q)
            assert sum(valence(i, p) for i in range(k + 2)) == p.num_kspaces

    def test_distribution_against_geometry(self):
        for n, k, q in ((3, 1, 2), (4, 1, 2), (4, 2, 2)):
            p = SchemeParams(n=n, k=k, q=q)
            ctx = geometry(n, k, q)
            brute = valence_distribution_bruteforce(ctx, 0)
            assert brute == [valence(i, p) for i in range(k + 2)]

    def test_first_row_closed_forms(self):
        # P_{1i} = qbinom(n-k,i) qbinom(k,i) q^(i^2) - qbinom(k+1,i) qbinom(n-k-1,i-1) q^(i(i-1))
        for n, k, q in ((3, 1, 2), (4, 1, 2), (5, 2, 2), (6, 2, 3)):
            p = SchemeParams(n=n, k=k, q=q)
            for i in range(1, k + 2):
                closed = qbinom(n - k, i, q) * (
                    qbinom(k, i, q) if i <= k else 0
                ) * q ** (i * i) - qbinom(k + 1, i, q) * (
                    qbinom(n - k - 1, i - 1, q)
                ) * q ** (
                    i * (i - 1)
                )
                assert eigenvalue_p(1, i, p) == closed
            assert eigenvalue_p(1, k + 1, p) == -(
                q ** (k * k + k)
            ) * qbinom(n - k - 1, k, q)

    def test_rejects_out_of_range(self):
        p = SchemeParams(n=3, k=1, q=2)
        with pytest.raises(ValueError):
            eigenvalue_p(3, 1, p)
        with pytest.raises(ValueError):
            eigenvalue_p(1, -1, p)


def q_valuation(value: int, q: int) -> float:
    """Exponent of q in value; +inf for value == 0."""
    if value == 0:
        return math.inf
    v = 0
    value = abs(value)
    while value % q == 0:
        value //= q
        v += 1
    return v


def phi_profile(i: int, params: SchemeParams) -> tuple[float, ...]:
    """q-adic valuations of P_{1i}, ..., P_{k+1,i} (inf for zero entries)."""
    return tuple(
        q_valuation(eigenvalue_p(j, i, params), params.q) for j in range(1, params.k + 2)
    )


class TestSeparation:
    def test_direct_instance(self):
        p = SchemeParams(n=3, k=1, q=2)
        assert eigenvalue_p(1, 1, p) != eigenvalue_p(2, 1, p)
        assert eigenvalue_separated(1, p)
        assert eigenvalue_separated(2, p)

    def test_grid(self):
        for q in (2, 3, 4):
            for k in range(4):
                for n in range(2 * k + 1, 9):
                    p = SchemeParams(n=n, k=k, q=q)
                    for i in range(1, k + 2):
                        assert eigenvalue_separated(i, p), (q, n, k, i)

    def test_phi_chain(self):
        # phi_i(1) > phi_i(2) > ... > phi_i(i) = ... = phi_i(k+1),
        # skipping entries with P_{ji} = 0 (valuation +inf)
        for q in (2, 3, 4):
            for k in range(4):
                for n in range(2 * k + 1, 9):
                    p = SchemeParams(n=n, k=k, q=q)
                    for i in range(1, k + 2):
                        phi = phi_profile(i, p)
                        vals = [
                            (j, v)
                            for j, v in zip(range(1, k + 2), phi)
                            if v != math.inf
                        ]
                        for (j1, v1), (j2, v2) in zip(vals, vals[1:]):
                            if j2 <= i:
                                assert v1 > v2, (q, n, k, i, phi)
                            elif j1 >= i:
                                assert v1 == v2, (q, n, k, i, phi)


class TestSkewPairCounts:
    def test_frozen_examples(self):
        assert skew_pair_component(-1, SchemeParams(n=5, k=1, q=2)) == 256
        p = SchemeParams(n=3, k=1, q=2)
        assert skew_pair_total(p) == 6
        assert skew_pair_span_point(p) == 2

    def test_against_bruteforce(self):
        for n, k, q in ((3, 1, 2), (4, 1, 2), (5, 1, 2), (4, 1, 3), (5, 2, 2)):
            p = SchemeParams(n=n, k=k, q=q)
            ctx = geometry(n, k, q)
            a, b = first_disjoint_pair(ctx)
            by_dim, span_pt, outer_pt = skew_pair_profile_bruteforce(ctx, a, b)
            for i in range(-1, k + 1):
                assert skew_pair_component(i, p) == by_dim[i], (n, k, q, i)
            assert skew_pair_total(p) == sum(by_dim.values())
            assert skew_pair_span_point(p) == span_pt
            if n > 2 * k + 1:
                assert skew_pair_outer_point(p) == outer_pt

    def test_outer_point_rejected_at_span_scale(self):
        with pytest.raises(ValueError):
            skew_pair_outer_point(SchemeParams(n=3, k=1, q=2))

    def test_total_complements_meeting_counts(self):
        # skew-to-both plus meets-at-least-one partitions all k-spaces
        for n, k, q in ((3, 1, 2), (4, 1, 2), (5, 1, 2), (5, 2, 2)):
            p = SchemeParams(n=n, k=k, q=q)
            ctx = geometry(n, k, q)
            a, b = first_disjoint_pair(ctx)
            ma, mb = ctx.kspace_masks[a], ctx.kspace_masks[b]
            meets_one = sum(
                1
                for mc in ctx.kspace_masks
                if mc & ma or mc & mb
            )
            assert skew_pair_total(p) + meets_one == p.num_kspaces


class TestFamilyCountFormulas:
    def test_member_meet_count(self):
        assert member_meet_count(SchemeParams(n=3, k=1, q=2), 1) == 7

    def test_primed_bounds(self):
        p = SchemeParams(n=5, k=1, q=2)
        assert pair_skew_count_bound(p, 2) == 0
        s2p = pair_meet_count_bound(p, 2)
        assert s2p == 2 * qbinom(5, 1, 2) - 2 * qbinom(3, 1, 2) * 4
        with pytest.raises(ValueError):
            pair_skew_count_bound(SchemeParams(n=4, k=1, q=2), 2)

    def test_pair_skew_against_direct_count(self, pg52, pg52_bundle):
        from clkset import hyperplane_family

        ctx = pg52
        p = ctx.params
        fam = hyperplane_family(ctx, ctx.hyperplanes()[0])
        disj = ctx.disjointness_masks()
        pairs = 0
        for a in fam.ids:
            for b in fam.ids:
                if b <= a or not (disj[a] >> b) & 1:
                    continue
                sigma = ctx.span(ctx.kspaces[a], ctx.kspaces[b])
                direct = (disj[a] & disj[b] & fam.mask).bit_count()
                for spread in ctx.spreads_within(sigma):
                    meet = sum(1 for c in spread if c in fam)
                    assert direct == pair_skew_count(p, fam.x, meet)
                    assert meet <= fam.x  # n > 3k+1 spread-meet bound
                pairs += 1
                if pairs >= 12:
                    return

    def test_skew_exclusion_audit(self):
        p = SchemeParams(n=5, k=1, q=2)
        audit = excludes_skew_subfamily(2, p, 2)
        assert audit.holds and audit.lhs == 84 and audit.rhs == 62
        for x in (1, 2, 3):
            c0 = excludes_skew_subfamily(0, p, x)
            assert not c0.holds  # s1 <= x*qbinom(n,k) for x >= 1


class TestClassificationBound:
    def test_frozen_examples(self):
        p = SchemeParams(n=8, k=2, q=2)
        assert classification_bound_fourth_power(p) == 49
        assert within_classification_bound(p, 2)
        assert within_classification_bound(p, 0)
        # x = 3 exceeds the (2,5,1) bound, whose fourth power is 49
        p51 = SchemeParams(n=5, k=1, q=2)
        assert classification_bound_fourth_power(p51) == 49
        assert not within_classification_bound(p51, 3)
        assert within_classification_bound(p51, 2)

    def test_k1_identity(self):
        # for k = 1 the bound's fourth power is (q^(n-2) - q^(n-5))^2
        for q in (2, 3, 4, 5):
            for n in range(5, 11):
                p = SchemeParams(n=n, k=1, q=q)
                assert classification_bound_fourth_power(p) == Fraction(
                    q ** (n - 2) - q ** (n - 5)
                ) ** 2

    def test_requires_bound_scale(self):
        with pytest.raises(ValueError):
            within_classification_bound(SchemeParams(n=4, k=1, q=2), 1)

    def test_agrees_with_high_precision_float(self):
        import random

        from mpmath import mp, mpf, sqrt

        mp.dps = 50
        rng = random.Random(1)
        checked = 0
        while checked < 50:
            q = rng.choice([2, 3, 4, 5, 7, 8, 9])
            k = rng.randint(1, 3)
            n = rng.randint(3 * k + 2, 3 * k + 8)
            p = SchemeParams(n=n, k=k, q=q)
            f = (
                mpf(q) ** (mpf(n) / 2 - mpf(k * k) / 4 - mpf(3 * k) / 4 - mpf(3) / 2)
                * mpf(q - 1) ** (mpf(k * k) / 4 - mpf(k) / 4 + mpf(1) / 2)
                * sqrt(mpf(q * q + q + 1))
            )
            x = Fraction(rng.randint(1, 10 ** rng.randint(1, 6)), rng.randint(1, 100))
            margin = abs(mpf(x.numerator) / x.denominator - f) / f
            if margin < mpf(10) ** -20:
                continue
            float_verdict = mpf(x.numerator) / x.denominator <= f
            assert within_classification_bound(p, x) == float_verdict
            checked += 1


class TestParameterRange:
    def test_frozen(self):
        lo, hi = parameter_range(SchemeParams(n=3, k=1, q=2))
        assert (lo, hi) == (0, 5)

    def test_upper_times_base_is_total(self):
        for n, k, q in ((3, 1, 2), (4, 1, 2), (5, 2, 2), (4, 2, 3)):
            p = SchemeParams(n=n, k=k, q=q)
            _, hi = parameter_range(p)
            assert hi * qbinom(n, k, q) == p.num_kspaces


class TestMeetCountTarget:
    def test_reduces_to_disjointness_at_top_index(self):
        for n, k, q in ((3, 1, 2), (4, 1, 2), (5, 2, 2)):
            p = SchemeParams(n=n, k=k, q=q)
            for x in (Fraction(1), Fraction(7, 3), Fraction(4)):
                coeff = qbinom(n - k - 1, k, q) * q ** (k * k + k)
                assert meet_count_target(k + 1, p, x, member=True) == (x - 1) * coeff
                assert meet_count_target(k + 1, p, x, member=False) == x * coeff

    def test_matches_printed_two_case_form_below_top(self):
        for n, k, q in ((4, 1, 2), (5, 2, 2), (6, 2, 3)):
            p = SchemeParams(n=n, k=k, q=q)
            x = Fraction(5, 2)
            for i in range(1, k + 1):
                printed = (
                    (x - 1) * Fraction(q ** (k + 1) - 1, q ** (k - i + 1) - 1)
                    + Fraction(q**i * (q ** (n - k) - 1), q**i - 1)
                ) * q ** (i * (i - 1)) * qbinom(n - k - 1, i - 1, q) * qbinom(k, i, q)
                assert meet_count_target(i, p, x, member=True) == printed
