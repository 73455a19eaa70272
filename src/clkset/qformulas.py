"""Exact q-analog counting formulas for k-spaces of PG(n,q).

Every quantity in this module is computed with arbitrary-precision integers
or `fractions.Fraction`; no decision anywhere is made in floating point.
Conventions: dimensions are projective, `qbinom(a, b, q)` counts b-dimensional
vector subspaces of GF(q)^a, and the Grassmann scheme on k-spaces has
relations R_i = "meet in dimension k-i" for i = 0..k+1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .linalg import MR_EXACT_BELOW, _is_prime


def _iroot(q: int, e: int) -> int:
    """floor(q ** (1/e)) for q >= 1, by integer Newton steps from above."""
    x = 1 << -(-q.bit_length() // e)
    while True:
        y = ((e - 1) * x + q // x ** (e - 1)) // e
        if y >= x:
            return x
        x = y


def factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, e) with q = p**e and p prime; raise ValueError otherwise.

    The largest e for which q is an exact e-th power gives the only
    candidate p; q is a prime power exactly when that root is prime."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power (need q >= 2)")
    for e in range(q.bit_length() - 1, 0, -1):
        p = _iroot(q, e)
        if p**e == q:
            break
    if not _is_prime(p):
        raise ValueError(f"{q}{_factorization_hint(q)} is not a prime power")
    if p >= MR_EXACT_BELOW:
        raise ValueError(f"cannot decide exactly whether {p} is prime (not below {MR_EXACT_BELOW})")
    return p, e


def _factorization_hint(q: int) -> str:
    """The " = a·b·…" of an error message: q's prime factors below 1024, then
    what is left; empty when q has no such factor."""
    parts = []
    m = q
    d = 2
    while d < 1024 and d * d <= m:
        while m % d == 0:
            parts.append(d)
            m //= d
        d += 1
    if not parts:
        return ""
    if m > 1:
        parts.append(m)
    return " = " + "·".join(str(p) for p in parts)


def is_prime_power(q: int) -> bool:
    try:
        factor_prime_power(q)
        return True
    except ValueError:
        return False


def qbinom(a: int, b: int, q: int) -> int:
    """Gaussian binomial coefficient: number of b-spaces of GF(q)^a.

    Evaluated as the ascending telescoping product, with exact division at
    every step so intermediates stay as small as the partial coefficients.
    Returns 0 when b > a.
    """
    if a < 0 or b < 0:
        raise ValueError(f"qbinom needs nonnegative arguments, got ({a}, {b})")
    if q < 2:
        raise ValueError(f"qbinom needs q >= 2, got {q}")
    if b > a:
        return 0
    result = 1
    for t in range(1, b + 1):
        num = result * (q ** (a - b + t) - 1)
        den = q**t - 1
        result, rem = divmod(num, den)
        if rem:  # each partial product is itself a Gaussian binomial
            raise ArithmeticError(f"non-exact division in qbinom({a},{b},{q})")
    return result


def _qbinom_or_zero(a: int, b: int, q: int) -> int:
    if a < 0 or b < 0 or b > a:
        return 0
    return qbinom(a, b, q)


def count_disjoint(n: int, q: int, m: int, j: int) -> int:
    """Number of j-spaces of PG(n,q) disjoint from a fixed m-space."""
    if not (0 <= m <= n and 0 <= j <= n):
        raise ValueError(f"dimensions out of range: n={n}, m={m}, j={j}")
    return q ** ((m + 1) * (j + 1)) * _qbinom_or_zero(n - m, j + 1, q)


@dataclass(frozen=True)
class SchemeParams:
    """Ambient parameters of the Grassmann scheme on k-spaces of PG(n,q)."""

    n: int
    k: int
    q: int

    def __post_init__(self) -> None:
        if not 0 <= self.k < self.n:
            raise ValueError(f"need 0 <= k < n, got k={self.k}, n={self.n}")
        factor_prime_power(self.q)  # raises on non-prime-powers

    @property
    def num_points(self) -> int:
        return qbinom(self.n + 1, 1, self.q)

    @property
    def num_kspaces(self) -> int:
        return qbinom(self.n + 1, self.k + 1, self.q)

    @property
    def pencil_size(self) -> int:
        """Number of k-spaces through a fixed point."""
        return qbinom(self.n, self.k, self.q)

    @property
    def disjoint_from_one(self) -> int:
        """Number of k-spaces disjoint from a fixed k-space."""
        return count_disjoint(self.n, self.q, self.k, self.k)


def eigenvalue_p(j: int, i: int, params: SchemeParams) -> int:
    """Entry P_{ji} of the scheme's eigenmatrix: eigenvalue of the
    distance-i relation matrix on the j-th common eigenspace."""
    n, k, q = params.n, params.k, params.q
    if not (0 <= j <= k + 1 and 0 <= i <= k + 1):
        raise ValueError(f"need 0 <= j,i <= k+1, got j={j}, i={i}, k={k}")
    total = 0
    for s in range(max(0, j - i), min(j, k + 1 - i) + 1):
        sign = -1 if (j + s) % 2 else 1
        term = (
            sign
            * qbinom(j, s, q)
            * _qbinom_or_zero(n - k + s - j, n - k - i, q)
            * _qbinom_or_zero(k + 1 - s, i, q)
            * q ** (i * (i + s - j) + (j - s) * (j - s - 1) // 2)
        )
        total += term
    return total


def valence(i: int, params: SchemeParams) -> int:
    """Row sum of the distance-i relation matrix (equals P_{0i})."""
    n, k, q = params.n, params.k, params.q
    if not 0 <= i <= k + 1:
        raise ValueError(f"need 0 <= i <= k+1, got i={i}")
    return qbinom(n - k, i, q) * qbinom(k + 1, i, q) * q ** (i * i)


def eigenvalue_separated(i: int, params: SchemeParams) -> bool:
    """True iff P_{1i} differs from P_{ji} for every j in {2, ..., k+1}.

    This is what makes an exact eigenvector check for the eigenvalue P_{1i}
    a certificate of membership in the first nontrivial eigenspace.
    """
    if not 1 <= i <= params.k + 1:
        raise ValueError(f"need 1 <= i <= k+1, got i={i}")
    p1 = eigenvalue_p(1, i, params)
    return all(eigenvalue_p(j, i, params) != p1 for j in range(2, params.k + 2))


def _require_span_scale(params: SchemeParams) -> None:
    if params.n < 2 * params.k + 1:
        raise ValueError(
            f"two disjoint k-spaces need n >= 2k+1, got n={params.n}, k={params.k}"
        )


def skew_pair_component(i: int, params: SchemeParams) -> int:
    """Number of k-spaces disjoint from two fixed disjoint k-spaces and
    meeting their span in an i-space (i = -1 means avoiding the span)."""
    _require_span_scale(params)
    n, k, q = params.n, params.k, params.q
    if not -1 <= i <= k:
        raise ValueError(f"need -1 <= i <= k, got i={i}")
    if i == -1:
        return q ** (2 * (k + 1) ** 2) * _qbinom_or_zero(n - 2 * k - 1, k + 1, q)
    exponent = 2 * k * k + k + i * (3 * i - 1) // 2 - 3 * i * k
    prod = 1
    for j in range(i + 1):
        prod *= q ** (k - j + 1) - 1
    return (
        q**exponent
        * _qbinom_or_zero(n - 2 * k - 1, k - i, q)
        * qbinom(k + 1, i + 1, q)
        * prod
    )


def skew_pair_total(params: SchemeParams) -> int:
    """Number of k-spaces disjoint from two fixed disjoint k-spaces."""
    return sum(skew_pair_component(i, params) for i in range(-1, params.k + 1))


def _exact_div(num: int, den: int, what: str) -> int:
    quot, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"non-exact division in {what}: {num} / {den}")
    return quot


def skew_pair_span_point(params: SchemeParams) -> int:
    """Of the k-spaces disjoint from two fixed disjoint k-spaces: how many
    pass through a fixed point of their span (off both of them)."""
    _require_span_scale(params)
    k, q = params.k, params.q
    acc = sum(
        skew_pair_component(i, params) * (q ** (i + 1) - 1) for i in range(k + 1)
    )
    return _exact_div(acc, (q ** (k + 1) - 1) ** 2, "skew_pair_span_point")


def skew_pair_outer_point(params: SchemeParams) -> int:
    """Of the k-spaces disjoint from two fixed disjoint k-spaces: how many
    pass through a fixed point outside their span (needs n > 2k+1)."""
    n, k, q = params.n, params.k, params.q
    if n == 2 * k + 1:
        raise ValueError("no points outside the span when n = 2k+1")
    _require_span_scale(params)
    acc = sum(
        skew_pair_component(i, params) * (q ** (k + 1) - q ** (i + 1))
        for i in range(-1, k)
    )
    return _exact_div(acc, q ** (n + 1) - q ** (2 * k + 2), "skew_pair_outer_point")


def _as_fraction(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def member_meet_count(params: SchemeParams, x) -> Fraction:
    """For a family with parameter x: number of members meeting a fixed
    member (the member itself included)."""
    _require_span_scale(params)
    n, k, q = params.n, params.k, params.q
    x = _as_fraction(x)
    return x * qbinom(n, k, q) - (x - 1) * qbinom(n - k - 1, k, q) * q ** (k * k + k)


def pair_skew_count(params: SchemeParams, x, spread_meet: int) -> Fraction:
    """For a family with parameter x and two disjoint members: number of
    members skew to both, given the family's meet with a spread of the span.

    For n = 2k+1 the span is the whole space; the outer-point term then has
    coefficient x - spread_meet = 0 for any family hitting every spread in x
    members, so it is dropped.
    """
    _require_span_scale(params)
    x = _as_fraction(x)
    w_span = skew_pair_span_point(params)
    w_outer = 0 if params.n == 2 * params.k + 1 else skew_pair_outer_point(params)
    return (w_span - w_outer) * spread_meet - 2 * w_span + x * w_outer


def _pair_bounds_unchecked(params: SchemeParams, x) -> tuple[Fraction, Fraction]:
    n, k, q = params.n, params.k, params.q
    x = _as_fraction(x)
    d2p = (x - 2) * skew_pair_span_point(params)
    s2p = (
        x * qbinom(n, k, q)
        - 2 * (x - 1) * qbinom(n - k - 1, k, q) * q ** (k * k + k)
        + d2p
    )
    return d2p, s2p


def _require_primed_scale(params: SchemeParams) -> None:
    if params.n <= 3 * params.k + 1:
        raise ValueError(
            f"spread-independent bounds need n > 3k+1, got n={params.n}, k={params.k}"
        )


def pair_skew_count_bound(params: SchemeParams, x) -> Fraction:
    """Spread-independent upper bound for pair_skew_count (n > 3k+1)."""
    _require_primed_scale(params)
    return _pair_bounds_unchecked(params, x)[0]


def pair_meet_count_bound(params: SchemeParams, x) -> Fraction:
    """Spread-independent upper bound for the number of members meeting
    both of two disjoint members (n > 3k+1)."""
    _require_primed_scale(params)
    return _pair_bounds_unchecked(params, x)[1]


@dataclass(frozen=True)
class SkewExclusionAudit:
    """Outcome of the mutually-skew exclusion inequality, with both sides
    retained for auditing."""

    holds: bool
    lhs: Fraction
    rhs: Fraction


def excludes_skew_subfamily(c: int, params: SchemeParams, x) -> SkewExclusionAudit:
    """True iff (c+1)*s1 - C(c+1,2)*s2' > x*qbinom(n,k): then no family with
    parameter x contains c+1 mutually skew members. Needs n > 2k+1."""
    if c < 0:
        raise ValueError(f"need c >= 0, got c={c}")
    if params.n <= 2 * params.k + 1:
        raise ValueError(
            f"exclusion test needs n > 2k+1, got n={params.n}, k={params.k}"
        )
    x = _as_fraction(x)
    s1 = member_meet_count(params, x)
    s2p = _pair_bounds_unchecked(params, x)[1]
    lhs = (c + 1) * s1 - math.comb(c + 1, 2) * s2p
    rhs = x * qbinom(params.n, params.k, params.q)
    return SkewExclusionAudit(lhs > rhs, lhs, rhs)


def classification_bound_fourth_power(params: SchemeParams) -> Fraction:
    """Fourth power of the nonexistence bound
    q^(n/2 - k^2/4 - 3k/4 - 3/2) * (q-1)^(k^2/4 - k/4 + 1/2) * sqrt(q^2+q+1),
    which is rational with integer exponents throughout."""
    n, k, q = params.n, params.k, params.q
    return (
        Fraction(q) ** (2 * n - k * k - 3 * k - 6)
        * (q - 1) ** (k * k - k + 2)
        * (q * q + q + 1) ** 2
    )


def within_classification_bound(params: SchemeParams, x) -> bool:
    """Exact decision of x <= q^(n/2-k^2/4-3k/4-3/2)(q-1)^(k^2/4-k/4+1/2)sqrt(q^2+q+1),
    via fourth powers (needs n >= 3k+2, where the bound applies)."""
    if params.n < 3 * params.k + 2:
        raise ValueError(
            f"classification bound needs n >= 3k+2, got n={params.n}, k={params.k}"
        )
    x = _as_fraction(x)
    if x <= 0:
        return True
    return x**4 <= classification_bound_fourth_power(params)


def parameter_range(params: SchemeParams) -> tuple[Fraction, Fraction]:
    """Closed interval of admissible parameters: (0, full-space parameter)."""
    n, k, q = params.n, params.k, params.q
    return Fraction(0), Fraction(q ** (n + 1) - 1, q ** (k + 1) - 1)


def hyperplane_family_parameter(params: SchemeParams) -> Fraction:
    """Parameter of the family of all k-spaces inside a fixed hyperplane."""
    n, k, q = params.n, params.k, params.q
    return Fraction(q ** (n - k) - 1, q ** (k + 1) - 1)


def meet_count_target(i: int, params: SchemeParams, x, member: bool) -> Fraction:
    """Exact number of members meeting a fixed k-space pi in dimension k-i,
    for a family with parameter x (two cases: pi a member or not).

    The member case is evaluated as
    (x-1)*qbinom(k+1,i)*qbinom(n-k-1,i-1)*q^(i(i-1)) + qbinom(k,i)*qbinom(n-k,i)*q^(i^2),
    which agrees with the textbook two-case expression for i <= k and stays
    finite at i = k+1, where it reduces to the disjointness count.
    """
    n, k, q = params.n, params.k, params.q
    if not 1 <= i <= k + 1:
        raise ValueError(f"need 1 <= i <= k+1, got i={i}")
    x = _as_fraction(x)
    base = (
        qbinom(k + 1, i, q) * _qbinom_or_zero(n - k - 1, i - 1, q) * q ** (i * (i - 1))
    )
    if not member:
        return x * base
    extra = _qbinom_or_zero(k, i, q) * qbinom(n - k, i, q) * q ** (i * i)
    return (x - 1) * base + extra
