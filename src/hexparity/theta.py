"""Both sides of every theta-type identity checked by this package.

Bilateral theta sums are driven by integer-valued quadratic exponent
families with signs of the form (-1)^(integer quadratic), so truncation
windows are exact and no floating point ever appears.  Product sides are
assembled from binomial factors (1 +- q^e); substitutions like q -> -q^5
stay one-variable by tracking the parity of the accumulated (-1) factors
per monomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .series import (
    ParitySeries,
    QPochhammerSpec,
    TruncatedSeries,
    div_binomial_inplace,
    mul_binomial_inplace,
    pochhammer_quotient,
    pochhammer_quotient_inplace,
    require_order,
)


class NegativeExponent(ValueError):
    """A contributing term landed on a negative q-exponent."""


@dataclass(frozen=True)
class Monomial:
    """sign * q^exp with sign in {+1, -1}; the only substitutions needed."""

    sign: int
    exp: int

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")


@dataclass(frozen=True)
class QuadraticExponentFamily:
    """Exponent e(k) = a2*k^2 + a1*k + a0 with sign base * (-1)^t(k).

    The coefficients are exact rationals; e(k) and the sign quadratic
    t(k) = s2*k^2 + s1*k must evaluate to integers at every contributing k
    (checked, so transcription slips in the constants surface immediately).
    a2 > 0 guarantees that truncation windows are finite.
    """

    a2: Fraction
    a1: Fraction
    a0: Fraction
    s2: Fraction = Fraction(0)
    s1: Fraction = Fraction(0)
    base_sign: int = 1

    @staticmethod
    def make(a2, a1, a0, s2=0, s1=0, base_sign: int = 1) -> "QuadraticExponentFamily":
        f = QuadraticExponentFamily(
            Fraction(a2), Fraction(a1), Fraction(a0),
            Fraction(s2), Fraction(s1), base_sign,
        )
        if f.a2 <= 0:
            raise ValueError("leading coefficient must be positive")
        if f.base_sign not in (1, -1):
            raise ValueError("base_sign must be +1 or -1")
        return f

    def exponent(self, k: int) -> int:
        v = self.a2 * k * k + self.a1 * k + self.a0
        if v.denominator != 1:
            raise ValueError(f"exponent {v} at k={k} is not an integer")
        return int(v)

    def sign(self, k: int) -> int:
        t = self.s2 * k * k + self.s1 * k
        if t.denominator != 1:
            raise ValueError(f"sign exponent {t} at k={k} is not an integer")
        return self.base_sign * (-1 if int(t) & 1 else 1)

    def indices_within(self, bound: int):
        """All k in Z with e(k) <= bound, scanning outward from the vertex."""
        pivot = math.ceil(-self.a1 / (2 * self.a2))
        k = pivot
        while self.exponent(k) <= bound:
            yield k
            k += 1
        k = pivot - 1
        while self.exponent(k) <= bound:
            yield k
            k -= 1


def bilateral_sum(families, order: int, track_hits: bool = False):
    """Sum of sign(k)*q^e(k) over k in Z for each family, truncated.

    With track_hits=True also returns {exponent: number of (family, k)
    pairs landing there} so callers can confirm multiplicity-1 claims.
    """
    out = [0] * (require_order(order) + 1)
    hits: dict[int, int] = {}
    for fam in families:
        for k in fam.indices_within(order):
            e = fam.exponent(k)
            if e < 0:
                raise NegativeExponent(f"e({k}) = {e} < 0")
            out[e] += fam.sign(k)
            if track_hits:
                hits[e] = hits.get(e, 0) + 1
    series = TruncatedSeries(tuple(out))
    if track_hits:
        return series, hits
    return series


def pentagonal_family() -> QuadraticExponentFamily:
    """e(k) = k(3k-1)/2 with sign (-1)^k: the expansion of (q;q)oo."""
    return QuadraticExponentFamily.make(
        Fraction(3, 2), Fraction(-1, 2), 0, s2=0, s1=1
    )


def eq41_families(s: int) -> list[QuadraticExponentFamily]:
    """The two families k(15k+3s-5)/2 and (3k-s/2)(5k-3+s/2)/2, both with
    sign (-1)^(k((s-1)k-1)/2), for s in {2, 4}."""
    if s not in (2, 4):
        raise ValueError("s must be 2 or 4")
    sgn2, sgn1 = Fraction(s - 1, 2), Fraction(-1, 2)
    return [
        QuadraticExponentFamily.make(
            Fraction(15, 2), Fraction(3 * s - 5, 2), 0, s2=sgn2, s1=sgn1
        ),
        QuadraticExponentFamily.make(
            Fraction(15, 2),
            Fraction(-(9 + s), 2),
            Fraction(6 * s - s * s, 8),
            s2=sgn2,
            s1=sgn1,
        ),
    ]


def eq42_family(s: int) -> QuadraticExponentFamily:
    """e(k) = k(5k-s)/2 with sign (-1)^(k(k+s)/2), for s in {1, 3}."""
    if s not in (1, 3):
        raise ValueError("s must be 1 or 3")
    return QuadraticExponentFamily.make(
        Fraction(5, 2), Fraction(-s, 2), 0, s2=Fraction(1, 2), s1=Fraction(s, 2)
    )


def rstar_families(s: int) -> list[QuadraticExponentFamily]:
    """15k^2-(5-3s)k with sign +1 and 15k^2+(5+3s)k+s with sign -1."""
    if s not in (1, 3):
        raise ValueError("s must be 1 or 3")
    return [
        QuadraticExponentFamily.make(15, -(5 - 3 * s), 0),
        QuadraticExponentFamily.make(15, 5 + 3 * s, s, base_sign=-1),
    ]


def r_decomposition_family(s: int) -> QuadraticExponentFamily:
    """e(k) = k(5k+1-s) with sign (-1)^k, for s in {2, 4}."""
    if s not in (2, 4):
        raise ValueError("s must be 2 or 4")
    return QuadraticExponentFamily.make(5, 1 - s, 0, s2=0, s1=1)


# ---------------------------------------------------------------------------
# monomial-specialized infinite products
# ---------------------------------------------------------------------------


def monomial_pochhammer(base: Monomial, step: Monomial) -> list[QPochhammerSpec]:
    """(base; step)oo = prod_k (1 - base*step^k) as q-Pochhammer specs.

    Factor k is (1 - c*q^e) with c = base.sign*step.sign^k and
    e = base.exp + k*step.exp.  A step -q^m alternates the sign, so the
    product splits into its even-k and odd-k factors, two chains in q^(2m).
    """
    if step.exp < 1:
        raise ValueError("step exponent must be >= 1")
    if base.exp < 0:
        raise NegativeExponent(f"base exponent {base.exp} < 0")
    if step.sign == 1:
        return [QPochhammerSpec(base.sign, base.exp, step.exp)]
    return [
        QPochhammerSpec(base.sign, base.exp, 2 * step.exp),
        QPochhammerSpec(-base.sign, base.exp + step.exp, 2 * step.exp),
    ]


def jtp_sides(
    z_sign: int, a: int, q_sign: int, m: int, order: int
) -> tuple[TruncatedSeries, TruncatedSeries]:
    """Triple-product identity under z -> z_sign*q^a, q -> q_sign*q^m.

    Sum side: sum_n (-z)^n q^(n(n-1)/2); product side (z, q/z, q; q)oo.
    Returns (sum side, product side); the two agree identically, so any
    mismatch is an implementation bug.
    """
    z = Monomial(z_sign, a)
    qm = Monomial(q_sign, m)
    bz = 1 if z_sign == -1 else 0
    bq = 1 if q_sign == -1 else 0
    # (-z)^n q^(n(n-1)/2) becomes sign (-1)^((1+bz)n + bq*n(n-1)/2) at
    # exponent a*n + m*n(n-1)/2
    family = QuadraticExponentFamily.make(
        Fraction(m, 2),
        a - Fraction(m, 2),
        0,
        s2=Fraction(bq, 2),
        s1=(1 + bz) - Fraction(bq, 2),
    )
    sum_side = bilateral_sum([family], order)
    prod_side = pochhammer_quotient(
        monomial_pochhammer(z, qm)
        + monomial_pochhammer(Monomial(q_sign * z_sign, m - a), qm)
        + monomial_pochhammer(qm, qm),
        [],
        order,
    )
    return sum_side, prod_side


def quintuple_sum_families(z: Monomial, q: Monomial) -> list[QuadraticExponentFamily]:
    """The two exponent families of sum_n z^(3n) q^(n(3n-1)/2) (1 - z*q^n)
    after the monomial substitutions."""
    bz = 1 if z.sign == -1 else 0
    bq = 1 if q.sign == -1 else 0
    a, m = z.exp, q.exp
    return [
        # +z^(3n) q^(n(3n-1)/2)
        QuadraticExponentFamily.make(
            Fraction(3 * m, 2),
            3 * a - Fraction(m, 2),
            0,
            s2=Fraction(3 * bq, 2),
            s1=3 * bz - Fraction(bq, 2),
        ),
        # -z^(3n+1) q^(n(3n+1)/2)
        QuadraticExponentFamily.make(
            Fraction(3 * m, 2),
            3 * a + Fraction(m, 2),
            a,
            s2=Fraction(3 * bq, 2),
            s1=3 * bz + Fraction(bq, 2),
            base_sign=-z.sign,
        ),
    ]


def quintuple_sides(
    z: Monomial, q: Monomial, order: int
) -> tuple[TruncatedSeries, TruncatedSeries]:
    """Quintuple-product identity under the monomial substitutions z, q.

    Sum side: sum_n z^(3n) q^(n(3n-1)/2) (1 - z*q^n);
    product side: (q, z, q/z; q)oo (q z^2, q/z^2; q^2)oo.
    """
    sum_side = bilateral_sum(quintuple_sum_families(z, q), order)
    q2 = Monomial(1, 2 * q.exp)
    prod_side = pochhammer_quotient(
        monomial_pochhammer(q, q)
        + monomial_pochhammer(z, q)
        + monomial_pochhammer(Monomial(q.sign * z.sign, q.exp - z.exp), q)
        + monomial_pochhammer(Monomial(q.sign, q.exp + 2 * z.exp), q2)
        + monomial_pochhammer(Monomial(q.sign, q.exp - 2 * z.exp), q2),
        [],
        order,
    )
    return sum_side, prod_side


# ---------------------------------------------------------------------------
# Gauss theta identity and its truncated form
# ---------------------------------------------------------------------------


def gauss_theta_sides(order: int) -> tuple[TruncatedSeries, TruncatedSeries]:
    """1 + 2*sum (-1)^n q^(n^2) versus (q;q)oo / (-q;q)oo."""
    out = [0] * (order + 1)
    out[0] = 1
    n = 1
    while n * n <= order:
        out[n * n] += -2 if n & 1 else 2
        n += 1
    lhs = TruncatedSeries(tuple(out))
    rhs = pochhammer_quotient(
        [QPochhammerSpec(1, 1, 1)], [QPochhammerSpec(-1, 1, 1)], order
    )
    return lhs, rhs


def partial_theta(k: int, order: int) -> TruncatedSeries:
    """1 + 2*sum_{j=1..k} (-1)^j q^(2j^2): the truncation that drives the
    identity-versus-tail checks and the sign conjecture."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    out = [0] * (order + 1)
    out[0] = 1
    for j in range(1, k + 1):
        e = 2 * j * j
        if e > order:
            break
        out[e] += -2 if j & 1 else 2
    return TruncatedSeries(tuple(out))


def even_gauss_factor(order: int) -> TruncatedSeries:
    """(-q^2;q^2)oo / (q^2;q^2)oo."""
    return pochhammer_quotient(
        [QPochhammerSpec(-1, 2, 2)], [QPochhammerSpec(1, 2, 2)], order
    )


def even_binomial_ratio(k: int, order: int) -> TruncatedSeries:
    """(-q^2;q^2)_k / (q^2;q^2)_k."""
    return pochhammer_quotient(
        [QPochhammerSpec(-1, 2, 2, k)], [QPochhammerSpec(1, 2, 2, k)], order
    )


def gauss_error_tail(k: int, order: int) -> TruncatedSeries:
    """sum_{n>k} q^(2n(k+1)) (-q^(2n+2);q^2)oo / ((1-q^(2n)) (q^(2n+2);q^2)oo).

    Built incrementally: consecutive terms differ by a shift of 2(k+1), a
    multiplication by (1-q^(2n)) and a division by (1+q^(2n+2)).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    acc = [0] * (order + 1)
    n = k + 1
    lead = 2 * n * (k + 1)
    if lead > order:
        return TruncatedSeries(tuple(acc))

    term = [1] + [0] * order
    # (-q^(2n+2);q^2)oo / ((1-q^(2n)) (q^(2n+2);q^2)oo)
    pochhammer_quotient_inplace(
        term, [QPochhammerSpec(-1, 2 * n + 2, 2)], [QPochhammerSpec(1, 2 * n, 2)]
    )

    while True:
        for i in range(order, lead - 1, -1):
            acc[i] += term[i - lead]
        n += 1
        lead = 2 * n * (k + 1)
        if lead > order:
            break
        mul_binomial_inplace(term, -1, 2 * (n - 1))
        div_binomial_inplace(term, 1, 2 * n)
    return TruncatedSeries(tuple(acc))


def truncated_gauss_lhs(k: int, order: int) -> TruncatedSeries:
    """(-1)^k * (even_gauss_factor * partial_theta(k) - 1)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    prod = even_gauss_factor(order) * partial_theta(k, order)
    shifted = prod - TruncatedSeries.one(order)
    return shifted if k % 2 == 0 else -shifted


def truncated_gauss_rhs(k: int, order: int) -> TruncatedSeries:
    """2 * even_binomial_ratio(k) * gauss_error_tail(k)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return even_binomial_ratio(k, order).scale(2) * gauss_error_tail(k, order)


# ---------------------------------------------------------------------------
# Rogers-Ramanujan functions and the regime sums
# ---------------------------------------------------------------------------


def _rogers_ramanujan(shift: int, order: int) -> tuple[TruncatedSeries, TruncatedSeries]:
    """sum q^(n^2+shift*n)/(q;q)_n = 1/(q^a, q^(5-a); q^5)oo with a = 1+shift.

    shift 0 gives G, shift 1 gives H; returns (sum form, product form).
    """
    acc = [0] * (order + 1)
    acc[0] = 1
    term = [1] + [0] * order
    n = 1
    while n * n + shift * n <= order:
        # term_n = term_(n-1) * q^(2n-1+shift) / (1 - q^n)
        sh = 2 * n - 1 + shift
        term[sh:] = term[: order + 1 - sh]
        term[:sh] = [0] * sh
        div_binomial_inplace(term, -1, n)
        for i in range(n * n + shift * n, order + 1):
            acc[i] += term[i]
        n += 1
    sum_side = TruncatedSeries(tuple(acc))
    a = 1 + shift
    prod_side = pochhammer_quotient(
        [], [QPochhammerSpec(1, a, 5), QPochhammerSpec(1, 5 - a, 5)], order
    )
    return sum_side, prod_side


def rr_G(order: int) -> tuple[TruncatedSeries, TruncatedSeries]:
    """G(q) = sum q^(n^2)/(q;q)_n = 1/(q, q^4; q^5)oo; returns both forms."""
    return _rogers_ramanujan(0, order)


def rr_H(order: int) -> tuple[TruncatedSeries, TruncatedSeries]:
    """H(q) = sum q^(n^2+n)/(q;q)_n = 1/(q^2, q^3; q^5)oo; both forms."""
    return _rogers_ramanujan(1, order)


def regime3_sum(s: int, order: int) -> TruncatedSeries:
    """sum_n (-q;q)_n q^(n(3n+s-1)/2) / (q;q)_(2n+1), s in {2, 4}.

    The running base (-q;q)_n/(q;q)_(2n+1) is updated by one binomial
    multiplication and two binomial divisions per n.
    """
    if s not in (2, 4):
        raise ValueError("s must be 2 or 4")
    acc = [0] * (order + 1)
    base = [0] * (order + 1)
    base[0] = 1
    div_binomial_inplace(base, -1, 1)  # 1/(1-q)
    n = 0
    while True:
        e = n * (3 * n + s - 1) // 2
        if e > order:
            break
        for i in range(e, order + 1):
            acc[i] += base[i - e]
        n += 1
        if (n * (3 * n + s - 1)) // 2 > order:
            break
        mul_binomial_inplace(base, 1, n)
        div_binomial_inplace(base, -1, 2 * n)
        div_binomial_inplace(base, -1, 2 * n + 1)
    return TruncatedSeries(tuple(acc))


def regime4_sum(s: int, order: int) -> TruncatedSeries:
    """sum_n q^(n(n+1)) / (q;q)_(2n+(s-1)/2), s in {1, 3}."""
    if s not in (1, 3):
        raise ValueError("s must be 1 or 3")
    d = (s - 1) // 2
    acc = [0] * (order + 1)
    base = [0] * (order + 1)
    base[0] = 1
    if d:
        div_binomial_inplace(base, -1, 1)
    n = 0
    while True:
        e = n * (n + 1)
        if e > order:
            break
        for i in range(e, order + 1):
            acc[i] += base[i - e]
        n += 1
        if n * (n + 1) > order:
            break
        div_binomial_inplace(base, -1, 2 * n - 1 + d)
        div_binomial_inplace(base, -1, 2 * n + d)
    return TruncatedSeries(tuple(acc))


def regime3_sum_parity(s: int, order: int) -> ParitySeries:
    """regime3_sum reduced mod 2, computed natively on bit blocks."""
    if s not in (2, 4):
        raise ValueError("s must be 2 or 4")
    mask = (1 << (order + 1)) - 1
    base = ParitySeries(order, 1).div_binomial(1)
    acc = 0
    n = 0
    while True:
        e = n * (3 * n + s - 1) // 2
        if e > order:
            break
        acc ^= (base.bits << e) & mask
        n += 1
        if (n * (3 * n + s - 1)) // 2 > order:
            break
        base = base.times_binomial(n).div_binomial(2 * n).div_binomial(2 * n + 1)
    return ParitySeries(order, acc)


def regime4_sum_parity(s: int, order: int) -> ParitySeries:
    """regime4_sum reduced mod 2, computed natively on bit blocks."""
    if s not in (1, 3):
        raise ValueError("s must be 1 or 3")
    d = (s - 1) // 2
    mask = (1 << (order + 1)) - 1
    base = ParitySeries(order, 1)
    if d:
        base = base.div_binomial(1)
    acc = 0
    n = 0
    while True:
        e = n * (n + 1)
        if e > order:
            break
        acc ^= (base.bits << e) & mask
        n += 1
        if n * (n + 1) > order:
            break
        base = base.div_binomial(2 * n - 1 + d).div_binomial(2 * n + d)
    return ParitySeries(order, acc)


def regime3_product(s: int, order: int) -> TruncatedSeries:
    """G(q^2)/(q;q^2)oo for s=2, H(q^2)/(q;q^2)oo for s=4, with G and H
    taken from their summation forms so the comparison against
    regime3_sum is a genuinely independent route."""
    if s not in (2, 4):
        raise ValueError("s must be 2 or 4")
    half = rr_G if s == 2 else rr_H
    out = list(half((order + 1) // 2)[0].stretch(2, order).coeffs)
    pochhammer_quotient_inplace(out, [], [QPochhammerSpec(1, 1, 2)])  # 1/(q;q^2)oo
    return TruncatedSeries(tuple(out))


def regime3_denominators(s: int) -> list[QPochhammerSpec]:
    """(q;q^2)oo (q^s, q^(10-s); q^10)oo, whose reciprocal generates R_s."""
    if s not in (2, 4):
        raise ValueError("s must be 2 or 4")
    return [
        QPochhammerSpec(1, 1, 2),
        QPochhammerSpec(1, s, 10),
        QPochhammerSpec(1, 10 - s, 10),
    ]


def regime4_factors(
    s: int, first_decade_exponent: int | None = None
) -> tuple[list[QPochhammerSpec], list[QPochhammerSpec]]:
    """(numerators, denominators) of the product that generates R*_s:
    (q^s, q^(10-s), q^10; q^10)oo (q^(10-2s), q^(10+2s); q^20)oo / (q;q)oo.

    first_decade_exponent replaces the leading q^s, for eq42_sides' literal
    reading.
    """
    if s not in (1, 3):
        raise ValueError("s must be 1 or 3")
    first = s if first_decade_exponent is None else first_decade_exponent
    numerators = [
        QPochhammerSpec(1, first, 10),
        QPochhammerSpec(1, 10 - s, 10),
        QPochhammerSpec(1, 10, 10),
        QPochhammerSpec(1, 10 - 2 * s, 20),
        QPochhammerSpec(1, 10 + 2 * s, 20),
    ]
    return numerators, [QPochhammerSpec(1, 1, 1)]


def regime4_product(s: int, order: int) -> TruncatedSeries:
    """(q^s, q^(10-s), q^10; q^10)oo (q^(10-2s), q^(10+2s); q^20)oo/(q;q)oo."""
    return pochhammer_quotient(*regime4_factors(s), order)


# ---------------------------------------------------------------------------
# the two bilateral-series identities behind the parity theorems
# ---------------------------------------------------------------------------


def eq41_sides(s: int, order: int) -> tuple[TruncatedSeries, TruncatedSeries]:
    """Bilateral side versus product side for s in {2, 4}.

    Right side: 1/((q;q^2)oo (q^s, q^(10-s); q^10)oo)
                * (q^2;q^2)oo / (-q^2;q^2)oo.
    """
    left = bilateral_sum(eq41_families(s), order)
    right = pochhammer_quotient(
        [QPochhammerSpec(1, 2, 2)],
        regime3_denominators(s) + [QPochhammerSpec(-1, 2, 2)],
        order,
    )
    return left, right


def eq42_sides(
    s: int, order: int, first_decade_exponent: int | None = None
) -> tuple[TruncatedSeries, TruncatedSeries]:
    """Bilateral side versus product side for s in {1, 3}.

    The first mod-10 product factor defaults to q^s, which is the reading
    that makes the identity hold; passing first_decade_exponent=2 selects
    the alternative literal reading so callers can report its failure.
    """
    left = bilateral_sum([eq42_family(s)], order)
    numerators, denominators = regime4_factors(s, first_decade_exponent)
    right = pochhammer_quotient(
        numerators + [QPochhammerSpec(1, 2, 2)],
        denominators + [QPochhammerSpec(-1, 2, 2)],
        order,
    )
    return left, right
