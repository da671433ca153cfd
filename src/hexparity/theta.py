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
from itertools import chain

from .series import (
    ParitySeries,
    QPochhammerSpec,
    TruncatedSeries,
    div_binomial,
    mul_binomial,
    pochhammer_quotient,
    require_order,
    require_reach,
)


EULER = QPochhammerSpec(1, 1, 1)  # (q;q)oo
ODD_PARTS = QPochhammerSpec(1, 1, 2)  # (q;q^2)oo


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
    """Exponent e(k) = (a2*k^2 + a1*k + a0)/den with sign
    base_sign * (-1)^t(k), t(k) = (s2*k^2 + s1*k)/den, all fields ints.

    Construction checks a2 > 0 and den > 0 (finite truncation windows),
    base_sign in {+1, -1}, and that e and t are integers on all of Z, which
    for a quadratic holds exactly when it holds at k = 0, 1, 2.
    """

    a2: int
    a1: int
    a0: int
    s2: int = 0
    s1: int = 0
    base_sign: int = 1
    den: int = 1

    def __post_init__(self) -> None:
        if self.a2 <= 0 or self.den <= 0:
            raise ValueError("a2 and den must be positive")
        if self.base_sign not in (1, -1):
            raise ValueError("base_sign must be +1 or -1")
        for k in (0, 1, 2):
            if ((self.a2 * k + self.a1) * k + self.a0) % self.den or \
                    (self.s2 * k + self.s1) * k % self.den:
                raise ValueError(f"e({k}) or t({k}) is not an integer")

    def exponent(self, k: int) -> int:
        return ((self.a2 * k + self.a1) * k + self.a0) // self.den

    def sign(self, k: int) -> int:
        t = (self.s2 * k + self.s1) * k // self.den
        return -self.base_sign if t & 1 else self.base_sign

    def indices_within(self, bound: int):
        """All k in Z with e(k) <= bound, from the vertex outward: k rising
        from ceil(-a1/(2*a2)), then falling below it.  e is convex, so the
        k form one interval, read off exactly: den*e(k) <= den*bound holds
        exactly when (2*a2*k + a1)^2 <= D = a1^2 - 4*a2*(a0 - den*bound),
        that is when |2*a2*k + a1| <= isqrt(D)."""
        d = self.a1 * self.a1 - 4 * self.a2 * (self.a0 - self.den * bound)
        if d < 0:
            return iter(())
        r, twice = math.isqrt(d), 2 * self.a2
        lo, hi = -((r + self.a1) // twice), (r - self.a1) // twice
        pivot = min(max(-(self.a1 // twice), lo), hi + 1)
        return chain(range(pivot, hi + 1), range(pivot - 1, lo - 1, -1))

    def exponents_within(self, bound: int) -> list[tuple[int, int]]:
        """(k, e(k)) for each k of indices_within(bound), in its order.
        Raises NegativeExponent if some e(k) < 0: the window then holds
        the vertex, so its least e(k) is the family's least value."""
        pairs = [(k, self.exponent(k)) for k in self.indices_within(bound)]
        least = min((e for _, e in pairs), default=0)
        if least < 0:
            raise NegativeExponent(f"{self} takes the value {least} < 0")
        return pairs


def bilateral_sum(families, order: int) -> TruncatedSeries:
    """Sum of sign(k)*q^e(k) over k in Z for each family, truncated."""
    out = [0] * (require_order(order) + 1)
    for fam in families:
        for k, e in fam.exponents_within(order):
            out[e] += fam.sign(k)
    return TruncatedSeries(tuple(out))


# the s values of each part: part 1 is regime III, part 2 regime IV
PART_S = {1: (2, 4), 2: (1, 3)}


def part_of(s: int) -> int:
    """The part whose PART_S holds s; 2 for any s outside part 1."""
    return 1 if s in PART_S[1] else 2


def _require_s(s: int, *parts: int) -> None:
    """Raise ValueError unless s is an s value of one of parts."""
    allowed = sorted(t for part in parts for t in PART_S[part])
    if s not in allowed:
        *rest, last = allowed
        raise ValueError(f"s must be {', '.join(map(str, rest))} or {last}")


def rho_families(s: int) -> list[QuadraticExponentFamily]:
    """The families of the bilateral series rho.

    s in {2, 4} (eq. 4.1): k(15k+3s-5)/2 and (3k-s/2)(5k-3+s/2)/2, both
    with sign (-1)^(k((s-1)k-1)/2); the second expands to
    (15k^2-(9+s)k+2)/2, since (6s-s^2)/4 = 2 at both s.
    s in {1, 3} (eq. 4.2): k(5k-s)/2 with sign (-1)^(k(k+s)/2).
    """
    _require_s(s, 1, 2)
    if part_of(s) == 2:
        return [QuadraticExponentFamily(5, -s, 0, s2=1, s1=s, den=2)]
    return [
        QuadraticExponentFamily(15, 3 * s - 5, 0, s2=s - 1, s1=-1, den=2),
        QuadraticExponentFamily(15, -(9 + s), 2, s2=s - 1, s1=-1, den=2),
    ]


def decomposition_families(s: int) -> list[QuadraticExponentFamily]:
    """The families whose theta series times sum p(n) q^n generates R_s
    (s in {2, 4}: k(5k+1-s) with sign (-1)^k) or R*_s (s in {1, 3}:
    15k^2-(5-3s)k with sign +1 and 15k^2+(5+3s)k+s with sign -1)."""
    _require_s(s, 1, 2)
    if part_of(s) == 1:
        return [QuadraticExponentFamily(5, 1 - s, 0, s1=1)]
    return [
        QuadraticExponentFamily(15, -(5 - 3 * s), 0),
        QuadraticExponentFamily(15, 5 + 3 * s, s, base_sign=-1),
    ]


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
    family = QuadraticExponentFamily(m, 2 * a - m, 0, s2=bq, s1=2 + 2 * bz - bq, den=2)
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
        QuadraticExponentFamily(3 * m, 6 * a - m, 0, s2=3 * bq, s1=6 * bz - bq, den=2),
        # -z^(3n+1) q^(n(3n+1)/2)
        QuadraticExponentFamily(3 * m, 6 * a + m, 2 * a, s2=3 * bq, s1=6 * bz + bq,
                                base_sign=-z.sign, den=2),
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


GAUSS_THETA = QuadraticExponentFamily(1, 0, 0, s1=1)  # (-1)^n q^(n^2)


def gauss_theta_sides(order: int) -> tuple[TruncatedSeries, TruncatedSeries]:
    """sum_n (-1)^n q^(n^2) over n in Z versus (q;q)oo / (-q;q)oo."""
    lhs = bilateral_sum([GAUSS_THETA], order)
    rhs = pochhammer_quotient([EULER], [QPochhammerSpec(-1, 1, 1)], order)
    return lhs, rhs


def partial_theta(k: int, order: int) -> TruncatedSeries:
    """1 + 2*sum_{j=1..k} (-1)^j q^(2j^2): the truncation that drives the
    identity-versus-tail checks and the sign conjecture."""
    require_order(order)
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


# (numerators, denominators) of the even Gauss factor (-q^2;q^2)oo / (q^2;q^2)oo
EVEN_GAUSS_FACTORS = ((QPochhammerSpec(-1, 2, 2),), (QPochhammerSpec(1, 2, 2),))


def even_gauss_factor(order: int) -> TruncatedSeries:
    """(-q^2;q^2)oo / (q^2;q^2)oo."""
    return pochhammer_quotient(*EVEN_GAUSS_FACTORS, order)


def truncated_gauss_lhs(k: int, order: int,
                        factor: TruncatedSeries | None = None) -> TruncatedSeries:
    """(-1)^k * (even_gauss_factor * partial_theta(k) - 1); factor, when
    given, is even_gauss_factor to order or beyond."""
    if k < 1:
        raise ValueError("k must be >= 1")
    require_reach("factor", factor, order)
    if factor is None:
        factor = even_gauss_factor(order)
    shifted = factor * partial_theta(k, order) - TruncatedSeries.one(order)
    return shifted if k % 2 == 0 else -shifted


def truncated_gauss_rhs(k: int, order: int) -> TruncatedSeries:
    """2 * (-q^2;q^2)_k / (q^2;q^2)_k times the tail
    sum_{n>k} q^(2n(k+1)) (-q^(2n+2);q^2)oo / ((1-q^(2n)) (q^(2n+2);q^2)oo).

    Every exponent is even, so the side is built in x = q^2 to order
    order // 2 and stretched.  From the first summand n = k+1 on,
    consecutive terms differ by a shift of k+1 in x, a multiplication by
    (1-x^(n-1)) and a division by (1+x^n): _horner_sum folds them in at
    one pass per factor per summand, about order^2 / (4(k+1)) steps, since
    each division by (1+x^n) is dense.  The first term's quotient
    (-x^(k+2);x)oo / (x^(k+1);x)oo is (x;x)_k / (-x;x)_(k+1) times
    (-x;x)oo / (x;x)oo, and the ratio (-x;x)_k / (x;x)_k cancels its finite
    part down to 1/(1+x^(k+1)): one binomial division.  (-x;x)oo / (x;x)oo
    is 1/theta(x), theta(x) = sum_n (-1)^n x^(n^2) by Gauss's identity
    (gauss_theta_sides, checked by `verify gauss`): one division by the
    sparse theta.  The lead x^((k+1)^2) is applied last.
    truncated_gauss_lhs reaches (-x;x)oo / (x;x)oo by the product route of
    even_gauss_factor.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    half = require_order(order) // 2
    lead = (k + 1) ** 2
    if lead > half:
        return TruncatedSeries.zero(order)
    horner = _horner_sum(k + 1, lambda n: n * (k + 1), lambda n: ([(-1, n - 1)], [(1, n)]),
                         half - lead)
    tail = TruncatedSeries(tuple(div_binomial(horner.scale(2).coeffs, 1, k + 1)))
    tail /= bilateral_sum([GAUSS_THETA], half - lead)
    return TruncatedSeries((0,) * lead + tail.coeffs).stretch(2, order)


# ---------------------------------------------------------------------------
# Rogers-Ramanujan functions and the regime sums
# ---------------------------------------------------------------------------


def rogers_ramanujan_sum(shift: int, order: int) -> TruncatedSeries:
    """sum q^(n^2+shift*n)/(q;q)_n: G for shift 0, H for shift 1, by
    _horner_sum with one division by (1-q^n) per summand."""
    return _horner_sum(0, lambda n: n * n + shift * n, lambda n: ([], [(-1, n)]), order)


def _rogers_ramanujan(shift: int, order: int) -> tuple[TruncatedSeries, TruncatedSeries]:
    """The sum form of rogers_ramanujan_sum and the product form
    1/(q^a, q^(5-a); q^5)oo with a = 1+shift."""
    a = 1 + shift
    return rogers_ramanujan_sum(shift, order), pochhammer_quotient(
        [], [QPochhammerSpec(1, a, 5), QPochhammerSpec(1, 5 - a, 5)], order
    )


def rr_G(order: int) -> tuple[TruncatedSeries, TruncatedSeries]:
    """G(q) = sum q^(n^2)/(q;q)_n = 1/(q, q^4; q^5)oo; returns both forms."""
    return _rogers_ramanujan(0, order)


def rr_H(order: int) -> tuple[TruncatedSeries, TruncatedSeries]:
    """H(q) = sum q^(n^2+n)/(q;q)_n = 1/(q^2, q^3; q^5)oo; both forms."""
    return _rogers_ramanujan(1, order)


def _regime_terms(s: int):
    """(exponent, factors, start) of the regime sum for s: for s in {2, 4}
    the regime-III sum_n (-q;q)_n q^(n(3n+s-1)/2) / (q;q)_(2n+1), for
    s in {1, 3} the regime-IV sum_n q^(n(n+1)) / (q;q)_(2n+d), d = (s-1)/2.

    The summand is q^exponent(n) base_n.  base_0 is 1/prod (1 - q^m) over
    m in start, and factors(n), in the shape _horner_sum reads, gives
    base_n/base_(n-1) with denominators only: regime III starts at
    1/(1-q), with ratio (1+q^n)/((1-q^2n)(1-q^(2n+1))) =
    1/((1-q^n)(1-q^(2n+1))); regime IV starts at 1/(q;q)_d, with ratio
    1/((1-q^(2n-1+d))(1-q^(2n+d))).
    """
    _require_s(s, 1, 2)
    if part_of(s) == 1:
        return (lambda n: n * (3 * n + s - 1) // 2,
                lambda n: ([], [(-1, n), (-1, 2 * n + 1)]), [1])
    d = (s - 1) // 2
    return (lambda n: n * (n + 1),
            lambda n: ([], [(-1, 2 * n - 1 + d), (-1, 2 * n + d)]), [1] * d)


def regime_sum(s: int, order: int) -> TruncatedSeries:
    """The regime sum of _regime_terms(s): _horner_sum folds the summands
    in at two binomial divisions each, and the result is divided by
    (1-q^m) once per m in start."""
    exponent, factors, start = _regime_terms(s)
    v = _horner_sum(0, exponent, factors, order).coeffs
    for m in start:
        v = div_binomial(v, -1, m)
    return TruncatedSeries(tuple(v))


def regime_sum_parities(ss, order: int) -> dict[int, ParitySeries]:
    """regime_sum(s, order) reduced mod 2 for each s in ss, by one
    _backward_parity_walk over the same terms (_parity_schedule), with
    multiplications only: s = 2 and s = 4, or s = 1 and s = 3, share it."""
    walks = _backward_parity_walk([_parity_schedule(s, order) for s in ss], order)
    return dict(zip(ss, walks))


def regime3_sum(s: int, order: int) -> TruncatedSeries:
    """sum_n (-q;q)_n q^(n(3n+s-1)/2) / (q;q)_(2n+1), s in {2, 4}."""
    _require_s(s, 1)
    return regime_sum(s, order)


def regime4_sum(s: int, order: int) -> TruncatedSeries:
    """sum_n q^(n(n+1)) / (q;q)_(2n+(s-1)/2), s in {1, 3}."""
    _require_s(s, 2)
    return regime_sum(s, order)


def _last_index(exponent, first: int, top: int) -> int:
    """The last n >= first with exponent(n) <= top, exponent strictly
    increasing."""
    last = first
    while exponent(last + 1) <= top:
        last += 1
    return last


def _horner_sum(first: int, exponent, factors, order: int) -> TruncatedSeries:
    """sum_{n>=first} q^(exponent(n)-exponent(first)) h_(first+1)...h_n up
    to q^order, exponent strictly increasing.

    h_n is the product of the (1 + c*q^m) for (c, m) in factors(n)[0],
    divided by those in factors(n)[1]: the ratio base_n/base_(n-1) of
    consecutive summands, so that sum_n q^exponent(n) base_n is
    q^exponent(first) base_first times the result.  Horner's rule from the
    last summand M with exponent(M)-exponent(first) <= order: V_M = 1 and
    V_(n-1) = 1 + q^(exponent(n)-exponent(n-1)) h_n V_n, where V_n is needed
    only to q^(order-exponent(n)+exponent(first)).  Each summand costs one
    binomial pass per factor, and the shift and the "1 +" build one new
    list, so every pass reads a list.
    """
    top = require_order(order) + exponent(first)
    last = _last_index(exponent, first, top)
    e = exponent(last)
    v = [1] + [0] * (top - e)
    for n in range(last, first, -1):
        numerators, denominators = factors(n)
        for c, m in denominators:
            v = div_binomial(v, c, m)
        for c, m in numerators:
            v = mul_binomial(v, c, m)
        prev = exponent(n - 1)
        v = [1] + [0] * (e - prev - 1) + v
        e = prev
    return TruncatedSeries(tuple(v))


def _parity_schedule(s: int, order: int) -> tuple[list[int], dict[int, int]]:
    """The walk of regime_sum_parities((s,), order) as (steps, reads).

    steps lists the m of every denominator (1 - q^m) in the order the terms
    meet them: start, then factors(1), factors(2), ... up to the last n
    with exponent(n) <= order.  reads maps a position p in steps to the
    exponent at which the base 1/prod (1 - q^m) over steps[:p] enters the
    sum: base_n sits at p = len(start) plus the number of denominators in
    factors(1..n).  _regime_terms has no numerators and starts at
    exponent(0) = 0.
    """
    exponent, factors, start = _regime_terms(s)
    last = _last_index(exponent, 0, require_order(order))
    steps, reads = list(start), {len(start): 0}
    for n in range(1, last + 1):
        steps += [m for _, m in factors(n)[1]]
        reads[len(steps)] = exponent(n)
    return steps, reads


def _backward_parity_walk(schedules, order: int) -> list[ParitySeries]:
    """sum_p q^reads[p] / prod (1 - q^m) over steps[:p], mod 2 up to
    q^order, for each (steps, reads) in schedules, by one walk down the
    longest steps; the other steps must be prefixes of it.

    Mod 2, with x = q^2, Frobenius splits each base once: 1/(1 + q^m) is
    (1 + q^m)/(1 + x^m) for odd m and 1/(1 + x^(m/2)) for even m, so the
    base at p is O_p(q) Y_p(x), O_p the product of the (1 + q^m) over the
    odd steps[:p].  Y walks down from one reciprocal_bits at precision
    order//2, one half-width shift per step.  Each sum is a backward Horner
    accumulator T = T_e(x) + q T_o(x): a read XORs Y, shifted, into the part
    of the exponent's parity, and an odd step 2k + 1 sets T_e += x^(k+1) T_o
    and T_o += x^k T_e from the old values, down to p = 0 (so also below the
    first read).  The parts are then interleaved.  All ints are top-down
    (x^j at bit order//2 - j), so a right shift drops exactly the terms past
    the top; at even orders T_o's last term lies past q^order, and the
    interleave drops it.
    """
    steps = max((c for c, _ in schedules), key=len)
    if any(steps[:len(c)] != c for c, _ in schedules):
        raise ValueError("the schedules walk different steps")
    halved = [m if m & 1 else m >> 1 for m in steps]
    base = ParitySeries.reciprocal_bits(halved, require_order(order) // 2)
    parts = [[0, 0] for _ in schedules]
    for p in range(len(steps), -1, -1):
        for part, (_, reads) in zip(parts, schedules):
            if p in reads:
                part[reads[p] & 1] ^= base >> (reads[p] >> 1)
        if p:
            base ^= base >> halved[p - 1]
            if steps[p - 1] & 1:
                k = steps[p - 1] >> 1
                for part in parts:
                    even, odd = part
                    part[0] = even ^ (odd >> (k + 1))
                    part[1] = odd ^ (even >> k)
    sums = []
    for even, odd in parts:
        even, odd = ParitySeries.spread_bits(even), ParitySeries.spread_bits(odd)
        bits = (even << 1) ^ odd if order & 1 else even ^ (odd >> 1)
        sums.append(ParitySeries(order, ParitySeries.reverse_bits(bits, order)))
    return sums


def regime3_product(s: int, order: int) -> TruncatedSeries:
    """G(q^2)/(q;q^2)oo for s=2, H(q^2)/(q;q^2)oo for s=4, with G and H
    taken from their summation forms so the comparison against
    regime3_sum is a genuinely independent route."""
    _require_s(s, 1)
    half = rogers_ramanujan_sum(0 if s == 2 else 1, (order + 1) // 2)
    return pochhammer_quotient([], [ODD_PARTS], order, half.stretch(2, order))


def r_factors(s: int) -> tuple[list[QPochhammerSpec], list[QPochhammerSpec]]:
    """(numerators, denominators) of the product generating R_s, s in {2, 4}:
    1/((q;q^2)oo (q^s, q^(10-s); q^10)oo), or R*_s, s in {1, 3}:
    (q^s, q^(10-s), q^10; q^10)oo (q^(10-2s), q^(10+2s); q^20)oo / (q;q)oo."""
    _require_s(s, 1, 2)
    if part_of(s) == 1:
        return [], [ODD_PARTS, QPochhammerSpec(1, s, 10), QPochhammerSpec(1, 10 - s, 10)]
    return [
        QPochhammerSpec(1, s, 10),
        QPochhammerSpec(1, 10 - s, 10),
        QPochhammerSpec(1, 10, 10),
        QPochhammerSpec(1, 10 - 2 * s, 20),
        QPochhammerSpec(1, 10 + 2 * s, 20),
    ], [EULER]


def regime4_product(s: int, order: int) -> TruncatedSeries:
    """The product generating R*_s, s in {1, 3} (r_factors)."""
    _require_s(s, 2)
    return pochhammer_quotient(*r_factors(s), order)


# ---------------------------------------------------------------------------
# the two bilateral-series identities behind the parity theorems
# ---------------------------------------------------------------------------


def _rho_sides(s: int, order: int, numerators, denominators):
    """bilateral_sum(rho_families(s)) versus the product numerators /
    denominators times (q^2;q^2)oo / (-q^2;q^2)oo."""
    gauss_numerators, gauss_denominators = EVEN_GAUSS_FACTORS
    return bilateral_sum(rho_families(s), order), pochhammer_quotient(
        [*numerators, *gauss_denominators], [*denominators, *gauss_numerators], order)


def eq41_sides(s: int, order: int) -> tuple[TruncatedSeries, TruncatedSeries]:
    """Bilateral side versus R_s's product times (q^2;q^2)oo / (-q^2;q^2)oo,
    for s in {2, 4}."""
    _require_s(s, 1)
    return _rho_sides(s, order, *r_factors(s))


def eq42_sides(
    s: int, order: int, first_decade_exponent: int | None = None
) -> tuple[TruncatedSeries, TruncatedSeries]:
    """Bilateral side versus R*_s's product times (q^2;q^2)oo / (-q^2;q^2)oo,
    for s in {1, 3}.

    The first mod-10 product factor defaults to q^s, which is the reading
    that makes the identity hold; passing first_decade_exponent=2 selects
    the alternative literal reading so callers can report its failure.
    """
    _require_s(s, 2)
    numerators, denominators = r_factors(s)
    if first_decade_exponent is not None:
        numerators[0] = QPochhammerSpec(1, first_decade_exponent, 10)
    return _rho_sides(s, order, numerators, denominators)
