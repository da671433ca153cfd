"""Two-sided agreement for every theta-identity endpoint, with restricted
partition DPs as independent oracles where the coefficients count things."""

from __future__ import annotations

from fractions import Fraction

import pytest

from hexparity.series import (
    INFINITE,
    DegenerateFactor,
    QPochhammerSpec,
    TruncatedSeries,
    monomial,
    pochhammer,
    pochhammer_quotient,
)
from hexparity.theta import (
    Monomial,
    monomial_pochhammer,
    NegativeExponent,
    QuadraticExponentFamily,
    bilateral_sum,
    eq41_sides,
    eq42_sides,
    even_binomial_ratio,
    eq41_families,
    gauss_error_tail,
    gauss_theta_sides,
    jtp_sides,
    partial_theta,
    pentagonal_family,
    quintuple_sides,
    regime3_product,
    regime3_sum,
    regime3_sum_parity,
    regime4_product,
    regime4_sum,
    regime4_sum_parity,
    rr_G,
    rr_H,
    eq42_family,
    truncated_gauss_lhs,
    truncated_gauss_rhs,
)


def restricted_count(n_max: int, allows) -> list[int]:
    """Tiny independent DP over an arbitrary allowed-part predicate."""
    values = [0] * (n_max + 1)
    values[0] = 1
    for part in range(1, n_max + 1):
        if not allows(part):
            continue
        for i in range(part, n_max + 1):
            values[i] += values[i - part]
    return values


def test_bilateral_square_family():
    fam = QuadraticExponentFamily.make(1, 0, 0)
    assert bilateral_sum([fam], 5).coeffs == (1, 2, 0, 0, 2, 0)


def test_bilateral_pentagonal_matches_pochhammer():
    fam = pentagonal_family()
    assert bilateral_sum([fam], 7).coeffs == (1, -1, -1, 0, 0, 1, 0, 1)
    oracle = pochhammer(QPochhammerSpec(1, 1, 1, INFINITE), 60)
    assert bilateral_sum([fam], 60) == oracle


def test_bilateral_order_independence_and_hits():
    fams = eq41_families(2)
    a = bilateral_sum(fams, 50)
    b = bilateral_sum(list(reversed(fams)), 50)
    assert a == b
    assert a.coefficient(0) == 1
    _, hits = bilateral_sum(fams, 500, track_hits=True)
    assert all(m == 1 for m in hits.values())


def test_family_integrality_guard():
    bad = QuadraticExponentFamily.make(Fraction(1, 2), 0, 0)
    with pytest.raises(ValueError):
        bad.exponent(1)


def test_indices_within_matches_exhaustive_scan():
    # coefficients chosen so e(k) is always an integer and |k| > 60
    # guarantees e(k) > bound, making the brute window exact
    import random

    rng = random.Random(13)
    for _ in range(200):
        half = Fraction(rng.randint(1, 6), 2)
        a1 = rng.randint(-5, 5) - half
        a0 = Fraction(rng.randint(0, 5))
        fam = QuadraticExponentFamily.make(half, a1, a0)
        bound = rng.randint(0, 200)
        expected = [k for k in range(-60, 61) if fam.exponent(k) <= bound]
        assert sorted(fam.indices_within(bound)) == expected


def test_negative_exponent_raises():
    fam = QuadraticExponentFamily.make(1, -5, 0)  # e(1) = -4
    with pytest.raises(NegativeExponent):
        bilateral_sum([fam], 10)
    with pytest.raises(NegativeExponent):
        jtp_sides(1, 3, 1, 1, 10)  # q/z has exponent 1-3 < 0


def test_monomial_pochhammer_matches_schoolbook_binomials():
    # (base; step)oo multiplied out one explicit binomial (1 - c*q^e) at a
    # time under TruncatedSeries.__mul__, c = base.sign*step.sign^k and
    # e = base.exp + k*step.exp; the errors are checked in the order a
    # factor-by-factor expansion meets them
    import random

    rng = random.Random(41)
    for _ in range(300):
        base = Monomial(rng.choice([1, -1]), rng.randint(-2, 8))
        step = Monomial(rng.choice([1, -1]), rng.randint(0, 6))
        order = rng.randint(0, 40)
        if step.exp < 1:
            with pytest.raises(ValueError) as info:
                monomial_pochhammer(base, step)
            assert type(info.value) is ValueError
            continue
        if base.exp < 0:
            with pytest.raises(NegativeExponent):
                monomial_pochhammer(base, step)
            continue
        if (base.sign, base.exp) == (1, 0):
            with pytest.raises(DegenerateFactor):
                monomial_pochhammer(base, step)
            continue
        expected = TruncatedSeries.one(order)
        k = 0
        while base.exp + k * step.exp <= order:
            c = base.sign * step.sign ** k
            factor = TruncatedSeries.one(order) - monomial(c, base.exp + k * step.exp, order)
            expected = expected * factor
            k += 1
        got = pochhammer_quotient(monomial_pochhammer(base, step), [], order)
        assert got == expected, (base, step, order)


def test_jtp_specializations_agree():
    for z_sign, a in ((-1, 1), (-1, 3)):
        lhs, rhs = jtp_sides(z_sign, a, -1, 5, 300)
        assert lhs == rhs, (z_sign, a)
        assert lhs.coefficient(0) == 1
    # the decomposition route uses q -> q^10, z -> q^(6-s)
    for a in (2, 4):
        lhs, rhs = jtp_sides(1, a, 1, 10, 300)
        assert lhs == rhs


def test_quintuple_specializations_agree():
    for z in (Monomial(1, 2), Monomial(-1, 1)):
        lhs, rhs = quintuple_sides(z, Monomial(-1, 5), 300)
        assert lhs == rhs, z
        assert lhs.coefficient(0) == 1
    for s in (1, 3):
        lhs, rhs = quintuple_sides(Monomial(1, s), Monomial(1, 10), 300)
        assert lhs == rhs, s


def test_specialized_sums_equal_bilateral_families():
    # the substituted triple/quintuple sum sides are exactly the bilateral
    # series driving the congruence checks
    order = 250
    assert quintuple_sides(Monomial(-1, 1), Monomial(-1, 5), order)[0] == \
        bilateral_sum(eq41_families(2), order)
    assert quintuple_sides(Monomial(1, 2), Monomial(-1, 5), order)[0] == \
        bilateral_sum(eq41_families(4), order)
    assert jtp_sides(-1, 1, -1, 5, order)[0] == \
        bilateral_sum([eq42_family(3)], order)
    assert jtp_sides(-1, 3, -1, 5, order)[0] == \
        bilateral_sum([eq42_family(1)], order)
    from hexparity.theta import rstar_families

    for s in (1, 3):
        assert quintuple_sides(Monomial(1, s), Monomial(1, 10), order)[0] == \
            bilateral_sum(rstar_families(s), order)


def test_gauss_theta_sides():
    lhs, rhs = gauss_theta_sides(500)
    assert lhs == rhs
    assert lhs.coefficient(0) == 1
    assert lhs.coefficient(1) == -2
    assert rhs.coefficient(1) == -2


def test_truncated_gauss_identity():
    for k in range(1, 7):
        lhs = truncated_gauss_lhs(k, 200)
        rhs = truncated_gauss_rhs(k, 200)
        assert lhs == rhs, k
        assert rhs.coefficient(0) == 0
    # q^2 coefficient showdown at k=1
    assert truncated_gauss_lhs(1, 10).coefficient(2) == truncated_gauss_rhs(
        1, 10
    ).coefficient(2)


def test_gauss_error_tail_leading_exponent():
    for k in (1, 2, 3):
        tail = gauss_error_tail(k, 120)
        lead = 2 * (k + 1) ** 2
        assert all(c == 0 for c in tail.coeffs[:lead])
        assert tail.coefficient(lead) == 1


def test_rr_sum_equals_product():
    g_sum, g_prod = rr_G(500)
    h_sum, h_prod = rr_H(500)
    assert g_sum == g_prod
    assert h_sum == h_prod
    assert h_sum.coefficient(0) == 1


def test_rr_G_counts_parts_pm1_mod5():
    g_sum, _ = rr_G(30)
    oracle = restricted_count(30, lambda m: m % 5 in (1, 4))
    assert list(g_sum.coeffs) == oracle
    assert g_sum.coefficient(4) == 2  # 4 and 1+1+1+1


def test_rr_H_counts_parts_pm2_mod5():
    h_sum, _ = rr_H(30)
    oracle = restricted_count(30, lambda m: m % 5 in (2, 3))
    assert list(h_sum.coeffs) == oracle


def test_regime3_sum_equals_product_side():
    for s in (2, 4):
        lhs = regime3_sum(s, 300)
        rhs = regime3_product(s, 300)
        assert lhs == rhs, s
        assert lhs.coefficient(0) == 1
        assert all(c >= 0 for c in lhs.coeffs)


def test_regime4_sum_equals_product_side():
    for s in (1, 3):
        lhs = regime4_sum(s, 300)
        rhs = regime4_product(s, 300)
        assert lhs == rhs, s
        assert lhs.coefficient(0) == 1
        assert all(c >= 0 for c in lhs.coeffs)


def test_regime_parity_paths_match_bigint():
    for s in (2, 4):
        assert regime3_sum_parity(s, 400) == regime3_sum(s, 400).reduce_mod2()
    for s in (1, 3):
        assert regime4_sum_parity(s, 400) == regime4_sum(s, 400).reduce_mod2()


def test_eq41_sides_agree():
    for s in (2, 4):
        lhs, rhs = eq41_sides(s, 300)
        assert lhs == rhs, s
        assert lhs.coefficient(0) == 1


def test_eq42_sides_agree_under_qs_reading():
    for s in (1, 3):
        lhs, rhs = eq42_sides(s, 300)
        assert lhs == rhs, s
        assert lhs.coefficient(0) == 1


def test_eq42_literal_q2_reading_fails():
    for s in (1, 3):
        lhs, rhs = eq42_sides(s, 300, first_decade_exponent=2)
        assert lhs != rhs, s


def test_eq41_bilateral_mod2_is_exponent_indicator():
    from hexparity.squares import index_set, SquareProgression

    for s in (2, 4):
        series, hits = bilateral_sum(eq41_families(s), 10_000, track_hits=True)
        assert all(m == 1 for m in hits.values())
        assert sorted(hits) == index_set(
            SquareProgression(120, (3 * s - 5) ** 2), 10_000
        )
        assert series.reduce_mod2().nonzero_positions() == sorted(hits)


def test_partial_theta_structure():
    p2 = partial_theta(2, 20)
    assert p2.coefficient(0) == 1
    assert p2.coefficient(2) == -2
    assert p2.coefficient(8) == 2
    assert even_binomial_ratio(0, 10) == TruncatedSeries.one(10)
