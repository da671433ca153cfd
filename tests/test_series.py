"""Ring laws, q-Pochhammer expansion against a naive polynomial oracle,
and the GF(2) mirror."""

from __future__ import annotations

import random

import pytest

from hexparity.series import (
    INFINITE,
    DegenerateFactor,
    NonUnitConstantTerm,
    OrderExceeded,
    ParitySeries,
    QPochhammerSpec,
    TruncatedSeries,
    monomial,
    pochhammer,
    pochhammer_quotient,
    product_of,
)


def poly_mul_oracle(a: list[int], b: list[int], order: int) -> list[int]:
    """Schoolbook polynomial product, independent of the library path."""
    out = [0] * (order + 1)
    for i, ai in enumerate(a[: order + 1]):
        for j, bj in enumerate(b[: order + 1 - i]):
            out[i + j] += ai * bj
    return out


def poch_oracle(sign: int, offset: int, step: int, count, order: int) -> list[int]:
    """Multiply out (sign*q^offset; q^step)_count factor by factor."""
    out = [1] + [0] * order
    k = 0
    while (count is None or k < count):
        e = offset + k * step
        if e > order:
            break
        factor = [0] * (order + 1)
        factor[0] = 1
        factor[e] -= sign
        out = poly_mul_oracle(out, factor, order)
        k += 1
    return out


def random_series(rng: random.Random, order: int, unit: bool = False) -> TruncatedSeries:
    coeffs = [rng.randint(-9, 9) for _ in range(order + 1)]
    if unit:
        coeffs[0] = rng.choice([1, -1])
    return TruncatedSeries.of(coeffs)


def test_monomial_examples():
    assert monomial(1, 0, 5).coeffs == (1, 0, 0, 0, 0, 0)
    assert monomial(-2, 3, 5).coeffs == (0, 0, 0, -2, 0, 0)
    assert monomial(1, 7, 5).coeffs == (0,) * 6  # exponent beyond order


def test_add_sub_negate():
    one = TruncatedSeries.one(4)
    assert (one + (-one)).is_zero()
    q = monomial(1, 1, 3)
    assert (q + q).coeffs == (0, 2, 0, 0)
    rng = random.Random(7)
    a = random_series(rng, 10)
    assert (-(-a)) == a
    b = random_series(rng, 10)
    assert a - b == a + (-b)


def test_mul_telescopes_geometric():
    order = 12
    geometric = TruncatedSeries.of([1] * (order + 1))
    one_minus_q = TruncatedSeries.of([1, -1] + [0] * (order - 1))
    assert (one_minus_q * geometric) == TruncatedSeries.one(order)


def test_mul_identity_and_order_contract():
    rng = random.Random(11)
    a = random_series(rng, 5)
    assert a * TruncatedSeries.one(5) == a
    b = random_series(rng, 3)
    assert (a * b).order == 3


def test_ring_laws_on_random_series():
    rng = random.Random(42)
    for _ in range(60):
        order = rng.randint(0, 64)
        a = random_series(rng, order)
        b = random_series(rng, order)
        c = random_series(rng, order)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_mul_matches_oracle():
    rng = random.Random(3)
    for _ in range(25):
        order = rng.randint(0, 40)
        a = random_series(rng, order)
        b = random_series(rng, order)
        assert list((a * b).coeffs) == poly_mul_oracle(list(a.coeffs), list(b.coeffs), order)


def test_inverse_of_partition_product():
    # 1/(q;q)oo starts 1, 1, 2, 3, 5, 7: the count of 5 is 7
    inv = pochhammer(QPochhammerSpec(1, 1, 1, INFINITE), 6).inverse()
    assert inv.coefficient(5) == 7


def test_inverse_trivial_and_errors():
    one = TruncatedSeries.one(8)
    assert one.inverse() == one
    with pytest.raises(NonUnitConstantTerm):
        TruncatedSeries.zero(4).inverse()
    with pytest.raises(NonUnitConstantTerm):
        TruncatedSeries.of([2, 1, 1]).inverse()


def test_inverse_roundtrip_on_random_units():
    rng = random.Random(99)
    for _ in range(100):
        order = rng.randint(0, 30)
        a = random_series(rng, order, unit=True)
        assert a * a.inverse() == TruncatedSeries.one(order)


def test_pochhammer_pentagonal_pattern():
    s = pochhammer(QPochhammerSpec(1, 1, 1, INFINITE), 7)
    assert s.coeffs == (1, -1, -1, 0, 0, 1, 0, 1)
    assert list(s.coeffs) == poch_oracle(1, 1, 1, None, 7)


def test_pochhammer_small_cases():
    assert pochhammer(QPochhammerSpec(1, 2, 3, 0), 5) == TruncatedSeries.one(5)
    assert pochhammer(QPochhammerSpec(-1, 1, 1, 1), 3).coeffs == (1, 1, 0, 0)


def test_pochhammer_matches_oracle_randomized():
    rng = random.Random(17)
    for _ in range(40):
        sign = rng.choice([1, -1])
        offset = rng.randint(0, 6)
        step = rng.randint(1, 5)
        count = rng.choice([None, 0, 1, 2, 5])
        if sign == 1 and offset == 0 and count != 0:
            continue
        order = rng.randint(0, 30)
        spec = QPochhammerSpec(sign, offset, step, count)
        assert list(pochhammer(spec, order).coeffs) == poch_oracle(
            sign, offset, step, count, order
        )


def test_pochhammer_infinite_equals_finite_window():
    # factors beyond the order are provably irrelevant
    order = 24
    inf = pochhammer(QPochhammerSpec(1, 2, 3, INFINITE), order)
    needed = (order - 2) // 3 + 1
    fin = pochhammer(QPochhammerSpec(1, 2, 3, needed), order)
    assert inf == fin


def test_degenerate_factor_rejected():
    with pytest.raises(DegenerateFactor):
        QPochhammerSpec(1, 0, 1, INFINITE)
    with pytest.raises(DegenerateFactor):
        QPochhammerSpec(1, 0, 2, 3)
    QPochhammerSpec(1, 0, 2, 0)  # empty product is fine
    QPochhammerSpec(-1, 0, 2, 3)  # (-q^0; ...) factors are 2, not 0


def test_product_of_empty_and_square():
    assert product_of([], 6) == TruncatedSeries.one(6)
    spec = QPochhammerSpec(1, 1, 1, INFINITE)
    square = product_of([spec, spec], 10)
    single = list(pochhammer(spec, 10).coeffs)
    assert list(square.coeffs) == poly_mul_oracle(single, single, 10)


def test_pochhammer_quotient_matches_inverse():
    num = [QPochhammerSpec(-1, 1, 2, INFINITE)]
    den = [QPochhammerSpec(1, 1, 1, INFINITE), QPochhammerSpec(1, 3, 4, 2)]
    q = pochhammer_quotient(num, den, 20)
    direct = product_of(num, 20) * product_of(den, 20).inverse()
    assert q == direct

    # random spec lists against schoolbook products and the series inverse
    def random_specs(rng, min_offset):
        specs, count = [], rng.randint(0, 3)
        while len(specs) < count:
            sign, offset = rng.choice([1, -1]), rng.randint(min_offset, 6)
            if sign == 1 and offset == 0:
                continue
            specs.append((sign, offset, rng.randint(1, 5), rng.choice([None, 0, 1, 2, 4])))
        return specs

    def schoolbook(specs, order):
        out = TruncatedSeries.one(order)
        for spec in specs:
            out = out * TruncatedSeries.of(poch_oracle(*spec, order))
        return out

    rng = random.Random(37)
    for _ in range(80):
        order = rng.randint(0, 40)
        num, den = random_specs(rng, 0), random_specs(rng, 1)
        q = pochhammer_quotient([QPochhammerSpec(*a) for a in num],
                                [QPochhammerSpec(*a) for a in den], order)
        assert q == schoolbook(num, order) * schoolbook(den, order).inverse()


def test_coefficient_access():
    inv = pochhammer(QPochhammerSpec(1, 1, 1, INFINITE), 10).inverse()
    assert inv.coefficient(5) == 7
    assert pochhammer_quotient([], [], 4).coefficient(0) == 1
    assert TruncatedSeries.zero(4).coefficient(3) == 0
    with pytest.raises(OrderExceeded):
        inv.coefficient(11)


def test_shift_scale_stretch():
    a = TruncatedSeries.of([1, 2, 3])
    assert a.shift(1).coeffs == (0, 1, 2)
    assert a.scale(-3).coeffs == (-3, -6, -9)
    assert a.stretch(2, 5).coeffs == (1, 0, 2, 0, 3, 0)
    with pytest.raises(OrderExceeded):
        a.stretch(2, 6)


def test_reduce_mod2_examples():
    s = TruncatedSeries.of([0, 2, 3])
    assert s.reduce_mod2().bit_list() == [0, 0, 1]
    assert TruncatedSeries.zero(5).reduce_mod2().bits == 0


def test_parity_is_ring_homomorphism():
    rng = random.Random(23)
    for _ in range(20):
        a = random_series(rng, 200)
        b = random_series(rng, 200)
        assert (a * b).reduce_mod2() == a.reduce_mod2() * b.reduce_mod2()
        assert (a + b).reduce_mod2() == a.reduce_mod2() + b.reduce_mod2()


def test_parity_commutes_with_inverse():
    rng = random.Random(29)
    for _ in range(20):
        a = random_series(rng, 64, unit=True)
        assert a.inverse().reduce_mod2() == a.reduce_mod2().inverse()


def test_parity_binomial_ops_match_bigint():
    rng = random.Random(31)
    for _ in range(20):
        a = random_series(rng, 150)
        m = rng.randint(1, 12)
        assert a.times_binomial(1, m).reduce_mod2() == a.reduce_mod2().times_binomial(m)
        assert a.div_binomial(-1, m).reduce_mod2() == a.reduce_mod2().div_binomial(m)
        assert a.shift(m).reduce_mod2() == a.reduce_mod2().shift(m)


def test_parity_series_validation():
    with pytest.raises(ValueError):
        ParitySeries(3, 1 << 5)
    assert ParitySeries.from_bit_positions(4, [0, 2, 9]).bit_list() == [1, 0, 1, 0, 0]
