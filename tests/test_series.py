"""Ring laws, q-Pochhammer expansion against a naive polynomial oracle,
and the GF(2) mirror."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain, islice, repeat
from operator import add, mul, sub

import pytest

from hexparity.series import (
    DegenerateFactor,
    NonUnitConstantTerm,
    OrderExceeded,
    ParitySeries,
    QPochhammerSpec,
    TruncatedSeries,
    _binomial_exponents,
    _divide_by_euler,
    _divisor_sums,
    _expand_by_recurrence,
    _pack,
    _unpack,
    _widen,
    div_binomial,
    mul_binomial,
    pochhammer_quotient,
)
from hexparity.theta import GAUSS_THETA, bilateral_sum, even_gauss_factor

from oracles import div_binomial_bits, expand_by_passes, inverse, mul_binomial_bits


def poly_mul_oracle(a: list[int], b: list[int], order: int) -> list[int]:
    """Schoolbook polynomial product, independent of the library path."""
    out = [0] * (order + 1)
    for i, ai in enumerate(a[: order + 1]):
        for j, bj in enumerate(b[: order + 1 - i]):
            out[i + j] += ai * bj
    return out


def poch_oracle(sign: int, offset: int, step: int, order: int, count=None) -> list[int]:
    """Multiply out (sign*q^offset; q^step)_count factor by factor, count
    None meaning infinite."""
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
    return TruncatedSeries(tuple(coeffs))


def sparse_series(rng: random.Random, order: int) -> TruncatedSeries:
    """Coefficients from {0, 1, -1, small, multi-limb}, at a random density."""
    density = rng.random()
    pool = (1, -1, rng.randint(-9, 9), rng.randint(-2**130, 2**130))
    return TruncatedSeries(tuple(
        rng.choice(pool) if rng.random() < density else 0 for _ in range(order + 1)
    ))


def test_add_sub_negate():
    one = TruncatedSeries.one(4)
    assert one + (-one) == TruncatedSeries.zero(4)
    q = TruncatedSeries((0, 1, 0, 0))
    assert (q + q).coeffs == (0, 2, 0, 0)
    rng = random.Random(7)
    a = random_series(rng, 10)
    assert (-(-a)) == a
    b = random_series(rng, 10)
    assert a - b == a + (-b)


def test_mul_telescopes_geometric():
    order = 12
    geometric = TruncatedSeries((1,) * (order + 1))
    one_minus_q = TruncatedSeries((1, -1) + (0,) * (order - 1))
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
    # unequal orders, sparse operands (the sparser one drives the rows), and
    # rows with a_i in {0, 1, -1, other}, other including multi-limb values
    for _ in range(150):
        na, nb = rng.randint(0, 40), rng.randint(0, 40)
        a, b = sparse_series(rng, na), sparse_series(rng, nb)
        n = min(na, nb)
        want = poly_mul_oracle(list(a.coeffs), list(b.coeffs), n)
        assert list((a * b).coeffs) == want
        assert list((b * a).coeffs) == want


def kernel_operand(rng: random.Random, order: int, pool) -> list[int]:
    """Coefficients from pool (None: all distinct, none of them +-1) at a
    random density, the first nonzero one past position 0 (for order >= 1)
    and one at the last position."""
    lead = rng.randint(1, order) if order else 0
    density = rng.random()
    if pool is None:
        values = rng.sample(range(2, 10 * order + 10), order + 1 - lead)
        return [0] * lead + [rng.choice((1, -1)) * v for v in values]
    out = [0] * (order + 1)
    for g in range(lead, order + 1):
        if g in (lead, order) or rng.random() < density:
            out[g] = rng.choice(pool)
    return out


def test_products_through_the_segment_kernel_match_the_schoolbook():
    # the sparser operand's coefficients in {1, -1} (summed and subtracted
    # lags), in {+-1, +-2} (the +-2 lags one scaled group each) or all
    # distinct (dense times dense: every lag scaled on its own), times a
    # denser multi-limb operand, both ways round; orders 0, 1, 2 and up to
    # 300
    rng = random.Random(89)
    grouped = False
    for order in [0, 1, 2] + [rng.randint(3, 300) for _ in range(12)] + [300]:
        for pool in ((1, -1), (1, -1, 2, -2), None):
            a = kernel_operand(rng, order, pool)
            b = [rng.choice((1, -1)) * rng.randint(1, 2**70) for _ in range(order + 1)]
            want = poly_mul_oracle(a, b, order)
            x, y = TruncatedSeries(tuple(a)), TruncatedSeries(tuple(b))
            assert list((x * y).coeffs) == want, (order, pool)
            assert list((y * x).coeffs) == want, (order, pool)
            grouped |= max(a.count(2), a.count(-2)) > 1
    assert grouped


def test_division_through_the_segment_kernel_matches_the_inverse():
    # a random series over a random sparse one with constant term 1 (and
    # -1), against the schoolbook product with the schoolbook inverse; the
    # divisor's terms in {+-1}, {+-1, +-2} or all distinct, its first one
    # past q^0 and one at the last position; unequal orders give the lesser
    rng = random.Random(97)
    for order in [0, 1, 2] + [rng.randint(3, 300) for _ in range(12)] + [300]:
        for pool in ((1, -1), (1, -1, 2, -2), None):
            for unit in (1, -1):
                a = sparse_series(rng, order + rng.randint(0, 2))
                b = TruncatedSeries((unit,) + tuple(kernel_operand(rng, order, pool)[1:]))
                want = poly_mul_oracle(list(a.coeffs), list(inverse(b).coeffs), order)
                assert list((a / b).coeffs) == want, (order, pool, unit)
    for c in (0, 2, -3):
        with pytest.raises(NonUnitConstantTerm):
            TruncatedSeries.one(4) / TruncatedSeries((c, 1, 1))


def test_division_by_theta_is_the_even_gauss_factor():
    # Gauss: 1/theta(x), theta(x) = sum_n (-1)^n x^(n^2), is
    # (-x;x)oo / (x;x)oo, which is even_gauss_factor (the recurrence and
    # Euler divisions) read at its even positions; to x^(10^4), and at the
    # orders around the first squares
    order = 10**4
    theta = bilateral_sum([GAUSS_THETA], order)
    factor = even_gauss_factor(2 * order).coeffs
    for n in [0, 1, 2, 3, 4, 5, 8, 9, 10, 100, order]:
        got = TruncatedSeries.one(n) / TruncatedSeries(theta.coeffs[:n + 1])
        assert got.coeffs == factor[:2 * n + 1:2], n


def test_inverse_of_partition_product():
    # 1/(q;q)oo starts 1, 1, 2, 3, 5, 7: the count of 5 is 7
    inv = inverse(pochhammer_quotient([QPochhammerSpec(1, 1, 1)], [], 6))
    assert inv.coefficient(5) == 7


def test_inverse_trivial_and_errors():
    one = TruncatedSeries.one(8)
    assert inverse(one) == one
    with pytest.raises(NonUnitConstantTerm):
        inverse(TruncatedSeries.zero(4))
    with pytest.raises(NonUnitConstantTerm):
        inverse(TruncatedSeries((2, 1, 1)))


def test_inverse_roundtrip_on_random_units():
    rng = random.Random(99)
    for _ in range(100):
        order = rng.randint(0, 30)
        a = random_series(rng, order, unit=True)
        assert a * inverse(a) == TruncatedSeries.one(order)


def test_pochhammer_pentagonal_pattern():
    s = pochhammer_quotient([QPochhammerSpec(1, 1, 1)], [], 7)
    assert s.coeffs == (1, -1, -1, 0, 0, 1, 0, 1)
    assert list(s.coeffs) == poch_oracle(1, 1, 1, 7)


def test_pochhammer_small_cases():
    # no factor at or below the order, and (-q;q)oo = 1 + q + q^2 + 2q^3
    assert pochhammer_quotient([QPochhammerSpec(1, 6, 3)], [], 5) == TruncatedSeries.one(5)
    assert pochhammer_quotient([QPochhammerSpec(-1, 1, 1)], [], 3).coeffs == (1, 1, 1, 2)


def test_pochhammer_matches_oracle_randomized():
    rng = random.Random(17)
    for _ in range(40):
        sign = rng.choice([1, -1])
        offset = rng.randint(0, 6)
        step = rng.randint(1, 5)
        if sign == 1 and offset == 0:
            continue
        order = rng.randint(0, 30)
        spec = QPochhammerSpec(sign, offset, step)
        assert list(pochhammer_quotient([spec], [], order).coeffs) == poch_oracle(
            sign, offset, step, order
        )


def test_pochhammer_infinite_equals_finite_window():
    # factors beyond the order are provably irrelevant
    order = 24
    inf = pochhammer_quotient([QPochhammerSpec(1, 2, 3)], [], order)
    needed = (order - 2) // 3 + 1
    assert list(inf.coeffs) == poch_oracle(1, 2, 3, order, needed)


def test_degenerate_factor_rejected():
    with pytest.raises(DegenerateFactor):
        QPochhammerSpec(1, 0, 1)
    with pytest.raises(DegenerateFactor):
        QPochhammerSpec(1, 0, 2)
    QPochhammerSpec(-1, 0, 2)  # (-q^0; ...) factors are 2, not 0


def test_product_of_empty_and_square():
    assert pochhammer_quotient([], [], 6) == TruncatedSeries.one(6)
    spec = QPochhammerSpec(1, 1, 1)
    square = pochhammer_quotient([spec, spec], [], 10)
    single = list(pochhammer_quotient([spec], [], 10).coeffs)
    assert list(square.coeffs) == poly_mul_oracle(single, single, 10)


def random_specs(rng: random.Random, min_offset: int) -> list[tuple]:
    """Up to three (sign, offset, step) tuples, none degenerate."""
    specs, count = [], rng.randint(0, 3)
    while len(specs) < count:
        sign, offset = rng.choice([1, -1]), rng.randint(min_offset, 6)
        if sign == 1 and offset == 0:
            continue
        specs.append((sign, offset, rng.randint(1, 5)))
    return specs


def schoolbook(specs, order: int) -> TruncatedSeries:
    """The product of the specs, each multiplied out by poch_oracle."""
    out = TruncatedSeries.one(order)
    for spec in specs:
        out = out * TruncatedSeries(tuple(poch_oracle(*spec, order)))
    return out


def test_pochhammer_quotient_matches_inverse():
    num = [QPochhammerSpec(-1, 1, 2)]
    den = [QPochhammerSpec(1, 1, 1), QPochhammerSpec(1, 3, 4)]
    q = pochhammer_quotient(num, den, 20)
    direct = pochhammer_quotient(num, [], 20) * inverse(pochhammer_quotient(den, [], 20))
    assert q == direct

    # random spec lists against schoolbook products and the series inverse
    rng = random.Random(37)
    for _ in range(80):
        order = rng.randint(0, 40)
        num, den = random_specs(rng, 0), random_specs(rng, 1)
        q = pochhammer_quotient([QPochhammerSpec(*a) for a in num],
                                [QPochhammerSpec(*a) for a in den], order)
        assert q == schoolbook(num, order) * inverse(schoolbook(den, order))


def test_recurrence_matches_binomial_passes():
    # the recurrence helper, called directly whatever the net exponent,
    # against the binomial passes, and at orders <= 40 against schoolbook
    # products and the series inverse; pochhammer_quotient, which divides
    # by (q;q)oo where the net is < 0, must agree too
    named = [
        ([], [(-1, 1, 1)], 300),  # 1/(-q;q)oo: net >= 0, dense
        ([], [(-1, 1, 1)] * 6, 300),  # net >= 0, multi-limb
        ([(-1, 0, 2), (1, 1, 1)], [], 300),  # constant factor 2
        ([(1, 1, 1)], [(-1, 1, 1)], 300),  # Gauss
        ([], [(1, 1, 1)] * 2, 300),  # net < 0, multi-limb
    ]
    rng = random.Random(53)
    cases = named + [
        (random_specs(rng, 0), random_specs(rng, 1),
         rng.randint(0, 40) if i % 2 else rng.randint(0, 300))
        for i in range(120)
    ]
    seen = set()
    for num, den, order in cases:
        numerators = [QPochhammerSpec(*a) for a in num]
        denominators = [QPochhammerSpec(*a) for a in den]
        lead, c = _binomial_exponents(numerators, denominators, order)
        got = _expand_by_recurrence(lead, c)
        want = expand_by_passes([1] + [0] * order, numerators, denominators)
        assert got == want, (num, den, order)
        assert pochhammer_quotient(numerators, denominators, order).coeffs == tuple(want)
        if order <= 40:
            assert got == list((schoolbook(num, order) * inverse(schoolbook(den, order))).coeffs)
        net = sum(c)
        seen.add("net >= 0" if net >= 0 else "net < 0")
        if lead > 1:
            seen.add("constant factor")
        if net >= 0 and max(map(abs, got)).bit_length() > 64:
            seen.add("multi-limb, net >= 0")
        if net < 0 and max(map(abs, got)).bit_length() > 64:
            seen.add("multi-limb, net < 0")
    assert len(seen) == 5, seen


def _list_recurrence(lead: int, c: list[int]) -> list[int]:
    """The logarithmic-derivative recurrence with its pending sums in a
    list: each nonzero f(n) adds f(n)*g(k) to every later pending sum in one
    slice pass, and g is built by one strided pass per m.  The reference for
    the packed kernel."""
    order = len(c) - 1
    g = [0] * (order + 1)
    for m in range(1, order + 1):
        if c[m]:
            g[m::m] = map(sub, g[m::m], repeat(m * c[m]))
    acc = [0] * (order + 1)  # acc[n] = n*f(n) once every f(j < n) is in
    acc[0] = lead
    for n in range(order + 1):
        t = acc[n]
        if not t:
            continue
        if n:
            t, r = divmod(t, n)
            if r:
                raise ArithmeticError(f"{n} does not divide {acc[n]} at q^{n}")
            acc[n] = t
        rest = g[1:order + 1 - n]
        if t == 1:
            acc[n + 1:] = map(add, acc[n + 1:], rest)
        elif t == -1:
            acc[n + 1:] = map(sub, acc[n + 1:], rest)
        else:
            acc[n + 1:] = map(add, acc[n + 1:], map(mul, rest, repeat(t)))
    return acc


# orders around the window of 128 positions read back at a time
WINDOW_ORDERS = (0, 1, 127, 128, 129, 257)


def packed_recurrence_cases(rng: random.Random):
    """(numerators, denominators, order) for the recurrence: named products
    at the window orders, then random spec lists at random orders <= 600."""
    named = [
        ([(1, 1, 1)], [(-1, 1, 1)]),  # Gauss: f and g of both signs
        ([(-1, 0, 2), (1, 1, 1)], []),  # lead = 2
        ([(-1, 0, 1), (-1, 0, 5), (-1, 0, 3), (1, 2, 2)], []),  # lead = 2^3
        ([], [(-1, 1, 1)] * 6),  # dense, multi-limb
        ([(1, 1, 10), (1, 9, 10), (1, 10, 10),
          (1, 8, 20), (1, 12, 20)], []),  # quintuple numerator
    ]
    for num, den in named:
        for order in WINDOW_ORDERS:
            yield num, den, order
    for _ in range(30):
        yield random_specs(rng, 0), random_specs(rng, 1), rng.randint(0, 600)


def test_packed_recurrence_matches_list_oracle(monkeypatch):
    # the packed kernel against the list push and the binomial passes, at
    # the window edges and at random orders; the pending sums take both
    # signs, the lead is a power of 2, and 1/(-q;q)oo^6 is dense and
    # multi-limb, so the slots widen past 8 bytes
    import hexparity.series as series

    widths = []

    def spy(packed, width, wider, count):
        widths.append(wider)
        return _widen(packed, width, wider, count)

    monkeypatch.setattr(series, "_widen", spy)
    rng = random.Random(71)
    seen = set()
    for num, den, order in packed_recurrence_cases(rng):
        numerators = [QPochhammerSpec(*a) for a in num]
        denominators = [QPochhammerSpec(*a) for a in den]
        lead, c = _binomial_exponents(numerators, denominators, order)
        widths.clear()
        got = _expand_by_recurrence(lead, c)
        assert got == _list_recurrence(lead, c), (num, den, order)
        assert got == expand_by_passes([1] + [0] * order, numerators, denominators)
        if min(got) < 0 and order >= 128:
            seen.add("negative, packed")
        if lead > 2:
            seen.add("lead 2^k")
        if widths:
            seen.add("widened")
        if max(widths, default=0) > 8:
            seen.add("wide slots")
    assert seen == {"negative, packed", "lead 2^k", "widened", "wide slots"}, seen


def test_packed_recurrence_survives_every_regrow(monkeypatch):
    # the width rule cut to the smallest width that holds the bound, so that
    # nearly every rise of the bound re-encodes the slots, most of them at
    # widths struct cannot read whole
    import hexparity.series as series

    widths = set()

    def spy(packed, width, wider, count):
        widths.add(wider)
        return _widen(packed, width, wider, count)

    monkeypatch.setattr(series, "_slot_width", lambda bound, width: bound.bit_length() // 8 + 1)
    monkeypatch.setattr(series, "_widen", spy)
    rng = random.Random(73)
    for num, den, order in packed_recurrence_cases(rng):
        numerators = [QPochhammerSpec(*a) for a in num]
        denominators = [QPochhammerSpec(*a) for a in den]
        lead, c = _binomial_exponents(numerators, denominators, order)
        assert _expand_by_recurrence(lead, c) == _list_recurrence(lead, c), (num, den, order)
    assert widths - {1, 2, 4, 8} and max(widths) > 8, widths


def test_packed_slots_round_trip():
    # values at the edges of each slot width, packed, read back, and widened
    # to every larger width up to 12 bytes, struct widths and others alike
    rng = random.Random(83)
    for width in range(1, 13):
        half = 1 << 8 * width - 1
        values = [-half, half - 1, 0, 1, -1] + [rng.randint(-half, half - 1) for _ in range(40)]
        packed = _pack(values, width)
        assert _unpack(packed, width, len(values)) == values, width
        assert _unpack(packed, width, 3) == values[:3], width
        for wider in range(width + 1, 13):
            assert _widen(packed, width, wider, len(values)) == _pack(values, wider)


def test_divisor_sums_match_per_m_loop():
    # the hyperbola split against one strided pass per m, on random c with
    # zeros, at every order up to 64 and around 1000 and 1024
    rng = random.Random(79)
    for order in list(range(65)) + [999, 1000, 1024]:
        c = [0] + [rng.choice([0, 0, 1, -1, 2, rng.randint(-9, 9)]) for _ in range(order)]
        want = [0] * (order + 1)
        for m in range(1, order + 1):
            for k in range(m, order + 1, m):
                want[k] -= m * c[m]
        assert _divisor_sums(c) == want, order


def test_list_iterator_yields_items_extend_appends():
    # both divisions extend a list through maps whose lag operands are
    # iterators over that same list, made before the extend (the segment
    # kernel keeps them across several extends); they rely on a list
    # iterator yielding the items appended after it was made
    out = [0, 1]
    lag2, lag1 = iter(out), iter(out)
    next(lag1)
    out.extend(map(add, islice(lag2, 3), lag1))
    assert out == [0, 1, 1, 2, 3]
    out.extend(map(sum, zip(islice(repeat(0), 3), lag2, lag1)))
    assert out == [0, 1, 1, 2, 3, 5, 8, 13]


# the first generalized pentagonal numbers k(3k -+ 1)/2, and those of k = 9
# and 10, which lie around 128
PENTAGONAL = (1, 2, 5, 7, 12, 15, 117, 126, 145)


def euler_divisions(monkeypatch) -> list[tuple[int, int]]:
    """The (d, k) of every division by (q^d;q^d)oo^k that the quotient
    route makes from here on, in call order."""
    import hexparity.series as series

    calls, divide = [], series._divide_by_euler

    def spy(coeffs, d, times):
        calls.append((d, times))
        divide(coeffs, d, times)

    monkeypatch.setattr(series, "_divide_by_euler", spy)
    return calls


def test_division_kernel_matches_binomial_passes(monkeypatch):
    # the division by (q^d;q^d)oo^k against the binomial passes, on
    # [1, 0, ...] and on random start lists: spec lists in q^d for d = 1, 2
    # and 5 (pochhammer_quotient without and with a start, whether or not
    # they divide) and the division alone, at orders 0..3 and g - 1, g and g + 1
    # for pentagonal numbers g, where the Euler division takes on a lag and
    # starts a new segment; the division alone also at 300
    orders = sorted({0, 1, 2, 3} | {g + e for g in PENTAGONAL for e in (-1, 0, 1)})
    named = [
        ([], [(1, 1, 1)]),  # 1/(q;q)oo
        ([(1, 1, 10), (1, 9, 10), (1, 10, 10),
          (1, 8, 20), (1, 12, 20)], [(1, 1, 1)]),  # regime IV
        ([(-1, 2, 2)], [(1, 2, 2)]),  # (-q^2;q^2)oo/(q^2;q^2)oo, k = 2
        ([(1, 5, 10)], [(1, 5, 5)] * 2),  # d = 5
        ([(-1, 0, 3)], [(1, 1, 1)]),  # constant factor 2
        ([], [(1, 1, 1)] * 4),  # multi-limb
    ]
    rng = random.Random(59)
    cases = [(num, den, order) for num, den in named for order in orders]
    for i in range(140):
        d = (1, 2, 5)[i % 3]
        num = [(sg, d * o, d * st) for sg, o, st in random_specs(rng, 0)]
        den = [(sg, d * o, d * st) for sg, o, st in random_specs(rng, 1)]
        den.append((1, d * rng.randint(1, 3), d * rng.randint(1, 2)))
        cases.append((num, den, rng.choice(orders + [rng.randint(4, 300)])))
    divisions = euler_divisions(monkeypatch)
    seen = set()
    for num, den, order in cases:
        numerators = [QPochhammerSpec(*a) for a in num]
        denominators = [QPochhammerSpec(*a) for a in den]
        divisions.clear()
        want = expand_by_passes([1] + [0] * order, numerators, denominators)
        assert pochhammer_quotient(numerators, denominators, order).coeffs == tuple(want)
        start = sparse_series(rng, order)
        want_times = expand_by_passes(list(start.coeffs), numerators, denominators)
        got_times = pochhammer_quotient(numerators, denominators, order, start)
        assert got_times.coeffs == tuple(want_times), (num, den, order)
        if not divisions:
            continue
        d, _ = divisions[0]
        seen |= {f"d = {d}", f"order {order}"}
        if _binomial_exponents(numerators, denominators, order)[0] > 1:
            seen.add("constant factor")
        if max(map(abs, want)).bit_length() > 64:
            seen.add("multi-limb")
    # at order 0 there is no factor, so the net is 0 and nothing is divided
    assert seen >= {"d = 1", "d = 2", "d = 5", "constant factor", "multi-limb"} | {
        f"order {n}" for n in orders[1:]}, seen

    # the division alone on random start lists, d and k from 1 to 3
    for order in orders + [300]:
        for d in (1, 2, 5):
            for k in (1, 2, 3):
                got = list(sparse_series(rng, order).coeffs)
                want = expand_by_passes(got[:], [], [QPochhammerSpec(1, d, d)] * k)
                _divide_by_euler(got, d, k)
                assert got == want, (order, d, k)


def test_offsets_above_the_step_match_binomial_passes(monkeypatch):
    # infinite specs (sign*q^o; q^t)oo with o > t, whose exponents c[m]
    # are 0 below m = o, so that the numerator the recurrence expands can
    # be dense: o a multiple of t and not, both signs, t = 1..5, alone on
    # either side, beside a partition-type denominator (net < 0), and in
    # the shape (-q^(o+t);q^t)oo / (q^o;q^t)oo; orders 0, 1, t, o - 1, o,
    # o + 1 and one up to 200.  pochhammer_quotient without and with a start
    # against the binomial passes on the specs as given
    rng = random.Random(67)
    divisions = euler_divisions(monkeypatch)
    seen = set()
    for t in range(1, 6):
        for o in sorted({t + 1, 2 * t, 2 * t + 1, 3 * t, 4 * t - 1} - {t}):
            for sign in (1, -1):
                spec = (sign, o, t)
                cases = [
                    ([spec], []),
                    ([], [spec]),
                    ([spec], [(1, 1, 1)]),
                    ([(-1, o + t, t)], [(1, o, t)]),
                ]
                for num, den in cases:
                    numerators = [QPochhammerSpec(*a) for a in num]
                    denominators = [QPochhammerSpec(*a) for a in den]
                    for order in sorted({0, 1, t, o - 1, o, o + 1, rng.randint(2, 200)}):
                        divisions.clear()
                        want = expand_by_passes([1] + [0] * order, numerators, denominators)
                        got = pochhammer_quotient(numerators, denominators, order)
                        assert got.coeffs == tuple(want), (num, den, order)
                        seen.add("net < 0" if divisions else "net >= 0")
                        start = sparse_series(rng, order)
                        want = expand_by_passes(list(start.coeffs), numerators, denominators)
                        got = pochhammer_quotient(numerators, denominators, order, start)
                        assert got.coeffs == tuple(want), (num, den, order)
    assert seen == {"net < 0", "net >= 0"}, seen


def test_exponents_left_negative_run_the_recurrence(monkeypatch):
    # all-infinite quotients whose exponents c[m] stay negative at some m
    # after the Euler count is added at the multiples of d, so that the
    # recurrence expands a numerator with a denominator still in it before
    # the Euler divisions; against the binomial passes at orders 0, 1, 130
    # and 600
    import hexparity.series as series

    shapes = [
        ([], [(1, 1, 2)] + [(1, 2, 2)] * 3),  # 1/((q;q^2)oo (q^2;q^2)oo^3)
        ([], [(1, 1, 1)] + [(1, 3, 3)] * 4),  # 1/((q;q)oo (q^3;q^3)oo^4)
        ([(1, 2, 2)] * 2, [(1, 1, 1)] + [(1, 5, 5)] * 3),  # (q^2;q^2)oo^2 / ((q;q)oo (q^5;q^5)oo^3)
    ]
    recurrence, lowest = series._expand_by_recurrence, []

    def spy(lead, c):
        lowest.append(min(c))
        return recurrence(lead, c)

    monkeypatch.setattr(series, "_expand_by_recurrence", spy)
    divisions = euler_divisions(monkeypatch)
    for num, den in shapes:
        numerators = [QPochhammerSpec(*a) for a in num]
        denominators = [QPochhammerSpec(*a) for a in den]
        for order in (0, 1, 130, 600):
            lowest.clear()
            divisions.clear()
            want = expand_by_passes([1] + [0] * order, numerators, denominators)
            got = pochhammer_quotient(numerators, denominators, order)
            assert got.coeffs == tuple(want), (num, den, order)
            if order >= 130:
                assert lowest[0] < 0 and divisions, (num, den, order)


def test_recurrence_remainder_raises():
    # (1 - q)^(1/2) is not in Z[[q]]: 1*f(1) = -1/2 must raise, not round
    with pytest.raises(ArithmeticError):
        _expand_by_recurrence(1, [0, Fraction(1, 2), 0])


def test_both_kernels_share_the_error_contract():
    # a denominator factor at exponent 0 (the constant 2) and a negative
    # order raise the same ValueError whether the net exponent is >= 0 or
    # < 0, as the binomial pass itself does
    with pytest.raises(ValueError) as passes:
        expand_by_passes([1, 0, 0], [], [QPochhammerSpec(-1, 0, 1)])
    for extra in ([], [QPochhammerSpec(1, 1, 1)] * 3):  # net >= 0, net < 0
        denominators = [QPochhammerSpec(-1, 0, 1)] + extra
        assert (sum(_binomial_exponents([], extra, 30)[1]) >= 0) == (not extra)
        with pytest.raises(ValueError) as routed:
            pochhammer_quotient([], denominators, 30)
        assert type(routed.value) is ValueError
        assert str(routed.value) == str(passes.value)
        with pytest.raises(ValueError) as routed:
            pochhammer_quotient([], denominators, 30, TruncatedSeries.one(30))
        assert str(routed.value) == str(passes.value)
        with pytest.raises(ValueError):
            pochhammer_quotient(extra, [], -1)
    with pytest.raises(ValueError):
        _binomial_exponents([], [], -1)


def test_start_must_reach_the_order():
    # a start shorter than the order raises, where the product with it
    # would cut the result to the start's order; a longer one is cut to
    # the order
    specs = ([QPochhammerSpec(1, 2, 3)], [QPochhammerSpec(1, 1, 1)])
    for order in (0, 1, 40):
        with pytest.raises(OrderExceeded):
            pochhammer_quotient(*specs, order + 1, TruncatedSeries.one(order))
        want = pochhammer_quotient(*specs, order)
        assert pochhammer_quotient(*specs, order, TruncatedSeries.one(order)) == want
        assert pochhammer_quotient(*specs, order, TruncatedSeries.one(order + 9)) == want


def test_coefficient_access():
    inv = inverse(pochhammer_quotient([QPochhammerSpec(1, 1, 1)], [], 10))
    assert inv.coefficient(5) == 7
    assert pochhammer_quotient([], [], 4).coefficient(0) == 1
    assert TruncatedSeries.zero(4).coefficient(3) == 0
    with pytest.raises(OrderExceeded):
        inv.coefficient(11)


def test_shift_scale_stretch():
    a = TruncatedSeries((1, 2, 3))
    assert a.shift(1).coeffs == (0, 1, 2)
    assert a.scale(-3).coeffs == (-3, -6, -9)
    assert a.stretch(2, 5).coeffs == (1, 0, 2, 0, 3, 0)
    with pytest.raises(OrderExceeded):
        a.stretch(2, 6)


def test_reduce_mod2_examples():
    s = TruncatedSeries((0, 2, 3))
    assert s.reduce_mod2().bits == 0b100
    assert TruncatedSeries.zero(5).reduce_mod2().bits == 0


def test_parity_is_ring_homomorphism():
    # the product's parities against the carry-less product of the
    # factors' parities, one shifted XOR per set bit, cut at the order
    def carryless(x: int, y: int, order: int) -> int:
        acc = 0
        for i in range(order + 1):
            if x >> i & 1:
                acc ^= y << i
        return acc & ((1 << order + 1) - 1)

    rng = random.Random(23)
    for _ in range(20):
        a = random_series(rng, 200)
        b = random_series(rng, 200)
        want = carryless(a.reduce_mod2().bits, b.reduce_mod2().bits, 200)
        assert (a * b).reduce_mod2().bits == want
        assert (a + b).reduce_mod2().bits == a.reduce_mod2().bits ^ b.reduce_mod2().bits


def test_parity_binomial_ops_match_bigint():
    # Every branch of the binomial passes: m from 0 (a scale) past the list
    # length, with lengths around perfect squares so that m*m = len - 1, len
    # and len + 1 all occur (m below, at and above sqrt(len), so the lag of
    # a division wraps many times, once or not at all), c = +-1 and one
    # |c| >= 2, and multi-limb coefficients of both signs.  Multiplication
    # is checked against the schoolbook product with the binomial, division
    # against the series inverse of the binomial, and both against the
    # GF(2) mirror.
    rng = random.Random(31)
    for length in (1, 2, 3, 4, 5, 15, 16, 17, 48, 49, 50):
        order = length - 1
        for m in range(0, length + 3):
            a = TruncatedSeries(tuple(rng.randint(-2**200, 2**200) for _ in range(length)))
            bits = a.reduce_mod2().bits
            for c in (1, -1, -3):
                binomial = [1] + [0] * order
                if m <= order:
                    binomial[m] += c
                product = TruncatedSeries(tuple(mul_binomial(list(a.coeffs), c, m)))
                assert list(product.coeffs) == poly_mul_oracle(list(a.coeffs), binomial, order)
                assert product.reduce_mod2().bits == mul_binomial_bits(bits, m, order)
                if m == 0:
                    with pytest.raises(ValueError):
                        div_binomial(a.coeffs, c, m)
                    continue
                quotient = TruncatedSeries(tuple(div_binomial(a.coeffs, c, m)))
                assert quotient == a * inverse(TruncatedSeries(tuple(binomial)))
                assert mul_binomial(list(quotient.coeffs), c, m) == list(a.coeffs)
                assert quotient.reduce_mod2().bits == div_binomial_bits(bits, m, order)
            assert a.shift(m).reduce_mod2().bits == (bits << m) & ((1 << order + 1) - 1)


def test_binomial_passes_return_a_new_list():
    # the passes leave their input as it is and return the list they
    # build; on seeded multi-limb lists, for c = 1, -1 and two |c| >= 2,
    # and m from 1 to past the list's end (m = 0 too for a multiplication,
    # which is a scale), the product is the schoolbook one and the quotient
    # times the binomial gives the input back
    rng = random.Random(37)
    for length in (1, 2, 5, 17, 40):
        order = length - 1
        for c in (1, -1, 3, -2):
            for m in (0, 1, length - 1, length, length + 1):
                coeffs = [rng.randint(-2**150, 2**150) for _ in range(length)]
                before = list(coeffs)
                binomial = [1] + [0] * order
                if m <= order:
                    binomial[m] += c
                binomial = TruncatedSeries(tuple(binomial))
                product = mul_binomial(coeffs, c, m)
                assert coeffs == before and product is not coeffs
                assert product == list((TruncatedSeries(tuple(coeffs)) * binomial).coeffs)
                if m == 0:
                    with pytest.raises(ValueError):
                        div_binomial(coeffs, c, m)
                    continue
                quotient = div_binomial(coeffs, c, m)
                assert coeffs == before and quotient is not coeffs
                assert len(quotient) == length
                assert TruncatedSeries(tuple(quotient)) * binomial == TruncatedSeries(tuple(coeffs))
        # the passes oracle, which chains them, leaves its input as it is too
        num, den = [(1, 1, 1)], [(-1, 2, 3), (1, 1, 2)]
        product = expand_by_passes(coeffs, [QPochhammerSpec(*a) for a in num],
                                   [QPochhammerSpec(*a) for a in den])
        assert coeffs == before
        assert TruncatedSeries(tuple(product)) == (TruncatedSeries(tuple(coeffs))
                                                   * schoolbook(num, order)
                                                   * inverse(schoolbook(den, order)))


def test_spread_bits_matches_set_bit_walk():
    # the spread kernel against the set-bit walk it replaced, on seeded
    # random bits of every density
    def walk(x: ParitySeries) -> ParitySeries:
        out = 0
        bits = x.bits
        while bits:
            low = bits & -bits
            i = low.bit_length() - 1
            if 2 * i > x.order:
                break
            out |= 1 << (2 * i)
            bits ^= low
        return ParitySeries(x.order, out)

    rng = random.Random(47)
    cases = [ParitySeries(order, bits) for order, bits in ((0, 0), (0, 1), (1, 3), (7, 255))]
    for _ in range(300):
        order = rng.choice((rng.randint(0, 70), rng.randint(0, 2000)))
        bits = rng.getrandbits(order + 1)
        if rng.random() < 0.3:
            bits &= rng.getrandbits(order + 1) & rng.getrandbits(order + 1)
        cases.append(ParitySeries(order, bits))
    for x in cases:
        assert ParitySeries.spread_bits(x.bits) == walk(ParitySeries(2 * x.order, x.bits)).bits


def test_spread_bits_matches_per_bit_oracle():
    # at bit widths 0, 1, 7, 8, 9 and 2^j +- 1, around the byte boundaries
    # where the spread switches tables and bytes, with the top bit set,
    # all bits set and seeded random bits
    def oracle(bits: int) -> int:
        return sum(1 << 2 * i for i in range(bits.bit_length()) if bits >> i & 1)

    rng = random.Random(61)
    widths = [0, 1, 7, 8, 9] + [2**j + d for j in range(1, 13) for d in (-1, 1)]
    for width in widths:
        cases = [(1 << width) - 1]
        if width:
            cases += [1 << (width - 1), rng.getrandbits(width) | 1 << (width - 1)]
        for bits in cases:
            assert bits.bit_length() == width
            assert ParitySeries.spread_bits(bits) == oracle(bits), width


def test_reverse_bits_matches_string_reversal():
    # bit j to bit top - j at tops 0..70 and 2^j +- 1, on zero, all ones,
    # seeded random bits and bits with q^top set (whose reversal has q^0)
    rng = random.Random(67)
    tops = list(range(71)) + [2**j + d for j in range(7, 15) for d in (-1, 1)]
    for top in tops:
        for bits in (0, (1 << top + 1) - 1, rng.getrandbits(top + 1),
                     rng.getrandbits(top + 1) | 1 << top):
            want = int(format(bits, f"0{top + 1}b")[::-1], 2)
            assert ParitySeries.reverse_bits(bits, top) == want, (top, bits)
            assert ParitySeries.reverse_bits(want, top) == bits
    with pytest.raises(ValueError):
        ParitySeries.reverse_bits(0, -1)


def test_from_bit_positions_ignores_positions_outside_the_order():
    # seeded positions from below 0 to past the order, repeats included,
    # at orders around byte boundaries
    rng = random.Random(71)
    for order in (0, 1, 6, 7, 8, 9, 63, 64, 65, 300):
        positions = [rng.randint(-10, order + 10) for _ in range(2 * order + 5)]
        want = sum(1 << n for n in set(positions) if 0 <= n <= order)
        assert ParitySeries.from_bit_positions(order, positions).bits == want, order


def test_reciprocal_bits_matches_exact_quotient():
    # 1/prod (1 + q^m) mod 2 against the exact quotient by the (1 - q^m)
    # reduced mod 2 and read top-down (q^j at bit top - j), on seeded
    # multisets with repeats (so that carries run m -> 2m -> 4m, some of
    # them past top), on {1..K} and on the regime-III windows {M+1..2M+1},
    # at tops 0, 1, 2 and 2^j +- 1 (where the halving recursion changes
    # depth, and odd and even tops alternate)
    rng = random.Random(59)
    exponent_lists = [list(range(1, k + 1)) for k in (0, 1, 2, 3, 7, 8, 33)]
    exponent_lists += [list(range(m + 1, 2 * m + 2)) for m in (0, 1, 2, 5, 12, 19)]
    exponent_lists += [[3, 3, 6, 12, 12, 24], [1, 1, 2, 2, 4, 4, 8, 8], [40] * 5]
    for _ in range(40):
        pool = rng.sample(range(1, 41), rng.randint(1, 6))
        exponent_lists.append([rng.choice(pool) for _ in range(rng.randint(1, 25))])
    tops = [0, 1, 2] + [2**j + d for j in range(1, 11) for d in (-1, 1)]
    for exponents in exponent_lists:
        for top in tops:
            exact = [1] + [0] * top
            for m in exponents:
                exact = div_binomial(exact, -1, m)
            exact = TruncatedSeries(tuple(exact)).reduce_mod2()
            top_down = int(format(exact.bits, f"0{top + 1}b")[::-1], 2)
            assert ParitySeries.reciprocal_bits(exponents, top) == top_down, (exponents, top)
    with pytest.raises(ValueError):
        ParitySeries.reciprocal_bits([0], 5)
    with pytest.raises(ValueError):
        ParitySeries.reciprocal_bits([3], -1)


def test_parity_series_validation():
    with pytest.raises(ValueError):
        ParitySeries(3, 1 << 5)
    assert ParitySeries.from_bit_positions(4, [0, 2, 9]) == ParitySeries(4, 0b101)
    with pytest.raises(ValueError):
        div_binomial_bits(1, 0, 5)


def test_division_reads_any_iterable_once():
    # div_binomial reads its input once, in order, so a chain that puts a
    # head in front of a list divides like the concatenated list, and so do
    # an iterator and a tuple
    rng = random.Random(59)
    for length in (1, 3, 16, 40):
        for c in (1, -1, 2):
            for m in (1, 2, length - 1, length, length + 1):
                if m < 1:
                    continue
                coeffs = [rng.randint(-2**70, 2**70) for _ in range(length)]
                head = [1] + [0] * rng.randint(0, 5)
                want = div_binomial(head + coeffs, c, m)
                assert div_binomial(chain(head, coeffs), c, m) == want
                assert div_binomial(iter(head + coeffs), c, m) == want
                assert div_binomial(tuple(head + coeffs), c, m) == want
