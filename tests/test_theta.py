"""Two-sided agreement for every theta-identity endpoint, with restricted
partition DPs as independent oracles where the coefficients count things."""

from __future__ import annotations

import random
import re
from fractions import Fraction
from operator import add

import pytest

from hexparity.series import (
    DegenerateFactor,
    ParitySeries,
    QPochhammerSpec,
    TruncatedSeries,
    div_binomial,
    mul_binomial,
    pochhammer_quotient,
)
import hexparity.theta as theta
from hexparity.theta import (
    GAUSS_THETA,
    Monomial,
    _horner_sum,
    monomial_pochhammer,
    NegativeExponent,
    QuadraticExponentFamily,
    bilateral_sum,
    decomposition_families,
    eq41_sides,
    eq42_sides,
    gauss_theta_sides,
    jtp_sides,
    partial_theta,
    quintuple_sides,
    quintuple_sum_families,
    r_factors,
    regime3_product,
    regime3_sum,
    regime4_product,
    regime4_sum,
    regime_sum,
    regime_sum_parities,
    rho_families,
    rr_G,
    rr_H,
    truncated_gauss_lhs,
    truncated_gauss_rhs,
)
from hexparity.checks import verify_set_equivalence
from hexparity.squares import SquareProgression, index_set, multiplicity_map

from oracles import div_binomial_bits, mul_binomial_bits


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
    fam = QuadraticExponentFamily(1, 0, 0)
    assert bilateral_sum([fam], 5).coeffs == (1, 2, 0, 0, 2, 0)


def pentagonal_family() -> QuadraticExponentFamily:
    """e(k) = k(3k-1)/2 with sign (-1)^k: the expansion of (q;q)oo."""
    return QuadraticExponentFamily(3, -1, 0, s2=0, s1=2, den=2)


def test_bilateral_pentagonal_matches_pochhammer():
    fam = pentagonal_family()
    assert bilateral_sum([fam], 7).coeffs == (1, -1, -1, 0, 0, 1, 0, 1)
    oracle = pochhammer_quotient([QPochhammerSpec(1, 1, 1)], [], 60)
    assert bilateral_sum([fam], 60) == oracle


def test_bilateral_order_independence_and_hits():
    fams = rho_families(2)
    a = bilateral_sum(fams, 50)
    b = bilateral_sum(list(reversed(fams)), 50)
    assert a == b
    assert a.coefficient(0) == 1
    hits = multiplicity_map(fams, 500)
    assert all(m == 1 for m in hits.values())


def test_family_integrality_guard():
    with pytest.raises(ValueError):
        QuadraticExponentFamily(1, 0, 0, den=2)


def test_family_construction_contract():
    # a2 <= 0 used to construct, and indices_within then never stopped;
    # base_sign 5 used to scale every coefficient of bilateral_sum by 5
    for bad in ((-1, 0, 0), (0, 1, 0), (1, 0, 0, 0, 0, 1, 0), (1, 0, 0, 0, 0, 1, -1)):
        with pytest.raises(ValueError):
            QuadraticExponentFamily(*bad)
    with pytest.raises(ValueError):
        QuadraticExponentFamily(1, 0, 0, base_sign=5)
    for a2, den in ((0, 1), (-1, 1), (-1, 2)):
        with pytest.raises(ValueError):
            QuadraticExponentFamily(a2, 0, 0, den=den)
    with pytest.raises(ValueError):
        QuadraticExponentFamily(2, 0, 0, s1=1, den=2)  # e = k^2, t = k/2
    with pytest.raises(ValueError):
        QuadraticExponentFamily(3, 0, 1, den=3)  # e = k^2 + 1/3
    # the check at k = 0, 1, 2 accepts exactly the integer-valued
    # quadratics, as an exhaustive scan over k in -30..30 finds them
    rng = random.Random(7)
    accepted = 0
    for _ in range(2000):
        a2, s2 = rng.randint(1, 12), rng.randint(-6, 6)
        a1, a0, s1 = (rng.randint(-12, 12) for _ in range(3))
        den = rng.randint(1, 6)
        integral = all(((a2 * k + a1) * k + a0) % den == 0 and (s2 * k + s1) * k % den == 0
                       for k in range(-30, 31))
        try:
            QuadraticExponentFamily(a2, a1, a0, s2, s1, 1, den)
        except ValueError:
            assert not integral, (a2, a1, a0, s2, s1, den)
        else:
            assert integral, (a2, a1, a0, s2, s1, den)
            accepted += 1
    assert accepted > 100


def _paper_forms():
    """Every family theta builds, beside its exponent and sign written out
    in exact rationals as the paper and the docstrings state them: a list
    of (families, [(e(k), t(k), base sign)] per family), sign base*(-1)^t."""
    half = Fraction(1, 2)
    forms = []
    for s in (2, 4):
        t = lambda k, s=s: k * ((s - 1) * k - 1) * half
        forms.append((rho_families(s), [
            (lambda k, s=s: k * (15 * k + 3 * s - 5) * half, t, 1),
            (lambda k, s=s: (3 * k - s * half) * (5 * k - 3 + s * half) * half, t, 1)]))
        forms.append((decomposition_families(s),
                      [(lambda k, s=s: k * (5 * k + 1 - s), lambda k: k, 1)]))
    for s in (1, 3):
        forms.append((rho_families(s), [(lambda k, s=s: k * (5 * k - s) * half,
                                         lambda k, s=s: k * (k + s) * half, 1)]))
        forms.append((decomposition_families(s), [
            (lambda k, s=s: 15 * k * k - (5 - 3 * s) * k, lambda k: 0, 1),
            (lambda k, s=s: 15 * k * k + (5 + 3 * s) * k + s, lambda k: 0, -1)]))
    # sum_n z^(3n) q^(n(3n-1)/2) (1 - z q^n) and sum_n (-z)^n q^(n(n-1)/2)
    # under z -> zs q^a, q -> qs q^m, with zs = (-1)^bz and qs = (-1)^bq
    for zs, a, qs, m in ((1, 1, 1, 3), (-1, 1, 1, 3), (1, 2, -1, 5), (-1, 1, -1, 2)):
        bz, bq = (zs == -1), (qs == -1)
        forms.append((quintuple_sum_families(Monomial(zs, a), Monomial(qs, m)), [
            (lambda k, a=a, m=m: 3 * a * k + m * k * (3 * k - 1) * half,
             lambda k, bz=bz, bq=bq: 3 * k * bz + bq * k * (3 * k - 1) * half, 1),
            (lambda k, a=a, m=m: a * (3 * k + 1) + m * k * (3 * k + 1) * half,
             lambda k, bz=bz, bq=bq: (3 * k + 1) * bz + bq * k * (3 * k + 1) * half, -1)]))
        forms.append((lambda zs=zs, a=a, qs=qs, m=m: jtp_sides(zs, a, qs, m, 0), [
            (lambda k, a=a, m=m: a * k + m * k * (k - 1) * half,
             lambda k, bz=bz, bq=bq: (1 + bz) * k + bq * k * (k - 1) * half, 1)]))
    forms.append((lambda: gauss_theta_sides(0), [(lambda k: k * k, lambda k: k, 1)]))
    return forms


def test_families_match_exact_rational_evaluation(monkeypatch):
    # the families jtp_sides and gauss_theta_sides build inline are caught
    # on their way into bilateral_sum
    caught = []
    monkeypatch.setattr(theta, "bilateral_sum", lambda families, order: caught.append(families))
    for families, forms in _paper_forms():
        if callable(families):
            families()
            families = caught.pop()
        assert len(families) == len(forms)
        for fam, (e, t, base) in zip(families, forms):
            for k in range(-60, 61):
                ek, tk = Fraction(e(k)), Fraction(t(k))
                assert ek.denominator == tk.denominator == 1, (fam, k)
                assert fam.exponent(k) == ek, (fam, k)
                assert fam.sign(k) == base * (-1) ** int(tk), (fam, k)


def test_per_s_data_validates_s():
    for s in (0, 5):
        for build in (rho_families, decomposition_families, r_factors):
            with pytest.raises(ValueError):
                build(s)
    for s in (1, 3):
        with pytest.raises(ValueError):
            eq41_sides(s, 10)
        with pytest.raises(ValueError):
            regime3_product(s, 10)
    for s in (2, 4):
        with pytest.raises(ValueError):
            eq42_sides(s, 10)
        with pytest.raises(ValueError):
            regime4_product(s, 10)


def test_indices_within_matches_exhaustive_scan():
    # coefficients chosen so e(k) is always an integer and |k| > 60
    # guarantees e(k) > bound, making the brute window exact
    import random

    rng = random.Random(13)
    for _ in range(200):
        # e(k) = (h/2)k^2 + (b - h/2)k + c, over its least denominator
        h, b, c = rng.randint(1, 6), rng.randint(-5, 5), rng.randint(0, 5)
        den = 1 if h % 2 == 0 else 2
        fam = QuadraticExponentFamily(h * den // 2, (2 * b - h) * den // 2, c * den, den=den)
        bound = rng.randint(0, 200)
        expected = [k for k in range(-60, 61) if fam.exponent(k) <= bound]
        assert sorted(fam.indices_within(bound)) == expected


def test_negative_exponent_raises():
    # one message, naming the family and its least value, from the window
    # walk and from each reader of it; e(k) = k(k-5) is least at k = 2, 3,
    # (n^2+5n)/2 at n = -2, -3, and (3k^2-k-2)/2 at k = 0
    cases = [
        (QuadraticExponentFamily(1, -5, 0), -6),
        (QuadraticExponentFamily(1, 5, 0, s1=2, den=2), -3),
        (QuadraticExponentFamily(3, -1, -2, den=2), -1),
    ]
    for fam, low in cases:
        message = f"^{re.escape(repr(fam))} takes the value {low} < 0$"
        for order in (0, 10, 500):
            for call in (lambda: fam.exponents_within(order),
                         lambda: bilateral_sum([fam], order),
                         lambda: bilateral_sum([GAUSS_THETA, fam], order),
                         lambda: multiplicity_map([fam], order),
                         lambda: verify_set_equivalence([fam], SquareProgression(1, 0), order)):
                with pytest.raises(NegativeExponent, match=message):
                    call()
    # the sum side (n^2+5n)/2 of z -> q^3 raises before q/z's base exponent
    # 1 - 3 < 0 is reached
    with pytest.raises(NegativeExponent, match=re.escape(repr(cases[1][0]))):
        jtp_sides(1, 3, 1, 1, 10)


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
            factor = [1] + [0] * order
            factor[base.exp + k * step.exp] -= c
            expected = expected * TruncatedSeries(tuple(factor))
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
        bilateral_sum(rho_families(2), order)
    assert quintuple_sides(Monomial(1, 2), Monomial(-1, 5), order)[0] == \
        bilateral_sum(rho_families(4), order)
    assert jtp_sides(-1, 1, -1, 5, order)[0] == \
        bilateral_sum(rho_families(3), order)
    assert jtp_sides(-1, 3, -1, 5, order)[0] == \
        bilateral_sum(rho_families(1), order)
    for s in (1, 3):
        assert quintuple_sides(Monomial(1, s), Monomial(1, 10), order)[0] == \
            bilateral_sum(decomposition_families(s), order)


def test_theta_sides_agree_at_scale():
    # the product sides at an order where the binomial passes were the
    # bottleneck; each side is built by its own route
    order = 3000
    pairs = [gauss_theta_sides(order), jtp_sides(-1, 1, -1, 5, order),
             quintuple_sides(Monomial(-1, 1), Monomial(-1, 5), order)]
    pairs += [eq41_sides(s, order) for s in (2, 4)]
    pairs += [eq42_sides(s, order) for s in (1, 3)]
    for lhs, rhs in pairs:
        assert lhs.order == rhs.order == order
        assert lhs == rhs


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


def test_truncated_gauss_rhs_matches_per_term_oracle():
    # 2 (-q^2;q^2)_k / (q^2;q^2)_k, built here by 2k binomial passes, times
    # the tail with every term q^(2n(k+1)) (-q^(2n+2);q^2)oo / (q^(2n);q^2)oo
    # expanded on its own (in x = q^2) and shifted into place; k = 1..10 at
    # orders 0, 1 and 2, at each of the first four terms' leads -1, 0 and
    # +1, and at a random order up to 1500, each a truncation of the oracle
    # built once at the largest.  The side is 0 below q^(2(k+1)^2) and 2
    # there
    rng = random.Random(61)
    for k in range(1, 11):
        leads = [2 * n * (k + 1) for n in range(k + 1, k + 5)]
        orders = [0, 1, 2] + [e + d for e in leads for d in (-1, 0, 1)]
        orders.append(rng.randint(3, 1500))
        top = max(orders)
        ratio = [1] + [0] * top
        for j in range(1, k + 1):
            ratio = div_binomial(mul_binomial(ratio, 1, 2 * j), -1, 2 * j)
        tail = [0] * (top + 1)
        n = k + 1
        while 2 * n * (k + 1) <= top:
            lead = 2 * n * (k + 1)
            term = pochhammer_quotient([QPochhammerSpec(-1, n + 1, 1)],
                                       [QPochhammerSpec(1, n, 1)], (top - lead) // 2)
            tail[lead:] = map(add, tail[lead:], term.stretch(2, top - lead).coeffs)
            n += 1
        oracle = (TruncatedSeries(tuple(ratio)).scale(2) * TruncatedSeries(tuple(tail))).coeffs
        for order in orders:
            assert truncated_gauss_rhs(k, order).coeffs == oracle[:order + 1], (k, order)
        first = 2 * (k + 1) ** 2
        got = truncated_gauss_rhs(k, top).coeffs
        assert not any(got[:first]) and got[first] == 2, k


def even_gauss_ratio(k: int, order: int, inverse: bool = False) -> list[int]:
    """(-q^2;q^2)_k / (q^2;q^2)_k up to q^order, or its inverse, by one
    binomial pass per factor."""
    ratio = [1] + [0] * order
    for j in range(1, k + 1):
        if inverse:
            ratio = div_binomial(mul_binomial(ratio, -1, 2 * j), 1, 2 * j)
        else:
            ratio = div_binomial(mul_binomial(ratio, 1, 2 * j), -1, 2 * j)
    return ratio


def tail_of_rhs(k: int, order: int) -> TruncatedSeries:
    """The tail sum_{n>k} q^(2n(k+1)) (-q^(2n+2);q^2)oo / (q^(2n);q^2)oo
    read back from truncated_gauss_rhs: the side times the inverse ratio,
    which is twice the tail, halved."""
    twice = (truncated_gauss_rhs(k, order)
             * TruncatedSeries(tuple(even_gauss_ratio(k, order, inverse=True))))
    assert all(c % 2 == 0 for c in twice.coeffs), (k, order)
    return TruncatedSeries(tuple(c // 2 for c in twice.coeffs))


def tail_oracle(k: int, order: int) -> TruncatedSeries:
    """Every term q^(2n(k+1)) (-q^(2n+2);q^2)oo / (q^(2n);q^2)oo expanded in
    q on its own at the full order, shifted into place and added."""
    oracle = TruncatedSeries.zero(order)
    n = k + 1
    while 2 * n * (k + 1) <= order:
        term = pochhammer_quotient([QPochhammerSpec(-1, 2 * n + 2, 2)],
                                   [QPochhammerSpec(1, 2 * n, 2)], order)
        oracle = oracle + term.shift(2 * n * (k + 1))
        n += 1
    return oracle


def test_truncated_gauss_rhs_matches_schoolbook_product():
    # 2 (-q^2;q^2)_k / (q^2;q^2)_k by binomial passes against the schoolbook
    # product with the tail built term by term in q
    rng = random.Random(59)
    for k, order in [(1, 0), (10, 1500)] + [(rng.randint(1, 10), rng.randint(0, 1500))
                                           for _ in range(5)]:
        schoolbook = (TruncatedSeries(tuple(even_gauss_ratio(k, order))).scale(2)
                      * tail_oracle(k, order))
        assert truncated_gauss_rhs(k, order) == schoolbook, (k, order)


def test_gauss_error_tail_leading_exponent():
    for k in (1, 2, 3):
        tail = tail_of_rhs(k, 120)
        lead = 2 * (k + 1) ** 2
        assert all(c == 0 for c in tail.coeffs[:lead])
        assert tail.coefficient(lead) == 1


def test_gauss_error_tail_matches_per_term_oracle():
    # the tail read back from the right side against the per-term oracle;
    # odd and even orders, and orders at which a term's lead lands on the
    # order or next to it
    rng = random.Random(61)
    for k in (1, 2, 3, 5):
        leads = [2 * n * (k + 1) for n in range(k + 1, k + 5)]
        orders = [0, 1, 2, rng.randint(3, 400), rng.randint(3, 400)]
        for order in orders + [e + d for e in leads for d in (-1, 0, 1)]:
            assert tail_of_rhs(k, order) == tail_oracle(k, order), (k, order)


def horner_oracle(first: int, exponent, factors, order: int) -> TruncatedSeries:
    """sum_{n>=first} q^(e(n)-e(first)) h_(first+1)...h_n term by term:
    each summand kept at the full order, built by one mul_binomial or
    div_binomial per factor, shifted into place and added."""
    out = TruncatedSeries.zero(order)
    term = TruncatedSeries.one(order)
    n = first
    while exponent(n) - exponent(first) <= order:
        if n > first:
            numerators, denominators = factors(n)
            for c, m in numerators:
                term = TruncatedSeries(tuple(mul_binomial(list(term.coeffs), c, m)))
            for c, m in denominators:
                term = TruncatedSeries(tuple(div_binomial(term.coeffs, c, m)))
        out = out + term.shift(exponent(n) - exponent(first))
        n += 1
    return out


def test_horner_sum_matches_term_by_term_oracle():
    # random strictly increasing exponents with e(first) > 0 and random
    # factor schedules: numerators and denominators, c = +-1 and one
    # |c| = 2, exponents m from 1 to past the summand's length.  Orders
    # 0..60, then e(n) - e(first) + (-1, 0, 1), where the start list is
    # exactly [1] and the last summand changes, and one order below
    # e(first), which a sum taken to the absolute order would cut short
    rng = random.Random(71)
    for trial in range(9):
        first = (0, 1, 3)[trial % 3]
        gaps = [rng.randint(1, 6) for _ in range(200)]
        lead = rng.randint(1, 90)
        exps = {first + i: lead + sum(gaps[:i]) for i in range(len(gaps))}
        big = 2 * rng.randint(0, 8) + first + 1
        schedule = {}
        for n in range(first + 1, first + len(gaps)):
            numerators = [(rng.choice((1, -1)), rng.randint(1, 30)) for _ in range(rng.randint(0, 2))]
            denominators = [(rng.choice((1, -1)), rng.randint(1, 30)) for _ in range(rng.randint(0, 2))]
            if n == big:
                numerators.append((rng.choice((2, -2)), rng.randint(1, 5)))
                denominators.append((rng.choice((2, -2)), rng.randint(1, 5)))
            schedule[n] = (numerators, denominators)
        exponent, factors = exps.__getitem__, schedule.__getitem__
        edges = [exps[n] - lead + d for n in range(first, first + 8) for d in (-1, 0, 1)]
        for order in sorted(set(range(61)) | {e for e in edges if e >= 0} | {lead - 1}):
            got = _horner_sum(first, exponent, factors, order)
            assert got == horner_oracle(first, exponent, factors, order), (trial, order)
    with pytest.raises(ValueError):
        _horner_sum(0, lambda n: n * n, lambda n: ([], [(-1, n)]), -1)


def test_gauss_tail_horner_sum_matches_closed_form(monkeypatch):
    # the Horner result V of truncated_gauss_rhs, in x = q^2 and taken to
    # x^600, against V = (1 + x^(k+1)) sum_{j>=0} (-1)^j x^(j(j+2k+2)).
    # That closed form is the truncated Gauss identity rearranged, so it
    # serves only as an extra oracle for the sum, never in its place
    import hexparity.theta as theta

    top = 600
    horner = []

    def recording(*args):
        horner.append(_horner_sum(*args))
        return horner[-1]

    monkeypatch.setattr(theta, "_horner_sum", recording)
    for k in (1, 2, 3, 5):
        truncated_gauss_rhs(k, 2 * (top + (k + 1) ** 2))
        closed = [0] * (top + 1)
        j = 0
        while j * (j + 2 * k + 2) <= top:
            for e in (j * (j + 2 * k + 2), j * (j + 2 * k + 2) + k + 1):
                if e <= top:
                    closed[e] += (-1) ** j
            j += 1
        assert horner.pop().coeffs == tuple(closed), k


def boundary_orders(exponent) -> list[int]:
    """Every order 0..69, then e(n) - 1, e(n) and e(n) + 1 for the first
    six summands and 300: where _horner_sum's last summand changes and its
    start list, of length order - e(last) + 1, is exactly [1]."""
    edges = {exponent(n) + d for n in range(6) for d in (-1, 0, 1)}
    return sorted(set(range(70)) | {e for e in edges if e >= 0} | {300})


def test_rr_sum_equals_product():
    for shift, rr in ((0, rr_G), (1, rr_H)):
        for order in boundary_orders(lambda n: n * n + shift * n):
            sum_form, product_form = rr(order)
            assert sum_form == product_form, (shift, order)
    assert rr_H(500)[0].coefficient(0) == 1


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
        for order in boundary_orders(lambda n: n * (3 * n + s - 1) // 2):
            lhs = regime3_sum(s, order)
            assert lhs == regime3_product(s, order), (s, order)
            assert lhs.coefficient(0) == 1
            assert all(c >= 0 for c in lhs.coeffs)


def test_regime4_sum_equals_product_side():
    for s in (1, 3):
        for order in boundary_orders(lambda n: n * (n + 1)):
            lhs = regime4_sum(s, order)
            assert lhs == regime4_product(s, order), (s, order)
            assert lhs.coefficient(0) == 1
            assert all(c >= 0 for c in lhs.coeffs)


def test_regime_parity_paths_match_bigint():
    # seeded orders, plus the orders at which the last summand's exponent
    # n(3n+s-1)/2 (regime III) or n(n+1) (regime IV) lands on the order
    # exactly, and one below: these pin the bounds of each accumulation.
    # Orders 2^j - 1, 2^j and 2^j + 1 are where the halving recursion of
    # ParitySeries.reciprocal_bits changes depth
    rng = random.Random(41)
    seeded = [0, 1, 400] + [rng.randint(0, 1500) for _ in range(27)]
    seeded += [2**j + d for j in range(1, 13) for d in (-1, 0, 1)]
    for s in (2, 4):
        edges = [n * (3 * n + s - 1) // 2 + d for n in (1, 2, 5, 12, 31) for d in (0, -1)]
        for order in seeded + edges:
            parity = regime_sum_parities((s,), order)[s]
            assert parity == regime3_sum(s, order).reduce_mod2(), (s, order)
    for s in (1, 3):
        edges = [n * (n + 1) + d for n in (1, 2, 7, 20, 38) for d in (0, -1)]
        for order in seeded + edges:
            parity = regime_sum_parities((s,), order)[s]
            assert parity == regime4_sum(s, order).reduce_mod2(), (s, order)


def forward_parity_sum(regime: int, s: int, order: int) -> int:
    """The regime sum mod 2 by the forward walk that divides: the base is
    updated from n-1 to n by a multiplication and two divisions
    (regime III) or two divisions (regime IV) by binomials, kept to bits
    0..order-e(n)."""
    d = (s - 1) // 2
    base = 1 if regime == 4 and not d else div_binomial_bits(1, 1, order)
    acc = 0
    n = e = 0
    while True:
        acc ^= base << e
        n += 1
        e = n * (3 * n + s - 1) // 2 if regime == 3 else n * (n + 1)
        if e > order:
            return acc
        top = order - e
        x = base & ((1 << (top + 1)) - 1)
        if regime == 3:
            x = mul_binomial_bits(x, n, top)
            x = div_binomial_bits(div_binomial_bits(x, 2 * n, top), 2 * n + 1, top)
        else:
            x = div_binomial_bits(div_binomial_bits(x, 2 * n - 1 + d, top), 2 * n + d, top)
        base = x


def test_regime_parity_sums_match_forward_division_walk():
    # the backward multiply-only walk against the forward walk that
    # divides, at orders where the bigint sums are too slow to compare
    rng = random.Random(53)
    for regime, svals in ((3, (2, 4)), (4, (1, 3))):
        s = rng.choice(svals)
        for order in (20_000, 100_000):
            parity = regime_sum_parities((s,), order)[s]
            assert parity.bits == forward_parity_sum(regime, s, order), (regime, s, order)


def regime_sum_oracle(regime: int, s: int, order: int) -> TruncatedSeries:
    """The regime III or IV sum with each summand expanded on its own by
    binomial passes at the full order and shifted into place."""
    acc = TruncatedSeries.zero(order)
    n = 0
    while True:
        if regime == 3:
            e = n * (3 * n + s - 1) // 2
            plus = n  # (-q;q)_n
            count = 2 * n + 1
        else:
            e = n * (n + 1)
            plus = 0
            count = 2 * n + (s - 1) // 2
        if e > order:
            return acc
        summand = [1] + [0] * order
        for m in range(1, plus + 1):
            summand = mul_binomial(summand, 1, m)
        for m in range(1, count + 1):
            summand = div_binomial(summand, -1, m)
        acc = acc + TruncatedSeries(tuple(summand)).shift(e)
        n += 1


def test_regime_sums_match_per_summand_oracle():
    # both paths against the summands expanded one by one, so a truncation
    # slip shared by the exact and the parity path still shows; the orders
    # include those at which a summand's exponent lands on the order
    rng = random.Random(43)
    seeded = [0, 1, 2, 3] + [rng.randint(0, 900) for _ in range(8)]
    for regime, svals in ((3, (2, 4)), (4, (1, 3))):
        for s in svals:
            if regime == 3:
                exponents = [n * (3 * n + s - 1) // 2 for n in (1, 2, 5, 12, 24)]
            else:
                exponents = [n * (n + 1) for n in (1, 2, 7, 20, 29)]
            edges = [e + d for e in exponents for d in (-1, 0, 1)]
            for order in seeded + edges:
                oracle = regime_sum_oracle(regime, s, order)
                assert regime_sum(s, order) == oracle, (regime, s, order)
                parity = regime_sum_parities((s,), order)[s]
                assert parity == oracle.reduce_mod2(), (regime, s, order)


def test_regime_terms_slip_moves_both_paths_off_the_oracles(monkeypatch):
    # one denominator of one term ratio off by one: the exact and the
    # parity sums read the same schedule, so both must leave the
    # per-summand oracle and the forward walk, neither of which reads it,
    # while still agreeing with each other
    import hexparity.theta as theta

    terms = theta._regime_terms

    def slipped(s):
        exponent, factors, start = terms(s)

        def factors_with_slip(n):
            numerators, denominators = factors(n)
            if n == 3:
                (c, m), *rest = denominators
                denominators = [(c, m + 1), *rest]
            return numerators, denominators

        return exponent, factors_with_slip, start

    monkeypatch.setattr(theta, "_regime_terms", slipped)
    order = 200
    for regime, s in ((3, 2), (3, 4), (4, 1), (4, 3)):
        oracle, forward = regime_sum_oracle(regime, s, order), forward_parity_sum(regime, s, order)
        exact, parity = regime_sum(s, order), regime_sum_parities((s,), order)[s]
        assert exact != oracle, (regime, s)
        assert exact.reduce_mod2().bits != forward, (regime, s)
        assert parity != oracle.reduce_mod2(), (regime, s)
        assert parity.bits != forward, (regime, s)
        assert exact.reduce_mod2() == parity, (regime, s)


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


def test_products_take_no_binomial_pass(monkeypatch):
    # every spec list the package builds runs the one quotient route (the
    # recurrence, a sparse multiply, the Euler divisions), never a binomial
    # pass: mul_binomial and div_binomial, in every module that holds them,
    # record any call made while pochhammer_quotient runs, spied on in each
    # module that binds it.  Each builder below enters the route at least
    # once
    import hexparity.series as series
    from hexparity import partitions

    route, depth, passes, entries = series.pochhammer_quotient, [], [], []

    def tracked(*args):
        entries.append(1)
        depth.append(1)
        try:
            return route(*args)
        finally:
            depth.pop()

    for module in (series, theta, partitions):
        monkeypatch.setattr(module, "pochhammer_quotient", tracked)
    for module in (series, theta, partitions):
        for name in ("mul_binomial", "div_binomial"):
            if hasattr(module, name):
                def spy(*args, kernel=getattr(module, name), name=name):
                    if depth:
                        passes.append(name)
                    return kernel(*args)
                monkeypatch.setattr(module, name, spy)
    order = 300
    builders = [
        *(lambda s=s: series.pochhammer_quotient(*r_factors(s), order) for s in (1, 2, 3, 4)),
        *(lambda s=s: eq41_sides(s, order) for s in (2, 4)),
        *(lambda s=s: eq42_sides(s, order) for s in (1, 3)),
        *(lambda s=s: eq42_sides(s, order, first_decade_exponent=2) for s in (1, 3)),
        *(lambda s=s: regime3_product(s, order) for s in (2, 4)),
        *(lambda s=s: partitions.r_gf(partitions.regime4_rule(s), order) for s in (1, 3)),
        # the substitutions of the acceptance suite
        *(lambda a=a: jtp_sides(-1, a, -1, 5, order) for a in (1, 3)),
        *(lambda a=a: jtp_sides(1, a, 1, 10, order) for a in (2, 4)),
        *(lambda z=z: quintuple_sides(z, Monomial(-1, 5), order)
          for z in (Monomial(1, 2), Monomial(-1, 1))),
        *(lambda s=s: quintuple_sides(Monomial(1, s), Monomial(1, 10), order) for s in (1, 3)),
        lambda: gauss_theta_sides(order),
        lambda: theta.even_gauss_factor(order),
        lambda: truncated_gauss_lhs(2, order),
        lambda: rr_G(order),
        lambda: rr_H(order),
    ]
    for build in builders:
        entries.clear()
        build()
        assert entries and not passes, (build, passes)


def test_eq41_bilateral_mod2_is_exponent_indicator():
    for s in (2, 4):
        series = bilateral_sum(rho_families(s), 10_000)
        hits = multiplicity_map(rho_families(s), 10_000)
        assert all(m == 1 for m in hits.values())
        assert sorted(hits) == index_set(
            SquareProgression(120, (3 * s - 5) ** 2), 10_000
        )
        assert series.reduce_mod2().bits == sum(1 << n for n in hits)


def test_partial_theta_structure():
    p2 = partial_theta(2, 20)
    assert p2.coefficient(0) == 1
    assert p2.coefficient(2) == -2
    assert p2.coefficient(8) == 2


def test_pair_walk_matches_lone_walks():
    # regime_sum_parities walks s = 2 and 4, or s = 1 and 3, as one chain
    # with two readouts; each readout against the lone walk of its s at
    # orders 0..69, where the last summand of each s changes, at
    # 2^j - 1, 2^j and 2^j + 1, where reciprocal_bits changes depth, and at
    # 10^5, in both orders of the pair
    orders = list(range(70)) + [2**j + d for j in (7, 8, 10, 12, 16) for d in (-1, 0, 1)]
    for pair in ((2, 4), (1, 3)):
        for order in orders + [10**5]:
            got = regime_sum_parities(pair, order)
            assert got == regime_sum_parities(pair[::-1], order), (pair, order)
            for s in pair:
                assert got[s] == regime_sum_parities((s,), order)[s], (s, order)
    # and against the forward walk that divides, which shares no code
    for regime, pair in ((3, (2, 4)), (4, (1, 3))):
        for order in (4097, 20_000):
            got = regime_sum_parities(pair, order)
            for s in pair:
                assert got[s].bits == forward_parity_sum(regime, s, order), (s, order)
    # regime III and regime IV walk different chains
    with pytest.raises(ValueError):
        regime_sum_parities((2, 1), 50)


def division_walk_oracle(steps, reads, order: int) -> ParitySeries:
    """sum_p q^reads[p] / prod (1 + q^m) over steps[:p] mod 2, with the base
    divided by each binomial in turn through div_binomial_bits."""
    base, acc = 1, 0
    for p in range(len(steps) + 1):
        if p in reads:
            acc ^= (base << reads[p]) & ((1 << order + 1) - 1)
        if p < len(steps):
            base = div_binomial_bits(base, steps[p], order)
    return ParitySeries(order, acc)


def random_schedule(rng: random.Random, steps: list[int], order: int) -> dict[int, int]:
    """Reads at random positions of steps, at random increasing exponents,
    some past the order; half the time the first read follows an odd step."""
    low = rng.randrange(len(steps) + 1)
    if rng.random() < 0.5 and any(m & 1 for m in steps[:-1]):
        low = 1 + rng.choice([p for p, m in enumerate(steps[:-1]) if m & 1])
    positions = [low] + sorted(rng.sample(range(low + 1, len(steps) + 1),
                                          rng.randrange(len(steps) - low + 1)))
    reads, r = {}, rng.randrange(3)
    for p in positions:
        reads[p] = r
        r += rng.randrange(1, max(2, order // 3 + 2))
    return reads


def test_backward_parity_walk_matches_division_oracle_on_random_schedules():
    # the Frobenius-split walk against the forward division oracle on
    # schedules no regime sum produces: odd and even steps mixed, repeats,
    # steps past half the order, first reads after an odd step, and one
    # schedule or two (the second on a prefix of the first), at orders
    # 0..69, where the two half-width parts trade tops, and at 2^j - 1,
    # 2^j and 2^j + 1, where reciprocal_bits changes depth
    rng = random.Random(2023)
    orders = list(range(70)) + [2**j + d for j in (6, 7, 9, 11) for d in (-1, 0, 1)]
    for order in orders:
        for _ in range(6):
            pool = [rng.randrange(1, 12)] * 2 + [rng.randrange(1, max(2, order + 3)) for _ in range(6)]
            steps = [rng.choice(pool) for _ in range(rng.randrange(1, 13))]
            schedules = [(steps, random_schedule(rng, steps, order))]
            if rng.random() < 0.5:
                prefix = steps[:rng.randrange(len(steps) + 1)]
                schedules.append((prefix, random_schedule(rng, prefix, order)))
            got = theta._backward_parity_walk(schedules, order)
            for walked, (c, reads) in zip(got, schedules):
                assert walked == division_walk_oracle(c, reads, order), (order, c, reads)


def test_indices_within_runs_outward_from_the_vertex():
    # the interval read off by isqrt, in the order of a scan that rises from
    # the ceiling of the vertex and then falls below it until e(k) passes
    # the bound: exponents_within walks it in this order, so
    # multiplicity_map's keys come in this order
    def scan(fam, bound):
        pivot = -(fam.a1 // (2 * fam.a2))
        k = pivot
        while fam.exponent(k) <= bound:
            yield k
            k += 1
        k = pivot - 1
        while fam.exponent(k) <= bound:
            yield k
            k -= 1

    rng = random.Random(17)
    checked = 0
    while checked < 3000:
        try:
            fam = QuadraticExponentFamily(rng.randint(1, 20), rng.randint(-40, 40),
                                          rng.randint(-60, 60), rng.randint(-3, 3),
                                          rng.randint(-3, 3), 1, rng.randint(1, 6))
        except ValueError:
            continue
        bound = rng.randint(-80, 300)
        assert list(fam.indices_within(bound)) == list(scan(fam, bound)), (fam, bound)
        checked += 1
