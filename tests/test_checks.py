"""Verifier tier: theorem, corollary, identity, and conjecture checks at
moderate orders (the acceptance suite reruns them at contract scale)."""

from __future__ import annotations

import pytest

from hexparity.checks import (
    S_PAIRS,
    check_conjecture1,
    check_conjecture2,
    check_corollary2,
    check_identity_id1,
    check_identity_id2,
    check_s_pair,
    check_theorem1,
    conjecture1_difference,
    cross_validate,
    rho_series,
)
from hexparity.partitions import count_restricted, p_table, regime3_rule, regime4_rule
from hexparity.report import CheckReport, Violation
from hexparity.squares import SquareProgression, index_set, is_square
from hexparity.theta import regime3_sum, regime4_sum

ALL_INSTANCES = ((1, 2), (1, 4), (2, 1), (2, 3))


def test_report_invariants():
    with pytest.raises(ValueError):
        CheckReport("x", {}, "PASS", (Violation(0, 1, 2),))
    with pytest.raises(ValueError):
        CheckReport("x", {}, "MAYBE")


def test_theorem1_trivial_head():
    report = check_theorem1(1, 2, 0)
    assert report.status == "PASS"  # q^0: both sides are 1


def test_theorem1_all_instances_both_paths():
    for part, s in ALL_INSTANCES:
        big = check_theorem1(part, s, 600)
        fast = check_theorem1(part, s, 600, use_parity_fastpath=True)
        assert big.status == "PASS", (part, s)
        assert fast.status == "PASS", (part, s)
        assert big.violations == fast.violations


def test_theorem1_parameter_validation():
    with pytest.raises(ValueError):
        check_theorem1(1, 1, 10)
    with pytest.raises(ValueError):
        check_theorem1(2, 2, 10)
    with pytest.raises(ValueError):
        check_theorem1(3, 2, 10)


def test_corollary2_small_cases_by_hand():
    # part 1, s=2: at n=0 and n=1 both sides of the iff are true
    p = p_table(1)
    ks = index_set(SquareProgression(20, 1), 1)
    assert ks == [0]
    assert p[0] % 2 == 1 and is_square(120 * 0 + 1)
    assert p[1] % 2 == 1 and is_square(120 * 1 + 1)


def test_corollary2_all_instances():
    shared = p_table(400)
    for part, s in ALL_INSTANCES:
        report = check_corollary2(part, s, 400, p=shared)
        assert report.status == "PASS", (part, s)


def test_id1_id2_small_k():
    for s in (2, 4):
        for k in (1, 2, 3):
            assert check_identity_id1(s, k, 200).status == "PASS", (s, k)
    for s in (1, 3):
        for k in (1, 2, 3):
            assert check_identity_id2(s, k, 200).status == "PASS", (s, k)


def test_id_checks_validate_parameters():
    with pytest.raises(ValueError):
        check_identity_id1(1, 1, 50)
    with pytest.raises(ValueError):
        check_identity_id1(2, 0, 50)
    with pytest.raises(ValueError):
        check_identity_id2(2, 1, 50)


def test_s_pairs_proved_members_match_corollary():
    # (15, 40) and (20, 120) restate the corollary instances with s = 1, 2
    for (a, b), (part, s) in (((15, 40), (2, 1)), ((20, 120), (1, 2))):
        pair = check_s_pair(a, b, 500)
        corollary = check_corollary2(part, s, 500)
        assert pair.status == "EMPIRICAL_PASS", (a, b)
        assert corollary.status == "PASS"
        assert pair.violations == corollary.violations == ()


def test_s_pairs_full_set():
    shared = p_table(300)
    for a, b in S_PAIRS:
        report = check_s_pair(a, b, 300, p=shared)
        assert report.status == "EMPIRICAL_PASS", (a, b)


def test_s_pair_controls_fail_early():
    shared = p_table(200)
    for a, b in ((7, 9), (10, 16), (14, 32)):
        report = check_s_pair(a, b, 200, p=shared)
        assert report.status == "EMPIRICAL_COUNTEREXAMPLE", (a, b)
        assert report.violations[0].n < 200


def test_conjecture1_small_scan():
    for part, s in ALL_INSTANCES:
        for k in (1, 2, 3):
            report = check_conjecture1(part, s, k, 300)
            assert report.status == "EMPIRICAL_PASS", (part, s, k)


def test_conjecture1_difference_zero_constant():
    for part, s in ALL_INSTANCES:
        for k in (1, 2):
            diff = conjecture1_difference(part, s, k, 50)
            assert diff.coefficient(0) == 0


def test_conjecture1_telescoping():
    # consecutive truncations differ by exactly 2*(-1)^(k+1) q^(2(k+1)^2)
    # times the regime sum
    order = 250
    for part, s in ALL_INSTANCES:
        regime = (regime3_sum if part == 1 else regime4_sum)(s, order)
        for k in (1, 2, 3):
            lhs = conjecture1_difference(part, s, k + 1, order) - \
                conjecture1_difference(part, s, k, order)
            step = regime.shift(2 * (k + 1) ** 2).scale(2 * (-1) ** (k + 1))
            assert lhs == step, (part, s, k)


def test_rho_series_coefficients_in_minus_one_zero_one():
    for part, s in ALL_INSTANCES:
        rho = rho_series(part, s, 2000)
        assert set(rho.coeffs) <= {-1, 0, 1}, (part, s)


def test_rho_series_matches_case_formula():
    # the bilateral coefficients reproduce the piecewise sign description
    for s in (2, 4):
        rho = rho_series(1, s, 500)
        expected = [0] * 501
        for m in range(-40, 41):
            sign = -1 if (m * ((s - 1) * m - 1) // 2) % 2 else 1
            for e in (m * (15 * m + 3 * s - 5) // 2,
                      ((3 * m - s // 2) * (10 * m - 6 + s)) // 4):
                if 0 <= e <= 500:
                    expected[e] = sign
        assert list(rho.coeffs) == expected, s
    for s in (1, 3):
        rho = rho_series(2, s, 500)
        expected = [0] * 501
        for m in range(-40, 41):
            sign = -1 if (m * (m + s) // 2) % 2 else 1
            e = m * (5 * m - s) // 2
            if 0 <= e <= 500:
                expected[e] = sign
        assert list(rho.coeffs) == expected, s


def test_conjecture2_both_readings_reported():
    reports = check_conjecture2(1, 2, 2, 200)
    readings = {r.params["inner_sign"] for r in reports}
    assert readings == {"alternating_j", "literal"}


def test_conjecture2_alternating_reading_passes():
    for part, s in ALL_INSTANCES:
        for k in (1, 2, 3):
            reports = check_conjecture2(part, s, k, 300)
            by_reading = {r.params["inner_sign"]: r for r in reports}
            assert by_reading["alternating_j"].status == "EMPIRICAL_PASS", (part, s, k)


def test_conjecture2_literal_part2_fails_for_odd_k():
    # the displayed all-plus inner sum cannot survive the outer -1:
    # at n=2 the value is -(T(2) + 2*T(0) - rho(2)) = -4
    reports = check_conjecture2(2, 1, 1, 50)
    literal = next(r for r in reports if r.params["inner_sign"] == "literal")
    assert literal.status == "EMPIRICAL_COUNTEREXAMPLE"
    assert literal.violations[0] == Violation(2, -4, 0)


def test_conjecture2_alternating_matches_difference_series():
    # coefficient extraction from the conjecture-1 difference series
    order = 200
    for part, s in ((1, 2), (2, 3)):
        for k in (1, 2):
            diff = conjecture1_difference(part, s, k, order)
            sign = 1 if k % 2 == 0 else -1
            reports = check_conjecture2(part, s, k, order)
            alt = next(r for r in reports if r.params["inner_sign"] == "alternating_j")
            assert alt.status == "EMPIRICAL_PASS"
            assert all(sign * c >= 0 for c in diff.coeffs)


def test_conjecture2_head_value():
    # n=0, even k: T(0) - rho(0) = 1 - 1 = 0, no violation possible
    reports = check_conjecture2(1, 4, 2, 0)
    assert all(r.status == "EMPIRICAL_PASS" for r in reports)


def test_cross_validate_all_rules():
    for rule in (regime3_rule(2), regime3_rule(4), regime4_rule(1), regime4_rule(3)):
        report = cross_validate(rule, 150)
        assert report.status == "PASS", rule
    assert cross_validate(regime3_rule(2), 0).status == "PASS"


def test_tables_record_what_they_count():
    assert p_table(10).rule is None
    assert count_restricted(regime4_rule(1), 10).rule == regime4_rule(1)


def test_conjecture2_rejects_table_for_another_rule():
    # a regime-IV s=1 count table handed to a regime-III s=2 scan
    wrong = count_restricted(regime4_rule(1), 50)
    with pytest.raises(ValueError):
        check_conjecture2(1, 2, 1, 50, tables=wrong)
    right = count_restricted(regime3_rule(2), 50)
    assert len(check_conjecture2(1, 2, 1, 50, tables=right)) == 2


def test_p_table_checks_reject_count_tables():
    counts = count_restricted(regime4_rule(1), 50)
    with pytest.raises(ValueError):
        check_corollary2(1, 2, 50, p=counts)
    with pytest.raises(ValueError):
        check_s_pair(6, 8, 50, p=counts)
    assert check_corollary2(1, 2, 50, p=p_table(50)).status == "PASS"
