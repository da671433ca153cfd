"""Verifier tier: theorem, corollary, identity, and conjecture checks at
moderate orders (the acceptance suite reruns them at contract scale)."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from hexparity.checks import (
    INNER_SIGN_LITERAL,
    S_PAIRS,
    _parity_sum_violations,
    check_conjecture1,
    check_conjecture2,
    check_corollary2,
    check_identity_id1,
    check_identity_id2,
    check_rogers,
    check_s_pair,
    check_set_equivalence,
    check_theorem1,
    check_truncated_gauss,
    conjecture1_difference,
    corollary2_progression,
    cross_validate,
    theorem1_progression,
)
from hexparity.partitions import (
    PartResidueRule,
    PartitionTable,
    TableTooSmall,
    count_restricted,
    p_table,
    r_decomposed,
    regime3_rule,
    regime4_rule,
)
from hexparity.report import CheckReport, Violation
from hexparity.series import OrderExceeded, TruncatedSeries
from hexparity.squares import SquareProgression, index_set, indicator_series
from hexparity.theta import (
    bilateral_sum,
    even_gauss_factor,
    partial_theta,
    regime3_sum,
    regime4_sum,
    regime_sum,
    regime_sum_parities,
    rho_families,
    truncated_gauss_lhs,
    truncated_gauss_rhs,
)

from oracles import holds, is_square

ALL_INSTANCES = ((1, 2), (1, 4), (2, 1), (2, 3))
S_PAIR_CONTROLS = ((7, 9), (10, 16), (14, 32))


def test_report_invariants():
    with pytest.raises(ValueError):
        CheckReport("x", {}, "PASS", (Violation(0, 1, 2),))
    with pytest.raises(ValueError):
        CheckReport("x", {}, "MAYBE")


def test_violation_has_slots_and_same_json():
    # a scan can hold ~10^5 violations: no per-instance __dict__, and the
    # JSON form is unchanged, big integers as decimal strings
    v = Violation(7, -2**70, 0)
    assert not hasattr(v, "__dict__")
    assert v.to_json_dict() == {"n": 7, "lhs": str(-2**70), "rhs": "0"}
    assert v == Violation(7, -2**70, 0) and hash(v) == hash(Violation(7, -2**70, 0))
    with pytest.raises(AttributeError):
        v.n = 8


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
    for s in (0, 5):
        with pytest.raises(ValueError):
            regime_sum(s, 10)
        with pytest.raises(ValueError):
            regime_sum_parities((s,), 10)
    with pytest.raises(ValueError):
        regime3_sum(1, 10)
    with pytest.raises(ValueError):
        regime4_sum(2, 10)


@pytest.mark.parametrize("call, message", [
    (lambda: partial_theta(2, -3), "order must be nonnegative"),
    (lambda: indicator_series(SquareProgression(120, 1), -1), "order must be nonnegative"),
    (lambda: check_rogers(0, 10), "s must be 1, 2, 3 or 4"),
    (lambda: check_set_equivalence(5, "theorem1", 10), "s must be 1, 2, 3 or 4"),
], ids=["partial_theta", "indicator_series", "check_rogers", "check_set_equivalence"])
def test_bad_arguments_raise_the_rule_they_break(call, message):
    # a negative order, or an s outside 1..4, is refused by name before
    # any expansion runs
    with pytest.raises(ValueError, match=message):
        call()


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


def parity_sum_violations_oracle(p, ks, target, order):
    """For each n, the parity of sum_{k in ks, k <= n} p(n-k) summed term
    by term from a list of p(n) mod 2."""
    parity = [v & 1 for v in p.values[: order + 1]]
    violations = []
    for n in range(order + 1):
        acc = 0
        for k in ks:
            if k > n:
                break
            acc ^= parity[n - k]
        want = 1 if holds(target, n) else 0
        if acc != want:
            violations.append(Violation(n, acc, want))
    return violations


def parity_scans():
    """(index progression, target) of every corollary2 instance, every
    S-pair and the failing controls."""
    scans = [(corollary2_progression(s), theorem1_progression(s))
             for _, s in ALL_INSTANCES]
    scans += [(SquareProgression(a, 1), SquareProgression(b, 1))
              for a, b in S_PAIRS + S_PAIR_CONTROLS]
    return scans


def test_parity_sum_violations_match_double_loop():
    # orders on both sides of the 8-value packing boundary, and one large
    for order in (0, 1, 7, 8, 9, 17, 1200):
        p = p_table(order)
        for index_prog, target in parity_scans():
            got = _parity_sum_violations(p, index_prog, target, order)
            want = parity_sum_violations_oracle(p, index_set(index_prog, order), target, order)
            assert got == want, (index_prog, target, order)
    p = p_table(1200)
    for a, b in S_PAIR_CONTROLS:
        ks = index_set(SquareProgression(a, 1), 1200)
        assert parity_sum_violations_oracle(p, ks, SquareProgression(b, 1), 1200)


def test_parity_sum_violations_dense_tables():
    # random tables of both signs violate at about half the points, so
    # every bit of the packing and of the violation walk is exercised
    rng = random.Random(23)
    for order in (0, 5, 64, 301):
        table = PartitionTable(order, tuple(rng.randint(-2**70, 2**70)
                                            for _ in range(order + 1)))
        for index_prog, target in parity_scans():
            got = _parity_sum_violations(table, index_prog, target, order)
            want = parity_sum_violations_oracle(table, index_set(index_prog, order),
                                                target, order)
            assert got == want, (index_prog, target, order)


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
        rho = bilateral_sum(rho_families(s), 2000)
        assert set(rho.coeffs) <= {-1, 0, 1}, (part, s)


def test_rho_series_matches_case_formula():
    # the bilateral coefficients reproduce the piecewise sign description
    for s in (2, 4):
        rho = bilateral_sum(rho_families(s), 500)
        expected = [0] * 501
        for m in range(-40, 41):
            sign = -1 if (m * ((s - 1) * m - 1) // 2) % 2 else 1
            for e in (m * (15 * m + 3 * s - 5) // 2,
                      ((3 * m - s // 2) * (10 * m - 6 + s)) // 4):
                if 0 <= e <= 500:
                    expected[e] = sign
        assert list(rho.coeffs) == expected, s
    for s in (1, 3):
        rho = bilateral_sum(rho_families(s), 500)
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


def conjecture2_oracle(tables, part, s, k, reading, order):
    """The violations of one reading, n by n and j by j from the table."""
    if reading == "alternating_j":
        inner = [(-1) ** j for j in range(1, k + 1)]
    else:
        inner = [(-1) ** k if part == 1 else 1] * k
    outer = 1 if k % 2 == 0 else -1
    rho = bilateral_sum(rho_families(s), order)
    violations = []
    for n in range(order + 1):
        acc = tables.values[n]
        for j in range(1, k + 1):
            shift = 2 * j * j
            if shift > n:
                break
            acc += 2 * inner[j - 1] * tables.values[n - shift]
        value = outer * (acc - rho.coeffs[n])
        if value < 0:
            violations.append(Violation(n, value, 0))
    return violations


def test_conjecture2_slice_passes_match_double_loop():
    # random tables of both signs violate at about half the points; the
    # orders sit around the shifts 2j^2 = 2, 8, 18, 32, and tables longer
    # than the order must be cut at it
    rng = random.Random(31)
    for order in (0, 1, 2, 7, 8, 9, 17, 18, 19, 32, 301):
        for part, s in ((1, 2), (2, 1)):
            rule = regime3_rule(s) if part == 1 else regime4_rule(s)
            for extra in (0, 3):
                n_max = order + extra
                table = PartitionTable(n_max, tuple(rng.randint(-2**70, 2**70)
                                                    for _ in range(n_max + 1)), rule)
                for k in range(1, 7):
                    reports = check_conjecture2(part, s, k, order, tables=table)
                    for report in reports:
                        want = conjecture2_oracle(table, part, s, k,
                                                  report.params["inner_sign"], order)
                        assert list(report.violations) == want, (order, part, k, extra)
                        if order == 301:
                            assert 100 < len(want) < 200, (part, k)


def _corrupted(build, at):
    """build with the coefficients at the given n moved by n + 1."""
    def broken(*args):
        coeffs = list(build(*args).coeffs)
        for n in at:
            coeffs[n] += n + 1
        return TruncatedSeries(tuple(coeffs))
    return broken


def test_rogers_failure_reports_every_n(monkeypatch):
    import hexparity.checks as checks

    order, at = 40, (0, 17, 40)
    lhs, rhs = regime3_sum(2, order), checks.regime3_product(2, order)
    monkeypatch.setattr(checks, "regime3_product",
                        _corrupted(checks.regime3_product, at))
    report = checks.check_rogers(2, order)
    assert report.status == "FAIL"
    assert report.violations == tuple(
        Violation(n, lhs.coeffs[n], rhs.coeffs[n] + n + 1) for n in at)


def test_cross_validate_failure_reports_every_n(monkeypatch):
    import hexparity.checks as checks

    rule, order, at = regime4_rule(3), 40, (0, 23, 40)
    counts = count_restricted(rule, order).values
    monkeypatch.setattr(checks, "r_gf", _corrupted(checks.r_gf, at))
    report = checks.cross_validate(rule, order)
    assert report.status == "FAIL"
    assert report.violations == tuple(
        Violation(n, counts[n], counts[n] + n + 1) for n in at)
    assert report.details["routes"] == [
        {"n": n, "dp": str(counts[n]), "gf": str(counts[n] + n + 1),
         "decomposition": str(counts[n])} for n in at]


def test_wrong_euler_division_fails_the_tail_checks(monkeypatch):
    # a flipped coefficient in every division of the segment kernel, the
    # left side's Euler divisions and the tail's division by theta, does
    # not cancel between the sides, since the left side subtracts 1 outside
    # the factor, and the left sides of id1 and id2 divide by neither; a
    # flip in the Euler division alone reaches the left side only
    import hexparity.series as series

    kernel, divide = series._lag_segments, series._divide_by_euler
    calls = []

    def flipped_kernel(base, terms, lagged=None):
        out = kernel(base, terms, lagged)
        if lagged is None and len(out) > 1:
            calls.append(len(out))
            out[1] ^= 1  # flip one bit of one coefficient
        return out

    def flipped_euler(coeffs, d, times):
        divide(coeffs, d, times)
        calls.append(len(coeffs))
        coeffs[d] ^= 1

    order = 200
    with monkeypatch.context() as patch:
        patch.setattr(series, "_lag_segments", flipped_kernel)
        for k in (1, 2, 3):
            for side in (truncated_gauss_lhs, truncated_gauss_rhs):
                calls.clear()
                side(k, order)
                assert calls, (side.__name__, k)
            assert check_truncated_gauss(k, order).status == "FAIL", k
            for s in (2, 4):
                assert check_identity_id1(s, k, order).status == "FAIL", (s, k)
            for s in (1, 3):
                assert check_identity_id2(s, k, order).status == "FAIL", (s, k)
    monkeypatch.setattr(series, "_divide_by_euler", flipped_euler)
    for k in (1, 2, 3):
        calls.clear()
        truncated_gauss_rhs(k, order)
        assert not calls, k
        truncated_gauss_lhs(k, order)
        assert calls, k
        assert check_truncated_gauss(k, order).status == "FAIL", k


def _counting(monkeypatch, module, names):
    """Wrap module.name for each name so that its calls are counted by
    their positional arguments."""
    counts = {name: Counter() for name in names}
    for name in names:
        function = getattr(module, name)

        def counted(*args, function=function, name=name):
            counts[name][args] += 1
            return function(*args)

        monkeypatch.setattr(module, name, counted)
    return counts


def _per_instance_reports(command, name, order, reading):
    """The reports of every default instance and k of a registered check,
    one per-instance call each, sharing no input."""
    import hexparity.checks as checks

    entry = checks.REGISTRY[command][name]
    ks = entry.default_ks or (None,)
    if name == "2":
        return [r for i in entry.instances for k in ks
                for r in check_conjecture2(i["part"], i["s"], k, order)
                if r.params["inner_sign"] in checks.READINGS[reading]]
    check = {"id1": check_identity_id1, "id2": check_identity_id2, "1": check_conjecture1,
             "corollary2": check_corollary2, "s-pairs": check_s_pair,
             "truncated-gauss": check_truncated_gauss}[name]
    return [check(*i.values(), *([k] if k else []), order)
            for i in entry.instances for k in ks]


# the functions building each check's shared inputs, with the calls
# run_check makes to each at order 90; a count n stands for n calls, one
# per instance's s
SHARED_BUILDS = {
    "id1": {"truncated_gauss_rhs": {(k, 90): 1 for k in range(1, 6)},
            "regime_sum": {(s, 90): 1 for s in (2, 4)}},
    "id2": {"truncated_gauss_rhs": {(k, 90): 1 for k in range(1, 6)},
            "regime_sum": {(s, 90): 1 for s in (1, 3)}},
    "1": {"regime_sum": {(s, 90): 1 for s in (2, 4, 1, 3)}},
    "2": {"r_gf": 4},
    "corollary2": {"p_table": {(90,): 1}},
    "s-pairs": {"p_table": {(90,): 1}},
    "truncated-gauss": {"even_gauss_factor": {(90,): 1}},
}


@pytest.mark.parametrize("command, name", [
    ("verify", "id1"), ("verify", "id2"), ("conjecture", "1"), ("conjecture", "2"),
    ("verify", "corollary2"), ("conjecture", "s-pairs"), ("verify", "truncated-gauss")])
@pytest.mark.parametrize("corrupt", [False, True])
def test_shared_input_runs_match_per_instance_checks(monkeypatch, command, name, corrupt):
    # run_check builds each shared input once per run (the regime sums
    # once per s, truncated_gauss_rhs once per k, the tables and the even
    # Gauss factor once; each check builds its own rho) and returns the reports the per-instance
    # checks return, over every default instance and k and, for conjecture
    # 2, under each reading; with the regime sums corrupted, the same FAILs
    # and violations
    import hexparity.checks as checks
    import hexparity.theta as theta

    if corrupt:
        at = (0, 33, 90)
        monkeypatch.setattr(checks, "regime_sum", _corrupted(checks.regime_sum, at))
    order, builds = 90, SHARED_BUILDS[name]
    readings = ("j", "literal", "both") if name == "2" else (None,)
    wants = [_per_instance_reports(command, name, order, r or "both") for r in readings]
    counts = _counting(monkeypatch, checks, builds)
    # run_check builds the even Gauss factor; the left side builds none
    in_theta = _counting(monkeypatch, theta, ("even_gauss_factor",))

    def fields(r):
        return r.check_id, r.status, r.params, r.violations

    for reading, want in zip(readings, wants):
        for counter in counts.values():
            counter.clear()
        got, _ = checks.run_check(command, name, order, reading=reading)
        assert list(map(fields, got)) == list(map(fields, want))
        for function, calls in builds.items():
            if isinstance(calls, int):
                assert sorted(counts[function].values()) == [1] * calls, function
            else:
                assert counts[function] == calls, function
    identity = name in ("id1", "id2", "1")
    assert (corrupt and identity) == any(r.status in ("FAIL", "EMPIRICAL_COUNTEREXAMPLE")
                                         for r in got if r.params.get("inner_sign") != "literal")
    assert not in_theta["even_gauss_factor"]


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


@pytest.mark.parametrize("check, args, flags, keyword, build", [
    (check_identity_id1, (2, 1), {}, "regime", lambda n: regime_sum(2, n)),
    (check_identity_id2, (1, 2), {}, "tail", lambda n: truncated_gauss_rhs(2, n)),
    (check_conjecture1, (1, 2, 1), {}, "regime", lambda n: regime_sum(2, n)),
    (check_truncated_gauss, (1,), {}, "factor", even_gauss_factor),
    (check_theorem1, (1, 2), {"use_parity_fastpath": True}, "parities",
     lambda n: regime_sum_parities((2, 4), n)),
    # the side itself, which reads the factor
    (truncated_gauss_lhs, (2,), {}, "factor", even_gauss_factor),
], ids=["id1-regime", "id2-tail", "conjecture1-regime", "truncated-gauss-factor",
        "theorem1-parities", "truncated-gauss-lhs-factor"])
def test_supplied_inputs_must_reach_the_order(check, args, flags, keyword, build):
    # an input shorter than the order raises and names itself, where it
    # would shorten the comparison; a longer one is cut to the order, where
    # it would compare points past it
    order = 120
    with pytest.raises(OrderExceeded, match=f"^{keyword} stops at {order - 1}, need {order}$"):
        check(*args, order, **flags, **{keyword: build(order - 1)})

    def fields(r):
        if isinstance(r, TruncatedSeries):
            return r
        return r.check_id, r.status, r.params, r.violations

    want = check(*args, order, **flags)
    assert fields(check(*args, order, **flags, **{keyword: build(order + 37)})) == fields(want)


def test_p_table_checks_reject_count_tables():
    counts = count_restricted(regime4_rule(1), 50)
    with pytest.raises(ValueError):
        check_corollary2(1, 2, 50, p=counts)
    with pytest.raises(ValueError):
        check_s_pair(6, 8, 50, p=counts)
    assert check_corollary2(1, 2, 50, p=p_table(50)).status == "PASS"


def test_table_users_share_one_table_rule():
    # r_decomposed and the three checks that take a table refuse a count
    # table for another rule, and a table too short, with the error and
    # message of PartitionTable.require itself
    order = 50
    users = [
        (None, lambda t: r_decomposed(regime3_rule(2), order, t)),
        (None, lambda t: check_corollary2(1, 2, order, p=t)),
        (None, lambda t: check_s_pair(6, 8, order, p=t)),
        (regime3_rule(2), lambda t: check_conjecture2(1, 2, 1, order, tables=t)),
    ]
    for rule, call in users:
        right = p_table if rule is None else lambda n, rule=rule: count_restricted(rule, n)
        for table in (count_restricted(regime4_rule(1), order), right(order - 1)):
            with pytest.raises(ValueError) as want:
                table.require(rule, order)
            with pytest.raises(ValueError) as got:
                call(table)
            assert type(got.value) is type(want.value), (rule, table.rule)
            assert str(got.value) == str(want.value), (rule, table.rule)
        call(right(order))
    with pytest.raises(TableTooSmall, match="^table stops at 49, need 50$"):
        p_table(49).require(None, order)
    with pytest.raises(ValueError, match=r"^table counts PartResidueRule\(s=1\), need p\(n\)$"):
        count_restricted(regime4_rule(1), order).require(None, order)


def test_conjecture2_rejects_an_unknown_reading():
    # a reading outside READINGS["both"] is refused by name, not scored as
    # the literal one
    with pytest.raises(ValueError, match="got 'bogus'"):
        check_conjecture2(1, 2, 1, 50, readings=("bogus",))
    with pytest.raises(ValueError, match="got 'j'"):
        check_conjecture2(1, 2, 1, 50, readings=(INNER_SIGN_LITERAL, "j"))


def test_theorem1_parities_without_its_s_raise_by_name():
    # parities walked for the other part hold no series for s
    with pytest.raises(ValueError, match="^parities holds no series for s = 2$"):
        check_theorem1(1, 2, 60, True, parities=regime_sum_parities((1, 3), 60))


def test_theorem1_pair_walk_is_built_only_for_both_instances(monkeypatch):
    # under --fast-parity, run_check builds one walk per part whose two
    # instances are both selected and hands it to both; a lone --s walks
    # its own chain and never builds the pair, and the bigint path builds
    # no walk at all.  The reports match the per-instance checks
    import hexparity.checks as checks

    order = 300
    counts = _counting(monkeypatch, checks, ("regime_sum_parities",))

    def fields(r):
        return r.check_id, r.status, r.params, r.violations

    runs = [({}, {((2, 4), order): 1, ((1, 3), order): 1}),
            ({"part": 2}, {((1, 3), order): 1}),
            ({"part": 1}, {((2, 4), order): 1})]
    runs += [({"s": s}, {((s,), order): 1}) for s in (2, 4, 1, 3)]
    runs += [({"part": 1, "s": 4}, {((4,), order): 1})]
    for flags, walks in runs:
        counts["regime_sum_parities"].clear()
        got, _ = checks.run_check("verify", "theorem1", order, fast_parity=True, **flags)
        assert counts["regime_sum_parities"] == walks, flags
        want = [check_theorem1(r.params["part"], r.params["s"], order, True) for r in got]
        assert list(map(fields, got)) == list(map(fields, want))
        assert len(got) == sum(len(ss) for ss, _ in walks)
    counts["regime_sum_parities"].clear()
    got, _ = checks.run_check("verify", "theorem1", order)
    assert [r.params["path"] for r in got] == ["bigint"] * 4
    assert not counts["regime_sum_parities"]


def test_cross_validate_run_shares_one_p_table(monkeypatch):
    # run_check builds p(n) once for the four rules; a lone --s, and a
    # direct call, build their own
    import hexparity.checks as checks

    counts = _counting(monkeypatch, checks, ("p_table",))
    got, _ = checks.run_check("verify", "cross-validate", 90)
    assert counts["p_table"] == {(90,): 1}
    want = [checks.cross_validate(PartResidueRule(s), 90) for s in (2, 4, 1, 3)]
    assert [(r.check_id, r.status, r.violations) for r in got] == \
        [(r.check_id, r.status, r.violations) for r in want]
    assert counts["p_table"] == {(90,): 5}
    got, _ = checks.run_check("verify", "cross-validate", 90, s=3)
    assert [r.check_id for r in got] == ["cross_validate.regime4.s3"]
    assert counts["p_table"] == {(90,): 6}
