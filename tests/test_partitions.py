"""Partition counts: recurrence vs enumeration, and the three routes to
the restricted counts."""

from __future__ import annotations

import pytest

from hexparity.partitions import (
    ORACLE_BOUND,
    OracleBoundExceeded,
    PartResidueRule,
    TableTooSmall,
    count_restricted,
    p_bruteforce,
    p_table,
    r_gf,
    r_s_decomposed,
    r_star_decomposed,
    regime3_rule,
    regime4_rule,
)

from hexparity.theta import part_of

from oracles import count_restricted_by_lists, inverse

ALL_RULES = [regime3_rule(2), regime3_rule(4), regime4_rule(1), regime4_rule(3)]


def test_p_table_small_values():
    table = p_table(10)
    assert table.values == (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42)
    assert table[5] == 7


def partitions_of(n: int, allows=None):
    """Yield the partitions of n as nonincreasing tuples.

    `allows` restricts the usable parts; None admits every positive integer.
    """
    if n < 0:
        return
    if n > ORACLE_BOUND:
        raise OracleBoundExceeded(f"enumeration capped at n <= {ORACLE_BOUND}")

    def rec(remaining: int, largest: int, prefix: tuple[int, ...]):
        if remaining == 0:
            yield prefix
            return
        for part in range(min(largest, remaining), 0, -1):
            if allows is not None and not allows(part):
                continue
            yield from rec(remaining - part, part, prefix + (part,))

    yield from rec(n, n, ())


def count_restricted_bruteforce(rule: PartResidueRule, n: int) -> int:
    """Enumeration oracle for the restricted counts (small n only)."""
    return sum(1 for _ in partitions_of(n, allows=rule.allows))


def test_p_bruteforce_base_cases():
    assert p_bruteforce(0) == 1
    assert p_bruteforce(1) == 1
    assert p_bruteforce(5) == 7


def test_p_bruteforce_bound():
    with pytest.raises(OracleBoundExceeded):
        p_bruteforce(61)


def test_recurrence_matches_enumeration():
    table = p_table(25)
    for n in range(26):
        assert table[n] == p_bruteforce(n)


def p_recurrence_oracle(n_max: int) -> list[int]:
    """The pentagonal recurrence summed term by term for each n, without
    blocks."""
    values = [0] * (n_max + 1)
    values[0] = 1
    for n in range(1, n_max + 1):
        total = 0
        k = 1
        while k * (3 * k - 1) // 2 <= n:
            sign = 1 if k % 2 == 1 else -1
            total += sign * values[n - k * (3 * k - 1) // 2]
            if k * (3 * k + 1) // 2 <= n:
                total += sign * values[n - k * (3 * k + 1) // 2]
            k += 1
        values[n] = total
    return values


def test_p_table_blocks_match_recurrence():
    # n_max = g - 1, g and g + 1 for the first generalized pentagonal
    # numbers g and for those of k = 9 and 10, which lie around 128 (the
    # division takes on the lag of term g at n = g), and one far past them
    pentagonal = (1, 2, 5, 7, 12, 15, 117, 126, 145)
    for n_max in sorted({0, 1, 2, 3, 2000} | {g + e for g in pentagonal for e in (-1, 0, 1)}):
        assert list(p_table(n_max).values) == p_recurrence_oracle(n_max), n_max


def test_p_table_matches_enumeration_to_oracle_bound():
    # n <= 40 is acceptance criterion 1; this covers every n up to the bound
    table = p_table(ORACLE_BOUND)
    for n in range(ORACLE_BOUND + 1):
        assert table[n] == p_bruteforce(n), n


def test_the_seven_partitions_of_five():
    got = set(partitions_of(5))
    assert got == {
        (5,),
        (4, 1),
        (3, 2),
        (3, 1, 1),
        (2, 2, 1),
        (2, 1, 1, 1),
        (1, 1, 1, 1, 1),
    }
    assert len(got) == 7


def test_rule_validation():
    with pytest.raises(ValueError):
        regime3_rule(1)
    with pytest.raises(ValueError):
        regime4_rule(2)


def test_a_rule_is_its_s():
    # the regime is read off s, and a rule built either way is the same
    for s in (1, 2, 3, 4):
        rule = PartResidueRule(s)
        assert rule.kind == ("regime3" if part_of(s) == 1 else "regime4"), s
        assert rule == (regime3_rule(s) if part_of(s) == 1 else regime4_rule(s)), s
    for s in (0, 5):
        with pytest.raises(ValueError, match="s must be 1, 2, 3 or 4"):
            PartResidueRule(s)
    with pytest.raises(ValueError):
        regime3_rule(1)
    with pytest.raises(ValueError):
        regime4_rule(2)


def test_restricted_examples():
    assert count_restricted(regime3_rule(2), 2)[2] == 2  # 2 and 1+1
    assert count_restricted(regime3_rule(4), 2)[2] == 1  # only 1+1
    assert count_restricted(regime4_rule(1), 1)[1] == 0  # part 1 excluded
    for rule in ALL_RULES:
        assert count_restricted(rule, 0)[0] == 1


def test_restricted_dp_matches_enumeration():
    for rule in ALL_RULES:
        table = count_restricted(rule, 40)
        for n in range(41):
            assert table[n] == count_restricted_bruteforce(rule, n), (rule, n)


def test_gf_route_matches_dp():
    for rule in ALL_RULES:
        series = r_gf(rule, 30)
        table = count_restricted(rule, 30)
        assert series.coeffs == table.values
        assert series.coefficient(0) == 1


def test_dp_route_does_not_use_the_division_kernel(monkeypatch):
    # the product route and the p(n) table of the decomposition route both
    # divide by (q;q)oo through one kernel, and the product route also runs
    # the recurrence and the segment kernel of pochhammer_quotient; the DP,
    # the third route, must stay free of all three, or the three routes
    # would not be independent
    import hexparity.partitions as partitions
    import hexparity.series as series

    def broken(*args):
        raise AssertionError("product-route kernel called")

    # 700 runs every phase of the DP: each slot width and the list passes
    want = {rule: r_gf(rule, 700).coeffs for rule in ALL_RULES}
    monkeypatch.setattr(series, "_divide_by_euler", broken)
    monkeypatch.setattr(partitions, "_divide_by_euler", broken)
    monkeypatch.setattr(series, "_lag_segments", broken)
    monkeypatch.setattr(series, "_expand_by_recurrence", broken)
    for rule in ALL_RULES:
        with pytest.raises(AssertionError):
            r_gf(rule, 50)
        assert count_restricted(rule, 700).values == want[rule]
    with pytest.raises(AssertionError):
        p_table(50)


def test_restricted_dp_matches_gf_at_every_order():
    # every size from 1 to 151 passes the perfect squares, so that each
    # part m meets sizes below, at and above m*m, and the sizes 2m - 1, 2m
    # and 2m + 1, where the lagged pass of m starts or stays empty
    for rule in ALL_RULES:
        for n_max in range(151):
            table = count_restricted(rule, n_max)
            assert table.values == r_gf(rule, n_max).coeffs, (rule, n_max)


def test_restricted_dp_matches_gf_on_multi_limb_counts():
    # at 2000 the counts run to several limbs: the parts above 1000 only
    # set their own counts, the packed phase runs through every slot width,
    # and the list passes admit the smallest parts with multi-limb counts;
    # all of it is checked against the product route
    for rule in ALL_RULES:
        table = count_restricted(rule, 2000)
        assert table.values[-1].bit_length() > 64
        assert table.values == r_gf(rule, 2000).coeffs, rule


def test_restricted_dp_matches_list_passes_at_every_order():
    # the packed phase against one list pass per part, at every order to
    # 400, which passes the first widening to 2, 4 and 8 bytes for every s
    for rule in ALL_RULES:
        for n_max in range(401):
            want = count_restricted_by_lists(rule, n_max)
            assert count_restricted(rule, n_max).values == want, (rule, n_max)


# per s, the least order at which the DP widens its slots to 2, 4 and 8
# bytes, and at which the packed phase hands parts over to the list passes
PHASE_ORDERS = {
    1: {2: 18, 4: 53, 8: 164, "lists": 577},
    2: {2: 15, 4: 39, 8: 131, "lists": 492},
    3: {2: 15, 4: 48, 8: 157, "lists": 564},
    4: {2: 15, 4: 42, 8: 136, "lists": 503},
}


def test_phase_orders_are_where_the_phases_begin(monkeypatch):
    # each widening is recorded with its new width, and the list passes by
    # their islice, which nothing else in partitions calls
    import hexparity.partitions as partitions

    phases = []

    def recording(fn, phase=None):
        def call(*args):
            phases.append(phase or args[2])
            return fn(*args)
        return call

    monkeypatch.setattr(partitions, "_restride", recording(partitions._restride))
    monkeypatch.setattr(partitions, "islice", recording(partitions.islice, "lists"))
    for rule in ALL_RULES:
        for phase, order in PHASE_ORDERS[rule.s].items():
            for n_max, began in ((order - 1, False), (order, True)):
                phases.clear()
                count_restricted(rule, n_max)
                assert (phase in phases) == began, (rule, phase, n_max)


def test_restricted_dp_matches_list_passes_around_phase_orders():
    for rule in ALL_RULES:
        for order in PHASE_ORDERS[rule.s].values():
            for n_max in (order - 1, order, order + 1):
                want = count_restricted_by_lists(rule, n_max)
                assert count_restricted(rule, n_max).values == want, (rule, n_max)


def test_allowed_parts_match_the_predicate():
    # the parts read off the residues mod 20 are those the predicate allows
    for rule in ALL_RULES:
        for limit in [*range(61), 2500, 10**4]:
            want = [m for m in range(1, limit + 1) if rule.allows(m)]
            assert rule.allowed_parts(limit) == want, (rule, limit)


def test_gf_route_is_reciprocal_of_spec_product():
    from hexparity.series import QPochhammerSpec, pochhammer_quotient

    product = pochhammer_quotient(
        [
            QPochhammerSpec(1, 1, 2),
            QPochhammerSpec(1, 2, 10),
            QPochhammerSpec(1, 8, 10),
        ],
        [],
        40,
    )
    assert inverse(product) == r_gf(regime3_rule(2), 40)


def test_decomposition_examples():
    p = p_table(30)
    assert r_s_decomposed(2, 0, p) == 1
    assert r_s_decomposed(2, 2, p) == 2
    assert r_s_decomposed(4, 10, p) == count_restricted(regime3_rule(4), 10)[10]
    assert r_star_decomposed(1, 0, p) == 1
    assert r_star_decomposed(1, 1, p) == 0
    assert r_star_decomposed(3, 3, p) == count_restricted(regime4_rule(3), 3)[3]


def test_decomposition_table_guard():
    p = p_table(5)
    with pytest.raises(TableTooSmall):
        r_s_decomposed(2, 6, p)
    with pytest.raises(TableTooSmall):
        r_star_decomposed(1, 6, p)


def test_three_routes_agree_to_120():
    p = p_table(120)
    for rule in ALL_RULES:
        dp = count_restricted(rule, 120)
        gf = r_gf(rule, 120)
        for n in range(121):
            if rule.kind == "regime3":
                dec = r_s_decomposed(rule.s, n, p)
            else:
                dec = r_star_decomposed(rule.s, n, p)
            assert dp[n] == gf.coefficient(n) == dec, (rule, n)


def test_counts_are_nonnegative_with_unit_head():
    for rule in ALL_RULES:
        table = count_restricted(rule, 60)
        assert table[0] == 1
        assert all(v >= 0 for v in table.values)
