"""Acceptance suite: every exit criterion at its contract scale.

Each test prints one PASS/FAIL line (run pytest with -s or -rA to see
them).  Orders and runtime bounds are pinned here, not configurable:
exact equality everywhere, no tolerances.
"""

from __future__ import annotations

import time

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
    verify_set_equivalence,
)
from hexparity.partitions import (
    count_restricted,
    p_bruteforce,
    p_table,
    r_gf,
    r_s_decomposed,
    r_star_decomposed,
    regime3_rule,
    regime4_rule,
)
from hexparity.squares import SquareProgression
from hexparity.theta import (
    Monomial,
    decomposition_families,
    eq41_sides,
    eq42_sides,
    gauss_theta_sides,
    jtp_sides,
    quintuple_sides,
    regime3_product,
    regime3_sum,
    regime4_product,
    regime4_sum,
    rho_families,
    rr_G,
    rr_H,
    truncated_gauss_lhs,
    truncated_gauss_rhs,
)

ALL_INSTANCES = ((1, 2), (1, 4), (2, 1), (2, 3))
ALL_RULES = (regime3_rule(2), regime3_rule(4), regime4_rule(1), regime4_rule(3))


class Criterion:
    def __init__(self, number: int, label: str):
        self.number = number
        self.label = label
        self.start = time.perf_counter()

    def finish(self, ok: bool, extra: str = "") -> None:
        elapsed = time.perf_counter() - self.start
        status = "PASS" if ok else "FAIL"
        tail = f"  [{extra}]" if extra else ""
        print(f"ACCEPTANCE {self.number:02d} {status}  {self.label} "
              f"({elapsed:.1f}s){tail}")
        assert ok, f"criterion {self.number}: {self.label}"


def test_01_oracle_agreement():
    c = Criterion(1, "p(n) recurrence equals enumeration for n <= 40; p(5) = 7")
    table = p_table(40)
    ok = table[5] == 7
    for n in range(41):
        ok = ok and table[n] == p_bruteforce(n)
    elapsed = time.perf_counter() - c.start
    c.finish(ok and elapsed < 10, f"runtime bound 10s, took {elapsed:.1f}s")


def test_02_three_route_agreement():
    c = Criterion(2, "DP = generating function = decomposition for n <= 500, "
                     "all four (regime, s)")
    order = 500
    p = p_table(order)
    ok = True
    for rule in ALL_RULES:
        dp = count_restricted(rule, order)
        gf = r_gf(rule, order)
        decompose = r_s_decomposed if rule.kind == "regime3" else r_star_decomposed
        for n in range(order + 1):
            if not (dp[n] == gf.coefficient(n) == decompose(rule.s, n, p)):
                ok = False
                print(f"  route mismatch at {rule.kind} s={rule.s} n={n}")
                break
    elapsed = time.perf_counter() - c.start
    c.finish(ok and elapsed < 60, f"runtime bound 60s, took {elapsed:.1f}s")


def test_03_rogers_identities():
    c = Criterion(3, "regime sums equal their product sides to N = 1000")
    order = 1000
    ok = True
    for s in (2, 4):
        ok = ok and regime3_sum(s, order) == regime3_product(s, order)
    for s in (1, 3):
        ok = ok and regime4_sum(s, order) == regime4_product(s, order)
    elapsed = time.perf_counter() - c.start
    c.finish(ok and elapsed < 120, f"runtime bound 120s, took {elapsed:.1f}s")


def test_04_rogers_ramanujan_G_H():
    c = Criterion(4, "G and H: summation form equals product form to N = 2000")
    g_sum, g_prod = rr_G(2000)
    h_sum, h_prod = rr_H(2000)
    c.finish(g_sum == g_prod and h_sum == h_prod)


def test_05_identity_endpoints():
    c = Criterion(5, "triple/quintuple/Gauss/truncated-Gauss/bilateral "
                     "identity endpoints exact to N = 300")
    order = 300
    ok = True

    def both_agree(pair) -> bool:
        lhs, rhs = pair
        return lhs == rhs

    # triple product under the two substitutions used in the derivations
    for z_sign, a in ((-1, 1), (-1, 3)):
        ok = ok and both_agree(jtp_sides(z_sign, a, -1, 5, order))
    # plus the decomposition substitutions q -> q^10, z -> q^(6-s)
    for a in (2, 4):
        ok = ok and both_agree(jtp_sides(1, a, 1, 10, order))
    # quintuple product
    for z in (Monomial(1, 2), Monomial(-1, 1)):
        ok = ok and both_agree(quintuple_sides(z, Monomial(-1, 5), order))
    for s in (1, 3):
        ok = ok and both_agree(quintuple_sides(Monomial(1, s), Monomial(1, 10), order))
    # Gauss theta
    ok = ok and both_agree(gauss_theta_sides(order))
    # bilateral identities
    for s in (2, 4):
        ok = ok and both_agree(eq41_sides(s, order))
    literal_alternative_detected = True
    for s in (1, 3):
        ok = ok and both_agree(eq42_sides(s, order))
        lhs2, rhs2 = eq42_sides(s, order, first_decade_exponent=2)
        if lhs2 == rhs2:
            literal_alternative_detected = False
            print(f"  unexpected: literal q^2 reading matched at s={s}")
    # truncated Gauss
    for k in range(1, 11):
        ok = ok and truncated_gauss_lhs(k, order) == truncated_gauss_rhs(k, order)
    # assembled identity endpoints
    for s in (2, 4):
        for k in range(1, 6):
            ok = ok and check_identity_id1(s, k, order).status == "PASS"
    for s in (1, 3):
        for k in range(1, 6):
            ok = ok and check_identity_id2(s, k, order).status == "PASS"
    c.finish(ok and literal_alternative_detected,
             "literal q^2 variant mismatches as expected")


def test_06_theorem1_both_paths():
    c = Criterion(6, "parity theorem: four instances at N = 2000 (exact) "
                     "and N = 10^5 (GF(2) path), overlap identical")
    ok = True
    parity_start = time.perf_counter()
    for part, s in ALL_INSTANCES:
        big = check_theorem1(part, s, 2000)
        fast_small = check_theorem1(part, s, 2000, use_parity_fastpath=True)
        fast_large = check_theorem1(part, s, 100_000, use_parity_fastpath=True)
        ok = ok and big.status == "PASS" and fast_large.status == "PASS"
        ok = ok and big.violations == fast_small.violations == ()
    parity_elapsed = time.perf_counter() - parity_start
    c.finish(ok and parity_elapsed < 60,
             f"runtime bound 60s, took {parity_elapsed:.1f}s")


def test_07_corollary2():
    c = Criterion(7, "partition-sum parity iff square progression, "
                     "four instances to N = 2000")
    shared = p_table(2000)
    ok = True
    for part, s in ALL_INSTANCES:
        ok = ok and check_corollary2(part, s, 2000, p=shared).status == "PASS"
    c.finish(ok)


def test_08_set_equivalences():
    c = Criterion(8, "exponent sets equal square progressions with "
                     "multiplicity 1 up to 10^6")
    bound = 10**6
    instances = []
    for s in (2, 4):
        instances.append((rho_families(s), SquareProgression(120, (3 * s - 5) ** 2)))
        instances.append((decomposition_families(s), SquareProgression(20, (s - 1) ** 2)))
    for s in (1, 3):
        instances.append((rho_families(s), SquareProgression(40, s * s)))
        instances.append((decomposition_families(s), SquareProgression(15, (s + 1) ** 2 // 4)))
    ok = True
    for fams, prog in instances:
        report = verify_set_equivalence(fams, prog, bound)
        histogram = report.details["multiplicity_histogram"]
        ok = ok and report.status == "PASS" and list(histogram) == ["1"]
    c.finish(ok, f"{len(instances)} instances")


def test_09_s_pair_scan():
    c = Criterion(9, "seven S pairs pass to N = 500; three control pairs "
                     "each yield a counterexample")
    order = 500
    shared = p_table(order)
    ok = True
    for a, b in S_PAIRS:
        report = check_s_pair(a, b, order, p=shared)
        if report.status != "EMPIRICAL_PASS":
            ok = False
            print(f"  S pair ({a},{b}) failed at n={report.violations[0].n}")
    for a, b in ((7, 9), (10, 16), (14, 32)):
        report = check_s_pair(a, b, order, p=shared)
        if report.status == "EMPIRICAL_COUNTEREXAMPLE":
            first = report.violations[0]
            print(f"  control ({a},{b}): first counterexample at n={first.n}")
            ok = ok and first.n < order
        else:
            # a passing control is a reportable anomaly, not a silent one
            print(f"  control ({a},{b}) unexpectedly PASSED to N={order}")
            ok = False
    c.finish(ok)


def test_10_conjecture_scans():
    c = Criterion(10, "sign conjecture and shifted-count inequalities, "
                      "k = 1..8 to N = 1000, both inner readings reported")
    order = 1000
    ok = True
    for part, s in ALL_INSTANCES:
        for k in range(1, 9):
            report = check_conjecture1(part, s, k, order)
            if report.status != "EMPIRICAL_PASS":
                ok = False
                for v in report.violations[:5]:
                    print(f"  conjecture1 part{part} s{s} k{k}: "
                          f"coefficient {v.lhs} at n={v.n}")
    for part, s in ALL_INSTANCES:
        rule = regime3_rule(s) if part == 1 else regime4_rule(s)
        table = count_restricted(rule, order)
        for k in range(1, 9):
            reports = check_conjecture2(part, s, k, order, tables=table)
            by_reading = {r.params["inner_sign"]: r for r in reports}
            assert set(by_reading) == {"alternating_j", "literal"}
            alt = by_reading["alternating_j"]
            if alt.status != "EMPIRICAL_PASS":
                ok = False
                for v in alt.violations[:5]:
                    print(f"  conjecture2 part{part} s{s} k{k} (alternating): "
                          f"value {v.lhs} at n={v.n}")
            literal = by_reading["literal"]
            if literal.status != "EMPIRICAL_PASS":
                first = literal.violations[0]
                print(f"  conjecture2 part{part} s{s} k{k} literal reading: "
                      f"{len(literal.violations)} violations, first value "
                      f"{first.lhs} at n={first.n} (displayed-formula reading; "
                      f"surfaced, not gating)")
    c.finish(ok)


def test_11_telescoping_consistency():
    c = Criterion(11, "consecutive difference series telescope by "
                      "2(-1)^(k+1) q^(2(k+1)^2) times the regime sum, N = 500")
    order = 500
    ok = True
    for part, s in ALL_INSTANCES:
        regime = (regime3_sum if part == 1 else regime4_sum)(s, order)
        for k in range(1, 8):
            delta = conjecture1_difference(part, s, k + 1, order) - \
                conjecture1_difference(part, s, k, order)
            expected = regime.shift(2 * (k + 1) ** 2).scale(2 * (-1) ** (k + 1))
            ok = ok and delta == expected
    c.finish(ok)
