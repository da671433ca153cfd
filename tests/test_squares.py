"""Square detection, progression index sets, and the exponent-set
equivalences behind the congruence theorems."""

from __future__ import annotations

import math
import random
import re

import pytest

from hexparity.checks import verify_set_equivalence
from hexparity.squares import (
    SquareProgression,
    index_set,
    indicator_series,
    multiplicity_map,
)
from hexparity.theta import (
    NegativeExponent,
    QuadraticExponentFamily,
    bilateral_sum,
    decomposition_families,
    rho_families,
)

from oracles import holds, is_square


def test_is_square_examples():
    assert is_square(0)
    assert is_square(1)
    assert is_square(121)
    assert not is_square(241)
    assert not is_square(-4)


def test_is_square_randomized():
    rng = random.Random(5)
    for _ in range(300):
        v = rng.randint(0, 10**12)
        assert is_square(v) == (math.isqrt(v) ** 2 == v)
        r = rng.randint(0, 10**6)
        assert is_square(r * r)


def test_indicator_examples():
    ind = indicator_series(SquareProgression(120, 1), 5)
    assert ind.coefficient(0) == 1  # 1 = 1^2
    assert ind.coefficient(1) == 1  # 121 = 11^2
    assert ind.coefficient(2) == 0  # 241 is not a square
    assert indicator_series(SquareProgression(40, 1), 3).coefficient(0) == 1
    assert indicator_series(SquareProgression(7, 9), 3).coefficient(0) == 1


def test_indicator_is_zero_one():
    ind = indicator_series(SquareProgression(20, 1), 500)
    assert set(ind.coeffs) <= {0, 1}


def test_index_set_examples():
    assert index_set(SquareProgression(20, 1), 25) == [0, 4, 6, 18, 22]
    assert 0 in index_set(SquareProgression(15, 1), 10)
    assert index_set(SquareProgression(40, 9), 0) == [0]


def test_index_set_matches_brute_force_scan():
    # c = 0, c a square and c not a square; (3, 7) has r^2 - c divisible
    # by a at r = 1, below sqrt(c)
    for prog in (SquareProgression(20, 1), SquareProgression(40, 9), SquareProgression(15, 4),
                 SquareProgression(7, 3), SquareProgression(5, 0), SquareProgression(6, 3),
                 SquareProgression(11, 5), SquareProgression(3, 7)):
        for n_max in range(301):
            assert index_set(prog, n_max) == [k for k in range(n_max + 1) if holds(prog, k)], \
                (prog, n_max)
    assert index_set(SquareProgression(20, 1), -1) == []


def test_index_set_matches_indicator():
    for prog in (SquareProgression(120, 1), SquareProgression(15, 4),
                 SquareProgression(6, 1)):
        ind = indicator_series(prog, 400)
        ks = index_set(prog, 400)
        assert [n for n in range(401) if ind.coefficient(n) == 1] == ks
        # definition-level cross-check
        assert ks == [n for n in range(401) if is_square(prog.a * n + prog.c)]


def test_exponent_values_examples():
    # the values a family hits, read off multiplicity_map's keys
    assert sorted(multiplicity_map(decomposition_families(2), 25)) == [0, 4, 6, 18, 22]
    assert sorted(multiplicity_map([QuadraticExponentFamily(1, 0, 0)], 10)) == [0, 1, 4, 9]
    assert sorted(multiplicity_map(decomposition_families(4), 0)) == [0]


EQUIVALENCE_INSTANCES = [
    ("mod120", 2, rho_families(2), SquareProgression(120, 1)),
    ("mod120", 4, rho_families(4), SquareProgression(120, 49)),
    ("mod40", 1, rho_families(1), SquareProgression(40, 1)),
    ("mod40", 3, rho_families(3), SquareProgression(40, 9)),
    ("mod20", 2, decomposition_families(2), SquareProgression(20, 1)),
    ("mod20", 4, decomposition_families(4), SquareProgression(20, 9)),
    ("mod15", 1, decomposition_families(1), SquareProgression(15, 1)),
    ("mod15", 3, decomposition_families(3), SquareProgression(15, 4)),
]


def test_set_equivalences_at_desk_bound():
    for name, s, fams, prog in EQUIVALENCE_INSTANCES:
        report = verify_set_equivalence(fams, prog, 10_000, f"eq.{name}.s{s}")
        assert report.status == "PASS", (name, s, report.violations[:3])
        assert report.details["multiplicity_histogram"] == {
            "1": report.details["values_hit"]
        }
        assert report.details["collisions"] == []


def test_set_equivalence_reports_disagreement():
    # wrong progression: must FAIL with the mismatching values listed
    fams = decomposition_families(2)
    report = verify_set_equivalence(fams, SquareProgression(20, 9), 100, "eq.bad")
    assert report.status == "FAIL"
    assert report.violations


def test_multiplicity_map_counts_pairs():
    fam = QuadraticExponentFamily(1, 0, 0)  # k^2 hits twice for k != 0
    hits = multiplicity_map([fam], 30)
    assert hits[0] == 1
    assert hits[1] == 2
    assert hits[25] == 2


def test_index_set_matches_definition_for_every_small_modulus():
    # the residue-class enumeration against the definition, k <= n_max with
    # a*k + c a square, for every a <= 200, c = 0, 1, 4, 9 and a + 1 (the
    # residue classes of c = 1, without the roots below sqrt(a + 1)) and
    # n_max = -1, 0, 1 and 500
    for a in range(1, 201):
        for c in (0, 1, 4, 9, a + 1):
            prog = SquareProgression(a, c)
            brute = [k for k in range(501) if is_square(a * k + c)]
            for n_max in (-1, 0, 1, 500):
                assert index_set(prog, n_max) == [k for k in brute if k <= n_max], \
                    (a, c, n_max)


def set_equivalence_oracle(families, prog, bound):
    """(violations, histogram, collisions) by an exhaustive k window and a
    scan of every value up to bound, the way the report defines them."""
    hits = {}
    for f in families:
        for k in range(-bound - 10, bound + 11):
            e = f.exponent(k)
            if 0 <= e <= bound:
                hits[e] = hits.get(e, 0) + 1
    expected = {n for n in range(bound + 1) if holds(prog, n)}
    violations = [(v, hits.get(v, 0), int(v in expected)) for v in range(bound + 1)
                  if hits.get(v, 0) != int(v in expected)]
    histogram = {}
    for m in hits.values():
        histogram[str(m)] = histogram.get(str(m), 0) + 1
    return violations, histogram, sorted(v for v, m in hits.items() if m > 1)


def test_set_equivalence_failures_report_every_value():
    # collisions (a family twice, k^2 hit from +-k, two families landing on
    # one value) and missing values (one of two families dropped, a wrong
    # progression): the report's violations, histogram and collisions
    # against the oracle's
    square = QuadraticExponentFamily(1, 0, 0)
    cases = [
        (rho_families(2) * 2, SquareProgression(120, 1)),
        (rho_families(2)[:1], SquareProgression(120, 1)),
        ([square], SquareProgression(1, 0)),
        (decomposition_families(2), SquareProgression(20, 9)),
        (decomposition_families(2) + decomposition_families(4), SquareProgression(20, 1)),
        (decomposition_families(1), SquareProgression(15, 1)),
    ]
    for families, prog in cases:
        for bound in (0, 1, 40, 300):
            report = verify_set_equivalence(families, prog, bound)
            violations, histogram, collisions = set_equivalence_oracle(families, prog, bound)
            assert [(v.n, v.lhs, v.rhs) for v in report.violations] == violations
            assert report.details["multiplicity_histogram"] == histogram
            assert report.details["collisions"] == collisions
            assert report.details["values_hit"] == sum(histogram.values())
            assert report.status == ("FAIL" if violations else "PASS")
    # the last case is a true equivalence, the others fail at bound 300
    assert [verify_set_equivalence(f, p, 300).status for f, p in cases].count("PASS") == 1
    # a family with a value below 0 raises at every bound, with one message
    # from bilateral_sum, multiplicity_map and verify_set_equivalence:
    # k(k-5) (e(1..4) < 0), pentagonal minus 1 (e(0) = -1), whose values at
    # or above 0 alone would pass against 24n + 25, k^2 - 4 (least at the
    # vertex), k(k+7) (least at k = -3 and -4, left of 0) and a signed
    # family over den 2, least at k = 0
    negative = [
        (QuadraticExponentFamily(1, -5, 0), SquareProgression(3, 1), -6),
        (QuadraticExponentFamily(3, -1, -2, den=2), SquareProgression(24, 25), -1),
        (QuadraticExponentFamily(1, 0, -4), SquareProgression(1, 4), -4),
        (QuadraticExponentFamily(1, 7, 0), SquareProgression(4, 49), -12),
        (QuadraticExponentFamily(5, -1, -2, s2=1, s1=1, den=2), SquareProgression(40, 1), -1),
    ]
    for family, prog, low in negative:
        message = f"^{re.escape(repr(family))} takes the value {low} < 0$"
        for bound in (0, 1, 40, 10**4):
            for call in (lambda: bilateral_sum([family], bound),
                         lambda: multiplicity_map([family], bound),
                         lambda: verify_set_equivalence([family], prog, bound),
                         lambda: verify_set_equivalence([square, family], prog, bound)):
                with pytest.raises(NegativeExponent, match=message):
                    call()
