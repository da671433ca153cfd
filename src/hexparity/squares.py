"""Squares in arithmetic progressions and exponent-set equivalences.

The congruence theorems identify {n : a*n + c is a perfect square} with the
value sets of explicit integer quadratics.  This module detects squares
exactly (integer square root only), builds indicator series and index sets,
and machine-checks those set equivalences with multiplicity tracking: the
mod-2 reading of the theorems needs every qualifying value to be hit by
exactly one (family, k) pair, so collisions are part of the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .report import Stopwatch, Violation, proved_report
from .series import TruncatedSeries, require_order
from .theta import QuadraticExponentFamily


def is_square(v: int) -> bool:
    """Exact perfect-square test via integer square root."""
    if v < 0:
        return False
    r = math.isqrt(v)
    return r * r == v


@dataclass(frozen=True)
class SquareProgression:
    """The condition 'a*n + c is a perfect square'."""

    a: int
    c: int

    def __post_init__(self) -> None:
        if self.a < 1:
            raise ValueError("modulus multiplier must be positive")
        if self.c < 0:
            raise ValueError("offset must be nonnegative")

    def holds(self, n: int) -> bool:
        return is_square(self.a * n + self.c)


def index_set(p: SquareProgression, n_max: int) -> list[int]:
    """Sorted list of all k <= n_max with a*k + c a perfect square.

    Enumerates square roots r <= sqrt(a*n_max + c) instead of scanning all
    k, so bounds around 10^6 stay cheap.
    """
    if n_max < 0:
        return []
    found = set()
    r_max = math.isqrt(p.a * n_max + p.c)
    for r in range(r_max + 1):
        num = r * r - p.c
        if num < 0:
            continue
        if num % p.a == 0:
            found.add(num // p.a)
    return sorted(found)


def indicator_series(p: SquareProgression, order: int) -> TruncatedSeries:
    """Coefficient of q^n is 1 when a*n + c is a square, else 0."""
    out = [0] * (order + 1)
    for k in index_set(p, order):
        out[k] = 1
    return TruncatedSeries(tuple(out))


def indicator_bits(p: SquareProgression, order: int) -> int:
    """The indicator packed as an int, for parity-path comparisons."""
    bits = 0
    for k in index_set(p, order):
        bits |= 1 << k
    return bits


def exponent_values(f: QuadraticExponentFamily, bound: int) -> list[int]:
    """Sorted set {e(k) : k in Z, 0 <= e(k) <= bound}."""
    return sorted({f.exponent(k) for k in f.indices_within(bound)
                   if f.exponent(k) >= 0})


def multiplicity_map(families, bound: int) -> dict[int, int]:
    """How many (family, k) pairs land on each value in [0, bound]."""
    hits: dict[int, int] = {}
    for f in families:
        for k in f.indices_within(bound):
            e = f.exponent(k)
            if 0 <= e <= bound:
                hits[e] = hits.get(e, 0) + 1
    return hits


def verify_set_equivalence(families, p: SquareProgression, bound: int,
                           check_id: str = "set_equivalence"):
    """Check that the union of family values equals the progression's
    index set, every value being hit exactly once.

    Disagreements are reported, not raised: the report lists values seen by
    only one side and all multiplicity collisions.
    """
    require_order(bound, "bound")
    watch = Stopwatch()
    families = list(families)
    hits = multiplicity_map(families, bound)
    expected = index_set(p, bound)
    expected_set = set(expected)

    violations = []
    for v in sorted(set(hits) | expected_set):
        left = hits.get(v, 0)
        right = 1 if v in expected_set else 0
        if left != right:
            violations.append(Violation(v, left, right))

    collisions = sorted(v for v, m in hits.items() if m > 1)
    histogram: dict[str, int] = {}
    for m in hits.values():
        histogram[str(m)] = histogram.get(str(m), 0) + 1
    details = {
        "bound": bound,
        "values_hit": len(hits),
        "multiplicity_histogram": histogram,
        "collisions": collisions,
    }
    params = {"a": p.a, "c": p.c, "bound": bound, "families": len(families)}
    return proved_report(check_id, params, violations, watch.elapsed_ms(), details)
