"""Squares in arithmetic progressions and exponent-set equivalences.

The congruence theorems identify {n : a*n + c is a perfect square} with the
value sets of explicit integer quadratics.  This module builds index sets
(exactly, by integer square roots) and indicator series, and
machine-checks those set equivalences with multiplicity tracking: the
mod-2 reading of the theorems needs every qualifying value to be hit by
exactly one (family, k) pair, so collisions are part of the report.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .report import Stopwatch, Violation, proved_report
from .series import TruncatedSeries, require_order
from .theta import NegativeExponent


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


def index_set(p: SquareProgression, n_max: int) -> list[int]:
    """Sorted list of all k <= n_max with a*k + c a perfect square.

    Enumerates only the square roots r with c <= r^2 <= a*n_max + c in
    the residue classes r0 mod a with r0^2 = c (mod a), instead of
    scanning all k or all r; the classes are found among the r0 below
    both a and the largest root.  k = (r^2 - c)/a rises strictly with
    r >= 0, so sorting the roots' k gives the list without repeats.
    """
    if n_max < 0:
        return []
    a, c = p.a, p.c
    top = math.isqrt(a * n_max + c)
    low = math.isqrt(c - 1) + 1 if c else 0  # the least r with r^2 >= c
    return sorted((r * r - c) // a for r0 in range(min(a, top + 1))
                  if (r0 * r0 - c) % a == 0
                  for r in range(low + (r0 - low) % a, top + 1, a))


def indicator_series(p: SquareProgression, order: int) -> TruncatedSeries:
    """Coefficient of q^n is 1 when a*n + c is a square, else 0."""
    out = [0] * (require_order(order) + 1)
    for k in index_set(p, order):
        out[k] = 1
    return TruncatedSeries(tuple(out))


def multiplicity_map(families, bound: int) -> dict[int, int]:
    """How many (family, k) pairs land on each value in [0, bound]; a
    value below 0 raises NegativeExponent, as in bilateral_sum."""
    hits: Counter[int] = Counter()
    for f in families:
        values = list(map(f.exponent, f.indices_within(bound)))
        if min(values, default=0) < 0:
            raise NegativeExponent(f"{f} takes the value {min(values)} < 0")
        hits.update(values)
    return hits


def verify_set_equivalence(families, p: SquareProgression, bound: int,
                           check_id: str = "set_equivalence"):
    """Check that the union of family values equals the progression's
    index set, every value being hit exactly once.

    Disagreements are reported, not raised: the report lists, in
    increasing order, each value hit other than exactly once or seen by
    only one side, and all multiplicity collisions.
    """
    require_order(bound, "bound")
    watch = Stopwatch()
    families = list(families)
    hits = multiplicity_map(families, bound)
    expected = set(index_set(p, bound))
    collisions = sorted(v for v, m in hits.items() if m > 1)
    bad = sorted(hits.keys() ^ expected | set(collisions))
    violations = [Violation(v, hits.get(v, 0), 1 if v in expected else 0) for v in bad]
    histogram = {str(m): n for m, n in Counter(hits.values()).items()}
    details = {
        "bound": bound,
        "values_hit": len(hits),
        "multiplicity_histogram": histogram,
        "collisions": collisions,
    }
    params = {"a": p.a, "c": p.c, "bound": bound, "families": len(families)}
    return proved_report(check_id, params, violations, watch.elapsed_ms(), details)
