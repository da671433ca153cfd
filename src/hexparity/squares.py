"""Squares in arithmetic progressions and the values of exponent families.

The congruence theorems identify {n : a*n + c is a perfect square} with the
value sets of explicit integer quadratics.  This module builds index sets
(exactly, by integer square roots) and indicator series, and counts how
many (family, k) pairs land on each value: the mod-2 reading of the
theorems needs every qualifying value hit exactly once, which
checks.verify_set_equivalence reports.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .series import TruncatedSeries, require_order


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
    family with a value below 0 raises NegativeExponent."""
    hits: Counter[int] = Counter()
    for f in families:
        hits.update(e for _, e in f.exponents_within(bound))
    return hits
