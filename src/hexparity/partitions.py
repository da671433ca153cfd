"""Partition counting by independent routes.

p(n) comes from the pentagonal-number recurrence, with exhaustive
enumeration of nonincreasing summand sequences as the test oracle.  The
hard-hexagon counts R_s(n) (regime III, s in {2,4}) and R*_s(n) (regime IV,
s in {1,3}) are computed three ways: dynamic programming over the allowed
parts, expansion of the product generating function, and bilateral
decompositions into shifted p(n) values.  All three must agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import islice
from operator import add

from .series import (
    TruncatedSeries,
    _divide_by_euler,
    pochhammer_quotient,
    require_order,
)
from .theta import _require_s, bilateral_sum, decomposition_families, part_of, r_factors

REGIME_III = "regime3"
REGIME_IV = "regime4"

ORACLE_BOUND = 60


class OracleBoundExceeded(ValueError):
    """Brute-force enumeration is capped to keep runtimes sane."""


class TableTooSmall(ValueError):
    """A check or route needs counts beyond the supplied table."""


@dataclass(frozen=True)
class PartResidueRule:
    """Allowed-part predicate for one value of s, whose regime is kind.

    Regime III (s in {2,4}): parts odd or congruent to +-s mod 10.
    Regime IV (s in {1,3}): parts not congruent to 0 or +-s mod 10 and not
    congruent to +-(10-2s) mod 20.

    Both predicates are read off the product generating functions, which is
    what makes the DP, product, and decomposition routes agree.
    """

    s: int

    def __post_init__(self) -> None:
        _require_s(self.s, 1, 2)

    @property
    def kind(self) -> str:
        """The regime of s: III for s in {2, 4}, IV for s in {1, 3}."""
        return REGIME_III if part_of(self.s) == 1 else REGIME_IV

    def allows(self, part: int) -> bool:
        if part < 1:
            return False
        s = self.s
        if self.kind == REGIME_III:
            return part % 2 == 1 or part % 10 in (s, 10 - s)
        return part % 10 not in (0, s, 10 - s) and part % 20 not in (
            10 - 2 * s,
            10 + 2 * s,
        )

    def allowed_parts(self, limit: int) -> list[int]:
        """The allowed parts 1..limit, increasing.  Both predicates depend
        only on the part mod 20, so allows is asked once per residue."""
        return sorted(m for r in range(1, 21) if self.allows(r)
                      for m in range(r, limit + 1, 20))


def regime3_rule(s: int) -> PartResidueRule:
    _require_s(s, 1)
    return PartResidueRule(s)


def regime4_rule(s: int) -> PartResidueRule:
    _require_s(s, 2)
    return PartResidueRule(s)


@dataclass(frozen=True)
class PartitionTable:
    """values[n] = partition count for n = 0..n_max (values[0] is 1).

    rule is the part rule the counts obey, None for the unrestricted p(n),
    so a check handed a table can tell whether it counts what it needs.
    """

    n_max: int
    values: tuple[int, ...]
    rule: PartResidueRule | None = None

    def __post_init__(self) -> None:
        if len(self.values) != self.n_max + 1:
            raise ValueError("table length must be n_max + 1")

    def __getitem__(self, n: int) -> int:
        return self.values[n]

    @cached_property
    def parity_bits(self) -> int:
        """The values mod 2 as one packed int, value n at bit n; reduced
        once per table, however many scans read it."""
        return TruncatedSeries(self.values).reduce_mod2().bits

    def require(self, rule: PartResidueRule | None, order: int) -> None:
        """A table handed to a check or route must count what it needs,
        rule (None for p(n)), up to order."""
        if self.rule != rule:
            raise ValueError(f"table counts {self.rule or 'p(n)'}, need {rule or 'p(n)'}")
        if self.n_max < order:
            raise TableTooSmall(f"table stops at {self.n_max}, need {order}")


def p_table(n_max: int) -> PartitionTable:
    """p(0..n_max): [1, 0, ...] divided by (q;q)oo.

    The division runs the pentagonal-number recurrence
    p(n) = sum_{k>=1} (-1)^(k-1) * (p(n - k(3k-1)/2) + p(n - k(3k+1)/2))
    as one pass per gap between pentagonal numbers (series._divide_by_euler,
    the kernel behind every partition-type product).
    """
    values = [0] * (require_order(n_max, "n_max") + 1)
    values[0] = 1
    _divide_by_euler(values, 1, 1)
    return PartitionTable(n_max, tuple(values))


def p_bruteforce(n: int) -> int:
    """Count partitions by enumerating nonincreasing summand sequences."""
    if n < 0:
        return 0
    if n > ORACLE_BOUND:
        raise OracleBoundExceeded(f"enumeration capped at n <= {ORACLE_BOUND}")

    @cache  # one cache per call, dropped with it
    def count(remaining: int, largest: int) -> int:
        if remaining == 0:
            return 1
        total = 0
        for part in range(min(largest, remaining), 0, -1):
            total += count(remaining - part, part)
        return total

    return count(n, n)


def count_restricted(rule: PartResidueRule, n_max: int) -> PartitionTable:
    """Restricted partition counts by unbounded-knapsack DP.

    Admitting a part m divides by (1 - q^m): out[i] = values[i] + out[i - m].
    Parts are admitted largest first, so before m every admitted part
    exceeds m and values[1..m] are 0.  Then out[m] = 1, out[i] = values[i]
    for m < i < 2m, and the lagged pass runs only from 2m on, in place: the
    tail from 2m is cut off and appended back with its lag, an iterator over
    values that reads out[i - m] when out[i] is appended (for 2m > n_max the
    tail is empty).  The DP never reaches the division kernel behind r_gf
    and p_table.
    """
    values = [0] * (require_order(n_max, "n_max") + 1)
    values[0] = 1
    for part in rule.allowed_parts(n_max)[::-1]:
        values[part] = 1
        tail = values[2 * part:]
        del values[2 * part:]
        values.extend(map(add, tail, islice(values, part, None)))
    return PartitionTable(n_max, tuple(values), rule)


def r_gf(rule: PartResidueRule, order: int) -> TruncatedSeries:
    """Generating-function route for the restricted counts: the product
    theta.r_factors(rule.s)."""
    return pochhammer_quotient(*r_factors(rule.s), order)


def r_decomposed(rule: PartResidueRule, order: int, p: PartitionTable) -> TruncatedSeries:
    """Decomposition route: the restricted counts to `order` as one product
    of the families' bilateral theta series with the p(n) table."""
    p.require(None, order)
    theta = bilateral_sum(decomposition_families(rule.s), order)
    return theta * TruncatedSeries(p.values[: order + 1])


def r_s_decomposed(s: int, n: int, p: PartitionTable) -> int:
    """R_s(n) = sum_k (-1)^k p(n - k(5k+1-s)), s in {2, 4}."""
    return r_decomposed(regime3_rule(s), n, p).coeffs[n]


def r_star_decomposed(s: int, n: int, p: PartitionTable) -> int:
    """R*_s(n) = sum_k (p(n - (15k^2-(5-3s)k)) - p(n - (15k^2+(5+3s)k+s)))."""
    return r_decomposed(regime4_rule(s), n, p).coeffs[n]
