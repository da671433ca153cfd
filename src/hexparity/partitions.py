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

from .series import TruncatedSeries, pochhammer_quotient, require_order
from .theta import (
    bilateral_sum,
    r_decomposition_family,
    regime3_denominators,
    regime4_factors,
    rstar_families,
)

REGIME_III = "regime3"
REGIME_IV = "regime4"

ORACLE_BOUND = 60


class OracleBoundExceeded(ValueError):
    """Brute-force enumeration is capped to keep runtimes sane."""


class TableTooSmall(ValueError):
    """A decomposition needs p(n) values beyond the supplied table."""


@dataclass(frozen=True)
class PartResidueRule:
    """Allowed-part predicate for one regime and one value of s.

    Regime III (s in {2,4}): parts odd or congruent to +-s mod 10.
    Regime IV (s in {1,3}): parts not congruent to 0 or +-s mod 10 and not
    congruent to +-(10-2s) mod 20.

    Both predicates are read off the product generating functions, which is
    what makes the DP, product, and decomposition routes agree.
    """

    kind: str
    s: int

    def __post_init__(self) -> None:
        if self.kind == REGIME_III:
            if self.s not in (2, 4):
                raise ValueError("regime III requires s in {2, 4}")
        elif self.kind == REGIME_IV:
            if self.s not in (1, 3):
                raise ValueError("regime IV requires s in {1, 3}")
        else:
            raise ValueError(f"unknown rule kind {self.kind!r}")

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
        return [m for m in range(1, limit + 1) if self.allows(m)]


def regime3_rule(s: int) -> PartResidueRule:
    return PartResidueRule(REGIME_III, s)


def regime4_rule(s: int) -> PartResidueRule:
    return PartResidueRule(REGIME_IV, s)


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

    def value_or_zero(self, n: int) -> int:
        """Table lookup with the convention that counts vanish for n < 0."""
        if n < 0:
            return 0
        if n > self.n_max:
            raise TableTooSmall(f"need value at {n}, table stops at {self.n_max}")
        return self.values[n]


def p_table(n_max: int) -> PartitionTable:
    """p(0..n_max) by the pentagonal-number recurrence.

    p(n) = sum_{k>=1} (-1)^(k-1) * (p(n - k(3k-1)/2) + p(n - k(3k+1)/2)).
    """
    values = [0] * (require_order(n_max, "n_max") + 1)
    values[0] = 1
    for n in range(1, n_max + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > n:
                break
            sign = 1 if k % 2 == 1 else -1
            total += sign * values[n - g1]
            g2 = k * (3 * k + 1) // 2
            if g2 <= n:
                total += sign * values[n - g2]
            k += 1
        values[n] = total
    return PartitionTable(n_max, tuple(values))


def p_bruteforce(n: int) -> int:
    """Count partitions by enumerating nonincreasing summand sequences."""
    if n < 0:
        return 0
    if n > ORACLE_BOUND:
        raise OracleBoundExceeded(f"enumeration capped at n <= {ORACLE_BOUND}")

    def count(remaining: int, largest: int) -> int:
        if remaining == 0:
            return 1
        total = 0
        for part in range(min(largest, remaining), 0, -1):
            total += count(remaining - part, part)
        return total

    return count(n, n)


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


def count_restricted(rule: PartResidueRule, n_max: int) -> PartitionTable:
    """Restricted partition counts by unbounded-knapsack DP."""
    values = [0] * (require_order(n_max, "n_max") + 1)
    values[0] = 1
    for part in rule.allowed_parts(n_max):
        for i in range(part, n_max + 1):
            values[i] += values[i - part]
    return PartitionTable(n_max, tuple(values), rule)


def r_gf(rule: PartResidueRule, order: int) -> TruncatedSeries:
    """Generating-function route for the restricted counts.

    Regime III: 1 / ((q;q^2)oo (q^s, q^(10-s); q^10)oo).
    Regime IV:  (q^s, q^(10-s), q^10; q^10)oo (q^(10-2s), q^(10+2s); q^20)oo
                / (q;q)oo.
    """
    if rule.kind == REGIME_III:
        return pochhammer_quotient([], regime3_denominators(rule.s), order)
    return pochhammer_quotient(*regime4_factors(rule.s), order)


def decomposition_families(rule: PartResidueRule):
    """The theta families whose series times sum p(n) q^n generates the
    restricted counts: k(5k+1-s) with sign (-1)^k for regime III, the two
    R*_s families for regime IV."""
    if rule.kind == REGIME_III:
        return [r_decomposition_family(rule.s)]
    return rstar_families(rule.s)


def r_decomposed(rule: PartResidueRule, order: int, p: PartitionTable) -> TruncatedSeries:
    """Decomposition route: the restricted counts to `order` as one product
    of the families' bilateral theta series with the p(n) table."""
    if p.rule is not None:
        raise ValueError(f"decomposition needs a p(n) table, got counts for {p.rule}")
    if p.n_max < order:
        raise TableTooSmall(f"table stops at {p.n_max}, need {order}")
    theta = bilateral_sum(decomposition_families(rule), order)
    return theta * TruncatedSeries(p.values[: order + 1])


def r_s_decomposed(s: int, n: int, p: PartitionTable) -> int:
    """R_s(n) = sum_k (-1)^k p(n - k(5k+1-s)), s in {2, 4}."""
    return r_decomposed(regime3_rule(s), n, p).coeffs[n]


def r_star_decomposed(s: int, n: int, p: PartitionTable) -> int:
    """R*_s(n) = sum_k (p(n - (15k^2-(5-3s)k)) - p(n - (15k^2+(5+3s)k+s)))."""
    return r_decomposed(regime4_rule(s), n, p).coeffs[n]
