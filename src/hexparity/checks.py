"""All theorem-, corollary-, identity-, and conjecture-level checks.

Each check is a pure function over immutable inputs returning a
CheckReport.  Proved statements get PASS/FAIL (a FAIL means a bug here,
not new mathematics); conjecture scans get EMPIRICAL_PASS or
EMPIRICAL_COUNTEREXAMPLE with every violation recorded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .partitions import (
    PartResidueRule,
    PartitionTable,
    count_restricted,
    decomposition_families,
    p_table,
    r_decomposed,
    r_gf,
    regime3_rule,
    regime4_rule,
)
from .report import CheckReport, Stopwatch, Violation, empirical_report, proved_report
from .series import TruncatedSeries, require_order
from .squares import SquareProgression, index_set, indicator_bits, verify_set_equivalence
from .theta import (
    bilateral_sum,
    eq41_families,
    eq42_family,
    even_binomial_ratio,
    gauss_error_tail,
    gauss_theta_sides,
    partial_theta,
    regime3_product,
    regime3_sum,
    regime3_sum_parity,
    regime4_product,
    regime4_sum,
    regime4_sum_parity,
    truncated_gauss_lhs,
    truncated_gauss_rhs,
)

# the seven (a, b) pairs for which the square-progression parity statement
# is asserted to hold
S_PAIRS = ((6, 8), (8, 12), (12, 24), (15, 40), (16, 48), (20, 120), (21, 168))

# default truncation orders: proved statements on the big-integer path,
# parity-only runs, conjecture scans
DEFAULT_ORDER_PROVED = 2000
DEFAULT_ORDER_PARITY = 100_000
DEFAULT_ORDER_CONJECTURE = 500
DEFAULT_ORDER_IDENTITY = 300
DEFAULT_BOUND_SET_EQUIVALENCE = 10**6


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def theorem1_progression(part: int, s: int) -> SquareProgression:
    if part == 1:
        return SquareProgression(120, (3 * s - 5) ** 2)
    return SquareProgression(40, s * s)


def corollary2_progression(part: int, s: int) -> SquareProgression:
    if part == 1:
        return SquareProgression(20, (s - 1) ** 2)
    return SquareProgression(15, (s + 1) ** 2 // 4)


def _validate_part_s(part: int, s: int) -> None:
    _require(part in (1, 2), "part must be 1 or 2")
    if part == 1:
        _require(s in (2, 4), "part 1 requires s in {2, 4}")
    else:
        _require(s in (1, 3), "part 2 requires s in {1, 3}")


def _rule(s: int) -> PartResidueRule:
    """The part rule of s: regime III for s in {2, 4}, regime IV otherwise."""
    return regime3_rule(s) if s in (2, 4) else regime4_rule(s)


def _require_table(table: PartitionTable, rule: PartResidueRule | None,
                   order: int) -> None:
    """A supplied table must count what the check needs, up to its order."""
    _require(table.rule == rule,
             f"table counts {table.rule or 'p(n)'}, this check needs {rule or 'p(n)'}")
    _require(table.n_max >= order, "table shorter than requested order")


def _rho_families(part: int, s: int):
    return eq41_families(s) if part == 1 else [eq42_family(s)]


def rho_series(part: int, s: int, order: int) -> TruncatedSeries:
    """Coefficients of the bilateral theta series subtracted in the
    identities; operational definition of the conjectures' correction term.
    """
    _validate_part_s(part, s)
    return bilateral_sum(_rho_families(part, s), order)


def check_theorem1(part: int, s: int, order: int | None = None,
                   use_parity_fastpath: bool = False,
                   collect_all: bool = True):
    """Regime sum reduced mod 2 versus the square-progression indicator."""
    _validate_part_s(part, s)
    if order is None:
        order = DEFAULT_ORDER_PARITY if use_parity_fastpath else DEFAULT_ORDER_PROVED
    watch = Stopwatch()
    if use_parity_fastpath:
        lhs = (regime3_sum_parity if part == 1 else regime4_sum_parity)(s, order)
    else:
        lhs = (regime3_sum if part == 1 else regime4_sum)(s, order).reduce_mod2()
    rhs_bits = indicator_bits(theorem1_progression(part, s), order)

    violations = []
    diff = lhs.bits ^ rhs_bits
    while diff:
        low = diff & -diff
        n = low.bit_length() - 1
        violations.append(Violation(n, lhs.bit(n), (rhs_bits >> n) & 1))
        diff ^= low
        if not collect_all:
            break
    return proved_report(
        f"theorem1.part{part}.s{s}",
        {"part": part, "s": s, "order": order,
         "path": "parity" if use_parity_fastpath else "bigint"},
        violations,
        watch.elapsed_ms(),
    )


def _parity_sum_violations(p: PartitionTable, ks: list[int],
                           target: SquareProgression, order: int,
                           collect_all: bool) -> list[Violation]:
    """Points n <= order where the parity of sum_{k in ks} p(n-k) is not
    the truth of target at n (ks sorted)."""
    parity = [v & 1 for v in p.values[: order + 1]]
    violations = []
    for n in range(order + 1):
        acc = 0
        for k in ks:
            if k > n:
                break
            acc ^= parity[n - k]
        want = 1 if target.holds(n) else 0
        if acc != want:
            violations.append(Violation(n, acc, want))
            if not collect_all:
                break
    return violations


def check_corollary2(part: int, s: int, order: int | None = None,
                     collect_all: bool = True,
                     p: PartitionTable | None = None):
    """Pointwise iff: the partition-sum parity is odd exactly when the
    associated progression value is a perfect square."""
    _validate_part_s(part, s)
    if order is None:
        order = DEFAULT_ORDER_PROVED
    watch = Stopwatch()
    if p is None:
        p = p_table(order)
    _require_table(p, None, order)
    ks = index_set(corollary2_progression(part, s), order)
    violations = _parity_sum_violations(p, ks, theorem1_progression(part, s),
                                        order, collect_all)
    return proved_report(
        f"corollary2.part{part}.s{s}",
        {"part": part, "s": s, "order": order},
        violations,
        watch.elapsed_ms(),
    )


def check_s_pair(a: int, b: int, order: int | None = None,
                 collect_all: bool = True,
                 p: PartitionTable | None = None):
    """Empirical scan of: sum of p(n-k) over {a*k+1 square} is odd iff
    b*n+1 is a square.  Proved for some pairs, conjecturally sharp for the
    S set; controls outside S are expected to fail and the first violating
    n is recorded."""
    _require(a >= 1 and b >= 1, "a and b must be positive")
    if order is None:
        order = DEFAULT_ORDER_CONJECTURE
    watch = Stopwatch()
    if p is None:
        p = p_table(order)
    _require_table(p, None, order)
    ks = index_set(SquareProgression(a, 1), order)
    violations = _parity_sum_violations(p, ks, SquareProgression(b, 1), order,
                                        collect_all)
    return empirical_report(
        f"spair.a{a}.b{b}",
        {"a": a, "b": b, "order": order, "in_s_set": (a, b) in S_PAIRS},
        violations,
        watch.elapsed_ms(),
    )


def _compare_series(check_id: str, params: dict, lhs: TruncatedSeries,
                    rhs: TruncatedSeries, watch: Stopwatch,
                    collect_all: bool = True, details: dict | None = None):
    violations = []
    n = min(lhs.order, rhs.order)
    for i in range(n + 1):
        if lhs.coeffs[i] != rhs.coeffs[i]:
            violations.append(Violation(i, lhs.coeffs[i], rhs.coeffs[i]))
            if not collect_all:
                break
    return proved_report(check_id, params, violations, watch.elapsed_ms(), details)


def check_rogers(s: int, order: int | None = None, collect_all: bool = True):
    """Regime sum against its product side: regime III for s in {2, 4},
    regime IV for s in {1, 3}."""
    if order is None:
        order = DEFAULT_ORDER_IDENTITY
    watch = Stopwatch()
    if s in (2, 4):
        kind, lhs, rhs = "regime3", regime3_sum(s, order), regime3_product(s, order)
    else:
        kind, lhs, rhs = "regime4", regime4_sum(s, order), regime4_product(s, order)
    return _compare_series(f"rogers.{kind}.s{s}", {"s": s, "order": order},
                           lhs, rhs, watch, collect_all)


def check_gauss(order: int | None = None, collect_all: bool = True):
    """The Gauss theta identity: theta sum against (q;q)oo/(-q;q)oo."""
    if order is None:
        order = DEFAULT_ORDER_PROVED
    watch = Stopwatch()
    lhs, rhs = gauss_theta_sides(order)
    return _compare_series("gauss.theta", {"order": order}, lhs, rhs, watch,
                           collect_all)


def check_truncated_gauss(k: int, order: int | None = None,
                          collect_all: bool = True):
    """The truncated Gauss identity at truncation index k >= 1."""
    _require(k >= 1, "k must be >= 1")
    if order is None:
        order = DEFAULT_ORDER_IDENTITY
    watch = Stopwatch()
    lhs, rhs = truncated_gauss_lhs(k, order), truncated_gauss_rhs(k, order)
    return _compare_series(f"truncated_gauss.k{k}", {"k": k, "order": order},
                           lhs, rhs, watch, collect_all)


def check_set_equivalence(s: int, statement: str, bound: int | None = None):
    """The exponent set behind theorem1 (the rho families) or corollary2
    (the decomposition families) against its square progression."""
    part = 1 if s in (2, 4) else 2
    _validate_part_s(part, s)
    if bound is None:
        bound = DEFAULT_BOUND_SET_EQUIVALENCE
    if statement == "theorem1":
        families, prog = _rho_families(part, s), theorem1_progression(part, s)
    elif statement == "corollary2":
        families = decomposition_families(_rule(s))
        prog = corollary2_progression(part, s)
    else:
        raise ValueError(f"unknown statement {statement!r}")
    return verify_set_equivalence(families, prog, bound,
                                  f"set_equivalence.mod{prog.a}.s{s}")


def _check_identity(part: int, s: int, k: int, order: int | None,
                    collect_all: bool):
    """Truncated-theta times the regime sum minus the bilateral series,
    against the explicit tail product."""
    _validate_part_s(part, s)
    _require(k >= 1, "k must be >= 1")
    if order is None:
        order = DEFAULT_ORDER_IDENTITY
    watch = Stopwatch()
    bilateral = rho_series(part, s, order)
    regime = (regime3_sum if part == 1 else regime4_sum)(s, order)
    lhs = partial_theta(k, order) * regime - bilateral
    tail = even_binomial_ratio(k, order).scale(2) * gauss_error_tail(k, order)
    rhs = tail * bilateral
    if k % 2 == 1:
        rhs = -rhs
    return _compare_series(
        f"id{part}.s{s}.k{k}", {"s": s, "k": k, "order": order},
        lhs, rhs, watch, collect_all,
    )


def check_identity_id1(s: int, k: int, order: int | None = None,
                       collect_all: bool = True):
    """The truncated identity for the regime-III sum (s in {2, 4}, k >= 1)."""
    return _check_identity(1, s, k, order, collect_all)


def check_identity_id2(s: int, k: int, order: int | None = None,
                       collect_all: bool = True):
    """The truncated identity for the regime-IV sum (s in {1, 3}, k >= 1)."""
    return _check_identity(2, s, k, order, collect_all)


def conjecture1_difference(part: int, s: int, k: int, order: int) -> TruncatedSeries:
    """partial_theta(k) * regime sum - bilateral series: the object whose
    coefficient signs the first conjecture predicts."""
    _validate_part_s(part, s)
    regime = (regime3_sum if part == 1 else regime4_sum)(s, order)
    return partial_theta(k, order) * regime - rho_series(part, s, order)


def check_conjecture1(part: int, s: int, k: int, order: int | None = None,
                      collect_all: bool = True):
    """Difference series has coefficients >= 0 for even k, <= 0 for odd k."""
    _validate_part_s(part, s)
    _require(k >= 1, "k must be >= 1")
    if order is None:
        order = DEFAULT_ORDER_CONJECTURE
    watch = Stopwatch()
    diff = conjecture1_difference(part, s, k, order)
    want_sign = 1 if k % 2 == 0 else -1

    violations = []
    for n, c in enumerate(diff.coeffs):
        if c * want_sign < 0:
            violations.append(Violation(n, c, 0))
            if not collect_all:
                break
    return empirical_report(
        f"conjecture1.part{part}.s{s}.k{k}",
        {"part": part, "s": s, "k": k, "order": order,
         "expected_sign": "nonnegative" if want_sign == 1 else "nonpositive"},
        violations,
        watch.elapsed_ms(),
    )


INNER_SIGN_ALTERNATING = "alternating_j"
INNER_SIGN_LITERAL = "literal"


def _conjecture2_inner_coeffs(part: int, k: int, reading: str) -> list[int]:
    """Coefficient of the j-th shifted term, j = 1..k.

    The displayed inequalities carry (-1)^k inside the sum for part 1 and
    no sign for part 2; the alternating reading (-1)^j is the one obtained
    by extracting coefficients from the first conjecture.  Both are
    evaluated and reported.
    """
    if reading == INNER_SIGN_ALTERNATING:
        return [(-1) ** j for j in range(1, k + 1)]
    if part == 1:
        return [(-1) ** k] * k
    return [1] * k


def check_conjecture2(part: int, s: int, k: int, order: int | None = None,
                      collect_all: bool = True,
                      tables: PartitionTable | None = None):
    """Both readings of the shifted-count inequality; returns two reports.

    For counts T (regime III or IV) and the bilateral coefficients rho:
    (-1)^k (T(n) + 2*sum_j coeff_j*T(n-2j^2) - rho(n)) >= 0 for n <= order.
    """
    _validate_part_s(part, s)
    _require(k >= 1, "k must be >= 1")
    if order is None:
        order = DEFAULT_ORDER_CONJECTURE
    if tables is None:
        tables = count_restricted(_rule(s), order)
    _require_table(tables, _rule(s), order)
    rho = rho_series(part, s, order)
    outer = 1 if k % 2 == 0 else -1

    reports = []
    for reading in (INNER_SIGN_ALTERNATING, INNER_SIGN_LITERAL):
        watch = Stopwatch()
        inner = _conjecture2_inner_coeffs(part, k, reading)
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
                if not collect_all:
                    break
        reports.append(
            empirical_report(
                f"conjecture2.part{part}.s{s}.k{k}.{reading}",
                {"part": part, "s": s, "k": k, "order": order,
                 "inner_sign": reading},
                violations,
                watch.elapsed_ms(),
            )
        )
    return reports


def cross_validate(rule: PartResidueRule, order: int | None = None,
                   collect_all: bool = True):
    """Three-route agreement: DP counts, generating-function coefficients,
    and the bilateral decomposition into p(n) values."""
    if order is None:
        order = DEFAULT_ORDER_CONJECTURE
    watch = Stopwatch()
    dp = count_restricted(rule, order)
    gf = r_gf(rule, order)
    dec = r_decomposed(rule, order, p_table(order))

    violations = []
    routes_bad = []
    for n in range(order + 1):
        a, b, c = dp.values[n], gf.coeffs[n], dec.coeffs[n]
        if not (a == b == c):
            violations.append(Violation(n, a, b if a != b else c))
            routes_bad.append({"n": n, "dp": str(a), "gf": str(b),
                               "decomposition": str(c)})
            if not collect_all:
                break
    return proved_report(
        f"cross_validate.{rule.kind}.s{rule.s}",
        {"kind": rule.kind, "s": rule.s, "order": order},
        violations,
        watch.elapsed_ms(),
        {"routes": routes_bad} if routes_bad else None,
    )


# ---------------------------------------------------------------------------
# the registry behind the command line
# ---------------------------------------------------------------------------

# conjecture-2 readings a scan can emit: "j" is the alternating (-1)^j
# reading, "literal" the displayed one
READINGS = {
    "j": (INNER_SIGN_ALTERNATING,),
    "literal": (INNER_SIGN_LITERAL,),
    "both": (INNER_SIGN_ALTERNATING, INNER_SIGN_LITERAL),
}


@dataclass(frozen=True)
class RunOptions:
    fast_parity: bool = False
    reading: str = "both"


@dataclass(frozen=True)
class RegisteredCheck:
    """One check or scan as the command line runs it.

    Each instance holds the arguments of one call; part and s select among
    the instances by the keys they carry.  run(instances, order, ks,
    options) returns the reports of the selected instances.  default_ks is
    empty for checks that take no k; parity_order is the default order
    under options.fast_parity, for checks with a GF(2) path.
    """

    default_order: int
    instances: tuple[dict, ...]
    run: Callable[[list[dict], int, list[int], RunOptions], list[CheckReport]]
    default_ks: tuple[int, ...] = ()
    parity_order: int | None = None


def _each(check):
    """run() calling check(**instance, k=k, order=order) for every selected
    instance and k, or without k when the check takes none."""
    def run(instances, order, ks, options):
        if not ks:
            return [check(**i, order=order) for i in instances]
        return [check(**i, k=k, order=order) for i in instances for k in ks]
    return run


def _run_theorem1(instances, order, ks, options):
    return [check_theorem1(**i, order=order, use_parity_fastpath=options.fast_parity)
            for i in instances]


def _run_with_p_table(check):
    """run() sharing one p(n) table among the selected instances."""
    def run(instances, order, ks, options):
        p = p_table(order)
        return [check(**i, order=order, p=p) for i in instances]
    return run


def _run_conjecture2(instances, order, ks, options):
    keep = READINGS[options.reading]
    reports = []
    for i in instances:
        table = count_restricted(_rule(i["s"]), order)
        for k in ks:
            reports += [r for r in check_conjecture2(**i, k=k, order=order, tables=table)
                        if r.params["inner_sign"] in keep]
    return reports


PART_S = tuple({"part": part, "s": s} for part, s in ((1, 2), (1, 4), (2, 1), (2, 3)))
S_VALUES = tuple({"s": s} for s in (2, 4, 1, 3))

REGISTRY: dict[str, dict[str, RegisteredCheck]] = {
    "verify": {
        "theorem1": RegisteredCheck(DEFAULT_ORDER_PROVED, PART_S, _run_theorem1,
                                    parity_order=DEFAULT_ORDER_PARITY),
        "corollary2": RegisteredCheck(DEFAULT_ORDER_PROVED, PART_S,
                                      _run_with_p_table(check_corollary2)),
        "id1": RegisteredCheck(DEFAULT_ORDER_IDENTITY, S_VALUES[:2],
                               _each(check_identity_id1), default_ks=(1, 2, 3, 4, 5)),
        "id2": RegisteredCheck(DEFAULT_ORDER_IDENTITY, S_VALUES[2:],
                               _each(check_identity_id2), default_ks=(1, 2, 3, 4, 5)),
        "rogers": RegisteredCheck(DEFAULT_ORDER_IDENTITY, S_VALUES, _each(check_rogers)),
        "gauss": RegisteredCheck(DEFAULT_ORDER_PROVED, ({},), _each(check_gauss)),
        "truncated-gauss": RegisteredCheck(DEFAULT_ORDER_IDENTITY, ({},),
                                           _each(check_truncated_gauss),
                                           default_ks=tuple(range(1, 11))),
        "set-equivalence": RegisteredCheck(
            DEFAULT_BOUND_SET_EQUIVALENCE,
            tuple({"s": i["s"], "statement": statement} for i in S_VALUES
                  for statement in ("theorem1", "corollary2")),
            _each(lambda s, statement, order: check_set_equivalence(s, statement, order)),
        ),
        "cross-validate": RegisteredCheck(
            DEFAULT_ORDER_CONJECTURE, S_VALUES,
            _each(lambda s, order: cross_validate(_rule(s), order)),
        ),
    },
    "conjecture": {
        "1": RegisteredCheck(DEFAULT_ORDER_CONJECTURE, PART_S, _each(check_conjecture1),
                             default_ks=(1, 2, 3, 4)),
        "2": RegisteredCheck(DEFAULT_ORDER_CONJECTURE, PART_S, _run_conjecture2,
                             default_ks=(1, 2, 3, 4)),
        "s-pairs": RegisteredCheck(DEFAULT_ORDER_CONJECTURE,
                                   tuple({"a": a, "b": b} for a, b in S_PAIRS),
                                   _run_with_p_table(check_s_pair)),
    },
}


def run_check(command: str, name: str, order: int | None = None,
              part: int | None = None, s: int | None = None,
              ks: list[int] | None = None, options: RunOptions = RunOptions()):
    """Run a registered check; returns (reports, reports gating the exit).

    Raises ValueError on a negative order, a k below 1, or flags that
    select no instance.  Under the "both" reading the literal conjecture-2
    reports are emitted but do not gate: their known counterexamples are a
    finding about the displayed formula, not about the conjecture under
    its consistent reading.
    """
    entry = REGISTRY[command][name]
    if order is None:
        use_parity = options.fast_parity and entry.parity_order is not None
        order = entry.parity_order if use_parity else entry.default_order
    require_order(order)
    ks = list(ks or entry.default_ks) if entry.default_ks else []
    _require(all(k >= 1 for k in ks), "k must be >= 1")
    flags = {"part": part, "s": s}
    selected = [i for i in entry.instances
                if all(i[key] == value for key, value in flags.items()
                       if value is not None and key in i)]
    _require(bool(selected), f"no {name} instance matches the given --part/--s")
    reports = entry.run(selected, order, ks, options)
    gating = [r for r in reports if not (options.reading == "both" and
                                         r.params.get("inner_sign") == INNER_SIGN_LITERAL)]
    return reports, gating
