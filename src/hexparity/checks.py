"""All theorem-, corollary-, identity-, and conjecture-level checks.

Each check is a pure function over immutable inputs returning a
CheckReport.  Proved statements get PASS/FAIL (a FAIL means a bug here,
not new mathematics); conjecture scans get EMPIRICAL_PASS or
EMPIRICAL_COUNTEREXAMPLE with every violation recorded.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from operator import add, mul
from typing import Callable

from .partitions import (
    REGIME_III,
    REGIME_IV,
    PartResidueRule,
    PartitionTable,
    count_restricted,
    p_table,
    r_decomposed,
    r_gf,
)
from .report import CheckReport, Stopwatch, Violation, empirical_report, proved_report
from .series import ParitySeries, TruncatedSeries, require_order, require_reach
from .squares import SquareProgression, index_set, multiplicity_map
from .theta import (
    PART_S,
    _require_s,
    bilateral_sum,
    decomposition_families,
    even_gauss_factor,
    gauss_theta_sides,
    part_of,
    partial_theta,
    regime3_product,
    regime3_sum,
    regime4_product,
    regime4_sum,
    regime_sum,
    regime_sum_parities,
    rho_families,
    truncated_gauss_lhs,
    truncated_gauss_rhs,
)

# the seven (a, b) pairs for which the square-progression parity statement
# is asserted to hold
S_PAIRS = ((6, 8), (8, 12), (12, 24), (15, 40), (16, 48), (20, 120), (21, 168))

# default truncation orders, read only by REGISTRY: proved statements on the
# big-integer path, parity-only runs, conjecture scans
DEFAULT_ORDER_PROVED = 2000
DEFAULT_ORDER_PARITY = 100_000
DEFAULT_ORDER_CONJECTURE = 500
DEFAULT_ORDER_IDENTITY = 300
DEFAULT_BOUND_SET_EQUIVALENCE = 10**6


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def theorem1_progression(s: int) -> SquareProgression:
    if part_of(s) == 1:
        return SquareProgression(120, (3 * s - 5) ** 2)
    return SquareProgression(40, s * s)


def corollary2_progression(s: int) -> SquareProgression:
    if part_of(s) == 1:
        return SquareProgression(20, (s - 1) ** 2)
    return SquareProgression(15, (s + 1) ** 2 // 4)


def _validate_part_s(part: int, s: int) -> None:
    _require(part in PART_S, "part must be 1 or 2")
    _require(s in PART_S[part],
             f"part {part} requires s in {{{', '.join(map(str, PART_S[part]))}}}")


def _counts(rule: PartResidueRule, order: int) -> PartitionTable:
    """The counts rule admits, to order, read off the generating function
    (r_gf)."""
    return PartitionTable(order, r_gf(rule, order).coeffs, rule)


def check_theorem1(part: int, s: int, order: int,
                   use_parity_fastpath: bool = False,
                   parities: dict[int, ParitySeries] | None = None):
    """Regime sum reduced mod 2 versus the square-progression indicator.
    parities, when given on the GF(2) path, is regime_sum_parities over
    both s of the part, built in one walk, to order or beyond."""
    _validate_part_s(part, s)
    watch = Stopwatch()
    if use_parity_fastpath:
        parities = parities or regime_sum_parities((s,), order)
        _require(s in parities, f"parities holds no series for s = {s}")
        lhs = parities[s]
        require_reach("parities", lhs, order)
    else:
        lhs = regime_sum(s, order).reduce_mod2()
    return proved_report(
        f"theorem1.part{part}.s{s}",
        {"part": part, "s": s, "order": order,
         "path": "parity" if use_parity_fastpath else "bigint"},
        _bit_violations(lhs.bits, theorem1_progression(s), order),
        watch.elapsed_ms(),
    )


def _bit_violations(lhs: int, target: SquareProgression, order: int) -> list[Violation]:
    """A Violation(n, lhs bit, target bit) for each n <= order where the
    packed parity series lhs, cut to order, and the indicator of target
    differ, in increasing n."""
    rhs = ParitySeries.from_bit_positions(order, index_set(target, order)).bits
    lhs &= (1 << (order + 1)) - 1
    if lhs == rhs:
        return []
    diff = format(lhs ^ rhs, "b")[::-1]
    violations = []
    n = diff.find("1")
    while n >= 0:
        violations.append(Violation(n, (lhs >> n) & 1, (rhs >> n) & 1))
        n = diff.find("1", n + 1)
    return violations


def _parity_sum_violations(p: PartitionTable | None, shifts: SquareProgression,
                           target: SquareProgression, order: int) -> list[Violation]:
    """Points n <= order where the parity of sum p(n-k), over the k with
    shifts true at k, is not the truth of target at n; p, when given, is
    a p(n) table to order or beyond, else p_table(order) is built.

    Mod 2 the sums are one GF(2) product: the indicator of shifts times
    sum (p(n) mod 2) q^n, i.e. the XOR of the shifted parity bits.
    """
    if p is None:
        p = p_table(order)
    p.require(None, order)
    parity = p.parity_bits & ((1 << (order + 1)) - 1)
    lhs = 0
    for k in index_set(shifts, order):
        lhs ^= parity << k
    return _bit_violations(lhs, target, order)


def check_corollary2(part: int, s: int, order: int,
                     p: PartitionTable | None = None):
    """Pointwise iff: the partition-sum parity is odd exactly when the
    associated progression value is a perfect square."""
    _validate_part_s(part, s)
    watch = Stopwatch()
    return proved_report(
        f"corollary2.part{part}.s{s}",
        {"part": part, "s": s, "order": order},
        _parity_sum_violations(p, corollary2_progression(s), theorem1_progression(s), order),
        watch.elapsed_ms(),
    )


def check_s_pair(a: int, b: int, order: int, p: PartitionTable | None = None):
    """Empirical scan of: sum of p(n-k) over {a*k+1 square} is odd iff
    b*n+1 is a square.  Proved for some pairs, conjecturally sharp for the
    S set; controls outside S are expected to fail, at every n recorded."""
    _require(a >= 1 and b >= 1, "a and b must be positive")
    watch = Stopwatch()
    return empirical_report(
        f"spair.a{a}.b{b}",
        {"a": a, "b": b, "order": order, "in_s_set": (a, b) in S_PAIRS},
        _parity_sum_violations(p, SquareProgression(a, 1), SquareProgression(b, 1), order),
        watch.elapsed_ms(),
    )


def _compare_series(check_id: str, params: dict, lhs: TruncatedSeries,
                    rhs: TruncatedSeries, watch: Stopwatch):
    violations = [Violation(n, a, b)
                  for n, (a, b) in enumerate(zip(lhs.coeffs, rhs.coeffs)) if a != b]
    return proved_report(check_id, params, violations, watch.elapsed_ms())


def check_rogers(s: int, order: int):
    """Regime sum against its product side: regime III for s in {2, 4},
    regime IV for s in {1, 3}."""
    _require_s(s, 1, 2)
    watch = Stopwatch()
    if part_of(s) == 1:
        kind, lhs, rhs = REGIME_III, regime3_sum(s, order), regime3_product(s, order)
    else:
        kind, lhs, rhs = REGIME_IV, regime4_sum(s, order), regime4_product(s, order)
    return _compare_series(f"rogers.{kind}.s{s}", {"s": s, "order": order},
                           lhs, rhs, watch)


def check_gauss(order: int):
    """The Gauss theta identity: theta sum against (q;q)oo/(-q;q)oo."""
    watch = Stopwatch()
    lhs, rhs = gauss_theta_sides(order)
    return _compare_series("gauss.theta", {"order": order}, lhs, rhs, watch)


def check_truncated_gauss(k: int, order: int, factor: TruncatedSeries | None = None):
    """The truncated Gauss identity at truncation index k >= 1; factor, when
    given, is even_gauss_factor to order or beyond."""
    watch = Stopwatch()
    lhs, rhs = truncated_gauss_lhs(k, order, factor), truncated_gauss_rhs(k, order)
    return _compare_series(f"truncated_gauss.k{k}", {"k": k, "order": order},
                           lhs, rhs, watch)


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


def check_set_equivalence(s: int, statement: str, order: int):
    """The exponent set behind theorem1 (the rho families) or corollary2
    (the decomposition families) against its square progression, for
    values up to order."""
    if statement == "theorem1":
        families, prog = rho_families(s), theorem1_progression(s)
    elif statement == "corollary2":
        families, prog = decomposition_families(s), corollary2_progression(s)
    else:
        raise ValueError(f"unknown statement {statement!r}")
    return verify_set_equivalence(families, prog, order,
                                  f"set_equivalence.mod{prog.a}.s{s}")


def _check_identity(part: int, s: int, k: int, order: int,
                    regime: TruncatedSeries | None = None,
                    tail: TruncatedSeries | None = None):
    """Truncated-theta times the regime sum minus the bilateral series,
    against the explicit tail product.  regime and tail, when given, are
    the regime sum and truncated_gauss_rhs(k), to order or beyond."""
    _validate_part_s(part, s)
    _require(k >= 1, "k must be >= 1")
    require_reach("tail", tail, order)
    watch = Stopwatch()
    if tail is None:
        tail = truncated_gauss_rhs(k, order)
    rhs = tail * bilateral_sum(rho_families(s), order)
    return _compare_series(
        f"id{part}.s{s}.k{k}", {"s": s, "k": k, "order": order},
        _conjecture1_difference(s, k, order, regime),
        -rhs if k % 2 == 1 else rhs, watch,
    )


def check_identity_id1(s: int, k: int, order: int, **inputs):
    """The truncated identity for the regime-III sum (s in {2, 4}, k >= 1);
    inputs as in _check_identity."""
    return _check_identity(1, s, k, order, **inputs)


def check_identity_id2(s: int, k: int, order: int, **inputs):
    """The truncated identity for the regime-IV sum (s in {1, 3}, k >= 1);
    inputs as in _check_identity."""
    return _check_identity(2, s, k, order, **inputs)


def conjecture1_difference(part: int, s: int, k: int, order: int,
                           regime: TruncatedSeries | None = None) -> TruncatedSeries:
    """partial_theta(k) * regime sum - bilateral series: the object whose
    coefficient signs the first conjecture predicts."""
    _validate_part_s(part, s)
    return _conjecture1_difference(s, k, order, regime)


def _conjecture1_difference(s: int, k: int, order: int,
                            regime: TruncatedSeries | None) -> TruncatedSeries:
    """conjecture1_difference once part and s are validated: the one
    validation on each check's path is its own."""
    require_reach("regime", regime, order)
    if regime is None:
        regime = regime_sum(s, order)
    return partial_theta(k, order) * regime - bilateral_sum(rho_families(s), order)


def check_conjecture1(part: int, s: int, k: int, order: int,
                      regime: TruncatedSeries | None = None):
    """Difference series has coefficients >= 0 for even k, <= 0 for odd k;
    regime as in _check_identity."""
    _validate_part_s(part, s)
    _require(k >= 1, "k must be >= 1")
    watch = Stopwatch()
    diff = _conjecture1_difference(s, k, order, regime)
    want_sign = 1 if k % 2 == 0 else -1
    return empirical_report(
        f"conjecture1.part{part}.s{s}.k{k}",
        {"part": part, "s": s, "k": k, "order": order,
         "expected_sign": "nonnegative" if want_sign == 1 else "nonpositive"},
        [Violation(n, c, 0) for n, c in enumerate(diff.coeffs) if c * want_sign < 0],
        watch.elapsed_ms(),
    )


INNER_SIGN_ALTERNATING = "alternating_j"
INNER_SIGN_LITERAL = "literal"

# conjecture-2 readings a scan can emit: "j" is the alternating (-1)^j
# reading, "literal" the displayed one
READINGS = {
    "j": (INNER_SIGN_ALTERNATING,),
    "literal": (INNER_SIGN_LITERAL,),
    "both": (INNER_SIGN_ALTERNATING, INNER_SIGN_LITERAL),
}


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


def check_conjecture2(part: int, s: int, k: int, order: int,
                      tables: PartitionTable | None = None,
                      readings: tuple[str, ...] = READINGS["both"]):
    """The shifted-count inequality under each of readings (both by
    default); returns one report per reading.  tables, when given, holds
    the counts of PartResidueRule(s) to order; without it the counts come
    from the generating function r_gf, since the scan needs their values,
    not an independent route to them.

    For counts T (regime III or IV) and the bilateral coefficients rho:
    (-1)^k (T(n) + 2*sum_j coeff_j*T(n-2j^2) - rho(n)) >= 0 for n <= order.
    The value is built on all n at once: (-1)^k (T - rho), then one slice
    pass per j adding 2*(-1)^k*coeff_j*T shifted by 2j^2.
    """
    _validate_part_s(part, s)
    _require(k >= 1, "k must be >= 1")
    for reading in readings:
        _require(reading in READINGS["both"],
                 f"readings must be {INNER_SIGN_ALTERNATING!r} or "
                 f"{INNER_SIGN_LITERAL!r}, got {reading!r}")
    rule = PartResidueRule(s)
    tables = tables or _counts(rule, order)
    tables.require(rule, order)
    rho = bilateral_sum(rho_families(s), order)
    outer = 1 if k % 2 == 0 else -1

    reports = []
    for reading in readings:
        watch = Stopwatch()
        value = [outer * (t - r) for t, r in zip(tables.values, rho.coeffs)]
        for j, coeff in enumerate(_conjecture2_inner_coeffs(part, k, reading), 1):
            shift = 2 * j * j
            value[shift:] = map(add, value[shift:],
                                map(mul, tables.values, repeat(2 * outer * coeff)))
        reports.append(
            empirical_report(
                f"conjecture2.part{part}.s{s}.k{k}.{reading}",
                {"part": part, "s": s, "k": k, "order": order,
                 "inner_sign": reading},
                [Violation(n, v, 0) for n, v in enumerate(value) if v < 0],
                watch.elapsed_ms(),
            )
        )
    return reports


def cross_validate(rule: PartResidueRule, order: int,
                   p: PartitionTable | None = None):
    """Three-route agreement: DP counts, generating-function coefficients,
    and the bilateral decomposition into p(n) values; p, when given, is
    p_table(order) or longer."""
    watch = Stopwatch()
    if p is None:
        p = p_table(order)
    dp = count_restricted(rule, order)
    gf = r_gf(rule, order)
    dec = r_decomposed(rule, order, p)
    bad = [(n, a, b, c) for n, (a, b, c) in enumerate(zip(dp.values, gf.coeffs, dec.coeffs))
           if not a == b == c]
    return proved_report(
        f"cross_validate.{rule.kind}.s{rule.s}",
        {"kind": rule.kind, "s": rule.s, "order": order},
        [Violation(n, a, b if a != b else c) for n, a, b, c in bad],
        watch.elapsed_ms(),
        {"routes": [{"n": n, "dp": str(a), "gf": str(b), "decomposition": str(c)}
                    for n, a, b, c in bad]} if bad else None,
    )


# ---------------------------------------------------------------------------
# the registry behind the command line
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegisteredCheck:
    """One check or scan as the command line runs it.

    run_check calls check(**instance, k=k, order=order, **inputs) for each
    selected instance and k (no k where default_ks is empty) and collects
    the report, or list of reports, it returns; part and s select among the
    instances by the keys they carry.  shared declares the inputs the calls
    share, each as (keyword, build, keys): inputs[keyword] is
    build(*values, order) for the call's values of keys, built once per
    values that two or more calls of one run_check call carry; a call
    whose values no other call shares gets no input and builds its own.
    parity_order is the default order under run_check's fast_parity, for
    checks with a GF(2) path (use_parity_fastpath); default_reading is the
    READINGS key run when run_check's reading is None, for checks that take
    readings.
    """

    default_order: int
    instances: tuple[dict, ...]
    check: Callable[..., CheckReport | list[CheckReport]]
    shared: tuple[tuple[str, Callable, tuple[str, ...]], ...] = ()
    default_ks: tuple[int, ...] = ()
    parity_order: int | None = None
    default_reading: str | None = None


# the shared inputs; each builder looks its functions up when it is called
P_TABLE = ("p", lambda order: p_table(order), ())
REGIME = ("regime", lambda s, order: regime_sum(s, order), ("s",))
TAIL = ("tail", lambda k, order: truncated_gauss_rhs(k, order), ("k",))
# both regime sums of a part mod 2, from one walk; on the GF(2) path only
PARITIES = ("parities",
            lambda part, fast, order: regime_sum_parities(PART_S[part], order) if fast else None,
            ("part", "use_parity_fastpath"))

INSTANCES = tuple({"part": part, "s": s} for part, ss in PART_S.items() for s in ss)
S_BY_PART = {part: tuple({"s": s} for s in ss) for part, ss in PART_S.items()}
S_VALUES = S_BY_PART[1] + S_BY_PART[2]

REGISTRY: dict[str, dict[str, RegisteredCheck]] = {
    "verify": {
        "theorem1": RegisteredCheck(DEFAULT_ORDER_PROVED, INSTANCES, check_theorem1,
                                    (PARITIES,), parity_order=DEFAULT_ORDER_PARITY),
        "corollary2": RegisteredCheck(DEFAULT_ORDER_PROVED, INSTANCES, check_corollary2,
                                      (P_TABLE,)),
        "id1": RegisteredCheck(DEFAULT_ORDER_IDENTITY, S_BY_PART[1],
                               check_identity_id1, (REGIME, TAIL),
                               default_ks=(1, 2, 3, 4, 5)),
        "id2": RegisteredCheck(DEFAULT_ORDER_IDENTITY, S_BY_PART[2],
                               check_identity_id2, (REGIME, TAIL),
                               default_ks=(1, 2, 3, 4, 5)),
        "rogers": RegisteredCheck(DEFAULT_ORDER_IDENTITY, S_VALUES, check_rogers),
        "gauss": RegisteredCheck(DEFAULT_ORDER_PROVED, ({},), check_gauss),
        "truncated-gauss": RegisteredCheck(
            DEFAULT_ORDER_IDENTITY, ({},), check_truncated_gauss,
            (("factor", lambda order: even_gauss_factor(order), ()),),
            default_ks=tuple(range(1, 11))),
        "set-equivalence": RegisteredCheck(
            DEFAULT_BOUND_SET_EQUIVALENCE,
            tuple({"s": i["s"], "statement": statement} for i in S_VALUES
                  for statement in ("theorem1", "corollary2")),
            check_set_equivalence),
        "cross-validate": RegisteredCheck(
            DEFAULT_ORDER_CONJECTURE, S_VALUES,
            lambda s, order, p=None: cross_validate(PartResidueRule(s), order, p), (P_TABLE,)),
    },
    "conjecture": {
        "1": RegisteredCheck(DEFAULT_ORDER_CONJECTURE, INSTANCES, check_conjecture1,
                             (REGIME,), default_ks=(1, 2, 3, 4)),
        "2": RegisteredCheck(
            DEFAULT_ORDER_CONJECTURE, INSTANCES, check_conjecture2,
            (("tables", lambda s, order: _counts(PartResidueRule(s), order), ("s",)),),
            default_ks=(1, 2, 3, 4), default_reading="both"),
        "s-pairs": RegisteredCheck(DEFAULT_ORDER_CONJECTURE,
                                   tuple({"a": a, "b": b} for a, b in S_PAIRS),
                                   check_s_pair, (P_TABLE,)),
    },
}


def run_check(command: str, name: str, order: int | None = None,
              part: int | None = None, s: int | None = None,
              ks: list[int] | None = None, fast_parity: bool = False,
              reading: str | None = None):
    """Run a registered check; returns (reports, reports gating the exit).

    fast_parity selects the GF(2) path; reading is a READINGS key, None for
    the check's default_reading.  Raises ValueError on a negative order, a
    k below 1, flags that select no instance, and flags the check does not
    take: ks where it has no default_ks, fast_parity where it has no
    parity_order, reading where it has no default_reading, part or s where
    no instance carries that key.  Under the "both" reading the
    literal conjecture-2 reports are emitted but do not gate: their known
    counterexamples are a finding about the displayed formula, not about
    the conjecture under its consistent reading.
    """
    entry = REGISTRY[command][name]
    label = f"{command} {name}"
    flags = {"part": part, "s": s}
    for key, value in flags.items():
        _require(value is None or any(key in i for i in entry.instances),
                 f"{label} takes no --{key}")
    _require(not ks or bool(entry.default_ks), f"{label} takes no --k")
    _require(not fast_parity or entry.parity_order is not None,
             f"{label} has no --fast-parity path")
    _require(reading is None or entry.default_reading is not None,
             f"{label} takes no --reading")
    reading = reading or entry.default_reading
    if order is None:
        order = entry.parity_order if fast_parity else entry.default_order
    require_order(order)
    ks = list(ks or entry.default_ks)
    _require(all(k >= 1 for k in ks), "k must be >= 1")
    selected = [i for i in entry.instances
                if all(i[key] == value for key, value in flags.items()
                       if value is not None and key in i)]
    _require(bool(selected), f"{label} has no instance with the given --part/--s")
    extra = {"order": order}
    if entry.parity_order is not None:
        extra["use_parity_fastpath"] = fast_parity
    if entry.default_reading is not None:
        extra["readings"] = READINGS[reading]
    calls = [dict(i, **extra) if k is None else dict(i, k=k, **extra)
             for i in selected for k in ks or [None]]
    for keyword, build, keys in entry.shared:
        values = [tuple(args[key] for key in keys) for args in calls]
        built = {v: build(*v, order) for v, n in Counter(values).items() if n > 1}
        for args, v in zip(calls, values):
            if v in built:
                args[keyword] = built[v]
    reports = []
    for args in calls:
        result = entry.check(**args)
        reports += result if isinstance(result, list) else [result]
    gating = [r for r in reports if not (reading == "both" and
                                         r.params.get("inner_sign") == INNER_SIGN_LITERAL)]
    return reports, gating
