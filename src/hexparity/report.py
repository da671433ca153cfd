"""Structured outcome of a single verification."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

PASS = "PASS"
FAIL = "FAIL"
EMPIRICAL_PASS = "EMPIRICAL_PASS"
EMPIRICAL_COUNTEREXAMPLE = "EMPIRICAL_COUNTEREXAMPLE"

PROVED_STATUSES = (PASS, FAIL)
EMPIRICAL_STATUSES = (EMPIRICAL_PASS, EMPIRICAL_COUNTEREXAMPLE)


@dataclass(frozen=True, slots=True)
class Violation:
    """One point of disagreement: position n, left value, right value."""

    n: int
    lhs: int
    rhs: int

    def to_json_dict(self) -> dict:
        # big integers travel as decimal strings; JSON numbers would lose them
        return {"n": self.n, "lhs": str(self.lhs), "rhs": str(self.rhs)}


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one identity, theorem, corollary, or conjecture check.

    PASS/FAIL is reserved for proved statements, where a failure means an
    implementation bug; EMPIRICAL_* is for conjecture scans, where a
    counterexample is a finding, not an error.
    """

    check_id: str
    params: dict
    status: str
    violations: tuple[Violation, ...] = ()
    elapsed_ms: int = 0
    details: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.status not in PROVED_STATUSES + EMPIRICAL_STATUSES:
            raise ValueError(f"unknown status {self.status!r}")
        ok = self.status in (PASS, EMPIRICAL_PASS)
        if ok != (len(self.violations) == 0):
            raise ValueError("violations must be empty exactly when passing")

    @property
    def passed(self) -> bool:
        return self.status in (PASS, EMPIRICAL_PASS)

    def to_json_dict(self) -> dict:
        out = {
            "check_id": self.check_id,
            "params": dict(self.params),
            "status": self.status,
            "violations": [v.to_json_dict() for v in self.violations],
            "elapsed_ms": self.elapsed_ms,
        }
        if self.details:
            out["details"] = self.details
        return out


def proved_report(check_id, params, violations, elapsed_ms, details=None):
    status = PASS if not violations else FAIL
    return CheckReport(
        check_id, params, status, tuple(violations), elapsed_ms, details or {}
    )


def empirical_report(check_id, params, violations, elapsed_ms, details=None):
    status = EMPIRICAL_PASS if not violations else EMPIRICAL_COUNTEREXAMPLE
    return CheckReport(
        check_id, params, status, tuple(violations), elapsed_ms, details or {}
    )


class Stopwatch:
    """Millisecond timer for report bookkeeping."""

    def __init__(self) -> None:
        self.start = time.perf_counter()

    def elapsed_ms(self) -> int:
        return int((time.perf_counter() - self.start) * 1000)
