"""Command-line front end: expansion, verification, conjecture scanning.

The front end parses flags, dispatches to the check registry in
`checks.py` (or to a series builder for `expand`) and prints the result.
Exit statuses: 0 when every selected check passes, 1 when any check fails
or a conjecture scan finds a counterexample, 2 on usage errors.  Output is
deterministic for identical inputs up to elapsed-time fields; big integers
are serialized as decimal strings because they exceed JSON number
precision.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import (
    __version__,
    count_restricted,
    eq41_sides,
    eq42_sides,
    indicator_series,
    p_table,
    regime3_rule,
    regime3_sum,
    regime4_rule,
    regime4_sum,
    rr_G,
    rr_H,
)
from .checks import READINGS, REGISTRY, RunOptions, run_check, theorem1_progression
from .report import Stopwatch
from .series import require_order

EXIT_PASS = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2

TEXT_VIOLATION_LIMIT = 10


def serialize_document(doc: dict) -> str:
    return json.dumps(doc, indent=2)


def _document(command: list[str], watch: Stopwatch, **payload) -> dict:
    doc = {"version": __version__, "command": " ".join(command)}
    doc.update(payload)
    doc["total_elapsed_ms"] = watch.elapsed_ms()
    return doc


def _emit_reports(doc_reports, args, command, watch) -> None:
    doc_reports = sorted(doc_reports, key=lambda r: (r.check_id, sorted(r.params.items(), key=str)))
    if args.format == "json":
        doc = _document(command, watch, reports=[r.to_json_dict() for r in doc_reports])
        print(serialize_document(doc))
        return
    if args.format == "csv":
        print("check_id,status,violations,elapsed_ms")
        for r in doc_reports:
            print(f"{r.check_id},{r.status},{len(r.violations)},{r.elapsed_ms}")
        return
    for r in doc_reports:
        print(f"{r.status:26s} {r.check_id}  {r.params}  [{r.elapsed_ms} ms]")
        shown = r.violations if args.all_violations else r.violations[:TEXT_VIOLATION_LIMIT]
        for v in shown:
            print(f"    n={v.n}: lhs={v.lhs} rhs={v.rhs}")
        hidden = len(r.violations) - len(shown)
        if hidden > 0:
            print(f"    ... {hidden} further violations (use --all-violations)")
        if r.details:
            collisions = r.details.get("collisions")
            if collisions:
                print(f"    collisions: {collisions[:10]}")


def _emit_table(rows, args, command, watch, target_params) -> None:
    if args.format == "json":
        doc = _document(
            command, watch,
            table={"params": target_params,
                   "rows": [{"n": n, "coefficient": str(c)} for n, c in rows]},
        )
        print(serialize_document(doc))
        return
    if args.format == "csv":
        print("n,coefficient")
        for n, c in rows:
            print(f"{n},{c}")
        return
    for n, c in rows:
        print(f"{n}\t{c}")


# expand targets: the s values each requires (None when it takes no s) and
# its coefficients 0..n
EXPAND_TARGETS = {
    "p": (None, lambda s, n: p_table(n).values),
    "R": ({2, 4}, lambda s, n: count_restricted(regime3_rule(s), n).values),
    "Rstar": ({1, 3}, lambda s, n: count_restricted(regime4_rule(s), n).values),
    "G": (None, lambda s, n: rr_G(n)[0].coeffs),
    "H": (None, lambda s, n: rr_H(n)[0].coeffs),
    "regime3": ({2, 4}, lambda s, n: regime3_sum(s, n).coeffs),
    "regime4": ({1, 3}, lambda s, n: regime4_sum(s, n).coeffs),
    "eq41": ({2, 4}, lambda s, n: eq41_sides(s, n)[0].coeffs),
    "eq42": ({1, 3}, lambda s, n: eq42_sides(s, n)[0].coeffs),
    "indicator": ({1, 2, 3, 4}, lambda s, n: indicator_series(
        theorem1_progression(1 if s in (2, 4) else 2, s), n).coeffs),
}


def _expand_series(args, parser) -> list[tuple[int, int]]:
    target = args.target
    order = require_order(args.order if args.order is not None else 20)
    valid, coefficients = EXPAND_TARGETS[target]
    if valid is not None:
        if args.s is None:
            parser.error(f"target {target!r} requires --s")
        if args.s not in valid:
            parser.error(f"target {target!r} requires --s in {sorted(valid)}")
    return list(enumerate(coefficients(args.s, order)))


def _parse_k_range(text: str, parser) -> list[int]:
    """Accept '3' or '1..5'."""
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ValueError
            return list(range(lo, hi + 1))
        return [int(text)]
    except ValueError:
        parser.error(f"invalid k range {text!r} (expected e.g. 3 or 1..5)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hexparity",
        description="Exact q-series expansion and parity-theorem verification "
                    "for the hard-hexagon partition counts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common_flags(p, with_part=True, with_k=False):
        p.add_argument("--s", type=int, default=None,
                       help="residue parameter (2 or 4 for regime III, 1 or 3 for regime IV)")
        if with_part:
            p.add_argument("--part", type=int, choices=(1, 2), default=None,
                           help="statement part: 1 = regime III, 2 = regime IV")
        if with_k:
            p.add_argument("--k", dest="k_range", default=None,
                           help="truncation index k, a single value or a range like 1..5")
        p.add_argument("--order", "-N", type=int, default=None,
                       help="truncation order (defaults depend on the check)")
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        p.add_argument("--all-violations", action="store_true",
                       help="print every violation in text output instead of the first "
                            f"{TEXT_VIOLATION_LIMIT}")

    p_expand = sub.add_parser("expand", help="print series coefficients 0..N")
    p_expand.add_argument("target", choices=tuple(EXPAND_TARGETS))
    common_flags(p_expand, with_part=False)

    p_verify = sub.add_parser("verify", help="run proved-statement checks")
    p_verify.add_argument("check", choices=tuple(REGISTRY["verify"]))
    common_flags(p_verify, with_k=True)
    p_verify.add_argument("--fast-parity", action="store_true",
                          help="use the GF(2) bit-block path (theorem1 only)")

    p_conj = sub.add_parser("conjecture", help="run empirical conjecture scans")
    p_conj.add_argument("which", choices=tuple(REGISTRY["conjecture"]))
    common_flags(p_conj, with_k=True)
    p_conj.add_argument("--reading", choices=tuple(READINGS), default="both",
                        help="inner sign reading for conjecture 2 "
                             "(j = alternating (-1)^j, literal = as displayed)")

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    watch = Stopwatch()
    command = ["hexparity"] + argv

    if getattr(args, "k_range", None) is not None:
        args.k_list = _parse_k_range(args.k_range, parser)
    else:
        args.k_list = None

    try:
        if args.command == "expand":
            rows = _expand_series(args, parser)
            params = {"target": args.target, "s": args.s, "order": args.order}
            _emit_table(rows, args, command, watch, params)
            return EXIT_PASS

        name = args.check if args.command == "verify" else args.which
        options = RunOptions(getattr(args, "fast_parity", False),
                             getattr(args, "reading", "both"))
        reports, gating = run_check(args.command, name, args.order, args.part,
                                    args.s, args.k_list, options)
        _emit_reports(reports, args, command, watch)
        return EXIT_PASS if all(r.passed for r in gating) else EXIT_COUNTEREXAMPLE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
