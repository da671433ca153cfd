"""Command-line front end: expansion, verification, conjecture scanning.

The front end parses flags, dispatches to the check registry in
`checks.py` (or to a series builder for `expand`) and prints the result.
Exit statuses: 0 when every selected check passes, 1 when any check fails
or a conjecture scan finds a counterexample, 2 on usage errors, 3 on any
other error inside the program (reported in one line, never as a
traceback, so that 1 keeps meaning a counterexample).  Output is
deterministic for identical inputs up to elapsed-time fields; big integers
are serialized as decimal strings because they exceed JSON number
precision.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import (
    __version__,
    bilateral_sum,
    indicator_series,
    p_table,
    r_gf,
    regime3_rule,
    regime3_sum,
    regime4_rule,
    regime4_sum,
)
from .checks import READINGS, REGISTRY, run_check, theorem1_progression
from .report import Stopwatch
from .series import require_order
from .theta import PART_S, rho_families, rogers_ramanujan_sum

EXIT_PASS = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

TEXT_VIOLATION_LIMIT = 10

EXPAND_DEFAULT_ORDER = 20

# expand rows per json.dumps call in JSON output: one call per row is slow,
# one per table holds the whole table's encoding at once
JSON_ROW_SLICE = 1024


def _write_json(command: list[str], watch: Stopwatch, payload: dict, chunks) -> None:
    """Write json.dumps of {version, command, **payload, total_elapsed_ms}
    to stdout, one chunk at a time, so no copy of the whole document is
    held.  The last value of payload ends in the empty list the chunks
    fill: each chunk is the encoding of one or more of its items, joined
    by ", ".  total_elapsed_ms is read after the last chunk is written.
    """
    # on one line: json's C encoder serves only unindented output, and
    # `python -m json.tool` indents it for reading
    text = json.dumps({"version": __version__, "command": " ".join(command), **payload})
    head, _, tail = text.rpartition("[]")
    write = sys.stdout.write
    write(head + "[")
    sep = ""
    for chunk in chunks:
        write(sep)
        write(chunk)
        sep = ", "
    write(f']{tail[:-1]}, "total_elapsed_ms": {watch.elapsed_ms()}}}\n')


def _emit_reports(doc_reports, args, command, watch) -> None:
    doc_reports = sorted(doc_reports, key=lambda r: (r.check_id, sorted(r.params.items(), key=str)))
    if args.format == "json":
        _write_json(command, watch, {"reports": []},
                    (json.dumps(r.to_json_dict()) for r in doc_reports))
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


def _row_slices(coefficients):
    """The rows {n, coefficient} of coefficients 0.., JSON_ROW_SLICE at a
    time, each slice encoded as its items joined by ", "."""
    for lo in range(0, len(coefficients), JSON_ROW_SLICE):
        rows = [{"n": n, "coefficient": str(c)}
                for n, c in enumerate(coefficients[lo:lo + JSON_ROW_SLICE], lo)]
        yield json.dumps(rows)[1:-1]


def _emit_table(coefficients, args, command, watch, target_params) -> None:
    if args.format == "json":
        _write_json(command, watch, {"table": {"params": target_params, "rows": []}},
                    _row_slices(coefficients))
        return
    if args.format == "csv":
        print("n,coefficient")
        for n, c in enumerate(coefficients):
            print(f"{n},{c}")
        return
    for n, c in enumerate(coefficients):
        print(f"{n}\t{c}")


# expand targets: the s values each requires (None when it takes no s) and
# its coefficients 0..n
EXPAND_TARGETS = {
    "p": (None, lambda s, n: p_table(n).values),
    "R": (PART_S[1], lambda s, n: r_gf(regime3_rule(s), n).coeffs),
    "Rstar": (PART_S[2], lambda s, n: r_gf(regime4_rule(s), n).coeffs),
    "G": (None, lambda s, n: rogers_ramanujan_sum(0, n).coeffs),
    "H": (None, lambda s, n: rogers_ramanujan_sum(1, n).coeffs),
    "regime3": (PART_S[1], lambda s, n: regime3_sum(s, n).coeffs),
    "regime4": (PART_S[2], lambda s, n: regime4_sum(s, n).coeffs),
    "eq41": (PART_S[1], lambda s, n: bilateral_sum(rho_families(s), n).coeffs),
    "eq42": (PART_S[2], lambda s, n: bilateral_sum(rho_families(s), n).coeffs),
    "indicator": (PART_S[1] + PART_S[2],
                  lambda s, n: indicator_series(theorem1_progression(s), n).coeffs),
}


def _expand_series(args) -> tuple[tuple[int, ...], dict]:
    """The coefficients 0..order of an expand target and the params they
    were computed with."""
    target = args.target
    order = require_order(args.order)
    valid, coefficients = EXPAND_TARGETS[target]
    if valid is None and args.s is not None:
        raise ValueError(f"expand {target} takes no --s")
    if valid is not None and args.s not in valid:
        raise ValueError(f"expand {target} requires --s in {sorted(valid)}")
    params = {"target": target, "s": args.s, "order": order}
    return coefficients(args.s, order), params


def _k_list(text: str) -> list[int]:
    """The ks of a --k value, '3' or '1..5'."""
    lo, dots, hi = text.partition("..")
    try:
        ks = list(range(int(lo), int(hi if dots else lo) + 1))
    except ValueError:
        ks = []
    if not ks:
        raise argparse.ArgumentTypeError(f"invalid k range {text!r} (expected e.g. 3 or 1..5)")
    return ks


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hexparity",
        description="Exact q-series expansion and parity-theorem verification "
                    "for the hard-hexagon partition counts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # with reports, also the flags of the commands that print check reports
    def common_flags(p, reports=True):
        p.add_argument("--s", type=int, default=None,
                       help="residue parameter (2 or 4 for regime III, 1 or 3 for regime IV)")
        p.add_argument("--order", "-N", type=int,
                       default=None if reports else EXPAND_DEFAULT_ORDER,
                       help="truncation order (defaults depend on the check)" if reports
                       else "truncation order (default %(default)s)")
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        if reports:
            p.add_argument("--part", type=int, choices=(1, 2), default=None,
                           help="statement part: 1 = regime III, 2 = regime IV")
            p.add_argument("--k", dest="k_list", type=_k_list, metavar="K", default=None,
                           help="truncation index k, a single value or a range like 1..5")
            p.add_argument("--all-violations", action="store_true",
                           help="print every violation in text output instead of the first "
                                f"{TEXT_VIOLATION_LIMIT}")

    p_expand = sub.add_parser("expand", help="print series coefficients 0..N")
    p_expand.add_argument("target", choices=tuple(EXPAND_TARGETS))
    common_flags(p_expand, reports=False)

    p_verify = sub.add_parser("verify", help="run proved-statement checks")
    p_verify.add_argument("check", choices=tuple(REGISTRY["verify"]))
    common_flags(p_verify)
    p_verify.add_argument("--fast-parity", action="store_true",
                          help="use the GF(2) bit-block path (theorem1 only)")

    p_conj = sub.add_parser("conjecture", help="run empirical conjecture scans")
    p_conj.add_argument("which", choices=tuple(REGISTRY["conjecture"]))
    common_flags(p_conj)
    p_conj.add_argument("--reading", choices=tuple(READINGS), default=None,
                        help="inner sign reading for conjecture 2 "
                             "(j = alternating (-1)^j, literal = as displayed; "
                             "default both)")

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    watch = Stopwatch()
    command = ["hexparity"] + argv

    status = EXIT_PASS
    try:
        if args.command == "expand":
            coefficients, params = _expand_series(args)
            _emit_table(coefficients, args, command, watch, params)
        else:
            name = args.check if args.command == "verify" else args.which
            reports, gating = run_check(args.command, name, args.order, args.part,
                                        args.s, args.k_list,
                                        getattr(args, "fast_parity", False),
                                        getattr(args, "reading", None))
            if not all(r.passed for r in gating):
                status = EXIT_COUNTEREXAMPLE
            _emit_reports(reports, args, command, watch)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader closed stdout (`| head`): not a fault of the program.
        # Point stdout at devnull so the flush at shutdown cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return status
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a fault of the program, not a counterexample
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
