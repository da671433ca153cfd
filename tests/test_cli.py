"""CLI surface: flags, exit statuses, and output formats."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hexparity import cli
from hexparity.checks import REGISTRY
from hexparity.report import Stopwatch


def run_cli(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expand_p_text(capsys):
    code, out, _ = run_cli(capsys, "expand", "p", "--order", "5")
    assert code == 0
    assert out.splitlines()[-1] == "5\t7"


def test_expand_R_trivial(capsys):
    code, out, _ = run_cli(capsys, "expand", "R", "--s", "2", "--order", "0")
    assert code == 0
    assert out.splitlines() == ["0\t1"]


def test_expand_csv_header(capsys):
    code, out, _ = run_cli(capsys, "expand", "p", "--order", "3", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,coefficient"
    assert lines[1:] == ["0,1", "1,1", "2,2", "3,3"]


def test_expand_regime3_matches_gf_route(capsys):
    code, out, _ = run_cli(capsys, "expand", "regime3", "--s", "4",
                           "--order", "20", "--format", "csv")
    assert code == 0
    from hexparity.partitions import count_restricted, regime3_rule

    table = count_restricted(regime3_rule(4), 20)
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [int(v) for _, v in rows] == list(table.values)


def test_expand_requires_s(capsys):
    code, _, err = run_cli(capsys, "expand", "R", "--order", "5")
    assert code == 2
    assert "requires --s" in err


@pytest.mark.parametrize("argv, flag", [
    ("expand p --all-violations", "--all-violations"),
    ("expand R --s 2 --part 1", "--part 1"),
    ("expand G --k 1", "--k 1"),
])
def test_expand_refuses_the_flags_of_report_commands(capsys, argv, flag):
    # expand reads --s, --order and --format only; a flag it would drop
    # is an argparse usage error
    code, out, err = run_cli(capsys, *argv.split())
    assert code == cli.EXIT_USAGE == 2
    assert out == ""
    assert err.endswith(f"error: unrecognized arguments: {flag}\n")


def test_expand_records_the_order_used(capsys):
    code, out, _ = run_cli(capsys, "expand", "G", "--format", "json")
    assert code == 0
    table = json.loads(out)["table"]
    assert table["params"] == {"target": "G", "s": None, "order": 20}
    assert [row["n"] for row in table["rows"]] == list(range(21))


def test_json_output_round_trips(capsys):
    code, out, _ = run_cli(capsys, "verify", "cross-validate", "--s", "2",
                           "--order", "50", "--format", "json")
    assert code == 0
    parsed = json.loads(out)
    assert json.dumps(parsed) == out.rstrip("\n")
    assert parsed["version"]
    assert parsed["reports"][0]["check_id"] == "cross_validate.regime3.s2"
    assert parsed["reports"][0]["status"] == "PASS"
    assert "total_elapsed_ms" in parsed
    # the streamed document is the one json.dumps gives: a report scan with
    # a violation list per report, and expand tables of every slice count
    # around the slice length L (L - 1, L and L + 1 rows, then 2L + 1)
    slice_rows = cli.JSON_ROW_SLICE
    code, out, _ = run_cli(capsys, "conjecture", "2", "--order", "300",
                           "--reading", "literal", "--format", "json")
    assert code == cli.EXIT_COUNTEREXAMPLE
    assert json.dumps(json.loads(out)) + "\n" == out
    for rows in (slice_rows - 1, slice_rows, slice_rows + 1, 2 * slice_rows + 1):
        code, out, _ = run_cli(capsys, "expand", "p", "--order", str(rows - 1),
                               "--format", "json")
        assert code == 0
        assert json.dumps(json.loads(out)) + "\n" == out, rows
        assert [row["n"] for row in json.loads(out)["table"]["rows"]] == list(range(rows))
    # no command expands to 0 rows; the table writer gets them directly
    args = argparse.Namespace(format="json")
    cli._emit_table((), args, ["hexparity"], Stopwatch(), {"target": "p"})
    out = capsys.readouterr().out
    assert json.loads(out)["table"]["rows"] == []
    assert json.dumps(json.loads(out)) + "\n" == out


class CountingSink(list):
    """A stdout that keeps each write as one item."""

    def write(self, text: str) -> int:
        self.append(text)
        return len(text)

    def flush(self) -> None:
        pass


@pytest.mark.parametrize("argv, items", [
    ("conjecture 2 --order 300 --reading literal", "reports"),
    ("expand p --order 3000", "rows"),
])
def test_json_is_written_one_item_at_a_time(monkeypatch, argv, items):
    # no single write holds more than the document head and one report's
    # encoding, or one slice of rows: the whole document is never one string
    sink = CountingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    code = cli.main(argv.split() + ["--format", "json"])
    monkeypatch.undo()
    assert code in (cli.EXIT_PASS, cli.EXIT_COUNTEREXAMPLE)
    out = "".join(sink)
    doc = json.loads(out)
    opening = f'"{items}": ['
    head = out[:out.index(opening) + len(opening)]
    if items == "reports":
        encodings = [json.dumps(r) for r in doc["reports"]]
    else:
        rows = doc["table"]["rows"]
        encodings = [json.dumps(rows[lo:lo + cli.JSON_ROW_SLICE])[1:-1]
                     for lo in range(0, len(rows), cli.JSON_ROW_SLICE)]
    assert len(encodings) > 2
    longest = max(map(len, sink))
    assert longest <= len(head) + max(map(len, encodings))
    assert longest < len(out) // 2


def test_verify_theorem1_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "theorem1", "--s", "2",
                           "--order", "300")
    assert code == 0
    assert "PASS" in out


def test_verify_theorem1_bad_s(capsys):
    code, _, err = run_cli(capsys, "verify", "theorem1", "--s", "5")
    assert code == 2


def test_verify_fast_parity_matches_default(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "theorem1", "--s", "3",
                             "--order", "400", "--format", "json")
    code2, out2, _ = run_cli(capsys, "verify", "theorem1", "--s", "3",
                             "--order", "400", "--fast-parity", "--format", "json")
    assert code1 == code2 == 0
    r1 = json.loads(out1)["reports"][0]
    r2 = json.loads(out2)["reports"][0]
    assert r1["status"] == r2["status"]
    assert r1["violations"] == r2["violations"]
    assert (r1["params"]["path"], r2["params"]["path"]) == ("bigint", "parity")


def test_verify_id1(capsys):
    code, out, _ = run_cli(capsys, "verify", "id1", "--s", "4", "--k", "3",
                           "--order", "150")
    assert code == 0
    assert "id1.s4.k3" in out


def test_verify_rogers_all(capsys):
    code, out, _ = run_cli(capsys, "verify", "rogers", "--order", "100")
    assert code == 0
    assert out.count("PASS") == 4


def test_conjecture1_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "conjecture", "1", "--part", "1", "--s", "2",
                           "--k", "1..4", "--order", "200")
    assert code == 0


def test_conjecture_s_pairs(capsys):
    code, out, _ = run_cli(capsys, "conjecture", "s-pairs", "--order", "200",
                           "--format", "json")
    assert code == 0
    parsed = json.loads(out)
    assert len(parsed["reports"]) == 7
    assert all(r["status"] == "EMPIRICAL_PASS" for r in parsed["reports"])


def test_conjecture2_k_zero_usage_error(capsys):
    code, _, _ = run_cli(capsys, "conjecture", "2", "--part", "2", "--s", "3",
                         "--k", "0")
    assert code == 2


def test_conjecture2_literal_reading_gates_when_requested(capsys):
    # under --reading literal the counterexamples drive the exit status
    code, out, _ = run_cli(capsys, "conjecture", "2", "--part", "2", "--s", "1",
                           "--k", "1", "--order", "50", "--reading", "literal",
                           "--format", "json")
    assert code == 1
    parsed = json.loads(out)
    assert parsed["reports"][0]["status"] == "EMPIRICAL_COUNTEREXAMPLE"
    assert parsed["reports"][0]["violations"][0] == {"n": 2, "lhs": "-4", "rhs": "0"}


def test_conjecture2_default_includes_both_readings(capsys):
    code, out, _ = run_cli(capsys, "conjecture", "2", "--part", "2", "--s", "1",
                           "--k", "1", "--order", "50", "--format", "json")
    # the alternating reading passes, so the scan exits 0 even though the
    # literal reading's counterexamples are reported
    assert code == 0
    parsed = json.loads(out)
    readings = {r["params"]["inner_sign"] for r in parsed["reports"]}
    assert readings == {"alternating_j", "literal"}


def test_bad_k_range(capsys):
    for k in ("4..1", "abc", "1.."):
        code, out, err = run_cli(capsys, "conjecture", "1", "--k", k)
        assert (code, out) == (2, ""), k
        assert "invalid k range" in err, k


def test_verify_set_equivalence_small_bound(capsys):
    code, out, _ = run_cli(capsys, "verify", "set-equivalence", "--s", "2",
                           "--order", "2000", "--format", "json")
    assert code == 0
    parsed = json.loads(out)
    ids = {r["check_id"] for r in parsed["reports"]}
    assert ids == {"set_equivalence.mod120.s2", "set_equivalence.mod20.s2"}


@pytest.mark.parametrize("argv", [
    "verify theorem1 --order -1",
    "verify theorem1 --order -1 --fast-parity",
    "verify corollary2 --order -1",
    "verify id1 --order -1",
    "verify id2 --order -1",
    "verify rogers --order -1",
    "verify gauss --order -1",
    "verify truncated-gauss --order -1",
    "verify set-equivalence --order -5",
    "verify cross-validate --order -1",
    "conjecture 1 --order -1",
    "conjecture 2 --order -1",
    "conjecture s-pairs --order -2",
    "expand p --order -3",
    "expand G --order -1",
    "expand R --s 2 --order -1",
])
def test_negative_order_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    # --k on a check with no k values
    ("verify rogers --k 3", "rogers takes no --k"),
    ("conjecture s-pairs --k 1..2", "s-pairs takes no --k"),
    # --fast-parity on a check with no GF(2) path
    ("verify rogers --fast-parity", "rogers has no --fast-parity path"),
    ("verify gauss --fast-parity --order 10", "gauss has no --fast-parity path"),
    # --part or --s where no instance carries that key
    ("verify cross-validate --part 1", "cross-validate takes no --part"),
    ("verify set-equivalence --part 2 --s 1", "set-equivalence takes no --part"),
    ("verify gauss --s 2", "gauss takes no --s"),
    ("verify truncated-gauss --s 2 --k 1", "truncated-gauss takes no --s"),
    # --reading on a scan with no readings
    ("conjecture 1 --reading j --order 20", "1 takes no --reading"),
    ("conjecture s-pairs --reading literal", "s-pairs takes no --reading"),
    # --part and --s that each fit an instance but select none together
    ("conjecture 1 --part 2 --s 2", "1 has no instance with the given --part/--s"),
    # --s on an expand target that takes none
    ("expand p --s 2", "p takes no --s"),
    ("expand G --s 7", "G takes no --s"),
    ("expand H --s 1 --order 5 --format json", "H takes no --s"),
])
def test_flag_a_check_ignores_is_a_usage_error(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv.split())
    assert code == cli.EXIT_USAGE == 2
    assert out == ""
    # each message names the command, then the check or target
    assert err == f"error: {argv.split()[0]} {message}\n"


@pytest.mark.parametrize("argv", [
    "expand p --order 100000000000000000000",
    "verify corollary2 --order 100000000000000000000",
])
def test_internal_error_exits_3(capsys, argv):
    # an order past the platform's list size fails inside the program; that
    # must not read as exit 1, which means a counterexample
    code, out, err = run_cli(capsys, *argv.split())
    assert code == cli.EXIT_INTERNAL == 3
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("internal error: OverflowError: ")
    assert "Traceback" not in err


def test_inexact_recurrence_exits_3(capsys, monkeypatch):
    # a remainder in the product recurrence is a fault of the program: it
    # must raise and exit 3, never be rounded into a PASS or a violation
    from fractions import Fraction

    import hexparity.series as series

    monkeypatch.setattr(series, "_binomial_exponents",
                        lambda num, den, order: (1, [0, Fraction(1, 2)] + [0] * (order - 1)))
    code, out, err = run_cli(capsys, "verify", "gauss", "--order", "10")
    assert code == cli.EXIT_INTERNAL == 3
    assert out == ""
    assert err.startswith("internal error: ArithmeticError: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_is_not_an_internal_error(unbuffered):
    # the reader closes the pipe before anything is written, as `| head`
    # does after its lines: the run keeps its own status and says nothing.
    # Unbuffered, the write inside main fails; buffered, the final flush
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    # csv, then a JSON table written in several slices
    for argv in ("conjecture 1 --order 20 --format csv",
                 "expand p --order 3000 --format json"):
        proc = subprocess.Popen(
            [sys.executable, "-c",
             "import sys; from hexparity.cli import main; sys.exit(main(sys.argv[1:]))",
             *argv.split()],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) in (cli.EXIT_PASS, cli.EXIT_COUNTEREXAMPLE), argv
        assert "internal error" not in err, argv
        assert "Traceback" not in err, argv


def test_verify_choices_are_the_registry():
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    for command, dest in (("verify", "check"), ("conjecture", "which")):
        positional = next(a for a in subparsers.choices[command]._actions if a.dest == dest)
        assert list(positional.choices) == list(REGISTRY[command])


# (exit status, sha256 of the --format json document without its timing
# fields) of each command at small orders: any change to ids, params,
# statuses, violations, details or expand rows shows up here
STABLE_OUTPUTS = {
    "verify theorem1 --order 300": (0, "c40979a8da6152e9a837069acdb9b08adff8ba835f71ac8e81d3922594b481f9"),
    "verify theorem1 --order 300 --fast-parity": (0, "c68d620a710bf198008faa2571279e4267fc3c2a3da2ef41ffe04239d7997827"),
    "verify theorem1 --part 2 --s 3 --order 200": (0, "cf837fb63bfe193a5d103a8d7eda43a043cc4f7607c3674fc9ffe7b41e910556"),
    "verify corollary2 --order 300": (0, "3f5ecee6fc0b5b774a23079d6d59fbf82428bf4c528909bb4ada850fb6e09978"),
    "verify id1 --order 60": (0, "e70ed0422b1ec390606d524c83d55c6183fa38d417f3d52f2cba581058c6dc72"),
    "verify id2 --s 3 --k 2..3 --order 60": (0, "41f6c69fc770abc791d3162380c8b70a2650ea86cfb0b60fbdd2ae54d795fbf3"),
    "verify rogers --order 120": (0, "c929acf7baf791990a6a694e54fb879feef227c611390c90552c05535130adaa"),
    "verify rogers --s 3 --order 80": (0, "be7a25f6f7b95b0d1e10fbc0e6bac66259f7fbe9c14ba3caa02bd70fc3089b13"),
    "verify gauss --order 200": (0, "47874b1a5219bf2c9ce84c282de8f166b92fd64c514f5dc5e207d2dfcdf7effa"),
    "verify truncated-gauss --order 80": (0, "e86fbfcf6225dba6903a69edc56bf87587171ce1c25e95d1f0560a0e71da0a6a"),
    "verify set-equivalence --order 5000": (0, "be5e69a7603c85337e3abd638cbf03be0b5b3f86ea1ccf1fca90db8945416e0e"),
    "verify cross-validate --order 120": (0, "dad0ecd4dce36ded60d5119aeacd45dbd9602c01a9fd135f738ec3b6614114a4"),
    "conjecture 1 --order 100": (0, "e3141efd8f22d914dbb6ee9a458baf6a7ee348ffa881c0987a789651b59499d2"),
    "conjecture 2 --order 100": (0, "db12e331905d5534a83eb4e2be6d8e5ae54887479df84509b17886548163bccb"),
    "conjecture 2 --part 2 --s 1 --k 1..2 --order 60 --reading literal": (1, "43d2f1e56c7710a8e3643b3937bd6b82b8b4f0c381cc8c928840274735bc7322"),
    "conjecture 2 --part 1 --s 4 --k 3 --order 60 --reading j": (0, "03b5836513118a69920bd27c97616247bd27874ca4b0c4a7c661d0fecaf5029e"),
    "conjecture s-pairs --order 200": (0, "5c24a62194d9a1875f48d00e632545387d61bc98143db3484c19194452f095dc"),
    "expand p --order 30": (0, "30d5249a5ae0da62473cc04b1ebffa20563a54ed90cdfe1f1bc7f2a855d14e13"),
    "expand R --s 2 --order 30": (0, "b2d35afc9fe138f1a376ba405a0b7d0014f4fa7372a902d12b02e6ba76c71a00"),
    "expand Rstar --s 3 --order 30": (0, "4c1137e23f24c6da96158b8c5502b63d7e6801698c104526b6aeff018680f699"),
    "expand G --order 30": (0, "f4e80a4aacb10efbc40b43e6810de88b1989333424a79c1d366becf82115eed5"),
    "expand H --order 30": (0, "2b9a9bb468f48a38a5bc3ae2f671f3a6e5d7437f04242c2b3a624794aefaafb4"),
    "expand regime3 --s 4 --order 30": (0, "87b0f322a6ea64d36cbe2754cf9feb8e13564b9fdb8b08fb93a736c3e5598a82"),
    "expand regime4 --s 1 --order 30": (0, "dc4aa0cc2012c29e7a4078ff7b7f7a19a916d43b6b5e0990f83d9d8bd0a6145a"),
    "expand eq41 --s 2 --order 30": (0, "2758201d95f723a507e03b75fd14888bb04be573d2d7604e8d809e70ebb56f3a"),
    "expand eq42 --s 3 --order 30": (0, "f4cbf5f728119aec2ea83fc66f0de88dbf3a214d9106c4f92283c37df9e7feae"),
    "expand indicator --s 1 --order 30": (0, "9dbeeb78da3d9761e3c0ae8b26ad64415862ad25b0d11415ba038fd3cc915840"),
}


def _stable_digest(out: str) -> str:
    doc = json.loads(out)
    doc.pop("total_elapsed_ms")
    for report in doc.get("reports", []):
        report.pop("elapsed_ms")
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("argv", sorted(STABLE_OUTPUTS))
def test_json_output_is_stable(capsys, argv):
    code, out, _ = run_cli(capsys, *argv.split(), "--format", "json")
    assert (code, _stable_digest(out)) == STABLE_OUTPUTS[argv]
