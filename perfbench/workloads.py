"""The benchmark's three workloads, built from a seed.

A workload is a list of operations.  Each operation calls the package's
public API the way a user would and has a check that says whether its
output is correct and what goes into the pass digest.  Functions are looked
up on their module at call time, so the traced run sees the wrappers.

Why these three:

- theta-and-cli: every `hexparity` command at its default order, in
  process, as users run it, then identity sides at N ~ 3000-4000 whose
  final coefficients fit in a machine word.  Binomial passes and
  `TruncatedSeries.__mul__` on small ints do most of the work; this is
  where a packed-integer kernel should win.  The CLI commands carry the
  `report` and `cli` layers and the digests that pin their output.
- partition-counts: the same series kernels on multi-limb coefficients
  (rogers regime III/IV, cross-validation, theorem1 on the bigint path),
  plus the `partitions` DP and the bilateral decompositions.  A kernel
  change that wins on small coefficients but loses on large ones shows
  here, apart from theta-and-cli.
- parity-scans: theorem1 on the GF(2) path at N ~ 10^6 and the
  p(n)-parity convolutions of corollary2 and the S-pair scans on one shared
  p table.  `ParitySeries`, `checks` and `squares` carry it; bigint
  products do almost nothing.

The seed moves every order by up to ORDER_JITTER and picks the k values
and the instances that are run one at a time; `scale` shrinks all orders,
for the smoke test.  The CLI commands always run at their default orders,
because their outputs are compared with digests recorded at those orders.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from typing import Callable

import hexparity.checks as checks
import hexparity.cli as cli
import hexparity.partitions as partitions
import hexparity.theta as theta
from hexparity.report import EMPIRICAL_PASS, PASS

ORDER_JITTER = 0.02


@dataclass
class Op:
    """One operation: `run` does the program's work (timed); `check` maps
    its result to (correct, digest material) outside the timed region."""

    name: str
    run: Callable[[dict], object]
    check: Callable[[object], tuple[bool, object]]
    prints: bool = False  # result is (exit status, captured stdout)


@dataclass
class Workload:
    ops: list[Op]
    inputs: dict


def digest(material) -> str:
    text = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _violations(report) -> list:
    return [[v.n, str(v.lhs), str(v.rhs)] for v in report.violations]


def _expect(status: str):
    """Check for an operation returning one CheckReport."""

    def check(report):
        return report.status == status, [report.check_id, report.status,
                                         _violations(report)]

    return check


def _sides_agree(result):
    lhs, rhs = result
    n = min(lhs.order, rhs.order)
    bad = [[i, str(lhs.coeffs[i]), str(rhs.coeffs[i])]
           for i in range(n + 1) if lhs.coeffs[i] != rhs.coeffs[i]]
    ok = not bad and n == lhs.order == rhs.order
    return ok, [n, PASS if ok else "FAIL", bad]


# ---------------------------------------------------------------------------
# every CLI command at its default order
# ---------------------------------------------------------------------------

CLI_COMMANDS = (
    ("verify", "theorem1"),
    ("verify", "corollary2"),
    ("verify", "id1"),
    ("verify", "id2"),
    ("verify", "rogers"),
    ("verify", "gauss"),
    ("verify", "truncated-gauss"),
    ("verify", "set-equivalence"),
    ("verify", "cross-validate"),
    ("verify", "theorem1", "--fast-parity"),
    ("conjecture", "1"),
    ("conjecture", "2"),
    ("conjecture", "s-pairs"),
    ("expand", "p", "--order", "2000"),
    ("expand", "R", "--s", "2"),
    ("expand", "Rstar", "--s", "3"),
)

# Output of each command at the package's default orders: exit status,
# report count per status and the digest of check ids, statuses,
# violations and expand rows (timing and other fields are not hashed).
CLI_EXPECTED = {
    "verify theorem1": (0, {"PASS": 4}, "457e2e8329fa2d7fa42a38417714b15514e2cb01b473d570135b6a22968cfef1"),
    "verify corollary2": (0, {"PASS": 4}, "5aac76a0f4c04bd4f42cf6661fbf94979f316d41a2b21e4a69c5a7552b00cfc3"),
    "verify id1": (0, {"PASS": 10}, "b94a17f99c4827a013bd47944bb70ac391eafef31d8c31024d2422dcf6e76b0b"),
    "verify id2": (0, {"PASS": 10}, "1a4ae586e189e2505b64f422ec6e82edb554b7321a6f040e683891989dd32126"),
    "verify rogers": (0, {"PASS": 4}, "e6415f063fa1c383db7b241e40d3ebfa875ffe7282630c1042fdf8b997d0c61a"),
    "verify gauss": (0, {"PASS": 1}, "22afde3b031c3957a8f5da552535ac590d206e27c572448a82dfecdeb9de30fb"),
    "verify truncated-gauss": (0, {"PASS": 10}, "7bd0a3cd57c6c35a5e4a80b83e3096e0cc0c00aed07c8ed6d15e3538b002a555"),
    "verify set-equivalence": (0, {"PASS": 8}, "18e4f0b2ab9a63161e68b68db848d7f9c2200b6a68b776b7b4404af6b7eb75ac"),
    "verify cross-validate": (0, {"PASS": 4}, "46a9e001e723b9d6476bd752c4d02a082aa7f0845ddc3bba16df917e000f9330"),
    "verify theorem1 --fast-parity": (0, {"PASS": 4}, "457e2e8329fa2d7fa42a38417714b15514e2cb01b473d570135b6a22968cfef1"),
    "conjecture 1": (0, {"EMPIRICAL_PASS": 16}, "8f23a8cb53f9f50eb4fa3a4c741049e84b12a4caca0a55b978dcc3bd190acb5d"),
    "conjecture 2": (0, {"EMPIRICAL_PASS": 28, "EMPIRICAL_COUNTEREXAMPLE": 4}, "2c307a434d49e31baaac7b443fb4d7aa3de417a0836f49f1ec0f28af56e2de4d"),
    "conjecture s-pairs": (0, {"EMPIRICAL_PASS": 7}, "58751bbdff787733ad2e538693b5b17debe85752b352575696f7e862d6101fd7"),
    "expand p --order 2000": (0, {}, "7afa06f3ba9eb05d546c32ac931fac6acedf82b4d83b4f8b4ddaed40b158e8d1"),
    "expand R --s 2": (0, {}, "3df23149b56f23475f85fcb300afcbc64e3ab18de474eb379afef5d9fb554304"),
    "expand Rstar --s 3": (0, {}, "813e254eb4cb526c5565fc3f1e16679a13497520174a7dd8972c4fbcddf64466"),
}


def _cli_material(doc: dict) -> tuple[dict, object]:
    if "table" in doc:
        rows = [[r["n"], r["coefficient"]] for r in doc["table"]["rows"]]
        return {}, rows
    statuses: dict[str, int] = {}
    material = []
    for r in doc["reports"]:
        statuses[r["status"]] = statuses.get(r["status"], 0) + 1
        material.append([r["check_id"], r["status"],
                         [[v["n"], v["lhs"], v["rhs"]] for v in r["violations"]]])
    return statuses, material


def run_cli(argv: list[str]) -> tuple[int, str]:
    """`hexparity <argv>` in process, returning (exit status, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(argv)
    return status, out.getvalue()


def _cli_outcome(result) -> tuple[int, dict, str]:
    status, text = result
    statuses, material = _cli_material(json.loads(text))
    return status, statuses, digest(material)


def _cli_check(key: str):
    def check(result):
        outcome = _cli_outcome(result)
        return outcome == CLI_EXPECTED.get(key), list(outcome)

    return check


def _cli_ops() -> list[Op]:
    ops = []
    for command in CLI_COMMANDS:
        argv = list(command) + ["--format", "json"]
        key = " ".join(command)
        ops.append(Op(key, lambda state, argv=argv: run_cli(argv), _cli_check(key),
                      prints=True))
    return ops


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------


class _Orders:
    """Seeded orders: base * scale, moved by up to ORDER_JITTER."""

    def __init__(self, rng: random.Random, scale: float) -> None:
        self.rng = rng
        self.scale = scale
        self.chosen: dict[str, int] = {}

    def __call__(self, key: str, base: int) -> int:
        jitter = 1 + self.rng.uniform(-ORDER_JITTER, ORDER_JITTER)
        n = max(20, round(base * self.scale * jitter))
        self.chosen[key] = n
        return n


def _theta_and_cli(rng: random.Random, scale: float) -> Workload:
    order = _Orders(rng, scale)
    ops = _cli_ops()

    def sides(name, function, *args):
        ops.append(Op(name, lambda state: getattr(theta, function)(*args), _sides_agree))

    sides("gauss", "gauss_theta_sides", order("gauss", 4000))
    for s in (2, 4):
        sides(f"eq41.s{s}", "eq41_sides", s, order(f"eq41.s{s}", 3000))
    for s in (1, 3):
        sides(f"eq42.s{s}", "eq42_sides", s, order(f"eq42.s{s}", 3000))
    sides("jtp", "jtp_sides", -1, 1, -1, 5, order("jtp", 3000))
    sides("quintuple", "quintuple_sides",
          theta.Monomial(-1, 1), theta.Monomial(-1, 5), order("quintuple", 3000))

    ks = {}
    for s in (2, 4):
        k = ks[f"id1.s{s}"] = rng.randint(1, 8)
        n = order(f"id1.s{s}", 1000)
        ops.append(Op(f"id1.s{s}.k{k}",
                      lambda state, s=s, k=k, n=n: checks.check_identity_id1(s, k, n),
                      _expect(PASS)))
    for s in (1, 3):
        k = ks[f"id2.s{s}"] = rng.randint(1, 8)
        n = order(f"id2.s{s}", 1000)
        ops.append(Op(f"id2.s{s}.k{k}",
                      lambda state, s=s, k=k, n=n: checks.check_identity_id2(s, k, n),
                      _expect(PASS)))
    for i, k in enumerate(sorted(rng.sample(range(1, 11), 2))):
        ks[f"truncated_gauss.{i}"] = k
        n = order(f"truncated_gauss.k{k}", 1000)
        ops.append(Op(f"truncated_gauss.k{k}",
                      lambda state, k=k, n=n: (theta.truncated_gauss_lhs(k, n),
                                               theta.truncated_gauss_rhs(k, n)),
                      _sides_agree))
    return Workload(ops, {"commands": [" ".join(c) for c in CLI_COMMANDS],
                          "orders": order.chosen, "k": ks})


def _partition_counts(rng: random.Random, scale: float) -> Workload:
    order = _Orders(rng, scale)
    ops = []
    for s in (2, 4):
        n = order(f"rogers.regime3.s{s}", 3000)
        ops.append(Op(f"rogers.regime3.s{s}",
                      lambda state, s=s, n=n: (theta.regime3_sum(s, n),
                                               theta.regime3_product(s, n)),
                      _sides_agree))
    for s in (1, 3):
        n = order(f"rogers.regime4.s{s}", 3000)
        ops.append(Op(f"rogers.regime4.s{s}",
                      lambda state, s=s, n=n: (theta.regime4_sum(s, n),
                                               theta.regime4_product(s, n)),
                      _sides_agree))
    s3, s4 = rng.choice((2, 4)), rng.choice((1, 3))
    n3, n4 = order("cross_validate.regime3", 2500), order("cross_validate.regime4", 2500)
    ops.append(Op(f"cross_validate.regime3.s{s3}",
                  lambda state: checks.cross_validate(partitions.regime3_rule(s3), n3),
                  _expect(PASS)))
    ops.append(Op(f"cross_validate.regime4.s{s4}",
                  lambda state: checks.cross_validate(partitions.regime4_rule(s4), n4),
                  _expect(PASS)))
    part, s = rng.choice(((1, 2), (1, 4), (2, 1), (2, 3)))
    n = order("theorem1.bigint", 10_000)
    ops.append(Op(f"theorem1.part{part}.s{s}.bigint",
                  lambda state: checks.check_theorem1(part, s, n),
                  _expect(PASS)))
    return Workload(ops,
                    {"orders": order.chosen,
                     "instances": {"cross_validate": [s3, s4], "theorem1": [part, s]}})


def _parity_scans(rng: random.Random, scale: float) -> Workload:
    order = _Orders(rng, scale)
    ops = []
    instances = ((1, 2), (1, 4), (2, 1), (2, 3))
    for part, s in instances:
        n = order(f"theorem1.part{part}.s{s}.parity", 1_000_000)
        ops.append(Op(f"theorem1.part{part}.s{s}.parity",
                      lambda state, part=part, s=s, n=n: checks.check_theorem1(
                          part, s, n, use_parity_fastpath=True),
                      _expect(PASS)))

    n_p = order("p_table", 20_000)

    def build_table(state):
        state["p"] = partitions.p_table(n_p)
        return state["p"]

    def check_table(table):
        ok = table.n_max == n_p and table.values[:8] == (1, 1, 2, 3, 5, 7, 11, 15)
        return ok, [table.n_max, digest([str(v) for v in table.values[-4:]])]

    ops.append(Op("p_table", build_table, check_table))
    for part, s in instances:
        ops.append(Op(f"corollary2.part{part}.s{s}",
                      lambda state, part=part, s=s: checks.check_corollary2(
                          part, s, n_p, p=state["p"]),
                      _expect(PASS)))
    for a, b in checks.S_PAIRS:
        ops.append(Op(f"spair.a{a}.b{b}",
                      lambda state, a=a, b=b: checks.check_s_pair(a, b, n_p, p=state["p"]),
                      _expect(EMPIRICAL_PASS)))
    return Workload(ops, {"orders": order.chosen})


_WORKLOADS = {
    "theta-and-cli": _theta_and_cli,
    "partition-counts": _partition_counts,
    "parity-scans": _parity_scans,
}


def build(name: str, seed: int, scale: float = 1.0) -> Workload:
    """The workload's operations and the inputs they were given."""
    if name not in _WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(_WORKLOADS)}")
    rng = random.Random(f"{name}:{seed}")
    return _WORKLOADS[name](rng, scale)
