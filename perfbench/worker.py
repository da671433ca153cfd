"""One workload in one fresh, single-threaded interpreter.

    python3 perfbench/worker.py setup   --workload W --seed S [--scale F]
    python3 perfbench/worker.py measure --workload W --seed S --seconds T
                                        --trace 0|1 [--scale F]

Both modes import the package from `src/` next to this directory and build
the workload's inputs, then print the monotonic clock reading taken just
before the first timed call (so the caller, which read the same clock before
starting this process, gets the set-up time).  `setup` stops there.

`measure` runs passes over the workload's operations until `--seconds` is
used up (at least one), timing each operation; the correctness checks run
between operations, outside the timings.  With `--trace 1` the first half
of the budget runs untraced and the rest traced; the per-layer numbers are
medians over the traced passes and the tracing overhead is the traced
wall_s minus the untraced one.

The last line of standard output is one JSON object for `run.py`.  This
process starts no threads and no processes.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# per-layer metrics: (name, unit); every one is emitted on every workload
PER_LAYER = (
    ("series.bigint.self_s", "s"),
    ("series.bigint.calls", "count"),
    ("series.coeff_bits_max", "bits"),
    ("series.gf2.self_s", "s"),
    ("series.gf2.calls", "count"),
    ("partitions.self_s", "s"),
    ("partitions.p_table.s", "s"),
    ("partitions.calls", "count"),
    ("theta.self_s", "s"),
    ("theta.bilateral_sum.s", "s"),
    ("theta.calls", "count"),
    ("squares.self_s", "s"),
    ("squares.calls", "count"),
    ("checks.self_s", "s"),
    ("checks.points", "count"),
    ("checks.reports", "count"),
    ("report.self_s", "s"),
    ("cli.self_s", "s"),
    ("cli.bytes_out", "bytes"),
    ("trace.overhead_s", "s"),
)
EXACT_COUNTS = ("series.bigint.calls", "series.gf2.calls", "partitions.calls",
                "theta.calls", "squares.calls", "checks.points", "checks.reports",
                "series.coeff_bits_max")
PROGRAM_LAYERS = ("series.bigint", "series.gf2", "partitions", "theta",
                  "squares", "checks", "report", "cli")


def import_program():
    """Import hexparity from this checkout's `src/`, never from elsewhere."""
    if not (SRC / "hexparity" / "__init__.py").is_file():
        raise SystemExit(f"error: no hexparity package under {SRC}")
    sys.path.insert(0, str(SRC))
    import hexparity

    if Path(hexparity.__file__).resolve().parent != (SRC / "hexparity").resolve():
        raise SystemExit(f"error: imported hexparity from {hexparity.__file__}")
    return hexparity


def pass_wall(op_times: list[list[float]]) -> float:
    """wall_s of a run: one pass, each operation at its fastest time.

    Interference from other work on a shared host only ever adds time, and
    on this kind of host it comes in phases of tens of seconds, so the
    per-operation minimum is the estimate it moves least.
    """
    return sum(min(times) for times in zip(*op_times))


class Pass:
    """Outcome of one pass over a workload's operations.

    Operation i of pass k runs on CPU (i + k) mod len(cpus) of the CPUs this
    process may use.  On a virtual machine each CPU is a host thread that
    other tenants slow down independently, so rotating gives every
    operation's minimum a sample on each of them.
    """

    def __init__(self, workload, digest, cpus: list[int], k: int) -> None:
        self.op_s: list[float] = []
        self.failed: list[str] = []
        self.bytes_out = 0
        materials = []
        state: dict = {}
        for i, op in enumerate(workload.ops):
            os.sched_setaffinity(0, {cpus[(i + k) % len(cpus)]})
            t0 = perf_counter_ns()
            try:
                result = op.run(state)
            except (Exception, SystemExit) as exc:  # counted as failed, not fatal
                self.op_s.append((perf_counter_ns() - t0) / 1e9)
                self._fail(op.name, f"raised {exc!r}")
                materials.append([op.name, "raised", repr(exc)])
                continue
            self.op_s.append((perf_counter_ns() - t0) / 1e9)
            try:
                ok, material = op.check(result)
            except Exception as exc:  # malformed output is a wrong result
                ok, material = False, ["check raised", repr(exc)]
            if op.prints:
                self.bytes_out += len(result[1].encode())
            if not ok:
                self._fail(op.name, f"gave a wrong result: {material!r:.300}")
            materials.append([op.name, material])
        self.digest = digest(materials)

    def _fail(self, name: str, why: str) -> None:
        self.failed.append(name)
        print(f"operation {name} {why}", file=sys.stderr)


def run_passes(workload, digest, budget_s: float, after_pass=None) -> list[Pass]:
    """Passes until the next one would overrun `budget_s` (at least one)."""
    cpus = sorted(os.sched_getaffinity(0))
    passes = []
    start = time.monotonic()
    try:
        while True:
            t0 = time.monotonic()
            passes.append(Pass(workload, digest, cpus, len(passes)))
            if after_pass is not None:
                after_pass(passes[-1])
            now = time.monotonic()
            if (now - start) + (now - t0) > budget_s:
                return passes
    finally:
        os.sched_setaffinity(0, cpus)


def layer_metrics(tracer, bytes_out: int) -> dict:
    totals = tracer.layer_totals()
    layers, by_name = totals["layers"], totals["by_name_ns"]

    def self_s(layer):
        return layers.get(layer, {}).get("self_ns", 0) / 1e9

    def calls(layer):
        return layers.get(layer, {}).get("calls", 0)

    out = {f"{layer}.self_s": self_s(layer) for layer in (*PROGRAM_LAYERS, "trace")}
    for layer in ("series.bigint", "series.gf2", "partitions", "theta", "squares"):
        out[f"{layer}.calls"] = calls(layer)
    out["series.coeff_bits_max"] = tracer.coeff_bits_max
    out["partitions.p_table.s"] = by_name.get("partitions:p_table", 0) / 1e9
    out["theta.bilateral_sum.s"] = by_name.get("theta:bilateral_sum", 0) / 1e9
    out["checks.points"] = tracer.points
    out["checks.reports"] = tracer.reports
    out["cli.bytes_out"] = bytes_out
    return out


def measure(workload, digest, seconds: float, trace: bool) -> dict:
    untraced = run_passes(workload, digest, seconds / 2 if trace else seconds)
    passes = list(untraced)
    out = {"op_names": [op.name for op in workload.ops],
           "op_s": [p.op_s for p in untraced],
           "wall_s": pass_wall([p.op_s for p in untraced]),
           "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
           "inputs": workload.inputs}
    if trace:
        from spans import Tracer

        tracer = Tracer()
        rows: list[dict] = []

        def collect(p: Pass) -> None:
            rows.append(layer_metrics(tracer, p.bytes_out))
            tracer.reset()

        tracer.install()
        try:
            traced = run_passes(workload, digest, seconds / 2, after_pass=collect)
        finally:
            tracer.remove()
        passes += traced
        traced_wall = pass_wall([p.op_s for p in traced])
        layer = {k: rows[0][k] if k in EXACT_COUNTS else statistics.median(row[k] for row in rows)
                 for k in rows[0]}
        layer["trace.overhead_s"] = traced_wall - out["wall_s"]
        out.update(traced_op_s=[p.op_s for p in traced], traced_wall_s=traced_wall,
                   per_layer=layer,
                   counts_exact=all(row[k] == rows[0][k] for row in rows
                                    for k in EXACT_COUNTS))
    out.update(attempted=len(workload.ops) * len(passes),
               failed=sum(len(p.failed) for p in passes),
               failed_ops=sorted({name for p in passes for name in p.failed}),
               digest=passes[0].digest,
               digests_equal=len({p.digest for p in passes}) == 1)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("setup", "measure"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0)
    args = ap.parse_args(argv)

    import_program()
    import workloads

    try:
        workload = workloads.build(args.workload, args.seed, args.scale)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    t_first = time.monotonic()
    out = {"t_first": t_first}
    if args.mode == "measure":
        out.update(measure(workload, workloads.digest, args.seconds, bool(args.trace)))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
