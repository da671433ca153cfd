"""hexparity benchmark: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1
    python3 perfbench/run.py ... --out results.jsonl   # also append the record
    python3 perfbench/run.py --compare BASE.jsonl NEW.jsonl

Run from the root of a checkout; only the standard library is used.  The
workloads are `theta-and-cli`, `partition-counts` and `parity-scans` (see
workloads.py for why each exists).

Each workload runs in a fresh interpreter (`worker.py`), one process at a
time.  With `--trace 0` the result holds the end-to-end metrics:

- wall_s: one pass's wall time after import, each operation taken at its
  fastest over the run's passes (see `worker.pass_wall` for why);
- setup_s: median over SETUP_SAMPLES fresh interpreters, taken before and
  after the measuring one, of the time from starting the interpreter to the
  first timed call (import plus input construction);
- peak_rss_mb: `ru_maxrss` of the measuring process.

With `--trace 1` the worker makes untraced passes, then traced ones in
which spans.py wraps the package's public functions, and the result holds
the per-layer metrics (self time, calls and exact counts per module, and
the tracing overhead).  The operations that raised, returned an unexpected
status or mismatched their digest are the result's `failed` count, out of
`attempted`.

The last line of standard output is the result as one JSON object; the
lines before it describe the environment, the inputs and (traced) the
share of time per layer.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

SETUP_SAMPLES = 9  # half before the measuring worker, half after
RUN_LIMIT_S = 170  # every run ends well within 180 s

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class RunFailed(RuntimeError):
    pass


def git_revision(root: Path) -> str | None:
    """HEAD's commit read from .git without running git, or None."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def source_digest(root: Path) -> str:
    """SHA-256 over the package sources, which identifies the program when
    the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    try:
        loadavg = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        loadavg = None
    return {
        "git_revision": git_revision(ROOT),
        "source_sha256": source_digest(ROOT),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": loadavg,
    }


def run_worker(args: list[str], deadline: float) -> tuple[float, dict]:
    """Start one worker, wait for it; returns (start time, its result)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunFailed("run time limit reached")
    t0 = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"worker exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"worker {args[0]} exited with {proc.returncode}")
    return t0, json.loads(lines[-1])


def run_benchmark(opts) -> tuple[dict, dict]:
    deadline = time.monotonic() + RUN_LIMIT_S
    common = ["--workload", opts.workload, "--seed", str(opts.seed),
              "--scale", repr(opts.scale)]
    cpus = sorted(os.sched_getaffinity(0))
    setups: list[float] = []

    def sample_setups(count: int) -> None:
        # each sample on the next CPU in turn (see worker.Pass for why)
        for _ in range(count):
            os.sched_setaffinity(0, {cpus[len(setups) % len(cpus)]})
            try:
                t0, out = run_worker(["setup", *common], deadline)
            finally:
                os.sched_setaffinity(0, cpus)
            setups.append(out["t_first"] - t0)

    if not opts.trace:
        sample_setups(SETUP_SAMPLES // 2)
    t0, out = run_worker(["measure", *common, "--seconds", repr(float(opts.seconds)),
                          "--trace", str(opts.trace)], deadline)
    setups.append(out["t_first"] - t0)
    if not opts.trace:
        sample_setups(SETUP_SAMPLES - len(setups))

    correct = (out["failed"] == 0 and out["digests_equal"]
               and out.get("counts_exact", True))
    if opts.trace:
        metrics = {name: {"value": out["per_layer"][name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        values = {"wall_s": out["wall_s"],
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": out["peak_rss_kb"] / 1024}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    result = {"correct": correct, "attempted": out["attempted"],
              "failed": out["failed"], "metrics": metrics}
    out["setup_samples_s"] = setups
    del out["t_first"]
    return result, out


def print_summary(detail: dict) -> None:
    passes = [sum(p) for p in detail["op_s"]]
    print(f"# inputs {json.dumps(detail['inputs'])}")
    print(f"# {len(passes)} passes, median {statistics.median(passes):.4f} s, "
          f"range {min(passes):.4f}..{max(passes):.4f} s; wall_s {detail['wall_s']:.4f} s; "
          f"setup samples {', '.join(f'{t:.4f}' for t in detail['setup_samples_s'])} s")
    if detail["failed_ops"]:
        print(f"# FAILED operations: {', '.join(detail['failed_ops'])}")
    layer = detail.get("per_layer")
    if layer:
        names = sorted((k for k in layer if k.endswith(".self_s") and k != "trace.self_s"),
                       key=lambda k: -layer[k])
        program = sum(layer[k] for k in names)
        print(f"# traced wall_s {detail['traced_wall_s']:.4f} s over "
              f"{len(detail['traced_op_s'])} passes, {layer['trace.self_s']:.4f} s of it "
              f"in coefficient-size scans; self time in the program by layer:")
        for name in names:
            print(f"#   {name[:-7]:14s} {layer[name]:9.4f} s  {100 * layer[name] / program:5.1f}%")


def compare(base_path: Path, new_path: Path) -> None:
    """For each (workload, metric): both medians, their ratio and its base."""

    def load(path):
        values: dict[tuple[str, str], list[float]] = {}
        units: dict[tuple[str, str], str] = {}
        for line in path.read_text().splitlines():
            if not line.strip():
                continue
            rec = json.loads(line)
            for name, m in rec["result"]["metrics"].items():
                key = (rec["workload"], name)
                values.setdefault(key, []).append(m["value"])
                units[key] = m["unit"]
        return values, units

    base, units = load(base_path)
    new, _ = load(new_path)
    print(f"{'workload':18s} {'metric':24s} {'base median':>14s} {'new median':>14s} "
          f"{'new/base':>9s} {'unit':>6s}  runs base/new")
    for key in sorted(set(base) & set(new)):
        b, n = statistics.median(base[key]), statistics.median(new[key])
        ratio = f"{n / b:9.3f}" if b else f"{'-':>9s}"
        print(f"{key[0]:18s} {key[1]:24s} {b:14.6g} {n:14.6g} {ratio} {units[key]:>6s}  "
              f"{len(base[key])}/{len(new[key])}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiply the scaled workloads' orders (smoke test)")
    ap.add_argument("--out", type=Path, help="append the run's record to this JSONL file")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("BASE", "NEW"))
    opts = ap.parse_args(argv)

    if opts.compare:
        compare(*opts.compare)
        return 0
    if not opts.workload:
        ap.error("--workload is required")
    if not 0 < opts.scale <= 1:
        ap.error("--scale must be in (0, 1]")

    env = environment()
    try:
        result, detail = run_benchmark(opts)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"# env {json.dumps(env)}")
    print_summary(detail)
    if opts.out:
        record = {"workload": opts.workload, "seed": opts.seed, "seconds": opts.seconds,
                  "trace": opts.trace, "scale": opts.scale, "env": env,
                  "detail": detail, "result": result}
        with opts.out.open("a") as f:
            f.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
