"""Smoke test of the benchmark itself (not collected by pytest).

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json at tiny orders (the CLI commands at
their default orders, which are small): once untraced and twice traced with
the same seed.  It asserts that each result has exactly the contract's keys,
that every end-to-end and per-layer metric is emitted with its unit, that
every operation passed, and that the exact counts are equal across the two
traced runs.  It then exercises the compare mode on those records, and
checks that the benchmark refuses to run where only BENCHMARK.json and the
benchmark's own files exist.  Exits 0 when all of this holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from worker import EXACT_COUNTS, import_program  # noqa: E402

SCALE = "0.05"
SEED = "7"


def run(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"run failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(res: dict, declared: list[dict], where: str) -> None:
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, where
    assert res["correct"] is True and res["failed"] == 0, f"{where}: {res}"
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1, where
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    assert got == want, f"{where}: metrics {sorted(got)} != {sorted(want)}"
    for name, m in res["metrics"].items():
        assert isinstance(m["value"], (int, float)), f"{where}: {name}"


def namespaces() -> dict:
    """Every attribute of every hexparity module and class, by identity."""
    snap = {}
    for name, mod in list(sys.modules.items()):
        if name == "hexparity" or name.startswith("hexparity."):
            for attr, value in vars(mod).items():
                snap[(name, attr)] = id(value)
                if isinstance(value, type):
                    for cattr, cvalue in vars(value).items():
                        snap[(name, attr, cattr)] = id(cvalue)
    return snap


def check_wrappers_removed() -> None:
    import_program()
    import hexparity.cli  # noqa: F401  (loads every module)
    from spans import Tracer

    before = namespaces()
    tracer = Tracer()
    tracer.install()
    try:
        changed = sum(1 for k, v in namespaces().items() if before.get(k) != v)
        assert changed > 100, f"only {changed} names wrapped"
        wrapped = hexparity.cli.regime3_sum
        assert wrapped is hexparity.checks.regime3_sum and hasattr(wrapped, "__wrapped__")
    finally:
        tracer.remove()
    assert namespaces() == before, "tracer left wrappers behind"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_wrappers_removed()
    print("ok  wrappers installed everywhere and removed")
    with tempfile.TemporaryDirectory() as tmp:
        records = Path(tmp) / "records.jsonl"
        for wl in (w["name"] for w in spec["workloads"]):
            base = ["--workload", wl, "--seed", SEED, "--seconds", "1",
                    "--scale", SCALE, "--out", str(records)]
            res = result_of(run(base + ["--trace", "0"]))
            check_result(res, spec["end_to_end"], f"{wl} untraced")
            for name in ("wall_s", "setup_s", "peak_rss_mb"):
                assert res["metrics"][name]["value"] > 0, f"{wl}: {name} is 0"
            traced = [result_of(run(base + ["--trace", "1"])) for _ in range(2)]
            for i, t in enumerate(traced):
                check_result(t, spec["per_layer"], f"{wl} traced run {i}")
            for name in EXACT_COUNTS:
                a, b = (t["metrics"][name]["value"] for t in traced)
                assert a == b, f"{wl}: {name} differs between runs: {a} != {b}"
            print(f"ok  {wl}")

        cmp = run(["--compare", str(records), str(records)])
        assert cmp.returncode == 0 and "wall_s" in cmp.stdout, cmp.stderr
        print("ok  compare mode")

        bare = Path(tmp) / "bare"
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", spec["workloads"][0]["name"], "--seed", SEED,
                    "--seconds", "1", "--trace", "0"], cwd=bare)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
        print("ok  refuses to run without the program")
    return 0


if __name__ == "__main__":
    sys.exit(main())
