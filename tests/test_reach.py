"""The package holds only what its commands run.

Every REGISTRY entry and every expand target runs in process at a small
order under a profiler, and every public function and method defined in
`src/hexparity` must be entered, apart from ALLOWED: names kept for the
acceptance suite or the benchmark workloads.  A reference implementation
that only tests call belongs beside those tests.
Dunder methods implement Python's data model (operators, hooks, repr), not
named API, and are not counted.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import pkgutil
import re
import sys
from pathlib import Path

import hexparity
from hexparity import checks, cli

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(hexparity.__file__).resolve().parent
ACCEPTANCE = "tests/test_acceptance.py"
WORKLOADS = "perfbench/workloads.py"

# name -> (why it stays, the name through which that file reaches it)
ALLOWED = {
    "checks.conjecture1_difference": (ACCEPTANCE, "conjecture1_difference"),
    "partitions.p_bruteforce": (ACCEPTANCE, "p_bruteforce"),
    "partitions.r_s_decomposed": (ACCEPTANCE, "r_s_decomposed"),
    "partitions.r_star_decomposed": (ACCEPTANCE, "r_star_decomposed"),
    "series.TruncatedSeries.coefficient": (ACCEPTANCE, "coefficient"),
    "series.TruncatedSeries.shift": (ACCEPTANCE, "shift"),
    "theta.eq41_sides": (ACCEPTANCE, "eq41_sides"),
    "theta.eq42_sides": (ACCEPTANCE, "eq42_sides"),
    "theta.jtp_sides": (WORKLOADS, "jtp_sides"),
    "theta.quintuple_sides": (WORKLOADS, "quintuple_sides"),
    "theta.monomial_pochhammer": (WORKLOADS, "jtp_sides"),
    "theta.quintuple_sum_families": (WORKLOADS, "quintuple_sides"),
    "theta.rr_G": (ACCEPTANCE, "rr_G"),
    "theta.rr_H": (ACCEPTANCE, "rr_H"),
}


def public_functions() -> dict:
    """code object -> the names ("module.name" or "module.Class.name") that
    the package's public functions, methods, static methods and properties
    give it; an alias shares the code object of its target."""
    found: dict = {}
    for info in pkgutil.iter_modules(hexparity.__path__, "hexparity."):
        module = importlib.import_module(info.name)
        prefix = info.name.removeprefix("hexparity.")
        for name, value in vars(module).items():
            if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(value):
                found.setdefault(value.__code__, []).append(f"{prefix}.{name}")
            elif inspect.isclass(value):
                for attr, member in vars(value).items():
                    fn = getattr(member, "__func__", getattr(member, "fget", member))
                    if not attr.startswith("_") and inspect.isfunction(fn) \
                            and Path(fn.__code__.co_filename).resolve().parent == PACKAGE:
                        found.setdefault(fn.__code__, []).append(f"{prefix}.{name}.{attr}")
    return found


def command_lines():
    """Every REGISTRY entry at a small order, its GF(2) path for all
    instances and for a lone s, and every expand target at each s."""
    for command, entries in checks.REGISTRY.items():
        for name, entry in entries.items():
            base = [command, name, "--order", str(min(entry.default_order, 40)), "--format", "json"]
            yield base
            if entry.parity_order is not None:
                yield base + ["--fast-parity"]
                yield base + ["--fast-parity", "--s", str(entry.instances[0]["s"])]
    for target, (valid, _) in cli.EXPAND_TARGETS.items():
        for s in valid or [None]:
            yield ["expand", target, "--order", "10"] + ([] if s is None else ["--s", str(s)])


def test_every_public_function_is_reached_by_a_command():
    public = public_functions()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    statuses = []
    sys.setprofile(profile)
    try:
        for argv in command_lines():
            with contextlib.redirect_stdout(io.StringIO()):
                statuses.append((argv, cli.main(argv)))
    finally:
        sys.setprofile(None)
    assert all(status == 0 for _, status in statuses), statuses

    names = {name for aliases in public.values() for name in aliases}
    reached = {name for code in entered & public.keys() for name in public[code]}
    missing = sorted(names - reached - ALLOWED.keys())
    assert not missing, f"no command enters {missing}; delete them or move them to tests"
    assert not ALLOWED.keys() - names, f"allowed but not defined: {sorted(ALLOWED.keys() - names)}"
    assert not ALLOWED.keys() & reached, f"reached, so not needed in ALLOWED: " \
                                         f"{sorted(ALLOWED.keys() & reached)}"
    for name, (reason, used) in ALLOWED.items():
        text = (ROOT / reason).read_text()
        assert re.search(rf"\b{used}\b", text), f"{reason} does not use {used} ({name})"
