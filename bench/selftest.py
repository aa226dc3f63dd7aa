"""Fast self-test of the benchmark itself (about ten seconds).

    python3 bench/selftest.py

For each workload, at a tiny size: one round passes every output check
except the named known failures; every result that returned fails its check
once deliberately corrupted, and at least one passed it before; the span
wrappers record spans and leave every ofnring attribute as it was; a pass
checks the same requests and counts the same failures however early its
measured window ends.  Also checks that
BENCHMARK.json names exactly the workloads and metrics the code reports.
"""
from __future__ import annotations

import importlib
import inspect
import json
import os
import random
import shutil
import sys

import run

run.load_library()

import cli_mix  # noqa: E402
import harness  # noqa: E402
import oracle_audit  # noqa: E402
import ring_pipeline  # noqa: E402
import shortest_paths  # noqa: E402
import tracing  # noqa: E402

SEED = 7


RING_REQUESTS = 40


def tiny_workloads():
    """(workload, requests) for the four workloads, at a small size."""
    shortest_paths.SIZES = {"nonneg-200": (20, 80), "nonneg-1000": (40, 200),
                            "negedge-200": (20, 80), "crisp-200": (20, 80),
                            "negcycle-60": (8, 24)}
    shortest_paths.SCHEDULE = list(dict.fromkeys(shortest_paths.SCHEDULE)) * 2
    oracle_audit.SCHEDULE = list(oracle_audit.SHAPES)
    cli = cli_mix.CliMix(run.ROOT, os.path.join(run.OUT, "selftest-cli"))
    cli.SCHEDULE = list(dict.fromkeys(cli_mix.SCHEDULE))
    return [(ring_pipeline, RING_REQUESTS), (shortest_paths, len(shortest_paths.SCHEDULE)),
            (oracle_audit, len(oracle_audit.SCHEDULE)), (cli, len(cli.SCHEDULE))]


def snapshot() -> dict:
    """Identity of every attribute, method and default that tracing may rebind."""
    snap = {}
    modules = [importlib.import_module(f"ofnring.{m}") for m in tracing.HOLDERS]
    for mod in [importlib.import_module("ofnring")] + modules:
        name = mod.__name__
        for attr, obj in vars(mod).items():
            snap[(name, attr)] = id(obj)
            if inspect.isfunction(obj):
                snap[(name, attr, "defaults")] = id(obj.__defaults__)
            if inspect.isclass(obj):
                for m, v in vars(obj).items():
                    snap[(name, attr, m)] = id(v)
    return snap


def check_workload(wl, requests: int, problems: list) -> None:
    res = harness.run_pass(wl, SEED, requests)
    unexpected = {k: n for k, n in res.failures.items() if k not in wl.KNOWN_FAILURES}
    if unexpected:
        problems.append(f"{wl.NAME}: unexpected failures {unexpected}")
    # the same requests again: every result that returned must fail its check
    # once corrupted, and some of them must have passed it before
    rng = random.Random(SEED)
    returned = passed = 0
    for index in range(requests):
        kind = wl.SCHEDULE[index % len(wl.SCHEDULE)]
        req = wl.make_input(kind, rng, index)
        try:
            out = wl.execute(req)
        except Exception:
            continue
        returned += 1
        passed += wl.check(req, out, None) is True
        if wl.check(req, wl.corrupt(req, out), None) is True:
            problems.append(f"{wl.NAME}: corrupted {kind} result passed its check")
    if passed == 0:
        problems.append(f"{wl.NAME}: no returned result passed its check")
    print(f"{wl.NAME}: {res.attempted} requests, {res.failed} known failures; "
          f"{passed} of {returned} returned results passed, and failed once corrupted")


def check_tracing(problems: list) -> None:
    before = snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        res = harness.run_pass(ring_pipeline, SEED, RING_REQUESTS, tracer=tracer)
    finally:
        tracer.uninstall()
    if before != snapshot():
        problems.append("tracing: an ofnring attribute was not restored")
    stats = tracing.SpanStats(tracer.dump())
    for name in ("expr.parse_expression", "ring.typed", "propriety.correct", "pathalgebra.rank"):
        if stats.calls[name] == 0:
            problems.append(f"tracing: no spans for {name}")
    print(f"tracing: {len(tracer)} spans over {res.attempted} requests, attributes restored")


def check_window(problems: list) -> None:
    whole = harness.run_pass(ring_pipeline, SEED, RING_REQUESTS)
    cut = harness.run_pass(ring_pipeline, SEED, RING_REQUESTS, seconds=0)
    if cut.measured != len(ring_pipeline.SCHEDULE) or cut.attempted != whole.attempted \
            or cut.failures != whole.failures:
        problems.append("window: a pass cut after one round did not check the same requests")
    print(f"window: {cut.measured} measured and {cut.unmeasured} unmeasured requests, "
          f"all {cut.attempted} checked")


def check_benchmark_json(problems: list) -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    if {m["name"]: m["unit"] for m in spec["end_to_end"]} != run.END_TO_END_UNITS:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END_UNITS")
    if {m["name"]: m["unit"] for m in spec["per_layer"]} != run.PER_LAYER_UNITS:
        problems.append("BENCHMARK.json per_layer differs from run.PER_LAYER_UNITS")


def main() -> int:
    problems: list[str] = []
    workloads = tiny_workloads()
    try:
        for wl, requests in workloads:
            check_workload(wl, requests, problems)
    finally:
        shutil.rmtree(workloads[-1][0].workdir, ignore_errors=True)
    check_tracing(problems)
    check_window(problems)
    check_benchmark_json(problems)
    for p in problems:
        print("FAIL", p)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
