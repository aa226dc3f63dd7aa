"""The ofnring benchmark: one closed-loop client, one workload per run.

    python3 bench/run.py --workload ring-pipeline --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from ./src.
--trace 0 measures the end-to-end metrics with nothing wrapped.  --trace 1
runs half the time with span wrappers installed, replays the same requests
without them, and reports the per-layer metrics and the tracing overhead.
A run checks a fixed number of requests for its --seconds; those left over
after the measured window run unmeasured.  Every output is checked; the last
line of stdout is one JSON object with correct / attempted / failed / metrics.
Spans and scratch files go to ./.bench_out.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

SETUP_REPEATS = 9
PROBE_STEPS = 3_000_000
SPAN_CAP = 1_000_000  # a traced window ends at the first round end beyond this many spans

WORKLOADS = ("ring-pipeline", "shortest-paths", "oracle-audit", "cli-mix")

END_TO_END_UNITS = {"throughput_ops_s": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}

OUTCOMES = ("none", "ii", "iii", "combined", "fallback")
BASES = ("identity", "sqrt", "gaussian-inverse", "log")
EXIT_CODES = (0, 1, 2, 3, 4, 5)

# name -> unit, in the order they are printed
PER_LAYER_UNITS = {
    "ring.construct.calls": "1/req", "ring.construct.mean_us": "us",
    "ring.op.calls": "1/req", "ring.op.mean_us": "us",
    "ring.add.mean_us": "us", "ring.mul.mean_us": "us", "ring.self_ms": "ms/req",
    "expr.parse.calls": "1/req", "expr.self_ms": "ms/req",
    "bases.self_ms": "ms/req",
    "documents.from_doc.calls": "1/req", "documents.to_doc.calls": "1/req",
    "documents.self_ms": "ms/req",
    "propriety.classify.calls": "1/req", "propriety.classify.mean_us": "us",
    "propriety.correct.calls": "1/req", "propriety.correct.mean_us": "us",
    "propriety.membership.calls": "1/req", "propriety.membership_eval.calls": "1/req",
    "propriety.membership_eval.mean_us": "us", "propriety.self_ms": "ms/req",
    **{f"propriety.correct.outcome.{o}": "ratio" for o in OUTCOMES},
    **{f"propriety.correct.fallback_ratio.{b}": "ratio" for b in BASES},
    "pathalgebra.shortest_paths.calls": "1/req", "pathalgebra.relaxations": "1/req",
    "pathalgebra.rank.calls": "1/req", "pathalgebra.rank.mean_us": "us",
    "pathalgebra.shortest_paths.n200.mean_ms": "ms", "pathalgebra.self_ms": "ms/req",
    "kosinski.k_is_proper.calls": "1/req", "kosinski.k_is_proper.mean_us": "us",
    "kosinski.k_is_proper.deg2.mean_us": "us", "kosinski.value_preimages.mean_us": "us",
    "kosinski.self_ms": "ms/req",
    "piasecki.p_op.calls": "1/req", "piasecki.closure_fail_ratio": "ratio",
    "piasecki.self_ms": "ms/req",
    "classical.zadeh_add_grid.calls": "1/req", "classical.zadeh_add_grid.mean_ms": "ms",
    "classical.zadeh.cells_computed": "1/req", "classical.self_ms": "ms/req",
    "svgplot.render.calls": "1/req", "svgplot.self_ms": "ms/req",
    "cli.import_ms": "ms", "cli.main.self_ms": "ms/req", "cli.process_ms": "ms",
    "cli.eval.process_ms": "ms",
    **{f"cli.exit.{c}": "ratio" for c in EXIT_CODES},
    "trace.overhead_ratio": "ratio", "trace.throughput_traced_ops_s": "1/s",
    "trace.throughput_untraced_ops_s": "1/s",
}


def load_library():
    """Import ofnring from this checkout's src/, or exit 2 if it is not there."""
    if not os.path.isfile(os.path.join(SRC, "ofnring", "__init__.py")):
        print(f"error: no ofnring package under {SRC}; run from a source checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import ofnring
    if not os.path.abspath(ofnring.__file__).startswith(SRC + os.sep):
        print(f"error: imported ofnring from {ofnring.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return ofnring


def make_workload(name: str):
    if name == "cli-mix":
        import cli_mix
        return cli_mix.CliMix(ROOT, os.path.join(OUT, "cli-work"))
    module = {"ring-pipeline": "ring_pipeline", "shortest-paths": "shortest_paths",
              "oracle-audit": "oracle_audit"}[name]
    return __import__(module)


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": importlib.metadata.version("numpy"),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "platform": platform.platform(), "seed": seed}


def cpu_probe_s() -> float:
    """Seconds for a loop of integer additions that calls no ofnring code.

    Shared hosts switch between CPU speed regimes that last minutes.  The
    probe is taken at the start and the end of every run and printed in its
    report, so that runs made in different regimes can be told apart and
    repeated.  It enters no metric.
    """
    t0 = time.perf_counter()
    x = 0
    for i in range(PROBE_STEPS):
        x += i
    return time.perf_counter() - t0


class SetupSampler:
    """Seconds for a fresh interpreter to import ofnring, sampled through a run.

    CPU speed on shared hosts drifts over seconds, so the SETUP_REPEATS
    imports are spread evenly over the measured window, not taken in a burst.
    One untimed import first, so byte-code compilation is not counted.
    """

    CODE = ("import time; t = time.perf_counter(); import ofnring; "
            "print(repr(time.perf_counter() - t))")

    def __init__(self, seconds: float):
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.samples: list[float] = []
        self.spacing = seconds / SETUP_REPEATS
        self._import()
        self.next_due = time.perf_counter()

    def _import(self) -> float:
        done = subprocess.run([sys.executable, "-c", self.CODE], capture_output=True, text=True,
                              env=self.env, cwd=ROOT, timeout=60, check=True)
        return float(done.stdout)

    def maybe_sample(self) -> None:
        if len(self.samples) < SETUP_REPEATS and time.perf_counter() >= self.next_due:
            self.samples.append(self._import())
            self.next_due += self.spacing

    def finish(self) -> list[float]:
        while len(self.samples) < SETUP_REPEATS:
            self.samples.append(self._import())
        return self.samples


def peak_rss_mb(wl) -> float:
    kb = max(wl.child_rss_kb) if hasattr(wl, "child_rss_kb") else \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kb / 1024.0


def request_report(wl, res) -> dict:
    from harness import latency_by_kind, shares
    known = [k for k in res.failures if k in wl.KNOWN_FAILURES]
    return {
        "attempted": res.attempted, "measured": res.measured, "failed": res.failed,
        "failures": dict(res.failures),
        "known_failures": {k: wl.KNOWN_FAILURES[k] for k in known},
        "unexpected_failures": {k: n for k, n in res.failures.items()
                                if k not in wl.KNOWN_FAILURES},
        "rounds": res.rounds, "wall_s": round(res.wall_s, 3),
        "input_shares": shares(res),
        "latency_by_kind": latency_by_kind(res),
    }


def end_to_end(wl, seed: int, seconds: float):
    from harness import latency_summary, requests_for, run_pass
    sampler = SetupSampler(seconds)
    res = run_pass(wl, seed, requests_for(wl, seconds), seconds=seconds,
                   between=sampler.maybe_sample)
    setup = sampler.finish()
    lat = latency_summary(res, wl.TAIL_PERCENTILE)
    metrics = {
        "throughput_ops_s": lat["throughput_ops_s"],
        "latency_p50_ms": lat["latency_p50_ms"],
        "latency_tail_ms": lat["latency_tail_ms"],
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb(wl),
    }
    detail = {
        "tail": {"percentile": lat["tail_percentile"], "samples": lat["samples"],
                 "samples_beyond": lat["tail_samples_beyond"]},
        "setup_import_s": setup,
        "basis": "one client, closed loop; throughput is requests / summed request latency",
    }
    return res, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, detail


def traced(wl, seed: int, seconds: float):
    from harness import requests_for, run_pass
    from tracing import SpanStats, Tracer, merge, write_spans
    requests = requests_for(wl, seconds / 2)
    if hasattr(wl, "spans_dir"):
        spans_dir = os.path.join(OUT, "cli-spans")
        shutil.rmtree(spans_dir, ignore_errors=True)
        os.makedirs(spans_dir)
        wl.spans_dir = spans_dir
        try:
            res = run_pass(wl, seed, requests, seconds=seconds / 2, keep_props=True,
                           window_end=lambda: setattr(wl, "spans_dir", None))
        finally:
            wl.spans_dir = None
        dumps, import_ns = [], []
        for name in os.listdir(spans_dir):  # a child that was killed left none
            with open(os.path.join(spans_dir, name), encoding="utf-8") as fh:
                d = json.load(fh)
            import_ns.append(d["import_ns"])
            dumps.append((int(name.split(".")[0]), d))
        shutil.rmtree(spans_dir)
        data = merge(dumps)
    else:
        tracer = Tracer()
        tracer.install()
        try:
            res = run_pass(wl, seed, requests, seconds=seconds / 2, tracer=tracer,
                           keep_props=True, stop_when=lambda: len(tracer) > SPAN_CAP,
                           window_end=tracer.uninstall)
        finally:
            tracer.uninstall()
        data, import_ns = tracer.dump(), []
    untraced = run_pass(wl, seed, requests)
    write_spans(os.path.join(OUT, f"spans-{wl.NAME}.tsv.gz"), data)
    stats = SpanStats(data)
    metrics = layer_metrics(stats, data["counters"], res, untraced, import_ns)
    detail = {"spans": len(data["start"]), "traced_requests": res.measured,
              "span_file": os.path.join(".bench_out", f"spans-{wl.NAME}.tsv.gz")}
    return res, untraced, {k: (v, PER_LAYER_UNITS[k]) for k, v in metrics.items()}, detail


def layer_metrics(s, counters, res, untraced, import_ns) -> dict:
    n = res.measured
    props = res.props

    def calls(*names):
        return sum(s.calls[x] for x in names) / n

    def self_ms(layer):
        return s.layer_self_ns[layer] / 1e6 / n

    def ratio(num, den):
        return counters.get(num, 0) / counters[den] if counters.get(den) else 0.0

    def where(key, value):
        return {i for i, p in enumerate(props) if p.get(key) == value}

    ops = ("ring.add", "ring.sub", "ring.mul", "ring.div", "ring.neg", "ring.scalar_mul")
    corrects = sum(counters.get(f"correct.outcome.{o}", 0) for o in OUTCOMES)
    evals = [lat for lat, kind in zip(untraced.latencies_ns, untraced.kinds) if kind == "eval"]
    is_cli = bool(import_ns)
    m = {
        "ring.construct.calls": calls("ring.typed"),
        "ring.construct.mean_us": s.mean_us("ring.typed"),
        "ring.op.calls": calls(*ops), "ring.op.mean_us": s.mean_us(*ops),
        "ring.add.mean_us": s.mean_us("ring.add"), "ring.mul.mean_us": s.mean_us("ring.mul"),
        "ring.self_ms": self_ms("ring"),
        "expr.parse.calls": calls("expr.parse_expression"), "expr.self_ms": self_ms("expr"),
        "bases.self_ms": self_ms("bases"),
        "documents.from_doc.calls": calls("documents.ofn_from_doc"),
        "documents.to_doc.calls": calls("documents.ofn_to_doc"),
        "documents.self_ms": self_ms("documents"),
        "propriety.classify.calls": calls("propriety.classify"),
        "propriety.classify.mean_us": s.mean_us("propriety.classify"),
        "propriety.correct.calls": calls("propriety.correct"),
        "propriety.correct.mean_us": s.mean_us("propriety.correct"),
        "propriety.membership.calls": calls("propriety.membership"),
        "propriety.membership_eval.calls": calls("propriety.membership_eval"),
        "propriety.membership_eval.mean_us": s.mean_us("propriety.membership_eval"),
        "propriety.self_ms": self_ms("propriety"),
        **{f"propriety.correct.outcome.{o}":
           counters.get(f"correct.outcome.{o}", 0) / corrects if corrects else 0.0
           for o in OUTCOMES},
        **{f"propriety.correct.fallback_ratio.{b}": ratio(f"correct.fallback.{b}", f"correct.base.{b}")
           for b in BASES},
        "pathalgebra.shortest_paths.calls": calls("pathalgebra.shortest_paths"),
        "pathalgebra.relaxations": s.relaxations / n,
        "pathalgebra.rank.calls": calls("pathalgebra.rank"),
        "pathalgebra.rank.mean_us": s.mean_us("pathalgebra.rank"),
        "pathalgebra.shortest_paths.n200.mean_ms":
            s.mean_us_where("pathalgebra.shortest_paths", where("kind", "nonneg-200")) / 1e3,
        "pathalgebra.self_ms": self_ms("pathalgebra"),
        "kosinski.k_is_proper.calls": calls("kosinski.k_is_proper"),
        "kosinski.k_is_proper.mean_us": s.mean_us("kosinski.k_is_proper"),
        "kosinski.k_is_proper.deg2.mean_us": s.mean_us_where("kosinski.k_is_proper", where("degree", 2)),
        "kosinski.value_preimages.mean_us": s.mean_us("kosinski.value_preimages"),
        "kosinski.self_ms": self_ms("kosinski"),
        "piasecki.p_op.calls": calls("piasecki.p_op"),
        "piasecki.closure_fail_ratio": ratio("closure.fail", "closure.checks"),
        "piasecki.self_ms": self_ms("piasecki"),
        "classical.zadeh_add_grid.calls": calls("classical.zadeh_add_grid"),
        "classical.zadeh_add_grid.mean_ms": s.mean_us("classical.zadeh_add_grid") / 1e3,
        "classical.zadeh.cells_computed": counters.get("zadeh.cells", 0) / n,
        "classical.self_ms": self_ms("classical"),
        "svgplot.render.calls": calls("svgplot.render_ofn_svg"),
        "svgplot.self_ms": self_ms("svgplot"),
        "cli.import_ms": statistics.mean(import_ns) / 1e6 if is_cli else 0.0,
        "cli.main.self_ms": s.self_ns["cli.main"] / 1e6 / n,
        "cli.process_ms": statistics.mean(untraced.latencies_ns) / 1e6 if is_cli else 0.0,
        "cli.eval.process_ms": statistics.mean(evals) / 1e6 if evals else 0.0,
        **{f"cli.exit.{c}": sum(1 for p in props if p.get("exit") == c) / n if is_cli else 0.0
           for c in EXIT_CODES},
        "trace.throughput_traced_ops_s": n / res.busy_s,
        # the same requests as the traced window, replayed without wrappers
        "trace.throughput_untraced_ops_s": n / (sum(untraced.latencies_ns[:n]) / 1e9),
    }
    m["trace.overhead_ratio"] = m["trace.throughput_untraced_ops_s"] / m["trace.throughput_traced_ops_s"]
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_library()
    os.makedirs(OUT, exist_ok=True)
    wl = make_workload(args.workload)
    env = environment(args.seed)
    probe_start = cpu_probe_s()
    try:
        if args.trace:
            res, untraced, metrics, detail = traced(wl, args.seed, args.seconds)
            attempted = res.attempted + untraced.attempted
            failures = res.failures + untraced.failures
        else:
            res, metrics, detail = end_to_end(wl, args.seed, args.seconds)
            attempted, failures = res.attempted, res.failures
    finally:
        if hasattr(wl, "workdir"):
            shutil.rmtree(wl.workdir, ignore_errors=True)

    probe_s = {"start": probe_start, "end": cpu_probe_s(), "steps": PROBE_STEPS}
    failed = sum(failures.values())
    correct = all(k in wl.KNOWN_FAILURES for k in failures)
    print(f"workload {wl.NAME}: {wl.INPUT_SIZE}; one client, closed loop; seed {args.seed}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6g} {unit}")
    print(f"  failed {failed} of {attempted} requests; known failures: "
          f"{ {k: n for k, n in failures.items() if k in wl.KNOWN_FAILURES} }")
    report = {"workload": wl.NAME, "trace": args.trace, "environment": env,
              "input_size": wl.INPUT_SIZE, "cpu_probe_s": probe_s,
              "requests": request_report(wl, res), **detail}
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
