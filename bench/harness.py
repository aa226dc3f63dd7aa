"""The closed loop shared by every workload, and the statistics it reports.

A workload module provides:

* NAME, INPUT_SIZE and TAIL_PERCENTILE, the percentile reported as the tail:
  fixed per workload, so the metric means the same on every run, and chosen
  with at least ten samples beyond it at the request count a run reaches
  (why each workload exists is in BENCHMARK.json);
* SCHEDULE, the fixed list of request kinds that makes up one round;
* REQUESTS_PER_SECOND, about the rate one client reaches, checks included,
  while a 2-vCPU machine runs fast, so that the measured window usually
  lasts the whole --seconds; a run checks that many requests per second,
  in whole rounds (requests_for);
* KNOWN_FAILURES, the names of the failures that occur today because of a
  known defect, each with the reason;
* make_input(kind, rng, index) -> Request   (untimed)
* execute(request) -> output                (timed; calls ofnring)
* check(request, output, error) -> True, False, or the name of a known
  failure, returned only when the request shows that failure's documented
  symptom                                                   (untimed)
* corrupt(request, output) -> output        (a wrong answer, for the self-test)

A check that returns False is counted as "check-failed:<kind>", a name that
is never a known failure.

One client sends the next request only when the previous one has returned.
A pass measures whole rounds until the requested time has gone by, so every
run measures each request kind in the same proportion; the seed decides the
inputs.  The requests left over after that window still run and are checked,
unmeasured, so a run's failures depend only on its seed and its length, not
on how fast the machine was.
"""
from __future__ import annotations

import math
import random
import statistics
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field


@dataclass
class Request:
    kind: str
    data: object
    props: dict = field(default_factory=dict)


@dataclass
class PassResult:
    """What a pass measured; per-request storage is kept small so that peak
    memory does not grow with the number of requests a run completes."""

    latencies_ns: array = field(default_factory=lambda: array("q"))  # measured requests
    kinds: list = field(default_factory=list)           # measured requests
    failures: Counter = field(default_factory=Counter)  # failure name -> count, all requests
    prop_counts: dict = field(default_factory=dict)     # property -> Counter of values
    props: list | None = None                           # per measured request, when kept
    unmeasured: int = 0                                 # requests run after the window
    rounds: int = 0
    wall_s: float = 0.0                                 # length of the measured window

    @property
    def measured(self) -> int:
        return len(self.latencies_ns)

    @property
    def attempted(self) -> int:
        return self.measured + self.unmeasured

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def busy_s(self) -> float:
        return sum(self.latencies_ns) / 1e9


def requests_for(wl, seconds: float) -> int:
    """Requests a run of `seconds` executes and checks: whole rounds, at the
    workload's REQUESTS_PER_SECOND, so the count depends only on `seconds`."""
    rounds = max(1, math.ceil(wl.REQUESTS_PER_SECOND * seconds / len(wl.SCHEDULE)))
    return rounds * len(wl.SCHEDULE)


def run_pass(wl, seed: int, requests: int, *, seconds: float | None = None,
             tracer=None, stop_when=None, between=None, window_end=None,
             keep_props: bool = False) -> PassResult:
    """Run and check the first `requests` requests of the seed's sequence.

    Requests are measured in whole rounds until `seconds` have passed (all of
    them when `seconds` is None) or `stop_when()` is true at a round end.
    The rest still run and are checked, unmeasured and untraced, so which
    requests are checked, and so the failures, depend on the seed alone.
    With a tracer, each measured request is one traced request;
    `window_end()` is called once when measuring stops.
    `between()` is called after each measured request, outside the timed region.
    keep_props keeps each measured request's input properties in res.props.
    """
    rng = random.Random(seed)
    res = PassResult(props=[] if keep_props else None)
    clock = time.perf_counter_ns
    start = time.perf_counter()
    measuring = True
    for index in range(requests):
        kind = wl.SCHEDULE[index % len(wl.SCHEDULE)]
        req = wl.make_input(kind, rng, index)
        out = err = None
        if measuring and tracer is not None:
            tracer.begin(index)
        t0 = clock()
        try:
            out = wl.execute(req)
        except Exception as e:  # the check decides whether it was expected
            err = e
        t1 = clock()
        if measuring and tracer is not None:
            tracer.end()
        verdict = wl.check(req, out, err)
        if verdict is not True:
            res.failures[verdict if isinstance(verdict, str) else f"check-failed:{kind}"] += 1
        for key, value in req.props.items():
            res.prop_counts.setdefault(key, Counter())[str(value)] += 1
        if not measuring:
            res.unmeasured += 1
            continue
        res.latencies_ns.append(t1 - t0)
        res.kinds.append(kind)
        if keep_props:
            res.props.append(req.props)
        if between is not None:
            between()
        if (index + 1) % len(wl.SCHEDULE) == 0:
            res.rounds += 1
            res.wall_s = time.perf_counter() - start
            if (seconds is not None and res.wall_s >= seconds) or \
                    (stop_when is not None and stop_when()):
                measuring = False
                if window_end is not None:
                    window_end()
    if measuring:
        res.wall_s = time.perf_counter() - start
        if window_end is not None:
            window_end()
    return res


def percentile(sorted_values: list, p: float):
    """Nearest-rank percentile and the number of samples beyond it."""
    n = len(sorted_values)
    rank = max(1, math.ceil(p / 100.0 * n))
    return sorted_values[rank - 1], n - rank


def shares(res: PassResult) -> dict:
    """Measured share of every value of every recorded input property."""
    out = {}
    for key, c in sorted(res.prop_counts.items()):
        total = sum(c.values())
        out[key] = {v: round(n / total, 4) for v, n in sorted(c.items())}
        out[key]["_of"] = total
    return out


def latency_by_kind(res: PassResult) -> dict:
    """Request count and median latency (ms) of each request kind."""
    by_kind: dict[str, list] = {}
    for lat, kind in zip(res.latencies_ns, res.kinds):
        by_kind.setdefault(kind, []).append(lat / 1e6)
    return {k: {"count": len(v), "p50_ms": round(statistics.median(v), 4)}
            for k, v in sorted(by_kind.items())}


def latency_summary(res: PassResult, tail_p: float) -> dict:
    lat_ms = sorted(v / 1e6 for v in res.latencies_ns)
    tail, beyond = percentile(lat_ms, tail_p)
    return {
        "throughput_ops_s": res.measured / res.busy_s,
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_tail_ms": tail,
        "tail_percentile": tail_p,
        "tail_samples_beyond": beyond,
        "samples": len(lat_ms),
    }
