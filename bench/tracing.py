"""Spans around every public function of the ofnring layers, from outside.

install() rebinds module attributes (including the names other ofnring
modules imported, such as pathalgebra.add), public methods of public classes
and default arguments that captured a public function (such as
shortest_paths(key=rank)).  uninstall() puts every original back and checks
that it did.  Nothing under src/ changes.

A span is (name, start, end, parent span, request id), kept in arrays in
memory and written out (gzipped) at the end of the run.  A span's self time is its
duration minus the durations of its direct children.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import time
from array import array
from collections import Counter

LAYERS = ("bases", "ring", "expr", "documents", "propriety", "pathalgebra",
          "kosinski", "piasecki", "classical", "svgplot", "cli")
# modules that may hold references to layer functions; demo is not a layer
HOLDERS = LAYERS + ("demo", "errors")


def _observe_correct(counters, args, kwargs, result):
    base = args[0].base
    label = result[1]
    counters[f"correct.outcome.{label}"] += 1
    counters[f"correct.base.{base}"] += 1
    if label == "fallback":
        counters[f"correct.fallback.{base}"] += 1


def _observe_closure(counters, args, kwargs, result):
    counters["closure.checks"] += 1
    if not result:
        counters["closure.fail"] += 1


def _zadeh_observer(default_grid):
    def observe(counters, args, kwargs, result):
        grid = kwargs.get("grid", args[2] if len(args) > 2 else default_grid)
        counters["zadeh.cells"] += grid * grid
    return observe


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.reqs = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.counters: Counter = Counter()
        self.request = -1
        self.stack = [-1]
        self._undo: list = []

    # -- requests ----------------------------------------------------------
    def begin(self, request: int) -> None:
        self.stack = [-1]
        self.request = request

    def end(self) -> None:
        self.request = -1

    def __len__(self) -> int:
        return len(self.starts)

    # -- wrapping ----------------------------------------------------------
    def _wrap(self, fn, name: str, observe=None):
        name_id = self._ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        names, parents, reqs = self.name_ids, self.parents, self.reqs
        starts, ends, clock, tracer = self.starts, self.ends, time.perf_counter_ns, self

        def wrapper(*args, **kwargs):
            req = tracer.request
            if req < 0:
                return fn(*args, **kwargs)
            stack = tracer.stack
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            reqs.append(req)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(tracer.counters, args, kwargs, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        pkg = importlib.import_module("ofnring")
        holders = [pkg] + [importlib.import_module(f"ofnring.{m}") for m in HOLDERS]
        observers = {"propriety.correct": _observe_correct,
                     "piasecki.p_closure_check": _observe_closure}
        wrapped: dict = {}  # original function -> wrapper
        all_functions = []
        for holder in holders:
            for obj in vars(holder).values():
                if inspect.isfunction(obj):
                    all_functions.append(obj)
                elif inspect.isclass(obj) and obj.__module__ == holder.__name__:
                    all_functions += [m for m in vars(obj).values() if inspect.isfunction(m)]
        for layer in LAYERS:
            mod = importlib.import_module(f"ofnring.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    observe = observers.get(name)
                    if name == "classical.zadeh_add_grid":
                        observe = _zadeh_observer(inspect.signature(obj).parameters["grid"].default)
                    wrapped[obj] = self._wrap(obj, name, observe)
                elif inspect.isclass(obj):
                    for mname, m in list(vars(obj).items()):
                        if mname.startswith("_"):
                            continue
                        name = f"{layer}.{attr}.{mname}"
                        if isinstance(m, classmethod):
                            self._set(obj, mname, classmethod(self._wrap(m.__func__, name)))
                        elif isinstance(m, staticmethod):
                            self._set(obj, mname, staticmethod(self._wrap(m.__func__, name)))
                        elif inspect.isfunction(m):
                            self._set(obj, mname, self._wrap(m, name))
        for holder in holders:
            for attr, obj in list(vars(holder).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(holder, attr, wrapped[obj])
        for fn in all_functions:
            defaults = fn.__defaults__
            if defaults and any(inspect.isfunction(d) and d in wrapped for d in defaults):
                self._undo.append((fn, "__defaults__", defaults))
                fn.__defaults__ = tuple(wrapped.get(d, d) if inspect.isfunction(d) else d
                                        for d in defaults)

    def uninstall(self) -> None:
        """Restore every rebound attribute, and check that each is the original again."""
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        for owner, attr, original in self._undo:
            current = owner.__defaults__ if attr == "__defaults__" else owner.__dict__[attr]
            if current is not original:
                raise RuntimeError(f"could not restore {owner!r}.{attr}")
        self._undo.clear()

    # -- output ------------------------------------------------------------
    def dump(self) -> dict:
        return {"names": self.names, "name": self.name_ids, "parent": self.parents,
                "request": self.reqs, "start": self.starts, "end": self.ends,
                "counters": dict(self.counters)}


def merge(dumps: list[tuple[int, dict]]) -> dict:
    """One span table from per-request dumps (request id, dump) of child processes."""
    out = {"names": [], "name": [], "parent": [], "request": [], "start": [], "end": [],
           "counters": Counter()}
    ids: dict[str, int] = {}
    for request, d in dumps:
        remap = [ids.setdefault(n, len(ids)) for n in d["names"]]
        offset = len(out["start"])
        out["name"] += [remap[i] for i in d["name"]]
        out["parent"] += [p + offset if p >= 0 else -1 for p in d["parent"]]
        out["request"] += [request] * len(d["start"])
        out["start"] += d["start"]
        out["end"] += d["end"]
        out["counters"].update(d["counters"])
    out["names"] = list(ids)
    return out


def write_spans(path: str, d: dict) -> None:
    """Gzipped tab-separated spans: name, start_ns, end_ns, parent index, request id."""
    names = d["names"]
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        fh.write("# counters " + json.dumps(dict(d["counters"]), sort_keys=True) + "\n")
        fh.write("name\tstart_ns\tend_ns\tparent\trequest\n")
        fh.writelines(f"{names[n]}\t{s}\t{e}\t{p}\t{r}\n" for n, s, e, p, r in
                      zip(d["name"], d["start"], d["end"], d["parent"], d["request"]))


class SpanStats:
    """Calls, inclusive and self time per span name, and self time per layer."""

    def __init__(self, d: dict):
        names, name_ids, parents = d["names"], d["name"], d["parent"]
        starts, ends, reqs = d["start"], d["end"], d["request"]
        child = array("q", bytes(8 * len(starts)))
        for p, s, e in zip(parents, starts, ends):
            if p >= 0:
                child[p] += e - s
        calls, total, own = [0] * len(names), [0] * len(names), [0] * len(names)
        for nid, s, e, c in zip(name_ids, starts, ends, child):
            calls[nid] += 1
            total[nid] += e - s
            own[nid] += e - s - c
        self.calls = Counter(dict(zip(names, calls)))
        self.total_ns = Counter(dict(zip(names, total)))
        self.self_ns = Counter(dict(zip(names, own)))
        self.layer_self_ns: Counter = Counter()
        for name, t in self.self_ns.items():
            self.layer_self_ns[name.split(".", 1)[0]] += t
        ids = {n: i for i, n in enumerate(names)}
        add, sp = ids.get("ring.add", -1), ids.get("pathalgebra.shortest_paths", -1)
        self.relaxations = sum(1 for nid, p in zip(name_ids, parents)
                               if nid == add and p >= 0 and name_ids[p] == sp)
        self._d, self._ids = d, ids

    def mean_us(self, *names: str) -> float:
        calls = sum(self.calls[n] for n in names)
        return sum(self.total_ns[n] for n in names) / calls / 1e3 if calls else 0.0

    def mean_us_where(self, name: str, requests: set) -> float:
        """Mean duration of `name` spans that belong to the given requests."""
        nid, d = self._ids.get(name, -1), self._d
        picked = [e - s for n, r, s, e in zip(d["name"], d["request"], d["start"], d["end"])
                  if n == nid and r in requests]
        return sum(picked) / len(picked) / 1e3 if picked else 0.0
