"""Start-up cost: what a CLI command does not use, it does not import.

A bare `import ofnring` loads the bases, the errors, the ring and the
propriety checks, and no other module of the package; the expression parser
and the path algebra load on first use, and `fractions` and `decimal` not at
all.  The ring, the propriety checks, the other oracles and the CLI need no numpy,
so a child interpreter that imports the package and runs CLI commands must
not load it; `zadeh_add_grid` loads it when called.  The oracle modules, the
demo and the SVG writer load on first use too, so `eval`, `classify` and
`graph` leave them unloaded, while every public name still resolves.  The
package's record classes share one frozen base and compile no code, so those
commands load neither `dataclasses` nor `inspect`, which cost about 12 ms of
start-up together.
"""
import hashlib
import json
import os
import subprocess
import sys

import pytest

import ofnring
from ofnring import LRFuzzyNumber, zadeh_add_grid

CHILD = r"""
import contextlib, hashlib, io, json, os, sys

import ofnring
import ofnring.cli

tmp = sys.argv[1]
docs = {"x.json": {"base": "identity", "tuple": [1, 2, 1, 0]},
        "g.json": {"nodes": 3, "edges": [
            {"from": 0, "to": 1, "weight": {"base": "identity", "tuple": [1, 0, -1, 2]}},
            {"from": 1, "to": 2, "weight": {"base": "identity", "tuple": [0, 1, 0, 1]}}]}}
for name, doc in docs.items():
    with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["eval", "--expr", "trap(1,-5,-1,-3) * crisp(2)"],
                 ["classify", "--in", os.path.join(tmp, "x.json")],
                 ["graph", "--edges", os.path.join(tmp, "g.json"), "--source", "0"]):
        codes.append(ofnring.cli.main(argv))
before = "numpy" in sys.modules
lazy = ["ofnring." + m for m in ("kosinski", "piasecki", "classical", "demo", "svgplot")]
lazy_loaded = [m for m in lazy if m in sys.modules]
dataclass_machinery = [m for m in ("dataclasses", "inspect") if m in sys.modules]
unresolved = [n for n in ofnring.__all__ if getattr(ofnring, n, None) is None]
namespace = {}
exec("from ofnring import *", namespace)
starred = sorted(set(ofnring.__all__) - set(namespace))
x = ofnring.LRFuzzyNumber(0.0, 1.0, 2.0, 3.0)
y = ofnring.LRFuzzyNumber(0.0, 2.0, 2.0, 4.0)
zs, levels = ofnring.zadeh_add_grid(x, y, grid=2001)
print(json.dumps({"codes": codes, "numpy_before_grid": before,
                  "lazy_loaded_by_commands": lazy_loaded,
                  "unresolved": unresolved, "missing_from_star": starred,
                  "dataclass_machinery": dataclass_machinery,
                  "numpy_after_grid": "numpy" in sys.modules,
                  "grid": hashlib.sha256(zs.tobytes() + levels.tobytes()).hexdigest()}))
"""


def run_child(code: str, *args: str):
    """What a child interpreter that runs `code` prints, read as JSON."""
    # the child imports the same package as this test, however pytest found it
    src = os.path.dirname(os.path.dirname(ofnring.__file__))
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    return run_child(CHILD, str(tmp_path_factory.mktemp("docs")))


BARE = r"""
import json, sys
import ofnring
print(json.dumps(sorted(sys.modules)))
"""


def test_a_bare_import_loads_the_ring_and_the_propriety_checks_only():
    loaded = run_child(BARE)
    assert [m for m in loaded if m == "ofnring" or m.startswith("ofnring.")] == [
        "ofnring", "ofnring.bases", "ofnring.errors", "ofnring.propriety", "ofnring.ring"]
    assert [m for m in ("fractions", "decimal", "numpy") if m in loaded] == []


def test_a_lazy_name_is_resolved_once():
    # after the first lookup the name is a plain module attribute, which costs
    # tens of nanoseconds to read where the lookup through the module costs a µs
    for name in ("shortest_paths", "k_op"):
        value = getattr(ofnring, name)
        assert vars(ofnring)[name] is value


def test_numpy_loads_only_inside_the_zadeh_grid(report):
    assert report["codes"] == [0, 0, 0]
    assert report["numpy_before_grid"] is False
    assert report["numpy_after_grid"] is True
    # the pinned grid of test_classical, bit for bit
    zs, levels = zadeh_add_grid(LRFuzzyNumber(0.0, 1.0, 2.0, 3.0),
                                LRFuzzyNumber(0.0, 2.0, 2.0, 4.0), grid=2001)
    assert report["grid"] == hashlib.sha256(zs.tobytes() + levels.tobytes()).hexdigest()


def test_commands_leave_the_oracles_and_the_demo_unloaded(report):
    # and the SVG writer, which only `plot` uses
    assert report["codes"] == [0, 0, 0]
    assert report["lazy_loaded_by_commands"] == []


def test_every_public_name_resolves(report):
    assert report["unresolved"] == []
    assert report["missing_from_star"] == []


def test_no_dataclass_joins_the_start_up_path(report):
    assert report["codes"] == [0, 0, 0]
    assert report["dataclass_machinery"] == []
