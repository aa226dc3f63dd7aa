"""Value semantics of every record class in the package.

The record classes share one frozen base: read-only fields, equality and
hashing by field within one class, a Name(field=value, ...) repr, keyword and
positional construction alike, pickling and copying through the constructor,
and an unchecked _make that builds what the constructor builds.  Only the
base allocates a record without its constructor.
"""
import ast
import copy
import pathlib
import pickle

import pytest

import ofnring
from ofnring import (IDENTITY, SQRT, BaseFunction, EssentialTuple,
                     FunctionProprietyReport, FuzzyDigraph, Interval, LRFuzzyNumber,
                     MembershipBranch, MembershipFunction, PiaseckiResult, PiecewisePoly,
                     PiecewisePolyOfn, ProprietyReport, ShortestPathResult, Side,
                     TrapezoidCorners, TypedOfn, crisp, get_base, trapezoid)

_SQRT = get_base(SQRT)
_BASE_FIELDS = ("tag", "func", "inverse_func", "increasing", "limit_at_zero",
                "value_at_one", "integral", "doc_tag", "symbol", "literal")
_BRANCH = MembershipBranch(Side(IDENTITY, 1.0, 0.0), 0.0, 1.0)

# each record class with the fields of one value, in field order
FIELDS = {
    BaseFunction: {name: getattr(_SQRT, name) for name in _BASE_FIELDS},
    Interval: {"lo": 0.0, "hi": 1.0},
    Side: {"base": SQRT, "slope": 1.0, "offset": -0.5},
    TypedOfn: {"base": IDENTITY, "coeffs": EssentialTuple(1.0, 0.0, -1.0, 2.0)},
    FuzzyDigraph: {"nodes": 2, "edges": ((0, 1, trapezoid(1, 0, -1, 2)),), "base": IDENTITY},
    ProprietyReport: {"proper": False, "orientation": "decreasing", "same_sign": True,
                      "crossing": False, "pathology": "type-ii"},
    MembershipBranch: {"side": Side(IDENTITY, -1.0, 2.0), "lo": 1.0, "hi": 2.0},
    MembershipFunction: {"lower": _BRANCH, "upper": None, "core": Interval(1.0, 2.0),
                         "support": Interval(0.0, 2.0)},
    ShortestPathResult: {"source": 0, "distances": (crisp(0.0), None),
                         "predecessors": (None, None), "scans": 1, "relaxations": 0},
    PiecewisePoly: {"breaks": (0.0, 1.0), "coeffs": ((0.0, 2.0, -2.0),)},
    PiecewisePolyOfn: {"up": PiecewisePoly.affine(1.0, 0.0),
                       "down": PiecewisePoly.affine(-1.0, 2.0)},
    FunctionProprietyReport: {"proper": False, "violation": "twisted"},
    TrapezoidCorners: {"a": 0.0, "b": 1.0, "c": 2.0, "d": 3.0},
    PiaseckiResult: {"corners": TrapezoidCorners(0.0, 1.0, 1.0, 3.0), "up_rule": "constant",
                     "down_rule": "product-form", "up_fn": PiecewisePoly.constant(1.0),
                     "down_fn": PiecewisePoly.affine(-2.0, 3.0)},
    LRFuzzyNumber: {"support_lo": 0.0, "core_lo": 1.0, "core_hi": 2.0, "support_hi": 3.0},
}
# the fields a constructor takes, where they are not all of them
ARGUMENTS = {FuzzyDigraph: ("nodes", "edges")}

classes = pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)


def arguments(cls) -> dict:
    fields = FIELDS[cls]
    return {name: fields[name] for name in ARGUMENTS.get(cls, fields)}


def build(cls):
    return cls(**arguments(cls))


@classes
def test_fields_are_read_only(cls):
    x = build(cls)
    for name in (*FIELDS[cls], "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert all(getattr(x, name) == value for name, value in FIELDS[cls].items())


@classes
def test_equal_fields_give_equal_values_and_hashes(cls):
    x, y = build(cls), build(cls)
    assert x is not y and x == y and not x != y and hash(x) == hash(y)
    assert len({x, y}) == 1


@classes
def test_no_value_equals_a_tuple_or_another_class(cls):
    x = build(cls)
    twin = type(cls.__name__, (cls,), {})(**arguments(cls))  # the same fields
    assert all(getattr(twin, name) == getattr(x, name) for name in FIELDS[cls])
    fields = tuple(FIELDS[cls].values())
    assert x != twin and twin != x and x != fields and fields != x
    assert x.__eq__(fields) is NotImplemented and x.__eq__(twin) is NotImplemented


@classes
def test_repr_names_the_fields_in_order(cls):
    shown = ", ".join(f"{name}={value!r}" for name, value in FIELDS[cls].items())
    assert repr(build(cls)) == f"{cls.__name__}({shown})"


@classes
def test_keywords_and_positions_build_the_same_value(cls):
    by_position = cls(*arguments(cls).values())
    assert by_position == build(cls) and repr(by_position) == repr(build(cls))


@classes
def test_make_builds_what_the_constructor_builds(cls):
    if cls is BaseFunction:  # ten slots, built once per registration
        assert not hasattr(cls, "_make")
        return
    twin = type(cls.__name__, (cls,), {})  # adds no slot: its _make must build a twin
    for c in (cls, twin):
        x = c(**arguments(cls))
        made = c._make(*(getattr(x, name) for name in cls.__slots__))
        assert type(made) is c and made == x
        assert repr(made) == repr(x) and hash(made) == hash(x)


def test_only_the_base_allocates_records():
    # object.__new__ is called in bases.py alone; `_setters` is read there and
    # by the two checked constructors that set their slots directly
    readers = {("ring.py", "Interval"), ("ring.py", "TypedOfn")}
    for path in pathlib.Path(ofnring.__file__).parent.glob("*.py"):
        if path.name == "bases.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                owner = getattr(node.value, "id", None)
                where = f"{path.name}:{node.lineno}"
                assert (owner, node.attr) != ("object", "__new__"), where
                assert node.attr != "_setters" or (path.name, owner) in readers, where


def test_base_function_defaults():
    args = ["cube", *(getattr(_SQRT, name) for name in _BASE_FIELDS[1:7])]
    b = BaseFunction(*args)
    assert (b.doc_tag, b.symbol, b.literal) == ("cube", "cube(x)", None)
    assert b == BaseFunction(*args, doc_tag="cube", symbol="cube(x)", literal=None)


@classes
def test_values_survive_pickle_and_copy(cls):
    x = build(cls)
    protocols = [] if cls is BaseFunction else range(pickle.HIGHEST_PROTOCOL + 1)  # lambdas
    clones = [pickle.loads(pickle.dumps(x, protocol)) for protocol in protocols]
    clones += [copy.copy(x), copy.deepcopy(x)]
    for back in clones:
        assert type(back) is cls and back == x and repr(back) == repr(x)
