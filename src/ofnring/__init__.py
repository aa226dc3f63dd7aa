"""Commutative rings of typed ordered fuzzy numbers.

The core model: a typed OFN over a monotone base h is the pair of sides
slope * h(alpha) + offset, captured by four coefficients.  Arithmetic is
componentwise on those tuples, which makes each fixed-base family a
commutative ring with exact additive inverses.  Around that core:

* propriety classification and pathology repair (ring results can leave the
  proper numbers; the escape is detected and correctable);
* membership inversion for proper numbers, including mixed-base side pairs;
* three rival arithmetics kept as executable oracles: pointwise function
  pairs (Kosinski), revised corner-first trapezoids (Piasecki), and classical
  level-set / extension-principle fuzzy numbers;
* a ranking functional with fuzzy-weighted shortest paths, and a CLI.

The expression parser, the path algebra and the three oracle modules load on
first use: `ofnring.k_op`, `from ofnring import shortest_paths` or `import
ofnring.piasecki` imports its module then.  So `import ofnring` loads only the
bases, the errors, the ring and the propriety checks, and the CLI's ring
commands do not pay for the oracles.
"""
import importlib

from .bases import (GAUSSIAN_INVERSE, IDENTITY, LOG, SQRT, BaseFunction,
                    available_tags, get_base, register_base)
from .errors import (ArithmeticOverflow, DegenerateError, DegreeCapError,
                     DivisionByZero, DocumentError, DomainError, ImproperError,
                     MixedTypeError, NegativeCycle, OfnError, ParseError,
                     RangeError, UnknownBaseError, WrongPathology)
from .propriety import (PATHOLOGY_COMBINED, PATHOLOGY_II, PATHOLOGY_III,
                        PATHOLOGY_NONE, MembershipBranch, MembershipFunction,
                        ProprietyReport, classify, correct, correct_type_ii,
                        correct_type_iii, membership, membership_eval,
                        membership_from_sides)
from .ring import (EssentialTuple, Interval, Side, TypedOfn, add, crisp, div,
                   level_set, level_set_of_sides, mul, neg, one, orientation,
                   rectangular, scalar_mul, side_eval, sub, trapezoid, typed,
                   zero)

__version__ = "0.1.0"

# module -> the public names it serves on first use (PEP 562)
_LAZY = {
    "expr": ("parse_expression",),
    "pathalgebra": ("FuzzyDigraph", "ShortestPathResult", "ofn_min", "rank", "shortest_paths"),
    "kosinski": ("FunctionProprietyReport", "PiecewisePoly", "PiecewisePolyOfn",
                 "combine_sides", "corresponding_membership", "k_is_proper",
                 "k_op", "value_preimages"),
    "piasecki": ("CONSTANT", "PRODUCT_FORM", "PiaseckiResult", "TrapezoidCorners",
                 "p_closure_check", "p_op"),
    "classical": ("LRFuzzyNumber", "from_typed_trapezoid", "levelset_add",
                  "lr_level_set", "lr_membership", "zadeh_add_grid",
                  "zadeh_mul_levelsets"),
}
_LAZY_MODULE = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    if name in _LAZY:  # ofnring.kosinski and the like, as when loaded eagerly
        return importlib.import_module(f"{__name__}.{name}")
    module = _LAZY_MODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    return value  # kept, so that the next lookup costs what an eager import's does


__all__ = [
    "BaseFunction", "IDENTITY", "SQRT", "GAUSSIAN_INVERSE", "LOG",
    "available_tags", "get_base", "register_base",
    "EssentialTuple", "Interval", "Side", "TypedOfn",
    "typed", "trapezoid", "rectangular", "crisp", "zero", "one",
    "add", "sub", "mul", "div", "neg", "scalar_mul",
    "side_eval", "level_set", "level_set_of_sides", "orientation",
    "ProprietyReport", "classify",
    "PATHOLOGY_NONE", "PATHOLOGY_II", "PATHOLOGY_III", "PATHOLOGY_COMBINED",
    "correct", "correct_type_ii", "correct_type_iii",
    "MembershipBranch", "MembershipFunction", "membership",
    "membership_from_sides", "membership_eval",
    "OfnError", "DomainError", "RangeError", "UnknownBaseError",
    "MixedTypeError", "DivisionByZero", "ImproperError", "DegenerateError",
    "WrongPathology", "DegreeCapError", "NegativeCycle",
    "ParseError", "DocumentError", "ArithmeticOverflow",
    *_LAZY_MODULE,
]
