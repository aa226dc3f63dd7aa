"""Work budgets: counts of the work done on fixed seeded inputs.

Timings move with the host; these counts do not.  A change that alters a
count updates its pin here and gives the before and after in CHANGES.md.
"""
import random
from collections import Counter

import pytest

from ofnring import (IDENTITY, DivisionByZero, ImproperError, PiecewisePolyOfn, bases,
                     classical, classify, correct, from_typed_trapezoid, get_base, k_is_proper,
                     k_op, membership, membership_eval, p_closure_check, p_op,
                     parse_expression, rank, side_eval, zadeh_add_grid)
from ofnring.documents import ofn_from_doc, ofn_to_doc

from helpers import ALL_BASES, random_lr, random_proper


@pytest.fixture
def grid_work(monkeypatch):
    """Per call of zadeh_add_grid: membership-grid evaluations, and rounds per search."""
    work = {"evaluations": [], "rounds": []}
    membership_grid, first = classical._membership_grid, classical._first

    def counted_membership_grid(*args):
        work["evaluations"][-1] += 1
        return membership_grid(*args)

    def counted_first(fails, *args):
        rounds = []

        def counted_fails(i):
            rounds.append(i)
            return fails(i)

        found = first(counted_fails, *args)
        work["rounds"][-1].append(len(rounds))
        return found

    monkeypatch.setattr(classical, "_membership_grid", counted_membership_grid)
    monkeypatch.setattr(classical, "_first", counted_first)

    def run(x, y, grid=2001):
        work["evaluations"].append(0)
        work["rounds"].append([])
        zadeh_add_grid(x, y, grid)

    work["run"] = run
    return work


def test_zadeh_grid_evaluations_per_call(grid_work):
    # the membership grid of x once, then twice each for the peak of g, the
    # crossing and the levels: 7, plus one for each extra round of the crossing
    rng = random.Random(4)
    for _ in range(60):
        grid_work["run"](random_lr(rng, "audit"), random_lr(rng, "audit"))
    assert Counter(grid_work["evaluations"]) == {7: 59, 8: 1}
    # both searches settle from the guess in two rounds, rarely three
    assert Counter(map(tuple, grid_work["rounds"])) == {(2, 2): 59, (2, 3): 1}


@pytest.mark.parametrize("family,grid,worst", [
    ("crisp", 101, (7, 6)), ("crisp", 2001, (11, 10)),
    ("zero-spread", 101, (2, 6)), ("zero-spread", 2001, (2, 10)),
])
def test_zadeh_grid_rounds_without_a_guess(grid_work, family, grid, worst):
    # a crisp x or a zero spread leaves the guess undefined; the search then
    # bisects, and no search may take more than ceil(log2 grid) + 3 rounds
    rng = random.Random(16)
    for _ in range(30):
        grid_work["run"](random_lr(rng, family), random_lr(rng, family), grid)
    peak, crossing = zip(*grid_work["rounds"])
    assert (max(peak), max(crossing)) == worst
    assert max(worst) <= (grid - 1).bit_length() + 3


@pytest.fixture
def generic_inits(monkeypatch):
    """The record classes built through the generic _Value.__init__, one name per call."""
    built = []
    init = bases._Value.__init__

    def counted_init(self, *args, **kwargs):
        built.append(type(self).__name__)
        init(self, *args, **kwargs)

    monkeypatch.setattr(bases._Value, "__init__", counted_init)
    return built


def _literal(rng, base):
    if rng.random() < 0.2:
        return f"crisp({rng.uniform(-4.0, 4.0):.2f})"
    args = ",".join(f"{rng.uniform(-4.0, 4.0):.2f}" for _ in range(4))
    return f"{get_base(base).literal}({args})"


def test_ring_pipeline_builds_no_record_through_the_generic_constructor(generic_inits):
    # parse -> op -> classify -> correct -> membership -> membership_eval ->
    # rank -> document round trip, as one ring-pipeline request does it: each
    # record here is built from checked values, so through _make
    rng = random.Random(3)
    requests = 0
    for i in range(300):
        base = ALL_BASES[i % 4]
        text = f"{_literal(rng, base)} {rng.choice('+-*/')} {_literal(rng, base)}"
        try:
            x = parse_expression(text)
        except DivisionByZero:
            continue
        requests += 1
        classify(x)
        fixed, _ = correct(x)
        try:
            m = membership(fixed)
        except ImproperError:  # the tie that ring-pipeline lists as a known failure
            continue
        for which, alpha in (("up", 0.25), ("down", 0.5), ("up", 1.0)):
            membership_eval(m, side_eval(fixed, which, alpha))
        rank(fixed)
        ofn_from_doc(ofn_to_doc(fixed))
    assert requests > 250 and Counter(generic_inits) == Counter()


def test_oracle_path_builds_no_record_through_the_generic_constructor(generic_inits):
    rng = random.Random(5)
    pairs = [(rng.choice("+-*"), random_proper(rng, IDENTITY), random_proper(rng, IDENTITY))
             for _ in range(100)]
    for star, x, y in pairs:
        k_is_proper(k_op(star, PiecewisePolyOfn.from_typed(x), PiecewisePolyOfn.from_typed(y)))
        p_closure_check(p_op(star, x, y))
        from_typed_trapezoid(x)
    assert Counter(generic_inits) == Counter()
