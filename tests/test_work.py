"""Work budgets: counts of the work done on fixed seeded inputs.

Timings move with the host; these counts do not.  A change that alters a
count updates its pin here and gives the before and after in CHANGES.md.
"""
import random
from collections import Counter

import pytest

from ofnring import classical, zadeh_add_grid

from helpers import random_lr


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
