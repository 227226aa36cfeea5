"""The search frontier and the five equivalence searches built on it.

Each search runs one fixed input under a budget that keeps its clocks.  The
verdict, the witness and the states charged are pinned, and so is the rule
for charging: a braid search charges one state per normal form it has not
met before, after the goal test; the quiver and plabic searches charge one
state per neighbour looked up, before deduplication.  With one state fewer
each search gives up.  Every witness is replayed.
"""

from dataclasses import dataclass, field
from functools import reduce

from morsify._common import Budget, Equivalent, Unknown
from morsify._search import Frontier
from morsify.accept import FOUR_FORMS
from morsify.braid import (
    apply_conjugation,
    positive_equal,
    positive_isotopic,
    solid_torus_isotopic,
    word,
)
from morsify.plabic import MoveDescriptor as Move
from morsify.plabic import _search_flip_square_path, apply_move, canonical_code
from morsify.plabic import move_equivalent
from morsify.quiver import is_isomorphic, mutate_seq, mutation_equivalent

from test_plabic import S1, S2, T1, fence


@dataclass(frozen=True)
class CountingBudget(Budget):
    """A budget that keeps every clock a search starts."""

    clocks: list = field(default_factory=list, compare=False, hash=False, repr=False)

    def start(self):
        clock = super().start()
        self.clocks.append(clock)
        return clock

    @property
    def states(self) -> int:
        return sum(c.states for c in self.clocks)


class TestFrontier:
    @staticmethod
    def steps(n):
        return [("a", n + 1), ("b", n + 2)]

    def test_breadth_first_without_rank(self):
        f = Frontier(0, lambda n: n, self.steps)
        assert list(f.step()) == [(1, ("a",), True), (2, ("b",), True)]
        assert f.next_path() == ("a",)
        assert list(f.step()) == [(2, ("b",), False), (3, ("a", "b"), True)]
        assert list(f.step()) == [(3, ("a", "b"), False), (4, ("b", "b"), True)]
        assert len(f) == 2
        assert f.seen == {0: (), 1: ("a",), 2: ("b",), 3: ("a", "b"), 4: ("b", "b")}

    def test_rank_first_then_insertion_order(self):
        f = Frontier(0, lambda n: n, self.steps, rank=lambda n: -n)
        list(f.step())
        assert f.next_path() == ("b",)  # state 2 outranks state 1
        list(f.step())
        assert f.next_path() == ("b", "b")

    def test_keys_merge_states(self):
        f = Frontier(0, lambda n: n % 3, self.steps)
        assert [new for _, _, new in f.step()] == [True, True]
        assert [new for _, _, new in f.step()] == [False, False]
        assert f.seen.keys() == {0, 1, 2}


def _replay_braid(u, witness):
    return reduce(apply_conjugation, witness, u)


def _short(budget_states):
    return CountingBudget(max_states=budget_states - 1, max_seconds=600)


class TestPinnedSearches:
    def test_solid_torus_isotopic(self):
        u = word(4, [2, 3, 3, 2, 3, 1, 2, 3, 1])
        v = word(4, [1, 1, 2, 3, 2, 2, 1, 3, 2])
        b = CountingBudget(max_states=40, max_seconds=600)
        res = solid_torus_isotopic(u, v, b)
        assert res == Equivalent((("L", 3), ("R", 1), ("L", 2), ("R", 1)))
        assert b.states == 40
        assert positive_equal(_replay_braid(u, res.witness), v)
        assert solid_torus_isotopic(u, v, _short(40)) == Unknown("budget exhausted")

    def test_positive_isotopic(self):
        u, v = word(3, [1, 1, 2, 1, 2, 2]), word(2, [1] * 5)
        b = CountingBudget(max_states=18, max_seconds=600)
        res = positive_isotopic(u, v, b)
        assert res == Equivalent((("L", 1), ("L", 1), ("L", 1), ("destab", 1)))
        assert b.states == 18
        assert positive_equal(_replay_braid(u, res.witness), v)
        assert positive_isotopic(u, v, _short(18)) == Unknown("budget exhausted")

    def test_mutation_equivalent(self):
        q1, q2 = FOUR_FORMS[1], FOUR_FORMS[2]
        b = CountingBudget(max_states=154, max_seconds=600)
        res = mutation_equivalent(q1, q2, b)
        assert res == Equivalent((0, 5, 1, 0, 4))
        assert b.states == 154
        assert is_isomorphic(mutate_seq(q1, res.witness), q2)
        assert mutation_equivalent(q1, q2, _short(154)) == Unknown(
            "search budget exhausted"
        )

    def test_move_equivalent(self):
        p, q = fence(S1, T1), fence(S1, S1)
        b = CountingBudget(max_states=38, max_seconds=600)
        res = move_equivalent(p, q, b)
        assert res == Equivalent(
            (Move("tailRemove", ("eL1",)), Move("tailAttach", (("c1.t", 1), 1, "b")))
        )
        assert b.states == 38
        assert canonical_code(reduce(apply_move, res.witness, p)) == canonical_code(q)
        assert move_equivalent(p, q, _short(38)) == Unknown("search budget exhausted")

    def test_flip_square_path(self):
        # four moves apart: one more than the map around the target reaches,
        # so the search steps forward into the map and descends it
        p = fence(S1, S2, S1, S2)
        path = (
            Move("flipBlack", (("c0.b", 0), ("c2.b", 2))),
            Move("flipWhite", (("c1.t", 0), ("c3.t", 1))),
            Move("square", (("c0.b", 2), ("c0.t", 0), ("c1.b", 0), ("c2.t", 2))),
            Move("flipWhite", (("c1.b", 1), ("c3.t", 1))),
        )
        target = reduce(apply_move, path, p)
        allowed = frozenset(p.internal | p.leaves)
        b = CountingBudget(max_states=37, max_seconds=600)
        found = _search_flip_square_path(p, target, b, allowed)
        assert found == path
        assert b.states == 37
        assert canonical_code(reduce(apply_move, found, p)) == canonical_code(target)
        assert _search_flip_square_path(p, target, _short(37), allowed) is None

