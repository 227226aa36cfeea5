"""The search frontier and the searches built on it: the four equivalence
searches of the package and, kept here as a test oracle, the flip/square path
search that the stored triangle-push templates were recorded from.

Each search runs one fixed input under a budget that keeps its clocks.  The
verdict, the witness and the states charged are pinned, and so is the rule
for charging: a braid search charges one state per normal form it has not
met before, after the goal test; the quiver and plabic searches charge one
state per neighbour looked up, before deduplication.  With one state fewer
each search gives up.  Every witness is replayed.
"""

from dataclasses import dataclass, field
from functools import reduce

import pytest

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
from morsify.divide import scannable, scannable_to_planar, yb_sites
from morsify.plabic import MoveDescriptor as Move
from morsify.plabic import SiteNotFound, _legal_moves, _pushed_gadget_graph
from morsify.plabic import apply_move, attach_plabic, canonical_code
from morsify.plabic import move_equivalent, yb_as_moves
from morsify.quiver import is_isomorphic, mutate_seq, mutation_equivalent

from test_plabic import S1, S2, T1, _colours_swapped, fence

# the triangle-push search maps this many moves around its target
BACK_DEPTH = 3


def _search_flip_square_path(p, target, budget, allowed):
    """Flip and square moves at vertices named in ``allowed`` from ``p`` to
    ``target``: a breadth-first search forward into the ``BACK_DEPTH``
    neighbourhood of ``target``, then a greedy descent through it.  One
    state per move looked up; None when the budget runs out, and
    :class:`SiteNotFound` when the moves do."""

    def neighbours(g):
        for m, ng in _legal_moves(g, ("flipWhite", "flipBlack", "square")):
            if {x[0] for x in m.site} <= allowed:
                yield m, ng

    def canon(g):
        return canonical_code(g, strict_boundary_colors=True)

    clock = budget.start()
    ahead = Frontier(p, canon, neighbours)
    behind = Frontier(target, canon, neighbours)
    (start,) = ahead.seen
    if start in behind.seen:
        return ()
    # distance-to-target map for the last few layers
    while behind and len(behind.next_path()) < BACK_DEPTH:
        for _ in behind.step():
            if not clock.tick():
                return None
    back = {c: len(path) for c, path in behind.seen.items()}
    # forward search until we enter the mapped region
    path = () if start in back else None
    while path is None and ahead:
        for c, fpath, new in ahead.step():
            if not clock.tick():
                return None
            if new and c in back:
                path = fpath
                break
    if path is None:
        raise SiteNotFound(
            "no flip/square path: the orbit under the allowed moves is "
            f"exhausted after {clock.states} states"
        )
    # descend the map greedily
    g = reduce(apply_move, path, p)
    dist = back[canon(g)]
    while dist > 0:
        for m, ng in neighbours(g):
            if not clock.tick():
                return None
            c = canon(ng)
            if back.get(c, dist) < dist:
                g, dist, path = ng, back[c], path + (m,)
                break
        else:
            raise SiteNotFound("no flip/square path: the descent to the target stalled")
    return path


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


class TestTrianglePushOracle:
    """The flip/square path search the stored triangle-push templates were
    recorded from.  ``yb_as_moves`` must succeed exactly where it does."""

    S1212 = scannable_to_planar(scannable(3, (), (1, 2, 1, 2), ()))

    # one site of each triangle, plain and colour-swapped, with the length of
    # the path the search finds (None: it finds none)
    @pytest.mark.parametrize(
        "site_index, swap, length",
        [(0, False, None), (0, True, 15), (3, False, 15), (3, True, None)],
    )
    def test_templates_succeed_where_the_search_does(self, site_index, swap, length):
        site = yb_sites(self.S1212)[site_index]
        p = attach_plabic(self.S1212)
        if swap:
            p = _colours_swapped(p)
        target = _pushed_gadget_graph(p, site)
        allowed = frozenset(f"{n}.{s}" for n in site.region_nodes for s in range(4))
        try:
            path = _search_flip_square_path(p, target, Budget(), allowed)
        except SiteNotFound:
            path = None
        try:
            macro = yb_as_moves(p, site)
        except SiteNotFound:
            macro = None
        lengths = [None if x is None else len(x) for x in (path, macro)]
        assert lengths == [length, length]
        if macro is not None:
            assert canonical_code(
                reduce(apply_move, macro, p), strict_boundary_colors=True
            ) == canonical_code(target, strict_boundary_colors=True)
