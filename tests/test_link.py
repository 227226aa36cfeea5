"""Link diagrams, Alexander, Kauffman bracket, Jones."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from morsify.link import (
    CapExceeded,
    LaurentPoly,
    LinkDiagram,
    alexander,
    closure,
    component_count,
    fingerprint,
    format_link_diagram,
    format_poly,
    jones,
    kauffman_bracket,
    parse_link_diagram,
    parse_poly,
)
from morsify._common import bareiss
from morsify.braid import beta_of_scannable
from morsify.divide import lissajous
from morsify.link import _DELTA, _fox_columns, _poly_through
from morsify.plabic import (
    DisconnectedFence,
    FenceWord,
    admissible_orientation,
    apply_move,
    enumerate_moves,
    fence_of_divide,
    fence_of_word,
    link_of_oriented_plabic,
)


def poly(*coeffs) -> LaurentPoly:
    """Polynomial from ascending coefficients starting at exponent 0."""
    return LaurentPoly(tuple((e, c) for e, c in enumerate(coeffs) if c))


def torus_word(p: int, q: int) -> tuple:
    return tuple(list(range(1, p)) * q)


def torus_knot_alexander(p: int, q: int) -> LaurentPoly:
    # (t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)), for coprime p, q, by exact
    # long division of ascending coefficient lists
    def minus_one(m):  # t^m - 1
        return [-1] + [0] * (m - 1) + [1]

    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    num = mul(minus_one(p * q), minus_one(1))
    den = mul(minus_one(p), minus_one(q))  # monic
    quot = [0] * (len(num) - len(den) + 1)
    for i in range(len(quot) - 1, -1, -1):
        quot[i] = c = num[i + len(den) - 1]
        for j, d in enumerate(den):
            num[i + j] -= c * d
    assert not any(num)
    return poly(*quot).normalize()


def brute_bracket(d: LinkDiagram) -> LaurentPoly:
    """Independent 2^n state sum for small diagrams."""
    total = LaurentPoly(())
    n = len(d.crossings)
    for bits in itertools.product((0, 1), repeat=n):
        parent: dict = {}

        def find(x):
            while parent.setdefault(x, x) != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        labels: set = set()
        exp = 0
        for ((a, b, c, dd), _s), bit in zip(d.crossings, bits):
            labels.update((a, b, c, dd))
            pairs = ((a, b), (c, dd)) if bit == 0 else ((a, dd), (b, c))
            exp += 1 if bit == 0 else -1
            for x, y in pairs:
                rx, ry = find(x), find(y)
                if rx != ry:
                    parent[rx] = ry
        loops = len({find(x) for x in labels}) + d.free_loops
        term = LaurentPoly.constant(1).shift(exp)
        for _ in range(loops - 1):
            term = term * _DELTA
        total = total + term
    return total


def reference_wirtinger_alexander(d: LinkDiagram) -> LaurentPoly:
    """The diagram route before unit-pivot elimination: the Fox minor (last
    column dropped, and the last row when g = n) at the integers
    t = 2, ..., g + 1, a Bareiss determinant at each, then interpolation."""
    n = len(d.crossings)
    if d.free_loops:
        if n or d.free_loops > 1:
            return LaurentPoly(())
        return LaurentPoly.constant(1)
    columns, g = _fox_columns(d)
    if g - 1 > n:
        return LaurentPoly(())
    ys = []
    for t in range(2, 2 + g):
        minor = []
        for a, over, c, sign in columns[: g - 1]:
            row = [0] * g
            if sign > 0:
                row[a] += t
                row[over] += 1 - t
                row[c] -= 1
            else:
                row[a] += 1
                row[over] += t - 1
                row[c] -= t
            minor.append(row[:-1])
        ys.append(bareiss(minor)[0])
    return _poly_through(ys).normalize()


def scrambled(d: LinkDiagram, rng: random.Random) -> LinkDiagram:
    """The same diagram with fresh arc labels and its crossings reordered;
    both change the columns, the dropped column and row, and the pivots."""
    labels = list(dict.fromkeys(a for arcs, _ in d.crossings for a in arcs))
    fresh = dict(zip(labels, rng.sample(range(4 * len(labels) + 1), len(labels))))
    crossings = [(tuple(fresh[a] for a in arcs), s) for arcs, s in d.crossings]
    rng.shuffle(crossings)
    return LinkDiagram(tuple(crossings), d.free_loops)


def with_kink(d: LinkDiagram, x, under_first: bool, sign: int) -> LinkDiagram:
    """``d`` with a Reidemeister I kink of sign ``sign`` on the arc ``x``:
    the strand meets the new crossing first under (or first over), runs
    round a loop and crosses itself at it again."""
    # the slots an arc leaves a crossing by: under-out, and over-out (b at a
    # positive crossing, d at a negative one)
    leaving = {1: (2, 1), -1: (2, 3)}
    x1, x2, loop = ("k", x, 1), ("k", x, 2), ("k", x, 3)
    crossings = []
    for arcs, s in d.crossings:
        arcs = list(arcs)
        for i, a in enumerate(arcs):
            if a == x:
                arcs[i] = x1 if i in leaving[s] else x2
        crossings.append((tuple(arcs), s))
    if under_first:  # in under as x1, out under into the loop, over into x2
        kink = (x1, x2, loop, loop) if sign > 0 else (x1, loop, loop, x2)
    else:  # in over as x1 into the loop, in under from it, out under as x2
        kink = (loop, loop, x2, x1) if sign > 0 else (loop, x1, x2, loop)
    crossings.append((kink, sign))
    return LinkDiagram(tuple(crossings), d.free_loops)


def split_union(d: LinkDiagram, e: LinkDiagram) -> LinkDiagram:
    """The diagrams side by side, with the arcs of ``e`` relabelled apart."""
    moved = tuple((tuple(("e", a) for a in arcs), s) for arcs, s in e.crossings)
    return LinkDiagram(d.crossings + moved, d.free_loops + e.free_loops)


def random_word(rng: random.Random, k: int, length: int) -> tuple:
    return tuple(rng.choice((1, -1)) * rng.randint(1, k - 1) for _ in range(length))


@st.composite
def random_pd_codes(draw) -> LinkDiagram:
    """Closures of signed braid words, sometimes with kinks and sometimes
    beside a second closure, relabelled and reordered at random."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    k = draw(st.integers(2, 5))
    d = closure(random_word(rng, k, draw(st.integers(1, 16))), k)
    for _ in range(draw(st.integers(0, 2))):
        x = rng.choice(rng.choice(d.crossings)[0])
        d = with_kink(d, x, rng.random() < 0.5, rng.choice((1, -1)))
    if draw(st.booleans()):
        j = rng.randint(2, 3)
        d = split_union(d, closure(random_word(rng, j, rng.randint(1, 6)), j))
    return scrambled(d, rng)


@st.composite
def moved_fence_links(draw) -> LinkDiagram:
    """Plabic links of random fences after a few random moves."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    k = draw(st.integers(2, 3))
    letters = tuple(
        (rng.choice("st"), rng.randint(1, k - 1))
        for _ in range(draw(st.integers(1, 8)))
    )
    # a fence needs a letter in every strand gap (and may still fall apart)
    letters += tuple(("s", i) for i in range(1, k) if i not in {j for _, j in letters})
    try:
        p = fence_of_word(FenceWord(k, letters))
    except DisconnectedFence:
        assume(False)
    for _ in range(draw(st.integers(0, 4))):
        p = apply_move(p, rng.choice(enumerate_moves(p)))
    o = admissible_orientation(p)
    assume(o is not None)
    return link_of_oriented_plabic(p, o)


class TestDiagrams:
    def test_closure_counts(self):
        d = closure((1, 1, 1), 2)
        assert len(d.crossings) == 3
        assert d.writhe == 3
        assert component_count(d) == 1

    def test_hopf_components(self):
        assert component_count(closure((1, 1), 2)) == 2

    def test_full_twist_components(self):
        # the square of the 4-strand half twist is a pure braid
        delta4 = (1, 2, 1, 3, 2, 1)
        assert component_count(closure(delta4 + delta4, 4)) == 4

    def test_untouched_strand_splits_off(self):
        d = closure((1,), 3)
        assert d.free_loops == 1
        assert component_count(d) == 2

    def test_labels_twice(self):
        with pytest.raises(ValueError):
            LinkDiagram((((0, 1, 2, 3), 1),))

    def test_round_trip(self):
        d = closure((1, -2, 1, -2), 3)
        assert parse_link_diagram(format_link_diagram(d)) == d

    def test_letter_range(self):
        with pytest.raises(ValueError):
            closure((2,), 2)
        with pytest.raises(ValueError):
            closure((0,), 2)


class TestPolynomials:
    def test_arithmetic(self):
        p = poly(1, -1, 1)
        q = poly(0, 1)
        assert (p * q).coeffs == ((1, 1), (2, -1), (3, 1))
        assert (p + (-p)).is_zero
        assert p(Fraction(2)) == 3

    def test_normalize(self):
        p = LaurentPoly(((-2, 1), (1, -2)))
        assert p.normalize() == LaurentPoly(((0, -1), (3, 2)))

    def test_integer_interpolation(self):
        # values at t = 2, 3, 4
        assert _poly_through([0, 1, 4]) == poly(4, -4, 1)  # (t - 2)^2
        with pytest.raises(ArithmeticError, match="non-integer coefficient"):
            _poly_through([0, 0, 1])  # (t - 2)(t - 3) / 2

    def test_round_trip(self):
        p = LaurentPoly(((-1, 3), (0, -1), (4, 2)))
        assert parse_poly(format_poly(p)) == p
        assert parse_poly("0").is_zero


class TestAlexander:
    def test_trefoil(self):
        assert alexander((1, 1, 1), 2) == poly(1, -1, 1)

    def test_hopf(self):
        assert alexander((1, 1), 2) == poly(-1, 1)

    def test_figure_eight(self):
        assert alexander((1, -2, 1, -2), 3) == poly(1, -3, 1)

    def test_torus_knots(self):
        for p, q in [(2, 3), (2, 5), (3, 4), (3, 5), (4, 5), (2, 7), (3, 2)]:
            assert alexander(torus_word(p, q), p) == torus_knot_alexander(p, q)

    def test_torus_34_value(self):
        assert alexander(torus_word(3, 4), 3) == LaurentPoly(
            ((0, 1), (1, -1), (3, 1), (5, -1), (6, 1))
        )

    def test_unknot_and_split(self):
        assert alexander((1,), 2) == poly(1)
        assert alexander((1,), 3).is_zero  # split: unknot plus a circle

    def test_diagram_route_agrees(self):
        rng = random.Random(7)
        for _ in range(25):
            k = rng.randint(2, 4)
            w = tuple(
                rng.choice((1, -1)) * rng.randint(1, k - 1)
                for _ in range(rng.randint(1, 7))
            )
            assert alexander(closure(w, k), None) == alexander(w, k), w

    @given(
        st.integers(2, 5).flatmap(
            lambda k: st.tuples(
                st.just(k),
                st.lists(
                    st.integers(1, k - 1).flatmap(lambda i: st.sampled_from((i, -i))),
                    max_size=30,
                ),
            )
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_wirtinger_equals_burau(self, case):
        k, letters = case
        w = tuple(letters)
        assert alexander(closure(w, k)) == alexander(w, k)

    def test_two_components_never_passing_under(self):
        # two components only ever pass over: the Fox matrix has fewer rows
        # than the minors the polynomial needs, and the link is split
        w = (-1, 4, -3, -4, 1)
        assert alexander(closure(w, 5)).is_zero
        assert alexander(w, 5).is_zero

    def test_markov_stabilization(self):
        w = (1, 1, 2, 1)
        assert alexander(w, 3) == alexander(w + (3,), 4)
        assert alexander(w, 3) == alexander(w + (-3,), 4)

    @given(st.lists(st.integers(1, 2), min_size=1, max_size=7), st.integers(0, 6))
    @settings(max_examples=30, deadline=None)
    def test_conjugation_invariance(self, letters, rot):
        w = tuple(letters)
        rot %= len(w)
        assert alexander(w, 3) == alexander(w[rot:] + w[:rot], 3)

    def test_symmetry(self):
        # Alexander polynomials are palindromic up to units
        for w, k in [((1, 1, 1), 2), ((1, 2, 1, 2), 3), ((1, -2, 1, -2), 3)]:
            p = alexander(w, k)
            assert p.mirror().normalize() == p


class TestDiagramRoute:
    """Unit-pivot elimination against the g-point route it replaced."""

    @given(random_pd_codes())
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_reference_on_random_pd_codes(self, d):
        assert alexander(d) == reference_wirtinger_alexander(d)

    @given(moved_fence_links())
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_reference_on_moved_fences(self, d):
        assert alexander(d) == reference_wirtinger_alexander(d)

    def test_agrees_with_reference_on_fixed_diagrams(self):
        trefoil, hopf = closure((1, 1, 1), 2), closure((1, 1), 2)
        over_only = closure((-1, 4, -3, -4, 1), 5)  # g - 1 > n
        # an arc of a component that never passes under
        x = next(
            a
            for arcs, _ in over_only.crossings
            for a in arcs
            if all(arcs2.index(a) % 2 for arcs2, _ in over_only.crossings if a in arcs2)
        )
        kinked = [
            with_kink(d, arc, under_first, sign)
            for d, arc in ((trefoil, trefoil.crossings[0][0][0]), (over_only, x))
            for under_first in (True, False)
            for sign in (1, -1)
        ]
        split = [
            split_union(trefoil, closure((1,), 2)),
            split_union(trefoil, closure((1, -2, 1, -2), 3)),
        ]
        # under-in and under-out in one class: each Hopf component passes
        # under once, and so does a kinked component that passed only over
        # (its kink's row, with the over strand in that class too, is 0)
        assert all(a == c != b for a, b, c, _ in _fox_columns(hopf)[0])
        for d in kinked[4:]:
            a, b, c, _ = _fox_columns(d)[0][-1]  # the kink
            assert a == b == c
        assert _fox_columns(over_only)[1] - 1 > len(over_only.crossings)
        rng = random.Random(5)
        cases = [closure((1,), 2), hopf, closure((-1, -1), 2), *kinked, *split, over_only]
        for d in cases:
            want = reference_wirtinger_alexander(d)
            assert alexander(d) == want, d
            for _ in range(4):
                assert alexander(scrambled(d, rng)) == want, d
        assert alexander(hopf) == poly(-1, 1)
        assert all(alexander(d).is_zero for d in kinked[4:] + split + [over_only])

    def test_plabic_link_of_lissajous_120_3(self):
        """720 crossings; the g-point route took minutes at this size."""
        s = lissajous(120, 3)
        p = fence_of_divide(s)
        d = link_of_oriented_plabic(p, admissible_orientation(p))
        assert len(d.crossings) == 720
        beta = beta_of_scannable(s)
        assert alexander(d) == alexander(beta.letters, beta.k)


class TestKauffman:
    def test_matches_brute_force(self):
        rng = random.Random(3)
        for _ in range(25):
            k = rng.randint(2, 3)
            w = tuple(
                rng.choice((1, -1)) * rng.randint(1, k - 1)
                for _ in range(rng.randint(1, 6))
            )
            d = closure(w, k)
            assert kauffman_bracket(d) == brute_bracket(d), w

    def test_positive_kink_value(self):
        d = closure((1,), 2)
        assert kauffman_bracket(d) == LaurentPoly(((3, -1),))

    def test_cap(self):
        d = closure(tuple([1] * 25), 2)
        with pytest.raises(CapExceeded):
            kauffman_bracket(d, cap=24)
        kauffman_bracket(d, cap=25)  # just above the line it works


class TestJones:
    def test_unknot(self):
        assert jones(closure((1,), 2)) == poly(1)

    def test_trefoil(self):
        v = jones(closure((1, 1, 1), 2))
        assert v == LaurentPoly(((-8, -1), (-6, 1), (-2, 1)))

    def test_mirror_trefoil(self):
        v = jones(closure((-1, -1, -1), 2))
        assert v == jones(closure((1, 1, 1), 2)).mirror()

    def test_hopf(self):
        assert jones(closure((1, 1), 2)) == LaurentPoly(((-5, -1), (-1, -1)))

    def test_figure_eight_amphichiral(self):
        v = jones(closure((1, -2, 1, -2), 3))
        assert v == v.mirror()
        assert v == LaurentPoly(((-4, 1), (-2, -1), (0, 1), (2, -1), (4, 1)))

    def test_invariance_under_markov_stabilization(self):
        base = jones(closure((1, 1, 1), 2))
        assert jones(closure((1, 1, 1, 2), 3)) == base

    def test_split_unknot_multiplies_by_loop_value(self):
        base = jones(closure((1, 1, 1), 2))
        unlink_factor = LaurentPoly(((-1, -1), (1, -1)))
        # sigma2 and its inverse cancel, leaving a split circle around strand 3
        assert jones(closure((1, 1, 2, -2, 1), 3)) == base * unlink_factor


class TestFingerprint:
    def test_routes_agree(self):
        w = (1, 1, 1)
        assert fingerprint(w, 2) == fingerprint(closure(w, 2))

    def test_jones_opt_in(self):
        fp = fingerprint((1, 1), 2, include_jones=True)
        assert fp[0] == 2
        assert fp[2] is not None

    def test_distinguishes(self):
        assert fingerprint((1, 1, 1), 2) != fingerprint((1, 1), 2)
