"""Link diagrams, Alexander, Kauffman bracket, Jones."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
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
from morsify.link import _DELTA, _poly_through


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
