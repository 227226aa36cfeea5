"""Plabic graphs: moves, fences, gadget attachment, orientations, links."""

import random
import sys
import time
from dataclasses import replace
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morsify.braid import beta_of_fence_word
from morsify.divide import (
    apply_yb,
    lissajous,
    parse_planar_divide,
    scannable,
    scannable_to_planar,
    wiring_diagram,
    yb_sites,
)
from morsify.accept import UNORIENTABLE, _expected_fence_orientation
from morsify.link import alexander, closure, component_count, fingerprint
from morsify.plabic import (
    DisconnectedFence,
    FenceWord,
    IllegalMove,
    MoveDescriptor,
    Orientation,
    PlabicGraph,
    SiteNotFound,
    _LETTERS,
    _candidates,
    _check_heads,
    _in_degree,
    _is_admissible,
    _legal_moves,
    admissible_orientation,
    apply_move,
    attach_plabic,
    canonical_code,
    divide_of_attached,
    enumerate_moves,
    faces,
    fence_of_divide,
    fence_of_word,
    fence_word_of_divide,
    format_fence_word,
    format_plabic,
    link_of_oriented_plabic,
    move_equivalent,
    parse_fence_word,
    parse_plabic,
    quiver_of_plabic,
    transport_orientation,
    validate,
    word_of_fence,
    yb_as_moves,
)
from morsify.agquiver import quiver_of_divide
from morsify.quiver import is_isomorphic, mutate, mutation_equivalent

from test_divide import (
    CHAIN_WITH_LOOPS,
    HYPERBOLIC_NODE,
    TRIANGLE_ARC,
    checkerboard_sweep,
    figure_eight,
)


def fence(*letters, k=None):
    if k is None:
        k = max(i for _, i in letters) + 1
    return fence_of_word(FenceWord(k, letters))


S1, S2, T1, T2 = ("s", 1), ("s", 2), ("t", 1), ("t", 2)


def _colours_swapped(p):
    return replace(p, black=(p.internal | p.leaves) - p.black)


def _renamed(p, names):
    """``p`` with vertex ``v`` renamed ``names[v]``."""
    return PlabicGraph(
        frozenset(names[v] for v in p.internal),
        frozenset(names[v] for v in p.leaves),
        frozenset(names[v] for v in p.black),
        frozenset(frozenset((names[v], s) for v, s in e) for e in p.edges),
        tuple(names[v] for v in p.boundary_order),
        None if p.outer_dart is None else (names[p.outer_dart[0]], p.outer_dart[1]),
    )


def draw_walk(data, max_letters=8, max_moves=6):
    """A random fence of 2 to 4 strands and at most ``max_letters`` letters,
    then up to ``max_moves`` random legal moves: every graph of the walk, or
    [] when the fence is disconnected."""
    k = data.draw(st.integers(2, 4))
    letters = data.draw(
        st.lists(
            st.tuples(st.sampled_from("st"), st.integers(1, k - 1)),
            max_size=max_letters - (k - 1),
        )
    )
    # a strand pair without a connector leaves the fence apart
    letters += [("s", i) for i in range(1, k) if ("s", i) not in letters
                and ("t", i) not in letters]
    try:
        p = fence_of_word(FenceWord(k, tuple(letters)))
    except DisconnectedFence:
        return []
    graphs = [p]
    for _ in range(data.draw(st.integers(0, max_moves))):
        moves = list(_legal_moves(p))
        if not moves:
            break
        p = data.draw(st.sampled_from(moves))[1]
        graphs.append(p)
    return graphs


# a graph on which no admissible orientation exists even though the colors
# are balanced: a bicolored square with a doubled side
NO_ORIENTATION = PlabicGraph(
    internal=frozenset({"W", "B", "B2", "W2"}),
    leaves=frozenset({"b1", "w1"}),
    black=frozenset({"b1", "B", "B2"}),
    edges=frozenset(
        {
            frozenset({("b1", 0), ("W", 2)}),
            frozenset({("W", 0), ("B2", 2)}),
            frozenset({("w1", 0), ("B", 1)}),
            frozenset({("B", 0), ("W2", 1)}),
            frozenset({("W", 1), ("B", 2)}),
            frozenset({("B2", 1), ("W2", 2)}),
            frozenset({("B2", 0), ("W2", 0)}),
        }
    ),
    boundary_order=("w1", "b1"),
)


class TestFences:
    def test_single_connector_faces(self):
        p = fence(S1)
        internal, boundary = faces(p)
        assert len(internal) == 0
        assert validate(p) == []

    def test_two_connectors_make_a_square(self):
        p = fence(S1, T1)
        internal, _ = faces(p)
        assert len(internal) == 1
        assert len(internal[0]) == 4

    def test_three_connectors(self):
        internal, _ = faces(fence(S1, T1, S1))
        assert len(internal) == 2

    def test_word_round_trip(self):
        for letters in [
            (S1,),
            (S1, T1),
            (S1, S2, T1, S1),
            (S2, S1, T1, S2, T2, S1, T1, S1),
        ]:
            w = FenceWord(max(i for _, i in letters) + 1, letters)
            assert word_of_fence(fence_of_word(w)) == w

    def test_text_round_trip(self):
        w = FenceWord(3, (S1, T2, S2, S1))
        assert parse_fence_word(format_fence_word(w)) == w

    @pytest.mark.parametrize(
        "text, message",
        [
            ("k\n", "line 1: k takes a strand count"),
            ("# comment\nk 2\ns1 x1\n", "line 3: malformed connector token 'x1'"),
        ],
    )
    def test_text_errors_name_the_line(self, text, message):
        with pytest.raises(ValueError) as err:
            parse_fence_word(text)
        assert str(err.value) == message

    def test_empty_word_rejected(self):
        with pytest.raises(DisconnectedFence):
            fence_of_word(FenceWord(2, ()))

    def test_unconnected_strand_rejected(self):
        with pytest.raises(DisconnectedFence):
            fence_of_word(FenceWord(3, (S1,)))

    def test_bad_letters_rejected(self):
        with pytest.raises(ValueError):
            FenceWord(2, (("s", 2),))
        with pytest.raises(ValueError):
            FenceWord(2, (("u", 1),))

    def test_letters_are_shared(self):
        """Words hold one shared tuple per letter and compare and hash by
        value; a rejected letter never enters the shared table."""
        a = FenceWord(3, [["s", 1], ("t", 2)])
        b = FenceWord(3, (("s", 1), ("t", 2)))
        assert a == b and hash(a) == hash(b)
        assert a.letters == (("s", 1), ("t", 2))
        assert all(x is y for x, y in zip(a.letters, b.letters))
        assert FenceWord(3, (("s", 1),)) != FenceWord(4, (("s", 1),))
        # an equal letter of another type keeps its own value
        assert type(FenceWord(2, (("s", 1.0),)).letters[0][1]) is float
        table = dict(_LETTERS)
        for bad in ((("s", 7),), (("u", 1),), (("s", 1), ("t", 0))):
            with pytest.raises(ValueError):
                FenceWord(3, bad)
        assert _LETTERS == table

    def test_fence_word_of_divide(self):
        s = scannable(3, (2,), (1, 2, 1), (1,))
        w = fence_word_of_divide(s)
        assert w.k == 3
        assert w.letters == (S2, S1, T1, S2, T2, S1, T1, S1)

    def test_colors(self):
        p = fence(S1, T1)
        assert "c0.b" in p.black and "c0.t" not in p.black
        assert "c1.t" in p.black and "c1.b" not in p.black
        assert all(v in p.black for v in p.leaves if str(v).startswith("eR"))
        assert all(v not in p.black for v in p.leaves if str(v).startswith("eL"))


class TestAttach:
    def test_single_node_gadget(self):
        p = attach_plabic(parse_planar_divide(HYPERBOLIC_NODE))
        assert len(p.internal) == 4 and len(p.leaves) == 4
        assert len(p.edges) == 8
        internal, _ = faces(p)
        assert len(internal) == 1 and len(internal[0]) == 4
        # the gadget square alternates colors
        assert len(p.black & p.internal) == 2

    def test_bare_circle_rejected(self):
        d = figure_eight()
        circle = type(d)(
            d.nodes, d.endpoints, d.edges, d.boundary_order, 1, d.outer_dart
        )
        with pytest.raises(ValueError):
            attach_plabic(circle)

    def test_round_trip_through_divide(self):
        for d in (
            parse_planar_divide(TRIANGLE_ARC),
            parse_planar_divide(CHAIN_WITH_LOOPS),
            parse_planar_divide(HYPERBOLIC_NODE),
            figure_eight(),
        ):
            assert divide_of_attached(attach_plabic(d)) == d

    def test_tail_colors(self):
        d = parse_planar_divide(HYPERBOLIC_NODE)
        p = attach_plabic(d, tails={"e1": "b"})
        assert "e1" in p.black and "e2" not in p.black

    def test_quiver_matches_divide_quiver(self):
        # the sweep holds valid divides and divides failing D5 alike: both
        # routes read the one checkerboard of the divide's faces
        cases = [
            parse_planar_divide(TRIANGLE_ARC),
            parse_planar_divide(CHAIN_WITH_LOOPS),
            parse_planar_divide(HYPERBOLIC_NODE),
            figure_eight(),
            scannable_to_planar(wiring_diagram(3)),
        ] + checkerboard_sweep()
        for d in cases:
            qp = quiver_of_plabic(attach_plabic(d))
            qd = quiver_of_divide(d)
            assert is_isomorphic(qp, qd), d


# a theta graph: two trivalent vertices joined by three edges, no leaves
THETA = PlabicGraph(
    internal=frozenset({"u", "w"}),
    leaves=frozenset(),
    black=frozenset({"u"}),
    edges=frozenset(
        {
            frozenset({("u", 0), ("w", 0)}),
            frozenset({("u", 1), ("w", 2)}),
            frozenset({("u", 2), ("w", 1)}),
        }
    ),
    boundary_order=(),
)

# a leafless tetrahedron with one black edge a-b: the outer face is the
# triangle a-b-c when the marked dart is a.0, b.0 or c.0
TETRAHEDRON = PlabicGraph(
    internal=frozenset("abcd"),
    leaves=frozenset(),
    black=frozenset("ab"),
    edges=frozenset(
        frozenset(e)
        for e in (
            (("a", 0), ("b", 2)), (("a", 1), ("d", 0)), (("a", 2), ("c", 0)),
            (("b", 0), ("c", 2)), (("b", 1), ("d", 1)), (("c", 1), ("d", 2)),
        )
    ),
    boundary_order=(),
    outer_dart=("a", 0),
)

# a theta graph with one edge subdivided by a vertex that carries the one
# leaf; the leaf is white and its neighbour black, so the tail can go
TAILED_THETA = PlabicGraph(
    internal=frozenset({"x", "y", "v"}),
    leaves=frozenset({"l"}),
    black=frozenset({"x", "v"}),
    edges=frozenset(
        frozenset(e)
        for e in (
            (("x", 0), ("y", 0)), (("x", 1), ("y", 2)), (("x", 2), ("v", 1)),
            (("v", 2), ("y", 1)), (("v", 0), ("l", 0)),
        )
    ),
    boundary_order=("l",),
)


class TestValidation:
    def test_disconnected(self):
        p = PlabicGraph(
            internal=frozenset(),
            leaves=frozenset("abcd"),
            black=frozenset("ac"),
            edges=frozenset(
                {frozenset({("a", 0), ("b", 0)}), frozenset({("c", 0), ("d", 0)})}
            ),
            boundary_order=tuple("abcd"),
        )
        assert validate(p) == ["graph is disconnected"]

    def test_nonplanar_rotation(self):
        # reverse the rotation at one vertex of a square fence: genus jumps
        p = fence(S1, T1)
        swap = {("c0.b", 0): ("c0.b", 1), ("c0.b", 1): ("c0.b", 0)}
        edges = {frozenset(swap.get(x, x) for x in e) for e in p.edges}
        q = PlabicGraph(p.internal, p.leaves, p.black, edges, p.boundary_order)
        assert validate(q) == ["map has genus > 0 (V-E+F = 0, expected 2)"]

    def test_leafless_needs_outer_dart(self):
        assert validate(THETA) == ["leafless graph needs an outer-face dart"]
        marked = PlabicGraph(
            THETA.internal, THETA.leaves, THETA.black, THETA.edges, (), ("u", 0)
        )
        assert validate(marked) == []

    def test_single_dart_edge(self):
        p = PlabicGraph(
            internal=frozenset({"u"}),
            leaves=frozenset(),
            black=frozenset(),
            edges=frozenset({frozenset({("u", 0)}), frozenset({("u", 1), ("u", 2)})}),
            boundary_order=(),
        )
        assert validate(p) == ["edge [('u', 0)] does not pair two distinct darts"]


class TestFenceQuivers:
    def test_fence_quiver_mutation_equivalent_to_divide_quiver(self):
        s = scannable(3, (2,), (1, 2, 1), (1,))
        qf = quiver_of_plabic(fence_of_divide(s))
        qd = quiver_of_divide(scannable_to_planar(s))
        assert bool(mutation_equivalent(qf, qd))

    def test_wiring_fence_quiver(self):
        s = wiring_diagram(3)
        qf = quiver_of_plabic(fence_of_divide(s))
        qd = quiver_of_divide(scannable_to_planar(s))
        assert bool(mutation_equivalent(qf, qd))


class TestMoves:
    def test_square_is_involutive(self):
        p = fence(S1, T1)
        sqs = [m for m in enumerate_moves(p) if m.kind == "square"]
        assert len(sqs) == 1
        q = apply_move(p, sqs[0])
        assert q.black != p.black and q.edges == p.edges
        assert apply_move(q, sqs[0]) == p

    def test_flip_returns(self):
        p = fence(S1, S1)
        flips = [m for m in enumerate_moves(p) if m.kind.startswith("flip")]
        assert flips
        q = apply_move(p, flips[0])
        back = [m for m in enumerate_moves(q) if m.kind == flips[0].kind]
        assert any(
            canonical_code(apply_move(q, m)) == canonical_code(p) for m in back
        )

    def test_tail_remove_then_attach(self):
        p = fence(S1, T1)
        rems = [m for m in enumerate_moves(p) if m.kind == "tailRemove"]
        assert rems
        q = apply_move(p, rems[0])
        assert len(q.leaves) == len(p.leaves) - 1
        res = move_equivalent(q, p)
        assert bool(res)
        g = q
        for m in res.witness:
            g = apply_move(g, m)
        assert canonical_code(g) == canonical_code(p)

    def test_illegal_square_rejected(self):
        p = fence(S1, S1)  # the inner face has two same-colored corners
        assert not [m for m in enumerate_moves(p) if m.kind == "square"]
        with pytest.raises(IllegalMove):
            internal, _ = faces(p)
            f = internal[0]
            lo = f.index(min(f))
            apply_move(p, MoveDescriptor("square", tuple(f[lo:] + f[:lo])))

    def test_unknown_kind_rejected(self):
        with pytest.raises(IllegalMove):
            apply_move(fence(S1), MoveDescriptor("twist", ()))

    def test_unlisted_sites_raise_illegal_move(self):
        p = fence(S1, S1, T1)
        moves = enumerate_moves(p)
        kinds = {"flipWhite", "flipBlack", "square", "tailRemove", "tailAttach"}
        assert {m.kind for m in moves} == kinds
        for m in moves:
            unlisted = [MoveDescriptor(k, m.site) for k in kinds - {m.kind}]
            unlisted.append(MoveDescriptor(m.kind, m.site[:-1]))
            for bad in unlisted:
                with pytest.raises(IllegalMove):
                    apply_move(p, bad)

    def test_flip_site_in_either_order(self):
        p = fence(S1, S1, T1)
        flips = [m for m in enumerate_moves(p) if m.kind.startswith("flip")]
        assert flips
        for m in flips:
            flipped = MoveDescriptor(m.kind, m.site[::-1])
            assert flipped not in enumerate_moves(p)
            assert apply_move(p, flipped) == apply_move(p, m)

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_moves_all_replayable(self, data):
        """Move results are marked valid without a check, so on the fence
        s1 s2 t1 and on random fences and moved fences, every result of
        every legal move must pass ``validate``, and ``apply_move`` must
        build it again."""
        for p in [fence(S1, S2, T1)] + draw_walk(data):
            legal = list(_legal_moves(p))
            assert [m for m, _ in legal] == enumerate_moves(p)
            for m, q in legal:
                assert validate(q) == [], m
                assert apply_move(p, m) == q

    def test_invalid_graph_rejected(self):
        """Every entry point rejects an invalid graph, and rejects it again
        on a second call: a failing verdict is never kept."""
        p = fence(S1, T1)
        torn = replace(p, edges=p.edges - {min(p.edges, key=sorted)})
        m = enumerate_moves(p)[0]
        o = admissible_orientation(p)
        calls = (
            lambda: enumerate_moves(torn),
            lambda: apply_move(torn, m),
            lambda: move_equivalent(torn, p),
            lambda: move_equivalent(p, torn),
            lambda: admissible_orientation(torn),
            lambda: transport_orientation(torn, o, m),
            lambda: link_of_oriented_plabic(torn, o),
        )
        for _ in range(2):
            for call in calls:
                with pytest.raises(ValueError, match="invalid plabic graph"):
                    call()

    def test_flip_keeps_the_outer_face(self):
        """On a leafless graph, a flip of an edge of the marked outer face
        takes that side off the face, and flipping back restores the
        graph."""
        for outer in (("a", 0), ("b", 0), ("c", 0)):
            p = replace(TETRAHEDRON, outer_dart=outer)
            assert validate(p) == []
            (before,) = faces(p)[1]
            code = canonical_code(p, strict_boundary_colors=True)
            for m in enumerate_moves(p, ("flipBlack",)):
                q = apply_move(p, m)
                (after,) = faces(q)[1]
                assert len(after) == len(before) - 1
                assert any(
                    canonical_code(apply_move(q, back), True) == code
                    for back in enumerate_moves(q, ("flipBlack",))
                )

    def test_listing_agrees_with_reference_on_fixed_graphs(self):
        """Cases random fences rarely reach: a graph stripped to one leaf and
        then to none, a tail whose removal would close a curve without a
        vertex, and an attached lissajous(3, 2) divide."""
        p = apply_move(
            TAILED_THETA, enumerate_moves(TAILED_THETA, ("tailAttach",))[0]
        )
        stripped = [p]
        while p.leaves:
            p = apply_move(p, enumerate_moves(p, ("tailRemove",))[0])
            stripped.append(p)
        assert [len(q.leaves) for q in stripped] == [2, 1, 0]
        loop = PlabicGraph(
            {"v"}, {"w"}, {"v"},
            {frozenset({("w", 0), ("v", 0)}), frozenset({("v", 1), ("v", 2)})},
            ("w",),
        )
        assert validate(loop) == []
        assert not enumerate_moves(loop, ("tailRemove",))
        with pytest.raises(IllegalMove):
            apply_move(loop, MoveDescriptor("tailRemove", ("w",)))
        attached = attach_plabic(scannable_to_planar(lissajous(3, 2)))
        for q in [TAILED_THETA] + stripped + [loop, attached]:
            assert_listing_agrees(q)

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_listing_agrees_with_reference(self, data):
        """On random fences of 2-4 strands and at most 8 letters, each
        followed by up to 6 random legal moves, on their colour-swapped
        graphs and on recolourings of the last graph that swap up to three
        black-white pairs, the listing from the preconditions is the
        build-and-validate listing it replaced; a recolouring that fails
        ``validate`` is refused."""
        graphs = draw_walk(data)
        if not graphs:
            return
        p = graphs[-1]
        graphs += [_colours_swapped(q) for q in graphs]
        verts = sorted(p.internal | p.leaves)
        for _ in range(data.draw(st.integers(0, 3))):
            b = data.draw(st.sampled_from(sorted(p.black)))
            w = data.draw(st.sampled_from([v for v in verts if v not in p.black]))
            p = replace(p, black=p.black - {b} | {w})
            graphs.append(p)
        for q in graphs:
            if validate(q):
                with pytest.raises(ValueError, match="invalid plabic graph"):
                    enumerate_moves(q)
            else:
                assert_listing_agrees(q)


def reference_legal_moves(p: PlabicGraph):
    """The listing rule the preconditions replaced, kept as a reference:
    build every candidate and keep those whose result passes ``validate``."""
    for m, build in _candidates(p, None):
        out = build(p, m)
        if not validate(out):
            yield m, out


def assert_listing_agrees(p: PlabicGraph):
    expected = list(reference_legal_moves(p))
    assert enumerate_moves(p) == [m for m, _ in expected]
    assert list(_legal_moves(p)) == expected


class TestMoveEquivalence:
    def test_braid_relation(self):
        left = fence(S1, S2, S1, S1)
        right = fence(S2, S1, S2, S1)
        res = move_equivalent(left, right)
        assert bool(res)
        assert tuple(m.kind for m in res.witness) == (
            "flipBlack",
            "square",
            "flipWhite",
        )

    def test_sigma_tau_swap_at_word_end(self):
        res = move_equivalent(fence(S1, T1), fence(S1, S1))
        assert bool(res)
        kinds = {m.kind for m in res.witness}
        assert {"tailRemove", "tailAttach"} <= kinds

    def test_parity_invariant_distinguishes(self):
        res = move_equivalent(fence(S1), fence(S1, T1))
        assert not bool(res)

    def test_identical_graphs(self):
        p = fence(S1, T1)
        res = move_equivalent(p, p)
        assert bool(res) and res.witness == ()

    def test_canonical_code_relabel_invariant(self):
        p = fence(S1, T1)
        q = _renamed(p, {v: f"z{v}" for v in p.internal | p.leaves})
        assert canonical_code(q) == canonical_code(p)

    def test_canonical_code_color_swap(self):
        p = fence(S1, S1)
        q = PlabicGraph(
            p.internal,
            p.leaves,
            (p.internal | p.leaves) - p.black,
            p.edges,
            p.boundary_order,
        )
        # the code is minimized over the global color swap
        assert canonical_code(q) == canonical_code(p)
        assert canonical_code(
            q, strict_boundary_colors=True
        ) == canonical_code(p, strict_boundary_colors=True)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_canonical_code_agrees_with_reference(self, data):
        """Two graphs get equal codes exactly when they get equal reference
        codes, strict and not: the graphs of two random walks from random
        fences, each with a copy under renamed vertex ids and a copy with
        every colour swapped."""
        graphs = draw_walk(data) + draw_walk(data)
        for p in graphs[:]:
            verts = sorted(p.internal | p.leaves)
            order = data.draw(st.permutations(range(len(verts))))
            graphs.append(_renamed(p, {v: f"r{i}" for v, i in zip(verts, order)}))
            graphs.append(_colours_swapped(p))
        assert_codes_agree(graphs)

    def test_canonical_code_agrees_with_reference_on_leafless_graphs(self):
        """The tetrahedron with each of its darts marking the outer face,
        its flips, and renamed and colour-swapped copies: the code sees
        which face is marked."""
        graphs = []
        for outer in sorted(TETRAHEDRON.twin()):
            p = replace(TETRAHEDRON, outer_dart=outer)
            graphs += [p] + [q for _, q in _legal_moves(p) if not q.leaves]
        names = {v: "dcba"["abcd".index(v)] for v in "abcd"}
        graphs += [_renamed(p, names) for p in graphs]
        graphs += [_colours_swapped(p) for p in graphs]
        assert all(validate(p) == [] for p in graphs)
        assert_codes_agree(graphs)

    def test_strict_code_sees_leaf_colors(self):
        p = fence(S1, S1)
        q = PlabicGraph(
            p.internal,
            p.leaves,
            p.black ^ {"eR1"},
            p.edges,
            p.boundary_order,
        )
        assert canonical_code(q) == canonical_code(p)
        assert canonical_code(
            q, strict_boundary_colors=True
        ) != canonical_code(p, strict_boundary_colors=True)


def reference_canonical_code(p: PlabicGraph, strict_boundary_colors: bool = False) -> tuple:
    """The breadth-first code the integer code replaced, kept as a
    reference: from every graph dart under both colourings, it rebuilds the
    compared prefix and recomputes each dart's tag on every visit."""
    cm = p.closed_map()
    darts, twin, rot_next, arc_darts = cm
    outer_marks: set = set()
    if not p.leaves and p.outer_dart is not None:
        for f in cm.faces():
            if p.outer_dart in f:
                outer_marks = set(f)
                break

    def tag(d, swap):
        if d in arc_darts:
            return "a"
        base = "o" if d in outer_marks else ""
        v = d[0]
        if v in p.leaves and not strict_boundary_colors:
            return base + "e"
        c = p.color(v)
        if swap:
            c = "w" if c == "b" else "b"
        return base + c

    graph_darts = [d for d in darts if d not in arc_darts]
    best = None
    for swap in (False, True):
        for start in graph_darts:
            idx = {start: 0}
            order = [start]
            rows = []
            i = 0
            while i < len(order):
                d = order[i]
                for e in (rot_next[d], twin[d]):
                    if e not in idx:
                        idx[e] = len(order)
                        order.append(e)
                rows.append((idx[rot_next[d]], idx[twin[d]], tag(d, swap)))
                i += 1
                if best is not None and tuple(rows) > best[: len(rows)]:
                    break
            else:
                code = tuple(rows)
                if best is None or code < best:
                    best = code
    return best


def assert_codes_agree(graphs):
    """Equal codes exactly for equal reference codes, strict and not."""
    for strict in (False, True):
        to_ref: dict = {}
        to_new: dict = {}
        for p in graphs:
            new = canonical_code(p, strict)
            ref = reference_canonical_code(p, strict)
            assert to_ref.setdefault(new, ref) == ref
            assert to_new.setdefault(ref, new) == new


class TestQuiverUnderMoves:
    def test_square_move_is_a_mutation(self):
        rng = random.Random(11)
        p = fence(S1, S2, T1, S1)
        for _ in range(30):
            q_before = quiver_of_plabic(p)
            moves = enumerate_moves(p)
            m = rng.choice(moves)
            np_ = apply_move(p, m)
            if len(np_.internal) > 12:
                continue
            q_after = quiver_of_plabic(np_)
            if m.kind == "square":
                internal, _ = faces(p)
                sites = []
                for i, f in enumerate(internal):
                    lo = f.index(min(f))
                    sites.append(tuple(f[lo:] + f[:lo]))
                i = sites.index(m.site)
                got = mutate(q_before, i)
                assert sorted(got.arrows()) == sorted(q_after.arrows())
            else:
                assert is_isomorphic(q_before, q_after)
            p = np_


class TestOrientations:
    def test_fence_orientation(self):
        p = fence(S1, S2, T1)
        o = admissible_orientation(p)
        assert o is not None
        twin = p.twin()
        # boundary edges: into black right ends, out of white left ends
        for v in p.leaves:
            h = (v, 0) if v in p.black else twin[(v, 0)]
            assert o.points_at(h)
        # vertical connector edges point at their black end
        for e in p.edges:
            a, b = sorted(e)
            if str(a[0]).startswith("c") and str(b[0]).startswith("c"):
                ja = str(a[0]).split(".")[0]
                jb = str(b[0]).split(".")[0]
                if ja == jb:  # same connector: the vertical edge
                    black_dart = a if a[0] in p.black else b
                    assert o.points_at(black_dart)

    def test_unbalanced_graph_has_none(self):
        p = attach_plabic(parse_planar_divide(HYPERBOLIC_NODE))
        assert len(p.black) * 2 != len(p.internal | p.leaves)
        assert admissible_orientation(p) is None

    def test_balanced_counterexample_has_none(self):
        assert validate(NO_ORIENTATION) == []
        assert len(NO_ORIENTATION.black) * 2 == 6
        assert admissible_orientation(NO_ORIENTATION) is None

    def test_degree_rule(self):
        p = fence(S1, T1, S1)
        o = admissible_orientation(p)
        twin = p.twin()
        for v in p.internal:
            heads_at_v = sum(
                1 for s in range(3) if o.points_at((v, s))
            )
            assert heads_at_v == (2 if v in p.black else 1)

    def test_transport_is_recomputation(self):
        p = fence(S1, T1)
        o = admissible_orientation(p)
        m = next(m for m in enumerate_moves(p) if m.kind == "square")
        o2 = transport_orientation(p, o, m)
        assert o2 == admissible_orientation(apply_move(p, m))

    def test_transport_rejects_bad_orientation(self):
        p = fence(S1, T1)
        o = admissible_orientation(p)
        bad = type(o)(frozenset(list(o.heads)[:-1]))
        m = enumerate_moves(p)[0]
        with pytest.raises(ValueError):
            transport_orientation(p, bad, m)

    def test_brute_force_oracle(self):
        """On every graph of at most 12 edges within two moves of a 2-strand
        fence of 2 or 3 letters (one per strict canonical code), at most one
        set of heads is admissible, and the solver finds it.  A leaf's only
        edge must point into a black leaf and out of a white one, so the sets
        tried are every choice of heads on the other edges; reversing a leaf
        edge is rejected in test_rejections."""
        graphs = _near_small_fences()
        assert len(graphs) == 640
        for p in graphs + [NO_ORIENTATION, UNORIENTABLE]:
            twin = p.twin()
            forced = {
                (l, 0) if l in p.black else twin[(l, 0)] for l in p.leaves
            }
            free = [sorted(e) for e in p.edges if not e & forced]
            found = [
                heads
                for choice in product(*free)
                if _check_heads(p, heads := forced.union(choice))
            ]
            assert len(found) <= 1
            o = admissible_orientation(p)
            assert (o.heads if o else None) == (found[0] if found else None)
        assert admissible_orientation(NO_ORIENTATION) is None
        assert admissible_orientation(UNORIENTABLE) is None

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_rejections(self, data):
        """Heads with one edge reversed, both darts of one edge, a stray dart
        or a missing head are refused by the full check, on a copy of the
        graph with no kept heads, and, once the graph's orientation is
        computed and its heads kept, by ``_is_admissible``,
        ``link_of_oriented_plabic`` and ``transport_orientation``: on the
        fence s1 t1 s1 and on random fences and moved fences."""
        for p in [fence(S1, T1, S1)] + draw_walk(data, max_moves=3):
            fresh = replace(p)
            o = admissible_orientation(p)
            if o is None:
                continue
            heads = o.heads
            twin = p.twin()
            h = min(heads)
            bad = [heads - {x} | {twin[x]} for x in heads]  # one edge reversed
            bad.append(heads | {twin[h]})  # both darts of one edge
            bad.append(heads - {h} | {("zz", 0)})  # a dart not in the graph
            bad.append(heads - {h})  # one head missing
            m = enumerate_moves(p)[0]
            for hs in bad:
                assert not _check_heads(p, hs)
                assert not _is_admissible(fresh, hs)
                assert "_heads" not in fresh.__dict__
                assert not _is_admissible(p, hs)
                with pytest.raises(ValueError, match="not admissible"):
                    link_of_oriented_plabic(p, Orientation(frozenset(hs)))
                with pytest.raises(ValueError, match="not admissible"):
                    transport_orientation(p, Orientation(frozenset(hs)), m)
            assert _check_heads(p, heads)
            assert _is_admissible(p, heads)
            assert _is_admissible(fresh, heads)

    def test_face_condition(self):
        """Recoloured, the square fence has an orientation that meets the
        degree rule and has no directed cycle, but its square face does not
        have one source and one sink corner."""
        f = fence(S1, T1)
        p = PlabicGraph(
            f.internal, f.leaves, {"c0.b", "c1.t", "eL1", "eR2"}, f.edges,
            f.boundary_order,
        )
        heads = frozenset({
            ("c0.b", 0), ("c0.b", 1), ("c0.t", 1), ("c1.b", 0),
            ("c1.t", 1), ("c1.t", 2), ("eL1", 0), ("eR2", 0),
        })
        assert validate(p) == []
        assert not _is_admissible(p, heads)
        assert admissible_orientation(p) is None
        with pytest.raises(ValueError, match="not admissible"):
            link_of_oriented_plabic(p, Orientation(heads))

    def test_invalid_graph_rejected(self):
        p = fence(S1, T1)
        torn = PlabicGraph(
            p.internal, p.leaves, p.black, set(p.edges) - {min(p.edges, key=sorted)},
            p.boundary_order,
        )
        o = admissible_orientation(p)
        for call in (
            lambda: admissible_orientation(torn),
            lambda: transport_orientation(torn, o, enumerate_moves(p)[0]),
            lambda: link_of_oriented_plabic(torn, o),
        ):
            with pytest.raises(ValueError, match="invalid plabic graph"):
                call()

    def test_long_fence(self):
        """A 1,500-letter fence: the solver finds its closed-form orientation
        and the link has the components of the braid closure."""
        rng = random.Random(11)
        w = FenceWord(2, tuple(rng.choice((S1, T1)) for _ in range(1500)))
        p = fence_of_word(w)
        expected = _expected_fence_orientation(p)
        assert admissible_orientation(p).heads == expected
        d = link_of_oriented_plabic(p, Orientation(expected))
        beta = beta_of_fence_word(w)
        assert component_count(d) == component_count(closure(beta.letters, beta.k))

    def test_solver_needs_no_recursion(self):
        """A 400-letter fence is oriented with a recursion limit of 200."""
        rng = random.Random(12)
        p = fence_of_word(
            FenceWord(2, tuple(rng.choice((S1, T1)) for _ in range(400)))
        )
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            start = time.perf_counter()
            o = admissible_orientation(p)
            seconds = time.perf_counter() - start
        finally:
            sys.setrecursionlimit(limit)
        assert o.heads == _expected_fence_orientation(p)
        assert seconds < 1  # about 20 ms; the cubic solver took 8 s at 200 letters

    def test_agrees_with_reference_on_fixed_graphs(self):
        """Graphs without an orientation: the square with a doubled side, the
        unorientable graph of the acceptance checks, and a vertex with a loop
        in either colouring."""
        loops = [
            PlabicGraph(
                {"v"}, {"w"}, black,
                {frozenset({("w", 0), ("v", 0)}), frozenset({("v", 1), ("v", 2)})},
                ("w",),
            )
            for black in ({"v"}, {"w"})
        ]
        assert all(validate(p) == [] for p in loops)
        for p in [NO_ORIENTATION, UNORIENTABLE] + loops:
            assert admissible_orientation(p) is None
            assert reference_orientation(p) is None

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_reference(self, data):
        """On random fences of 2-4 strands and at most 14 letters, each
        followed by up to 6 random legal moves, on their colour-swapped
        graphs and on valid recolourings of the last graph that swap up to
        three black-white pairs, the solver returns what the recursive search
        did.  Forcing decides every fence and moved fence; the recolourings
        are where it stalls, and where the recursive search branches."""
        graphs = draw_walk(data, max_letters=14)
        if not graphs:
            return
        p = graphs[-1]
        graphs += [_colours_swapped(q) for q in graphs]
        verts = sorted(p.internal | p.leaves)
        for _ in range(data.draw(st.integers(0, 3))):
            b = data.draw(st.sampled_from(sorted(p.black)))
            w = data.draw(st.sampled_from([v for v in verts if v not in p.black]))
            p = replace(p, black=p.black - {b} | {w})
            if not validate(p):
                graphs.append(p)
        for q in graphs:
            assert admissible_orientation(q) == reference_orientation(q)


def reference_orientation(p: PlabicGraph):
    """The search the forcing solver replaced, kept as a reference: each
    pass of ``propagate`` rescans every edge at every vertex, and ``solve``
    recurses once per branch point."""
    if len(p.black) * 2 != len(p.internal | p.leaves):
        return None
    twin = p.twin()
    edge_list = sorted(p.edges, key=sorted)
    caps = {}
    for v in p.internal | p.leaves:
        deg = 3 if v in p.internal else 1
        caps[v] = (_in_degree(p, v), deg - _in_degree(p, v))  # (in, out)

    heads: dict = {}  # edge -> head dart
    counts = {v: [0, 0] for v in caps}  # decided (in, out)

    def set_head(e, h) -> bool:
        heads[e] = h
        hv = h[0]
        tv = twin[h][0]
        counts[hv][0] += 1
        counts[tv][1] += 1
        return counts[hv][0] <= caps[hv][0] and counts[tv][1] <= caps[tv][1]

    def unset_head(e):
        h = heads.pop(e)
        counts[h[0]][0] -= 1
        counts[twin[h][0]][1] -= 1

    def propagate(trail) -> bool:
        changed = True
        while changed:
            changed = False
            for v in caps:
                undecided = [
                    e
                    for e in edge_list
                    if e not in heads and any(x[0] == v for x in e)
                ]
                if not undecided:
                    if counts[v] != list(caps[v]):
                        return False
                    continue
                cin, cout = counts[v]
                if cin == caps[v][0]:
                    for e in undecided:
                        h = next(x for x in e if x[0] == v)
                        if not set_head(e, twin[h]):
                            trail.append(e)
                            return False
                        trail.append(e)
                        changed = True
                elif cout == caps[v][1]:
                    for e in undecided:
                        h = next(x for x in e if x[0] == v)
                        if not set_head(e, h):
                            trail.append(e)
                            return False
                        trail.append(e)
                        changed = True
        return True

    def solve():
        trail: list = []
        if not propagate(trail):
            for e in trail:
                unset_head(e)
            return None
        undecided = [e for e in edge_list if e not in heads]
        if not undecided:
            hs = set(heads.values())
            result = hs if _check_heads(p, hs) else None
            for e in trail:
                unset_head(e)
            return result
        e = undecided[0]
        a, b = sorted(e)
        for h in (a, b):
            sub: list = [e]
            if set_head(e, h):
                deeper = solve()
                if deeper is not None:
                    for x in sub:
                        unset_head(x)
                    for ee in trail:
                        unset_head(ee)
                    return deeper
            for x in sub:
                unset_head(x)
        for ee in trail:
            unset_head(ee)
        return None

    # forced boundary edges first
    for l in sorted(p.leaves):
        e = frozenset({(l, 0), twin[(l, 0)]})
        h = (l, 0) if p.color(l) == "b" else twin[(l, 0)]
        if e not in heads and not set_head(e, h):
            return None
    result = solve()
    return Orientation(frozenset(result)) if result is not None else None


def _near_small_fences() -> list:
    """Every graph of at most 12 edges within two moves of a 2-strand fence
    of 2 or 3 letters, one per strict canonical code."""
    found: list = []
    seen: set = set()
    layer = [fence(*w) for n in (2, 3) for w in product((S1, T1), repeat=n)]
    for moves_left in (2, 1, 0):
        nxt = []
        for p in layer:
            code = canonical_code(p, strict_boundary_colors=True)
            if code in seen:
                continue
            seen.add(code)
            if len(p.edges) <= 12:
                found.append(p)
            if moves_left:
                # a move changes the edge count by at most 2
                cap = 12 + 2 * (moves_left - 1)
                nxt += [q for _, q in _legal_moves(p) if len(q.edges) <= cap]
        layer = nxt
    return found


class TestLinks:
    def fence_link(self, *letters, k=None):
        p = fence(*letters, k=k)
        o = admissible_orientation(p)
        assert o is not None
        return link_of_oriented_plabic(p, o)

    def test_trefoil_fence(self):
        d = self.fence_link(S1, S1, S1)
        beta = beta_of_fence_word(FenceWord(2, (S1, S1, S1)))
        assert fingerprint(d, include_jones=True) == fingerprint(
            beta.letters, beta.k, include_jones=True
        )

    def test_sigma_tau_fence(self):
        w = FenceWord(2, (S1, T1))
        d = self.fence_link(S1, T1)
        beta = beta_of_fence_word(w)
        assert fingerprint(d) == fingerprint(beta.letters, beta.k)

    def test_random_fences_match_braid_closure(self):
        rng = random.Random(5)
        for _ in range(8):
            k = rng.randint(2, 3)
            letters = tuple(
                (rng.choice("st"), rng.randint(1, k - 1))
                for _ in range(rng.randint(2, 5))
            )
            if len({i for _, i in letters}) < k - 1:
                continue
            w = FenceWord(k, letters)
            try:
                p = fence_of_word(w)
            except DisconnectedFence:
                continue
            o = admissible_orientation(p)
            assert o is not None, letters
            d = link_of_oriented_plabic(p, o)
            beta = beta_of_fence_word(w)
            assert fingerprint(d) == fingerprint(beta.letters, beta.k), letters

    @given(
        st.integers(2, 3).flatmap(
            lambda k: st.tuples(
                st.just(k),
                st.lists(
                    st.tuples(st.sampled_from("st"), st.integers(1, k - 1)),
                    min_size=1,
                    max_size=10,
                ),
            )
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_plabic_route_matches_braid_route(self, word):
        """The link of the oriented fence and the closure of its braid have
        the same component count, and the Wirtinger Alexander polynomial of
        the one equals the Burau one of the other."""
        w = FenceWord(word[0], tuple(word[1]))
        try:
            p = fence_of_word(w)
        except DisconnectedFence:
            return
        d = link_of_oriented_plabic(p, admissible_orientation(p))
        beta = beta_of_fence_word(w)
        assert component_count(d) == component_count(closure(beta.letters, beta.k))
        assert alexander(d) == alexander(beta.letters, beta.k)

    def test_rejects_inadmissible(self):
        p = fence(S1, T1)
        o = admissible_orientation(p)
        bad = type(o)(frozenset(list(o.heads)[:-1]))
        with pytest.raises(ValueError):
            link_of_oriented_plabic(p, bad)


class TestTrianglePush:
    def test_triangle_arc_macro(self):
        d = parse_planar_divide(TRIANGLE_ARC)
        site = yb_sites(d)[0]
        p = attach_plabic(d)
        macro = yb_as_moves(p, site)
        assert len(macro) == 14
        allowed = {f"{n}.{s}" for n in site.region_nodes for s in range(4)}
        for m in macro:
            assert {x[0] for x in m.site} <= allowed
        g = p
        for m in macro:
            g = apply_move(g, m)
        target = attach_plabic(apply_yb(d, site))
        assert canonical_code(g) == canonical_code(target)

    def test_symmetric_triangle_needs_no_moves(self):
        d = scannable_to_planar(wiring_diagram(3))
        site = yb_sites(d)[0]
        assert yb_as_moves(attach_plabic(d), site) == []

    def test_stored_push_at_six_sites(self):
        # on the three sites of one triangle no stored template reaches the
        # pushed gadget graph; the three of the other push it in 15 moves
        d = scannable_to_planar(scannable(3, (), (1, 2, 1, 2), ()))
        p = attach_plabic(d)
        outcomes = []
        for site in yb_sites(d):
            try:
                macro = yb_as_moves(p, site)
            except SiteNotFound as e:
                outcomes.append(str(e))
                continue
            g = p
            for m in macro:
                g = apply_move(g, m)
            assert canonical_code(g) == canonical_code(attach_plabic(apply_yb(d, site)))
            outcomes.append(len(macro))
        unreached = (
            "no stored flip/square sequence carries the graph to the pushed "
            "gadget graph"
        )
        assert outcomes == [unreached] * 3 + [15] * 3

    def test_squares_of_the_push_are_mutations(self):
        # the flips of the push keep the quiver; each square move mutates it
        # at its face (arrow for arrow, as in P9), so the pushed graph's
        # quiver is a mutation of the start's
        d = scannable_to_planar(lissajous(4, 3, 1))
        site = yb_sites(d)[0]
        p = attach_plabic(d)
        g, squares = p, 0
        for m in yb_as_moves(p, site):
            ng = apply_move(g, m)
            q, nq = quiver_of_plabic(g), quiver_of_plabic(ng)
            if m.kind == "square":
                squares += 1
                starts = [(f, f.index(min(f))) for f in faces(g)[0]]
                rotated = [f[lo:] + f[:lo] for f, lo in starts]
                got = mutate(q, rotated.index(m.site))
                assert sorted(got.arrows()) == sorted(nq.arrows())
            else:
                assert is_isomorphic(q, nq)
            g = ng
        assert squares == 6
        target = quiver_of_plabic(attach_plabic(apply_yb(d, site)))
        assert is_isomorphic(quiver_of_plabic(g), target)
        assert not is_isomorphic(quiver_of_plabic(p), target)

    def test_wrong_site_rejected(self):
        d = parse_planar_divide(TRIANGLE_ARC)
        p = attach_plabic(d)
        from morsify.divide import SiteDescriptor

        bogus = SiteDescriptor(("b1", "b2", "zz"), 0, ())
        with pytest.raises(SiteNotFound):
            yb_as_moves(p, bogus)

    def test_non_gadget_graph_rejected(self):
        d = parse_planar_divide(TRIANGLE_ARC)
        site = yb_sites(d)[0]
        with pytest.raises(SiteNotFound):
            yb_as_moves(fence(S1, T1), site)


class TestSerialization:
    def test_round_trip(self):
        for p in (fence(S1, T1), attach_plabic(parse_planar_divide(TRIANGLE_ARC))):
            assert parse_plabic(format_plabic(p)) == p

    def test_rot_remap(self):
        text = """
v a b i
v b w i
v e1 w d
v e2 w d
v e3 w d
v e4 w d
rot a 2 0 1
edge a.2 b.0
edge a.0 e1.0
edge a.1 e2.0
edge b.1 e3.0
edge b.2 e4.0
boundary e1 e2 e3 e4
"""
        p = parse_plabic(text)
        # slot 2 of the rotation line becomes slot 0 and so on
        assert frozenset({("a", 0), ("b", 0)}) in p.edges
        assert validate(p) == []

    def test_errors(self):
        with pytest.raises(ValueError):
            parse_plabic("v a b x\n")
        with pytest.raises(ValueError):
            parse_plabic("v a b i\nedge a.0 a.0\n")
        with pytest.raises(ValueError):
            parse_plabic("v a b i\nedge a.5 a.0\n")
        with pytest.raises(ValueError):
            parse_plabic("boundary ghost\n")


@given(
    st.lists(
        st.tuples(st.sampled_from("st"), st.integers(1, 2)),
        min_size=2,
        max_size=6,
    )
)
@settings(max_examples=25, deadline=None)
def test_fence_words_round_trip_and_validate(letters):
    letters = tuple(letters)
    if {i for _, i in letters} != {1, 2}:
        letters = letters + (("s", 1), ("s", 2))
    w = FenceWord(3, letters)
    try:
        p = fence_of_word(w)
    except DisconnectedFence:
        return  # some words fail the internal-face separation condition
    assert validate(p) == []
    assert word_of_fence(p) == w
