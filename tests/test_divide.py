"""Planar and scannable divides: validation, regions, branches, generators."""

from collections import defaultdict
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morsify.divide import (
    DivideParseError,
    Branch,
    PlanarDivide,
    apply_yb,
    branches,
    cell_count,
    face_signs,
    format_planar_divide,
    format_scannable,
    klein_act,
    lissajous,
    overlay,
    parse_planar_divide,
    parse_scannable,
    regions,
    scannable,
    scannable_to_planar,
    validate,
    wiring_diagram,
    yb_sites,
)

HYPERBOLIC_NODE = """
node n
end e1
end e2
end e3
end e4
edge n.0 e1.0
edge n.1 e2.0
edge n.2 e3.0
edge n.3 e4.0
boundary e1 e2 e3 e4
"""

# two arcs meeting three double points, with two simple loops
CHAIN_WITH_LOOPS = """
node n0
node n1
node n2
end E1
end E2
edge n0.2 E1.0
edge n0.0 n2.3
edge n2.0 n2.1
edge n2.2 n1.3
edge n1.0 n1.1
edge n1.2 n0.1
edge n0.3 E2.0
boundary E1 E2
"""

# one arc crossing itself three times around a central triangle
TRIANGLE_ARC = """
node b1
node b2
node b3
end E1
end E2
edge b1.2 E1.0
edge b1.0 b3.1
edge b3.3 b2.0
edge b2.2 b1.3
edge b1.1 b3.0
edge b3.2 b2.1
edge b2.3 E2.0
boundary E1 E2
"""


def figure_eight() -> PlanarDivide:
    return PlanarDivide(
        nodes={"n"},
        endpoints=set(),
        edges={
            frozenset({("n", 0), ("n", 1)}),
            frozenset({("n", 2), ("n", 3)}),
        },
        boundary_order=(),
        outer_dart=("n", 0),
    )


class TestPlanarBasics:
    def test_hyperbolic_node(self):
        d = parse_planar_divide(HYPERBOLIC_NODE)
        assert validate(d).ok
        assert cell_count(d) == (1, 0, 1)
        br = branches(d)
        assert sorted(b.kind for b in br) == ["interval", "interval"]

    def test_figure_eight(self):
        d = figure_eight()
        assert validate(d).ok
        assert cell_count(d) == (1, 2, 3)
        br = branches(d)
        assert [b.kind for b in br] == ["circle"]
        assert len(br[0].edge_sequence) == 2

    def test_chain_with_loops(self):
        d = parse_planar_divide(CHAIN_WITH_LOOPS)
        assert validate(d).ok
        assert cell_count(d) == (3, 3, 6)
        rs = regions(d)
        sizes = sorted(len(r.darts) for r in rs)
        assert sizes[0] == 1 and sizes[1] == 1  # the two simple loops

    def test_triangle_arc(self):
        d = parse_planar_divide(TRIANGLE_ARC)
        assert validate(d).ok
        assert cell_count(d) == (3, 3, 6)

    def test_region_boundary_cells(self):
        d = parse_planar_divide(CHAIN_WITH_LOOPS)
        for r in regions(d):
            assert len(r.boundary_cells) == len(r.darts)
            for n, c in r.boundary_cells:
                assert n in d.nodes
                assert c in d.edges

    def test_round_trip(self):
        d = parse_planar_divide(TRIANGLE_ARC)
        assert parse_planar_divide(format_planar_divide(d)) == d


class TestValidationFailures:
    def test_unpaired_slot(self):
        with pytest.raises(DivideParseError):
            parse_planar_divide("end e1\nboundary e1\n")

    def test_duplicate_slot(self):
        text = HYPERBOLIC_NODE + "edge n.0 e2.0\n"
        with pytest.raises(DivideParseError, match="DuplicateSlot"):
            parse_planar_divide(text)

    def test_unknown_vertex(self):
        with pytest.raises(DivideParseError):
            parse_planar_divide("node n\nedge n.0 ghost.0\n")

    def test_disconnected_union(self):
        # two far-apart figure-eights drawn side by side
        d = PlanarDivide(
            nodes={"a", "b"},
            endpoints=set(),
            edges={
                frozenset({("a", 0), ("a", 1)}),
                frozenset({("a", 2), ("a", 3)}),
                frozenset({("b", 0), ("b", 1)}),
                frozenset({("b", 2), ("b", 3)}),
            },
            boundary_order=(),
            outer_dart=("a", 0),
        )
        rep = validate(d)
        assert not rep.ok
        assert any(code == "D5" for code, _ in rep.violations)

    def test_nonplanar_rotation(self):
        # swap two slots at one node of the triangle arc: genus jumps
        d = parse_planar_divide(TRIANGLE_ARC)
        swap = {("b1", 0): ("b1", 1), ("b1", 1): ("b1", 0)}
        edges = {
            frozenset({swap.get(a, a), swap.get(b, b)}) for a, b in map(sorted, d.edges)
        }
        d2 = PlanarDivide(d.nodes, d.endpoints, edges, d.boundary_order)
        rep = validate(d2)
        assert not rep.ok


class TestScannable:
    def test_parse_format_round_trip(self):
        s = scannable(4, {1, 3}, (2, 1, 3, 2, 1, 3, 2), {1, 3})
        assert parse_scannable(format_scannable(s)) == s

    def test_adjacent_turns_rejected(self):
        with pytest.raises(ValueError):
            scannable(4, {1, 2}, (), ())

    def test_event_out_of_range(self):
        with pytest.raises(ValueError):
            scannable(3, (), (3,), ())

    def test_single_crossing(self):
        d = scannable_to_planar(scannable(2, (), (1,), ()))
        assert validate(d).ok
        assert cell_count(d) == (1, 0, 1)
        assert len(d.endpoints) == 4

    def test_lens_pair(self):
        # two strands crossing twice: one region between the crossings
        d = scannable_to_planar(scannable(2, (), (1, 1), ()))
        assert validate(d).ok
        assert cell_count(d) == (2, 1, 3)

    def test_right_turn_lens(self):
        d = scannable_to_planar(scannable(2, (), (1,), {1}))
        assert validate(d).ok
        assert cell_count(d) == (1, 1, 2)
        assert len(d.endpoints) == 2

    def test_bare_circle(self):
        d = scannable_to_planar(scannable(2, {1}, (), {1}))
        assert validate(d).ok
        assert d.bare_circles == 1
        assert cell_count(d) == (0, 1, 1)

    def test_bare_circles_numbered_in_turn(self):
        d = scannable_to_planar(parse_scannable("k 6\nL 1 3 5\nE\nR 1 3 5\n"))
        assert d.bare_circles == 3
        assert [r.index for r in regions(d)] == [0, 1, 2]
        assert face_signs(d) == {}

    def test_crossing_free_chord(self):
        # level 3 never crosses: it becomes a boundary-to-boundary arc,
        # disconnected from the rest (a connectivity violation)
        d = scannable_to_planar(scannable(3, (), (1, 1), ()))
        assert len(d.endpoints) == 6
        assert sorted(b.kind for b in branches(d)) == ["interval"] * 3
        rep = validate(d)
        assert [code for code, _ in rep.violations] == ["D5"]

    def test_closed_curves_only(self):
        s = scannable(4, {1, 3}, (2, 1, 3, 2, 1, 3, 2, 1, 3, 2), {1, 3})
        d = scannable_to_planar(s)
        assert validate(d).ok
        assert len(d.endpoints) == 0
        assert d.outer_dart is not None
        assert cell_count(d) == (10, 11, 21)

    def test_boundary_order_sides(self):
        d = scannable_to_planar(scannable(3, {2}, (1, 2, 1), {1}))
        # one loose end at the right (level 3), one at the left (level 1)
        assert len(d.boundary_order) == 2
        assert d.boundary_order[0].startswith("eR")
        assert d.boundary_order[1].startswith("eL")


class TestGenerators:
    def test_lissajous_small(self):
        s = lissajous(3, 2, 0)
        assert (sorted(s.left_turns), list(s.events), sorted(s.right_turns)) == (
            [],
            [1],
            [1],
        )

    def test_lissajous_5_3(self):
        s = lissajous(5, 3, 0)
        assert sorted(s.left_turns) == [2]
        assert list(s.events) == [1, 2, 1, 2]
        assert sorted(s.right_turns) == [1]
        assert cell_count(scannable_to_planar(s)) == (4, 4, 8)

    def test_lissajous_milnor_numbers(self):
        # nodes + regions = (a-1)(b-1) for the checkerboard of (a, b)
        for a, b in [(3, 2), (4, 3), (5, 3), (5, 4), (6, 4)]:
            for parity in (0, 1):
                d = scannable_to_planar(lissajous(a, b, parity))
                assert validate(d).ok
                assert cell_count(d).total == (a - 1) * (b - 1)

    def test_wiring_diagram(self):
        s = wiring_diagram(3)
        assert list(s.events) == [1, 2, 1]
        d = scannable_to_planar(s)
        assert validate(d).ok
        assert cell_count(d) == (3, 1, 4)

    def test_overlay_of_crossings_is_generic_lines(self):
        a1 = scannable(2, (), (1,), ())
        s = overlay(a1, a1)
        assert s.k == 4
        assert len(s.events) == 1 + 1 + 4
        d = scannable_to_planar(s)
        assert validate(d).ok
        assert cell_count(d) == cell_count(scannable_to_planar(wiring_diagram(4)))

    def test_overlay_shifts_turns(self):
        s1 = scannable(2, (), (1,), {1})
        s2 = scannable(2, {1}, (1,), ())
        s = overlay(s1, s2)
        assert sorted(s.left_turns) == [3]
        # the grid carries the lower strands past the upper block, so the
        # lower divide's right turn at level 1 reappears at level 1 + k2
        assert sorted(s.right_turns) == [3]
        assert validate(scannable_to_planar(s)).ok
        # branch structure must not depend on the overlay order
        ab = branches(scannable_to_planar(s))
        ba = branches(scannable_to_planar(overlay(s2, s1)))
        assert len(ab) == len(ba)

    def test_klein_involutions(self):
        s = lissajous(5, 3, 0)
        for g in ("flipH", "flipV", "rot180"):
            assert klein_act(klein_act(s, g), g) == s
        assert klein_act(s, "id") == s
        assert klein_act(s, "rot180") == klein_act(klein_act(s, "flipV"), "flipH")

    def test_klein_preserves_cells(self):
        s = lissajous(6, 4, 1)
        base = cell_count(scannable_to_planar(s))
        for g in ("flipH", "flipV", "rot180"):
            assert cell_count(scannable_to_planar(klein_act(s, g))) == base


class TestYangBaxter:
    def divide_with_triangle(self) -> PlanarDivide:
        return scannable_to_planar(lissajous(4, 4, 0))

    def test_sites_found(self):
        d = self.divide_with_triangle()
        sites = yb_sites(d)
        assert sites
        for site in sites:
            assert len(site.region_nodes) == 3
            assert len(site.darts) == 3

    def test_apply_preserves_validity_and_cells(self):
        d = self.divide_with_triangle()
        for site in yb_sites(d):
            d2 = apply_yb(d, site)
            assert validate(d2).ok
            assert cell_count(d2) == cell_count(d)
            assert d2.edges != d.edges

    def test_involution(self):
        d = self.divide_with_triangle()
        site = yb_sites(d)[0]
        d2 = apply_yb(d, site)
        back = [
            apply_yb(d2, s2)
            for s2 in yb_sites(d2)
            if s2.region_nodes == site.region_nodes
        ]
        assert any(b.edges == d.edges for b in back)

    def test_site_independence(self):
        # apply_yb never reads the side, so the three sites of one triangle
        # produce the same divide
        d = self.divide_with_triangle()
        sites = yb_sites(d)
        tri = sites[0].region_nodes
        results = [apply_yb(d, s).edges for s in sites if s.region_nodes == tri]
        assert len(results) == 3
        assert results[0] == results[1] == results[2]
        d = scannable_to_planar(lissajous(5, 5, 0))
        sites = yb_sites(d)
        by_triangle: dict = {}
        for s in sites:
            by_triangle.setdefault(s.darts, set()).add(apply_yb(d, s).edges)
        assert len(sites) == 12 and len(by_triangle) == 4
        assert all(len(pushed) == 1 for pushed in by_triangle.values())


@given(
    st.integers(2, 6),
    st.lists(st.integers(1, 5), max_size=10),
    st.booleans(),
    st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_random_scannables_validate(k, raw, lt, rt):
    events = tuple(1 + (a % (k - 1)) for a in raw)
    left = {1} if lt else set()
    right = {k - 1} if rt else set()
    s = scannable(k, left, events, right)
    d = scannable_to_planar(s)
    rep = validate(d)
    # any violation can only be a connectivity one (sparse event levels);
    # the rotation system itself must always be planar and well-paired
    assert all(code == "D5" for code, _ in rep.violations), rep.violations
    n, r, t = cell_count(d)
    assert n == len(events)


# ---------------------------------------------------------------------------
# Reference implementations: the token-graph scannable_to_planar and the
# two-loop branches that the strand walk and trace() replaced, kept to check
# that the rewrite gives the same divides and branches.


def reference_scannable_to_planar(s) -> PlanarDivide:
    passages: dict[int, list] = {lvl: [] for lvl in range(1, s.k + 1)}
    for m, a in enumerate(s.events):
        nid = f"n{m}"
        passages[a].append(((nid, 0), (nid, 1)))
        passages[a + 1].append(((nid, 3), (nid, 2)))
    edges: list = []
    for lvl in range(1, s.k + 1):
        ps = passages[lvl]
        for (w1, e1), (w2, e2) in zip(ps, ps[1:]):
            edges.append(frozenset({e1, w2}))
    conn = defaultdict(list)
    for i in s.left_turns:
        conn[("L", i)].append(("L", i + 1))
        conn[("L", i + 1)].append(("L", i))
    for i in s.right_turns:
        conn[("R", i)].append(("R", i + 1))
        conn[("R", i + 1)].append(("R", i))
    for lvl in range(1, s.k + 1):
        if not passages[lvl]:
            conn[("L", lvl)].append(("R", lvl))
            conn[("R", lvl)].append(("L", lvl))

    def concrete(tok):
        side, lvl = tok
        ps = passages[lvl]
        if not ps:
            return None
        return ps[0][0] if side == "L" else ps[-1][1]

    endpoints: list = []
    bare = 0
    visited: set = set()
    all_tokens = [("L", lvl) for lvl in range(1, s.k + 1)] + [
        ("R", lvl) for lvl in range(1, s.k + 1)
    ]

    def endpoint_dart(tok):
        side, lvl = tok
        eid = f"e{side}{lvl}"
        endpoints.append((tok, eid))
        return (eid, 0)

    for tok in all_tokens:
        if tok in visited:
            continue
        if concrete(tok) is None and len(conn[tok]) >= 2:
            continue
        visited.add(tok)
        path = [tok]
        if concrete(tok) is None or conn[tok]:
            prev = None
            cur = tok
            while True:
                nxts = [x for x in conn[cur] if x != prev]
                if not nxts:
                    break
                prev, cur = cur, nxts[0]
                visited.add(cur)
                path.append(cur)
                if concrete(cur) is not None:
                    break
        a = concrete(path[0])
        if a is None:
            a = endpoint_dart(path[0])
        if len(path) == 1:
            b = endpoint_dart(path[0]) if concrete(path[0]) is not None else None
        else:
            b = concrete(path[-1])
            if b is None:
                b = endpoint_dart(path[-1])
        if b is None:
            raise AssertionError("degenerate strand end")
        edges.append(frozenset({a, b}))
    for tok in all_tokens:
        if tok in visited or concrete(tok) is not None:
            continue
        visited.add(tok)
        prev, cur = tok, conn[tok][0]
        while cur != tok:
            visited.add(cur)
            nxts = [x for x in conn[cur] if x != prev]
            prev, cur = cur, nxts[0]
        bare += 1
    ep_by_tok = dict(endpoints)
    border = []
    for lvl in range(1, s.k + 1):
        tok = ("R", lvl)
        if tok in ep_by_tok:
            border.append(ep_by_tok[tok])
    for lvl in range(s.k, 0, -1):
        tok = ("L", lvl)
        if tok in ep_by_tok:
            border.append(ep_by_tok[tok])
    nodes = frozenset(f"n{m}" for m in range(len(s.events)))
    outer = None
    if not border and s.events:
        low = min(lvl for lvl in passages if passages[lvl])
        outer = passages[low][0][1]
    return PlanarDivide(
        nodes, frozenset(ep_by_tok.values()), frozenset(edges), tuple(border), bare, outer
    )


def reference_branches(d: PlanarDivide) -> list:
    twin = d.twin()
    used: set = set()
    out: list = []
    for e in sorted(d.endpoints):
        start = (e, 0)
        if start in used:
            continue
        seq = []
        cur = start
        while True:
            used.add(cur)
            nxt = twin[cur]
            used.add(nxt)
            seq.append(frozenset({cur, nxt}))
            v, s = nxt
            if v in d.endpoints:
                break
            cur = (v, (s + 2) % 4)
            if len(seq) > len(d.edges):
                raise ValueError("strand tracing ran away")
        out.append(Branch("interval", tuple(seq)))
    for edge in sorted(d.edges, key=sorted):
        a, _ = sorted(edge)
        if a in used:
            continue
        seq = []
        cur = a
        while True:
            used.add(cur)
            nxt = twin[cur]
            used.add(nxt)
            seq.append(frozenset({cur, nxt}))
            v, s = nxt
            cur = (v, (s + 2) % 4)
            if cur == a:
                break
            if len(seq) > len(d.edges):
                raise ValueError("strand tracing ran away")
        out.append(Branch("circle", tuple(seq)))
    out.extend(Branch("circle", ()) for _ in range(d.bare_circles))
    return out


def _turn_sets(k: int) -> list:
    """Every set of pairwise non-adjacent U-turn indices in 1..k-1."""
    sets = [frozenset()]
    for i in range(1, k):
        sets += [t | {i} for t in sets if i - 1 not in t]
    return sets


def _small_scannables(sizes=((2, 6), (3, 5), (4, 4), (5, 3))):
    """Every scannable divide on 2-5 strands, with all U-turn sets on both
    sides and every event word of up to 6, 5, 4, 3 letters; ``sizes`` pairs
    each strand count with its longest word."""
    for k, longest in sizes:
        words = [w for n in range(longest + 1) for w in product(range(1, k), repeat=n)]
        turns = _turn_sets(k)
        for left, right, w in product(turns, turns, words):
            yield scannable(k, left, w, right)


def checkerboard_sweep() -> list:
    """The 1,560 divides without bare circles of every scannable divide on 2
    and 3 strands (words of up to 6 and 5 letters) and on 4 strands (up to 3
    letters), valid or not."""
    ds = [scannable_to_planar(s) for s in _small_scannables(((2, 6), (3, 5), (4, 3)))]
    return [d for d in ds if not d.bare_circles]


def test_face_signs_are_a_checkerboard():
    """Across every divide edge the signs differ, and region 0's face is '+'
    (also on divides failing D5)."""
    sweep = checkerboard_sweep()
    assert len(sweep) == 1560
    for d in sweep:
        sign = face_signs(d)
        assert all(sign[a] != sign[b] for a, b in d.edges), d
        rs = regions(d)
        assert not rs or sign[rs[0].darts[0]] == "+"


def _lissajous_and_klein_images():
    for a in range(2, 13):
        for b in range(2, a + 1):
            for parity in (0, 1):
                s = lissajous(a, b, parity)
                for g in ("id", "flipH", "flipV", "rot180"):
                    yield klein_act(s, g)


def test_strand_walk_matches_the_reference():
    """The strand walk and the merged branch trace give exactly the divides
    and branches of the reference code (node and leaf names, boundary order,
    bare circles, outer dart)."""
    small = list(_small_scannables())
    checkerboards = list(_lissajous_and_klein_images())
    assert (len(small), len(checkerboards)) == (9060, 528)
    bare = outer = 0
    for s in small + checkerboards:
        d = scannable_to_planar(s)
        assert d == reference_scannable_to_planar(s), s
        assert branches(d) == reference_branches(d), s
        bare += d.bare_circles > 0
        outer += d.outer_dart is not None
    # both rarer paths of the walk are taken
    assert bare and outer
    for text in (HYPERBOLIC_NODE, CHAIN_WITH_LOOPS, TRIANGLE_ARC):
        d = parse_planar_divide(text)
        assert branches(d) == reference_branches(d)
