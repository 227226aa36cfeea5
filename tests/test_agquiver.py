"""Signed incidence diagrams of divides and the quivers they induce."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morsify.agquiver import ag_diagram, format_ag, quiver_of_divide
from morsify.divide import (
    SignConflict,
    cell_count,
    lissajous,
    parse_planar_divide,
    regions,
    scannable,
    scannable_to_planar,
    validate,
    wiring_diagram,
)
from morsify.quiver import is_isomorphic, mutation_equivalent, quiver_from_arrows

from test_divide import CHAIN_WITH_LOOPS, HYPERBOLIC_NODE, TRIANGLE_ARC
from test_divide import checkerboard_sweep, figure_eight

# frozen 6-vertex quivers of the two divides realizing the same singularity:
# b1,b2,b3 = nodes, p = the central plus region, m1,m2 = minus regions
SIX_LEFT = quiver_from_arrows(
    6,
    # order: b1=0, b2=1, b3=2, p=3, m1=4, m2=5
    [(0, 3), (1, 3), (2, 3), (3, 4), (3, 5), (4, 0), (4, 2), (5, 1), (5, 2)],
)
# the tree with a degree-3 branch vertex: l1->n1, l2->n2, tri->n0,n1,n2
SIX_RIGHT = quiver_from_arrows(
    6,
    # order: n0=0, n1=1, n2=2, tri=3, l1=4, l2=5
    [(4, 1), (5, 2), (3, 0), (3, 1), (3, 2)],
)


class TestDiagram:
    def test_hyperbolic_node(self):
        d = parse_planar_divide(HYPERBOLIC_NODE)
        g = ag_diagram(d)
        assert g.black == ("n",)
        assert g.region_signs == ()
        assert g.edges == ()

    def test_lens(self):
        d = scannable_to_planar(scannable(2, (), (1, 1), ()))
        g = ag_diagram(d)
        assert len(g.black) == 2
        assert g.region_signs == ("+",)
        kinds = Counter(tuple(k for k, _ in e) for e in g.edges)
        assert kinds == {("region", "node"): 2}

    def test_figure_eight_signs_equal(self):
        g = ag_diagram(figure_eight())
        # the two loop regions share the node, so they carry equal signs
        assert g.region_signs == ("+", "+")
        assert len(g.edges) == 2

    def test_triangle_arc_counts(self):
        g = ag_diagram(parse_planar_divide(TRIANGLE_ARC))
        assert g.vertex_count == 6
        assert len(g.edges) == 9
        assert sorted(g.region_signs) == ["+", "-", "-"]

    def test_tripartite(self):
        g = ag_diagram(parse_planar_divide(CHAIN_WITH_LOOPS))
        for u, v in g.edges:
            if u[0] == v[0] == "region":
                assert g.region_signs[u[1]] != g.region_signs[v[1]]
            else:
                assert {u[0], v[0]} == {"region", "node"}

    def test_region_edge_count_matches_boundary(self):
        # a region bounded by j one-cells has exactly j edges to nodes
        from morsify.divide import regions

        d = parse_planar_divide(CHAIN_WITH_LOOPS)
        g = ag_diagram(d)
        for r in regions(d):
            cnt = sum(
                1 for u, v in g.edges if u == ("region", r.index) and v[0] == "node"
            )
            assert cnt == len(r.boundary_cells)

    def test_serialization(self):
        g = ag_diagram(parse_planar_divide(TRIANGLE_ARC))
        text = format_ag(g)
        assert "v b1 b" in text
        assert any(line.startswith("v r0 ") for line in text.splitlines())
        assert all(line.split()[0] in ("v", "e") for line in text.splitlines())

    def test_one_cell_bounding_one_region_twice(self):
        # swapping slots 1 and 2 of b3 makes a 1-cell with the same region on
        # both sides, so the faces admit no checkerboard
        text = TRIANGLE_ARC.replace("b3.1", "@").replace("b3.2", "b3.1")
        d = parse_planar_divide(text.replace("@", "b3.2"))
        where = {x: r.index for r in regions(d) for x in r.darts}
        sides = [{where.get(x) for x in e} for e in d.edges]
        assert any(len(s) == 1 and None not in s for s in sides)
        with pytest.raises(SignConflict) as err:
            ag_diagram(d)
        assert str(err.value) == "the divide edge at b1.1 has one sign on both sides"


class TestQuiver:
    def test_hyperbolic_node(self):
        q = quiver_of_divide(parse_planar_divide(HYPERBOLIC_NODE))
        assert q.n == 1 and q.arrows() == []

    def test_single_crossing_pair(self):
        # one node, one region: a single arrow
        d = scannable_to_planar(lissajous(3, 2, 0))
        q = quiver_of_divide(d)
        assert q.n == 2
        assert len(q.arrows()) == 1

    def test_lens_gives_a3(self):
        d = scannable_to_planar(scannable(2, (), (1, 1), ()))
        q = quiver_of_divide(d)
        assert is_isomorphic(q, quiver_from_arrows(3, [(0, 2), (1, 2)]))

    def test_figure_eight_gives_a3(self):
        q = quiver_of_divide(figure_eight())
        assert is_isomorphic(
            q, quiver_from_arrows(3, [(0, 2), (1, 2)]), up_to_reversal=True
        )

    def test_generic_lines_give_d4(self):
        q = quiver_of_divide(scannable_to_planar(wiring_diagram(3)))
        assert is_isomorphic(q, quiver_from_arrows(4, [(0, 3), (1, 3), (2, 3)]))

    def test_triangle_arc_quiver(self):
        q = quiver_of_divide(parse_planar_divide(TRIANGLE_ARC))
        assert is_isomorphic(q, SIX_LEFT, up_to_reversal=True)

    def test_chain_with_loops_quiver(self):
        q = quiver_of_divide(parse_planar_divide(CHAIN_WITH_LOOPS))
        assert is_isomorphic(q, SIX_RIGHT, up_to_reversal=True)

    def test_same_singularity_mutation_equivalent(self):
        q1 = quiver_of_divide(parse_planar_divide(TRIANGLE_ARC))
        q2 = quiver_of_divide(parse_planar_divide(CHAIN_WITH_LOOPS))
        res = mutation_equivalent(q1, q2)
        assert bool(res)

    def test_no_two_cycles(self):
        for text in (TRIANGLE_ARC, CHAIN_WITH_LOOPS):
            q = quiver_of_divide(parse_planar_divide(text))
            arrow_pairs = {(i, j) for i, j, _ in q.arrows()}
            assert not any((j, i) in arrow_pairs for i, j in arrow_pairs)


@given(st.integers(2, 5), st.integers(0, 1))
@settings(max_examples=20, deadline=None)
def test_vertex_count_equals_cells(b, parity):
    a = b + 1
    d = scannable_to_planar(lissajous(a, b, parity))
    g = ag_diagram(d)
    assert g.vertex_count == cell_count(d).total
    q = quiver_of_divide(d)
    assert q.n == g.vertex_count


def reference_sign_assignment(d) -> tuple:
    """The region signs of the constraint colouring that the checkerboard
    replaced: regions across a 1-cell differ, regions sharing only a node
    agree, region 0 and the least region of every other component are '+'."""
    rs = regions(d)
    constraints = []  # (region, region, 1 for opposite signs)
    where = {x: r.index for r in rs for x in r.darts}
    adjacent: set = set()
    for e in d.edges:
        a, b = sorted(e)
        ra, rb = where.get(a), where.get(b)
        if ra is not None and rb is not None:
            adjacent.add(frozenset({ra, rb}))
            constraints.append((ra, rb, 1))
    at_node: dict = {}
    for r in rs:
        for nd in r.region_nodes:
            at_node.setdefault(nd, []).append(r.index)
    for members in at_node.values():
        for i, x in enumerate(members):
            for y in members[i + 1 :]:
                if x != y and frozenset({x, y}) not in adjacent:
                    constraints.append((x, y, 0))
    # union-find with each item's colour relative to its parent
    parent, parity = list(range(len(rs))), [0] * len(rs)

    def find(x):
        p = 0
        while parent[x] != x:
            p ^= parity[x]
            x = parent[x]
        return x, p

    for i, j, differ in constraints:
        (ri, pi), (rj, pj) = find(i), find(j)
        if ri == rj:
            assert pi ^ pj == differ, "the constraints clash"
        else:
            parent[rj], parity[rj] = ri, pi ^ pj ^ differ
    fixed: dict = {}
    colours = []
    for i in range(len(rs)):
        root, p = find(i)
        colours.append(p ^ fixed.setdefault(root, p))
    return tuple("-" if c else "+" for c in colours)


def test_signs_match_the_constraint_colouring():
    """On every valid divide of the sweep, the checkerboard gives the region
    signs of the constraint colouring it replaced."""
    valid = [d for d in checkerboard_sweep() if validate(d).ok]
    assert len(valid) == 739
    for d in valid:
        assert ag_diagram(d).region_signs == reference_sign_assignment(d), d
    for text in (TRIANGLE_ARC, CHAIN_WITH_LOOPS):
        d = parse_planar_divide(text)
        assert ag_diagram(d).region_signs == reference_sign_assignment(d)
