"""Divides: immersed curves in a disk with transversal double points.

A *planar divide* is a rotation system in the sense of :mod:`morsify._maps`:
every node (double point) carries four slots ``0..3``, with slots ``{0, 2}``
and ``{1, 3}`` forming the two strands passing through the node, and every
endpoint (curve end on the disk boundary) is a boundary vertex.  A
crossing-free closed curve cannot be held in a rotation system, so such
components are counted in ``bare_circles``.

A *scannable divide* is the left-to-right normal form: ``k`` horizontal
strands (numbered bottom-up), U-turn pairs at the far left and far right, and
a word of crossing events.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Iterable, NamedTuple, Optional

from ._common import read_directives
from ._maps import check_map, closed_map, format_map, map_darts, parse_dart
from ._maps import split_faces, twin_map, vertices_connected

Dart = tuple  # (vertex_id, slot)


# ---------------------------------------------------------------------------
# Planar divides


class SignConflict(ValueError):
    """The divide's faces admit no checkerboard (the divide is invalid)."""


class DivideParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class PlanarDivide:
    nodes: frozenset
    endpoints: frozenset
    edges: frozenset  # of frozenset({dart, dart})
    boundary_order: tuple
    bare_circles: int = 0
    outer_dart: Optional[Dart] = None

    def __post_init__(self):
        object.__setattr__(self, "nodes", frozenset(self.nodes))
        object.__setattr__(self, "endpoints", frozenset(self.endpoints))
        object.__setattr__(
            self, "edges", frozenset(frozenset(e) for e in self.edges)
        )
        object.__setattr__(self, "boundary_order", tuple(self.boundary_order))

    # -- structural accessors ------------------------------------------------

    def darts(self) -> list[Dart]:
        return map_darts(self.nodes, 4, self.endpoints)

    def twin(self) -> dict:
        return twin_map(self.edges)

    def closed_map(self):
        """The map closed up along the disk boundary (see :mod:`morsify._maps`)."""
        return closed_map(self.nodes, 4, self.endpoints, self.boundary_order, self.twin())


class CellCount(NamedTuple):
    nodes: int
    regions: int
    total: int


@dataclass(frozen=True)
class Region:
    index: int
    darts: tuple  # face walk (empty for a crossing-free circle)
    boundary_cells: tuple  # cyclic (node, one_cell) incidences

    @property
    def region_nodes(self) -> tuple:
        return tuple(sorted({n for n, _ in self.boundary_cells}))

    @property
    def one_cells(self) -> tuple:
        seen = []
        for _, c in self.boundary_cells:
            if c not in seen:
                seen.append(c)
        return tuple(seen)


@dataclass(frozen=True)
class Branch:
    kind: str  # "interval" | "circle"
    edge_sequence: tuple


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def regions(d: PlanarDivide) -> list[Region]:
    """Faces not incident to the disk boundary, in deterministic order."""
    cm = d.closed_map()
    return _regions(d, cm.faces(), cm.arc_darts)


def _regions(d: PlanarDivide, fs: list, arc_darts: set) -> list[Region]:
    inner, _ = split_faces(fs, arc_darts, d.outer_dart)
    twin = d.twin()
    return [
        Region(i, f, tuple((x[0], frozenset({x, twin[x]})) for x in f))
        for i, f in enumerate(inner + [()] * d.bare_circles)
    ]


def face_signs(d: PlanarDivide) -> dict:
    """The checkerboard of the divide's faces: the sign ``'+'`` or ``'-'`` of
    the face of every dart of the closed map, opposite on the two sides of
    every divide edge.  It floods across divide edges from region 0's face,
    which is ``'+'``; each part not reached from there starts with ``'+'`` at
    its first face in tracing order.  Raises :class:`SignConflict` if no
    checkerboard exists.
    """
    cm = d.closed_map()
    return _face_signs(d, cm.faces(), cm.arc_darts)


def _face_signs(d: PlanarDivide, fs: list, arc_darts: set) -> dict:
    inner, _ = split_faces(fs, arc_darts, d.outer_dart)
    face_of = {x: f for f in fs for x in f}
    twin = d.twin()  # divide edges only: a boundary arc's darts are not in it
    sign: dict = {}
    for first in inner[:1] + fs:
        todo = [] if first[0] in sign else [(first[0], "+")]
        while todo:
            x, s = todo.pop()
            if x in sign:
                if sign[x] != s:
                    raise SignConflict(
                        f"the divide edge at {x[0]}.{x[1]} has one sign on both sides"
                    )
                continue
            sign.update(dict.fromkeys(face_of[x], s))
            t = "-" if s == "+" else "+"
            todo.extend((twin[y], t) for y in face_of[x] if y in twin)
    return sign


def cell_count(d: PlanarDivide) -> CellCount:
    n = len(d.nodes)
    r = len(regions(d))
    return CellCount(n, r, n + r)


def branches(d: PlanarDivide) -> list[Branch]:
    """The immersed curves: trace strands straight through every node."""
    twin = d.twin()
    used: set = set()  # darts already consumed by some strand

    def trace(start, kind):
        seq = []
        cur = start
        while True:
            nxt = twin[cur]
            used.update((cur, nxt))
            seq.append(frozenset({cur, nxt}))
            v, s = nxt
            if v in d.endpoints:
                break
            cur = (v, (s + 2) % 4)
            if cur == start:
                break
            if len(seq) > len(d.edges):
                raise ValueError("strand tracing ran away")
        return Branch(kind, tuple(seq))

    # each strand is traced once, from its first dart not yet used
    out = [trace((e, 0), "interval")
           for e in sorted(d.endpoints) if (e, 0) not in used]
    out += [trace(min(e), "circle")
            for e in sorted(d.edges, key=sorted) if min(e) not in used]
    out.extend(Branch("circle", ()) for _ in range(d.bare_circles))
    return out


def validate(d: PlanarDivide) -> ValidationReport:
    v: list[tuple[str, str]] = []
    # structural sanity shared by all conditions
    twin = d.twin()
    darts = d.darts()
    if set(twin) != set(darts):
        missing = set(darts) - set(twin)
        v.append(("D3", f"unpaired half-edge slots: {sorted(missing)[:4]}"))
        return ValidationReport(tuple(v))
    if set(d.boundary_order) != set(d.endpoints) or len(d.boundary_order) != len(
        d.endpoints
    ):
        v.append(("D4", "boundary order does not enumerate the endpoints"))
        return ValidationReport(tuple(v))
    # D5 (first half): connectedness of the union of branches, which the
    # genus test presumes
    verts = d.nodes | d.endpoints
    cm = d.closed_map()
    checked = check_map(verts, d.edges, cm)
    if checked is None or (d.bare_circles and verts):
        v.append(("D5", "the union of branches is disconnected"))
    if checked is None:
        return ValidationReport(tuple(v))
    # D6: the rotation system must be planar (genus 0)
    fs, euler = checked
    if verts and euler != 2:
        v.append(("D6", f"map has genus > 0 (V-E+F = {euler}, expected 2)"))
        return ValidationReport(tuple(v))
    if not d.boundary_order and d.nodes and d.outer_dart is None:
        v.append(("D6", "endpoint-free divide needs an outer-face dart"))
    # D1/D2: branch structure
    br = branches(d)
    edge_cover = [e for b in br for e in b.edge_sequence]
    if len(edge_cover) != len(d.edges) or set(edge_cover) != set(d.edges):
        v.append(("D1", "strand tracing does not partition the edges"))
    # D5 (second half): connectedness of the body (nodes plus closed regions)
    if d.nodes:
        rs = _regions(d, fs, cm.arc_darts)
        cells = d.nodes | {("~region", r.index) for r in rs if r.boundary_cells}
        links = ((("~region", r.index), n) for r in rs for n in r.region_nodes)
        if not vertices_connected(cells, links):
            v.append(("D5", "the body (nodes and regions) is disconnected"))
    return ValidationReport(tuple(v))


# ---------------------------------------------------------------------------
# .pdv parsing / printing


_PDV_USAGE = {
    "node": (1, 1, "node takes one id"),
    "end": (1, 1, "end takes one id"),
    "edge": (2, 2, "edge takes two darts"),
    "boundary": (0, None, ""),
    "outer": (1, 1, "outer takes one dart"),
}


def parse_planar_divide(text: str) -> PlanarDivide:
    nodes: set = set()
    endpoints: set = set()
    edges: list = []
    boundary: tuple = ()
    outer: Optional[Dart] = None
    boundary_fail = partial(DivideParseError, line=0)  # until a boundary line
    used_slots: set = set()
    kinds = ((nodes, 4, "node"), (endpoints, 1, "endpoint"))

    for kw, args, fail in read_directives(text, _PDV_USAGE, DivideParseError):
        if kw == "node":
            nodes.add(args[0])
        elif kw == "end":
            endpoints.add(args[0])
        elif kw == "edge":
            a, b = (parse_dart(tok, kinds, fail) for tok in args)
            if a == b:
                raise fail("edge joins a slot to itself")
            for x in (a, b):
                if x in used_slots:
                    raise fail(f"DuplicateSlot: {x[0]}.{x[1]} used twice")
                used_slots.add(x)
            edges.append(frozenset({a, b}))
        elif kw == "boundary":
            boundary, boundary_fail = tuple(args), fail
            for e in boundary:
                if e not in endpoints:
                    raise fail(f"boundary lists unknown endpoint {e!r}")
        else:  # outer
            outer = parse_dart(args[0], kinds, fail)
    for e in sorted(endpoints):
        if (e, 0) not in used_slots:
            raise DivideParseError(f"endpoint {e!r} has no edge", 0)
    if sorted(boundary) != sorted(endpoints):
        raise boundary_fail("boundary must list every endpoint exactly once")
    return PlanarDivide(
        frozenset(nodes), frozenset(endpoints), frozenset(edges), boundary, 0, outer
    )


def format_planar_divide(d: PlanarDivide) -> str:
    lines = [f"node {v}" for v in sorted(d.nodes)]
    lines += [f"end {e}" for e in sorted(d.endpoints)]
    lines += format_map(d.edges, d.boundary_order, d.outer_dart)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Scannable divides


@dataclass(frozen=True)
class ScannableDivide:
    k: int
    left_turns: frozenset
    events: tuple
    right_turns: frozenset

    def __post_init__(self):
        object.__setattr__(self, "left_turns", frozenset(self.left_turns))
        object.__setattr__(self, "right_turns", frozenset(self.right_turns))
        object.__setattr__(self, "events", tuple(self.events))
        if self.k < 2:
            raise ValueError("scannable divide needs k >= 2")
        for s in (self.left_turns, self.right_turns):
            for i in s:
                if not 1 <= i <= self.k - 1:
                    raise ValueError(f"turn index {i} out of range")
                if i + 1 in s:
                    raise ValueError("U-turn pairs must be non-adjacent")
        for a in self.events:
            if not 1 <= a <= self.k - 1:
                raise ValueError(f"event index {a} out of range")


def scannable(k: int, left=(), events=(), right=()) -> ScannableDivide:
    return ScannableDivide(k, frozenset(left), tuple(events), frozenset(right))


_SDV_USAGE = {
    "k": (1, 1, "k takes one strand count"),
    "L": (0, None, ""),
    "E": (0, None, ""),
    "R": (0, None, ""),
}


def parse_scannable(text: str) -> ScannableDivide:
    k = None
    lists: dict = {"L": (), "E": (), "R": ()}
    for kw, args, _ in read_directives(text, _SDV_USAGE, DivideParseError):
        if kw == "k":
            k = int(args[0])
        else:
            lists[kw] = tuple(int(x) for x in args)
    if k is None:
        raise DivideParseError("missing strand count line 'k <int>'", 0)
    return scannable(k, lists["L"], lists["E"], lists["R"])


def format_scannable(s: ScannableDivide) -> str:
    return (
        f"k {s.k}\n"
        f"L {' '.join(str(i) for i in sorted(s.left_turns))}\n"
        f"E {' '.join(str(a) for a in s.events)}\n"
        f"R {' '.join(str(i) for i in sorted(s.right_turns))}\n"
    )


def scannable_to_planar(s: ScannableDivide) -> PlanarDivide:
    """Realize a scannable divide as a planar rotation system.

    Each event becomes a node named ``n<index>``; node slots are
    0 = lower-west, 1 = lower-east, 2 = upper-east, 3 = upper-west, so that
    slot pairs {0,2} and {1,3} are the two strands through the crossing.
    A strand end ``(side, level)`` meets the crossing zone at the first or
    last dart of its level; outward it turns to its U-turn partner or ends
    on the disk boundary at leaf ``e<side><level>``.
    """
    levels = range(1, s.k + 1)
    passages: dict[int, list] = {lvl: [] for lvl in levels}
    for m, a in enumerate(s.events):
        nid = f"n{m}"
        passages[a].append(((nid, 0), (nid, 1)))  # lower strand: west, east darts
        passages[a + 1].append(((nid, 3), (nid, 2)))  # upper strand
    edges = {
        frozenset({e1, w2})
        for ps in passages.values()
        for (_, e1), (w2, _) in zip(ps, ps[1:])
    }
    partner: dict = {}
    for side, turns in (("L", s.left_turns), ("R", s.right_turns)):
        for i in turns:
            partner[side, i], partner[side, i + 1] = i + 1, i
    leaves: set = set()

    def end_dart(side, lvl):
        return passages[lvl][0][0] if side == "L" else passages[lvl][-1][1]

    def outward(side, lvl):
        """The dart that the strand leaving end ``(side, lvl)`` outward meets
        first: a node's, after U-turns and runs across node-free levels, or
        a boundary leaf's."""
        while (side, lvl) in partner:
            lvl = partner[side, lvl]
            if passages[lvl]:
                return end_dart(side, lvl)
            side = "R" if side == "L" else "L"
        leaves.add((side, lvl))
        return (f"e{side}{lvl}", 0)

    # Every strand piece outside the crossing zone is found from both of its
    # ends; the edge set keeps one copy.
    for side, other in (("L", "R"), ("R", "L")):
        for lvl in levels:
            if passages[lvl]:
                edges.add(frozenset({end_dart(side, lvl), outward(side, lvl)}))
            elif (side, lvl) not in partner:  # a loose end of a node-free level
                edges.add(frozenset({outward(side, lvl), outward(other, lvl)}))
    # A piece with neither a dart nor a loose end is a crossing-free circle.
    # Its lowest level can only turn up on both sides, so it is two node-free
    # levels closed by U-turns at both sides.
    bare = sum(
        not passages[i] and not passages[i + 1]
        for i in s.left_turns & s.right_turns
    )
    # boundary order: right side bottom-up, left side top-down
    border = [f"eR{lvl}" for lvl in levels if ("R", lvl) in leaves]
    border += [f"eL{lvl}" for lvl in reversed(levels) if ("L", lvl) in leaves]
    nodes = frozenset(f"n{m}" for m in range(len(s.events)))
    outer = None
    if not border and s.events:
        # no endpoints at all: pick a dart on the outer face.  The face of a
        # dart is the corner swept clockwise from it, so the south corner of
        # the leftmost node on the lowest busy level -- which borders the
        # unbounded face below the bottom strand -- is the face of that
        # node's lower-east dart.
        low = min(lvl for lvl in levels if passages[lvl])
        outer = passages[low][0][1]
    return PlanarDivide(
        nodes, frozenset(border), frozenset(edges), tuple(border), bare, outer
    )


# ---------------------------------------------------------------------------
# Yang-Baxter transformations


@dataclass(frozen=True)
class SiteDescriptor:
    """A triangular region together with the side to push.  :func:`apply_yb`
    never reads ``side``: the three sites of one triangle give the same
    pushed divide."""

    region_nodes: tuple  # the three node ids
    side: frozenset  # the pushed 1-cell (an edge of the divide)
    darts: tuple  # the face walk of the triangle


def yb_sites(d: PlanarDivide) -> list[SiteDescriptor]:
    out = []
    for r in regions(d):
        if len(r.darts) != 3:
            continue
        ns = {n for n, _ in r.boundary_cells}
        cells = r.one_cells
        if len(ns) != 3 or len(cells) != 3:
            continue
        for side in cells:
            out.append(SiteDescriptor(tuple(sorted(ns)), side, r.darts))
    return out


def apply_yb(d: PlanarDivide, site: SiteDescriptor) -> PlanarDivide:
    twin = d.twin()
    tri_darts: set = set()
    for x in site.darts:
        tri_darts.add(x)
        tri_darts.add(twin[x])
    if len(tri_darts) != 6:
        raise ValueError("InvalidSite: degenerate triangle")

    def opp(x: Dart) -> Dart:
        return (x[0], (x[1] + 2) % 4)

    phi: dict = {}
    for x in tri_darts:
        phi[x] = opp(x)
        phi[opp(x)] = twin[x]
    new_edges = []
    for e in d.edges:
        a, b = sorted(e)
        new_edges.append(frozenset({phi.get(a, a), phi.get(b, b)}))
    out = replace(d, edges=frozenset(new_edges))
    if len(out.edges) != len(d.edges):
        raise ValueError("InvalidSite: rewiring collapsed edges")
    return out


# ---------------------------------------------------------------------------
# Generators: Lissajous divides, wiring diagrams, overlays, Klein action


def lissajous(a: int, b: int, parity: int = 0) -> ScannableDivide:
    """The checkerboard divide of the quasihomogeneous pair ``(a, b)``.

    ``b`` strands; grid squares ``(x, y)`` with ``1 <= x <= a-1`` and
    ``1 <= y <= b-1`` become crossings when ``(x + y) % 2 == parity`` (parity
    0 puts a crossing in the bottom-left cell); the boundary columns ``x = 0``
    and ``x = a`` of the same checkerboard give the U-turn sets.
    """
    if not (a >= b >= 2):
        raise ValueError("need a >= b >= 2")
    if parity not in (0, 1):
        raise ValueError("parity is 0 or 1")
    want = 0 if parity == 0 else 1
    events = []
    for x in range(1, a):
        for y in range(1, b):
            if (x + y) % 2 == want:
                events.append(y)
    left = {y for y in range(1, b) if (0 + y) % 2 == want}
    right = {y for y in range(1, b) if (a + y) % 2 == want}
    return scannable(b, left, events, right)


def wiring_diagram(a: int) -> ScannableDivide:
    """A generic arrangement of ``a`` lines: the staircase reduced word of the
    longest permutation, with no U-turns."""
    if a < 2:
        raise ValueError("need a >= 2")
    events: list[int] = []
    for m in range(1, a):
        events.extend(range(m, 0, -1))
    return scannable(a, (), events, ())


def overlay(s1: ScannableDivide, s2: ScannableDivide) -> ScannableDivide:
    """Transversal overlay: stack ``s2`` above ``s1`` and cross every strand
    pair once in a grid at the right end."""
    k1, k2 = s1.k, s2.k
    events = list(s1.events)
    events.extend(a + k1 for a in s2.events)
    for t in range(1, k2 + 1):
        events.extend(range(k1 + t - 1, t - 1, -1))
    left = set(s1.left_turns) | {i + k1 for i in s2.left_turns}
    # The grid carries the lower block of strands to the top and vice versa,
    # so right-turn levels are read off after that permutation.
    right = {i + k2 for i in s1.right_turns} | set(s2.right_turns)
    return scannable(k1 + k2, left, events, right)


def klein_act(s: ScannableDivide, g: str) -> ScannableDivide:
    """Klein four-group of reflections: ``id``, ``flipH`` (left-right),
    ``flipV`` (top-bottom), ``rot180``."""
    if g == "id":
        return s
    if g == "flipH":
        return scannable(s.k, s.right_turns, tuple(reversed(s.events)), s.left_turns)
    if g == "flipV":
        return scannable(
            s.k,
            {s.k - i for i in s.left_turns},
            tuple(s.k - a for a in s.events),
            {s.k - i for i in s.right_turns},
        )
    if g == "rot180":
        return klein_act(klein_act(s, "flipH"), "flipV")
    raise ValueError(f"unknown group element {g!r}")
