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

from collections import defaultdict
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Iterable, NamedTuple, Optional

from ._common import read_directives
from ._maps import check_map, closed_map, format_map, map_darts, parse_dart
from ._maps import split_faces, twin_map, vertices_connected

Dart = tuple  # (vertex_id, slot)


# ---------------------------------------------------------------------------
# Planar divides


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


def faces(d: PlanarDivide):
    """All faces of the closed map, with the outer face identified.

    Returns ``(face_list, outer_index, arc_darts)``.
    """
    cm = d.closed_map()
    fs = cm.faces()
    if d.boundary_order:
        outer = next((i for i, f in enumerate(fs) if cm.arc_darts.issuperset(f)), None)
    else:
        outer = next((i for i, f in enumerate(fs) if d.outer_dart in f), None)
    return fs, outer, cm.arc_darts


def regions(d: PlanarDivide) -> list[Region]:
    """Faces not incident to the disk boundary, in deterministic order."""
    fs, _, arc_darts = faces(d)
    return _regions(d, fs, arc_darts)


def _regions(d: PlanarDivide, fs: list, arc_darts: set) -> list[Region]:
    inner, _ = split_faces(fs, arc_darts, d.outer_dart)
    twin = d.twin()
    out = [
        Region(i, f, tuple((x[0], frozenset({x, twin[x]})) for x in f))
        for i, f in enumerate(inner)
    ]
    out.extend(Region(len(out) + j, (), ()) for j in range(d.bare_circles))
    return out


def cell_count(d: PlanarDivide) -> CellCount:
    n = len(d.nodes)
    r = len(regions(d))
    return CellCount(n, r, n + r)


def branches(d: PlanarDivide) -> list[Branch]:
    """The immersed curves: trace strands straight through every node."""
    twin = d.twin()
    used: set = set()  # darts already consumed by some strand
    out: list[Branch] = []
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
    """
    passages: dict[int, list] = {lvl: [] for lvl in range(1, s.k + 1)}
    for m, a in enumerate(s.events):
        nid = f"n{m}"
        passages[a].append(((nid, 0), (nid, 1)))  # lower strand: west, east darts
        passages[a + 1].append(((nid, 3), (nid, 2)))  # upper strand
    edges: list = []
    for lvl in range(1, s.k + 1):
        ps = passages[lvl]
        for (w1, e1), (w2, e2) in zip(ps, ps[1:]):
            edges.append(frozenset({e1, w2}))
    # wire up terminals through U-turns and crossing-free levels
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

    # Strand-end paths alternate wires (turns, crossing-free levels) and stop
    # at a concrete dart (the strand enters the crossing zone there) or at a
    # loose end (which becomes a boundary endpoint).
    for tok in all_tokens:
        if tok in visited:
            continue
        if concrete(tok) is None and len(conn[tok]) >= 2:
            continue  # interior wire token of a path or cycle
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
    # cycles made entirely of wires = crossing-free circles
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
    # the concrete terminals with no connections become endpoints, handled
    # above; now the boundary order: right side bottom-up, left side top-down
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
        # no endpoints at all: pick a dart on the outer face.  The face of a
        # dart is the corner swept clockwise from it, so the south corner of
        # the leftmost node on the lowest busy level -- which borders the
        # unbounded face below the bottom strand -- is the face of that
        # node's lower-east dart.
        low = min(lvl for lvl in passages if passages[lvl])
        outer = passages[low][0][1]
    return PlanarDivide(
        nodes, frozenset(ep_by_tok.values()), frozenset(edges), tuple(border), bare, outer
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
