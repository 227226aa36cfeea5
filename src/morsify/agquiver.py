"""Signed node/region incidence diagrams of divides, and their quivers.

The diagram of a divide has a black vertex per node and a signed vertex
(``+`` or ``-``) per region.  A region's sign is that of its face in the
checkerboard :func:`morsify.divide.face_signs`, so regions sharing a 1-cell
carry opposite signs and regions sharing only a node equal ones; a
crossing-free circle is ``+``.  Edges join a region to each separating
1-cell's opposite region, and to the nodes on its boundary, one edge per
corner of the boundary walk.  Orienting every edge by the cyclic rule
black → plus → minus → black and forgetting the markings yields the divide's
quiver.
"""

from __future__ import annotations

from dataclasses import dataclass

from .divide import PlanarDivide, _face_signs, _regions
from .quiver import Quiver, quiver_from_arrows


@dataclass(frozen=True)
class AGDiagram:
    black: tuple  # node ids, sorted
    region_signs: tuple  # '+' or '-' per region index
    edges: tuple  # pairs (("node", id) | ("region", idx), ...); repeats = multiplicity

    @property
    def vertex_count(self) -> int:
        return len(self.black) + len(self.region_signs)


def ag_diagram(d: PlanarDivide) -> AGDiagram:
    cm = d.closed_map()  # traced once for the regions and their signs
    fs = cm.faces()
    rs = _regions(d, fs, cm.arc_darts)
    sign = _face_signs(d, fs, cm.arc_darts)
    signs = tuple(sign[r.darts[0]] if r.darts else "+" for r in rs)
    dart_region = {x: r.index for r in rs for x in r.darts}
    edges = []
    # region--node: one edge per corner of the region's boundary walk
    for r in rs:
        for nd, _cell in r.boundary_cells:
            edges.append((("region", r.index), ("node", nd)))
    # region--region: one edge per separating 1-cell
    for e in sorted(d.edges, key=sorted):
        a, b = sorted(e)
        ra, rb = dart_region.get(a), dart_region.get(b)
        if ra is not None and rb is not None:
            edges.append((("region", min(ra, rb)), ("region", max(ra, rb))))
    return AGDiagram(tuple(sorted(d.nodes)), signs, tuple(edges))


def ag_vertices(diagram: AGDiagram) -> list:
    """Deterministic vertex order: black nodes, then regions by index."""
    out = [("node", nd) for nd in diagram.black]
    out.extend(("region", i) for i in range(len(diagram.region_signs)))
    return out


def quiver_of_divide(d: PlanarDivide) -> Quiver:
    """The quiver of the divide's diagram.  The divide is not validated: on
    a divide failing D5 the region signs are still the checkerboard
    :func:`~morsify.divide.face_signs` that colours the attached plabic
    graph, so the quiver is isomorphic to that graph's quiver."""
    diagram = ag_diagram(d)
    verts = ag_vertices(diagram)
    idx = {v: i for i, v in enumerate(verts)}
    arrows = []
    for u, v in diagram.edges:
        # every edge starts at a region: black -> plus -> minus -> black
        plus = diagram.region_signs[u[1]] == "+"
        if v[0] == "node":
            arrows.append((idx[v], idx[u]) if plus else (idx[u], idx[v]))
        else:
            arrows.append((idx[u], idx[v]) if plus else (idx[v], idx[u]))
    return quiver_from_arrows(len(verts), arrows)


def format_ag(diagram: AGDiagram) -> str:
    lines = []
    for nd in diagram.black:
        lines.append(f"v {nd} b")
    for i, s in enumerate(diagram.region_signs):
        lines.append(f"v r{i} {'p' if s == '+' else 'm'}")
    mult: dict = {}
    for u, v in diagram.edges:
        key = (u, v)
        mult[key] = mult.get(key, 0) + 1

    def name(x):
        return x[1] if x[0] == "node" else f"r{x[1]}"

    for (u, v), m in sorted(mult.items(), key=lambda kv: (name(kv[0][0]), name(kv[0][1]))):
        lines.append(f"e {name(u)} {name(v)} {m}")
    return "\n".join(lines) + "\n"
