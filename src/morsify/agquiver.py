"""Signed node/region incidence diagrams of divides, and their quivers.

The diagram of a divide has a black vertex per node and a signed vertex
(``+`` or ``-``) per region; adjacent regions (sharing a 1-cell) carry
opposite signs, regions sharing only a node carry equal signs.  Edges join a
region to each separating 1-cell's opposite region, and to the nodes on its
boundary, one edge per corner of the boundary walk.  Orienting every edge by
the cyclic rule black → plus → minus → black and forgetting the markings
yields the divide's quiver.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._maps import two_colouring
from .divide import PlanarDivide, regions
from .quiver import Quiver, quiver_from_arrows


class SignConflict(ValueError):
    """The region sign constraints are unsatisfiable (invalid divide)."""


@dataclass(frozen=True)
class AGDiagram:
    black: tuple  # node ids, sorted
    region_signs: tuple  # '+' or '-' per region index
    edges: tuple  # pairs (("node", id) | ("region", idx), ...); repeats = multiplicity

    @property
    def vertex_count(self) -> int:
        return len(self.black) + len(self.region_signs)


def _sign_assignment(d: PlanarDivide, rs) -> tuple:
    """Two-color the regions: lexicographically-least region gets '+'."""
    constraints = []  # (region, region, 1 for opposite signs)
    dart_region = {x: r.index for r in rs for x in r.darts}
    # adjacent regions (separated by a 1-cell): opposite signs
    adjacent: set = set()
    for e in d.edges:
        a, b = sorted(e)
        ra, rb = dart_region.get(a), dart_region.get(b)
        if ra is not None and rb is not None:
            adjacent.add(frozenset({ra, rb}))
            constraints.append((ra, rb, 1))
    # non-adjacent regions sharing a node: equal signs
    at_node: dict = {}
    for r in rs:
        for nd in r.region_nodes:
            at_node.setdefault(nd, []).append(r.index)
    for members in at_node.values():
        for i, x in enumerate(members):
            for y in members[i + 1 :]:
                if x != y and frozenset({x, y}) not in adjacent:
                    constraints.append((x, y, 0))
    colours = two_colouring(
        len(rs),
        constraints,
        0,
        lambda x, y: SignConflict(
            f"regions {x} and {y} cannot satisfy the sign constraints"
        ),
    )
    return tuple("-" if c else "+" for c in colours)


def ag_diagram(d: PlanarDivide) -> AGDiagram:
    rs = regions(d)
    signs = _sign_assignment(d, rs)
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
    diagram = ag_diagram(d)
    verts = ag_vertices(diagram)
    idx = {v: i for i, v in enumerate(verts)}
    arrows = []
    for u, v in diagram.edges:
        if u[0] == "region" and v[0] == "node":
            s = diagram.region_signs[u[1]]
            # black -> plus, minus -> black
            arrows.append((idx[v], idx[u]) if s == "+" else (idx[u], idx[v]))
        elif u[0] == "region" and v[0] == "region":
            su = diagram.region_signs[u[1]]
            # plus -> minus
            arrows.append((idx[u], idx[v]) if su == "+" else (idx[v], idx[u]))
        else:  # pragma: no cover - edges are emitted in the two forms above
            raise SignConflict("malformed diagram edge")
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
