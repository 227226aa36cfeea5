"""Rotation systems in a disk: the map core shared by divides and plabic graphs.

Darts (half-edges) are ``(vertex, slot)`` pairs.  Interior vertices carry
``slots`` darts in counterclockwise order (four at a divide's node, three at a
plabic graph's trivalent vertex); boundary vertices carry the single slot
``0`` and are listed counterclockwise along the disk by ``boundary_order``.
``twin`` pairs the two darts of every edge and ``rot_next`` gives the
counterclockwise successor of a dart at its vertex.

The *closed map* adds one edge per boundary arc, with darts ``("~arc", i, 0)``
at the ``i``-th boundary vertex and ``("~arc", i, 1)`` at the next.  Faces are
the orbits of ``d -> rot_next[twin[d]]``; with counterclockwise rotations this
walks every face boundary once.  Shared code that rejects its input raises
the exception the caller passes, so each caller keeps its own messages and
exception classes.
"""

from __future__ import annotations

from typing import Callable, Collection, Hashable, Iterable, Mapping, NamedTuple, Optional, Sequence

Dart = Hashable


def map_darts(inner: Iterable, slots: int, leaves: Iterable) -> list[Dart]:
    """Interior vertices' darts (sorted by vertex), then boundary vertices'."""
    out = [(v, s) for v in sorted(inner) for s in range(slots)]
    out.extend((v, 0) for v in sorted(leaves))
    return out


def twin_map(edges: Iterable[frozenset]) -> dict:
    t: dict = {}
    for e in edges:
        if len(e) != 2:
            raise ValueError(f"edge {set(e)} does not pair two distinct darts")
        a, b = e
        t[a] = b
        t[b] = a
    return t


def trace_faces(darts: Sequence[Dart], twin: Mapping[Dart, Dart], rot_next: Mapping[Dart, Dart]) -> list[tuple[Dart, ...]]:
    seen: set[Dart] = set()
    faces: list[tuple[Dart, ...]] = []
    for start in darts:
        if start in seen:
            continue
        face: list[Dart] = []
        d = start
        while True:
            if d in seen:
                raise ValueError("inconsistent rotation system (face walk re-entered)")
            seen.add(d)
            face.append(d)
            d = rot_next[twin[d]]
            if d == start:
                break
        faces.append(tuple(face))
    return faces


class ClosedMap(NamedTuple):
    darts: list
    twin: dict
    rot_next: dict
    arc_darts: set

    def faces(self) -> list[tuple[Dart, ...]]:
        return trace_faces(self.darts, self.twin, self.rot_next)


def closed_map(inner: Iterable, slots: int, leaves: Iterable, boundary_order: Sequence, twin: Mapping) -> ClosedMap:
    """The map closed up along the disk boundary.  With an empty
    ``boundary_order`` every boundary vertex is its own rotation."""
    darts = map_darts(inner, slots, leaves)
    twin = dict(twin)
    rot_next = {(v, s): (v, (s + 1) % slots) for v in inner for s in range(slots)}
    m = len(boundary_order)
    if not m:
        rot_next.update(((v, 0), (v, 0)) for v in leaves)
    for i, v in enumerate(boundary_order):
        a0, a1, prev = ("~arc", i, 0), ("~arc", i, 1), ("~arc", (i - 1) % m, 1)
        twin[a0], twin[a1] = a1, a0
        darts.extend((a0, a1))
        rot_next.update({a0: (v, 0), (v, 0): prev, prev: a0})
    return ClosedMap(darts, twin, rot_next, set(darts[len(darts) - 2 * m :]))


def split_faces(faces: Iterable[tuple], arc_darts: set, outer_dart: Optional[Dart]) -> tuple[list, list]:
    """``(inner_faces, boundary_faces)``, each sorted by the sorted vertex ids
    of the face, then by its dart walk.  Boundary faces hold an arc dart; in a
    map without boundary arcs, the face holding ``outer_dart`` is the one
    boundary face."""
    inner, boundary = [], []
    for f in faces:
        if not arc_darts.isdisjoint(f) or (not arc_darts and outer_dart in f):
            boundary.append(f)
        else:
            inner.append(f)
    inner.sort(key=_face_key)
    boundary.sort(key=_face_key)
    return inner, boundary


def _face_key(f: tuple):
    return (sorted({x[0] for x in f}), f)


def vertices_connected(vertices: set, links: Iterable[tuple]) -> bool:
    """Whether the vertex pairs ``links`` join exactly ``vertices`` into one
    component."""
    adj: dict = {}
    for a, b in links:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    stack = list(vertices)[:1]
    seen = set(stack)
    while stack:
        for y in adj.get(stack.pop(), ()):
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen == vertices


def check_map(vertices: set, edges: Collection[frozenset], cm: ClosedMap) -> Optional[tuple[list, int]]:
    """None when ``edges`` leave ``vertices`` disconnected (Euler's formula
    presumes connectivity), else the faces of ``cm`` and its V - E + F, which
    is 2 exactly for a map of genus 0."""
    if not vertices_connected(vertices, ((a[0], b[0]) for a, b in edges)):
        return None
    fs = cm.faces()
    return fs, len(vertices) - len(edges) - len(cm.arc_darts) // 2 + len(fs)


def parse_dart(tok: str, kinds: Sequence[tuple], fail: Callable[[str], Exception]) -> Dart:
    """Parse ``vertex.slot``; ``kinds`` lists ``(vertex ids, slot count,
    noun)`` per kind of vertex, and a bad reference raises ``fail(message)``."""
    name, _, slot = tok.rpartition(".")
    if not name or not slot.isdigit():
        raise fail(f"malformed slot reference {tok!r}")
    s = int(slot)
    for names, slots, noun in kinds:
        if name in names:
            if s < slots:
                return (name, s)
            if slots == 1:
                raise fail(f"{noun} slot must be 0 in {tok!r}")
            raise fail(f"{noun} slot out of range in {tok!r}")
    raise fail(f"unknown vertex {name!r}")


def format_map(edges: Iterable[frozenset], boundary_order: Sequence, outer_dart: Optional[Dart]) -> list[str]:
    """The ``edge``, ``boundary`` and ``outer`` lines of the text formats."""
    lines = []
    for e in sorted(edges, key=sorted):
        a, b = sorted(e)
        lines.append(f"edge {a[0]}.{a[1]} {b[0]}.{b[1]}")
    if boundary_order:
        lines.append("boundary " + " ".join(str(v) for v in boundary_order))
    if outer_dart is not None:
        lines.append(f"outer {outer_dart[0]}.{outer_dart[1]}")
    return lines

