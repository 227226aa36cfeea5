"""Plabic graphs: bicolored planar graphs in a disk with trivalent interior.

A plabic graph is a rotation system in the sense of :mod:`morsify._maps`,
like a divide: every internal vertex carries three slots ``0..2`` and every
boundary vertex (leaf) is a boundary vertex of the map.  Each vertex is black
or white.

The module provides the faces and the quiver of a plabic graph, the local
moves (flips, square moves, tail attachment/removal) with legality checks and
a move-equivalence search, plabic fences built from words over sigma/tau
connectors, the square-gadget graph attached to a divide, admissible
orientations, the link diagram of an oriented plabic graph, and the
triangle-push macro expressed as a move sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

from ._common import Budget, DistinctByInvariant, Equivalent, Unknown, Verdict
from ._common import UnionFind, line_error, read_directives
from ._maps import check_map, closed_map, format_map, map_darts, parse_dart
from ._maps import split_faces, twin_map
from .divide import PlanarDivide, ScannableDivide, SiteDescriptor, face_signs
from .divide import validate as divide_validate
from .divide import apply_yb, yb_sites
from .quiver import Quiver, quick_invariants, quiver_from_arrows
from ._search import Frontier

Dart = tuple  # (vertex_id, slot)


class IllegalMove(ValueError):
    """The move descriptor is not legal for this graph."""


class SiteNotFound(ValueError):
    """The graph does not contain the requested gadget configuration."""


class DisconnectedFence(ValueError):
    """The fence word does not connect all strands."""


# ---------------------------------------------------------------------------
# The graph structure


@dataclass(frozen=True)
class PlabicGraph:
    internal: frozenset  # trivalent vertices (slots 0..2, counterclockwise)
    leaves: frozenset  # univalent boundary vertices (slot 0)
    black: frozenset  # subset of internal | leaves; the rest are white
    edges: frozenset  # of frozenset({dart, dart})
    boundary_order: tuple  # leaves, counterclockwise
    outer_dart: Optional[Dart] = None  # outer-face marker for leafless graphs

    def __post_init__(self):
        object.__setattr__(self, "internal", frozenset(self.internal))
        object.__setattr__(self, "leaves", frozenset(self.leaves))
        object.__setattr__(self, "black", frozenset(self.black))
        object.__setattr__(
            self, "edges", frozenset(frozenset(e) for e in self.edges)
        )
        object.__setattr__(self, "boundary_order", tuple(self.boundary_order))

    def darts(self) -> list[Dart]:
        return map_darts(self.internal, 3, self.leaves)

    def twin(self) -> dict:
        return twin_map(self.edges)

    def closed_map(self):
        """The map closed up along the disk boundary (see :mod:`morsify._maps`)."""
        return closed_map(self.internal, 3, self.leaves, self.boundary_order, self.twin())

    def color(self, v) -> str:
        return "b" if v in self.black else "w"


def faces(p: PlabicGraph):
    """``(internal_faces, boundary_faces)`` of the graph.

    A face is the tuple of darts of its counterclockwise boundary walk;
    boundary faces are the faces meeting the disk boundary (including the
    outer face of a leafless graph).
    """
    cm = p.closed_map()
    return split_faces(cm.faces(), cm.arc_darts, p.outer_dart)


def _face_index(internal: list, boundary: list) -> dict:
    """Map each graph dart to its (kind, index) face, kinds internal/boundary."""
    out: dict = {}
    for i, f in enumerate(internal):
        for x in f:
            out[x] = ("internal", i)
    for i, f in enumerate(boundary):
        for x in f:
            if x[0] != "~arc":
                out[x] = ("boundary", i)
    return out


def validate(p: PlabicGraph) -> list[str]:
    """Structural problems of the graph; an empty list means valid."""
    if p.internal & p.leaves:
        return ["a vertex is listed both internal and boundary"]
    if not p.black <= (p.internal | p.leaves):
        return ["color set names unknown vertices"]
    for e in p.edges:
        if len(e) != 2:
            return [f"edge {sorted(e)} does not pair two distinct darts"]
    twin = p.twin()
    darts = p.darts()
    if set(twin) != set(darts):
        missing = sorted(set(darts) ^ set(twin))
        return [f"unpaired or stray half-edge slots: {missing[:4]}"]
    if set(p.boundary_order) != set(p.leaves) or len(p.boundary_order) != len(
        p.leaves
    ):
        return ["boundary order does not enumerate the boundary vertices"]
    verts = p.internal | p.leaves
    if not verts:
        return ["graph has no vertices"]
    cm = p.closed_map()
    checked = check_map(verts, p.edges, cm)
    if checked is None:
        return ["graph is disconnected"]
    fs, euler = checked
    if euler != 2:
        return [f"map has genus > 0 (V-E+F = {euler}, expected 2)"]
    if not p.leaves and p.outer_dart is None:
        return ["leafless graph needs an outer-face dart"]
    if p.outer_dart is not None and p.outer_dart not in twin:
        return ["outer-face dart does not exist"]
    # each internal face must see another internal face across a bicolored
    # edge (when there are at least two internal faces)
    internal, _ = split_faces(fs, cm.arc_darts, p.outer_dart)
    inner_of = {x: i for i, f in enumerate(internal) for x in f}
    problems: list[str] = []
    for i, f in enumerate(internal if len(internal) >= 2 else ()):
        if not any(
            p.color(x[0]) != p.color(twin[x][0]) and inner_of.get(twin[x], i) != i
            for x in f
        ):
            problems.append(
                f"internal face {i} has no bicolored edge to another internal face"
            )
    return problems


def _invalid(problem: str) -> ValueError:
    return ValueError(f"invalid plabic graph: {problem}")


def _require_valid(p: PlabicGraph, fail=_invalid) -> None:
    """Raise ``fail(first problem)`` unless ``p`` passes :func:`validate`.
    A passing verdict is kept on the instance (the fields are frozen), so
    each graph is validated once; a failing one is never kept."""
    if "_valid" in p.__dict__:
        return
    problems = validate(p)
    if problems:
        raise fail(problems[0])
    p.__dict__["_valid"] = True


def _valid_graph(*fields) -> PlabicGraph:
    """A :class:`PlabicGraph` marked valid without a check, for the result of
    a legal move of a valid graph (see the note on the candidate generators)."""
    p = PlabicGraph(*fields)
    p.__dict__["_valid"] = True
    return p


# ---------------------------------------------------------------------------
# The quiver of a plabic graph


def quiver_of_plabic(p: PlabicGraph) -> Quiver:
    """Vertex per internal face; an arrow across every bicolored edge
    separating two distinct internal faces, oriented so the black endpoint of
    the edge lies on the right; opposite arrow pairs cancel."""
    internal, boundary = faces(p)
    fidx = _face_index(internal, boundary)
    arrows = []
    for e in sorted(p.edges, key=sorted):
        a, b = sorted(e)
        if p.color(a[0]) == p.color(b[0]):
            continue
        fa, fb = fidx[a], fidx[b]
        if fa[0] != "internal" or fb[0] != "internal" or fa == fb:
            continue
        black_side = fa if p.color(a[0]) == "b" else fb
        white_side = fb if black_side is fa else fa
        arrows.append((black_side[1], white_side[1]))
    return quiver_from_arrows(len(internal), arrows)


# ---------------------------------------------------------------------------
# Local moves


@dataclass(frozen=True)
class MoveDescriptor:
    kind: str  # flipWhite | flipBlack | square | tailAttach | tailRemove
    site: tuple


# Each candidate generator is the one statement of its moves' precondition,
# and on a valid graph the precondition decides legality: every candidate's
# result is valid, so no result is validated: each is built marked valid.
# A flip contracts and re-expands one edge between vertices of one colour,
# which keeps the genus, the connectivity and every edge's bicoloured status;
# a square move changes colours only, and each outward edge it affects
# borders a face that still has a bicoloured side on the square; a tail move
# changes only edges on a boundary face.  Each generator yields its moves
# with their builder; the tail-attach builder carries the twin map and the
# fresh vertex ids of its listing.


def _flip_candidates(p: PlabicGraph):
    """An edge joining two distinct internal vertices of one colour."""
    for e in sorted(p.edges, key=sorted):
        a, b = sorted(e)
        u, v = a[0], b[0]
        if u == v or u not in p.internal or v not in p.internal:
            continue
        if p.color(u) != p.color(v):
            continue
        kind = "flipBlack" if p.color(u) == "b" else "flipWhite"
        yield MoveDescriptor(kind, (a, b)), _apply_flip


def _apply_flip(p: PlabicGraph, m: MoveDescriptor) -> PlabicGraph:
    a, b = m.site
    u, su = a
    v, sv = b
    pu = (u, (su + 1) % 3)
    qu = (u, (su + 2) % 3)
    rv = (v, (sv + 1) % 3)
    sv2 = (v, (sv + 2) % 3)
    # Rotate the shared edge a quarter turn: the four outside edges, read
    # counterclockwise around the pair, are re-distributed between u and v.
    portmap = {a: (u, 0), b: (v, 0), pu: (u, 2), sv2: (u, 1), qu: (v, 1), rv: (v, 2)}
    new_edges = frozenset(
        frozenset(portmap.get(x, x) for x in e) for e in p.edges
    )
    # the shared edge leaves the face on either side of it, so a mark on it
    # moves on to the next dart of that face's walk
    outer = {a: rv, b: pu}.get(p.outer_dart, p.outer_dart)
    return _valid_graph(
        p.internal, p.leaves, p.black, new_edges, p.boundary_order,
        portmap.get(outer, outer),
    )


def _square_candidates(p: PlabicGraph):
    """An internal face of four distinct internal vertices of alternating
    colours, bordered by four other faces, no two adjacent ones the same."""
    internal, boundary = faces(p)
    fidx = _face_index(internal, boundary)
    twin = p.twin()
    for i, f in enumerate(internal):
        if len(f) != 4:
            continue
        vs = [x[0] for x in f]
        if len(set(vs)) != 4 or any(v not in p.internal for v in vs):
            continue
        cols = [p.color(v) for v in vs]
        if any(cols[j] == cols[(j + 1) % 4] for j in range(4)):
            continue
        sides = [fidx[twin[x]] for x in f]
        if any(sides[j] == ("internal", i) for j in range(4)):
            continue
        if any(sides[j] == sides[(j + 1) % 4] for j in range(4)):
            continue
        lo = f.index(min(f))
        yield MoveDescriptor("square", tuple(f[lo:] + f[:lo])), _apply_square


def _apply_square(p: PlabicGraph, m: MoveDescriptor) -> PlabicGraph:
    return _valid_graph(
        p.internal, p.leaves, p.black ^ {x[0] for x in m.site}, p.edges,
        p.boundary_order, p.outer_dart,
    )


def _tail_remove_candidates(p: PlabicGraph):
    """A leaf joined to an internal vertex of the other colour whose other
    two darts are not joined to each other (removing the tail would leave a
    closed curve without a vertex)."""
    twin = p.twin()
    for l in sorted(p.leaves):
        v, s = twin[(l, 0)]
        if (
            v in p.internal
            and p.color(v) != p.color(l)
            and twin[(v, (s + 1) % 3)] != (v, (s + 2) % 3)
        ):
            yield MoveDescriptor("tailRemove", (l,)), _apply_tail_remove


def _apply_tail_remove(p: PlabicGraph, m: MoveDescriptor) -> PlabicGraph:
    (l,) = m.site
    twin = p.twin()
    v, s = twin[(l, 0)]
    d1 = (v, (s + 1) % 3)
    d2 = (v, (s + 2) % 3)
    far1, far2 = twin[d1], twin[d2]
    removed = {
        frozenset({(l, 0), (v, s)}),
        frozenset({d1, far1}),
        frozenset({d2, far2}),
    }
    new_edges = (p.edges - removed) | {frozenset({far1, far2})}
    boundary = tuple(x for x in p.boundary_order if x != l)
    outer = p.outer_dart
    if not boundary:
        # the face the tail poked into becomes the marked outer face; its walk
        # goes on from d1 to a dart at far1's vertex, which is neither l nor v
        cm = p.closed_map()
        f = next(f for f in cm.faces() if not cm.arc_darts.isdisjoint(f))
        outer = next(x for x in f if x not in cm.arc_darts and x[0] not in (l, v))
    return _valid_graph(
        p.internal - {v}, p.leaves - {l}, p.black - {v, l}, new_edges,
        boundary, outer,
    )


def _tail_attach_candidates(p: PlabicGraph):
    """A dart on a boundary face, a boundary gap of that face (gap 0 when
    the graph has no leaves) and the colour of the new internal vertex."""
    cm = p.closed_map()
    _, boundary = split_faces(cm.faces(), cm.arc_darts, p.outer_dart)
    build = partial(_apply_tail_attach, twin=cm.twin, ids=_fresh_ids(p, 2))
    for f in boundary:
        gaps = sorted({x[1] for x in f if x[0] == "~arc"})
        if not p.leaves:
            gaps = [0]
        graph_darts = sorted(x for x in f if x[0] != "~arc")
        for d in graph_darts:
            for gap in gaps:
                for color in ("b", "w"):
                    yield MoveDescriptor("tailAttach", (d, gap, color)), build


def _fresh_ids(p: PlabicGraph, n: int) -> list[str]:
    used = {str(v) for v in (p.internal | p.leaves)}
    out: list[str] = []
    i = 0
    while len(out) < n:
        cand = f"x{i}"
        if cand not in used:
            out.append(cand)
            used.add(cand)
        i += 1
    return out


def _apply_tail_attach(
    p: PlabicGraph, m: MoveDescriptor, twin: dict, ids: list
) -> PlabicGraph:
    """Attach the tail of ``m``, given the twin map of ``p`` and two vertex
    ids ``p`` does not use."""
    d, gap, color = m.site
    b_ = twin[d]
    w, leaf = ids
    new_edges = p.edges.difference((frozenset({d, b_}),)).union((
        frozenset({d, (w, 0)}),
        frozenset({(w, 2), b_}),
        frozenset({(w, 1), (leaf, 0)}),
    ))
    if p.leaves:
        boundary_order = (
            p.boundary_order[: gap + 1] + (leaf,) + p.boundary_order[gap + 1 :]
        )
    else:
        boundary_order = (leaf,)
    return _valid_graph(
        p.internal | {w},
        p.leaves | {leaf},
        p.black | {w if color == "b" else leaf},
        new_edges,
        boundary_order,
    )


# (kinds, candidate generator yielding (move, builder)), in listing order
_MOVES = (
    (("flipWhite", "flipBlack"), _flip_candidates),
    (("square",), _square_candidates),
    (("tailRemove",), _tail_remove_candidates),
    (("tailAttach",), _tail_attach_candidates),
)


def _candidates(p: PlabicGraph, kinds):
    """The candidates of the given kinds (all when None), each with its
    builder; only the generators of those kinds run."""
    for names, candidates in _MOVES:
        if kinds is None or any(k in kinds for k in names):
            for m, build in candidates(p):
                if kinds is None or m.kind in kinds:
                    yield m, build


def _legal_moves(p: PlabicGraph, kinds=None):
    """``(move, result)`` for every legal move of the given kinds (all when
    None) of the valid graph ``p``, in the order of :func:`enumerate_moves`;
    each result is built when the caller reaches it."""
    for m, build in _candidates(p, kinds):
        yield m, build(p, m)


def apply_move(p: PlabicGraph, m: MoveDescriptor) -> PlabicGraph:
    """The graph after ``m``, which must be a move :func:`enumerate_moves`
    lists (a flip names an edge, so its two darts may come in either order);
    raises ``IllegalMove`` otherwise, and ``ValueError`` when ``p`` fails
    :func:`validate`."""
    _require_valid(p)
    flip = m.kind in ("flipWhite", "flipBlack")
    for c, build in _candidates(p, (m.kind,)):
        if c.site == m.site or (flip and c.site[::-1] == m.site):
            return build(p, c)
    raise IllegalMove(f"no legal {m.kind} move at {m.site}")


def enumerate_moves(p: PlabicGraph, kinds=None) -> list[MoveDescriptor]:
    """All legal moves (whose result is a valid plabic graph), of the given
    kinds when ``kinds`` is not None; raises ``ValueError`` when ``p`` fails
    :func:`validate`."""
    _require_valid(p)
    return [m for m, _ in _candidates(p, kinds)]


# ---------------------------------------------------------------------------
# Canonical codes and move equivalence


# Dart tags of the canonical code: 1 at a black vertex, 2 at a white one,
# 0 at a leaf whose colour is erased, plus 3 on the marked outer face of a
# leafless graph, and 6 on a boundary arc; _SWAPPED[t] is the tag t after the
# global colour swap.
_SWAPPED = (0, 2, 1, 3, 5, 4, 6)


def canonical_code(p: PlabicGraph, strict_boundary_colors: bool = False) -> tuple:
    """A relabeling-invariant code of the embedded colored graph: two
    connected graphs get equal codes exactly when they are isomorphic as
    embedded graphs up to a global colour swap, boundary-vertex colours
    erased unless ``strict_boundary_colors``.

    The darts of the closed map are numbered once.  Read from a start dart
    under one colouring, the code lists the darts in breadth-first order
    along rotation and twin, each as one int packing the positions of its
    rotation successor and its twin and its tag.  It is the least such code
    over one class of (start dart, colouring) pairs with equal local
    signature (the tags of the dart, its twin, its successor and the
    successor's twin): the smallest class, and of those the one of least
    signature.  A colour swap or relabelling maps that class onto itself.
    A start's code is compared with the best so far only while the two are
    tied, one new row at a time, and dropped at its first larger row.

    Codes are only compared, never stored: their values are not those of
    earlier versions of this function.
    """
    ni = 3 * len(p.internal)
    darts = [(v, s) for v in p.internal for s in range(3)]
    darts += [(v, 0) for v in p.leaves]
    num = {d: i for i, d in enumerate(darts)}
    ng = len(darts)
    m = len(p.boundary_order)
    n = ng + 2 * m
    rn = [i + 1 if i % 3 != 2 else i - 2 for i in range(ni)] + [0] * (n - ni)
    tw = [0] * n
    for e in p.edges:
        a, b = e
        tw[num[a]], tw[num[b]] = num[b], num[a]
    for j, v in enumerate(p.boundary_order):
        a0, prev = ng + 2 * j, ng + 2 * ((j - 1) % m) + 1
        tw[a0], tw[a0 + 1] = a0 + 1, a0
        leaf = num[(v, 0)]
        rn[a0], rn[leaf], rn[prev] = leaf, prev, a0
    black = p.black
    tag = [1 if d[0] in black else 2 for d in darts[:ni]]
    if strict_boundary_colors:
        tag += [1 if d[0] in black else 2 for d in darts[ni:]]
    else:
        tag += [0] * (ng - ni)
    tag += [6] * (2 * m)
    if not p.leaves and p.outer_dart is not None:
        d = o = num[p.outer_dart]
        while True:
            tag[d] += 3
            d = rn[tw[d]]
            if d == o:
                break
    tags = (tag, [_SWAPPED[t] for t in tag])

    classes: dict = {}
    for t in tags:
        for d in range(ng):
            r = rn[d]
            sig = ((t[d] * 7 + t[tw[d]]) * 7 + t[r]) * 7 + t[tw[r]]
            classes.setdefault(sig, []).append((d, t))
    _, starts = min(classes.items(), key=lambda c: (len(c[1]), c[0]))

    best: list = []
    for start, t in starts:
        idx = [-1] * n
        idx[start] = 0
        order = [start]
        code = []
        tied = bool(best)
        for d in order:  # order grows while it is read
            a, b = rn[d], tw[d]
            if idx[a] < 0:
                idx[a] = len(order)
                order.append(a)
            if idx[b] < 0:
                idx[b] = len(order)
                order.append(b)
            row = (idx[a] * n + idx[b]) * 7 + t[d]
            if tied:
                old = best[len(code)]
                if row > old:
                    break
                tied = row == old
            code.append(row)
        else:
            if not tied:
                best = code
    return tuple(best)


def _balance_parity(p: PlabicGraph) -> int:
    ib = sum(1 for v in p.internal if v in p.black)
    iw = len(p.internal) - ib
    return (ib - iw + len(p.leaves)) % 2


def move_equivalent(
    p1: PlabicGraph,
    p2: PlabicGraph,
    budget: Budget = Budget(),
    size_slack: int = 2,
) -> Verdict:
    """Search for a move sequence taking ``p1`` to (the embedded isomorphism
    class of) ``p2``.

    The orbit is infinite (tails can always be attached), so the search caps
    the graph size at the larger input plus ``size_slack``; exhaustion under
    the cap yields ``Unknown``, not a proof of distinctness.  Raises
    ``ValueError`` when either graph fails :func:`validate`.
    """
    _require_valid(p1)
    _require_valid(p2)
    par1, par2 = _balance_parity(p1), _balance_parity(p2)
    if par1 != par2:
        return DistinctByInvariant(
            f"black/white balance parity differs: {par1} != {par2}"
        )
    q1, q2 = quiver_of_plabic(p1), quiver_of_plabic(p2)
    i1, i2 = quick_invariants(q1), quick_invariants(q2)
    if i1 != i2:
        return DistinctByInvariant(
            f"quiver mutation invariants differ: {i1} != {i2}"
        )
    cap_i = max(len(p1.internal), len(p2.internal)) + size_slack
    cap_l = max(len(p1.leaves), len(p2.leaves)) + size_slack

    def neighbours(p):
        for m, np in _legal_moves(p):
            if len(np.internal) <= cap_i and len(np.leaves) <= cap_l:
                yield m, np

    front = Frontier(p1, canonical_code, neighbours)
    goal = canonical_code(p2)
    if goal in front.seen:
        return Equivalent(())
    clock = budget.start()
    while front:
        for key, path, new in front.step():
            # one state per move looked up within the size cap, before
            # deduplication
            if not clock.tick():
                return Unknown("search budget exhausted")
            if new and key == goal:
                return Equivalent(path)
    return Unknown(
        f"orbit exhausted under size cap (+{size_slack}); "
        "equivalence through larger graphs not ruled out"
    )


# ---------------------------------------------------------------------------
# Plabic fences


# one shared tuple per valid letter, so that long words cost one reference
# per letter; only validated letters of exact types str and int go in, so the
# table stays small and an equal letter of another type keeps its own value
_LETTERS: dict = {}


@dataclass(frozen=True, slots=True)
class FenceWord:
    k: int
    letters: tuple  # of ("s" | "t", index)

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("fence word needs k >= 1")
        letters = []
        for letter in self.letters:
            letter = tuple(letter)
            kind, i = letter
            if kind not in ("s", "t"):
                raise ValueError(f"unknown connector kind {kind!r}")
            if not 1 <= i <= self.k - 1:
                raise ValueError(f"connector index {i} out of range")
            if type(kind) is str and type(i) is int:
                letter = _LETTERS.setdefault(letter, letter)
            letters.append(letter)
        object.__setattr__(self, "letters", tuple(letters))


def parse_fence_word(text: str) -> FenceWord:
    k = None
    letters = []
    # letters may follow the strand count on the ``k`` line, so the lines
    # are token lists rather than directives
    for ln, raw in enumerate(text.splitlines(), start=1):
        toks = raw.split("#", 1)[0].split()
        if toks[:1] == ["k"]:
            if len(toks) < 2:
                raise line_error("k takes a strand count", ln)
            k = int(toks[1])
            toks = toks[2:]
        for t in toks:
            if t[0] not in ("s", "t") or not t[1:].isdigit():
                raise line_error(f"malformed connector token {t!r}", ln)
            letters.append((t[0], int(t[1:])))
    if k is None:
        raise ValueError("missing strand count 'k <int>'")
    return FenceWord(k, tuple(letters))


def format_fence_word(w: FenceWord) -> str:
    toks = [f"{kind}{i}" for kind, i in w.letters]
    return f"k {w.k}\n" + " ".join(toks) + "\n"


def fence_of_word(w: FenceWord) -> PlabicGraph:
    """The plabic fence of a word: ``k`` horizontal strands with one vertical
    bicolored connector per letter (sigma: black at the bottom; tau: black at
    the top); left strand ends are white leaves, right ends black leaves.

    Connector vertices on a strand use slots (0=east, 1=up, 2=west) when the
    connector leaves upward and (0=east, 1=west, 2=down) when downward.
    """
    if not w.letters:
        raise DisconnectedFence("the empty fence word leaves the strands apart")
    strands: dict = {lvl: [] for lvl in range(1, w.k + 1)}
    internal: set = set()
    black: set = set()
    edges: list = []
    for j, (kind, i) in enumerate(w.letters):
        bot = f"c{j}.b"
        top = f"c{j}.t"
        internal.update([bot, top])
        if kind == "s":
            black.add(bot)
        else:
            black.add(top)
        edges.append(frozenset({(bot, 1), (top, 2)}))
        strands[i].append(((bot, 2), (bot, 0)))  # (west dart, east dart)
        strands[i + 1].append(((top, 1), (top, 0)))
    leaves: set = set()
    border_r, border_l = [], []
    for lvl in range(1, w.k + 1):
        lw, rw = f"eL{lvl}", f"eR{lvl}"
        leaves.update([lw, rw])
        black.add(rw)
        chain = [((lw, 0), (lw, 0))] + strands[lvl] + [((rw, 0), (rw, 0))]
        for (_, east), (west, _) in zip(chain, chain[1:]):
            edges.append(frozenset({east, west}))
        border_r.append(rw)
        border_l.append(lw)
    boundary = tuple(border_r) + tuple(reversed(border_l))
    p = PlabicGraph(
        frozenset(internal), frozenset(leaves), frozenset(black),
        frozenset(edges), boundary,
    )
    _require_valid(p, DisconnectedFence)
    return p


def word_of_fence(p: PlabicGraph) -> FenceWord:
    """Invert the fence constructors (graphs with their connector naming)."""
    left = sorted(
        (v for v in p.leaves if str(v).startswith("eL")),
        key=lambda v: int(str(v)[2:]),
    )
    k = len(left)
    if not left or len(p.leaves) != 2 * k:
        raise ValueError("not a fence built by the fence constructors")
    twin = p.twin()
    info: dict = {}  # connector position j -> (strand of bottom vertex)
    for lvl, lw in enumerate(left, start=1):
        cur = twin[(lw, 0)]
        while cur[0] not in p.leaves:
            v, s = cur
            name = str(v)
            if not name.startswith("c") or "." not in name:
                raise ValueError("not a fence built by the fence constructors")
            j, role = name[1:].split(".")
            if role == "b":
                if s != 2:
                    raise ValueError("strand enters a connector off-axis")
                info[int(j)] = lvl
            elif s != 1:
                raise ValueError("strand enters a connector off-axis")
            cur = twin[(v, 0)]
    letters = []
    for j in sorted(info):
        kind = "s" if f"c{j}.b" in p.black else "t"
        letters.append((kind, info[j]))
    return FenceWord(k, tuple(letters))


def fence_word_of_divide(s: ScannableDivide) -> FenceWord:
    """One sigma connector per U-turn; a sigma/tau pair per crossing."""
    letters = [("s", i) for i in sorted(s.left_turns)]
    for a in s.events:
        letters.append(("s", a))
        letters.append(("t", a))
    letters.extend(("s", i) for i in sorted(s.right_turns))
    return FenceWord(s.k, tuple(letters))


def fence_of_divide(s: ScannableDivide) -> PlabicGraph:
    return fence_of_word(fence_word_of_divide(s))


# ---------------------------------------------------------------------------
# Attaching a plabic graph to a divide


def attach_plabic(d: PlanarDivide, tails=None) -> PlabicGraph:
    """Replace every node by an alternating-color square of four trivalent
    vertices, black at the corners facing a ``'-'`` face of
    :func:`~morsify.divide.face_signs`; divide strands become edges,
    endpoints become boundary leaves (white unless recolored through
    ``tails``)."""
    if d.bare_circles:
        raise ValueError("cannot attach a graph to a vertex-free closed curve")
    tails = dict(tails or {})
    sign = face_signs(d)
    internal: set = set()
    black: set = set()
    edges: list = []
    for n in sorted(d.nodes):
        corners = [f"{n}.{s}" for s in range(4)]
        internal.update(corners)
        for s in range(4):
            # the corner at slot s borders, counterclockwise, the face swept
            # from slot s to slot s+1, which is the face of the dart (n, s+1)
            if sign[(n, (s + 1) % 4)] == "-":
                black.add(corners[s])
            edges.append(
                frozenset({(corners[s], 1), (corners[(s + 1) % 4], 2)})
            )
    for e in sorted(d.edges, key=sorted):
        pair = []
        for v, s in sorted(e):
            if v in d.nodes:
                pair.append((f"{v}.{s}", 0))
            else:
                pair.append((v, 0))
        edges.append(frozenset(pair))
    leaves = frozenset(d.endpoints)
    for v in leaves:
        if tails.get(v, "w") == "b":
            black.add(v)
    outer = None
    if d.outer_dart is not None:
        n, s = d.outer_dart
        outer = (f"{n}.{s}", 0)
    return PlabicGraph(
        frozenset(internal), leaves, frozenset(black), frozenset(edges),
        d.boundary_order, outer,
    )


# ---------------------------------------------------------------------------
# Admissible orientations


@dataclass(frozen=True)
class Orientation:
    """One head dart per edge: the edge points toward the head's vertex."""

    heads: frozenset

    def points_at(self, dart: Dart) -> bool:
        return dart in self.heads


def _in_degree(p: PlabicGraph, v) -> int:
    """Heads at ``v`` in an admissible orientation: black vertices are
    2-in/1-out and white ones 1-in/2-out; a black leaf is 1-in, a white one
    1-out."""
    return (v in p.black) + (v in p.internal)


def _is_admissible(p: PlabicGraph, heads) -> bool:
    """Whether ``heads`` is the admissible orientation of ``p`` (see
    :func:`_check_heads`).  That orientation is unique, so the heads accepted
    for a graph are kept on the instance and later calls compare with them."""
    known = p.__dict__.get("_heads")
    if known is not None:
        return heads == known
    if not _check_heads(p, heads):
        return False
    p.__dict__["_heads"] = frozenset(heads)
    return True


def _check_heads(p: PlabicGraph, heads) -> bool:
    """Whether ``heads`` is an admissible orientation of ``p``: exactly one
    head per edge, the degree rule at every vertex, one source and one sink
    corner per internal face, and no directed cycle.  Nothing is kept."""
    if len(heads) != len(p.edges) or any(len(e & heads) != 1 for e in p.edges):
        return False
    verts = p.internal | p.leaves
    indeg = dict.fromkeys(verts, 0)
    for h in heads:
        indeg[h[0]] += 1
    if any(indeg[v] != _in_degree(p, v) for v in verts):
        return False
    twin = p.twin()
    internal, _ = faces(p)
    for f in internal:
        # the corner between consecutive darts d, e of the face is a source
        # when both its edges point away from it, a sink when both point in
        corners = [(d in heads, twin[e] in heads) for d, e in zip(f, f[1:] + f[:1])]
        if corners.count((True, True)) != 1 or corners.count((False, False)) != 1:
            return False
    # Kahn's algorithm: every vertex is peeled off exactly when no cycle exists
    succ: dict = {v: [] for v in verts}
    for h in heads:
        succ[twin[h][0]].append(h[0])
    ready = [v for v in verts if not indeg[v]]
    peeled = 0
    while ready:
        v = ready.pop()
        peeled += 1
        for w in succ[v]:
            indeg[w] -= 1
            if not indeg[w]:
                ready.append(w)
    return peeled == len(verts)


def admissible_orientation(p: PlabicGraph) -> Optional[Orientation]:
    """The unique admissible edge orientation: black vertices 2-in/1-out,
    white vertices 1-in/2-out (univalent: black 1-in, white 1-out), exactly
    one source and one sink corner per internal face, no directed cycle; None
    if it does not exist.  Raises ``ValueError`` on an invalid graph."""
    _require_valid(p)
    return _solve_orientation(p)


def _solve_orientation(p: PlabicGraph) -> Optional[Orientation]:
    """:func:`admissible_orientation` of a graph already validated, in
    linear time.

    The degree rule forces edges from a worklist of vertices: a vertex whose
    in-count is full sends its undecided edges out, one whose out-count is
    full takes them in, and each decided edge wakes the vertex at its other
    end.  The leaves start it, each having one edge and a full count.

    No search is needed.  If the forcing stops with an edge undecided, each
    vertex at an undecided edge still needs an incoming edge among the
    undecided ones (a black vertex has decided no outgoing edge and at most
    one incoming, a white one no incoming), so every completion that obeys
    the degree rule has a directed cycle among them.  The forcing sees only
    the degree rule; the finished assignment is checked by
    :func:`_is_admissible`."""
    if len(p.black) * 2 != len(p.internal | p.leaves):
        return None  # unbalanced graphs never admit one
    twin = p.twin()
    caps = {}
    at: dict = {}  # vertex -> [(edge, dart of the edge at the vertex)]
    for v in p.internal | p.leaves:
        deg = 3 if v in p.internal else 1
        caps[v] = (_in_degree(p, v), deg - _in_degree(p, v))  # (in, out)
        at[v] = []
    for e in p.edges:
        for x in e:
            at[x[0]].append((e, x))

    heads: dict = {}  # edge -> head dart
    counts = {v: [0, 0] for v in caps}  # decided (in, out)
    work = list(caps)
    while work:
        v = work.pop()
        cin, cout = counts[v]
        if cin == caps[v][0]:
            outward = True
        elif cout == caps[v][1]:
            outward = False
        else:
            continue
        for e, x in at[v]:
            if e in heads:
                continue
            h = twin[x] if outward else x
            heads[e] = h
            hv, tv = h[0], twin[h][0]
            counts[hv][0] += 1
            counts[tv][1] += 1
            if counts[hv][0] > caps[hv][0] or counts[tv][1] > caps[tv][1]:
                return None
            work.append(twin[x][0])
    if len(heads) < len(p.edges):
        return None
    hs = frozenset(heads.values())
    return Orientation(hs) if _is_admissible(p, hs) else None


def transport_orientation(
    p: PlabicGraph, o: Orientation, m: MoveDescriptor
) -> Orientation:
    """The admissible orientation of ``apply_move(p, m)``.

    Uniqueness of admissible orientations makes recomputation on the moved
    graph the transported orientation.  Raises ``ValueError`` when ``p`` is
    invalid or ``o`` is not its admissible orientation."""
    _require_valid(p)
    if not _is_admissible(p, o.heads):
        raise ValueError("the given orientation is not admissible for p")
    # every move enumerate_moves lists takes a valid graph to a valid one
    out = _solve_orientation(apply_move(p, m))
    if out is None:
        raise IllegalMove("the move does not preserve orientability")
    return out


# ---------------------------------------------------------------------------
# The link of an oriented plabic graph


def link_of_oriented_plabic(p: PlabicGraph, o: Orientation):
    """Double every edge into two one-way lanes (driving on the right: the
    lane on the counterclockwise side of a dart runs toward its vertex), turn
    left through white vertices, turn right through black ones -- the three
    lanes through a black vertex cross pairwise -- and cap the boundary
    vertices.  Returns the resulting link diagram."""
    from .link import LinkDiagram

    _require_valid(p)
    if not _is_admissible(p, o.heads):
        raise ValueError("the orientation is not admissible for this graph")
    twin = p.twin()

    lanes = UnionFind()

    def lane_in(h):  # lane arriving at h's vertex along h
        return ("lane", h)

    def lane_out(h):  # lane leaving h's vertex along h
        return ("lane", twin[h])

    crossings: list = []
    rot = {v: [(v, s) for s in range(3)] for v in p.internal}
    for v in sorted(p.internal | p.leaves):
        if v in p.leaves:
            lanes.union(lane_in((v, 0)), lane_out((v, 0)))
            continue
        ds = rot[v]
        if p.color(v) == "w":
            # left turns, no crossings
            for i, h in enumerate(ds):
                lanes.union(lane_in(h), lane_out(ds[(i + 1) % 3]))
            continue
        # black: right turns; the unique outgoing edge starts the cyclic order
        oi = next(i for i, h in enumerate(ds) if o.points_at(twin[h]))
        od, pd, qd = ds[oi], ds[(oi + 1) % 3], ds[(oi + 2) % 3]
        A0, A2 = lane_in(qd), lane_out(pd)
        B0, B2 = lane_in(pd), lane_out(od)
        C0, C2 = lane_in(od), lane_out(qd)
        A1, B1, C1 = ("mid", v, "A"), ("mid", v, "B"), ("mid", v, "C")
        crossings.append(((A0, B2, A1, B1), +1))
        crossings.append(((C0, A2, C1, A1), +1))
        crossings.append(((C1, B0, C2, B1), -1))
    # canonicalize arc labels through the lane gluings
    used = sorted({x for arcs, _ in crossings for x in arcs})
    relabel: dict = {}
    for x in used:
        r = lanes.find(x)
        if r not in relabel:
            relabel[r] = len(relabel)
    out_crossings = [
        (tuple(relabel[lanes.find(x)] for x in arcs), sign) for arcs, sign in crossings
    ]
    # crossing-free strands closed through caps and white turns
    all_lanes = {lane_in(h) for h in twin}
    roots_in_crossings = {lanes.find(x) for arcs, _ in crossings for x in arcs}
    free = {lanes.find(x) for x in all_lanes} - roots_in_crossings
    return LinkDiagram(tuple(out_crossings), free_loops=len(free))


# ---------------------------------------------------------------------------
# The triangle push expressed as flips and squares

def divide_of_attached(p: PlabicGraph) -> PlanarDivide:
    """Invert ``attach_plabic`` (graphs with the square-gadget naming)."""
    nodes: set = set()
    for v in p.internal:
        name = str(v)
        if "." not in name or not name.rsplit(".", 1)[1].isdigit():
            raise SiteNotFound(f"vertex {v!r} is not a gadget corner")
        n, s = name.rsplit(".", 1)
        nodes.add(n)
    twin = p.twin()
    edges = []
    for e in p.edges:
        darts = []
        skip = False
        for v, s in sorted(e):
            name = str(v)
            if v in p.leaves:
                darts.append((v, 0))
            elif s == 0:
                n, cs = name.rsplit(".", 1)
                darts.append((n, int(cs)))
            else:
                skip = True  # a square-side edge inside a gadget
        if skip:
            continue
        if len(darts) != 2:
            raise SiteNotFound("edge structure does not match the gadget form")
        edges.append(frozenset(darts))
    outer = None
    if p.outer_dart is not None:
        v, s = p.outer_dart
        if s != 0:
            raise SiteNotFound("outer dart is not a gadget strand dart")
        n, cs = str(v).rsplit(".", 1)
        outer = (n, int(cs))
    d = PlanarDivide(
        frozenset(nodes), frozenset(p.leaves), frozenset(edges),
        p.boundary_order, 0, outer,
    )
    report = divide_validate(d)
    if not report.ok:
        raise SiteNotFound(
            f"edge structure does not match the gadget form: {report.violations[0]}"
        )
    return d


# The triangle push as flips and squares at the triangle's three gadgets,
# one recorded move sequence per template.  The code "rks" is slot s of the
# corner n.((t + k) % 4), where (n, t) is dart r of the triangle's face walk.
# "f" flips the edge of its two darts, in the colour the two corners have when
# it is replayed, so a template serves both colourings of the gadgets; "s" is
# the square move at the face of its four darts.  The first template was
# recorded at site 3 of scannable(3, (), (1, 2, 1, 2), ()), the second at the
# triangle of a divide with no node outside it.
_PUSH_TEMPLATES = (
    "s 022 012 002 032, f 030 200, f 000 130, s 032 132 100 231, f 221 232, "
    "f 101 112, s 031 222 212 200, f 021 201, f 032 131, s 022 012 000 032, "
    "f 001 121, s 031 122 102 130, f 021 032, f 221 131, s 032 222 212 200",
    "s 002 032 022 012, f 000 130, f 030 200, s 032 132 100 231, f 221 232, "
    "f 101 112, s 001 122 102 130, f 002 012, s 031 222 212 200, f 021 201, "
    "s 002 131 030 022, f 031 221, f 132 102, s 032 102 111 230",
)


def _pushed_gadget_graph(p: PlabicGraph, site: SiteDescriptor) -> PlabicGraph:
    """The gadget graph, with the tail colours of ``p``, of the divide of
    ``p`` with the triangle at ``site`` pushed.  ``p`` must be the gadget
    graph of its divide up to :func:`canonical_code` (strict), which does not
    see a global colour swap."""
    d = divide_of_attached(p)
    if site not in yb_sites(d):
        raise SiteNotFound("the graph has no triangle gadget at this site")
    tails = {v: p.color(v) for v in p.leaves}
    if canonical_code(p, strict_boundary_colors=True) != canonical_code(
        attach_plabic(d, tails), strict_boundary_colors=True
    ):
        raise SiteNotFound("the graph is not a square-gadget attachment")
    return attach_plabic(apply_yb(d, site), tails)


def yb_as_moves(p: PlabicGraph, site: SiteDescriptor) -> list[MoveDescriptor]:
    """A flip/square move sequence carrying ``p`` (a square-gadget graph of a
    divide with a triangular region) to :func:`_pushed_gadget_graph`: the
    first stored template whose replay, each move through
    :func:`apply_move`, reaches it up to :func:`canonical_code` (strict).
    The pushed divide does not depend on ``site.side``, so neither does the
    answer.  Raises :class:`SiteNotFound` when no template reaches it."""
    goal = canonical_code(_pushed_gadget_graph(p, site), strict_boundary_colors=True)
    if canonical_code(p, strict_boundary_colors=True) == goal:
        return []
    corner = {
        f"{r}{k}": f"{n}.{(t + k) % 4}"
        for r, (n, t) in enumerate(site.darts)
        for k in range(4)
    }
    for template in _PUSH_TEMPLATES:
        g, moves = p, []
        try:
            for move in template.split(", "):
                kind, *codes = move.split()
                darts = [(corner[c[:2]], int(c[2])) for c in codes]
                if kind == "f":
                    kind = "flipBlack" if g.color(darts[0][0]) == "b" else "flipWhite"
                else:  # a square move's site starts at its least dart
                    kind, lo = "square", darts.index(min(darts))
                    darts = darts[lo:] + darts[:lo]
                moves.append(MoveDescriptor(kind, tuple(darts)))
                g = apply_move(g, moves[-1])
        except IllegalMove:
            continue
        if canonical_code(g, strict_boundary_colors=True) == goal:
            return moves
    raise SiteNotFound(
        "no stored flip/square sequence carries the graph to the pushed gadget graph"
    )


# ---------------------------------------------------------------------------
# .plb parsing / printing


_PLB_USAGE = {
    "v": (3, 3, "v takes <id> <b|w> <i|d>"),
    "edge": (2, 2, "edge takes two darts"),
    "rot": (4, 4, "rot takes an internal id and 3 slots"),
    "boundary": (0, None, ""),
    "outer": (1, 1, "outer takes one dart"),
}


def parse_plabic(text: str) -> PlabicGraph:
    internal: set = set()
    leaves: set = set()
    black: set = set()
    edges: list = []
    boundary: tuple = ()
    outer: Optional[Dart] = None
    rots: dict = {}
    used: set = set()
    kinds = ((internal, 3, "internal"), (leaves, 1, "boundary"))

    for kw, args, fail in read_directives(text, _PLB_USAGE):
        if kw == "v":
            if args[1] not in ("b", "w") or args[2] not in ("i", "d"):
                raise fail(_PLB_USAGE["v"][2])
            (internal if args[2] == "i" else leaves).add(args[0])
            if args[1] == "b":
                black.add(args[0])
        elif kw == "edge":
            a, b = (parse_dart(tok, kinds, fail) for tok in args)
            for x in (a, b):
                if x in used:
                    raise fail(f"slot {x[0]}.{x[1]} used twice")
                used.add(x)
            edges.append(frozenset({a, b}))
        elif kw == "rot":
            if args[0] not in internal:
                raise fail(_PLB_USAGE["rot"][2])
            rots[args[0]] = tuple(int(x) for x in args[1:])
        elif kw == "boundary":
            boundary = tuple(args)
            for v in boundary:
                if v not in leaves:
                    raise fail(f"boundary lists unknown vertex {v!r}")
        else:  # outer
            outer = parse_dart(args[0], kinds, fail)
    # reorder slots for vertices with an explicit rotation line
    remap: dict = {}
    for v, order in rots.items():
        if sorted(order) != [0, 1, 2]:
            raise ValueError(f"rot for {v!r} must be a permutation of 0 1 2")
        for new, old in enumerate(order):
            remap[(v, old)] = (v, new)
    if remap:
        edges = [frozenset({remap.get(x, x) for x in e}) for e in edges]
        if outer is not None:
            outer = remap.get(outer, outer)
    return PlabicGraph(
        frozenset(internal), frozenset(leaves), frozenset(black),
        frozenset(edges), boundary, outer,
    )


def format_plabic(p: PlabicGraph) -> str:
    lines = []
    for v in sorted(p.internal):
        lines.append(f"v {v} {p.color(v)} i")
    for v in sorted(p.leaves):
        lines.append(f"v {v} {p.color(v)} d")
    for v in sorted(p.internal):
        lines.append(f"rot {v} 0 1 2")
    lines += format_map(p.edges, p.boundary_order, p.outer_dart)
    return "\n".join(lines) + "\n"
