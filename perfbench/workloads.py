"""The four workloads: seeded inputs, the calls into each layer, the checks.

Every call into ``morsify`` goes through ``T.call(label, fn, ...)`` so that
the traced run can attribute time to the layer named by the label's prefix.
Each workload draws the inputs of round ``r`` from ``(name, seed, r)`` alone,
so the same seed gives the same inputs; the library only sees those inputs.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
from dataclasses import dataclass, field

from harness import CheckFailed, Item
from morsify import (
    Budget,
    DistinctByInvariant,
    Equivalent,
    FenceWord,
    Quiver,
    admissible_orientation,
    alexander,
    apply_move,
    beta_of_fence_word,
    beta_of_scannable,
    canonical_code,
    cell_count,
    closure,
    enumerate_moves,
    fence_of_divide,
    fence_of_word,
    fingerprint,
    format_poly,
    format_scannable,
    is_isomorphic,
    jones,
    klein_act,
    link_of_oriented_plabic,
    lissajous,
    move_equivalent,
    mutate_seq,
    mutation_equivalent,
    overlay,
    parse_link_diagram,
    parse_plabic,
    positive_equal,
    quiver_of_divide,
    quiver_of_plabic,
    scannable,
    scannable_to_planar,
    solid_torus_isotopic,
    transport_orientation,
)
from morsify.accept import FOUR_FORMS, PUSH_AFTER, PUSH_BEFORE, QUASIHOMOGENEOUS_TABLE
from morsify.braid import (
    PositiveBraidWord,
    apply_conjugation,
    conjugation_neighbors,
    cycle_count,
    cycle_type,
    underlying_permutation,
)
from morsify.cli import main as cli_main
from morsify.link import LaurentPoly, component_count
from morsify.plabic import DisconnectedFence, IllegalMove, faces
from morsify.quiver import mutate

# Searches stop on states only: the seconds cap is far above any run, so a
# verdict never depends on the speed of the machine.
SECONDS_CAP = 3600.0
JONES_CAP = 24  # the library's default Kauffman-bracket crossing cap

E6_DIVIDE = scannable(3, (2,), (1, 2, 1), (2,))
E6_ALEXANDER = LaurentPoly(((0, 1), (1, -1), (3, 1), (5, -1), (6, 1)))
# The transversal-cusp pair (acceptance check P3) and the two 4-strand
# full-twist divides of x^4 + y^8 (check P5).
P3_PAIR = (
    scannable(4, (1, 3), (2, 1, 3, 2, 1, 3), ()),
    scannable(4, (1, 3), (2, 1, 3, 1, 2), (1, 3)),
)
P5_PAIR = (
    scannable(4, (), (1, 3, 2, 1, 3, 2, 2, 1, 3, 2, 1, 3), ()),
    scannable(4, (1, 3), (2, 1, 3, 2, 1, 3, 2, 1, 3, 2), (1, 3)),
)
P5_AB = (4, 8)
# (a, b) of the two Lissajous divides of each overlay shape on 4 and on 5
# strands
OVERLAY_SHAPES_4 = tuple(((a1, 2), (a2, 2)) for a1 in range(2, 5) for a2 in range(2, 5))
OVERLAY_SHAPES_5 = tuple(
    ((a1, b1), (a2, b2))
    for b1, b2 in ((2, 3), (3, 2))
    for a1 in range(b1, 5)
    for a2 in range(b2, 5)
)


@dataclass(frozen=True)
class CountingBudget(Budget):
    """A state-capped budget that keeps every clock a search starts, so the
    states explored can be read after the search returns."""

    clocks: list = field(default_factory=list, compare=False, hash=False, repr=False)

    def start(self):
        clock = super().start()
        self.clocks.append(clock)
        return clock

    @property
    def states(self) -> int:
        return sum(c.states for c in self.clocks)


def budget(states: int) -> CountingBudget:
    return CountingBudget(max_states=states, max_seconds=SECONDS_CAP)


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def round_rng(name: str, seed: int, r: int) -> random.Random:
    return random.Random(f"{name}:{seed}:{r}")


# ---------------------------------------------------------------------------
# Input generators (pure data; validity is checked with the library's own
# constructors, the way acceptance check P7 draws its fences)


def _turns(rng: random.Random, k: int) -> set:
    out: set = set()
    for i in range(1, k):
        if i - 1 not in out and rng.random() < 0.35:
            out.add(i)
    return out


def random_divide(rng: random.Random, k: int, letters: int):
    """A scannable divide on ``k`` strands whose fence word has ``letters``
    letters (one per U-turn, two per crossing)."""
    while True:
        left, right = _turns(rng, k), _turns(rng, k)
        rest = letters - len(left) - len(right)
        if rest < 2 or rest % 2:
            continue
        events = [rng.randint(1, k - 1) for _ in range(rest // 2)]
        if not set(range(1, k)) <= left | right | set(events):
            continue
        s = scannable(k, left, events, right)
        try:
            fence_of_divide(s)
        except DisconnectedFence:
            continue
        return s


def random_fence_word(rng: random.Random, k: int, letters: int) -> FenceWord:
    while True:
        w = FenceWord(
            k, tuple((rng.choice("st"), rng.randint(1, k - 1)) for _ in range(letters))
        )
        try:
            fence_of_word(w)
        except DisconnectedFence:
            continue
        return w


def random_braid(rng: random.Random, k: int, length: int) -> PositiveBraidWord:
    while True:
        letters = tuple(rng.randint(1, k - 1) for _ in range(length))
        if set(letters) == set(range(1, k)):
            return PositiveBraidWord(k, letters)


# ---------------------------------------------------------------------------
# Checks shared by several workloads


def fence_orientation(p) -> frozenset:
    """The closed-form admissible orientation of a fence (acceptance check
    P7): strand edges run left to right, connectors white to black."""

    def pos(v) -> float:
        name = str(v)
        if name.startswith("eL"):
            return float("-inf")
        if name.startswith("eR"):
            return float("inf")
        return float(name[1:].split(".")[0])

    heads = set()
    for e in p.edges:
        a, b = sorted(e)
        if pos(a[0]) == pos(b[0]):
            heads.add(a if a[0] in p.black else b)
        else:
            heads.add(a if pos(a[0]) > pos(b[0]) else b)
    return frozenset(heads)


def pd_components(diagram) -> int:
    """Components of a PD code by the benchmark's own union-find: the
    strand through a crossing joins arcs 0-2 and 1-3."""
    parent: dict = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (a, b, c, d), _ in diagram.crossings:
        parent[find(a)] = find(c)
        parent[find(b)] = find(d)
    return len({find(x) for arcs, _ in diagram.crossings for x in arcs}) + diagram.free_loops


def closure_components(beta) -> int:
    """Components of a braid closure: the cycles of its permutation."""
    return cycle_count(underlying_permutation(beta))


def check_cells(T, s, a: int, b: int):
    """The planar divide of ``s``, after checking its cell count."""
    planar = T.call("divide.scannable_to_planar", scannable_to_planar, s)
    total = T.call("divide.cell_count", cell_count, planar).total
    check(total == (a - 1) * (b - 1), f"cell count {total} != ({a}-1)({b}-1)")
    return planar


def record_search(counts, layer: str, verdict, states: int) -> None:
    counts[layer + ".search_states"] += states
    counts["searched"] += 1
    if isinstance(verdict, (Equivalent, DistinctByInvariant)):
        counts["decided"] += 1


# ---------------------------------------------------------------------------
# fence_links


class FenceLinks:
    """Divide or fence word -> braid, fence, orientation, plabic link, and
    the link invariants along both routes; one item in ten goes through the
    command line instead."""

    name = "fence_links"

    def __init__(self, tiny: bool, workdir: str):
        self.sizes = (4, 6, 8) if tiny else (8, 11, 14)
        self.workdir = workdir

    # (kind, size index, strands).  The middle and the largest size are all
    # on 3 strands, so that the median item and the eleventh-largest fall
    # inside a block of items of one cost class, not on the border between
    # two; 2 and 4 strands ride along at the smallest size.
    PLAN = (("word", 0, 2), ("cli", 0, 4),
            ("word", 1, 3), ("divide", 1, 3), ("word", 1, 3), ("divide", 1, 3),
            ("word", 1, 3),
            ("divide", 2, 3), ("word", 2, 3))

    def make_round(self, seed: int, r: int) -> list:
        rng = round_rng(self.name, seed, r)
        items = [Item("e6", None, E6_DIVIDE)]
        for kind, size, k in self.PLAN:
            letters = self.sizes[size]
            if kind == "word":
                data = random_fence_word(rng, k, letters)
            else:
                data = random_divide(rng, k, letters)
            items.append(Item(kind, None if kind == "cli" else size, data))
        return items

    def run_item(self, item: Item, T, counts) -> None:
        if item.kind == "cli":
            self._cli(item.data, T)
            return
        if item.kind == "word":
            beta = T.call("braid.compile", beta_of_fence_word, item.data)
            p = T.call("plabic.fence", fence_of_word, item.data)
        else:
            beta = T.call("braid.compile", beta_of_scannable, item.data)
            p = T.call("plabic.fence", fence_of_divide, item.data)
        o = T.call("plabic.orient", admissible_orientation, p)
        check(o is not None and o.heads == fence_orientation(p),
              "fence orientation differs from the closed form")
        diagram = T.call("plabic.link_build", link_of_oriented_plabic, p, o)
        closed = T.call("link.closure", closure, beta.letters, beta.k)
        via_plabic = T.call("link.alexander_wirtinger", alexander, diagram)
        via_braid = T.call("link.alexander_burau", alexander, beta.letters, beta.k)
        check(via_plabic == via_braid, "Wirtinger and Burau Alexander polynomials differ")
        c_plabic = T.call("link.components", component_count, diagram)
        c_braid = T.call("link.components", component_count, closed)
        check(c_plabic == c_braid, "component counts differ between the routes")
        if len(closed.crossings) <= JONES_CAP:
            v = T.call("link.jones", jones, closed)
            check(sum(c for _, c in v.coeffs) == (-2) ** (c_braid - 1),
                  "Jones polynomial at t = 1 is not (-2)^(components - 1)")
        if item.kind == "e6":
            check(via_braid == E6_ALEXANDER, "E6 Alexander polynomial differs from its oracle")
            check_cells(T, item.data, 4, 3)

    def _cli(self, s, T) -> None:
        def run(*argv) -> str:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = T.call("cli.main", cli_main, list(argv))
            check(code == 0, f"morsify {argv[0]} exited with {code}")
            return out.getvalue()

        sdv = os.path.join(self.workdir, "item.sdv")
        plb = os.path.join(self.workdir, "item.plb")
        with open(sdv, "w", encoding="utf-8") as fh:
            fh.write(T.call("divide.format_scannable", format_scannable, s))
        with open(plb, "w", encoding="utf-8") as fh:
            fh.write(run("fence", sdv))
        with open(plb, encoding="utf-8") as fh:
            p = T.call("plabic.parse", parse_plabic, fh.read())
        heads = set()
        for line in run("orient", plb).splitlines():
            v, slot = line.split()[1].rsplit(".", 1)
            heads.add((v, int(slot)))
        check(heads == fence_orientation(p), "CLI orientation differs from the closed form")
        diagram = T.call("link.parse", parse_link_diagram, run("plabic-link", plb))
        beta = T.call("braid.compile", beta_of_scannable, s)
        comps = T.call("braid.components", closure_components, beta)
        check(pd_components(diagram) == comps, "CLI plabic link has the wrong component count")
        want = T.call("link.alexander_burau", alexander, beta.letters, beta.k)
        lines = run("fingerprint", plb, "--format", "machine").splitlines()
        check(lines[0] == f"RESULT components {comps}", f"CLI fingerprint: {lines[0]}")
        check(lines[1] == f"ALEXANDER {format_poly(want)}", f"CLI fingerprint: {lines[1]}")


# ---------------------------------------------------------------------------
# orient_large


class OrientLarge:
    """Long 2- and 3-strand fences: the global orientation solve and the
    link build, with no link arithmetic."""

    name = "orient_large"

    def __init__(self, tiny: bool):
        self.sizes = (8, 10, 12) if tiny else (40, 48, 56)

    # (size index, strands).  The median item falls in the block of 2-strand
    # 48-letter fences and the eleventh-largest in the 56-letter block; the
    # 3-strand fences sit at 40 letters, where they cost what 2-strand ones do.
    PLAN = ((0, 3), (0, 3), (1, 2), (1, 2), (1, 2), (2, 2), (2, 2))

    def make_round(self, seed: int, r: int) -> list:
        rng = round_rng(self.name, seed, r)
        return [Item("orient", size, random_fence_word(rng, k, self.sizes[size]))
                for size, k in self.PLAN]

    def run_item(self, item: Item, T, counts) -> None:
        w = item.data
        p = T.call("plabic.fence", fence_of_word, w)
        o = T.call("plabic.orient", admissible_orientation, p)
        check(o is not None and o.heads == fence_orientation(p),
              "fence orientation differs from the closed form")
        diagram = T.call("plabic.link_build", link_of_oriented_plabic, p, o)
        beta = T.call("braid.compile", beta_of_fence_word, w)
        comps = T.call("braid.components", closure_components, beta)
        check(pd_components(diagram) == comps, "plabic link has the wrong component count")


# ---------------------------------------------------------------------------
# move_walk


def _pick_moves(rng: random.Random, moves: list) -> list:
    """Moves in the order to try them: a uniformly chosen kind first (so tail
    attachments, the most numerous, do not swamp the walk), then the rest."""
    kinds = sorted({m.kind for m in moves})
    kind = rng.choice(kinds)
    first = [m for m in moves if m.kind == kind]
    rest = [m for m in moves if m.kind != kind]
    rng.shuffle(first)
    rng.shuffle(rest)
    return first + rest


class MoveWalk:
    """Random walks of legal local moves on small fences, with the quiver
    checked before and after every move and the orientation transported;
    plus move-equivalence searches back from a few seeded moves."""

    name = "move_walk"
    sizes = None

    def __init__(self, tiny: bool):
        self.walks, self.steps, self.searches = (2, 2, 1) if tiny else (6, 6, 2)
        self.max_internal = 16
        self.search_states = 20 if tiny else 150

    def make_round(self, seed: int, r: int) -> list:
        rng = round_rng(self.name, seed, r)
        items = []
        # strands and letters are fixed per slot; only the letters' values,
        # the moves and the seeds of the walks are drawn
        for j in range(self.walks):
            w = random_fence_word(rng, 2 + j % 2, 3 + j // 2 % 3)
            items.append(Item("walk", None, (w, rng.getrandbits(64))))
        for j in range(self.searches):
            w = random_fence_word(rng, 2 + j % 2, 3)
            items.append(Item("meq", None, (w, 1 + j % 3, rng.getrandbits(64))))
        return items

    def run_item(self, item: Item, T, counts) -> None:
        if item.kind == "walk":
            self._walk(item.data, T, counts)
        else:
            self._search(item.data, T, counts)

    def _walk(self, data, T, counts) -> None:
        w, item_seed = data
        rng = random.Random(item_seed)
        p = T.call("plabic.fence", fence_of_word, w)
        o = T.call("plabic.orient", admissible_orientation, p)
        check(o is not None and o.heads == fence_orientation(p),
              "fence orientation differs from the closed form")
        start = T.call("link.fingerprint", fingerprint,
                       T.call("plabic.link_build", link_of_oriented_plabic, p, o))
        for _ in range(self.steps):
            moves = T.call("plabic.enumerate_moves", enumerate_moves, p)
            counts["plabic.moves_listed"] += len(moves)
            check(bool(moves), "a fence-derived graph has no legal move")
            for m in _pick_moves(rng, moves):
                counts["plabic.move_attempts"] += 1
                try:
                    np_ = T.call("plabic.apply_move", apply_move, p, m)
                    if len(np_.internal) > self.max_internal:
                        continue
                    no = T.call("plabic.transport", transport_orientation, p, o, m)
                except IllegalMove:
                    counts["plabic.illegal"] += 1
                    continue
                self._check_quivers(T, p, np_, m)
                p, o = np_, no
                break
        end = T.call("link.fingerprint", fingerprint,
                     T.call("plabic.link_build", link_of_oriented_plabic, p, o))
        check(end == start, "moves changed the link fingerprint")

    @staticmethod
    def _check_quivers(T, p, np_, m) -> None:
        """Square moves mutate the quiver at their face; the rest keep it up
        to isomorphism (acceptance check P9)."""
        before = T.call("plabic.quiver_of_plabic", quiver_of_plabic, p)
        after = T.call("plabic.quiver_of_plabic", quiver_of_plabic, np_)
        if m.kind == "square":
            internal, _ = T.call("plabic.faces", faces, p)
            sites = []
            for f in internal:
                lo = f.index(min(f))
                sites.append(tuple(f[lo:] + f[:lo]))
            got = T.call("quiver.mutate", mutate, before, sites.index(m.site))
            check(sorted(got.arrows()) == sorted(after.arrows()),
                  "square move is not the mutation at its face")
        else:
            check(T.call("quiver.is_isomorphic", is_isomorphic, before, after),
                  f"{m.kind} changed the quiver")

    def _search(self, data, T, counts) -> None:
        w, n_moves, item_seed = data
        rng = random.Random(item_seed)
        p = T.call("plabic.fence", fence_of_word, w)
        q = p
        for _ in range(n_moves):
            moves = T.call("plabic.enumerate_moves", enumerate_moves, q)
            counts["plabic.moves_listed"] += len(moves)
            check(bool(moves), "a fence-derived graph has no legal move")
            counts["plabic.move_attempts"] += 1
            q = T.call("plabic.apply_move", apply_move, q, _pick_moves(rng, moves)[0])
        b = budget(self.search_states)
        verdict = T.call("plabic.move_equivalent", move_equivalent, p, q, b)
        record_search(counts, "plabic", verdict, b.states)
        check(not isinstance(verdict, DistinctByInvariant),
              f"move-equivalent graphs called distinct: {verdict}")
        if isinstance(verdict, Equivalent):
            r = p
            for m in verdict.witness:
                r = T.call("plabic.witness_replay", apply_move, r, m)
            check(T.call("plabic.canonical_code", canonical_code, r)
                  == T.call("plabic.canonical_code", canonical_code, q),
                  "move witness does not replay")


# ---------------------------------------------------------------------------
# equiv_search


def _relabel(q: Quiver, perm: list) -> Quiver:
    n = q.n
    b = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            b[perm[i]][perm[j]] = q.b[i][j]
    return Quiver(tuple(tuple(row) for row in b))


class EquivSearch:
    """Solid-torus isotopy of positive braids and mutation equivalence of
    quivers, on pairs whose answer is known."""

    name = "equiv_search"
    sizes = None
    BRAID_KINDS = ("p3", "overlay", "conjugates", "control")

    def __init__(self, tiny: bool):
        self.braid_states = 20 if tiny else 60
        self.quiver_states = 50 if tiny else 2000
        self.p5_states = 10 if tiny else 200
        self.conj_length = 8 if tiny else 12
        self.overlay_shapes = OVERLAY_SHAPES_4[:2] if tiny else OVERLAY_SHAPES_4 + OVERLAY_SHAPES_5
        self.same_singularity = [
            (rows[i], rows[j])
            for label in dict.fromkeys(r[0] for r in QUASIHOMOGENEOUS_TABLE)
            for rows in [[r for r in QUASIHOMOGENEOUS_TABLE if r[0] == label]]
            for i in range(len(rows))
            for j in range(i + 1, len(rows))
        ]

    def make_round(self, seed: int, r: int) -> list:
        rng = round_rng(self.name, seed, r)
        items = [Item("p3", None, (P3_PAIR, "equivalent"))]
        # Overlay pairs from the generator of acceptance check P11: every
        # shape on 4 and 5 strands, with seeded parities (the shape alone
        # sets the cost, from milliseconds to seconds, so seeding it would
        # make the mix of costs differ from seed to seed).
        for (a1, b1), (a2, b2) in self.overlay_shapes:
            pair = ((a1, b1, rng.randint(0, 1)), (a2, b2, rng.randint(0, 1)))
            items.append(Item("overlay", None, (pair, "equivalent")))
        for _ in range(3):
            u = random_braid(rng, 4, self.conj_length)
            v = u
            for _ in range(rng.randint(2, 4)):
                _, v = rng.choice(list(conjugation_neighbors(v)))
            items.append(Item("conjugates", None, ((u, v), "equivalent")))
        for _ in range(2):
            items.append(Item("control", None, (self._control(rng), "distinct")))

        # The fixed families: every same-singularity pair of the table, the
        # four real-form quivers pairwise, the push pair, the P5 pair.
        items.append(Item("p5", None, P5_PAIR))
        for (_, a, b, s), (_, _, _, t) in self.same_singularity:
            items.append(Item("table", None, ((s, t), (a, b))))
        for i in range(4):
            for j in range(i + 1, 4):
                items.append(Item("four_forms", None, (FOUR_FORMS[i], FOUR_FORMS[j])))
        items.append(Item("push", None, (PUSH_BEFORE, PUSH_AFTER)))
        b_ = rng.randint(2, 4)
        a_ = rng.randint(max(b_, 3), 5)
        g = rng.choice(("flipH", "flipV", "rot180"))
        items.append(Item("klein", None, (a_, b_, rng.randint(0, 1), g)))
        for _ in range(2):
            shape = (rng.randint(4, 5), rng.randint(2, 3), rng.randint(0, 1))
            seq = tuple(rng.randrange(64) for _ in range(rng.randint(3, 6)))
            items.append(Item("mutated", None, (shape, seq, rng.getrandbits(64))))
        return items

    def _control(self, rng: random.Random) -> tuple:
        """Two words of the same length and permutation cycle type whose
        Alexander polynomials differ, so no conjugation relates them."""
        n = self.conj_length
        while True:
            u, v = random_braid(rng, 4, n), random_braid(rng, 4, n)
            if cycle_type(underlying_permutation(u)) != cycle_type(underlying_permutation(v)):
                continue
            if alexander(u.letters, 4) != alexander(v.letters, 4):
                return u, v

    def run_item(self, item: Item, T, counts) -> None:
        if item.kind in self.BRAID_KINDS:
            self._braid(item.kind, item.data, T, counts)
        else:
            self._quiver(item.kind, item.data, T, counts)

    def _braid(self, source, data, T, counts) -> None:
        pair, expect = data
        if source == "p3":
            u, v = (T.call("braid.compile", beta_of_scannable, s) for s in pair)
        elif source == "overlay":
            s1, s2 = (T.call("divide.lissajous", lissajous, *x) for x in pair)
            u = T.call("braid.compile", beta_of_scannable, T.call("divide.overlay", overlay, s1, s2))
            v = T.call("braid.compile", beta_of_scannable, T.call("divide.overlay", overlay, s2, s1))
        else:
            u, v = pair
        b = budget(self.braid_states)
        verdict = T.call("braid.solid_torus", solid_torus_isotopic, u, v, b)
        record_search(counts, "braid", verdict, b.states)
        if expect == "distinct":
            check(not isinstance(verdict, Equivalent), "non-conjugate control called equivalent")
            return
        check(not isinstance(verdict, DistinctByInvariant),
              f"conjugate braids called distinct: {verdict}")
        if isinstance(verdict, Equivalent):
            w = u
            for move in verdict.witness:
                w = T.call("braid.witness_replay", apply_conjugation, w, move)
            check(T.call("braid.normal_form", positive_equal, w, v),
                  "conjugation witness does not replay")

    def _quiver(self, source, data, T, counts) -> None:
        states = self.quiver_states
        if source == "p5":
            states = self.p5_states
            q1, q2 = (T.call("agquiver.quiver_of_divide", quiver_of_divide,
                             check_cells(T, s, *P5_AB)) for s in data)
        elif source == "table":
            (s, t), (a, b) = data
            q1, q2 = (T.call("agquiver.quiver_of_divide", quiver_of_divide,
                             check_cells(T, x, a, b)) for x in (s, t))
        elif source == "klein":
            a, b, parity, g = data
            s = T.call("divide.lissajous", lissajous, a, b, parity)
            t = T.call("divide.klein_act", klein_act,
                       T.call("divide.lissajous", lissajous, a, b, 1 - parity), g)
            q1, q2 = (T.call("agquiver.quiver_of_divide", quiver_of_divide,
                             check_cells(T, x, a, b)) for x in (s, t))
        elif source in ("four_forms", "push"):
            q1, q2 = data
        else:
            (a, b, parity), seq, item_seed = data
            s = T.call("divide.lissajous", lissajous, a, b, parity)
            q1 = T.call("agquiver.quiver_of_divide", quiver_of_divide, check_cells(T, s, a, b))
            moved = T.call("quiver.mutate_seq", mutate_seq, q1, [k % q1.n for k in seq])
            perm = list(range(q1.n))
            random.Random(item_seed).shuffle(perm)
            q2 = _relabel(moved, perm)
        b = budget(states)
        verdict = T.call("quiver.mutation_equivalent", mutation_equivalent, q1, q2, b)
        record_search(counts, "quiver", verdict, b.states)
        check(not isinstance(verdict, DistinctByInvariant),
              f"mutation-equivalent quivers called distinct: {verdict}")
        if isinstance(verdict, Equivalent):
            replay = T.call("quiver.witness_replay", mutate_seq, q1, verdict.witness)
            check(T.call("quiver.is_isomorphic", is_isomorphic, replay, q2),
                  "mutation witness does not replay")


def make(name: str, tiny: bool, workdir: str):
    if name == "fence_links":
        return FenceLinks(tiny, workdir)
    if name == "orient_large":
        return OrientLarge(tiny)
    if name == "move_walk":
        return MoveWalk(tiny)
    if name == "equiv_search":
        return EquivSearch(tiny)
    raise ValueError(f"unknown workload {name!r}")
