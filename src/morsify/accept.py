"""The twelve acceptance checks behind ``morsify accept``.

Each check returns an :class:`AcceptanceResult`; the table they form certifies
the package's headline behaviors end to end: braid compilation oracles,
Garside equality, mutation equivalence of the worked quiver families,
orientation existence/uniqueness, cross-route link fingerprints, move/mutation
compatibility, overlay commutativity, and cell-count constancy.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from ._common import Budget, Equivalent, Unknown
from .agquiver import quiver_of_divide
from .braid import (
    beta_of_fence_word,
    beta_of_scannable,
    delta,
    format_braid_word,
    positive_equal,
    solid_torus_isotopic,
    word,
)
from .divide import (
    PlanarDivide,
    cell_count,
    lissajous,
    overlay,
    scannable,
    scannable_to_planar,
)
from .link import LaurentPoly, fingerprint
from .plabic import (
    DisconnectedFence,
    FenceWord,
    PlabicGraph,
    _legal_moves,
    admissible_orientation,
    attach_plabic,
    faces,
    fence_of_divide,
    fence_of_word,
    link_of_oriented_plabic,
    quiver_of_plabic,
)
from .quiver import (
    Quiver,
    is_isomorphic,
    mutate,
    mutate_seq,
    mutation_equivalent,
    quiver_from_arrows,
)


@dataclass(frozen=True)
class AcceptanceResult:
    label: str
    title: str
    passed: bool
    detail: str


def _quiver(names: str, arrows: str) -> Quiver:
    verts = names.split()
    idx = {v: i for i, v in enumerate(verts)}
    pairs = []
    for arrow in arrows.split(","):
        u, v = arrow.split(">")
        pairs.append((idx[u.strip()], idx[v.strip()]))
    return quiver_from_arrows(len(verts), pairs)


# The four quivers of the four real morsifications of a 4-branch ordinary
# singularity (9 vertices each).
FOUR_FORMS = (
    _quiver(
        "A B C D E F G H I",
        "B>I, E>I, I>G, C>I, B>H, D>H, H>G, A>H, G>F, G>B, G>C, G>A",
    ),
    _quiver(
        "K1 K2 K3 K4 X W N S E",
        "K1>S, W>X, K2>N, K3>S, E>X, K4>N, W>K1, X>S, E>K3, W>K2, X>N, E>K4,"
        " S>W, N>W, S>E, N>E",
    ),
    _quiver(
        "T1 T2 B1 B2 TOP X W M E",
        "W>X, E>X, M>X, M>TOP, X>T2, X>T1, X>B2, X>B1, B1>W, B2>E, T1>M,"
        " T2>M, T1>W, T2>E",
    ),
    _quiver(
        "K1 K2 K3 K4 X W N S E",
        "W>X, E>X, S>X, N>X, X>K4, X>K3, X>K2, X>K1, K2>W, K1>W, K4>E, K3>E,"
        " K3>S, K1>S, K4>N, K2>N",
    ),
)

# A 10-vertex quiver pair related by a triangle push; replaying the mutations
# at 0, 3, 2, 1, 0 carries the first to the second exactly.
PUSH_BEFORE = _quiver(
    "0 1 2 3 4 5 6 7 8 9",
    "0>7, 1>0, 1>4, 3>0, 2>0, 9>1, 5>1, 9>3, 5>2, 8>9, 6>5, 8>7, 6>7, 3>8,"
    " 2>6, 7>3, 7>2, 4>5, 4>9, 0>9, 0>5",
)
PUSH_AFTER = _quiver(
    "0 1 2 3 4 5 6 7 8 9",
    "4>0, 0>1, 7>1, 4>5, 4>9, 1>8, 1>6, 8>9, 6>5, 8>7, 6>7, 9>2, 5>3, 0>3,"
    " 0>2, 2>8, 3>6, 8>0, 6>0, 2>4, 3>4",
)

# A balanced plabic graph with no admissible orientation: two horizontal
# strands, two bicolored vertical connectors, and a doubled edge at the right.
UNORIENTABLE = PlabicGraph(
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

# Scannable divides of the quasihomogeneous singularities x^a + y^b, grouped
# as (label, a, b, divide); rows with the same label realize the same
# singularity through different divides.
QUASIHOMOGENEOUS_TABLE = (
    ("A1", 2, 2, scannable(2, (), (1,), ())),
    ("A1", 2, 2, scannable(2, (1,), (), (1,))),
    ("A2", 3, 2, scannable(2, (), (1,), (1,))),
    ("A3", 4, 2, scannable(2, (), (1, 1), ())),
    ("A3", 4, 2, scannable(2, (1,), (1,), (1,))),
    ("A4", 5, 2, scannable(2, (), (1, 1), (1,))),
    ("A5", 6, 2, scannable(2, (), (1, 1, 1), ())),
    ("A5", 6, 2, scannable(2, (1,), (1, 1), (1,))),
    ("D4", 3, 3, scannable(3, (), (1, 2, 1), ())),
    ("D4", 3, 3, scannable(3, (2,), (1, 2), (1,))),
    ("E6", 4, 3, scannable(3, (2,), (1, 2, 1), (2,))),
    ("E6", 4, 3, scannable(3, (2,), (2, 1, 2), (2,))),
    ("E8", 5, 3, scannable(3, (2,), (1, 2, 1, 2), (1,))),
    ("E8", 5, 3, scannable(3, (2,), (2, 1, 2, 2), (1,))),
    ("E8^11", 6, 3, scannable(3, (2,), (1, 2, 1, 2, 1), (2,))),
    ("E8^11", 6, 3, scannable(3, (2,), (1, 1, 2, 1, 1), (2,))),
    ("E8^11", 6, 3, scannable(3, (), (1, 2, 1, 2, 1, 2), ())),
    ("E7^11", 4, 4, scannable(4, (), (1, 2, 1, 3, 2, 1), ())),
    ("E7^11", 4, 4, scannable(4, (2,), (1, 3, 2, 1, 3), (2,))),
    ("E7^11", 4, 4, scannable(4, (2,), (1, 2, 3, 2, 1), (2,))),
    ("W12", 5, 4, scannable(4, (2,), (1, 3, 2, 1, 3, 2), (1, 3))),
    ("W18", 6, 4, scannable(4, (1, 3), (2, 1, 3, 2, 1, 3, 2), (1, 3))),
    ("W18", 6, 4, scannable(4, (2,), (1, 3, 2, 1, 3, 2, 1, 3), (2,))),
)

# Additional same-singularity planar pairs used by the cell-count check.
_FIGURE_EIGHT = PlanarDivide(
    nodes={"n"},
    endpoints=set(),
    edges={frozenset({("n", 0), ("n", 1)}), frozenset({("n", 2), ("n", 3)})},
    boundary_order=(),
    outer_dart=("n", 0),
)

_E6_TRIANGLE = PlanarDivide(
    nodes={"b1", "b2", "b3"},
    endpoints={"E1", "E2"},
    edges={
        frozenset({("b1", 2), ("E1", 0)}),
        frozenset({("b1", 0), ("b3", 1)}),
        frozenset({("b3", 3), ("b2", 0)}),
        frozenset({("b2", 2), ("b1", 3)}),
        frozenset({("b1", 1), ("b3", 0)}),
        frozenset({("b3", 2), ("b2", 1)}),
        frozenset({("b2", 3), ("E2", 0)}),
    },
    boundary_order=("E1", "E2"),
)

_E6_LOOPS = PlanarDivide(
    nodes={"n0", "n1", "n2"},
    endpoints={"E1", "E2"},
    edges={
        frozenset({("n0", 2), ("E1", 0)}),
        frozenset({("n0", 0), ("n2", 3)}),
        frozenset({("n2", 0), ("n2", 1)}),
        frozenset({("n2", 2), ("n1", 3)}),
        frozenset({("n1", 0), ("n1", 1)}),
        frozenset({("n1", 2), ("n0", 1)}),
        frozenset({("n0", 3), ("E2", 0)}),
    },
    boundary_order=("E1", "E2"),
)

PLANAR_PAIRS = (
    ("A3", 4, 2, (_FIGURE_EIGHT, scannable_to_planar(scannable(2, (), (1, 1), ())))),
    ("E6", 4, 3, (_E6_TRIANGLE, _E6_LOOPS)),
)


def _random_fence(rng: random.Random, kmax: int = 4, max_len: int = 6):
    """A random valid plabic fence with its word."""
    while True:
        k = rng.randint(2, kmax)
        letters = tuple(
            (rng.choice("st"), rng.randint(1, k - 1))
            for _ in range(rng.randint(1, max_len))
        )
        w = FenceWord(k, letters)
        try:
            return w, fence_of_word(w)
        except DisconnectedFence:
            continue


def _expected_fence_orientation(p: PlabicGraph) -> frozenset:
    """The left-to-right / white-to-black orientation of a fence."""

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
        if pos(a[0]) == pos(b[0]):  # the vertical connector edge
            heads.add(a if a[0] in p.black else b)
        else:
            heads.add(a if pos(a[0]) > pos(b[0]) else b)
    return frozenset(heads)


def _fence_fingerprint(s) -> tuple:
    p = fence_of_divide(s)
    o = admissible_orientation(p)
    if o is None:
        raise ValueError("fence of the divide admits no orientation")
    return fingerprint(link_of_oriented_plabic(p, o))


def check_scan_compile() -> AcceptanceResult:
    """Braid of the worked three-strand scannable divide."""
    s = scannable(3, (2,), (1, 1, 2, 1), (1,))
    got = format_braid_word(beta_of_scannable(s))
    want = "3 : 2 1 1 2 1 1 1 2 1 1"
    return AcceptanceResult(
        "P1", "scannable-to-braid oracle", got == want, f"{got!r}"
    )


def check_fence_compile() -> AcceptanceResult:
    """Braid of the worked three-strand fence word."""
    w = FenceWord(
        3,
        (
            ("s", 2), ("s", 1), ("t", 1), ("t", 2),
            ("s", 2), ("s", 1), ("t", 1), ("s", 2),
        ),
    )
    beta = beta_of_fence_word(w)
    ok = beta.k == 3 and beta.letters == (2, 1) * 4
    return AcceptanceResult(
        "P2", "fence-word-to-braid oracle", ok, format_braid_word(beta)
    )


def check_cusp_pair(budget: Optional[Budget] = None) -> AcceptanceResult:
    """The two transversal-cusp divides: Garside equality and conjugacy."""
    d1 = scannable(4, (1, 3), (2, 1, 3, 2, 1, 3), ())
    d2 = scannable(4, (1, 3), (2, 1, 3, 1, 2), (1, 3))
    b1, b2 = beta_of_scannable(d1), beta_of_scannable(d2)
    target = word(4, delta(4).letters * 2 + (1, 3))
    eq = positive_equal(b1, target)
    res = solid_torus_isotopic(b1, b2, budget or Budget())
    ok = eq and bool(res)
    return AcceptanceResult(
        "P3",
        "transversal cusps: half-twist normal form and conjugacy",
        ok,
        f"normal-form equality {eq}; isotopy {type(res).__name__}",
    )


def check_four_forms(budget: Optional[Budget] = None) -> AcceptanceResult:
    """Pairwise mutation equivalence of the four real-form quivers."""
    budget = budget or Budget(max_states=10**5)
    fails = []
    for i in range(4):
        for j in range(i + 1, 4):
            res = mutation_equivalent(FOUR_FORMS[i], FOUR_FORMS[j], budget)
            if not isinstance(res, Equivalent):
                fails.append(f"{i}-{j}: {type(res).__name__}")
                continue
            replay = mutate_seq(FOUR_FORMS[i], res.witness)
            if not is_isomorphic(replay, FOUR_FORMS[j]):
                fails.append(f"{i}-{j}: witness does not replay")
    return AcceptanceResult(
        "P4",
        "four real-form quivers pairwise mutation-equivalent",
        not fails,
        "; ".join(fails) or "all six pairs equivalent with replayable witnesses",
    )


def check_full_twist_pair(budget: Optional[Budget] = None) -> AcceptanceResult:
    """Both 4-strand divides compile to the fourth power of the half twist."""
    left = scannable(4, (), (1, 3, 2, 1, 3, 2, 2, 1, 3, 2, 1, 3), ())
    right = scannable(4, (1, 3), (2, 1, 3, 2, 1, 3, 2, 1, 3, 2), (1, 3))
    target = word(4, delta(4).letters * 4)
    eq = positive_equal(beta_of_scannable(left), target) and positive_equal(
        beta_of_scannable(right), target
    )
    cells = cell_count(scannable_to_planar(right))
    res = mutation_equivalent(
        quiver_of_divide(scannable_to_planar(left)),
        quiver_of_divide(scannable_to_planar(right)),
        budget or Budget(max_states=2 * 10**4, max_seconds=15),
    )
    # The quiver comparison may exhaust its budget; only a refutation fails.
    ok = eq and tuple(cells) == (10, 11, 21) and (bool(res) or isinstance(res, Unknown))
    return AcceptanceResult(
        "P5",
        "full-twist divides: braid equality and quiver class",
        ok,
        f"braid equality {eq}; cells {tuple(cells)}; quivers {type(res).__name__}",
    )


def check_push_mutations() -> AcceptanceResult:
    """The triangle-push quiver pair differs by mutations at 0,3,2,1,0."""
    got = mutate_seq(PUSH_BEFORE, (0, 3, 2, 1, 0))
    ok = got == PUSH_AFTER
    return AcceptanceResult(
        "P6",
        "triangle push as five mutations",
        ok,
        "exact replay" if ok else "replay mismatch",
    )


def check_orientations() -> AcceptanceResult:
    """Fences orient left-to-right/white-to-black; the counterexample fails."""
    rng = random.Random(7)
    bad = []
    for _ in range(50):
        w, p = _random_fence(rng)
        o = admissible_orientation(p)
        if o is None or o.heads != _expected_fence_orientation(p):
            bad.append(w.letters)
    if admissible_orientation(UNORIENTABLE) is not None:
        bad.append("counterexample oriented")
    return AcceptanceResult(
        "P7",
        "admissible orientations: 50 fences plus the counterexample",
        not bad,
        "; ".join(map(str, bad)) or "all unique and as predicted",
    )


def check_link_routes() -> AcceptanceResult:
    """Braid-closure and plabic-link fingerprints agree across the table."""
    e6_alex = LaurentPoly(((0, 1), (1, -1), (3, 1), (5, -1), (6, 1)))
    fails = []
    for label, a, b, s in QUASIHOMOGENEOUS_TABLE:
        beta = beta_of_scannable(s)
        via_braid = fingerprint(beta.letters, beta.k)
        via_plabic = _fence_fingerprint(s)
        if via_braid != via_plabic:
            fails.append(f"{label}({a},{b}): routes disagree")
        if label == "E6" and via_braid[1] != e6_alex:
            fails.append(f"{label}: Alexander {via_braid[1].coeffs}")
    return AcceptanceResult(
        "P8",
        "link fingerprints agree along both routes",
        not fails,
        "; ".join(fails) or f"{len(QUASIHOMOGENEOUS_TABLE)} divides checked",
    )


def check_moves_vs_mutations(count: int = 500) -> AcceptanceResult:
    """Random legal moves: squares mutate the quiver, the rest preserve it."""
    rng = random.Random(23)
    fails = []
    done = 0
    p = _random_fence(rng)[1]
    while done < count:
        moves = list(_legal_moves(p)) if len(p.internal) <= 14 else []
        if not moves:
            p = _random_fence(rng)[1]
            continue
        m, np_ = rng.choice(moves)
        if len(np_.internal) > 16:
            continue
        q_before, q_after = quiver_of_plabic(p), quiver_of_plabic(np_)
        if m.kind == "square":
            internal, _ = faces(p)
            sites = []
            for f in internal:
                lo = f.index(min(f))
                sites.append(tuple(f[lo:] + f[:lo]))
            got = mutate(q_before, sites.index(m.site))
            if sorted(got.arrows()) != sorted(q_after.arrows()):
                fails.append(f"square at face {sites.index(m.site)}")
        elif not is_isomorphic(q_before, q_after):
            fails.append(m.kind)
        done += 1
        p = np_
    return AcceptanceResult(
        "P9",
        f"{count} random moves act on quivers as mutations/isomorphisms",
        not fails,
        "; ".join(fails[:5]) or "zero failures",
    )


def check_moves_preserve_links(count: int = 200) -> AcceptanceResult:
    """Random move sequences on oriented fences keep the link fingerprint."""
    rng = random.Random(41)
    fails = []
    for _ in range(count):
        w, p = _random_fence(rng, kmax=3, max_len=5)
        o = admissible_orientation(p)
        base = fingerprint(link_of_oriented_plabic(p, o))
        for _ in range(rng.randint(1, 3)):
            moves = list(_legal_moves(p))
            rng.shuffle(moves)
            for _, np_ in moves:
                if len(np_.internal) > 12:
                    continue
                no = admissible_orientation(np_)
                if no is None:
                    continue
                p, o = np_, no
                break
        got = fingerprint(link_of_oriented_plabic(p, o))
        if got != base:
            fails.append(w.letters)
    return AcceptanceResult(
        "P10",
        f"{count} random move sequences preserve link fingerprints",
        not fails,
        "; ".join(map(str, fails[:5])) or "zero failures",
    )


def check_overlay_commutes(budget: Optional[Budget] = None) -> AcceptanceResult:
    """Overlaying in either order gives conjugate braids (10 random pairs)."""
    budget = budget or Budget()
    rng = random.Random(3)
    fails = []
    pairs = 0
    while pairs < 10:
        b1, b2 = rng.randint(2, 3), rng.randint(2, 3)
        if b1 + b2 > 6:
            continue
        s1 = lissajous(rng.randint(b1, 4), b1, rng.randint(0, 1))
        s2 = lissajous(rng.randint(b2, 4), b2, rng.randint(0, 1))
        u = beta_of_scannable(overlay(s1, s2))
        v = beta_of_scannable(overlay(s2, s1))
        res = solid_torus_isotopic(u, v, budget)
        if not isinstance(res, Equivalent):
            fails.append(
                f"pair {pairs}: {type(res).__name__}"
            )
        pairs += 1
    return AcceptanceResult(
        "P11",
        "transversal overlays commute up to conjugacy",
        not fails,
        "; ".join(fails) or "10 pairs equivalent",
    )


def check_cell_counts() -> AcceptanceResult:
    """nodes+regions is constant per singularity and equals (a-1)(b-1)."""
    fails = []
    for label, a, b, s in QUASIHOMOGENEOUS_TABLE:
        total = cell_count(scannable_to_planar(s)).total
        if total != (a - 1) * (b - 1):
            fails.append(f"{label}({a},{b}): {total}")
    for label, a, b, divides in PLANAR_PAIRS:
        for d in divides:
            total = cell_count(d).total
            if total != (a - 1) * (b - 1):
                fails.append(f"{label} planar: {total}")
    for b in range(2, 5):
        for a in range(b, 7):
            for parity in (0, 1):
                total = cell_count(
                    scannable_to_planar(lissajous(a, b, parity))
                ).total
                if total != (a - 1) * (b - 1):
                    fails.append(f"lissajous({a},{b},{parity}): {total}")
    return AcceptanceResult(
        "P12",
        "cell counts match (a-1)(b-1) across all realizations",
        not fails,
        "; ".join(fails[:5]) or "all rows constant",
    )


CHECKS: tuple[tuple[str, Callable[[], AcceptanceResult]], ...] = (
    ("P1", check_scan_compile),
    ("P2", check_fence_compile),
    ("P3", check_cusp_pair),
    ("P4", check_four_forms),
    ("P5", check_full_twist_pair),
    ("P6", check_push_mutations),
    ("P7", check_orientations),
    ("P8", check_link_routes),
    ("P9", check_moves_vs_mutations),
    ("P10", check_moves_preserve_links),
    ("P11", check_overlay_commutes),
    ("P12", check_cell_counts),
)


def run_acceptance() -> list[AcceptanceResult]:
    return [fn() for _, fn in CHECKS]
