"""Quiver mutation, canonical forms, mutation equivalence."""

import random
from bisect import bisect_left, bisect_right
from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from morsify._common import bareiss
from morsify.agquiver import quiver_of_divide
from morsify.divide import scannable, scannable_to_planar
from morsify.quiver import (
    MAX_MULT,
    Budget,
    DistinctByInvariant,
    Equivalent,
    Quiver,
    Unknown,
    canonical_form,
    canonical_key,
    find_isomorphism,
    format_quiver,
    is_isomorphic,
    mutate,
    mutate_seq,
    mutation_equivalent,
    parse_quiver,
    quick_invariants,
    quiver_from_arrows,
    _refine_colors,
)

from test_search import CountingBudget


def a_path(n: int) -> Quiver:
    return quiver_from_arrows(n, [(i, i + 1) for i in range(n - 1)])


def random_quiver(rng, n, mmax=2) -> Quiver:
    b = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = rng.randint(-mmax, mmax)
            b[i][j] = v
            b[j][i] = -v
    return Quiver(tuple(tuple(r) for r in b))


def relabel(q: Quiver, perm) -> Quiver:
    n = q.n
    b = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            b[perm[i]][perm[j]] = q.b[i][j]
    return Quiver(tuple(tuple(r) for r in b))


# frozen 10-vertex pair joined by the 5-step mutation sequence 0,3,2,1,0:
# a triangle move on a divide whose triangle is surrounded by bounded
# regions, restricted to the 3 nodes and 7 regions near the triangle
BIG_LEFT = quiver_from_arrows(
    10,
    [(0, 7), (1, 0), (1, 4), (3, 0), (2, 0), (9, 1), (5, 1), (9, 3), (5, 2),
     (8, 9), (6, 5), (8, 7), (6, 7), (3, 8), (2, 6), (7, 3), (7, 2), (4, 5),
     (4, 9), (0, 9), (0, 5)],
)
BIG_RIGHT = quiver_from_arrows(
    10,
    [(4, 0), (0, 1), (7, 1), (4, 5), (4, 9), (1, 8), (1, 6), (8, 9), (6, 5),
     (8, 7), (6, 7), (9, 2), (5, 3), (0, 3), (0, 2), (2, 8), (3, 6), (8, 0),
     (6, 0), (2, 4), (3, 4)],
)


def dense_mutate(q: Quiver, k: int) -> tuple:
    """The mutation rule entry by entry over the whole matrix: the reference
    for the local rewrite in ``mutate``."""
    n, b = q.n, q.b
    nb = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == k or j == k:
                nb[i][j] = -b[i][j]
            else:
                nb[i][j] = b[i][j] + (
                    abs(b[i][k]) * b[k][j] + b[i][k] * abs(b[k][j])
                ) // 2
    return tuple(tuple(row) for row in nb)


def recursive_canonical_form(q: Quiver) -> tuple:
    """The depth-first shell-key search written recursively, with a dense
    colour refinement: the reference for ``canonical_form``."""
    b, n = q.b, q.n
    if n == 0:
        return (), ()
    colors = [
        (tuple(sorted(x for x in b[i] if x > 0)), tuple(sorted(x for x in b[i] if x < 0)))
        for i in range(n)
    ]
    for _ in range(n):
        new = [
            (colors[i], tuple(sorted((colors[j], x) for j, x in enumerate(b[i]) if x)))
            for i in range(n)
        ]
        ranks = {c: r for r, c in enumerate(sorted(set(new)))}
        new_ranked = [ranks[c] for c in new]
        stable = len(set(new_ranked)) == len(set(colors))
        colors = new_ranked
        if stable:
            break
    classes: dict = {}
    for i, c in enumerate(colors):
        classes.setdefault(c, []).append(i)
    groups = [classes[c] for c in sorted(classes)]
    best: list = [None, None]
    first: dict = {}
    twin_class = [first.setdefault(row, i) for i, row in enumerate(b)]

    def search(order, key, gi, placed_in_group):
        if gi == len(groups):
            if best[0] is None or key < best[0]:
                best[:] = [key, tuple(order)]
            return
        shells: dict = {}
        for nxt in groups[gi]:
            if nxt not in order:
                shells.setdefault(twin_class[nxt], (nxt, [b[nxt][o] for o in order]))
        least = min(shell for _, shell in shells.values())
        for nxt, shell in shells.values():
            if shell != least:
                continue
            cand = key + shell
            if best[0] is not None and cand > best[0][: len(cand)]:
                continue
            if placed_in_group + 1 == len(groups[gi]):
                search(order + [nxt], cand, gi + 1, 0)
            else:
                search(order + [nxt], cand, gi, placed_in_group + 1)

    search([], [], 0, 0)
    order = best[1]
    return tuple(b[i][j] for i in order for j in order), order


def reference_refine_colors(b: tuple) -> tuple:
    """Colour refinement that signs every row in every round with
    (colour, entry) pairs: the reference for ``_refine_colors``."""

    def ranks(items):
        rank = {c: r for r, c in enumerate(sorted(set(items)))}
        return [rank[c] for c in items], len(rank)

    n = len(b)
    round0 = []
    for row in b:
        s = sorted(row)
        pos, neg = s[bisect_right(s, 0) :], s[: bisect_left(s, 0)]
        round0.append((tuple(pos), tuple(neg)))
    colors, count = ranks(round0)
    if count == n:
        return colors, count
    nonzero = [[(j, x) for j, x in enumerate(row) if x] for row in b]
    while True:
        colors, new_count = ranks(
            [
                (colors[i], tuple(sorted((colors[j], x) for j, x in nz)))
                for i, nz in enumerate(nonzero)
            ]
        )
        if new_count in (count, n):
            return colors, new_count
        count = new_count


matrices = st.integers(1, 9).flatmap(
    lambda n: st.lists(
        st.integers(-3, 3), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2
    ).map(lambda xs: skew(n, xs))
)


def skew(n: int, upper) -> Quiver:
    b = [[0] * n for _ in range(n)]
    it = iter(upper)
    for i in range(n):
        for j in range(i + 1, n):
            b[i][j] = next(it)
            b[j][i] = -b[i][j]
    return Quiver(tuple(map(tuple, b)))


def doubled(half: Quiver, across, perm) -> Quiver:
    """Two copies of ``half`` with the arrows ``across`` between the copies,
    the same both ways round, relabeled by ``perm``: a quiver an involution
    swaps, where the refinement is rarely discrete."""
    h = half.n
    b = [[0] * (2 * h) for _ in range(2 * h)]
    for i in range(h):
        for j in range(h):
            b[i][j] = b[i + h][j + h] = half.b[i][j]
    it = iter(across)
    for i in range(h):
        for j in range(i + 1, h):
            x = next(it)
            b[i][j + h], b[j + h][i] = x, -x
            b[i + h][j], b[j][i + h] = x, -x
    return relabel(Quiver(tuple(map(tuple, b))), perm)


doubled_matrices = matrices.flatmap(
    lambda half: st.builds(
        doubled,
        st.just(half),
        st.lists(
            st.integers(-1, 1),
            min_size=half.n * (half.n - 1) // 2,
            max_size=half.n * (half.n - 1) // 2,
        ),
        st.permutations(range(2 * half.n)),
    )
)


class TestMutation:
    @given(matrices, st.data())
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_dense_rule(self, q, data):
        k = data.draw(st.integers(0, q.n - 1))
        m = mutate(q, k)
        assert m.b == dense_mutate(q, k)
        assert all(m.b[i][j] == -m.b[j][i] for i in range(q.n) for j in range(q.n))
        assert Quiver(m.b) == m
        assert mutate(m, k) == q

    def test_public_constructor_still_checks(self):
        with pytest.raises(ValueError, match="square"):
            Quiver(((0, 1), (-1,)))
        with pytest.raises(ValueError, match="skew"):
            Quiver(((0, 1), (1, 0)))

    @given(st.integers(2, 5), st.integers(0, 4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_involution(self, n, seed, data):
        rng = random.Random(seed)
        q = random_quiver(rng, n)
        k = data.draw(st.integers(0, n - 1))
        assert mutate(mutate(q, k), k) == q

    def test_sink_source_reverses_incident(self):
        q = a_path(3)  # 0 -> 1 -> 2
        m = mutate(q, 2)  # 2 is a sink
        assert m == quiver_from_arrows(3, [(0, 1), (2, 1)])

    def test_triangle_from_path(self):
        q = a_path(3)
        m = mutate(q, 1)
        # mutating the middle of 0 -> 1 -> 2 creates the composite arrow
        assert m == quiver_from_arrows(3, [(1, 0), (2, 1), (0, 2)])

    @given(st.integers(2, 5), st.integers(0, 100), st.lists(st.integers(0, 4), max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_quick_invariants_preserved(self, n, seed, ks):
        rng = random.Random(seed)
        q = random_quiver(rng, n, mmax=1)
        m = mutate_seq(q, [k % n for k in ks])
        assert quick_invariants(m) == quick_invariants(q)


def leibniz(m) -> int:
    total = 0
    for perm in permutations(range(len(m))):
        term = (-1) ** sum(a > b for a, b in combinations(perm, 2))
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


square = st.integers(0, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n
    )
)


@given(square)
@settings(max_examples=200, deadline=None)
def test_bareiss_against_minors(m):
    # determinant by permutation expansion, rank as the largest nonzero minor
    n = len(m)
    rank = max(
        r
        for r in range(n + 1)
        for rows in combinations(range(n), r)
        for cols in combinations(range(n), r)
        if leibniz([[m[i][j] for j in cols] for i in rows])
    )
    assert bareiss(m) == (leibniz(m), rank)


class TestCanonical:
    @given(st.integers(1, 6), st.integers(0, 100), st.integers(0, 100))
    @settings(max_examples=60, deadline=None)
    def test_relabeling_invariance(self, n, seed, pseed):
        q = random_quiver(random.Random(seed), n)
        perm = list(range(n))
        random.Random(pseed).shuffle(perm)
        assert canonical_key(q) == canonical_key(relabel(q, perm))

    def test_distinguishes_orientations(self):
        middle_sink = quiver_from_arrows(3, [(0, 1), (2, 1)])
        middle_source = quiver_from_arrows(3, [(1, 0), (1, 2)])
        assert canonical_key(middle_sink) != canonical_key(middle_source)
        assert is_isomorphic(middle_sink, middle_source, up_to_reversal=True)

    def test_find_isomorphism_valid(self):
        rng = random.Random(9)
        for _ in range(20):
            n = rng.randint(2, 6)
            q = random_quiver(rng, n)
            perm = list(range(n))
            rng.shuffle(perm)
            q2 = relabel(q, perm)
            pi = find_isomorphism(q, q2)
            assert pi is not None
            assert relabel(q, pi) == q2

    def test_highly_symmetric_fast(self):
        # arrowless quivers exercise the twin-vertex pruning
        q = Quiver(tuple(tuple(0 for _ in range(12)) for _ in range(12)))
        assert canonical_key(q) == tuple([0] * 144)

    def test_large_arrowless_needs_no_recursion(self):
        # one search step per vertex, one shell per twin class
        n = 1100
        q = Quiver(tuple(tuple([0] * n) for _ in range(n)))
        key = canonical_key(q)
        assert len(key) == n * n and not any(key)

    def test_agrees_with_recursive_reference(self):
        rng = random.Random(17)
        quivers = []
        for _ in range(150):
            n = rng.randint(1, 10)
            quivers.append(random_quiver(rng, n, mmax=rng.randint(1, 3)))
        for _ in range(40):
            # symmetric quivers, where the search branches: a random quiver
            # on half the vertices, doubled, with arrows across the halves
            h = rng.randint(1, 5)
            half = random_quiver(rng, h, mmax=1)
            across = [rng.randint(-1, 1) for _ in range(h * (h - 1) // 2)]
            perm = list(range(2 * h))
            rng.shuffle(perm)
            quivers.append(doubled(half, across, perm))
        for q in quivers + [BIG_LEFT, BIG_RIGHT, mutate_seq(BIG_LEFT, (0, 3))]:
            assert canonical_form(q) == recursive_canonical_form(q)

    @given(st.one_of(matrices, doubled_matrices))
    @example(
        # vertices 5 and 6 split only by telling an entry 1 at colour c from an
        # entry -1 at colour c + 1, which pack alike with a width of 2 M
        Quiver(
            (
                (0, -1, -1, 0, -1, 1, 0), (1, 0, 1, 1, 0, 0, 1),
                (1, -1, 0, 1, 0, -1, 0), (0, -1, -1, 0, 0, -1, -1),
                (1, 0, 0, 0, 0, 0, -1), (-1, 0, 1, 1, 0, 0, 0),
                (0, -1, 0, 1, 1, 0, 0),
            )
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_refinement_agrees_with_reference(self, q):
        colors, count = _refine_colors(q.b)
        assert (list(colors), count) == reference_refine_colors(q.b)

    # two labelings of one regular tournament on 11 vertices (the circulant
    # i -> i+1..i+5 with directed 3-cycles reversed), row i of b as signs
    TOURNAMENT = (
        "0-++-++---+", "+0+-+--++--", "--0+++++---", "-+-0--++++-",
        "+--+0+-+-+-", "-+-+-0+--++", "-+--+-0-+++", "+----++0+-+",
        "+-+-++--0+-", "+++----+-0+", "-++++---+-0",
    )
    TOURNAMENT_RELABELED = (
        "0+-+--+--++", "-0---+-++++", "++0++----+-", "-+-0++-+--+",
        "++--0-+++--", "+-+-+0--+-+", "-+++-+0---+", "+-+--++0+--",
        "+-++--+-0+-", "---+++++-0-", "--+-+--+++0",
    )

    @given(
        st.lists(st.tuples(*[st.integers(0, 10)] * 3), max_size=30),
        st.permutations(range(11)),
    )
    @settings(max_examples=40, deadline=None)
    def test_tournament_relabeling_invariance(self, triples, perm):
        # regular tournaments: the circulant i -> i+1..i+5 with some directed
        # 3-cycles reversed
        b = [[0] * 11 for _ in range(11)]
        for i in range(11):
            for d in range(1, 6):
                b[i][(i + d) % 11], b[(i + d) % 11][i] = 1, -1
        for i, j, l in triples:
            if b[i][j] == b[j][l] == b[l][i] == 1:
                for x, y in ((i, j), (j, l), (l, i)):
                    b[x][y], b[y][x] = -1, 1
        q = Quiver(tuple(map(tuple, b)))
        assert canonical_key(q) == canonical_key(relabel(q, perm))

    def test_tournament_labelings_share_a_key(self):
        # the search must prune on prefixes of the key it minimises, or one
        # of these labelings loses its least key
        sign = {"+": 1, "-": -1, "0": 0}
        q1, q2 = (
            Quiver(tuple(tuple(sign[c] for c in row) for row in rows))
            for rows in (self.TOURNAMENT, self.TOURNAMENT_RELABELED)
        )
        assert canonical_key(q1) == canonical_key(q2)
        pi = find_isomorphism(q1, q2)
        assert pi is not None and relabel(q1, pi) == q2


class TestMutationClass:
    def test_a3_class_size(self):
        # brute-force: the mutation class of the A3 path has 4 quivers up to
        # relabeling (two path orientations merge, middle-sink, middle-source,
        # and the oriented triangle)
        seen = {canonical_key(a_path(3))}
        frontier = [a_path(3)]
        while frontier:
            q = frontier.pop()
            for k in range(3):
                m = mutate(q, k)
                key = canonical_key(m)
                if key not in seen:
                    seen.add(key)
                    frontier.append(m)
        assert len(seen) == 4

    def test_markov_quiver_rigid(self):
        markov = quiver_from_arrows(3, [(0, 1, 2), (1, 2, 2), (2, 0, 2)])
        for k in range(3):
            assert is_isomorphic(mutate(markov, k), markov)


class TestMutationEquivalent:
    def test_path_and_triangle(self):
        q1 = a_path(3)
        q2 = quiver_from_arrows(3, [(0, 1), (1, 2), (2, 0)])
        res = mutation_equivalent(q1, q2)
        assert isinstance(res, Equivalent)
        assert is_isomorphic(mutate_seq(q1, res.witness), q2)

    def test_invariant_mismatch(self):
        a4 = a_path(4)
        d4 = quiver_from_arrows(4, [(1, 0), (2, 0), (3, 0)])
        res = mutation_equivalent(a4, d4)
        assert isinstance(res, DistinctByInvariant)

    def test_exhaustion_proof(self):
        # same (n, |det|, rank) but disjoint finite orbits
        q1 = a_path(3)
        q2 = quiver_from_arrows(3, [(0, 1, 2)])
        assert quick_invariants(q1) == quick_invariants(q2)
        res = mutation_equivalent(q1, q2)
        assert isinstance(res, DistinctByInvariant)
        assert "exhaust" in res.reason

    def test_identical_inputs(self):
        res = mutation_equivalent(BIG_LEFT, BIG_LEFT)
        assert isinstance(res, Equivalent)
        assert res.witness == ()

    def test_cap_applies_to_start_quivers(self):
        # every mutation of q1 keeps its 70-fold arrow, so the search may
        # explore nothing, even where the rewritten entries stay small
        q1 = quiver_from_arrows(3, [(0, 1, 70), (1, 2, 1)])
        res = mutation_equivalent(q1, mutate(q1, 2))
        assert isinstance(res, Unknown)
        assert res.reason.startswith(f"orbits disjoint below multiplicity cap {MAX_MULT};")

    def test_p5_pair_at_200_lookups(self):
        # the full-twist divides of acceptance check P5: 21-vertex quivers
        # whose search stops on its budget
        left = scannable(4, (), (1, 3, 2, 1, 3, 2, 2, 1, 3, 2, 1, 3), ())
        right = scannable(4, (1, 3), (2, 1, 3, 2, 1, 3, 2, 1, 3, 2), (1, 3))
        q1, q2 = (quiver_of_divide(scannable_to_planar(s)) for s in (left, right))
        b = CountingBudget(max_states=200, max_seconds=600)
        assert mutation_equivalent(q1, q2, b) == Unknown("search budget exhausted")
        assert b.states == 201

    def test_big_pair_by_search(self):
        res = mutation_equivalent(
            BIG_LEFT, BIG_RIGHT, Budget(max_states=200000, max_seconds=120)
        )
        assert isinstance(res, Equivalent)
        assert is_isomorphic(mutate_seq(BIG_LEFT, res.witness), BIG_RIGHT)


class TestBigPairSequence:
    def test_five_step_sequence(self):
        assert mutate_seq(BIG_LEFT, (0, 3, 2, 1, 0)) == BIG_RIGHT


class TestTextFormat:
    def test_round_trip(self):
        q = quiver_from_arrows(4, [(0, 1), (1, 2, 2), (3, 0)])
        assert parse_quiver(format_quiver(q)) == q

    def test_parse_errors(self):
        for text, error in [
            ("a 0 1\nn 2\n", "line 1: arrow before vertex count"),
            ("n 2\na 0 5\n", "line 2: arrow endpoint out of range"),
            ("n 2\na 0 0\n", "line 2: loop at vertex 0"),
            ("n 2\nn 3\n", "line 2: second vertex count"),
            ("n -3\n", "line 1: negative vertex count"),
            ("n x\n", "line 1: n takes integers"),
            ("n 2\na 0 1 y\n", "line 2: a takes integers"),
            ("n 2\na 0 1 0\n", "line 2: arrow multiplicity must be positive"),
            ("n 2\na 0 1 -2\n", "line 2: arrow multiplicity must be positive"),
        ]:
            with pytest.raises(ValueError, match=f"^{error}"):
                parse_quiver(text)
