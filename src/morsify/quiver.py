"""Quivers (skew-symmetric exchange matrices) and mutation equivalence.

A quiver on ``n`` vertices is stored as the skew-symmetric integer matrix
``b`` with ``b[i][j]`` = (number of arrows ``i -> j``) minus (number of
arrows ``j -> i``); 2-cycles cancel by construction.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain, compress
from operator import add, itemgetter

from ._common import Budget, DistinctByInvariant, Equivalent, Unknown, Verdict
from ._common import bareiss, read_directives
from ._search import Frontier

# mutation_equivalent explores no quiver with an arrow multiplicity above this
MAX_MULT = 64


@dataclass(frozen=True)
class Quiver:
    b: tuple  # tuple of tuples, skew-symmetric

    def __post_init__(self):
        b = tuple(tuple(int(x) for x in row) for row in self.b)
        object.__setattr__(self, "b", b)
        n = len(b)
        for row in b:
            if len(row) != n:
                raise ValueError("exchange matrix must be square")
        for i in range(n):
            for j in range(n):
                if b[i][j] != -b[j][i]:
                    raise ValueError("exchange matrix must be skew-symmetric")

    @property
    def n(self) -> int:
        return len(self.b)

    def arrows(self) -> list[tuple[int, int, int]]:
        """(source, target, multiplicity) with positive multiplicity."""
        out = []
        for i in range(self.n):
            for j in range(i + 1, self.n):
                m = self.b[i][j]
                if m > 0:
                    out.append((i, j, m))
                elif m < 0:
                    out.append((j, i, -m))
        return out

    def opposite(self) -> "Quiver":
        return Quiver(tuple(tuple(-x for x in row) for row in self.b))


def quiver_from_arrows(n: int, arrows) -> Quiver:
    b = [[0] * n for _ in range(n)]
    for a in arrows:
        i, j, *rest = a
        m = rest[0] if rest else 1
        b[i][j] += m
        b[j][i] -= m
    return Quiver(tuple(tuple(row) for row in b))


def _quiver(b: tuple) -> Quiver:
    """A :class:`Quiver` on a tuple of int tuples known to be skew-symmetric,
    built without the checks of ``Quiver(...)``."""
    q = object.__new__(Quiver)
    object.__setattr__(q, "b", b)
    return q


def mutate(q: Quiver, k: int) -> Quiver:
    """The quiver mutated at ``k``: for every path ``i -> k -> j`` add the
    composite arrows ``i -> j`` (cancelling 2-cycles), then reverse every
    arrow at ``k`` (Fomin & Zelevinsky).

    Row ``k`` names the neighbours: ``y = b[k][j] > 0`` arrows ``k -> j``
    and ``-x`` arrows ``i -> k`` where ``x = b[k][i] < 0``; each such pair
    adds ``-x * y`` arrows ``i -> j``.  Only row and column ``k`` and the
    entries between the in- and out-neighbours of ``k`` change, so only the
    rows of the neighbours are copied.  Each write is mirrored, so the
    result is skew-symmetric by construction and is not checked again."""
    if not 0 <= k < q.n:
        raise ValueError(f"mutation vertex {k} out of range")
    b = q.b
    bk = b[k]
    rows = [list(row) if x else row for row, x in zip(b, bk)]
    outs = [(j, y) for j, y in enumerate(bk) if y > 0]
    for i, x in enumerate(bk):
        if x < 0:
            ri = rows[i]
            for j, y in outs:
                v = ri[j] - x * y
                ri[j] = v
                rows[j][i] = -v
    for i, x in enumerate(bk):
        if x:
            rows[i][k] = x
            rows[i] = tuple(rows[i])
    rows[k] = tuple(-x for x in bk)
    return _quiver(tuple(rows))


def mutate_seq(q: Quiver, ks) -> Quiver:
    for k in ks:
        q = mutate(q, k)
    return q


# ---------------------------------------------------------------------------
# Canonical form and isomorphism


def _signs(row: tuple) -> tuple:
    """A sorted row as its positive entries and its negative entries."""
    return row[bisect_right(row, 0) :], row[: bisect_left(row, 0)]


def _refine_colors(b: tuple) -> tuple:
    """Colour refinement and its number of colours.

    Round 0 colours each row by its sorted positive and its sorted negative
    entries.  Every later round splits by the multiset of (colour, entry)
    over the nonzero entries of the row (the zero entries follow from the
    class sizes), until the partition is stable or discrete.  The colours
    are ranks, so a lower colour means a smaller signature in every round.

    A round keeps the order of the classes, so only the members of classes
    of two or more are signed: a multiset is the sorted tuple of
    ``colour * (2 M + 1) + entry + M`` (``M`` the largest entry), which
    sorts like the (colour, entry) pairs it packs.
    """
    n = len(b)
    rows = list(map(tuple, map(sorted, b)))
    rank_of = {row: r for r, row in enumerate(sorted(set(rows), key=_signs))}
    count = len(rank_of)
    colors = list(map(rank_of.__getitem__, rows))
    if count == n:
        return colors, count
    m = _peak(b)
    width = 2 * m + 1
    labels = range(n)
    while True:
        classes = [[] for _ in range(count)]
        for i, c in enumerate(colors):
            classes[c].append(i)
        # colour * width + M for each column, plus the entry
        at = [c * width + m for c in colors].__getitem__
        rank = 0
        for members in classes:
            if len(members) > 1:
                sigs = [
                    tuple(sorted(map(add, map(at, compress(labels, row)), filter(None, row))))
                    for row in map(b.__getitem__, members)
                ]
                distinct = sorted(set(sigs))
                if len(distinct) > 1:
                    ranks = {s: r for r, s in enumerate(distinct, rank)}
                    for i, s in zip(members, sigs):
                        colors[i] = ranks[s]
                    rank += len(distinct)
                    continue
            for i in members:
                colors[i] = rank
            rank += 1
        if rank in (count, n):
            return colors, rank
        count = rank


def _relabeled(b: tuple, order) -> tuple:
    """The matrix ``b`` relabeled by ``order``, flattened row by row."""
    if len(order) == 1:
        return (b[order[0]][order[0]],)
    pick = itemgetter(*order)
    return tuple(chain.from_iterable(map(pick, pick(b))))


def canonical_form(q: Quiver) -> tuple:
    """``(key, order)``: the matrix relabeled by a canonical vertex order,
    flattened row by row, and that order (``order[t]`` is the original label
    placed at canonical position ``t``).

    The order minimises the *shell key* over the orders that respect the
    colour refinement: vertex ``t`` contributes the shell
    ``b[o_t][o_0], ..., b[o_t][o_{t-1}]``.  When the refinement is discrete
    the order is the colour order and nothing is searched.  Otherwise a
    depth-first branch and bound on an explicit stack fills the order class
    by class.  The shells determine the skew-symmetric matrix, and the key
    of a partial order is a prefix of the key of every completion.  So a
    partial order is extended only by the vertices of least shell (one per
    class of twins, vertices with equal rows), and a branch is cut as soon
    as its newest shell exceeds the best order's shell at that position."""
    b = q.b
    n = q.n
    if n == 0:
        return (), ()
    colors, count = _refine_colors(b)
    if count == n:
        order = sorted(range(n), key=colors.__getitem__)
        return _relabeled(b, order), tuple(order)
    classes = [[] for _ in range(count)]
    for i, c in enumerate(colors):
        classes[c].append(i)
    # the class of each position, filled class by class
    group_at = [members for members in classes for _ in members]
    # twins (equal rows, so an automorphism swaps them) are placed in label
    # order: a vertex is a candidate once its previous twin is placed, and
    # the sentinel n stands for "no previous twin"
    placed = [False] * n + [True]
    last: dict = {}
    prev = [n] * n
    for i, row in enumerate(b):
        prev[i] = last.get(row, n)
        last[row] = i
    order: list = []
    shells: list = []  # the shell of each vertex of order
    best_shells: list = []
    best_order: tuple = ()
    # the key of order is below the best key's prefix from position
    # free - 1 on; 0 while there is no best key, n + 1 when it is a prefix
    free = 0

    def choices(t: int) -> list:
        """``[least shell, the candidates that have it, next index]`` for
        position ``t``; a shell of one entry is that entry."""
        if not t:
            return [(), [v for v in group_at[0] if prev[v] == n], 0]
        shell_of = itemgetter(*order)
        least, cands = None, []
        for v in group_at[t]:
            if placed[v] or not placed[prev[v]]:
                continue
            shell = shell_of(b[v])
            if least is None or shell < least:
                least, cands = shell, [v]
            elif shell == least:
                cands.append(v)
        return [least, cands, 0]

    stack = [choices(0)]
    while stack:
        frame = stack[-1]
        least, cands, i = frame
        t = len(stack) - 1
        if i:  # undo the previous choice at position t
            placed[order.pop()] = False
            shells.pop()
        if free > t:  # key is the best key's prefix so far
            best = best_shells[t]
            if least > best:
                i = len(cands)  # every candidate here has this shell
            else:
                free = t + 1 if least < best else n + 1
        if i == len(cands):
            stack.pop()
            continue
        frame[2] = i + 1
        v = cands[i]
        placed[v] = True
        order.append(v)
        shells.append(least)
        if t + 1 < n:
            stack.append(choices(t + 1))
        elif free <= n:
            best_shells, best_order, free = shells[:], tuple(order), n + 1
    return _relabeled(b, best_order), best_order


def canonical_key(q: Quiver) -> tuple:
    return canonical_form(q)[0]


def find_isomorphism(q1: Quiver, q2: Quiver):
    """A relabeling ``pi`` with ``q2.b[pi[i]][pi[j]] == q1.b[i][j]``, or None."""
    if q1.n != q2.n:
        return None
    k1, o1 = canonical_form(q1)
    k2, o2 = canonical_form(q2)
    if k1 != k2:
        return None
    pi = [0] * q1.n
    for t in range(q1.n):
        pi[o1[t]] = o2[t]
    return tuple(pi)


def is_isomorphic(q1: Quiver, q2: Quiver, up_to_reversal: bool = False) -> bool:
    if q1.n != q2.n:
        return False
    k1 = canonical_key(q1)
    if k1 == canonical_key(q2):
        return True
    if up_to_reversal:
        return k1 == canonical_key(q2.opposite())
    return False


# ---------------------------------------------------------------------------
# Mutation invariants and mutation equivalence


def quick_invariants(q: Quiver) -> tuple:
    """Invariants preserved by every mutation: size, |det|, rank."""
    d, r = bareiss(q.b)
    return (q.n, abs(d), r)


def _peak(b: tuple) -> int:
    """The largest arrow multiplicity of a nonempty skew-symmetric matrix,
    which is its largest entry."""
    return max(chain.from_iterable(b))


def mutation_equivalent(q1: Quiver, q2: Quiver, budget: Budget = Budget()) -> Verdict:
    """Bidirectional search for a mutation sequence from ``q1`` to ``q2``.

    ``Equivalent(witness)`` carries a sequence of mutation vertices of ``q1``
    (in the labeling of ``q1``) reaching a quiver isomorphic to ``q2``.
    Arrow multiplicities above ``MAX_MULT`` are not explored; if the search
    exhausts all reachable quivers under that cap the verdict is by orbit
    exhaustion, otherwise the budget yields ``Unknown``.
    """
    inv1, inv2 = quick_invariants(q1), quick_invariants(q2)
    if inv1 != inv2:
        return DistinctByInvariant(
            f"mutation invariants differ: {inv1} != {inv2}"
        )
    clock = budget.start()
    capped = False

    def neighbours(q):
        nonlocal capped
        for k in range(q.n):
            nb = mutate(q, k)
            if _peak(nb.b) > MAX_MULT:
                capped = True
            else:
                yield k, nb

    # The key of the exact matrix of every quiver either side has queued.
    # Mutating back at the last vertex, or at two non-adjacent vertices in
    # the other order, reaches a queued matrix again.
    memo = {q.b: canonical_key(q) for q in (q1, q2)}
    looked_up = None  # the matrix of the last quiver keyed

    def canon(q):
        nonlocal looked_up
        looked_up = q.b
        key = memo.get(looked_up)
        return canonical_key(q) if key is None else key

    # bidirectional BFS over isomorphism classes, expanding the smaller side
    front1 = Frontier(q1, canon, neighbours)
    front2 = Frontier(q2, canon, neighbours)
    if front1.seen.keys() == front2.seen.keys():
        return Equivalent(())
    while front1 or front2:
        if front1 and (not front2 or len(front1) <= len(front2)):
            side, other = front1, front2
        else:
            side, other = front2, front1
        for key, _, new in side.step():
            # one state per mutation looked up, before deduplication
            if not clock.tick():
                return Unknown("search budget exhausted")
            if not new:
                continue
            # step queues a new quiver right after keying it
            memo[looked_up] = key
            if key in other.seen:
                fwd, back = front1.seen[key], front2.seen[key]
                # meeting point: mutate_seq(q1, fwd) and mutate_seq(q2, back)
                # are isomorphic.  Undo the backward path (mutation is an
                # involution) after translating its vertex labels through the
                # isomorphism.
                pi = find_isomorphism(mutate_seq(q1, fwd), mutate_seq(q2, back))
                inv_pi = {pi[i]: i for i in range(len(pi))}
                return Equivalent(fwd + tuple(inv_pi[k] for k in reversed(back)))
    if capped:
        return Unknown(
            f"orbits disjoint below multiplicity cap {MAX_MULT}; "
            "equivalence through larger quivers not ruled out"
        )
    return DistinctByInvariant("mutation orbits are disjoint (exhausted)")


# ---------------------------------------------------------------------------
# Text format


_QVR_USAGE = {
    "n": (1, 1, "n takes one vertex count"),
    "a": (2, 3, "a takes two vertices and an optional multiplicity"),
}


def parse_quiver(text: str) -> Quiver:
    n = None
    arrows = []
    for kw, args, fail in read_directives(text, _QVR_USAGE):
        try:
            nums = [int(a) for a in args]
        except ValueError:
            raise fail(f"{kw} takes integers, not {' '.join(args)!r}") from None
        if kw == "n":
            if n is not None:
                raise fail("second vertex count")
            if nums[0] < 0:
                raise fail("negative vertex count")
            n = nums[0]
            continue
        if n is None:
            raise fail("arrow before vertex count")
        i, j = nums[0], nums[1]
        if not (0 <= i < n and 0 <= j < n):
            raise fail("arrow endpoint out of range")
        if i == j:
            raise fail(f"loop at vertex {i}: a quiver has no loops")
        m = nums[2] if len(nums) > 2 else 1
        if m <= 0:
            raise fail(f"arrow multiplicity must be positive, not {m}")
        arrows.append((i, j, m))
    if n is None:
        raise ValueError("missing vertex count line 'n <int>'")
    return quiver_from_arrows(n, arrows)


def format_quiver(q: Quiver) -> str:
    lines = [f"n {q.n}"]
    for i, j, m in q.arrows():
        lines.append(f"a {i} {j} {m}" if m != 1 else f"a {i} {j}")
    return "\n".join(lines) + "\n"
