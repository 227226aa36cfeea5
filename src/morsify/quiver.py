"""Quivers (skew-symmetric exchange matrices) and mutation equivalence.

A quiver on ``n`` vertices is stored as the skew-symmetric integer matrix
``b`` with ``b[i][j]`` = (number of arrows ``i -> j``) minus (number of
arrows ``j -> i``); 2-cycles cancel by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

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


def mutate(q: Quiver, k: int) -> Quiver:
    n = q.n
    if not 0 <= k < n:
        raise ValueError(f"mutation vertex {k} out of range")
    b = q.b
    nb = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == k or j == k:
                nb[i][j] = -b[i][j]
            else:
                nb[i][j] = b[i][j] + (
                    abs(b[i][k]) * b[k][j] + b[i][k] * abs(b[k][j])
                ) // 2
    return Quiver(tuple(tuple(row) for row in nb))


def mutate_seq(q: Quiver, ks) -> Quiver:
    for k in ks:
        q = mutate(q, k)
    return q


# ---------------------------------------------------------------------------
# Canonical form and isomorphism


def _refine_colors(b: tuple) -> list:
    n = len(b)
    colors = [
        (
            tuple(sorted(x for x in b[i] if x > 0)),
            tuple(sorted(x for x in b[i] if x < 0)),
        )
        for i in range(n)
    ]
    for _ in range(n):
        new = []
        for i in range(n):
            # zero entries are implied by the class sizes
            sig = tuple(sorted((colors[j], x) for j, x in enumerate(b[i]) if x))
            new.append((colors[i], sig))
        ranks = {c: r for r, c in enumerate(sorted(set(new)))}
        new_ranked = [ranks[c] for c in new]
        if len(set(new_ranked)) == len(set(colors)):
            colors = new_ranked
            break
        colors = new_ranked
    return colors


def canonical_form(q: Quiver) -> tuple:
    """``(key, order)``: the matrix relabeled by a canonical vertex order,
    flattened row by row, and that order (``order[t]`` is the original label
    placed at canonical position ``t``).

    The order minimises the *shell key* over the orders that respect the
    colour refinement: vertex ``t`` contributes the shell
    ``b[o_t][o_0], ..., b[o_t][o_{t-1}]``.  The shells determine the
    skew-symmetric matrix, and the key of a partial order is a prefix of the
    key of every completion.  So a partial order is extended only by the
    vertices of least shell, and a branch is cut as soon as its key exceeds
    the best key's prefix of the same length."""
    b = q.b
    n = q.n
    if n == 0:
        return (), ()
    colors = _refine_colors(b)
    classes: dict = {}
    for i, c in enumerate(colors):
        classes.setdefault(c, []).append(i)
    groups = [classes[c] for c in sorted(classes)]
    best_key: list = [None]
    best_order: list = [None]
    # "twins" (vertices that an automorphism swaps: zero arrow between them,
    # identical rows elsewhere, that is, equal rows) need only one
    # representative per branch
    first: dict = {}
    twin_class = [first.setdefault(row, i) for i, row in enumerate(b)]

    def search(order, key, gi, placed_in_group):
        if gi == len(groups):
            if best_key[0] is None or key < best_key[0]:
                best_key[0] = key
                best_order[0] = tuple(order)
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
            if best_key[0] is not None and cand > best_key[0][: len(cand)]:
                continue
            if placed_in_group + 1 == len(groups[gi]):
                search(order + [nxt], cand, gi + 1, 0)
            else:
                search(order + [nxt], cand, gi, placed_in_group + 1)

    search([], [], 0, 0)
    order = best_order[0]
    return tuple(b[i][j] for i in order for j in order), order


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
            nq = mutate(q, k)
            if any(abs(x) > MAX_MULT for row in nq.b for x in row):
                capped = True
            else:
                yield k, nq

    # bidirectional BFS over isomorphism classes, expanding the smaller side
    front1 = Frontier(q1, canonical_key, neighbours)
    front2 = Frontier(q2, canonical_key, neighbours)
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
            if new and key in other.seen:
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
        if kw == "n":
            n = int(args[0])
            continue
        if n is None:
            raise fail("arrow before vertex count")
        i, j = int(args[0]), int(args[1])
        m = int(args[2]) if len(args) > 2 else 1
        if not (0 <= i < n and 0 <= j < n):
            raise fail("arrow endpoint out of range")
        arrows.append((i, j, m))
    if n is None:
        raise ValueError("missing vertex count line 'n <int>'")
    return quiver_from_arrows(n, arrows)


def format_quiver(q: Quiver) -> str:
    lines = [f"n {q.n}"]
    for i, j, m in q.arrows():
        lines.append(f"a {i} {j} {m}" if m != 1 else f"a {i} {j}")
    return "\n".join(lines) + "\n"
