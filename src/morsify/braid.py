"""Positive braid monoid: words, Garside left normal form, and isotopy search.

Words live in the positive monoid on ``k`` strands with Artin generators
``sigma_1 .. sigma_{k-1}``.  Two positive words are *positive-equal* when they
are related by Artin relations alone; equality is decided through the Garside
left normal form, with permutation braids stored as permutations.

Conventions
-----------
* Permutations are tuples ``p`` of length ``k`` over ``0..k-1`` acting on
  strand positions, ``p[i]`` = final position of the strand starting at ``i``.
* ``compose(p, q)`` applies ``p`` first, then ``q``.
* A word is read left to right; its underlying permutation is the ordered
  product of the generator transpositions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Optional, Sequence

from ._common import Budget, DistinctByInvariant, Equivalent, Unknown, Verdict
from ._search import Frontier


# ---------------------------------------------------------------------------
# Words


@dataclass(frozen=True)
class PositiveBraidWord:
    """A word in the positive braid monoid on ``k`` strands."""

    k: int
    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("strand count must be >= 1")
        object.__setattr__(self, "letters", tuple(self.letters))
        for a in self.letters:
            if not 1 <= a <= self.k - 1:
                raise ValueError(f"generator index {a} out of range for k={self.k}")

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "PositiveBraidWord") -> "PositiveBraidWord":
        if other.k != self.k:
            raise ValueError("strand count mismatch")
        return PositiveBraidWord(self.k, self.letters + other.letters)

    def __pow__(self, n: int) -> "PositiveBraidWord":
        return PositiveBraidWord(self.k, self.letters * n)


def word(k: int, letters: Iterable[int]) -> PositiveBraidWord:
    return PositiveBraidWord(k, tuple(letters))


def parse_braid_word(text: str) -> PositiveBraidWord:
    """Parse the text form ``k <int> : <indices separated by spaces>``."""
    head, _, tail = text.partition(":")
    parts = head.split()
    if not parts or not parts[0].isdigit():
        raise ValueError(f"malformed braid word header: {text!r}")
    k = int(parts[0])
    if len(parts) > 1:
        raise ValueError(f"malformed braid word header: {text!r}")
    letters = tuple(int(tok) for tok in tail.split())
    return PositiveBraidWord(k, letters)


def format_braid_word(w: PositiveBraidWord) -> str:
    return f"{w.k} : " + " ".join(str(a) for a in w.letters)


# ---------------------------------------------------------------------------
# Permutations


def identity_perm(k: int) -> tuple[int, ...]:
    return tuple(range(k))


def compose(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """Apply ``p`` first, then ``q``."""
    return tuple(q[p[i]] for i in range(len(p)))


def inverse_perm(p: Sequence[int]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def generator_perm(k: int, j: int) -> tuple[int, ...]:
    """Transposition of positions ``j`` and ``j+1`` (1-based generator index)."""
    p = list(range(k))
    p[j - 1], p[j] = p[j], p[j - 1]
    return tuple(p)


def half_twist_perm(k: int) -> tuple[int, ...]:
    return tuple(range(k - 1, -1, -1))


def starting_set(p: Sequence[int]) -> set[int]:
    """Generators sigma_j left-dividing the permutation braid of ``p``."""
    return {j for j in range(1, len(p)) if p[j - 1] > p[j]}


def finishing_set(p: Sequence[int]) -> set[int]:
    """Generators sigma_j right-dividing the permutation braid of ``p``."""
    pi = inverse_perm(p)
    return {j for j in range(1, len(p)) if pi[j - 1] > pi[j]}


def word_of_perm(p: Sequence[int]) -> tuple[int, ...]:
    """A canonical reduced word for the permutation braid of ``p``."""
    out: list[int] = []
    cur = tuple(p)
    ident = identity_perm(len(p))
    while cur != ident:
        j = min(starting_set(cur))
        out.append(j)
        # strip sigma_j from the left: cur = sigma_j * rest
        cur = compose(generator_perm(len(p), j), cur)
    return tuple(out)


def underlying_permutation(w: PositiveBraidWord) -> tuple[int, ...]:
    """Image of the word in the symmetric group (positions ``0..k-1``)."""
    p = identity_perm(w.k)
    for a in w.letters:
        p = compose(p, generator_perm(w.k, a))
    return p


def cycle_type(p: Sequence[int]) -> tuple[int, ...]:
    seen = [False] * len(p)
    lens = []
    for i in range(len(p)):
        if seen[i]:
            continue
        n, j = 0, i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            n += 1
        lens.append(n)
    return tuple(sorted(lens))


def cycle_count(p: Sequence[int]) -> int:
    return len(cycle_type(p))


# ---------------------------------------------------------------------------
# Garside left normal form


@dataclass(frozen=True)
class NormalForm:
    """Left-weighted normal form ``Delta^p . f1 . f2 ...``.

    ``factors`` are permutations of ``0..k-1``; none is the identity or the
    half twist; each consecutive pair ``(a, b)`` satisfies
    ``starting_set(b) <= finishing_set(a)``.

    It is built by appending simple elements (El-Rifai & Morton, 1994): to
    multiply a left-weighted sequence on the right by a simple ``s``, append
    ``s`` and left-weight the pairs ``(f_i, f_{i+1})`` from right to left,
    stopping at the first pair that is left-weighted already; identities
    collect at the end and are dropped, half twists at the front and are
    counted in ``delta_power``.
    """

    k: int
    delta_power: int
    factors: tuple[tuple[int, ...], ...]

    def __str__(self) -> str:
        fs = " ; ".join(" ".join(str(x + 1) for x in f) for f in self.factors)
        return f"D^{self.delta_power} | {fs}"


def _left_weight_pair(a: tuple[int, ...], b: tuple[int, ...]):
    """Slide generators from the head of ``b`` to the tail of ``a`` until the
    pair is left-weighted, preserving the product ``D(a) D(b)``; None when it
    is left-weighted already."""
    # a . sigma_j swaps two places of a's inverse, whose descents are a's
    # finishing set; sigma_j \ b swaps two places of b, whose descents are
    # b's starting set
    ai, b = list(inverse_perm(a)), list(b)
    moved = False
    j = 1
    while j < len(b):
        if b[j - 1] > b[j] and ai[j - 1] < ai[j]:
            b[j - 1], b[j] = b[j], b[j - 1]
            ai[j - 1], ai[j] = ai[j], ai[j - 1]
            moved = True
            j = max(j - 1, 1)
        else:
            j += 1
    return (inverse_perm(ai), tuple(b)) if moved else None


def _append(factors: list, s: tuple[int, ...], k: int) -> None:
    """Multiply the left-weighted ``factors`` on the right by the simple
    element ``s``, in place."""
    factors.append(s)
    for i in range(len(factors) - 2, -1, -1):
        pair = _left_weight_pair(factors[i], factors[i + 1])
        if pair is None:
            break
        factors[i], factors[i + 1] = pair
    ident = identity_perm(k)
    while factors and factors[-1] == ident:
        factors.pop()


def _fold(k: int, simples: Iterable[tuple[int, ...]]) -> NormalForm:
    """The normal form of a product of simple elements on ``k`` strands."""
    factors: list = []
    for s in simples:
        _append(factors, s, k)
    delta = half_twist_perm(k)
    power = 0
    while power < len(factors) and factors[power] == delta:
        power += 1
    return NormalForm(k, power, tuple(factors[power:]))


def _gens(k: int, letters: Iterable[int]) -> list[tuple[int, ...]]:
    return [generator_perm(k, a) for a in letters]


def _simples(nf: NormalForm) -> list[tuple[int, ...]]:
    """The factors of ``nf`` with ``Delta^p`` spelled as ``p`` half twists."""
    return [half_twist_perm(nf.k)] * nf.delta_power + list(nf.factors)


def _word(k: int, simples: Iterable[tuple[int, ...]]) -> PositiveBraidWord:
    return PositiveBraidWord(k, tuple(chain.from_iterable(map(word_of_perm, simples))))


def left_normal_form(w: PositiveBraidWord) -> NormalForm:
    return _fold(w.k, _gens(w.k, w.letters))


def delta(k: int) -> PositiveBraidWord:
    """The half-twist word ``(s1)(s2 s1)...(s_{k-1} ... s1)``."""
    letters: list[int] = []
    for m in range(1, k):
        letters.extend(range(m, 0, -1))
    return PositiveBraidWord(k, tuple(letters))


def nf_to_word(nf: NormalForm) -> PositiveBraidWord:
    return _word(nf.k, _simples(nf))


def canonical_word(w: PositiveBraidWord) -> PositiveBraidWord:
    return nf_to_word(left_normal_form(w))


def positive_equal(u: PositiveBraidWord, v: PositiveBraidWord) -> bool:
    """Equality in the positive monoid (Artin relations only)."""
    if u.k != v.k:
        raise ValueError("strand count mismatch")
    return left_normal_form(u) == left_normal_form(v)


def delta_divisibility(w: PositiveBraidWord) -> int:
    """Maximal ``p`` such that ``Delta^p`` left-divides ``w``."""
    return left_normal_form(w).delta_power


# ---------------------------------------------------------------------------
# Isotopy moves and the search over normal forms
#
# A move is ``(move, k, simples)``: the moved braid on ``k`` strands as a
# product of simple elements, which the search folds into a normal form and
# a replay spells as a word.


def _nf_key(nf: NormalForm):
    return (nf.k, nf.delta_power, nf.factors)


def _cyclic_moves(nf: NormalForm) -> Iterator[tuple]:
    """``("L", j)``: strip ``sigma_j`` from the first simple factor and append
    it; ``("R", j)``: strip it from the last and prepend it."""
    fs, k = _simples(nf), nf.k
    if not fs:
        return
    for j in sorted(starting_set(fs[0])):
        s = generator_perm(k, j)
        yield ("L", j), k, [compose(s, fs[0])] + fs[1:] + [s]
    for j in sorted(finishing_set(fs[-1])):
        s = generator_perm(k, j)
        yield ("R", j), k, [s] + fs[:-1] + [compose(fs[-1], s)]


def _markov_moves(nf: NormalForm, k_cap: int) -> Iterator[tuple]:
    """Positive Markov moves of the canonical word: drop the only top
    generator (at index ``i``) with a cyclic shift, or add a strand below
    ``k_cap`` strands."""
    w = nf_to_word(nf)
    positions = [i for i, a in enumerate(w.letters) if a == w.k - 1]
    if len(positions) == 1:
        i = positions[0]
        rest = w.letters[i + 1 :] + w.letters[:i]
        yield ("destab", i), w.k - 1, _gens(w.k - 1, rest)
    if w.k < k_cap:
        yield ("stab",), w.k + 1, _gens(w.k + 1, w.letters + (w.k,))


def conjugation_neighbors(
    w: PositiveBraidWord,
) -> Iterator[tuple[tuple[str, int], PositiveBraidWord]]:
    """One-letter cyclic moves: strip a dividing generator from one side and
    reattach it on the other."""
    return ((m, _word(k, ss)) for m, k, ss in _cyclic_moves(left_normal_form(w)))


def apply_conjugation(w: PositiveBraidWord, move: tuple) -> PositiveBraidWord:
    """Replay one witness step of :func:`solid_torus_isotopic` or
    :func:`positive_isotopic`: ``("L", j)`` and ``("R", j)`` move ``sigma_j``
    from one end of the word to the other, ``("destab", i)`` drops the only
    top generator, at index ``i`` of the canonical word, and ``("stab",)``
    adds a strand."""
    nf = left_normal_form(w)
    for m, k, ss in chain(_cyclic_moves(nf), _markov_moves(nf, w.k + 1)):
        if m == move:
            return _word(k, ss)
    raise ValueError(f"move {move!r} does not apply to {format_braid_word(w)}")


def _inversions(p: Sequence[int]) -> int:
    return sum(x > y for i, x in enumerate(p) for y in p[i + 1 :])


def _rank(nf: NormalForm) -> tuple[int, int]:
    """Strand count, then word length: the factors' inversion counts."""
    return nf.k, sum(map(_inversions, _simples(nf)))


def _braid_search(u, v, budget: Budget, moves) -> Optional[Verdict]:
    """Search the normal forms reachable from ``u`` by ``moves`` for that of
    ``v``, fewer strands and shorter words first; None when they run out."""

    def neighbours(nf):
        return ((m, _fold(k, ss)) for m, k, ss in moves(nf))

    front = Frontier(left_normal_form(u), _nf_key, neighbours, _rank)
    target = _nf_key(left_normal_form(v))
    if target in front.seen:
        return Equivalent(())
    clock = budget.start()
    while front:
        for key, path, new in front.step():
            # one state per new normal form, after the goal test
            if new:
                if key == target:
                    return Equivalent(path)
                if not clock.tick():
                    return Unknown("budget exhausted")
    return None


def solid_torus_isotopic(
    u: PositiveBraidWord, v: PositiveBraidWord, budget: Budget = Budget()
) -> Verdict:
    """Decide whether ``u`` and ``v`` are related by Artin relations plus
    cyclic shifts (closed positive braids in the solid torus)."""
    if u.k != v.k:
        # the winding number about the core of the solid torus
        return DistinctByInvariant("strand counts differ")
    if len(u) != len(v):
        return DistinctByInvariant("word lengths differ")
    if cycle_type(underlying_permutation(u)) != cycle_type(underlying_permutation(v)):
        return DistinctByInvariant("permutation cycle types differ")
    verdict = _braid_search(u, v, budget, _cyclic_moves)
    if verdict is None:
        return DistinctByInvariant("conjugacy orbit exhausted without meeting")
    return verdict


def markov_invariant(w: PositiveBraidWord) -> tuple[int, int]:
    """(exponent sum - strand count, closure component count): both preserved
    by Artin relations, cyclic shifts, and positive Markov moves."""
    return len(w) - w.k, cycle_count(underlying_permutation(w))


def positive_isotopic(
    u: PositiveBraidWord, v: PositiveBraidWord, budget: Budget = Budget()
) -> Verdict:
    """Decide positive isotopy of the closed braids (Artin relations, cyclic
    shifts, positive Markov stabilizations and destabilizations)."""
    if markov_invariant(u) != markov_invariant(v):
        return DistinctByInvariant(
            "markov invariant (exponent sum - strands, components) differs"
        )
    k_cap = max(u.k, v.k) + 1
    verdict = _braid_search(
        u, v, budget, lambda nf: chain(_cyclic_moves(nf), _markov_moves(nf, k_cap))
    )
    if verdict is None:
        return Unknown(
            f"reachable set exhausted within the strand cap {k_cap}; "
            "isotopy through braids on more strands not ruled out"
        )
    return verdict


# ---------------------------------------------------------------------------
# Divide -> braid compilers


def beta_of_scannable(s) -> PositiveBraidWord:
    """``beta = left . bulk . right . klub`` for a scannable divide ``s``.

    ``left``/``right`` are the U-turn generators (ascending), ``bulk`` the
    event word left to right, ``klub`` the event word right to left.
    """
    letters: list[int] = []
    letters.extend(sorted(s.left_turns))
    letters.extend(s.events)
    letters.extend(sorted(s.right_turns))
    letters.extend(reversed(s.events))
    return PositiveBraidWord(s.k, tuple(letters))


def beta_of_fence_word(w) -> PositiveBraidWord:
    """Sigma letters left to right, then tau letters right to left (as sigmas)."""
    sigmas = [i for kind, i in w.letters if kind == "s"]
    taus = [i for kind, i in w.letters if kind == "t"]
    return PositiveBraidWord(w.k, tuple(sigmas) + tuple(reversed(taus)))
