"""Link diagrams and their invariants.

Diagrams are planar-diagram (PD) codes: each crossing is a 4-tuple of arc
labels listed counterclockwise starting from the incoming under-strand,
together with its sign; ``free_loops`` counts crossing-free circles split
from the rest of the diagram.  Positive braid words close up to diagrams via
``closure``.

Invariants: component count, the (one-variable) Alexander polynomial, the
Kauffman bracket (capped state count), and the Jones polynomial in the
half-integer variable ``s`` with ``s^2 = t``.

The Alexander polynomial of a braid word is the reduced Burau determinant,
evaluated at the integers t = 2, 3, ... and recovered by exact integer
interpolation.  Of a diagram, it is a maximal minor of the Fox matrix of the
Wirtinger presentation, eliminated over Z[t, 1/t] by pivots on unit entries
``±t^k`` of sparse Laurent rows; the few rows left without a unit entry are
evaluated at t = 2, 3, ... and finished the same way.  Both routes use integer
arithmetic only (Bareiss determinants, no fractions).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Optional, Union

from ._common import UnionFind, bareiss, read_directives

Word = tuple  # of nonzero ints; letter i > 0 crosses strands i, i+1 positively


class CapExceeded(RuntimeError):
    """The diagram has more crossings than the requested state-sum cap."""


# ---------------------------------------------------------------------------
# Laurent polynomials (integer coefficients, one variable)


@dataclass(frozen=True)
class LaurentPoly:
    coeffs: tuple  # sorted ((exponent, coefficient), ...), coefficients nonzero

    def __post_init__(self):
        cleaned = tuple(
            (int(e), int(c)) for e, c in sorted(self.coeffs) if c != 0
        )
        object.__setattr__(self, "coeffs", cleaned)

    @staticmethod
    def from_dict(d: dict) -> "LaurentPoly":
        return LaurentPoly(tuple((e, c) for e, c in d.items() if c != 0))

    @staticmethod
    def constant(c: int) -> "LaurentPoly":
        return LaurentPoly(((0, c),) if c else ())

    @staticmethod
    def var(exp: int = 1, coef: int = 1) -> "LaurentPoly":
        return LaurentPoly(((exp, coef),))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.coeffs)
        for e, c in other.coeffs:
            out[e] = out.get(e, 0) + c
        return LaurentPoly.from_dict(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(tuple((e, -c) for e, c in self.coeffs))

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict = {}
        for e1, c1 in self.coeffs:
            for e2, c2 in other.coeffs:
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly.from_dict(out)

    def shift(self, k: int) -> "LaurentPoly":
        return LaurentPoly(tuple((e + k, c) for e, c in self.coeffs))

    def __call__(self, x: Fraction) -> Fraction:
        return sum((Fraction(c) * Fraction(x) ** e for e, c in self.coeffs), Fraction(0))

    def normalize(self) -> "LaurentPoly":
        """The unit-class representative: lowest exponent 0, top coefficient
        positive."""
        if self.is_zero:
            return self
        p = self.shift(-self.coeffs[0][0])
        if p.coeffs[-1][1] < 0:
            p = -p
        return p

    def mirror(self) -> "LaurentPoly":
        """Substitute the variable by its inverse."""
        return LaurentPoly(tuple((-e, c) for e, c in self.coeffs))


def format_poly(p: LaurentPoly, var: str = "t") -> str:
    if p.is_zero:
        return "0"
    return " + ".join(f"{c}*{var}^{e}" for e, c in p.coeffs)


def parse_poly(text: str, var: str = "t") -> LaurentPoly:
    text = text.strip()
    if text == "0":
        return LaurentPoly(())
    out: dict = {}
    for term in text.split("+"):
        term = term.strip()
        if not term:
            raise ValueError("empty term in polynomial")
        if "*" in term:
            cs, vs = term.split("*", 1)
            coef = int(cs.strip())
            vs = vs.strip()
            if not vs.startswith(var + "^"):
                raise ValueError(f"malformed power {vs!r}")
            exp = int(vs[len(var) + 1 :])
        else:
            coef = int(term)
            exp = 0
        out[exp] = out.get(exp, 0) + coef
    return LaurentPoly.from_dict(out)


_T0 = 2  # the first evaluation point of both Alexander routes; then 3, 4, ...


def _poly_through(ys: list) -> LaurentPoly:
    """The integer polynomial taking the values ``ys`` at t = 2, 3, ...

    The j-th forward difference divided by j! is the coefficient of the
    falling factorial (t-2)(t-3)...(t-1-j); that basis and the monomials
    differ by a unimodular change, so the division is exact exactly when
    every monomial coefficient is an integer.
    """
    newton = []
    diffs = list(ys)
    fact = 1
    for j in range(len(ys)):
        fact *= max(j, 1)  # j!
        c, r = divmod(diffs[0], fact)
        if r:
            raise ArithmeticError(
                "interpolated polynomial has a non-integer coefficient"
            )
        newton.append(c)
        diffs = [y - x for x, y in zip(diffs, diffs[1:])]
    coeffs: list = []  # ascending powers; Horner's rule on the Newton form
    for j in range(len(newton) - 1, -1, -1):
        a = _T0 + j
        coeffs = [0] + coeffs  # times t, then minus a times the old value
        for i in range(len(coeffs) - 1):
            coeffs[i] -= a * coeffs[i + 1]
        coeffs[0] += newton[j]
    return LaurentPoly(tuple(enumerate(coeffs)))


# ---------------------------------------------------------------------------
# Diagrams


@dataclass(frozen=True)
class LinkDiagram:
    crossings: tuple  # of ((a, b, c, d), sign); arcs counterclockwise from under-in
    free_loops: int = 0

    def __post_init__(self):
        object.__setattr__(
            self,
            "crossings",
            tuple((tuple(arcs), int(sign)) for arcs, sign in self.crossings),
        )
        counts: dict = {}
        for arcs, sign in self.crossings:
            if len(arcs) != 4 or sign not in (-1, 1):
                raise ValueError(f"malformed crossing {(arcs, sign)}")
            for a in arcs:
                counts[a] = counts.get(a, 0) + 1
        bad = sorted((a for a, c in counts.items() if c != 2), key=str)
        if bad:
            raise ValueError(f"arc labels must appear exactly twice: {bad[:4]}")
        if self.free_loops < 0:
            raise ValueError("free_loops must be nonnegative")

    @property
    def writhe(self) -> int:
        return sum(sign for _, sign in self.crossings)


def closure(word: Word, k: int) -> LinkDiagram:
    """The braid closure: the word read upward, positive letters crossing the
    left strand over the right."""
    if k < 1:
        raise ValueError("need at least one strand")
    for letter in word:
        if letter == 0 or not 1 <= abs(letter) <= k - 1:
            raise ValueError(f"letter {letter} out of range for {k} strands")
    joined = UnionFind()
    cur = list(range(k))
    counter = k
    crossings = []
    for letter in word:
        j = abs(letter)
        u, v = cur[j - 1], cur[j]
        nu, nv = counter, counter + 1
        counter += 2
        if letter > 0:
            crossings.append(((v, nv, nu, u), +1))
        else:
            crossings.append(((u, v, nv, nu), -1))
        cur[j - 1], cur[j] = nu, nv
    # close up: the top of each strand position joins its bottom
    free = 0
    for j in range(k):
        if cur[j] == j:
            free += 1  # a strand no letter touched
        else:
            joined.union(cur[j], j)
    relabeled = []
    fresh: dict = {}
    for arcs, sign in crossings:
        row = []
        for a in arcs:
            r = joined.find(a)
            if r not in fresh:
                fresh[r] = len(fresh)
            row.append(fresh[r])
        relabeled.append((tuple(row), sign))
    return LinkDiagram(tuple(relabeled), free_loops=free)


def component_count(d: LinkDiagram) -> int:
    strands = UnionFind()
    for (a, b, c, dd), _ in d.crossings:
        strands.union(a, c)
        strands.union(b, dd)
    roots = {strands.find(x) for arcs, _ in d.crossings for x in arcs}
    return len(roots) + d.free_loops


# ---------------------------------------------------------------------------
# Alexander polynomial


def _reduced_burau_det(word: Word, k: int, t: int) -> int:
    """``t^(neg (k-1)) det(I - R)`` for the reduced Burau matrix ``R`` of the
    word at the integer ``t``, where ``neg`` counts the inverse letters.

    The unreduced matrix (fixing the all-ones vector) is built by columns:
    a letter at ``p`` rewrites columns ``p`` and ``p + 1`` only.  An inverse
    letter acts as ``t B^-1``, which has integer entries; the columns it
    leaves alone owe that factor ``t``, paid when they are next touched.
    """
    if k == 1:
        return 1
    cols = [[int(i == j) for i in range(k)] for j in range(k)]
    scale = 0  # inverse letters so far
    paid = [0] * k  # the scale each column has been multiplied up to

    def column(j: int) -> list:
        owed, paid[j] = scale - paid[j], scale
        return [x * t**owed for x in cols[j]] if owed else cols[j]

    for letter in word:
        p = abs(letter) - 1
        a, b = column(p), column(p + 1)
        if letter > 0:
            cols[p] = [(1 - t) * x + y for x, y in zip(a, b)]
            cols[p + 1] = [t * x for x in a]
        else:
            scale += 1
            paid[p] = paid[p + 1] = scale
            cols[p] = b
            cols[p + 1] = [t * x + (t - 1) * y for x, y in zip(a, b)]
    cols = [column(j) for j in range(k)]
    # quotient by the fixed all-ones vector: change basis to
    # (e_0, ..., e_{k-2}, ones); the induced action is the leading block
    # of P^-1 U P, and P^-1 y = (y_0 - y_{k-1}, ..., y_{k-2} - y_{k-1}, y_{k-1})
    unit = t**scale
    m = [
        [unit * (i == j) - cols[j][i] + cols[j][k - 1] for j in range(k - 1)]
        for i in range(k - 1)
    ]
    return bareiss(m)[0]


def _alexander_of_word(word: Word, k: int) -> LaurentPoly:
    # the value is t^neg det(I - R) (1 - t) / (1 - t^k), where t^neg clears
    # the 1/t powers and the determinant comes scaled by t^(neg (k-1))
    neg = sum(1 for letter in word if letter < 0)
    ys = []
    for t in range(_T0, _T0 + len(word) + k + neg + 3):
        num = _reduced_burau_det(word, k, t) * (1 - t)
        y, r = divmod(num, t ** (neg * (k - 2)) * (1 - t**k))
        if r:
            raise ArithmeticError("scaled Burau determinant is not exactly divisible")
        ys.append(y)
    return _poly_through(ys).normalize()


def _fox_columns(d: LinkDiagram) -> tuple[list, int]:
    """Per crossing, the columns of its under-in, over and under-out arcs in
    the Fox matrix of the Wirtinger presentation (one column per over-strand
    class), its sign, and the number of columns."""
    over = UnionFind()
    for (_, b, _, dd), _s in d.crossings:
        over.union(b, dd)
    classes = sorted({over.find(x) for arcs, _ in d.crossings for x in arcs}, key=str)
    col = {c: i for i, c in enumerate(classes)}
    columns = [
        (col[over.find(a)], col[over.find(b)], col[over.find(c)], sign)
        for (a, b, c, _), sign in d.crossings
    ]
    return columns, len(classes)


def _fox_rows(columns: list, width: int) -> list:
    """The Fox matrix over Z[t, 1/t] on its first ``width`` columns, one
    sparse row per crossing: column -> {exponent: coefficient}, with no zero
    entries and no zero coefficients.  The under-in, over and under-out arcs
    of a positive crossing get t, 1 - t and -1, of a negative one 1, t - 1
    and -t."""
    rows = []
    for a, over, c, sign in columns:
        if sign > 0:
            terms = ((a, 1, 1), (over, 0, 1), (over, 1, -1), (c, 0, -1))
        else:
            terms = ((a, 0, 1), (over, 1, 1), (over, 0, -1), (c, 1, -1))
        row: dict = {}
        for j, e, x in terms:
            if j < width:
                p = row.setdefault(j, {})
                p[e] = p.get(e, 0) + x
        rows.append(
            {j: q for j, p in row.items() if (q := {e: x for e, x in p.items() if x})}
        )
    return rows


def _is_unit(p: dict) -> bool:
    """Whether ``p`` is ``±t^k``, a unit of Z[t, 1/t]."""
    return len(p) == 1 and abs(next(iter(p.values()))) == 1


def _eliminate_units(rows: list, under_out: list) -> list:
    """Pivot on unit entries until none is left; the rows left over.

    A pivot ``±t^k`` in row ``p`` and column ``c`` clears column ``c`` from
    every other row by an exact multiple of row ``p``, then drops row ``p``
    and column ``c``: the determinant changes by the factor ``±t^k`` only.
    Row ``r`` is crossing ``r``, and ``under_out[r]`` the column of the arc
    that starts there, a unit (-1 or -t) unless it shares its column with
    another arc of the crossing.  Every arc starts at one crossing only, so
    these are one candidate per row, each in a column of its own, and they
    come first: on plabic links of random 3-strand fences of 36-600
    crossings they leave 3-5 rows, where the Markowitz cost alone leaves up
    to 18.  Among them, and then among the other units, the least Markowitz
    cost (row length - 1) * (column length - 1) wins, ties to the least row
    and column.  The heap holds the
    cost of every unit entry as it was pushed; a pivot pushes again the
    units of the rows and columns it changes, and a popped entry whose cost
    is no longer current is skipped.
    """
    live = dict(enumerate(rows))
    at: dict = {}  # column -> rows with an entry there
    for r, row in live.items():
        for j in row:
            at.setdefault(j, set()).add(r)

    def cost(r, j):
        return j != under_out[r], (len(live[r]) - 1) * (len(at[j]) - 1)

    heap = [
        (cost(r, j), r, j)
        for r, row in live.items()
        for j, q in row.items()
        if _is_unit(q)
    ]
    heapify(heap)
    while heap:
        was, p, c = heappop(heap)
        top = live.get(p)
        if top is None or c not in top or not _is_unit(top[c]) or cost(p, c) != was:
            continue
        del live[p]
        ((k, s),) = top.pop(c).items()
        for j in top:
            at[j].discard(p)
        changed = at.pop(c)
        changed.discard(p)
        for r in changed:
            row = live[r]
            # row r minus (its entry at c) / (s t^k) times row p
            f = [(e - k, -x * s) for e, x in row.pop(c).items()]
            for j, q in top.items():
                out = row.get(j)
                if out is None:
                    row[j] = out = {}
                    at[j].add(r)
                for e1, x1 in f:
                    for e2, x2 in q.items():
                        e = e1 + e2
                        if x := out.get(e, 0) + x1 * x2:
                            out[e] = x
                        else:
                            del out[e]
                if not out:
                    del row[j]
                    at[j].discard(r)
        for r in changed:
            for j, q in live[r].items():
                if _is_unit(q):
                    heappush(heap, (cost(r, j), r, j))
        for j in top:
            for r in at[j] - changed:
                if _is_unit(live[r][j]):
                    heappush(heap, (cost(r, j), r, j))
    return list(live.values())


def _remainder_det(rows: list) -> LaurentPoly:
    """The determinant, up to a unit, of a square matrix of sparse Laurent
    rows (as :func:`_fox_rows`; columns are the keys the rows use).

    Each row is shifted to exponents from 0, which changes the determinant by
    a power of t, and then spans at most its degree span, so the determinant
    is a polynomial of degree at most the sum of the spans: it is evaluated
    at that many points plus one, t = 2, 3, ..., by :func:`bareiss` and
    recovered by :func:`_poly_through`.
    """
    cols = {j: i for i, j in enumerate(sorted({j for row in rows for j in row}))}
    if not all(rows) or len(cols) < len(rows):
        return LaurentPoly(())  # a zero row, or a column with no entries
    shifted = []  # per row: (column index, ((exponent from 0, coefficient), ...))
    degree = top = 0
    for row in rows:
        exps = [e for p in row.values() for e in p]
        lo, hi = min(exps), max(exps)
        degree += hi - lo
        top = max(top, hi - lo)
        shifted.append(
            [(cols[j], [(e - lo, x) for e, x in p.items()]) for j, p in row.items()]
        )
    ys = []
    for t in range(_T0, _T0 + degree + 1):
        power = [1]
        for _ in range(top):
            power.append(power[-1] * t)
        m = []
        for row in shifted:
            vals = [0] * len(rows)
            for i, terms in row:
                vals[i] = sum(x * power[e] for e, x in terms)
            m.append(vals)
        ys.append(bareiss(m)[0])
    return _poly_through(ys)


def _alexander_of_diagram(d: LinkDiagram) -> LaurentPoly:
    n = len(d.crossings)
    if d.free_loops:
        if n or d.free_loops > 1:
            return LaurentPoly(())  # split links have vanishing polynomial
        return LaurentPoly.constant(1)
    if n == 0:
        raise ValueError("empty diagram has no link")
    columns, g = _fox_columns(d)
    # Every crossing ends exactly one arc (its incoming under-strand), so
    # g = n plus the components that never pass under, and g >= n.  Delete
    # the last column and, when g = n, the last row: one Wirtinger relation
    # follows from the others, and for a split diagram the minor is singular
    # either way.  With two components that never pass under, the n rows
    # have no minor of size g - 1 at all: the polynomial is 0 (a split link).
    if g - 1 > n:
        return LaurentPoly(())
    columns = columns[: g - 1]
    rows = _fox_rows(columns, g - 1)
    under_out = [c for _a, _over, c, _sign in columns]
    return _remainder_det(_eliminate_units(rows, under_out)).normalize()


def alexander(x: Union[Word, LinkDiagram], k: Optional[int] = None) -> LaurentPoly:
    """The one-variable Alexander polynomial, normalized to lowest exponent 0
    and positive top coefficient.  Braid words use the reduced Burau
    determinant.  Diagrams use a minor of the Fox/Wirtinger matrix, reduced
    by unit-pivot elimination over Z[t, 1/t] to a few rows whose determinant
    is interpolated from its values at the integers t >= 2."""
    if isinstance(x, LinkDiagram):
        return _alexander_of_diagram(x)
    if k is None:
        raise ValueError("a braid word needs its strand count k")
    return _alexander_of_word(tuple(x), k)


# ---------------------------------------------------------------------------
# Kauffman bracket and Jones polynomial


_DELTA = LaurentPoly(((2, -1), (-2, -1)))  # loop value -A^2 - A^-2


def _connect(matching: dict, x, y) -> int:
    """Splice a strand segment with end labels ``x`` and ``y`` into the open
    paths; returns the number of loops closed (0 or 1)."""
    if x == y:
        return 1
    if matching.get(x) == y:
        del matching[x]
        del matching[y]
        return 1
    a = matching.pop(x, x)
    if a != x:
        matching.pop(a, None)
    b = matching.pop(y, y)
    if b != y:
        matching.pop(b, None)
    matching[a] = b
    matching[b] = a
    return 0


def _bracket_order(crossings) -> list:
    """Process crossings keeping the set of dangling arc labels small."""
    remaining = set(range(len(crossings)))
    pending: dict = {}
    for arcs, _ in crossings:
        for a in arcs:
            pending[a] = pending.get(a, 0) + 1
    dangling: set = set()
    order = []
    while remaining:
        best = min(
            remaining,
            key=lambda i: (
                len(dangling | set(crossings[i][0]))
                - len(set(crossings[i][0]) & dangling),
                i,
            ),
        )
        remaining.discard(best)
        order.append(best)
        for a in crossings[best][0]:
            pending[a] -= 1
            if pending[a] == 0:
                dangling.discard(a)
            else:
                dangling.add(a)
    return order


def kauffman_bracket(d: LinkDiagram, cap: int = 24) -> LaurentPoly:
    """The bracket polynomial in the variable A, with the single-loop diagram
    normalized to 1.  Raises :class:`CapExceeded` beyond ``cap`` crossings."""
    n = len(d.crossings)
    if n > cap:
        raise CapExceeded(f"{n} crossings exceed the cap of {cap}")
    if n == 0:
        if d.free_loops == 0:
            raise ValueError("empty diagram has no link")
        out = LaurentPoly.constant(1)
        for _ in range(d.free_loops - 1):
            out = out * _DELTA
        return out
    states: dict = {(): {0: 1}}
    for i in _bracket_order(d.crossings):
        (a, b, c, dd), _sign = d.crossings[i]
        new_states: dict = {}
        for mkey, poly in states.items():
            base = dict(mkey)
            for (p1, p2), da in ((((a, b), (c, dd)), 1), (((a, dd), (b, c)), -1)):
                m = dict(base)
                loops = _connect(m, *p1) + _connect(m, *p2)
                key = tuple(sorted(m.items(), key=lambda kv: (str(kv[0]), str(kv[1]))))
                acc = new_states.setdefault(key, {})
                for e, coef in poly.items():
                    # weight A^da, times delta per closed loop
                    terms = {e + da: coef}
                    for _ in range(loops):
                        nt: dict = {}
                        for ee, cc in terms.items():
                            for de, dc in _DELTA.coeffs:
                                nt[ee + de] = nt.get(ee + de, 0) + cc * dc
                        terms = nt
                    for ee, cc in terms.items():
                        acc[ee] = acc.get(ee, 0) + cc
        states = new_states
    if list(states.keys()) != [()]:
        raise ArithmeticError("bracket contraction left open strands")
    total = LaurentPoly.from_dict(states[()])
    for _ in range(d.free_loops):
        total = total * _DELTA
    # every state closed at least one loop; remove the overall factor delta
    # (exact division by -A^2 - A^-2)
    return _divide_by_delta(total)


def _divide_by_delta(total: LaurentPoly) -> LaurentPoly:
    if total.is_zero:
        return total
    num = total * LaurentPoly.var(2, -1)  # total * (-A^2); divide by A^4 + 1
    low = num.coeffs[0][0]
    coeffs = dict(num.shift(-low).coeffs)
    deg = max(coeffs)
    quot: dict = {}
    for e in range(deg, 3, -1):
        c = coeffs.pop(e, 0)
        if c == 0:
            continue
        quot[e - 4] = c
        coeffs[e - 4] = coeffs.get(e - 4, 0) - c
    if any(coeffs.values()):
        raise ArithmeticError("bracket is not divisible by the loop value")
    return LaurentPoly.from_dict(quot).shift(low)


def jones(d: LinkDiagram, cap: int = 24) -> LaurentPoly:
    """The Jones polynomial in the variable s with s^2 = t, from the
    writhe-normalized Kauffman bracket."""
    br = kauffman_bracket(d, cap)
    w = d.writhe
    sign = -1 if w % 2 else 1
    shifted = LaurentPoly(tuple((e - 3 * w, sign * c) for e, c in br.coeffs))
    out: dict = {}
    for e, c in shifted.coeffs:
        if e % 2 != 0:
            raise ArithmeticError("bracket exponents are not all even")
        out[e // 2] = c  # s = A^2, so that s^2 plays the role of t
    return LaurentPoly.from_dict(out)


# ---------------------------------------------------------------------------
# Fingerprints


def fingerprint(
    x: Union[Word, LinkDiagram],
    k: Optional[int] = None,
    include_jones: bool = False,
    cap: int = 24,
):
    """(component count, normalized Alexander polynomial, Jones polynomial or
    None).  The Jones entry stays None unless requested, so fingerprints of
    the same link computed through diagrams of very different sizes compare
    equal."""
    d = x if isinstance(x, LinkDiagram) else closure(tuple(x), k)
    jn = None
    if include_jones:
        try:
            jn = jones(d, cap)
        except CapExceeded:
            jn = None
    return (component_count(d), alexander(x, k), jn)


# ---------------------------------------------------------------------------
# PD text format


_PD_USAGE = {
    "X": (5, 5, "X takes four arcs and a sign"),
    "loop": (0, 0, "loop takes no operands"),
}


def parse_link_diagram(text: str) -> LinkDiagram:
    crossings = []
    free = 0
    for kw, args, fail in read_directives(text, _PD_USAGE):
        if kw == "loop":
            free += 1
            continue
        if args[4] not in ("+", "-"):
            raise fail(_PD_USAGE["X"][2])
        arcs = tuple(int(p) if p.lstrip("-").isdigit() else p for p in args[:4])
        crossings.append((arcs, 1 if args[4] == "+" else -1))
    return LinkDiagram(tuple(crossings), free_loops=free)


def format_link_diagram(d: LinkDiagram) -> str:
    lines = []
    for arcs, sign in d.crossings:
        lines.append(
            "X " + " ".join(str(a) for a in arcs) + (" +" if sign > 0 else " -")
        )
    lines.extend("loop" for _ in range(d.free_loops))
    return "\n".join(lines) + "\n"
