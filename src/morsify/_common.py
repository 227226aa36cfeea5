"""Shared search-budget and verdict types, the integer determinant, the
union-find, and the text-format line reader.

Every semi-decidable search in this package (braid isotopy, quiver mutation
equivalence, plabic move equivalence) returns one of three verdicts:

* ``Equivalent(witness)`` -- a replayable certificate of equivalence;
* ``DistinctByInvariant(reason)`` -- a proof of inequivalence (either a cheap
  invariant mismatch or exhaustion of a provably finite orbit);
* ``Unknown(reason)`` -- the search budget ran out before a decision.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterator, Union


@dataclass(frozen=True)
class Budget:
    """Caps shared by all equivalence searches.

    What one of ``max_states`` is differs by search (and CLI verb):

    * ``isotopy`` (``positive_isotopic``, ``solid_torus_isotopic``): one
      normal form not met before;
    * ``mut-equiv`` (``mutation_equivalent``): one mutation looked up, also
      when its quiver was met before;
    * ``move-equiv`` (``move_equivalent``): one move looked up within the size
      cap, also when its graph was met before.
    """

    max_states: int = 10**6
    max_seconds: float = 300.0

    def start(self) -> "BudgetClock":
        return BudgetClock(self)


@dataclass
class BudgetClock:
    """Running tally against a :class:`Budget`."""

    budget: Budget
    states: int = 0
    t0: float = field(default_factory=time.monotonic)

    def tick(self, n: int = 1) -> bool:
        """Charge ``n`` states; return ``True`` while within budget."""
        self.states += n
        if self.states > self.budget.max_states:
            return False
        return time.monotonic() - self.t0 <= self.budget.max_seconds


@dataclass(frozen=True)
class Equivalent:
    witness: tuple

    def __bool__(self) -> bool:
        return True


@dataclass(frozen=True)
class DistinctByInvariant:
    reason: str

    def __bool__(self) -> bool:
        return False


@dataclass(frozen=True)
class Unknown:
    reason: str

    def __bool__(self) -> bool:
        return False


Verdict = Union[Equivalent, DistinctByInvariant, Unknown]


class UnionFind:
    """Disjoint sets of hashable items, each a singleton until first joined;
    ``union(x, y)`` hangs the root of ``x`` under the root of ``y``."""

    def __init__(self) -> None:
        self.parent: dict = {}

    def find(self, x: Hashable) -> Hashable:
        parent = self.parent
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, x: Hashable, y: Hashable) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[rx] = ry


# ---------------------------------------------------------------------------
# Integer linear algebra


def bareiss(m) -> tuple[int, int]:
    """``(determinant, rank)`` of a square integer matrix by fraction-free
    elimination (Bareiss 1968).

    Pivot ``p`` turns each later row into ``(p row - f top) / prev``, with
    ``f`` its entry in the pivot column; every entry is then a minor of the
    input (Sylvester's identity), so the division is exact, also when a
    column without a pivot is skipped.  A row with ``f = 0`` would only be
    scaled by ``p / prev``, so it is left alone until its ``f`` is nonzero.
    """
    m = [list(row) for row in m]
    n = len(m)
    since = [1] * n  # row r holds its true value times since[r] / prev
    sign, prev, rank = 1, 1, 0
    for col in range(n):
        piv = next((r for r in range(rank, n) if m[r][col]), None)
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            since[rank], since[piv] = since[piv], since[rank]
            sign = -sign
        top = m[rank][col:]
        if since[rank] != prev:
            top = [x * prev // since[rank] for x in top]
        p = top[0]
        for r in range(rank + 1, n):
            row = m[r]
            f = row[col]
            if f:
                # (p (row prev / since) - (f prev / since) top) / prev
                d = since[r]
                row[col:] = [(p * x - f * y) // d for x, y in zip(row[col:], top)]
                since[r] = p
        prev = p
        rank += 1
    return (sign * prev if rank == n else 0), rank


# ---------------------------------------------------------------------------
# Text formats


def line_error(message: str, line: int) -> ValueError:
    """The parse error of the formats without their own exception class."""
    return ValueError(f"line {line}: {message}")


def read_directives(
    text: str, usage: dict, error: Callable[[str, int], Exception] = line_error
) -> Iterator[tuple[str, list, Callable[[str], Exception]]]:
    """Yield ``(keyword, operands, fail)`` for every directive line of a text
    format, where ``#`` starts a comment and blank lines are skipped.

    ``usage`` maps each keyword to ``(min, max, message)``: the operand count
    must lie in ``min..max`` (``max`` None for no limit).  An unknown keyword
    or a wrong operand count raises ``error(message, line)``; ``fail(message)``
    builds the same error for the line being read.
    """
    for ln, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        kw, args = parts[0], parts[1:]

        def fail(message: str, ln: int = ln) -> Exception:
            return error(message, ln)

        if kw not in usage:
            raise fail(f"unknown directive {kw!r}")
        lo, hi, message = usage[kw]
        if len(args) < lo or (hi is not None and len(args) > hi):
            raise fail(message)
        yield kw, args, fail
