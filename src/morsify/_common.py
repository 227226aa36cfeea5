"""Shared search-budget and verdict types, and the text-format line reader.

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
from typing import Any, Callable, Iterator


@dataclass(frozen=True)
class Budget:
    """Caps shared by all equivalence searches."""

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


Verdict = Any  # Equivalent | DistinctByInvariant | Unknown


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
