"""The one frontier behind every equivalence search of the package.

A :class:`Frontier` holds the states still to be expanded, ordered by
``(rank(state), insertion counter)``: smallest rank first and, within a rank,
first in first out.  With no rank the order is breadth first.  Its ``seen``
table maps the key of every state it has met to the move path that reached
it from the start, so a search is a loop over :meth:`Frontier.step` that
tests goals, charges its budget and stops as it needs.
"""

from __future__ import annotations

import heapq
from typing import Callable, Hashable, Iterable, Iterator, Optional


class Frontier:
    """Best-first (or breadth-first) expansion from ``start``.

    ``key(state)`` is the hashable identity under which states are merged;
    ``neighbours(state)`` yields ``(move, state)`` pairs; ``rank(state)``, if
    given, orders the expansion.
    """

    def __init__(
        self,
        start,
        key: Callable[[object], Hashable],
        neighbours: Callable[[object], Iterable[tuple]],
        rank: Optional[Callable[[object], object]] = None,
    ):
        self.key, self.neighbours, self.rank = key, neighbours, rank
        self.seen: dict = {key(start): ()}
        self._heap: list = []
        self._count = 0
        self._push(start, ())

    def __len__(self) -> int:
        return len(self._heap)

    def _push(self, state, path: tuple) -> None:
        rank = self.rank(state) if self.rank else ()
        heapq.heappush(self._heap, (rank, self._count, state, path))
        self._count += 1

    def next_path(self) -> tuple:
        """The path of the state the next :meth:`step` expands."""
        return self._heap[0][3]

    def step(self) -> Iterator[tuple[Hashable, tuple, bool]]:
        """Expand the next state: yield ``(key, path, is_new)`` for every
        neighbour looked up, where ``path`` is the one recorded in ``seen``.
        A new neighbour is recorded and queued before it is yielded."""
        _, _, state, path = heapq.heappop(self._heap)
        for move, nxt in self.neighbours(state):
            k = self.key(nxt)
            if k in self.seen:
                yield k, self.seen[k], False
                continue
            npath = path + (move,)
            self.seen[k] = npath
            self._push(nxt, npath)
            yield k, npath, True
