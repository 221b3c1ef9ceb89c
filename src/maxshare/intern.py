"""Generic hash-consing pool.

Interns immutable payloads, hands out small-integer identifiers, and
guarantees that structurally equal payloads share a single identifier
for the lifetime of the pool (maximal sharing).  Identifier equality is
the equality test; identifiers are meaningful only relative to the pool
that issued them.

A payload is a plain tuple that an engine lays out and checks itself:
the BDD engine's `(var, low, high)` nodes and the lambda engine's
`(tag, x, y)` nodes.  The pool stores it as given; each engine checks
the ids it is handed at its own public boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


class PoolError(Exception):
    """Base class for pool usage errors."""


class UnknownIdError(PoolError):
    """Lookup of an identifier the pool never issued."""


@dataclass
class PoolStats:
    node_count: int = 0
    intern_hits: int = 0
    intern_misses: int = 0


class Pool:
    """Bidirectional interning table with a fresh-identifier counter.

    `fwd` maps payloads to identifiers, `back` is the inverse table
    indexed by identifier, and `len(pool)` (== len(back)) is the next
    fresh identifier.  Both are public: engines read the ids they were
    issued from `back` without `resolve`'s bounds check, and an engine
    may intern inline, as the lambda machines do, if it probes `fwd`
    first and on a miss sets `fwd[p] = len(back)` and appends `p` to
    `back`, or else adds 1 to `hits`.  Nothing else writes them.
    Clients may reserve fixed identifiers (e.g. BDD leaves) by passing
    `preallocated` payloads; those get ids 0, 1, ... in order, before
    any intern call.

    Single-writer: mutate from one logical thread at a time.
    """

    def __init__(self, preallocated: Iterable[tuple] = ()) -> None:
        self.back: list[tuple] = []
        self.fwd: dict[tuple, int] = {}
        self.hits = 0
        for p in preallocated:
            self.fwd[p] = len(self.back)
            self.back.append(p)
        self._preallocated = len(self.back)

    def intern(self, p: tuple) -> int:
        """Return the identifier of `p`, allocating a fresh one iff no
        structurally equal payload is already present.  `p` is stored
        as given."""
        existing = self.fwd.get(p)
        if existing is not None:
            self.hits += 1
            return existing
        n = self.fwd[p] = len(self.back)
        self.back.append(p)
        return n

    def resolve(self, uid: int) -> tuple:
        """Inverse of intern: the payload stored under `uid`."""
        if not (0 <= uid < len(self.back)):
            raise UnknownIdError(
                f"id {uid} out of range (pool has {len(self.back)} nodes)"
            )
        return self.back[uid]

    def stats(self) -> PoolStats:
        return PoolStats(
            node_count=len(self.back),
            intern_hits=self.hits,
            intern_misses=len(self.back) - self._preallocated,
        )

    def scan_duplicates(self) -> list[tuple[int, int]]:
        """Every pair of distinct identifiers whose payloads are
        structurally equal.  Empty on any pool populated solely through
        intern; a nonempty result means maximal sharing was violated."""
        seen: dict[tuple, int] = {}
        dups: list[tuple[int, int]] = []
        for uid, p in enumerate(self.back):
            first = seen.get(p)
            if first is None:
                seen[p] = uid
            else:
                dups.append((first, uid))
        return dups

    def __len__(self) -> int:
        return len(self.back)
