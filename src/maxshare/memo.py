"""Memoization tables and a memoizing fixpoint combinator.

Tables map key tuples (identifiers and small scalars) to result values.
An entry, once written, is never rebound to a different value;
attempting to do so signals an impure memoized function.  Tables
persist across top-level calls (conservative lifetime).

`memo_fix` adds no recursion guard of its own: a body that is not
well-founded ends in Python's `RecursionError`, and the lambda
normalizer bounds its beta steps with `DepthExceededError`.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

MemoKey = tuple


class MemoError(Exception):
    pass


class MemoContractError(MemoError):
    """A key was rebound to a different value (impure body)."""

    @classmethod
    def rebound(cls, key: MemoKey, old: Any, new: Any) -> MemoContractError:
        return cls(f"key {key!r} rebound: {old!r} -> {new!r}")


class DepthExceededError(MemoError):
    """A step bound tripped: the lambda normalizer's step guard, on
    input that does not normalize within it."""


_ABSENT = object()


class MemoTable:
    """Memo table with hit/miss counters, filled and read by `memo_fix`.

    For tables backing commutative binary operations, pass
    `commutative=True`: keys (a, b) are normalized to (min, max), which
    doubles the hit rate without a second entry.
    """

    def __init__(self, *, commutative: bool = False) -> None:
        self.commutative = commutative
        self._entries: dict[MemoKey, Any] = {}
        self.hits = 0
        self.misses = 0
        self.body_evaluations = 0

    def __len__(self) -> int:
        return len(self._entries)

    def inline(self) -> tuple[Callable[[MemoKey], Any],
                              Callable[[MemoKey, Any], Any],
                              Callable[[int, int], None]]:
        """`(get, setdefault, record)` for a caller that probes and fills
        the table in its own loop instead of through `memo_fix`.  Keys
        must be normalised as `memo_fix` normalises them, and values must
        not be None: `get(key)` is the entry, or None when there is none;
        `setdefault(key, value)` stores it and returns the entry, which
        the caller must check as `memo_fix` does, raising
        `MemoContractError.rebound` if it differs; and
        `record(hits, misses)` adds a run's counts, each miss one body
        evaluation."""
        entries = self._entries

        def record(hits: int, misses: int) -> None:
            self.hits += hits
            self.misses += misses
            self.body_evaluations += misses

        return entries.get, entries.setdefault, record


def table_stats(tables: Mapping[str, MemoTable]) -> dict[str, dict[str, int]]:
    """Hits, misses and body evaluations of each named table."""
    return {name: {"hits": t.hits, "misses": t.misses,
                   "body_evaluations": t.body_evaluations}
            for name, t in tables.items()}


def memo_fix(
    body: Callable[[Callable[[MemoKey], Any], MemoKey], Any],
    table: MemoTable | None,
) -> Callable[[MemoKey], Any]:
    """Memoizing fixpoint of `body`.

    `body(recurse, key)` computes the value at `key`, making self-calls
    through `recurse`.  For a pure, well-founded body the result is
    extensionally equal to the plain fixpoint, and each distinct key's
    body runs at most once per table lifetime.  Passing `table=None`
    disables caching entirely (test mode); the results must not change.
    """
    if table is None:
        def recurse(key: MemoKey) -> Any:
            return body(recurse, key)
        return recurse

    # One dict probe per call.  `body` receives the caller's key, not
    # the normalised one.
    entries = table._entries
    commutative = table.commutative

    def recurse(key: MemoKey) -> Any:
        k = (key[1], key[0]) if commutative and key[0] > key[1] else key
        cached = entries.get(k, _ABSENT)
        if cached is not _ABSENT:
            table.hits += 1
            return cached
        table.misses += 1
        value = body(recurse, key)
        table.body_evaluations += 1
        old = entries.setdefault(k, value)
        if old != value:
            raise MemoContractError.rebound(k, old, value)
        return value

    return recurse
