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


class DepthExceededError(MemoError):
    """A step bound tripped: the lambda normalizer's step guard, on
    input that does not normalize within it."""


_ABSENT = object()


def _rebound(key: MemoKey, old: Any, value: Any) -> MemoContractError:
    return MemoContractError(f"key {key!r} rebound: {old!r} -> {value!r}")


class MemoTable:
    """Memo table with hit/miss counters.

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

    def _norm(self, key: MemoKey) -> MemoKey:
        if self.commutative and key[0] > key[1]:
            return (key[1], key[0])
        return key

    def get(self, key: MemoKey) -> Any:
        """Stored value for `key`, or the module-private absent marker.
        Use `found(result)` to test presence."""
        v = self._entries.get(self._norm(key), _ABSENT)
        if v is _ABSENT:
            self.misses += 1
        else:
            self.hits += 1
        return v

    def put(self, key: MemoKey, value: Any) -> None:
        k = self._norm(key)
        old = self._entries.setdefault(k, value)
        if old != value:
            raise _rebound(k, old, value)

    def __len__(self) -> int:
        return len(self._entries)


def found(result: Any) -> bool:
    """True iff a MemoTable.get result is an actual stored value."""
    return result is not _ABSENT


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

    # `get` and `put` inlined, to one dict probe per call: keep the key
    # normalisation, the counters and the rebinding check in step with
    # them.  `body` still receives the caller's key.
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
            raise _rebound(k, old, value)
        return value

    return recurse
