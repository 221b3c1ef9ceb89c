"""Memoization tables and a memoizing fixpoint combinator.

A `MemoTable` is a dict from keys to result values, with hit, miss and
body-evaluation counters.  A key is an identifier (the operand of a
one-operand operation: an int hashes and compares faster than a
one-element tuple), two identifiers packed into one int (the BDD
`and`/`or` machine: less than half the memory of a pair), or a tuple of
identifiers and small scalars.  An entry, once written, is never rebound to a different
value; attempting to do so signals an impure memoized function.
Tables persist across top-level calls (conservative lifetime).
`ForgetfulTable` stores nothing, so the same engine code runs with
memoization off and every probe misses; results must not change.

Every caller probes a table through its own `get`/`setdefault`:
`memo_fix` (the BDD engine's `xor`/`not`), the BDD engine's
explicit-stack `and`/`or`, and the lambda engine's two explicit-stack
machines (`lifti`/`subst` and `hnf`/`nf`).  An operation whose operands
commute keys `(min, max)` itself, packed or not, before the probe.
Each counts a body evaluation once its value has reached the table
(after `setdefault` and its rebound check), so a raise leaves
`len(table) == body_evaluations` in a memoizing table.

`memo_fix` adds no recursion guard of its own: a body that is not
well-founded ends in Python's `RecursionError`.  The lambda normalizer
bounds its beta steps with `DepthExceededError`.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Callable, Mapping

MemoKey = int | tuple


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


class MemoTable(dict):
    """Memo table: the dict of entries, plus hit/miss counters.

    A caller probes it with `get`, stores a computed value with
    `setdefault` and checks the entry it returns, raising
    `MemoContractError.rebound` if it differs.  The counters are slots,
    which keeps their increments as cheap as on a plain object.
    """

    __slots__ = ("hits", "misses", "body_evaluations")

    def __init__(self) -> None:
        super().__init__()
        self.hits = 0
        self.misses = 0
        self.body_evaluations = 0


class ForgetfulTable(MemoTable):
    """A table that stores nothing: memoization off, same counters."""

    __slots__ = ()

    def setdefault(self, key: MemoKey, value: Any) -> Any:
        return value


def manager_stats(pool, tables: Mapping[str, MemoTable]) -> dict[str, dict]:
    """A manager's `pool_stats` (the fields of `pool.stats()`) and the
    hits, misses and body evaluations of each named table as its
    `memo_stats`, as a report carries them."""
    return {"pool_stats": asdict(pool.stats()),
            "memo_stats": {name: {"hits": t.hits, "misses": t.misses,
                                  "body_evaluations": t.body_evaluations}
                           for name, t in tables.items()}}


def memo_fix(
    body: Callable[[Callable[[MemoKey], Any], MemoKey], Any],
    table: MemoTable,
) -> Callable[[MemoKey], Any]:
    """Memoizing fixpoint of `body`.

    `body(recurse, key)` computes the value at `key`, making self-calls
    through `recurse`.  For a pure, well-founded body the result is
    extensionally equal to the plain fixpoint, and each distinct key's
    body runs at most once per table lifetime; with a `ForgetfulTable`
    it runs on every call, and the results must not change.  One dict
    probe per call.
    """
    get = table.get
    setdefault = table.setdefault

    def recurse(key: MemoKey) -> Any:
        cached = get(key, _ABSENT)
        if cached is not _ABSENT:
            table.hits += 1
            return cached
        table.misses += 1
        value = body(recurse, key)
        old = setdefault(key, value)
        if old != value:
            raise MemoContractError.rebound(key, old, value)
        table.body_evaluations += 1
        return value

    return recurse
