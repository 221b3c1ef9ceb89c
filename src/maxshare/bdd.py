"""Reduced ordered binary decision diagrams over a hash-consing pool.

Diagrams are canonical by construction: nodes are interned, the
reduction rule (low == high collapses) is applied before every intern,
and variables are ordered by index, the smallest at the root.  Equality
of functions is therefore identifier equality, and tautology checking
is a comparison against the TRUE leaf.

Each node is one flat `(var, low, high)` tuple: the same object is the
pool's unique-table key and its stored node.  The leaves are
preallocated as `(LEAF_VAR, 0, 0)` (FALSE, id 0) and `(LEAF_VAR, 1, 1)`
(TRUE, id 1), so `nodes[x][0]` is the head variable of any id, leaves
included.  `and`, `or`, `xor` and `not` each have a memo table (the
computed table); `mk_ite(c, t, e)` is `or(and(c, t), and(not c, e))`,
the same canonical diagram a ternary expansion would name.  `and`,
`or` and `xor` key their tables on `(min, max)`, `not` on the id.

`and` and `or` are one explicit-stack machine that visits, memoizes and
interns in the recursion's order, so every counter is the recursion's.
`xor` and `not` still recurse through `memo_fix`, two or three frames
per variable level, and so does `formula.compile` per formula level:
that fails `U(n)` from n = 249 up at the default limit, and lifting it
waits for the benchmark's `urquhart` re-baseline.

Ids and ops are checked once, at the public entry points (`apply2`,
`mk_not`, `mk_ite`, `mk_node`, `node`, `head_var`, `eval`, `sat_one`,
`is_tautology`, `node_count`).  Below them run the steps that
`BddManager.unchecked` maps "and", "or", "xor" and "not" to, which read
the nodes of the ids they are given straight from the pool.
`formula.compile`, whose ids all come from one manager and which checks
each variable index before it interns its node, is the one caller in
the package of those steps.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

from .intern import Pool
from .memo import (ForgetfulTable, MemoContractError, MemoTable,
                   manager_stats, memo_fix)

FALSE = 0
TRUE = 1

# Head variable of a leaf: larger than any real variable index.
LEAF_VAR = 1 << 32


class BddError(Exception):
    pass


class IllOrderedError(BddError):
    """mk_node called with a variable not above both children."""


class UnboundVariableError(BddError):
    """eval traversed a variable the environment does not bind."""


class BddNode(NamedTuple):
    var: int
    low: int
    high: int


class BddManager:
    """Owns the node pool and the per-operation memo tables.

    Single-writer; refs must never cross managers.  `memo_enabled=False`
    gives every operation a `ForgetfulTable`, so the same code recomputes
    everything (test mode for memo transparency checks).
    """

    def __init__(self, *, memo_enabled: bool = True) -> None:
        self.pool = Pool(preallocated=[(LEAF_VAR, FALSE, FALSE),
                                       (LEAF_VAR, TRUE, TRUE)])
        table = MemoTable if memo_enabled else ForgetfulTable
        self.m_and = table()
        self.m_or = table()
        self.m_xor = table()
        self.m_not = table()
        self._build_fixers()

    def is_leaf(self, a: int) -> bool:
        return a == FALSE or a == TRUE

    def node(self, a: int) -> BddNode:
        stored = self.pool.resolve(a)
        if a <= TRUE:
            raise BddError(f"id {a} is a leaf, not a decision node")
        return BddNode._make(stored)

    def head_var(self, a: int) -> int:
        return self.pool.resolve(a)[0]

    def mk_node(self, low: int, v: int, high: int) -> int:
        """Reduced, ordered node constructor: collapses equal children,
        otherwise interns (v, low, high).  Both children must be ids
        the pool issued."""
        head_low, head_high = self.head_var(low), self.head_var(high)
        if low == high:
            return low
        if not (0 <= v < LEAF_VAR):
            raise IllOrderedError(f"variable index {v} out of range")
        if v >= head_low or v >= head_high:
            raise IllOrderedError(
                f"variable {v} not above children "
                f"(heads {head_low}, {head_high})"
            )
        return self.pool.intern((v, low, high))

    # -- operations ------------------------------------------------------
    #
    # Below the public entry points every id was issued by this pool:
    # nodes are read straight from `pool.back` and built without
    # mk_node's order check (expansion on the smallest head variable
    # orders them by construction).  Each step applies its operation's
    # leaf rules before the memo table is consulted.

    def _build_fixers(self) -> None:
        nodes = self.pool.back
        intern = self.pool.intern

        def mk(low: int, v: int, high: int) -> int:
            if low == high:
                return low
            return intern((v, low, high))

        def absorbing(absorb: int, unit: int, table: MemoTable):
            """`and` (absorb FALSE, unit TRUE) or `or` (TRUE, FALSE) as
            an explicit-stack machine.  Work items are pairs `(x, y)`
            and builds `(~v, key)`: "the node on `v` from the low result
            on `out` and the result just found, memoized under `key`".
            A missed pair pushes its build and its high pair and goes on
            with its low pair, so the low subproblem finishes before the
            high one starts, as under recursion, and the same keys hit.
            Keys are `(min, max)`, and values are ids, never None, so
            `get`'s None is a miss."""
            get, setdefault, record = table.get, table.setdefault, table.record

            def step(x: int, y: int) -> int:
                if x == absorb or y == absorb:
                    return absorb
                if x == unit:
                    return y
                if y == unit:
                    return x
                key = (x, y) if x < y else (y, x)
                r = get(key)
                if r is not None:
                    record(1, 0)
                    return r
                work: list[tuple] = []
                out: list[int] = []
                hits = misses = 0
                while True:
                    # (x, y) missed under `key`: push its build and its
                    # high pair, and go on with its low pair
                    misses += 1
                    vx, xl, xh = nodes[x]
                    vy, yl, yh = nodes[y]
                    if vx == vy:
                        work.append((~vx, key))
                        work.append((xh, yh))
                        x, y = xl, yl
                    elif vx < vy:
                        work.append((~vx, key))
                        work.append((xh, y))
                        x = xl
                    else:
                        work.append((~vy, key))
                        work.append((x, yh))
                        y = yl
                    while True:
                        if x == absorb or y == absorb:
                            r = absorb
                        elif x == unit:
                            r = y
                        elif y == unit:
                            r = x
                        else:
                            key = (x, y) if x < y else (y, x)
                            r = get(key)
                            if r is None:
                                break
                            hits += 1
                        # r is a result: run the builds it completes
                        x, y = work.pop()
                        while x < 0:
                            low = out.pop()
                            if low != r:
                                r = intern((~x, low, r))
                            old = setdefault(y, r)
                            if old != r:
                                raise MemoContractError.rebound(y, old, r)
                            if not work:
                                record(hits, misses)
                                return r
                            x, y = work.pop()
                        out.append(r)

            return step

        and_step = absorbing(FALSE, TRUE, self.m_and)
        or_step = absorbing(TRUE, FALSE, self.m_or)

        def xor_step(x: int, y: int) -> int:
            if x == FALSE:
                return y
            if y == FALSE:
                return x
            if x == TRUE:
                return not_fix(y)
            if y == TRUE:
                return not_fix(x)
            return xor_fix((x, y) if x < y else (y, x))

        def xor_body(_, key):
            x, y = key
            vx, xl, xh = nodes[x]
            vy, yl, yh = nodes[y]
            if vx == vy:
                return mk(xor_step(xl, yl), vx, xor_step(xh, yh))
            if vx < vy:
                return mk(xor_step(xl, y), vx, xor_step(xh, y))
            return mk(xor_step(x, yl), vy, xor_step(x, yh))

        xor_fix = memo_fix(xor_body, self.m_xor)

        def not_body(recurse, x):
            if x == FALSE:
                return TRUE
            if x == TRUE:
                return FALSE
            v, low, high = nodes[x]
            return mk(recurse(low), v, recurse(high))

        not_fix = memo_fix(not_body, self.m_not)

        self.unchecked = {"and": and_step, "or": or_step, "xor": xor_step,
                          "not": not_fix}

    def apply2(self, op: str, a: int, b: int) -> int:
        """Canonical BDD of the pointwise boolean combination.

        Simultaneous descent on the smaller head variable; leaf rewrite
        rules cut the recursion short before touching the memo table, so
        the table only ever holds node/node pairs.
        """
        if op == "not" or op not in self.unchecked:
            raise BddError(f"unknown operation {op!r}")
        self.pool.resolve(a)
        self.pool.resolve(b)
        return self.unchecked[op](a, b)

    def mk_not(self, a: int) -> int:
        """Canonical complement, memoized on the identifier."""
        self.pool.resolve(a)
        return self.unchecked["not"](a)

    def mk_ite(self, c: int, t: int, e: int) -> int:
        """If-then-else, built as (c and t) or (not c and e); diagrams
        are canonical, so this is the id a ternary expansion would
        give."""
        for r in (c, t, e):
            self.pool.resolve(r)
        step = self.unchecked
        return step["or"](step["and"](c, t), step["and"](step["not"](c), e))

    # -- observers -------------------------------------------------------

    def eval(self, a: int, env: Mapping[int, bool]) -> bool:
        """Follow the path selected by `env`; every variable actually
        traversed must be bound."""
        self.pool.resolve(a)
        nodes = self.pool.back
        cur = a
        while cur > TRUE:
            v, low, high = nodes[cur]
            try:
                bit = env[v]
            except KeyError:
                raise UnboundVariableError(
                    f"variable x{v} unbound in environment"
                ) from None
            cur = high if bit else low
        return cur == TRUE

    def sat_one(self, a: int) -> dict[int, bool]:
        """An assignment, along one path from `a` to the FALSE leaf,
        under which `a` is false; variables off the path are left out.
        Every decision node of a reduced diagram reaches both leaves, so
        the path takes the low branch unless it is TRUE."""
        self.pool.resolve(a)
        if a == TRUE:
            raise BddError("a tautology has no falsifying assignment")
        nodes = self.pool.back
        env: dict[int, bool] = {}
        cur = a
        while cur > TRUE:
            v, low, high = nodes[cur]
            env[v] = low == TRUE
            cur = high if env[v] else low
        return env

    def is_tautology(self, a: int) -> bool:
        self.pool.resolve(a)
        return a == TRUE

    def node_count(self, a: int) -> int:
        """Distinct decision nodes reachable from `a`, leaves excluded."""
        self.pool.resolve(a)
        nodes = self.pool.back
        seen: set[int] = set()
        stack = [a]
        while stack:
            x = stack.pop()
            if x <= TRUE or x in seen:
                continue
            seen.add(x)
            _, low, high = nodes[x]
            stack.append(low)
            stack.append(high)
        return len(seen)

    def stats(self) -> dict[str, dict]:
        """Pool counters and each memo table's hits, misses and body
        evaluations, as the `pool_stats` and `memo_stats` of a report."""
        return manager_stats(self.pool, {
            "and": self.m_and, "or": self.m_or, "xor": self.m_xor,
            "not": self.m_not})
