"""Reduced ordered binary decision diagrams over a hash-consing pool.

Diagrams are canonical by construction: nodes are interned, the
reduction rule (low == high collapses) is applied before every intern,
and the variable order is the numeric order on variable
indices with the smallest index at the root.  Equality of functions is
therefore identifier equality, and tautology checking is a comparison
against the TRUE leaf.

Each node is one flat `(var, low, high)` tuple: the same object is the
pool's unique-table key and its stored node.  The leaves are
preallocated as `(LEAF_VAR, 0, 0)` (FALSE, id 0) and `(LEAF_VAR, 1, 1)`
(TRUE, id 1), so `nodes[x][0]` is the head variable of any id, leaves
included.  The pool is the unique table;
each operation has its own memo table (the computed table).  Binary
operations are one generic melding body instantiated with
per-operation leaf-rewrite rules; the memoized recursions are built
once per manager.  Ids and ops are checked once, at the public entry
points (`apply2`, `mk_not`, `mk_ite`, `mk_node`, `node`, `head_var`,
`eval`, `node_count`); internal steps read the nodes of ids the pool
issued directly.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Mapping, NamedTuple

from .intern import Pool
from .memo import MemoTable, memo_fix, table_stats

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
    recomputes everything (test mode for memo transparency checks).
    """

    def __init__(self, *, memo_enabled: bool = True) -> None:
        self.pool = Pool(preallocated=[(LEAF_VAR, FALSE, FALSE),
                                       (LEAF_VAR, TRUE, TRUE)])
        self.memo_enabled = memo_enabled
        self.m_and = MemoTable(commutative=True)
        self.m_or = MemoTable(commutative=True)
        self.m_xor = MemoTable(commutative=True)
        self.m_not = MemoTable()
        self.m_ite = MemoTable()
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
    # orders them by construction).  Each `*_step` applies its
    # operation's leaf rules before the memo table is consulted.

    def _build_fixers(self) -> None:
        mt = (lambda t: t) if self.memo_enabled else (lambda t: None)
        nodes = self.pool.back
        intern = self.pool.intern

        def mk(low: int, v: int, high: int) -> int:
            if low == high:
                return low
            return intern((v, low, high))

        def meld(step):
            """Body of a binary operation: simultaneous descent on the
            smaller head variable, each cofactor pair through `step`."""
            def body(_, key):
                x, y = key
                vx, xl, xh = nodes[x]
                vy, yl, yh = nodes[y]
                if vx == vy:
                    return mk(step(xl, yl), vx, step(xh, yh))
                if vx < vy:
                    return mk(step(xl, y), vx, step(xh, y))
                return mk(step(x, yl), vy, step(x, yh))
            return body

        def and_step(x: int, y: int) -> int:
            if x == FALSE or y == FALSE:
                return FALSE
            if x == TRUE:
                return y
            if y == TRUE:
                return x
            return and_fix((x, y))

        def or_step(x: int, y: int) -> int:
            if x == TRUE or y == TRUE:
                return TRUE
            if x == FALSE:
                return y
            if y == FALSE:
                return x
            return or_fix((x, y))

        def xor_step(x: int, y: int) -> int:
            if x == FALSE:
                return y
            if y == FALSE:
                return x
            if x == TRUE:
                return not_fix((y,))
            if y == TRUE:
                return not_fix((x,))
            return xor_fix((x, y))

        and_fix = memo_fix(meld(and_step), mt(self.m_and))
        or_fix = memo_fix(meld(or_step), mt(self.m_or))
        xor_fix = memo_fix(meld(xor_step), mt(self.m_xor))

        def not_body(recurse, key):
            (x,) = key
            if x == FALSE:
                return TRUE
            if x == TRUE:
                return FALSE
            v, low, high = nodes[x]
            return mk(recurse((low,)), v, recurse((high,)))

        not_fix = memo_fix(not_body, mt(self.m_not))

        def cofactors(x: int, v: int) -> tuple[int, int]:
            w, low, high = nodes[x]
            return (low, high) if w == v else (x, x)

        def ite_body(_, key):
            x, y, z = key
            v = min(nodes[x][0], nodes[y][0], nodes[z][0])
            xl, xh = cofactors(x, v)
            yl, yh = cofactors(y, v)
            zl, zh = cofactors(z, v)
            return mk(ite_step(xl, yl, zl), v, ite_step(xh, yh, zh))

        def ite_step(x: int, y: int, z: int) -> int:
            if x == TRUE:
                return y
            if x == FALSE:
                return z
            if y == z:
                return y
            if y == TRUE and z == FALSE:
                return x
            return ite_fix((x, y, z))

        ite_fix = memo_fix(ite_body, mt(self.m_ite))

        self._binary_steps = {"and": and_step, "or": or_step,
                              "xor": xor_step}
        self._not = not_fix
        self._ite_step = ite_step

    def apply2(self, op: str, a: int, b: int) -> int:
        """Canonical BDD of the pointwise boolean combination.

        Simultaneous descent on the smaller head variable; leaf rewrite
        rules cut the recursion short before touching the memo table, so
        the table only ever holds node/node pairs.
        """
        step = self._binary_steps.get(op)
        if step is None:
            raise BddError(f"unknown operation {op!r}")
        self.pool.resolve(a)
        self.pool.resolve(b)
        return step(a, b)

    def mk_not(self, a: int) -> int:
        """Canonical complement, memoized on the identifier."""
        self.pool.resolve(a)
        return self._not((a,))

    def mk_ite(self, c: int, t: int, e: int) -> int:
        """If-then-else (c and t) or (not c and e), by ternary Shannon
        expansion on the minimum head variable."""
        for r in (c, t, e):
            self.pool.resolve(r)
        return self._ite_step(c, t, e)

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
        return {"pool_stats": asdict(self.pool.stats()),
                "memo_stats": table_stats({
                    "and": self.m_and, "or": self.m_or, "xor": self.m_xor,
                    "not": self.m_not, "ite": self.m_ite})}
