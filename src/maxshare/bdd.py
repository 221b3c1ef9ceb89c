"""Reduced ordered binary decision diagrams over a hash-consing pool.

Diagrams are canonical by construction: nodes are interned, the
reduction rule (low == high collapses) is applied in the single node
constructor, and the variable order is the numeric order on variable
indices with the smallest index at the root.  Equality of functions is
therefore identifier equality, and tautology checking is a comparison
against the TRUE leaf.

Leaves get the fixed identifiers 0 (FALSE) and 1 (TRUE) via pool
preallocation.  Binary operations are one generic melding combinator
instantiated with per-operation leaf-rewrite rules and memo tables.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

from .intern import Payload, Pool
from .memo import MemoTable, memo_fix

LEAF_TAG = 0
NODE_TAG = 1

FALSE = 0
TRUE = 1

# Head variable of a leaf: larger than any real variable index.
LEAF_VAR = 1 << 32

OPS = ("and", "or", "xor")


class BddError(Exception):
    pass


class IllOrderedError(BddError):
    """mk_node called with a variable not above both children."""


class UnboundVariableError(BddError):
    """eval traversed a variable the environment does not bind."""


class BddNode(NamedTuple):
    low: int
    var: int
    high: int


def _leaf_payload(value: bool) -> Payload:
    return Payload(tag=LEAF_TAG, attrs=(int(value),))


class BddManager:
    """Owns the node pool and the per-operation memo tables.

    Single-writer; refs must never cross managers.  `memo_enabled=False`
    recomputes everything (test mode for memo transparency checks).
    """

    def __init__(self, *, memo_enabled: bool = True,
                 depth_guard: int = 100_000) -> None:
        self.pool = Pool(preallocated=[_leaf_payload(False),
                                       _leaf_payload(True)])
        self.memo_enabled = memo_enabled
        self.depth_guard = depth_guard
        self.m_and = MemoTable(2, commutative=True)
        self.m_or = MemoTable(2, commutative=True)
        self.m_xor = MemoTable(2, commutative=True)
        self.m_not = MemoTable(1)
        self.m_ite = MemoTable(3)
        self._binary_tables = {"and": self.m_and, "or": self.m_or,
                               "xor": self.m_xor}

    def _table(self, table: MemoTable) -> MemoTable | None:
        return table if self.memo_enabled else None

    def is_leaf(self, a: int) -> bool:
        return a == FALSE or a == TRUE

    def node(self, a: int) -> BddNode:
        p = self.pool.resolve(a)
        if p.tag != NODE_TAG:
            raise BddError(f"id {a} is a leaf, not a decision node")
        low, high = p.children
        return BddNode(low=low, var=p.attrs[0], high=high)

    def head_var(self, a: int) -> int:
        p = self.pool.resolve(a)
        return LEAF_VAR if p.tag == LEAF_TAG else p.attrs[0]

    def mk_node(self, low: int, v: int, high: int) -> int:
        """Reduced, ordered node constructor: collapses equal children,
        otherwise interns (low, v, high)."""
        if low == high:
            return low
        if not (0 <= v < LEAF_VAR):
            raise IllOrderedError(f"variable index {v} out of range")
        if v >= self.head_var(low) or v >= self.head_var(high):
            raise IllOrderedError(
                f"variable {v} not above children "
                f"(heads {self.head_var(low)}, {self.head_var(high)})"
            )
        return self.pool.intern(
            Payload(tag=NODE_TAG, attrs=(v,), children=(low, high))
        )

    # -- melding ---------------------------------------------------------

    def _leaf_rule(self, op: str, a: int, b: int) -> int | None:
        """Rewrite rules on leaf operands; None when both are nodes.
        Effectful for xor, which complements the other operand."""
        if op == "and":
            if a == FALSE or b == FALSE:
                return FALSE
            if a == TRUE:
                return b
            if b == TRUE:
                return a
        elif op == "or":
            if a == TRUE or b == TRUE:
                return TRUE
            if a == FALSE:
                return b
            if b == FALSE:
                return a
        elif op == "xor":
            if a == FALSE:
                return b
            if b == FALSE:
                return a
            if a == TRUE:
                return self.mk_not(b)
            if b == TRUE:
                return self.mk_not(a)
        else:
            raise BddError(f"unknown operation {op!r}")
        return None

    def apply2(self, op: str, a: int, b: int) -> int:
        """Canonical BDD of the pointwise boolean combination.

        Simultaneous descent on the smaller head variable; leaf rewrite
        rules cut the recursion short before touching the memo table, so
        the table only ever holds node/node pairs.
        """
        if op not in OPS:
            raise BddError(f"unknown operation {op!r}")
        self.pool.resolve(a)
        self.pool.resolve(b)

        def body(recurse, key):
            x, y = key
            nx = self.node(x)
            ny = self.node(y)
            if nx.var == ny.var:
                v = nx.var
                lo = descend(recurse, nx.low, ny.low)
                hi = descend(recurse, nx.high, ny.high)
            elif nx.var < ny.var:
                v = nx.var
                lo = descend(recurse, nx.low, y)
                hi = descend(recurse, nx.high, y)
            else:
                v = ny.var
                lo = descend(recurse, x, ny.low)
                hi = descend(recurse, x, ny.high)
            return self.mk_node(lo, v, hi)

        def descend(recurse, x, y):
            quick = self._leaf_rule(op, x, y)
            return quick if quick is not None else recurse((x, y))

        fix = memo_fix(body, self._table(self._binary_tables[op]),
                       depth_guard=self.depth_guard)
        quick = self._leaf_rule(op, a, b)
        return quick if quick is not None else fix((a, b))

    def mk_not(self, a: int) -> int:
        """Canonical complement, memoized on the identifier."""
        def body(recurse, key):
            (x,) = key
            if x == FALSE:
                return TRUE
            if x == TRUE:
                return FALSE
            n = self.node(x)
            return self.mk_node(recurse((n.low,)), n.var,
                                recurse((n.high,)))

        fix = memo_fix(body, self._table(self.m_not),
                       depth_guard=self.depth_guard)
        return fix((a,))

    def mk_ite(self, c: int, t: int, e: int) -> int:
        """If-then-else (c and t) or (not c and e), by ternary Shannon
        expansion on the minimum head variable."""
        for r in (c, t, e):
            self.pool.resolve(r)

        def cofactor(x: int, v: int, high: bool) -> int:
            if self.head_var(x) != v:
                return x
            n = self.node(x)
            return n.high if high else n.low

        def body(recurse, key):
            x, y, z = key
            v = min(self.head_var(x), self.head_var(y), self.head_var(z))
            lo = descend(recurse, cofactor(x, v, False),
                         cofactor(y, v, False), cofactor(z, v, False))
            hi = descend(recurse, cofactor(x, v, True),
                         cofactor(y, v, True), cofactor(z, v, True))
            return self.mk_node(lo, v, hi)

        def descend(recurse, x, y, z):
            if x == TRUE:
                return y
            if x == FALSE:
                return z
            if y == z:
                return y
            if y == TRUE and z == FALSE:
                return x
            return recurse((x, y, z))

        fix = memo_fix(body, self._table(self.m_ite),
                       depth_guard=self.depth_guard)
        return descend(fix, c, t, e)

    # -- observers -------------------------------------------------------

    def eval(self, a: int, env: Mapping[int, bool]) -> bool:
        """Follow the path selected by `env`; every variable actually
        traversed must be bound."""
        cur = a
        while not self.is_leaf(cur):
            n = self.node(cur)
            try:
                bit = env[n.var]
            except KeyError:
                raise UnboundVariableError(
                    f"variable x{n.var} unbound in environment"
                ) from None
            cur = n.high if bit else n.low
        return cur == TRUE

    def is_tautology(self, a: int) -> bool:
        self.pool.resolve(a)
        return a == TRUE

    def node_count(self, a: int) -> int:
        """Distinct decision nodes reachable from `a`, leaves excluded."""
        seen: set[int] = set()
        stack = [a]
        while stack:
            x = stack.pop()
            if x in seen or self.is_leaf(x):
                continue
            seen.add(x)
            n = self.node(x)
            stack.append(n.low)
            stack.append(n.high)
        return len(seen)

    def memo_stats(self) -> dict[str, dict[str, int]]:
        tables = {"and": self.m_and, "or": self.m_or, "xor": self.m_xor,
                  "not": self.m_not, "ite": self.m_ite}
        return {
            name: {"hits": t.hits, "misses": t.misses,
                   "body_evaluations": t.body_evaluations}
            for name, t in tables.items()
        }
