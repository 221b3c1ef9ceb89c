"""Reference versions of `BddManager`'s `and`, `or`, `xor` and `not`,
kept as the specification its steps are tested against.

`Spec(mgr)` runs the recursive `memo_fix` bodies over `mgr`'s pool and
memo tables: `meld` expands a pair on the smaller head variable, low
cofactors first, and each `*_step` applies its operation's leaf rules
before the table is probed under `(min, max)`, packed as
`min << 32 | max` for `and` and `or` (`not` under the id).
Two managers built alike, one run through `mgr.unchecked` and one
through the spec, must end with equal results, pools and tables,
counters included.  The bodies recurse about three frames per variable
level, so keep the diagrams shallow.
"""

from maxshare.bdd import FALSE, TRUE, BddManager
from maxshare.memo import memo_fix


class Spec:
    def __init__(self, mgr: BddManager) -> None:
        nodes, intern = mgr.pool.back, mgr.pool.intern

        def mk(low, v, high):
            if low == high:
                return low
            return intern((v, low, high))

        def meld(step, packed):
            """Body of a binary operation: simultaneous descent on the
            smaller head variable, each cofactor pair through `step`.
            A `packed` key is `min << 32 | max`, else `(min, max)`."""
            def body(_, key):
                x, y = divmod(key, 1 << 32) if packed else key
                vx, xl, xh = nodes[x]
                vy, yl, yh = nodes[y]
                if vx == vy:
                    return mk(step(xl, yl), vx, step(xh, yh))
                if vx < vy:
                    return mk(step(xl, y), vx, step(xh, y))
                return mk(step(x, yl), vy, step(x, yh))
            return body

        def and_step(x, y):
            if x == FALSE or y == FALSE:
                return FALSE
            if x == TRUE:
                return y
            if y == TRUE:
                return x
            return and_fix((x << 32 | y) if x < y else (y << 32 | x))

        def or_step(x, y):
            if x == TRUE or y == TRUE:
                return TRUE
            if x == FALSE:
                return y
            if y == FALSE:
                return x
            return or_fix((x << 32 | y) if x < y else (y << 32 | x))

        def xor_step(x, y):
            if x == FALSE:
                return y
            if y == FALSE:
                return x
            if x == TRUE:
                return not_fix(y)
            if y == TRUE:
                return not_fix(x)
            return xor_fix((x, y) if x < y else (y, x))

        and_fix = memo_fix(meld(and_step, True), mgr.m_and)
        or_fix = memo_fix(meld(or_step, True), mgr.m_or)
        xor_fix = memo_fix(meld(xor_step, False), mgr.m_xor)

        def not_body(recurse, x):
            if x == FALSE:
                return TRUE
            if x == TRUE:
                return FALSE
            v, low, high = nodes[x]
            return mk(recurse(low), v, recurse(high))

        not_fix = memo_fix(not_body, mgr.m_not)

        self.steps = {"and": and_step, "or": or_step, "xor": xor_step,
                      "not": not_fix}
