"""`check_invariants(mgr)`: the structural invariants of a `BddManager`
or a `LambdaManager`, its pool, its nodes and its memo tables, checked
in one place.  A test that builds a manager, or makes one fail part way
through an operation, ends in it.

- Pool: `fwd` and `back` are inverse, so no payload has two ids
  (maximal sharing) and no id is lost.
- BDD nodes `(var, low, high)`: the leaves are ids 0 and 1; every other
  node is reduced (`low != high`), both children are below its id, and
  its variable is below both children's head variables (ordered).
  `and` and `or` key node pairs `(min, max)` packed as
  `min << 32 | max`, `xor` as the tuple, `not` the id.
- Lambda nodes `(tag, x, y)`: the tag is valid, children precede their
  parents, and `_bound[i]` is exactly what the children give.  `lifti`
  and `subst` key `(p, c, t)` only for a `t` with a free index at or
  above the cut `c`; `hnf` and `nf` key the id.
- Tables: memo on, one stored entry per counted body evaluation; memo
  off, nothing stored; never more body evaluations than misses; every
  stored value an issued id.
"""

from maxshare.bdd import FALSE, LEAF_VAR, TRUE, BddManager
from maxshare.lam import ABS_TAG, APP_TAG, VAR_TAG
from maxshare.memo import ForgetfulTable

MASK = (1 << 32) - 1  # the low half of a packed `and`/`or` key


def check_invariants(mgr):
    fwd, nodes = mgr.pool.fwd, mgr.pool.back
    n = len(nodes)
    assert len(fwd) == n
    assert all(fwd[p] == uid for uid, p in enumerate(nodes))
    if isinstance(mgr, BddManager):
        assert nodes[:2] == [(LEAF_VAR, FALSE, FALSE), (LEAF_VAR, TRUE, TRUE)]
        for uid in range(2, n):
            v, low, high = nodes[uid]
            assert 0 <= low < uid and 0 <= high < uid and low != high, uid
            assert 0 <= v < nodes[low][0] and v < nodes[high][0], uid
        for t in (mgr.m_and, mgr.m_or):
            assert all(type(k) is int and TRUE < k >> 32 <= k & MASK < n
                       for k in t)
        assert all(TRUE < x <= y < n for x, y in mgr.m_xor)
        tables, ids = (mgr.m_and, mgr.m_or, mgr.m_xor), (mgr.m_not,)
    else:
        bound = mgr._bound
        assert len(bound) == n
        for uid, (tag, x, y) in enumerate(nodes):
            if tag == VAR_TAG:
                assert x >= 0 and y == 0 and bound[uid] == x + 1, uid
            elif tag == APP_TAG:
                assert 0 <= x < uid and 0 <= y < uid, uid
                assert bound[uid] == max(bound[x], bound[y]), uid
            else:
                assert tag == ABS_TAG and 0 <= x < uid and y == 0, uid
                assert bound[uid] == max(bound[x] - 1, 0), uid
        tables = (mgr.m_lifti, mgr.m_subst)
        for t in tables:
            assert all(0 <= u < n and 0 <= c < bound[u] for _, c, u in t)
        ids = (mgr.m_hnf, mgr.m_nf)
    for t in ids:
        assert all(type(k) is int and 0 <= k < n for k in t)
    for t in tables + ids:
        if isinstance(t, ForgetfulTable):
            assert len(t) == 0
        else:
            assert len(t) == t.body_evaluations
        assert t.body_evaluations <= t.misses
        assert all(0 <= r < n for r in t.values())
