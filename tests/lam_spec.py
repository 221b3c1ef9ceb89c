"""Reference versions of `LambdaManager`'s `lifti`, `subst`, `hnf` and
`nf`, kept as the specification its explicit-stack machines are tested
against.

`Spec(mgr)` runs the recursive `memo_fix` bodies over `mgr`'s pool,
free-variable bounds and memo tables: it interns through `Pool.intern`,
keeps `mgr._bound` in step as the manager's constructors do, and counts
its beta steps in `reduction_steps` against the same `lam.STEP_GUARD`.
Two managers built alike, one run through the machines and one through
the spec, must end with equal results, pools, bounds and tables,
counters included.  The bodies recurse once per term level, so keep
their inputs small or run them under `lam.run_deep`.
"""

from maxshare import lam
from maxshare.lam import ABS_TAG, APP_TAG, VAR_TAG
from maxshare.memo import DepthExceededError, memo_fix


class Spec:
    def __init__(self, mgr: lam.LambdaManager) -> None:
        self.reduction_steps = 0
        bound, nodes, intern = mgr._bound, mgr.pool.back, mgr.pool.intern
        mk_var = mgr.mk_var

        def app(f, a):
            uid = intern((APP_TAG, f, a))
            if uid == len(bound):
                bound.append(max(bound[f], bound[a]))
            return uid

        def abs_(b):
            uid = intern((ABS_TAG, b, 0))
            if uid == len(bound):
                bound.append(max(bound[b] - 1, 0))
            return uid

        def lifti_body(recurse, key):
            n, k, t = key
            tag, x, y = nodes[t]
            if tag == VAR_TAG:
                return mk_var(x + n)
            if tag == ABS_TAG:
                return abs_(recurse((n, k + 1, x)))
            return app(x if bound[x] <= k else recurse((n, k, x)),
                       y if bound[y] <= k else recurse((n, k, y)))

        lifti_fix = memo_fix(lifti_body, mgr.m_lifti)

        def lifti(n, t, k):
            return t if n == 0 or bound[t] <= k else lifti_fix((n, k, t))

        def subst_body(recurse, key):
            w, n, t = key
            tag, x, y = nodes[t]
            if tag == VAR_TAG:
                if x == n:
                    return lifti(n, w, 0)
                return mk_var(x - 1)
            if tag == ABS_TAG:
                return abs_(recurse((w, n + 1, x)))
            return app(x if bound[x] <= n else recurse((w, n, x)),
                       y if bound[y] <= n else recurse((w, n, y)))

        subst_fix = memo_fix(subst_body, mgr.m_subst)

        def subst(w, n, t):
            return t if bound[t] <= n else subst_fix((w, n, t))

        def beta(u, w):
            self.reduction_steps += 1
            if self.reduction_steps > lam.STEP_GUARD:
                raise DepthExceededError(
                    f"exceeded {lam.STEP_GUARD} reduction steps")
            return subst(u, 0, w)

        def hnf_body(recurse, t):
            tag, f, u = nodes[t]
            if tag == VAR_TAG:
                return t
            if tag == ABS_TAG:
                return abs_(recurse(f))
            h = recurse(f)
            htag, hb, _ = nodes[h]
            if htag == ABS_TAG:
                return recurse(beta(u, hb))
            return app(h, u)

        hnf_fix = memo_fix(hnf_body, mgr.m_hnf)

        def nf_body(recurse, t):
            tag, f, u = nodes[t]
            if tag == VAR_TAG:
                return t
            if tag == ABS_TAG:
                return abs_(recurse(f))
            h = hnf_fix(f)
            htag, hb, _ = nodes[h]
            if htag == ABS_TAG:
                return recurse(beta(u, hb))
            return app(recurse(h), recurse(u))

        nf_fix = memo_fix(nf_body, mgr.m_nf)

        self.lifti, self.subst = lifti, subst
        self._hnf, self._nf = hnf_fix, nf_fix

    def hnf(self, t: int) -> int:
        self.reduction_steps = 0
        return self._hnf(t)

    def nf(self, t: int) -> int:
        self.reduction_steps = 0
        return self._nf(t)
