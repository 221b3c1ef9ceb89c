"""Hash-consed de Bruijn lambda terms with memoized normalization.

Terms live in an interning pool, so structurally equal terms share one
identifier and term equality is identifier comparison.  Each node is
one flat `(tag, x, y)` tuple: `(VAR_TAG, i, 0)` for the variable `i`,
`(APP_TAG, f, a)` for an application and `(ABS_TAG, b, 0)` for an
abstraction, so every operation unpacks `tag, x, y = nodes[t]`.  The
four term operations (lift, subst, head normal form, normal form) are
memoized through `memo_fix`, each in its own `MemoTable`, or in a
`ForgetfulTable` with memoization off, so both modes run the same code.
`hnf` and `nf` key their tables on the term's id itself, `lifti` and
`subst` on tuples of ids and indices.  Reduction is normal order
(leftmost-outermost), which is what lets the fixed-point combinator in
the quicksort benchmark normalize.

Every node also carries its free-variable bound `bound(t)`: the smallest
`n` such that every free de Bruijn index of `t` is below `n` (0 for a
closed term).  It is computed once, in O(1) from the children, when the
node is first interned: `var i` has `i + 1`, `app f a` has
`max(bound f, bound a)` and `abs b` has `max(bound b - 1, 0)`.  With it
`subst(w, n, t)` and `lifti(n, t, k)` return `t` itself when `bound(t)`
is at or below the cut (`n`, resp. `k`), without a memo lookup, a
recursive call or a pool intern; the memoized bodies only ever see
subterms with a free index at or above the cut.  `lifti` by `n == 0`
(what `subst` at cut 0 asks for) is the identity and returns `t` the
same way.

Normalization of non-trivial terms recurses deeply; run top-level calls
through `run_deep` (a worker thread with a large stack and a raised
recursion limit) when the input is not known to be small.
"""

from __future__ import annotations

import sys
import threading
from typing import Callable, Sequence

from .intern import Pool
from .memo import (DepthExceededError, ForgetfulTable, MemoTable,
                   manager_stats, memo_fix)

VAR_TAG = 0
APP_TAG = 1
ABS_TAG = 2

STEP_GUARD = 10_000_000  # beta steps per hnf/nf call; read at each step

DEEP_STACK_BYTES = 1 << 29
DEEP_RECURSION_LIMIT = 3_000_000


class LambdaError(Exception):
    pass


class ShapeError(LambdaError):
    """Decoder applied to a term that is not the expected encoding."""


class DeepStackError(LambdaError):
    """`run_deep` could not start its worker thread."""


# `run_deep` changes two process-wide settings: the thread stack size,
# which Thread.start reads, and the recursion limit, which every thread
# reads.  One lock orders the changes of concurrent callers; the limit
# stays raised until the last active caller's worker has finished.
_deep_lock = threading.Lock()
_deep_callers = 0
_saved_recursion_limit = 0


def run_deep(fn: Callable, *args, stack_bytes: int = DEEP_STACK_BYTES,
             recursion_limit: int = DEEP_RECURSION_LIMIT):
    """Run `fn(*args)` on a worker thread with a big stack and a
    recursion limit of at least `recursion_limit`, returning its result
    or re-raising its exception; `DeepStackError` if the thread cannot
    start.  Safe to call from several threads at once."""
    global _deep_callers, _saved_recursion_limit
    box: dict = {}

    def worker():
        try:
            box["value"] = fn(*args)
        except BaseException as exc:  # re-raised on the caller's thread
            box["error"] = exc

    t = threading.Thread(target=worker)
    with _deep_lock:
        if _deep_callers == 0:
            _saved_recursion_limit = sys.getrecursionlimit()
        _deep_callers += 1
        if sys.getrecursionlimit() < recursion_limit:
            sys.setrecursionlimit(recursion_limit)
    try:
        with _deep_lock:
            old_size = threading.stack_size(stack_bytes)
            try:
                t.start()
            except RuntimeError as exc:  # e.g. under an address-space cap
                raise DeepStackError(f"engine thread: {exc}") from None
            finally:
                threading.stack_size(old_size)
        t.join()
    finally:
        with _deep_lock:
            _deep_callers -= 1
            if _deep_callers == 0:
                sys.setrecursionlimit(_saved_recursion_limit)
    if "error" in box:
        raise box["error"]
    return box["value"]


class LambdaManager:
    """Term pool plus the memo tables for lift/subst/hnf/nf.

    Single-writer.  `memo_enabled` is fixed at construction: off, every
    operation gets a `ForgetfulTable`, so the same code recomputes
    everything.  Build a second manager to compare memoized against
    unmemoized runs.
    `STEP_GUARD` bounds beta reductions per top-level hnf/nf call (per
    `PlainNormalizer`, over its life) and trips DepthExceededError on
    non-normalizing input.

    The pool is grown only through `mk_var` and the unchecked
    `_app`/`_abs` (which `mk_app`/`mk_abs` call once they have checked
    their children); they keep `_bound` (the free-variable bound,
    indexed by id) in step with it.
    """

    def __init__(self, *, memo_enabled: bool = True) -> None:
        self.pool = Pool()
        self._bound: list[int] = []
        table = MemoTable if memo_enabled else ForgetfulTable
        self.m_lifti = table()
        self.m_subst = table()
        self.m_hnf = table()
        self.m_nf = table()
        self._steps = 0
        self._build_fixers()

    # -- constructors ----------------------------------------------------
    #
    # The pool issues ids 0, 1, 2, ... in order, so `uid == len(_bound)`
    # holds exactly when intern allocated a fresh node.  Public
    # `mk_app`/`mk_abs` check their children; the operations build
    # nodes from ids the pool issued through the unchecked `_app`/`_abs`.

    def mk_var(self, i: int) -> int:
        if i < 0:
            raise LambdaError(f"negative de Bruijn index {i}")
        uid = self.pool.intern((VAR_TAG, i, 0))
        if uid == len(self._bound):
            self._bound.append(i + 1)
        return uid

    def mk_app(self, f: int, a: int) -> int:
        self.pool.resolve(f)
        self.pool.resolve(a)
        return self._app(f, a)

    def mk_abs(self, b: int) -> int:
        self.pool.resolve(b)
        return self._abs(b)

    def bound(self, t: int) -> int:
        """Smallest n such that every free de Bruijn index of t is < n."""
        self.pool.resolve(t)
        return self._bound[t]

    # -- operations ------------------------------------------------------
    #
    # Ids are checked once, at the public `lifti`/`lift`/`subst`/`hnf`/
    # `nf`/`bound`; the bodies below read the nodes of ids the pool
    # issued straight from `pool.back`.  The memoized lifti/subst bodies
    # are entered only for a term whose bound is above the cut; every
    # call on a child re-tests the bound first.  Under an abstraction the
    # test is implied (bound(abs b) > c means bound(b) > c + 1), so only
    # application children are tested.

    def _build_fixers(self) -> None:
        bound = self._bound
        nodes = self.pool.back
        intern = self.pool.intern
        mk_var = self.mk_var

        def app(f: int, a: int) -> int:
            uid = intern((APP_TAG, f, a))
            if uid == len(bound):
                bf, ba = bound[f], bound[a]
                bound.append(bf if bf > ba else ba)
            return uid

        def abs_(b: int) -> int:
            uid = intern((ABS_TAG, b, 0))
            if uid == len(bound):
                bb = bound[b]
                bound.append(bb - 1 if bb > 0 else 0)
            return uid

        self._app = app
        self._abs = abs_

        def lifti_body(recurse, key):
            n, t, k = key
            tag, x, y = nodes[t]
            if tag == VAR_TAG:
                return mk_var(x + n)
            if tag == ABS_TAG:
                return abs_(recurse((n, x, k + 1)))
            return app(x if bound[x] <= k else recurse((n, x, k)),
                       y if bound[y] <= k else recurse((n, y, k)))

        lifti_fix = memo_fix(lifti_body, self.m_lifti)

        def lifti(n: int, t: int, k: int) -> int:
            return t if n == 0 or bound[t] <= k else lifti_fix((n, t, k))

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

        subst_fix = memo_fix(subst_body, self.m_subst)

        def subst(w: int, n: int, t: int) -> int:
            return t if bound[t] <= n else subst_fix((w, n, t))

        self._lifti = lifti
        self._subst = subst

        def beta(u: int, w: int) -> int:
            self._steps += 1
            if self._steps > STEP_GUARD:
                raise DepthExceededError(
                    f"exceeded {STEP_GUARD} reduction steps"
                )
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

        self._hnf = memo_fix(hnf_body, self.m_hnf)

        def nf_body(recurse, t):
            tag, f, u = nodes[t]
            if tag == VAR_TAG:
                return t
            if tag == ABS_TAG:
                return abs_(recurse(f))
            h = self._hnf(f)
            htag, hb, _ = nodes[h]
            if htag == ABS_TAG:
                return recurse(beta(u, hb))
            return app(recurse(h), recurse(u))

        self._nf = memo_fix(nf_body, self.m_nf)

    def lifti(self, n: int, t: int, k: int) -> int:
        """Shift free variables >= k up by n; t itself when n == 0 or
        bound(t) <= k."""
        self.pool.resolve(t)
        return self._lifti(n, t, k)

    def lift(self, n: int, t: int) -> int:
        return self.lifti(n, t, 0)

    def subst(self, w: int, n: int, t: int) -> int:
        """Substitute w for variable n in t, decrementing the variables
        above the cut; t itself when bound(t) <= n."""
        self.pool.resolve(w)
        self.pool.resolve(t)
        return self._subst(w, n, t)

    def _guarded(self, fix, t: int) -> int:
        self.pool.resolve(t)
        self._steps = 0
        return fix(t)

    def hnf(self, t: int) -> int:
        """Head normal form under normal-order reduction."""
        return self._guarded(self._hnf, t)

    def nf(self, t: int) -> int:
        """Full normal form under normal-order reduction."""
        return self._guarded(self._nf, t)

    @property
    def reduction_steps(self) -> int:
        """Beta steps taken by the current/last top-level hnf/nf call."""
        return self._steps

    def stats(self) -> dict[str, dict]:
        """Pool counters and each memo table's hits, misses and body
        evaluations, as the `pool_stats` and `memo_stats` of a report."""
        return manager_stats(self.pool, {
            "lifti": self.m_lifti, "subst": self.m_subst,
            "hnf": self.m_hnf, "nf": self.m_nf})


# -- plain reference normalizer --------------------------------------------
#
# The unshared baseline: terms are nested tuples, nothing is interned
# and nothing is memoized, so every node construction is a fresh
# allocation.  Serves as an independent oracle for the pooled
# normalizer and as the measurement baseline for how much work sharing
# plus memoization saves.

PlainTerm = tuple


class PlainNormalizer:
    def __init__(self) -> None:
        self.allocations = 0
        self.reduction_steps = 0

    def var(self, i: int) -> PlainTerm:
        self.allocations += 1
        return ("var", i)

    def app(self, f: PlainTerm, a: PlainTerm) -> PlainTerm:
        self.allocations += 1
        return ("app", f, a)

    def abs(self, b: PlainTerm) -> PlainTerm:
        self.allocations += 1
        return ("abs", b)

    def lifti(self, n: int, t: PlainTerm, k: int) -> PlainTerm:
        if t[0] == "var":
            return t if t[1] < k else self.var(t[1] + n)
        if t[0] == "abs":
            return self.abs(self.lifti(n, t[1], k + 1))
        return self.app(self.lifti(n, t[1], k), self.lifti(n, t[2], k))

    def subst(self, w: PlainTerm, n: int, t: PlainTerm) -> PlainTerm:
        if t[0] == "var":
            i = t[1]
            if i < n:
                return t
            if i == n:
                return self.lifti(n, w, 0)
            return self.var(i - 1)
        if t[0] == "abs":
            return self.abs(self.subst(w, n + 1, t[1]))
        return self.app(self.subst(w, n, t[1]), self.subst(w, n, t[2]))

    def _beta(self, u: PlainTerm, w: PlainTerm) -> PlainTerm:
        self.reduction_steps += 1
        if self.reduction_steps > STEP_GUARD:
            raise DepthExceededError(
                f"exceeded {STEP_GUARD} reduction steps"
            )
        return self.subst(u, 0, w)

    def hnf(self, t: PlainTerm) -> PlainTerm:
        if t[0] == "var":
            return t
        if t[0] == "abs":
            return self.abs(self.hnf(t[1]))
        h = self.hnf(t[1])
        if h[0] == "abs":
            return self.hnf(self._beta(t[2], h[1]))
        return self.app(h, t[2])

    def nf(self, t: PlainTerm) -> PlainTerm:
        if t[0] == "var":
            return t
        if t[0] == "abs":
            return self.abs(self.nf(t[1]))
        h = self.hnf(t[1])
        if h[0] == "abs":
            return self.nf(self._beta(t[2], h[1]))
        return self.app(self.nf(h), self.nf(t[2]))


def to_plain(mgr: LambdaManager, t: int) -> PlainTerm:
    """Unfold a pooled term into the unshared tuple representation."""
    tag, x, y = mgr.pool.resolve(t)
    if tag == VAR_TAG:
        return ("var", x)
    if tag == ABS_TAG:
        return ("abs", to_plain(mgr, x))
    return ("app", to_plain(mgr, x), to_plain(mgr, y))


def from_plain(mgr: LambdaManager, t: PlainTerm) -> int:
    """Re-encode an unshared term into the pool, bottom-up."""
    if t[0] == "var":
        return mgr.mk_var(t[1])
    if t[0] == "abs":
        return mgr.mk_abs(from_plain(mgr, t[1]))
    return mgr.mk_app(from_plain(mgr, t[1]), from_plain(mgr, t[2]))


# -- named-term builder (internal) ----------------------------------------
#
# The combinator library below is much easier to audit with names than
# with raw de Bruijn indices; `_build` does the index conversion.  This
# is construction plumbing only, not a surface syntax.

def _build(mgr: LambdaManager, expr, env: tuple[str, ...] = ()) -> int:
    if isinstance(expr, int):  # splice of an already-built closed term
        return expr
    if isinstance(expr, str):
        try:
            return mgr.mk_var(env.index(expr))
        except ValueError:
            raise LambdaError(f"unbound name {expr!r}") from None
    kind = expr[0]
    if kind == "lam":
        _, name, body = expr
        return mgr.mk_abs(_build(mgr, body, (name,) + env))
    if kind == "app":
        t = _build(mgr, expr[1], env)
        for arg in expr[2:]:
            t = mgr.mk_app(t, _build(mgr, arg, env))
        return t
    raise LambdaError(f"bad builder expression {expr!r}")


def _lam(names: str, body):
    out = body
    for name in reversed(names.split()):
        out = ("lam", name, out)
    return out


def _app(*parts):
    return ("app",) + parts


# -- Church encodings ------------------------------------------------------

def church(mgr: LambdaManager, n: int) -> int:
    """The numeral  lam f. lam x. f^n x."""
    if n < 0:
        raise LambdaError(f"cannot encode negative number {n}")
    f, x = mgr.mk_var(1), mgr.mk_var(0)
    t = x
    for _ in range(n):
        t = mgr.mk_app(f, t)
    return mgr.mk_abs(mgr.mk_abs(t))

def church_list(mgr: LambdaManager, xs: Sequence[int]) -> int:
    """Right-fold encoding  lam c. lam n. c x1 (c x2 (... n))  with
    Church-numeral elements."""
    c, n = mgr.mk_var(1), mgr.mk_var(0)
    t = n
    for v in reversed(xs):
        t = mgr.mk_app(mgr.mk_app(c, church(mgr, v)), t)
    return mgr.mk_abs(mgr.mk_abs(t))


def _under_two_abs(mgr: LambdaManager, t: int, what: str) -> int:
    """The body `b` of `lam. lam. b`, the shape of numerals and lists."""
    for _ in range(2):
        tag, t, _ = mgr.pool.resolve(t)
        if tag != ABS_TAG:
            raise ShapeError(f"{what} must start with two abstractions")
    return t


def decode_church(mgr: LambdaManager, t: int) -> int:
    """Inverse of `church` on normal-form numerals."""
    body = _under_two_abs(mgr, t, "numeral")
    count = 0
    while True:
        tag, x, y = mgr.pool.resolve(body)
        if tag == VAR_TAG:
            if x != 0:
                raise ShapeError("numeral body must end at the bound var")
            return count
        if tag != APP_TAG:
            raise ShapeError("unexpected abstraction inside numeral body")
        if mgr.pool.resolve(x) != (VAR_TAG, 1, 0):
            raise ShapeError("numeral body must iterate the function var")
        count += 1
        body = y


def decode_list(mgr: LambdaManager, t: int) -> list[int]:
    """Inverse of `church_list` on normal-form lists of numerals."""
    body = _under_two_abs(mgr, t, "list")
    out: list[int] = []
    while True:
        tag, x, y = mgr.pool.resolve(body)
        if tag == VAR_TAG:
            if x != 0:
                raise ShapeError("list body must end at the nil var")
            return out
        if tag != APP_TAG:
            raise ShapeError("unexpected abstraction inside list body")
        tag, cons, head = mgr.pool.resolve(x)
        if tag != APP_TAG or mgr.pool.resolve(cons) != (VAR_TAG, 1, 0):
            raise ShapeError("list body must apply the cons var")
        out.append(decode_church(mgr, head))
        body = y


# -- quicksort over Church-encoded lists -----------------------------------

def quicksort_term(mgr: LambdaManager) -> int:
    """A closed term sorting fold-encoded lists of Church numerals.

    Uses Turing's fixed-point combinator, Church booleans, and the pair
    trick for predecessor and list tail; partitions on `less than
    pivot` so duplicates of the pivot stay in the right half.
    """
    tru = _lam("a b", "a")
    fls = _lam("a b", "b")
    notb = _lam("p a b", _app("p", "b", "a"))
    pair = _lam("a b f", _app("f", "a", "b"))
    fst = _lam("p", _app("p", tru))
    snd = _lam("p", _app("p", fls))

    zero = _lam("f x", "x")
    succ = _lam("n f x", _app("f", _app("n", "f", "x")))
    pred = _lam("n", _app(
        fst,
        _app("n",
             _lam("p", _app(pair, _app(snd, "p"),
                            _app(succ, _app(snd, "p")))),
             _app(pair, zero, zero))))
    sub = _lam("m n", _app("n", pred, "m"))
    iszero = _lam("n", _app("n", _lam("z", fls), tru))
    leb = _lam("m n", _app(iszero, _app(sub, "m", "n")))
    ltb = _lam("m n", _app(leb, _app(succ, "m"), "n"))

    nil = _lam("c n", "n")
    cons = _lam("h t c n", _app("c", "h", _app("t", "c", "n")))
    append = _lam("a b c n", _app("a", "c", _app("b", "c", "n")))
    filt = _lam("p l c n", _app(
        "l", _lam("h t", _app("p", "h", _app("c", "h", "t"), "t")), "n"))
    isnil = _lam("l", _app("l", _lam("h t", fls), tru))
    head = _lam("l", _app("l", _lam("h t", "h"), zero))
    tail = _lam("l", _app(
        fst,
        _app("l",
             _lam("h acc", _app(pair, _app(snd, "acc"),
                                _app(cons, "h", _app(snd, "acc")))),
             _app(pair, nil, nil))))

    half = _lam("x y", _app("y", _app("x", "x", "y")))
    theta = _app(half, half)

    step = _lam("rec l", _app(
        _app(isnil, "l"),
        nil,
        _app(append,
             _app("rec", _app(filt,
                              _lam("z", _app(ltb, "z", _app(head, "l"))),
                              _app(tail, "l"))),
             _app(cons, _app(head, "l"),
                  _app("rec", _app(filt,
                                   _lam("z", _app(notb,
                                                  _app(ltb, "z",
                                                       _app(head, "l")))),
                                   _app(tail, "l")))))))

    return _build(mgr, _app(theta, step))
