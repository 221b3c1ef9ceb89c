import gc
import random
import sys
import threading
import weakref

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import lam_spec
from conftest import BudgetTable
from invariants import check_invariants
from maxshare import lam
from maxshare.intern import UnknownIdError
from maxshare.lam import (
    DeepStackError,
    LambdaManager,
    PlainNormalizer,
    ShapeError,
    _app,
    _build,
    _lam,
    church,
    church_list,
    decode_church,
    decode_list,
    from_plain,
    quicksort_term,
    run_deep,
    to_plain,
)
from maxshare.memo import DepthExceededError


@pytest.fixture
def mgr():
    return LambdaManager()


def random_term(mgr, rng, depth, free=1):
    # arbitrary terms (possibly diverging); fine for lift/sharing tests
    shape = rng.randint(0, 2) if depth > 0 else 0
    if shape == 0:
        if free == 0:
            return mgr.mk_abs(mgr.mk_var(0))
        return mgr.mk_var(rng.randrange(free))
    if shape == 1:
        return mgr.mk_abs(random_term(mgr, rng, depth - 1, free + 1))
    return mgr.mk_app(random_term(mgr, rng, depth - 1, free),
                      random_term(mgr, rng, depth - 1, free))


def affine_term(mgr, rng, depth=5):
    # every bound variable used at most once, so the term is strongly
    # normalizing and safe to feed to nf
    counter = [0]

    def go(depth, avail):
        if depth == 0 or rng.random() < 0.25:
            if avail and rng.random() < 0.7:
                return avail.pop(rng.randrange(len(avail)))
            return ("lam", "_w", "_w")  # identity, a safe closed leaf
        if rng.random() < 0.5:
            name = f"v{counter[0]}"
            counter[0] += 1
            avail.append(name)
            body = go(depth - 1, avail)
            if name in avail:  # unused binder goes out of scope
                avail.remove(name)
            return ("lam", name, body)
        return ("app", go(depth - 1, avail), go(depth - 1, avail))

    from maxshare.lam import _build
    return _build(mgr, go(depth, []))


def stuck_term(mgr, rng, free=2):
    # a free variable applied to 1-3 applications of affine terms, under
    # 0-2 binders: the head is stuck, so nf normalizes both sides of each
    # application, and both sides can make new nodes
    t = mgr.mk_var(rng.randrange(free))
    for _ in range(rng.randint(1, 3)):
        t = mgr.mk_app(t, mgr.mk_app(affine_term(mgr, rng, 3),
                                     affine_term(mgr, rng, 3)))
    for _ in range(rng.randint(0, 2)):
        t = mgr.mk_abs(t)
    return t


# -- constructors ----------------------------------------------------------

def test_mk_abs_shares(mgr):
    a = mgr.mk_abs(mgr.mk_var(0))
    b = mgr.mk_abs(mgr.mk_var(0))
    assert a == b


def test_mk_app_distinguishes_arguments(mgr):
    f = mgr.mk_abs(mgr.mk_var(0))
    assert mgr.mk_app(f, mgr.mk_var(1)) != mgr.mk_app(f, mgr.mk_var(2))


def test_invalid_child_rejected(mgr):
    # mk_app/mk_abs check their children at the public boundary
    a = mgr.mk_var(0)
    for bad in (-1, len(mgr.pool)):
        with pytest.raises(UnknownIdError):
            mgr.mk_app(a, bad)
        with pytest.raises(UnknownIdError):
            mgr.mk_app(bad, a)
        with pytest.raises(UnknownIdError):
            mgr.mk_abs(bad)
    assert len(mgr.pool) == 1


def test_no_duplicates_after_many_terms(mgr):
    rng = random.Random(13)
    for _ in range(10_000):
        random_term(mgr, rng, 4)
    check_invariants(mgr)


# -- lift / subst ----------------------------------------------------------

def test_lifti_below_cutoff(mgr):
    assert mgr.lifti(2, mgr.mk_var(0), 1) == mgr.mk_var(0)


def test_lifti_above_cutoff(mgr):
    assert mgr.lifti(2, mgr.mk_var(3), 1) == mgr.mk_var(5)


def test_lift_zero_is_identity(mgr):
    rng = random.Random(14)
    for _ in range(50):
        t = random_term(mgr, rng, 5)
        assert mgr.lift(0, t) == t


def test_lift_composition(mgr):
    rng = random.Random(15)
    for _ in range(50):
        t = random_term(mgr, rng, 5)
        n, m = rng.randint(0, 4), rng.randint(0, 4)
        assert mgr.lift(n, mgr.lift(m, t)) == mgr.lift(n + m, t)


def test_subst_hit_case(mgr):
    w = mgr.mk_abs(mgr.mk_var(0))
    assert mgr.subst(w, 0, mgr.mk_var(0)) == w


def test_subst_decrement_case(mgr):
    w = mgr.mk_abs(mgr.mk_var(0))
    assert mgr.subst(w, 0, mgr.mk_var(1)) == mgr.mk_var(0)


# -- free-variable bound ---------------------------------------------------

def plain_terms(max_index=4):
    """Plain de Bruijn terms, open ones included: indices run past the
    binders above them."""
    return st.recursive(
        st.builds(lambda i: ("var", i), st.integers(0, max_index)),
        lambda child: st.one_of(
            st.builds(lambda b: ("abs", b), child),
            st.builds(lambda f, a: ("app", f, a), child, child),
        ),
        max_leaves=12,
    )


def free_indices(t, depth=0):
    """Free indices of a plain term, counted from outside the term."""
    if t[0] == "var":
        return {t[1] - depth} if t[1] >= depth else set()
    if t[0] == "abs":
        return free_indices(t[1], depth + 1)
    return free_indices(t[1], depth) | free_indices(t[2], depth)


@settings(max_examples=200, deadline=None)
@given(plain_terms())
def test_bound_matches_free_indices(plain):
    m = LambdaManager()
    t = from_plain(m, plain)
    free = free_indices(to_plain(m, t))
    assert m.bound(t) == (max(free) + 1 if free else 0)


@settings(max_examples=100, deadline=None)
@given(plain_terms(), plain_terms(), st.integers(0, 4))
def test_children_precede_parents(pw, pt, n):
    # acyclicity and exact bounds for the nodes the constructors and the
    # subst/lifti bodies build
    m = LambdaManager()
    w, t = from_plain(m, pw), from_plain(m, pt)
    m.subst(w, n, t)
    m.lifti(n, t, 0)
    check_invariants(m)


@pytest.mark.parametrize("memo", [True, False])
@settings(max_examples=150, deadline=None)
@given(plain_terms(), plain_terms(), st.integers(0, 4), st.integers(0, 4))
def test_subst_lifti_match_plain_normalizer(memo, pw, pt, n, k):
    m = LambdaManager(memo_enabled=memo)
    w, t = from_plain(m, pw), from_plain(m, pt)
    ref = PlainNormalizer()
    assert m.subst(w, n, t) == from_plain(m, ref.subst(pw, n, pt))
    assert m.lifti(n, t, k) == from_plain(m, ref.lifti(n, pt, k))


def test_subst_lifti_skip_terms_at_or_below_the_cut(mgr):
    # bound(t) == 2: t is returned itself and no memo entry is written
    t = mgr.mk_app(mgr.mk_var(1), mgr.mk_abs(mgr.mk_var(1)))
    w = mgr.mk_var(7)
    assert mgr.bound(t) == 2
    assert mgr.subst(w, 2, t) == t
    assert mgr.lifti(5, t, 2) == t
    assert mgr.lifti(0, t, 0) == t  # a lift by 0 is the identity
    assert len(mgr.m_subst) == 0 and len(mgr.m_lifti) == 0
    assert mgr.subst(w, 1, t) != t
    assert mgr.lifti(5, t, 1) != t


@pytest.mark.parametrize("bad", [-1, 10**6])
def test_public_lift_subst_reject_unknown_ids(mgr, bad):
    t = mgr.mk_abs(mgr.mk_var(0))
    with pytest.raises(UnknownIdError):
        mgr.lifti(1, bad, 0)
    with pytest.raises(UnknownIdError):
        mgr.lift(1, bad)
    with pytest.raises(UnknownIdError):
        mgr.subst(t, 0, bad)
    with pytest.raises(UnknownIdError):
        mgr.subst(bad, 0, t)
    with pytest.raises(UnknownIdError):
        mgr.bound(bad)


def test_beta_identity(mgr):
    rng = random.Random(16)
    ident = mgr.mk_abs(mgr.mk_var(0))
    for _ in range(30):
        u = affine_term(mgr, rng)
        assert mgr.nf(mgr.mk_app(ident, u)) == mgr.nf(u)


# -- hnf / nf --------------------------------------------------------------

def test_nf_of_normal_term(mgr):
    ident = mgr.mk_abs(mgr.mk_var(0))
    assert mgr.nf(ident) == ident


def test_identity_self_application(mgr):
    ident = mgr.mk_abs(mgr.mk_var(0))
    assert mgr.nf(mgr.mk_app(ident, ident)) == ident


def church_add(mgr, a, b):
    plus = _build(mgr, _lam("m n f x", _app("m", "f", _app("n", "f", "x"))))
    return mgr.mk_app(mgr.mk_app(plus, a), b)


def church_mul(mgr, a, b):
    times = _build(mgr, _lam("m n f", _app("m", _app("n", "f"))))
    return mgr.mk_app(mgr.mk_app(times, a), b)


def test_church_arithmetic(mgr):
    s = mgr.nf(church_add(mgr, church(mgr, 1), church(mgr, 2)))
    assert s == church(mgr, 3)
    p = mgr.nf(church_mul(mgr, church(mgr, 3), church(mgr, 4)))
    assert decode_church(mgr, p) == 12


def test_nf_idempotent(mgr):
    rng = random.Random(17)
    for _ in range(30):
        t = affine_term(mgr, rng)
        n = mgr.nf(t)
        assert mgr.nf(n) == n


def test_nf_hnf_coherence(mgr):
    rng = random.Random(18)
    for _ in range(30):
        t = affine_term(mgr, rng)
        assert mgr.nf(mgr.hnf(t)) == mgr.nf(t)


def test_nf_agrees_with_plain_normalizer(mgr):
    rng = random.Random(19)
    for _ in range(30):
        t = affine_term(mgr, rng)
        ref = PlainNormalizer()
        assert from_plain(mgr, ref.nf(to_plain(mgr, t))) == mgr.nf(t)


def test_memo_transparency():
    rng = random.Random(20)
    terms = []
    m1 = LambdaManager()
    for _ in range(30):
        terms.append(to_plain(m1, affine_term(m1, rng)))
    m2 = LambdaManager(memo_enabled=False)
    for plain in terms:
        assert to_plain(m1, m1.nf(from_plain(m1, plain))) == \
            to_plain(m2, m2.nf(from_plain(m2, plain)))


# -- machines against the recursive specification -------------------------

def _run_ops(m, ops, seed, n, k):
    """Results of lifti/subst on random terms and hnf/nf (with their
    beta steps) on affine and stuck terms, all built in `m` from `seed`."""
    rng = random.Random(seed)
    out = []
    for _ in range(3):
        w, t = random_term(m, rng, 3), random_term(m, rng, 5, free=3)
        out += [ops.subst(w, n, t), ops.lifti(n, t, k)]
    for make in (affine_term,) * 3 + (stuck_term,) * 2:
        t = make(m, rng)
        out += [ops.hnf(t), ops.reduction_steps, ops.nf(t),
                ops.reduction_steps]
    return out


@pytest.mark.parametrize("memo", [True, False])
@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 3), st.integers(0, 3))
def test_machines_match_recursive_spec(memo, seed, n, k):
    # The machines must make the spec's probes, stores and interns in
    # the spec's order: equal results, pools, bounds and tables.
    machine, spec = (LambdaManager(memo_enabled=memo) for _ in range(2))
    got = _run_ops(machine, machine, seed, n, k)
    assert got == _run_ops(spec, lam_spec.Spec(spec), seed, n, k)
    assert machine.pool.back == spec.pool.back
    assert machine._bound == spec._bound
    assert machine.pool.stats() == spec.pool.stats()
    for name in ("m_lifti", "m_subst", "m_hnf", "m_nf"):
        a, b = getattr(machine, name), getattr(spec, name)
        assert (dict(a), a.hits, a.misses, a.body_evaluations) == \
            (dict(b), b.hits, b.misses, b.body_evaluations), name
    check_invariants(machine)


def test_machines_match_spec_on_quicksort_steps():
    machine, spec = LambdaManager(), LambdaManager()
    ops = lam_spec.Spec(spec)
    term, same = (m.mk_app(quicksort_term(m), church_list(m, [2, 0, 1]))
                  for m in (machine, spec))
    assert term == same
    assert machine.nf(term) == run_deep(ops.nf, term)
    assert machine.reduction_steps == ops.reduction_steps
    assert machine.pool.back == spec.pool.back
    assert machine.stats() == spec.stats()


def _sort_term(m, values):
    return m.mk_app(quicksort_term(m), church_list(m, values))


def test_step_guard_leaves_tables_consistent(monkeypatch):
    # Omega never normalizes: on the calling thread hnf and nf trip the
    # step guard, not the recursion limit.  That, or a store that raises
    # in any one table (at about half the entries the whole sort
    # stores), leaves every table with one stored entry per counted body
    # evaluation, and the manager usable.
    monkeypatch.setattr(lam, "STEP_GUARD", 1000)
    monkeypatch.setattr(lam, "MemoTable", BudgetTable)
    m = LambdaManager()
    half = m.mk_abs(m.mk_app(m.mk_var(0), m.mk_var(0)))
    omega = m.mk_app(half, half)
    for op in (m.hnf, m.nf):
        with pytest.raises(DepthExceededError):
            op(omega)
    assert m.m_hnf.misses > len(m.m_hnf)
    failed = [m]
    for name, budget in [("m_lifti", 40), ("m_subst", 700), ("m_hnf", 500),
                         ("m_nf", 20)]:
        x = LambdaManager()
        table = getattr(x, name)
        table.budget = budget
        with pytest.raises(MemoryError):
            x.nf(_sort_term(x, [3, 1, 2, 0]))
        assert table.misses > len(table)
        table.budget = None
        failed.append(x)
    monkeypatch.undo()
    fresh = LambdaManager()
    r = fresh.nf(_sort_term(fresh, [2, 0, 1]))
    assert decode_list(fresh, r) == [0, 1, 2]
    for x in failed:
        check_invariants(x)
        out = x.nf(_sort_term(x, [2, 0, 1]))
        assert to_plain(x, out) == to_plain(fresh, r)
        check_invariants(x)


# -- Church encodings ------------------------------------------------------

def test_church_round_trip(mgr):
    assert decode_church(mgr, church(mgr, 5)) == 5
    assert decode_church(mgr, church(mgr, 0)) == 0


def test_church_zero_shape(mgr):
    assert church(mgr, 0) == mgr.mk_abs(mgr.mk_abs(mgr.mk_var(0)))


def test_list_round_trip(mgr):
    assert decode_list(mgr, mgr.nf(church_list(mgr, [2, 1]))) == [2, 1]
    assert decode_list(mgr, church_list(mgr, [])) == []


def test_decode_shape_errors(mgr):
    with pytest.raises(ShapeError):
        decode_church(mgr, mgr.mk_var(0))
    with pytest.raises(ShapeError):
        decode_list(mgr, church(mgr, 3))
    with pytest.raises(ShapeError):
        # body does not iterate the bound function variable
        decode_church(mgr, mgr.mk_abs(mgr.mk_abs(mgr.mk_var(1))))


# -- quicksort -------------------------------------------------------------

def sort_via_lambda(values, *, memo=True):
    m = LambdaManager(memo_enabled=memo)
    term = m.mk_app(quicksort_term(m), church_list(m, values))
    return decode_list(m, m.nf(term)), m


def test_quicksort_paper_list():
    out, _ = sort_via_lambda([0, 3, 5, 2, 4, 1])
    assert out == [0, 1, 2, 3, 4, 5]


def test_quicksort_empty():
    out, _ = sort_via_lambda([])
    assert out == []


def test_quicksort_reverse():
    out, _ = sort_via_lambda([2, 1, 0])
    assert out == [0, 1, 2]


def test_quicksort_with_duplicates():
    out, _ = sort_via_lambda([2, 0, 2, 1, 0])
    assert out == [0, 0, 1, 2, 2]


def test_quicksort_pool_has_no_duplicates():
    _, m = sort_via_lambda([3, 1, 2, 0])
    check_invariants(m)


def test_memo_effectiveness_on_four_element_sort():
    # shared+memoized run allocates far fewer nodes than the unshared
    # unmemoized baseline; results agree after re-encoding
    values = [3, 2, 1, 0]
    m = LambdaManager()
    term = m.mk_app(quicksort_term(m), church_list(m, values))
    ref = PlainNormalizer()
    plain_out = run_deep(ref.nf, to_plain(m, term))
    memo_out = m.nf(term)
    assert m.pool.stats().intern_misses < ref.allocations
    assert from_plain(m, plain_out) == memo_out


def test_quicksort_reverse_ten_counters():
    # Pinned counters: the bound shortcut leaves the reduction itself
    # (steps, pool nodes, hnf entries) unchanged and keeps the subst
    # table small (130,732 entries without the shortcut); skipping
    # lifts by 0 takes the lifti table from 820 entries to 425.
    _, m = sort_via_lambda(list(range(9, -1, -1)))
    assert m.reduction_steps == 2193
    assert m.pool.stats().intern_misses == 6477
    assert len(m.m_hnf) == 4590
    assert len(m.m_subst) == 6983
    assert len(m.m_lifti) == 425
    # the one-operand tables are keyed on the term's id itself
    assert all(type(k) is int for k in m.m_hnf)
    assert all(type(k) is int for k in m.m_nf) and len(m.m_nf) > 0


def test_quicksort_sixty_on_the_calling_thread(monkeypatch):
    # The machines take no Python stack in proportion to the terms: the
    # memoized sort of [59..0] runs at the default recursion limit and
    # starts no thread.
    def start(self):
        raise AssertionError("a thread was started")
    monkeypatch.setattr(threading.Thread, "start", start)
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        out, _ = sort_via_lambda(list(range(59, -1, -1)))
    finally:
        sys.setrecursionlimit(old_limit)
    assert out == list(range(60))


@pytest.mark.parametrize("memo", [True, False], ids=["memo", "no-memo"])
def test_dropped_manager_is_freed_by_reference_counting(memo):
    # No machine closure refers to the manager or to itself, so with the
    # cyclic GC off `del` frees the manager and its pool, and leaves the
    # collector nothing to find.
    gc.collect()
    gc.disable()
    try:
        mgr = LambdaManager(memo_enabled=memo)
        term = mgr.mk_app(quicksort_term(mgr), church_list(mgr, [3, 1, 2, 0]))
        assert decode_list(mgr, mgr.nf(term)) == [0, 1, 2, 3]
        refs = weakref.ref(mgr), weakref.ref(mgr.pool)
        del mgr
        assert [r() for r in refs] == [None, None]
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- run_deep --------------------------------------------------------------

def _down(n):
    return 0 if n == 0 else 1 + _down(n - 1)


def test_run_deep_two_concurrent_callers():
    # The first caller returns while the second caller's worker is still
    # running and has yet to recurse: the recursion limit must stay
    # raised for it, and both process-wide settings must be back to
    # their old values once both are done.
    depth = 3 * sys.getrecursionlimit()
    old_limit = sys.getrecursionlimit()
    first_deep, second_started, first_done = (threading.Event()
                                              for _ in range(3))
    results, errors = {}, []

    def first():
        out = _down(depth)
        first_deep.set()
        assert second_started.wait(30)
        return out

    def second():
        second_started.set()
        assert first_done.wait(30)
        return _down(depth)

    def call(name, fn, done=None):
        try:
            results[name] = run_deep(fn, stack_bytes=1 << 24)
        except BaseException as exc:
            errors.append(exc)
        finally:
            if done is not None:
                done.set()

    t1 = threading.Thread(target=call, args=("first", first, first_done))
    t2 = threading.Thread(target=call, args=("second", second))
    t1.start()
    assert first_deep.wait(30)
    t2.start()
    t1.join(30)
    t2.join(30)
    assert not t1.is_alive() and not t2.is_alive()
    assert errors == []
    assert results == {"first": depth, "second": depth}
    assert threading.stack_size() == 0
    assert sys.getrecursionlimit() == old_limit


def test_run_deep_thread_start_failure_is_typed(monkeypatch):
    # both process-wide settings are restored on the failure path too
    def start(self):
        raise RuntimeError("can't start new thread")
    monkeypatch.setattr(threading.Thread, "start", start)
    old_limit = sys.getrecursionlimit()
    with pytest.raises(DeepStackError, match="can't start new thread"):
        run_deep(lambda: 1, recursion_limit=old_limit + 1000)
    assert sys.getrecursionlimit() == old_limit
    assert threading.stack_size() == 0
