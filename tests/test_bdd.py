import itertools
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import bdd_spec
from conftest import BudgetTable, formulas, random_formula
from invariants import check_invariants
from maxshare import bdd
from maxshare.bdd import (
    FALSE,
    TRUE,
    BddError,
    BddManager,
    IllOrderedError,
    UnboundVariableError,
)
from maxshare.formula import compile as compile_formula
from maxshare.formula import eval_formula, pigeonhole, urquhart, variables
from maxshare.intern import Pool, UnknownIdError


def all_envs(nvars):
    for bits in itertools.product((False, True), repeat=nvars):
        yield {i + 1: bits[i] for i in range(nvars)}


def compiled_pair(rng, mgr, nvars=6, depth=4):
    f = random_formula(rng, nvars, depth)
    g = random_formula(rng, nvars, depth)
    return compile_formula(mgr, f), compile_formula(mgr, g)


# -- mk_node ---------------------------------------------------------------

def test_mk_node_collapses_equal_children():
    mgr = BddManager()
    x = mgr.mk_node(FALSE, 1, TRUE)
    before = len(mgr.pool)
    assert mgr.mk_node(x, 0, x) == x
    assert len(mgr.pool) == before


def test_mk_node_shares():
    mgr = BddManager()
    a = mgr.mk_node(TRUE, 2, FALSE)
    b = mgr.mk_node(TRUE, 2, FALSE)
    assert a == b


def test_single_node_function():
    # f(x2) true iff x2 = 0: one decision node with TRUE low, FALSE high
    mgr = BddManager()
    n = mgr.mk_node(TRUE, 2, FALSE)
    assert mgr.eval(n, {2: False}) is True
    assert mgr.eval(n, {2: True}) is False
    assert mgr.node_count(n) == 1


def test_node_fields_in_stored_order():
    mgr = BddManager()
    x = mgr.mk_node(FALSE, 3, TRUE)
    assert mgr.node(x) == mgr.pool.back[x] == (3, FALSE, TRUE)
    assert mgr.node(x).var == 3 and mgr.node(x).low == FALSE


def test_mk_node_rejects_bad_order():
    mgr = BddManager()
    inner = mgr.mk_node(FALSE, 2, TRUE)
    with pytest.raises(IllOrderedError):
        mgr.mk_node(inner, 2, TRUE)
    with pytest.raises(IllOrderedError):
        mgr.mk_node(inner, 5, TRUE)


def test_mk_node_rejects_unknown_children():
    # equal children collapse only after both are known to the pool
    mgr = BddManager()
    inner = mgr.mk_node(FALSE, 2, TRUE)
    before = len(mgr.pool)
    for low, v, high in ((999, 1, 999), (-5, 3, -5), (inner, 1, 999),
                         (-1, 1, inner)):
        with pytest.raises(UnknownIdError):
            mgr.mk_node(low, v, high)
    assert len(mgr.pool) == before


# -- apply2 ----------------------------------------------------------------

def test_and_leaf_rules():
    mgr = BddManager()
    b = mgr.mk_node(FALSE, 3, TRUE)
    assert mgr.apply2("and", TRUE, b) == b
    assert mgr.apply2("and", b, TRUE) == b
    assert mgr.apply2("and", FALSE, b) == FALSE
    assert mgr.apply2("and", b, FALSE) == FALSE


def test_or_leaf_rules():
    mgr = BddManager()
    b = mgr.mk_node(FALSE, 3, TRUE)
    assert mgr.apply2("or", TRUE, b) == TRUE
    assert mgr.apply2("or", FALSE, b) == b


def test_xor_self_is_false():
    rng = random.Random(1)
    mgr = BddManager()
    for _ in range(200):
        a = compile_formula(mgr, random_formula(rng, 8, 4))
        assert mgr.apply2("xor", a, a) == FALSE


def test_apply2_pointwise_semantics():
    rng = random.Random(2)
    mgr = BddManager()
    ops = {"and": lambda x, y: x and y,
           "or": lambda x, y: x or y,
           "xor": lambda x, y: x != y}
    for _ in range(50):
        a, b = compiled_pair(rng, mgr)
        for op, fn in ops.items():
            r = mgr.apply2(op, a, b)
            for env in all_envs(6):
                assert mgr.eval(r, env) == fn(mgr.eval(a, env),
                                              mgr.eval(b, env))


def test_unknown_op_rejected():
    mgr = BddManager()
    with pytest.raises(BddError):
        mgr.apply2("nand", TRUE, TRUE)


def test_operations_reject_unknown_ids():
    # internal steps index the payload list without a bounds check, so
    # the public operations must reject what the pool never issued
    mgr = BddManager()
    x = mgr.mk_node(FALSE, 1, TRUE)
    for bad in (-1, len(mgr.pool)):
        for call in (lambda: mgr.apply2("and", x, bad),
                     lambda: mgr.apply2("xor", bad, x),
                     lambda: mgr.mk_not(bad),
                     lambda: mgr.mk_ite(bad, x, TRUE),
                     lambda: mgr.mk_ite(x, bad, TRUE),
                     lambda: mgr.mk_ite(x, TRUE, bad)):
            with pytest.raises(UnknownIdError):
                call()


# -- mk_not ----------------------------------------------------------------

def test_not_leaves():
    mgr = BddManager()
    assert mgr.mk_not(TRUE) == FALSE
    assert mgr.mk_not(FALSE) == TRUE


def test_not_involution_and_semantics():
    rng = random.Random(3)
    mgr = BddManager()
    for _ in range(50):
        a = compile_formula(mgr, random_formula(rng, 8, 4))
        na = mgr.mk_not(a)
        assert mgr.mk_not(na) == a
        for env in all_envs(8):
            assert mgr.eval(na, env) == (not mgr.eval(a, env))


# -- mk_ite ----------------------------------------------------------------

def test_ite_terminal_cases():
    mgr = BddManager()
    t = mgr.mk_node(FALSE, 2, TRUE)
    e = mgr.mk_node(TRUE, 3, FALSE)
    c = mgr.mk_node(FALSE, 1, TRUE)
    assert mgr.mk_ite(TRUE, t, e) == t
    assert mgr.mk_ite(FALSE, t, e) == e
    assert mgr.mk_ite(c, TRUE, FALSE) == c


def test_ite_agrees_with_eval():
    rng = random.Random(4)
    mgr = BddManager()
    for _ in range(200):
        c = compile_formula(mgr, random_formula(rng, 6, 3))
        t = compile_formula(mgr, random_formula(rng, 6, 3))
        e = compile_formula(mgr, random_formula(rng, 6, 3))
        r = mgr.mk_ite(c, t, e)
        for env in all_envs(6):
            assert mgr.eval(r, env) == (mgr.eval(t, env) if mgr.eval(c, env)
                                        else mgr.eval(e, env))


# -- eval / is_tautology / node_count --------------------------------------

def test_eval_true_leaf():
    assert BddManager().eval(TRUE, {}) is True


def test_eval_unbound_variable():
    mgr = BddManager()
    n = mgr.mk_node(FALSE, 1, TRUE)
    with pytest.raises(UnboundVariableError):
        mgr.eval(n, {})


def test_is_tautology():
    mgr = BddManager()
    x1 = mgr.mk_node(FALSE, 1, TRUE)
    assert mgr.is_tautology(TRUE)
    assert not mgr.is_tautology(x1)
    assert mgr.is_tautology(mgr.apply2("or", x1, mgr.mk_not(x1)))


def test_node_count():
    mgr = BddManager()
    assert mgr.node_count(TRUE) == 0
    x = mgr.mk_node(TRUE, 2, FALSE)
    assert mgr.node_count(x) == 1
    xor3 = FALSE
    for v in (1, 2, 3):
        xor3 = mgr.apply2("xor", xor3, mgr.mk_node(FALSE, v, TRUE))
    assert mgr.node_count(xor3) == 5


# -- invariants ------------------------------------------------------------

def test_pool_reduced_and_ordered_after_workload():
    rng = random.Random(5)
    mgr = BddManager()
    for _ in range(100):
        a, b = compiled_pair(rng, mgr)
        mgr.apply2("and", a, b)
        mgr.mk_ite(a, b, mgr.mk_not(a))
    check_invariants(mgr)


def test_monotonicity():
    rng = random.Random(6)
    mgr = BddManager()
    a, b = compiled_pair(rng, mgr)
    snapshot = {uid: mgr.pool.resolve(uid) for uid in range(len(mgr.pool))}
    mgr.apply2("xor", a, b)
    mgr.mk_ite(a, b, a)
    for uid, payload in snapshot.items():
        assert mgr.pool.resolve(uid) == payload


def test_memo_transparency_identifier_equality():
    # one manager, compared against a memo-free manager fed the same
    # operations; identifier sequences must coincide
    rng = random.Random(8)
    ops = [(random_formula(rng, 5, 3), random_formula(rng, 5, 3))
           for _ in range(30)]
    results = []
    for enabled in (True, False):
        mgr = BddManager(memo_enabled=enabled)
        out = []
        for f, g in ops:
            a = compile_formula(mgr, f)
            b = compile_formula(mgr, g)
            out.append((a, b, mgr.apply2("and", a, b),
                        mgr.apply2("xor", a, b), mgr.mk_ite(a, b, a)))
        results.append(out)
    assert results[0] == results[1]


def test_memoized_call_bound():
    rng = random.Random(9)
    mgr = BddManager()
    for _ in range(100):
        a, b = compiled_pair(rng, mgr, nvars=8, depth=4)
        before = mgr.m_and.body_evaluations
        mgr.apply2("and", a, b)
        delta = mgr.m_and.body_evaluations - before
        bound = (mgr.node_count(a) + 1) * (mgr.node_count(b) + 1)
        assert delta <= bound


def test_commutative_normalization():
    # the commutative operations key (min, max): swapping the operands
    # finds the first call's entry
    for op in ("and", "or", "xor"):
        mgr = BddManager()
        table = getattr(mgr, f"m_{op}")
        a, b = mgr.mk_node(FALSE, 1, TRUE), mgr.mk_node(TRUE, 2, FALSE)
        r = mgr.apply2(op, b, a)
        entries, hits, misses = len(table), table.hits, table.misses
        assert entries > 0
        assert mgr.apply2(op, a, b) == r
        assert (len(table), table.hits, table.misses) == \
            (entries, hits + 1, misses)


@settings(max_examples=60, deadline=None)
@given(formulas(max_vars=4), formulas(max_vars=4))
def test_canonicity_property(f, g):
    mgr = BddManager()
    rf = compile_formula(mgr, f)
    rg = compile_formula(mgr, g)
    agree = all(
        eval_formula(f, env) == eval_formula(g, env)
        for env in all_envs(4)
    )
    assert (rf == rg) == agree


def _counters(mgr):
    check_invariants(mgr)
    s = mgr.pool.stats()
    tables = {name: (len(t), t.hits)
              for name, t in (("and", mgr.m_and), ("or", mgr.m_or),
                              ("xor", mgr.m_xor), ("not", mgr.m_not))
              if len(t)}
    for t in (mgr.m_and, mgr.m_or, mgr.m_xor, mgr.m_not):
        assert t.misses == t.body_evaluations
    return s.node_count, s.intern_hits, tables


def test_pinned_counters():
    # node and memo counts are fixed by the algorithm: a refactor of the
    # engine must leave them exactly as they are
    mgr = BddManager()
    assert compile_formula(mgr, pigeonhole(6)) == TRUE
    assert _counters(mgr) == (12_487, 5_067, {"and": (162, 0),
                                              "or": (19_157, 8_602),
                                              "not": (44, 41)})
    # U(n) is one spine of 2n literal operands, which compile xors as a
    # balanced tree: parity diagrams over ever more variables, O(n log n)
    # nodes in all; `<->` negates its left operand, a variable, so `not`
    # runs only where `xor` meets a leaf in one cofactor
    mgr = BddManager()
    assert compile_formula(mgr, urquhart(50)) == TRUE
    assert _counters(mgr) == (483, 379, {"xor": (617, 460),
                                         "not": (223, 345)})
    mgr = BddManager()
    assert compile_formula(mgr, urquhart(200)) == TRUE
    assert _counters(mgr) == (2_335, 1_804, {"xor": (2_965, 2_650),
                                             "not": (1_086, 1_437)})


def test_pinned_counters_pigeonhole_8():
    mgr = BddManager()
    assert compile_formula(mgr, pigeonhole(8)) == TRUE
    assert _counters(mgr) == (153_228, 50_780, {"and": (352, 0),
                                                "or": (218_027, 103_490),
                                                "not": (74, 71)})


# -- and/or on an explicit stack --------------------------------------------

def _chain(mgr, variables, op):
    """x_1 op x_2 op ... over `variables`, built bottom-up with mk_node."""
    acc = TRUE if op == "and" else FALSE
    for v in reversed(variables):
        acc = (mgr.mk_node(FALSE, v, acc) if op == "and"
               else mgr.mk_node(acc, v, TRUE))
    return acc


@pytest.mark.parametrize("memo", [True, False])
@pytest.mark.parametrize("op", ["and", "or"])
def test_and_or_deep_chains(op, memo):
    # chains on the odd and the even variables interleave, so the descent
    # is 6,000 levels deep; at the default recursion limit
    mgr = BddManager(memo_enabled=memo)
    odd = _chain(mgr, list(range(1, 6000, 2)), op)
    even = _chain(mgr, list(range(2, 6001, 2)), op)
    r = mgr.apply2(op, odd, even)
    assert r == _chain(mgr, list(range(1, 6001)), op)
    assert mgr.node_count(r) == 6000
    env = dict.fromkeys(range(1, 6001), op == "and")
    assert mgr.eval(r, env) is (op == "and")
    env[3333] = op != "and"
    assert mgr.eval(r, env) is (op != "and")


@settings(max_examples=60, deadline=None)
@given(formulas(max_vars=4), formulas(max_vars=4))
def test_and_or_memo_transparent_and_pointwise(f, g):
    ops = {"and": lambda x, y: x and y, "or": lambda x, y: x or y}
    results = []
    for memo in (True, False):
        mgr = BddManager(memo_enabled=memo)
        a, b = compile_formula(mgr, f), compile_formula(mgr, g)
        out = {op: mgr.apply2(op, a, b) for op in ops}
        for op, fn in ops.items():
            for env in all_envs(4):
                assert mgr.eval(out[op], env) == fn(eval_formula(f, env),
                                                    eval_formula(g, env))
        results.append((a, b, out, len(mgr.pool)))
        check_invariants(mgr)
    assert results[0] == results[1]


class _BudgetPool(Pool):
    """A pool whose intern raises MemoryError once it holds `budget`
    nodes, as an allocation failure would."""

    budget = None

    def intern(self, p):
        if self.budget is not None and len(self.back) >= self.budget:
            raise MemoryError
        return super().intern(p)


@pytest.mark.parametrize("budget", [3_000, 9_000])
def test_and_or_counters_survive_a_raising_intern(monkeypatch, budget):
    # an intern (the pool holds `budget` nodes) or a store (a table
    # holds `budget` entries) raises inside the `or` machine, which adds
    # its counts to the tables all the same: a build counts its body
    # evaluation only once its store is done.  The manager stays usable.
    monkeypatch.setattr(bdd, "Pool", _BudgetPool)
    monkeypatch.setattr(bdd, "MemoTable", BudgetTable)
    for where in ("pool", "tables"):
        mgr = BddManager()
        tables = (mgr.m_and, mgr.m_or, mgr.m_xor, mgr.m_not)
        full = (mgr.pool,) if where == "pool" else tables
        for x in full:
            x.budget = budget
        with pytest.raises(MemoryError):
            compile_formula(mgr, pigeonhole(6))
        check_invariants(mgr)
        assert mgr.m_or.misses > len(mgr.m_or)  # the failing call's misses
        for x in full:
            x.budget = None
        assert compile_formula(mgr, pigeonhole(4)) == TRUE
        check_invariants(mgr)


# -- the steps against the recursive specification --------------------------

_NVARS = 5


@st.composite
def programs(draw, max_ops=25):
    """Steps `(op, i, j)` over a growing operand list: FALSE, TRUE and
    x1..x5, then each step's result; `not` reads only `i`."""
    count = 2 + _NVARS
    prog = []
    for _ in range(draw(st.integers(1, max_ops))):
        prog.append((draw(st.sampled_from(["and", "or", "xor", "not"])),
                     draw(st.integers(0, count - 1)),
                     draw(st.integers(0, count - 1))))
        count += 1
    return prog


def _run_program(mgr, steps, prog):
    ids = [FALSE, TRUE] + [mgr.mk_node(FALSE, v, TRUE)
                           for v in range(1, _NVARS + 1)]
    for op, i, j in prog:
        ids.append(steps[op](ids[i]) if op == "not"
                   else steps[op](ids[i], ids[j]))
    return ids


@pytest.mark.parametrize("memo", [True, False])
@settings(max_examples=100, deadline=None)
@given(programs())
def test_steps_match_recursive_spec(memo, prog):
    # The steps must make the spec's probes, stores and interns in the
    # spec's order: equal results, pools and tables.
    machine, spec = (BddManager(memo_enabled=memo) for _ in range(2))
    got = _run_program(machine, machine.unchecked, prog)
    assert got == _run_program(spec, bdd_spec.Spec(spec).steps, prog)
    assert machine.pool.back == spec.pool.back
    assert machine.pool.stats() == spec.pool.stats()
    for name in ("m_and", "m_or", "m_xor", "m_not"):
        a, b = getattr(machine, name), getattr(spec, name)
        assert (dict(a), a.hits, a.misses, a.body_evaluations) == \
            (dict(b), b.hits, b.misses, b.body_evaluations), name
    check_invariants(machine)


# -- sat_one ---------------------------------------------------------------

def test_sat_one_falsifies():
    rng = random.Random(11)
    mgr = BddManager()
    assert mgr.sat_one(FALSE) == {}
    for _ in range(200):
        f = random_formula(rng, 6, 4)
        r = compile_formula(mgr, f)
        if r == TRUE:
            with pytest.raises(BddError):
                mgr.sat_one(r)
            continue
        env = mgr.sat_one(r)
        assert set(env) <= variables(f)
        assert mgr.eval(r, env) is False
        full = {v: env.get(v, False) for v in variables(f)}
        assert eval_formula(f, full) is False


def test_sat_one_checks_ids():
    mgr = BddManager()
    for bad in (-1, len(mgr.pool)):
        with pytest.raises(UnknownIdError):
            mgr.sat_one(bad)
