import pytest
from hypothesis import given, settings, strategies as st

from conftest import BudgetTable
from invariants import check_invariants
from maxshare import bdd
from maxshare.bdd import TRUE, BddManager
from maxshare.formula import compile as compile_formula
from maxshare.formula import pigeonhole, urquhart
from maxshare.lam import LambdaManager, church_list, quicksort_term
from maxshare.memo import (
    ForgetfulTable,
    MemoContractError,
    MemoTable,
    memo_fix,
)


def test_memo_fix_rebinding_is_contract_violation():
    # an impure body: the same key is first bound by another function
    t = MemoTable()
    other = memo_fix(lambda recurse, key: "b", t)

    def body(recurse, key):
        other(key)
        return "a"

    with pytest.raises(MemoContractError):
        memo_fix(body, t)((1,))


def test_memo_fix_same_value_rebinding_accepted():
    # a key bound again, to an equal value, is not a contract violation
    t = MemoTable()
    other = memo_fix(lambda recurse, key: "v", t)

    def body(recurse, key):
        other(key)
        return "v"

    assert memo_fix(body, t)((1,)) == "v"
    assert len(t) == 1 and t.body_evaluations == 2


def test_table_access_shares_entries_and_counters_with_memo_fix():
    # an entry written through the table's own `setdefault` is a hit for
    # `memo_fix` and the other way round; a machine adds its own counts
    # to the slots
    table = MemoTable()
    assert table.get((3, 7)) is None
    assert table.setdefault((3, 7), 10) == 10
    table.hits += 2
    table.misses += 3
    table.body_evaluations += 3
    f = memo_fix(lambda recurse, key: key[0] * key[1], table)
    assert f((3, 7)) == 10 and f((2, 5)) == 10
    assert table.get((2, 5)) == 10 and len(table) == 2
    assert (table.hits, table.misses, table.body_evaluations) == (3, 4, 4)
    assert table.setdefault((2, 5), 11) == 10
    assert "rebound: 10 -> 11" in str(MemoContractError.rebound((2, 5), 10, 11))


def test_memo_fix_counts_only_stored_evaluations(monkeypatch):
    # `xor` and `not` run on `memo_fix`: a store that raises (a table
    # holds 100 entries) leaves one stored entry per counted body
    # evaluation, and the manager usable
    monkeypatch.setattr(bdd, "MemoTable", BudgetTable)
    mgr = BddManager()
    mgr.m_xor.budget = mgr.m_not.budget = 100
    with pytest.raises(MemoryError):
        compile_formula(mgr, urquhart(50))
    check_invariants(mgr)
    mgr.m_xor.budget = mgr.m_not.budget = None
    assert compile_formula(mgr, urquhart(50)) == TRUE
    check_invariants(mgr)


def _exp_body(recurse, key):
    (n,) = key
    if n == 0:
        return 1
    return recurse((n - 1,)) + recurse((n - 1,))


def test_exp_linear_evaluations():
    # doubly-recursive exponential; memoized it needs n+1 body runs
    for n in range(0, 31):
        t = MemoTable()
        f = memo_fix(_exp_body, t)
        assert f((n,)) == 2**n
        assert t.body_evaluations == n + 1
        assert t.misses == t.body_evaluations
        assert t.hits == n


def _plain_fib(n):
    return n if n < 2 else _plain_fib(n - 1) + _plain_fib(n - 2)


def test_fib_matches_plain_recursion():
    t = MemoTable()

    def body(recurse, key):
        (n,) = key
        return n if n < 2 else recurse((n - 1,)) + recurse((n - 2,))

    f = memo_fix(body, t)
    assert f((20,)) == 6765
    assert f((20,)) == _plain_fib(20)


def test_at_most_once_per_key():
    t = MemoTable()
    f = memo_fix(_exp_body, t)
    f((10,))
    evals = t.body_evaluations
    f((10,))
    assert t.body_evaluations == evals


# the forgetful reference runs `memo_fix`'s probe and counters on each
# of its 2**(n+1) - 1 calls, ~0.3 s at n = 18
@settings(deadline=None)
@given(st.integers(0, 18))
def test_transparency_against_unmemoized(n):
    memoized = memo_fix(_exp_body, MemoTable())
    plain = memo_fix(_exp_body, ForgetfulTable())
    assert memoized((n,)) == plain((n,)) == 2**n


def test_table_persists_across_calls():
    t = MemoTable()
    f = memo_fix(_exp_body, t)
    f((8,))
    g = memo_fix(_exp_body, t)  # fresh combinator, same table
    g((8,))
    assert t.body_evaluations == 9


def _bdd_run(memo):
    mgr = BddManager(memo_enabled=memo)
    r = compile_formula(mgr, pigeonhole(3))
    return r, mgr, [mgr.m_and, mgr.m_or, mgr.m_xor, mgr.m_not]


def _lambda_run(memo):
    mgr = LambdaManager(memo_enabled=memo)
    r = mgr.nf(mgr.mk_app(quicksort_term(mgr), church_list(mgr, [2, 0, 1])))
    return r, mgr, [mgr.m_lifti, mgr.m_subst, mgr.m_hnf, mgr.m_nf]


@pytest.mark.parametrize("run", [_bdd_run, _lambda_run])
def test_memo_off_stores_nothing_and_counts_every_evaluation(run):
    # memo off runs the same engine code on forgetful tables: nothing is
    # stored, every probe misses and runs its body once
    on, on_mgr, _ = run(True)
    off, off_mgr, tables = run(False)
    assert off == on and len(off_mgr.pool) == len(on_mgr.pool)
    assert all(isinstance(t, ForgetfulTable) for t in tables)
    assert all(len(t) == 0 and t.hits == 0 for t in tables)
    assert all(t.misses == t.body_evaluations for t in tables)
    assert sum(t.misses for t in tables) > 0
