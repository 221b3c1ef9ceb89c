import pytest
from hypothesis import given, strategies as st

from maxshare.memo import (
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


def test_commutative_normalization():
    calls = []

    def body(recurse, key):
        calls.append(key)
        return key[0] + key[1]

    table = MemoTable(commutative=True)
    f = memo_fix(body, table)
    assert f((7, 3)) == f((3, 7)) == 10
    assert calls == [(7, 3)]
    assert table.body_evaluations == 1 and len(table) == 1


def test_inline_access_shares_the_table_with_memo_fix():
    # an entry written through `inline` is a hit for `memo_fix` and the
    # other way round; `record` counts each miss as a body evaluation
    table = MemoTable(commutative=True)
    get, setdefault, record = table.inline()
    assert get((3, 7)) is None
    assert setdefault((3, 7), 10) == 10
    record(2, 3)
    f = memo_fix(lambda recurse, key: key[0] * key[1], table)
    assert f((7, 3)) == 10 and f((2, 5)) == 10
    assert get((2, 5)) == 10 and len(table) == 2
    assert (table.hits, table.misses, table.body_evaluations) == (3, 4, 4)
    assert setdefault((2, 5), 11) == 10
    assert "rebound: 10 -> 11" in str(MemoContractError.rebound((2, 5), 10, 11))


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


@given(st.integers(0, 18))
def test_transparency_against_unmemoized(n):
    memoized = memo_fix(_exp_body, MemoTable())
    plain = memo_fix(_exp_body, None)
    assert memoized((n,)) == plain((n,)) == 2**n


def test_table_persists_across_calls():
    t = MemoTable()
    f = memo_fix(_exp_body, t)
    f((8,))
    g = memo_fix(_exp_body, t)  # fresh combinator, same table
    g((8,))
    assert t.body_evaluations == 9
