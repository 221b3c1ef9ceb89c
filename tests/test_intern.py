import random

import pytest
from hypothesis import given, strategies as st

from maxshare.intern import Pool, UnknownIdError


def leaf(attr):
    return (0, attr, 0)


def test_intern_twice_returns_same_id():
    pool = Pool()
    a = pool.intern(leaf(7))
    before = pool.stats().node_count
    b = pool.intern(leaf(7))
    assert a == b
    assert pool.stats().node_count == before


def test_intern_distinguishes_attrs():
    pool = Pool()
    assert pool.intern(leaf(1)) != pool.intern(leaf(2))


def test_preallocated_ids_come_first():
    pool = Pool(preallocated=[leaf(0), leaf(1)])
    assert len(pool) == 2
    first = pool.intern(leaf(2))
    assert first == 2
    assert len(pool) == 3


def test_resolve_round_trip():
    pool = Pool()
    p = (1, 3, 0)
    assert pool.resolve(pool.intern(p)) == p


def test_resolve_preallocated_leaf():
    pool = Pool(preallocated=[leaf(0)])
    assert pool.resolve(0) == leaf(0)


def test_resolve_out_of_range():
    pool = Pool()
    pool.intern(leaf(1))
    with pytest.raises(UnknownIdError):
        pool.resolve(len(pool))


def test_scan_duplicates_empty_after_interning():
    pool = Pool()
    rng = random.Random(0)
    for _ in range(2000):
        pool.intern(leaf(rng.randint(0, 200)))
    assert pool.scan_duplicates() == []


def inject_duplicate(pool, uid):
    """Store a second copy of an existing payload under a fresh id,
    bypassing intern: the sharing violation `scan_duplicates` detects."""
    pool.back.append(pool.resolve(uid))
    return len(pool) - 1


def test_scan_duplicates_finds_injected_copy():
    pool = Pool()
    a = pool.intern(leaf(1))
    pool.intern(leaf(2))
    copy = inject_duplicate(pool, a)
    assert pool.scan_duplicates() == [(a, copy)]


def test_scan_duplicates_empty_pool():
    assert Pool().scan_duplicates() == []


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 50),
                          st.integers(0, 50)),
                max_size=60))
def test_pool_invariants(specs):
    pool = Pool(preallocated=[leaf(0), leaf(1)])
    for p in specs:
        uid = pool.intern(p)
        assert uid < len(pool)
    # bijection: resolve inverts intern for every issued id
    for uid in range(len(pool)):
        p = pool.resolve(uid)
        assert pool.intern(p) == uid
    assert pool.scan_duplicates() == []


@given(st.tuples(st.integers(0, 3), st.integers(0, 5)),
       st.tuples(st.integers(0, 3), st.integers(0, 5)))
def test_identifier_equality_decides_structural_equality(a, b):
    pool = Pool()
    pa = (a[0], a[1], 0)
    pb = (b[0], b[1], 0)
    assert (pool.intern(pa) == pool.intern(pb)) == (pa == pb)
