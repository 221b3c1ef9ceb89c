"""The benchmark harness (`perfbench/`) reads counters from the library's
public state: `pool.stats()` and the `MemoTable` attributes.  A counter it
can no longer read turns up as None there; these tests catch that here."""

import importlib.util
import pathlib
import types

from maxshare import bdd, formula, lam, memo

WORKLOADS = (pathlib.Path(__file__).resolve().parent.parent
             / "perfbench" / "workloads.py")


def _check_counters(mgr):
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    counters = module.manager_counters(types.SimpleNamespace(memo=memo), mgr)
    assert None not in counters.values(), counters
    assert counters["nodes"] == len(mgr.pool)
    assert counters["memo_entries"] == counters["body_evaluations"] > 0


def test_manager_counters_bdd():
    mgr = bdd.BddManager()
    assert formula.compile(mgr, formula.pigeonhole(3)) == bdd.TRUE
    _check_counters(mgr)


def test_manager_counters_lambda():
    mgr = lam.LambdaManager()
    term = mgr.mk_app(lam.quicksort_term(mgr), lam.church_list(mgr, [2, 0, 1]))
    assert lam.decode_list(mgr, lam.run_deep(mgr.nf, term)) == [0, 1, 2]
    _check_counters(mgr)
