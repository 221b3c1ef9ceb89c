"""The benchmark harness (`perfbench/`) reads counters from the library's
public state: `pool.stats()` and the `MemoTable` attributes.  A counter it
can no longer read turns up as None there; these tests catch that here."""

import importlib.util
import pathlib
import sys
import types
from unittest import mock

from maxshare import bdd, formula, lam, memo

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _check_counters(mgr):
    counters = _load("workloads").manager_counters(
        types.SimpleNamespace(memo=memo), mgr)
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


def test_reference_figures_fields(monkeypatch):
    # perfbench/reference.py writes the README's shared-versus-unshared
    # figures from `pool.stats().intern_misses`, `reduction_steps` and
    # `PlainNormalizer.allocations`; it imports its siblings by name.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    with mock.patch.dict(sys.modules):
        shared, plain = _load("reference").sort_both(lam, [2, 1, 0])
    # the counts of perfbench/README.md's `[2,1,0]` row
    assert {k: shared[k] for k in ("beta_steps", "allocations")} == {
        "beta_steps": 289, "allocations": 1094}
    assert {k: plain[k] for k in ("beta_steps", "allocations")} == {
        "beta_steps": 2095, "allocations": 227248}
    assert shared["seconds"] > 0 and plain["seconds"] > 0
