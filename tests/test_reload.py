"""A re-imported library is freed once nothing refers to it.

`perfbench/run.py` imports `maxshare` afresh for every set-up.  Nothing
process-wide may keep a dropped copy alive: a `typing.Union` alias, for
one, sits in `typing`'s cache and holds its classes, their methods,
their globals and so every module of that copy.
"""

import copy
import gc
import importlib
import pickle
import sys
import weakref

LAYERS = ("intern", "memo", "bdd", "formula", "lam", "cli")


def _ours(name):
    return name == "maxshare" or name.startswith("maxshare.")


def _import_and_run(capsys):
    """Import a fresh copy of every layer, run each once, and return
    weak references to the copy's classes and entry points."""
    for name in [n for n in sys.modules if _ours(n)]:
        del sys.modules[name]
    importlib.import_module("maxshare")
    m = {name: importlib.import_module(f"maxshare.{name}") for name in LAYERS}
    fm, lam, cli = m["formula"], m["lam"], m["cli"]

    f = fm.parse("x1 & !x2 | (x3 -> x1) <-> x2 ^ x3")
    assert fm.compile(m["bdd"].BddManager(), f) > 1
    assert pickle.loads(pickle.dumps(f)) == copy.deepcopy(f) == f
    assert eval(repr(f), vars(fm)) == f and hash(f) == hash(copy.copy(f))

    mgr = lam.LambdaManager()
    term = mgr.mk_app(lam.quicksort_term(mgr), lam.church_list(mgr, [3, 1, 2]))
    assert lam.decode_list(mgr, mgr.nf(term)) == [1, 2, 3]
    assert lam.run_deep(lambda: 1) == 1

    assert cli.main(["taut", "--urquhart", "3"]) == 0
    assert cli.main(["taut", "--urquhart", "0"]) == 2
    assert cli.main(["lambda-sort", "--list", "2,1"]) == 0
    assert capsys.readouterr().out.count("\n") == 3

    return [weakref.ref(obj) for obj in (
        fm.Var, fm.compile, fm.parse, m["bdd"].BddManager,
        lam.LambdaManager, m["intern"].Pool, m["memo"].memo_fix, cli.main)]


def test_reimported_library_is_freed(capsys):
    saved = {n: mod for n, mod in sys.modules.items() if _ours(n)}
    refs = []
    try:
        for _ in range(3):
            refs += _import_and_run(capsys)
    finally:  # the rest of the suite keeps its classes
        for name in [n for n in sys.modules if _ours(n)]:
            del sys.modules[name]
        sys.modules.update(saved)
    gc.collect()
    assert [r for r in refs if r() is not None] == []
