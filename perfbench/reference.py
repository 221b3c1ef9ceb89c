"""Sharing against no sharing: Church-list quicksort through the
memoized, hash-consed normalizer (`LambdaManager.nf`) and through the
unshared `PlainNormalizer`, on the same short lists.

    python3 perfbench/reference.py

Prints one JSON line per list, each figure the median of three runs.
These are reference figures for README.md, not a benchmark workload:
the unshared normalizer's work grows so fast with the list that it only
handles short lists of small values.
"""

from __future__ import annotations

import json
import statistics
import sys
from time import perf_counter

import run

LISTS = ([2, 1, 0], [3, 1, 2, 0], [1, 4, 0, 3, 2], [0, 3, 5, 2, 4, 1])
REPEATS = 3


def sort_both(lam, values):
    """(shared, plain) figures for one list, each timed from the list to
    its normal form in a fresh manager.  The two normal forms must agree."""
    def shared():
        mgr = lam.LambdaManager()
        t0 = perf_counter()
        out = mgr.nf(mgr.mk_app(lam.quicksort_term(mgr),
                                lam.church_list(mgr, values)))
        seconds = perf_counter() - t0
        return mgr, out, {"seconds": seconds,
                          "beta_steps": mgr.reduction_steps,
                          "allocations": mgr.pool.stats().intern_misses}

    def plain():
        mgr = lam.LambdaManager()
        normalizer = lam.PlainNormalizer()
        t0 = perf_counter()
        term = mgr.mk_app(lam.quicksort_term(mgr),
                          lam.church_list(mgr, values))
        out = normalizer.nf(lam.to_plain(mgr, term))
        seconds = perf_counter() - t0
        return out, {"seconds": seconds,
                     "beta_steps": normalizer.reduction_steps,
                     "allocations": normalizer.allocations}

    mgr, out_shared, fig_shared = lam.run_deep(shared)
    out_plain, fig_plain = lam.run_deep(plain)
    if (lam.run_deep(lam.from_plain, mgr, out_plain) != out_shared
            or lam.decode_list(mgr, out_shared) != sorted(values)):
        raise SystemExit(f"error: the normalizers disagree on {values}")
    return fig_shared, fig_plain


def main() -> int:
    sys.path.insert(0, run.SRC)
    lam = run.load_library().lam
    for values in LISTS:
        runs = [sort_both(lam, values) for _ in range(REPEATS)]
        row = {"list": values}
        for side, figures in (("shared", [r[0] for r in runs]),
                              ("plain", [r[1] for r in runs])):
            row[side] = {key: statistics.median(f[key] for f in figures)
                         for key in figures[0]}
        print(json.dumps(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
