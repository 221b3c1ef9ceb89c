"""Command-line front end.

Subcommands:

    taut         check a formula (file or generated benchmark) for
                 tautology; a non-tautology's report carries a
                 falsifying `counterexample`
    bench        run a benchmark suite over sizes 1..N, one record per
                 size, printed as the size finishes; N is checked
                 against the suite's generator limit before any work
    lambda-sort  sort a comma-separated list of naturals through the
                 lambda-calculus quicksort, with memoization off for
                 `--no-memo`

Reports go to stdout as JSON (schema 1), diagnostics to stderr.  Every
command has the same exit statuses, and `main` maps each error to its
status and one `error:` line (`bench`'s names the size it was on):

    0  tautology; every `bench` size a tautology; `lambda-sort` sorted
    1  `taut` only: a non-tautology, verified by its counterexample
    2  an input or engine error: a syntax error, an unreadable or
       non-UTF-8 file, a generator size outside 1..`URQUHART_LIMIT` or
       1..`PIGEONHOLE_LIMIT` of `formula`, a list value above
       `MEMO_VALUE_LIMIT` or `NO_MEMO_VALUE_LIMIT`, more than
       `lam.STEP_GUARD` beta steps or another `MemoError`, a formula or
       diagram deeper than the recursion limit (the parser has no
       nesting limit), running out of memory, or a report that cannot
       be written
    3  a `bench` size that is not a tautology, or a `lambda-sort`
       result that does not decode
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from typing import Any

from . import formula as fm
from . import lam
from .bdd import BddManager
from .memo import MemoError

SCHEMA_VERSION = 1

# Largest list value `lambda-sort` accepts.  A value n is a Church
# numeral of n applications, and quicksort's comparisons cost about the
# square of the values: memoized, the reversed list [200..191] takes
# ~3 s and ~190 MB and [1000..991] ~80 s and 4.3 GB.  With --no-memo
# every subcomputation is redone and the beta steps grow about 3.4x per
# element of a reversed list: [5..0] takes 111,956 steps and ~1 s,
# [8..0] 4.3 M steps and ~45 s, both in ~16 MB (2 shared cores).
MEMO_VALUE_LIMIT = 200
NO_MEMO_VALUE_LIMIT = 8


def _report(command: str, result: Any, node_count: int, ms: float, mgr,
            **extra: Any) -> dict[str, Any]:
    """A schema-1 report: the run's verdict and size, the manager's
    `pool_stats` and `memo_stats`, and the command's own fields."""
    return {"schema": SCHEMA_VERSION, "command": command, "result": result,
            "node_count": node_count, "wall_time_ms": ms, **mgr.stats(),
            **extra}


def _taut_formula(args) -> tuple[str, fm.Formula]:
    if args.urquhart is not None:
        return f"taut --urquhart {args.urquhart}", fm.urquhart(args.urquhart)
    if args.pigeonhole is not None:
        return (f"taut --pigeonhole {args.pigeonhole}",
                fm.pigeonhole(args.pigeonhole))
    with open(args.file, encoding="utf-8") as fh:
        return f"taut --file {args.file}", fm.parse(fh.read())


def _check(command: str, f: fm.Formula) -> dict[str, Any]:
    """Compile `f` in a fresh manager and report the verdict."""
    mgr = BddManager()
    t0 = time.perf_counter()
    ref = fm.compile(mgr, f)
    taut = mgr.is_tautology(ref)
    ms = (time.perf_counter() - t0) * 1000.0
    report = _report(command, taut, mgr.node_count(ref), ms, mgr)
    if not taut:  # variables off the path to FALSE may take any value
        env = dict.fromkeys(fm.variables(f), False)
        env.update(mgr.sat_one(ref))
        report["counterexample"] = {f"x{v}": value
                                    for v, value in env.items()}
    return report


def cmd_taut(args) -> int:
    report = _check(*_taut_formula(args))
    print(json.dumps(report, sort_keys=True))
    return 0 if report["result"] else 1


def cmd_bench(args) -> int:
    generate, limit = ((fm.urquhart, fm.URQUHART_LIMIT)
                       if args.suite == "urquhart"
                       else (fm.pigeonhole, fm.PIGEONHOLE_LIMIT))
    if not 1 <= args.max <= limit:  # checked before any size is built
        raise fm.RangeError(f"--max must be in 1..{limit}")
    all_taut = True
    gc.freeze()  # each size's collect skips what was alive before
    try:
        for size in range(1, args.max + 1):
            args.where = f"{args.suite}({size}): "
            r = _check(f"bench {args.suite} --size {size}", generate(size))
            gc.collect()  # the dead manager's `memo_fix` closures hold cycles
            r["size"] = size
            if args.json:
                print(json.dumps(r, sort_keys=True), flush=True)
            else:
                status = "tautology" if r["result"] else "NOT A TAUTOLOGY"
                print(f"{args.where}{status}, {r['node_count']} result nodes, "
                      f"{r['pool_stats']['node_count']} pool nodes, "
                      f"{r['wall_time_ms']:.1f} ms", flush=True)
            all_taut = all_taut and r["result"]
    finally:
        gc.unfreeze()
    if not all_taut:
        print("error: benchmark formula was not a tautology "
              "(engine bug)", file=sys.stderr)
        return 3
    return 0


def _parse_csv(text: str) -> list[int]:
    if text.strip() == "":
        return []
    try:
        values = [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"malformed list {text!r}") from None
    if any(v < 0 for v in values):
        raise ValueError("list values must be naturals")
    return values


def cmd_lambda_sort(args) -> int:
    values = _parse_csv(args.list)
    if args.no_memo and any(v > NO_MEMO_VALUE_LIMIT for v in values):
        raise ValueError(
            f"--no-memo restricts values to <= {NO_MEMO_VALUE_LIMIT}")
    if any(v > MEMO_VALUE_LIMIT for v in values):
        raise ValueError(f"values must be <= {MEMO_VALUE_LIMIT}")
    mgr = lam.LambdaManager(memo_enabled=not args.no_memo)
    t0 = time.perf_counter()
    term = mgr.mk_app(lam.quicksort_term(mgr), lam.church_list(mgr, values))
    sorted_values = lam.decode_list(mgr, mgr.nf(term))
    ms = (time.perf_counter() - t0) * 1000.0
    print(",".join(str(v) for v in sorted_values))
    report = _report(f"lambda-sort --list {args.list}"
                     + (" --no-memo" if args.no_memo else ""),
                     sorted_values, len(mgr.pool), ms, mgr,
                     reduction_steps=mgr.reduction_steps,
                     allocations=mgr.pool.stats().intern_misses)
    print(json.dumps(report, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxshare",
        description="Hash-consed BDD tautology checking and "
                    "lambda-calculus benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    taut = sub.add_parser("taut", help="check a formula for tautology")
    src = taut.add_mutually_exclusive_group(required=True)
    src.add_argument("--urquhart", type=int, metavar="N")
    src.add_argument("--pigeonhole", type=int, metavar="N")
    src.add_argument("--file", metavar="PATH")
    taut.set_defaults(func=cmd_taut)

    bench = sub.add_parser("bench", help="run a benchmark suite")
    bench.add_argument("suite", choices=["urquhart", "pigeonhole"])
    bench.add_argument("--max", type=int, required=True, metavar="N")
    bench.add_argument("--json", action="store_true")
    bench.set_defaults(func=cmd_bench)

    lsort = sub.add_parser("lambda-sort",
                           help="sort naturals via lambda-term quicksort")
    lsort.add_argument("--list", required=True, metavar="CSV")
    lsort.add_argument("--no-memo", action="store_true")
    lsort.set_defaults(func=cmd_lambda_sort)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; map each error it raises, printing the report
    included, to its exit status and one `error:` line."""
    args = build_parser().parse_args(argv)
    args.where = ""  # `bench` names the size it is on
    try:
        status = args.func(args)
        # a full stdout fails here, not at exit; `print` skips a None one
        print(end="", flush=True)
        return status
    except MemoryError as exc:  # first: matching it allocates nothing
        # the traceback's frames hold the manager that filled memory,
        # and its operations' closures form cycles: drop and collect
        exc.__traceback__ = None
        gc.collect()
        status, message = 2, "out of memory"
    except RecursionError:
        status, message = 2, (
            f"formula nested too deeply to compile: its nesting or "
            f"diagram depth exceeds the recursion limit of "
            f"{sys.getrecursionlimit()} frames")
    except UnicodeDecodeError as exc:  # only `taut --file` decodes
        status, message = 2, f"{args.file}: not UTF-8 text: {exc}"
    except lam.ShapeError as exc:
        status, message = 3, str(exc)
    except (fm.FormulaError, MemoError, OSError, ValueError) as exc:
        status, message = 2, str(exc)
    print(f"error: {args.where}{message}", file=sys.stderr)
    try:  # leave the shutdown flush nothing to fail on
        print(end="", flush=True)
    except OSError:
        sys.stdout = open(os.devnull, "w")
    return status


if __name__ == "__main__":
    sys.exit(main())
