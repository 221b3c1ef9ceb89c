"""Command-line front end.

Subcommands:

    taut         check a formula (file or generated benchmark) for
                 tautology; exit 0 iff tautology, 1 iff not (the report
                 then carries a falsifying `counterexample`), 2 on error
                 (a formula nested deeper than the engine's recursion
                 limit, a generator size outside 1..`URQUHART_LIMIT`
                 or 1..`PIGEONHOLE_LIMIT` of `formula`, and running out
                 of memory included; the parser has no nesting limit)
    bench        run a benchmark suite over sizes 1..N, one record per
                 size, printed as the size finishes; exit 3 if any size
                 is not a tautology, 2 on error: N outside the suite's
                 generator limit (checked first) or a failing size, out
                 of memory included (the `error:` line names the size)
    lambda-sort  sort a comma-separated list of naturals through the
                 lambda-calculus quicksort; exit 3 on decode failure,
                 2 on error (`lam.STEP_GUARD` beta steps exceeded, a
                 value above `MEMO_VALUE_LIMIT`, no thread for the
                 engine and running out of memory included)

Reports go to stdout as JSON (schema 1), diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Any

from . import formula as fm
from . import lam
from .bdd import BddManager
from .memo import DepthExceededError, MemoError

SCHEMA_VERSION = 1

# Largest list value `lambda-sort` accepts.  A value n is a Church
# numeral of n applications, and quicksort's comparisons cost about the
# square of the values: memoized, the reversed list [200..191] takes
# ~3 s and ~190 MB and [1000..991] ~80 s and 4.3 GB, while the unshared
# --no-memo baseline grows so fast that 8 is its practical limit.
MEMO_VALUE_LIMIT = 200
NO_MEMO_VALUE_LIMIT = 8


@dataclass
class RunReport:
    command: str
    result: Any
    node_count: int
    pool_stats: dict[str, int]
    memo_stats: dict[str, dict[str, int]]
    wall_time_ms: float
    schema: int = SCHEMA_VERSION
    extra: dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> str:
        d = asdict(self)
        d.update(d.pop("extra"))
        return json.dumps(d, sort_keys=True)


def _taut_formula(args) -> tuple[str, fm.Formula]:
    if args.urquhart is not None:
        return f"taut --urquhart {args.urquhart}", fm.urquhart(args.urquhart)
    if args.pigeonhole is not None:
        return (f"taut --pigeonhole {args.pigeonhole}",
                fm.pigeonhole(args.pigeonhole))
    with open(args.file, encoding="utf-8") as fh:
        return f"taut --file {args.file}", fm.parse(fh.read())


def _check(command: str, f: fm.Formula) -> RunReport:
    """Compile `f` in a fresh manager and report the verdict."""
    mgr = BddManager()
    t0 = time.perf_counter()
    ref = fm.compile(mgr, f)
    taut = mgr.is_tautology(ref)
    ms = (time.perf_counter() - t0) * 1000.0
    report = RunReport(
        command=command,
        result=taut,
        node_count=mgr.node_count(ref),
        wall_time_ms=ms,
        **mgr.stats(),
    )
    if not taut:  # variables off the path to FALSE may take any value
        env = dict.fromkeys(fm.variables(f), False)
        env.update(mgr.sat_one(ref))
        report.extra["counterexample"] = {f"x{v}": value
                                          for v, value in env.items()}
    return report


def _too_deep(where: str = "") -> int:
    """Exit status 2 for a formula nested deeper than the recursive
    compiler and engine can follow."""
    print(f"error: {where}formula nested too deeply to compile: its "
          f"nesting depth exceeds the recursion limit of "
          f"{sys.getrecursionlimit()} frames", file=sys.stderr)
    return 2


def _out_of_memory(exc: MemoryError, where: str = "") -> int:
    """Exit status 2 for running out of memory.  The traceback's frames
    hold the manager that filled memory, and its operations' closures
    form cycles; dropping the traceback and collecting frees it, so that
    the message can be printed."""
    exc.__traceback__ = None
    gc.collect()
    print(f"error: {where}out of memory", file=sys.stderr)
    return 2


def cmd_taut(args) -> int:
    try:
        report = _check(*_taut_formula(args))
    except MemoryError as exc:  # first: matching it allocates nothing
        return _out_of_memory(exc)
    except (fm.FormulaError, MemoError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        print(f"error: {args.file}: not UTF-8 text: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        return _too_deep()
    print(report.to_json())
    return 0 if report.result else 1


def cmd_bench(args) -> int:
    generate, limit = ((fm.urquhart, fm.URQUHART_LIMIT)
                       if args.suite == "urquhart"
                       else (fm.pigeonhole, fm.PIGEONHOLE_LIMIT))
    if not 1 <= args.max <= limit:  # checked before any size is built
        print(f"error: --max must be in 1..{limit}", file=sys.stderr)
        return 2
    all_taut = True
    for size in range(1, args.max + 1):
        where = f"{args.suite}({size}): "
        try:
            r = _check(f"bench {args.suite} --size {size}", generate(size))
        except MemoryError as exc:
            return _out_of_memory(exc, where)
        except (fm.FormulaError, MemoError) as exc:
            print(f"error: {where}{exc}", file=sys.stderr)
            return 2
        except RecursionError:
            return _too_deep(where)
        r.extra["size"] = size
        if args.json:
            print(r.to_json(), flush=True)
        else:
            status = "tautology" if r.result else "NOT A TAUTOLOGY"
            print(f"{where}{status}, {r.node_count} result nodes, "
                  f"{r.pool_stats['node_count']} pool nodes, "
                  f"{r.wall_time_ms:.1f} ms", flush=True)
        all_taut = all_taut and r.result
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
    try:
        values = _parse_csv(args.list)
        if args.no_memo and any(v > NO_MEMO_VALUE_LIMIT for v in values):
            raise ValueError(
                f"--no-memo restricts values to <= {NO_MEMO_VALUE_LIMIT}"
            )
        if any(v > MEMO_VALUE_LIMIT for v in values):
            raise ValueError(f"values must be <= {MEMO_VALUE_LIMIT}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    mgr = lam.LambdaManager()
    t0 = time.perf_counter()
    try:
        def run():
            term = mgr.mk_app(lam.quicksort_term(mgr),
                              lam.church_list(mgr, values))
            if args.no_memo:
                # unshared, unmemoized baseline; re-encode the result
                # into the pool so the output is comparable
                ref = lam.PlainNormalizer()
                out = lam.from_plain(mgr, ref.nf(lam.to_plain(mgr, term)))
                extra = {"reduction_steps": ref.reduction_steps,
                         "allocations": ref.allocations}
            else:
                out = mgr.nf(term)
                extra = {"reduction_steps": mgr.reduction_steps,
                         "allocations": mgr.pool.stats().intern_misses}
            return lam.decode_list(mgr, out), extra
        sorted_values, extra = lam.run_deep(run)
    except MemoryError as exc:
        return _out_of_memory(exc)
    except lam.ShapeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DepthExceededError, lam.DeepStackError) as exc:
        # the step guard, an engine bound, or no thread for the engine
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ms = (time.perf_counter() - t0) * 1000.0
    print(",".join(str(v) for v in sorted_values))
    stats = mgr.stats()
    if args.no_memo:  # the baseline used no memo table
        stats["memo_stats"] = {}
    report = RunReport(
        command=f"lambda-sort --list {args.list}"
                + (" --no-memo" if args.no_memo else ""),
        result=sorted_values,
        node_count=len(mgr.pool),
        wall_time_ms=ms,
        extra=extra,
        **stats,
    )
    print(report.to_json())
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
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
