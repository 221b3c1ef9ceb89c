"""Benchmark of the maxshare library: one seeded workload per process.

    python3 perfbench/run.py --workload pigeonhole --seed 1 \
        --seconds 20 --trace 0

Workloads: pigeonhole, urquhart, equiv, lambda-sort (see workloads.py and
README.md).  The library is imported from `src/` next to this directory.

A run sets the workload up several times, then repeats rounds of the same
operations for about `--seconds` seconds, the last of which is the check
round: it reads the counters and checks every output.  With `--trace 0`
the last line of standard output reports the end-to-end metrics; with
`--trace 1` the first half of the time runs plain rounds and the second
half rounds under cProfile, and the line reports the per-layer metrics.
Diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import gc
import importlib
import json
import os
import pstats
import resource
import statistics
import sys
import types
from collections import Counter
from time import perf_counter

from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE_DIR = os.path.join(SRC, "maxshare")
LAYERS = ("intern", "memo", "bdd", "formula", "lam")
SETUP_REPEATS = 5
SETUP_SECONDS = 1.0  # cheap set-ups repeat until they add up to this


def load_library() -> types.SimpleNamespace:
    """Import the library afresh, so that every set-up pays for it."""
    for name in [n for n in sys.modules
                 if n == "maxshare" or n.startswith("maxshare.")]:
        del sys.modules[name]
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"maxshare.{m}") for m in LAYERS})


def rounds_until(deadline: float, run, reserve=None):
    """Run rounds until one more, plus `reserve` seconds for the rounds
    still to come (by default one more round), would end past `deadline`.
    Runs at least one round."""
    rounds, walls = [], []
    while True:
        t0 = perf_counter()
        rounds.append(run())
        walls.append(perf_counter() - t0)
        wall = statistics.median(walls)
        if perf_counter() + wall + (wall if reserve is None else reserve) \
                > deadline:
            return rounds, wall


def median_round(rounds) -> float:
    """Time of one round, each operation that succeeded at its median
    over the rounds: a burst of other load on the host then costs one
    sample of the operations it hit, not a whole round."""
    total = 0.0
    for times in zip(*(r.op_seconds for r in rounds)):
        done = [t for t in times if t is not None]
        if done:
            total += statistics.median(done)
    return total


def layer_self_times(profile: cProfile.Profile) -> dict[str, float]:
    """Self time per library module.  Built-ins and generated methods
    (dataclass and named-tuple code) are charged to the module that
    called them."""
    def layer_of(func):
        path = func[0]
        if os.path.dirname(os.path.abspath(path)) != PACKAGE_DIR:
            return None
        name = os.path.splitext(os.path.basename(path))[0]
        return name if name in LAYERS else None

    out = dict.fromkeys(LAYERS, 0.0)
    for func, (_, _, tt, _, callers) in pstats.Stats(profile).stats.items():
        layer = layer_of(func)
        if layer is not None:
            out[layer] += tt
        elif func[0] in ("~", "<string>"):
            for caller, (_, _, caller_tt, _) in callers.items():
                caller_layer = layer_of(caller)
                if caller_layer is not None:
                    out[caller_layer] += caller_tt
    return out


def ratio(hits, misses):
    if hits is None or misses is None:
        return None
    return hits / (hits + misses) if hits + misses else 0.0


def per_layer_metrics(check, plain, profiled, profile) -> dict:
    c = check.counters
    self_s = {layer: seconds / len(profiled)
              for layer, seconds in layer_self_times(profile).items()}

    def span(name):
        return float(statistics.median(r.spans[name] for r in plain))

    return {
        "intern.nodes": (c.get("nodes"), "count"),
        "intern.hit_ratio": (ratio(c.get("intern_hits"),
                                   c.get("intern_misses")), "ratio"),
        "intern.self_s": (self_s["intern"], "s"),
        "memo.entries": (c.get("memo_entries"), "count"),
        "memo.hit_ratio": (ratio(c.get("memo_hits"), c.get("memo_misses")),
                           "ratio"),
        "memo.body_evaluations": (c.get("body_evaluations"), "count"),
        "memo.self_s": (self_s["memo"], "s"),
        # Keys absent from the counters belong to a layer the workload
        # does not use: they read 0.  Keys present as None went missing.
        "memo.subst.entries": (c.get("subst_entries", 0), "count"),
        "memo.lifti.entries": (c.get("lifti_entries", 0), "count"),
        "bdd.self_s": (self_s["bdd"], "s"),
        "bdd.result_nodes": (c.get("result_nodes", 0), "count"),
        "formula.parse_s": (span("formula.parse_s"), "s"),
        "formula.compile_s": (span("formula.compile_s"), "s"),
        "formula.self_s": (self_s["formula"], "s"),
        "lam.nf_s": (span("lam.nf_s"), "s"),
        "lam.self_s": (self_s["lam"], "s"),
        "lam.beta_steps": (c.get("beta_steps", 0), "count"),
        "lam.build_s": (span("lam.build_s"), "s"),
        "trace.overhead": (
            statistics.median(r.seconds for r in profiled)
            / statistics.median(r.seconds for r in plain), "ratio"),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(PACKAGE_DIR, "__init__.py")):
        print(f"error: no maxshare package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    setup_times = []
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS:
        gc.collect()  # each set-up starts from the same heap
        t0 = perf_counter()
        lib = load_library()
        workload = WORKLOADS[args.workload](lib, args.seed)
        setup_times.append(perf_counter() - t0)
    if os.path.dirname(os.path.abspath(lib.formula.__file__)) != PACKAGE_DIR:
        print(f"error: maxshare was not imported from {SRC}", file=sys.stderr)
        return 2

    plain = contextlib.nullcontext()
    start = perf_counter()
    end = start + args.seconds
    profile = profiled = None
    if args.trace:
        rounds, plain_wall = rounds_until(
            start + args.seconds / 2, lambda: workload.run_round(plain, False),
            reserve=0.0)
        profile = cProfile.Profile()
        profiled, _ = rounds_until(
            end, lambda: workload.run_round(profile, False),
            reserve=plain_wall)
    else:
        rounds, _ = rounds_until(end, lambda: workload.run_round(plain, False))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    check = workload.run_round(plain, True)
    rounds.append(check)

    every = rounds + (profiled or [])
    attempted = sum(r.attempted for r in every)
    failures = sum((r.failures for r in every), Counter())
    for r in every:
        workload.expect(r.outputs == check.outputs,
                        "outputs differ between rounds of the same operations")
    for problem in workload.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, count in sorted(failures.items()):
        print(f"failed operations: {count} x {name}", file=sys.stderr)

    if args.trace:
        metrics = per_layer_metrics(check, rounds, profiled, profile)
    else:
        round_s = median_round(rounds)
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "round_s": (round_s, "s"),
            "ops_per_s": (check.succeeded / round_s if round_s else 0.0,
                          "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    missing = sorted(name for name, (value, _) in metrics.items()
                     if value is None)
    if missing:
        print(f"missing counters: {', '.join(missing)}", file=sys.stderr)
    print(json.dumps({
        "correct": not workload.problems,
        "attempted": attempted,
        "failed": sum(failures.values()),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                    if value is not None},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
