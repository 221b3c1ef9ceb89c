"""Check that a traced benchmark run reproduces the committed counters.

    python3 tools/check_counters.py [--seeds 1]

For each `BENCH_<workload>.json` at the repository root and each seed,
`perfbench/run.py --trace 1 --seconds 2` runs once on this checkout, and
every deterministic counter it reports (pool nodes, memo entries, body
evaluations, beta steps, hit ratios, result nodes) is compared with the
file's `sides.change.counters[seed]`.  Exits 0 when all match, and 1
with one line per differing counter otherwise.  Only the standard
library is used; nothing is written.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

from bench_record import ROOT, is_counter, parse_seeds, run_once

SECONDS = 2


def diff_counters(expected: dict, metrics: dict) -> list[str]:
    """One line per counter whose value differs, or that one side lacks."""
    got = {name: m["value"] for name, m in metrics.items()
           if is_counter(name, m["unit"])}
    return [f"{name}: committed {expected.get(name)!r}, ran {got.get(name)!r}"
            for name in sorted(expected.keys() | got.keys())
            if expected.get(name) != got.get(name)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default=[1], type=parse_seeds,
                        help="`1-10` or `1,4,9` (default 1)")
    args = parser.parse_args(argv)

    failures = 0
    for path in sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json"))):
        with open(path) as fh:
            bench = json.load(fh)
        committed = bench["sides"]["change"]["counters"]
        for seed in args.seeds:
            label = f"{bench['workload']} seed {seed}"
            if str(seed) not in committed:
                print(f"{label}: no committed counters")
                failures += 1
                continue
            record = run_once(ROOT, bench["workload"], seed, SECONDS, 1)
            lines = diff_counters(committed[str(seed)], record["metrics"])
            for line in lines:
                print(f"{label}: {line}")
            failures += bool(lines)
            print(f"{label}: {'MISMATCH' if lines else 'ok'}",
                  file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
