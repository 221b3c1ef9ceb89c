"""Record benchmark evidence: run perfbench over seeds, write BENCH_<workload>.json.

    python3 tools/bench_record.py --workload pigeonhole --seeds 1-10 \
        --seconds 20 --parent DIR [--note TEXT]

For each seed, `perfbench/run.py` runs once with `--trace 0` (end-to-end
metrics) and once with `--trace 1` (per-layer metrics and the check
round's counters), each in its own process.  A checkout of the parent
commit, `--parent DIR`, runs the same commands, alternating which side
runs first from one seed to the next, and the file also counts the
pairs each side won.  Only the standard library is used, and nothing
about how `run.py` measures is changed: this script only starts it and
reads the last line of its output.  Each run starts with an empty
bytecode cache that it does not write to, so no side's set-up reads
`.pyc` files left in its checkout.

The file holds, for each side, the git revision, a digest of the
library source it ran, each run's raw record, the median and quartiles
of every end-to-end and timed per-layer metric, and every seed's
counters; plus a host note.  `BENCHMARK.json` at the repository root
names the end-to-end metrics and which way is better.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text: str) -> list[int]:
    """`1-10` or `1,4,9`."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def git(checkout: str, *args: str) -> str:
    return subprocess.run(["git", "-C", checkout, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def revision(checkout: str) -> dict:
    """HEAD, whether the measured files differ from it, and a digest of
    the library source, which names the code that ran.  A copy that is
    not a git checkout (a `git archive` of the parent) has no HEAD: its
    `git` and `dirty` are None, and the digest alone names its code."""
    digest = hashlib.sha256()
    package = os.path.join(checkout, "src", "maxshare")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read() + b"\0")
    try:
        head = git(checkout, "rev-parse", "HEAD")
        dirty = bool(git(checkout, "status", "--porcelain", "--", "src",
                         "perfbench"))
    except subprocess.CalledProcessError:
        head = dirty = None
    return {"git": head, "dirty": dirty, "src_sha256": digest.hexdigest()}


def run_once(checkout: str, workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    # an empty bytecode cache that is not written to: each side compiles
    # its source, whatever `.pyc` files its checkout holds
    with tempfile.TemporaryDirectory() as cache:
        env = {**os.environ, "PYTHONPYCACHEPREFIX": cache,
               "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=10 * seconds + 300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    record = json.loads(lines[-1])
    record["stderr"] = proc.stderr.strip().splitlines()
    print(f"{checkout} seed {seed} trace {trace}: "
          f"{ {k: v['value'] for k, v in record['metrics'].items()} }",
          file=sys.stderr, flush=True)
    return record


def summary(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def is_counter(name: str, unit: str) -> bool:
    """Deterministic counts and ratios of counts; not times."""
    return unit in ("count", "ratio") and name != "trace.overhead"


def side_report(runs: dict[int, dict]) -> dict:
    def metric_values(trace: str, keep) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for record in runs.values():
            for name, m in record[trace]["metrics"].items():
                if keep(name, m["unit"]):
                    out.setdefault(name, []).append(m["value"])
        return out

    return {
        "end_to_end": {name: summary(v) for name, v in
                       metric_values("trace0", lambda n, u: True).items()},
        "per_layer_times": {
            name: summary(v) for name, v in metric_values(
                "trace1", lambda n, u: not is_counter(n, u)).items()},
        "counters": {str(seed): {name: m["value"] for name, m in
                                 record["trace1"]["metrics"].items()
                                 if is_counter(name, m["unit"])}
                     for seed, record in runs.items()},
        "failed": {str(seed): [record[t]["failed"] for t in
                               ("trace0", "trace1")]
                   for seed, record in runs.items()},
        "runs": {str(seed): record for seed, record in runs.items()},
    }


def pairs_won(parent: dict[int, dict], change: dict[int, dict],
              better: dict[str, str]) -> dict:
    """Per end-to-end metric, the seeds on which the change read better
    than the parent, worse, or the same."""
    out = {}
    for name, direction in better.items():
        won = lost = tied = 0
        for seed in parent:
            p = parent[seed]["trace0"]["metrics"].get(name)
            c = change[seed]["trace0"]["metrics"].get(name)
            if p is None or c is None:
                continue
            diff = c["value"] - p["value"]
            if direction == "higher":
                diff = -diff
            won += diff < 0
            lost += diff > 0
            tied += diff == 0
        out[name] = {"won": won, "lost": lost, "tied": tied}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--parent", metavar="DIR", required=True,
                        help="a checkout of the parent commit to pair with")
    parser.add_argument("--note", default="",
                        help="what the host was, as the reader should know")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    sides = {"parent": os.path.abspath(args.parent), "change": ROOT}
    revisions = {side: revision(path) for side, path in sides.items()}
    load_before = os.getloadavg()
    runs: dict[str, dict[int, dict]] = {side: {} for side in sides}
    for i, seed in enumerate(args.seeds):
        order = list(sides) if i % 2 == 0 else list(sides)[::-1]
        for trace in (0, 1):
            for side in order:
                record = run_once(sides[side], args.workload, seed,
                                  args.seconds, trace)
                runs[side].setdefault(seed, {})[f"trace{trace}"] = record

    report = {
        "workload": args.workload,
        "command": f"python3 perfbench/run.py --workload {args.workload} "
                   f"--seed <seed> --seconds {args.seconds:g} --trace 0|1",
        "seeds": args.seeds,
        "order": "alternating, parent first on the first seed",
        "host": {"note": args.note, "cpus": os.cpu_count(),
                 "machine": platform.machine(),
                 "python": platform.python_version(),
                 "loadavg_before": load_before,
                 "loadavg_after": os.getloadavg()},
        "sides": {side: {"checkout_revision": revisions[side],
                         **side_report(runs[side])}
                  for side in sides},
        "pairs": pairs_won(runs["parent"], runs["change"], better),
    }
    out = os.path.join(ROOT, f"BENCH_{args.workload}.json")
    with open(out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
