"""Alternating parent/change runs of perfbench, summarised into a BENCH_*.json.

    python3 scripts/bench_pairs.py --parent ../parent --change . \
        --workload eos-forward --pairs 10 --first-seed 2 --out BENCH_6.json

``--parent`` and ``--change`` are source checkouts, each with its own
``perfbench/`` and ``src/``.  Pair i runs both checkouts on seed
``first-seed + i`` with the benchmark's default run length, the parent
first on even i and the change first on odd i.  Each run's JSON result
line is kept; per side the script records the median and quartiles of
every end-to-end metric that the change checkout's ``BENCHMARK.json``
declares, and per metric how many pairs the change won in the declared
direction.  ``--trace 1`` runs one traced pair instead and keeps the
per-layer metrics.  Every set already in ``--out`` is kept, so one file
collects all workloads; a set whose workload is already there goes under
the next free key, ``<workload> (2)``, ``(3)``, and so on.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True)
    line = json.loads(done.stdout.strip().splitlines()[-1])
    result_file = checkout / ".perfbench_out" / f"result-{workload}-seed{seed}-trace{trace}.json"
    environment = json.loads(result_file.read_text())["environment"]
    return {"seed": seed, "result": line, "environment": environment}


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:  # one pair: no spread to report
        return {"median": values[0], "q1": values[0], "q3": values[0], "runs": values}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def summarise(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Quartiles and change wins of each ``end_to_end`` metric of BENCHMARK.json."""
    out = {}
    for spec in end_to_end:
        metric, higher = spec["name"], spec["better"] == "higher"
        parent = [p["parent"]["result"]["metrics"][metric]["value"] for p in pairs]
        change = [p["change"]["result"]["metrics"][metric]["value"] for p in pairs]
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        out[metric] = {"parent": quartiles(parent), "change": quartiles(change),
                       "change_wins": wins, "pairs": len(pairs)}
    return out


def store(bench: dict, key: str, entry: dict) -> str:
    """Add ``entry`` to ``bench`` under ``key``, or the next free ``key (i)``; return the key."""
    workloads = bench.setdefault("workloads", {})
    free, i = key, 1
    while free in workloads:
        i += 1
        free = f"{key} ({i})"
    workloads[free] = entry
    return free


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=2)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    pairs = []
    for i in range(1 if args.trace else args.pairs):
        seed = args.first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"first": order[0]}
        for side in order:
            pair[side] = run(getattr(args, side).resolve(), args.workload, seed, args.trace)
        pairs.append(pair)
        print(f"{args.workload} pair {i + 1}: parent first = {order[0] == 'parent'}",
              file=sys.stderr, flush=True)

    bench = json.loads(args.out.read_text()) if args.out.exists() else {}
    key = args.workload + (" traced" if args.trace else "")
    entry = {"pairs": pairs}
    if not args.trace:
        declared = json.loads((args.change / "BENCHMARK.json").read_text())
        entry["end_to_end"] = summarise(pairs, declared["end_to_end"])
    key = store(bench, key, entry)
    args.out.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"stored as {key!r} in {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
