"""Rank the query_mix catalogue by cost and write perfbench/query_order.json.

    python3 perfbench/rank_queries.py [--repeats 3]

Run from the repository root.  Each catalogue entry is requested once,
in json, in a fresh process (empty caches, as on a CLI user's first
request), --repeats times; the median latency is its cost.  The file
lists the entries cheapest first, which query_mix takes as popularity
order.  No usage record exists to rank by, so this is an assumption:
cheap lookups are asked for most and heavy requests least.

Run it only when the catalogue changes.  The order fixes the workload's
mix, so re-ranking after a speed-up would move the baseline.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))


def time_entry(index):
    """Child mode: one cold request of catalogue entry `index`."""
    sys.path.insert(0, HERE)
    from workloads import QueryMix, catalogue

    workload = QueryMix(None)
    op = catalogue()[index] + ["--format", "json"]
    start = time.perf_counter()
    exit_code, _ = workload.run(op)
    elapsed = time.perf_counter() - start
    if exit_code != 0:
        raise SystemExit(f"exit code {exit_code} for {op}")
    print(elapsed * 1e3)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--entry", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.entry is not None:
        time_entry(args.entry)
        return

    sys.path.insert(0, HERE)
    from workloads import catalogue

    root = os.getcwd()
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.path.join(root, "src"))
    ranked = []
    for index, entry in enumerate(catalogue()):
        times = [float(subprocess.run(
            [sys.executable, "-B", os.path.abspath(__file__),
             "--entry", str(index)],
            cwd=root, env=env, capture_output=True, text=True,
            check=True).stdout) for _ in range(args.repeats)]
        ranked.append({"args": entry,
                       "cold_ms": round(statistics.median(times), 3)})
        print(f"{ranked[-1]['cold_ms']:10.3f} ms  {' '.join(entry)}")
    ranked.sort(key=lambda e: e["cold_ms"])
    with open(os.path.join(HERE, "query_order.json"), "w") as fh:
        json.dump(ranked, fh, indent=0)
        fh.write("\n")


if __name__ == "__main__":
    main()
