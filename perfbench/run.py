"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload kinva_sample --seed 1 \
        --seconds 45 --trace 0

Run from the repository root.  A run is a fixed number of passes, each
in a fresh worker process (empty module caches, pinned PYTHONHASHSEED,
no bytecode written): --seconds divided by the workload's nominal pass
length, rounded, at least one.  With --trace 0 it prints the end-to-end
metrics; with --trace 1 it runs one pass untraced and the same pass
traced and prints the per-layer metrics.  The last line of stdout is
the JSON result.
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
WORKLOADS = ("kinva_sample", "query_mix")
HASH_SEED = "0"
# Seed reserved for confirming a claimed gain; never tune against it.
HELD_OUT_SEED = 7919
# Seconds one pass took at the commit that defined the benchmark, on a
# 2-vCPU Xeon VM.  The pass count depends only on --seconds, so every run
# of a workload measures the same work and its tail is the same
# percentile.
PASS_SECONDS = {"kinva_sample": 16, "query_mix": 11}
# Set-up probes (launch and import, then exit) before each pass, so the
# set-up samples spread over the whole run like the passes do.
PROBES_PER_PASS = 2
BUDGET_S = 170.0
# The traced wall must be accounted for by the layers' self times plus
# the benchmark's own time up to this share.
UNACCOUNTED_LIMIT = 0.02


class RunError(Exception):
    pass


def spawn(root, args, deadline):
    """Run worker.py once; its parsed result plus the set-up time."""
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED,
               PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.path.join(root, "src"))
    cmd = [sys.executable, "-B", os.path.join(HERE, "worker.py")] + args
    launched = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                              text=True, timeout=deadline - launched)
    except subprocess.TimeoutExpired:
        raise RunError(f"worker {args} did not finish within the budget")
    if proc.returncode != 0:
        raise RunError(f"worker {args} exited {proc.returncode}:\n"
                       + proc.stderr[-2000:])
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - launched
    return result


def tail(latencies):
    """The highest percentile with at least ten samples beyond it:
    (value, percentile, samples beyond)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def end_to_end(passes, setups):
    latencies = [t * 1e3 for p in passes for t in p["latencies"]]
    tail_ms, pct, beyond = tail(latencies)
    failed = sum(p["failed"] for p in passes)
    metrics = {
        "ops_per_s": (len(latencies) / sum(p["wall_s"] for p in passes),
                      "ops/s"),
        "latency_p50_ms": (statistics.median(latencies), "ms"),
        "latency_tail_ms": (tail_ms, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(p["maxrss_mb"] for p in passes), "MB"),
    }
    notes = {
        "latency_tail_ms": f"p{pct:.2f}, {beyond} of {len(latencies)} "
                           "samples beyond",
        "failure_ratio": f"{failed / len(latencies):14.6g} ratio  "
                         f"({failed} of {len(latencies)} ops)",
    }
    return metrics, notes


def accounting(traced):
    """How far the layers' self times plus the benchmark's own time
    (measured apart, see worker.py) fall short of the traced wall:
    (share of the wall, printable line)."""
    layer_self = sum(v for k, (v, _) in traced["layers"].items()
                     if k.endswith(".self_s"))
    wall, bench = traced["wall_s"], traced["bench_self_s"]
    rest = wall - layer_self - bench
    verdict = ("accounted" if abs(rest / wall) <= UNACCOUNTED_LIMIT
               else "NOT ACCOUNTED")
    return rest / wall, (
        f"traced wall {wall:.3f} s = layer self {layer_self:.3f} s + "
        f"benchmark {bench:.3f} s + unaccounted {rest:.3f} s "
        f"({rest / wall:+.2%}, limit {UNACCOUNTED_LIMIT:.0%}): {verdict}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    deadline = time.monotonic() + BUDGET_S
    root = os.getcwd()
    for need in ("src/dsplitlevi/__init__.py", "perfbench/reference.json"):
        if not os.path.isfile(os.path.join(root, need)):
            sys.exit(f"run.py: {need} not found; run from the repository "
                     "root")

    base = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups, passes = [], []
        if args.trace:
            spans_dir = os.path.join(root, ".perfbench")
            os.makedirs(spans_dir, exist_ok=True)
            spans = os.path.join(spans_dir, f"spans-{args.workload}.bin")
            passes.append(spawn(root, base, deadline))
            passes.append(spawn(root, base + ["--trace", "--spans", spans],
                                deadline))
        else:
            count = max(1, round(args.seconds / PASS_SECONDS[args.workload]))
            for index in range(count):
                setups += [spawn(root, base + ["--probe"], deadline)["setup_s"]
                           for _ in range(PROBES_PER_PASS)]
                passes.append(spawn(root, base + ["--pass-index", str(index)],
                                    deadline))
    except RunError as exc:
        sys.exit(f"run.py: {exc}")

    setups += [p["setup_s"] for p in passes]
    attempted = sum(len(p["latencies"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for err in p["errors"]:
            print(f"failure: {err}", file=sys.stderr)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"held-out seed {HELD_OUT_SEED}  nproc {os.cpu_count()}  "
          + ("passes 1 untraced + 1 traced" if args.trace
             else f"passes {len(passes)}")
          + f"  repeat share {passes[0]['repeat_share']:.3f}")
    if args.trace:
        untraced, traced = passes
        metrics = dict(traced["layers"])
        metrics["bench.self_s"] = (traced["bench_self_s"], "s")
        metrics["trace.overhead_s"] = (traced["wall_s"] - untraced["wall_s"],
                                       "s")
        print(f"untraced wall {untraced['wall_s']:.3f} s; {traced['spans']} "
              f"spans written to {spans}")
        print(accounting(traced)[1])
    else:
        metrics, notes = end_to_end(passes, setups)
    for name, (value, unit) in metrics.items():
        note = "" if args.trace else notes.get(name, "")
        print(f"  {name:32s} {value:14.6g} {unit}  {note}".rstrip())
    if not args.trace:
        print(f"  {'failure_ratio':32s} {notes['failure_ratio']}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
