"""Steadiness check: run each workload on N seeds and compare every
end-to-end metric's quartile spread with its bound in BENCHMARK.json.

    python3 perfbench/steady.py --runs 10 [--workloads query_mix ...]
        [--out first.json] [--baseline first.json]

Run from the repository root.  For each metric it prints the median,
the quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) /
median against the bound: "steady" below a third of the bound, "ok"
within it, "TOO WIDE" above it.  With
--baseline (an --out file of an earlier set) it also checks that no
median got worse than the baseline's by more than the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{' '.join(cmd)}: {result['failed']} of "
                         f"{result['attempted']} ops failed")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    return metrics, result["attempted"]


def worse_by(metric, new, old):
    """How much worse new is than old, as a share of old."""
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--out", help="write the measured values here")
    parser.add_argument("--baseline", help="--out file of an earlier set")
    args = parser.parse_args()

    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    baseline = {}
    if args.baseline:
        with open(args.baseline) as fh:
            baseline = json.load(fh)

    values, bad = {}, 0
    for workload in workloads:
        runs = [run_once(bench, workload, seed)
                for seed in range(args.first_seed,
                                  args.first_seed + args.runs)]
        values[workload] = {m["name"]: [r[m["name"]] for r, _ in runs]
                            for m in bench["end_to_end"]}
        print(f"{workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, failure_ratio 0 "
              f"(0 of {sum(n for _, n in runs)} ops)")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            vals = values[workload][name]
            q1, median, q3 = (statistics.quantiles(vals, n=4)
                              if len(vals) > 1 else vals * 3)
            spread = (q3 - q1) / median
            if spread < bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "ok"
            else:
                verdict, bad = "TOO WIDE", bad + 1
            line = (f"  {name:18s} median {median:12.5g} {metric['unit']:6s}"
                    f" q1 {q1:12.5g} q3 {q3:12.5g} spread {spread:7.4f}"
                    f" bound {bound:5.3f} {verdict}")
            old = baseline.get(workload, {}).get(name)
            if old:
                change = worse_by(metric, median, statistics.median(old))
                line += f"  vs baseline {change:+.4f}"
                if change > bound:
                    line += " WORSE"
                    bad += 1
            print(line)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(values, fh, indent=1)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
