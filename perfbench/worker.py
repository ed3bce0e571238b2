"""One pass of one workload in a fresh process; started by run.py.

Prints one JSON line: when the package finished importing (for the
set-up time), the per-op latencies and outcomes, the timed wall, the
peak resident memory and, when traced, the per-layer metrics.
"""

import argparse
import json
import os
import resource
import time
import traceback


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="file the traced spans go to")
    parser.add_argument("--probe", action="store_true",
                        help="import the package and exit")
    args = parser.parse_args()

    import dsplitlevi.cli  # noqa: F401  imports every layer
    ready = time.monotonic()
    if args.probe:
        print(json.dumps({"ready": ready}))
        return

    from tracing import Tracer
    from workloads import WORKLOADS

    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "reference.json")) as fh:
        reference = json.load(fh)[args.workload]
    workload = WORKLOADS[args.workload](reference)
    ops = workload.ops(args.seed, args.pass_index)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    latencies, failed, errors, outputs = [], 0, [], []
    seen, repeats, output_bytes = set(), 0, 0
    check_s = 0.0
    clock = time.perf_counter
    start = clock()
    for k, op in enumerate(ops):
        if tracer is not None:
            tracer.current_op = k
        t = clock()
        try:
            out = workload.run(op)
        except Exception:
            latencies.append(clock() - t)
            failed += 1
            errors.append(traceback.format_exc(limit=3))
            continue
        latencies.append(clock() - t)
        c = clock()
        if tracer is not None:
            outputs.append((k, op, out))
        if not workload.check(op, out):
            failed += 1
            errors.append(f"wrong output for {op!r}")
        key = workload.repeat_key(op)
        repeats += key in seen
        seen.add(key)
        output_bytes += workload.output_bytes(out)
        check_s += clock() - c
    wall = clock() - start - check_s

    result = {
        "ready": ready, "wall_s": wall,
        "latencies": latencies, "failed": failed, "errors": errors[:5],
        "repeat_share": repeats / len(ops),
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        # The benchmark's own share of the traced wall, measured apart:
        # the same loop with the package's entry point replaced by a stub
        # that returns each op's recorded output.
        start = clock()
        for k, op, out in outputs:
            tracer.current_op = k
            workload.harness(op, out)
        bench_s = clock() - start
        layers, calls = tracer.layer_metrics(output_bytes)
        result.update(layers=layers, bench_self_s=bench_s,
                      spans=len(tracer.start), name_calls=calls)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
