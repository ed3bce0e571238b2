"""Self-test of the layer tracing.

    python3 perfbench/selftest.py

Run from the repository root.  Checks that, once the tracer is
installed, no module or class of the package still binds an unwrapped
original of a traced function, that every function listed in
tracing.LAYERS records at least one span on some workload (one traced
pass of each, seed 1), and that on each workload the layers' self times
plus the benchmark's own time account for the traced wall within
run.UNACCOUNTED_LIMIT.  Exits non-zero on any miss.
"""

import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from run import UNACCOUNTED_LIMIT, accounting  # noqa: E402
from tracing import LAYERS, PACKAGE, Tracer, _originals  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def unwrapped_bindings():
    """(place, name) pairs still bound to an original after install."""
    import click
    import dsplitlevi.cli  # noqa: F401

    originals = []
    for layer, names in LAYERS.items():
        module = sys.modules[f"{PACKAGE}.{layer}"]
        for name in names:
            owner, _, raw = _originals(module, name)
            if isinstance(raw, click.Group):
                raw = raw.main
            elif isinstance(raw, click.Command):
                raw = raw.callback
            elif isinstance(raw, classmethod):
                raw = raw.__func__
            originals.append((f"{layer}.{name}", owner, raw))
    Tracer().install()
    places = [m for key, m in sys.modules.items() if key.startswith(PACKAGE)]
    places += [o for _, o, _ in originals if isinstance(o, type)]
    missed = []
    for qualname, _, raw in originals:
        for place in places:
            for key, value in vars(place).items():
                underlying = getattr(value, "__func__", value)
                if underlying is raw:
                    missed.append((qualname, f"{place.__name__}.{key}"))
        for cmd in dsplitlevi.cli.main.commands.values():
            if cmd.callback is raw:
                missed.append((qualname, f"command {cmd.name}"))
    return missed


def traced_passes():
    """Listed functions that no workload's traced pass calls, and the
    workloads whose traced wall is not accounted for."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.path.join(ROOT, "src"))
    called, unaccounted = set(), []
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, "-B", os.path.join(HERE, "worker.py"),
             "--workload", workload, "--seed", "1", "--trace"],
            cwd=ROOT, env=env, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        called |= {q for q, n in result["name_calls"].items() if n}
        print(f"{workload}: {len(called)} functions with spans so far")
        share, line = accounting(result)
        print(f"{workload}: {line}")
        if abs(share) > UNACCOUNTED_LIMIT:
            unaccounted.append(workload)
    listed = {f"{layer}.{name}" for layer, names in LAYERS.items()
              for name in names}
    return sorted(listed - called), unaccounted


def main():
    missed = unwrapped_bindings()
    for qualname, place in missed:
        print(f"not wrapped: {qualname} still bound at {place}")
    spanless, unaccounted = traced_passes()
    for qualname in spanless:
        print(f"no span on any workload: {qualname}")
    for workload in unaccounted:
        print(f"traced wall not accounted for: {workload}")
    if missed or spanless or unaccounted:
        sys.exit(1)
    print("selftest ok: every binding wrapped, every listed function "
          "traced, every traced wall accounted for")


if __name__ == "__main__":
    main()
