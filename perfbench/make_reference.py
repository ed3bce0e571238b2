"""Regenerate perfbench/reference.json, the digests every benchmark op
is checked against.

    PYTHONPATH=src python3 perfbench/make_reference.py

Run it only when the package's output is meant to change: the digests
are what makes a wrong answer count as a failure instead of a speed-up.
"""

import json
import os
import sys

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import (KinvaSample, QueryMix, digest,  # noqa: E402
                       kinva_digest, pool_digest)


def kinva_reference():
    from dsplitlevi.cliff import _canonical_structure, kinva_check

    pool = KinvaSample.labels()
    structure_ids, structures, label_structure = {}, [], []
    for label in pool:
        key = _canonical_structure(label)
        report = kinva_check(label)
        if not report["pass"]:
            raise SystemExit(f"kinva fails on {label.key()}")
        if key not in structure_ids:
            structure_ids[key] = len(structures)
            structures.append(kinva_digest(report))
        elif structures[structure_ids[key]] != kinva_digest(report):
            raise SystemExit("kinva report is not a function of the "
                             "class structure")
        label_structure.append(structure_ids[key])
    return {"pool_digest": pool_digest([c.key() for c in pool]),
            "structures": structures, "label_structure": label_structure}


def cli_reference(workload):
    out = {}
    for op in workload.all_ops():
        exit_code, stdout = workload.run(op)
        if exit_code != 0:
            raise SystemExit(f"exit code {exit_code} for {op}")
        out[" ".join(op)] = digest(stdout)
    return out


def main():
    reference = {
        "kinva_sample": kinva_reference(),
        "query_mix": cli_reference(QueryMix(None)),
    }
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
