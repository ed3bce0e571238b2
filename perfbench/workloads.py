"""The benchmark workloads.

Each workload turns ``(seed, pass index)`` into a list of ops, runs one
op against the package, and checks its output against the reference
digests in ``reference.json``.  A pass always has the same mix of work:
the seed decides which inputs and in what order, never how much work.
"""

import hashlib
import json
import os
import random
import sys

import click
from click.testing import CliRunner

# kinva_sample: labels at rank <= 4 and twist order <= 8 that pass the
# cuspidality gate and whose inertia group W_lambda has order <= WMAX
# (the `kinva --wmax` filter).  Above 8, single structures cost 1-28 s
# cold, so one of them would decide a whole run.  A pass draws
# KINVA_SHARE of the labels of every class structure (at least one), so
# each pass checks every structure cold once and the seed only picks the
# labels and their order.  With a uniform sample the seed would also
# pick which structures a pass pays for; from measured per-structure
# costs, that alone spreads a pass's work by 5-6% and its tail latency
# by 7-10% (quartiles over seeds).
KINVA_RANKS = (1, 2, 3, 4)
KINVA_TWISTS = tuple(range(1, 9))
KINVA_WMAX = 8
KINVA_SHARE = 0.25

# query_mix: a fixed catalogue of requests.  The `verify` entries run
# each suite over its default twist grid at one rank; they are where
# extweyl and torus work at all.  Popularity follows cost: query_order.json
# (written by rank_queries.py) lists the entries by their measured cold
# latency, cheapest first, and entry r of it is requested with Zipf
# weight 1/r^QUERY_ZIPF.  No usage record exists, so the order and the
# exponent are assumptions: cheap lookups are asked for most, heavy
# requests least, with the skew of typical web request streams.
CHARTAB_PRESETS = ("d8", "c4", "c2wrs2", "s3", "c6", "c2wrs3", "s4", "q8",
                   "c3wrs2", "c3wrs3")
FORMATS = ("json", "tsv", "text")
QUERY_ZIPF = 1.1
QUERY_PASS_OPS = 500
HERE = os.path.dirname(os.path.abspath(__file__))


def catalogue():
    """The query_mix requests, without their --format."""
    entries = []
    for n in range(1, 8):
        for d in (1, 2, 3, 4, 6):
            q = (3, 5, 9)[n % 3]
            entries.append(["levis", "--n", str(n), "--d", str(d),
                            "--q", str(q)])
    for n in range(1, 7):
        for d in (1, 2, 3, 4):
            args = ["relweyl", "--n", str(n), "--d", str(d)]
            entries.append(args if n <= 4 else args + ["--no-check"])
    for name in CHARTAB_PRESETS:
        entries.append(["chartab", "--group", name])
    for n in (2, 3):
        for suite in ("centralizers", "normalizers", "eq1", "extweyl"):
            entries.append(["verify", suite, "--n", str(n)])
    entries.append(["verify", "torus", "--q", "3"])
    return entries


def ranked_catalogue():
    """The catalogue in popularity order, from query_order.json."""
    with open(os.path.join(HERE, "query_order.json")) as fh:
        ranked = [e["args"] for e in json.load(fh)]
    if sorted(ranked) != sorted(catalogue()):
        raise SystemExit("query_mix: query_order.json does not rank the "
                         "catalogue; rerun rank_queries.py")
    return ranked


def digest(data):
    return hashlib.sha256(data).hexdigest()[:16]


def kinva_digest(report):
    """Digest of a kinva report without its label (which is checked
    separately): the rest depends only on the label's class structure."""
    rest = {k: v for k, v in report.items() if k != "label"}
    return digest(json.dumps(rest, sort_keys=True,
                             separators=(",", ":")).encode())


def pool_digest(keys):
    return digest("\n".join(keys).encode())


def pass_rng(workload, seed, pass_index):
    return random.Random(f"{workload}:{seed}:{pass_index}")


class KinvaSample:
    """`cliff.kinva_check` on a seeded sample of gate-passing labels."""

    name = "kinva_sample"

    def __init__(self, reference):
        self.reference = reference
        self.pool = self.labels()
        self.keys = [c.key() for c in self.pool]
        if pool_digest(self.keys) != reference["pool_digest"]:
            raise SystemExit("kinva_sample: the label pool differs from the "
                             "reference pool")

    @staticmethod
    def labels():
        """The label pool, in the package's enumeration order."""
        from dsplitlevi.cliff import (cuspidal_gate, enumerate_char_labels,
                                      stab_lambda)
        from dsplitlevi.levi import enumerate_labels

        return [c for n in KINVA_RANKS for d in KINVA_TWISTS
                for lev in enumerate_labels(n, d)
                for c in enumerate_char_labels(lev)
                if cuspidal_gate(c) and stab_lambda(c).order <= KINVA_WMAX]

    def ops(self, seed, pass_index):
        rng = pass_rng(self.name, seed, pass_index)
        by_structure = {}
        for i, s in enumerate(self.reference["label_structure"]):
            by_structure.setdefault(s, []).append(i)
        ops = []
        for labels in by_structure.values():
            ops += rng.sample(labels, max(1, round(len(labels) * KINVA_SHARE)))
        rng.shuffle(ops)
        return ops

    def run(self, op):
        from dsplitlevi import cliff
        return cliff.kinva_check(self.pool[op])

    def harness(self, op, report):
        """The op with kinva_check replaced by a stub returning `report`."""
        return (lambda label: report)(self.pool[op])

    def check(self, op, report):
        structure = self.reference["label_structure"][op]
        return (report["pass"] is True and report["label"] == self.keys[op]
                and kinva_digest(report)
                == self.reference["structures"][structure])

    def repeat_key(self, op):
        return self.reference["label_structure"][op]

    @staticmethod
    def output_bytes(report):
        return 0


class StubCommand:
    """Stands in for the click entry point under CliRunner.invoke: it
    parses nothing, writes `output` and exits 0, so timing it times the
    runner alone."""

    name = "stub"
    output = b""

    def main(self, args=None, prog_name=None, **extra):
        click.echo(self.output, nl=False)
        sys.exit(0)


class QueryMix:
    """A Zipf-skewed stream of in-process levis/relweyl/chartab/verify
    queries in json, tsv and text, checked byte for byte by digest.  Per
    pass every catalogue entry gets its Zipf quota (at least one
    request), so the seed orders the stream and picks formats but does
    not change how much work a pass holds."""

    name = "query_mix"

    def __init__(self, reference):
        from dsplitlevi import cli
        self.reference = reference
        self.main = cli.main
        self.runner = CliRunner()
        self.stub = StubCommand()

    @staticmethod
    def all_ops():
        return [args + ["--format", fmt]
                for args in catalogue() for fmt in FORMATS]

    def ops(self, seed, pass_index):
        rng = pass_rng(self.name, seed, pass_index)
        ranked = ranked_catalogue()
        weights = [1 / rank ** QUERY_ZIPF
                   for rank in range(1, len(ranked) + 1)]
        scale = QUERY_PASS_OPS / sum(weights)
        ops = []
        for args, weight in zip(ranked, weights):
            first = rng.randrange(len(FORMATS))
            for k in range(max(1, round(weight * scale))):
                fmt = FORMATS[(first + k) % len(FORMATS)]
                ops.append(args + ["--format", fmt])
        rng.shuffle(ops)
        return ops

    def run(self, op):
        result = self.runner.invoke(self.main, op)
        if result.exception is not None and not isinstance(
                result.exception, SystemExit):
            raise result.exception
        return result.exit_code, result.stdout_bytes

    def harness(self, op, result):
        """The op with the CLI replaced by a stub that writes the
        recorded stdout."""
        self.stub.output = result[1]
        return self.runner.invoke(self.stub, op)

    def check(self, op, result):
        exit_code, stdout = result
        return (exit_code == 0
                and digest(stdout) == self.reference.get(" ".join(op)))

    @staticmethod
    def repeat_key(op):
        return " ".join(op)

    @staticmethod
    def output_bytes(result):
        return len(result[1])


WORKLOADS = {w.name: w for w in (KinvaSample, QueryMix)}
