"""Layer tracing from outside the package.

Every public function listed in ``LAYERS`` is replaced, at run time and
in every place that binds it (module namespaces, class dictionaries
including aliases such as ``__radd__ = __add__``, click command
callbacks), by a wrapper that records one span per call: name, op id,
start, end and parent span.  Spans are kept in flat arrays while the
pass runs and written out when it ends.  No package source is edited.

A layer's self time is the summed duration of its spans minus the part
covered by their direct child spans; children of one span never overlap
because each pass runs one client on one thread.
"""

import functools
import json
import sys
import time
from array import array

# module -> public names traced in it ("Class.method" for methods).
# Every name here records at least one span on some workload (checked by
# selftest.py); public functions no workload reaches are left out.
LAYERS = {
    "signedperm": (
        "SignedPerm.__mul__", "SignedPerm.inv", "SignedPerm.__pow__",
        "SignedPerm.to_cycles", "SignedPerm.from_cycles", "SignedPerm.bar",
        "centralizer_type", "wprime", "tau", "iota", "grid_set",
        "group_closure", "signed_symmetric_group", "brute_normalizer",
        "brute_centralizer", "set_partitions", "block_wreath_generators",
        "block_wreath_normalizer_generators",
    ),
    "rootsys": (
        "reflection_perm", "build_root_system", "is_stable_under",
    ),
    "cyclo": (
        "CycNum.__add__", "CycNum.__sub__", "CycNum.__neg__",
        "CycNum.__mul__", "CycNum.inv", "CycNum.promote", "CycNum.conjugate",
        "CycNum.__eq__", "zeta", "check_eq1",
    ),
    "levi": (
        "LeviLabel.__init__", "compute_d0", "sylow_twist_w",
        "enumerate_labels", "concrete_parabolic_roots", "sp_order",
        "gl_order", "check_odd_prime_power", "levi_structure", "wprime_Q",
        "tau_Q", "relative_weyl", "verify_relative_weyl", "label_record",
    ),
    "extweyl": (
        "IntMatrix.__mul__", "IntMatrix.inv", "matrix_closure",
        "chevalley_generator", "rho", "build_twist_elements",
    ),
    "torus": (
        "FqElem.__mul__", "FqElem.__pow__", "FqElem.inv",
        "TwistedOrbit.__init__", "lang_map", "theta", "z_plus",
        "conj_center_action", "central_stabilizer_jump",
    ),
    "chartab": (
        "FiniteGroup.__init__", "FiniteGroup.generate",
        "FiniteGroup.conjugacy_classes", "FiniteGroup.exponent",
        "ClassFunction.__eq__", "character_table", "restrict", "inner",
    ),
    "cliff": (
        "kinva_check",
    ),
    "cli": (
        "main", "levis", "relweyl", "verify", "chartab", "canonical_json",
        "render_tsv", "render_text",
    ),
}

PACKAGE = "dsplitlevi"

# Per-call values summed into the layer counters, read from a call's
# arguments and result.
RESULT_HOOKS = {
    "signedperm.group_closure": lambda args, result: len(result),
    "extweyl.matrix_closure": lambda args, result: len(result),
    "chartab.character_table": lambda args, result: args[0].order,
}


def _originals(module, name):
    """The object to wrap and where it lives: (owner, attribute, raw)."""
    if "." in name:
        cls_name, attr = name.split(".")
        owner = getattr(module, cls_name)
        return owner, attr, owner.__dict__[attr]
    return module, name, getattr(module, name)


class Tracer:
    """Span store for one pass plus the patches that feed it."""

    def __init__(self):
        self.names = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("H")
        self.op = array("q")
        self.errors = []
        self.values = {}
        self.current_op = 0
        self._stack = []

    # -- recording ------------------------------------------------------

    def _wrap(self, qualname, fn):
        idx = len(self.names)
        self.names.append(qualname)
        self.errors.append(0)
        values = self.values.setdefault(qualname, [])
        hook = RESULT_HOOKS.get(qualname)
        start, end, parent, name, op = (self.start, self.end, self.parent,
                                        self.name, self.op)
        stack, errors, clock = self._stack, self.errors, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            parent.append(stack[-1] if stack else -1)
            name.append(idx)
            op.append(tracer.current_op)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                errors[idx] += 1
                raise
            finally:
                end[i] = clock()
                stack.pop()
            if hook is not None:
                values.append((i, hook(args, result)))
            return result

        return wrapper

    # -- patching -------------------------------------------------------

    def install(self):
        """Wrap every name in LAYERS wherever the package binds it."""
        import click

        modules = [m for key, m in sorted(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for layer, names in LAYERS.items():
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name in names:
                owner, attr, raw = _originals(module, name)
                qualname = f"{layer}.{name}"
                if isinstance(raw, click.Group):
                    # parse + dispatch of the command-line entry point
                    raw.main = self._wrap(qualname, raw.main)
                elif isinstance(raw, click.Command):
                    raw.callback = self._wrap(qualname, raw.callback)
                elif isinstance(raw, classmethod):
                    setattr(owner, attr,
                            classmethod(self._wrap(qualname, raw.__func__)))
                elif isinstance(owner, type):
                    wrapped = self._wrap(qualname, raw)
                    for key, value in list(owner.__dict__.items()):
                        if value is raw:
                            setattr(owner, key, wrapped)
                else:
                    wrapped = self._wrap(qualname, raw)
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is raw:
                                setattr(mod, key, wrapped)

    # -- output ---------------------------------------------------------

    def write(self, path):
        """Spans as a JSON header line followed by the raw arrays."""
        with open(path, "wb") as fh:
            header = {"names": self.names, "spans": len(self.start),
                      "arrays": ["start:d", "end:d", "parent:q", "name:H",
                                 "op:q"]}
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.start, self.end, self.parent, self.name,
                        self.op):
                arr.tofile(fh)

    def layer_metrics(self, output_bytes):
        """Per-layer metrics of the pass: for every layer its calls, self
        time and raising calls, plus the exact counters of the layers.
        Also the calls per name."""
        idx = {n: i for i, n in enumerate(self.names)}
        k = len(self.names)
        calls, busy, covered = [0] * k, [0.0] * k, [0.0] * k
        # A table is computed when its span has children (a cache hit
        # returns before calling anything traced); a kinva check hits
        # the memo when no character_table span lies below it.
        table, kinva = idx["chartab.character_table"], idx["cliff.kinva_check"]
        computed, kinva_cold = set(), set()
        parent, name = self.parent, self.name
        for n, p, s, e in zip(name, parent, self.start, self.end):
            calls[n] += 1
            busy[n] += e - s
            if p < 0:
                continue
            covered[name[p]] += e - s
            if name[p] == table:
                computed.add(p)
            if n == table:
                while p >= 0 and name[p] != kinva:
                    p = parent[p]
                if p >= 0:
                    kinva_cold.add(p)
        self_s = [b - c for b, c in zip(busy, covered)]

        def total(qualname, spans=None):
            return sum(v for i, v in self.values[qualname]
                       if spans is None or i in spans)

        def calls_of(qualname):
            return calls[idx[qualname]]

        out = {}
        for layer in LAYERS:
            members = [i for i, q in enumerate(self.names)
                       if q.startswith(layer + ".")]
            out[f"{layer}.calls"] = (sum(calls[i] for i in members), "count")
            out[f"{layer}.self_s"] = (sum(self_s[i] for i in members), "s")
            out[f"{layer}.errors"] = (sum(self.errors[i] for i in members),
                                      "count")
        tables = calls_of("chartab.character_table")
        kinvas = calls_of("cliff.kinva_check")
        out.update({
            "cyclo.mul_count": (calls_of("cyclo.CycNum.__mul__"), "count"),
            "cyclo.add_count": (calls_of("cyclo.CycNum.__add__"), "count"),
            "cyclo.promote_count": (calls_of("cyclo.CycNum.promote"), "count"),
            "cyclo.inv_count": (calls_of("cyclo.CycNum.inv"), "count"),
            "chartab.tables_computed": (len(computed), "count"),
            "chartab.table_hit_ratio": (
                (tables - len(computed)) / tables if tables else 0.0, "ratio"),
            "chartab.table_group_order_sum": (
                total("chartab.character_table", computed), "count"),
            "cliff.kinva_memo_hit_ratio": (
                (kinvas - len(kinva_cold)) / kinvas if kinvas else 0.0,
                "ratio"),
            "signedperm.closure_elements": (
                total("signedperm.group_closure"), "count"),
            "extweyl.closure_elements": (
                total("extweyl.matrix_closure"), "count"),
            "torus.lang_map_calls": (calls_of("torus.lang_map"), "count"),
            "levi.labels_built": (
                calls_of("levi.LeviLabel.__init__")
                - self.errors[idx["levi.LeviLabel.__init__"]], "count"),
            "cli.output_bytes": (output_bytes, "bytes"),
        })
        return out, dict(zip(self.names, calls))
