"""Batch command-line front end.

Subcommands
-----------
``levis``    enumerate d-split Levi labels with structures and orders;
``relweyl``  relative Weyl descriptors plus brute-force verification;
``verify``   run one named verification suite over a parameter grid;
``kinva``    check the invariance criterion on gate-passing labels;
``chartab``  print the exact character table of a preset group.

JSON (sorted keys, fixed separators) is the canonical machine format;
``--format tsv`` and ``--format text`` are derived renderings of the
same report, so all three are byte-identical across repeated runs with
the same flags.  A report is its head fields plus one table of records
under a key; one writer per format writes it to stdout as it goes, one
write per chunk of CHUNK_RECORDS records, the head with the first and
the tail with the last.  The writers only join encoded text.  The
records of ``verify``, ``kinva`` and ``chartab`` are dicts, encoded by
one helper (one encoder call per chunk in JSON; ``verify`` failures
take the union of their keys as TSV columns).  ``levis`` and
``relweyl`` hand over rows already encoded in the requested format,
assembled from text encoded once per request for each label shape,
I_minus1, block and generator (see "label rows" below).  ``levis``
hands over an iterator: each label is built and encoded only when its
chunk is written, so its memory does not grow with the Bell(a+1)
labels; ``relweyl`` holds its labels until ``pass`` is known.  A
refused input is refused before the first byte.  Exit
status: 0 when every requested check passes, 1
when a verification fails (failure records stay in the report), 2 on
invalid flags, when a group grows past its brute-force cap (``--cap``;
by default 20000 elements for closures and 10000 for character tables;
a command that enumerates groups checks the order of the largest, by
``signedperm.check_order``, before any work, so the default caps admit
rank 5 and refuse rank 6), or when an input is past a fixed bound (q
below 2^64, at most ``GRID_VALUE_BOUND`` values in a grid, at most
``levi.LABEL_COUNT_BOUND`` Levi labels at one (n, d) and concrete
pairs at one rank in ``verify eq1``, at most ``levi.EQ1_PAIR_BOUND``
concrete pairs at d0 = 1 over a ``verify eq1`` grid, fields of at most
``torus.FIELD_ORDER_BOUND`` elements, at most ``LANG_TUPLE_BOUND``
tuples in ``verify torus``): then one line naming the cap or bound goes
to stderr and nothing to stdout.  A run whose stdout is closed early
ends with status 141 (128 + SIGPIPE) and nothing on stderr.
"""

import itertools
import json
import os
import random
import sys
from json.encoder import encode_basestring_ascii

import click

from .arith import InputTooLarge
from .chartab import DEFAULT_GROUP_CAP, FiniteGroup, character_table
from .cliff import (_kinva_key, cuspidal_gate, enumerate_char_labels,
                    inertia_order, kinva_check)
from .cyclo import check_eq1
from .extweyl import (IntMatrix, build_twist_elements, chevalley_generator,
                      matrix_closure, rho_image)
from .levi import (EQ1_PAIR_BOUND, check_odd_prime_power, compute_d0,
                   concrete_parabolic_roots, enumerate_labels, label_count,
                   label_record, relative_weyl, sylow_twist_w,
                   verify_relative_weyl)
from .rootsys import build_root_system, is_stable_under
from .signedperm import (DEFAULT_CLOSURE_CAP, ClosureExceedsCap, SignedPerm,
                         block_wreath_generators,
                         block_wreath_normalizer_generators, brute_centralizer,
                         brute_normalizer, centralizer_type, check_order,
                         check_signed_group, group_closure, set_partitions,
                         signed_symmetric_group, wreath_order)
from .torus import (TwistedOrbit, central_stabilizer_jump, conj_center_action,
                    lang_logs, lang_map, theta, z_plus)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

# Records encoded and written to stdout at a time.
CHUNK_RECORDS = 128

# The text between two encoded rows of a table, by format.
_ROW_SEP = {"json": ",", "tsv": "\n", "text": "\n  "}


def canonical_json(obj):
    """The canonical machine encoding: sorted keys, no whitespace."""
    return _ENCODER.encode(obj)


def _cell(value):
    if isinstance(value, str):
        return value
    if type(value) is int:
        return str(value)
    return canonical_json(value)


def _out(text):
    click.echo(text, nl=False)


def _chunks(records):
    """The records in lists of CHUNK_RECORDS (the last one shorter)."""
    records = iter(records)
    while chunk := list(itertools.islice(records, CHUNK_RECORDS)):
        yield chunk


def _split(head, key):
    """The head fields by name, split where the record key sorts."""
    fields = sorted(head.items())
    at = len(fields) if key is None else sum(k < key for k, _ in fields)
    return fields[:at], fields[at:]


def _write(lead, chunks, sep, tail):
    """Write lead, the chunks joined by sep, then tail and a newline: one
    write per chunk, the lead going out with the first chunk and the
    tail with the last."""
    text = lead
    for i, chunk in enumerate(chunks):
        if i:
            _out(text)
            text = sep + chunk
        else:
            text += chunk
    _out(text + tail + "\n")


def render_json(head, key, chunks):
    """Canonical JSON of the report.  The head fields on either side of
    the key are encoded with an empty table in its place, and the
    chunks of encoded records go between its brackets."""
    if key is None:
        lead, tail = canonical_json(head), ""
    else:
        before, after = _split(head, key)
        lead = canonical_json({**dict(before), key: []})[:-2]
        tail = "]," + canonical_json(dict(after))[1:] if after else "]}"
    _write(lead, chunks, ",", tail)


def render_tsv(head, key, cols, chunks):
    """Tab-separated rendering: '#'-prefixed head fields, then the
    records as one table under the columns ``cols``."""
    lines = [f"# {k}\t{_cell(v)}" for k, v in sorted(head.items())]
    if key is not None:
        lines += ["\t".join(cols), ""]
    _write("\n".join(lines), chunks, "\n", "")


def render_text(head, key, chunks):
    """Line-per-field rendering; each record on its own indented line,
    as canonical JSON."""
    before, after = _split(head, key)
    lines = [f"{k}: {_cell(v)}" for k, v in before]
    if key is not None:
        lines.append(f"{key}:\n  ")
    _write("\n".join(lines), chunks, "\n  ",
           "".join(f"\n{k}: {_cell(v)}" for k, v in after))


def _row(fmt, rec, cols):
    """A dict record as a row of fmt: its canonical JSON in JSON and
    text, its cells under the columns ``cols`` in TSV (empty where it
    has no such key)."""
    if fmt == "tsv":
        return "\t".join([_cell(rec[c]) if c in rec else "" for c in cols])
    return canonical_json(rec)


def _encode_records(fmt, records):
    """(cols, chunks) for a list of dict records: the TSV columns, the
    sorted union of the records' keys, and the records encoded in fmt,
    one string per chunk of CHUNK_RECORDS records, with one encoder call
    per chunk in JSON."""
    if fmt == "json":
        return None, (canonical_json(chunk)[1:-1]
                      for chunk in _chunks(records))
    cols = sorted({c for r in records for c in r}) if fmt == "tsv" else None
    rows = (_row(fmt, rec, cols) for rec in records)
    return cols, map(_ROW_SEP[fmt].join, _chunks(rows))


def _emit(fmt, head, key=None, records=(), cols=None):
    """Write the report: the fields of ``head`` and, under ``key``, a
    table of records, in sorted key order.  The records are a list of
    dicts, or, when ``cols`` lists the table's columns, rows already
    encoded in fmt: a JSON object in JSON and text, tab-separated cells
    in TSV, as a list or an iterator that yields at least one row.  A
    writer holds at most two chunks of them at a time (the one it is
    about to write and the next, so that the last goes out with the
    tail).  An empty list is an empty-list field of the head, as in
    the whole report."""
    chunks = ()
    if key is not None and not records:
        head, key = {**head, key: []}, None
    elif key is not None:
        if cols is None:
            cols, chunks = _encode_records(fmt, records)
        else:
            chunks = map(_ROW_SEP[fmt].join, _chunks(records))
    if fmt == "json":
        render_json(head, key, chunks)
    elif fmt == "tsv":
        render_tsv(head, key, cols, chunks)
    else:
        render_text(head, key, chunks)


# ---------------------------------------------------------------------------
# label rows
# ---------------------------------------------------------------------------
#
# At one (n, d) most of a levis or relweyl record is fixed by its label's
# shape, so these two commands hand _emit rows already encoded in the
# requested format, assembled from text encoded once per request: the
# shape's fields, each I_minus1, each block of I and each generator.
# label_record and _relweyl_record stay the one source of the fields,
# each encoded generically for the first label of its shape.  A row
# starts with I and I_minus1, which sort before every lowercase name.

def _points(points):
    """Canonical JSON of a sequence of ints."""
    return "[" + ",".join(map(str, points)) + "]"


class _Memo(dict):
    """fn at each key, computed when first looked up; one serves one
    request."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _label_lead(fmt):
    """A function from a label to the start of its row in fmt, its I and
    I_minus1: each block of I and each I_minus1 is encoded once."""
    start, mid = ("", "\t") if fmt == "tsv" else ('{"I":', ',"I_minus1":')
    blocks = _Memo(_points)
    minus1 = _Memo(lambda points: mid + _points(points))
    return lambda lab: (start + "[" + ",".join(map(blocks.__getitem__, lab.I))
                        + "]" + minus1[lab.I_minus1])


def _levis_rows(fmt, labels, q):
    """(cols, rows): the columns of label_record, and each label's record
    at q as a row of fmt.  At one (n, d) the label's t fixes every field
    but I and I_minus1 (|I_minus1| is n - d0 * sum of s * t_s), so the
    first label with a given t is encoded in full and the others reuse
    the text of its row after its I and I_minus1."""
    labels = iter(labels)
    first = next(labels)
    rec = label_record(first, q)
    cols = sorted(rec)
    lead, shapes = _label_lead(fmt), {}

    def rows():
        for lab in itertools.chain((first,), labels):
            key = tuple(lab.t.items())
            start = lead(lab)
            shape = shapes.get(key)
            if shape is None:
                row = _row(fmt, rec if lab is first else label_record(lab, q),
                           cols)
                shape = shapes[key] = row[len(start):]
            yield start + shape

    return cols, rows()


def _relweyl_record(label, verified):
    """The relweyl record of a label: its W_d^I descriptor and the
    brute-force verdict (None when unchecked)."""
    rw = relative_weyl(label)
    return {"I_minus1": list(label.I_minus1),
            "I": [list(b) for b in label.I],
            "factors": [list(f) for f in rw.factors],
            "order": rw.order,
            "generators": [g.to_cycles() for g in rw.generators],
            "verified": verified}


def _fields(fmt, rec, cols):
    """The fields ``cols`` of ``rec`` (a run of its sorted columns, not
    the first) as they stand in a row of fmt: JSON members, each after
    a comma and with one encoder call, in JSON and text; cells, each
    after a tab, in TSV."""
    if fmt == "tsv":
        return "".join(["\t" + _cell(rec[c]) for c in cols])
    return "," + canonical_json({c: rec[c] for c in cols})[1:-1]


def _relweyl_rows(fmt, entries):
    """(cols, rows) for (label, verified) pairs: the columns of
    _relweyl_record, and each label's record as a row of fmt.  Its
    factors and order depend on W_d^I's factors alone and verified takes
    at most two values in a report, so those fields are encoded once
    per pair of them, from the record of the first label with it; each
    generator's cycle string is encoded once."""
    entries = iter(entries)
    first = next(entries)
    rec = _relweyl_record(*first)
    cols = sorted(rec)
    lead, shapes = _label_lead(fmt), {}
    gens, end = ("\t[", "") if fmt == "tsv" else (',"generators":[', "}")
    # The encoder's own encoding of a str, without an encoder call.
    cycles = _Memo(lambda g: encode_basestring_ascii(g.to_cycles()))

    def rows():
        for lab, verified in itertools.chain((first,), entries):
            rw = relative_weyl(lab)
            key = rw.factors, verified
            shape = shapes.get(key)
            if shape is None:
                r = rec if lab is first[0] else _relweyl_record(lab, verified)
                shape = shapes[key] = (_fields(fmt, r, ["factors"]),
                                       _fields(fmt, r, ["order", "verified"])
                                       + end)
            yield (lead(lab) + shape[0] + gens
                   + ",".join(map(cycles.__getitem__, rw.generators))
                   + "]" + shape[1])

    return cols, rows()


# ---------------------------------------------------------------------------
# flag parsing
# ---------------------------------------------------------------------------

# A grid lists at most this many values, counted from the range ends
# before any value is listed (a value in two items counts twice).  Every
# suite runs at least one check per value and the default grids hold at
# most 8, while listing `1..100000000` alone would exhaust memory.
GRID_VALUE_BOUND = 2 ** 10


def parse_grid(text):
    """Parse a grid expression: '4', '2..5', '1,3,5', '1..2,4'.
    InputTooLarge past GRID_VALUE_BOUND values."""
    items = []
    for piece in str(text).split(","):
        piece = piece.strip()
        if not piece:
            raise ValueError(f"empty item in grid {text!r}")
        lo, dots, hi = piece.partition("..")
        lo = int(lo)
        hi = int(hi) if dots else lo
        if hi < lo:
            raise ValueError(f"descending range {piece!r}")
        items.append(range(lo, hi + 1))
    count = sum(map(len, items))
    if count > GRID_VALUE_BOUND:
        raise InputTooLarge(f"grid {text!r} lists {count} values, past the "
                            f"bound {GRID_VALUE_BOUND} on a grid")
    values = set().union(*items)
    if not values or min(values) < 1:
        raise ValueError(f"grid {text!r} must contain positive integers")
    return tuple(sorted(values))


class GridParam(click.ParamType):
    name = "grid"

    def convert(self, value, param, ctx):
        if isinstance(value, tuple):
            return value
        try:
            return parse_grid(value)
        except InputTooLarge:
            raise
        except ValueError as exc:
            self.fail(str(exc), param, ctx)


GRID = GridParam()


def _validate_q(ctx, param, value):
    """Each q (one value or a grid) must be an odd prime power; a q past
    the bound raises InputTooLarge, which the command group turns into
    exit 2."""
    if value is None:
        return None
    for q in (value,) if isinstance(value, int) else value:
        try:
            check_odd_prime_power(q)
        except InputTooLarge:
            raise
        except ValueError as exc:
            raise click.BadParameter(str(exc))
    return value


_format_option = click.option(
    "--format", "fmt", type=click.Choice(["json", "tsv", "text"]),
    default="json", show_default=True,
    help="Output rendering; JSON is canonical.")
_cap_option = click.option(
    "--cap", type=click.IntRange(min=1), default=None,
    help="Override brute-force closure caps.")


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

def _signed_groups(ns, cap):
    """(n, the signed group of rank n) for each n of the grid.  The
    suites walk each group once per element or per subgroup, so a grid
    whose largest group (order 2^n n!) is past the closure cap is
    refused before any group is built."""
    check_signed_group(max(ns), cap)
    return [(n, signed_symmetric_group(n)) for n in ns]


def _suite_centralizers(grids, cap):
    """Brute-force centralizer order against the cycle-type formula."""
    checked, failures = 0, []
    for n, G in _signed_groups(grids["n"], cap):
        for x in G:
            checked += 1
            brute = len(brute_centralizer(x, G))
            formula = centralizer_type(x).order
            if brute != formula:
                failures.append({"n": n, "element": x.to_cycles(),
                                 "brute": brute, "formula": formula})
    return checked, failures


def _suite_normalizers(grids, cap):
    """Brute-force normalizer of each block wreath product against the
    predicted generator closure, over all partitions and sign flags."""
    checked, failures = 0, []
    for n, G in _signed_groups(grids["n"], cap):
        for blocks in set_partitions(n):
            for signed in itertools.product((False, True),
                                            repeat=len(blocks)):
                checked += 1
                H = group_closure(
                    block_wreath_generators(blocks, signed, n), cap=cap)
                brute = brute_normalizer(H, G)
                predicted = group_closure(
                    block_wreath_normalizer_generators(blocks, signed, n),
                    cap=cap)
                if set(brute) != set(predicted):
                    failures.append({
                        "n": n, "blocks": [list(b) for b in blocks],
                        "signed": list(signed),
                        "brute_order": len(set(brute)),
                        "predicted_order": len(set(predicted))})
    return checked, failures


def _concrete_pairs(n):
    points = tuple(range(1, n + 1))
    out = []
    for k in range(n + 1):
        for S in itertools.combinations(points, k):
            rest = [p for p in points if p not in S]
            for shape in set_partitions(len(rest)):
                blocks = tuple(tuple(rest[i - 1] for i in b) for b in shape)
                out.append((S, blocks))
    return out


def _suite_eq1(grids, cap):
    """Both directions of the label classification: a twist-stable
    concrete parabolic label is enumerated exactly when the exact
    cyclotomic eigenspace test accepts it."""
    # Rank n has Bell(n+1) concrete pairs, its label count at d = 1, so
    # the largest rank is held to that bound before any pair is built.
    label_count(max(grids["n"]), 1)
    # At d0 = 1 every pair reaches the exact eigenspace test, the costly
    # part, so the grid's pairs there are held to EQ1_PAIR_BOUND too.
    tested = sum(label_count(n, 1) for n in grids["n"] for d in grids["d"]
                 if compute_d0(d) == 1)
    if tested > EQ1_PAIR_BOUND:
        raise InputTooLarge(
            f"verify eq1 would test {tested} concrete pairs at d0 = 1, "
            f"past the bound {EQ1_PAIR_BOUND} on eq1 pairs")
    checked, failures = 0, []
    for n in grids["n"]:
        system = build_root_system(n)
        pairs = _concrete_pairs(n)
        for d in grids["d"]:
            w = sylow_twist_w(n, d)
            enumerated = {(lab.I_minus1, lab.I)
                          for lab in enumerate_labels(n, d)}
            for S, blocks in pairs:
                roots = concrete_parabolic_roots(n, S, blocks)
                stable = is_stable_under(roots, w)
                listed = (S, blocks) in enumerated
                checked += 1
                if stable:
                    ok = check_eq1(w, d, roots, system) == listed
                else:
                    ok = not listed
                if not ok:
                    failures.append({
                        "n": n, "d": d, "I_minus1": list(S),
                        "I": [list(b) for b in blocks],
                        "stable": stable, "enumerated": listed})
    return checked, failures


def _embedded_simple_roots(n, l):
    roots = []
    for i in range(1, l):
        vec = [0] * n
        vec[i - 1], vec[i] = 1, -1
        roots.append(tuple(vec))
    vec = [0] * n
    vec[l - 1] = 2
    roots.append(tuple(vec))
    return roots


def _extended_weyl_group(n, l, cap):
    """Closure of the simple-root monomial lifts of the rank-l
    subsystem; order 4^l l!."""
    if l == 0:
        return [IntMatrix.identity(2 * n)]
    gens = [chevalley_generator("n", r, 1)
            for r in _embedded_simple_roots(n, l)]
    return matrix_closure(gens, cap=cap)


def _embed_signed(perm, n):
    return SignedPerm(tuple(perm.img) + tuple(range(perm.n + 1, n + 1)))


def _suite_extweyl(grids, cap):
    """Exact matrix identities of the monomial lifts: squares of the
    lifts, the lifted swaps, centrality of the long product, the image
    of the twist centralizer, and the diagonal kernel order.  Its
    groups, of order 2^n and 4^l l!, must fit the cap before any work."""
    for n in grids["n"]:
        check_order(f"the diagonal group of rank {n}",
                    itertools.repeat(2, n), cap)
        for l in sorted({n // d0 * d0 for d0 in map(compute_d0, grids["d"])}):
            check_order(f"the extended Weyl group V_{l}",
                        range(4, 4 * l + 1, 4), cap)
    checked, failures = 0, []

    def fail(kind, **data):
        failures.append({"relation": kind, **data})

    for n in grids["n"]:
        system = build_root_system(n)
        closed = {}  # V_l by l, closed once per rank, as its elements' perms
        for root in system:
            checked += 1
            n_mat = chevalley_generator("n", root, 1)
            if n_mat * n_mat != chevalley_generator("h", root, -1):
                fail("n_squared", n=n, root=list(root))
        checked += 1
        h_gens = [chevalley_generator("h", r, -1) for r in system]
        if len(matrix_closure(h_gens, cap=cap)) != 2 ** n:
            fail("h_group_order", n=n)
        for d in grids["d"]:
            te = build_twist_elements(n, d)
            for k, p in enumerate(te.p):
                checked += 1
                if p * p != te.h[k] * te.h[k + 1]:
                    fail("p_squared", n=n, d=d, k=k + 1)
            l = te.l
            if l not in closed:
                closed[l] = [g.signed_perm()
                             for g in _extended_weyl_group(n, l, cap)]
            Vl = closed[l]
            checked += 1
            if l and len(Vl) != wreath_order([(4, l)]):
                fail("extended_weyl_order", n=n, d=d, l=l)
            # Monomial matrices commute exactly when the signed
            # permutations they are held as do.
            Vd = brute_centralizer(te.v.signed_perm(), Vl)
            checked += 1
            if len(brute_centralizer(te.v_prime.signed_perm(), Vd)) != len(Vd):
                fail("v_prime_central", n=n, d=d)
            checked += 1
            if l:
                w = sylow_twist_w(n, d)
                ambient = [_embed_signed(g, n)
                           for g in signed_symmetric_group(l)]
                cent = {g.img for g in brute_centralizer(w, ambient)}
                # Compared as image tuples: no SignedPerm per element.
                if {rho_image(g.img) for g in Vd} != cent:
                    fail("rho_image", n=n, d=d)
    return checked, failures


LANG_TUPLE_BOUND = 2 ** 20


def _suite_torus(grids, cap):
    """Fixed points of the twisted Frobenius: the Theta bijection onto
    the Lang kernel (enumerated in full where d0 <= 2; beyond that the
    coordinate space is out of desk range), the Lang image of the
    half-point, the closed-form conjugation exponents, and the
    stabilizer jump at order two.  The enumeration walks
    (q^(2 d0) - 1)^d0 tuples; a grid with a case past LANG_TUPLE_BOUND
    raises InputTooLarge before any work starts."""
    for q, d in itertools.product(grids["q"], grids["d"]):
        d0 = compute_d0(d)
        tuples = (q ** (2 * d0) - 1) ** d0 if d0 <= 2 else 0
        if tuples > LANG_TUPLE_BOUND:
            raise InputTooLarge(
                f"verify torus at q={q}, d={d} would enumerate {tuples} "
                f"tuples, past the bound {LANG_TUPLE_BOUND}")
    checked, failures = 0, []

    def fail(kind, q, d, **data):
        failures.append({"check": kind, "q": q, "d": d, **data})

    for q in grids["q"]:
        for d in grids["d"]:
            orb = TwistedOrbit(q, d)
            if orb.d0 <= 2:
                # Every tuple of logs, through the one Lang map; theta's
                # image is compared as log tuples.
                ident = (0,) * orb.d0
                kernel = {h for h in itertools.product(range(orb.M),
                                                       repeat=orb.d0)
                          if lang_logs(h, orb) == ident}
                roots = [t for t in orb.units() if t ** orb.N == orb.one]
                image = {theta(orb, t).logs() for t in roots}
                checked += 1
                if not (len(roots) == len(image) == orb.N
                        and image == kernel):
                    fail("theta_bijection", q, d,
                         kernel=len(kernel), image=len(image), N=orb.N)
            # z_plus raises when its own Lang check fails, and the next two
            # checks call it too: each records that as its failure.
            checked += 1
            try:
                if lang_map(z_plus(orb), orb) != theta(orb, -orb.one):
                    fail("lang_of_half_point", q, d)
            except AssertionError as exc:
                fail("lang_of_half_point", q, d, detail=str(exc))
            checked += 1
            try:
                conj_center_action(orb)
            except AssertionError as exc:
                fail("conjugation_exponents", q, d, detail=str(exc))
            checked += 1
            divisors = [o for o in range(1, orb.N + 1) if orb.N % o == 0]
            try:
                jumps = central_stabilizer_jump(orb, divisors)
                bad = [o for o, jump in zip(divisors, jumps)
                       if jump is not (o == 2)]
            except AssertionError as exc:
                fail("stabilizer_jump", q, d, detail=str(exc))
            else:
                if bad:
                    fail("stabilizer_jump", q, d, orders=bad)
    return checked, failures


# suite name -> (runner, which grids it takes, their defaults)
SUITES = {
    "centralizers": (_suite_centralizers, ("n",),
                     {"n": (2, 3, 4)}),
    "normalizers": (_suite_normalizers, ("n",),
                    {"n": (1, 2, 3, 4)}),
    "eq1": (_suite_eq1, ("n", "d"),
            {"n": (2, 3, 4), "d": tuple(range(1, 9))}),
    "extweyl": (_suite_extweyl, ("n", "d"),
                {"n": (2, 3, 4), "d": tuple(range(1, 7))}),
    "torus": (_suite_torus, ("q", "d"),
              {"q": (3, 5), "d": (1, 2, 3, 4)}),
}

# The suites that build the root system of type C_n, which needs n >= 2.
TYPE_C_SUITES = ("eq1", "extweyl")


# ---------------------------------------------------------------------------
# preset groups
# ---------------------------------------------------------------------------

def _sp(text, n):
    return SignedPerm.from_cycles(text, n)


def _gen(*gens):
    return FiniteGroup.generate(list(gens))


def _unsigned_wreath(base_cycle, m):
    """C_k wr S_m on k*m unsigned points (k = len of one base cycle)."""
    k = base_cycle
    n = k * m
    gens = []
    for i in range(m):
        pts = ",".join(str(i * k + j) for j in range(1, k + 1))
        gens.append(_sp(f"({pts})", n))
    for i in range(1, m):
        pairs = "".join(f"({j},{j + k})" for j in range((i - 1) * k + 1,
                                                        i * k + 1))
        gens.append(_sp(pairs, n))
    return _gen(*gens)


def _c4_wreath(m):
    """C_4 wr S_m inside the signed group of rank 2m."""
    n = 2 * m
    gens = []
    for i in range(1, m + 1):
        a, b = 2 * i - 1, 2 * i
        gens.append(_sp(f"({a},{b},-{a},-{b})", n))
    for i in range(1, m):
        a, b, c, e = 2 * i - 1, 2 * i, 2 * i + 1, 2 * i + 2
        gens.append(_sp(f"({a},{c})({b},{e})(-{a},-{c})(-{b},-{e})", n))
    return _gen(*gens)


PRESETS = {
    "s3": lambda: _gen(_sp("(1,2)", 3), _sp("(1,2,3)", 3)),
    "s4": lambda: _gen(_sp("(1,2)", 4), _sp("(1,2,3,4)", 4)),
    "d8": lambda: _gen(_sp("(1,2)", 2), _sp("(1,-1)", 2)),
    "q8": lambda: _gen(_sp("(1,2,-1,-2)(3,4,-3,-4)", 4),
                       _sp("(1,3,-1,-3)(2,-4,-2,4)", 4)),
    "c4": lambda: _gen(_sp("(1,2,-1,-2)", 2)),
    "c6": lambda: _gen(_sp("(1,2,3)", 3), _sp("(1,-1)(2,-2)(3,-3)", 3)),
    "c2wrs2": lambda: _gen(_sp("(1,-1)", 2), _sp("(1,2)", 2)),
    "c2wrs3": lambda: _gen(_sp("(1,-1)", 3), _sp("(1,2)", 3), _sp("(2,3)", 3)),
    "c3wrs2": lambda: _unsigned_wreath(3, 2),
    "c3wrs3": lambda: _unsigned_wreath(3, 3),
    "c4wrs2": lambda: _c4_wreath(2),
    "c4wrs3": lambda: _c4_wreath(3),
}


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

class _Refused(click.ClickException):
    """One line on stderr and exit 2: the input is refused, not a failed
    check."""
    exit_code = 2


class _Main(click.Group):
    """Turns a cap hit or an input past a bound in any command into one
    line on stderr and exit 2: the input is too large for the desk, not
    a failed check.  A reader that closes stdout early ends the command
    with status 141 and nothing on stderr, as SIGPIPE would."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ClosureExceedsCap as exc:
            raise _Refused(f"{exc}; a larger --cap allows it") from None
        except InputTooLarge as exc:
            raise _Refused(str(exc)) from None
        except BrokenPipeError:
            # Point stdout at the null device, so that the interpreter's
            # last flush of what is still buffered cannot fail again.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            sys.exit(141)  # 128 + SIGPIPE (13)


@click.group(cls=_Main)
def main():
    """Exact enumeration and brute-force verification of d-split Levi
    combinatorics in type C."""


@main.command()
@click.option("--n", type=click.IntRange(min=1), required=True,
              help="Rank of the ambient symplectic group.")
@click.option("--d", type=click.IntRange(min=1), required=True,
              help="Order of the cyclotomic twist.")
@click.option("--q", type=int, default=None, callback=_validate_q,
              help="Odd prime power; adds exact group orders.")
@_format_option
def levis(n, d, q, fmt):
    """Enumerate the d-split Levi labels of rank n."""
    labels = enumerate_labels(n, d)
    head = {"command": "levis", "n": n, "d": d, "q": q,
            "count": label_count(n, d)}
    cols, rows = _levis_rows(fmt, labels, q)
    _emit(fmt, head, "labels", rows, cols)


@main.command()
@click.option("--n", type=click.IntRange(min=1), required=True)
@click.option("--d", type=click.IntRange(min=1), required=True)
@click.option("--check/--no-check", "do_check", default=True,
              help="Brute-force verification of each descriptor (the "
                   "signed group of rank n must be within the default "
                   "closure cap, so n <= 5; larger ranks need --no-check).")
@_format_option
def relweyl(n, d, do_check, fmt):
    """Relative Weyl group descriptors of every label at (n, d)."""
    if do_check:
        try:
            check_signed_group(n, DEFAULT_CLOSURE_CAP)
        except ClosureExceedsCap as exc:
            raise _Refused(f"{exc}; --no-check skips the check") from None
    entries, ok = [], True
    for lab in enumerate_labels(n, d):
        verified = bool(verify_relative_weyl(lab)) if do_check else None
        ok = ok and verified is not False
        entries.append((lab, verified))
    head = {"command": "relweyl", "n": n, "d": d, "count": len(entries),
            "pass": ok}
    cols, rows = _relweyl_rows(fmt, entries)
    _emit(fmt, head, "labels", rows, cols)
    if not ok:
        sys.exit(1)


@main.command()
@click.argument("suite", type=click.Choice(sorted(SUITES)))
@click.option("--n", "ns", type=GRID, default=None,
              help="Rank grid, e.g. 2..4 or 2,4.")
@click.option("--d", "ds", type=GRID, default=None,
              help="Twist-order grid.")
@click.option("--q", "qs", type=GRID, default=None,
              callback=_validate_q, help="Prime-power grid.")
@_cap_option
@_format_option
def verify(suite, ns, ds, qs, cap, fmt):
    """Run one verification suite over a parameter grid."""
    runner, takes, defaults = SUITES[suite]
    given = {"n": ns, "d": ds, "q": qs}
    for name, value in given.items():
        if value is not None and name not in takes:
            raise click.UsageError(
                f"suite {suite!r} does not take --{name}")
    grids = {name: given[name] or defaults[name] for name in takes}
    if suite in TYPE_C_SUITES and grids["n"][0] < 2:
        raise _Refused(f"suite {suite!r} needs --n >= 2 (type C_n), "
                       f"got n = {grids['n'][0]}")
    checked, failures = runner(grids, cap or DEFAULT_CLOSURE_CAP)
    head = {"command": "verify", "suite": suite,
            "grid": {name: list(grids[name]) for name in takes},
            "checked": checked, "pass": not failures}
    _emit(fmt, head, "failures", failures)
    if failures:
        sys.exit(1)


@main.command()
@click.option("--n", type=click.IntRange(min=1), required=True)
@click.option("--d", type=click.IntRange(min=1), required=True)
@click.option("--random", "sample_size", type=click.IntRange(min=1),
              default=None,
              help="Check only a seeded random sample of this size.")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Seed for --random sampling.")
@click.option("--wmax", type=click.IntRange(min=1), default=10000,
              show_default=True,
              help="Skip labels whose inertia order exceeds this bound.")
@click.option("--full", is_flag=True,
              help="Embed the per-label reports in the output.")
@_cap_option
@_format_option
def kinva(n, d, sample_size, seed, wmax, full, cap, fmt):
    """Invariance criterion on every gate-passing character label."""
    # Every group the checks build lies inside the signed group of rank n.
    cap = cap or DEFAULT_GROUP_CAP
    check_signed_group(n, cap)
    # The candidates are checked as they are enumerated; only --random
    # holds them all, and only --full the reports.  Each one's memo key
    # is read once, for --wmax, and handed on to kinva_check.
    keyed = ((clabel, _kinva_key(clabel)) for lev in enumerate_labels(n, d)
             for clabel in enumerate_char_labels(lev) if cuspidal_gate(clabel))
    candidates = ((clabel, key) for clabel, key in keyed
                  if inertia_order(key) <= wmax)
    examined = None
    if sample_size is not None:
        candidates = list(candidates)
        examined = len(candidates)
        candidates = random.Random(seed).sample(
            candidates, min(sample_size, examined))
    checked, failures, reports = 0, [], []
    for clabel, key in candidates:
        report = kinva_check(clabel, cap=cap, key=key)
        checked += 1
        if not report["pass"]:
            failures.append(report["label"])
        if full:
            reports.append(report)
    head = {"command": "kinva", "n": n, "d": d, "wmax": wmax,
            "random": sample_size,
            "seed": seed if sample_size is not None else None,
            "candidates": checked if examined is None else examined,
            "checked": checked,
            "failures": failures, "pass": not failures}
    if full:
        _emit(fmt, head, "reports", reports)
    else:
        _emit(fmt, head)
    if failures:
        sys.exit(1)


@main.command()
@click.option("--group", "name", type=click.Choice(sorted(PRESETS)),
              required=True, help="Preset group.")
@_cap_option
@_format_option
def chartab(name, cap, fmt):
    """Exact character table of a preset group."""
    G = PRESETS[name]()
    table = character_table(G, cap=cap or DEFAULT_GROUP_CAP)
    data = G.conjugacy_classes()
    head = {"command": "chartab", "group": name, "order": G.order,
            "exponent": table.exponent,
            "degrees": list(table.degrees),
            "rows": [[repr(v) for v in row] for row in table.values]}
    _emit(fmt, head, "classes",
          [{"rep": rep.to_cycles(), "size": size}
           for rep, size in zip(data.reps, data.sizes)])


if __name__ == "__main__":
    main()
