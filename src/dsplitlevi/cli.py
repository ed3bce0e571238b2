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
the same flags.  Exit status: 0 when every requested check passes, 1
when a verification fails (failure records stay in the report), 2 on
invalid flags, when a group grows past its brute-force cap (``--cap``;
by default 20000 elements for closures and 10000 for character tables),
or when an input is past a fixed bound (q below 2^64, fields of at most
``torus.FIELD_ORDER_BOUND`` elements): then one line naming the cap or
bound goes to stderr and nothing to stdout.
"""

import itertools
import json
import random
import sys
from math import factorial

import click

from .arith import InputTooLarge
from .chartab import DEFAULT_GROUP_CAP, FiniteGroup, character_table
from .cliff import cuspidal_gate, enumerate_char_labels, kinva_check, stab_lambda
from .cyclo import check_eq1
from .extweyl import (IntMatrix, build_twist_elements, chevalley_generator,
                      matrix_closure, rho)
from .levi import (check_odd_prime_power, concrete_parabolic_roots,
                   enumerate_labels, label_record, relative_weyl,
                   sylow_twist_w, verify_relative_weyl)
from .rootsys import build_root_system, is_stable_under
from .signedperm import (DEFAULT_CLOSURE_CAP, ClosureExceedsCap, SignedPerm,
                         block_wreath_generators,
                         block_wreath_normalizer_generators, brute_centralizer,
                         brute_normalizer, centralizer_type, group_closure,
                         set_partitions, signed_symmetric_group)
from .torus import (TorusElem, TwistedOrbit, central_stabilizer_jump,
                    conj_center_action, lang_map, theta, z_plus)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def canonical_json(obj):
    """The canonical machine encoding: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _cell(value):
    if isinstance(value, str):
        return value
    return canonical_json(value)


def _record_list_key(report):
    for key in sorted(report):
        value = report[key]
        if (isinstance(value, list) and value
                and all(isinstance(r, dict) for r in value)):
            return key
    return None


def render_tsv(report):
    """Tab-separated rendering: '#'-prefixed scalars, then one record
    table (the first list-of-objects field in key order)."""
    records_key = _record_list_key(report)
    lines = []
    for key in sorted(report):
        if key == records_key:
            continue
        lines.append(f"# {key}\t{_cell(report[key])}")
    if records_key is not None:
        records = report[records_key]
        cols = sorted({c for rec in records for c in rec})
        lines.append("\t".join(cols))
        for rec in records:
            lines.append("\t".join(
                _cell(rec[c]) if c in rec else "" for c in cols))
    return "\n".join(lines)


def render_text(report):
    """Line-per-field rendering derived from the canonical JSON."""
    lines = []
    for key in sorted(report):
        value = report[key]
        if (isinstance(value, list) and value
                and all(isinstance(r, dict) for r in value)):
            lines.append(f"{key}:")
            lines.extend("  " + canonical_json(r) for r in value)
        else:
            lines.append(f"{key}: {_cell(value)}")
    return "\n".join(lines)


def _emit(report, fmt):
    if fmt == "json":
        click.echo(canonical_json(report))
    elif fmt == "tsv":
        click.echo(render_tsv(report))
    else:
        click.echo(render_text(report))


# ---------------------------------------------------------------------------
# flag parsing
# ---------------------------------------------------------------------------

def parse_grid(text):
    """Parse a grid expression: '4', '2..5', '1,3,5', '1..2,4'."""
    values = set()
    for piece in str(text).split(","):
        piece = piece.strip()
        if not piece:
            raise ValueError(f"empty item in grid {text!r}")
        if ".." in piece:
            lo, _, hi = piece.partition("..")
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ValueError(f"descending range {piece!r}")
            values.update(range(lo, hi + 1))
        else:
            values.add(int(piece))
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

def _suite_centralizers(grids, cap):
    """Brute-force centralizer order against the cycle-type formula."""
    checked, failures = 0, []
    for n in grids["n"]:
        G = signed_symmetric_group(n)
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
    cap = cap or DEFAULT_CLOSURE_CAP
    checked, failures = 0, []
    for n in grids["n"]:
        G = signed_symmetric_group(n)
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
    checked, failures = 0, []
    for n in grids["n"]:
        system = build_root_system("C", n)
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


_VL_CACHE = {}


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
    subsystem, cached per (n, l); order 4^l l!.  A cached group past
    ``cap`` raises as its closure would."""
    key = (n, l)
    group = _VL_CACHE.get(key)
    if group is None:
        if l == 0:
            group = (IntMatrix.identity(2 * n),)
        else:
            gens = [chevalley_generator("n", r, 1)
                    for r in _embedded_simple_roots(n, l)]
            group = tuple(matrix_closure(gens, cap=cap))
        _VL_CACHE[key] = group
    if len(group) > cap:
        raise ClosureExceedsCap(f"closure exceeds cap {cap}")
    return group


def _embed_signed(perm, n):
    return SignedPerm(tuple(perm.img) + tuple(range(perm.n + 1, n + 1)))


def _suite_extweyl(grids, cap):
    """Exact matrix identities of the monomial lifts: squares of the
    lifts, the lifted swaps, centrality of the long product, the image
    of the twist centralizer, and the diagonal kernel order."""
    cap = cap or DEFAULT_CLOSURE_CAP
    checked, failures = 0, []

    def fail(kind, **data):
        failures.append({"relation": kind, **data})

    for n in grids["n"]:
        system = build_root_system("C", n)
        for root in system.roots:
            checked += 1
            n_mat = chevalley_generator("n", root, 1)
            if n_mat * n_mat != chevalley_generator("h", root, -1):
                fail("n_squared", n=n, root=list(root))
        checked += 1
        h_gens = [chevalley_generator("h", r, -1) for r in system.roots]
        if len(matrix_closure(h_gens, cap=cap)) != 2 ** n:
            fail("h_group_order", n=n)
        for d in grids["d"]:
            te = build_twist_elements(n, d)
            for k, p in enumerate(te.p):
                checked += 1
                if p * p != te.h[k] * te.h[k + 1]:
                    fail("p_squared", n=n, d=d, k=k + 1)
            l = te.l
            Vl = _extended_weyl_group(n, l, cap)
            checked += 1
            if l and len(Vl) != 4 ** l * factorial(l):
                fail("extended_weyl_order", n=n, d=d, l=l)
            Vd = [g for g in Vl if g * te.v == te.v * g]
            checked += 1
            if any(te.v_prime * g != g * te.v_prime for g in Vd):
                fail("v_prime_central", n=n, d=d)
            checked += 1
            if l:
                w = sylow_twist_w(n, d)
                ambient = [_embed_signed(g, n)
                           for g in signed_symmetric_group(l)]
                cent = {g for g in ambient if g * w == w * g}
                if {rho(g) for g in Vd} != cent:
                    fail("rho_image", n=n, d=d)
    return checked, failures


def _suite_torus(grids, cap):
    """Fixed points of the twisted Frobenius: the Theta bijection onto
    the Lang kernel (enumerated in full where d0 <= 2; beyond that the
    coordinate space is out of desk range), the Lang image of the
    half-point, the closed-form conjugation exponents, and the
    stabilizer jump at order two."""
    checked, failures = 0, []

    def fail(kind, q, d, **data):
        failures.append({"check": kind, "q": q, "d": d, **data})

    for q in grids["q"]:
        for d in grids["d"]:
            orb = TwistedOrbit(q, d)
            one = orb.field.one()
            if orb.d0 <= 2:
                ident = TorusElem({k: one for k in orb.points})
                kernel = set()
                for combo in itertools.product(
                        orb.field.nonzero_elements(), repeat=orb.d0):
                    h = TorusElem(dict(zip(orb.points, combo)))
                    if lang_map(h, orb) == ident:
                        kernel.add(h)
                roots = [t for t in orb.field.nonzero_elements()
                         if t ** orb.N == one]
                image = {theta(orb, t) for t in roots}
                checked += 1
                if not (len(roots) == len(image) == orb.N
                        and image == kernel):
                    fail("theta_bijection", q, d,
                         kernel=len(kernel), image=len(image), N=orb.N)
            checked += 1
            if lang_map(z_plus(orb), orb) != theta(orb, -one):
                fail("lang_of_half_point", q, d)
            checked += 1
            try:
                conj_center_action(orb)
            except AssertionError as exc:
                fail("conjugation_exponents", q, d, detail=str(exc))
            checked += 1
            divisors = [o for o in range(1, orb.N + 1) if orb.N % o == 0]
            bad = [o for o in divisors
                   if central_stabilizer_jump(orb, o) is not (o == 2)]
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
    "c2wrs2": lambda: FiniteGroup(signed_symmetric_group(2)),
    "c2wrs3": lambda: FiniteGroup(signed_symmetric_group(3)),
    "c3wrs2": lambda: _unsigned_wreath(3, 2),
    "c3wrs3": lambda: _unsigned_wreath(3, 3),
    "c4wrs2": lambda: _c4_wreath(2),
    "c4wrs3": lambda: _c4_wreath(3),
}


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

class _TooLarge(click.ClickException):
    exit_code = 2


class _Main(click.Group):
    """Turns a cap hit or an input past a bound in any command into one
    line on stderr and exit 2: the input is too large for the desk, not
    a failed check."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ClosureExceedsCap as exc:
            raise _TooLarge(f"{exc}; a larger --cap allows it") from None
        except InputTooLarge as exc:
            raise _TooLarge(str(exc)) from None


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
    records = [label_record(lab, q) for lab in enumerate_labels(n, d)]
    report = {"command": "levis", "n": n, "d": d, "q": q,
              "count": len(records), "labels": records}
    _emit(report, fmt)


@main.command()
@click.option("--n", type=click.IntRange(min=1), required=True)
@click.option("--d", type=click.IntRange(min=1), required=True)
@click.option("--check/--no-check", "do_check", default=True,
              help="Brute-force verification of each descriptor "
                   "(available for rank at most 4).")
@_format_option
def relweyl(n, d, do_check, fmt):
    """Relative Weyl group descriptors of every label at (n, d)."""
    records, ok = [], True
    for lab in enumerate_labels(n, d):
        rw = relative_weyl(lab)
        rec = {"I_minus1": list(lab.I_minus1),
               "I": [list(b) for b in lab.I],
               "factors": [list(f) for f in rw.factors],
               "order": rw.order,
               "generators": [g.to_cycles() for g in rw.generators]}
        if do_check and n <= 4:
            rec["verified"] = bool(verify_relative_weyl(lab))
            ok = ok and rec["verified"]
        else:
            rec["verified"] = None
        records.append(rec)
    report = {"command": "relweyl", "n": n, "d": d, "count": len(records),
              "pass": ok, "labels": records}
    _emit(report, fmt)
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
    checked, failures = runner(grids, cap)
    report = {"command": "verify", "suite": suite,
              "grid": {name: list(grids[name]) for name in takes},
              "checked": checked, "failures": failures,
              "pass": not failures}
    _emit(report, fmt)
    if failures:
        sys.exit(1)


@main.command()
@click.option("--n", type=click.IntRange(min=1, max=4), required=True)
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
    candidates = []
    for lev in enumerate_labels(n, d):
        for clabel in enumerate_char_labels(lev):
            if (cuspidal_gate(clabel)
                    and stab_lambda(clabel).order <= wmax):
                candidates.append(clabel)
    examined = len(candidates)
    if sample_size is not None:
        rng = random.Random(seed)
        candidates = rng.sample(candidates,
                                min(sample_size, len(candidates)))
    reports = [kinva_check(c, cap=cap or DEFAULT_GROUP_CAP)
               for c in candidates]
    failures = [r["label"] for r in reports if not r["pass"]]
    report = {"command": "kinva", "n": n, "d": d, "wmax": wmax,
              "random": sample_size,
              "seed": seed if sample_size is not None else None,
              "candidates": examined, "checked": len(reports),
              "failures": failures, "pass": not failures}
    if full:
        report["reports"] = reports
    _emit(report, fmt)
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
    report = {"command": "chartab", "group": name, "order": G.order,
              "exponent": table.exponent,
              "classes": [{"rep": rep.to_cycles(), "size": size}
                          for rep, size in zip(data.reps, data.sizes)],
              "degrees": list(table.degrees),
              "rows": [[repr(v) for v in row] for row in table.values]}
    _emit(report, fmt)


if __name__ == "__main__":
    main()
