"""End-to-end acceptance suite.

One test per headline claim, at desk scale, each checking a formula or
construction against an independent brute-force oracle.  Wall-clock
budgets are asserted where the contract pins one.  Run with ``-v`` to
get one pass/fail line per criterion.
"""

import hashlib
import itertools
import json
import time
from math import factorial

import pytest
from click.testing import CliRunner

from dsplitlevi.chartab import (FiniteGroup, character_table,
                                extension_obstruction, restrict)
from dsplitlevi.cli import main as cli_main
from dsplitlevi.cliff import (cuspidal_gate, enumerate_char_labels,
                              kinva_check, stab_lambda)
from dsplitlevi.cyclo import check_eq1
from dsplitlevi.extweyl import (IntMatrix, build_VdI, build_twist_elements,
                                chevalley_generator, matrix_closure, rho)
from dsplitlevi.levi import (concrete_parabolic_roots, enumerate_labels,
                             sylow_twist_w, verify_relative_weyl)
from dsplitlevi.rootsys import build_root_system, is_stable_under
from dsplitlevi.signedperm import (SignedPerm, block_wreath_generators,
                                   block_wreath_normalizer_generators,
                                   brute_centralizer, brute_normalizer,
                                   centralizer_type, group_closure,
                                   set_partitions, signed_symmetric_group,
                                   wreath_order)
from dsplitlevi.torus import (TwistedOrbit, central_stabilizer_jump,
                              conj_center_action, lang_logs, lang_map, theta,
                              z_plus)


def test_01_centralizer_order_formula():
    """Brute-force centralizer order equals the cycle-type formula for
    every element of the signed groups of rank 2, 3, 4; under 10 s."""
    start = time.monotonic()
    total = 0
    for n in (2, 3, 4):
        G = signed_symmetric_group(n)
        for x in G:
            total += 1
            assert len(brute_centralizer(x, G)) == centralizer_type(x).order
    assert total == 8 + 48 + 384
    assert time.monotonic() - start < 10


def test_02_block_wreath_normalizers():
    """For every partition of rank at most 4 and every per-block sign
    flag, the brute-force normalizer of the block wreath product equals
    the predicted generator closure element-for-element; under 30 s."""
    start = time.monotonic()
    for n in (1, 2, 3, 4):
        G = signed_symmetric_group(n)
        for blocks in set_partitions(n):
            for signed in itertools.product((False, True),
                                            repeat=len(blocks)):
                H = group_closure(
                    block_wreath_generators(blocks, signed, n))
                brute = set(brute_normalizer(H, G))
                predicted = set(group_closure(
                    block_wreath_normalizer_generators(blocks, signed, n)))
                assert brute == predicted, (n, blocks, signed)
    assert time.monotonic() - start < 30


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


def test_03_label_classification_equals_eigenspace_test():
    """Both directions at ranks 2..4, twist orders 1..8: a twist-stable
    concrete parabolic label is enumerated exactly when the exact
    cyclotomic eigenspace test accepts it, and unstable labels are
    never enumerated; under 60 s."""
    start = time.monotonic()
    for n in (2, 3, 4):
        system = build_root_system(n)
        pairs = _concrete_pairs(n)
        for d in range(1, 9):
            w = sylow_twist_w(n, d)
            enumerated = {(lab.I_minus1, lab.I)
                          for lab in enumerate_labels(n, d)}
            for S, blocks in pairs:
                roots = concrete_parabolic_roots(n, S, blocks)
                listed = (S, blocks) in enumerated
                if is_stable_under(roots, w):
                    assert check_eq1(w, d, roots, system) == listed, (
                        n, d, S, blocks)
                else:
                    assert not listed, (n, d, S, blocks)
    assert time.monotonic() - start < 60


def test_04_relative_weyl_groups_brute_verified():
    """Every enumerated label at rank <= 5, twist order <= 8: the brute
    fixed-coset count matches prod (2 d0)^(t_s) t_s! and the generator
    closure realizes it."""
    count = 0
    for n in (1, 2, 3, 4, 5):
        for d in range(1, 9):
            for lab in enumerate_labels(n, d):
                count += 1
                assert verify_relative_weyl(lab), (n, d, lab)
    assert count == 603


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


def test_05_extended_weyl_matrix_relations():
    """Exact matrix identities at ranks 2..4, twist orders 1..6: the
    monomial lift squares to the diagonal involution, lifted swaps
    square to the paired diagonals, the long cycle product is central
    in the twist centralizer, the monomial image of that centralizer is
    the full signed centralizer, and the diagonal kernel has order
    2^n."""
    vl_cache = {}
    for n in (2, 3, 4):
        system = build_root_system(n)
        for root in system:
            n_mat = chevalley_generator("n", root, 1)
            assert n_mat * n_mat == chevalley_generator("h", root, -1)
        h_gens = [chevalley_generator("h", r, -1) for r in system]
        assert len(matrix_closure(h_gens)) == 2 ** n
        for d in range(1, 7):
            te = build_twist_elements(n, d)
            for k, p in enumerate(te.p):
                assert p * p == te.h[k] * te.h[k + 1], (n, d, k)
            l = te.l
            if (n, l) not in vl_cache:
                if l == 0:
                    vl_cache[n, l] = (IntMatrix.identity(2 * n),)
                else:
                    gens = [chevalley_generator("n", r, 1)
                            for r in _embedded_simple_roots(n, l)]
                    vl_cache[n, l] = tuple(matrix_closure(gens))
            Vl = vl_cache[n, l]
            if l:
                assert len(Vl) == 4 ** l * factorial(l)
            Vd = [g for g in Vl if g * te.v == te.v * g]
            assert all(te.v_prime * g == g * te.v_prime for g in Vd), (n, d)
            if l:
                w = sylow_twist_w(n, d)
                ambient = [SignedPerm(tuple(g.img)
                                      + tuple(range(l + 1, n + 1)))
                           for g in signed_symmetric_group(l)]
                cent = {g for g in ambient if g * w == w * g}
                assert {rho(g) for g in Vd} == cent, (n, d)


def extension_by_table(V, H, theta):
    """The oracle of ``chartab.extension_obstruction``, for a linear
    theta on an abelian normal subgroup H of V: the inertia group
    V_theta, the v with theta(h^v) = theta(h) on H's generators, in V's
    element order (V itself when every v fixes theta), and the first
    character of V_theta's table that restricts to theta on H, or None
    when theta does not extend: an exhaustive search through
    Irr(V_theta)."""
    class_at = H.conjugacy_classes().class_at

    def value(h):
        return theta.values[class_at[h.img]]

    fixing = [v for v in V.elements
              if all(value(h.conj(v)) == value(h) for h in H.generators)]
    V_theta = V if len(fixing) == V.order else FiniteGroup(fixing)
    return V_theta, next((chi for chi in character_table(V_theta).characters
                          if restrict(chi, H) == theta), None)


def test_06_extended_weyl_cover_maximal_extendibility():
    """Every irreducible character theta of the diagonal kernel H
    extends to its inertia group V_theta inside the lifted relative
    Weyl group V, for every label whose lift has order at most 2000 at
    rank <= 5, twist order <= 8: theta is trivial on H ∩ V_theta′.  At
    rank <= 4 that criterion agrees, on V_theta and on the verdict, with
    a search through the character table of V_theta.  Labels sharing
    (rank, twist, orbit shape) give conjugate lifts, so one
    representative per shape is computed."""
    seen = set()
    characters = 0
    for n in (1, 2, 3, 4, 5):
        for d in range(1, 9):
            for lab in enumerate_labels(n, d):
                order = 1
                for ts in lab.t.values():
                    order *= 2 ** ts * wreath_order([(2 * lab.d0, ts)])
                if order > 2000 or not lab.I:
                    continue
                key = (n, d, tuple(sorted(lab.t.items())))
                if key in seen:
                    continue
                seen.add(key)
                gens, hs = build_VdI(lab)
                V = FiniteGroup.generate([g.signed_perm() for g in gens])
                H = FiniteGroup.generate([h.signed_perm() for h in hs])
                assert V.order == order, (key, V.order, order)
                for th in character_table(H).characters:
                    V_theta, obstruction = extension_obstruction(V, H, th)
                    assert obstruction is None, (key, th.values)
                    if n <= 4:
                        stab, witness = extension_by_table(V, H, th)
                        assert stab.elements == V_theta.elements, key
                        assert witness is not None, (key, th.values)
                    characters += 1
        if n == 4:
            assert (len(seen), characters) == (50, 166)
    assert (len(seen), characters) == (89, 346)


def test_07_twisted_torus_fixed_points():
    """For q in {3, 5} and twist orders 1..4: Theta maps the N-th roots
    bijectively onto the Lang kernel (full coordinate enumeration where
    d0 <= 2), the half-point maps to Theta(-1) under Lang, the closed
    conjugation exponents hold, and the central stabilizer jumps
    exactly at order two; under 60 s."""
    start = time.monotonic()
    for q in (3, 5):
        for d in (1, 2, 3, 4):
            orb = TwistedOrbit(q, d)
            assert lang_map(z_plus(orb), orb) == theta(orb, -orb.one), (q, d)
            conj_center_action(orb)
            divisors = [o for o in range(1, orb.N + 1) if orb.N % o == 0]
            jumps = central_stabilizer_jump(orb, divisors)
            assert len(jumps) == len(divisors), (q, d)
            for o, jump in zip(divisors, jumps):
                assert jump is (o == 2), (q, d, o)
            if orb.d0 <= 2:
                # Every tuple of discrete logs, through the Lang map.
                ident = (0,) * orb.d0
                kernel = {h for h in itertools.product(range(orb.M),
                                                       repeat=orb.d0)
                          if lang_logs(h, orb) == ident}
                roots = [t for t in orb.units() if t ** orb.N == orb.one]
                image = {theta(orb, t).logs() for t in roots}
                assert len(roots) == len(image) == orb.N, (q, d)
                assert image == kernel, (q, d)
    assert time.monotonic() - start < 60


def _sp(text, n):
    return SignedPerm.from_cycles(text, n)


def _c2_wreath(m):
    G = FiniteGroup(signed_symmetric_group(m))
    base = [_sp(f"({i},-{i})", m) for i in range(1, m + 1)]
    return G, FiniteGroup.generate(base)


def _c3_wreath(m):
    n = 3 * m
    base = [_sp(f"({3 * i + 1},{3 * i + 2},{3 * i + 3})", n)
            for i in range(m)]
    tops = []
    for i in range(1, m):
        lo = (i - 1) * 3 + 1
        tops.append(_sp("".join(f"({j},{j + 3})"
                                for j in range(lo, lo + 3)), n))
    return FiniteGroup.generate(base + tops), FiniteGroup.generate(base)


def _c4_wreath(m):
    n = 2 * m
    base = [_sp(f"({2 * i - 1},{2 * i},-{2 * i - 1},-{2 * i})", n)
            for i in range(1, m + 1)]
    tops = []
    for i in range(1, m):
        a, b, c, e = 2 * i - 1, 2 * i, 2 * i + 1, 2 * i + 2
        tops.append(_sp(f"({a},{c})({b},{e})(-{a},-{c})(-{b},-{e})", n))
    return FiniteGroup.generate(base + tops), FiniteGroup.generate(base)


def test_08_character_tables_and_wreath_extendibility():
    """Exact tables (orthogonality is verified internally before any
    table is returned) with the textbook degree multisets for six small
    groups; and in the wreath products A wr S_m for A cyclic of order
    2, 3, 4 and m <= 3, every character of the base extends to its
    inertia group, by the derived-subgroup criterion and by a search
    through the inertia group's table, which agree on that group.  Base
    characters are checked once per value multiset (conjugate
    characters share the answer)."""
    frozen = {
        "s3": ([_sp("(1,2)", 3), _sp("(1,2,3)", 3)], [1, 1, 2]),
        "s4": ([_sp("(1,2)", 4), _sp("(1,2,3,4)", 4)], [1, 1, 2, 3, 3]),
        "d8": ([_sp("(1,2)", 2), _sp("(1,-1)", 2)], [1, 1, 1, 1, 2]),
        "q8": ([_sp("(1,2,-1,-2)(3,4,-3,-4)", 4),
                _sp("(1,3,-1,-3)(2,-4,-2,4)", 4)], [1, 1, 1, 1, 2]),
        "c2wrs2": (list(signed_symmetric_group(2)), [1, 1, 1, 1, 2]),
        "c4wrs2": ([_sp("(1,2,-1,-2)", 4), _sp("(3,4,-3,-4)", 4),
                    _sp("(1,3)(2,4)(-1,-3)(-2,-4)", 4)],
                   [1] * 8 + [2] * 6),
    }
    for name, (gens, degrees) in frozen.items():
        G = FiniteGroup.generate(gens)
        assert sorted(character_table(G).degrees) == degrees, name

    for build in (_c2_wreath, _c3_wreath, _c4_wreath):
        for m in (1, 2, 3):
            G, N = build(m)
            class_at = N.conjugacy_classes().class_at
            seen = set()
            for th in character_table(N).characters:
                sig = tuple(sorted(repr(th.values[class_at[b.img]])
                                   for b in N.generators))
                if sig in seen:
                    continue
                seen.add(sig)
                stab, obstruction = extension_obstruction(G, N, th)
                assert obstruction is None, (build.__name__, m, th.values)
                oracle_stab, witness = extension_by_table(G, N, th)
                assert oracle_stab.elements == stab.elements
                assert witness is not None


# sha256 over the canonical JSON of test_09's 8368 reports, one line
# each in enumeration order, taken before the reports were checked here.
INVARIANCE_REPORTS_SHA256 = (
    "d93c5c724689b2289cbb54b8eef4830c558bfc7da2db496c1ab4b40788e654a4")


def test_09_invariance_criterion_exhaustive():
    """Every character label passing the cuspidality gate with inertia
    order at most 10000, over all enumerated labels at rank <= 4 and
    twist order <= 8, passes the brute-force invariance check, and the
    reports (orders included) are unchanged; under 300 s."""
    start = time.monotonic()
    checked = 0
    reports = hashlib.sha256()
    for n in (1, 2, 3, 4):
        for d in range(1, 9):
            for lev in enumerate_labels(n, d):
                for clabel in enumerate_char_labels(lev):
                    if not cuspidal_gate(clabel):
                        continue
                    if stab_lambda(clabel).order > 10000:
                        continue
                    report = kinva_check(clabel)
                    assert report["pass"], report["label"]
                    reports.update(json.dumps(
                        report, sort_keys=True,
                        separators=(",", ":")).encode() + b"\n")
                    checked += 1
    assert checked == 8368
    assert reports.hexdigest() == INVARIANCE_REPORTS_SHA256
    assert time.monotonic() - start < 300


def test_10_cli_byte_determinism():
    """Repeated CLI invocations with fixed flags produce byte-identical
    canonical JSON."""
    runner = CliRunner()
    cases = [
        ("levis", "--n", "3", "--d", "2", "--q", "3"),
        ("relweyl", "--n", "2", "--d", "4"),
        ("verify", "eq1", "--n", "2..3", "--d", "1..4"),
        ("kinva", "--n", "2", "--d", "4", "--full"),
        ("kinva", "--n", "2", "--d", "1", "--random", "4", "--seed", "3"),
        ("chartab", "--group", "q8"),
    ]
    for case in cases:
        first = runner.invoke(cli_main, list(case))
        second = runner.invoke(cli_main, list(case))
        assert first.exit_code == 0, (case, first.output)
        assert second.exit_code == 0
        assert first.stdout_bytes == second.stdout_bytes, case
        json.loads(first.output)
