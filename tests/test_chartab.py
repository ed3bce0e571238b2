"""Tests for exact character tables of small groups.

Frozen oracles: textbook tables for S3, S4, dihedral/quaternion order
8, cyclic groups, and wreath products of abelian groups by S_m whose
degree multisets are predicted independently by the little-group
construction.  Induction, restriction, inner products and the
inertia groups and extendibility criterion are checked on classical
instances, the criterion against a search through character tables.  A
table shared through the structure cache must equal the table computed
afresh for its own group.
"""

import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dsplitlevi import chartab, cliff
from dsplitlevi.chartab import (
    DEFAULT_GROUP_CAP,
    ClassFunction,
    FiniteGroup,
    _verify_orthogonality,
    character_table,
    class_permutation,
    extension_obstruction,
    inner,
    restrict,
)
from dsplitlevi.cli import PRESETS
from dsplitlevi.cliff import (
    _kinva_groups,
    _kinva_inputs,
    _kinva_key,
    cuspidal_gate,
    enumerate_char_labels,
    kinva_check,
)
from dsplitlevi.cyclo import CycNum, _cyclotomic, zeta
from dsplitlevi.extweyl import build_VdI, chevalley_generator, matrix_closure
from dsplitlevi.levi import enumerate_labels
from dsplitlevi.signedperm import (
    ClosureExceedsCap,
    SignedPerm,
    VerificationError,
    group_closure,
    signed_symmetric_group,
)
from test_acceptance import (_c2_wreath, _c3_wreath, _c4_wreath,
                             extension_by_table)
from test_levi import levi_label


def sp(text, n):
    return SignedPerm.from_cycles(text, n)


def grp(*gens):
    return FiniteGroup.generate(list(gens))


def s3():
    return grp(sp("(1,2)", 3), sp("(1,2,3)", 3))


def s4():
    return grp(sp("(1,2)", 4), sp("(1,2,3,4)", 4))


def _generated_elements(gens, cap):
    return FiniteGroup.generate(gens, cap=cap).elements


class TestClosureCap:
    """Every enumeration of ⟨gens⟩ admits a group of order m under
    cap=m and raises the one cap exception under cap=m-1."""

    @pytest.mark.parametrize("enumerate_, gens, m", [
        (group_closure, [sp("(1,-1)", 3), sp("(1,2)", 3), sp("(2,3)", 3)],
         48),
        (matrix_closure,
         [chevalley_generator("n", (1, -1), 1),
          chevalley_generator("n", (0, 2), 1)], 32),
        (_generated_elements, [sp("(1,2)", 4), sp("(1,2,3,4)", 4)], 24),
    ], ids=["group_closure", "matrix_closure", "FiniteGroup.generate"])
    def test_boundary(self, enumerate_, gens, m):
        elements = enumerate_(gens, cap=m)
        assert len(elements) == len(set(elements)) == m
        with pytest.raises(ClosureExceedsCap):
            enumerate_(gens, cap=m - 1)

    def test_explicit_groups_raise_the_same_class(self):
        G = s4()
        assert FiniteGroup(G.elements, cap=24).order == 24
        with pytest.raises(ClosureExceedsCap):
            FiniteGroup(G.elements, cap=23)
        assert len(character_table(G, cap=24).degrees) == 5
        with pytest.raises(ClosureExceedsCap):
            character_table(G, cap=23)


class TestFiniteGroup:
    def test_generate_identity_first(self):
        G = s3()
        assert G.order == 6
        assert G.elements[0] == SignedPerm.identity(3)

    def test_cap(self):
        with pytest.raises(ClosureExceedsCap):
            FiniteGroup.generate([sp("(1,2)", 4), sp("(1,2,3,4)", 4)], cap=10)

    def test_class_search_refuses_a_list_open_under_its_generators(self):
        # (1,2,3) conjugates (1,2) to a transposition the list lacks.
        G = FiniteGroup([SignedPerm.identity(3), sp("(1,2)", 3)],
                        generators=[sp("(1,2,3)", 3)])
        with pytest.raises(ValueError, match="not closed under conjugation"):
            G.conjugacy_classes()

    def test_exponent(self):
        assert s3().exponent() == 6
        assert s4().exponent() == 12

    def test_class_counts(self):
        assert len(s3().conjugacy_classes().reps) == 3
        signed2 = FiniteGroup(signed_symmetric_group(2))
        assert len(signed2.conjugacy_classes().reps) == 5
        c4 = grp(sp("(1,2,-1,-2)", 2))
        assert len(c4.conjugacy_classes().reps) == 4

    def test_class_sizes_sum_and_rep_choice(self):
        G = s4()
        data = G.conjugacy_classes()
        assert sum(data.sizes) == 24
        assert data.reps[0] == SignedPerm.identity(4)
        for rep, elems in zip(data.reps, data.classes):
            first = min(G.at[x.img] for x in elems)
            assert G.elements[first] == rep


def _restarting_generators(elements):
    """Greedy generator choice that recloses ⟨gens⟩ from the identity
    after every new generator: the reference for _reduce_generators."""
    ident = elements[0] * elements[0].inv()
    gens, known = [], {ident}
    for x in elements:
        if x in known:
            continue
        gens.append(x)
        known, queue = {ident}, [ident]
        while queue:
            y = queue.pop()
            for g in gens:
                if y * g not in known:
                    known.add(y * g)
                    queue.append(y * g)
        if len(known) == len(elements):
            break
    return tuple(gens)


class TestReduceGenerators:
    def _lists(self):
        rng = random.Random(5)
        for elems in (list(signed_symmetric_group(3)), list(s4().elements),
                      [m.signed_perm() for m in matrix_closure(
                          [chevalley_generator("n", r, 1)
                           for r in ((1, -1), (0, 2))])]):
            yield elems
            for _ in range(3):
                rest = elems[1:]
                rng.shuffle(rest)
                yield elems[:1] + rest

    def test_same_generators_as_restarting_closure(self):
        for elems in self._lists():
            assert FiniteGroup(elems).generators == \
                _restarting_generators(elems)

    def test_non_closed_list_rejected(self):
        # Closed under inverses, not under products: {e, (1,2), (1,3)}.
        elems = [SignedPerm.identity(3), sp("(1,2)", 3), sp("(1,3)", 3)]
        with pytest.raises(ValueError, match="not closed under multiplication"):
            FiniteGroup(elems)
        # A subgroup plus an involution it does not normalise.
        H = group_closure([sp("(1,2)", 4), sp("(3,4)", 4)])
        with pytest.raises(ValueError, match="not closed under multiplication"):
            FiniteGroup(H + [sp("(2,3)", 4)])


class TestCharacterTable:
    def test_s3_frozen(self):
        G = s3()
        table = character_table(G)
        assert sorted(table.degrees) == [1, 1, 2]
        data = G.conjugacy_classes()
        by_size = {size: j for j, size in enumerate(data.sizes)}
        id_j, transp_j, three_j = by_size[1], by_size[3], by_size[2]
        assert all(v.is_rational() for row in table.values for v in row)
        rows = {tuple(row[j].coeffs[0] for j in (id_j, transp_j, three_j))
                for row in table.values}
        assert rows == {(1, 1, 1), (1, -1, 1), (2, 0, -1)}

    def test_s4_degrees(self):
        assert sorted(character_table(s4()).degrees) == [1, 1, 2, 3, 3]

    def test_dihedral_order8(self):
        G = FiniteGroup(signed_symmetric_group(2))
        assert sorted(character_table(G).degrees) == [1, 1, 1, 1, 2]

    def test_quaternion_order8(self):
        G = grp(sp("(1,2,-1,-2)(3,4,-3,-4)", 4), sp("(1,3,-1,-3)(2,-4,-2,4)", 4))
        assert G.order == 8
        table = character_table(G)
        assert len(table.degrees) == 5
        assert sorted(table.degrees) == [1, 1, 1, 1, 2]

    def test_cyclic_groups(self):
        c4 = grp(sp("(1,2,-1,-2)", 2))
        table = character_table(c4)
        assert table.degrees == (1, 1, 1, 1)
        assert all(v ** 4 == 1 for row in table.values for v in row)
        c6 = grp(sp("(1,2,3)", 3), sp("(1,-1)(2,-2)(3,-3)", 3))
        assert character_table(c6).degrees == (1,) * 6

    def test_c4_wr_s2(self):
        G = grp(sp("(1,2,-1,-2)", 4), sp("(3,4,-3,-4)", 4),
                sp("(1,3)(2,4)(-1,-3)(-2,-4)", 4))
        assert G.order == 32
        degrees = sorted(character_table(G).degrees)
        assert degrees == [1] * 8 + [2] * 6

    def test_wreath_degree_predictions(self):
        # C2 wr S3 (the full signed group of rank 3) and C3 wr S2,
        # against the little-group construction: an orbit of size o on
        # tuples of characters with Young stabilizer degrees D
        # contributes degrees {o * d : d in D}.
        G = FiniteGroup(signed_symmetric_group(3))
        assert sorted(character_table(G).degrees) == [1, 1, 1, 1, 2, 2, 3, 3, 3, 3]
        H = grp(sp("(1,2,3)", 6), sp("(4,5,6)", 6),
                sp("(1,4)(2,5)(3,6)", 6))
        assert H.order == 18
        assert sorted(character_table(H).degrees) == [1] * 6 + [2] * 3

    def test_sum_of_squares_and_divisibility(self):
        for G in (s3(), s4(), FiniteGroup(signed_symmetric_group(2))):
            table = character_table(G)
            assert sum(d * d for d in table.degrees) == G.order
            assert all(G.order % d == 0 for d in table.degrees)

    def test_orthogonality_recheck(self):
        G = s4()
        table = character_table(G)
        data = G.conjugacy_classes()
        e = table.exponent
        for r1 in table.values:
            for r2 in table.values:
                total = CycNum.zero(e)
                for j, size in enumerate(data.sizes):
                    total = total + r1[j] * r2[j].conjugate() * size
                want = G.order if r1 is r2 else 0
                assert total == want

    @pytest.mark.parametrize("G", [s4(), grp(
        sp("(1,2,-1,-2)(3,4,-3,-4)", 4), sp("(1,3,-1,-3)(2,-4,-2,4)", 4))],
        ids=["s4", "q8"])
    def test_corrupted_entry_rejected(self, G):
        # Only rows are rechecked; a wrong entry must still be caught.
        table = character_table(G)
        data = G.conjugacy_classes()
        l = table.prime
        _verify_orthogonality(G, data, table.values, l)
        for t, row in enumerate(table.values):
            for j in range(len(row)):
                bad = [list(r) for r in table.values]
                bad[t][j] = bad[t][j] + 1
                with pytest.raises(VerificationError) as err:
                    _verify_orthogonality(G, data, bad, l)
                assert str(err.value) == (f"row orthogonality fails (group "
                                          f"order {G.order}, prime l = {l})")

    def test_corrupted_class_matrix_names_order_and_prime(self,
                                                           monkeypatch):
        # Zero class matrices split nothing, so S3's three characters
        # stay in one eigenspace.
        G = s3()
        monkeypatch.setattr(chartab, "_TABLE_CACHE", {})
        monkeypatch.setattr(chartab, "_class_matrix",
                            lambda G, data, j, l: [[0] * 3 for _ in range(3)])
        with pytest.raises(VerificationError) as err:
            character_table(G)
        l = chartab._dixon_prime(6, 6)
        assert str(err.value) == ("class matrices did not separate "
                                  f"characters (group order 6, prime l = {l})")

    @pytest.mark.parametrize("G", [s4(), grp(
        sp("(1,2,-1,-2)(3,4,-3,-4)", 4), sp("(1,3,-1,-3)(2,-4,-2,4)", 4))],
        ids=["s4", "q8"])
    def test_entry_times_root_of_unity_rejected(self, G):
        # ζ_e·χ(g) keeps every norm, so only an off-diagonal pair breaks.
        table = character_table(G)
        data = G.conjugacy_classes()
        l = table.prime
        root = zeta(table.exponent)
        for t, row in enumerate(table.values):
            for j in range(len(row)):
                if not row[j]:
                    continue
                bad = [list(r) for r in table.values]
                bad[t][j] = bad[t][j] * root
                chi = ClassFunction(G, bad[t])
                assert inner(chi, chi) == 1
                with pytest.raises(VerificationError) as err:
                    _verify_orthogonality(G, data, bad, l)
                assert str(err.value) == (f"row orthogonality fails (group "
                                          f"order {G.order}, prime l = {l})")

    @pytest.mark.parametrize("G", [s4(), grp(
        sp("(1,2,-1,-2)(3,4,-3,-4)", 4), sp("(1,3,-1,-3)(2,-4,-2,4)", 4))],
        ids=["s4", "q8"])
    def test_entry_off_by_phi_at_two_rejected(self, G):
        # Packed in base 2, an entry moved by Φ_e(2) would move every sum
        # by a multiple of Φ_e(2): only the digit bound keeps it apart.
        table = character_table(G)
        data = G.conjugacy_classes()
        l, e = table.prime, table.exponent
        shift = sum(c << i for i, c in enumerate(_cyclotomic(e)))
        for t, row in enumerate(table.values):
            for j in range(len(row)):
                bad = [list(r) for r in table.values]
                bad[t][j] = bad[t][j] + shift
                with pytest.raises(VerificationError):
                    _verify_orthogonality(G, data, bad, l)

    def test_jordan_block_fails_to_diagonalise(self, monkeypatch):
        # A Jordan block on S3's three classes takes e0 to 2·e0 + e1, so
        # e0's minimal polynomial is (x - 2)^3, of one root in degree 3.
        monkeypatch.setattr(chartab, "_TABLE_CACHE", {})
        monkeypatch.setattr(chartab, "_class_matrix", lambda G, data, j, l:
                            [[2, 0, 0], [1, 2, 0], [0, 1, 2]])
        with pytest.raises(VerificationError) as err:
            character_table(s3())
        l = chartab._dixon_prime(6, 6)
        assert str(err.value) == ("class matrix failed to diagonalise "
                                  f"(group order 6, prime l = {l})")

    def _split_with(self, mats, monkeypatch):
        """The table of S3 computed with ``mats[j]`` as its class matrix
        M_j, and the message it raises, which must name |S3| and l."""
        monkeypatch.setattr(chartab, "_TABLE_CACHE", {})
        monkeypatch.setattr(chartab, "_class_matrix",
                            lambda G, data, j, l: mats[j])
        with pytest.raises(VerificationError) as err:
            character_table(s3())
        suffix = f" (group order 6, prime l = {chartab._dixon_prime(6, 6)})"
        assert str(err.value).endswith(suffix)
        return str(err.value).removesuffix(suffix)

    def test_noncommuting_class_matrices_leave_the_subspace(self,
                                                            monkeypatch):
        # Row 0 of each M_j is that of a class matrix, so a line's value
        # at class j is its eigenvalue under M_j.  M_1 sends e0 to 0, and
        # M_2, a 3-cycle of the coordinates that does not commute with it,
        # splits e0 into lines that M_1 does not send to 0.
        message = self._split_with(
            {1: [[0, 1, 0], [0, 0, 0], [0, 1, 0]],
             2: [[0, 0, 1], [1, 0, 0], [0, 1, 0]]}, monkeypatch)
        assert message == ("line off its eigenvalues (class matrices "
                           "should commute)")

    def test_scalar_class_matrices_separate_nothing(self, monkeypatch):
        # Every vector is an eigenvector of 2, so the space splits into
        # one eigenspace of dimension 3.
        two = [[2, 0, 0], [0, 2, 0], [0, 0, 2]]
        message = self._split_with({1: two, 2: two}, monkeypatch)
        assert message == "class matrices did not separate characters"

    def test_eigenvector_vanishing_on_the_identity_class(self, monkeypatch):
        # M_1 has the eigenvectors (0, 1, 1), (1, 1, 0) and (1, 0, 1) of
        # eigenvalues 1, 2 and 3 mod 7, and e0 is a combination of all
        # three, so it splits into them, the first 0 on the identity class.
        message = self._split_with({1: [[6, 3, 4], [4, 5, 3], [1, 6, 2]]},
                                   monkeypatch)
        assert message == "eigenvector vanishes on the identity class"

    def _table_with_root(self, G, root, monkeypatch):
        """The table of G computed with ``root(z, l)`` in place of the
        root of unity z of order exp(G) mod l."""
        found = chartab._root_of_unity
        monkeypatch.setattr(chartab, "_TABLE_CACHE", {})
        monkeypatch.setattr(chartab, "_root_of_unity",
                            lambda l, e: root(found(l, e), l))
        return character_table(G)

    def test_non_root_of_unity_fails_lift_bound(self, monkeypatch):
        # z + 1 is no root of unity of order 4 mod 13, so the Fourier
        # inversion returns residues past every degree.
        with pytest.raises(VerificationError) as err:
            self._table_with_root(grp(sp("(1,2)", 2), sp("(1,-1)", 2)),
                                  lambda z, l: (z + 1) % l, monkeypatch)
        assert str(err.value) == ("root-of-unity multiplicity fails lift "
                                  "bound (group order 8, prime l = 13)")

    def test_trivial_root_fails_lifted_degree(self, monkeypatch):
        # With z = 1 every multiplicity of an element g is the average of
        # χ over ⟨g⟩: small, but not summing to χ(1).
        with pytest.raises(VerificationError) as err:
            self._table_with_root(s3(), lambda z, l: 1, monkeypatch)
        assert str(err.value) == ("lifted degree disagrees with modular "
                                  "degree (group order 6, prime l = 7)")

    def _degree_checks_with(self, G, degrees, monkeypatch):
        """The message the table of G raises when its eigenvector lines
        are crafted ones of the given ``degrees`` (None: the identity
        coordinate vector, which matches no degree), with |G| and l cut
        off its end.  A line that is 1 at the identity class and x at
        one other class j, where every class is its own inverse class,
        has the orthogonality sum s = 1 + x²/|C_j|, and degree d when s
        is |G|/d² mod l."""
        data = G.conjugacy_classes()
        l = chartab._dixon_prime(G.order, G.exponent())
        r = len(data.reps)
        assert all(pw[-1] == j for j, pw in enumerate(G.power_classes()))

        def line(d):
            out = [1] + [0] * (r - 1)
            if d is not None:
                j, x = next(
                    (j, x) for j in range(1, r) for x in range(l)
                    if (x * x - (G.order * pow(d * d, l - 2, l) - 1)
                        * data.sizes[j]) % l == 0)
                out[j] = x
            return tuple(out)

        monkeypatch.setattr(chartab, "_TABLE_CACHE", {})
        monkeypatch.setattr(chartab, "_split_eigenvectors",
                            lambda G, data, l: list(map(line, degrees)))
        with pytest.raises(VerificationError) as err:
            character_table(G)
        suffix = f" (group order {G.order}, prime l = {l})"
        assert str(err.value).endswith(suffix)
        return str(err.value).removesuffix(suffix)

    def test_missing_eigenvector_line(self, monkeypatch):
        assert self._degree_checks_with(s3(), [1, 1], monkeypatch) == (
            "wrong number of eigenvector lines")

    def test_line_with_no_degree(self, monkeypatch):
        # s = 1, so d² would be |S3| = 6 mod 7, which 1 and 2 miss.
        assert self._degree_checks_with(s3(), [None, 1, 1], monkeypatch) == (
            "no degree matches the orthogonality sum")

    def test_degree_squares_short_of_the_order(self, monkeypatch):
        assert self._degree_checks_with(s3(), [1, 1, 1], monkeypatch) == (
            "degree squares do not sum to the group order")

    def test_degree_not_dividing_the_order(self, monkeypatch):
        # 25 + 9 + 2·4 + 6·1 = 48 = |C2 wr S3|, but 5 does not divide 48.
        G = FiniteGroup(signed_symmetric_group(3))
        degrees = [5, 3, 2, 2, 1, 1, 1, 1, 1, 1]
        assert self._degree_checks_with(G, degrees, monkeypatch) == (
            "some degree does not divide the group order")

    def test_deterministic(self):
        t1 = character_table(s4())
        t2 = character_table(s4())
        assert t1.values == t2.values
        assert t1.degrees == t2.degrees

    def test_cap(self):
        with pytest.raises(ClosureExceedsCap):
            character_table(s3(), cap=2)

    def test_cache_bound_drops_the_oldest(self, monkeypatch):
        monkeypatch.setattr(chartab, "_TABLE_CACHE", {})
        monkeypatch.setattr(chartab, "_TABLE_CACHE_BOUND", 2)
        runs = dixon_runs(monkeypatch)
        groups = [s3(), s4(), grp(sp("(1,2,3,4,5)", 5))]
        tables = [character_table(G) for G in groups]
        keys = [chartab._table_key(G) for G in groups]
        assert list(chartab._TABLE_CACHE) == keys[1:]
        # A group keeps its table; a new S3 finds its structure dropped.
        assert character_table(groups[0]) is tables[0]
        G = s3()
        again = character_table(G)
        assert len(runs) == 4 and again is not tables[0]
        assert table_data(again) == table_data(tables[0])
        assert list(chartab._TABLE_CACHE) == [keys[2], keys[0]]
        assert character_table(G) is again


def dixon_runs(monkeypatch):
    """The groups that ``_split_eigenvectors`` runs on from now on."""
    runs = []
    split = chartab._split_eigenvectors

    def counting(G, data, l):
        runs.append(G)
        return split(G, data, l)

    monkeypatch.setattr(chartab, "_split_eigenvectors", counting)
    return runs


def table_data(table):
    return (table.exponent, table.prime, table.degrees,
            [[(v.d, v.coeffs) for v in row] for row in table.values])


def _kinva_sweep_groups(grid):
    """The distinct W_λ and ker(ν) that ``kinva`` builds on a grid of
    (n, d), one per element list, in order of first appearance."""
    keys, groups = set(), {}
    for n, d in grid:
        for lev in enumerate_labels(n, d):
            for label in enumerate_char_labels(lev):
                key = _kinva_key(label)
                if not cuspidal_gate(label) or key in keys:
                    continue
                keys.add(key)
                gens, _ = _kinva_inputs(key)
                W, ker, _ = _kinva_groups(gens, DEFAULT_GROUP_CAP, key)
                for G in (W, ker):
                    groups.setdefault(G.elements, G)
    return list(groups.values())


class TestKinvaSweepTables:
    # At rank 4, d = 1, 2, 3, 8 give 2d0 = 2, 4, 6, 8: 85 groups of
    # order up to 384 and exponent up to 24, most of them in no preset.
    GRID = [(4, 1), (4, 2), (4, 3), (4, 8)]
    # sha256 over every table's order, exponent, degrees and value
    # coefficients, taken before the Krylov shortcut and the Galois
    # column fill were removed from character_table.
    GOLDEN = "76ff3d60bbb4a366677dc1bdd35604a18aad2b5ff04f8ab71672befd626c7e71"

    def test_tables_match_golden_digest(self):
        groups = _kinva_sweep_groups(self.GRID)
        assert {G.exponent() for G in groups} >= {3, 6, 8, 12, 24}
        digest = hashlib.sha256()
        for G in groups:
            table = character_table(G)
            digest.update(repr((G.order, table.exponent, table.degrees,
                                [[v.coeffs for v in row]
                                 for row in table.values])).encode())
        assert len(groups) == 85
        assert digest.hexdigest() == self.GOLDEN


def relabelled(G):
    """G on other elements: each signed permutation gains a fixed point,
    so the multiplication table in element order, and the structure
    key, stay the same."""
    def up(x):
        return SignedPerm(x.img + (x.n + 1,))

    return FiniteGroup(map(up, G.elements), generators=map(up, G.generators))


class TestStructureKey:
    def test_shared_tables_equal_fresh_ones(self, monkeypatch):
        # Every preset, the 85 rank-4 sweep groups and each preset again
        # on other elements, through one cache: each table served from a
        # structure must be the one computed afresh with the cache empty.
        presets = [PRESETS[name]() for name in sorted(PRESETS)]
        groups = (presets + _kinva_sweep_groups(TestKinvaSweepTables.GRID)
                  + [relabelled(G) for G in presets])
        monkeypatch.setattr(chartab, "_TABLE_CACHE", {})
        runs = dixon_runs(monkeypatch)
        served = [character_table(G) for G in groups]
        assert len(runs) == len({chartab._table_key(G) for G in groups}) == 34
        for G, table in zip(groups, served):
            assert table.group is G and character_table(G) is table
            monkeypatch.setattr(chartab, "_TABLE_CACHE", {})
            fresh = character_table(FiniteGroup(G.elements,
                                                generators=G.generators))
            assert table_data(table) == table_data(fresh)
            assert (G.conjugacy_classes().classes
                    == fresh.group.conjugacy_classes().classes)

    def test_generators_must_generate_the_group(self):
        G = FiniteGroup(s3().elements, generators=[sp("(1,2)", 3)])
        with pytest.raises(VerificationError) as err:
            character_table(G)
        assert str(err.value) == ("the generators do not generate the "
                                  "group (they reach 2 of its 6 elements)")

    def test_elements_must_be_closed_under_the_generators(self):
        G = FiniteGroup([SignedPerm.identity(3), sp("(1,2)", 3)],
                        generators=[sp("(1,2,3)", 3)])
        with pytest.raises(VerificationError) as err:
            character_table(G)
        assert str(err.value) == ("the element list is not closed under "
                                  "its generators (group order 2)")

    def test_cold_pass_runs_dixon_once_per_structure(self, monkeypatch):
        labels = [c for n in (1, 2, 3) for d in range(1, 9)
                  for lev in enumerate_labels(n, d)
                  for c in enumerate_char_labels(lev) if cuspidal_gate(c)]
        monkeypatch.setattr(cliff, "_KINVA_MEMO", {})
        monkeypatch.setattr(chartab, "_TABLE_CACHE", {})
        runs = dixon_runs(monkeypatch)
        groups = {}
        table = cliff.character_table

        def recording(G, cap):
            groups[id(G)] = G
            return table(G, cap=cap)

        monkeypatch.setattr(cliff, "character_table", recording)
        assert all(kinva_check(label)["pass"] for label in labels)
        keys = [chartab._table_key(G) for G in runs]
        assert set(keys) == {chartab._table_key(G) for G in groups.values()}
        assert (len(labels), len(groups), len(keys), len(set(keys))) == (
            1120, 67, 12, 12)


def _cycnum(d):
    deg = len(CycNum.zero(d).coeffs)
    return st.tuples(*[st.integers(-2, 2)] * deg).map(
        lambda coeffs: CycNum(d, coeffs))


_fraction = st.fractions(min_value=-3, max_value=3, max_denominator=6)


def promote_conjugate_inner(phi, psi):
    """<phi, psi> by whole CycNums: each value promoted to the common
    conductor, ψ's conjugated by the Galois map ζ -> ζ^-1, multiplied
    and added class by class; the oracle of ``inner``."""
    D = math.lcm(*(v.d for v in phi.values + psi.values))
    total = CycNum.zero(D)
    for a, b, size in zip(phi.values, psi.values,
                          phi.group.conjugacy_classes().sizes):
        total = total + a.promote(D) * b.conjugate().promote(D) * size
    value = total / phi.group.order
    if not value.is_rational():
        raise ArithmeticError("inner product is not rational")
    return value.coeffs[0]


class TestClassFunctionEquality:
    @given(st.lists(_cycnum(4), min_size=4, max_size=4),
           st.lists(st.one_of(st.none(), _cycnum(4), _cycnum(12)),
                    min_size=4, max_size=4))
    def test_mixed_conductors_match_explicit_promotion(self, left, picks):
        # None stands for "the left value promoted to conductor 12".
        G = grp(sp("(1,2,-1,-2)", 2))
        right = [a.promote(12) if b is None else b
                 for a, b in zip(left, picks)]
        expected = all(a.promote(math.lcm(a.d, b.d))
                       == b.promote(math.lcm(a.d, b.d))
                       for a, b in zip(left, right))
        assert (ClassFunction(G, left) == ClassFunction(G, right)) == expected
        assert (ClassFunction(G, right) == ClassFunction(G, left)) == expected
        promoted = [a.promote(12) for a in left]
        assert ClassFunction(G, left) == ClassFunction(G, promoted)

    def test_class_representatives_must_match(self):
        c4 = grp(sp("(1,2,-1,-2)", 2))
        c4_other = grp(sp("(1,-2,-1,2)", 2))
        values = [CycNum.one(4)] * 4
        assert ClassFunction(c4, values) != ClassFunction(c4_other, values)


def induce(theta, G):
    """The induced class function Ind_H^G(theta), where H = theta.group:
    the reference side of Frobenius reciprocity."""
    H = theta.group
    for x in H.elements:
        if x.img not in G.at:
            raise ValueError("the domain of theta is not a subgroup of G")
    hdata = H.conjugacy_classes()
    value_at = {}
    for j, orb in enumerate(hdata.classes):
        for y in orb:
            value_at[y] = theta.values[j]
    gdata = G.conjugacy_classes()
    d = theta.values[0].d
    out = []
    for rep in gdata.reps:
        total = CycNum.zero(d)
        for x in G.elements:
            y = x * rep * x.inv()
            v = value_at.get(y)
            if v is not None:
                total = total + v
        out.append(total / H.order)
    return ClassFunction(G, tuple(out))


class TestInduceRestrict:
    def test_induced_trivial_degree(self):
        G = s3()
        H = grp(sp("(1,2,3)", 3))
        triv = character_table(H).characters[0]
        assert triv.values[0] == 1
        ind = induce(triv, G)
        assert ind.values[0] == 2

    def test_induction_from_a3(self):
        G = s3()
        H = grp(sp("(1,2,3)", 3))
        nontriv = [c for c in character_table(H).characters
                   if c.values[0] == 1 and any(v != 1 for v in c.values)]
        assert len(nontriv) == 2
        two_dim = [c for c in character_table(G).characters
                   if c.values[0] == 2][0]
        for theta in nontriv:
            assert induce(theta, G) == two_dim

    def test_frobenius_reciprocity(self):
        G = s3()
        H = grp(sp("(1,2,3)", 3))
        for theta in character_table(H).characters:
            for chi in character_table(G).characters:
                assert inner(induce(theta, G), chi) == \
                    inner(theta, restrict(chi, H))

    def test_inner_orthonormality(self):
        table = character_table(s4())
        for c1, c2 in itertools.product(table.characters, repeat=2):
            assert inner(c1, c2) == (1 if c1 is c2 else 0)

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_inner_matches_promote_conjugate_oracle_on_presets(self, name):
        table = character_table(PRESETS[name]())
        for c1, c2 in itertools.product(table.characters, repeat=2):
            got, want = inner(c1, c2), promote_conjugate_inner(c1, c2)
            assert (got, type(got)) == (want, type(want))
            assert got == (1 if c1 is c2 else 0)

    @given(st.lists(st.tuples(_fraction, _fraction), min_size=4,
                    max_size=4),
           st.lists(st.sampled_from((1, 3, 4, 6, 12)), min_size=8,
                    max_size=8))
    def test_inner_matches_oracle_with_fractions_and_mixed_conductors(
            self, weights, conductors):
        # Rational combinations of the characters of C4, each value
        # written at its own conductor: the rational ones at 1, 3, 4, 6
        # or 12, the others at 4 or 12.
        G = grp(sp("(1,2,-1,-2)", 2))
        chars = character_table(G).characters

        def combination(ws, ds):
            values = []
            for j, d in enumerate(ds):
                v = sum((w * chi.values[j] for w, chi in zip(ws, chars)),
                        CycNum.zero(4))
                if v.is_rational():
                    values.append(CycNum.from_rational(v.coeffs[0], d))
                else:
                    values.append(v.promote(12 if d % 3 == 0 else 4))
            return ClassFunction(G, values)

        phi = combination([w for w, _ in weights], conductors[:4])
        psi = combination([w for _, w in weights], conductors[4:])
        got, want = inner(phi, psi), promote_conjugate_inner(phi, psi)
        assert (got, type(got)) == (want, type(want))
        assert got == sum(a * b for a, b in weights)

    @given(st.lists(st.one_of(_cycnum(4), _cycnum(3), _cycnum(12)),
                    min_size=8, max_size=8))
    def test_inner_refuses_irrational_products_as_the_oracle_does(
            self, values):
        G = grp(sp("(1,2,-1,-2)", 2))
        phi, psi = ClassFunction(G, values[:4]), ClassFunction(G, values[4:])
        try:
            want = promote_conjugate_inner(phi, psi)
        except ArithmeticError:
            with pytest.raises(ArithmeticError):
                inner(phi, psi)
        else:
            assert inner(phi, psi) == want

    def test_subgroup_mismatch(self):
        G = s3()
        H = grp(sp("(1,-1)", 3))
        chi = character_table(G).characters[0]
        with pytest.raises(ValueError):
            restrict(chi, H)
        theta = character_table(H).characters[0]
        with pytest.raises(ValueError):
            induce(theta, G)


def test_class_permutation_conjugates_by_k_not_its_inverse():
    # c is x -> x + 1 on Z/5 (5 standing for 0) and k is x -> 2x, so
    # k c k⁻¹ = c² while k⁻¹ c k = c³.
    c, k = sp("(1,2,3,4,5)", 5), sp("(1,2,4,3)", 5)
    N = grp(c)
    data = N.conjugacy_classes()
    at = data.class_at
    assert class_permutation(k, N)[at[c.img]] == at[(c * c).img]
    assert class_permutation(k.inv(), N)[at[c.img]] == at[(c * c * c).img]


@pytest.mark.parametrize("k, n", [("(1,2)", 2), ("(1,6)", 6)],
                         ids=["lower", "higher"])
def test_class_permutation_rejects_mixed_ranks(k, n):
    N = grp(sp("(1,2,3,4,5)", 5))
    with pytest.raises(ValueError, match="rank mismatch"):
        class_permutation(sp(k, n), N)


def lifted(label):
    """V_d^I and its diagonal kernel H_d^I of ``label``, on the signed
    permutations their matrices are held as."""
    gens, hs = build_VdI(label)
    return (FiniteGroup.generate([g.signed_perm() for g in gens]),
            FiniteGroup.generate([h.signed_perm() for h in hs]))


class TestInertiaExtendibility:
    def test_trivial_quotient(self):
        N = grp(sp("(1,2,-1,-2)", 2))
        for theta in character_table(N).characters:
            stab, obstruction = extension_obstruction(N, N, theta)
            assert stab is N and obstruction is None

    def test_dihedral_center_obstruction(self):
        # The centre of D8 lies in its derived subgroup, so its faithful
        # character extends to no linear one.
        G = FiniteGroup(signed_symmetric_group(2))
        minus_one = sp("(1,-1)(2,-2)", 2)
        center = grp(minus_one)
        for theta in character_table(center).characters:
            stab, obstruction = extension_obstruction(G, center, theta)
            faithful = theta.values[1] == -1
            assert stab is G
            assert obstruction == (minus_one if faithful else None)
            witness = extension_by_table(G, center, theta)[1]
            assert (witness is None) == faithful

    def test_quaternion_center_obstruction(self):
        G = grp(sp("(1,2,-1,-2)(3,4,-3,-4)", 4), sp("(1,3,-1,-3)(2,-4,-2,4)", 4))
        minus_one = sp("(1,-1)(2,-2)(3,-3)(4,-4)", 4)
        center = grp(minus_one)
        thetas = character_table(center).characters
        faithful = [t for t in thetas if any(v != 1 for v in t.values)]
        assert len(faithful) == 1
        stab, obstruction = extension_obstruction(G, center, faithful[0])
        assert stab.order == 8
        assert obstruction == minus_one
        assert extension_by_table(G, center, faithful[0])[1] is None

    def test_derived_subgroup_is_a_normal_closure(self):
        # The commutator of the two generators, (1,-1)(4,-4), generates a
        # subgroup of order 2 without -1; its normal closure, the derived
        # subgroup of order 4, holds -1, on which the faithful character
        # of the centre is -1.
        a, b = sp("(1,-3,-4,2)", 4), sp("(3,-3)(4,-4)", 4)
        V = grp(a, b)
        minus_one = sp("(1,-1)(2,-2)(3,-3)(4,-4)", 4)
        center = grp(minus_one)
        assert V.order == 32
        assert b.inv() * a.inv() * b * a == sp("(1,-1)(4,-4)", 4)
        assert all(minus_one * g == g * minus_one for g in V.generators)
        faithful, = [t for t in character_table(center).characters
                     if t.values[1] == -1]
        stab, obstruction = extension_obstruction(V, center, faithful)
        assert stab is V and obstruction == minus_one
        assert extension_by_table(V, center, faithful)[1] is None

    def test_lifted_relative_weyl_label(self):
        V, H = lifted(levi_label(2, 4, (), ((1,), (2,))))
        assert V.order == 8 and H.order == 2
        for theta in character_table(H).characters:
            stab, obstruction = extension_obstruction(V, H, theta)
            assert stab is V and obstruction is None
            assert extension_by_table(V, H, theta)[1] is not None

    def test_wreath_normal_abelian_base(self):
        G = grp(sp("(1,2,3)", 6), sp("(1,2)", 6), sp("(4,5,6)", 6),
                sp("(4,5)", 6), sp("(1,4)(2,5)(3,6)", 6))
        assert G.order == 72
        N = grp(sp("(1,2,3)", 6), sp("(4,5,6)", 6))
        assert N.order == 9
        for theta in character_table(N).characters:
            stab, obstruction = extension_obstruction(G, N, theta)
            assert N.order <= stab.order
            assert obstruction is None

    def test_normality_required(self):
        G = s3()
        H = grp(sp("(1,2)", 3))
        theta = character_table(H).characters[0]
        with pytest.raises(ValueError, match="not normal"):
            extension_obstruction(G, H, theta)

    def test_subgroup_required(self):
        G = grp(sp("(1,2)", 3))
        N = grp(sp("(1,2,3)", 3))
        theta = character_table(N).characters[0]
        with pytest.raises(ValueError, match="not a subgroup"):
            extension_obstruction(G, N, theta)

    def test_abelian_subgroup_required(self):
        G = s3()
        theta = character_table(G).characters[0]
        with pytest.raises(ValueError, match="not abelian"):
            extension_obstruction(G, G, theta)

    def test_character_of_another_group_refused(self):
        G = s3()
        N = grp(sp("(1,2,3)", 3))
        theta = character_table(grp(sp("(1,3,2)", 3))).characters[1]
        with pytest.raises(ValueError, match="class function on H"):
            extension_obstruction(G, N, theta)


def elementwise_stabiliser(H, N, theta):
    """H_theta in H's element order, by conjugating every class
    representative of N by every h and looking the value up in a table
    over N's elements, with no class_permutation."""
    ndata = N.conjugacy_classes()
    value_at = {y: theta.values[j] for j, orb in enumerate(ndata.classes)
                for y in orb}
    stab = []
    for h in H.elements:
        hi = h.inv()
        if all(value_at[h * rep * hi] == v
               for rep, v in zip(ndata.reps, theta.values)):
            stab.append(h)
    return stab


def inertia_pairs():
    """(H, N) for the wreath products of acceptance test_08 and the lifted
    shapes of acceptance test_06 at rank <= 3, with |H| <= 100: C3 wr S3
    (order 162) and the order-384 groups (C4 wr S3 and three rank-3
    lifts) would take several seconds through the table search."""
    pairs = [build(m) for build in (_c2_wreath, _c3_wreath, _c4_wreath)
             for m in (1, 2, 3)]
    seen = set()
    for n in (1, 2, 3):
        for d in range(1, 9):
            for label in enumerate_labels(n, d):
                shape = (n, d, tuple(label.t.items()))
                if label.I and shape not in seen:
                    seen.add(shape)
                    pairs.append(lifted(label))
    return [(H, N) for H, N in pairs if H.order <= 100]


def test_inertia_group_matches_elementwise_stabiliser():
    checked = proper = 0
    for H, N in inertia_pairs():
        for theta in character_table(N).characters:
            stab, obstruction = extension_obstruction(H, N, theta)
            want = elementwise_stabiliser(H, N, theta)
            assert list(stab.elements) == want
            assert (stab is H) == (len(want) == H.order)
            # The table search finds the same inertia group, and an
            # extension exactly when the criterion finds no obstruction.
            oracle_stab, witness = extension_by_table(H, N, theta)
            assert oracle_stab.elements == stab.elements
            assert (obstruction is None) == (witness is not None)
            checked += 1
            proper += len(want) < H.order
    assert (checked, proper) == (102, 34)
