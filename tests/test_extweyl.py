"""Tests for the integer-matrix realization of the extended Weyl group.

Chevalley generator matrices, the projection onto signed permutations,
the distinguished twist elements and their relations, and the lifted
relative-Weyl subgroups V_d^I are all checked against hand-computed
matrices and against brute-force closures at small rank.
"""

import itertools
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from dsplitlevi import extweyl
from dsplitlevi.extweyl import (
    IntMatrix,
    build_twist_elements,
    build_VdI,
    chevalley_generator,
    matrix_closure,
    rho,
    rho_image,
)
from dsplitlevi.levi import (
    LeviLabel,
    enumerate_labels,
    relative_weyl,
    sylow_twist_w,
)
from dsplitlevi.cli import SUITES, _embedded_simple_roots
from dsplitlevi.rootsys import build_root_system
from dsplitlevi.signedperm import (DEFAULT_CLOSURE_CAP, ClosureExceedsCap,
                                   SignedPerm, VerificationError,
                                   group_closure, tau, wprime)
from test_signedperm import generic_closure


def sp(text, n):
    return SignedPerm.from_cycles(text, n)


def mat(*rows):
    return IntMatrix(tuple(tuple(r) for r in rows))


def is_symplectic(m):
    """m preserves the form <e_i, f_i> = 1 = -<f_i, e_i> exactly."""
    if m.dim % 2:
        return False
    n = m.dim // 2

    def form(u, v):
        return sum(u[k] * v[n + k] - u[n + k] * v[k] for k in range(n))

    cols = tuple(zip(*m.rows))
    for i in range(2 * n):
        for j in range(2 * n):
            want = 1 if j == i + n else (-1 if i == j + n else 0)
            if form(cols[i], cols[j]) != want:
                return False
    return True


class TestIntMatrix:
    def test_identity(self):
        assert IntMatrix.identity(2) == mat((1, 0), (0, 1))

    def test_mul_is_composition(self):
        a = mat((0, 1), (-1, 0))
        assert a * IntMatrix.identity(2) == a
        assert a * a == mat((-1, 0), (0, -1))

    def test_inverse_of_signed_monomial(self):
        a = mat((0, 1), (-1, 0))
        assert a.inv() * a == IntMatrix.identity(2)
        assert a * a.inv() == IntMatrix.identity(2)

    def test_inverse_requires_monomial(self):
        with pytest.raises(ValueError):
            mat((1, 1), (0, 1)).inv()

    def test_pow(self):
        a = mat((0, 1), (-1, 0))
        assert a ** 0 == IntMatrix.identity(2)
        assert a ** 4 == IntMatrix.identity(2)
        assert a ** -1 == a.inv()

    def test_conj_convention(self):
        # x^g = g^-1 x g, matching the signed permutation convention.
        g = chevalley_generator("n", (1, -1), 1)
        x = chevalley_generator("n", (2, 0), 1)
        assert rho(x.conj(g)) == rho(x).conj(rho(g))

    def test_symplectic_check(self):
        assert is_symplectic(IntMatrix.identity(4))
        assert is_symplectic(mat((0, 1), (-1, 0)))
        assert not is_symplectic(mat((1, 0), (0, -1)))
        assert not is_symplectic(IntMatrix.identity(3))


def dense(a, b):
    """The plain integer product of two row tuples."""
    size = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(size))
                       for j in range(size)) for i in range(size))


def dense_identity(size):
    return tuple(tuple(int(i == j) for j in range(size)) for i in range(size))


def transpose(rows):
    return tuple(zip(*rows))


@lru_cache(maxsize=None)
def lift_pool(n):
    """(matrix, reference rows) for n_alpha(+-1), h_alpha(+-1) and every
    build_twist_elements output at rank n.  The Chevalley references
    are dense products of the x_alpha rows (a monomial inverse is its
    transpose); a twist element is its own reference."""
    roots = build_root_system(n) if n > 1 else ((2,), (-2,))
    pool = []
    for root, t in itertools.product(roots, (1, -1)):
        neg = tuple(-c for c in root)
        x = [chevalley_generator("x", r, s).rows
             for r, s in ((root, t), (neg, -t), (root, t), (root, 1),
                          (neg, -1), (root, 1))]
        n_t = dense(dense(x[0], x[1]), x[2])
        n_1 = dense(dense(x[3], x[4]), x[5])
        pool.append((chevalley_generator("n", root, t), n_t))
        pool.append((chevalley_generator("h", root, t),
                     dense(n_t, transpose(n_1))))
    for d in range(1, 7):
        te = build_twist_elements(n, d)
        for m in (te.v0, te.v, te.v_prime, *te.c, *te.p, *te.h,
                  *te.p_pair.values()):
            pool.append((m, m.rows))
    return tuple(pool)


class TestAgainstDenseProducts:
    """Monomial storage against plain integer products of the rows."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_random_words(self, data):
        n = data.draw(st.integers(1, 3))
        word = data.draw(st.lists(st.sampled_from(lift_pool(n)),
                                  min_size=1, max_size=6))
        m, ref = IntMatrix.identity(2 * n), dense_identity(2 * n)
        for g, g_ref in word:
            assert g.rows == g_ref
            m, ref = m * g, dense(ref, g_ref)
            assert m.rows == ref
        assert dense(m.rows, m.inv().rows) == dense_identity(2 * n)
        k = data.draw(st.integers(-4, 4))
        power = dense_identity(2 * n)
        for _ in range(abs(k)):
            power = dense(power, ref if k > 0 else transpose(ref))
        assert (m ** k).rows == power
        rebuilt = IntMatrix(m.rows)
        assert rebuilt == m and hash(rebuilt) == hash(m)

    def test_pow_of_non_monomial_raises(self):
        for k in (-1, 0, 2):
            with pytest.raises(ValueError):
                chevalley_generator("x", (1, -1), 1) ** k


class TestChevalleyGenerators:
    def test_rank_one_n_matrix(self):
        n1 = chevalley_generator("n", (2,), 1)
        assert n1 == mat((0, 1), (-1, 0))
        assert n1 * n1 == mat((-1, 0), (0, -1))
        assert n1 * n1 == chevalley_generator("h", (2,), -1)

    def test_x_matrices_frozen(self):
        assert chevalley_generator("x", (1, -1), 1) == mat(
            (1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, -1, 1))
        assert chevalley_generator("x", (1, 1), 1) == mat(
            (1, 0, 0, 1), (0, 1, 1, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        assert chevalley_generator("x", (2, 0), 1) == mat(
            (1, 0, 1, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        assert chevalley_generator("x", (0, -2), 1) == mat(
            (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 1, 0, 1))
        assert chevalley_generator("x", (-1, -1), 1) == mat(
            (1, 0, 0, 0), (0, 1, 0, 0), (0, 1, 1, 0), (1, 0, 0, 1))

    def test_h_involution(self):
        for n in (2, 3):
            system = build_root_system(n)
            for root in system:
                h = chevalley_generator("h", root, -1)
                assert h * h == IntMatrix.identity(2 * n)

    def test_symplectic_everywhere(self):
        system = build_root_system(2)
        for root in system:
            for kind in ("x", "n", "h"):
                for t in (1, -1):
                    assert is_symplectic(chevalley_generator(kind, root, t))

    def test_h_group_order(self):
        for n in (2, 3, 4):
            system = build_root_system(n)
            gens = [chevalley_generator("h", r, -1) for r in system]
            assert len(matrix_closure(gens)) == 2 ** n

    def test_bad_root_rejected(self):
        for bad in ((0, 0), (1, 1, 1), (2, 1), (3, 0)):
            with pytest.raises(ValueError):
                chevalley_generator("x", bad, 1)

    def test_bad_t_rejected(self):
        with pytest.raises(ValueError):
            chevalley_generator("x", (2, 0), 2)

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            chevalley_generator("y", (2, 0), 1)


class TestGeneratorCache:
    """Each (kind, root, t) is built once; the shared matrices must be
    the dense x-products, built afresh here without the cache."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_cached_generators_equal_fresh_products(self, n):
        for root in build_root_system(n):
            neg = tuple(-c for c in root)
            x = {(r, s): extweyl._x_matrix(r, s).rows
                 for r in (root, neg) for s in (1, -1)}
            n_1 = dense(dense(x[root, 1], x[neg, -1]), x[root, 1])
            for t in (1, -1):
                n_t = dense(dense(x[root, t], x[neg, -t]), x[root, t])
                assert chevalley_generator("n", root, t).rows == n_t
                assert (chevalley_generator("h", root, t).rows
                        == dense(n_t, transpose(n_1)))

    def test_each_generator_is_built_once(self):
        root = (1, 0, -1)
        for kind, t in itertools.product("xnh", (1, -1)):
            first = chevalley_generator(kind, root, t)
            assert chevalley_generator(kind, list(root), t) is first

    def test_ranks_2_to_5_fit_the_bound(self):
        extweyl._generator.cache_clear()
        for n in (2, 3, 4, 5):
            for root, kind, t in itertools.product(
                    build_root_system(n), "xnh", (1, -1)):
                chevalley_generator(kind, root, t)
        info = extweyl._generator.cache_info()
        assert info.currsize == info.misses == 648
        assert info.maxsize == extweyl.CHEVALLEY_CACHE_SIZE >= 648


class TestMatrixClosure:
    @staticmethod
    def verify_extweyl_generators():
        """The generator lists that ``verify extweyl`` closes on its
        default grid: the h_alpha(-1) of C_n, and the simple-root lifts of
        each rank-l subsystem."""
        _, _, grids = SUITES["extweyl"]
        for n in grids["n"]:
            yield [chevalley_generator("h", r, -1)
                   for r in build_root_system(n)]
            for l in sorted({build_twist_elements(n, d).l
                             for d in grids["d"]} - {0}):
                yield [chevalley_generator("n", r, 1)
                       for r in _embedded_simple_roots(n, l)]

    def test_matches_the_loop_on_matrices(self):
        # Same elements in the same order as the breadth-first loop on
        # the matrices themselves.
        checked = 0
        for gens in self.verify_extweyl_generators():
            identity = IntMatrix.identity(gens[0].dim)
            want = generic_closure(gens, identity, DEFAULT_CLOSURE_CAP)
            got = matrix_closure(gens)
            assert [g.rows for g in got] == [g.rows for g in want]
            checked += len(got)
        assert checked == 7004

    def test_non_monomial_generator_raises(self):
        gens = [chevalley_generator("n", (1, -1), 1),
                chevalley_generator("x", (1, -1), 1)]
        with pytest.raises(ValueError, match="not a signed monomial"):
            matrix_closure(gens)


class TestRho:
    def test_identity(self):
        assert rho(IntMatrix.identity(4)) == SignedPerm.identity(2)

    def test_sign_flip(self):
        assert rho(chevalley_generator("n", (2,), 1)) == sp("(1,-1)", 1)

    def test_transposition(self):
        assert rho(chevalley_generator("n", (1, -1), 1)) == sp("(1,2)(-1,-2)", 2)

    def test_kernel_element(self):
        m = mat((-1, 0, 0, 0), (0, -1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1))
        assert rho(m) == SignedPerm.identity(2)

    def test_rejects_non_monomial(self):
        with pytest.raises(ValueError):
            rho(chevalley_generator("x", (2, 0), 1))

    def test_homomorphism_on_samples(self):
        system = build_root_system(2)
        mats = [chevalley_generator("n", r, 1) for r in system]
        for a, b in itertools.product(mats, repeat=2):
            assert rho(a * b) == rho(a) * rho(b)

    def test_image_is_what_rho_reads(self):
        # rho wraps rho_image; on the whole of V_2 the two agree.
        mats = [chevalley_generator("n", r, 1) for r in build_root_system(2)]
        group = matrix_closure(mats)
        assert len(group) == 4 ** 2 * 2
        for m in group:
            assert rho_image(m.signed_perm().img) == rho(m).img

    def test_image_rejects_broken_patterns(self):
        with pytest.raises(ValueError, match="odd dimension"):
            rho_image((1, 2, 3))
        with pytest.raises(ValueError, match="symplectic pairing"):
            rho_image((1, 3, 2, 4))


class TestTwistElements:
    def test_n2_d4(self):
        te = build_twist_elements(2, 4)
        assert rho(te.v) == sp("(1,2,-1,-2)", 2)
        assert te.v == te.v0
        assert len(te.c) == 1 and len(te.p) == 0
        assert rho(te.c[0]) == sp("(1,2,-1,-2)", 2)
        assert te.v_prime == te.c[0]
        assert te.c[0] * te.v == te.v * te.c[0]
        assert len(matrix_closure([te.c[0]])) == 8
        assert te.p_pair[(1, 1)] == IntMatrix.identity(4)

    def test_n2_d1(self):
        te = build_twist_elements(2, 1)
        assert rho(te.v) == SignedPerm.identity(2)
        assert len(te.c) == 2 and len(te.p) == 1
        assert te.h[0] == mat(
            (-1, 0, 0, 0), (0, 1, 0, 0), (0, 0, -1, 0), (0, 0, 0, 1))
        assert te.p[0] * te.p[0] == te.h[0] * te.h[1]
        assert rho(te.p[0]) == sp("(1,2)(-1,-2)", 2)
        assert te.c[1] == te.c[0].conj(te.p[0])
        assert rho(te.c[0]) == sp("(1,-1)", 2)
        assert rho(te.c[1]) == sp("(2,-2)", 2)

    def test_n3_d3(self):
        te = build_twist_elements(3, 3)
        assert rho(te.v) == sylow_twist_w(3, 3) == sp("(1,3,-2)(-1,-3,2)", 3)
        assert rho(te.v0) == sp("(1,2,3,-1,-2,-3)", 3)

    def test_n4_d4(self):
        te = build_twist_elements(4, 4)
        assert rho(te.v) == sylow_twist_w(4, 4)
        assert rho(te.c[0]) == wprime((1, 3), 4)
        assert rho(te.c[1]) == wprime((2, 4), 4)
        assert te.c[1] == te.c[0].conj(te.p[0])
        assert rho(te.p[0]) == tau((1, 3), (2, 4), 4)
        assert te.p[0] * te.p[0] == te.h[0] * te.h[1]
        assert te.p_pair[(1, 2)] == te.p[0]
        assert te.p_pair[(1, 1)] == IntMatrix.identity(8)

    def test_degenerate_twist(self):
        te = build_twist_elements(2, 8)
        assert te.v == te.v0 == IntMatrix.identity(4)
        assert te.c == () and te.p == () and te.p_pair == {}
        assert te.v_prime == IntMatrix.identity(4)

    def _extended_weyl_group(self, n, l):
        if l == 0:
            return [IntMatrix.identity(2 * n)]
        gens = []
        for root in build_root_system(max(l, 2)):
            if l == 1 and any(root[i] for i in range(1, len(root))):
                continue
            full = tuple(root) + (0,) * (n - len(root))
            gens.append(chevalley_generator("n", full, 1))
        return matrix_closure(gens)

    def test_v_prime_central_in_Vd(self):
        for n, d in itertools.product((2, 3), (1, 2, 3, 4)):
            te = build_twist_elements(n, d)
            l = te.l
            Vl = self._extended_weyl_group(n, l)
            assert len(Vl) == 4 ** l * (1 if l < 2 else
                                        2 if l == 2 else 6)
            Vd = [g for g in Vl if g * te.v == te.v * g]
            for g in Vd:
                assert te.v_prime * g == g * te.v_prime

    def test_rho_Vd_is_centralizer(self):
        for n, d in itertools.product((2, 3), (1, 2, 3, 4)):
            te = build_twist_elements(n, d)
            l = te.l
            if l == 0:
                continue
            Vl = self._extended_weyl_group(n, l)
            Vd = [g for g in Vl if g * te.v == te.v * g]
            w = sylow_twist_w(n, d)
            small = [g for g in group_closure(
                [wprime((i,), n) for i in range(1, l + 1)]
                + ([tau((i,), (i + 1,), n) for i in range(1, l)] or
                   [SignedPerm.identity(n)]))
                if all(g(i) == i for i in range(l + 1, n + 1))]
            cent = {g for g in small if g * w == w * g}
            assert {rho(g) for g in Vd} == cent


def _without_diagonals(kind, root, t):
    """chevalley_generator with every h_alpha(t) the identity."""
    if kind == "h":
        return IntMatrix.identity(2 * len(root))
    return chevalley_generator(kind, root, t)


class TestTwistGuards:
    """Each check of build_twist_elements, reached by crafting a helper
    it reads; the message names the check that failed."""

    @staticmethod
    def _message(monkeypatch, n, d, **crafted):
        for name, value in crafted.items():
            monkeypatch.setattr(extweyl, name, value)
        with pytest.raises(VerificationError) as err:
            build_twist_elements(n, d)
        return str(err.value)

    def test_v_must_lift_the_sylow_twist(self, monkeypatch):
        message = self._message(monkeypatch, 2, 4, sylow_twist_w=lambda n, d:
                                SignedPerm.identity(n))
        assert message.startswith("lift v does not project onto the Sylow")

    def test_c_1_must_lift_w_prime(self, monkeypatch):
        message = self._message(monkeypatch, 2, 4, wprime=lambda J, n:
                                SignedPerm.identity(n))
        assert message.startswith("c_1 does not lift w'_J on J = (1, 2)")

    def test_c_1_needs_a_diagonal_correction(self, monkeypatch):
        # At n = 2, d = 4 the long cycle c_1 commutes with v only after a
        # nonzero diagonal correction, and here every diagonal is 1.
        message = self._message(monkeypatch, 2, 4,
                                chevalley_generator=_without_diagonals)
        assert message.startswith("no diagonal correction makes c_1")

    def test_p_1_must_lift_the_swap(self, monkeypatch):
        message = self._message(monkeypatch, 2, 1, tau=lambda J, K, n:
                                SignedPerm.identity(n))
        assert message.startswith("p_1 does not lift the swap of grid sets")

    def test_p_1_must_square_to_the_diagonals(self, monkeypatch):
        # At n = 2, d = 1 c_1 needs no correction, so the trivial
        # diagonals first fail p_1^2 = h_1 h_2.
        message = self._message(monkeypatch, 2, 1,
                                chevalley_generator=_without_diagonals)
        assert message.startswith("p_1^2 != h_1 h_2")

    def test_c_2_must_lift_w_prime(self, monkeypatch):
        # w'_J is the identity off the first grid set only, so c_1 passes
        # and its conjugate c_2 fails.
        message = self._message(monkeypatch, 2, 1, wprime=lambda J, n:
                                wprime(J, n) if 1 in J
                                else SignedPerm.identity(n))
        assert message.startswith("c_2 does not lift w'_J on grid set 2")

    def test_v_prime_must_commute_with_v(self, monkeypatch):
        # Once v is built (from the first h on), n_{e_1 - e_2} is followed
        # by the sign -1 on e_1 and e_2.  ρ reads no signs, and the signs
        # are fixed by the swap, so p_1 keeps its projection and its
        # square; but v moves them, so p_1, c_2 = c_1^p_1 and v' = c_1 c_2
        # no longer commute with v.
        signs = IntMatrix([[-1 if i == j < 2 else int(i == j)
                            for j in range(8)] for i in range(8)])
        kinds = []

        def crafted(kind, root, t):
            kinds.append(kind)
            m = chevalley_generator(kind, root, t)
            if "h" in kinds and (kind, root) == ("n", (1, -1, 0, 0)):
                return m * signs
            return m

        message = self._message(monkeypatch, 4, 4,
                                chevalley_generator=crafted)
        assert message.startswith("v_prime does not commute with v")


class TestBuildVdI:
    def test_single_orbit_example(self):
        label = LeviLabel(2, 4, (), ((1,), (2,)))
        gens, hs = build_VdI(label)
        V = matrix_closure(gens)
        assert len(V) == 8
        image = {rho(m) for m in V}
        rw = relative_weyl(label)
        assert image == set(group_closure(rw.generators))
        H = matrix_closure(hs)
        assert len(H) == 2
        kernel = {m for m in V if rho(m) == SignedPerm.identity(2)}
        assert kernel == set(H)

    def test_two_orbits_example(self):
        label = LeviLabel(2, 1, (), ((1,), (2,)))
        gens, hs = build_VdI(label)
        V = matrix_closure(gens)
        assert len(V) == 32
        H = matrix_closure(hs)
        assert len(H) == 4
        assert len({rho(m) for m in V}) == 8

    def _kappa_check_with(self, monkeypatch, label, **swapped):
        """The message build_VdI raises when the twist elements it reads
        have the fields named in ``swapped`` replaced by others."""
        build = extweyl.build_twist_elements

        def crafted(n, d):
            te = build(n, d)
            return te._replace(**{field: getattr(te, other)
                                  for field, other in swapped.items()})

        monkeypatch.setattr(extweyl, "build_twist_elements", crafted)
        with pytest.raises(VerificationError) as err:
            build_VdI(label)
        return str(err.value)

    def test_kappa_of_a_cycle_in_place_of_h_is_not_diagonal(self,
                                                            monkeypatch):
        # c_1 in place of h_1: κ(c_1) lifts w'_Q, not the identity.
        message = self._kappa_check_with(
            monkeypatch, LeviLabel(2, 4, (), ((1,), (2,))), h="c")
        assert message.startswith("kappa(h_1) is not diagonal")

    def test_kappa_of_a_diagonal_in_place_of_c_lifts_no_cycle(self,
                                                              monkeypatch):
        # h_1 in place of c_1: κ(h_1) is diagonal, so it lifts no w'_Q.
        message = self._kappa_check_with(
            monkeypatch, LeviLabel(2, 4, (), ((1,), (2,))), c="h")
        assert message.startswith("kappa(c_1) does not lift w'_Q on Q = ")

    def test_kappa_of_a_diagonal_in_place_of_p_lifts_no_swap(self,
                                                             monkeypatch):
        # Two orbits of one block size: h in place of p, so κ(p_1) is
        # diagonal and lifts no swap of the two Q sets.
        message = self._kappa_check_with(
            monkeypatch, LeviLabel(2, 1, (), ((1,), (2,))), p="h")
        assert message.startswith("kappa(p_1) does not lift the swap of ")

    def test_empty_blocks(self):
        label = LeviLabel(2, 1, (1, 2), ())
        gens, hs = build_VdI(label)
        assert gens == () and hs == ()

    def test_rank_cap(self):
        # build_VdI only builds generators, at any rank; the closure of
        # them is what stays under the cap.  The rank-5 torus lifts to
        # 2^5 (2^5 5!) = 122880 matrices, past the default cap 20000.
        label = LeviLabel(5, 1, (), ((1,), (2,), (3,), (4,), (5,)))
        gens, hs = build_VdI(label)
        assert len(matrix_closure(hs)) == 2 ** 5
        with pytest.raises(ClosureExceedsCap):
            matrix_closure(gens)
        assert build_VdI(LeviLabel(5, 1, tuple(range(1, 6)), ())) == ((), ())

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_rank_5_generators_lift_the_relative_weyl_group(self, d):
        # Every generator of V_d^I is a diagonal h (ρ-image the
        # identity) or lifts the relative Weyl generator in its place.
        ident = SignedPerm.identity(5)
        for label in enumerate_labels(5, d):
            gens, hs = build_VdI(label)
            assert all(rho(h) == ident for h in hs)
            assert (tuple(rho(g) for g in gens if g not in hs)
                    == relative_weyl(label).generators), label

    def test_sweep_small_rank(self):
        for n, d in itertools.product((2, 3), (1, 2, 3, 4)):
            te = build_twist_elements(n, d)
            for label in enumerate_labels(n, d):
                gens, hs = build_VdI(label)
                rw = relative_weyl(label)
                if not label.I:
                    assert gens == () and hs == ()
                    continue
                for g in gens:
                    assert is_symplectic(g)
                    assert g * te.v == te.v * g
                V = matrix_closure(gens)
                expected = 1
                for s, ts in label.t.items():
                    expected *= 2 ** ts
                assert len(V) == expected * rw.order
                image = {rho(m) for m in V}
                assert image == set(group_closure(rw.generators))
                H = matrix_closure(hs)
                assert len(H) == expected
                for a in H:
                    assert a * a == IntMatrix.identity(2 * n)
                    for b in H:
                        assert a * b == b * a
                kernel = {m for m in V
                          if rho(m) == SignedPerm.identity(n)}
                assert kernel == set(H)
