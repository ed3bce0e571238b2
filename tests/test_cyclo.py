"""Oracle tests for exact cyclotomic arithmetic and the eigenspace test.

Hand-derived expectations: the d=4 eigenvector of the signed 4-cycle,
sign-flip eigenvectors at d=2, and the small root-space perps worked
out on paper.  The equivalence check at the bottom compares the exact
linear-algebra test against an independently coded combinatorial
criterion (orbit lengths of blocks under the bar projection).
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from dsplitlevi.cyclo import (
    CycNum,
    CycVector,
    check_eq1,
    eigenspace_basis,
    primitive_power_sign_check,
    zeta,
)
from dsplitlevi.rootsys import build_root_system, is_stable_under, parabolic_roots
from dsplitlevi.signedperm import SignedPerm, set_partitions, wprime


def sp(text, n):
    return SignedPerm.from_cycles(text, n)


@st.composite
def cycnums(draw, d=None):
    if d is None:
        d = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12]))
    deg = len(CycNum.zero(d).coeffs)
    coeffs = draw(st.tuples(*[st.fractions(
        min_value=-3, max_value=3, max_denominator=3)] * deg))
    return CycNum(d, coeffs)


@st.composite
def int_cycnums(draw, d):
    deg = len(CycNum.zero(d).coeffs)
    return CycNum(d, draw(st.tuples(*[st.integers(-5, 5)] * deg)))


# ---------------------------------------------------------------------------
# field arithmetic
# ---------------------------------------------------------------------------

class TestCycNum:
    def test_zeta_power_relations(self):
        for d in range(1, 13):
            z = zeta(d)
            assert z ** d == CycNum.one(d)
            if d > 1:
                assert z ** (d - 1) != CycNum.one(d)

    def test_cyclotomic_polynomial_vanishes(self):
        # Phi_4(i) = i^2 + 1 = 0, Phi_6(z) = z^2 - z + 1 = 0, etc.
        assert (zeta(4) ** 2 + CycNum.one(4)).is_zero()
        assert (zeta(6) ** 2 - zeta(6) + CycNum.one(6)).is_zero()
        assert (zeta(3) ** 2 + zeta(3) + CycNum.one(3)).is_zero()

    def test_known_values(self):
        assert zeta(2) == CycNum.from_rational(-1, 2)
        assert zeta(4, 2) == CycNum.from_rational(-1, 4)
        assert zeta(1) == CycNum.one(1)

    @given(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12]).flatmap(
        lambda d: st.tuples(*(cycnums(d),) * 3)))
    def test_ring_axioms(self, triple):
        a, b, c = triple
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a

    @given(st.sampled_from([2, 3, 4, 5, 8, 12]).flatmap(lambda d: cycnums(d)))
    def test_multiplicative_inverse(self, a):
        if a.is_zero():
            return
        assert a * a.inv() == CycNum.one(a.d)
        assert a / a == CycNum.one(a.d)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            CycNum.one(4) / CycNum.zero(4)

    def test_promotion_embeds_roots_of_unity(self):
        assert zeta(2).promote(4) == zeta(4, 2)
        assert zeta(3).promote(6) == zeta(6, 2)
        assert zeta(4).promote(12) == zeta(12, 3)
        with pytest.raises(ValueError):
            zeta(4).promote(6)

    @given(st.sampled_from([(2, 4), (3, 6), (4, 8), (6, 12)]).flatmap(
        lambda dD: st.tuples(st.just(dD[1]), cycnums(dD[0]), cycnums(dD[0]))))
    def test_promotion_is_a_ring_hom(self, args):
        D, a, b = args
        assert (a * b).promote(D) == a.promote(D) * b.promote(D)
        assert (a + b).promote(D) == a.promote(D) + b.promote(D)

    def test_galois_and_conjugation(self):
        assert zeta(8).galois(3) == zeta(8, 3)
        assert zeta(8) * zeta(8).conjugate() == CycNum.one(8)
        assert zeta(5).conjugate() == zeta(5, 4)
        with pytest.raises(ValueError):
            zeta(8).galois(2)

    def test_rational_scalar_ops(self):
        assert zeta(4) * 2 == zeta(4) + zeta(4)
        assert zeta(4) * Fraction(1, 2) + zeta(4) * Fraction(1, 2) == zeta(4)

    @given(st.sampled_from([1, 2, 3, 4, 5, 8, 12]).flatmap(
        lambda d: st.tuples(
            int_cycnums(d), int_cycnums(d), cycnums(d),
            st.sampled_from([1, 2, 3]),
            st.sampled_from([k for k in range(1, d + 1) if gcd(k, d) == 1]))))
    def test_coefficients_are_int_or_fraction(self, args):
        # Integral coefficients are ints, the rest Fractions; no float
        # (int / int) and no Fraction with denominator 1 ever appears.
        a, b, q, m, k = args
        D = a.d * m
        for x in (a + b, a - b, -a, a * b, a * 3, a.promote(D),
                  a.galois(k), a.conjugate()):
            assert all(type(c) is int for c in x.coeffs), x
        results = [a + q, a * q, q.promote(D), q.galois(k), q.conjugate()]
        for x, y in ((a, q), (q, a), (b, a), (a, zeta(a.d, k))):
            if not y.is_zero():
                results += [y.inv(), x / y]
        for x in results:
            assert all(type(c) is int
                       or (type(c) is Fraction and c.denominator != 1)
                       for c in x.coeffs), x


# ---------------------------------------------------------------------------
# eigenspaces of signed permutations
# ---------------------------------------------------------------------------

class TestEigenspace:
    def test_signed_four_cycle_at_d4(self):
        basis = eigenspace_basis(sp("(1,2,-1,-2)", 2), 4, 1)
        assert len(basis) == 1
        (v,) = basis
        # v is proportional to (zeta4, 1)
        assert v[0] * CycNum.one(4) == zeta(4) * v[1]
        # and really is an eigenvector: pi . v = zeta4 . v
        image = [v[1] * (-1), v[0]]        # pi: e1 -> e2, e2 -> -e1
        assert image[0] == zeta(4) * v[0]
        assert image[1] == zeta(4) * v[1]

    def test_identity_at_d1_is_full_space(self):
        basis = eigenspace_basis(SignedPerm.identity(3), 1, 1)
        assert len(basis) == 3

    def test_single_flip_at_d2(self):
        basis = eigenspace_basis(sp("(1,-1)", 2), 2, 1)
        assert len(basis) == 1
        (v,) = basis
        assert not v[0].is_zero()
        assert v[1].is_zero()

    def test_identity_at_d2_is_empty(self):
        assert eigenspace_basis(SignedPerm.identity(2), 2, 1) == []

    def test_primitivity_of_power_enforced(self):
        with pytest.raises(ValueError):
            eigenspace_basis(SignedPerm.identity(2), 4, 2)

    def test_dimensions_sum_over_all_powers(self):
        # Sum of eigenspace dimensions over all d-th roots of unity
        # (primitive for each divisor) equals n, for a few elements.
        for text, n, order in [("(1,2,-1,-2)", 2, 4), ("(1,2,3,-1,-2,-3)", 3, 6),
                               ("(1,2)(3,-3)", 3, 2)]:
            x = sp(text, n)
            total = 0
            for e in range(1, order + 1):
                if order % e == 0:
                    for k in range(1, e + 1):
                        if gcd(k, e) == 1:
                            total += len(eigenspace_basis(x, e, k))
            assert total == n, text


# ---------------------------------------------------------------------------
# the exact subspace test
# ---------------------------------------------------------------------------

class TestCheckEq1:
    def test_empty_label_passes_for_regular_twist(self):
        c2 = build_root_system("C", 2)
        assert check_eq1(sp("(1,2,-1,-2)", 2), 4, [], c2)

    def test_full_system_always_passes(self):
        c2 = build_root_system("C", 2)
        assert check_eq1(sp("(1,2,-1,-2)", 2), 4, c2.roots, c2)

    def test_unstable_block_fails(self):
        c2 = build_root_system("C", 2)
        roots = parabolic_roots(c2, (2, ((1, 2),)))
        assert not check_eq1(sp("(1,2,-1,-2)", 2), 4, roots, c2)

    def test_blocks_at_d2_pass(self):
        # w = iota at d=2 (d0=1): every block sits in an orbit of length
        # 1 = d0, and both the singleton and the two-element label pass.
        c2 = build_root_system("C", 2)
        w = sp("(1,-1)(2,-2)", 2)
        assert check_eq1(w, 2, parabolic_roots(c2, (2, ((1,), (2,)))), c2)
        two_block = parabolic_roots(c2, (2, ((1, 2),)))
        assert is_stable_under(two_block, w)
        assert check_eq1(w, 2, two_block, c2)

    def test_wrong_orbit_length_fails(self):
        # At d=8 the rank is too small to twist (w = identity), so the
        # singleton blocks sit in orbits of length 1 != d0 = 4 and fail,
        # while the m=0 label (the full system) still passes.
        c2 = build_root_system("C", 2)
        w = SignedPerm.identity(2)
        bad = parabolic_roots(c2, (2, ((1,), (2,))))
        assert is_stable_under(bad, w)
        assert not check_eq1(w, 8, bad, c2)
        assert check_eq1(w, 8, c2.roots, c2)


# ---------------------------------------------------------------------------
# the sign condition on powers of the twist
# ---------------------------------------------------------------------------

def sylow_twist_oracle(n, d):
    """Independent construction of the distinguished twist element."""
    d0 = d if d % 2 else d // 2
    l = (n // d0) * d0
    if l == 0:
        return SignedPerm.identity(n)
    w0 = wprime(tuple(range(1, l + 1)), n)
    wp = w0 ** (l // d0)
    return wp if d % 2 == 0 else wp * wp


class TestPrimitivePowerSign:
    def test_d4_rank2(self):
        assert primitive_power_sign_check(sp("(1,2,-1,-2)", 2), 4)

    def test_d1_vacuous(self):
        assert primitive_power_sign_check(SignedPerm.identity(2), 1)

    def test_d3_rank3(self):
        w = sylow_twist_oracle(3, 3)
        assert w == sp("(1,2,3,-1,-2,-3)", 3) ** 2
        assert primitive_power_sign_check(w, 3)

    def test_all_twists_up_to_rank4(self):
        for n in range(1, 5):
            for d in range(1, 9):
                assert primitive_power_sign_check(sylow_twist_oracle(n, d), d), (n, d)


# ---------------------------------------------------------------------------
# equivalence with the combinatorial criterion
# ---------------------------------------------------------------------------

def orbit_length_criterion(w, m, blocks, d, n):
    """Every block of the (full) partition lies in a bar(w)-orbit of
    length exactly d0, and bar(w) keeps {m+1..n} away from {1..m}."""
    d0 = d if d % 2 else d // 2
    if any(abs(w(j)) <= m for j in range(m + 1, n + 1)):
        return False
    blockmap = {}
    index = {frozenset(b): b for b in blocks}
    for b in blocks:
        image = frozenset(abs(w(i)) for i in b)
        if image not in index:
            return False
        blockmap[b] = index[image]
    for b in blocks:
        length, cur = 1, blockmap[b]
        while cur != b:
            cur = blockmap[cur]
            length += 1
        if length != d0:
            return False
    return True


@pytest.mark.parametrize("n", [2, 3])
def test_eq1_matches_orbit_criterion(n):
    sys = build_root_system("C", n)
    for d in range(1, 9):
        w = sylow_twist_oracle(n, d)
        for m in range(n + 1):
            for blocks in set_partitions(m) if m else [()]:
                roots = parabolic_roots(sys, (m, blocks))
                if not is_stable_under(roots, w):
                    continue
                assert check_eq1(w, d, roots, sys) == orbit_length_criterion(
                    w, m, blocks, d, n), (n, d, m, blocks)
