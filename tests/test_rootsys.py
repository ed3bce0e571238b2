"""Oracle tests for the root system of type C_n and its reflections.

Expected values below were derived by hand from the defining tables
(root count 2n²; reflection images; the signed group of order 2^n n!)
before the implementation existed.
"""

import itertools
from math import factorial

import pytest

from dsplitlevi.levi import concrete_parabolic_roots
from dsplitlevi.rootsys import (
    apply_to_root,
    build_root_system,
    is_stable_under,
    reflection_perm,
)
from dsplitlevi.signedperm import SignedPerm, group_closure, signed_symmetric_group


def sp(text, n):
    return SignedPerm.from_cycles(text, n)


def simple_roots(n):
    """The standard base e_1-e_2, ..., e_{n-1}-e_n, 2e_n of C_n."""
    out = []
    for i in range(n - 1):
        v = [0] * n
        v[i], v[i + 1] = 1, -1
        out.append(tuple(v))
    v = [0] * n
    v[n - 1] = 2
    out.append(tuple(v))
    return out


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

class TestBuild:
    def test_root_counts(self):
        assert len(build_root_system(2)) == 8
        assert len(build_root_system(3)) == 18
        assert len(build_root_system(4)) == 32
        assert build_root_system(2) == (
            (-2, 0), (-1, -1), (-1, 1), (0, -2),
            (0, 2), (1, -1), (1, 1), (2, 0))

    def test_count_formulas_generic(self):
        for n in range(2, 7):
            assert len(build_root_system(n)) == 2 * n * n

    def test_simple_systems(self):
        # e_1-e_2, ..., e_{n-1}-e_n, 2e_n is a base: every root is an
        # integer combination of it with coefficients all >= 0 or all
        # <= 0 (coefficient k < n is the k-th partial sum of the
        # coordinates, coefficient n half the full sum).
        assert simple_roots(3) == [(1, -1, 0), (0, 1, -1), (0, 0, 2)]
        for n in (2, 3, 4):
            for r in build_root_system(n):
                coeffs = [sum(r[:k]) for k in range(1, n)]
                assert sum(r) % 2 == 0
                coeffs.append(sum(r) // 2)
                assert all(c >= 0 for c in coeffs) or all(
                    c <= 0 for c in coeffs), r

    def test_roots_sorted_and_distinct(self):
        for n in (2, 3, 4):
            roots = build_root_system(n)
            assert list(roots) == sorted(set(roots))

    def test_rank_bounds(self):
        with pytest.raises(ValueError):
            build_root_system(1)


# ---------------------------------------------------------------------------
# reflections as signed permutations
# ---------------------------------------------------------------------------

class TestReflections:
    def test_table(self):
        assert reflection_perm((1, -1, 0), 3) == sp("(1,2)", 3)
        assert reflection_perm((1, 1, 0), 3) == sp("(1,-2)", 3)
        assert reflection_perm((2, 0, 0), 3) == sp("(1,-1)", 3)
        assert reflection_perm((0, 0, -2), 3) == sp("(3,-3)", 3)

    def test_non_root_rejected(self):
        with pytest.raises(ValueError):
            reflection_perm((1, 1, 1), 3)
        with pytest.raises(ValueError):
            reflection_perm((2, 1, 0), 3)
        with pytest.raises(ValueError):
            reflection_perm((0, 1, 0), 3)   # a short root of type B

    def test_weyl_group_of_type_c_is_signed_symmetric(self):
        # W(C_n) is generated by the simple reflections.
        for n in (2, 3, 4):
            order = 2 ** n * factorial(n)
            W = group_closure(
                [reflection_perm(a, n) for a in simple_roots(n)], cap=order)
            assert len(W) == order
            assert set(W) == set(signed_symmetric_group(n))

    def test_perm_action_matches_linear_reflection(self):
        # x = f(r_alpha) acts on the e-basis exactly as the reflection
        # beta |-> beta - 2(beta,alpha)/(alpha,alpha) alpha.
        for n in (2, 3, 4):
            roots = build_root_system(n)
            for alpha in roots:
                x = reflection_perm(alpha, n)
                aa = sum(c * c for c in alpha)
                for beta in roots:
                    ba = sum(b * a for b, a in zip(beta, alpha))
                    expected = tuple(
                        b - 2 * ba * a // aa for b, a in zip(beta, alpha))
                    assert apply_to_root(x, beta) == expected

    def test_apply_is_an_action(self):
        x, y = sp("(1,2,-1,-2)", 3), sp("(2,3)(1,-1)", 3)
        for r in build_root_system(3):
            assert apply_to_root(x * y, r) == apply_to_root(x, apply_to_root(y, r))


# ---------------------------------------------------------------------------
# parabolic subsystems Φ_{m,I}: the full C-subsystem on {m+1..n} and
# e_i - e_j inside every block of I
# ---------------------------------------------------------------------------

def parabolic(n, m, blocks):
    return concrete_parabolic_roots(n, range(m + 1, n + 1), blocks)


class TestParabolicRoots:
    def test_singleton_blocks_give_no_roots(self):
        assert parabolic(2, 2, ((1,), (2,))) == ()

    def test_full_system(self):
        assert parabolic(2, 0, ()) == build_root_system(2)

    def test_single_a1_block(self):
        roots = parabolic(3, 3, ((1, 2),))
        assert set(roots) == {(1, -1, 0), (-1, 1, 0)}

    def test_mixed_label(self):
        roots = parabolic(4, 2, ((1, 2),))
        expected = {(1, -1, 0, 0), (-1, 1, 0, 0),
                    (0, 0, 2, 0), (0, 0, -2, 0), (0, 0, 0, 2), (0, 0, 0, -2),
                    (0, 0, 1, -1), (0, 0, -1, 1),
                    (0, 0, 1, 1), (0, 0, -1, -1)}
        assert set(roots) == expected


def stable_label_criterion(label, x, n):
    """Blockwise stability test for Φ_{m,I} under a signed permutation.

    x stabilises Φ_{m,I} iff bar(x) preserves {m+1..n} and every block
    of size ≥ 2 is mapped onto a block of I with x of constant sign on
    it.  (Singleton blocks impose nothing: their type-A part is empty.)
    """
    m, blocks = label
    blockset = {frozenset(b) for b in blocks}
    if any(abs(x(j)) <= m for j in range(m + 1, n + 1)):
        return False
    for J in blocks:
        if len(J) < 2:
            continue
        if frozenset(abs(x(i)) for i in J) not in blockset:
            return False
        if len({x.sign(i) for i in J}) != 1:
            return False
    return True


class TestStability:
    def test_swap_stabilises_a_block(self):
        roots = parabolic(2, 2, ((1, 2),))
        assert is_stable_under(roots, sp("(1,2)", 2))

    def test_sign_flip_breaks_a_block(self):
        roots = parabolic(2, 2, ((1, 2),))
        assert not is_stable_under(roots, sp("(1,-1)", 2))

    def test_everything_stabilises_full_system(self):
        roots = build_root_system(2)
        for x in signed_symmetric_group(2):
            assert is_stable_under(roots, x)

    def test_matches_blockwise_criterion_exhaustively(self):
        # every (m, I) label with I a partition of a subset of {1..m},
        # against every signed permutation, ranks 2 and 3
        for n in (2, 3):
            G = signed_symmetric_group(n)
            for m in range(n + 1):
                for blocks in _sub_partitions(m):
                    label = (m, blocks)
                    roots = parabolic(n, m, blocks)
                    for x in G:
                        assert (is_stable_under(roots, x)
                                == stable_label_criterion(label, x, n)), (
                            label, x)


def _sub_partitions(m):
    """All partitions of all subsets of {1..m} (blocks sorted by min)."""
    out = [()]
    for size in range(1, m + 1):
        for subset in itertools.combinations(range(1, m + 1), size):
            out.extend(_partitions_of(subset))
    return out


def _partitions_of(points):
    if not points:
        return [()]
    first, rest = points[0], points[1:]
    out = []
    for size in range(len(rest) + 1):
        for tail in itertools.combinations(rest, size):
            block = (first,) + tail
            remaining = tuple(p for p in rest if p not in tail)
            for sub in _partitions_of(remaining):
                out.append(tuple(sorted((block,) + sub, key=min)))
    return out
