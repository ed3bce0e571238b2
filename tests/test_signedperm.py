"""Oracle tests for the signed-permutation layer.

Every non-trivial expected value in this file was worked out by hand
(cycle compositions, centralizer orders inside the order-8 and order-48
groups, counting formulas 2^n n!) before the implementation existed.
They are frozen here and must not be regenerated from the code under
test.
"""

import itertools
import random
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from dsplitlevi import signedperm
from dsplitlevi.cliff import _kinva_inputs, _kinva_key, enumerate_char_labels
from dsplitlevi.levi import enumerate_labels, sylow_twist_w
from dsplitlevi.signedperm import (
    CentralizerType,
    ClosureExceedsCap,
    SignedPerm,
    block_wreath_generators,
    block_wreath_normalizer_generators,
    brute_centralizer as table_centralizer,
    brute_normalizer,
    centralizer_type,
    closure,
    grid_set,
    group_closure,
    iota,
    set_partitions,
    signed_symmetric_group,
    tau,
    wprime,
)


def sp(text, n):
    return SignedPerm.from_cycles(text, n)


# ---------------------------------------------------------------------------
# hypothesis strategy: a uniform-ish random signed permutation of rank n
# ---------------------------------------------------------------------------

def signed_perms(n):
    return st.permutations(range(1, n + 1)).flatmap(
        lambda p: st.tuples(*[st.sampled_from([v, -v]) for v in p]).map(SignedPerm)
    )


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

class TestCompose:
    def test_involution_squares_to_identity(self):
        x = sp("(1,-1)", 1)
        assert x * x == SignedPerm.identity(1)

    def test_four_cycle_squares_to_double_sign_flip(self):
        # (1,2,-1,-2)^2: 1 -> 2 -> -1, 2 -> -1 -> -2, hence (1,-1)(2,-2).
        x = sp("(1,2,-1,-2)", 2)
        assert x * x == sp("(1,-1)(2,-2)", 2)

    def test_identity_laws(self):
        x = sp("(1,2,-1,-2)(3,-3)", 3)
        e = SignedPerm.identity(3)
        assert x * e == x
        assert e * x == x

    def test_composition_convention_is_a_after_b(self):
        # a = (1,2)(-1,-2), b = (2,-2): (a∘b)(2) = a(-2) = -1.
        a = sp("(1,2)", 2)
        b = sp("(2,-2)", 2)
        assert (a * b)(2) == -1
        assert (b * a)(2) == 1

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SignedPerm.identity(2) * SignedPerm.identity(3)

    @given(st.integers(2, 5).flatmap(lambda n: st.tuples(*(signed_perms(n),) * 3)))
    def test_associativity(self, triple):
        a, b, c = triple
        assert (a * b) * c == a * (b * c)

    @given(st.integers(1, 6).flatmap(lambda n: signed_perms(n)))
    def test_inverse_law(self, x):
        e = SignedPerm.identity(x.n)
        assert x * x.inv() == e
        assert x.inv() * x == e


# ---------------------------------------------------------------------------
# cycle notation
# ---------------------------------------------------------------------------

def cycle_data(x):
    """The cycles of x on {±1..±n}, fixed points included, split into the
    self-paired ones (α = -α as sets) and one of each pair {α, -α} of
    distinct cycles, the one through the smaller positive point.  Each
    is rotated to start at its smallest positive point, and each list
    is sorted by that start.  Every cycle is walked from every signed
    point and paired by frozenset, independently of the one walk of
    to_cycles and centralizer_type."""
    t = x.table()
    cycles, seen = [], set()
    for start in [*range(1, x.n + 1), *range(-1, -x.n - 1, -1)]:
        if start in seen:
            continue
        cyc = [start]
        p = t[start]
        while p != start:
            cyc.append(p)
            p = t[p]
        seen.update(cyc)
        cycles.append(tuple(cyc))
    self_paired, paired, used = [], [], set()
    for cyc in cycles:
        if frozenset(cyc) in used:
            continue
        used.add(frozenset(cyc))
        neg = tuple(-c for c in cyc)
        if frozenset(neg) == frozenset(cyc):
            bucket, chosen = self_paired, cyc
        else:
            used.add(frozenset(neg))
            bucket = paired
            least = min(c for c in cyc + neg if c > 0)
            chosen = cyc if least in cyc else neg
        start = chosen.index(min(c for c in chosen if c > 0))
        bucket.append(chosen[start:] + chosen[:start])
    self_paired.sort(key=lambda c: c[0])
    paired.sort(key=lambda c: c[0])
    return self_paired, paired


class TestCycleNotation:
    def test_emits_canonical_form(self):
        assert sp("(1,2,-1,-2)(3,-3)", 3).to_cycles() == "(1,2,-1,-2)(3,-3)"
        assert sp("(1,2)", 3).to_cycles() == "(1,2)"
        assert SignedPerm.identity(4).to_cycles() == "()"

    def test_negative_written_cycle_normalises(self):
        # (-1,-2) is the partner of (1,2); the positive representative wins.
        assert sp("(-1,-2)", 2) == sp("(1,2)", 2)
        assert sp("(-1,-2)", 2).to_cycles() == "(1,2)"

    def test_inconsistent_cycles_rejected(self):
        with pytest.raises(ValueError):
            SignedPerm.from_cycles("(1,2)(1,-2)", 2)
        with pytest.raises(ValueError):
            SignedPerm.from_cycles("(1,5)", 2)

    @given(st.integers(1, 6).flatmap(lambda n: signed_perms(n)))
    def test_roundtrip(self, x):
        assert SignedPerm.from_cycles(x.to_cycles(), x.n) == x

    @pytest.mark.parametrize("n", range(1, 6))
    def test_agrees_with_cycle_data_on_every_element(self, n):
        # cycle_data picks and rotates the written cycles on its own
        # (frozenset pairing, rotation, sort); to_cycles walks once.
        for x in signed_symmetric_group(n):
            self_paired, paired = cycle_data(x)
            written = sorted((c for c in self_paired + paired
                              if len(c) > 1), key=lambda c: c[0])
            expected = "".join(
                "(" + ",".join(map(str, c)) + ")" for c in written) or "()"
            assert x.to_cycles() == expected, x.img
            assert SignedPerm.from_cycles(expected, n) == x


# ---------------------------------------------------------------------------
# bar projection and signs
# ---------------------------------------------------------------------------

class TestCycleData:
    """The bar projection and the signs of an element."""

    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(signed_perms(n), signed_perms(n))))
    def test_bar_is_a_homomorphism(self, pair):
        a, b = pair
        assert (a * b).bar() == a.bar() * b.bar()

    def test_kernel_of_bar_has_order_two_to_the_n(self):
        for n in (1, 2, 3):
            ker = [x for x in signed_symmetric_group(n) if x.bar().is_identity()]
            assert len(ker) == 2**n

    @given(st.integers(2, 5).flatmap(lambda n: st.tuples(signed_perms(n), signed_perms(n))))
    def test_conjugation_transports_support(self, pair):
        x, g = pair
        moved = {p for p in range(1, x.n + 1) if x(p) != p}
        expected = {abs(g.inv()(p)) for p in moved}
        y = x.conj(g)
        assert {p for p in range(1, x.n + 1) if y(p) != p} == expected


# ---------------------------------------------------------------------------
# canonical generators
# ---------------------------------------------------------------------------

class TestMakeGenerator:
    def test_wprime_is_the_long_signed_cycle(self):
        assert wprime((1, 2, 3), 3) == sp("(1,2,3,-1,-2,-3)", 3)
        assert wprime((2,), 2) == sp("(2,-2)", 2)

    def test_tau_is_the_sign_respecting_swap(self):
        assert tau((1,), (2,), 2) == sp("(1,2)", 2)
        assert tau((1, 2), (3, 4), 4) == sp("(1,3)(2,4)", 4)

    def test_tau_of_equal_sets_is_identity(self):
        assert tau((1, 2), (1, 2), 3) == SignedPerm.identity(3)

    def test_tau_rejects_overlap_and_size_mismatch(self):
        with pytest.raises(ValueError):
            tau((1, 2), (2, 3), 3)
        with pytest.raises(ValueError):
            tau((1,), (2, 3), 3)

    def test_iota_flips_signs(self):
        assert iota((1, 3), 3) == sp("(1,-1)(3,-3)", 3)

    def test_grid_sets(self):
        assert grid_set(2, 1, 1) == (1, 2)
        assert grid_set(2, 3, 1) == (1, 4)
        assert grid_set(2, 3, 3) == (3, 6)
        assert grid_set(3, 2, 2) == (2, 4, 6)

    def test_wprime_has_order_2k(self):
        for k in (1, 2, 3):
            assert wprime(tuple(range(1, k + 1)), k).order() == 2 * k

    def test_tau_conjugates_wprime_to_wprime(self):
        t = tau((1, 2), (3, 4), 4)
        assert (t * t).is_identity()
        assert wprime((1, 2), 4).conj(t) == wprime((3, 4), 4)

    def test_tau_chain_identity_on_grid_partitions(self):
        # τ_{J_j, J_j'} equals τ_{J_j, J_{j+1}} conjugated along the chain
        # of adjacent swaps, for the grid partition of {1..k·m}.
        for k, m in [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6),
                     (2, 2), (2, 3), (3, 2)]:
            n = k * m
            J = [grid_set(k, m, i) for i in range(1, m + 1)]
            adj = [tau(J[j], J[j + 1], n) for j in range(m - 1)]
            for j in range(m):
                for jp in range(j + 1, m):
                    conjugator = SignedPerm.identity(n)
                    for t in adj[j + 1:jp]:
                        conjugator = conjugator * t
                    assert adj[j].conj(conjugator) == tau(J[j], J[jp], n), (k, m, j, jp)


# ---------------------------------------------------------------------------
# centralizer shapes (m1/m2 statistics and the predicted order)
# ---------------------------------------------------------------------------

def brute_centralizer(x, G):
    return [g for g in G if g * x == x * g]


class TestCentralizerType:
    def test_self_paired_four_cycle(self):
        ct = centralizer_type(sp("(1,2,-1,-2)", 2))
        assert ct.m1 == {2: 1}
        assert ct.m2 == {}
        assert ct.order == 4

    def test_identity(self):
        for n in (1, 2, 3, 4):
            ct = centralizer_type(SignedPerm.identity(n))
            assert ct.m1 == {}
            assert ct.m2 == {1: n}
            assert ct.order == 2**n * _factorial(n)

    def test_paired_transposition(self):
        ct = centralizer_type(sp("(1,2)", 2))
        assert ct.m1 == {}
        assert ct.m2 == {2: 1}
        assert ct.order == 4

    def test_brute_centralizer_matches_prediction_rank_le_3(self):
        for n in (1, 2, 3):
            G = signed_symmetric_group(n)
            for x in G:
                assert len(brute_centralizer(x, G)) == centralizer_type(x).order, x

    @pytest.mark.parametrize("n", range(1, 6))
    def test_agrees_with_cycle_data_on_every_element(self, n):
        # m1 counts the self-paired cycles by half length, m2 the pairs
        # by length, as cycle_data splits them.
        for x in signed_symmetric_group(n):
            self_paired, paired = cycle_data(x)
            m1, m2 = {}, {}
            for cyc in self_paired:
                m1[len(cyc) // 2] = m1.get(len(cyc) // 2, 0) + 1
            for cyc in paired:
                m2[len(cyc)] = m2.get(len(cyc), 0) + 1
            assert centralizer_type(x) == CentralizerType(m1, m2), x.img

    def test_point_count_invariant(self):
        for x in signed_symmetric_group(3):
            ct = centralizer_type(x)
            total = sum(2 * i * c for i, c in ct.m1.items())
            total += sum(2 * i * c for i, c in ct.m2.items())
            assert total == 2 * 3


def _factorial(n):
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


# ---------------------------------------------------------------------------
# closure and normalizers
# ---------------------------------------------------------------------------

class TestClosure:
    def test_single_involution(self):
        assert len(group_closure([sp("(1,-1)", 1)])) == 2

    def test_full_groups(self):
        assert len(signed_symmetric_group(3)) == 48
        assert len(signed_symmetric_group(4)) == 384

    def test_cap_enforced(self):
        gens = [iota((1,), 4), tau((1,), (2,), 4), tau((2,), (3,), 4),
                tau((3,), (4,), 4)]
        with pytest.raises(ClosureExceedsCap):
            group_closure(gens, cap=100)

    def test_deterministic_order(self):
        gens = [wprime((1, 2), 2), iota((1,), 2)]
        assert group_closure(gens) == group_closure(gens)
        assert group_closure(gens)[0].is_identity()

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 6).flatmap(
        lambda n: st.lists(signed_perms(n), min_size=1, max_size=3)))
    def test_image_tuple_path_matches_generic_loop(self, gens):
        identity = SignedPerm.identity(gens[0].n)
        cap = 3000
        try:
            want = generic_closure(gens, identity, cap)
        except ClosureExceedsCap:
            with pytest.raises(ClosureExceedsCap):
                closure(gens, identity, cap)
            return
        got = closure(gens, identity, cap)
        assert [x.img for x in got] == [x.img for x in want]
        assert got[0] is identity
        assert all(type(x) is SignedPerm for x in got)
        assert closure(gens, identity, len(want)) == got
        if len(want) > 1:
            with pytest.raises(ClosureExceedsCap):
                closure(gens, identity, len(want) - 1)

    def test_image_tuple_path_on_block_wreaths_at_rank_6(self):
        # Random generators at rank 6 almost always pass the cap, so the
        # complete groups there come from the block wreath products.
        identity = SignedPerm.identity(6)
        for blocks in set_partitions(6):
            signed = [len(J) == 1 for J in blocks]
            gens = block_wreath_generators(blocks, signed, 6)
            want = generic_closure(gens, identity, 20000)
            got = closure(gens, identity, 20000)
            assert [x.img for x in got] == [x.img for x in want], blocks

    def test_image_tuple_path_refuses_mixed_ranks(self):
        with pytest.raises(ValueError, match="mixed ranks"):
            closure([iota((1,), 3)], SignedPerm.identity(2), 100)


def generic_closure(gens, identity, cap):
    """The breadth-first loop on elements, for any hashable elements
    with ``*``: the oracle of ``closure``, which takes signed
    permutations only and runs on their image tuples, and of
    ``extweyl.matrix_closure``, which closes monomial matrices as
    signed permutations."""
    elems = [identity]
    seen = {identity}
    for x in elems:
        for g in gens:
            y = x * g
            if y not in seen:
                if len(elems) >= cap:
                    raise ClosureExceedsCap(f"closure exceeds cap {cap}")
                seen.add(y)
                elems.append(y)
    return elems


class TestBruteNormalizer:
    def test_single_flip_subgroup(self):
        G = signed_symmetric_group(2)
        H = group_closure([sp("(2,-2)", 2)])
        N = brute_normalizer(H, G)
        assert len(N) == 4
        assert set(N) == set(group_closure([sp("(1,-1)", 2), sp("(2,-2)", 2)]))

    def test_whole_group_and_trivial(self):
        G = signed_symmetric_group(2)
        assert set(brute_normalizer(G, G)) == set(G)
        assert set(brute_normalizer([SignedPerm.identity(2)], G)) == set(G)

    def test_non_subgroup_rejected(self):
        G = signed_symmetric_group(2)
        with pytest.raises(ValueError):
            brute_normalizer([sp("(1,2)", 2)], G)  # not closed (no identity)


def product_normalizer(H, G):
    """{g ∈ G : H^g = H} on SignedPerm products, with H's closure
    checked pair by pair: the oracle of ``brute_normalizer``, which
    forms the same products on image tuples."""
    H, G = list(H), list(G)
    hset = set(H)
    for a, b in itertools.product(H, H):
        if a * b not in hset:
            raise ValueError("H is not closed under composition")
    return [g for g in G if all(g.inv() * h * g in hset for h in H)]


def grid_subgroups(n):
    """The block wreath products of the acceptance grid at rank n and
    the cyclic subgroups of the rank-n signed group."""
    for blocks in set_partitions(n):
        for signed in itertools.product([False, True], repeat=len(blocks)):
            yield group_closure(block_wreath_generators(blocks, signed, n))
    for x in signed_symmetric_group(n):
        yield group_closure([x])


class TestImageTupleOracles:
    """brute_normalizer and brute_centralizer walk image tuples; they
    must return what the SignedPerm products give, in the same order."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_normalizer_matches_products(self, n):
        G = signed_symmetric_group(n)
        for H in grid_subgroups(n):
            assert brute_normalizer(H, G) == product_normalizer(H, G), H

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_centralizer_matches_products(self, n):
        G = signed_symmetric_group(n)
        for x in G:
            assert table_centralizer(x, G) == brute_centralizer(x, G), x

    def test_non_closed_set_rejected(self):
        # The identity is there, so only the closure check can see that
        # (1,2)∘(2,-2) is missing.
        G = signed_symmetric_group(2)
        H = [SignedPerm.identity(2), sp("(1,2)", 2), sp("(2,-2)", 2)]
        with pytest.raises(ValueError, match="not closed"):
            product_normalizer(H, G)
        with pytest.raises(ValueError, match="not closed"):
            brute_normalizer(H, G)

    def test_rank_mismatch_rejected(self):
        G2, G3 = signed_symmetric_group(2), signed_symmetric_group(3)
        e2 = [SignedPerm.identity(2)]
        with pytest.raises(ValueError, match="rank mismatch: 2 vs 3"):
            brute_normalizer(e2 + [G3[0]], G2 + G3)
        with pytest.raises(ValueError, match="rank mismatch: 3 vs 2"):
            brute_normalizer(e2, G2 + G3)
        with pytest.raises(ValueError, match="rank mismatch: 3 vs 2"):
            table_centralizer(G2[-1], G3)


# ---------------------------------------------------------------------------
# normalizers of products of wreath blocks
# ---------------------------------------------------------------------------

class TestBlockWreathNormalizer:
    def test_set_partitions_count(self):
        # Bell numbers 1, 2, 5, 15.
        for n, bell in [(1, 1), (2, 2), (3, 5), (4, 15)]:
            parts = list(set_partitions(n))
            assert len(parts) == bell
            assert len(set(map(tuple, parts))) == bell

    def test_set_partitions_are_ordered_as_built(self):
        for n in range(1, 9):
            parts = set_partitions(n)
            assert len(set(parts)) == len(parts)
            for p in parts:
                assert all(list(b) == sorted(b) for b in p)
                assert [min(b) for b in p] == sorted(min(b) for b in p)
                assert sorted(x for b in p for x in b) == list(range(1, n + 1))

    def test_prediction_matches_brute_force_rank_le_3(self):
        for n in (1, 2, 3):
            G = signed_symmetric_group(n)
            for blocks in set_partitions(n):
                for signed in itertools.product([False, True], repeat=len(blocks)):
                    H = group_closure(block_wreath_generators(blocks, signed, n))
                    predicted = group_closure(
                        block_wreath_normalizer_generators(blocks, signed, n))
                    assert set(brute_normalizer(H, G)) == set(predicted), (
                        blocks, signed)


# ---------------------------------------------------------------------------
# the product kernel: table-lookup composition on unchecked results
# ---------------------------------------------------------------------------

def _reference_image(a, b):
    """a∘b computed point by point through the public, range-checked call."""
    return tuple(a(b(i)) for i in range(1, a.n + 1))


def _validating_trusted(img):
    """Stands in for the unchecked constructor and validates every image."""
    return SignedPerm(img)


ranked_pairs = st.integers(1, 6).flatmap(
    lambda n: st.tuples(signed_perms(n), signed_perms(n)))


class TestKernel:
    @given(ranked_pairs)
    def test_product_acts_as_composition_on_every_signed_point(self, pair):
        a, b = pair
        ab = a * b
        for x in range(1, a.n + 1):
            assert ab(x) == a(b(x))
            assert ab(-x) == a(b(-x))

    @given(ranked_pairs)
    def test_products_equal_and_hash_as_validated_permutations(self, pair):
        a, b = pair
        for got, img in ((a * b, _reference_image(a, b)),
                         (a.bar(), tuple(abs(v) for v in a.img))):
            ref = SignedPerm(img)
            assert got == ref and got.img == img
            assert hash(got) == hash(ref) == hash(img)
            assert len({got, ref}) == 1

    @given(st.integers(1, 6).flatmap(signed_perms), st.integers(-7, 7))
    def test_powers_are_repeated_products(self, a, k):
        expected = SignedPerm.identity(a.n)
        for _ in range(abs(k)):
            expected = expected * (a if k >= 0 else a.inv())
        assert a ** k == expected

    @given(ranked_pairs, st.integers(-3, 5))
    def test_kernel_results_pass_validation(self, pair, k):
        a, b = pair
        fast = (a * b, a.inv(), a.bar(), a ** k, SignedPerm.identity(a.n))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(signedperm, "_trusted", _validating_trusted)
            checked = (a * b, a.inv(), a.bar(), a ** k,
                       SignedPerm.identity(a.n))
        assert fast == checked

    def test_closure_results_pass_validation(self):
        gens = [wprime((1, 2), 3), tau((2,), (3,), 3)]
        fast = group_closure(gens)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(signedperm, "_trusted", _validating_trusted)
            assert group_closure(gens) == fast

    def test_mixed_ranks_rejected(self):
        with pytest.raises(ValueError, match="rank mismatch"):
            wprime((1, 2), 2) * wprime((1, 2), 3)
        for x, g in ((SignedPerm((1, 2)), SignedPerm.identity(3)),
                     (SignedPerm.identity(3), SignedPerm((2, 1)))):
            with pytest.raises(ValueError, match="rank mismatch"):
                x.conj(g)
        with pytest.raises(ValueError, match="mixed ranks"):
            group_closure([iota((1,), 2), iota((1,), 3)])

    @pytest.mark.parametrize("build", [
        lambda: SignedPerm((1, 1)),
        lambda: SignedPerm((1, 3)),
        lambda: SignedPerm((0, 2)),
        lambda: SignedPerm((2, -2)),
        lambda: SignedPerm((1.0, 2)),
        lambda: SignedPerm.from_cycles("(1,4)", 3),
        lambda: SignedPerm.from_cycles("(1,2)(2,3)", 3),
        lambda: SignedPerm.from_cycles("(1,-1,2)", 3),
        lambda: wprime((), 3),
        lambda: wprime((2, 1), 3),
        lambda: wprime((1, 4), 3),
        lambda: tau((1,), (1, 2), 3),
        lambda: tau((1, 2), (2, 3), 3),
        lambda: tau((0,), (1,), 3),
        lambda: iota((3, 3), 3),
    ], ids=["repeat", "range", "zero", "sign-pair", "non-integer",
            "cycle-range", "cycle-clash", "cycle-inconsistent",
            "wprime-empty", "wprime-order", "wprime-range", "tau-size",
            "tau-overlap", "tau-range", "iota-repeat"])
    def test_public_constructors_still_validate(self, build):
        with pytest.raises(ValueError):
            build()

    def test_fixed_groups_are_built_once_and_immutable(self):
        for n in (1, 2, 3):
            G = signed_symmetric_group(n)
            assert G is signed_symmetric_group(n)
            assert isinstance(G, tuple) and len(G) == 2 ** n * factorial(n)
            assert G[0].is_identity()
            with pytest.raises(TypeError):
                G[0] = G[-1]
        for n, d in itertools.product(range(1, 6), range(1, 7)):
            assert sylow_twist_w(n, d) == sylow_twist_w(n, d)
            assert sylow_twist_w(n, d) is sylow_twist_w(n, d)


# ---------------------------------------------------------------------------
# the composition kernel against the table lookups it replaced
# ---------------------------------------------------------------------------

def lookup_product(a, b):
    """The images of a∘b for image tuples a and b, as every product was
    formed before the composition kernel: a's signed table looked up
    point by point along b's images."""
    t = (0,) + a + tuple(-v for v in reversed(a))
    return tuple(map(t.__getitem__, b))


def lookup_closure(gens, identity, cap):
    """The breadth-first closure on image tuples by point-by-point
    lookup: the oracle of ``closure``, element for element."""
    imgs = [g.img for g in gens]
    elems, seen = [identity.img], {identity.img}
    for x in elems:
        for g in imgs:
            y = lookup_product(x, g)
            if y not in seen:
                if len(elems) >= cap:
                    raise ClosureExceedsCap(f"closure exceeds cap {cap}")
                seen.add(y)
                elems.append(y)
    return elems


def lookup_normalizer(H, G):
    """{g ∈ G : g⁻¹hg ∈ H for every h ∈ H} by point-by-point lookup."""
    himgs = {h.img for h in H}
    return [g for g in G
            if all(lookup_product(lookup_product(g.inv().img, h.img), g.img)
                   in himgs for h in H)]


def lookup_centralizer(x, G):
    """{g ∈ G : g∘x = x∘g} by point-by-point lookup."""
    return [g for g in G if lookup_product(g.img, x.img)
            == lookup_product(x.img, g.img)]


def random_signed(rng, n):
    img = list(range(1, n + 1))
    rng.shuffle(img)
    return tuple(v if rng.random() < 0.5 else -v for v in img)


class TestCompositionKernel:
    """Products, conjugates, closures and the brute-force oracles on the
    composition kernel agree with the point-by-point table lookups."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_products_and_conjugates_match_lookups(self, n):
        rng = random.Random(n)
        for _ in range(60):
            a, b = random_signed(rng, n), random_signed(rng, n)
            x, k = SignedPerm(a), SignedPerm(b)
            assert (x * k).img == lookup_product(a, b)
            assert signedperm._composer(b)(x.table()) == lookup_product(a, b)
            conj = lookup_product(lookup_product(k.inv().img, a), b)
            assert x.conj(k).img == conj
            assert signedperm._conjugator(b)(x.table()) == conj

    def test_closures_of_every_kinva_k_group_at_rank_le_4(self):
        keys = {_kinva_key(label) for n in range(1, 5) for d in range(1, 9)
                for lev in enumerate_labels(n, d)
                for label in enumerate_char_labels(lev)}
        assert len(keys) > 100
        for key in keys:
            gens = _kinva_inputs(key)[0][3]
            if not gens:
                continue
            identity = SignedPerm.identity(gens[0].n)
            got = closure(gens, identity, 20000)
            assert [x.img for x in got] == lookup_closure(gens, identity,
                                                          20000)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_closures_of_the_signed_groups(self, n):
        gens = [iota((1,), n)] + [tau((i,), (i + 1,), n) for i in range(1, n)]
        identity = SignedPerm.identity(n)
        assert ([x.img for x in closure(gens, identity, 20000)]
                == lookup_closure(gens, identity, 20000))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_normalizer_and_centralizer_match_lookups(self, n):
        G = signed_symmetric_group(n)
        for H in grid_subgroups(n):
            assert brute_normalizer(H, G) == lookup_normalizer(H, G)
        for x in G:
            assert table_centralizer(x, G) == lookup_centralizer(x, G)
