"""Oracle tests for d-split Levi labels in type C.

Frozen expectations: the d0 table, small twist elements, exhaustive
label enumerations at rank 2-4 (worked out by hand from the bar-orbit
and sign conditions), textbook group orders (|GL2(3)| = 48,
|Sp4(3)| = 51840, |GU1(9)| = 10), and relative Weyl group shapes.
"""

import importlib
import itertools
import pkgutil

import pytest

import dsplitlevi
from dsplitlevi import levi
from dsplitlevi.cyclo import check_eq1
from dsplitlevi.levi import (
    LeviLabel,
    compute_d0,
    concrete_parabolic_roots,
    enumerate_labels,
    gl_order,
    label_record,
    levi_structure,
    relative_weyl,
    sp_order,
    sylow_twist_w,
    verify_relative_weyl,
)
from dsplitlevi.rootsys import (build_root_system, is_stable_under,
                                reflection_perm)
from dsplitlevi.signedperm import (
    SignedPerm,
    group_closure,
    set_partitions,
    signed_symmetric_group,
    tau,
    wprime,
)

def sp(text, n):
    return SignedPerm.from_cycles(text, n)


class TestD0:
    def test_bcd_table(self):
        assert [compute_d0(d) for d in range(1, 9)] == [
            1, 1, 3, 2, 5, 3, 7, 4]
        assert compute_d0(6) == 3
        assert compute_d0(5) == 5

    def test_nonpositive_d(self):
        with pytest.raises(ValueError):
            compute_d0(0)


class TestSylowTwist:
    def test_rank2_d4(self):
        assert sylow_twist_w(2, 4) == sp("(1,2,-1,-2)", 2)

    def test_rank2_d1_is_identity(self):
        assert sylow_twist_w(2, 1) == SignedPerm.identity(2)

    def test_rank3_d3_is_squared_six_cycle(self):
        w = sylow_twist_w(3, 3)
        assert w == sp("(1,2,3,-1,-2,-3)", 3) ** 2
        assert w == sp("(1,3,-2)", 3)

    def test_rank4_d4_is_grid_product(self):
        assert sylow_twist_w(4, 4) == sp("(1,3,-1,-3)(2,4,-2,-4)", 4)

    def test_rank4_d2_is_all_flips(self):
        assert sylow_twist_w(4, 2) == sp("(1,-1)(2,-2)(3,-3)(4,-4)", 4)

    def test_identity_outside_support(self):
        w = sylow_twist_w(5, 4)     # d0=2, l=4: point 5 untouched
        assert w(5) == 5
        assert w == sp("(1,3,-1,-3)(2,4,-2,-4)", 5)

    def test_rank_too_small_gives_identity(self):
        assert sylow_twist_w(2, 8) == SignedPerm.identity(2)

    def test_order_divides_d(self):
        for n in range(2, 6):
            for d in range(1, 10):
                assert d % sylow_twist_w(n, d).order() == 0, (n, d)


class TestEnumerate:
    def test_rank2_d4(self):
        labels = {(lab.I_minus1, lab.I) for lab in enumerate_labels(2, 4)}
        assert labels == {((1, 2), ()), ((), ((1,), (2,)))}

    def test_rank2_d1(self):
        labels = {(lab.I_minus1, lab.I) for lab in enumerate_labels(2, 1)}
        assert labels == {
            ((), ((1,), (2,))), ((1,), ((2,),)), ((2,), ((1,),)),
            ((1, 2), ()), ((), ((1, 2),))}

    def test_rank2_d8(self):
        labels = {(lab.I_minus1, lab.I) for lab in enumerate_labels(2, 8)}
        assert labels == {((1, 2), ())}

    def test_rank3_d3(self):
        labels = {(lab.I_minus1, lab.I) for lab in enumerate_labels(3, 3)}
        assert labels == {((1, 2, 3), ()), ((), ((1,), (2,), (3,)))}

    def test_rank4_d4(self):
        labels = {(lab.I_minus1, lab.I) for lab in enumerate_labels(4, 4)}
        assert labels == {
            ((1, 2, 3, 4), ()),
            ((1, 3), ((2,), (4,))),
            ((2, 4), ((1,), (3,))),
            ((), ((1,), (2,), (3,), (4,))),
            ((), ((1, 2), (3, 4))),
        }

    def test_deterministic_order(self):
        a = [(lab.I_minus1, lab.I) for lab in enumerate_labels(4, 4)]
        b = [(lab.I_minus1, lab.I) for lab in enumerate_labels(4, 4)]
        assert a == b
        assert a == sorted(a)

    def test_label_count_at_rank_two(self):
        assert len(enumerate_labels(2, 1)) == 5

    INVALID = [
        (2, 4, (1,), ((2,),)),          # I_minus1 not bar-stable
        (2, 4, (), ((1, 2),)),          # orbit length 1, need 2
        (2, 1, (1,), ((1,),)),          # overlap
        (2, 1, (), ((1,),)),            # complement not covered
        (0, 1, (), ()),                 # rank below 1
        (-1, 1, (), ()),
        (1, True, (1,), ()),            # bool d
        (True, 1, (1,), ()),            # bool n
        (2, 1.0, (1, 2), ()),           # float d
        (2, 1, (1.0,), ((2,),)),        # float point in I_minus1
        (2, 1, (1,), ((2.0,),)),        # float point in a block
        (2, 1, (True,), ((2,),)),       # bool point
    ]

    def test_invalid_labels_rejected(self):
        for args in self.INVALID:
            with pytest.raises(ValueError):
                LeviLabel(*args)

    @pytest.mark.parametrize("args", [(0, 1), (1, 0), (True, 1), (2, 1.0)])
    def test_invalid_rank_or_twist_rejected(self, args):
        with pytest.raises(ValueError):
            enumerate_labels(*args)

    def test_derived_data_rank4_d4(self):
        lab = LeviLabel(4, 4, (), ((1, 2), (3, 4)))
        assert lab.d0 == 2 and lab.l == 4 and lab.a == 2
        assert lab.t == {2: 1}
        (orbit,) = lab.orbits[2]
        assert orbit.J_O == (1, 2)
        assert orbit.Q == ((1, 3), (2, 4))

    @pytest.mark.parametrize("n", [2, 3])
    def test_completeness_against_eq1(self, n):
        # Both directions of the classification: a stable concrete pair
        # is enumerated exactly when the eigenspace test passes.
        sys = build_root_system(n)
        for d in range(1, 9):
            w = sylow_twist_w(n, d)
            enumerated = {(lab.I_minus1, lab.I)
                          for lab in enumerate_labels(n, d)}
            for pair in _all_concrete_pairs(n):
                S, P = pair
                roots = concrete_parabolic_roots(n, S, P)
                if not is_stable_under(roots, w):
                    assert pair not in enumerated, (d, pair)
                    continue
                assert check_eq1(w, d, roots, sys) == (pair in enumerated), (
                    d, pair)


def _slots(lab):
    return (lab.n, lab.d, lab.d0, lab.l, lab.a, lab.w, lab.I_minus1, lab.I,
            list(lab.orbits.items()), list(lab.t.items()))


def _oracle_labels(n, d):
    """Construct and reject: every bar(w)-stable I_minus1 (a union of
    bar(w)-cycles) with every set partition of the rest, kept when the
    validating constructor accepts it."""
    bar = sylow_twist_w(n, d).bar()
    cycles, seen = [], set()
    for start in range(1, n + 1):
        if start in seen:
            continue
        cyc, p = [start], bar(start)
        while p != start:
            cyc.append(p)
            p = bar(p)
        seen.update(cyc)
        cycles.append(cyc)
    labels = []
    for k in range(len(cycles) + 1):
        for chosen in itertools.combinations(cycles, k):
            I_minus1 = tuple(sorted(itertools.chain.from_iterable(chosen)))
            rest = tuple(p for p in range(1, n + 1) if p not in I_minus1)
            for blocks in _partitions_of(rest):
                try:
                    labels.append(LeviLabel(n, d, I_minus1, blocks))
                except ValueError:
                    continue
    return sorted(labels, key=lambda lab: (lab.I_minus1, lab.I))


class TestConstructionAgainstOracle:
    """enumerate_labels builds the labels from the parametrisation; the
    construct-and-reject search above must agree with it slot by slot."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_same_labels_same_order(self, n):
        for d in range(1, 9):
            built = enumerate_labels(n, d)
            assert [_slots(lab) for lab in built] == [
                _slots(lab) for lab in _oracle_labels(n, d)], (n, d)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_count_is_bell(self, n):
        for d in range(1, 9):
            a = n // compute_d0(d)
            assert len(enumerate_labels(n, d)) == len(
                set_partitions(a + 1)), (n, d)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_trusted_equals_public(self, n):
        for d in range(1, 9):
            for lab in enumerate_labels(n, d):
                public = LeviLabel(n, d, lab.I_minus1, lab.I)
                assert lab == public and hash(lab) == hash(public)
                assert _slots(lab) == _slots(public)

    @pytest.mark.parametrize("n, d", [(9, 1), (19, 4)])
    def test_largest_count_is_admitted(self, n, d, monkeypatch):
        # a = 9: Bell(10) = 115975 labels, under the bound (a = 10 is
        # refused: TestInputBounds in test_cli.py).
        class Admitted(Exception):
            pass

        def admitted(m):
            raise Admitted
        monkeypatch.setattr(levi, "set_partitions", admitted)
        with pytest.raises(Admitted):
            enumerate_labels(n, d)


class TestOrderByConstruction:
    """Consumers read LeviLabel.orbits and t without sorting them."""

    def test_orbits_ascend_on_both_paths(self):
        for n in range(1, 8):
            for d in range(1, 9):
                for lab in enumerate_labels(n, d):
                    # The checked path gets its blocks in reverse order.
                    public = LeviLabel(n, d, lab.I_minus1[::-1], lab.I[::-1])
                    for label in (lab, public):
                        assert list(label.orbits) == sorted(label.orbits)
                        assert list(label.t) == list(label.orbits)
                        for orbs in label.orbits.values():
                            firsts = [o.J_O[0] for o in orbs]
                            assert firsts == sorted(firsts), (n, d, lab)


def _all_concrete_pairs(n):
    points = tuple(range(1, n + 1))
    out = []
    for k in range(n + 1):
        for S in itertools.combinations(points, k):
            rest = tuple(p for p in points if p not in S)
            for P in _partitions_of(rest):
                out.append((S, P))
    return out


def _partitions_of(points):
    if not points:
        return [()]
    first, rest = points[0], points[1:]
    out = []
    for k in range(len(rest) + 1):
        for tail in itertools.combinations(rest, k):
            block = (first,) + tail
            remaining = tuple(p for p in rest if p not in tail)
            for sub in _partitions_of(remaining):
                out.append(tuple(sorted((block,) + sub, key=min)))
    return out


class TestStructure:
    def test_gu1_factor(self):
        lab = LeviLabel(2, 4, (), ((1,), (2,)))
        s = levi_structure(lab, 3)
        assert s.sp_rank == 0
        assert s.gl_parts == ((1, 1),)
        assert s.epsilon == -1
        assert s.order == 10            # |GU1(9)| = 9 + 1

    def test_gl2_factor(self):
        lab = LeviLabel(2, 1, (), ((1, 2),))
        s = levi_structure(lab, 3)
        assert s.epsilon == 1
        assert s.order == 48            # |GL2(3)| = 3·2·8

    def test_pure_symplectic(self):
        lab = LeviLabel(2, 4, (1, 2), ())
        s = levi_structure(lab, 3)
        assert s.gl_parts == ()
        assert s.order == sp_order(2, 3) == 51840

    def test_sp_orders(self):
        assert sp_order(0, 3) == 1
        assert sp_order(1, 3) == 24      # |SL2(3)|
        assert sp_order(2, 3) == 51840   # |Sp4(3)|
        assert sp_order(3, 3) == 9170703360

    def test_gl_orders(self):
        assert gl_order(1, 9, -1) == 10
        assert gl_order(1, 9, 1) == 8
        assert gl_order(2, 3, 1) == 48
        assert gl_order(2, 3, -1) == 96      # |GU2(3)| = 3·(3+1)(9-1)
        assert gl_order(3, 2, -1) == 648     # |GU3(2)| = 8·3·3·9

    def test_q_validation(self):
        lab = LeviLabel(2, 4, (1, 2), ())
        with pytest.raises(ValueError):
            levi_structure(lab, 4)       # even
        with pytest.raises(ValueError):
            levi_structure(lab, 15)      # not a prime power
        assert levi_structure(lab, 9).order == sp_order(2, 9)

    def test_product_label(self):
        # n=4, d=4, I_minus1={1,3}: Sp4(q) x GU1(q^2)^2
        lab = LeviLabel(4, 4, (1, 3), ((2,), (4,)))
        s = levi_structure(lab, 3)
        assert s.sp_rank == 2
        assert s.gl_parts == ((1, 1),)
        assert s.t == {1: 1}
        assert s.order == 51840 * 10


class TestRelativeWeyl:
    def test_rank2_d4_singletons(self):
        lab = LeviLabel(2, 4, (), ((1,), (2,)))
        rw = relative_weyl(lab)
        assert rw.factors == ((4, 1),)
        assert rw.order == 4
        assert rw.generators == (sp("(1,2,-1,-2)", 2),)
        assert len(group_closure(rw.generators)) == 4

    def test_rank4_d4_singletons(self):
        lab = LeviLabel(4, 4, (), ((1,), (2,), (3,), (4,)))
        rw = relative_weyl(lab)
        assert rw.factors == ((4, 2),)
        assert rw.order == 32
        assert len(group_closure(rw.generators)) == 32

    def test_trivial_for_empty_I(self):
        lab = LeviLabel(2, 1, (1, 2), ())
        rw = relative_weyl(lab)
        assert rw.factors == ()
        assert rw.order == 1
        assert rw.generators == ()

    def test_two_block_sizes(self):
        # n=4, d=1: I = {{1,2},{3},{4}}: C2wrS1 x C2wrS2
        lab = LeviLabel(4, 1, (), ((1, 2), (3,), (4,)))
        rw = relative_weyl(lab)
        assert sorted(rw.factors) == [(2, 1), (2, 2)]
        assert rw.order == 2 * 8
        assert len(group_closure(rw.generators)) == 16

    @pytest.mark.parametrize("n", [2, 3])
    def test_generators_centralize_w_and_close_correctly(self, n):
        for d in range(1, 9):
            w = sylow_twist_w(n, d)
            for lab in enumerate_labels(n, d):
                rw = relative_weyl(lab)
                for g in rw.generators:
                    assert g * w == w * g, (n, d, lab)
                if rw.generators:
                    assert len(group_closure(rw.generators)) == rw.order


def _wprime_Q_by_factors(Q, n):
    """w'_Q as the product of its w'_J factors, each validated."""
    out = SignedPerm.identity(n)
    for J in Q:
        out = out * wprime(J, n)
    return out


def _tau_Q_by_factors(Q1, Q2, n):
    """τ_{Q1,Q2} as the product of its τ_{J1,J2} factors, each validated."""
    out = SignedPerm.identity(n)
    for J1, J2 in zip(Q1, Q2):
        out = out * tau(J1, J2, n)
    return out


class TestQSetGenerators:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_equal_to_product_of_factors(self, n):
        for d in range(1, 9):
            for lab in enumerate_labels(n, d):
                for orbs in lab.orbits.values():
                    for o in orbs:
                        assert levi.wprime_Q(o.Q, n) == _wprime_Q_by_factors(
                            o.Q, n), (d, lab, o)
                    for o1, o2 in zip(orbs, orbs[1:]):
                        assert levi.tau_Q(o1.Q, o2.Q, n) == _tau_Q_by_factors(
                            o1.Q, o2.Q, n), (d, lab, o1, o2)

    def test_same_Q_set_swaps_to_identity(self):
        Q = ((1, 4), (2, 5))
        assert levi.tau_Q(Q, Q, 6) == SignedPerm.identity(6)

    @pytest.mark.parametrize("Q", [
        ((1, 3), (3, 5)),               # two grid sets meet
        ((1, 3), (1, 3)),               # a grid set repeated
        ((2, 1),),                      # not ascending
        ((1, 7),),                      # past the rank
        ((),),                          # empty
        ((1.0, 4),),                    # not int points
    ])
    def test_wprime_Q_refuses_bad_sets(self, Q):
        with pytest.raises(ValueError):
            levi.wprime_Q(Q, 6)

    @pytest.mark.parametrize("Q1, Q2", [
        (((1, 4),), ((2, 5), (3, 6))),  # different numbers of sets
        (((1, 4),), ((2, 5, 6),)),      # paired sets of different sizes
        (((1, 4),), ((4, 5),)),         # the two Q-sets meet
        (((1, 4), (2, 5)), ((3, 6), (2, 5))),
        (((1, 2), (1, 3)), ((4, 5), (6, 6))),
    ])
    def test_tau_Q_refuses_bad_sets(self, Q1, Q2):
        with pytest.raises(ValueError):
            levi.tau_Q(Q1, Q2, 6)


class TestVerify:
    def test_rank2_d4(self):
        assert verify_relative_weyl(LeviLabel(2, 4, (), ((1,), (2,))))

    def test_rank2_d1(self):
        assert verify_relative_weyl(LeviLabel(2, 1, (), ((1,), (2,))))

    def test_rank3_d2(self):
        assert verify_relative_weyl(LeviLabel(3, 2, (), ((1,), (2,), (3,))))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_all_labels_verify(self, n):
        for d in (1, 2, 3, 4, 6, 8):
            for lab in enumerate_labels(n, d):
                assert verify_relative_weyl(lab), (n, d, lab)

    @pytest.mark.parametrize("n", [3, 4])
    def test_corrupted_descriptors_fail(self, n, monkeypatch):
        # The oracle must see through a descriptor with a generator that
        # matters dropped, one generator replaced by an element that
        # does not centralize w, or a wrong order.
        G = signed_symmetric_group(n)
        e = SignedPerm.identity(n)
        seen = {"dropped": 0, "foreign": 0, "order": 0}
        for d in (1, 2, 3, 4, 6, 8):
            w = sylow_twist_w(n, d)
            foreign = next((g for g in G if g * w != w * g), None)
            for lab in enumerate_labels(n, d):
                rw = relative_weyl(lab)
                bad = {"order": rw._replace(order=2 * rw.order)}
                if rw.generators:
                    rest = rw.generators[:-1]
                    assert len(group_closure(rest or (e,))) < rw.order
                    bad["dropped"] = rw._replace(generators=rest)
                    if foreign is not None:
                        bad["foreign"] = rw._replace(
                            generators=(foreign,) + rw.generators[1:])
                for kind, desc in bad.items():
                    monkeypatch.setattr(levi, "relative_weyl",
                                        lambda lab, desc=desc: desc)
                    assert not verify_relative_weyl(lab), (kind, d, lab)
                    seen[kind] += 1
        assert all(seen.values()), seen

    def test_oracle_reads_no_orbits(self, monkeypatch):
        # Stab(Φ_L), W_L and the cosets come from I₋₁, I and w alone: the
        # oracle still passes every label with its orbits deleted.
        for d in (1, 2, 3, 4, 6, 8):
            for lab in enumerate_labels(4, d):
                rw = relative_weyl(lab)
                bare = LeviLabel(4, d, lab.I_minus1, lab.I)
                del bare.orbits, bare.t
                monkeypatch.setattr(levi, "relative_weyl",
                                    lambda lab, rw=rw: rw)
                assert verify_relative_weyl(bare), (d, lab)

    def test_non_centralizing_generator_in_the_right_coset_fails(self,
                                                                 monkeypatch):
        # w'_{(2,4)}·(1,-1) lies in the coset w'_{(2,4)}·W_L and has the
        # same order, so only the centralizer check can reject it.
        lab = LeviLabel(4, 4, (1, 3), ((2,), (4,)))
        rw = relative_weyl(lab)
        assert rw.generators == (sp("(2,4,-2,-4)", 4),)
        bad = rw._replace(generators=(sp("(2,4,-2,-4)(1,-1)", 4),))
        monkeypatch.setattr(levi, "relative_weyl", lambda lab: bad)
        assert not verify_relative_weyl(lab)

    def test_rank_cap(self):
        with pytest.raises(ValueError):
            verify_relative_weyl(LeviLabel(5, 1, tuple(range(1, 6)), ()))


def _reference_groups(n, roots):
    """(Stab(Φ_L), W_L) as the oracle first computed them: g is kept
    when it maps every root of Φ_L into Φ_L, and W_L is the closure of
    the distinct reflections in Φ_L."""
    index, actions = levi._root_action(n)
    inside = {index[r] for r in roots}
    stab = [g for g, act in zip(signed_symmetric_group(n), actions)
            if inside.issuperset(act[k] for k in inside)]
    refl = {reflection_perm(r, n) for r in roots}
    WL = group_closure(sorted(refl)) if refl else [SignedPerm.identity(n)]
    return stab, WL


class TestOracleBase:
    """The oracle closes W_L over a base of Φ_L and tests Stab(Φ_L) on
    the base alone; both must agree with the all-roots computations."""

    @pytest.mark.parametrize("n", range(1, 5))
    def test_base_gives_the_same_groups(self, n):
        for d in (1, 2, 3, 4, 6, 8):
            for lab in enumerate_labels(n, d):
                roots = concrete_parabolic_roots(n, lab.I_minus1, lab.I)
                stab, WL = levi._parabolic_groups(n, roots)
                ref_stab, ref_WL = _reference_groups(n, roots)
                assert stab == ref_stab, (d, lab)
                assert set(WL) == set(ref_WL) and len(WL) == len(ref_WL)
                if roots:
                    rank = len(lab.I_minus1) + sum(len(b) - 1 for b in lab.I)
                    assert len(levi._simple_roots(roots)) == rank, (d, lab)


class TestRecord:
    def test_json_record(self):
        lab = LeviLabel(2, 4, (), ((1,), (2,)))
        rec = label_record(lab, q=3)
        assert rec == {
            "n": 2, "d": 4, "d0": 2, "epsilon": -1,
            "I_minus1": [], "I": [[1], [2]],
            "t": {"1": 1}, "relative_weyl": [[4, 1]],
            "order": 10,
        }

    def test_record_without_q(self):
        rec = label_record(LeviLabel(2, 4, (1, 2), ()))
        assert rec["order"] is None
        assert rec["I_minus1"] == [1, 2]


def _containers(obj):
    """Every list and dict reachable from ``obj``, the object included."""
    if isinstance(obj, dict):
        return [obj] + [c for v in obj.values() for c in _containers(v)]
    if isinstance(obj, list):
        return [obj] + [c for v in obj for c in _containers(v)]
    return []


class TestMemos:
    """Shapes, orders and Q-set generators are cached by value; what a
    caller receives must not alias what another caller receives."""

    def test_records_share_no_mutable_object(self):
        labels = enumerate_labels(4, 1)
        records = [label_record(lab, 3) for lab in labels]
        ids = [id(c) for rec in records for c in _containers(rec)]
        assert len(ids) == len(set(ids))
        # Labels with |I₋₁| = 3 and one singleton block share a shape.
        same = [i for i, lab in enumerate(labels)
                if lab.t == {1: 1} and len(lab.I_minus1) == 3][:2]
        assert len(same) == 2
        first, second = (records[i] for i in same)
        expected = label_record(labels[same[1]], 3)
        first["t"]["1"] = 99
        first["relative_weyl"][0][1] = 99
        first["relative_weyl"].append([0, 0])
        assert second == expected
        assert label_record(labels[same[0]], 3)["t"] == {"1": 1}
        assert label_record(labels[same[0]], 3)["relative_weyl"] == [[2, 1]]
        structure = levi_structure(labels[same[0]], 3)
        structure.t[1] = 99
        assert levi_structure(labels[same[0]], 3).t == {1: 1}

    @pytest.mark.parametrize("n", range(1, 7))
    def test_generators_equal_uncached(self, n):
        for d in range(1, 9):
            for lab in enumerate_labels(n, d):
                expected = []
                for _, orbs in sorted(lab.orbits.items()):
                    expected += [levi.wprime_Q(o.Q, n) for o in orbs]
                    expected += [levi.tau_Q(o1.Q, o2.Q, n)
                                 for o1, o2 in zip(orbs, orbs[1:])]
                assert relative_weyl(lab).generators == tuple(expected), (
                    d, lab)

    def test_shape_cache_holds_a_command_mix(self):
        # The levis reports at n <= 7, d in {1, 2, 3, 4, 6} and q in
        # {3, 5, 9} evict no shape: every miss is still cached.
        levi._structure_order.cache_clear()
        for n in range(1, 8):
            for d in (1, 2, 3, 4, 6):
                labels = enumerate_labels(n, d)
                for q in (3, 5, 9):
                    for label in labels:
                        label_record(label, q)
        info = levi._structure_order.cache_info()
        assert info.misses == info.currsize == 891

    def test_module_caches_are_bounded(self):
        # Every lru_cache a dsplitlevi module holds has a finite bound.
        cached = {}
        for info in pkgutil.iter_modules(dsplitlevi.__path__):
            module = importlib.import_module(f"dsplitlevi.{info.name}")
            cached.update((f"{info.name}.{name}", fn)
                          for name, fn in vars(module).items()
                          if hasattr(fn, "cache_parameters")
                          and fn.__module__ == module.__name__)
        assert {"levi.sylow_twist_w", "levi._orbit_generator",
                "signedperm.signed_symmetric_group", "cyclo._cyclotomic",
                "torus._least_irreducible", "torus._field"} <= set(cached)
        unbounded = [name for name, fn in cached.items()
                     if fn.cache_parameters()["maxsize"] is None]
        assert unbounded == []
