"""Oracle tests for d-split Levi labels in type C.

Frozen expectations: the d0 table, small twist elements, exhaustive
label enumerations at rank 2-4 (worked out by hand from the bar-orbit
and sign conditions), textbook group orders (|GL2(3)| = 48,
|Sp4(3)| = 51840, |GU1(9)| = 10), and relative Weyl group shapes.
"""

import functools
import importlib
import itertools
import pkgutil
import types

import pytest

import dsplitlevi
from dsplitlevi import levi
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
from dsplitlevi.rootsys import apply_to_root, reflection_perm
from dsplitlevi.signedperm import (
    ClosureExceedsCap,
    SignedPerm,
    VerificationError,
    grid_set,
    group_closure,
    set_partitions,
    signed_symmetric_group,
    tau,
    wprime,
)

def sp(text, n):
    return SignedPerm.from_cycles(text, n)


def levi_label(n, d, I_minus1, I):
    """The label at (n, d) with the sorted I₋₁ and I, looked up in
    enumerate_labels(n, d), the one constructor of LeviLabel."""
    for lab in enumerate_labels(n, d):
        if lab.I_minus1 == I_minus1 and lab.I == I:
            return lab
    raise LookupError(f"no label {(I_minus1, I)} at n={n}, d={d}")


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
        assert len(list(enumerate_labels(2, 1))) == 5

    def test_labels_are_built_when_reached(self, monkeypatch):
        built, init = [], LeviLabel.__init__

        def counted(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(LeviLabel, "__init__", counted)
        labels = enumerate_labels(5, 1)
        assert built == []
        first = next(labels)
        assert len(built) == 1 and first.I_minus1 == ()
        assert 1 + sum(1 for _ in labels) == levi.label_count(5, 1) == 203
        assert len(built) == 203

    @pytest.mark.parametrize("args", [(0, 1), (1, 0), (True, 1), (2, 1.0)])
    def test_invalid_rank_or_twist_rejected(self, args):
        with pytest.raises(ValueError):
            enumerate_labels(*args)

    def test_derived_data_rank4_d4(self):
        lab = levi_label(4, 4, (), ((1, 2), (3, 4)))
        assert lab.d0 == 2 and lab.l == 4 and lab.a == 2
        assert lab.t == {2: 1}
        (orbit,) = lab.orbits[2]
        assert orbit.J_O == (1, 2)
        assert orbit.Q == ((1, 3), (2, 4))


def _slots(lab):
    return (lab.n, lab.d, lab.d0, lab.l, lab.a, lab.w, lab.I_minus1, lab.I,
            list(lab.orbits.items()), list(lab.t.items()))


def _walk(n, d, I_minus1, I):
    """The slots of the label (I₋₁, I) at (n, d), I₋₁ and the blocks of
    I in any order, found by walking the bar(w)-orbits of its blocks;
    ValueError, naming the condition that fails, when it is no label.
    An orbit that passes and is not made of grid transversals exactly
    covering its grid sets breaks the classification: AssertionError."""
    d0 = compute_d0(d)
    a = n // d0
    w = sylow_twist_w(n, d)
    img, bar = w.img, w.bar().img
    I_minus1 = tuple(sorted(I_minus1))
    blocks = tuple(sorted((tuple(sorted(b)) for b in I), key=min))
    if {bar[i - 1] for i in I_minus1} != set(I_minus1):
        raise ValueError(f"I_minus1 not stable under bar(w): {I_minus1!r}")
    blockset = {frozenset(b): b for b in blocks}

    def image(b):
        return blockset.get(frozenset(bar[i - 1] for i in b))

    for b in blocks:
        if len({img[i - 1] > 0 for i in b}) > 1:
            raise ValueError(f"w is not of constant sign on block {b!r}")
        if image(b) is None:
            raise ValueError(f"bar(w) does not permute the blocks: {b!r}")
    orbits, seen = {}, set()
    for b in blocks:
        if b in seen:
            continue
        orbit = [b]
        while image(orbit[-1]) != b:
            orbit.append(image(orbit[-1]))
        seen.update(orbit)
        if len(orbit) != d0:
            raise ValueError(f"orbit of block {b!r} has length {len(orbit)}, "
                             f"need exactly d0 = {d0}")
        underline = sorted(set().union(*orbit))
        J_O = tuple(i for i in underline if i <= a)
        Q = tuple(grid_set(d0, a, i) for i in J_O)
        assert len(J_O) == len(b), (n, d, orbit)
        assert sorted(set().union(*Q)) == underline, (n, d, orbit)
        orbits.setdefault(len(b), []).append(levi.Orbit(tuple(orbit), J_O, Q))
    orbits = [(s, sorted(orbits[s], key=lambda o: o.J_O[0]))
              for s in sorted(orbits)]
    return (n, d, d0, a * d0, a, w, I_minus1, blocks, orbits,
            [(s, len(v)) for s, v in orbits])


def _oracle_labels(n, d):
    """Construct and reject: the slots of every bar(w)-stable I_minus1
    (a union of bar(w)-cycles) with every set partition of the rest,
    kept when the walk of its orbits accepts it, in the order of
    (I₋₁, I)."""
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
                # Reversed throughout, so the walk sorts what it is given.
                reverse = [b[::-1] for b in blocks[::-1]]
                try:
                    labels.append(_walk(n, d, I_minus1[::-1], reverse))
                except ValueError:
                    continue
    return sorted(labels, key=lambda slots: slots[6:8])


class TestConstructionAgainstOracle:
    """enumerate_labels builds the labels from the parametrisation; the
    construct-and-reject search above must agree with it slot by slot."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_same_labels_same_order(self, n):
        for d in range(1, 9):
            built = enumerate_labels(n, d)
            assert [_slots(lab) for lab in built] == _oracle_labels(n, d), (
                n, d)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_count_is_bell(self, n):
        for d in range(1, 9):
            a = n // compute_d0(d)
            assert len(list(enumerate_labels(n, d))) == len(
                set_partitions(a + 1)), (n, d)

    @pytest.mark.parametrize("n, d", [(9, 1), (19, 4)])
    def test_largest_count_is_admitted(self, n, d, monkeypatch):
        # a = 9: Bell(10) = 115975 labels, under the bound (a = 10 is
        # refused: TestInputBounds in test_cli.py).  The first label
        # asks for its partition template, cached or not.
        class Admitted(Exception):
            pass

        def admitted(k):
            raise Admitted
        monkeypatch.setattr(levi, "_partition_templates", admitted)
        with pytest.raises(Admitted):
            next(enumerate_labels(n, d))


class TestOrbitChecks:
    """enumerate_labels walks the orbit of every group along bar(w)
    before it returns; a twist that breaks either check is refused."""

    def test_orbit_off_the_shifts_is_refused(self, monkeypatch):
        # bar(w) = (1,2) at d0 = 1 takes the group (1,) to (2,).
        monkeypatch.setattr(levi, "sylow_twist_w",
                            lambda n, d: sp("(1,2)", n))
        with pytest.raises(VerificationError, match="not its d0 = 1 shifts"):
            enumerate_labels(2, 1)

    def test_orbit_of_mixed_sign_is_refused(self, monkeypatch):
        # w = (1,-1) is negative on 1 and positive on 2: the group (1, 2).
        monkeypatch.setattr(levi, "sylow_twist_w",
                            lambda n, d: sp("(1,-1)", n))
        with pytest.raises(VerificationError,
                           match=r"not of constant sign .* group \(1, 2\)"):
            enumerate_labels(2, 1)


class TestOrderByConstruction:
    """Consumers read LeviLabel.orbits and t without sorting them."""

    def test_orbits_ascend(self):
        for n in range(1, 8):
            for d in range(1, 9):
                for lab in enumerate_labels(n, d):
                    assert list(lab.orbits) == sorted(lab.orbits)
                    assert list(lab.t) == list(lab.orbits)
                    for orbs in lab.orbits.values():
                        firsts = [o.J_O[0] for o in orbs]
                        assert firsts == sorted(firsts), (n, d, lab)


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
        lab = levi_label(2, 4, (), ((1,), (2,)))
        s = levi_structure(lab, 3)
        assert s.sp_rank == 0
        assert s.gl_parts == ((1, 1),)
        assert s.epsilon == -1
        assert s.order == 10            # |GU1(9)| = 9 + 1

    def test_gl2_factor(self):
        lab = levi_label(2, 1, (), ((1, 2),))
        s = levi_structure(lab, 3)
        assert s.epsilon == 1
        assert s.order == 48            # |GL2(3)| = 3·2·8

    def test_pure_symplectic(self):
        lab = levi_label(2, 4, (1, 2), ())
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
        lab = levi_label(2, 4, (1, 2), ())
        with pytest.raises(ValueError):
            levi_structure(lab, 4)       # even
        with pytest.raises(ValueError):
            levi_structure(lab, 15)      # not a prime power
        assert levi_structure(lab, 9).order == sp_order(2, 9)

    def test_product_label(self):
        # n=4, d=4, I_minus1={1,3}: Sp4(q) x GU1(q^2)^2
        lab = levi_label(4, 4, (1, 3), ((2,), (4,)))
        s = levi_structure(lab, 3)
        assert s.sp_rank == 2
        assert s.gl_parts == ((1, 1),)
        assert s.t == {1: 1}
        assert s.order == 51840 * 10


class TestRelativeWeyl:
    def test_rank2_d4_singletons(self):
        lab = levi_label(2, 4, (), ((1,), (2,)))
        rw = relative_weyl(lab)
        assert rw.factors == ((4, 1),)
        assert rw.order == 4
        assert rw.generators == (sp("(1,2,-1,-2)", 2),)
        assert len(group_closure(rw.generators)) == 4

    def test_rank4_d4_singletons(self):
        lab = levi_label(4, 4, (), ((1,), (2,), (3,), (4,)))
        rw = relative_weyl(lab)
        assert rw.factors == ((4, 2),)
        assert rw.order == 32
        assert len(group_closure(rw.generators)) == 32

    def test_trivial_for_empty_I(self):
        lab = levi_label(2, 1, (1, 2), ())
        rw = relative_weyl(lab)
        assert rw.factors == ()
        assert rw.order == 1
        assert rw.generators == ()

    def test_two_block_sizes(self):
        # n=4, d=1: I = {{1,2},{3},{4}}: C2wrS1 x C2wrS2
        lab = levi_label(4, 1, (), ((1, 2), (3,), (4,)))
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
        assert verify_relative_weyl(levi_label(2, 4, (), ((1,), (2,))))

    def test_rank2_d1(self):
        assert verify_relative_weyl(levi_label(2, 1, (), ((1,), (2,))))

    def test_rank3_d2(self):
        assert verify_relative_weyl(levi_label(3, 2, (), ((1,), (2,), (3,))))

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
        # oracle still passes every label with its orbits unavailable
        # (reading them raises) and its t deleted.
        labels = [(d, lab, relative_weyl(lab)) for d in (1, 2, 3, 4, 6, 8)
                  for lab in enumerate_labels(4, d)]

        def unavailable(label):
            raise AssertionError("the oracle read the orbits of a label")
        monkeypatch.setattr(LeviLabel, "orbits", property(unavailable))
        for d, lab, rw in labels:
            del lab.t
            monkeypatch.setattr(levi, "relative_weyl", lambda lab, rw=rw: rw)
            assert verify_relative_weyl(lab), (d, lab)

    def test_non_centralizing_generator_in_the_right_coset_fails(self,
                                                                 monkeypatch):
        # w'_{(2,4)}·(1,-1) lies in the coset w'_{(2,4)}·W_L and has the
        # same order, so only the centralizer check can reject it.
        lab = levi_label(4, 4, (1, 3), ((2,), (4,)))
        rw = relative_weyl(lab)
        assert rw.generators == (sp("(2,4,-2,-4)", 4),)
        bad = rw._replace(generators=(sp("(2,4,-2,-4)(1,-1)", 4),))
        monkeypatch.setattr(levi, "relative_weyl", lambda lab: bad)
        assert not verify_relative_weyl(lab)

    def test_cosets_are_compared_not_counted(self, monkeypatch):
        # ι_1 does not stabilise Φ_L = {±(e1-e2)}, so of the four cosets
        # of W_L in Stab(Φ_L) only those of () and (3,-3) are fixed.
        # ⟨ι_3⟩ maps onto them; ⟨ι_{1,2}⟩ has the same order and
        # centralizes ι_1 too, but its cosets are () and (1,-2).
        bare = types.SimpleNamespace(n=3, I_minus1=(), I=((1, 2), (3,)),
                                     w=sp("(1,-1)", 3))
        for gen, ok in (("(3,-3)", True), ("(1,-1)(2,-2)", False)):
            desc = levi.RelativeWeylDescriptor(((2, 1),), (sp(gen, 3),), 2)
            monkeypatch.setattr(levi, "relative_weyl", lambda lab: desc)
            assert verify_relative_weyl(bare) is ok, gen

    def test_rank_cap(self, monkeypatch):
        # The oracle walks the signed group of the label's rank, which
        # must be within the default closure cap: rank 5 (3840 elements)
        # is checked, rank 6 (46080) is refused before any work.
        assert verify_relative_weyl(levi_label(5, 1, tuple(range(1, 6)), ()))

        def work(*args):
            raise RuntimeError("work started")
        monkeypatch.setattr(levi, "_parabolic_groups", work)
        with pytest.raises(ClosureExceedsCap, match="rank 6 exceeds cap"):
            verify_relative_weyl(levi_label(6, 1, tuple(range(1, 7)), ()))


@functools.cache
def _reference_action(n):
    """The roots of C_n, their index, and for each g of the signed group,
    in its order, the index of g(r) for every root r, by apply_to_root."""
    roots = concrete_parabolic_roots(n, range(1, n + 1), ())
    index = {r: k for k, r in enumerate(roots)}
    actions = [tuple(index[apply_to_root(g, r)] for r in roots)
               for g in signed_symmetric_group(n)]
    return roots, index, actions


class TestRootAction:
    @pytest.mark.parametrize("n", range(1, 5))
    def test_equals_apply_to_root(self, n):
        # Built from the images of points; apply_to_root is the reference.
        roots, index, actions = _reference_action(n)
        masks = tuple(
            tuple(sum(1 << i for i, act in enumerate(actions) if act[k] == r)
                  for r in range(len(roots)))
            for k in range(len(roots)))
        assert levi._root_action(n) == (index, masks)

    def test_keeps_the_ranks_of_the_groups_it_walks(self):
        assert (levi._root_action.cache_parameters()["maxsize"]
                == signed_symmetric_group.cache_parameters()["maxsize"])


def _reference_stab(n, roots):
    """Stab(Φ_L) as the oracle first computed it: g is kept when it maps
    every root of Φ_L into Φ_L (by apply_to_root)."""
    _, index, actions = _reference_action(n)
    inside = {index[r] for r in roots}
    return [g for g, act in zip(signed_symmetric_group(n), actions)
            if inside.issuperset(act[k] for k in inside)]


def _reference_groups(n, roots):
    """(Stab(Φ_L), W_L) as the oracle first computed them: W_L is the
    closure of the distinct reflections in Φ_L."""
    refl = {reflection_perm(r, n) for r in roots}
    WL = group_closure(sorted(refl)) if refl else [SignedPerm.identity(n)]
    return _reference_stab(n, roots), WL


class TestOracleBase:
    """The oracle closes W_L over a base of Φ_L and reads Stab(Φ_L) off
    the root-action masks of the base alone; both must agree with the
    all-roots computations."""

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

    def test_masks_give_the_reference_stabiliser_through_rank_5(self):
        # Every distinct root set of the labels at rank <= 5: the same
        # elements of Stab(Φ_L), in the signed group's order.
        seen = 0
        for n in range(1, 6):
            root_sets = {concrete_parabolic_roots(n, lab.I_minus1, lab.I)
                         for d in (1, 2, 3, 4, 6, 8)
                         for lab in enumerate_labels(n, d)}
            for roots in sorted(root_sets):
                stab, _ = levi._parabolic_groups(n, roots)
                assert stab == _reference_stab(n, roots), (n, roots)
            seen += len(root_sets)
        assert seen == 277


class TestRecord:
    def test_json_record(self):
        lab = levi_label(2, 4, (), ((1,), (2,)))
        rec = label_record(lab, q=3)
        assert rec == {
            "n": 2, "d": 4, "d0": 2, "epsilon": -1,
            "I_minus1": [], "I": [[1], [2]],
            "t": {"1": 1}, "relative_weyl": [[4, 1]],
            "order": 10,
        }

    def test_record_without_q(self):
        rec = label_record(levi_label(2, 4, (1, 2), ()))
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
        labels = list(enumerate_labels(4, 1))
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
                labels = list(enumerate_labels(n, d))
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
                "extweyl._generator", "signedperm.signed_symmetric_group",
                "cyclo._cyclotomic"} <= set(cached)
        unbounded = [name for name, fn in cached.items()
                     if fn.cache_parameters()["maxsize"] is None]
        assert unbounded == []
