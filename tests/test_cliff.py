"""Tests for the inertia/invariance calculus on top of the label registry.

Frozen oracles: hand-computed stabilizer orders and kernel indices for
rank-2 and rank-4 labels; structural invariants (closure order equals
the product formula, kernel index in {1, 2}, the normalizer closure
normalizes both subgroups) are verified by brute-force closures; the
invariance check is swept over every gate-passing descriptor assignment
in a small grid; the one-pass memo key, inertia order and label text
are checked against the reads they replaced on every label at rank <= 4
and d <= 8 and at rank 5 and d = 1; the degrees of every W_lambda table
at rank <= 5 and d <= 8 are checked against the closed form for wreath
products (hook lengths), which is independent of Dixon's method.
"""

import itertools
import json
from fractions import Fraction
from functools import cache
from math import factorial, prod

import pytest

from dsplitlevi.arith import factorint
from dsplitlevi.chartab import (CharacterTable, ClassFunction, FiniteGroup,
                                 _root_of_unity, character_table, inner,
                                 restrict)
from dsplitlevi.cliff import (
    CharClassDescriptor,
    CharLabel,
    _build_K,
    _build_W,
    _canonical_structure,
    _check_orders,
    _is_jump,
    _kinva_compute,
    _kinva_groups,
    _kinva_inputs,
    _kinva_key,
    _kinva_search,
    _residue,
    _sign_kernel,
    _synthesize_parts,
    cuspidal_gate,
    enumerate_char_labels,
    inertia_order,
    k_lambda,
    kinva_check,
    nu_lambda,
    stab_lambda,
)
from dsplitlevi.cyclo import CycNum
from dsplitlevi.levi import LeviLabel, enumerate_labels, wprime_Q
from dsplitlevi import chartab, cliff
from dsplitlevi.signedperm import (ClosureExceedsCap, SignedPerm,
                                   VerificationError, group_closure)


def D(i, s, c, z=1):
    return CharClassDescriptor(f"zeta{i}", s, c, z)


def L24():
    return LeviLabel(2, 4, (), ((1,), (2,)))


def L24_EMPTY():
    return LeviLabel(2, 4, (1, 2), ())


def L44_SINGLETONS():
    return LeviLabel(4, 4, (), ((1,), (2,), (3,), (4,)))


def L44_PAIRS():
    return LeviLabel(4, 4, (), ((1, 2), (3, 4)))


def L41():
    return LeviLabel(4, 1, (), ((1,), (2,), (3,), (4,)))


def closure_order(gens, n):
    gens = [g for g in gens]
    if not gens:
        return 1
    return len(group_closure(gens))


def closure_set(gens, n):
    if not gens:
        return {SignedPerm.identity(n)}
    return set(group_closure(list(gens)))


def descriptor_assignments(levi, shared):
    """Uniform (c, z) assignments over all orbits: one shared descriptor
    per size when ``shared``, else pairwise-distinct descriptors."""
    two_d0 = 2 * levi.d0
    divisors = [c for c in range(1, two_d0 + 1) if two_d0 % c == 0]
    for c, z in itertools.product(divisors, (1, 2)):
        assignment = {}
        counter = itertools.count(1)
        for s, orbs in levi.orbits.items():
            if shared:
                d = D(next(counter), s, c, z)
                assignment[s] = tuple(d for _ in orbs)
            else:
                assignment[s] = tuple(D(next(counter), s, c, z)
                                      for _ in orbs)
        yield assignment


class TestDescriptor:
    def test_stab_tilde_jump_table(self):
        # two_d0 = 4: Sylow-2 subgroup has order 4.
        assert D(1, 1, 4, 2).stab_tilde_order(4) == 2
        assert D(1, 1, 4, 1).stab_tilde_order(4) == 4
        assert D(1, 1, 2, 2).stab_tilde_order(4) == 2
        assert D(1, 1, 1, 1).stab_tilde_order(4) == 1
        # two_d0 = 2: Sylow-2 subgroup has order 2.
        assert D(1, 1, 2, 2).stab_tilde_order(2) == 1
        assert D(1, 1, 1, 2).stab_tilde_order(2) == 1

    def test_r1_membership(self):
        assert D(1, 1, 4, 2).in_R1(4)
        assert not D(1, 1, 4, 1).in_R1(4)
        assert not D(1, 1, 2, 2).in_R1(4)
        assert D(1, 1, 2, 2).in_R1(2)
        assert not D(1, 1, 1, 2).in_R1(2)

    def test_divisibility_required(self):
        with pytest.raises(ValueError):
            D(1, 1, 3, 1).stab_tilde_order(4)

    def test_equality(self):
        assert D(1, 1, 4, 2) == D(1, 1, 4, 2)
        assert D(1, 1, 4, 2) != D(2, 1, 4, 2)
        assert len({D(1, 1, 4, 2), D(1, 1, 4, 2), D(2, 1, 4, 2)}) == 2


class TestCharLabel:
    def test_basic(self):
        label = CharLabel(L24(), {1: (D(1, 1, 4, 2),)})
        assert label.two_d0 == 4
        assert label.ltilde_full

    def test_j_sets_shared_and_distinct(self):
        levi = L44_SINGLETONS()
        d1 = D(1, 1, 4, 2)
        shared = CharLabel(levi, {1: (d1, d1)})
        assert shared.j_sets(1) == [(d1, (1, 2))]
        d2 = D(2, 1, 4, 2)
        distinct = CharLabel(levi, {1: (d1, d2)})
        assert distinct.j_sets(1) == [(d1, (1,)), (d2, (2,))]

    def test_validation(self):
        with pytest.raises(ValueError):
            CharLabel(L24(), {1: (D(1, 2, 4, 2),)})       # wrong GL-size
        with pytest.raises(ValueError):
            CharLabel(L24(), {1: (D(1, 1, 4, 2),) * 2})   # wrong count
        with pytest.raises(ValueError):
            CharLabel(L24(), {})                          # missing size
        with pytest.raises(ValueError):
            CharLabel(L24(), {1: (D(1, 1, 3, 1),)})       # 3 does not divide 4


class TestStabLambda:
    def test_single_orbit_c4(self):
        label = CharLabel(L24(), {1: (D(1, 1, 4, 2),)})
        W = stab_lambda(label)
        assert W.order == 4
        assert W.abstract_type == "C4wrS1"
        assert W.generators == (wprime_Q(L24().orbits[1][0].Q, 2),)
        assert closure_order(W.generators, 2) == 4

    def test_single_orbit_c2(self):
        label = CharLabel(L24(), {1: (D(1, 1, 2, 1),)})
        W = stab_lambda(label)
        assert W.order == 2
        w = wprime_Q(L24().orbits[1][0].Q, 2)
        assert W.generators == (w * w,)

    def test_two_orbits_shared_descriptor(self):
        levi = L44_SINGLETONS()
        d1 = D(1, 1, 4, 2)
        W = stab_lambda(CharLabel(levi, {1: (d1, d1)}))
        assert W.order == 32
        assert W.abstract_type == "C4wrS2"
        assert len(W.generators) == 3
        assert closure_order(W.generators, 4) == 32

    def test_two_orbits_distinct_descriptors(self):
        levi = L44_SINGLETONS()
        W = stab_lambda(CharLabel(levi, {1: (D(1, 1, 4, 1), D(2, 1, 4, 1))}))
        assert W.order == 16
        assert W.abstract_type == "C4wrS1 x C4wrS1"
        assert closure_order(W.generators, 4) == 16

    def test_pure_permutation_part(self):
        levi = L41()
        d1 = D(1, 1, 1, 1)
        W = stab_lambda(CharLabel(levi, {1: (d1,) * 4}))
        assert W.order == 24
        assert W.abstract_type == "C1wrS4"
        assert len(W.generators) == 3
        assert closure_order(W.generators, 4) == 24

    def test_empty_label(self):
        W = stab_lambda(CharLabel(L24_EMPTY(), {}))
        assert W.order == 1 and W.generators == ()

    def test_order_formula_vs_closure_sweep(self):
        for n, d in [(2, 1), (2, 2), (2, 4), (3, 1), (3, 3)]:
            for levi in enumerate_labels(n, d):
                for shared in (True, False):
                    for assignment in descriptor_assignments(levi, shared):
                        W = stab_lambda(CharLabel(levi, assignment))
                        assert closure_order(W.generators, n) == W.order


class TestNuLambda:
    def test_jump_kernel_index2(self):
        label = CharLabel(L24(), {1: (D(1, 1, 4, 2),)})
        values, kernel = nu_lambda(label)
        assert values == (-1,)
        assert kernel.order == 2
        w = wprime_Q(L24().orbits[1][0].Q, 2)
        assert closure_set(kernel.generators, 2) == {SignedPerm.identity(2),
                                                     w * w}

    def test_ltilde_not_full_trivializes(self):
        label = CharLabel(L24(), {1: (D(1, 1, 4, 2),)}, ltilde_full=False)
        values, kernel = nu_lambda(label)
        assert values == (1,)
        assert kernel.order == 4
        assert kernel.generators == stab_lambda(label).generators

    def test_no_jump_trivial(self):
        label = CharLabel(L24(), {1: (D(1, 1, 4, 1),)})
        values, kernel = nu_lambda(label)
        assert values == (1,)
        assert kernel.order == 4

    def test_wreath_kernel(self):
        levi = L44_SINGLETONS()
        d1 = D(1, 1, 4, 2)
        label = CharLabel(levi, {1: (d1, d1)})
        values, kernel = nu_lambda(label)
        assert values == (-1, -1, 1)
        assert kernel.order == 16
        assert closure_order(kernel.generators, 4) == 16

    def test_mixed_values(self):
        levi = L44_SINGLETONS()
        label = CharLabel(levi, {1: (D(1, 1, 4, 2), D(2, 1, 4, 1))})
        values, kernel = nu_lambda(label)
        assert values == (-1, 1)
        assert kernel.order == 8

    def test_kernel_index_sweep(self):
        for n, d in [(2, 1), (2, 4), (3, 3)]:
            for levi in enumerate_labels(n, d):
                for shared in (True, False):
                    for assignment in descriptor_assignments(levi, shared):
                        for ltilde in (True, False):
                            label = CharLabel(levi, assignment,
                                              ltilde_full=ltilde)
                            W = stab_lambda(label)
                            values, kernel = nu_lambda(label)
                            index = W.order // kernel.order
                            assert index in (1, 2)
                            expect2 = ltilde and any(
                                desc.in_R1(label.two_d0) and J
                                for s in levi.orbits
                                for desc, J in label.j_sets(s))
                            assert (index == 2) == expect2
                            assert closure_order(kernel.generators, n) == \
                                kernel.order


class TestKLambda:
    def test_single_jump_orbit(self):
        label = CharLabel(L24(), {1: (D(1, 1, 4, 2),)})
        K = k_lambda(label)
        assert K.order == 4
        w = wprime_Q(L24().orbits[1][0].Q, 2)
        assert closure_set(K.generators, 2) == closure_set([w], 2)

    def test_swap_between_r1_classes_allowed(self):
        levi = L44_SINGLETONS()
        label = CharLabel(levi, {1: (D(1, 1, 4, 2), D(2, 1, 4, 2))})
        K = k_lambda(label)
        assert K.order == 32
        assert closure_order(K.generators, 4) == 32

    def test_swap_breaking_r1_family_excluded(self):
        levi = L44_SINGLETONS()
        label = CharLabel(levi, {1: (D(1, 1, 4, 2), D(2, 1, 4, 1))})
        K = k_lambda(label)
        assert K.order == 16
        assert closure_order(K.generators, 4) == 16

    def test_trivial_nu_does_not_filter(self):
        levi = L44_SINGLETONS()
        label = CharLabel(levi, {1: (D(1, 1, 4, 2), D(2, 1, 4, 1))},
                          ltilde_full=False)
        K = k_lambda(label)
        assert K.order == 32
        assert closure_order(K.generators, 4) == 32

    def test_normalizes_w_and_kernel(self):
        levi = L44_SINGLETONS()
        for descs in [(D(1, 1, 4, 2), D(1, 1, 4, 2)),
                      (D(1, 1, 4, 2), D(2, 1, 4, 1)),
                      (D(1, 1, 2, 1), D(2, 1, 2, 1))]:
            label = CharLabel(levi, {1: descs})
            W = stab_lambda(label)
            _, kernel = nu_lambda(label)
            K = k_lambda(label)
            w_set = closure_set(W.generators, 4)
            ker_set = closure_set(kernel.generators, 4)
            for k in K.generators:
                ki = k.inv()
                assert all(ki * g * k in w_set for g in W.generators)
                assert all(ki * g * k in ker_set for g in kernel.generators)

    def test_empty_label(self):
        K = k_lambda(CharLabel(L24_EMPTY(), {}))
        assert K.order == 1

    def test_order_formula_vs_closure_sweep(self):
        for n, d in [(2, 1), (2, 2), (2, 4), (3, 1), (3, 3)]:
            for levi in enumerate_labels(n, d):
                for shared in (True, False):
                    for assignment in descriptor_assignments(levi, shared):
                        K = k_lambda(CharLabel(levi, assignment))
                        assert closure_order(K.generators, n) == K.order


class TestKinvaCheck:
    def test_single_jump_orbit_report(self):
        label = CharLabel(L24(), {1: (D(1, 1, 4, 2),)})
        report = kinva_check(label)
        assert report["W_lambda_order"] == 4
        assert report["ker_index"] == 2
        assert report["xi0_count"] == 2
        assert report["pass"] is True
        assert len(report["witnesses"]) == 2
        assert all(w["xi_id"] is not None for w in report["witnesses"])
        assert isinstance(report["label"], str)
        json.dumps(report)

    def test_wreath_with_nu_on_both_components(self):
        levi = L44_SINGLETONS()
        d1 = D(1, 1, 4, 2)
        report = kinva_check(CharLabel(levi, {1: (d1, d1)}))
        assert report["W_lambda_order"] == 32
        assert report["ker_index"] == 2
        assert report["pass"] is True
        assert report["xi0_count"] == len(report["witnesses"])

    def test_trivial_nu_vacuous(self):
        label = CharLabel(L24(), {1: (D(1, 1, 4, 1),)})
        report = kinva_check(label)
        assert report["ker_index"] == 1
        assert report["pass"] is True
        assert all(w["xi_id"] == w["xi0_id"] for w in report["witnesses"])

    def test_empty_label(self):
        report = kinva_check(CharLabel(L24_EMPTY(), {}))
        assert report["W_lambda_order"] == 1
        assert report["xi0_count"] == 1
        assert report["pass"] is True

    def test_gate_failing_label_still_processed(self):
        label = CharLabel(L44_PAIRS(), {2: (D(1, 2, 4, 2),)})
        assert not cuspidal_gate(label)
        report = kinva_check(label)
        assert isinstance(report["pass"], bool)

    def test_deterministic(self):
        label = CharLabel(L24(), {1: (D(1, 1, 4, 2),)})
        assert kinva_check(label) == kinva_check(label)

    def test_memo_hit_respects_cap(self, monkeypatch):
        # A label whose K is larger than its W_lambda: the memo must keep
        # the largest group order reached, not the reported one.
        monkeypatch.setattr(cliff, "_KINVA_MEMO", {})
        label = next(
            cl for levi in enumerate_labels(2, 1)
            for cl in enumerate_char_labels(levi)
            if kinva_check(cl)["W_lambda_order"]
            < cliff._KINVA_MEMO[_kinva_key(cl)][0])
        order = cliff._KINVA_MEMO[_kinva_key(label)][0]

        def outcome(cap):
            try:
                return kinva_check(label, cap=cap)
            except ClosureExceedsCap as exc:
                return str(exc)

        for cap in (order - 1, order):
            kinva_check(label)
            warm = outcome(cap)
            monkeypatch.setattr(cliff, "_KINVA_MEMO", {})
            cold = outcome(cap)
            assert warm == cold
            assert isinstance(cold, str) is (cap < order)

    def test_memo_bound_drops_the_oldest(self, monkeypatch):
        labels = {}
        for levi in enumerate_labels(2, 4):
            for cl in enumerate_char_labels(levi):
                labels.setdefault(_kinva_key(cl), cl)
        keys, labels = list(labels)[:5], list(labels.values())[:5]
        monkeypatch.setattr(cliff, "_KINVA_MEMO", {})
        unbounded = [kinva_check(cl) for cl in labels]
        monkeypatch.setattr(cliff, "_KINVA_MEMO", {})
        monkeypatch.setattr(cliff, "_KINVA_MEMO_BOUND", 3)
        assert [kinva_check(cl) for cl in labels] == unbounded
        assert list(cliff._KINVA_MEMO) == keys[2:]
        assert kinva_check(labels[0]) == unbounded[0]
        assert list(cliff._KINVA_MEMO) == keys[3:] + keys[:1]

    def test_reaches_traced_chartab_functions(self, monkeypatch):
        # perfbench's selftest needs a span of each of these on the
        # kinva_sample workload, which reaches them only through here;
        # it reaches CycNum.promote through inner.
        calls = dict.fromkeys(("inner", "restrict", "__eq__", "promote"), 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("inner", "restrict"):
            for module in (chartab, cliff):
                monkeypatch.setattr(module, name,
                                    counted(name, getattr(module, name)))
        monkeypatch.setattr(ClassFunction, "__eq__",
                            counted("__eq__", ClassFunction.__eq__))
        monkeypatch.setattr(CycNum, "promote",
                            counted("promote", CycNum.promote))
        monkeypatch.setattr(cliff, "_KINVA_MEMO", {})
        kinva_check(CharLabel(L24(), {1: (D(1, 1, 4, 2),)}))
        assert all(calls.values()), calls

    def test_gate_implies_pass_sweep(self):
        checked = 0
        for n, d in [(2, 1), (2, 2), (2, 4), (3, 1), (3, 3), (4, 4)]:
            for levi in enumerate_labels(n, d):
                for shared in (True, False):
                    for assignment in descriptor_assignments(levi, shared):
                        for ltilde in (True, False):
                            label = CharLabel(levi, assignment,
                                              ltilde_full=ltilde)
                            if not cuspidal_gate(label):
                                continue
                            assert kinva_check(label)["pass"] is True
                            checked += 1
        assert checked > 100


def two_stage_key(label):
    """The memo key read in two stages, as kinva_check read it before the
    one-pass _kinva_key: the label's _canonical_structure, from its
    j_sets, then each class's central order mapped to its jump flag."""
    two_d0, ltilde_full, struct = _canonical_structure(label)
    if not struct:
        return (2, ())
    return (two_d0, tuple(
        (s, tuple((m, c, ltilde_full and _is_jump(c, central, two_d0))
                  for m, c, central in cell))
        for s, cell in struct))


def formatted_key(label):
    """CharLabel.key() formatted whole, as before the Levi label kept
    its text."""
    levi = label.levi
    pieces = [f"n{levi.n}", f"d{levi.d}",
              "Im1=" + ",".join(map(str, levi.I_minus1)),
              "I=" + "|".join(",".join(map(str, b)) for b in levi.I),
              f"lt{int(label.ltilde_full)}"]
    for s, descs in label.assignment.items():
        cell = ";".join(f"{d.id}:c{d.stab_order}:z{d.central_order}"
                        for d in descs)
        pieces.append(f"s{s}[{cell}]")
    return " ".join(pieces)


# The twist orders swept at each rank, and the number of character labels
# there: every label at rank <= 4 and d <= 8, and at rank 5 and d = 1.
SWEEP = {1: range(1, 9), 2: range(1, 9), 3: range(1, 9), 4: range(1, 9),
         5: (1,)}
SWEEP_COUNTS = {1: 32, 2: 156, 3: 1068, 4: 8968, 5: 42146}


@cache
def sweep(n, central_orders=(1, 2)):
    """The character labels of rank n at the twist orders of SWEEP[n],
    enumerated once for every test that reads them."""
    return tuple(label for d in SWEEP[n] for levi in enumerate_labels(n, d)
                 for label in enumerate_char_labels(levi, central_orders))


class TestOnePassReads:
    """The memo key, the inertia order and the label text, each read in
    one pass, against the reads they replaced."""

    @pytest.mark.parametrize("n", sorted(SWEEP))
    def test_key_equals_the_two_stage_oracle(self, n):
        count = 0
        for label in sweep(n):
            assert _kinva_key(label) == two_stage_key(label), label
            count += 1
        assert count == SWEEP_COUNTS[n]

    def test_key_sorts_classes_by_central_order(self):
        # A central order of 3 sorts after 2 but is never a jump, so the
        # flags of a cell need not come sorted.
        unsorted = 0
        for n in (1, 2):
            for label in sweep(n, central_orders=(1, 2, 3)):
                key = _kinva_key(label)
                assert key == two_stage_key(label), label
                unsorted += any(list(cell) != sorted(cell)
                                for _, cell in key[1])
        assert unsorted

    def test_descriptors_equal_by_value_are_one_class(self):
        label = CharLabel(L44_SINGLETONS(),
                          {1: (D(1, 1, 4, 2), D(1, 1, 4, 2))})
        assert _kinva_key(label) == two_stage_key(label) == (
            4, ((1, ((2, 4, True),)),))
        assert inertia_order(label) == 32

    @pytest.mark.parametrize("n", sorted(SWEEP))
    def test_inertia_order_is_that_of_stab_lambda(self, n):
        for label in sweep(n):
            assert inertia_order(label) == stab_lambda(label).order, label

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_inertia_order_is_the_closure_order(self, n):
        for label in sweep(n):
            gens = stab_lambda(label).generators
            assert inertia_order(label) == closure_order(gens, n), label

    @pytest.mark.parametrize("n", sorted(SWEEP))
    def test_key_text_equals_the_whole_formatting(self, n):
        # The Levi text is built for a Levi label's first character
        # label and reused for the rest.
        for label in sweep(n):
            assert label.key() == formatted_key(label), label


def partitions(m, largest=None):
    """The partitions of m, as non-increasing tuples."""
    if m == 0:
        yield ()
        return
    for first in range(min(m, largest or m), 0, -1):
        for rest in partitions(m - first, first):
            yield (first,) + rest


def compositions(m, c):
    """The c-tuples of non-negative integers summing to m."""
    if c == 1:
        yield (m,)
        return
    for first in range(m + 1):
        for rest in compositions(m - first, c - 1):
            yield (first,) + rest


def hook_dimension(la):
    """f^λ, the degree of the character λ of S_|λ|: |λ|! over the
    product of the hook lengths of λ's boxes."""
    columns = [sum(part > j for part in la) for j in range(la[0] if la else 0)]
    hooks = prod(part - j + columns[j] - i - 1
                 for i, part in enumerate(la) for j in range(part))
    return factorial(sum(la)) // hooks


def wreath_degrees(c, m):
    """The degrees of Irr(C_c wr S_m), one per c-tuple (λ_1, ..., λ_c) of
    partitions of total size m: m!/∏|λ_i|! · ∏ f^{λ_i}."""
    out = []
    for sizes in compositions(m, c):
        share = factorial(m) // prod(map(factorial, sizes))
        for las in itertools.product(*(list(partitions(k)) for k in sizes)):
            out.append(share * prod(map(hook_dimension, las)))
    return out


class TestDegreeOracle:
    """The degrees of every W_λ table against the closed form for a
    direct product of C_c wr S_m, which reads nothing of Dixon's method."""

    def test_hook_lengths_on_small_symmetric_groups(self):
        # S_m is C_1 wr S_m; C_c wr S_1 is cyclic.
        assert sorted(wreath_degrees(1, 4)) == [1, 1, 2, 3, 3]
        assert sorted(wreath_degrees(1, 5)) == [1, 1, 4, 4, 5, 5, 6]
        assert wreath_degrees(6, 1) == [1] * 6
        assert sorted(wreath_degrees(2, 2)) == [1, 1, 1, 1, 2]
        for c, m in itertools.product((1, 2, 3, 4), (1, 2, 3, 4)):
            assert (sum(f * f for f in wreath_degrees(c, m))
                    == c ** m * factorial(m))

    def test_every_inertia_table_has_the_wreath_degrees(self):
        # Every key of rank <= 5 and d <= 8, gate-failing ones included;
        # |W_λ| <= 2^5·5! = 3840 there, within the table cap of 10000.
        keys = {}
        for n in sorted(SWEEP):
            rest = [label for d in range(1, 9) if d not in SWEEP[n]
                    for levi in enumerate_labels(n, d)
                    for label in enumerate_char_labels(levi)]
            for label in itertools.chain(sweep(n), rest):
                keys.setdefault(_kinva_key(label), label)
        assert len(keys) == 437
        for key, label in keys.items():
            (n, w_gens, _, _), _ = _kinva_inputs(key)
            W = FiniteGroup.generate(w_gens or [SignedPerm.identity(n)],
                                     cap=10000)
            assert W.order == inertia_order(label) <= 3840, key
            degrees = [1]
            for _, cell in key[1]:
                for m, c, _ in cell:
                    degrees = [a * b for a in degrees
                               for b in wreath_degrees(c, m)]
            assert character_table(W).degrees == tuple(sorted(degrees)), key


def conjugation_fixes(cf, k, group):
    """Whether x -> cf(k x k^-1) equals cf, evaluated element by element
    from the class member lists and compared value by value."""
    data = group.conjugacy_classes()
    value_at = {}
    for j, members in enumerate(data.classes):
        for y in members:
            value_at[y] = cf.values[j]
    ki = k.inv()
    return all(value_at[k * rep * ki] == v
               for rep, v in zip(data.reps, cf.values))


def conjugation_action(k, group):
    """The permutation j -> class of k rep_j k^-1 of the classes of
    ``group``, by looking the conjugate up in the class member lists."""
    data = group.conjugacy_classes()
    class_at = {y: j for j, members in enumerate(data.classes)
                for y in members}
    ki = k.inv()
    return tuple(class_at[k * rep * ki] for rep in data.reps)


def structure_groups(label, cap=10000):
    """W, ker, K's generators and K's count for a label's structure, as
    the cold path of _kinva_compute builds them from its key."""
    key = _kinva_key(label)
    gens, _ = _kinva_inputs(key)
    W, ker, k_count = _kinva_groups(gens, cap, key)
    return W, ker, gens[3], k_count


def closed_K(k_gens, W):
    """K = <k_gens> as an explicit group, closed here from the generators
    that _kinva_inputs builds (the search itself never forms K)."""
    return FiniteGroup.generate(list(k_gens) or [W.identity], cap=10000)


def kinva_oracle(W, ker, K):
    """Stabilizers (indices into K.elements), their images in the class
    permutations of ker and W, and witnesses, by direct conjugation of
    every character by every element of K."""
    w_chars = character_table(W).characters
    actions = [(conjugation_action(k, ker), conjugation_action(k, W))
               for k in K.elements]
    stabilizers, images, xi_ids = [], [], []
    for xi0 in character_table(ker).characters:
        stab = tuple(i for i, k in enumerate(K.elements)
                     if conjugation_fixes(xi0, k, ker))
        xi_id = next((i for i, chi in enumerate(w_chars)
                      if inner(xi0, restrict(chi, ker)) > 0
                      and all(conjugation_fixes(chi, K.elements[s], W)
                              for s in stab)), None)
        stabilizers.append(stab)
        images.append({actions[s] for s in stab})
        xi_ids.append(xi_id)
    return actions, stabilizers, images, xi_ids


def structure_labels(max_n):
    """The first label of each structure at rank <= max_n and d <= 8,
    gate-failing ones included, in structure order."""
    labels = {}
    for n in range(1, max_n + 1):
        for d in range(1, 9):
            for levi in enumerate_labels(n, d):
                for label in enumerate_char_labels(levi):
                    labels.setdefault(_canonical_structure(label), label)
    return [labels[key] for key in sorted(labels)]


def test_class_permutation_search_matches_oracle():
    # Every structure at rank <= 3, gate-failing ones included: those
    # have characters without a witness.
    labels = structure_labels(3)
    assert len(labels) == 204
    for key in labels:
        W, ker, k_gens, k_order = structure_groups(key)
        K = closed_K(k_gens, W)
        assert K.order == k_order, key
        actions, stabilizers, images, xi_ids = kinva_oracle(W, ker, K)
        found_images, found_ids = _kinva_search(W, ker, k_gens, 10000)
        assert found_images == images, key
        assert found_ids == xi_ids, key
        # The image determines the stabilizer: its preimage in K is
        # exactly the set of elements fixing xi0.
        for image, stab in zip(found_images, stabilizers):
            assert tuple(i for i, a in enumerate(actions)
                         if a in image) == stab, key
        _, report = _kinva_compute(_kinva_key(key), 10000)
        witnesses = report["witnesses"]
        assert [w["xi_id"] for w in witnesses] == xi_ids, key


class TestKinvaGroups:
    def test_ker_is_w_exactly_when_nu_is_trivial(self):
        # A trivial nu has kernel W; a nontrivial one has index 2.
        trivial = 0
        labels = structure_labels(3)
        for key in labels:
            W, ker, _, _ = structure_groups(key)
            assert (ker is W) == (ker.order == W.order), key
            trivial += ker is W
        assert 0 < trivial < len(labels)

    # nu is nontrivial here (ker has index 2) and K is twice W: three
    # classes on one orbit each, of (c, central) (1, 1), (2, 1), (2, 2).
    @staticmethod
    def label():
        levi = LeviLabel(3, 1, (), ((1,), (2,), (3,)))
        return CharLabel(levi, {1: (D(1, 1, 1), D(2, 1, 2), D(3, 1, 2, 2))})

    def test_wrong_k_order_formula_raises(self, monkeypatch):
        structure = self.label()
        assert _canonical_structure(structure) == (
            2, True, ((1, ((1, 1, 1), (1, 2, 1), (1, 2, 2))),))
        assert structure_groups(structure)[3] == 8
        build_K = cliff._build_K

        def off_by_one(*args):
            gens, order, abstract = build_K(*args)
            return gens, order + 1, abstract

        monkeypatch.setattr(cliff, "_build_K", off_by_one)
        with pytest.raises(VerificationError, match="formulas"):
            _kinva_compute(_kinva_key(structure), 10000)

    def test_non_normalizing_k_generator_raises(self):
        # W flips the signs of points 2 and 3; the 3-cycle conjugates a
        # flip of 2 into one of 1 or 3, not both in W.
        key = _kinva_key(self.label())
        (n, w_gens, ker_gens, k_gens), _ = _kinva_inputs(key)
        assert n == 3
        bad = SignedPerm.from_cycles("(1,2,3)", n)
        with pytest.raises(VerificationError, match="does not normalize"):
            _kinva_groups((n, w_gens, ker_gens, list(k_gens) + [bad]),
                          10000, key)

    def test_k_closure_respects_the_cap(self):
        structure = self.label()
        W, ker, _, k_order = structure_groups(structure)
        assert ker.order < W.order < k_order
        with pytest.raises(ClosureExceedsCap):
            structure_groups(structure, k_order - 1)
        assert structure_groups(structure, k_order)[3] == k_order


class TestConcreteMemo:
    """Structures with one key share one report, computed once; every
    label still meets its cap."""

    @staticmethod
    def empty_memo(monkeypatch):
        monkeypatch.setattr(cliff, "_KINVA_MEMO", {})

    # Two structures that differ only in a central order that is not a
    # jump (c = 2 does not contain the Sylow 2-subgroup of C4): W = C2,
    # nu trivial, K of order 4.
    def pair(self):
        return [CharLabel(L24(), {1: (D(1, 1, 2, z),)}) for z in (1, 2)]

    def test_sharing_is_exact(self, monkeypatch):
        labels = structure_labels(3)
        self.empty_memo(monkeypatch)
        shared = [kinva_check(label) for label in labels]
        assert len(cliff._KINVA_MEMO) < len(labels) == 204
        cold = []
        for label in labels:
            self.empty_memo(monkeypatch)
            cold.append(kinva_check(label))
        assert shared == cold

    def test_non_jump_central_order_shares_one_entry(self, monkeypatch):
        first, second = self.pair()
        structures = [_canonical_structure(cl) for cl in (first, second)]
        assert structures[0] != structures[1]
        assert _kinva_key(first) == _kinva_key(second)
        self.empty_memo(monkeypatch)
        report = kinva_check(first)

        def no_build(*args, **kwargs):
            raise AssertionError("a memo hit built a group")

        # A hit synthesizes no generators and computes no table.
        for name in ("_synthesize_parts", "_build_K", "character_table"):
            monkeypatch.setattr(cliff, name, no_build)
        shared = kinva_check(second)
        assert len(cliff._KINVA_MEMO) == 1
        assert shared["label"] != report["label"]
        assert {**shared, "label": None} == {**report, "label": None}

    def test_cap_on_a_hit_raises_as_a_cold_run(self, monkeypatch):
        first, second = self.pair()
        key = _kinva_key(second)

        def outcome(cap):
            try:
                return kinva_check(second, cap=cap)
            except ClosureExceedsCap as exc:
                return str(exc)

        self.empty_memo(monkeypatch)
        report = kinva_check(first)
        k_order = cliff._KINVA_MEMO[key][0]
        assert report["W_lambda_order"] < k_order == 4
        for cap in (k_order - 1, k_order):
            self.empty_memo(monkeypatch)
            cold = outcome(cap)
            # A run over the cap leaves no report behind.
            assert (key in cliff._KINVA_MEMO) is (cap >= k_order)
            self.empty_memo(monkeypatch)
            kinva_check(first)
            warm = outcome(cap)
            assert list(cliff._KINVA_MEMO) == [key]
            assert warm == cold
            assert isinstance(warm, str) is (cap < k_order)

    @staticmethod
    def factors(abstract):
        """An abstract type with the factors of each product sorted: a
        label lists its classes in orbit order, a key in cell order."""
        kernel = abstract.startswith("ker(nu) < ")
        return kernel, tuple(tuple(sorted(side.split(" x "))) for side in
                             abstract.removeprefix("ker(nu) < ").split(" : "))

    def test_key_determines_the_groups(self):
        # W_lambda, ker(nu) and K of a label have the orders and types
        # of those synthesized from its key, for every structure at rank
        # <= 4, gate-failing ones included.
        labels = structure_labels(4)
        assert len(labels) == 676
        for label in labels:
            key = _kinva_key(label)
            parts, n = _synthesize_parts(key)
            w_gens, _, w_order, w_abstract = _build_W(parts, key[0], n)
            _, k_order, k_abstract = _build_K(parts, key[0], n, w_gens)
            ker_order = _kinva_inputs(key)[1][1]
            ker_abstract = (w_abstract if ker_order == w_order
                            else f"ker(nu) < {w_abstract}")
            synthesized = [(w_order, w_abstract), (ker_order, ker_abstract),
                           (k_order, k_abstract)]
            found = [stab_lambda(label), nu_lambda(label)[1], k_lambda(label)]
            assert ([(G.order, self.factors(G.abstract_type)) for G in found]
                    == [(order, self.factors(abstract))
                        for order, abstract in synthesized]), label


def wrong_order_roots():
    """Roots of unity of the wrong order for the residue map: 1, and
    z^p for the least prime p dividing the exponent."""
    def one(l, e):
        return 1

    def power(l, e):
        p = min(factorint(e), default=1)
        return pow(_root_of_unity(l, e), p, l)

    return [one, power]


class TestSearchChecks:
    """A broken residue map must raise or leave the answer unchanged."""

    def test_corrupted_w_entry_raises(self, monkeypatch):
        # Every class of W that meets ker feeds the multiplicities; one
        # entry off by one there must break a check.
        checked = 0
        for key in structure_labels(3):
            W, ker, k_gens, _ = structure_groups(key)
            table = character_table(W)
            for j, rep in enumerate(W.conjugacy_classes().reps):
                if rep not in ker.index:
                    continue
                t = j % len(table.values)
                values = [list(row) for row in table.values]
                values[t][j] = values[t][j] + 1
                bad = CharacterTable(W, table.exponent, table.prime,
                                     table.degrees,
                                     tuple(map(tuple, values)))
                monkeypatch.setattr(
                    cliff, "character_table",
                    lambda G, cap, bad=bad, W=W:
                        bad if G is W else character_table(G, cap=cap))
                with pytest.raises(VerificationError):
                    _kinva_search(W, ker, k_gens, 10000)
                checked += 1
        assert checked == 557

    def test_disagreeing_inner_product_raises(self, monkeypatch):
        # The witness's multiplicity, read off residues, is confirmed by
        # one exact inner product.
        W, ker, k_gens, _ = structure_groups(
            CharLabel(L24(), {1: (D(1, 1, 4, 2),)}))
        monkeypatch.setattr(cliff, "inner", lambda xi0, chi: -1)
        with pytest.raises(VerificationError, match="exact inner product"):
            _kinva_search(W, ker, k_gens, 10000)

    @pytest.mark.parametrize("root", wrong_order_roots(),
                             ids=["one", "power"])
    def test_root_of_wrong_order(self, monkeypatch, root):
        groups = {_canonical_structure(label): structure_groups(label)[:3]
                  for label in structure_labels(3)}
        truth = {key: _kinva_search(*g, 10000) for key, g in groups.items()}
        monkeypatch.setattr(cliff, "_root_of_unity", root)
        raised = set()
        for key, g in groups.items():
            try:
                found = _kinva_search(*g, 10000)
            except VerificationError:
                raised.add(key)
            else:
                assert found == truth[key], key
        assert (6, True, ((1, ((1, 6, 1),)),)) in raised


class TestResidue:
    # l = 13 is 1 mod 4, so F_13 has a root of unity of order 4.
    def test_conductor_outside_the_exponent_raises(self):
        # zeta_3 has no image under a root of order 4.
        with pytest.raises(VerificationError, match="conductor 3"):
            _residue(CycNum(3, (0, 1)), _root_of_unity(13, 4), 4, 13)

    def test_rational_coefficient_raises(self):
        with pytest.raises(VerificationError, match="cyclotomic integer"):
            _residue(CycNum(4, (Fraction(1, 2), 0)), _root_of_unity(13, 4),
                     4, 13)


def sign_extension_oracle(gens, values, order):
    """Whether the +-1 ``values`` on ``gens`` extend to a sign character
    of <gens> whose kernel has index 2, by propagating the signs along a
    breadth-first search and rejecting any element reached with both."""
    elements = group_closure(gens)
    if len(elements) != order:
        return False
    signs = {elements[0]: 1}
    queue = [elements[0]]
    while queue:
        nxt = []
        for x in queue:
            for g, vg in zip(gens, values):
                y = x * g
                if y not in signs:
                    signs[y] = signs[x] * vg
                    nxt.append(y)
                elif signs[y] != signs[x] * vg:
                    return False
        queue = nxt
    return sum(1 for v in signs.values() if v == 1) == order // 2


def sign_kernel_accepts(gens, values, order):
    found = (len(group_closure(gens)),
             len(group_closure(_sign_kernel(gens, values))))
    try:
        _check_orders(found, (order, order // 2), "test")
    except VerificationError:
        return False
    return True


class TestSignCharacterCheck:
    def test_order_three_generator_sent_to_minus_one(self):
        g = SignedPerm.from_cycles("(1,2,3)", 3)
        assert not sign_extension_oracle([g], (-1,), 3)
        assert not sign_kernel_accepts([g], (-1,), 3)

    @pytest.mark.parametrize("values", [(1, -1), (-1, 1)])
    def test_generator_listed_with_both_signs(self, values):
        g = SignedPerm.from_cycles("(1,2,-1,-2)", 2)
        assert not sign_extension_oracle([g, g], values, 4)
        assert not sign_kernel_accepts([g, g], values, 4)

    def test_every_rank3_assignment_is_accepted(self):
        checked = 0
        for structure in structure_labels(3):
            key = _kinva_key(structure)
            parts, n = _synthesize_parts(key)
            w_gens, values, w_order, _ = _build_W(parts, key[0], n)
            if all(v == 1 for v in values):
                continue
            assert sign_extension_oracle(w_gens, values, w_order), structure
            assert sign_kernel_accepts(w_gens, values, w_order), structure
            checked += 1
        assert checked == 36


class TestCuspidalGate:
    def test_all_central_trivial(self):
        assert cuspidal_gate(CharLabel(L44_PAIRS(), {2: (D(1, 2, 4, 1),)}))

    def test_gl2_with_order2_central_and_full_sylow(self):
        assert not cuspidal_gate(CharLabel(L44_PAIRS(), {2: (D(1, 2, 4, 2),)}))

    def test_gl2_order2_central_without_sylow(self):
        assert cuspidal_gate(CharLabel(L44_PAIRS(), {2: (D(1, 2, 2, 2),)}))

    def test_two_distinct_r1_classes_on_gl1(self):
        levi = L44_SINGLETONS()
        bad = CharLabel(levi, {1: (D(1, 1, 4, 2), D(2, 1, 4, 2))})
        assert not cuspidal_gate(bad)
        d1 = D(1, 1, 4, 2)
        good = CharLabel(levi, {1: (d1, d1)})
        assert cuspidal_gate(good)

    def test_empty_label(self):
        assert cuspidal_gate(CharLabel(L24_EMPTY(), {}))


class TestEnumerateCharLabels:
    def test_single_orbit_count(self):
        # one orbit at 2d0 = 4: divisors {1,2,4} x central {1,2} x cover
        labels = list(enumerate_char_labels(L24()))
        assert len(labels) == 12
        keys = [lab.key() for lab in labels]
        assert len(set(keys)) == 12

    def test_empty_label_two_cover_flags(self):
        labels = list(enumerate_char_labels(L24_EMPTY()))
        assert len(labels) == 2
        assert {lab.ltilde_full for lab in labels} == {True, False}
        assert all(lab.assignment == {} for lab in labels)

    def test_partitions_drive_sharing(self):
        # two orbits of size 1 at 2d0 = 4: shared class gives 6 choices,
        # split classes give 6 * 6; both cover flags double everything
        levi = LeviLabel(4, 4, (), ((1,), (2,), (3,), (4,)))
        labels = list(enumerate_char_labels(levi))
        assert len(labels) == 2 * (6 + 36)
        shapes = {tuple(len(set(lab.assignment[1])) for s in (1,))
                  for lab in labels}
        assert shapes == {(1,), (2,)}

    def test_all_valid_and_normalized(self):
        for lab in enumerate_char_labels(L44_PAIRS()):
            assert set(lab.assignment) == {2}

    def test_deterministic_order(self):
        first = [lab.key() for lab in enumerate_char_labels(L24())]
        second = [lab.key() for lab in enumerate_char_labels(L24())]
        assert first == second

    def test_custom_central_orders(self):
        labels = list(enumerate_char_labels(L24(), central_orders=(1,)))
        assert len(labels) == 6
        assert all(d.central_order == 1
                   for lab in labels
                   for descs in lab.assignment.values()
                   for d in descs)
