"""Named source mutants and the tests that must catch them.

Each mutant replaces one exact fragment of one file of
``src/dsplitlevi`` and names the tests that must fail on the result.
Run from anywhere, with pytest installed:

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

For each mutant the runner copies ``src/`` to a temporary directory,
applies the replacement there, and runs the mutant's tests in a
subprocess with PYTHONPATH at the copy, without hypothesis's pytest
plugin, which most test files do not need (those that use hypothesis
import it themselves).  It prints one line per mutant,
then the mutants that survive (a named test passed on them), and exits
1 if any survives.  ``tests/test_mutants.py`` checks in tier-1 that
every fragment still occurs exactly once in ``src/``; the runs
themselves are too slow for tier-1.

A surviving mutant is a finding about the tests, not a reason to drop
it from the list.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dsplitlevi"

Mutant = namedtuple("Mutant", "name file fragment replacement tests")

CHARTAB = "tests/test_chartab.py::TestCharacterTable::"
KEY = "tests/test_chartab.py::TestStructureKey::"
CLIFF = "tests/test_cliff.py::"
TORUS = "tests/test_torus.py::"
LEVI = "tests/test_levi.py::"
SIGNEDPERM = "tests/test_signedperm.py::"
EXTWEYL = "tests/test_extweyl.py::"
CLI = "tests/test_cli.py::"
ACCEPT = "tests/test_acceptance.py::"
ROOTSYS = "tests/test_rootsys.py::"
ARITH = "tests/test_arith.py::TestIntegerRoutines::"
CYCLO = "tests/test_cyclo.py::"

MUTANTS = [
    # The exact character table: the split of the identity-class vector
    # relies on its four raises and on the combination of Krylov powers
    # that gives each minimal polynomial, its components on the quotients
    # p/(x - λ), and the roots on every point of F_l; the lift on its two
    # raises and on the digit bound of its packed sums, and the
    # orthogonality recheck must run off the diagonal.
    Mutant("subspace_check_dropped", "chartab.py",
           "if line[1:len(eigenvalues) + 1] != eigenvalues:",
           "if False:",
           [CHARTAB + "test_noncommuting_class_matrices_leave_the_subspace"]),
    Mutant("diagonalise_raise_dropped", "chartab.py",
           "if len(roots) != len(poly) - 1:",
           "if False:",
           [CHARTAB + "test_jordan_block_fails_to_diagonalise"]),
    Mutant("separation_check_dropped", "chartab.py",
           "if len(parts) != r:",
           "if False:",
           [CHARTAB + "test_scalar_class_matrices_separate_nothing",
            CHARTAB + "test_corrupted_class_matrix_names_order_and_prime"]),
    Mutant("identity_coordinate_check_dropped", "chartab.py",
           "if u[0] % l == 0:",
           "if False:",
           [CHARTAB + "test_eigenvector_vanishing_on_the_identity_class"]),
    Mutant("krylov_combination_sign_flipped", "chartab.py",
           "combo[s] -= f * c",
           "combo[s] += f * c",
           [CHARTAB + "test_s4_degrees",
            CLI + "TestChartab::test_tables_match_golden_digests[c4wrs3]",
            "tests/test_chartab.py::TestKinvaSweepTables::"
            "test_tables_match_golden_digest"]),
    Mutant("split_component_without_quotient", "chartab.py",
           "_apply(krylov, _divide(poly, lam, l)[0], r, l)",
           "_apply(krylov, poly[1:], r, l)",
           [CHARTAB + "test_s3_frozen",
            CLI + "TestChartab::test_tables_match_golden_digests[c4wrs3]",
            KEY + "test_shared_tables_equal_fresh_ones"]),
    Mutant("roots_skip_zero", "chartab.py",
           "values, points = [0] * l, range(l)",
           "values, points = [0] * l, range(1, l)",
           [CHARTAB + "test_s3_frozen",
            CHARTAB + "test_s4_degrees"]),
    Mutant("lift_bound_dropped", "chartab.py",
           "if max(poly) > max_degree:",
           "if False:",
           [CHARTAB + "test_non_root_of_unity_fails_lift_bound"]),
    Mutant("lift_digit_bound_dropped", "chartab.py",
           "bits = (e * l * l).bit_length()",
           "bits = l.bit_length()",
           [CHARTAB + "test_s4_degrees",
            CLI + "TestChartab::test_tables_match_golden_digests[c4wrs3]"]),
    Mutant("lifted_degree_dropped", "chartab.py",
           "if known[0] != d:",
           "if False:",
           [CHARTAB + "test_trivial_root_fails_lifted_degree"]),
    Mutant("orthogonality_diagonal_only", "chartab.py",
           "for c in conj_rows[t1:]]",
           "for c in conj_rows[t1:t1 + 1]]",
           [CHARTAB + "test_entry_times_root_of_unity_rejected[s4]",
            CHARTAB + "test_entry_times_root_of_unity_rejected[q8]"]),
    # The degree checks of character_table, each fed crafted eigenvector
    # lines that only it refuses.
    Mutant("line_count_check_dropped", "chartab.py",
           "if len(omegas) != r:",
           "if False:",
           [CHARTAB + "test_missing_eigenvector_line"]),
    Mutant("degree_match_check_dropped", "chartab.py",
           "if d is None:",
           "if False:",
           [CHARTAB + "test_line_with_no_degree"]),
    Mutant("degree_squares_check_dropped", "chartab.py",
           "if sum(d * d for d in degrees) != G.order:",
           "if False:",
           [CHARTAB + "test_degree_squares_short_of_the_order"]),
    Mutant("degree_divisibility_check_dropped", "chartab.py",
           "if any(G.order % d for d in degrees):",
           "if False:",
           [CHARTAB + "test_degree_not_dividing_the_order"]),
    # The cheaper table steps: the packed orthogonality sums need their
    # digit bound, and the sparse class-matrix columns their counts.
    Mutant("orthogonality_digit_bound_dropped", "chartab.py",
           "bits = (4 * G.order * (nu * nu + 1) * (1 + h) ** (phi - 1))"
           ".bit_length()",
           "bits = 1",
           [CHARTAB + "test_entry_off_by_phi_at_two_rejected[s4]",
            CHARTAB + "test_entry_off_by_phi_at_two_rejected[q8]"]),
    Mutant("sparse_column_counts_dropped", "chartab.py",
           "out[i] += c * v",
           "out[i] += c",
           [CHARTAB + "test_s4_degrees",
            CLI + "TestChartab::test_tables_match_golden_digests[c4wrs3]"]),
    Mutant("class_permutation_by_k", "chartab.py",
           "by = _conjugator(k.inv().img)",
           "by = _conjugator(k.img)",
           ["tests/test_chartab.py::"
            "test_class_permutation_conjugates_by_k_not_its_inverse"]),
    Mutant("class_permutation_rank_check_dropped", "chartab.py",
           "if len(k.img) != len(N.identity.img):",
           "if False:",
           ["tests/test_chartab.py::"
            "test_class_permutation_rejects_mixed_ranks[lower]",
            "tests/test_chartab.py::"
            "test_class_permutation_rejects_mixed_ranks[higher]"]),
    # Extendibility over an abelian normal subgroup: the derived
    # subgroup is V_theta's, not V's, and the normal closure of its
    # generators' commutators, not the subgroup they generate; H must be
    # abelian.
    Mutant("derived_subgroup_of_v", "chartab.py",
           "gens = V_theta.generators",
           "gens = V.generators",
           [ACCEPT + "test_06_extended_weyl_cover_maximal_extendibility"]),
    Mutant("commutators_without_normal_closure", "chartab.py",
           "pending += [c.conj(g) for g in gens]",
           "pending += []",
           ["tests/test_chartab.py::TestInertiaExtendibility::"
            "test_derived_subgroup_is_a_normal_closure"]),
    Mutant("abelian_check_dropped", "chartab.py",
           "if len(data.reps) != H.order:",
           "if False:",
           ["tests/test_chartab.py::TestInertiaExtendibility::"
            "test_abelian_subgroup_required"]),
    # The structure key of the table cache (chartab._table_key) holds
    # each generator's action, and is refused unless the elements are
    # closed under the generators and the generators generate them; a
    # hit takes its classes from the cached element positions.
    Mutant("table_key_ignores_action", "chartab.py",
           "return start, actions",
           "return start, G.order",
           [KEY + "test_shared_tables_equal_fresh_ones",
            KEY + "test_cold_pass_runs_dixon_once_per_structure",
            "tests/test_chartab.py::TestKinvaSweepTables::"
            "test_tables_match_golden_digest"]),
    Mutant("table_generation_check_dropped", "chartab.py",
           "if len(reached) != G.order:",
           "if False:",
           [KEY + "test_generators_must_generate_the_group"]),
    Mutant("table_closure_check_dropped", "chartab.py",
           "at[step(t)] for t in tables",
           "at.get(step(t), 0) for t in tables",
           [KEY + "test_elements_must_be_closed_under_the_generators"]),
    Mutant("table_classes_misplaced", "chartab.py",
           "for orb in places])",
           "for orb in places[::-1]])",
           [KEY + "test_shared_tables_equal_fresh_ones"]),
    # The Clifford memo key (cliff._kinva_key), read in one pass over a
    # label's descriptors: its flag drops ltilde_full, its flag drops the
    # jump, its 2d0 is fixed at 2, and it forgets how many orbits share a
    # class.
    Mutant("kinva_key_flag_without_ltilde", "cliff.py",
           "ltilde_full and _is_jump(c, central, two_d0)",
           "_is_jump(c, central, two_d0)",
           [CLIFF + "TestConcreteMemo::test_key_determines_the_groups",
            CLIFF + "TestSearchChecks::test_corrupted_w_entry_raises",
            CLIFF + "TestSignCharacterCheck::"
                    "test_every_rank3_assignment_is_accepted",
            CLI + "TestKinva::test_reports_match_golden_digests[1]",
            ACCEPT + "test_09_invariance_criterion_exhaustive"]),
    Mutant("kinva_key_flag_without_jump", "cliff.py",
           "ltilde_full and _is_jump(c, central, two_d0)",
           "ltilde_full",
           [CLIFF + "TestConcreteMemo::test_key_determines_the_groups",
            CLIFF + "TestConcreteMemo::test_sharing_is_exact",
            CLIFF + "TestKinvaGroups::"
                    "test_ker_is_w_exactly_when_nu_is_trivial",
            CLI + "TestKinva::test_reports_match_golden_digests[1]",
            ACCEPT + "test_09_invariance_criterion_exhaustive"]),
    Mutant("kinva_key_without_two_d0", "cliff.py",
           "return (two_d0, tuple(",
           "return (2, tuple(",
           [CLIFF + "TestConcreteMemo::test_key_determines_the_groups",
            CLIFF + "TestKinvaCheck::test_single_jump_orbit_report",
            CLI + "TestDeterminism::test_byte_identical[kinva --n 2 --d 4]",
            ACCEPT + "test_09_invariance_criterion_exhaustive"]),
    Mutant("kinva_key_without_multiplicity", "cliff.py",
           "counts[cls] = counts.get(cls, 0) + 1",
           "counts[cls] = 1",
           [CLIFF + "TestOnePassReads::test_key_equals_the_two_stage_oracle[3]",
            CLIFF + "TestOnePassReads::"
                    "test_descriptors_equal_by_value_are_one_class",
            CLIFF + "TestConcreteMemo::test_key_determines_the_groups"]),
    # |W_lambda| read off the descriptor counts through the one wreath
    # order formula, and the text of a Levi label kept for its character
    # labels.
    Mutant("inertia_order_without_factorial", "signedperm.py",
           "order *= c ** m * factorial(m)",
           "order *= c ** m",
           [CLIFF + "TestOnePassReads::"
                    "test_inertia_order_is_the_closure_order[3]",
            CLIFF + "TestStabLambda::test_two_orbits_shared_descriptor",
            CLI + "TestKinva::test_wmax_filters"]),
    Mutant("levi_text_ignores_I_minus1", "levi.py",
           '"Im1=" + ",".join(map(str, self.I_minus1)),',
           '"Im1=",',
           [CLIFF + "TestOnePassReads::"
                    "test_key_text_equals_the_whole_formatting[3]",
            CLI + "TestKinva::test_reports_match_golden_digests[2]"]),
    # The guards of the invariance check: the closure orders against the
    # formulas, the residue map's two input checks, K normalizing W and
    # ker, Frobenius reciprocity, and the exact inner product.
    Mutant("check_orders_dropped", "cliff.py",
           "if found != formulas:",
           "if False:",
           [CLIFF + "TestKinvaGroups::test_wrong_k_order_formula_raises",
            CLIFF + "TestSignCharacterCheck::"
                    "test_order_three_generator_sent_to_minus_one"]),
    Mutant("residue_conductor_check_dropped", "cliff.py",
           "if E % value.d:",
           "if False:",
           [CLIFF + "TestResidue::test_conductor_outside_the_exponent_raises"]),
    Mutant("residue_integer_check_dropped", "cliff.py",
           "if type(c) is not int:",
           "if False:",
           [CLIFF + "TestResidue::test_rational_coefficient_raises"]),
    Mutant("k_normalize_check_dropped", "cliff.py",
           "if any(by(g.table()) not in G.at for g in G.generators):",
           "if False:",
           [CLIFF + "TestKinvaGroups::"
                    "test_non_normalizing_k_generator_raises"]),
    Mutant("frobenius_check_dropped", "cliff.py",
           "if (max(map(sub, mults, w_table.degrees)) > 0",
           "if False and (max(map(sub, mults, w_table.degrees)) > 0",
           [CLIFF + "TestSearchChecks::test_corrupted_w_entry_raises"]),
    Mutant("inner_product_check_dropped", "cliff.py",
           "!= mults[xi_id]:",
           "!= mults[xi_id] and False:",
           [CLIFF + "TestSearchChecks::test_disagreeing_inner_product_raises"]),
    Mutant("witness_invariance_check_dropped", "cliff.py",
           "if not all([is_invariant(chi, p) for p in acting]):",
           "if False:",
           [CLIFF + "TestSearchChecks::test_witness_not_invariant_raises"]),
    # The search reads invariance off each character's numbered row, and
    # the exact inner product promotes each value to the common
    # conductor.
    Mutant("fixing_set_ignores_the_character", "cliff.py",
           "if tuple(map(numbers.__getitem__, p)) == numbers}",
           "}",
           [CLIFF + "test_class_permutation_search_matches_oracle"]),
    Mutant("inner_without_promotion", "chartab.py",
           "promoted = {key: v.promote(D).coeffs",
           "promoted = {key: v.coeffs",
           ["tests/test_chartab.py::TestInduceRestrict::"
            "test_inner_matches_oracle_with_fractions_and_mixed_conductors"]),
    # K from one member per family: the first member's diagonal cycle,
    # every adjacent swap, and each part's share of W's generators.
    Mutant("k_family_without_first_diagonal", "cliff.py",
           "            gens.append(diag)\n            gens.extend(",
           "            gens.extend(",
           [CLIFF + "TestKGenerators::"
                    "test_one_member_per_family_generates_the_same_group",
            CLI + "TestKinva::test_reports_match_golden_digests[1]"]),
    Mutant("k_family_missing_a_swap", "cliff.py",
           "for a, b in zip(members, members[1:]):\n            swap",
           "for a, b in zip(members, members[2:]):\n            swap",
           [CLIFF + "TestKGenerators::"
                    "test_one_member_per_family_generates_the_same_group",
            CLIFF + "TestKLambda::test_swap_between_r1_classes_allowed"]),
    Mutant("k_w_share_misaligned", "cliff.py",
           "w_count = (m if part.c > 1 else 0) + m - 1",
           "w_count = m - 1",
           [CLIFF + "TestKGenerators::"
                    "test_one_member_per_family_generates_the_same_group"]),
    # The Clifford groups: nu's value on a flagged cyclic generator of
    # W, K's swap filter read off the flags, and where W's classes sit
    # in the one signed permutation that acts on both class sets.
    Mutant("nu_value_on_flagged_cyclic", "cliff.py",
           "-1 if part.flag else 1",
           "1",
           [CLIFF + "TestNuLambda::test_jump_kernel_index2",
            CLIFF + "TestKinvaCheck::test_single_jump_orbit_report",
            CLIFF + "TestSignCharacterCheck::"
                    "test_every_rank3_assignment_is_accepted",
            CLI + "TestKinva::test_reports_match_golden_digests[1]",
            ACCEPT + "test_09_invariance_criterion_exhaustive"]),
    Mutant("swap_filter_without_flags", "cliff.py",
           "filtering = any(part.flag for part in parts)",
           "filtering = False",
           [CLIFF + "TestKLambda::test_swap_breaking_r1_family_excluded",
            CLIFF + "TestKinvaGroups::test_k_closure_respects_the_cap",
            CLIFF + "TestConcreteMemo::test_sharing_is_exact",
            CLI + "TestKinva::test_reports_match_golden_digests[2]",
            ACCEPT + "test_09_invariance_criterion_exhaustive"]),
    Mutant("w_class_offset_in_action", "cliff.py",
           "r + 1 + j",
           "1 + j",
           [CLIFF + "test_class_permutation_search_matches_oracle",
            CLIFF + "TestKinvaCheck::test_single_jump_orbit_report",
            CLI + "TestKinva::test_reports_match_golden_digests[1]",
            ACCEPT + "test_09_invariance_criterion_exhaustive"]),
    # The twisted torus on discrete logs.
    Mutant("lang_map_even_d_frobenius_sign", "torus.py",
           "prev = (-u[d0 - 1],) + u[:d0 - 1]",
           "prev = (u[d0 - 1],) + u[:d0 - 1]",
           [TORUS + "TestLangMap::test_fixed_points_q3_d2",
            TORUS + "TestLangMap::test_kernel_count_small_grid",
            TORUS + "TestTheta::test_bijection_onto_kernel",
            CLI + "TestVerify::test_torus_small",
            ACCEPT + "test_07_twisted_torus_fixed_points"]),
    Mutant("psi_exponent_off_by_one", "torus.py",
           "self.psi = FqElem(e, self.M)",
           "self.psi = FqElem(e + 1, self.M)",
           [TORUS + "TestTwistedOrbit::test_q3_d2",
            TORUS + "TestTwistedOrbit::test_psi_defining_identity",
            CLI + "TestVerify::test_torus_small",
            ACCEPT + "test_07_twisted_torus_fixed_points"]),
    Mutant("theta_odd_coordinate_sign", "torus.py",
           "coords.append(t ** (-(q ** ((d0 + j) // 2))))",
           "coords.append(t ** (q ** ((d0 + j) // 2)))",
           [TORUS + "TestTheta::test_image_in_kernel_beyond_enumeration",
            TORUS + "TestCentralStabilizerJump::"
                    "test_jump_iff_order_two_on_grid",
            ACCEPT + "test_07_twisted_torus_fixed_points"]),
    Mutant("minus_one_of_order_four", "torus.py",
           "return FqElem(self.log + self.M // 2, self.M)",
           "return FqElem(self.log + self.M // 4, self.M)",
           [TORUS + "TestFq::test_pow_and_order",
            TORUS + "TestFq::test_field_axioms_f9",
            TORUS + "TestTwistedOrbit::test_psi_defining_identity",
            ACCEPT + "test_07_twisted_torus_fixed_points"]),
    Mutant("cycling_without_inversion", "torus.py",
           "return TorusElem(h.coords[1:] + (h.coords[0].inv(),))",
           "return TorusElem(h.coords[1:] + (h.coords[0],))",
           [TORUS + "TestConjCenterAction::test_q3_d2_inversion",
            TORUS + "TestConjCenterAction::test_d0_even_form",
            CLI + "TestVerify::test_torus_small",
            ACCEPT + "test_07_twisted_torus_fixed_points"]),
    Mutant("z_plus_even_d0_without_signs", "torus.py",
           "coords.append(one if j % 2 == 0 else minus)",
           "coords.append(one)",
           [TORUS + "TestZPlus::test_lang_of_z_plus_is_z",
            TORUS + "TestZPlus::test_square_trivial_when_d0_even",
            TORUS + "TestConjCenterAction::test_d0_even_form",
            ACCEPT + "test_07_twisted_torus_fixed_points"]),
    # z_plus checks its Lang image, and the discrete-log search of
    # central_stabilizer_jump refuses an element off theta's image.
    Mutant("z_plus_lang_check_dropped", "torus.py",
           "if lang_map(out, orbit) != theta(orbit, minus):",
           "if False:",
           [TORUS + "TestZPlus::test_wrong_lang_image_raises",
            CLI + "TestChecksUnderOptimize::"
                  "test_torus_suite_reports_failed_half_point_check"]),
    Mutant("log_in_kernel_guard_dropped", "torus.py",
           "                return k\n        raise VerificationError(",
           "                return k\n        return 0\n"
           "        raise VerificationError(",
           [TORUS + "TestCentralStabilizerJump::"
                    "test_action_outside_the_kernel_raises"]),
    Mutant("unit_equality_ignores_field", "torus.py",
           "self.log == other.log\n                and self.M == other.M",
           "self.log == other.log",
           [TORUS + "TestTheta::test_order_condition_enforced"]),
    # The root system of type C: the reflection in a long root 2e_i
    # flips the sign of i, and stability is checked root by root.
    Mutant("long_root_reflection_without_sign", "rootsys.py",
           "img[i - 1] = -i",
           "img[i - 1] = i",
           [ROOTSYS + "TestReflections::test_table",
            ROOTSYS + "TestReflections::"
                      "test_weyl_group_of_type_c_is_signed_symmetric",
            ROOTSYS + "TestReflections::"
                      "test_perm_action_matches_linear_reflection"]),
    Mutant("stability_always_true", "rootsys.py",
           "return all(apply_to_root(x, r) in rootset for r in rootset)",
           "return True",
           [ROOTSYS + "TestStability::test_sign_flip_breaks_a_block",
            ROOTSYS + "TestStability::"
                      "test_matches_blockwise_criterion_exhaustively"]),
    # The small-integer routines: a perfect power's base must be prime,
    # and Miller-Rabin needs more than the bases 2, 3, 5 and 7, to which
    # 3215031751 is a strong pseudoprime.
    Mutant("prime_power_composite_base", "arith.py",
           "return (r, k) if isprime(r) else None",
           "return (r, k)",
           [ARITH + "test_large_prime_powers"
                    "[14975624970497949696-None]"]),
    Mutant("miller_rabin_four_bases", "arith.py",
           "for a in _MR_BASES:",
           "for a in _MR_BASES[:4]:",
           [ARITH + "test_large_prime_powers[3215031751-None]"]),
    # The brute-force oracles on image tuples: the normalizer's closure
    # check and two-sided conjugation, the centralizer's two products,
    # the root action's masks of where each signed point is sent (g(-p)
    # is -g(p)), and the relative Weyl check's comparison of cosets.
    Mutant("normalizer_closure_check_dropped", "signedperm.py",
           "if not all(map(inside, map(_composer(b), tables))):",
           "if False:",
           [SIGNEDPERM + "TestImageTupleOracles::"
                         "test_non_closed_set_rejected"]),
    Mutant("normalizer_one_sided_conjugation", "signedperm.py",
           "map(_conjugator(g.img), tables)",
           "map(_composer(g.img), tables)",
           [SIGNEDPERM + "TestImageTupleOracles::"
                         "test_normalizer_matches_products[2]",
            SIGNEDPERM + "TestBruteNormalizer::test_single_flip_subgroup",
            SIGNEDPERM + "TestBlockWreathNormalizer::"
                         "test_prediction_matches_brute_force_rank_le_3",
            CLI + "TestVerify::test_reports_match_golden_digests"
                  "[normalizers-n2-json]",
            ACCEPT + "test_02_block_wreath_normalizers"]),
    # The composition kernel: a one-item itemgetter returns the item,
    # not a tuple, and conjugation reads k⁻¹'s table, not k's.
    Mutant("conj_rank_check_dropped", "signedperm.py",
           "if len(self.img) != len(g.img):",
           "if False:",
           [SIGNEDPERM + "TestKernel::test_mixed_ranks_rejected"]),
    Mutant("composer_rank_one_scalar", "signedperm.py",
           "return lambda t: (t[b],)",
           "return lambda t: t[b]",
           [SIGNEDPERM + "TestClosure::test_single_involution",
            SIGNEDPERM + "TestCompositionKernel::"
                         "test_products_and_conjugates_match_lookups[1]"]),
    Mutant("conjugator_without_inverse", "signedperm.py",
           "right, left = _composer(img), _signed_table(_inverse(img))",
           "right, left = _composer(img), _signed_table(img)",
           [SIGNEDPERM + "TestCompositionKernel::"
                         "test_products_and_conjugates_match_lookups[3]",
            SIGNEDPERM + "TestCompositionKernel::"
                         "test_normalizer_and_centralizer_match_lookups[2]",
            CHARTAB + "test_s4_degrees"]),
    Mutant("centralizer_one_sided_product", "signedperm.py",
           "by_x(g.table()) == _composer(gimg)(tx)",
           "_composer(gimg)(tx) == _composer(gimg)(tx)",
           [SIGNEDPERM + "TestImageTupleOracles::"
                         "test_centralizer_matches_products[2]",
            CLI + "TestVerify::test_reports_match_golden_digests"
                  "[centralizers-n2-json]",
            ACCEPT + "test_01_centralizer_order_formula"]),
    Mutant("root_action_pairing_sign", "levi.py",
           "sends[-p, -image] |= bit",
           "sends[-p, image] |= bit",
           [LEVI + "TestRootAction::test_equals_apply_to_root[2]",
            LEVI + "TestVerify::test_all_labels_verify[3]",
            LEVI + "TestOracleBase::test_base_gives_the_same_groups[3]",
            ACCEPT + "test_04_relative_weyl_groups_brute_verified"]),
    Mutant("relative_weyl_cosets_by_count", "levi.py",
           "return len(images) == len(V) and images == fixed",
           "return len(images) == len(V) and len(images) == len(fixed)",
           [LEVI + "TestVerify::test_cosets_are_compared_not_counted"]),
    # The label classification's exact eigenspace test: a root set that
    # its double perpendicular only contains passes, U is combined from
    # the first eigenvector only, or the pairing with a root drops its
    # negative coordinates.  The inverse by the Galois norm checks that
    # the norm is rational.
    Mutant("eq1_vacuous_superset", "cyclo.py",
           "return perp == set(roots)",
           "return perp >= set(roots)",
           [ACCEPT + "test_03_label_classification_equals_eigenspace_test"]),
    Mutant("eq1_u_from_first_eigenvector", "cyclo.py",
           "for x, b in zip(combo, V):",
           "for x, b in zip(combo[:1], V):",
           [CYCLO + "test_eq1_is_the_double_perp_of_any_root_set[2]",
            CYCLO + "test_eq1_is_the_double_perp_of_any_root_set[3]",
            ACCEPT + "test_03_label_classification_equals_eigenspace_test"]),
    Mutant("eq1_pairing_skips_negative_coordinates", "cyclo.py",
           "if r:",
           "if r > 0:",
           [CYCLO + "test_eq1_is_the_double_perp_of_any_root_set[2]",
            CYCLO + "test_eq1_is_the_double_perp_of_any_root_set[3]",
            ACCEPT + "test_03_label_classification_equals_eigenspace_test"]),
    Mutant("inv_norm_guard_dropped", "cyclo.py",
           "if not norm.is_rational():",
           "if False:",
           [CYCLO + "TestCycNum::test_inverse_checks_the_galois_norm"]),
    # The Chevalley generator cache: a key that ignores t hands out the
    # first sign's matrix for both.
    Mutant("chevalley_key_without_t", "extweyl.py",
           "@lru_cache(maxsize=CHEVALLEY_CACHE_SIZE)\n"
           "def _generator(kind, root, t):",
           "def _keyed_without_t(fn):\n"
           "    memo = {}\n"
           "    def get(kind, root, t):\n"
           "        if (kind, root) not in memo:\n"
           "            memo[kind, root] = fn(kind, root, t)\n"
           "        return memo[kind, root]\n"
           "    return get\n\n\n"
           "@_keyed_without_t\n"
           "def _generator(kind, root, t):",
           [EXTWEYL + "TestGeneratorCache::"
                      "test_cached_generators_equal_fresh_products[2]",
            EXTWEYL + "TestChevalleyGenerators::test_rank_one_n_matrix",
            CLI + "TestVerify::test_reports_match_golden_digests"
                  "[extweyl-n2-json]"]),
    # The twist elements: v lifts the Sylow twist; c_1 lifts w'_J and,
    # once corrected by a diagonal, commutes with v; p_k lifts the swap of
    # two grid sets and squares to their diagonals; each c_k lifts w'_J;
    # and v' = c_1 ... c_a commutes with v.
    Mutant("twist_lift_check_dropped", "extweyl.py",
           "if rho(v) != sylow_twist_w(n, d):",
           "if False:",
           [EXTWEYL + "TestTwistGuards::test_v_must_lift_the_sylow_twist"]),
    Mutant("c_1_lift_check_dropped", "extweyl.py",
           "if rho(c1) != wprime(J1, n):",
           "if False:",
           [EXTWEYL + "TestTwistGuards::test_c_1_must_lift_w_prime"]),
    Mutant("c_1_correction_check_dropped", "extweyl.py",
           'raise VerificationError("no diagonal correction makes c_1 "\n'
           '                                f"centralize v (n={n}, d={d})")',
           "pass",
           [EXTWEYL + "TestTwistGuards::"
                      "test_c_1_needs_a_diagonal_correction"]),
    Mutant("p_swap_check_dropped", "extweyl.py",
           "if rho(pk) != tau(grids[k - 1], grids[k], n):",
           "if False:",
           [EXTWEYL + "TestTwistGuards::test_p_1_must_lift_the_swap"]),
    Mutant("p_square_check_dropped", "extweyl.py",
           "if pk * pk != hs[k - 1] * hs[k]:",
           "if False:",
           [EXTWEYL + "TestTwistGuards::"
                      "test_p_1_must_square_to_the_diagonals"]),
    Mutant("c_k_lift_check_dropped", "extweyl.py",
           "if rho(ck) != wprime(grids[k - 1], n):",
           "if False:",
           [EXTWEYL + "TestTwistGuards::test_c_2_must_lift_w_prime"]),
    Mutant("v_prime_commute_check_dropped", "extweyl.py",
           "if v_prime * v != v * v_prime:",
           "if False:",
           [EXTWEYL + "TestTwistGuards::test_v_prime_must_commute_with_v"]),
    # The lift of each grid-set element by κ: h_i to a diagonal, c_i to a
    # lift of w'_Q, p_k to a lift of the swap of two Q sets.
    Mutant("kappa_h_check_dropped", "extweyl.py",
           "if rho(kh) != SignedPerm.identity(n):",
           "if False:",
           [EXTWEYL + "TestBuildVdI::"
                      "test_kappa_of_a_cycle_in_place_of_h_is_not_diagonal"]),
    Mutant("kappa_c_check_dropped", "extweyl.py",
           "if rho(kc) != wprime_Q(orbs[i].Q, n):",
           "if False:",
           [EXTWEYL + "TestBuildVdI::"
                      "test_kappa_of_a_diagonal_in_place_of_c_lifts_no_cycle"]),
    Mutant("kappa_p_check_dropped", "extweyl.py",
           "if rho(kp) != tau_Q(orbs[k].Q, orbs[k + 1].Q, n):",
           "if False:",
           [EXTWEYL + "TestBuildVdI::"
                      "test_kappa_of_a_diagonal_in_place_of_p_lifts_no_swap"]),
    # The relative Weyl oracle: Stab(Φ_L) is the intersection over the
    # base of the masks of the elements sending that root into Φ_L.
    Mutant("stabiliser_masks_joined_over_base", "levi.py",
           "stab = reduce(and_, ",
           "stab = reduce(or_, ",
           [LEVI + "TestOracleBase::test_base_gives_the_same_groups[4]",
            LEVI + "TestOracleBase::"
                   "test_masks_give_the_reference_stabiliser_through_rank_5",
            ACCEPT + "test_04_relative_weyl_groups_brute_verified"]),
    # Streamed reports: the label order and laziness of
    # enumerate_labels, and the chunked writers.
    Mutant("label_sort_key_reordered", "levi.py",
           "sorted((minus1(T), T) for T in subsets)",
           "sorted(((minus1(T), T) for T in subsets), key=lambda e: e[1])",
           [LEVI + "TestEnumerate::test_deterministic_order",
            LEVI + "TestConstructionAgainstOracle::"
                   "test_same_labels_same_order[4]",
            CLI + "TestLevis::test_reports_match_golden_digests[5]"]),
    Mutant("label_sort_within_subset_dropped", "levi.py",
           "keys.sort()",
           "pass",
           [LEVI + "TestEnumerate::test_deterministic_order",
            LEVI + "TestConstructionAgainstOracle::"
                   "test_same_labels_same_order[4]",
            CLI + "TestLevis::test_reports_match_golden_digests[5]"]),
    Mutant("labels_built_up_front", "levi.py",
           "return labels()",
           "return iter(list(labels()))",
           [LEVI + "TestEnumerate::test_labels_are_built_when_reached",
            CLI + "TestLevis::test_report_streams_in_bounded_memory[json]"]),
    Mutant("chunk_separator_dropped", "cli.py",
           '_write(lead, chunks, ",", tail)',
           '_write(lead, chunks, "", tail)',
           [CLI + "TestStreamingWriters::"
                  "test_writers_match_the_whole_report",
            CLI + "TestLevis::test_reports_match_golden_digests[5]"]),
    Mutant("json_head_after_labels", "cli.py",
           "else sum(k < key for k, _ in fields)",
           "else 0",
           [CLI + "TestStreamingWriters::"
                  "test_writers_match_the_whole_report",
            CLI + "TestDeterminism::test_json_is_canonical",
            CLI + "TestLevis::test_reports_match_golden_digests[5]"]),
    # Label rows: the text after a levis row's I and I_minus1 is keyed on
    # the label's t, block sizes included (|I_minus1| follows from t at
    # one (n, d), so dropping it from the key changes nothing), and a
    # relweyl row's fields after the generators on the verdict too.
    Mutant("levi_row_shape_key_without_block_sizes", "cli.py",
           "key = tuple(lab.t.items())",
           "key = tuple(lab.t.values())",
           [CLI + "TestLabelRows::test_levis_rows_are_the_records[json]",
            CLI + "TestLabelRows::test_levis_rows_are_the_records[tsv]",
            CLI + "TestLevis::test_reports_match_golden_digests[5]"]),
    Mutant("relweyl_row_key_without_verdict", "cli.py",
           "key = rw.factors, verified",
           "key = rw.factors",
           [CLI + "TestLabelRows::test_relweyl_rows_are_the_records[json]",
            CLI + "TestLabelRows::test_relweyl_rows_are_the_records[text]"]),
    Mutant("half_point_failure_raises", "cli.py",
           'fail("lang_of_half_point", q, d, detail=str(exc))',
           "raise",
           [CLI + "TestChecksUnderOptimize::"
                  "test_torus_suite_reports_failed_half_point_check"]),
    # The order check before any work: a group of exactly the cap's order
    # is admitted, verify extweyl checks its groups up front, and kinva
    # checks the signed group of its rank before enumerating labels.
    Mutant("order_check_admits_equal", "signedperm.py",
           "if order > cap:",
           "if order >= cap:",
           [CLI + "TestOrderCheck::test_at_the_cap_runs"]),
    Mutant("extweyl_upfront_check_dropped", "cli.py",
           '    for n in grids["n"]:\n'
           '        check_order(f"the diagonal group of rank {n}",\n'
           "                    itertools.repeat(2, n), cap)\n"
           "        for l in sorted({n // d0 * d0 for d0 in "
           'map(compute_d0, grids["d"])}):\n'
           '            check_order(f"the extended Weyl group V_{l}",\n'
           "                        range(4, 4 * l + 1, 4), cap)\n",
           "",
           [CLI + "TestOrderCheck::test_refused_at_once[extweyl-15-16]",
            CLI + "TestOrderCheck::test_refused_at_once[extweyl-40-1]",
            CLI + "TestOrderCheck::"
                  "test_extweyl_checks_every_extended_weyl_group"]),
    Mutant("kinva_stream_drops_failures", "cli.py",
           'if not report["pass"]:',
           'if full and not report["pass"]:',
           [CLI + "TestKinva::test_failures_stream_as_in_the_full_report"]),
    Mutant("kinva_rank_check_dropped", "cli.py",
           "check_signed_group(n, cap)",
           "pass",
           [CLI + "TestOrderCheck::"
                  "test_one_below_the_cap_exits_2_before_work[kinva]",
            CLI + "TestOrderCheck::test_refused_at_once[kinva-6]",
            CLI + "TestKinva::test_rank_bound"]),
]

# Every guard of src/, a ``raise VerificationError`` or ``raise
# _table_error``, as "file:function:k" for the k-th guard of the function
# (its qualified name) in source order.  Each maps to the mutant that
# disables it, whose fragment lies in that function before the guard and
# after the one before it; to "equivalent: " and the reason no mutant of
# it can be told apart; or to UNCOVERED.  tests/test_mutants.py lists the
# guards by AST and fails on a guard without an entry.
UNCOVERED = "UNCOVERED"
GUARDS = {
    "chartab.py:_split_eigenvectors:1": "diagonalise_raise_dropped",
    "chartab.py:_split_eigenvectors:2": "separation_check_dropped",
    "chartab.py:_split_eigenvectors:3": "identity_coordinate_check_dropped",
    "chartab.py:_split_eigenvectors:4": "subspace_check_dropped",
    "chartab.py:_table_key:1": "table_closure_check_dropped",
    "chartab.py:_table_key:2": "table_generation_check_dropped",
    "chartab.py:character_table:1": "line_count_check_dropped",
    "chartab.py:character_table:2": "degree_match_check_dropped",
    "chartab.py:character_table:3": "degree_squares_check_dropped",
    "chartab.py:character_table:4": "degree_divisibility_check_dropped",
    "chartab.py:character_table.lift:1": "lift_bound_dropped",
    "chartab.py:character_table.lift:2": "lifted_degree_dropped",
    "chartab.py:_verify_orthogonality:1": "orthogonality_diagonal_only",
    "cliff.py:_check_orders:1": "check_orders_dropped",
    "cliff.py:_residue:1": "residue_conductor_check_dropped",
    "cliff.py:_residue:2": "residue_integer_check_dropped",
    "cliff.py:_kinva_groups:1": "k_normalize_check_dropped",
    "cliff.py:_kinva_search:1": "frobenius_check_dropped",
    "cliff.py:_kinva_search:2": "inner_product_check_dropped",
    "cliff.py:_kinva_search:3": "witness_invariance_check_dropped",
    "cyclo.py:CycNum.inv:1": "inv_norm_guard_dropped",
    "extweyl.py:build_twist_elements:1": "twist_lift_check_dropped",
    "extweyl.py:build_twist_elements:2": "c_1_lift_check_dropped",
    "extweyl.py:build_twist_elements:3": "c_1_correction_check_dropped",
    "extweyl.py:build_twist_elements:4": "p_swap_check_dropped",
    "extweyl.py:build_twist_elements:5": "p_square_check_dropped",
    "extweyl.py:build_twist_elements:6": "c_k_lift_check_dropped",
    "extweyl.py:build_twist_elements:7": "v_prime_commute_check_dropped",
    "extweyl.py:build_VdI:1": "kappa_h_check_dropped",
    "extweyl.py:build_VdI:2": "kappa_c_check_dropped",
    "extweyl.py:build_VdI:3": "kappa_p_check_dropped",
    "levi.py:_grid_orbit:1": UNCOVERED,
    "levi.py:_grid_orbit:2": UNCOVERED,
    "levi.py:enumerate_labels.orbit:1": UNCOVERED,
    "levi.py:enumerate_labels.orbit:2": UNCOVERED,
    "torus.py:TwistedOrbit.__init__:1": UNCOVERED,
    "torus.py:z_plus:1": "z_plus_lang_check_dropped",
    "torus.py:conj_center_action:1": UNCOVERED,
    "torus.py:conj_center_action:2": UNCOVERED,
    "torus.py:conj_center_action:3": UNCOVERED,
    "torus.py:conj_center_action:4": UNCOVERED,
    "torus.py:central_stabilizer_jump.log_in_kernel:1":
        "log_in_kernel_guard_dropped",
}


def apply(mutant, package):
    """Replace the mutant's fragment in the copy of the package at
    ``package``; the fragment must occur there exactly once."""
    path = Path(package) / mutant.file
    text = path.read_text()
    if text.count(mutant.fragment) != 1:
        raise ValueError(f"{mutant.name}: fragment occurs "
                         f"{text.count(mutant.fragment)} times")
    path.write_text(text.replace(mutant.fragment, mutant.replacement))


def run(mutant):
    """The named tests that pass on the mutant (empty: it is killed)."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src)
        apply(mutant, src / "dsplitlevi")
        env = dict(os.environ, PYTHONPATH=str(src),
                   PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "-p", "no:hypothesispytest", "--tb=no", "-rA", *mutant.tests],
            cwd=ROOT, env=env, capture_output=True, text=True)
    outcome = {}
    for line in proc.stdout.splitlines():
        word, _, rest = line.partition(" ")
        if word in ("PASSED", "FAILED", "ERROR"):
            outcome[rest.split(" - ")[0]] = word
    missing = [t for t in mutant.tests if t not in outcome]
    if missing:
        raise RuntimeError(f"{mutant.name}: not run: {missing}\n"
                           f"{proc.stdout}{proc.stderr}")
    return [t for t in mutant.tests if outcome[t] == "PASSED"]


def main(names):
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        sys.exit(f"unknown mutants: {sorted(unknown)}")
    start = time.perf_counter()
    survivors = []
    for mutant in chosen:
        passed = run(mutant)
        print(f"{mutant.name}: " + (f"SURVIVED ({len(passed)} of "
                                    f"{len(mutant.tests)} tests pass)"
                                    if passed else "killed"), flush=True)
        if passed:
            survivors.append((mutant.name, passed))
    print(f"{len(chosen)} mutants, {len(survivors)} survived, "
          f"{time.perf_counter() - start:.1f} s")
    for name, passed in survivors:
        print(f"survivor {name}: " + ", ".join(passed))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
