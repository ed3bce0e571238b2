"""Inertia subgroups, sign characters, and the invariance criterion.

Character classes living on the general-linear factors of a Levi
subgroup are abstracted to :class:`CharClassDescriptor` (cyclic
stabilizer order inside C_{2d0}, order of the central character, and
the derived "jump" to the index-two cover).  A :class:`CharLabel`
attaches one descriptor to every block orbit of a
:class:`~dsplitlevi.levi.LeviLabel`.  Every label comes from
:func:`enumerate_char_labels`, whose construction fixes what a label
holds, so a label is plain data and is never checked again.

From a label the module produces concrete signed-permutation groups
(``stab_lambda``, ``nu_lambda`` and ``k_lambda`` read the Levi label's
orbits; the invariance check and the gate read none):

* ``stab_lambda`` — the inertia subgroup W_lambda inside the relative
  Weyl group, a direct product of C_c wr S_m factors;
* ``nu_lambda``  — the sign character detecting the index-two cover,
  and its kernel;
* ``k_lambda``   — the normalizer closure Z.W_lambda : S, where S
  permutes interchangeable descriptor classes, generated by S's swaps
  and the diagonal cycle and W_lambda generators of one class per
  family that S permutes;
* ``kinva_check`` — brute-force verification that every irreducible
  character of ker(nu) has an induction constituent invariant under
  its stabilizer in the normalizer closure;
* ``cuspidal_gate`` — the consistency predicate a label must satisfy
  to be compatible with d-cuspidality.
"""

import itertools
from collections import namedtuple
from math import factorial
from operator import lshift, mul, sub

from .chartab import (DEFAULT_GROUP_CAP, FiniteGroup, _root_of_unity,
                      character_table, class_permutation, inner,
                      is_invariant, restrict)
from .levi import tau_Q, wprime_Q
from .signedperm import (ClosureExceedsCap, SignedPerm, VerificationError,
                         _closure_images, _conjugator, group_closure,
                         set_partitions, wreath_order)


def _sylow2(m):
    """Order of the Sylow 2-subgroup of a cyclic group of order m."""
    out = 1
    while m % 2 == 0:
        out *= 2
        m //= 2
    return out


def _is_jump(stab_order, central_order, two_d0):
    """Whether a class of stabilizer order c = ``stab_order`` (a divisor
    of 2d0) lies in the jump set R1: its stabilizer in the index-two
    cover has order c/2 exactly when its central character has order
    two and c contains the Sylow 2-subgroup of C_{2d0}."""
    return central_order == 2 and stab_order % _sylow2(two_d0) == 0


# ---------------------------------------------------------------------------
# labels
# ---------------------------------------------------------------------------

class CharClassDescriptor:
    """Registry data of one character class on a GL factor.

    ``id`` is an opaque distinguishing tag, ``s`` the GL-size of the
    orbits it may be attached to, ``stab_order`` the order of its cyclic
    stabilizer inside C_{2d0}, and ``central_order`` the order of the
    attached central character.
    """

    __slots__ = ("id", "s", "stab_order", "central_order")

    def __init__(self, id, s, stab_order, central_order):
        self.id = id
        self.s = s
        self.stab_order = stab_order
        self.central_order = central_order

    def _key(self):
        return (self.id, self.s, self.stab_order, self.central_order)

    def __eq__(self, other):
        return (isinstance(other, CharClassDescriptor)
                and self._key() == other._key())

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"CharClassDescriptor({self.id!r}, s={self.s}, "
                f"c={self.stab_order}, central={self.central_order})")


class CharLabel:
    """A Levi label together with one descriptor per block orbit, as
    built by :func:`enumerate_char_labels`, the one producer in the
    package.

    ``assignment`` maps each block size s, ascending, to a tuple of
    descriptors, one per orbit of that size in the Levi label's orbit
    order.  Orbits may share a descriptor; the ``J`` index sets group
    them.  ``ltilde_full`` records whether the ambient index-two
    covering subgroup is all of the cover (it rescales the sign
    character).  All three are kept as given: the label checks nothing
    and reads nothing of the Levi label.
    """

    __slots__ = ("levi", "assignment", "ltilde_full")

    def __init__(self, levi, assignment, ltilde_full=True):
        self.levi = levi
        self.assignment = assignment
        self.ltilde_full = ltilde_full

    @property
    def two_d0(self):
        return 2 * self.levi.d0

    def j_sets(self, s):
        """Descriptor classes of size s with their 1-based orbit indices,
        in order of first occurrence."""
        out = []
        seen = {}
        for i, desc in enumerate(self.assignment[s], start=1):
            if desc in seen:
                out[seen[desc]] = (desc, out[seen[desc]][1] + (i,))
            else:
                seen[desc] = len(out)
                out.append((desc, (i,)))
        return out

    def key(self):
        """Deterministic string identifying the label: its Levi label's
        :meth:`~dsplitlevi.levi.LeviLabel.text`, the cover flag, and one
        cell of descriptors per block size."""
        pieces = [self.levi.text(), f"lt{int(self.ltilde_full)}"]
        for s, descs in self.assignment.items():
            cell = ";".join(f"{d.id}:c{d.stab_order}:z{d.central_order}"
                            for d in descs)
            pieces.append(f"s{s}[{cell}]")
        return " ".join(pieces)

    def __repr__(self):
        return f"CharLabel({self.key()!r})"


# Concrete generators, as a tuple, plus the abstract type and order they
# realize.
SubgroupPresentation = namedtuple(
    "SubgroupPresentation", ["generators", "abstract_type", "order"])


# ---------------------------------------------------------------------------
# the shared generator calculus
#
# Both the concrete path (from a CharLabel) and the canonical path used
# by the invariance check (synthesized from the key of the class
# structure) reduce to a list of "parts": one part per descriptor
# class, carrying the GL-size, stabilizer order, a flag, and the
# Q-sets of the orbits in its J index set.  The flag says whether nu
# is -1 on the part's cyclic generators: the class is a jump and the
# index-two cover is full.
# ---------------------------------------------------------------------------

_Part = namedtuple("_Part", ["s", "c", "flag", "Qs"])


def _parts_from_label(label):
    two_d0 = label.two_d0
    parts = []
    for s, orbs in label.levi.orbits.items():
        for desc, J in label.j_sets(s):
            parts.append(_Part(s, desc.stab_order,
                               label.ltilde_full and _is_jump(
                                   desc.stab_order, desc.central_order,
                                   two_d0),
                               tuple(orbs[i - 1].Q for i in J)))
    return parts


def _build_W(parts, two_d0, n):
    """Generators of W_lambda with nu's ±1 value on each, its order and
    abstract type.  nu is -1 exactly on the cyclic generators of a
    flagged part.  The generators come part by part: the m cyclic ones
    when c > 1, then the m - 1 adjacent swaps."""
    gens, values, factors = [], [], []
    for part in parts:
        m = len(part.Qs)
        factors.append(f"C{part.c}wrS{m}")
        if part.c > 1:
            for Q in part.Qs:
                gens.append(wprime_Q(Q, n) ** (two_d0 // part.c))
                values.append(-1 if part.flag else 1)
        for Q1, Q2 in zip(part.Qs, part.Qs[1:]):
            gens.append(tau_Q(Q1, Q2, n))
            values.append(1)
    abstract = " x ".join(factors) if factors else "1"
    order = wreath_order((part.c, len(part.Qs)) for part in parts)
    return gens, tuple(values), order, abstract


def _sign_kernel(w_gens, values):
    """Generators of the kernel of the sign character taking ``values``
    (not all +1) on ``w_gens``: the +1 generators, g0² and g0·g for the
    other -1 generators g, where g0 is the first -1 generator.  They
    generate that kernel exactly when :func:`_check_orders` passes."""
    g0 = next(g for g, v in zip(w_gens, values) if v == -1)
    kgens = [g for g, v in zip(w_gens, values) if v == 1]
    kgens.append(g0 * g0)
    kgens.extend(g0 * g for g, v in zip(w_gens, values)
                 if v == -1 and g != g0)
    return kgens


def _check_orders(found, formulas, key):
    """Raise unless the closure orders ``found`` equal the formula
    orders, which start with those of W_lambda and ker(nu).

    For a nontrivial nu this is the check that its values on the
    generators of W are a character with kernel K0 = ⟨kgens⟩ (see
    :func:`_sign_kernel`): |⟨w_gens⟩| = |W| and |K0| = |W| / 2.  Then
    K0 ≤ W has index 2, so it is normal.  Every -1 generator lies in
    g0·K0, and g0 ∉ K0, because otherwise W = ⟨K0, g0⟩ would be K0.  So
    W → W/K0 ≅ {±1} is a homomorphism taking the given values on the
    generators, with kernel K0."""
    if found != formulas:
        raise VerificationError(
            f"closure orders {found} disagree with the formulas "
            f"{formulas} in {key}")


def _build_K(parts, two_d0, n, w_gens):
    """Generators and order of the normalizer closure Z.W : S.

    Parts of equal (s, m, c) form a family, whose adjacent members S
    swaps.  A flag makes nu -1 on its part's cyclic generators, so nu is
    nontrivial exactly when some part is flagged; then a family's parts
    also share the flag.  A swap relabels one member's grid sets onto
    the next's in order, so it conjugates that member's diagonal full
    cycle and W generators (its share of ``w_gens``, which
    :func:`_build_W` lists part by part) onto the next's: only the first
    member of each family gives its own, beside the swaps."""
    filtering = any(part.flag for part in parts)
    families = {}
    for idx, part in enumerate(parts):
        key = (part.s, len(part.Qs), part.c)
        if filtering:
            key = key + (part.flag,)
        families.setdefault(key, []).append(idx)
    firsts = {members[0] for members in families.values()}

    identity = SignedPerm.identity(n)
    gens = []
    order = 1
    zw_factors = []
    w_at = 0
    for idx, part in enumerate(parts):
        m = len(part.Qs)
        w_count = (m if part.c > 1 else 0) + m - 1
        if idx in firsts:
            diag = identity
            for Q in part.Qs:
                diag = diag * wprime_Q(Q, n)
            gens.append(diag)
            gens.extend(w_gens[w_at:w_at + w_count])
        w_at += w_count
        order *= two_d0 * part.c ** (m - 1) * factorial(m)
        zw_factors.append(f"(C{two_d0}.C{part.c}wrS{m})")

    swap_sizes = []
    for key in sorted(families):
        members = families[key]
        if len(members) < 2:
            continue
        swap_sizes.append(len(members))
        order *= factorial(len(members))
        for a, b in zip(members, members[1:]):
            swap = identity
            for Qa, Qb in zip(parts[a].Qs, parts[b].Qs):
                swap = swap * tau_Q(Qa, Qb, n)
            gens.append(swap)
    gens = [g for g in dict.fromkeys(gens) if g != identity]
    abstract = " x ".join(zw_factors) if zw_factors else "1"
    if swap_sizes:
        abstract += " : " + " x ".join(f"S{m}" for m in swap_sizes)
    return gens, order, abstract


# ---------------------------------------------------------------------------
# public operations on labels
# ---------------------------------------------------------------------------

def stab_lambda(label):
    """The inertia subgroup W_lambda: per descriptor class, the order-c
    subgroups of the orbit cycles plus the block swaps inside its J
    index set; a direct product of C_c wr S_m factors."""
    parts = _parts_from_label(label)
    n = label.levi.n
    gens, _, order, abstract = _build_W(parts, label.two_d0, n)
    return SubgroupPresentation(tuple(gens), abstract, order)


def nu_lambda(label):
    """The sign character of W_lambda and its kernel.

    The character is -1 exactly on the cyclic generators of jump
    classes (when the index-two cover is full), +1 on swaps; returns
    (values aligned with ``stab_lambda(label).generators``, kernel
    presentation).  A nontrivial character is checked by closing W and
    the kernel under the default closure cap (see :func:`_check_orders`)."""
    parts = _parts_from_label(label)
    n = label.levi.n
    w_gens, values, w_order, w_abstract = _build_W(parts, label.two_d0, n)
    if all(v == 1 for v in values):
        return values, SubgroupPresentation(tuple(w_gens), w_abstract,
                                            w_order)
    kgens = _sign_kernel(w_gens, values)
    _check_orders((len(group_closure(w_gens)), len(group_closure(kgens))),
                  (w_order, w_order // 2), label)
    return values, SubgroupPresentation(tuple(kgens),
                                        f"ker(nu) < {w_abstract}",
                                        w_order // 2)


def k_lambda(label):
    """The normalizer closure K(lambda) = Z.W_lambda : S, where Z has one
    diagonal full cycle per descriptor class and S swaps classes of
    equal shape (restricted to preserve the jump family when the sign
    character is nontrivial).  Of each family of classes that S swaps,
    only the first gives its diagonal cycle and W_lambda generators, as
    the swaps conjugate them onto the others' (see :func:`_build_K`)."""
    parts = _parts_from_label(label)
    n = label.levi.n
    w_gens, _, _, _ = _build_W(parts, label.two_d0, n)
    gens, order, abstract = _build_K(parts, label.two_d0, n, w_gens)
    return SubgroupPresentation(tuple(gens), abstract, order)


# ---------------------------------------------------------------------------
# the invariance check
# ---------------------------------------------------------------------------

def _canonical_structure(label):
    """The abstract class structure the invariance outcome depends on."""
    struct = []
    for s in label.assignment:
        cell = tuple(sorted((len(J), desc.stab_order, desc.central_order)
                            for desc, J in label.j_sets(s)))
        struct.append((s, cell))
    return (label.two_d0, label.ltilde_full, tuple(struct))


def _kinva_key(label):
    """What the invariance check reads of a label's class structure:
    (2d0, ((s, ((m, c, flag), ...)), ...)) by block size s, one (m, c,
    flag) per descriptor class of size s on m orbits, sorted by (m, c,
    central order), where flag is whether nu is -1 on the class's cyclic
    generators.  It is read in one pass, counting the orbits of each
    descriptor (of one size s, its id, c and central order).  The empty
    structure is the trivial group at every 2d0, so it has one key."""
    if not label.assignment:
        return (2, ())
    two_d0 = label.two_d0
    ltilde_full = label.ltilde_full
    struct = []
    for s, descs in label.assignment.items():
        counts = {}
        for desc in descs:
            cls = (desc.stab_order, desc.central_order, desc.id)
            counts[cls] = counts.get(cls, 0) + 1
        cell = sorted([(m, c, central)
                       for (c, central, _), m in counts.items()])
        struct.append((s, tuple(
            (m, c, ltilde_full and _is_jump(c, central, two_d0))
            for m, c, central in cell)))
    return (two_d0, tuple(struct))


def inertia_order(key):
    """|W_lambda| = ∏ c^m·m! over the descriptor classes of stabilizer
    order c on m orbits of a label whose :func:`_kinva_key` is ``key``:
    the order of :func:`stab_lambda` without its generators."""
    return wreath_order((c, m) for _, cell in key[1] for m, c, _ in cell)


def _synthesize_parts(key):
    """A canonical concrete realization of a :func:`_kinva_key`, on
    freshly allocated points; guarantees the invariance report is a
    function of the key only."""
    two_d0, struct = key
    d0 = two_d0 // 2
    parts = []
    next_pt = 1
    for s, cell in struct:
        for m, c, flag in cell:
            Qs = []
            for _ in range(m):
                grids = []
                for _ in range(s):
                    grids.append(tuple(range(next_pt, next_pt + d0)))
                    next_pt += d0
                Qs.append(tuple(grids))
            parts.append(_Part(s, c, flag, tuple(Qs)))
    return parts, max(next_pt - 1, 1)


def _residue(value, z, E, l):
    """The image of a cyclotomic integer of conductor d | E in F_l under
    ζ_d -> z^(E/d), for z of order E."""
    if E % value.d:
        raise VerificationError(
            f"conductor {value.d} does not divide the exponent {E}")
    w = pow(z, E // value.d, l)
    out = 0
    for c in reversed(value.coeffs):
        if type(c) is not int:
            raise VerificationError(f"character value {value!r} is not "
                                    "a cyclotomic integer")
        out = (out * w + c) % l
    return out


# The invariance reports, keyed on _kinva_key and dropping the oldest
# entry past _KINVA_MEMO_BOUND.  The key determines the generators, as
# _synthesize_parts reads nothing else: a central order reaches them
# only through the jump flag, and ltilde_full only through nu.  So a
# kinva_sample pass meets 470 structures but computes 105 reports, and
# test_09 556 structures but 138.  Neither evicts.
_KINVA_MEMO_BOUND = 2048
_KINVA_MEMO = {}


def kinva_check(label, cap=DEFAULT_GROUP_CAP, key=None):
    """Brute-force invariance report for a label.  A caller that has
    read the label's :func:`_kinva_key` already hands it on as ``key``;
    it must be that key, as the report is memoized on it.

    Realizes ker(nu) inside W_lambda as concrete permutation groups and
    the normalizer closure K by its generators and order (see
    :func:`_kinva_groups`), and checks for every irreducible
    character xi0 of the kernel that some constituent of its induction
    to W_lambda is invariant under the stabilizer of xi0 in K.  K acts
    through its image in the permutations of the classes of ker and W;
    the multiplicities are read off residues modulo the prime of W's
    character table, checked by Frobenius reciprocity, and each witness
    is confirmed by an exact inner product and an exact invariance test
    (see :func:`_kinva_search`).
    The report depends only on the label's :func:`_kinva_key`, which
    determines the generators, and is
    JSON-serializable:
    {label, W_lambda_order, ker_index, xi0_count, pass, witnesses}.

    Reports are memoized on that key for at most ``_KINVA_MEMO_BOUND``
    keys.  A memoized report keeps the largest order its groups
    reached, so a cap below it raises as the computation itself would.
    """
    if key is None:
        key = _kinva_key(label)
    memo = _KINVA_MEMO.get(key)
    if memo is None:
        memo = _kinva_compute(key, cap)
        if len(_KINVA_MEMO) >= _KINVA_MEMO_BOUND:
            del _KINVA_MEMO[next(iter(_KINVA_MEMO))]
        _KINVA_MEMO[key] = memo
    largest, report = memo
    if cap < largest:
        raise ClosureExceedsCap(f"closure exceeds cap {cap}")
    report = dict(report)
    report["witnesses"] = [dict(w) for w in report["witnesses"]]
    report["label"] = label.key()
    return report


def _kinva_compute(key, cap):
    """The report of a key and the largest order its groups reach,
    max(|W|, |K|): the tables are capped by |W|, and the class actions
    of K are at most |K|.  The closure orders must equal the formulas
    (see :func:`_check_orders`), so W and ker are closed once."""
    gens, formulas = _kinva_inputs(key)
    W, ker, k_count = _kinva_groups(gens, cap, key)
    _check_orders((W.order, ker.order, k_count), formulas, key)
    _, xi_ids = _kinva_search(W, ker, gens[3], cap)
    return max(W.order, k_count), {
        "W_lambda_order": W.order,
        "ker_index": W.order // ker.order,
        "xi0_count": len(xi_ids),
        "pass": all(xi_id is not None for xi_id in xi_ids),
        "witnesses": [{"xi0_id": xi0_id, "xi_id": xi_id}
                      for xi0_id, xi_id in enumerate(xi_ids)],
    }


def _kinva_inputs(key):
    """The concrete input of a key: (n, generators of W_lambda, of
    ker(nu) or None when nu is trivial, of K), and the formula orders
    of W, ker and K."""
    two_d0 = key[0]
    parts, n = _synthesize_parts(key)
    w_gens, values, w_order, _ = _build_W(parts, two_d0, n)
    k_gens, k_order, _ = _build_K(parts, two_d0, n, w_gens)
    if all(v == 1 for v in values):
        return (n, w_gens, None, k_gens), (w_order, w_order, k_order)
    return ((n, w_gens, _sign_kernel(w_gens, values), k_gens),
            (w_order, w_order // 2, k_order))


def _kinva_groups(gens, cap, key):
    """W_lambda and ker(nu) as groups and the order of K, from the
    generators of :func:`_kinva_inputs`; K's generators are checked to
    normalize W and ker.

    ker is W itself when nu is trivial.  K is only counted, by closing
    its generators under ``cap``: the search acts through their class
    permutations and never reads K's elements."""
    n, w_gens, ker_gens, k_gens = gens
    identity = SignedPerm.identity(n)
    W = FiniteGroup.generate(w_gens or [identity], cap=cap)
    ker = (W if ker_gens is None
           else FiniteGroup.generate(ker_gens, cap=cap))
    k_count = len(_closure_images(k_gens, identity, cap))
    for k in k_gens:
        by = _conjugator(k.img)
        for G, name in ((W, "W_lambda"), (ker, "ker(nu)")):
            if any(by(g.table()) not in G.at for g in G.generators):
                raise VerificationError(f"K does not normalize {name} in {key}")
    return W, ker, k_count


def _kinva_search(W, ker, k_gens, cap):
    """For every irreducible xi0 of ker (in table order): the image of
    its stabilizer in K = <k_gens>, as the set of its class actions
    (pairs of permutations of the classes of ker and of W), and the
    first constituent of its induction to W that the stabilizer fixes
    (None if there is none).

    K acts through its image in the class permutations of ker and W
    (:func:`~dsplitlevi.chartab.class_permutation`), closed from the
    actions of ``k_gens``, so no element of K is formed or conjugated.
    The stabilizer of xi0 is the set of actions whose ker half fixes
    xi0; their W halves act on the constituents.  A character is fixed
    when its row of numbered distinct values (:func:`_numbered`) is, and
    the witness's invariance is confirmed on its values by
    :func:`~dsplitlevi.chartab.is_invariant`.

    The multiplicities <xi0, Res chi> are integers in [0, chi(1)], and
    chi(1) < l for the prime l of W's table (l = 1 mod E = exp W and
    l does not divide |W|).  So they are all read off residues mod l,
    taken along ζ_e -> z^(E/e) for z of order E.  Each xi0 must satisfy
    Frobenius reciprocity, sum of m_chi chi(1) = [W:ker] xi0(1), and
    each witness's multiplicity is confirmed by one exact inner
    product; a mismatch raises VerificationError."""
    ker_table = character_table(ker, cap=cap)
    w_table = character_table(W, cap=cap)
    l, E = w_table.prime, w_table.exponent
    z = _root_of_unity(l, E)
    kdata = ker.conjugacy_classes()
    wdata = W.conjugacy_classes()
    w_values, w_rows = _numbered(w_table.values)
    ker_values, ker_rows = (
        (w_values, w_rows) if ker is W else _numbered(ker_table.values))

    # <xi0, Res chi> = sum over ker's classes of |C| xi0 conj(chi) / |ker|;
    # conj(chi) reduces along z^-1, which also has order E.
    # Each distinct value is reduced once along each root.  The sums for
    # every chi are taken as one: with ker's class j given the integer
    # Σ_chi conj(chi)(g_j)·X^chi, X = 2^bits, xi0's row against them has
    # the sum for chi as its chi-th digit, each below r·l² and so below X
    # (Kronecker substitution).
    w_bars = [_residue(v, pow(z, l - 2, l), E, l) for v in w_values]
    fused = [wdata.class_at[rep.img] for rep in kdata.reps]
    bits = (len(kdata.reps) * l * l).bit_length()
    mask = (1 << bits) - 1
    digits = range(0, bits * len(w_rows), bits)
    chi_bars = [sum(map(lshift, [w_bars[row[j]] for row in w_rows],
                        digits))
                for j in fused]
    scale = pow(ker.order, l - 2, l)
    ker_res = [_residue(v, z, E, l) for v in ker_values]
    xi_rows = [[ker_res[i] * size * scale % l
                for i, size in zip(row, kdata.sizes)]
               for row in ker_rows]
    index = W.order // ker.order

    # An action is one signed permutation with no sign changes, on ker's
    # classes as points 1..r and W's as r+1..r+|W's classes|, so one
    # product composes both halves; the pairs are read back afterwards.
    r = len(kdata.reps)

    def action(k):
        on_ker = class_permutation(k, ker)
        on_w = on_ker if ker is W else class_permutation(k, W)
        return SignedPerm([j + 1 for j in on_ker] + [r + 1 + j for j in on_w])

    actions = [(tuple([v - 1 for v in a[:r]]),
                tuple([v - 1 - r for v in a[r:]]))
               for a in _closure_images(
                   [action(k) for k in k_gens],
                   SignedPerm.identity(r + len(wdata.reps)), cap)]
    ker_halves = {a[0] for a in actions}

    # A character is fixed by an action when its numbered row, read along
    # the action's class permutation, is that row again.
    stabilizers, xi_ids = [], []
    for xi0, row, degree, numbers in zip(ker_table.characters, xi_rows,
                                         ker_table.degrees, ker_rows):
        sums = sum(map(mul, row, chi_bars))
        mults = [(sums >> k & mask) % l for k in digits]
        if (max(map(sub, mults, w_table.degrees)) > 0
                or sum(map(mul, mults, w_table.degrees)) != index * degree):
            raise VerificationError(
                f"multiplicities {mults} mod {l} break Frobenius "
                f"reciprocity for a character of degree {degree}")
        fixing = {p for p in ker_halves
                  if tuple(map(numbers.__getitem__, p)) == numbers}
        stabilizer = frozenset([a for a in actions if a[0] in fixing])
        acting = {a[1] for a in stabilizer}
        xi_id = None
        for i, m in enumerate(mults):
            if m:
                chi = w_rows[i]
                for p in acting:
                    if tuple(map(chi.__getitem__, p)) != chi:
                        break
                else:
                    xi_id = i
                    break
        if xi_id is not None:
            chi = w_table.characters[xi_id]
            if inner(xi0, restrict(chi, ker)) != mults[xi_id]:
                raise VerificationError(
                    f"multiplicity {mults[xi_id]} mod {l} disagrees with "
                    f"the exact inner product")
            if not all([is_invariant(chi, p) for p in acting]):
                raise VerificationError(
                    "the witness is not invariant under the stabilizer")
        stabilizers.append(stabilizer)
        xi_ids.append(xi_id)
    return stabilizers, xi_ids


def _numbered(values):
    """A table's distinct values in order of first occurrence, and each
    row as the tuple of its values' positions in that list."""
    number, distinct = {}, []
    rows = []
    for row in values:
        numbers = []
        for v in row:
            key = v.d, v.coeffs
            i = number.get(key)
            if i is None:
                i = number[key] = len(distinct)
                distinct.append(v)
            numbers.append(i)
        rows.append(tuple(numbers))
    return distinct, rows


# ---------------------------------------------------------------------------
# the cuspidality gate
# ---------------------------------------------------------------------------

def cuspidal_gate(label):
    """Whether the label is consistent with d-cuspidality.

    Rules: no jump class may occur on an orbit of GL-size two or more
    (the center of the corresponding Levi factor must act trivially),
    and at most one descriptor class of GL-size one may lie in the jump
    set (the order-two central character is unique).  Labels passing
    the gate satisfy the hypotheses of the invariance criterion.
    """
    two_d0 = label.two_d0
    r1 = set()
    for s, descs in label.assignment.items():
        for d in descs:
            if _is_jump(d.stab_order, d.central_order, two_d0):
                if s >= 2:
                    return False
                r1.add(d)
    return len(r1) <= 1


# ---------------------------------------------------------------------------
# exhaustive label generation
# ---------------------------------------------------------------------------

def _divisors(m):
    return tuple(c for c in range(1, m + 1) if m % c == 0)


# The central orders a descriptor class receives.  Orders above two act
# exactly like one in every predicate the package consumes, so these two
# are exhaustive up to those semantics.
CENTRAL_ORDERS = (1, 2)


def enumerate_char_labels(levi):
    """All character labels on ``levi`` at registry granularity, the one
    producer of :class:`CharLabel`.

    For every block size, ascending, the orbits are grouped by each set
    partition (orbits in one part share a descriptor class), every class
    independently receives a cyclic stabilizer order dividing 2d0 and a
    central order from ``CENTRAL_ORDERS``, and both ambient-cover flags
    are emitted.  So every label has one descriptor of GL-size s per
    orbit of size s, as tuples by ascending s.  The labels read only t
    and d0 of ``levi``, never its orbits.  Deterministic order.
    """
    params = tuple(itertools.product(_divisors(2 * levi.d0), CENTRAL_ORDERS))
    per_size = []
    for s, t_s in levi.t.items():
        options = []
        for partition in set_partitions(t_s):
            for combo in itertools.product(params, repeat=len(partition)):
                descs = [None] * t_s
                for k, (part, (c, z)) in enumerate(zip(partition, combo)):
                    desc = CharClassDescriptor(f"s{s}k{k}", s, c, z)
                    for i in part:
                        descs[i - 1] = desc
                options.append(tuple(descs))
        per_size.append(options)
    for choice in itertools.product(*per_size):
        assignment = dict(zip(levi.t, choice))
        for ltilde_full in (True, False):
            yield CharLabel(levi, assignment, ltilde_full=ltilde_full)
