"""d-split Levi labels for the symplectic groups Sp(2n, q).

For each d ≥ 1 the distinguished twist w is a signed permutation built
from the arithmetic-progression grid sets of {1..l}, l the largest
multiple of d0 = d (d odd) / d/2 (d even) below n.  A Levi label is a
pair (I₋₁, I): a bar(w)-stable subset I₋₁ of {1..n} carrying the
symplectic part, and a partition I of the complement whose blocks are
permuted by bar(w) in orbits of length exactly d0 with w of constant
sign on every block.  These are precisely the parabolic subsystems
picked out by the eigenspace test of :mod:`dsplitlevi.cyclo`, which the
test-suite checks in both directions.

Each grid set J_i = grid_set(d0, a, i), 1 ≤ i ≤ a = l/d0, is one
bar(w)-cycle.  Every point past l is fixed by bar(w) (there is none
when d0 = 1), so no block of an orbit of length d0 holds it.  Hence
I₋₁ = ∪_{i∈T} J_i ∪ {l+1..n} for a subset T of {1..a}, and each orbit
of blocks spans the grid sets J_i, i ∈ S, of one group S of a set
partition of the rest of {1..a}.  Its blocks are transversals of those grid
sets, and the constant-sign condition leaves only the aligned ones,
{J_i(j) : i ∈ S} for j = 1..d0.  The labels at (n, d) are therefore
counted by the Bell number Bell(a+1).  :func:`enumerate_labels` builds
them from (T, partition) with no search, and refuses a count past
``LABEL_COUNT_BOUND`` before building any.  It constructs each label
through a trusted path of :class:`LeviLabel` that skips the per-label
checks; the orbit checks run once per group instead.  A label built
by calling ``LeviLabel(...)`` is checked in full.

Each orbit of size-s blocks spans s grid sets; the corresponding Q-sets
(ordered grid-set families) generate one C_{2d0} wr S_{t_s} factor of
the relative Weyl group, realised concretely inside the signed
permutation group and verified against a brute-force fixed-point
computation on rank ≤ 4.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import lru_cache
from math import factorial
from operator import neg

from .arith import InputTooLarge, prime_power
from .rootsys import apply_to_root, reflection_perm
from .signedperm import (
    SignedPerm,
    VerificationError,
    check_index_set,
    grid_set,
    group_closure,
    set_partitions,
    signed_symmetric_group,
    wprime,
)


def compute_d0(d):
    """d0 for the twist order d in type C: d for odd d, d/2 for even d."""
    if d < 1:
        raise ValueError("d must be positive")
    return d if d % 2 else d // 2


@lru_cache(maxsize=None)
def sylow_twist_w(n, d):
    """The distinguished twist: ∏_i w_{J_i} over the grid sets of {1..l},
    with w_J = w'_J for even d and (w'_J)^2 for odd d; identity outside.
    Built once per (n, d)."""
    d0 = compute_d0(d)
    l = (n // d0) * d0
    if l == 0:
        return SignedPerm.identity(n)
    a = l // d0
    w = SignedPerm.identity(n)
    for i in range(1, a + 1):
        w = w * wprime(grid_set(d0, a, i), n)
    return w if d % 2 == 0 else w * w


# ---------------------------------------------------------------------------
# labels
# ---------------------------------------------------------------------------

Orbit = namedtuple("Orbit", ["blocks", "J_O", "Q"])


def _check_rank(n, d):
    """ValueError unless n and d are positive ints (bools refused)."""
    for name, value in (("n", n), ("d", d)):
        if type(value) is not int or value < 1:
            raise ValueError(f"{name} must be a positive int, got {value!r}")


def _shape(n, d):
    """(d0, l, a, w) at (n, d): l = a·d0 is the largest multiple of d0
    up to n and w the twist."""
    d0 = compute_d0(d)
    a = n // d0
    return d0, a * d0, a, sylow_twist_w(n, d)


def _grid_orbit(orbit, d0, a, n, d):
    """The Orbit of a list of blocks permuted cyclically by bar(w), with
    its grid indices J_O and Q-sets; VerificationError unless the blocks
    are transversals of those grid sets and exactly cover them."""
    underline = sorted(set().union(*orbit))
    J_O = tuple(i for i in underline if i <= a)
    if len(J_O) != len(orbit[0]):
        raise VerificationError(
            f"blocks of orbit {orbit} are not grid transversals "
            f"(n={n}, d={d})")
    Q = tuple(grid_set(d0, a, i) for i in J_O)
    if sorted(set().union(*Q)) != underline:
        raise VerificationError(
            f"support of orbit {orbit} is not a union of grid "
            f"sets (n={n}, d={d})")
    return Orbit(tuple(orbit), J_O, Q)


class LeviLabel:
    """A validated d-split Levi label (I₋₁, I) at rank n.

    Derived data: the twist w, per-size block orbits with their grid
    index sets J_O and Q-sets (the grid sets underlying the orbit,
    ascending), and the orbit counts t = {s: t_s}.

    ``LeviLabel(n, d, I_minus1, I)`` checks every condition.  The
    keyword ``_built`` is the trusted path of :func:`enumerate_labels`
    alone: ``((d0, l, a, w), orbits)`` for the sorted ``I_minus1`` and
    ``I`` it constructed, whose orbits it has already checked.
    """

    __slots__ = ("n", "d", "d0", "l", "a", "w", "I_minus1", "I", "orbits", "t")

    def __init__(self, n, d, I_minus1, I, _built=None):
        self.n, self.d = n, d
        if _built is not None:
            (self.d0, self.l, self.a, self.w), self.orbits = _built
            self.I_minus1, self.I = I_minus1, I
            self.t = {s: len(v) for s, v in sorted(self.orbits.items())}
            return
        _check_rank(n, d)
        self.d0, self.l, self.a, self.w = _shape(n, d)

        I_minus1 = tuple(I_minus1)
        I = [tuple(b) for b in I]
        for p in itertools.chain(I_minus1, *I):
            if type(p) is not int:
                raise ValueError(f"points must be ints, got {p!r}")
        I_minus1 = tuple(sorted(I_minus1))
        if len(set(I_minus1)) != len(I_minus1) or not all(
                1 <= i <= n for i in I_minus1):
            raise ValueError(f"I_minus1 is not a subset of 1..{n}: {I_minus1!r}")
        blocks = tuple(sorted((tuple(sorted(b)) for b in I), key=min))
        covered = set(I_minus1)
        for b in blocks:
            if not b or set(b) & covered:
                raise ValueError(f"blocks overlap or are empty: {blocks!r}")
            covered |= set(b)
        if covered != set(range(1, n + 1)):
            raise ValueError("I_minus1 and I together must cover {1..n}")
        self.I_minus1, self.I = I_minus1, blocks

        img = self.w.img
        bar = self.w.bar().img
        if {bar[i - 1] for i in I_minus1} != set(I_minus1):
            raise ValueError(f"I_minus1 not stable under bar(w): {I_minus1!r}")
        blockset = {frozenset(b): b for b in blocks}
        for b in blocks:
            if len({img[i - 1] > 0 for i in b}) > 1:
                raise ValueError(f"w is not of constant sign on block {b!r}")
            if frozenset(bar[i - 1] for i in b) not in blockset:
                raise ValueError(f"bar(w) does not permute the blocks: {b!r}")

        self.orbits = {}
        seen = set()
        for b in blocks:
            if b in seen:
                continue
            orbit = [b]
            seen.add(b)
            cur = blockset[frozenset(bar[i - 1] for i in b)]
            while cur != b:
                orbit.append(cur)
                seen.add(cur)
                cur = blockset[frozenset(bar[i - 1] for i in cur)]
            if len(orbit) != self.d0:
                raise ValueError(
                    f"orbit of block {b!r} has length {len(orbit)}, "
                    f"need exactly d0 = {self.d0}")
            self.orbits.setdefault(len(b), []).append(
                _grid_orbit(orbit, self.d0, self.a, n, d))
        for s in self.orbits:
            self.orbits[s].sort(key=lambda o: o.J_O[0])
        self.t = {s: len(v) for s, v in sorted(self.orbits.items())}

    @property
    def epsilon(self):
        return -1 if self.d % 2 == 0 else 1

    def _key(self):
        return (self.n, self.d, self.I_minus1, self.I)

    def __eq__(self, other):
        return isinstance(other, LeviLabel) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"LeviLabel(n={self.n}, d={self.d}, "
                f"I_minus1={self.I_minus1}, I={self.I})")


# enumerate_labels refuses an (n, d) with more labels than this, before
# building any: Bell(10) = 115975 (n = 9 at d0 = 1) is admitted, Bell(11)
# = 678570 is not.
LABEL_COUNT_BOUND = 2 ** 17


def _bell(m):
    """The Bell number B_m, by the Bell triangle."""
    row = [1]
    for _ in range(m):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def enumerate_labels(n, d):
    """All valid labels at (n, d), in sorted order.

    Built from the parametrisation of the module docstring, one label
    per set partition of {1..a+1}: the block of 1 gives T (grid index
    i is point i + 1), every other block a group.  Each group's orbit
    is walked along bar(w) and checked once per call, then shared by
    every label that contains it.  Raises InputTooLarge before building
    any label when the count Bell(a+1) is past LABEL_COUNT_BOUND.
    """
    _check_rank(n, d)
    shape = d0, l, a, w = _shape(n, d)
    count = _bell(a + 1)
    if count > LABEL_COUNT_BOUND:
        raise InputTooLarge(
            f"n={n}, d={d} has {count} Levi labels, past the bound "
            f"{LABEL_COUNT_BOUND} on the label count")
    img, bar = w.img, w.bar().img
    tail = tuple(range(l + 1, n + 1))

    @lru_cache(maxsize=None)
    def minus1(first):
        return tuple(sorted(itertools.chain(
            tail, *(grid_set(d0, a, i - 1) for i in first[1:]))))

    @lru_cache(maxsize=None)
    def orbit(group):
        # The blocks {J_i(j) : i ∈ S}, j = 1..d0, walked from J_i(1) = i.
        S = tuple(i - 1 for i in group)
        blocks = [S]
        cur = tuple(sorted(bar[i - 1] for i in S))
        while cur != S:
            blocks.append(cur)
            cur = tuple(sorted(bar[i - 1] for i in cur))
        if len(blocks) != d0:
            raise VerificationError(
                f"group {S} gives an orbit of {len(blocks)} blocks, not "
                f"d0 = {d0} (n={n}, d={d})")
        if any(len({img[i - 1] > 0 for i in b}) > 1 for b in blocks):
            raise VerificationError(
                f"w is not of constant sign on the orbit of group {S} "
                f"(n={n}, d={d})")
        return _grid_orbit(blocks, d0, a, n, d)

    labels = []
    for first, *groups in set_partitions(a + 1):
        orbits = {}
        for g in groups:
            orbits.setdefault(len(g), []).append(orbit(g))
        I = tuple(sorted(itertools.chain.from_iterable(
            o.blocks for v in orbits.values() for o in v)))
        labels.append(LeviLabel(n, d, minus1(first), I,
                                _built=(shape, orbits)))
    labels.sort(key=lambda lab: (lab.I_minus1, lab.I))
    return labels


def concrete_parabolic_roots(n, I_minus1, blocks):
    """Root set of a concrete (not position-normalised) label in type C:
    the full C-subsystem on I₋₁ plus e_i - e_j inside every block."""
    roots = set()
    I_minus1 = sorted(I_minus1)
    for i in I_minus1:
        for s in (2, -2):
            v = [0] * n
            v[i - 1] = s
            roots.add(tuple(v))
    for i, j in itertools.combinations(I_minus1, 2):
        for si, sj in itertools.product((1, -1), repeat=2):
            v = [0] * n
            v[i - 1], v[j - 1] = si, sj
            roots.add(tuple(v))
    for b in blocks:
        for i, j in itertools.permutations(b, 2):
            v = [0] * n
            v[i - 1], v[j - 1] = 1, -1
            roots.add(tuple(v))
    return tuple(sorted(roots))


# ---------------------------------------------------------------------------
# group structure of the fixed points
# ---------------------------------------------------------------------------

def sp_order(m, q):
    """|Sp_{2m}(q)| = q^{m^2} ∏_{i=1}^m (q^{2i} - 1)."""
    out = q ** (m * m)
    for i in range(1, m + 1):
        out *= q ** (2 * i) - 1
    return out


def gl_order(s, Q, eps):
    """|GL_s(Q)| for eps=+1, |GU_s(Q^{1/2}-style)| for eps=-1:
    Q^{s(s-1)/2} ∏_{i=1}^s (Q^i - eps^i)."""
    out = Q ** (s * (s - 1) // 2)
    for i in range(1, s + 1):
        out *= Q ** i - eps ** i
    return out


# q past this bound is refused before any factorisation starts.
Q_BOUND = 2 ** 64


@lru_cache(maxsize=64, typed=True)
def check_odd_prime_power(q):
    """(p, m) with q = p^m for an odd prime p; ValueError for any other
    q, and InputTooLarge for q at or past Q_BOUND.  Cached by value and
    type, so a command that checks one q per label factors it once,
    while 3.0 or True never hit the entry of 3 or 1."""
    if isinstance(q, int) and q >= Q_BOUND:
        raise InputTooLarge(f"q = {q} is past the bound 2^64 on q")
    if not isinstance(q, int) or q < 3 or q % 2 == 0:
        raise ValueError(f"q must be an odd prime power, got {q!r}")
    pm = prime_power(q)
    if pm is None:
        raise ValueError(f"q = {q} is not a prime power")
    return pm


LeviStructure = namedtuple(
    "LeviStructure", ["sp_rank", "gl_parts", "epsilon", "d0", "q", "t", "order"])


def levi_structure(label, q):
    """Fixed-point structure Sp_{2|I₋₁|}(q) × ∏_s GL_s(ε q^{d0})^{t_s}
    with ε = (-1)^{d+1}, and its exact order at the odd prime power q."""
    check_odd_prime_power(q)
    eps = label.epsilon
    order = sp_order(len(label.I_minus1), q)
    gl_parts = tuple(sorted(label.t.items()))
    for s, ts in gl_parts:
        order *= gl_order(s, q ** label.d0, eps) ** ts
    return LeviStructure(len(label.I_minus1), gl_parts, eps, label.d0, q,
                         dict(label.t), order)


# ---------------------------------------------------------------------------
# relative Weyl groups
# ---------------------------------------------------------------------------

RelativeWeylDescriptor = namedtuple(
    "RelativeWeylDescriptor", ["factors", "generators", "order"])


def _disjoint_index_sets(sets, n):
    """The index sets as tuples; ValueError unless each is an index set
    of 1..n and no two meet."""
    sets = [check_index_set(J, n) for J in sets]
    points = [p for J in sets for p in J]
    if len(set(points)) != len(points):
        raise ValueError(f"overlapping index sets: {sets!r}")
    return sets


def wprime_Q(Q, n):
    """w'_Q = ∏_{J∈Q} w'_J, the long signed cycles over the grid sets of
    one Q-set.  The grid sets are disjoint, so the image is written in
    one pass; ValueError if two of them meet."""
    img = list(range(1, n + 1))
    for J in _disjoint_index_sets(Q, n):
        for a, b in zip(J, J[1:]):
            img[a - 1] = b
        img[J[-1] - 1] = -J[0]
    return SignedPerm(img)


def tau_Q(Q1, Q2, n):
    """τ_{Q1,Q2} = ∏_i τ_{Q1(i),Q2(i)}, the signed swap of two Q-sets
    pairing their grid sets positionwise; the identity when Q1 = Q2.
    The grid sets of two swapped Q-sets are disjoint, so the image is
    written in one pass; ValueError if two of them meet or paired sizes
    differ."""
    Q1, Q2 = tuple(map(tuple, Q1)), tuple(map(tuple, Q2))
    if Q1 == Q2:
        _disjoint_index_sets(Q1, n)
        return SignedPerm.identity(n)
    if len(Q1) != len(Q2) or any(
            len(J1) != len(J2) for J1, J2 in zip(Q1, Q2)):
        raise ValueError(f"size mismatch: {Q1!r} vs {Q2!r}")
    _disjoint_index_sets(Q1 + Q2, n)
    img = list(range(1, n + 1))
    for J1, J2 in zip(Q1, Q2):
        for a, b in zip(J1, J2):
            img[a - 1], img[b - 1] = b, a
    return SignedPerm(img)


def _relative_weyl_shape(label):
    """The factors (2·d0, t_s) of W_d^I, one per block size s ascending,
    and the group order ∏_s (2·d0)^{t_s} t_s!."""
    factors = tuple((2 * label.d0, ts) for _, ts in sorted(label.t.items()))
    order = 1
    for c, ts in factors:
        order *= c ** ts * factorial(ts)
    return factors, order


def relative_weyl(label):
    """W_d^I = ∏_s C_{2d0} wr S_{t_s}, with concrete generators.

    Per block size s the generators are w'_{Q_i^s} (one 2d0-cycle
    product per orbit) and the adjacent swaps τ_{Q_i^s, Q_{i+1}^s}.
    """
    factors, order = _relative_weyl_shape(label)
    gens = []
    for _, orbs in sorted(label.orbits.items()):
        gens += [wprime_Q(o.Q, label.n) for o in orbs]
        gens += [tau_Q(o1.Q, o2.Q, label.n) for o1, o2 in zip(orbs, orbs[1:])]
    return RelativeWeylDescriptor(factors, tuple(gens), order)


# verify_relative_weyl enumerates the whole signed group; past this
# rank it is refused.
VERIFY_RANK_LIMIT = 4


@lru_cache(maxsize=VERIFY_RANK_LIMIT)
def _root_action(n):
    """The index of every root of C_n, and for each g of
    signed_symmetric_group(n), in its order, the permutation of root
    indices g induces.  Built once per rank."""
    roots = concrete_parabolic_roots(n, range(1, n + 1), ())
    index = {r: k for k, r in enumerate(roots)}
    actions = tuple(tuple(index[apply_to_root(g, r)] for r in roots)
                    for g in signed_symmetric_group(n))
    return index, actions


def verify_relative_weyl(label):
    """Brute-force check of the relative Weyl group on rank ≤ 4.

    Computes Stab(Φ_L) inside the full signed group, by the action of
    every element on the root indices of C_n, and W_L, the closure of
    the reflections in Φ_L.  Then it forms the cosets of Stab(Φ_L)
    modulo W_L and the cosets fixed under conjugation by w, and confirms
    that the W_d^I generators centralize w and biject onto those fixed
    cosets with the predicted order.  It reads the label's I₋₁, I and
    w only, never its orbits or Q-sets.
    """
    if label.n > VERIFY_RANK_LIMIT:
        raise ValueError("brute-force verification is limited to rank "
                         f"<= {VERIFY_RANK_LIMIT}")
    n = label.n
    G = signed_symmetric_group(n)
    roots = concrete_parabolic_roots(n, label.I_minus1, label.I)
    if roots:
        # r_α = r_{-α}: one reflection per pair ±α.
        WL = group_closure([reflection_perm(r, n) for r in roots
                            if r > tuple(map(neg, r))])
    else:
        WL = [SignedPerm.identity(n)]
    index, actions = _root_action(n)
    ks = [index[r] for r in roots]
    inside = set(ks)
    stab = [g for g, act in zip(G, actions)
            if inside.issuperset(map(act.__getitem__, ks))]

    coset = {}
    reps = []
    for g in stab:
        if g in coset:
            continue
        reps.append(g)
        for h in WL:
            coset[g * h] = g
    w = label.w
    wi = w.inv()
    fixed = {r for r in reps if coset[wi * r * w] == r}

    rw = relative_weyl(label)
    if len(fixed) != rw.order:
        return False
    for g in rw.generators:
        if g * w != w * g or g not in coset:
            return False
    V = group_closure(rw.generators) if rw.generators else [SignedPerm.identity(n)]
    if len(V) != rw.order:
        return False
    images = {coset[v] for v in V}
    return len(images) == len(V) and images == fixed


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def label_record(label, q=None):
    """JSON-ready record for one label; order included when q given."""
    factors, _ = _relative_weyl_shape(label)
    return {
        "n": label.n,
        "d": label.d,
        "d0": label.d0,
        "epsilon": label.epsilon,
        "I_minus1": list(label.I_minus1),
        "I": [list(b) for b in label.I],
        "t": {str(s): ts for s, ts in sorted(label.t.items())},
        "relative_weyl": [list(f) for f in factors],
        "order": levi_structure(label, q).order if q is not None else None,
    }
