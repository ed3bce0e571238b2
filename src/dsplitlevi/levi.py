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
counted by the Bell number Bell(a+1) (:func:`label_count`).
:func:`enumerate_labels` builds them from (T, partition) with no
search, and refuses a count past ``LABEL_COUNT_BOUND`` before building
any.  It hands the labels out one at a time in sorted order, each
built only when it is reached: by T in the order of I₋₁, and within
one T in the order of a partition template, the set partitions of the
positions 1..k, k = a - |T|, sorted once per k and kept.  Each label's
I is the images of its template's blocks in a table of the blocks of
that T, so no label is sorted or keyed, and a report that writes them
as it goes holds one label, not Bell(a+1).  It is the one constructor
of :class:`LeviLabel`: each label takes its t as built, with no
per-label check, and leaves its orbits to be read, when first asked
for, from the orbit table of the call; the orbit checks run once per
group, before the first label is handed out.  The test-suite walks the
bar(w)-orbits of every candidate pair independently and compares.

Each orbit of size-s blocks spans s grid sets; the corresponding Q-sets
(ordered grid-set families) generate one C_{2d0} wr S_{t_s} factor of
the relative Weyl group, realised concretely inside the signed
permutation group and verified against a brute-force fixed-point
computation at every rank whose signed group fits the closure cap.

A report does each piece of shared work once.  The fixed-point order
depends on the label only through its shape (|I₋₁|, t, d0, ε, q), and
W_d^I's factors and order only through (d0, t); both are cached by
that key, so ``sp_order`` and ``gl_order`` run once per shape.  The
generators of W_d^I depend only on its Q-sets: ``relative_weyl`` builds
w'_Q once per Q-set and τ once per adjacent pair, and every label with
those Q-sets shares the (immutable) SignedPerms.  The public
``wprime_Q`` and ``tau_Q`` stay uncached and validate every call.  Every
cache is an ``lru_cache`` keyed by value with a fixed bound:
``TWIST_CACHE_SIZE`` twists, one per (n, d); ``SHAPE_CACHE_SIZE`` shapes
for each shape cache (the fixed-point key (|I₋₁|, t, d0, ε, q) takes 297
values per q over the labels at n ≤ 7 and d ∈ {1, 2, 3, 4, 6}, so 891
for q ∈ {3, 5, 9}, and 762 per q at n ≤ 9 and d ≤ 12, where W_d^I's key
(d0, t) takes 129); ``QSET_CACHE_SIZE`` Q-sets, and as many pairs (at
(9, 1): 2^9 - 1 = 511 Q-sets and 1569 pairs of disjoint Q-sets of one
size); the root-action masks of each rank ``signed_symmetric_group``
keeps; 64 values of q; the partition templates of the 10 rest sizes
k ≤ 9 that ``LABEL_COUNT_BOUND`` admits (about 5 MB for all ten, 0.4 MB
for k ≤ 7).

The oracle :func:`verify_relative_weyl` needs W_L and Stab(Φ_L) for
the root set Φ_L of I₋₁ and I.  W_L is generated by the reflections in
a base Δ of Φ_L, and Φ_L = W_L·Δ (Humphreys, *Reflection Groups and
Coxeter Groups*, §1.5).  So g maps Φ_L onto itself exactly when g(Δ)
⊂ Φ_L: then g conjugates each simple reflection into W_L, so
g(Φ_L) = (g W_L g⁻¹)·g(Δ) ⊂ Φ_L.  The oracle finds Δ from the root set
alone and reads only I₋₁, I and w.  Stab(Φ_L) is read off every
element of the signed group through bit masks: once per rank, for each
pair of roots (k, r), a mask holds the elements g with g(k) = r, and
Stab(Φ_L) is ⋂_{β∈Δ} ⋃_{r∈Φ_L} mask[β][r], listed in the group's order.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import lru_cache, reduce
from operator import add, and_, mul, or_

from .arith import InputTooLarge, prime_power
from .rootsys import reflection_perm
from .signedperm import (
    DEFAULT_CLOSURE_CAP,
    SignedPerm,
    VerificationError,
    _composer,
    _conjugator,
    check_index_set,
    check_signed_group,
    grid_set,
    group_closure,
    set_partitions,
    signed_symmetric_group,
    wprime,
    wreath_order,
)


# Bounds of the lru_caches (see the module docstring).
TWIST_CACHE_SIZE = 128
SHAPE_CACHE_SIZE = 1024
QSET_CACHE_SIZE = 2048


def compute_d0(d):
    """d0 for the twist order d in type C: d for odd d, d/2 for even d."""
    if d < 1:
        raise ValueError("d must be positive")
    return d if d % 2 else d // 2


@lru_cache(maxsize=TWIST_CACHE_SIZE)
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


class LeviLabel:
    """A d-split Levi label (I₋₁, I) at rank n, as built by
    :func:`enumerate_labels`, its one constructor.

    Derived data: the twist w, per-size block orbits with their grid
    index sets J_O and Q-sets (the grid sets underlying the orbit,
    ascending), and the orbit counts t = {s: t_s}, both by ascending s
    (a size's orbits by J_O[0]), so no consumer sorts them again.

    ``built`` is ``((d0, l, a, w), t, sizes, table)`` for the sorted
    ``I_minus1`` and ``I`` that enumerate_labels constructed, with t as
    (s, t_s) pairs.  The label keeps it unchecked, and builds its
    orbits when they are first read (see :attr:`orbits`).
    """

    __slots__ = ("n", "d", "d0", "l", "a", "w", "I_minus1", "I", "t",
                 "_orbits", "_text", "_built")

    def __init__(self, n, d, I_minus1, I, built):
        self.n, self.d = n, d
        (self.d0, self.l, self.a, self.w), t, _, _ = built
        self.I_minus1, self.I, self.t = I_minus1, I, dict(t)
        self._orbits = self._text = None
        self._built = built

    @property
    def orbits(self):
        """The block orbits {s: [Orbit, ...]}, built on first read and
        kept: those of size s are ``table[I[i]]`` for the indices i in
        ``sizes`` of its groups of size s, from the orbit table that
        enumerate_labels checked."""
        if self._orbits is None:
            _, _, sizes, table = self._built
            I, orbits = self.I, {}
            for s, idx in sizes:
                orbits[s] = [table[I[i]] for i in idx]
            self._orbits = orbits
        return self._orbits

    @property
    def epsilon(self):
        return -1 if self.d % 2 == 0 else 1

    def text(self):
        """Deterministic string identifying the label, by n, d, I₋₁ and
        I; built on first use and kept."""
        if self._text is None:
            self._text = " ".join((
                f"n{self.n}", f"d{self.d}",
                "Im1=" + ",".join(map(str, self.I_minus1)),
                "I=" + "|".join(",".join(map(str, b)) for b in self.I)))
        return self._text

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

# verify eq1 refuses a grid with more concrete pairs than this at
# d0 = 1 (Bell(n+1) pairs for each rank n and each d in {1, 2}), before
# building any.  There every pair reaches the exact eigenspace test,
# which took 2.3-4.9 ms a pair at n = 7-9 on a 2-vCPU VM: the bound
# admits --n 7 on the default grid (8280 pairs, about 20 s) and refuses
# n = 8 (42294 pairs, about 2-3 minutes).
EQ1_PAIR_BOUND = 2 ** 14


def _bell(m, bound):
    """The Bell number B_m by the Bell triangle, or the first Bell number
    past ``bound`` (B_m is then past it too): a huge m stops at once."""
    row = [1]
    for _ in range(m):
        if row[0] > bound:
            break
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def label_count(n, d):
    """The number Bell(a+1) of labels at (n, d); ValueError unless n and
    d are positive ints (bools refused), InputTooLarge when the count is
    past LABEL_COUNT_BOUND."""
    for name, value in (("n", n), ("d", d)):
        if type(value) is not int or value < 1:
            raise ValueError(f"{name} must be a positive int, got {value!r}")
    m = n // compute_d0(d) + 1
    count = _bell(m, LABEL_COUNT_BOUND)
    if count > LABEL_COUNT_BOUND:
        raise InputTooLarge(
            f"n={n}, d={d} has Bell({m}) >= {count} Levi labels, past "
            f"the bound {LABEL_COUNT_BOUND} on the label count")
    return count


# One template per rest size k; k <= a <= 9 under LABEL_COUNT_BOUND.
@lru_cache(maxsize=10)
def _partition_templates(k):
    """The set partitions of the positions 1..k in sorted order, each as
    (masks, t, sizes): the bit mask of each block (bit p - 1 for p), t
    as (s, t_s) pairs and, per size s ascending, the indices of the
    blocks of size s.  The blocks are ordered by their minima, so those
    of one size are too.  Partitions whose blocks have the same sizes
    in the same order share one t and one sizes."""
    # subsets[m] is the block with bit mask m, ascending.
    subsets = [()]
    for p in range(1, k + 1):
        subsets += [b + (p,) for b in subsets]
    mask = {b: m for m, b in enumerate(subsets)}.__getitem__
    shapes = {}
    out = []
    for blocks in sorted(set_partitions(k)):
        lens = tuple(map(len, blocks))
        shape = shapes.get(lens)
        if shape is None:
            by_size = {}
            for i, s in enumerate(lens):
                by_size.setdefault(s, []).append(i)
            sizes = tuple((s, tuple(idx)) for s, idx in sorted(by_size.items()))
            shape = shapes[lens] = (
                tuple((s, len(idx)) for s, idx in sizes), sizes)
        out.append((tuple(map(mask, blocks)),) + shape)
    return tuple(out)


def enumerate_labels(n, d):
    """An iterator over all valid labels at (n, d), in sorted order.

    Built from the parametrisation of the module docstring: a subset T
    of the grid indices {1..a} and a set partition of the rest into
    groups.  The orbit of every group is walked along bar(w) and
    checked once, before this returns.  Distinct T give distinct I₋₁,
    so the labels come T by T in the order of I₋₁, and within one T in
    the order of I, from the partition templates of
    :func:`_partition_templates`: the set partitions of the positions
    1..k, k = a - |T|, sorted once per k.  Each label is built only
    when the iterator reaches it, with its t; its orbits are read from
    the shared orbit table when first asked for.  A caller that writes
    one label at a time holds no label but that one.  Raises
    InputTooLarge before any work when the count Bell(a+1) is past
    LABEL_COUNT_BOUND (see :func:`label_count`).

    The grid indices outside T are taken in ascending order, so mapping
    positions to them keeps the order of blocks and of partitions.  A
    group g's orbit holds the blocks g + j·a, j < d0 (checked when it
    is walked), and those with j ≥ 1 lie past a, after every group.
    So I is the groups in the order of their minima, then the same
    blocks shifted by a, by 2a, and so on, and one order of the
    position partitions is that of the labels' I at every T and d0.
    """
    label_count(n, d)
    d0 = compute_d0(d)
    a = n // d0
    l, w = a * d0, sylow_twist_w(n, d)
    shape = d0, l, a, w
    img, bar = w.img, w.bar().img
    tail = tuple(range(l + 1, n + 1))
    points = range(1, a + 1)

    def orbit(S):
        # The blocks {J_i(j) : i ∈ S} = S + (j - 1)·a, j = 1..d0, walked
        # from J_i(1) = i: transversals that exactly cover the grid sets
        # J_i, i ∈ S, which are the orbit's Q-sets.
        blocks = [S]
        cur = tuple(sorted(bar[i - 1] for i in S))
        while cur != S:
            blocks.append(cur)
            cur = tuple(sorted(bar[i - 1] for i in cur))
        if sorted(blocks) != [tuple(i + j * a for i in S) for j in range(d0)]:
            raise VerificationError(
                f"group {S} gives the orbit {blocks}, not its d0 = {d0} "
                f"shifts by multiples of a = {a} (n={n}, d={d})")
        if any(len({img[i - 1] > 0 for i in b}) > 1 for b in blocks):
            raise VerificationError(
                f"w is not of constant sign on the orbit of group {S} "
                f"(n={n}, d={d})")
        return Orbit(tuple(blocks), S, tuple(grid_set(d0, a, i) for i in S))

    def minus1(T):
        return tuple(sorted(itertools.chain(
            tail, *(grid_set(d0, a, i) for i in T))))

    subsets = [T for k in range(a + 1)
               for T in itertools.combinations(points, k)]
    orbits = {S: orbit(S) for S in subsets[1:]}

    def template(k):
        # The index of each block of I in the table of one T (below):
        # block b shifted by j·a at j·2^k + the mask of b, so the masks
        # alone when d0 = 1.
        if d0 == 1:
            return _partition_templates(k)
        return [(tuple([m + (j << k) for j in range(d0) for m in masks]),
                 t, sizes) for masks, t, sizes in _partition_templates(k)]

    def labels():
        templates = [template(k) for k in range(a + 1)]
        for I_minus1, T in sorted((minus1(T), T) for T in subsets):
            # The blocks of one T: at j·2^k + m, the grid indices outside
            # T at the set bits of m, ascending, each shifted by j·a.
            table = []
            for j in range(d0):
                blocks = [()]
                for i in points:
                    if i not in T:
                        blocks += [b + (i + j * a,) for b in blocks]
                table += blocks
            for ids, t, sizes in templates[a - len(T)]:
                yield LeviLabel(n, d, I_minus1,
                                tuple(map(table.__getitem__, ids)),
                                (shape, t, sizes, orbits))

    return labels()


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


@lru_cache(maxsize=SHAPE_CACHE_SIZE)
def _structure_order(sp_rank, gl_parts, d0, eps, q):
    """|Sp_{2·sp_rank}(q)| · ∏_s |GL_s(ε q^{d0})|^{t_s}, once per shape."""
    order = sp_order(sp_rank, q)
    for s, ts in gl_parts:
        order *= gl_order(s, q ** d0, eps) ** ts
    return order


def levi_structure(label, q):
    """Fixed-point structure Sp_{2|I₋₁|}(q) × ∏_s GL_s(ε q^{d0})^{t_s}
    with ε = (-1)^{d+1}, and its exact order at the odd prime power q."""
    check_odd_prime_power(q)
    eps, sp_rank = label.epsilon, len(label.I_minus1)
    gl_parts = tuple(label.t.items())
    return LeviStructure(sp_rank, gl_parts, eps, label.d0, q, dict(label.t),
                         _structure_order(sp_rank, gl_parts, label.d0, eps, q))


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


@lru_cache(maxsize=SHAPE_CACHE_SIZE)
def _relative_weyl_shape(d0, t):
    """The factors (2·d0, t_s) of W_d^I for the sorted pairs t = ((s,
    t_s), ...), one per block size s ascending, and the group order
    ∏_s (2·d0)^{t_s} t_s!; once per shape."""
    factors = tuple((2 * d0, ts) for _, ts in t)
    return factors, wreath_order(factors)


@lru_cache(maxsize=QSET_CACHE_SIZE)
def _orbit_generator(Q, n):
    """w'_Q, built and validated once per Q-set."""
    return wprime_Q(Q, n)


@lru_cache(maxsize=QSET_CACHE_SIZE)
def _swap_generator(Q1, Q2, n):
    """τ_{Q1,Q2}, built and validated once per pair of Q-sets."""
    return tau_Q(Q1, Q2, n)


def relative_weyl(label):
    """W_d^I = ∏_s C_{2d0} wr S_{t_s}, with concrete generators.

    Per block size s the generators are w'_{Q_i^s} (one 2d0-cycle
    product per orbit) and the adjacent swaps τ_{Q_i^s, Q_{i+1}^s}.
    The generators are shared with every other label that has the same
    Q-sets; a SignedPerm is immutable.
    """
    factors, order = _relative_weyl_shape(label.d0, tuple(label.t.items()))
    n, gens = label.n, []
    for orbs in label.orbits.values():
        gens += [_orbit_generator(o.Q, n) for o in orbs]
        gens += [_swap_generator(o1.Q, o2.Q, n)
                 for o1, o2 in zip(orbs, orbs[1:])]
    return RelativeWeylDescriptor(factors, tuple(gens), order)


def _root_points(root):
    """The signed points p, q with root = e_p + e_q, e_{-i} = -e_i; a
    long root ±2e_i is one point taken twice."""
    return tuple(p for i, c in enumerate(root, 1) if c
                 for p in [i if c > 0 else -i] * abs(c))


@lru_cache(maxsize=signed_symmetric_group.cache_parameters()["maxsize"])
def _root_action(n):
    """The index of every root of C_n, and for each pair of root indices
    (k, r) the bit mask of the elements g of signed_symmetric_group(n)
    with g(root k) = root r, bit i standing for the i-th element in the
    group's order.  Built once per rank from each g's images: g maps
    e_p + e_q to e_{g(p)} + e_{g(q)}, so the mask of (e_p + e_q,
    e_P + e_Q) is that of g(p) = P and g(q) = Q, or g(p) = Q and
    g(q) = P."""
    roots = concrete_parabolic_roots(n, range(1, n + 1), ())
    index = {r: k for k, r in enumerate(roots)}
    signed = [p for i in range(1, n + 1) for p in (i, -i)]
    sends = dict.fromkeys(itertools.product(signed, repeat=2), 0)
    for i, g in enumerate(signed_symmetric_group(n)):
        bit = 1 << i
        for p, image in enumerate(g.img, 1):
            sends[p, image] |= bit
            sends[-p, -image] |= bit
    points = [_root_points(r) for r in roots]
    masks = tuple(tuple(sends[p, P] & sends[q, Q] | sends[p, Q] & sends[q, P]
                        for P, Q in points)
                  for p, q in points)
    return index, masks


def _simple_roots(roots):
    """A base of the root system ``roots`` (a tuple of C_n roots): the
    roots r with f(r) > 0, f(v) = Σ_i (n + 1 - i)·v_i, that are not a sum
    of two such roots.  No root of C_n lies on f = 0, so these positive
    roots form a positive system and its indecomposable roots a base."""
    weights = range(len(roots[0]), 0, -1)
    pos = [r for r in roots if sum(map(mul, weights, r)) > 0]
    sums = {tuple(map(add, a, b)) for a, b in itertools.combinations(pos, 2)}
    return [r for r in pos if r not in sums]


def _parabolic_groups(n, roots):
    """(Stab(Φ_L), W_L) inside signed_symmetric_group(n) for the root
    set Φ_L = ``roots``.  W_L is the closure of the reflections in a
    base Δ of Φ_L, and g lies in Stab(Φ_L) when g(Δ) ⊂ Φ_L: then
    g W_L g⁻¹ ⊂ W_L, and Φ_L = W_L·Δ.  So Stab(Φ_L) is the mask
    ⋂_{β∈Δ} ⋃_{r∈Φ_L} mask[β][r] of :func:`_root_action`, read off in
    the group's order."""
    group = signed_symmetric_group(n)
    if not roots:
        return list(group), [SignedPerm.identity(n)]
    base = _simple_roots(roots)
    WL = group_closure([reflection_perm(r, n) for r in base])
    index, masks = _root_action(n)
    inside = [index[r] for r in roots]
    stab = reduce(and_, [reduce(or_, map(masks[index[b]].__getitem__, inside))
                         for b in base])
    # bin(stab) reversed: its character i is bit i, for the i-th element.
    bits = map("1".__eq__, bin(stab)[:1:-1])
    return list(itertools.compress(group, bits)), WL


def verify_relative_weyl(label):
    """Brute-force check of the relative Weyl group on rank ≤ 5.

    Computes Stab(Φ_L) inside the full signed group, from the masks of
    the elements that send each root of a base of Φ_L to each root of
    Φ_L, and W_L, the closure of the reflections in that base (see
    :func:`_parabolic_groups`).
    Then it forms the cosets of Stab(Φ_L) modulo W_L and the cosets
    fixed under conjugation by w, and confirms that the W_d^I generators
    centralize w and biject onto those fixed cosets with the predicted
    order.  It reads the label's I₋₁, I and w only, never its orbits or
    Q-sets.  Past rank 5 it raises ClosureExceedsCap before any work.
    """
    n = label.n
    check_signed_group(n, DEFAULT_CLOSURE_CAP)
    stab, WL = _parabolic_groups(
        n, concrete_parabolic_roots(n, label.I_minus1, label.I))

    # The walk runs on image tuples: g * h is g's signed table read by
    # h's composer, built once per h ∈ W_L, and coset maps each element
    # to its coset's first element met in stab.
    steps = [_composer(h.img) for h in WL]
    coset = {}
    reps = []
    for g in stab:
        if g.img in coset:
            continue
        reps.append(g)
        t = g.table()
        for step in steps:
            coset[step(t)] = g.img
    w = label.w
    by_w = _conjugator(w.img)
    fixed = {r.img for r in reps if coset[by_w(r.table())] == r.img}

    rw = relative_weyl(label)
    if len(fixed) != rw.order:
        return False
    for g in rw.generators:
        if g * w != w * g or g.img not in coset:
            return False
    V = group_closure(rw.generators) if rw.generators else [SignedPerm.identity(n)]
    if len(V) != rw.order:
        return False
    images = {coset[v.img] for v in V}
    return len(images) == len(V) and images == fixed


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def label_record(label, q=None):
    """JSON-ready record for one label; order included when q given.
    Every list and dict in it is new, though its shape is cached."""
    t = tuple(label.t.items())
    factors, _ = _relative_weyl_shape(label.d0, t)
    return {
        "n": label.n,
        "d": label.d,
        "d0": label.d0,
        "epsilon": label.epsilon,
        "I_minus1": list(label.I_minus1),
        "I": [list(b) for b in label.I],
        "t": {str(s): ts for s, ts in t},
        "relative_weyl": [list(f) for f in factors],
        "order": levi_structure(label, q).order if q is not None else None,
    }
