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

from .arith import InputTooLarge, prime_power
from .rootsys import is_stable_under, reflection_perm
from .signedperm import (
    SignedPerm,
    VerificationError,
    grid_set,
    group_closure,
    signed_symmetric_group,
    tau,
    wprime,
)


def compute_d0(kind, d):
    """Order of q modulo the relevant cyclotomic condition, per type.

    kind "BCD": d odd -> d, d even -> d/2.
    kind "A":   d.
    kind "2A":  4|d -> d;  d ≡ 2 (mod 4) -> d/2;  d odd -> 2d.
    """
    if d < 1:
        raise ValueError("d must be positive")
    if kind == "BCD":
        return d if d % 2 else d // 2
    if kind == "A":
        return d
    if kind == "2A":
        if d % 4 == 0:
            return d
        if d % 2 == 0:
            return d // 2
        return 2 * d
    raise ValueError(f"unknown kind {kind!r} (use A, 2A or BCD)")


@lru_cache(maxsize=None)
def sylow_twist_w(n, d):
    """The distinguished twist: ∏_i w_{J_i} over the grid sets of {1..l},
    with w_J = w'_J for even d and (w'_J)^2 for odd d; identity outside.
    Built once per (n, d)."""
    d0 = compute_d0("BCD", d)
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
    """A validated d-split Levi label (I₋₁, I) at rank n.

    Derived data: the twist w, per-size block orbits with their grid
    index sets J_O and Q-sets (the grid sets underlying the orbit,
    ascending), and the orbit counts t = {s: t_s}.
    """

    __slots__ = ("n", "d", "d0", "l", "a", "w", "I_minus1", "I", "orbits", "t")

    def __init__(self, n, d, I_minus1, I):
        self.n, self.d = n, d
        self.d0 = compute_d0("BCD", d)
        self.l = (n // self.d0) * self.d0
        self.a = self.l // self.d0 if self.l else 0
        self.w = sylow_twist_w(n, d)

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
            underline = sorted(set().union(*orbit))
            J_O = tuple(i for i in underline if i <= self.a)
            s = len(b)
            if len(J_O) != s:
                raise VerificationError(
                    f"blocks of orbit {orbit} are not grid transversals "
                    f"(n={n}, d={d})")
            Q = tuple(grid_set(self.d0, self.a, i) for i in J_O)
            if sorted(set().union(*Q)) != underline:
                raise VerificationError(
                    f"support of orbit {orbit} is not a union of grid "
                    f"sets (n={n}, d={d})")
            self.orbits.setdefault(s, []).append(Orbit(tuple(orbit), J_O, Q))
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


def enumerate_labels(n, d, dedup=False):
    """All valid labels at (n, d), in sorted order.

    With ``dedup`` set, keeps one label per structural signature
    (|I₋₁|, {s: t_s}) — the data determining the Levi up to conjugacy.
    """
    if n < 1:
        raise ValueError("n must be positive")
    w = sylow_twist_w(n, d)
    bar = w.bar()
    cycles = []
    seen = set()
    for start in range(1, n + 1):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        p = bar(start)
        while p != start:
            cyc.append(p)
            seen.add(p)
            p = bar(p)
        cycles.append(tuple(sorted(cyc)))
    labels = []
    for k in range(len(cycles) + 1):
        for chosen in itertools.combinations(range(len(cycles)), k):
            I_minus1 = tuple(sorted(itertools.chain.from_iterable(
                cycles[i] for i in chosen)))
            rest = tuple(p for p in range(1, n + 1) if p not in I_minus1)
            for blocks in _partitions_of(rest):
                try:
                    labels.append(LeviLabel(n, d, I_minus1, blocks))
                except ValueError:
                    continue
    labels.sort(key=lambda lab: (lab.I_minus1, lab.I))
    if dedup:
        kept, sigs = [], set()
        for lab in labels:
            sig = (len(lab.I_minus1), tuple(sorted(lab.t.items())))
            if sig not in sigs:
                sigs.add(sig)
                kept.append(lab)
        labels = kept
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


def check_odd_prime_power(q):
    """(p, m) with q = p^m for an odd prime p; ValueError for any other
    q, and InputTooLarge for q at or past Q_BOUND."""
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


def wprime_Q(Q, n):
    """Product of the long signed cycles over the grid sets of one Q-set."""
    out = SignedPerm.identity(n)
    for J in Q:
        out = out * wprime(J, n)
    return out


def tau_Q(Q1, Q2, n):
    """Signed swap of two Q-sets, pairing their grid sets positionwise."""
    out = SignedPerm.identity(n)
    for J1, J2 in zip(Q1, Q2):
        out = out * tau(J1, J2, n)
    return out


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


def verify_relative_weyl(label):
    """Brute-force check of the relative Weyl group on rank ≤ 4.

    Computes Stab(Φ_L) inside the full signed group, its cosets modulo
    W_L, the fixed cosets under conjugation by w, and confirms that the
    W_d^I generators centralize w and biject onto those fixed cosets
    with the predicted order.
    """
    if label.n > 4:
        raise ValueError("brute-force verification is limited to rank <= 4")
    n = label.n
    G = signed_symmetric_group(n)
    roots = concrete_parabolic_roots(n, label.I_minus1, label.I)
    if roots:
        WL = group_closure([reflection_perm(r, n) for r in roots])
    else:
        WL = [SignedPerm.identity(n)]
    stab = [g for g in G if is_stable_under(roots, g)]

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
