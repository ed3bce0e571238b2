"""Signed permutations of {±1, ..., ±n} and their structural subgroups.

A signed permutation σ satisfies σ(-i) = -σ(i), so only the images of
the positive points are stored.  Project-wide conventions, fixed here
once and used by every other module:

* composition is (a∘b)(x) = a(b(x));
* conjugation is x^g = g⁻¹∘x∘g (so x^(g∘h) = (x^g)^h).

Besides the group operations the module provides

* the canonical generators w′_J (the 2k-cycle through J and -J),
  τ_{J,J′} (sign-respecting block swap) and ι_J (sign flips on J),
  together with the arithmetic-progression index sets ("grid sets")
  they are usually evaluated on;
* the cycle statistics (m1 = self-paired cycles, m2 = paired cycle
  pairs) that determine the centralizer of an element, with the
  predicted centralizer order, from :func:`wreath_order`, the one order
  formula of a product of wreath products C_c wr S_m;
* :func:`closure`, the one breadth-first enumeration of ⟨gens⟩ in the
  package, with its cap exception :class:`ClosureExceedsCap`; it takes
  signed permutations only (the monomial matrices of ``extweyl``, the
  groups of ``chartab`` and the class actions of ``cliff`` close as
  signed permutations), closes
  them on bare image tuples (:func:`_closure_images`, which ``cliff``
  counts for the order of K), each element's signed table built once,
  and wraps them as SignedPerms only at the end; :func:`check_order`
  raises it before any enumeration, from a group's order, and
  :func:`check_signed_group` for the signed group of a rank;
* brute-force normalizer / centralizer routines used to verify the
  structural formulas on small ranks, which also compose image tuples
  through :func:`_composer` and :func:`_conjugator`, and the generator
  sets for products of block wreath subgroups and their predicted
  normalizers.

Every input path validates: ``SignedPerm(...)``, :meth:`from_cycles`,
:func:`wprime`, :func:`tau` and :func:`iota` reject anything that is not
a signed permutation.  Products, inverses, powers, the bar projection
and the closure of validated operands are signed permutations by
construction, so they build their results with the unchecked
:func:`_trusted`.  Nothing else may call :func:`_trusted`: the
invariant is that only group operations on already-validated operands
reach it.

Every product is one composition kernel: a∘b is a's signed image table
read along b's images by ``_composer(b.img)``, an ``itemgetter`` built
once per right factor b and applied to many left tables; conjugation
x^k is ``_conjugator(k.img)`` on x's table, two such reads with no
intermediate SignedPerm.
"""

from __future__ import annotations

import itertools
import re
from collections import namedtuple
from functools import lru_cache
from math import factorial
from operator import itemgetter, neg


DEFAULT_CLOSURE_CAP = 20000


class ClosureExceedsCap(RuntimeError):
    """A brute-force enumeration grew past its element cap; the one cap
    exception of the package."""


class VerificationError(AssertionError):
    """A computed result failed the check that guards it.

    Raised explicitly, so the check survives ``python -O``; a subclass of
    AssertionError, so callers that collect failed checks by catching
    AssertionError still see it.
    """


_CYCLES_RE = re.compile(r"\(([^()]*)\)")


class SignedPerm:
    """A signed permutation, stored by the images of 1..n."""

    __slots__ = ("img", "_t")

    def __init__(self, img):
        img = tuple(img)
        n = len(img)
        if (any(type(v) is not int for v in img)
                or sorted(map(abs, img)) != list(range(1, n + 1))):
            raise ValueError(f"not a signed permutation: {img!r}")
        self.img = img
        self._t = None

    def table(self):
        """The images of every signed point: ``t[i] = σ(i)`` for
        -n ≤ i ≤ n, i ≠ 0 (negative indices count from the end), built
        on first use.  The one accessor of the table: the brute-force
        oracles here and in ``levi`` compose image tuples by looking
        them up in it, as :func:`closure` does."""
        t = self._t
        if t is None:
            t = self._t = _signed_table(self.img)
        return t

    # -- basic protocol ----------------------------------------------------

    @property
    def n(self):
        return len(self.img)

    def __call__(self, i):
        if not isinstance(i, int) or i == 0 or abs(i) > self.n:
            raise ValueError(f"point {i!r} out of range for rank {self.n}")
        v = self.img[abs(i) - 1]
        return v if i > 0 else -v

    def __eq__(self, other):
        return isinstance(other, SignedPerm) and self.img == other.img

    def __hash__(self):
        return hash(self.img)

    def __lt__(self, other):
        return self.img < other.img

    def __repr__(self):
        return f"SignedPerm.from_cycles({self.to_cycles()!r}, {self.n})"

    # -- group structure ---------------------------------------------------

    @classmethod
    def identity(cls, n):
        return _trusted(tuple(range(1, n + 1)))

    def is_identity(self):
        return self.img == tuple(range(1, self.n + 1))

    def __mul__(self, other):
        """(self∘other)(x) = self(other(x))."""
        if not isinstance(other, SignedPerm):
            return NotImplemented
        if len(self.img) != len(other.img):
            raise ValueError(f"rank mismatch: {self.n} vs {other.n}")
        return _trusted(_composer(other.img)(self._t or self.table()))

    def inv(self):
        return _trusted(_inverse(self.img))

    def __pow__(self, k):
        if k < 0:
            return self.inv() ** (-k)
        out = SignedPerm.identity(self.n)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conj(self, g):
        """self^g = g⁻¹∘self∘g."""
        if len(self.img) != len(g.img):
            raise ValueError(f"rank mismatch: {self.n} vs {g.n}")
        return _trusted(_conjugator(g.img)(self.table()))

    def order(self):
        k, p = 1, self
        while not p.is_identity():
            p, k = p * self, k + 1
        return k

    # -- bar projection and signs -------------------------------------------

    def bar(self):
        """The underlying plain permutation |σ| (a signed perm with +images)."""
        return _trusted(tuple(map(abs, self.img)))

    def sign(self, i):
        """ε(i) with σ·e_i = ε(i)·e_{bar(i)}, i.e. the sign of σ(i)."""
        return 1 if self(i) > 0 else -1

    # -- cycle notation -----------------------------------------------------

    def cycles(self):
        """All cycles of the action on {±1..±n}, fixed points included."""
        t = self.table()
        seen, out = set(), []
        for start in itertools.chain(range(1, self.n + 1),
                                     range(-1, -self.n - 1, -1)):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            p = t[start]
            while p != start:
                cyc.append(p)
                seen.add(p)
                p = t[p]
            out.append(tuple(cyc))
        return out

    def to_cycles(self):
        """Canonical cycle string, e.g. ``"(1,2,-1,-2)(3,-3)"``.

        Of each pair {α, -α} of distinct cycles only the one containing
        the smaller positive point is written; self-paired cycles are
        rotated to start at their smallest positive point.  Fixed signed
        points are omitted; the identity renders as ``"()"``.

        One walk from each positive point not yet met, in ascending
        order: every earlier walk covered a cycle and its negative, so
        the start is the smallest positive point of the cycle it walks
        and of that cycle's negative, and the cycles come out sorted.
        """
        t = self._t or self.table()
        met, out = set(), []
        for start in range(1, len(self.img) + 1):
            p = t[start]
            if p == start or start in met:
                continue
            cyc = [start]
            while p != start:
                cyc.append(p)
                p = t[p]
            met.update(map(abs, cyc))
            out.append("(" + ",".join(map(str, cyc)) + ")")
        return "".join(out) or "()"

    @classmethod
    def from_cycles(cls, text, n):
        """Parse cycle notation; points absent from ``text`` are fixed."""
        text = text.strip().replace(" ", "")
        if text in ("", "()"):
            return cls.identity(n)
        if not re.fullmatch(r"(\(-?\d+(,-?\d+)*\))+", text):
            raise ValueError(f"bad cycle notation: {text!r}")
        img = {}
        for grp in _CYCLES_RE.findall(text):
            pts = [int(t) for t in grp.split(",")]
            if any(p == 0 or abs(p) > n for p in pts):
                raise ValueError(f"point out of range for rank {n}: ({grp})")
            if len(set(pts)) != len(pts):
                raise ValueError(f"repeated point in cycle ({grp})")
            for a, b in zip(pts, pts[1:] + pts[:1]):
                for x, y in ((a, b), (-a, -b)):
                    if img.setdefault(x, y) != y:
                        raise ValueError(f"inconsistent cycles in {text!r}")
        return cls(img.get(i, i) for i in range(1, n + 1))


def _signed_table(img):
    return (0, *img, *map(neg, reversed(img)))


def _inverse(img):
    """The images of the inverse of the signed permutation ``img``."""
    out = [0] * len(img)
    for i, v in enumerate(img, start=1):
        if v > 0:
            out[v - 1] = i
        else:
            out[-v - 1] = -i
    return tuple(out)


def _composer(img):
    """The composition kernel: for a fixed right factor b with images
    ``img``, the map from a left factor a's signed table to the images
    of a∘b, (t[b(1)], ..., t[b(n)]).  Build it once per right factor and
    apply it to many left tables.  A one-item ``itemgetter`` returns the
    item itself, not a tuple, so rank 1 has its own one-tuple map."""
    if len(img) == 1:
        (b,) = img
        return lambda t: (t[b],)
    return itemgetter(*img)


def _conjugator(img):
    """For a fixed k with images ``img``, the map from x's signed table
    to the images of x^k = k⁻¹∘x∘k: x∘k read off x's table by
    ``_composer(img)``, then k⁻¹'s table read along it.  No intermediate
    SignedPerm is formed, and nothing is validated: the callers check
    that x and k have one rank."""
    right, left = _composer(img), _signed_table(_inverse(img))
    return lambda t: _composer(right(t))(left)


def _trusted(img):
    """A SignedPerm on the tuple ``img`` without validation.

    Only for results of group operations on validated operands, which are
    signed permutations by construction; input goes through
    ``SignedPerm(...)``.
    """
    p = object.__new__(SignedPerm)
    p.img = img
    p._t = None
    return p


# ---------------------------------------------------------------------------
# cycle statistics and centralizer shapes
# ---------------------------------------------------------------------------

CycleData = namedtuple("CycleData", ["bar", "sign", "self_paired", "paired"])


def cycle_data(s):
    """Bar projection, sign function and the self-paired/paired cycle split.

    A cycle α of s on {±1..±n} either coincides with -α as a set
    (self-paired; necessarily of even length) or pairs up with the
    distinct cycle -α.  ``self_paired`` lists each self-paired cycle
    once; ``paired`` lists one representative of each {α, -α} pair
    (fixed points included as 1-cycles).  Both use the same canonical
    rotation/representative choice as :meth:`SignedPerm.to_cycles`.
    """
    self_paired, paired, used = [], [], set()
    for cyc in s.cycles():
        if frozenset(cyc) in used:
            continue
        used.add(frozenset(cyc))
        neg = tuple(-c for c in cyc)
        if frozenset(neg) == frozenset(cyc):
            bucket = self_paired
            chosen = cyc
        else:
            used.add(frozenset(neg))
            bucket = paired
            pool = min(c for c in cyc + neg if c > 0)
            chosen = cyc if pool in cyc else neg
        start = chosen.index(min(c for c in chosen if c > 0))
        bucket.append(chosen[start:] + chosen[:start])
    self_paired.sort(key=lambda c: c[0])
    paired.sort(key=lambda c: c[0])
    sign = {i: s.sign(i) for i in range(1, s.n + 1)}
    return CycleData(s.bar(), sign, self_paired, paired)


def wreath_order(factors):
    """∏ c^m·m! over the pairs (c, m): the order of ∏ C_c wr S_m."""
    order = 1
    for c, m in factors:
        order *= c ** m * factorial(m)
    return order


class CentralizerType:
    """Cycle statistics (m1, m2) of an element and the centralizer order.

    m1[i] counts self-paired cycles of length 2i, m2[i] counts pairs
    {α, -α} of cycles of length i.  The centralizer is a direct product
    of wreath products — C_{2i} wr S_{m1[i]} for the self-paired part
    and, for the paired part, C_{2i} wr S_{m2[i]} (i odd) or
    (C2 × C_i) wr S_{m2[i]} (i even) — so its order is
    ∏ (2i)^{m1[i]} m1[i]! · ∏ (2i)^{m2[i]} m2[i]!.
    """

    def __init__(self, m1, m2):
        self.m1 = {i: c for i, c in sorted(m1.items()) if c}
        self.m2 = {i: c for i, c in sorted(m2.items()) if c}
        self.order = wreath_order(
            (2 * i, c)
            for i, c in itertools.chain(self.m1.items(), self.m2.items()))

    def __eq__(self, other):
        return (isinstance(other, CentralizerType)
                and self.m1 == other.m1 and self.m2 == other.m2)

    def __repr__(self):
        return f"CentralizerType(m1={self.m1}, m2={self.m2}, order={self.order})"


def centralizer_type(s):
    """The (m1, m2) statistics of ``s`` and its predicted centralizer order."""
    data = cycle_data(s)
    m1, m2 = {}, {}
    for cyc in data.self_paired:
        i = len(cyc) // 2
        m1[i] = m1.get(i, 0) + 1
    for cyc in data.paired:
        i = len(cyc)
        m2[i] = m2.get(i, 0) + 1
    return CentralizerType(m1, m2)


# ---------------------------------------------------------------------------
# canonical generators
# ---------------------------------------------------------------------------

def check_index_set(J, n):
    """``J`` as a tuple; ValueError unless it is a non-empty ascending
    set of int points of 1..n."""
    J = tuple(J)
    if (not J or any(type(j) is not int or not 1 <= j <= n for j in J)
            or list(J) != sorted(set(J))):
        raise ValueError(f"not an index set within 1..{n}: {J!r}")
    return J


def wprime(J, n):
    """The 2k-cycle (J(1), ..., J(k), -J(1), ..., -J(k))."""
    J = check_index_set(J, n)
    img = {J[i]: J[i + 1] for i in range(len(J) - 1)}
    img[J[-1]] = -J[0]
    return SignedPerm(img.get(i, i) for i in range(1, n + 1))


def tau(J, Jp, n):
    """∏_i (J(i), J′(i))(-J(i), -J′(i)); identity when J = J′."""
    J, Jp = check_index_set(J, n), check_index_set(Jp, n)
    if J == Jp:
        return SignedPerm.identity(n)
    if len(J) != len(Jp):
        raise ValueError(f"size mismatch: {J!r} vs {Jp!r}")
    if set(J) & set(Jp):
        raise ValueError(f"overlapping index sets: {J!r}, {Jp!r}")
    img = {a: b for a, b in zip(J, Jp)}
    img.update({b: a for a, b in zip(J, Jp)})
    return SignedPerm(img.get(i, i) for i in range(1, n + 1))


def iota(J, n):
    """∏_{i∈J} (i, -i): sign flips on J."""
    J = check_index_set(J, n)
    return SignedPerm(-i if i in set(J) else i for i in range(1, n + 1))


def grid_set(k, m, i):
    """The arithmetic progression {i + j·m : 0 ≤ j ≤ k-1} (as a tuple).

    For 1 ≤ i ≤ m these partition {1..km} into m sets of size k; the
    j-th element of the i-th set is i + (j-1)m.
    """
    if k < 1 or m < 1 or not 1 <= i <= m:
        raise ValueError(f"bad grid parameters k={k}, m={m}, i={i}")
    return tuple(i + j * m for j in range(k))


# ---------------------------------------------------------------------------
# brute force: closure, normalizer, standard groups
# ---------------------------------------------------------------------------

def closure(gens, identity, cap):
    """Every element of ⟨gens⟩ for signed permutations ``gens`` of the
    rank of ``identity``, ``identity`` first, in breadth-first order:
    the list is its own queue, and each element x is followed by the
    new products x * g.  Raises ClosureExceedsCap when an element past
    ``cap`` appears.

    The loop runs on image tuples (:func:`_closure_images`), and the
    elements are wrapped as SignedPerms once, at the end."""
    return [identity] + [_trusted(y) for y in
                         _closure_images(gens, identity, cap)[1:]]


def _closure_images(gens, identity, cap):
    """The image tuples of :func:`closure`'s elements, in its order: x * g
    is x's signed table read by g's :func:`_composer`, built once per
    generator.  A caller that needs only the order counts them."""
    n = len(identity.img)
    imgs = [g.img for g in gens]
    if any(len(g) != n for g in imgs):
        raise ValueError("generators and identity have mixed ranks")
    steps = [_composer(g) for g in imgs]
    elems = [identity.img]
    seen = {identity.img}
    add, append = seen.add, elems.append
    for x in elems:
        t = _signed_table(x)
        for step in steps:
            y = step(t)
            if y not in seen:
                if len(elems) >= cap:
                    raise ClosureExceedsCap(f"closure exceeds cap {cap}")
                add(y)
                append(y)
    return elems


def group_closure(gens, cap=DEFAULT_CLOSURE_CAP):
    """Every element of ⟨gens⟩, identity first, in breadth-first order."""
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator")
    return closure(gens, SignedPerm.identity(gens[0].n), cap)


def check_order(group, factors, cap):
    """The order of ``group``, the product of ``factors``, or
    ClosureExceedsCap at the first partial product past ``cap``, so a
    huge order is never formed or printed."""
    order = 1
    for f in factors:
        order *= f
        if order > cap:
            raise ClosureExceedsCap(f"{group} exceeds cap {cap}")
    return order


def check_signed_group(rank, cap):
    """:func:`check_order` of the signed group of ``rank``, of order
    2^rank rank!."""
    return check_order(f"the signed group of rank {rank}",
                       range(2, 2 * rank + 1, 2), cap)


@lru_cache(maxsize=8)
def signed_symmetric_group(n):
    """The full group of signed permutations of rank n (order 2^n n!),
    built once per rank and shared, hence an immutable tuple.  Eight
    ranks are kept; the default cap admits n <= 5."""
    gens = [iota((1,), n)]
    gens += [tau((i,), (i + 1,), n) for i in range(1, n)]
    return tuple(group_closure(gens, cap=wreath_order([(2, n)])))


def brute_normalizer(H, G):
    """{g ∈ G : H^g = H} by exhaustive check; H must be a subgroup of G.

    Every a * b for a, b ∈ H and every g⁻¹ * h * g for g ∈ G, h ∈ H is
    formed on image tuples, from H's signed tables by b's
    :func:`_composer` and g's :func:`_conjugator`, and looked up among
    H's images."""
    H, G = list(H), list(G)
    hset, gset = set(H), set(G)
    if not hset <= gset:
        raise ValueError("H is not contained in G")
    n = H[0].n
    if SignedPerm.identity(n) not in hset:
        raise ValueError("H does not contain the identity")
    imgs = [h.img for h in H]
    for b in imgs:
        if len(b) != n:
            raise ValueError(f"rank mismatch: {n} vs {len(b)}")
    himgs = set(imgs)
    tables = [h.table() for h in H]
    inside = himgs.__contains__
    for b in imgs:
        if not all(map(inside, map(_composer(b), tables))):
            raise ValueError("H is not closed under composition")
    out = []
    for g in G:
        if len(g.img) != n:
            raise ValueError(f"rank mismatch: {len(g.img)} vs {n}")
        if all(map(inside, map(_conjugator(g.img), tables))):
            out.append(g)
    return out


def brute_centralizer(x, G):
    """{g ∈ G : gx = xg} by exhaustive check: g∘x, g's signed table
    read by x's :func:`_composer`, against x∘g, x's read by g's."""
    ximg, tx = x.img, x.table()
    by_x = _composer(ximg)
    out = []
    for g in G:
        gimg = g.img
        if len(gimg) != len(ximg):
            raise ValueError(f"rank mismatch: {len(gimg)} vs {len(ximg)}")
        if by_x(g.table()) == _composer(gimg)(tx):
            out.append(g)
    return out


# ---------------------------------------------------------------------------
# products of block wreath subgroups and their normalizers
# ---------------------------------------------------------------------------

def set_partitions(n):
    """All partitions of {1..n}, blocks sorted, blocks ordered by minimum
    as built: each point joins a block at its end or opens the last one."""
    parts = [[]]
    for x in range(1, n + 1):
        nxt = []
        for p in parts:
            for i in range(len(p)):
                nxt.append(p[:i] + [p[i] + (x,)] + p[i + 1:])
            nxt.append(p + [(x,)])
        parts = nxt
    return [tuple(p) for p in parts]


def block_wreath_generators(blocks, signed, n):
    """Generators of H = ∏_J A_J wr S(J) inside the rank-n signed group.

    Each block J carries either A_J = C2 (``signed`` flag set: the full
    signed permutation group of J) or A_J = 1 (plain permutations of J,
    acting on ±J without sign changes).  The identity is always
    included so that trivial configurations still close.
    """
    gens = [SignedPerm.identity(n)]
    for J, sgn in zip(blocks, signed):
        gens += [tau((a,), (b,), n) for a, b in zip(J, J[1:])]
        if sgn:
            gens.append(iota((J[0],), n))
    return gens


def block_wreath_normalizer_generators(blocks, signed, n):
    """Generators of the predicted normalizer of a block wreath product.

    The normalizer of H = ∏_J A_J wr S(J) is generated by H itself, the
    diagonal sign flips ι_J on each block, and the swaps τ_{J,J′} of
    blocks of equal size carrying the same A_J.
    """
    gens = list(block_wreath_generators(blocks, signed, n))
    gens += [iota(J, n) for J in blocks]
    for (J1, s1), (J2, s2) in itertools.combinations(zip(blocks, signed), 2):
        if len(J1) == len(J2) and s1 == s2:
            gens.append(tau(J1, J2, n))
    return gens
