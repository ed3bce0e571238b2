"""Classical root systems with exact integer coordinates.

Roots are integer tuples in the orthonormal e-basis, so the systems are

* type A (realised in rank n):  e_i - e_j,            i ≠ j
* type B:                       ±e_i ± e_j, ±e_i
* type C:                       ±e_i ± e_j, ±2e_i
* type D:                       ±e_i ± e_j

Reflections act as signed permutations of the coordinates: r_{e_i-e_j}
acts as (i,j)(-i,-j), r_{e_i+e_j} as (i,-j)(-i,j), and r_{2e_i} (or
r_{e_i}) as (i,-i).  This identification of the Weyl group of type C
with the full signed permutation group is used throughout the package.

A parabolic label (m, I) with I a partition of a subset of {1..m}
denotes the subsystem consisting of the full sub-B/C/D-system on the
last n-m coordinates together with a type-A system e_i - e_j inside
every block of I.  Arbitrary parabolic subsystems are classified onto
such labels by brute-force conjugation over the Weyl group; in type D
the subsystems reachable only through the outer sign change (n,-n) are
reported with a flip flag.
"""

from __future__ import annotations

import itertools
import re
from collections import namedtuple
from math import factorial

from .signedperm import SignedPerm, VerificationError, group_closure, iota


class NotParabolic(ValueError):
    """The given roots are not Weyl-conjugate to any standard label."""


# ---------------------------------------------------------------------------
# roots as integer tuples
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(r"([+-]?)(\d*)e(\d+)")


def root_to_str(root):
    """Serialize a root, e.g. (1,-1,0) -> "e1-e2", (0,0,2) -> "2e3"."""
    parts = []
    for i, c in enumerate(root, start=1):
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = "" if abs(c) == 1 else str(abs(c))
        parts.append(f"{sign}{mag}e{i}")
    if not parts:
        raise ValueError("zero vector is not a root")
    return "".join(parts)


def root_from_str(text, n):
    """Parse root notation like "e1-e2", "2e3", "-e1+e3" into a tuple."""
    text = text.strip().replace(" ", "")
    if not re.fullmatch(r"([+-]?\d*e\d+)+", text):
        raise ValueError(f"bad root notation: {text!r}")
    out = [0] * n
    for sign, mag, idx in _TERM_RE.findall(text):
        i = int(idx)
        if not 1 <= i <= n:
            raise ValueError(f"coordinate e{i} out of range for rank {n}")
        if out[i - 1] != 0:
            raise ValueError(f"repeated coordinate e{i} in {text!r}")
        c = int(mag) if mag else 1
        out[i - 1] = -c if sign == "-" else c
    return tuple(out)


def apply_to_root(x, root):
    """x·(Σ c_i e_i) = Σ c_i ε(i) e_{bar(i)} for a signed permutation x."""
    if x.n != len(root):
        raise ValueError("rank mismatch between permutation and root")
    out = [0] * len(root)
    for c, v in zip(root, x.img):
        if c:
            out[abs(v) - 1] = c if v > 0 else -c
    return tuple(out)


def reflection_perm(root, n):
    """The signed permutation realising the reflection in ``root``.

    r_{e_i-e_j} -> (i,j)(-i,-j);  r_{e_i+e_j} -> (i,-j)(-i,j);
    r_{2e_i} and r_{e_i} -> (i,-i).
    """
    nz = [(i, c) for i, c in enumerate(root, start=1) if c]
    img = list(range(1, n + 1))
    if len(nz) == 1:
        i = nz[0][0]
        img[i - 1] = -i
    elif len(nz) == 2 and abs(nz[0][1]) == 1 and abs(nz[1][1]) == 1:
        (i, ci), (j, cj) = nz
        if ci * cj < 0:
            img[i - 1], img[j - 1] = j, i
        else:
            img[i - 1], img[j - 1] = -j, -i
    else:
        raise ValueError(f"not a classical root: {root!r}")
    return SignedPerm(img)


# ---------------------------------------------------------------------------
# the four families
# ---------------------------------------------------------------------------

def _unit(i, n, c=1):
    v = [0] * n
    v[i - 1] = c
    return tuple(v)


def build_root_system(kind, n):
    """The full root system of the given kind and rank parameter n."""
    if kind not in ("A", "B", "C", "D"):
        raise ValueError(f"unknown type {kind!r}")
    if kind == "D" and n < 4:
        raise ValueError("type D needs n >= 4")
    if kind != "D" and n < 2:
        raise ValueError(f"type {kind} needs n >= 2")
    roots = []
    if kind == "A":
        for i, j in itertools.permutations(range(1, n + 1), 2):
            v = [0] * n
            v[i - 1], v[j - 1] = 1, -1
            roots.append(tuple(v))
    else:
        for i, j in itertools.combinations(range(1, n + 1), 2):
            for si, sj in itertools.product((1, -1), repeat=2):
                v = [0] * n
                v[i - 1], v[j - 1] = si, sj
                roots.append(tuple(v))
        if kind == "C":
            roots += [_unit(i, n, s * 2) for i in range(1, n + 1) for s in (1, -1)]
        elif kind == "B":
            roots += [_unit(i, n, s) for i in range(1, n + 1) for s in (1, -1)]
    simple = [tuple(a - b for a, b in zip(_unit(i, n), _unit(i + 1, n)))
              for i in range(1, n)]
    if kind == "C":
        simple.append(_unit(n, n, 2))
    elif kind == "B":
        simple.append(_unit(n, n))
    elif kind == "D":
        simple.append(tuple(a + b for a, b in zip(_unit(n - 1, n), _unit(n, n))))
    return RootSystem(kind, n, tuple(sorted(roots)), tuple(simple))


class RootSystem:
    """A full classical root system with its standard simple system."""

    __slots__ = ("kind", "n", "roots", "simple", "_rootset", "_weyl")

    def __init__(self, kind, n, roots, simple):
        self.kind = kind
        self.n = n
        self.roots = roots
        self.simple = simple
        self._rootset = frozenset(roots)
        self._weyl = None

    def __contains__(self, root):
        return tuple(root) in self._rootset

    def __repr__(self):
        return f"RootSystem({self.kind!r}, {self.n}, |roots|={len(self.roots)})"

    def weyl(self):
        """All elements of the Weyl group as signed permutations."""
        if self._weyl is None:
            gens = [reflection_perm(a, self.n) for a in self.simple]
            self._weyl = group_closure(gens, cap=2 ** self.n * factorial(self.n))
        return self._weyl


# ---------------------------------------------------------------------------
# parabolic labels
# ---------------------------------------------------------------------------

ParabolicLabel = namedtuple("ParabolicLabel", ["m", "blocks", "flip"])
ParabolicLabel.__new__.__defaults__ = (False,)


def _normalize_label(sys, label):
    if isinstance(label, ParabolicLabel):
        m, blocks = label.m, label.blocks
    else:
        m, blocks = label[0], label[1]
    if not 0 <= m <= sys.n:
        raise ValueError(f"m={m} out of range for rank {sys.n}")
    if sys.kind == "D" and m == sys.n - 1:
        raise ValueError("type D labels with m = n-1 are excluded "
                         "(they duplicate m = n)")
    if sys.kind == "A" and m != sys.n:
        raise ValueError("type A labels require m = n")
    blocks = tuple(sorted((tuple(sorted(b)) for b in blocks), key=min))
    seen = set()
    for b in blocks:
        if not b or len(set(b)) != len(b) or seen & set(b):
            raise ValueError(f"blocks are not pairwise disjoint: {blocks!r}")
        if not all(1 <= i <= m for i in b):
            raise ValueError(f"block {b!r} leaves {{1..{m}}}")
        seen |= set(b)
    return m, blocks


def parabolic_roots(sys, label):
    """The roots of Φ_{m,I}: full subsystem on {m+1..n}, type A on blocks."""
    m, blocks = _normalize_label(sys, label)
    out = [r for r in sys.roots
           if all(c == 0 for c in r[:m])]
    for J in blocks:
        for i, j in itertools.permutations(J, 2):
            v = [0] * sys.n
            v[i - 1], v[j - 1] = 1, -1
            out.append(tuple(v))
    return tuple(sorted(set(out)))


def is_stable_under(roots, x):
    """True iff x maps the given root set into itself."""
    rootset = set(map(tuple, roots))
    return all(apply_to_root(x, r) in rootset for r in rootset)


def stable_label_criterion(label, x, n):
    """Blockwise stability test for Φ_{m,I} under a signed permutation.

    x stabilises Φ_{m,I} iff bar(x) preserves {m+1..n} and every block
    of size ≥ 2 is mapped onto a block of I with x of constant sign on
    it.  (Singleton blocks impose nothing: their type-A part is empty.)
    """
    if isinstance(label, ParabolicLabel):
        m, blocks = label.m, label.blocks
    else:
        m, blocks = label[0], label[1]
    blockset = {frozenset(b) for b in blocks}
    if any(abs(x(j)) <= m for j in range(m + 1, n + 1)):
        return False
    for J in blocks:
        if len(J) < 2:
            continue
        if frozenset(abs(x(i)) for i in J) not in blockset:
            return False
        if len({x.sign(i) for i in J}) != 1:
            return False
    return True


# ---------------------------------------------------------------------------
# classification up to Weyl conjugacy
# ---------------------------------------------------------------------------

def _shapes(m):
    """Partitions of the integer m, parts decreasing, lexicographically."""
    if m == 0:
        return [()]
    out = []
    def rec(rest, maxpart, acc):
        if rest == 0:
            out.append(tuple(acc))
            return
        for part in range(min(rest, maxpart), 0, -1):
            rec(rest - part, part, acc + [part])
    rec(m, m, [])
    return out


def _standard_blocks(shape):
    """Lay a partition shape out as consecutive blocks from coordinate 1."""
    blocks, start = [], 1
    for size in shape:
        blocks.append(tuple(range(start, start + size)))
        start += size
    return tuple(blocks)


def _standard_labels(sys):
    """Every normalized label: all m valid for the type, standard layout."""
    if sys.kind == "A":
        ms = [sys.n]
    elif sys.kind == "D":
        ms = [m for m in range(sys.n + 1) if m != sys.n - 1]
    else:
        ms = list(range(sys.n + 1))
    out = []
    for m in ms:
        for shape in _shapes(m):
            out.append(ParabolicLabel(m, _standard_blocks(shape), False))
    return out


def classify_parabolic(sys, roots):
    """Find the standard label whose subsystem is Weyl-conjugate to ``roots``.

    Brute force: scans the whole Weyl group, so rank ≤ 4 only.  In type
    D, subsystems reachable only through the extra sign change (n,-n)
    are matched in a second pass and reported with flip=True.
    """
    if sys.n > 4:
        raise ValueError("classification is brute-force over W; rank must be <= 4")
    roots = frozenset(map(tuple, roots))
    if not roots <= sys._rootset:
        raise ValueError("input roots do not belong to the system")

    table = {}
    for label in _standard_labels(sys):
        key = frozenset(parabolic_roots(sys, label))
        if key in table:
            raise VerificationError(
                f"standard labels {table[key]} and {label} of type "
                f"{sys.kind}{sys.n} give the same subsystem")
        table[key] = label
    flipped = {}
    if sys.kind == "D":
        x0 = iota((sys.n,), sys.n)
        for key, label in table.items():
            fkey = frozenset(apply_to_root(x0, r) for r in key)
            if fkey not in table and fkey != key:
                flipped.setdefault(fkey, label._replace(flip=True))

    for search in (table, flipped):
        for w in sys.weyl():
            image = frozenset(apply_to_root(w, r) for r in roots)
            if image in search:
                return search[image]
    raise NotParabolic(f"no Weyl conjugate of the {len(roots)} given roots "
                       f"matches a standard label in type {sys.kind}{sys.n}")
