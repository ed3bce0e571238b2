"""Exact character tables of small finite groups.

A :class:`FiniteGroup` wraps an explicit list of signed permutations,
so every product and conjugate is formed on the composition kernel of
:mod:`dsplitlevi.signedperm`.  :func:`character_table` computes the
full ordinary character table by Dixon's modular method, in three
steps.

* The class-sum matrices are simultaneously diagonalised over a prime
  field F_l with l = 1 mod exp(G) and l^2 > 4|G|.  The identity-class
  coordinate vector, which the class matrices take to every class, is
  split into its components on their common eigenspaces, one class
  matrix M at a time: a component u with minimal polynomial p under M,
  read off its Krylov sequence, splits into (p/(x - λ))(M)·u for the
  roots λ of p, a combination of the Krylov vectors, until there are
  as many components as classes: the common eigenvector lines.  A
  component whose p has too few roots in F_l shows an M that is not
  diagonalisable, and the table check fails.  Class matrices are held
  as their columns' nonzero entries.
* Degrees are recovered from the second orthogonality relation, and
  the values are lifted to exact cyclotomic numbers of conductor
  exp(G) by Fourier inversion over the powers of each class
  representative, on plain integer coefficient lists, once per
  distinct sequence of residues along those powers, its sums taken as
  one sum of packed integers.
* Row orthogonality, which implies column orthogonality for a square
  table, is re-verified exactly before a table is returned: each pair
  of rows is one sum of products of values packed as integers, tested
  for divisibility by Φ_e at the packing base
  (:func:`_verify_orthogonality`).

Every step reads the group only through its multiplication table in
element order, so tables are cached by a key that fixes that table:
the identity's position and each generator's right action on element
positions, checked to generate the group (:func:`_table_key`).
Isomorphic groups whose element lists line up, as the W_λ and ker(ν)
of different labels often do, share one Dixon run.

Restriction and inner products of class functions are exact.
:func:`class_permutation` is the package's one conjugation action on
the classes of a normal subgroup, shared by the invariance search of
:mod:`dsplitlevi.cliff` and :func:`extension_obstruction`, which
decides whether a linear character of an abelian normal subgroup
extends to its inertia group, from that group's derived subgroup and
with no character table.
"""

import math
import operator
from fractions import Fraction

from .arith import factorint, isprime
from .cyclo import CycNum, _cyclotomic
from .signedperm import (ClosureExceedsCap, VerificationError, _composer,
                         _conjugator, closure)

DEFAULT_GROUP_CAP = 10000


# ---------------------------------------------------------------------------
# groups as explicit element lists
# ---------------------------------------------------------------------------

class ClassData:
    """Conjugacy classes: representatives, sizes, member lists, and the
    class of each element looked up by its image tuple (``class_at``)."""

    __slots__ = ("reps", "sizes", "classes", "class_at")

    def __init__(self, reps, sizes, classes, class_at):
        self.reps = reps
        self.sizes = sizes
        self.classes = classes
        self.class_at = class_at


class FiniteGroup:
    """A finite group given by an explicit, deterministic element list.

    Elements are signed permutations; ``at`` finds an element's
    position by its image tuple.  The element list
    must be closed under multiplication (verified).  The conjugacy class
    of each element is found by orbit search under conjugation by the
    stored generators, on the elements' signed tables; the representative
    of a class is its earliest member in element-list order, and the
    class of the identity is always listed first.  :func:`character_table` keeps the
    group's table on it, and checks that the generators generate it.
    """

    __slots__ = ("elements", "at", "identity", "generators",
                 "order", "_classes", "_powers", "_table")

    def __init__(self, elements, generators=None, cap=DEFAULT_GROUP_CAP):
        elements = list(elements)
        if not elements:
            raise ValueError("a group needs at least one element")
        if len(elements) > cap:
            raise ClosureExceedsCap(
                f"group of order {len(elements)} exceeds cap {cap}")
        at = {}
        for pos, x in enumerate(elements):
            if x.img in at:
                raise ValueError("duplicate element in group list")
            at[x.img] = pos
        ident = elements[0] * elements[0].inv()
        if ident.img not in at:
            raise ValueError("identity element missing from group list")
        for x in elements:
            if x.inv().img not in at:
                raise ValueError("element list is not closed under inverse")
        self.elements = tuple(elements)
        self.at = at
        self.identity = ident
        self.order = len(elements)
        if generators is None:
            generators = self._reduce_generators()
        else:
            generators = tuple(g for g in generators if g != ident)
            if not generators:
                generators = (ident,)
        self.generators = tuple(generators)
        self._classes = None
        self._powers = None
        self._table = None

    @classmethod
    def generate(cls, gens, cap=DEFAULT_GROUP_CAP):
        """The subgroup generated by the signed permutations ``gens``,
        enumerated by breadth-first search starting at the identity (a
        deterministic order)."""
        gens = list(gens)
        if not gens:
            raise ValueError("need at least one generator")
        identity = gens[0] * gens[0].inv()
        return cls(closure(gens, identity, cap), generators=gens, cap=cap)

    def _reduce_generators(self):
        """A short generating sequence found greedily; doubles as a check
        that the element list really is closed under multiplication."""
        gens = []
        known = {self.identity}
        for x in self.elements:
            if x in known:
                continue
            gens.append(x)
            # known is a subgroup K, and ⟨K, x⟩ is a union of right cosets
            # K·r: it is complete once r·g falls in a known coset for every
            # coset representative r and every generator g.
            subgroup = list(known)
            reps = [self.identity]
            for r in reps:
                for g in gens:
                    z = r * g
                    if z in known:
                        continue
                    for k in subgroup:
                        y = k * z
                        if y.img not in self.at:
                            raise ValueError(
                                "element list is not closed under "
                                "multiplication")
                        known.add(y)
                    reps.append(z)
            if len(known) == self.order:
                break
        if len(known) != self.order:
            raise ValueError("element list is not closed under multiplication")
        return tuple(gens) if gens else (self.identity,)

    def power_classes(self):
        """For each class representative g, of order o, the classes of
        g^0, g^1, ..., g^(o-1), on image tuples: g^(s+1) = g∘g^s is g's
        signed table read along g^s."""
        if self._powers is None:
            data = self.conjugacy_classes()
            one = self.identity.img
            rows = []
            for rep in data.reps:
                row, t, cur = [0], rep.table(), rep.img
                while cur != one:
                    row.append(data.class_at[cur])
                    cur = _composer(cur)(t)
                rows.append(tuple(row))
            self._powers = tuple(rows)
        return self._powers

    def exponent(self):
        return math.lcm(*map(len, self.power_classes()))

    def conjugacy_classes(self):
        if self._classes is not None:
            return self._classes
        # Each orbit is its own breadth-first queue of element positions;
        # y^g is y's signed table read by g's conjugator.
        elements, at = self.elements, self.at
        conjugators = [_conjugator(g.img) for g in self.generators]
        seen = [False] * self.order
        classes = []
        for start in range(self.order):
            if seen[start]:
                continue
            seen[start] = True
            orbit = [start]
            try:
                for i in orbit:
                    t = elements[i].table()
                    for conj in conjugators:
                        j = at[conj(t)]
                        if not seen[j]:
                            seen[j] = True
                            orbit.append(j)
            except KeyError:
                raise ValueError("element list is not closed under "
                                 "conjugation by its generators") from None
            classes.append([elements[i] for i in orbit])
        # The identity's class goes first; all others keep discovery order.
        j0 = next(j for j, orb in enumerate(classes) if orb[0] == self.identity)
        self._set_classes([classes[j0]] + classes[:j0] + classes[j0 + 1:])
        return self._classes

    def _set_classes(self, classes):
        """Keep ``classes``, lists of elements with the identity's first
        and each representative first in its list."""
        reps = tuple(orb[0] for orb in classes)
        sizes = tuple(len(orb) for orb in classes)
        class_at = {}
        for j, orb in enumerate(classes):
            for y in orb:
                class_at[y.img] = j
        self._classes = ClassData(reps, sizes,
                                  tuple(tuple(orb) for orb in classes),
                                  class_at)


# ---------------------------------------------------------------------------
# class functions
# ---------------------------------------------------------------------------

def _common_conductor(a, b):
    d = math.lcm(a.d, b.d)
    return a.promote(d), b.promote(d)


class ClassFunction:
    """A class function on a :class:`FiniteGroup`, one exact cyclotomic
    value per conjugacy class (in the group's class order)."""

    __slots__ = ("group", "values")

    def __init__(self, group, values):
        values = tuple(values)
        if len(values) != len(group.conjugacy_classes().reps):
            raise ValueError("one value per conjugacy class required")
        self.group = group
        self.values = values

    def __eq__(self, other):
        if not isinstance(other, ClassFunction):
            return NotImplemented
        if self.group.conjugacy_classes().reps != \
                other.group.conjugacy_classes().reps:
            return False
        for a, b in zip(self.values, other.values):
            if a.d != b.d:
                a, b = _common_conductor(a, b)
            if a.coeffs != b.coeffs:
                return False
        return True

    def __hash__(self):
        return hash(self.group.conjugacy_classes().reps)

    def __repr__(self):
        return f"ClassFunction({list(self.values)!r})"


# ---------------------------------------------------------------------------
# linear algebra over F_l
# ---------------------------------------------------------------------------

def _sparse(columns):
    """Each column as the list of its nonzero (index, entry) pairs."""
    return [[(i, v) for i, v in enumerate(col) if v] for col in columns]


def _apply(columns, vec, size, l):
    """mat·vec mod l, for the matrix mat with ``size`` rows and the given
    :func:`_sparse` ``columns``: the sum of vec[c]·column c, over the
    nonzero entries only.  With some vectors as the columns, it is their
    combination with coefficients vec."""
    out = [0] * size
    for c, col in zip(vec, columns):
        if c:
            for i, v in col:
                out[i] += c * v
    return tuple([v % l for v in out])


def _minpoly_of_vector(columns, vec, l):
    """Monic minimal polynomial of the square matrix mat with the given
    :func:`_sparse` ``columns`` at ``vec``, and vec, mat·vec, ... below
    its degree: the first power mat^k·vec of this Krylov sequence that
    depends on the ones before gives its coefficients.  The powers are
    brought to echelon form, each row 1 at its pivot and 0 at the pivots
    of the rows before it, with the combination of powers it is kept
    beside it, so a dependent power leaves the polynomial."""
    n = len(columns)
    rows, pivots, combos, krylov = [], [], [], []
    while True:
        cur, combo = vec, [0] * len(krylov) + [1]
        for p, row, rc in zip(pivots, rows, combos):
            f = cur[p] % l
            if f:
                cur = [a - f * b for a, b in zip(cur, row)]
                for s, c in enumerate(rc):
                    combo[s] -= f * c
        cur = [a % l for a in cur]
        first = next(filter(None, cur), 0)      # the pivot's entry
        if not first:
            return [c % l for c in combo], krylov
        p = cur.index(first)
        if first != 1:
            inv = pow(first, l - 2, l)
            cur = [(a * inv) % l for a in cur]
            combo = [a * inv for a in combo]
        rows.append(cur)
        pivots.append(p)
        combos.append(combo)
        krylov.append(vec)
        vec = _apply(columns, vec, n, l)


def _divide(poly, lam, l):
    """(quot, value) with poly = (x - λ)·quot + value over F_l, for
    ``poly`` ascending, by Horner's rule: its partial sums are quot's
    coefficients from the top, and its value is poly(λ)."""
    acc, quot = 0, []
    for c in reversed(poly):
        quot.append(acc)
        acc = (acc * lam + c) % l
    return quot[:0:-1], acc


def _roots(poly, l):
    """The roots in F_l of the monic ``poly`` (ascending, of degree at
    least 1), by Horner's rule at every point at once."""
    if len(poly) == 2:
        return [-poly[0] % l]
    values, points = [0] * l, range(l)
    for c in reversed(poly):
        values = [(v * x + c) % l for v, x in zip(values, points)]
    return [x for x, v in zip(points, values) if not v]


# ---------------------------------------------------------------------------
# the modular character-table algorithm
# ---------------------------------------------------------------------------

def _table_error(G, l, what):
    """The VerificationError of a failed table check, naming |G| and l."""
    return VerificationError(f"{what} (group order {G.order}, prime l = {l})")


def _dixon_prime(order, exponent):
    t = 1
    while True:
        l = exponent * t + 1
        if l * l > 4 * order and order % l and isprime(l):
            return l
        t += 1


def _root_of_unity(l, e):
    """An element of multiplicative order exactly e in F_l (l = 1 mod e)."""
    fac = factorint(l - 1)
    g = 2
    while any(pow(g, (l - 1) // p, l) == 1 for p in fac):
        g += 1
    return pow(g, (l - 1) // e, l)


def _class_matrix(G, data, j, l):
    """M_j with (M_j)[i][k] = #{(x, y) in C_j x C_i : x*y = rep_k} mod l:
    y = x⁻¹·rep_k is x⁻¹'s signed table read by rep_k's composer."""
    r = len(data.reps)
    mat = [[0] * r for _ in range(r)]
    steps = [_composer(rep.img) for rep in data.reps]
    for x in data.classes[j]:
        t = x.inv().table()
        for k, step in enumerate(steps):
            mat[data.class_at[step(t)]][k] += 1
    return [[v % l for v in row] for row in mat]


def _split_eigenvectors(G, data, l):
    """Common eigenvector lines of all class matrices, normalised so the
    identity-class coordinate is 1.  Row t is the vector of values
    |C_j| * chi_t(g_j) / chi_t(1) mod l.

    (M_j)[0][k] = [k = j], so M_j·e_0 = |C_j|·e_j' for j' the class of
    the inverses, and e_0, the identity-class coordinate vector, spans
    the space under the class matrices: it is the sum of one nonzero
    vector on each line.  The class matrices commute, so its component
    in a common eigenspace of M_1, ..., M_(j-1) splits under M_j into
    its components in that space's eigenspaces of M_j: with p the
    minimal polynomial of the component u under M_j, whose roots λ are
    the eigenvalues met, (p/(x - λ))(M_j)·u is a nonzero vector of λ's
    eigenspace.  Once there are as many components as classes, they are
    the lines; any other count, past the classes at any step or short of
    them when the class matrices run out, means that the class matrices
    did not separate the characters.  A component whose p has fewer
    distinct roots in F_l than its degree shows an M_j that is not
    diagonalisable over F_l.  Row 0 of M_j also gives ω_t(j) as ω_t's
    eigenvalue under M_j, which every line must match."""
    r = len(data.reps)
    parts = [(tuple(int(i == 0) for i in range(r)), ())]
    for j in range(1, r):
        if len(parts) >= r:     # more would be dependent: stop at once
            break
        # M_j·u combines the columns of M_j by the entries of u.
        columns = _sparse(zip(*_class_matrix(G, data, j, l)))
        split = []
        for u, eigenvalues in parts:
            poly, krylov = _minpoly_of_vector(columns, u, l)
            roots = _roots(poly, l)
            if len(roots) != len(poly) - 1:
                raise _table_error(G, l, "class matrix failed to diagonalise")
            if len(roots) == 1:
                split.append((u, eigenvalues + (roots[0],)))
                continue
            krylov = _sparse(krylov)
            for lam in roots:
                split.append((_apply(krylov, _divide(poly, lam, l)[0], r, l),
                              eigenvalues + (lam,)))
        parts = split
    if len(parts) != r:
        raise _table_error(G, l, "class matrices did not separate characters")
    lines = []
    for u, eigenvalues in parts:
        if u[0] % l == 0:
            raise _table_error(G, l,
                               "eigenvector vanishes on the identity class")
        inv = pow(u[0], l - 2, l)
        line = tuple([c * inv % l for c in u])
        if line[1:len(eigenvalues) + 1] != eigenvalues:
            raise _table_error(G, l, "line off its eigenvalues (class "
                                     "matrices should commute)")
        lines.append(line)
    return lines


class CharacterTable:
    """The exact ordinary character table of a finite group.

    ``values[t][j]`` is the value of the t-th irreducible character at
    the j-th conjugacy class representative, as a cyclotomic number of
    conductor ``exponent``.  Rows are sorted by (degree, coefficient
    key), which makes the table deterministic.
    """

    __slots__ = ("group", "exponent", "prime", "degrees", "values",
                 "_characters")

    def __init__(self, group, exponent, prime, degrees, values):
        self.group = group
        self.exponent = exponent
        self.prime = prime
        self.degrees = degrees
        self.values = values
        self._characters = None

    @property
    def characters(self):
        if self._characters is None:
            self._characters = [ClassFunction(self.group, row)
                                for row in self.values]
        return self._characters

    def __repr__(self):
        return (f"CharacterTable(order={self.group.order}, "
                f"degrees={list(self.degrees)})")


# A structure's conjugacy classes as element positions, exponent, prime,
# degrees and values, keyed by :func:`_table_key` and shared by every
# group with that key.  Past the bound the oldest entry is dropped.  A
# kinva_sample pass keeps 11 structures and the whole test suite 70, so
# neither evicts.
_TABLE_CACHE_BOUND = 512
_TABLE_CACHE = {}


def _table_key(G):
    """The position of G's identity and, for each generator g, its right
    action on element positions: the tuple of the positions of x * g
    over the elements x, each x's signed table read by g's composer.

    The identity's orbit under these actions must cover every position,
    or the generators do not generate G and VerificationError is raised.
    Then each element is a word in the generators, read off a path from
    the identity's position, and the key gives the position of every
    product x * y by applying y's word to x's position: it fixes the
    multiplication table in element order."""
    at = G.at
    tables = [x.table() for x in G.elements]
    try:
        actions = tuple(tuple([at[step(t)] for t in tables])
                        for step in (_composer(g.img) for g in G.generators))
    except KeyError:
        raise VerificationError(
            f"the element list is not closed under its generators "
            f"(group order {G.order})") from None
    start = at[G.identity.img]
    reached, queue = {start}, [start]
    for i in queue:
        for action in actions:
            j = action[i]
            if j not in reached:
                reached.add(j)
                queue.append(j)
    if len(reached) != G.order:
        raise VerificationError(
            f"the generators do not generate the group (they reach "
            f"{len(reached)} of its {G.order} elements)")
    return start, actions


def character_table(G, cap=DEFAULT_GROUP_CAP):
    """The exact character table of ``G`` (see :class:`CharacterTable`).

    A repeat call on the same group returns the same table.  Tables are
    cached by :func:`_table_key`, which fixes G's multiplication table in
    element order.  The classes (found by conjugating with the
    generators, whose positions the key gives), the prime, the degrees
    and every value depend on that table alone, so a group with the key
    of one computed before gets its classes, exponent, prime, degrees
    and values, with no Dixon run and no class search."""
    if G.order > cap:
        raise ClosureExceedsCap(
            f"group of order {G.order} exceeds cap {cap}")
    if G._table is not None:
        return G._table
    cache_key = _table_key(G)
    cached = _TABLE_CACHE.get(cache_key)
    if cached is not None:
        places, *table = cached
        if G._classes is None:
            G._set_classes([[G.elements[i] for i in orb] for orb in places])
        G._table = CharacterTable(G, *table)
        return G._table

    data = G.conjugacy_classes()
    r = len(data.reps)
    e = G.exponent()
    powers = G.power_classes()   # rep_j^s lies in class powers[j][s]
    l = _dixon_prime(G.order, e)
    z = _root_of_unity(l, e)

    omegas = _split_eigenvectors(G, data, l)
    if len(omegas) != r:
        raise _table_error(G, l, "wrong number of eigenvector lines")

    inv_class = [pw[-1] for pw in powers]     # g⁻¹ = g^(o-1)
    size_inv = [pow(s, l - 2, l) for s in data.sizes]
    max_degree = math.isqrt(G.order)

    # The least degree whose square has each residue.
    by_square = {d * d % l: d for d in range(max_degree, 0, -1)}
    degrees = []
    for om in omegas:
        s = sum(map(operator.mul, map(operator.mul, om, size_inv),
                    [om[i] for i in inv_class])) % l
        d = by_square.get(G.order * pow(s, l - 2, l) % l)
        if d is None:
            raise _table_error(G, l, "no degree matches the orthogonality sum")
        degrees.append(d)
    if sum(d * d for d in degrees) != G.order:
        raise _table_error(G, l,
                           "degree squares do not sum to the group order")
    if any(G.order % d for d in degrees):
        raise _table_error(G, l, "some degree does not divide the group order")

    # Fourier inversion over the powers of g: m_k = o⁻¹ Σ_s χ(g^s)
    # z^(-k·s·e/o) is the multiplicity of the eigenvalue ζ_o^k of g in
    # the representation, an integer in [0, χ(1)] read off exactly below
    # l; the multiplicities sum to χ(1), and χ(g) = Σ_k m_k ζ_o^k.  The
    # o sums are taken as one: with the residues z^(-k·s·e/o) packed
    # into the integers P_s = Σ_k z^(-k·s·e/o)·X^k, Σ_s χ(g^s)·P_s has
    # the k-th sum as its k-th digit in base X = 2^bits, each below o·l²
    # and so below X (Kronecker substitution).
    bits = (e * l * l).bit_length()
    mask = (1 << bits) - 1
    fourier = {}
    for o in {len(pw) for pw in powers}:
        zo = pow(z, e // o * (l - 2), l)   # z^(-e/o), of order o
        zs = [pow(zo, s, l) for s in range(o)]
        digits = range(0, bits * o, bits)
        fourier[o] = (pow(o, l - 2, l), digits,
                      [sum(map(operator.lshift,
                               [zs[k * s % o] for k in range(o)], digits))
                       for s in range(o)])

    # Column c of the residues, row by row.
    modcols = list(zip(*[[(d * om[j] * size_inv[j]) % l for j in range(r)]
                         for om, d in zip(omegas, degrees)]))
    # The multiplicities depend on the residues of χ along g's powers
    # alone, so each distinct sequence of them is inverted once: its
    # degree, the sum of its multiplicities, and its value, which the
    # sequences whose multiplicities give the same poly share.
    lifted, by_poly = {}, {}

    def lift(j):
        """Column j of the table, lifted from the residues."""
        pw = powers[j]
        o_inv, digits, packed = fourier[len(pw)]
        step = e // len(pw)
        column = []
        for vals, d in zip(zip(*[modcols[c] for c in pw]), degrees):
            known = lifted.get(vals)
            if known is None:
                poly = [0] * e
                sums = sum(map(operator.mul, vals, packed))
                poly[::step] = [(sums >> k & mask) * o_inv % l
                                for k in digits]
                if max(poly) > max_degree:
                    raise _table_error(G, l, "root-of-unity multiplicity "
                                             "fails lift bound")
                poly = tuple(poly)
                value = by_poly.get(poly)
                if value is None:
                    value = by_poly[poly] = CycNum._from_poly(poly, e)
                known = lifted[vals] = sum(poly), value
            if known[0] != d:
                raise _table_error(
                    G, l, "lifted degree disagrees with modular degree")
            column.append(known[1])
        return column

    rows = list(zip(*map(lift, range(r))))

    # Lifted values have integer coefficients, which order the rows.
    order_rows = sorted(range(r), key=lambda t: (
        degrees[t], [v.coeffs for v in rows[t]]))
    degrees = tuple(degrees[t] for t in order_rows)
    values = tuple(rows[t] for t in order_rows)

    _verify_orthogonality(G, data, values, l)

    if len(_TABLE_CACHE) >= _TABLE_CACHE_BOUND:
        del _TABLE_CACHE[next(iter(_TABLE_CACHE))]
    places = tuple(tuple(G.at[y.img] for y in orb) for orb in data.classes)
    _TABLE_CACHE[cache_key] = places, e, l, degrees, values
    G._table = CharacterTable(G, e, l, degrees, values)
    return G._table


def _verify_orthogonality(G, data, values, l):
    """Row orthogonality X·D·X̄ᵀ = |G|·I, with D the diagonal of class
    sizes, for every pair of rows t1 <= t2.  For a square table this
    also gives column orthogonality: X is invertible and X̄ᵀ·X = |G|·D⁻¹,
    so columns are not rechecked.

    Each value's φ coefficients c_i are packed into the integer
    Σ c_i·B^i, B = 2^bits (Kronecker substitution).  A pair's sum over
    the classes of |C|·χ_t1·conj(χ_t2) is then one sum of integer
    products, S(B) for S that sum as a polynomial in ζ_e of degree below
    2φ - 1, and the pair passes when Φ_e(B) divides S(B) - want.  That
    is exact.  S - want = Q·Φ_e + R, R its reduction, of degree below φ;
    each of the φ - 1 reduction steps multiplies the largest coefficient
    by at most 1 + h, h the sum of |Φ_e|'s coefficients, so R's stay
    within |G|·(ν² + 1)·(1 + h)^(φ-1), ν the largest sum of absolute
    coefficients of a value or its conjugate.  B is at least four times
    that, and at least 4h, so a nonzero R has 0 < |R(B)| < B^φ/2 <
    Φ_e(B), and Φ_e(B) divides R(B) only when R = 0."""
    e = values[0][0].d
    phi = len(values[0][0].coeffs)
    # The conjugate of each distinct value.
    conj = {c: v.conjugate().coeffs
            for c, v in {v.coeffs: v for row in values for v in row}.items()}
    nu = max(max(sum(map(abs, c)), sum(map(abs, d))) for c, d in conj.items())
    cyclotomic = _cyclotomic(e)
    h = sum(map(abs, cyclotomic))
    bits = (4 * G.order * (nu * nu + 1) * (1 + h) ** (phi - 1)).bit_length()
    shifts = range(0, bits * len(cyclotomic), bits)

    def pack(coeffs):
        return sum(map(operator.lshift, coeffs, shifts))

    modulus = pack(cyclotomic)      # Φ_e(B)
    packed = {c: (pack(c), pack(d)) for c, d in conj.items()}
    weighted = [[size * packed[v.coeffs][0]
                 for v, size in zip(row, data.sizes)] for row in values]
    conj_rows = [[packed[v.coeffs][1] for v in row] for row in values]
    for t1, row in enumerate(weighted):
        sums = [sum(map(operator.mul, row, c)) for c in conj_rows[t1:]]
        sums[0] -= G.order
        if any(map(modulus.__rmod__, sums)):
            raise _table_error(G, l, "row orthogonality fails")


# ---------------------------------------------------------------------------
# restriction, inner products
# ---------------------------------------------------------------------------

def restrict(chi, H):
    """The restriction of a class function to a subgroup ``H``."""
    class_at = chi.group.conjugacy_classes().class_at
    try:
        values = [chi.values[class_at[rep.img]]
                  for rep in H.conjugacy_classes().reps]
    except KeyError:
        raise ValueError("H is not a subgroup of the domain of chi") from None
    return ClassFunction(H, values)


def inner(phi, psi):
    """The exact inner product <phi, psi> = |G|⁻¹ Σ |C|·phi·conj(psi) of
    two class functions on the same group; returns an int for
    characters, else a Fraction.

    With D the lcm of the conductors, each distinct value of another
    conductor is promoted to Q(ζ_D) once, and the sum is taken once as D
    coefficients modulo x^D - 1, where conj sends ζ^k to ζ^(-k): ζ_D has
    order D, so this is exact.  It is reduced modulo Φ_D once at the end, which is
    exact too, as Φ_D divides x^D - 1; only its rational part is divided
    by |G|."""
    if phi.group.elements != psi.group.elements:
        raise ValueError("class functions live on different groups")
    data = phi.group.conjugacy_classes()
    D = math.lcm(*(v.d for v in phi.values), *(v.d for v in psi.values))
    # Each distinct value of another conductor, promoted once.
    promoted = {(v.d, v.coeffs): v for v in (*phi.values, *psi.values)
                if v.d != D}
    promoted = {key: v.promote(D).coeffs for key, v in promoted.items()}
    acc = [0] * D
    for size, a, b in zip(data.sizes, phi.values, psi.values):
        b = b.coeffs if b.d == D else promoted[b.d, b.coeffs]
        for i, x in enumerate(a.coeffs if a.d == D
                              else promoted[a.d, a.coeffs]):
            if x:
                x *= size
                for k, y in enumerate(b):
                    if y:
                        acc[i - k] += x * y     # -D < i - k < D: mod D
    total = CycNum._from_poly(acc, D)
    if not total.is_rational():
        raise ArithmeticError("inner product of class functions must be "
                              "rational")
    value, rest = divmod(total.coeffs[0], phi.group.order)
    return Fraction(total.coeffs[0], phi.group.order) if rest else value


# ---------------------------------------------------------------------------
# the conjugation action on classes, inertia groups and extendibility
# ---------------------------------------------------------------------------

def class_permutation(k, N):
    """The permutation of the classes of ``N`` (which k normalizes)
    induced by conjugation: j -> class of k rep_j k^{-1}, the conjugate
    rep_j^(k⁻¹) read off rep_j's signed table."""
    if len(k.img) != len(N.identity.img):
        raise ValueError(f"rank mismatch: {len(k.img)} vs "
                         f"{len(N.identity.img)}")
    data = N.conjugacy_classes()
    by = _conjugator(k.inv().img)
    return tuple(data.class_at[by(rep.table())] for rep in data.reps)


def is_invariant(cf, perm):
    """Whether x -> cf(k x k^{-1}) equals cf, for k acting on the
    classes by ``perm`` (see :func:`class_permutation`)."""
    return ClassFunction(cf.group, [cf.values[i] for i in perm]) == cf


def extension_obstruction(V, H, theta):
    """For an abelian normal subgroup H of V and a linear character
    theta of H: the inertia group V_theta = {v : theta^v = theta}, in
    V's element order (V itself when every v fixes theta), and None when
    theta extends to V_theta, or else an element of H ∩ V_theta′ at
    which theta is not 1.

    theta^v is read off v's :func:`class_permutation`.  A linear theta
    extends to V_theta exactly when it is trivial on H ∩ V_theta′: an
    extension is linear and so trivial on V_theta′; conversely theta is
    then a character of the subgroup H/(H ∩ V_theta′) of the abelian
    group V_theta/V_theta′, and it extends from there (Isaacs,
    *Character Theory of Finite Groups*, 1976, ch. 5-6).  V_theta′ is
    the normal closure in V_theta of the commutators of its generators:
    each commutator kept as a generator of it has its conjugates by
    V_theta's generators checked to lie in it.  V's and H's generators
    suffice for normality, as conjugation is an automorphism.
    """
    if theta.group.elements != H.elements:
        raise ValueError("theta must be a class function on H")
    data = H.conjugacy_classes()
    if len(data.reps) != H.order:
        raise ValueError("H is not abelian")
    for x in H.elements:
        if x.img not in V.at:
            raise ValueError("H is not a subgroup of V")
    for g in V.generators:
        by = _conjugator(g.inv().img)
        for x in H.generators:
            if by(x.table()) not in H.at:
                raise ValueError("H is not normal in V")

    fixing = [v for v in V.elements
              if is_invariant(theta, class_permutation(v, H))]
    V_theta = (V if len(fixing) == V.order
               else FiniteGroup(fixing, cap=V.order))
    gens = V_theta.generators
    pending = [a.inv() * b.inv() * a * b
               for i, a in enumerate(gens) for b in gens[:i]]
    kept, derived = [], {V.identity}
    while pending:
        c = pending.pop()
        if c not in derived:
            kept.append(c)
            derived = set(closure(kept, V.identity, V.order))
            pending += [c.conj(g) for g in gens]
    return V_theta, next((h for h, value in zip(data.reps, theta.values)
                          if value != 1 and h in derived), None)
