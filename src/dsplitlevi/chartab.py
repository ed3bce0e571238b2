"""Exact character tables of small finite groups.

A :class:`FiniteGroup` wraps an explicit list of group elements:
signed permutations, or signed monomial matrices, which are held as
signed permutations and expose the same ``img`` and ``table()``, so
every product and conjugate is formed on the composition kernel of
:mod:`dsplitlevi.signedperm`.  :func:`character_table` computes the
full ordinary character table by Dixon's modular method, in three
steps.

* The class-sum matrices are simultaneously diagonalised over a prime
  field F_l with l = 1 mod exp(G) and l^2 > 4|G|.  Each space not yet
  split is read off the Krylov sequences of one coordinate vector v at
  a time: each root λ of v's minimal polynomial p is an eigenvalue,
  and (p/(x - λ)) applied to v, a combination of the Krylov vectors,
  is an eigenvector of λ.  These join λ's basis, through the one
  elimination routine that also finds p, until the eigenspaces fill
  the space; a coordinate vector already in their span is skipped.
  A space that falls short is not diagonalisable, and the table check
  fails.  Class matrices are held as their columns' nonzero entries.
* Degrees are recovered from the second orthogonality relation, and
  the values are lifted to exact cyclotomic numbers of conductor
  exp(G) by Fourier inversion over the powers of each class
  representative, on plain integer coefficient lists, once per
  distinct sequence of residues along those powers.
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
:mod:`dsplitlevi.cliff` and :func:`inertia_and_extendibility`, which
decides whether a character of a normal subgroup extends to its
stabiliser.
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

    Elements are signed permutations or objects with their ``*``,
    ``inv()``, ``img`` and ``table()``; ``at`` finds an element's
    position by its image tuple.  The element list
    must be closed under multiplication (verified).  The conjugacy class
    of each element is found by orbit search under conjugation by the
    stored generators, on the elements' signed tables; the representative
    of a class is its earliest member in element-list order, and the
    class of the identity is always listed first.  :func:`character_table` keeps the
    group's table on it, and checks that the generators generate it.
    """

    __slots__ = ("elements", "at", "identity", "generators",
                 "order", "_classes", "_powers", "_actions", "_table")

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
        self._actions = {}
        self._table = None

    @classmethod
    def generate(cls, gens, cap=DEFAULT_GROUP_CAP):
        """The subgroup generated by the signed permutations ``gens``,
        enumerated by breadth-first search starting at the identity (a
        deterministic order).  A matrix group is
        ``FiniteGroup(matrix_closure(gens), generators=gens)``."""
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

    def value_at(self, element):
        data = self.group.conjugacy_classes()
        return self.values[data.class_at[element.img]]

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

def _reduce(rows, pivots, vec, l, width=None):
    """Reduce ``vec`` by ``rows``, each 1 at its own pivot and 0 at the
    other rows' pivots, and return (its pivot, what is left of it).
    The pivot is its first nonzero entry before ``width``, or None when
    there is none: then vec lies in their span.  A vector with a pivot
    joins ``rows`` scaled to 1 there, with that pivot cleared from the
    other rows, so they keep that form."""
    # A row is 0 at the other rows' pivots, so subtracting it changes
    # vec at no other pivot, and the entries are reduced once, at the end.
    for p, row in zip(pivots, rows):
        f = vec[p]
        if f:
            vec = [a - f * b for a, b in zip(vec, row)]
    vec = [a % l for a in vec]
    p = next((k for k, c in enumerate(vec[:width]) if c), None)
    if p is not None:
        if vec[p] != 1:
            inv = pow(vec[p], l - 2, l)
            vec = [(a * inv) % l for a in vec]
        for i, row in enumerate(rows):
            f = row[p]
            if f:
                rows[i] = [(a - f * b) % l for a, b in zip(row, vec)]
        rows.append(vec)
        pivots.append(p)
    return p, vec


def _combine(coeffs, basis_columns, l):
    """The combination sum of c·b over a basis mod l, from the basis's
    entries at each position, ``zip(*basis)``, formed once per basis."""
    return tuple([sum(map(operator.mul, coeffs, col)) % l
                  for col in basis_columns])


def _sparse(columns):
    """Each column as the list of its nonzero (index, entry) pairs."""
    return [[(i, v) for i, v in enumerate(col) if v] for col in columns]


def _apply(columns, vec, l):
    """mat·vec mod l, for the square matrix mat with the given
    :func:`_sparse` ``columns``: the sum of vec[c]·column c, over the
    nonzero entries only."""
    out = [0] * len(columns)
    for c, col in zip(vec, columns):
        if c:
            for i, v in col:
                out[i] += c * v
    return tuple([v % l for v in out])


def _minpoly_of_vector(columns, i, l):
    """Monic minimal polynomial of the square matrix mat with the given
    :func:`_sparse` ``columns`` at the i-th coordinate vector v, and v,
    mat·v, ... below its degree: the first power mat^k·v of this Krylov
    sequence that depends on the ones before gives its coefficients.  Each power is
    reduced with the 1 of mat^k appended after its n entries, so the
    combination of powers it leaves is carried along, and a dependent
    power leaves the polynomial."""
    n = len(columns)
    rows, pivots, krylov = [], [], []
    vec = tuple(int(k == i) for k in range(n))
    while True:
        k = len(krylov)
        tail = [0] * (n + 1)
        tail[k] = 1
        p, left = _reduce(rows, pivots, [*vec, *tail], l, n)
        if p is None:
            return left[n:n + k + 1], krylov
        krylov.append(vec)
        vec = _apply(columns, vec, l)


def _eigenspaces(columns, l):
    """The eigenspaces over F_l of the square matrix mat with the given
    :func:`_sparse` ``columns``, each as (basis, pivots) with each basis
    row 1 at its own pivot and 0 at the others'.

    They are read off the Krylov sequence of one coordinate vector v at
    a time, with minimal polynomial p: each root λ of p is an
    eigenvalue, and (p/(x - λ))(mat)·v, a combination of v, mat·v, ...,
    is an eigenvector of λ, as (mat - λ) takes it to p(mat)·v = 0.  For
    a diagonalisable mat it is v's component in λ's eigenspace up to a
    nonzero scalar, so these vectors span every eigenspace; each joins
    λ's basis unless it lies in its span, until the dimensions fill the
    space.  A coordinate vector in the span of the eigenvectors found
    adds nothing, as its component in each eigenspace lies in the span
    of that space's, so it is skipped.  If mat is not diagonalisable
    over F_l the coordinate vectors run out first, and the dimensions
    fall short of the space's."""
    n = len(columns)
    spaces, found = {}, 0       # λ -> (basis, pivots)
    span, span_pivots, new = [], [], []     # the eigenvectors found
    for i in range(n):
        if found == n:
            break
        for vec in new:
            _reduce(span, span_pivots, vec, l)
        new.clear()
        # Reduced by the span's rows, v leaves v minus the row with
        # pivot i, or v itself when i is no pivot: it lies in the span
        # iff that row is v.
        unit = [int(k == i) for k in range(n)]
        if i in span_pivots and span[span_pivots.index(i)] == unit:
            continue
        poly, krylov = _minpoly_of_vector(columns, i, l)
        krylov_columns = list(zip(*krylov))
        roots = 0
        for lam in range(l):
            if roots == len(poly) - 1:      # no more roots
                break
            # Horner's rule: its partial sums are the coefficients of
            # p/(x - λ), from the top, and its value is p(λ).
            acc, quot = 0, []
            for c in reversed(poly):
                quot.append(acc)
                acc = (acc * lam + c) % l
            if acc:
                continue
            roots += 1
            basis, pivots = spaces.setdefault(lam, ([], []))
            vec = _combine(quot[:0:-1], krylov_columns, l)
            if _reduce(basis, pivots, vec, l)[0] is not None:
                new.append(vec)
                found += 1
    return list(spaces.values())


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
    |C_j| * chi_t(g_j) / chi_t(1) mod l."""
    r = len(data.reps)
    spaces = [([tuple(1 if i == j else 0 for j in range(r))
                for i in range(r)], list(range(r)))]
    for j in range(1, r):
        if all(len(basis) == 1 for basis, _ in spaces):
            break
        # M_j·b combines the columns of M_j by the entries of b.
        columns = _sparse(zip(*_class_matrix(G, data, j, l)))
        new_spaces = []
        for basis, pivots in spaces:
            k = len(basis)
            if k == 1:
                new_spaces.append((basis, pivots))
                continue
            # Action on coordinates: each basis row is 1 at its own pivot
            # and 0 at the others', so an image's coordinates are its
            # entries at the pivots, and it lies in the span iff their
            # combination of the basis rows matches it at every other
            # column too.
            basis_columns = list(zip(*basis))
            rest = [(c, at) for c, at in enumerate(basis_columns)
                    if c not in pivots]
            action = []
            for b in basis:
                image = _apply(columns, b, l)
                coords = [image[p] for p in pivots]
                if any((sum(map(operator.mul, coords, at)) - image[c]) % l
                       for c, at in rest):
                    raise _table_error(G, l, "vector not in subspace (class "
                                             "matrices should commute)")
                action.append(coords)
            # Coordinate rows transform by right multiplication, so we
            # need left eigenvectors of `action`, i.e. the eigenspaces of
            # its transpose, whose columns are its rows.  Coordinate rows
            # of that form combine the basis rows into rows of that form,
            # with pivots among theirs.
            found = 0
            for gammas, gpivots in _eigenspaces(_sparse(action), l):
                new_spaces.append(([_combine(g, basis_columns, l)
                                    for g in gammas],
                                   [pivots[c] for c in gpivots]))
                found += len(gammas)
            if found != k:
                raise _table_error(G, l, "class matrix failed to diagonalise")
        # Regroup: distinct lines stay separate; nothing to merge because
        # eigenspace splitting only refines.
        spaces = new_spaces
    lines = []
    for basis, _ in spaces:
        if len(basis) != 1:
            raise _table_error(G, l,
                               "class matrices did not separate characters")
        u = basis[0]
        if u[0] % l == 0:
            raise _table_error(G, l,
                               "eigenvector vanishes on the identity class")
        inv = pow(u[0], l - 2, l)
        lines.append(tuple((c * inv) % l for c in u))
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

    degrees = []
    for om in omegas:
        s = sum(om[j] * om[inv_class[j]] * size_inv[j] for j in range(r)) % l
        target = (G.order * pow(s, l - 2, l)) % l
        d = next((d for d in range(1, max_degree + 1)
                  if (d * d) % l == target), None)
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
    # l; the multiplicities sum to χ(1), and χ(g) = Σ_k m_k ζ_o^k.
    fourier = {}
    for o in {len(pw) for pw in powers}:
        zo = pow(z, e // o * (l - 2), l)   # z^(-e/o), of order o
        fourier[o] = (pow(o, l - 2, l),
                      [[pow(zo, k * s % o, l) for s in range(o)]
                       for k in range(o)])

    modrows = [[(d * om[j] * size_inv[j]) % l for j in range(r)]
               for om, d in zip(omegas, degrees)]
    # The multiplicities depend on the residues of χ along g's powers
    # alone, so each distinct sequence of them is inverted once: its
    # degree, the sum of its multiplicities, and its value.
    lifted = {}

    def lift(j):
        """Column j of the table, lifted from the residues."""
        pw = powers[j]
        o_inv, wave = fourier[len(pw)]
        step = e // len(pw)
        column = []
        for modvals, d in zip(modrows, degrees):
            vals = tuple([modvals[c] for c in pw])
            known = lifted.get(vals)
            if known is None:
                poly = [0] * e
                for k, wk in enumerate(wave):
                    m = sum(map(operator.mul, vals, wk)) * o_inv % l
                    if m > max_degree:
                        raise _table_error(
                            G, l, "root-of-unity multiplicity fails lift "
                                  "bound")
                    poly[k * step] = m
                known = lifted[vals] = sum(poly), CycNum._from_poly(poly, e)
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
    conj = {}       # the conjugate of each distinct value
    for row in values:
        for v in row:
            if v.coeffs not in conj:
                conj[v.coeffs] = v.conjugate().coeffs
    nu = max(sum(map(abs, c)) for pair in conj.items() for c in pair)
    cyclotomic = _cyclotomic(e)
    h = sum(map(abs, cyclotomic))
    bits = (4 * G.order * (nu * nu + 1) * (1 + h) ** (phi - 1)).bit_length()
    packed = {}

    def pack(coeffs):
        if coeffs not in packed:
            packed[coeffs] = sum(c << bits * i for i, c in enumerate(coeffs))
        return packed[coeffs]

    modulus = pack(cyclotomic)      # Φ_e(B)
    weighted = [[size * pack(v.coeffs) for v, size in zip(row, data.sizes)]
                for row in values]
    conj_rows = [[pack(conj[v.coeffs]) for v in row] for row in values]
    for t1, row in enumerate(weighted):
        for t2 in range(t1, len(values)):
            want = G.order if t1 == t2 else 0
            if (sum(map(operator.mul, row, conj_rows[t2])) - want) % modulus:
                raise _table_error(G, l, "row orthogonality fails")


# ---------------------------------------------------------------------------
# restriction, inner products
# ---------------------------------------------------------------------------

def restrict(chi, H):
    """The restriction of a class function to a subgroup ``H``."""
    G = chi.group
    gdata = G.conjugacy_classes()
    hdata = H.conjugacy_classes()
    for rep in hdata.reps:
        if rep.img not in G.at:
            raise ValueError("H is not a subgroup of the domain of chi")
    return ClassFunction(H, tuple(chi.values[gdata.class_at[rep.img]]
                                  for rep in hdata.reps))


def inner(phi, psi):
    """The exact inner product <phi, psi> = |G|⁻¹ Σ |C|·phi·conj(psi) of
    two class functions on the same group; returns an int for
    characters, else a Fraction.

    With D the lcm of the conductors, each value is promoted to Q(ζ_D)
    and the sum is taken once as D coefficients modulo x^D - 1, where
    conj sends ζ^k to ζ^(-k): ζ_D has order D, so this is exact.  It is
    reduced modulo Φ_D once at the end, which is exact too, as Φ_D
    divides x^D - 1; only its rational part is divided by |G|."""
    if phi.group.elements != psi.group.elements:
        raise ValueError("class functions live on different groups")
    data = phi.group.conjugacy_classes()
    D = math.lcm(*(v.d for v in phi.values), *(v.d for v in psi.values))
    acc = [0] * D
    for size, a, b in zip(data.sizes, phi.values, psi.values):
        b = b.promote(D).coeffs
        for i, x in enumerate(a.promote(D).coeffs):
            if x:
                x *= size
                for k, y in enumerate(b):
                    if y:
                        acc[(i - k) % D] += x * y
    total = CycNum._from_poly(acc, D)
    if not total.is_rational():
        raise ArithmeticError("inner product of class functions must be "
                              "rational")
    value = Fraction(total.coeffs[0], phi.group.order)
    return value.numerator if value.denominator == 1 else value


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


# Overgroups H whose class permutations and inertia groups are kept on a
# group N; past the bound the oldest is dropped.  The acceptance checks
# loop over every θ of one (H, N), so that pair pays for its class action
# once, and for each distinct inertia group once.
_ACTIONS_PER_GROUP = 4


def _class_permutations(H, N):
    """:func:`class_permutation` of every h ∈ H on N, in H's element
    order, and a dict for the inertia groups built from them; computed
    once per (H, N) and kept on N for its last ``_ACTIONS_PER_GROUP``
    overgroups (keyed by the H object)."""
    actions = N._actions
    kept = actions.get(H)
    if kept is None:
        kept = tuple(class_permutation(h, N) for h in H.elements), {}
        if len(actions) >= _ACTIONS_PER_GROUP:
            del actions[next(iter(actions))]
        actions[H] = kept
    return kept


def inertia_and_extendibility(H, N, theta, cap=DEFAULT_GROUP_CAP):
    """For a normal subgroup N of H and a class function theta on N:
    the inertia group H_theta = {h : theta^h = theta}, whether theta
    extends to H_theta, and a witness extension (or None).

    ``theta^h(n) = theta(h n h^{-1})``, read off h's
    :func:`class_permutation`, computed once per (H, N) for every θ
    (see :func:`_class_permutations`); H_theta keeps H's element order.
    It is built once per (H, N) for each set of fixing h, and is H
    itself when every h fixes theta, so its classes and table are not
    built again for each theta.
    N's generators suffice for normality, as conjugation is an
    automorphism.
    Extendibility is decided by an exhaustive search through
    Irr(H_theta) for a character whose restriction to N equals theta
    exactly.
    """
    if theta.group.elements != N.elements:
        raise ValueError("theta must be a class function on N")
    for x in N.elements:
        if x.img not in H.at:
            raise ValueError("N is not a subgroup of H")
    for g in H.generators:
        by = _conjugator(g.inv().img)
        for x in N.generators:
            if by(x.table()) not in N.at:
                raise ValueError("N is not normal in H")

    perms, stabilisers = _class_permutations(H, N)
    fixing = tuple(i for i, perm in enumerate(perms)
                   if is_invariant(theta, perm))
    H_theta = stabilisers.get(fixing)
    if H_theta is None:
        H_theta = stabilisers[fixing] = (
            H if len(fixing) == H.order
            else FiniteGroup([H.elements[i] for i in fixing], cap=cap))
    table = character_table(H_theta, cap=cap)
    for chi in table.characters:
        if restrict(chi, N) == theta:
            return H_theta, True, chi
    return H_theta, False, None
