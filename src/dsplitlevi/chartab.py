"""Exact character tables of small finite groups.

A :class:`FiniteGroup` wraps an explicit list of group elements (any
hashable objects with ``*`` and ``.inv()``, e.g. signed permutations or
integer matrices).  :func:`character_table` computes its full ordinary
character table by Dixon's modular method, in three steps.

* The class-sum matrices are simultaneously diagonalised over a prime
  field F_l with l = 1 mod exp(G) and l^2 > 4|G|.  Each space not yet
  split finds its eigenvalues lazily: the roots of the Krylov minimal
  polynomial of one coordinate vector at a time, whose eigenspaces are
  taken until they fill the space.  A space that falls short is not
  diagonalisable, and the table check fails.
* Degrees are recovered from the second orthogonality relation, and
  the values are lifted to exact cyclotomic numbers of conductor
  exp(G) by Fourier inversion over the powers of each class
  representative, on plain integer coefficient lists, one column at a
  time.
* Row orthogonality, which implies column orthogonality for a square
  table, is re-verified exactly before a table is returned: each pair
  of rows is summed on integer lists modulo x^e - 1 and reduced
  modulo Φ_e once, as :func:`inner` does.

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
from .cyclo import CycNum
from .signedperm import ClosureExceedsCap, VerificationError, closure

DEFAULT_GROUP_CAP = 10000


# ---------------------------------------------------------------------------
# groups as explicit element lists
# ---------------------------------------------------------------------------

class ClassData:
    """Conjugacy classes: representatives, sizes, member lists, lookup."""

    __slots__ = ("reps", "sizes", "classes", "class_of")

    def __init__(self, reps, sizes, classes, class_of):
        self.reps = reps
        self.sizes = sizes
        self.classes = classes
        self.class_of = class_of


class FiniteGroup:
    """A finite group given by an explicit, deterministic element list.

    Elements must be hashable, support ``a * b`` and ``a.inv()``.  The
    element list must be closed under multiplication (verified).  The
    conjugacy class of each element is found by orbit search under
    conjugation by the stored generators; the representative of a class
    is its earliest member in element-list order, and the class of the
    identity is always listed first.  :func:`character_table` keeps the
    group's table on it, and checks that the generators generate it.
    """

    __slots__ = ("elements", "index", "identity", "generators", "order",
                 "_classes", "_powers", "_actions", "_table")

    def __init__(self, elements, generators=None, cap=DEFAULT_GROUP_CAP):
        elements = list(elements)
        if not elements:
            raise ValueError("a group needs at least one element")
        if len(elements) > cap:
            raise ClosureExceedsCap(
                f"group of order {len(elements)} exceeds cap {cap}")
        index = {}
        for pos, x in enumerate(elements):
            if x in index:
                raise ValueError("duplicate element in group list")
            index[x] = pos
        ident = elements[0] * elements[0].inv()
        if ident not in index:
            raise ValueError("identity element missing from group list")
        for x in elements:
            if x.inv() not in index:
                raise ValueError("element list is not closed under inverse")
        self.elements = tuple(elements)
        self.index = index
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
                        if y not in self.index:
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
        g^0, g^1, ..., g^(o-1)."""
        if self._powers is None:
            data = self.conjugacy_classes()
            rows = []
            for rep in data.reps:
                row, cur = [0], rep
                while cur != self.identity:
                    row.append(data.class_of[cur])
                    cur = cur * rep
                rows.append(tuple(row))
            self._powers = tuple(rows)
        return self._powers

    def exponent(self):
        return math.lcm(*map(len, self.power_classes()))

    def conjugacy_classes(self):
        if self._classes is not None:
            return self._classes
        conjugators = [(g.inv(), g) for g in self.generators]
        seen = set()
        classes = []
        for x in self.elements:
            if x in seen:
                continue
            orbit = [x]
            seen.add(x)
            queue = [x]
            while queue:
                nxt = []
                for y in queue:
                    for gi, g in conjugators:
                        z = gi * y * g
                        if z not in seen:
                            seen.add(z)
                            orbit.append(z)
                            nxt.append(z)
                queue = nxt
            classes.append(orbit)
        # The identity's class goes first; all others keep discovery order.
        j0 = next(j for j, orb in enumerate(classes) if orb[0] == self.identity)
        self._set_classes([classes[j0]] + classes[:j0] + classes[j0 + 1:])
        return self._classes

    def _set_classes(self, classes):
        """Keep ``classes``, lists of elements with the identity's first
        and each representative first in its list."""
        reps = tuple(orb[0] for orb in classes)
        sizes = tuple(len(orb) for orb in classes)
        class_of = {}
        for j, orb in enumerate(classes):
            for y in orb:
                class_of[y] = j
        self._classes = ClassData(reps, sizes,
                                  tuple(tuple(orb) for orb in classes),
                                  class_of)


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
        return self.values[data.class_of[element]]

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

def _rref(rows, l):
    """Reduced row echelon form mod l; returns (rows, pivot columns)."""
    rows = [list(r) for r in rows]
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        rank = len(pivots)
        if rank == len(rows):
            break
        for i in range(rank, len(rows)):
            if rows[i][col]:
                break
        else:
            continue
        rows[rank], rows[i] = rows[i], rows[rank]
        inv = pow(rows[rank][col], l - 2, l)
        top = rows[rank] = [(v * inv) % l for v in rows[rank]]
        for i, row in enumerate(rows):
            f = row[col]
            if f and i != rank:
                rows[i] = [(a - f * b) % l for a, b in zip(row, top)]
        pivots.append(col)
    return [tuple(r) for r in rows[:len(pivots)]], pivots


def _combine(coeffs, basis, l):
    """The combination sum of c·b over ``basis`` mod l."""
    out = [0] * len(basis[0])
    for c, row in zip(coeffs, basis):
        if c:
            out = [a + c * b for a, b in zip(out, row)]
    return tuple([v % l for v in out])


def _eigenspace(mat, lam, l):
    """The kernel of mat - λ mod l, for a square matrix, as (basis,
    pivots) in RREF.  The matrix is reduced with its columns taken last
    to first, so the vector of each free column is 0 before it, 1 at it
    and 0 at the other free columns: the free columns are the pivots."""
    n = len(mat)
    shifted = []
    for s, row in enumerate(mat):
        row = row[::-1]
        row[n - 1 - s] = (row[n - 1 - s] - lam) % l
        shifted.append(row)
    rows, pivots = _rref(shifted, l)
    free = [f for f in range(n - 1, -1, -1) if f not in pivots]
    basis = []
    for f in free:
        v = [0] * n
        v[f] = 1
        for row, p in zip(rows, pivots):
            v[p] = -row[f] % l
        basis.append(tuple(v[::-1]))
    return basis, [n - 1 - f for f in free]


def _matvec(mat, vec, l):
    return tuple(sum(map(operator.mul, row, vec)) % l for row in mat)


def _minpoly_of_vector(mat, i, l):
    """Monic minimal polynomial of ``mat`` at the i-th coordinate vector
    v: the first power mat^k·v of its Krylov sequence that depends on
    the ones before gives its coefficients."""
    reduced = []        # (pivot, echelon row with 1 there, its combination)
    krylov = tuple(int(k == i) for k in range(len(mat)))
    while True:
        vec = list(krylov)
        combo = [0] * len(reduced) + [1]     # over the powers of mat
        for p, row, rcombo in reduced:
            f = vec[p]
            if f:
                vec = [(a - f * b) % l for a, b in zip(vec, row)]
                for k, c in enumerate(rcombo):
                    combo[k] = (combo[k] - f * c) % l
        p = next((k for k, c in enumerate(vec) if c), None)
        if p is None:
            return combo
        inv = pow(vec[p], l - 2, l)
        reduced.append((p, [(a * inv) % l for a in vec],
                        [(c * inv) % l for c in combo]))
        krylov = _matvec(mat, krylov, l)


def _is_root(poly, x, l):
    acc = 0
    for c in reversed(poly):
        acc = (acc * x + c) % l
    return acc == 0


def _eigenspaces(mat, l):
    """The eigenspaces of a square matrix over F_l, each as (basis,
    pivots) in RREF, found lazily from the Krylov minimal polynomial p
    of one coordinate vector v at a time: its roots are eigenvalues,
    whose kernels are taken until they fill the space.  If mat is not
    diagonalisable over F_l the coordinate vectors run out first, and
    the dimensions fall short of the space's."""
    n = len(mat)
    spaces, seen, found = [], [], 0
    for i in range(n):
        if found == n:
            break
        poly = _minpoly_of_vector(mat, i, l)
        roots = []
        for x in range(l):
            if len(roots) == len(poly) - 1:     # no more roots
                break
            if _is_root(poly, x, l):
                roots.append(x)
        for lam in roots:
            if lam not in seen:
                seen.append(lam)
                space = _eigenspace(mat, lam, l)
                spaces.append(space)
                found += len(space[0])
    return spaces


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
    """M_j with (M_j)[i][k] = #{(x, y) in C_j x C_i : x*y = rep_k} mod l."""
    r = len(data.reps)
    mat = [[0] * r for _ in range(r)]
    for x in data.classes[j]:
        xi = x.inv()
        for k, rep in enumerate(data.reps):
            i = data.class_of[xi * rep]
            mat[i][k] += 1
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
        columns = list(zip(*_class_matrix(G, data, j, l)))
        new_spaces = []
        for basis, pivots in spaces:
            k = len(basis)
            if k == 1:
                new_spaces.append((basis, pivots))
                continue
            # Action on coordinates: an image's coordinates in the RREF
            # basis are its entries at the pivots, and it lies in the span
            # iff their combination of the basis rows matches it at every
            # other column too.
            rest = [(c, [b[c] for b in basis])
                    for c in range(r) if c not in pivots]
            action = []
            for b in basis:
                image = _combine(b, columns, l)
                coords = [image[p] for p in pivots]
                if any((sum(map(operator.mul, coords, at)) - image[c]) % l
                       for c, at in rest):
                    raise _table_error(G, l, "vector not in subspace (class "
                                             "matrices should commute)")
                action.append(coords)
            # Coordinate rows transform by right multiplication, so we
            # need left eigenvectors of `action`, i.e. the eigenspaces of
            # its transpose.  An RREF basis of coordinate rows combines
            # the RREF basis rows into RREF rows, with pivots among theirs.
            trans = [list(col) for col in zip(*action)]
            found = 0
            for gammas, gpivots in _eigenspaces(trans, l):
                new_spaces.append(([_combine(g, basis, l) for g in gammas],
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
    action on element positions: the tuple of ``index[x * g]`` over the
    elements x.

    The identity's orbit under these actions must cover every position,
    or the generators do not generate G and VerificationError is raised.
    Then each element is a word in the generators, read off a path from
    the identity's position, and the key gives the position of every
    product x * y by applying y's word to x's position: it fixes the
    multiplication table in element order."""
    index = G.index
    try:
        actions = tuple(tuple([index[x * g] for x in G.elements])
                        for g in G.generators)
    except KeyError:
        raise VerificationError(
            f"the element list is not closed under its generators "
            f"(group order {G.order})") from None
    start = index[G.identity]
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
    lifted = {}     # one CycNum per distinct coefficient list

    def lift(j):
        """Column j of the table, lifted from the residues."""
        pw = powers[j]
        o_inv, wave = fourier[len(pw)]
        step = e // len(pw)
        column = []
        for modvals, d in zip(modrows, degrees):
            vals = [modvals[c] for c in pw]
            poly = [0] * e
            for k, wk in enumerate(wave):
                m = sum(map(operator.mul, vals, wk)) * o_inv % l
                if m > max_degree:
                    raise _table_error(
                        G, l, "root-of-unity multiplicity fails lift bound")
                poly[k * step] = m
            if sum(poly) != d:
                raise _table_error(
                    G, l, "lifted degree disagrees with modular degree")
            key = tuple(poly)
            if key not in lifted:
                lifted[key] = CycNum._from_poly(poly, e)
            column.append(lifted[key])
        return column

    rows = list(zip(*map(lift, range(r))))

    # Lifted values have integer coefficients, which order the rows.
    order_rows = sorted(range(r), key=lambda t: (
        degrees[t], [v.coeffs for v in rows[t]]))
    degrees = tuple(degrees[t] for t in order_rows)
    values = tuple(rows[t] for t in order_rows)

    _verify_orthogonality(G, data, values, l)
    if any(G.order % d for d in degrees):
        raise _table_error(G, l, "some degree does not divide the group order")

    if len(_TABLE_CACHE) >= _TABLE_CACHE_BOUND:
        del _TABLE_CACHE[next(iter(_TABLE_CACHE))]
    places = tuple(tuple(G.index[y] for y in orb) for orb in data.classes)
    _TABLE_CACHE[cache_key] = places, e, l, degrees, values
    G._table = CharacterTable(G, e, l, degrees, values)
    return G._table


def _verify_orthogonality(G, data, values, l):
    """Row orthogonality X·D·X̄ᵀ = |G|·I, with D the diagonal of class
    sizes, for every pair of rows t1 <= t2.  For a square table this
    also gives column orthogonality: X is invertible and X̄ᵀ·X = |G|·D⁻¹,
    so columns are not rechecked.

    As in :func:`inner`, each pair is summed on integer coefficient
    lists modulo x^e - 1, which is exact as ζ_e has order e, and reduced
    modulo Φ_e once."""
    e = values[0][0].d
    phi = len(values[0][0].coeffs)
    conj = {}       # the conjugate of each distinct value
    for row in values:
        for v in row:
            if v.coeffs not in conj:
                conj[v.coeffs] = v.conjugate().coeffs

    def by_power(rows):
        """Each row as (i, the i-th coefficients along the row), for
        the i where some coefficient is nonzero."""
        out = []
        for row in rows:
            parts = ((i, [c[i] for c in row]) for i in range(phi))
            out.append([(i, part) for i, part in parts if any(part)])
        return out

    weighted = by_power([[size * x for x in v.coeffs]
                         for v, size in zip(row, data.sizes)]
                        for row in values)
    conj_rows = by_power([conj[v.coeffs] for v in row] for row in values)
    for t1, row in enumerate(weighted):
        for t2 in range(t1, len(values)):
            acc = [0] * e
            for i, a in row:
                for k, b in conj_rows[t2]:
                    acc[(i + k) % e] += sum(map(operator.mul, a, b))
            if any(acc[1:]):    # a constant is already reduced
                acc = CycNum._from_poly(acc, e).coeffs
            if acc[0] != (G.order if t1 == t2 else 0) or any(acc[1:]):
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
        if rep not in G.index:
            raise ValueError("H is not a subgroup of the domain of chi")
    return ClassFunction(H, tuple(chi.values[gdata.class_of[rep]]
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
    induced by conjugation: j -> class of k rep_j k^{-1}."""
    data = N.conjugacy_classes()
    ki = k.inv()
    # k·(rep·k⁻¹) looks points up in k and in rep, whose tables persist.
    return tuple(data.class_of[k * (rep * ki)] for rep in data.reps)


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
        if x not in H.index:
            raise ValueError("N is not a subgroup of H")
    for g in H.generators:
        gi = g.inv()
        for x in N.generators:
            if g * x * gi not in N.index:
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
