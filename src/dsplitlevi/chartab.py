"""Exact character tables of small finite groups.

A :class:`FiniteGroup` wraps an explicit list of group elements (any
hashable objects with ``*`` and ``.inv()``, e.g. signed permutations or
integer matrices).  :func:`character_table` computes its full ordinary
character table by the classical modular method: the class-sum matrices
are simultaneously diagonalised over a prime field F_l with l = 1 mod
exp(G) and l^2 > 4|G|, degrees are recovered from the second
orthogonality relation, and the character values are lifted to exact
cyclotomic numbers of conductor exp(G) via discrete Fourier inversion
over the power maps.  Row orthogonality, which implies column
orthogonality for a square table, is re-verified exactly before a table
is returned.

Restriction and inner products of class functions are exact.
:func:`class_permutation` is the package's one conjugation action on
the classes of a normal subgroup, shared by the invariance search of
:mod:`dsplitlevi.cliff` and :func:`inertia_and_extendibility`, which
decides whether a character of a normal subgroup extends to its
stabiliser.
"""

import math
from fractions import Fraction

from .arith import factorint, fp_divmod, fp_gcd, fp_mul, isprime
from .cyclo import CycNum, CycVector, zeta
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
    identity is always listed first.
    """

    __slots__ = ("elements", "index", "identity", "generators", "order",
                 "_classes", "_exponent", "_actions")

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
        self._exponent = None
        self._actions = {}

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

    def element_order(self, x):
        k = 1
        cur = x
        while cur != self.identity:
            cur = cur * x
            k += 1
        return k

    def exponent(self):
        if self._exponent is None:
            data = self.conjugacy_classes()
            self._exponent = math.lcm(
                *(self.element_order(r) for r in data.reps))
        return self._exponent

    def conjugacy_classes(self):
        if self._classes is not None:
            return self._classes
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
                    for g in self.generators:
                        z = g.inv() * y * g
                        if z not in seen:
                            seen.add(z)
                            orbit.append(z)
                            nxt.append(z)
                queue = nxt
            classes.append(orbit)
        # The identity's class goes first; all others keep discovery order.
        j0 = next(j for j, orb in enumerate(classes) if orb[0] == self.identity)
        classes = [classes[j0]] + classes[:j0] + classes[j0 + 1:]
        reps = tuple(orb[0] for orb in classes)
        sizes = tuple(len(orb) for orb in classes)
        class_of = {}
        for j, orb in enumerate(classes):
            for y in orb:
                class_of[y] = j
        self._classes = ClassData(reps, sizes,
                                  tuple(tuple(orb) for orb in classes),
                                  class_of)
        return self._classes


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
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], l - 2, l)
        rows[rank] = [(v * inv) % l for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(a - f * b) % l
                           for a, b in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
    return [tuple(r) for r in rows[:rank]], pivots


def _coords_in_basis(G, basis, pivots, vec, l):
    """Coordinates of ``vec`` in an RREF ``basis``; vec must lie in it."""
    vec = list(vec)
    coords = []
    for row, p in zip(basis, pivots):
        c = vec[p] % l
        coords.append(c)
        if c:
            vec = [(a - c * b) % l for a, b in zip(vec, row)]
    if any(v % l for v in vec):
        raise _table_error(G, l, "vector not in subspace (class matrices "
                                 "should commute)")
    return coords


def _kernel(mat, l):
    """Basis (RREF rows) of the right kernel of a square matrix mod l."""
    n = len(mat)
    rows, pivots = _rref(mat, l)
    basis = []
    pivot_set = set(pivots)
    for free in range(n):
        if free in pivot_set:
            continue
        v = [0] * n
        v[free] = 1
        for row, p in zip(rows, pivots):
            v[p] = (-row[free]) % l
        basis.append(tuple(v))
    reduced, _ = _rref(basis, l) if basis else ([], [])
    return reduced


def _matvec(mat, vec, l):
    return tuple(sum(a * b for a, b in zip(row, vec)) % l for row in mat)


def _minpoly_of_vector(mat, v, l):
    """Monic minimal polynomial of ``mat`` at the vector ``v`` (Krylov)."""
    basis = []          # echelon rows
    combos = []         # same combination expressed over powers of mat
    cur = tuple(c % l for c in v)
    power = 0
    while True:
        vec = list(cur)
        combo = [0] * (power + 1)
        combo[power] = 1
        for row, rcombo in zip(basis, combos):
            p = next((i for i, c in enumerate(row) if c), None)
            if p is not None and vec[p]:
                f = (vec[p] * pow(row[p], l - 2, l)) % l
                vec = [(a - f * b) % l for a, b in zip(vec, row)]
                for i, c in enumerate(rcombo):
                    combo[i] = (combo[i] - f * c) % l
        if not any(vec):
            inv = pow(combo[-1], l - 2, l)
            return [(c * inv) % l for c in combo]
        basis.append(tuple(vec))
        combos.append(combo)
        cur = _matvec(mat, cur, l)
        power += 1


def _eigenvalues(mat, l):
    """All eigenvalues in F_l of a diagonalisable square matrix."""
    n = len(mat)
    minpoly = [1]
    for i in range(n):
        v = [0] * n
        v[i] = 1
        mv = _minpoly_of_vector(mat, v, l)
        # lcm(minpoly, mv) = minpoly / gcd(minpoly, mv) * mv
        minpoly = fp_mul(fp_divmod(minpoly, fp_gcd(minpoly, mv, l), l)[0],
                         mv, l)
        if len(minpoly) == n + 1:
            break
    return [x for x in range(l)
            if sum(c * pow(x, k, l) for k, c in enumerate(minpoly)) % l == 0]


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
        mat = _class_matrix(G, data, j, l)
        new_spaces = []
        for basis, pivots in spaces:
            k = len(basis)
            if k == 1:
                new_spaces.append((basis, pivots))
                continue
            # Action on coordinates: images of basis rows, re-expressed.
            action = [_coords_in_basis(G, basis, pivots,
                                       _matvec(mat, b, l), l)
                      for b in basis]
            # Coordinate rows transform by right multiplication, so we
            # need left eigenvectors of `action`, i.e. kernels of the
            # transpose shifted by each eigenvalue.
            trans = [[action[i][s] for i in range(k)] for s in range(k)]
            found = 0
            for lam in _eigenvalues(trans, l):
                shifted = [[(v - (lam if i == s else 0)) % l
                            for i, v in enumerate(row)]
                           for s, row in enumerate(trans)]
                vecs = []
                for gamma in _kernel(shifted, l):
                    vec = [0] * r
                    for c, b in zip(gamma, basis):
                        if c:
                            vec = [(a + c * bb) % l for a, bb in zip(vec, b)]
                    vecs.append(vec)
                if vecs:
                    new_basis, new_pivots = _rref(vecs, l)
                    new_spaces.append((new_basis, new_pivots))
                    found += len(new_basis)
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


def _value_key(row):
    return tuple(tuple((c.numerator, c.denominator) for c in v.coeffs)
                 for v in row)


# Tables kept, keyed by element list.  Past the bound the oldest entry is
# dropped.  A kinva_sample pass keeps 64 tables and the whole test suite
# 184, so neither evicts.
_TABLE_CACHE_BOUND = 512
_TABLE_CACHE = {}


def character_table(G, cap=DEFAULT_GROUP_CAP):
    """The exact character table of ``G`` (see :class:`CharacterTable`)."""
    if G.order > cap:
        raise ClosureExceedsCap(
            f"group of order {G.order} exceeds cap {cap}")
    cache_key = G.elements
    cached = _TABLE_CACHE.get(cache_key)
    if cached is not None:
        return cached

    data = G.conjugacy_classes()
    r = len(data.reps)
    e = G.exponent()
    l = _dixon_prime(G.order, e)
    z = _root_of_unity(l, e)
    zinv = pow(z, l - 2, l)

    omegas = _split_eigenvectors(G, data, l)
    if len(omegas) != r:
        raise _table_error(G, l, "wrong number of eigenvector lines")

    inv_class = [data.class_of[rep.inv()] for rep in data.reps]
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

    # Power maps: class of rep_j^s for every s mod e.
    power_class = []
    for rep in data.reps:
        row = []
        cur = G.identity
        for _ in range(e):
            row.append(data.class_of[cur])
            cur = cur * rep
        power_class.append(row)

    # Character values mod l, then Fourier inversion over the power map
    # lifts each value to a non-negative integer combination of e-th
    # roots of unity (the root multiplicities are at most the degree,
    # hence unambiguous below l).
    e_inv = pow(e, l - 2, l)
    zetas = [zeta(e, k) for k in range(e)]
    rows = []
    for om, d in zip(omegas, degrees):
        modvals = [(d * om[j] * size_inv[j]) % l for j in range(r)]
        row = []
        for j in range(r):
            val = CycNum.zero(e)
            zk = 1  # z^{-k*s} accumulator, stepped by zinv^s per k
            for k in range(e):
                acc = 0
                zs = 1
                for s in range(e):
                    acc += modvals[power_class[j][s]] * zs
                    zs = (zs * zk) % l
                m = (acc * e_inv) % l
                if m:
                    if m > max_degree:
                        raise _table_error(
                            G, l, "root-of-unity multiplicity fails lift bound")
                    val = val + zetas[k] * m
                zk = (zk * zinv) % l
            row.append(val)
        if row[0] != d:
            raise _table_error(
                G, l, "lifted degree disagrees with modular degree")
        rows.append(row)

    order_rows = sorted(range(r), key=lambda t: (degrees[t],
                                                 _value_key(rows[t])))
    degrees = tuple(degrees[t] for t in order_rows)
    values = tuple(tuple(rows[t]) for t in order_rows)

    _verify_orthogonality(G, data, values, l)
    if any(G.order % d for d in degrees):
        raise _table_error(G, l, "some degree does not divide the group order")

    table = CharacterTable(G, e, l, degrees, values)
    if len(_TABLE_CACHE) >= _TABLE_CACHE_BOUND:
        del _TABLE_CACHE[next(iter(_TABLE_CACHE))]
    _TABLE_CACHE[cache_key] = table
    return table


def _verify_orthogonality(G, data, values, l):
    """Row orthogonality X·D·X̄ᵀ = |G|·I, with D the diagonal of class
    sizes.  For a square table this also gives column orthogonality:
    X is invertible and X̄ᵀ·X = |G|·D⁻¹, so columns are not rechecked."""
    conj_rows = [tuple(v.conjugate() for v in row) for row in values]
    for t1, row in enumerate(values):
        weighted = CycVector([v * size for v, size in zip(row, data.sizes)])
        for t2 in range(t1, len(values)):
            want = G.order if t1 == t2 else 0
            if weighted.dot(conj_rows[t2]) != want:
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


# Overgroups H whose class permutations are kept on a group N; past the
# bound the oldest is dropped.  The acceptance checks loop over every θ
# of one (H, N), so that pair pays for its class action once.
_ACTIONS_PER_GROUP = 4


def _class_permutations(H, N):
    """:func:`class_permutation` of every h ∈ H on N, in H's element
    order; computed once per (H, N) and kept on N for its last
    ``_ACTIONS_PER_GROUP`` overgroups (keyed by the H object)."""
    actions = N._actions
    perms = actions.get(H)
    if perms is None:
        perms = tuple(class_permutation(h, N) for h in H.elements)
        if len(actions) >= _ACTIONS_PER_GROUP:
            del actions[next(iter(actions))]
        actions[H] = perms
    return perms


def inertia_and_extendibility(H, N, theta, cap=DEFAULT_GROUP_CAP):
    """For a normal subgroup N of H and a class function theta on N:
    the inertia group H_theta = {h : theta^h = theta}, whether theta
    extends to H_theta, and a witness extension (or None).

    ``theta^h(n) = theta(h n h^{-1})``, read off h's
    :func:`class_permutation`, computed once per (H, N) for every θ
    (see :func:`_class_permutations`); H_theta keeps H's element order.
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

    H_theta = FiniteGroup([h for h, perm in zip(H.elements,
                                                _class_permutations(H, N))
                           if is_invariant(theta, perm)], cap=cap)
    table = character_table(H_theta, cap=cap)
    for chi in table.characters:
        if restrict(chi, N) == theta:
            return H_theta, True, chi
    return H_theta, False, None
