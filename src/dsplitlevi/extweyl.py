"""Integer-matrix realization of the extended Weyl group of Sp(2n).

Chevalley root elements x_alpha(t), the monomial lifts n_alpha(t) and
the diagonal h_alpha(t) are realised as 2n x 2n integer matrices in the
symplectic basis e_1..e_n, f_1..f_n with <e_i, f_i> = 1.  Only t = +-1
is ever needed, so every constructed element has entries in {0, +-1}.

Every n_alpha, h_alpha and product of them is signed monomial,
M e_j = +-e_pi(j), so IntMatrix holds it as the rank-2n SignedPerm
j+1 -> +-(pi(j)+1) and multiplies, inverts and powers it there; only
the x_alpha(+-1) multiply as dense rows.  Rows are built only when
read, and equality and hash compare that image, so they agree however
a matrix was made.  rho reads the image as a signed permutation of
rank n (f_i read as e_{-i}); its kernel is the diagonal 2-group.
rho_image is that reading on bare image tuples, which rho wraps.

chevalley_generator builds each (kind, root, t) once: an lru_cache of
``CHEVALLEY_CACHE_SIZE`` = 1024 matrices keeps them, more than the 648
generators of C_2 to C_5 together.  Only generators are cached, never a
group: every closure is built afresh under its caller's cap.

build_twist_elements constructs the distinguished lift v of the Sylow
twist together with the grid-set elements c_i (lifting the long signed
cycles), p_k (lifting the grid-set swaps) and their derived chain
conjugates; build_VdI replicates them across the block orbits of a
Levi label, producing matrix generators that project exactly onto the
relative Weyl group computed by :mod:`dsplitlevi.levi`, at any rank:
only the closures its callers take of them are capped.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from operator import mul

from .levi import compute_d0, sylow_twist_w, tau_Q, wprime_Q
from .signedperm import (DEFAULT_CLOSURE_CAP, SignedPerm, VerificationError,
                         closure, grid_set, tau, wprime)


class IntMatrix:
    """Hashable square integer matrix; product is composition.  A signed
    monomial one is held as its SignedPerm (see the module docstring)."""

    __slots__ = ("_perm", "_rows")

    def __init__(self, rows):
        rows = tuple(tuple(int(x) for x in r) for r in rows)
        if any(len(r) != len(rows) for r in rows):
            raise ValueError("matrix must be square")
        self._rows = rows
        self._perm = _monomial_perm(rows)

    @classmethod
    def _of_perm(cls, perm):
        m = object.__new__(cls)
        m._perm, m._rows = perm, None
        return m

    @classmethod
    def identity(cls, dim):
        return cls._of_perm(SignedPerm.identity(dim))

    @property
    def dim(self):
        return len(self._rows) if self._perm is None else self._perm.n

    @property
    def rows(self):
        if self._rows is None:
            img = self._perm.img
            self._rows = tuple(tuple(v // i if abs(v) == i else 0 for v in img)
                               for i in range(1, len(img) + 1))
        return self._rows

    def __mul__(self, other):
        if self._perm is not None and other._perm is not None:
            return IntMatrix._of_perm(self._perm * other._perm)
        cols = tuple(zip(*other.rows))
        return IntMatrix(tuple(tuple(sum(map(mul, row, col)) for col in cols)
                               for row in self.rows))

    def signed_perm(self):
        """The rank-2n SignedPerm a signed monomial matrix is held as."""
        if self._perm is None:
            raise ValueError("not a signed monomial matrix")
        return self._perm

    def inv(self):
        """Inverse, available exactly for signed monomial matrices."""
        return IntMatrix._of_perm(self.signed_perm().inv())

    def __pow__(self, k):
        return IntMatrix._of_perm(self.signed_perm() ** k)

    def conj(self, g):
        """g^-1 * self * g, matching the signed-permutation convention."""
        return g.inv() * self * g

    def _key(self):
        return self._rows if self._perm is None else self._perm

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"IntMatrix({self.rows!r})"


def _monomial_perm(rows):
    """The SignedPerm of a matrix with M e_j = ±e_i in every column j
    (j+1 -> ±(i+1)), or None when ``rows`` is not signed monomial."""
    cols = [[(i, v) for i, v in enumerate(col, 1) if v] for col in zip(*rows)]
    if any(len(c) != 1 or c[0][1] not in (1, -1) for c in cols):
        return None
    img = [i * v for ((i, v),) in cols]
    return SignedPerm(img) if len(set(map(abs, img))) == len(img) else None


def matrix_closure(gens, cap=DEFAULT_CLOSURE_CAP):
    """Every element of the group generated by the signed monomial
    matrices gens, identity first: the closure of their rank-2n
    SignedPerms, each wrapped once.  ValueError for a generator that is
    not signed monomial."""
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator")
    perms = closure([g.signed_perm() for g in gens],
                    SignedPerm.identity(gens[0].dim), cap)
    return [IntMatrix._of_perm(p) for p in perms]


# ---------------------------------------------------------------------------
# Chevalley generators
# ---------------------------------------------------------------------------

def _root_entries(root):
    nz = [(k, v) for k, v in enumerate(root) if v]
    if len(nz) == 1 and nz[0][1] in (2, -2):
        return nz
    if (len(nz) == 2 and all(v in (1, -1) for _, v in nz)):
        return nz
    raise ValueError(f"not a type-C root: {tuple(root)!r}")


def _x_matrix(root, t):
    n = len(root)
    rows = [[int(i == j) for j in range(2 * n)] for i in range(2 * n)]
    nz = _root_entries(root)
    if len(nz) == 1:
        k, v = nz[0]
        if v == 2:
            rows[k][n + k] += t
        else:
            rows[n + k][k] += t
    else:
        (i, vi), (j, vj) = nz
        if (vi, vj) == (1, -1):
            rows[i][j] += t
            rows[n + j][n + i] -= t
        elif (vi, vj) == (-1, 1):
            rows[j][i] += t
            rows[n + i][n + j] -= t
        elif (vi, vj) == (1, 1):
            rows[i][n + j] += t
            rows[j][n + i] += t
        else:
            rows[n + j][i] += t
            rows[n + i][j] += t
    return IntMatrix(rows)


def chevalley_generator(kind, root, t):
    """x_alpha(t), n_alpha(t) or h_alpha(t) as an integer matrix, t = +-1.

    n_alpha(t) = x_alpha(t) x_{-alpha}(-1/t) x_alpha(t) and
    h_alpha(t) = n_alpha(t) n_alpha(1)^-1.  Each (kind, root, t) is
    built once and shared (see the module docstring); an IntMatrix is
    immutable.
    """
    if t not in (1, -1):
        raise ValueError(f"integer matrices need t in {{1, -1}}, got {t!r}")
    root = tuple(root)
    _root_entries(root)
    if kind not in ("x", "n", "h"):
        raise ValueError(f"kind must be one of x, n, h, got {kind!r}")
    return _generator(kind, root, t)


# 3 kinds * 2 signs * (8 + 18 + 32 + 50) roots = 648 generators, ranks 2-5.
CHEVALLEY_CACHE_SIZE = 1024


@lru_cache(maxsize=CHEVALLEY_CACHE_SIZE)
def _generator(kind, root, t):
    """chevalley_generator on checked arguments, ``root`` a tuple."""
    if kind == "x":
        return _x_matrix(root, t)
    if kind == "n":
        x = _generator("x", root, t)
        return x * _generator("x", tuple(-c for c in root), -t) * x
    return _generator("n", root, t) * _generator("n", root, 1).inv()


def rho(m):
    """Signed permutation of the monomial pattern, f_i read as e_{-i}."""
    return SignedPerm(rho_image(m.signed_perm().img))


def rho_image(img):
    """The images of 1..n of rho of the monomial pattern held as the
    rank-2n image tuple ``img``: rho's whole reading, without building
    the SignedPerm, for a caller that compares image tuples."""
    pos = [abs(v) - 1 for v in img]
    if len(pos) % 2:
        raise ValueError("odd dimension is not symplectic")
    n = len(pos) // 2
    if any(pos[i + n] != (pos[i] + n) % (2 * n) for i in range(n)):
        raise ValueError("monomial pattern breaks the symplectic pairing")
    return tuple([p + 1 if p < n else n - p - 1 for p in pos[:n]])


# ---------------------------------------------------------------------------
# twist elements
# ---------------------------------------------------------------------------

TwistElements = namedtuple(
    "TwistElements",
    ["n", "d", "d0", "l", "a", "v0", "v", "c", "p", "p_pair", "h", "v_prime"])


def _unit(n, i, value=1):
    root = [0] * n
    root[i - 1] = value
    return tuple(root)


def _diff(n, i, j):
    root = [0] * n
    root[i - 1], root[j - 1] = 1, -1
    return tuple(root)


def build_twist_elements(n, d):
    """The lift v of the Sylow twist and its grid-set companions.

    c_i lifts the long signed cycle on the i-th grid set (chosen to
    centralize v via a deterministic diagonal correction), p_k lifts
    the swap of grid sets k, k+1, h_i is the diagonal -1 on the i-th
    grid set, and v_prime = c_1 ... c_a.
    """
    if n < 1:
        raise ValueError("n must be positive")
    d0 = compute_d0(d)
    l = (n // d0) * d0
    dim = 2 * n
    ident = IntMatrix.identity(dim)
    if l == 0:
        return TwistElements(n, d, d0, 0, 0, ident, ident, (), (), {}, (),
                             ident)
    a = l // d0

    v0 = ident
    for i in range(1, l):
        v0 = v0 * chevalley_generator("n", _diff(n, i, i + 1), 1)
    v0 = v0 * chevalley_generator("n", _unit(n, l, 2), -1)
    v = v0 ** (2 * l // d)
    if rho(v) != sylow_twist_w(n, d):
        raise VerificationError(
            f"lift v does not project onto the Sylow twist (n={n}, d={d})")

    grids = [grid_set(d0, a, i) for i in range(1, a + 1)]
    hs = []
    for J in grids:
        h = ident
        for j in J:
            h = h * chevalley_generator("h", _unit(n, j, 2), -1)
        hs.append(h)

    J1 = grids[0]
    c1 = chevalley_generator("n", _unit(n, J1[0], 2), 1)
    for j1, j2 in zip(J1, J1[1:]):
        c1 = c1 * chevalley_generator("n", _diff(n, j1, j2), 1)
    if rho(c1) != wprime(J1, n):
        raise VerificationError(
            f"c_1 does not lift w'_J on J = {J1} (n={n}, d={d})")
    for mask in range(2 ** len(J1)):
        delta = ident
        for bit, j in enumerate(J1):
            if mask >> bit & 1:
                delta = delta * chevalley_generator("h", _unit(n, j, 2), -1)
        cand = c1 * delta
        if cand * v == v * cand:
            c1 = cand
            break
    else:
        raise VerificationError("no diagonal correction makes c_1 "
                                f"centralize v (n={n}, d={d})")

    ps = []
    for k in range(1, a):
        g = chevalley_generator("n", _diff(n, k, k + 1), 1)
        pk = ident
        for i in range(d0):
            pk = pk * g.conj(v ** i)
        if rho(pk) != tau(grids[k - 1], grids[k], n):
            raise VerificationError(
                f"p_{k} does not lift the swap of grid sets {k}, {k + 1} "
                f"(n={n}, d={d})")
        if pk * pk != hs[k - 1] * hs[k]:
            raise VerificationError(
                f"p_{k}^2 != h_{k} h_{k + 1} (n={n}, d={d})")
        ps.append(pk)

    cs = [c1]
    for k in range(1, a):
        cs.append(cs[-1].conj(ps[k - 1]))
    for k, ck in enumerate(cs, start=1):
        if rho(ck) != wprime(grids[k - 1], n):
            raise VerificationError(
                f"c_{k} does not lift w'_J on grid set {k} (n={n}, d={d})")

    p_pair = {}
    for k in range(1, a + 1):
        p_pair[(k, k)] = ident
        for kp in range(k + 1, a + 1):
            conjugator = ident
            for m in range(k + 1, kp):
                conjugator = conjugator * ps[m - 1]
            p_pair[(k, kp)] = ps[k - 1].conj(conjugator)

    v_prime = ident
    for ck in cs:
        v_prime = v_prime * ck
    if v_prime * v != v * v_prime:
        raise VerificationError(
            f"v_prime does not commute with v (n={n}, d={d})")

    return TwistElements(n, d, d0, l, a, v0, v, tuple(cs), tuple(ps), p_pair,
                         tuple(hs), v_prime)


# ---------------------------------------------------------------------------
# the lifted relative Weyl group of a label
# ---------------------------------------------------------------------------

def build_VdI(label):
    """Matrix generators of V_d^I and of its diagonal subgroup H_d^I.

    Per block size s the grid-set elements h_i, c_i (i <= t_s) and p_k
    (k < t_s) are replicated across the s grid positions of every orbit
    by the injection x -> prod_j x^(eta_j), where eta_j chains the
    p-swaps taking grid set i to the j-th grid set of the i-th orbit.
    """
    te = build_twist_elements(label.n, label.d)
    n = label.n
    ident = IntMatrix.identity(2 * n)
    gens, hs = [], []
    for s, orbs in label.orbits.items():
        ts = len(orbs)
        etas = []
        for j in range(s):
            eta = ident
            for i in range(ts, 0, -1):
                eta = eta * te.p_pair[(i, orbs[i - 1].J_O[j])]
            etas.append(eta)

        def kappa(x, etas=etas):
            out = ident
            for eta in etas:
                out = out * x.conj(eta)
            return out

        for i in range(ts):
            kh = kappa(te.h[i])
            kc = kappa(te.c[i])
            if rho(kh) != SignedPerm.identity(n):
                raise VerificationError(
                    f"kappa(h_{i + 1}) is not diagonal for {label!r}")
            if rho(kc) != wprime_Q(orbs[i].Q, n):
                raise VerificationError(
                    f"kappa(c_{i + 1}) does not lift w'_Q on Q = "
                    f"{orbs[i].Q} for {label!r}")
            gens += [kh, kc]
            hs.append(kh)
        for k in range(ts - 1):
            kp = kappa(te.p[k])
            if rho(kp) != tau_Q(orbs[k].Q, orbs[k + 1].Q, n):
                raise VerificationError(
                    f"kappa(p_{k + 1}) does not lift the swap of Q = "
                    f"{orbs[k].Q} and {orbs[k + 1].Q} for {label!r}")
            gens.append(kp)
    return tuple(gens), tuple(hs)
