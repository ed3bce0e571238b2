"""Exact arithmetic in cyclotomic fields and the eigenspace subspace test.

``CycNum`` represents an element of Q(ζ_d) as a rational coefficient
vector in the power basis 1, ζ, ..., ζ^{φ(d)-1} of Q[x]/(Φ_d), where
Φ_d is built in the integers as x^d - 1 divided by the Φ_k of the
proper divisors k of d.  All arithmetic is exact.  A coefficient is an
``int`` whenever it is integral and a ``Fraction`` otherwise, so
cyclotomic integers (such as character values) never leave the
integers: Φ_d is monic, and reduction modulo it needs subtraction only.
Fractions enter only through division.  The inverse is taken by the
Galois norm: with x = den·a integral, 1/a = den·∏ σ_k(x) / N(x), the
product over the nontrivial automorphisms ζ ↦ ζ^k and N(x) a nonzero
integer, so no polynomial division over Q is needed.

On top of that the module provides the eigenspace of a signed
permutation for the eigenvalue ζ_d^k, solved exactly, and the subspace
test that recognises the root subsystems cut out by a twist element:
Φ_L passes for π at d iff

    (V(π, ζ) ∩ Φ_L^⊥)^⊥ ∩ Φ = Φ_L,

with all perps taken for the bilinear extension of the dot product.
Vectors are plain tuples of ``CycNum``; the test pairs them with
integer roots only, so a pairing needs no reduction modulo Φ_d.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .signedperm import VerificationError


# ---------------------------------------------------------------------------
# integer polynomial helpers (coefficient lists, ascending degree)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1024)
def _cyclotomic(d):
    """Coefficients of Φ_d, ascending, as a tuple of ints: x^d - 1
    divided by Φ_k for every proper divisor k of d.  Each Φ_k is monic,
    so the exact division stays in the integers.  Kept for 1024
    conductors: the test suite meets 200, a benchmark pass at most 11."""
    poly = [-1] + [0] * (d - 1) + [1]
    for k in range(1, d):
        if d % k == 0:
            divisor = _cyclotomic(k)
            m = len(divisor) - 1
            quotient = [0] * (len(poly) - m)
            for i in range(len(quotient) - 1, -1, -1):
                c = quotient[i] = poly[i + m]
                if c:
                    for j, b in enumerate(divisor, i):
                        poly[j] -= c * b
            poly = quotient
    return tuple(poly)


def _exact(c):
    """``c`` as an int when it is integral, else as a Fraction."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _pmul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


# ---------------------------------------------------------------------------
# cyclotomic numbers
# ---------------------------------------------------------------------------

class CycNum:
    """An element of Q(ζ_d) in the power basis of Q[x]/(Φ_d)."""

    __slots__ = ("d", "coeffs")

    def __init__(self, d, coeffs):
        phi = len(_cyclotomic(d)) - 1
        coeffs = tuple(_exact(c) for c in coeffs)
        if len(coeffs) != phi:
            raise ValueError(
                f"conductor {d} needs {phi} coefficients, got {len(coeffs)}")
        self.d = d
        self.coeffs = coeffs

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, d):
        return cls(d, [0] * (len(_cyclotomic(d)) - 1))

    @classmethod
    def one(cls, d):
        return cls.from_rational(1, d)

    @classmethod
    def from_rational(cls, q, d):
        phi = len(_cyclotomic(d)) - 1
        return cls(d, [q] + [0] * (phi - 1))

    @classmethod
    def _from_poly(cls, poly, d):
        """Reduce a polynomial in ζ modulo the monic Φ_d: each leading
        term c·x^k is cancelled by subtracting c·x^(k-φ)·Φ_d, so integer
        coefficients stay integers."""
        lower = _cyclotomic(d)[:-1]
        phi = len(lower)
        rem = list(poly)
        for k in range(len(rem) - 1, phi - 1, -1):
            c = rem[k]
            if c:
                for i, p in enumerate(lower, k - phi):
                    rem[i] -= c * p
        rem = rem[:phi] + [0] * (phi - len(rem))
        return cls(d, rem)

    # -- ring operations ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycNum):
            if other.d != self.d:
                raise ValueError(f"conductor mismatch: {self.d} vs {other.d}")
            return other
        if isinstance(other, (int, Fraction)):
            return CycNum.from_rational(other, self.d)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycNum(self.d, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CycNum(self.d, [-a for a in self.coeffs])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CycNum(self.d, [a * other for a in self.coeffs])
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycNum._from_poly(_pmul(self.coeffs, o.coeffs), self.d)

    __rmul__ = __mul__

    def inv(self):
        """1/a by the Galois norm.  With den the lcm of the coefficient
        denominators, x = den·a has integer coefficients, and with
        y = ∏ σ_k(x) over 1 < k < d prime to d the norm N(x) = x·y is a
        nonzero integer, so 1/a = den·y / N(x)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        if self.is_rational():
            return CycNum.from_rational(1 / Fraction(self.coeffs[0]), self.d)
        d = self.d
        den = lcm(*(Fraction(c).denominator for c in self.coeffs))
        x = CycNum(d, [c * den for c in self.coeffs])
        y = x.galois(d - 1).coeffs
        for k in range(2, d - 1):
            if gcd(k, d) == 1:
                y = CycNum._from_poly(_pmul(y, x.galois(k).coeffs), d).coeffs
        norm = CycNum._from_poly(_pmul(x.coeffs, y), d)
        if not norm.is_rational():
            raise VerificationError(
                f"norm of {self!r} from Q(ζ_{d}) is not rational: {norm!r}")
        scale = Fraction(den, norm.coeffs[0])
        return CycNum(d, [c * scale for c in y])

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __pow__(self, k):
        if k < 0:
            return self.inv() ** (-k)
        out = CycNum.one(self.d)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- structure maps -------------------------------------------------------

    def promote(self, D):
        """Embed into Q(ζ_D) along ζ_d ↦ ζ_D^{D/d}; requires d | D."""
        if D == self.d:
            return self
        if D % self.d:
            raise ValueError(f"{self.d} does not divide {D}")
        step = D // self.d
        poly = [0] * ((len(self.coeffs) - 1) * step + 1)
        for j, c in enumerate(self.coeffs):
            poly[j * step] = c
        return CycNum._from_poly(poly, D)

    def galois(self, k):
        """The Galois image ζ ↦ ζ^k; requires gcd(k, d) = 1."""
        if gcd(k, self.d) != 1:
            raise ValueError(f"ζ^{k} is not primitive modulo {self.d}")
        poly = [0] * self.d
        for j, c in enumerate(self.coeffs):
            poly[(j * k) % self.d] += c
        return CycNum._from_poly(poly, self.d)

    def conjugate(self):
        """Complex conjugation ζ ↦ ζ^{-1}."""
        if self.d <= 2:
            return self
        return self.galois(self.d - 1)

    # -- predicates and protocol ----------------------------------------------

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def is_rational(self):
        return all(c == 0 for c in self.coeffs[1:])

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycNum.from_rational(other, self.d)
        return (isinstance(other, CycNum) and self.d == other.d
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.d, self.coeffs))

    def __repr__(self):
        terms = []
        for j, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if j == 0:
                terms.append(str(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                sign = "-" if c < 0 else ("+" if terms else "")
                terms.append(f"{sign}{mag}z{self.d}" + (f"^{j}" if j > 1 else ""))
        return "".join(terms) if terms else "0"


def zeta(d, k=1):
    """ζ_d^k as a CycNum."""
    k %= d
    poly = [0] * k + [1]
    return CycNum._from_poly(poly, d)


def _nullspace(rows, ncols, d):
    """Basis of {x : R x = 0} for a matrix over Q(ζ_d), by exact RREF."""
    rows = [list(r) for r in rows if not all(c.is_zero() for c in r)]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows))
                      if not rows[i][c].is_zero()), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c].inv()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    basis = []
    one, nil = CycNum.one(d), CycNum.zero(d)
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [nil] * ncols
        v[fc] = one
        for pr, pc in enumerate(pivots):
            v[pc] = -rows[pr][fc]
        basis.append(v)
    return basis


# ---------------------------------------------------------------------------
# eigenspaces of signed permutations
# ---------------------------------------------------------------------------

def eigenspace_basis(pi, d, k=1):
    """Exact basis of {a ∈ Q(ζ_d)^n : π·a = ζ_d^k a}.

    π acts by π·e_i = ε(i) e_{bar(i)}, so on each cycle of bar(π) the
    coordinates propagate by a_{bar(i)} = ε(i) ζ^{-k} a_i and the cycle
    contributes one basis vector iff the signs multiply to ζ^{k·len}.
    """
    if gcd(k, d) != 1:
        raise ValueError(f"ζ_{d}^{k} is not a primitive root of unity")
    n = pi.n
    zinv = zeta(d, -k % d)
    basis, seen = [], set()
    for start in range(1, n + 1):
        if start in seen:
            continue
        cycle = [start]
        seen.add(start)
        p = abs(pi(start))
        while p != start:
            cycle.append(p)
            seen.add(p)
            p = abs(pi(p))
        eps = 1
        for i in cycle:
            eps *= pi.sign(i)
        if zeta(d, (k * len(cycle)) % d) != CycNum.from_rational(eps, d):
            continue
        entries = [CycNum.zero(d)] * n
        val = CycNum.one(d)
        i = start
        for _ in cycle:
            entries[i - 1] = val
            val = val * zinv * pi.sign(i)
            i = abs(pi(i))
        basis.append(tuple(entries))
    return basis


def _dot(v, root):
    """The bilinear pairing of ``v`` over Q(ζ_d) with an integer root:
    an integer combination of power-basis coefficients, which is
    already reduced modulo Φ_d."""
    acc = [0] * len(v[0].coeffs)
    for a, r in zip(v, root):
        if r:
            for i, x in enumerate(a.coeffs):
                acc[i] += r * x
    return CycNum(v[0].d, acc)


def check_eq1(pi, d, roots, ambient):
    """The exact double-perp test for a root subset against a twist.

    Computes U = V(π, ζ_d) ∩ roots^⊥ by exact linear algebra, then
    U^⊥ ∩ Φ with Φ the ``ambient`` roots, and reports whether that
    equals the input set.
    """
    roots = [tuple(r) for r in roots]
    V = eigenspace_basis(pi, d, 1)
    rows = [[_dot(b, r) for b in V] for r in roots]
    U = []
    for combo in _nullspace(rows, len(V), d):
        u = [CycNum.zero(d)] * pi.n
        for x, b in zip(combo, V):
            for i, c in enumerate(b):
                if c:
                    u[i] = u[i] + c * x
        U.append(u)
    perp = {beta for beta in ambient
            if all(_dot(u, beta).is_zero() for u in U)}
    return perp == set(roots)
