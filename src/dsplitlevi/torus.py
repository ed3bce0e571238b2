"""Twisted-torus fixed-point arithmetic over finite fields.

A diagonal torus element is a coordinate vector over a finite field,
one nonzero coordinate t_k per point of a twist orbit (the value of
h_{2e_k}(t_k)).  The twist w acts on coordinates as a signed
permutation, inverting on sign flips; composed with the q-power
Frobenius this yields the Lang map h -> h^-1 (wF)(h) on one orbit.

Everything is exact and deterministic: the field F_{p^k} is presented
by the lexicographically least monic irreducible modulus, chosen by
Rabin's irreducibility test over F_p (Rabin, SIAM J. Comput. 9, 1980),
the canonical generator is the least-encoded element of full order, and
psi is the prescribed power of that generator with
psi^(q^d0 - eps) = (-1)^d0.  The polynomial arithmetic over F_p behind
these (Rabin's test, the generator search, the exp table) is the one
kernel of :mod:`dsplitlevi.arith`.  A field past FIELD_ORDER_BOUND
elements raises InputTooLarge before any table is built.

The kernel of the Lang map is parametrised by theta (a bijection from
the cyclic group of order q^d0 - eps), z_plus is the distinguished
element with lang_map(z_plus) = theta(-1), and conj_center_action /
central_stabilizer_jump compute the orbit-cycling action on the centre
and its effect on characters, cross-checked against closed forms.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .arith import (InputTooLarge, factorint, fp_divmod, fp_gcd, fp_mul,
                    fp_powmod, isprime)
from .levi import check_odd_prime_power, compute_d0
from .signedperm import VerificationError

# Fq keeps exp/log tables with one entry per nonzero element, so field
# orders are capped (F_{3^12}, 531441 elements, takes 7.7 s and 118 MB to
# tabulate on a 2-vCPU VM).  The largest field the default grids and the
# tests use is F_{5^6} (q = 5, d = 3; 15625 elements).
FIELD_ORDER_BOUND = 2 ** 20


def _check_field_order(p, k):
    """Raise InputTooLarge, before anything is built, if p^k is past
    FIELD_ORDER_BOUND (p >= 2, so a k past the bound's bit length is)."""
    if k > FIELD_ORDER_BOUND.bit_length() or p ** k > FIELD_ORDER_BOUND:
        raise InputTooLarge(
            f"field of order {p}^{k} is past the bound "
            f"{FIELD_ORDER_BOUND} on field order")


def _digits(code, p, k):
    out = []
    for _ in range(k):
        out.append(code % p)
        code //= p
    return tuple(out)


def _is_irreducible(f, p):
    """Rabin's test for a monic f of degree k over F_p: x^(p^k) = x
    mod f, and gcd(x^(p^(k/r)) - x, f) = 1 for every prime r | k."""
    k = len(f) - 1
    frob = [fp_divmod([0, 1], f, p)[1]]      # frob[j] = x^(p^j) mod f
    for _ in range(k):
        frob.append(fp_powmod(frob[-1], p, f, p))
    if frob[k] != frob[0]:
        return False
    for r in factorint(k):            # k >= 2 here, so x mod f is x
        g = frob[k // r] + [0, 0]
        g[1] -= 1
        if len(fp_gcd(g, f, p)) > 1:
            return False
    return True


# 64 moduli are kept; the test suite needs 6, a benchmark pass 3.
@lru_cache(maxsize=64)
def _least_irreducible(p, k):
    for code in range(p ** k):
        coeffs = _digits(code, p, k) + (1,)
        if _is_irreducible(coeffs, p):
            return coeffs
    raise VerificationError(f"no irreducible polynomial (p = {p}, k = {k})")


class FqElem:
    """Element of Fq, stored as little-endian coefficient tuple."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs

    def is_zero(self):
        return not any(self.coeffs)

    def __add__(self, other):
        self.field._check(other)
        p = self.field.p
        return FqElem(self.field, tuple(
            (a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        p = self.field.p
        return FqElem(self.field, tuple((-a) % p for a in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self.field._check(other)
        if self.is_zero() or other.is_zero():
            return self.field.zero()
        f = self.field
        i = (f._log[self.coeffs] + f._log[other.coeffs]) % f._N
        return FqElem(f, f._exp[i])

    def inv(self):
        if self.is_zero():
            raise ZeroDivisionError("zero has no inverse")
        f = self.field
        return FqElem(f, f._exp[(-f._log[self.coeffs]) % f._N])

    def __pow__(self, e):
        f = self.field
        if self.is_zero():
            if e > 0:
                return self
            raise ZeroDivisionError("zero to a non-positive power")
        return FqElem(f, f._exp[(f._log[self.coeffs] * e) % f._N])

    def order(self):
        if self.is_zero():
            raise ZeroDivisionError("zero has no multiplicative order")
        f = self.field
        return f._N // gcd(f._log[self.coeffs], f._N)

    def to_int(self):
        code = 0
        for c in reversed(self.coeffs):
            code = code * self.field.p + c
        return code

    def _key(self):
        return (self.field.p, self.field.k, self.coeffs)

    def __eq__(self, other):
        return isinstance(other, FqElem) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"FqElem({self.field.p}^{self.field.k}, {self.to_int()})"


class Fq:
    """The field F_{p^k}, p an odd prime, with deterministic presentation.

    The modulus is the lexicographically least monic irreducible of
    degree k (coefficients compared low-degree first, irreducibility by
    Rabin's test); exp/log tables for the least full-order element make
    all arithmetic O(1), so the order p^k is at most FIELD_ORDER_BOUND.
    """

    def __init__(self, p, k):
        if k < 1:
            raise ValueError("extension degree must be positive")
        _check_field_order(p, k)
        if p % 2 == 0 or not isprime(p):
            raise ValueError(f"base must be an odd prime, got {p}")
        self.p, self.k = p, k
        self.order = p ** k
        self.poly = _least_irreducible(p, k)
        self._N = self.order - 1

        g0 = self._find_generator()
        g = fp_divmod(g0, self.poly, p)[1]          # g0, trimmed
        exp, cur = [(1,) + (0,) * (k - 1)], [1]
        for _ in range(self._N - 1):
            cur = fp_divmod(fp_mul(cur, g, p), self.poly, p)[1]
            exp.append(tuple(cur) + (0,) * (k - len(cur)))
        self._exp = exp
        self._log = {c: i for i, c in enumerate(exp)}
        self._gen = FqElem(self, g0)

    def _find_generator(self):
        primes = list(factorint(self._N))
        for code in range(2, self.order):
            c = _digits(code, self.p, self.k)
            if any(c) and all(fp_powmod(c, self._N // r, self.poly, self.p)
                              != [1] for r in primes):
                return c
        raise VerificationError(f"no generator (p = {self.p}, k = {self.k})")

    def _check(self, other):
        if not isinstance(other, FqElem) or other.field.p != self.p \
                or other.field.k != self.k:
            raise ValueError("mixed-field arithmetic")

    def zero(self):
        return FqElem(self, (0,) * self.k)

    def one(self):
        return FqElem(self, tuple([1] + [0] * (self.k - 1)))

    def from_int(self, code):
        if not 0 <= code < self.order:
            raise ValueError(f"code out of range: {code}")
        return FqElem(self, _digits(code, self.p, self.k))

    def canonical_generator(self):
        """The least-encoded element of full multiplicative order."""
        return self._gen

    def elements(self):
        return [self.from_int(code) for code in range(self.order)]

    def nonzero_elements(self):
        return [self.from_int(code) for code in range(1, self.order)]


# 16 fields are kept, as each holds tables of up to FIELD_ORDER_BOUND
# entries; the test suite builds 6, a benchmark pass 3.
@lru_cache(maxsize=16)
def _field(p, k):
    return Fq(p, k)


class TorusElem:
    """Coordinate vector of a diagonal torus element on an orbit."""

    __slots__ = ("coords", "_key")

    def __init__(self, coords):
        for k, v in coords.items():
            if v.is_zero():
                raise ValueError(f"torus coordinate {k} is zero")
        self.coords = dict(coords)
        self._key = tuple(sorted(
            (k, v.field.p, v.field.k, v.coeffs)
            for k, v in self.coords.items()))

    def _match(self, other):
        if set(self.coords) != set(other.coords):
            raise ValueError("mismatched orbit supports")

    def __mul__(self, other):
        self._match(other)
        return TorusElem({k: v * other.coords[k]
                          for k, v in self.coords.items()})

    def inv(self):
        return TorusElem({k: v.inv() for k, v in self.coords.items()})

    def __pow__(self, e):
        return TorusElem({k: v ** e for k, v in self.coords.items()})

    def __eq__(self, other):
        return isinstance(other, TorusElem) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        inner = ", ".join(f"{k}: {v.to_int()}"
                          for k, v in sorted(self.coords.items()))
        return f"TorusElem({{{inner}}})"


class TwistedOrbit:
    """One twist orbit of torus coordinates at parameters (q, d).

    Carries the cyclically ordered points (default 1..d0), the working
    field F_{q^{2 d0}}, the sign eps = (-1)^(d+1), the kernel order
    N = q^d0 - eps, and the distinguished root psi with
    psi^N = (-1)^d0.
    """

    def __init__(self, q, d, points=None):
        self.p, self.m = check_odd_prime_power(q)
        self.q, self.d = q, d
        self.d0 = compute_d0(d)
        _check_field_order(self.p, self.m * 2 * self.d0)
        self.epsilon = -1 if d % 2 == 0 else 1
        self.N = q ** self.d0 - self.epsilon
        if points is None:
            points = tuple(range(1, self.d0 + 1))
        points = tuple(points)
        if len(points) != self.d0 or len(set(points)) != self.d0 \
                or any(pt < 1 for pt in points):
            raise ValueError(f"need {self.d0} distinct positive points")
        self.points = points
        self.field = _field(self.p, self.m * 2 * self.d0)
        if self.d0 % 2 == 0:
            e = q ** self.d0 - 1
        elif d % 2 == 0:
            e = (q ** self.d0 - 1) // 2
        else:
            e = (q ** self.d0 + 1) // 2
        self.psi = self.field.canonical_generator() ** e
        sign = self.field.one() if self.d0 % 2 == 0 else -self.field.one()
        if self.psi ** self.N != sign:
            raise ValueError("field tower too small for psi")

    def identity(self):
        one = self.field.one()
        return TorusElem({k: one for k in self.points})


def lang_map(h, orbit):
    """h^-1 (wF)(h) on one orbit, via the coordinate recurrences."""
    if set(h.coords) != set(orbit.points):
        raise ValueError("element not supported on the orbit")
    q, d0 = orbit.q, orbit.d0
    u = [h.coords[pt] for pt in orbit.points]
    out = {}
    pts = orbit.points
    if orbit.d % 2 == 0:
        out[pts[0]] = u[d0 - 1] ** (-q) * u[0].inv()
        for j in range(1, d0):
            out[pts[j]] = u[j - 1] ** q * u[j].inv()
    elif d0 == 1:
        out[pts[0]] = u[0] ** (q - 1)
    else:
        out[pts[0]] = u[d0 - 2] ** (-q) * u[0].inv()
        out[pts[1]] = u[d0 - 1] ** (-q) * u[1].inv()
        for j in range(2, d0):
            out[pts[j]] = u[j - 2] ** q * u[j].inv()
    return TorusElem(out)


def theta(orbit, t):
    """The bijection C_{q^d0 - eps} -> ker(lang_map), coordinatewise."""
    if not isinstance(t, FqElem) or t.is_zero() \
            or t ** orbit.N != orbit.field.one():
        raise ValueError(f"theta needs t with t^{orbit.N} = 1")
    q, d0 = orbit.q, orbit.d0
    coords = {}
    for j, pt in enumerate(orbit.points):
        if orbit.d % 2 == 0:
            coords[pt] = t ** (q ** j)
        elif j % 2 == 0:
            coords[pt] = t ** (q ** (j // 2))
        else:
            coords[pt] = t ** (-(q ** ((d0 + j) // 2)))
    return TorusElem(coords)


def z_plus(orbit):
    """The distinguished element with lang_map(z_plus) = theta(-1)."""
    q, d0, psi = orbit.q, orbit.d0, orbit.psi
    one = orbit.field.one()
    minus = -one
    coords = {}
    for j, pt in enumerate(orbit.points):
        if d0 % 2 == 0:
            coords[pt] = one if j % 2 == 0 else minus
        elif orbit.d % 2 == 0:
            sign = one if j % 2 == 0 else minus
            coords[pt] = sign * psi ** (q ** j)
        elif j % 2 == 0:
            sign = one if (j // 2) % 2 == 0 else minus
            coords[pt] = sign * psi ** (q ** (j // 2))
        else:
            sign = one if ((d0 + j) // 2) % 2 == 0 else minus
            coords[pt] = sign * psi ** (-(q ** ((d0 + j) // 2)))
    out = TorusElem(coords)
    if lang_map(out, orbit) != theta(orbit, minus):
        raise VerificationError(
            f"Lang image of z_plus is not theta(-1) (q={q}, d={orbit.d})")
    return out


def _conj_action(h, orbit):
    """Action of the inverse orbit cycle: coordinates shift down one
    slice, the last one receiving the inverted first coordinate."""
    pts = orbit.points
    coords = {pts[j]: h.coords[pts[j + 1]] for j in range(orbit.d0 - 1)}
    coords[pts[orbit.d0 - 1]] = h.coords[pts[0]].inv()
    return TorusElem(coords)


def conj_center_action(orbit):
    """Concrete cycling action on the centre generators, checked
    against the closed-form exponents, returned as a description."""
    q, d0, N = orbit.q, orbit.d0, orbit.N
    zp = z_plus(orbit)
    act_zp = _conj_action(zp, orbit)
    if d0 % 2 == 0:
        gen = theta(orbit, orbit.psi)
        if _conj_action(gen, orbit) != theta(orbit, orbit.psi ** q):
            raise VerificationError(
                f"cycling does not raise theta(psi) to the power q = {q} "
                f"(d={orbit.d}, N={N})")
        if act_zp != zp * theta(orbit, orbit.psi ** (N // 2)):
            raise VerificationError(
                f"cycling does not multiply z_plus by theta(psi^(N/2)) "
                f"(q={q}, d={orbit.d}, N={N})")
        return {"d0_parity": "even", "theta_exponent": q,
                "z_plus_picks_up": N // 2}
    if orbit.d % 2 == 0:
        m = q + q ** d0 + 1
    else:
        m = ((d0 + 1) // 2) * (q ** d0 - 1) - q ** ((d0 + 1) // 2)
    if act_zp != zp ** m:
        raise VerificationError(
            f"cycling does not raise z_plus to the power {m} "
            f"(q={q}, d={orbit.d}, N={N})")
    if zp ** (2 * N) != orbit.identity() or zp ** N == orbit.identity():
        raise VerificationError(
            f"z_plus does not have order 2N = {2 * N} (q={q}, d={orbit.d})")
    return {"d0_parity": "odd", "z_plus_order": 2 * N,
            "exponent": m % (2 * N),
            "commutator_exponent": (m - 1) % (2 * N)}


def central_stabilizer_jump(orbit, eta_order):
    """Whether a character of order eta_order on the cyclic centre is
    fixed by the cycling action yet pairs nontrivially with the
    commutator [x^-1, z_plus] (the stabilizer-jump criterion)."""
    if eta_order < 1 or orbit.N % eta_order:
        raise ValueError(f"order {eta_order} does not divide {orbit.N}")
    t0 = orbit.psi if orbit.d0 % 2 == 0 else orbit.psi ** 2
    z_gen = theta(orbit, t0)
    act_gen = _conj_action(z_gen, orbit)
    zp = z_plus(orbit)
    comm = _conj_action(zp, orbit) * zp.inv()
    M = next(mm for mm in range(orbit.N)
             if act_gen == theta(orbit, t0 ** mm))
    c = next(cc for cc in range(orbit.N)
             if comm == theta(orbit, t0 ** cc))
    return (M - 1) % eta_order == 0 and c % eta_order != 0
