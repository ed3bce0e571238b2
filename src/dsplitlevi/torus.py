"""Twisted-torus fixed points on discrete logarithms.

A diagonal torus element is a tuple of nonzero coordinates t_k over
F_{q^{2 d0}}, one per point of a twist orbit in orbit order (the value
of h_{2e_k}(t_k)).  The twist w acts on coordinates as a signed
permutation, inverting on sign flips; composed with the q-power
Frobenius this yields the Lang map h -> h^-1 (wF)(h) on one orbit.

Every statement checked here lives in the multiplicative group of
F_{q^{2 d0}}, which is cyclic of order M = q^{2 d0} - 1 (Lidl &
Niederreiter, *Finite Fields*, Thm 2.8), and none uses field addition.
So an element is stored as its discrete log a mod M to an abstract
generator g: a product is a sum of logs, a power a multiple and an
inverse a negation.  The q-power Frobenius multiplies the log by q,
-1 is g^(M/2), and psi = g^e with psi^(q^d0 - eps) = (-1)^d0.  No
modulus, generator or table is built.  A field past FIELD_ORDER_BOUND
elements raises InputTooLarge before any element is formed.  The Lang
map itself is lang_logs, on tuples of logs; lang_map is its wrapper for
TorusElem, so a walk over every coordinate tuple (``verify torus``)
runs on plain integers through the same formula.

The kernel of the Lang map is parametrised by theta (a bijection from
the cyclic group of order q^d0 - eps), z_plus is the distinguished
element with lang_map(z_plus) = theta(-1), and conj_center_action /
central_stabilizer_jump compute the orbit-cycling action on the centre
and its effect on characters, cross-checked against closed forms.
"""

from __future__ import annotations

from math import gcd

from .arith import InputTooLarge
from .levi import check_odd_prime_power, compute_d0
from .signedperm import VerificationError

# Nothing is tabulated, but `verify torus` walks all q^(2 d0) - 1
# logs of units in each coordinate, and central_stabilizer_jump
# searches up to q^d0 + 1 exponents twice per call, so field orders are
# capped.  The largest field the default grids and the tests use is
# F_{5^6} (q = 5, d = 3; 15625 elements).
FIELD_ORDER_BOUND = 2 ** 20


def _check_field_order(p, k):
    """Raise InputTooLarge, before anything is built, if p^k is past
    FIELD_ORDER_BOUND (p >= 2, so a k past the bound's bit length is)."""
    if k > FIELD_ORDER_BOUND.bit_length() or p ** k > FIELD_ORDER_BOUND:
        raise InputTooLarge(
            f"field of order {p}^{k} is past the bound "
            f"{FIELD_ORDER_BOUND} on field order")


class FqElem:
    """The nonzero field element g^log, where g generates the cyclic
    group of order M of the field's units and log is taken mod M."""

    __slots__ = ("log", "M")

    def __init__(self, log, M):
        self.log = log % M
        self.M = M

    def __mul__(self, other):
        if not isinstance(other, FqElem) or other.M != self.M:
            raise ValueError("mixed-field arithmetic")
        return FqElem(self.log + other.log, self.M)

    def __neg__(self):
        # -1 is the one element of order two, g^(M/2); M is even.
        return FqElem(self.log + self.M // 2, self.M)

    def inv(self):
        return FqElem(-self.log, self.M)

    def __pow__(self, e):
        return FqElem(self.log * e, self.M)

    def order(self):
        return self.M // gcd(self.log, self.M)

    def __eq__(self, other):
        return (isinstance(other, FqElem) and self.log == other.log
                and self.M == other.M)

    def __hash__(self):
        return hash((self.log, self.M))

    def __repr__(self):
        return f"FqElem(g^{self.log}, M={self.M})"


class TorusElem:
    """Coordinates of a diagonal torus element on one orbit, in orbit
    order."""

    __slots__ = ("coords", "_key")

    def __init__(self, coords):
        self.coords = tuple(coords)
        self._key = tuple([(v.log, v.M) for v in self.coords])

    def __mul__(self, other):
        if len(self.coords) != len(other.coords):
            raise ValueError("mismatched orbit supports")
        return TorusElem([a * b for a, b in zip(self.coords, other.coords)])

    def inv(self):
        return TorusElem([v.inv() for v in self.coords])

    def __pow__(self, e):
        return TorusElem([v ** e for v in self.coords])

    def __eq__(self, other):
        return isinstance(other, TorusElem) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def logs(self):
        """The discrete logs of the coordinates, as lang_logs takes them."""
        return tuple([v.log for v in self.coords])

    def __repr__(self):
        return f"TorusElem({self.coords!r})"


class TwistedOrbit:
    """One twist orbit of d0 torus coordinates at parameters (q, d).

    Carries the working field F_{q^{2 d0}} as the order M of its units,
    the sign eps = (-1)^(d+1), the kernel order N = q^d0 - eps, and the
    distinguished root psi with psi^N = (-1)^d0.
    """

    def __init__(self, q, d):
        self.p, self.m = check_odd_prime_power(q)
        self.q, self.d = q, d
        self.d0 = compute_d0(d)
        _check_field_order(self.p, self.m * 2 * self.d0)
        self.epsilon = -1 if d % 2 == 0 else 1
        self.N = q ** self.d0 - self.epsilon
        self.M = q ** (2 * self.d0) - 1
        self.one = FqElem(0, self.M)
        if self.d0 % 2 == 0:
            e = q ** self.d0 - 1
        elif d % 2 == 0:
            e = (q ** self.d0 - 1) // 2
        else:
            e = (q ** self.d0 + 1) // 2
        self.psi = FqElem(e, self.M)
        sign = self.one if self.d0 % 2 == 0 else -self.one
        if self.psi ** self.N != sign:
            raise VerificationError(
                f"psi^{self.N} is not (-1)^{self.d0} (q={q}, d={d})")

    def units(self):
        """Every nonzero element of the field, g^0, g^1, ..., g^(M-1)."""
        return [FqElem(a, self.M) for a in range(self.M)]

    def identity(self):
        return TorusElem((self.one,) * self.d0)


def lang_logs(u, orbit):
    """h^-1 (wF)(h) on one orbit, on the tuple u of discrete logs of h's
    coordinates: the one Lang map of the module.  Coordinate j of
    (wF)(h) is the q-th power of coordinate j - 1 (j - 2 for odd d),
    inverted where the twist wraps round the orbit with a sign flip, or
    of coordinate j itself when an odd-d orbit has one point; a product
    is a sum of logs, a power a multiple and an inverse a negation."""
    q, d0 = orbit.q, orbit.d0
    if len(u) != d0:
        raise ValueError("element not supported on the orbit")
    if orbit.d % 2 == 0:
        prev = (-u[d0 - 1],) + u[:d0 - 1]
    elif d0 == 1:
        prev = u
    else:
        prev = (-u[d0 - 2], -u[d0 - 1]) + u[:d0 - 2]
    M = orbit.M
    return tuple([(q * a - b) % M for a, b in zip(prev, u)])


def lang_map(h, orbit):
    """lang_logs on a torus element over the orbit's field."""
    M = orbit.M
    if any(v.M != M for v in h.coords):
        raise ValueError("mixed-field arithmetic")
    return TorusElem([FqElem(a, M) for a in lang_logs(h.logs(), orbit)])


def theta(orbit, t):
    """The bijection C_{q^d0 - eps} -> ker(lang_map), coordinatewise."""
    if not isinstance(t, FqElem) or t ** orbit.N != orbit.one:
        raise ValueError(f"theta needs t with t^{orbit.N} = 1")
    q, d0 = orbit.q, orbit.d0
    coords = []
    for j in range(d0):
        if orbit.d % 2 == 0:
            coords.append(t ** (q ** j))
        elif j % 2 == 0:
            coords.append(t ** (q ** (j // 2)))
        else:
            coords.append(t ** (-(q ** ((d0 + j) // 2))))
    return TorusElem(coords)


def z_plus(orbit):
    """The distinguished element with lang_map(z_plus) = theta(-1)."""
    q, d0, psi = orbit.q, orbit.d0, orbit.psi
    one = orbit.one
    minus = -one
    coords = []
    for j in range(d0):
        if d0 % 2 == 0:
            coords.append(one if j % 2 == 0 else minus)
        elif orbit.d % 2 == 0:
            sign = one if j % 2 == 0 else minus
            coords.append(sign * psi ** (q ** j))
        elif j % 2 == 0:
            sign = one if (j // 2) % 2 == 0 else minus
            coords.append(sign * psi ** (q ** (j // 2)))
        else:
            sign = one if ((d0 + j) // 2) % 2 == 0 else minus
            coords.append(sign * psi ** (-(q ** ((d0 + j) // 2))))
    out = TorusElem(coords)
    if lang_map(out, orbit) != theta(orbit, minus):
        raise VerificationError(
            f"Lang image of z_plus is not theta(-1) (q={q}, d={orbit.d})")
    return out


def _conj_action(h):
    """Action of the inverse orbit cycle: coordinates shift down one
    slice, the last one receiving the inverted first coordinate."""
    return TorusElem(h.coords[1:] + (h.coords[0].inv(),))


def conj_center_action(orbit):
    """Concrete cycling action on the centre generators, checked
    against the closed-form exponents, returned as a description."""
    q, d0, N = orbit.q, orbit.d0, orbit.N
    zp = z_plus(orbit)
    act_zp = _conj_action(zp)
    if d0 % 2 == 0:
        gen = theta(orbit, orbit.psi)
        if _conj_action(gen) != theta(orbit, orbit.psi ** q):
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


def central_stabilizer_jump(orbit, eta_orders):
    """For each order in the sequence eta_orders, whether a character
    of that order on the cyclic centre is fixed by the cycling action
    yet pairs nontrivially with the commutator [x^-1, z_plus] (the
    stabilizer-jump criterion).  The two discrete logs it reads depend
    on the orbit alone, so they are found once per call."""
    for o in eta_orders:
        if o < 1 or orbit.N % o:
            raise ValueError(f"order {o} does not divide {orbit.N}")
    t0 = orbit.psi if orbit.d0 % 2 == 0 else orbit.psi ** 2
    z_gen = theta(orbit, t0)
    act_gen = _conj_action(z_gen)
    zp = z_plus(orbit)
    comm = _conj_action(zp) * zp.inv()

    def log_in_kernel(h, name):
        for k in range(orbit.N):
            if h == theta(orbit, t0 ** k):
                return k
        raise VerificationError(
            f"{name} is not in the image of theta (q={orbit.q}, "
            f"d={orbit.d}, N={orbit.N})")

    M = log_in_kernel(act_gen, "the cycled centre generator")
    c = log_in_kernel(comm, "the commutator with z_plus")
    return tuple((M - 1) % o == 0 and c % o != 0 for o in eta_orders)
