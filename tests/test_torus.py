"""Tests for twisted-torus fixed-point arithmetic on discrete logs.

Field elements are discrete logs to an abstract generator; the Lang
map, the kernel parametrisation theta, the square root z_plus and the
cycling action on the centre are checked against hand-computed values
at q = 3 and by full enumeration on small grids.
"""

import itertools

import pytest

from dsplitlevi import torus
from dsplitlevi.arith import InputTooLarge
from dsplitlevi.signedperm import VerificationError
from dsplitlevi.torus import (
    FIELD_ORDER_BOUND,
    FqElem,
    TorusElem,
    TwistedOrbit,
    central_stabilizer_jump,
    conj_center_action,
    lang_logs,
    lang_map,
    theta,
    z_plus,
)


class TestFq:
    """F_9^x on discrete logs: g = FqElem(1, 8) generates it."""

    def test_pow_and_order(self):
        g, one = FqElem(1, 8), FqElem(0, 8)
        assert g ** 8 == one
        assert g ** -1 == g.inv()
        assert (g ** 4).order() == 2
        assert g ** 4 == -one               # -1 is g^(M/2)
        assert g.order() == 8 and one.order() == 1

    def test_field_axioms_f9(self):
        # The multiplicative axioms: F_9^x is an abelian group.
        els = [FqElem(a, 8) for a in range(8)]
        one = FqElem(0, 8)
        assert len(set(els)) == 8
        for a, b in itertools.product(els, repeat=2):
            assert a * b == b * a
            assert a * b in els
        for a, b, c in itertools.product(els, repeat=3):
            assert (a * b) * c == a * (b * c)
        for a in els:
            assert a * one == a and a * a.inv() == one
            assert -(-a) == a and -a == a * -one
        with pytest.raises(ValueError, match="mixed-field"):
            els[1] * FqElem(1, 80)

    def test_rejects_even_characteristic(self):
        # The working field F_{q^(2 d0)} is never of characteristic 2.
        for q in (2, 4, 8):
            with pytest.raises(ValueError):
                TwistedOrbit(q, 1)

    def test_field_order_bound(self):
        assert 5 ** 6 <= FIELD_ORDER_BOUND < 101 ** 6
        for p, k in ((101, 6), (3, 10 ** 9), (10 ** 30 + 57, 1)):
            with pytest.raises(InputTooLarge, match="bound"):
                torus._check_field_order(p, k)
        torus._check_field_order(3, 12)


class TestTwistedOrbit:
    def test_q3_d2(self):
        orb = TwistedOrbit(3, 2)
        assert orb.d0 == 1 and orb.epsilon == -1 and orb.N == 4
        assert orb.M == 8                   # F_9^x
        assert orb.psi == FqElem(1, 8) and orb.psi.order() == 8

    def test_q3_d1(self):
        orb = TwistedOrbit(3, 1)
        assert orb.d0 == 1 and orb.epsilon == 1 and orb.N == 2
        g = FqElem(1, orb.M)
        assert orb.psi == g * g and orb.psi.order() == 4

    def test_q3_d4(self):
        orb = TwistedOrbit(3, 4)
        assert orb.d0 == 2 and orb.N == 10
        assert orb.M == 80                  # F_81^x
        assert orb.identity() == TorusElem((orb.one, orb.one))
        g = FqElem(1, orb.M)
        assert orb.psi == g ** 8 and orb.psi.order() == 10

    def test_psi_defining_identity(self):
        for q, d in itertools.product((3, 5), (1, 2, 3, 4)):
            orb = TwistedOrbit(q, d)
            sign = orb.one if orb.d0 % 2 == 0 else -orb.one
            assert orb.psi ** orb.N == sign

    def test_units(self):
        orb = TwistedOrbit(3, 2)
        units = orb.units()
        assert len(set(units)) == orb.M == 8
        assert units[0] == orb.one and units[1].order() == 8

    def test_q_validation(self):
        with pytest.raises(ValueError):
            TwistedOrbit(4, 2)
        with pytest.raises(ValueError):
            TwistedOrbit(15, 2)
        TwistedOrbit(9, 2)

    def test_field_order_bound(self, monkeypatch):
        def no_element(*args):
            raise RuntimeError("field element built")
        monkeypatch.setattr(torus, "FqElem", no_element)
        for q, d in ((101, 3), (3, 10 ** 9), (2 ** 64 + 1, 1)):
            with pytest.raises(InputTooLarge, match="bound"):
                TwistedOrbit(q, d)


class TestTorusElem:
    def test_pointwise_product(self):
        g, one = FqElem(1, 8), FqElem(0, 8)
        a = TorusElem((g, g ** 3))
        assert a * a == TorusElem((g * g, g ** 6))
        assert a * a.inv() == TorusElem((one, one))
        assert a ** 3 == a * a * a
        with pytest.raises(ValueError):
            a * TorusElem((g,))


def lang_kernel(orb):
    """ker(lang_map) by walking every coordinate tuple."""
    ident = orb.identity()
    return {h for h in map(TorusElem, itertools.product(orb.units(),
                                                        repeat=orb.d0))
            if lang_map(h, orb) == ident}


def nth_roots(orb):
    return [t for t in orb.units() if t ** orb.N == orb.one]


class TestLangMap:
    def test_identity_killed(self):
        orb = TwistedOrbit(3, 2)
        assert lang_map(orb.identity(), orb) == orb.identity()

    def test_fixed_points_q3_d2(self):
        orb = TwistedOrbit(3, 2)
        fixed = [t for t in orb.units()
                 if lang_map(TorusElem((t,)), orb) == orb.identity()]
        assert len(fixed) == 4
        assert all(t ** 4 == orb.one for t in fixed)

    def test_psi_maps_to_z(self):
        orb = TwistedOrbit(3, 2)
        image = lang_map(TorusElem((orb.psi,)), orb)
        assert image == theta(orb, -orb.one)

    def test_unsupported_coordinates(self):
        orb = TwistedOrbit(3, 2)
        with pytest.raises(ValueError):
            lang_map(TorusElem((orb.one, orb.one)), orb)

    def test_wrapper_is_the_log_map(self):
        # lang_map is lang_logs on the coordinates' logs, on every orbit
        # shape: even d, odd d with one point, odd d with d0 >= 3.
        for q, d in ((3, 1), (3, 2), (3, 3), (3, 4), (5, 6)):
            orb = TwistedOrbit(q, d)
            for k in range(5):
                u = tuple((7 * k + 3 * j + 1) % orb.M for j in range(orb.d0))
                h = TorusElem([FqElem(a, orb.M) for a in u])
                assert lang_map(h, orb).logs() == lang_logs(u, orb), (q, d)

    def test_q3_d4_by_hand(self):
        # d even, d0 = 2: (u0, u1) -> (-3 u1 - u0, 3 u0 - u1) mod 80.
        orb = TwistedOrbit(3, 4)
        assert lang_logs((1, 2), orb) == (73, 1)
        assert lang_logs((0, 0), orb) == (0, 0)

    def test_other_field_rejected(self):
        orb = TwistedOrbit(3, 2)
        with pytest.raises(ValueError, match="mixed-field"):
            lang_map(TorusElem((FqElem(1, 80),)), orb)
        with pytest.raises(ValueError, match="not supported"):
            lang_logs((0, 0), orb)

    def test_kernel_count_small_grid(self):
        for q, d in ((3, 1), (3, 2), (3, 4), (5, 1), (5, 2)):
            orb = TwistedOrbit(q, d)
            assert len(lang_kernel(orb)) == orb.N


class TestTheta:
    def test_one_maps_to_identity(self):
        orb = TwistedOrbit(3, 2)
        assert theta(orb, orb.one) == orb.identity()

    def test_minus_one_is_z(self):
        for q, d in itertools.product((3, 5), (1, 2, 3, 4)):
            orb = TwistedOrbit(q, d)
            z = theta(orb, -orb.one)
            assert z.coords == (-orb.one,) * orb.d0

    def test_bijection_onto_kernel(self):
        for q, d in ((3, 1), (3, 2), (3, 4), (5, 2)):
            orb = TwistedOrbit(q, d)
            roots = nth_roots(orb)
            image = {theta(orb, t) for t in roots}
            assert len(image) == len(roots) == orb.N
            assert image == lang_kernel(orb)

    def test_image_in_kernel_beyond_enumeration(self):
        # d0 >= 3, where the kernel is not enumerated: theta lands in it,
        # injectively.
        for q, d in ((3, 3), (5, 3), (3, 5), (3, 6)):
            orb = TwistedOrbit(q, d)
            assert orb.d0 >= 3
            image = {theta(orb, t) for t in nth_roots(orb)}
            assert len(image) == orb.N
            assert all(lang_map(h, orb) == orb.identity() for h in image)

    def test_order_condition_enforced(self):
        orb = TwistedOrbit(3, 2)
        with pytest.raises(ValueError):
            theta(orb, FqElem(1, orb.M))
        with pytest.raises(ValueError):
            theta(orb, FqElem(0, 80))           # a unit of another field


class TestZPlus:
    def test_q3_d2_is_psi(self):
        orb = TwistedOrbit(3, 2)
        assert z_plus(orb) == TorusElem((orb.psi,))

    def test_lang_of_z_plus_is_z(self):
        for q, d in itertools.product((3, 5), (1, 2, 3, 4)):
            orb = TwistedOrbit(q, d)
            assert lang_map(z_plus(orb), orb) == theta(orb, -orb.one)

    def test_wrong_lang_image_raises(self, monkeypatch):
        # z_plus checks its own Lang image against theta(-1).
        monkeypatch.setattr(torus, "lang_map", lambda h, orbit: h)
        for q, d in ((3, 1), (3, 2), (3, 4)):
            with pytest.raises(VerificationError, match="z_plus"):
                z_plus(TwistedOrbit(q, d))

    def test_square_trivial_when_d0_even(self):
        for q in (3, 5):
            orb = TwistedOrbit(q, 4)
            zp = z_plus(orb)
            assert zp * zp == orb.identity()

    def test_square_generates_kernel_when_d0_odd(self):
        orb = TwistedOrbit(3, 2)
        zp = z_plus(orb)
        sq = zp * zp
        powers = set()
        cur = orb.identity()
        for _ in range(orb.N):
            powers.add(cur)
            cur = cur * sq
        assert powers == {theta(orb, t) for t in nth_roots(orb)}


class TestConjCenterAction:
    def test_q3_d2_inversion(self):
        orb = TwistedOrbit(3, 2)
        res = conj_center_action(orb)
        assert res["d0_parity"] == "odd"
        assert res["exponent"] == 7          # q + q^{d0} + 1
        assert res["commutator_exponent"] == 6
        assert res["z_plus_order"] == 8

    def test_d1_identity_twist(self):
        orb = TwistedOrbit(3, 1)
        res = conj_center_action(orb)
        assert res["d0_parity"] == "odd"
        assert res["z_plus_order"] == 4
        assert res["exponent"] == 3          # reduces to inversion on C_4
        assert res["commutator_exponent"] == 2

    def test_d0_even_form(self):
        for q in (3, 5):
            orb = TwistedOrbit(q, 4)
            res = conj_center_action(orb)
            assert res["d0_parity"] == "even"
            assert res["theta_exponent"] == q
            assert res["z_plus_picks_up"] == orb.N // 2

    def test_closed_forms_verified_on_grid(self):
        # conj_center_action internally asserts the concrete coordinate
        # action equals the closed-form exponents; run the whole grid.
        for q, d in itertools.product((3, 5), (1, 2, 3, 4)):
            conj_center_action(TwistedOrbit(q, d))


class TestCentralStabilizerJump:
    def test_q3_d2_examples(self):
        orb = TwistedOrbit(3, 2)
        jumps = central_stabilizer_jump(orb, [2, 1, 4])
        assert len(jumps) == 3
        assert jumps[0] is True
        assert jumps[1] is False
        assert jumps[2] is False
        assert central_stabilizer_jump(orb, []) == ()

    def test_invalid_order(self):
        orb = TwistedOrbit(3, 2)
        with pytest.raises(ValueError):
            central_stabilizer_jump(orb, [3])
        with pytest.raises(ValueError):
            central_stabilizer_jump(orb, [2, 3])

    def test_jump_iff_order_two_on_grid(self):
        for q, d in itertools.product((3, 5), (1, 2, 3, 4)):
            orb = TwistedOrbit(q, d)
            divisors = [o for o in range(1, orb.N + 1) if orb.N % o == 0]
            jumps = central_stabilizer_jump(orb, divisors)
            assert len(jumps) == len(divisors), (q, d)
            for o, jump in zip(divisors, jumps):
                assert jump is (o == 2), (q, d, o)

    def test_action_outside_the_kernel_raises(self, monkeypatch):
        # A cycling action that moves the centre generator off the image
        # of theta (by the generator g in every coordinate) has no log.
        def shifted(h):
            return h * TorusElem([FqElem(1, v.M) for v in h.coords])

        monkeypatch.setattr(torus, "_conj_action", shifted)
        for q, d in ((3, 2), (3, 4)):
            with pytest.raises(VerificationError,
                               match="centre generator is not in the image"):
                central_stabilizer_jump(TwistedOrbit(q, d), [1, 2])

    def test_logs_are_found_once_per_call(self, monkeypatch):
        # theta is evaluated for t0 and then once per exponent tried by
        # each of the two discrete-log searches, however many orders
        # are asked about.
        orb = TwistedOrbit(9, 3)
        divisors = [o for o in range(1, orb.N + 1) if orb.N % o == 0]
        calls = []

        def counted(*args):
            calls.append(args)
            return theta(*args)

        monkeypatch.setattr(torus, "theta", counted)
        central_stabilizer_jump(orb, [1])
        one = len(calls)
        calls.clear()
        central_stabilizer_jump(orb, divisors)
        assert len(divisors) == 16 and len(calls) == one
