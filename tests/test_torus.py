"""Tests for twisted-torus fixed-point arithmetic over finite fields.

The finite-field layer is pinned to deterministic choices (least
irreducible modulus, least generator); the Lang map, the kernel
parametrisation theta, the square root z_plus and the cycling action
on the centre are checked against hand-computed values at q = 3 and
by full enumeration on small grids.
"""

import itertools

import pytest

from dsplitlevi import torus
from dsplitlevi.arith import InputTooLarge
from dsplitlevi.signedperm import VerificationError
from dsplitlevi.torus import (
    FIELD_ORDER_BOUND,
    Fq,
    TorusElem,
    TwistedOrbit,
    central_stabilizer_jump,
    conj_center_action,
    lang_map,
    theta,
    z_plus,
)


class TestFq:
    def test_f9_modulus_and_generator(self):
        F = Fq(3, 2)
        assert F.order == 9
        assert F.poly == (1, 0, 1)          # x^2 + 1
        g = F.canonical_generator()
        assert g.to_int() == 4              # 1 + x
        assert g.order() == 8

    def test_f81_modulus(self):
        F = Fq(3, 4)
        assert F.poly == (2, 1, 0, 0, 1)    # x^4 + x + 2
        g = F.canonical_generator()
        assert g.order() == 80

    def test_least_generator_is_least(self):
        F = Fq(3, 2)
        g = F.canonical_generator()
        for code in range(2, g.to_int()):
            e = F.from_int(code)
            assert e.is_zero() or e.order() < 8

    def test_field_axioms_f9(self):
        F = Fq(3, 2)
        els = F.elements()
        assert len(els) == 9
        for a, b in itertools.product(els, repeat=2):
            assert (a + b) == (b + a)
            assert (a * b) == (b * a)
        one = F.one()
        for a in els:
            if not a.is_zero():
                assert a * a.inv() == one
        for a, b, c in itertools.product(els[:4], els[:4], els):
            assert (a + b) * c == a * c + b * c

    def test_int_roundtrip(self):
        F = Fq(5, 2)
        for code in range(25):
            assert F.from_int(code).to_int() == code

    def test_pow_and_order(self):
        F = Fq(3, 2)
        g = F.canonical_generator()
        assert g ** 8 == F.one()
        assert g ** -1 == g.inv()
        assert (g ** 4).order() == 2
        assert (g ** 4) == F.from_int(2)    # the constant -1

    def test_rejects_even_characteristic(self):
        with pytest.raises(ValueError):
            Fq(4, 1)
        with pytest.raises(ValueError):
            Fq(2, 3)

    def test_field_order_bound(self, monkeypatch):
        # Refused before the modulus search or any table starts.
        def no_work(p, k):
            raise RuntimeError("field construction started")
        monkeypatch.setattr(torus, "_least_irreducible", no_work)
        assert 5 ** 6 <= FIELD_ORDER_BOUND < 101 ** 6
        for p, k in ((101, 6), (3, 10 ** 9), (10 ** 30 + 57, 1)):
            with pytest.raises(InputTooLarge, match="bound"):
                Fq(p, k)
        with pytest.raises(RuntimeError):
            Fq(3, 12)

    def test_failed_searches_name_p_and_k(self, monkeypatch):
        modulus = torus._least_irreducible(3, 2)
        monkeypatch.setattr(torus, "_is_irreducible", lambda f, p: False)
        with pytest.raises(VerificationError, match=r"\(p = 3, k = 2\)"):
            torus._least_irreducible.__wrapped__(3, 2)
        # With every power reading 1, no candidate has full order.
        monkeypatch.setattr(torus, "_least_irreducible", lambda p, k: modulus)
        monkeypatch.setattr(torus, "fp_powmod", lambda *args: [1])
        with pytest.raises(VerificationError, match=r"\(p = 3, k = 2\)"):
            Fq(3, 2)


class TestTwistedOrbit:
    def test_q3_d2(self):
        orb = TwistedOrbit(3, 2)
        assert orb.d0 == 1 and orb.epsilon == -1 and orb.N == 4
        assert orb.points == (1,)
        assert orb.field.order == 9
        g = orb.field.canonical_generator()
        assert orb.psi == g and orb.psi.order() == 8

    def test_q3_d1(self):
        orb = TwistedOrbit(3, 1)
        assert orb.d0 == 1 and orb.epsilon == 1 and orb.N == 2
        g = orb.field.canonical_generator()
        assert orb.psi == g * g and orb.psi.order() == 4

    def test_q3_d4(self):
        orb = TwistedOrbit(3, 4)
        assert orb.d0 == 2 and orb.N == 10
        assert orb.points == (1, 2)
        assert orb.field.order == 81
        g = orb.field.canonical_generator()
        assert orb.psi == g ** 8 and orb.psi.order() == 10

    def test_psi_defining_identity(self):
        for q, d in itertools.product((3, 5), (1, 2, 3, 4)):
            orb = TwistedOrbit(q, d)
            sign = orb.field.one() if orb.d0 % 2 == 0 else -orb.field.one()
            assert orb.psi ** orb.N == sign

    def test_custom_points(self):
        orb = TwistedOrbit(3, 4, points=(2, 5))
        assert orb.points == (2, 5)
        with pytest.raises(ValueError):
            TwistedOrbit(3, 4, points=(1, 2, 3))

    def test_q_validation(self):
        with pytest.raises(ValueError):
            TwistedOrbit(4, 2)
        with pytest.raises(ValueError):
            TwistedOrbit(15, 2)
        TwistedOrbit(9, 2)

    def test_field_order_bound(self, monkeypatch):
        def no_field(p, k):
            raise RuntimeError("field construction started")
        monkeypatch.setattr(torus, "_field", no_field)
        for q, d in ((101, 3), (3, 10 ** 9), (2 ** 64 + 1, 1)):
            with pytest.raises(InputTooLarge, match="bound"):
                TwistedOrbit(q, d)


class TestTorusElem:
    def test_rejects_zero_coordinate(self):
        F = Fq(3, 2)
        with pytest.raises(ValueError):
            TorusElem({1: F.zero()})

    def test_pointwise_product(self):
        F = Fq(3, 2)
        g = F.canonical_generator()
        a = TorusElem({1: g})
        assert a * a == TorusElem({1: g * g})
        assert a * a.inv() == TorusElem({1: F.one()})


class TestLangMap:
    def test_identity_killed(self):
        orb = TwistedOrbit(3, 2)
        ident = TorusElem({1: orb.field.one()})
        assert lang_map(ident, orb) == ident

    def test_fixed_points_q3_d2(self):
        orb = TwistedOrbit(3, 2)
        ident = TorusElem({1: orb.field.one()})
        fixed = [t for t in orb.field.nonzero_elements()
                 if lang_map(TorusElem({1: t}), orb) == ident]
        assert len(fixed) == 4
        assert all(t ** 4 == orb.field.one() for t in fixed)

    def test_psi_maps_to_z(self):
        orb = TwistedOrbit(3, 2)
        image = lang_map(TorusElem({1: orb.psi}), orb)
        assert image == theta(orb, -orb.field.one())

    def test_unsupported_coordinates(self):
        orb = TwistedOrbit(3, 2)
        with pytest.raises(ValueError):
            lang_map(TorusElem({2: orb.field.one()}), orb)

    def test_kernel_count_small_grid(self):
        for q, d in ((3, 1), (3, 2), (3, 4), (5, 1), (5, 2)):
            orb = TwistedOrbit(q, d)
            ident = TorusElem({k: orb.field.one() for k in orb.points})
            count = 0
            for combo in itertools.product(orb.field.nonzero_elements(),
                                           repeat=orb.d0):
                h = TorusElem(dict(zip(orb.points, combo)))
                if lang_map(h, orb) == ident:
                    count += 1
            assert count == orb.N


class TestTheta:
    def test_one_maps_to_identity(self):
        orb = TwistedOrbit(3, 2)
        assert theta(orb, orb.field.one()) == TorusElem({1: orb.field.one()})

    def test_minus_one_is_z(self):
        for q, d in itertools.product((3, 5), (1, 2, 3, 4)):
            orb = TwistedOrbit(q, d)
            z = theta(orb, -orb.field.one())
            minus = -orb.field.one()
            assert all(z.coords[k] == minus for k in orb.points)

    def test_bijection_onto_kernel(self):
        for q, d in ((3, 1), (3, 2), (3, 4), (5, 2)):
            orb = TwistedOrbit(q, d)
            ident = TorusElem({k: orb.field.one() for k in orb.points})
            kernel = set()
            for combo in itertools.product(orb.field.nonzero_elements(),
                                           repeat=orb.d0):
                h = TorusElem(dict(zip(orb.points, combo)))
                if lang_map(h, orb) == ident:
                    kernel.add(h)
            roots = [t for t in orb.field.nonzero_elements()
                     if t ** orb.N == orb.field.one()]
            image = {theta(orb, t) for t in roots}
            assert len(image) == len(roots) == orb.N
            assert image == kernel

    def test_order_condition_enforced(self):
        orb = TwistedOrbit(3, 2)
        g = orb.field.canonical_generator()
        with pytest.raises(ValueError):
            theta(orb, g)
        with pytest.raises(ValueError):
            theta(orb, orb.field.zero())


class TestZPlus:
    def test_q3_d2_is_psi(self):
        orb = TwistedOrbit(3, 2)
        assert z_plus(orb) == TorusElem({1: orb.psi})

    def test_lang_of_z_plus_is_z(self):
        for q, d in itertools.product((3, 5), (1, 2, 3, 4)):
            orb = TwistedOrbit(q, d)
            assert lang_map(z_plus(orb), orb) == theta(orb, -orb.field.one())

    def test_square_trivial_when_d0_even(self):
        for q in (3, 5):
            orb = TwistedOrbit(q, 4)
            zp = z_plus(orb)
            ident = TorusElem({k: orb.field.one() for k in orb.points})
            assert zp * zp == ident

    def test_square_generates_kernel_when_d0_odd(self):
        orb = TwistedOrbit(3, 2)
        zp = z_plus(orb)
        sq = zp * zp
        powers = set()
        cur = TorusElem({1: orb.field.one()})
        for _ in range(orb.N):
            powers.add(cur)
            cur = cur * sq
        roots = [t for t in orb.field.nonzero_elements()
                 if t ** orb.N == orb.field.one()]
        assert powers == {theta(orb, t) for t in roots}


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
        assert central_stabilizer_jump(orb, 2) is True
        assert central_stabilizer_jump(orb, 1) is False
        assert central_stabilizer_jump(orb, 4) is False

    def test_invalid_order(self):
        orb = TwistedOrbit(3, 2)
        with pytest.raises(ValueError):
            central_stabilizer_jump(orb, 3)

    def test_jump_iff_order_two_on_grid(self):
        for q, d in itertools.product((3, 5), (1, 2, 3, 4)):
            orb = TwistedOrbit(q, d)
            divisors = [o for o in range(1, orb.N + 1) if orb.N % o == 0]
            for o in divisors:
                assert central_stabilizer_jump(orb, o) is (o == 2), (q, d, o)
