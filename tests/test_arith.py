"""Tests for the small exact integer routines and the sympy-free
replacements built on them: Φ_d in the integers, trial-division
factorisation, Miller-Rabin primality and prime powers by integer
roots.

The differential tests compare each routine with sympy over the ranges
the package uses; they are skipped where sympy is not installed.
"""

import time

import pytest

from dsplitlevi import levi
from dsplitlevi.arith import InputTooLarge, factorint, isprime, prime_power
from dsplitlevi.cyclo import _cyclotomic
from dsplitlevi.levi import check_odd_prime_power

# Primes and prime powers below 2^64, with their (p, m).
LARGE = [
    (2 ** 61 - 1, (2 ** 61 - 1, 1)),
    (18446744073709551557, (18446744073709551557, 1)),   # largest < 2^64
    (10 ** 18 + 9, (10 ** 18 + 9, 1)),
    (3 ** 40, (3, 40)),
    ((2 ** 31 - 1) ** 2, (2 ** 31 - 1, 2)),
    (4294967291 ** 2, (4294967291, 2)),
    (3 ** 40 - 2, None),                                  # 23 * 47 * ...
    (2 ** 32 * 3 ** 20, None),
    (3215031751, None),                  # strong pseudoprime to 2, 3, 5, 7
]


class TestIntegerRoutines:
    def test_small_values(self):
        assert [n for n in range(30) if isprime(n)] == [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        assert factorint(1) == {}
        assert factorint(360) == {2: 3, 3: 2, 5: 1}
        assert list(factorint(2 * 3 * 101 * 101)) == [2, 3, 101]
        with pytest.raises(ValueError):
            factorint(0)

    @pytest.mark.parametrize("q, expected", LARGE, ids=lambda v: str(v))
    def test_large_prime_powers(self, q, expected):
        assert prime_power(q) == expected

    def test_q_check_answers_at_once(self):
        start = time.monotonic()
        assert check_odd_prime_power(10 ** 18 + 9) == (10 ** 18 + 9, 1)
        assert check_odd_prime_power(3 ** 40) == (3, 40)
        assert time.monotonic() - start < 1.0

    def test_q_past_the_bound_is_refused_before_any_work(self, monkeypatch):
        def no_factorisation(q):
            raise RuntimeError("factorisation started")
        monkeypatch.setattr(levi, "prime_power", no_factorisation)
        with pytest.raises(InputTooLarge, match=r"2\^64"):
            check_odd_prime_power(2 ** 64 + 1)
        with pytest.raises(InputTooLarge):
            check_odd_prime_power(2 ** 64)
        with pytest.raises(RuntimeError):
            check_odd_prime_power(2 ** 64 - 59)

    def test_primality_range_is_explicit(self):
        with pytest.raises(ValueError):
            isprime(10 ** 30 + 57)


class TestAgainstSympy:
    @pytest.fixture
    def sympy(self):
        return pytest.importorskip("sympy")

    def test_cyclotomic_polynomials(self, sympy):
        x = sympy.Symbol("x")
        for d in range(1, 201):
            coeffs = sympy.Poly(sympy.cyclotomic_poly(d, x)).all_coeffs()
            assert _cyclotomic(d) == tuple(int(c) for c in reversed(coeffs)), d

    def test_factorint_and_isprime(self, sympy):
        for n in range(1, 20001):
            assert factorint(n) == sympy.factorint(n), n
            assert isprime(n) == sympy.isprime(n), n
        for q, expected in LARGE:
            assert isprime(q) == sympy.isprime(q), q
            fac = sympy.factorint(q)
            assert expected == (tuple(fac.items())[0]
                                if len(fac) == 1 else None), q
