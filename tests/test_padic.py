"""p-adic valuations, unit splits, the idempotent dichotomy and the
number-theoretic closed forms.

Oracle values are frozen from independent big-integer computations
(math.comb, math.factorial, repeated division); the closed forms must
match them exactly.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iwasawa_kernel.errors import PrecisionError, ValidationError
from iwasawa_kernel.linalg import MAX_MODULUS
from iwasawa_kernel.padic import (
    PadicScalar,
    digit_sum,
    idempotent_power,
    legendre_factorial_val,
    unit_split,
    vp,
    vp_array,
    vp_binom_prime_power,
    vp_int,
)

PRIMES = [2, 3, 5, 7]


def naive_vp(k, p):
    v = 0
    k = abs(k)
    while k % p == 0:
        k //= p
        v += 1
    return v


class TestValuationHelpers:
    def test_vp_small_values(self):
        assert vp(1, 3) == 0
        assert vp(18, 3) == 2
        assert vp(-54, 3) == 3
        assert vp(1024, 2) == 10

    def test_vp_zero_rejected(self):
        with pytest.raises(ValidationError):
            vp(0, 5)

    def test_digit_sum_known(self):
        assert digit_sum(0, 3) == 0
        assert digit_sum(26, 3) == 6  # 222_3
        assert digit_sum(255, 2) == 8

    @given(st.integers(1, 10**6), st.sampled_from(PRIMES))
    def test_vp_matches_naive(self, k, p):
        assert vp(k, p) == naive_vp(k, p)

    @given(st.integers(0, 10**6), st.sampled_from(PRIMES))
    def test_legendre_matches_factorial(self, k, p):
        # Legendre's closed form against the sum-of-floors formula.
        direct = sum(k // p**j for j in range(1, k.bit_length() * 2 + 2))
        assert legendre_factorial_val(k, p) == direct

    def test_legendre_frozen_values(self):
        # frozen from v_p(k!) of the exact factorial
        assert legendre_factorial_val(100, 3) == naive_vp(math.factorial(100), 3)
        assert legendre_factorial_val(100, 3) == 48
        assert legendre_factorial_val(31, 2) == 26

    # the oracle computes math.comb(p**m, k) exactly, which can be slow
    @settings(deadline=None)
    @given(st.sampled_from(PRIMES), st.integers(1, 6), st.data())
    def test_vp_binom_prime_power_oracle(self, p, m, data):
        k = data.draw(st.integers(1, p**m - 1))
        assert vp_binom_prime_power(m, k, p) == naive_vp(math.comb(p**m, k), p)

    def test_vp_binom_range_checked(self):
        with pytest.raises(ValidationError):
            vp_binom_prime_power(2, 9, 3)
        with pytest.raises(ValidationError):
            vp_binom_prime_power(2, 0, 3)


def naive_vp_int(a, p, N):
    a %= p**N
    return N if a == 0 else naive_vp(a, p)


def largest_prec(p):
    """The largest N with p^N <= MAX_MODULUS."""
    N = 1
    while p ** (N + 1) <= MAX_MODULUS:
        N += 1
    return N


class TestResidueValuationsAndUnitSplit:
    def test_vp_of_rationals(self):
        assert vp(Fraction(9, 2), 3) == 2
        assert vp(Fraction(2, 27), 3) == -3
        assert vp(Fraction(-18, 4), 3) == 2
        with pytest.raises(ValidationError):
            vp(Fraction(0), 3)

    @given(st.sampled_from(PRIMES), st.data())
    def test_vp_int_matches_naive_up_to_max_modulus(self, p, data):
        N = data.draw(st.integers(1, largest_prec(p)))
        a = data.draw(st.integers(-(p**N), 2 * p**N))
        assert vp_int(a, p, N) == naive_vp_int(a, p, N)

    @pytest.mark.parametrize("p", PRIMES)
    def test_zero_and_pure_powers(self, p):
        N = largest_prec(p)
        assert vp_int(0, p, N) == N
        assert vp_int(p**N, p, N) == N
        for e in range(N):
            assert vp_int(p**e, p, N) == e
            assert vp_int((p - 1) * p**e, p, N) == e
        a = np.array([0, p**N, *(p**e for e in range(N))], dtype=np.int64)
        assert vp_array(a, p, N).tolist() == [N, N, *range(N)]

    @settings(max_examples=50)
    @given(st.sampled_from(PRIMES), st.data())
    def test_vp_array_matches_naive_on_int64(self, p, data):
        N = data.draw(st.integers(1, largest_prec(p)))
        q = p**N
        # residues, with pure p-powers and zeros mixed in
        vals = data.draw(st.lists(
            st.one_of(st.integers(0, q - 1), st.integers(0, N).map(lambda e: p**e % q)),
            min_size=0, max_size=30))
        a = np.array(vals, dtype=np.int64)
        got = vp_array(a, p, N)
        assert got.tolist() == [naive_vp_int(x, p, N) for x in vals]

    @settings(max_examples=30)
    @given(st.sampled_from([3, 5, 7]), st.integers(30, 80), st.data())
    def test_vp_array_matches_naive_on_object_arrays(self, p, N, data):
        # p^N above 2^63: the residues are Python ints in an object array
        vals = data.draw(st.lists(st.integers(0, p**N - 1), min_size=1, max_size=20))
        vals += [0, p ** (N - 1), p**N]
        a = np.array(vals, dtype=object)
        assert vp_array(a, p, N).tolist() == [naive_vp_int(x, p, N) for x in vals]
        assert vp_array(a.reshape(1, -1), p, N).shape == (1, len(vals))

    @given(st.sampled_from(PRIMES), st.data())
    def test_unit_split_of_residues(self, p, data):
        N = data.draw(st.integers(1, largest_prec(p)))
        q = p**N
        a = data.draw(st.integers(1, q - 1))
        e, uinv = unit_split(a, p, q)
        assert e == naive_vp(a, p)
        assert (a // p**e) * uinv % q == 1

    @pytest.mark.parametrize("p, N", [(3, 4), (5, 3), (7, 2), (3, 14)])
    def test_unit_split_of_factorials_above_q(self, p, N):
        # k! is split exactly: reducing it mod q first would lose its p-part
        q = p**N
        for k in range(1, 40):
            f = math.factorial(k)
            e, uinv = unit_split(f, p, q)
            assert e == legendre_factorial_val(k, p) == naive_vp(f, p)
            assert (f // p**e) * uinv % q == 1
        assert math.factorial(39) > q

    def test_unit_split_of_zero_rejected(self):
        with pytest.raises(ValidationError):
            unit_split(0, 3, 27)


class TestPadicScalar:
    def test_residue_normalized(self):
        x = PadicScalar(3, 2, 11)
        assert x.residue == 2
        assert PadicScalar(3, 2, -1).residue == 8


class TestIdempotentDichotomy:
    @given(st.sampled_from([3, 5]), st.integers(0, 4), st.data())
    @settings(max_examples=80)
    def test_unit_nonunit_dichotomy(self, p, n, data):
        residue = data.draw(st.integers(0, p ** (n + 1) - 1))
        beta = PadicScalar(p, n + 1, residue)
        out = idempotent_power(beta, n)
        if residue % p:
            assert out.residue == 1
        else:
            assert out.residue == 0

    def test_higher_residue_field(self):
        # f > 1 enlarges the exponent so any unit of the unramified
        # extension's norm image still lands on 1
        assert idempotent_power(PadicScalar(3, 3, 5), 2, f=2).residue == 1

    def test_needs_enough_precision(self):
        with pytest.raises(PrecisionError):
            idempotent_power(PadicScalar(3, 1, 2), 3)
