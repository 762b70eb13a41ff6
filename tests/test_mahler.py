"""Mahler expansions: scalar round-trips, divided powers, automorphism
coefficient tables, the factorization criterion and the z-map growth."""

import math
import random

import pytest

from iwasawa_kernel.algebra import AlgebraElement, b_element, build_quotient
from iwasawa_kernel.charts import heisenberg_chart, unipotent_chart
from iwasawa_kernel.errors import ValidationError
from iwasawa_kernel.mahler import (
    AutomorphismSpec,
    aut_mahler_coeffs,
    divided_power,
    expand_aut,
    find_m1,
    is_mahler_aut,
    mahler_coeff_direct,
    mahler_coeffs,
    q_growth,
    reconstruct,
    tail_bound,
    z_stable,
)

P = 3

SWAP_WORDS = [(0, 1, 0), (1, 0, 0), (0, 0, -1)]


def conj_by_g1(chart):
    return AutomorphismSpec.conjugation(chart, chart.generators[0], name="conj-g1")


class TestScalarMahler:
    def test_binomial_functions_are_delta(self):
        # f = binom(., k) has Mahler coefficients exactly e_k
        N = 3
        for k in range(5):
            T = mahler_coeffs(lambda b, k=k: math.comb(b, k), 1, 8, P, N)
            assert T.entries == {(k,): 1}

    def test_polynomial_support_shell(self):
        T = mahler_coeffs(lambda b: b**3 - 2 * b, 1, 9, P, 3)
        assert T.support_shell() == 3

    def test_twisted_exponential_decay(self):
        # f(b) = (1+p)^b has m_alpha = p^alpha: strict decay, full support
        N = 5
        T = mahler_coeffs(lambda b: pow(1 + P, b, P**N), 1, N - 1, P, N)
        for (a,), v in T.entries.items():
            assert v == P**a % P**N
        assert T.decay_log == [0, 1, 2, 3, 4]

    def test_direct_formula_agrees(self):
        f = lambda b: b[0] ** 2 + 3 * b[0] * b[1] + 7
        T = mahler_coeffs(f, 2, 4, P, 3)
        for alpha in [(0, 0), (1, 1), (2, 0), (2, 2)]:
            want = mahler_coeff_direct(f, alpha) % P**3
            assert T.entries.get(alpha, 0) % P**3 == want

    def test_reconstruct_roundtrip(self):
        N = 3
        rng = random.Random(8)
        table = {b: rng.randrange(P**N) for b in range(P**N)}
        f = lambda b: table[b % P**N]
        T = mahler_coeffs(f, 1, P**N, P, N)
        for b in range(P**N):
            assert reconstruct(T, (b,)) % P**N == f(b)

    def test_tail_bound(self):
        T = mahler_coeffs(lambda b: pow(1 + P, b, P**6), 1, 4, P, 6)
        assert tail_bound(T) is not None


class TestDividedPower:
    def test_scales_by_binomial(self):
        Q = build_quotient(heisenberg_chart(P), 2, 2)
        g = AlgebraElement.group_element(Q, Q.index((4, 2, 1)))
        out = divided_power((2, 1, 0), g)
        want = math.comb(4, 2) * math.comb(2, 1) % Q.coeff_mod
        assert out.coeffs == {Q.index((4, 2, 1)): want}

    def test_annihilates_small_support(self):
        Q = build_quotient(heisenberg_chart(P), 1, 2)
        one = AlgebraElement.one(Q)
        assert divided_power((1, 0, 0), one).is_zero()


class TestAutomorphismSpec:
    def test_identity_is_homomorphism(self):
        chart = heisenberg_chart(P)
        Q = build_quotient(chart, 1, 2)
        assert AutomorphismSpec.identity(chart).verify_homomorphism(Q)

    def test_conjugation_is_homomorphism(self):
        chart = heisenberg_chart(P)
        Q = build_quotient(chart, 2, 2)
        assert conj_by_g1(chart).verify_homomorphism(Q)

    def test_swap_is_homomorphism(self):
        chart = heisenberg_chart(P)
        Q = build_quotient(chart, 2, 2)
        phi = AutomorphismSpec.from_words(chart, SWAP_WORDS, name="swap")
        assert phi.verify_homomorphism(Q)

    def test_broken_spec_fails_verification(self):
        chart = heisenberg_chart(P)
        Q = build_quotient(chart, 2, 2)
        phi = AutomorphismSpec.from_words(
            chart, [(1, 0, 0), (1, 1, 0), (1, 0, 1)], name="broken"
        )
        assert not phi.verify_homomorphism(Q)

    def test_compose_and_power(self):
        chart = heisenberg_chart(P)
        Q = build_quotient(chart, 2, 2)
        phi = conj_by_g1(chart)
        rng = random.Random(12)
        sq = phi.compose(phi)
        pw = phi.power(2)
        for _ in range(10):
            a = rng.randrange(Q.size)
            assert sq.apply_index(Q, a) == phi.apply_index(Q, phi.apply_index(Q, a))
            assert pw.apply_index(Q, a) == sq.apply_index(Q, a)


class TestMahlerFactorization:
    def test_identity_table_is_trivial(self):
        chart = heisenberg_chart(P)
        Q = build_quotient(chart, 1, 2)
        T = aut_mahler_coeffs(AutomorphismSpec.identity(chart), Q, 3)
        assert list(T.entries) == [(0, 0, 0)]
        assert T.entries[(0, 0, 0)] == AlgebraElement.one(Q)

    def test_inner_automorphism_is_mahler(self):
        chart = heisenberg_chart(P)
        Q = build_quotient(chart, 2, 2)
        assert is_mahler_aut(conj_by_g1(chart), Q, 3) == (True, True, None)

    def test_swap_is_not_mahler(self):
        chart = heisenberg_chart(P)
        Q = build_quotient(chart, 2, 2)
        phi = AutomorphismSpec.from_words(chart, SWAP_WORDS, name="swap")
        by_formula, by_commutation, witness = is_mahler_aut(phi, Q, 3)
        assert (by_formula, by_commutation) == (False, False)
        assert witness is not None and sum(witness) <= 3

    def test_expansion_residual(self):
        chart = heisenberg_chart(P)
        Q = build_quotient(chart, 2, 4)  # floor 3
        phi = conj_by_g1(chart)
        x = AlgebraElement.group_element(Q, Q.index((0, 1, 0)))
        _, res0 = expand_aut(phi, x, 0)
        _, res_hi = expand_aut(phi, x, 8)
        assert res0.exact and res0.value == 2
        assert res_hi.value is None or res_hi.value > res0.value


class TestZMapGrowth:
    def test_z_of_conjugation_is_commutator(self):
        chart = heisenberg_chart(P)
        Q = build_quotient(chart, 2, 2)
        phi = conj_by_g1(chart)
        z, stable = z_stable(phi, chart.generators[1], 2, Q)
        assert stable
        # (g1, g2) = g3
        assert Q.index_of_matrix(z) == Q.generator(2)

    def test_find_m1_inner(self):
        chart = heisenberg_chart(P)
        Q = build_quotient(chart, 2, 4)
        assert find_m1(conj_by_g1(chart), Q) == 0

    def test_char0_growth_is_affine(self):
        chart = heisenberg_chart(P)
        Q = build_quotient(chart, 4, 6, size_budget=10**7, verify=False)
        vals = q_growth(conj_by_g1(chart), 1, range(3), "char0", Q)
        assert [v.value for v in vals] == [2, 3, 4]

    def test_charp_growth_is_exponential(self):
        chart = heisenberg_chart(P)
        Q = build_quotient(chart, 2, 1, verify=False)
        vals = q_growth(conj_by_g1(chart), 1, range(2), "charp", Q)
        assert [v.value for v in vals] == [2, 6]

    def test_char0_needs_positive_characteristic_zero(self):
        chart = heisenberg_chart(P)
        Q = build_quotient(chart, 1, 1, verify=False)
        with pytest.raises(ValidationError):
            q_growth(conj_by_g1(chart), 1, range(2), "char0", Q)

    def test_unknown_regime_rejected(self):
        chart = heisenberg_chart(P)
        Q = build_quotient(chart, 1, 2)
        with pytest.raises(ValidationError):
            q_growth(conj_by_g1(chart), 1, range(2), "mixed", Q)
