"""Mahler expansions: scalar round-trips, divided powers, automorphism
coefficient tables, the factorization criterion and the z-map growth."""

import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import matrix_route as ref
from matrix_route import _mul
from iwasawa_kernel import errors
from iwasawa_kernel.algebra import AlgebraElement, b_element, build_quotient
from iwasawa_kernel.charts import GroupChart, heisenberg_chart, unipotent_chart
from iwasawa_kernel.errors import BudgetError, PrecisionError
from iwasawa_kernel.mahler import (
    AutomorphismSpec,
    aut_mahler_coeffs,
    divided_power,
    expand_aut,
    is_mahler_aut,
    mahler_coeffs,
    p_power_chain,
    q_growth,
    reconstruct,
    z_approximants,
    z_stable,
)

P = 3

SWAP_WORDS = [(0, 1, 0), (1, 0, 0), (0, 0, -1)]
# the generator images of inputs/heis_conj.txt, conjugation by g1
CONJ_WORDS = [(1, 0, 0), (0, 1, 1), (0, 0, 1)]


def mahler_coeff_direct(f, alpha):
    """m_alpha = sum over beta <= alpha of (-1)^|alpha - beta| binom(alpha, beta)
    f(beta): one coefficient by the alternating sum, the cross-check for the
    finite differencing of `mahler_coeffs`."""
    total = 0
    for beta in itertools.product(*(range(a + 1) for a in alpha)):
        sign = (-1) ** (sum(alpha) - sum(beta))
        binom = math.prod(math.comb(a, b) for a, b in zip(alpha, beta))
        total += sign * binom * f(beta if len(alpha) > 1 else beta[0])
    return total


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
            assert ref.apply_index(sq, Q, a) == ref.apply_index(phi, Q, ref.apply_index(phi, Q, a))
            assert ref.apply_index(pw, Q, a) == ref.apply_index(sq, Q, a)

    def test_power_keeps_a_short_name(self, monkeypatch):
        # the squarings once concatenated their names, doubling the name's
        # length at each one: 3 188 654 characters for heis_conj^(3^12)
        chart = heisenberg_chart(P)
        phi = conj_by_g1(chart)
        names = []
        real = AutomorphismSpec.__post_init__
        monkeypatch.setattr(AutomorphismSpec, "__post_init__",
                            lambda spec: names.append(spec.name) or real(spec))
        assert phi.power(3**12).name == "conj-g1^531441"
        assert max(map(len, names)) == len("conj-g1^531441")
        step = AutomorphismSpec.identity(chart)
        for k in range(6):
            assert phi.power(k).images == step.images
            step = phi.compose(step)

    def test_negative_power_raises(self):
        # e >>= 1 stays at -1 for a negative exponent, so the squaring loop
        # never ended; a subprocess bounds the test's time if it hangs again
        root = Path(__file__).resolve().parents[1]
        code = f"""
from iwasawa_kernel.errors import ValidationError
from iwasawa_kernel.presentation import load_presentation
doc = load_presentation({str(root / "inputs" / "heis_conj.txt")!r})
phi = doc.automorphism(doc.chart())
try:
    phi.power(-1)
except ValidationError as exc:
    print(exc)
"""
        path = os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])
        out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                             capture_output=True, text=True, check=True, timeout=60).stdout
        assert out.strip() == "automorphism powers need k >= 0, got -1"


class TestMahlerFactorization:
    def test_identity_table_is_trivial(self):
        chart = heisenberg_chart(P)
        Q = build_quotient(chart, 1, 2)
        T = aut_mahler_coeffs(AutomorphismSpec.identity(chart), Q, 3)
        assert list(T.entries) == [(0, 0, 0)]
        assert T.entries[(0, 0, 0)] == AlgebraElement.one(Q)

    @pytest.mark.parametrize("words", [CONJ_WORDS, SWAP_WORDS], ids=["conj", "swap"])
    def test_reconstruct_algebra_valued_table(self, words):
        # below degree D the partial sum at |gamma| <= D is exact: it gives
        # back the group element phi(g^gamma) g^-gamma, from the algebra's zero
        chart = heisenberg_chart(P)
        Q = build_quotient(chart, 1, 2)
        phi = AutomorphismSpec.from_words(chart, words)
        T = aut_mahler_coeffs(phi, Q, 3)
        for gamma in itertools.product(range(4), repeat=3):
            if sum(gamma) <= 3:
                g = Q.index(gamma)
                want = ref.mult(Q, ref.apply_index(phi, Q, g), ref.inv(Q, g))
                assert reconstruct(T, gamma) == AlgebraElement.group_element(Q, want)
        if words == CONJ_WORDS:
            # phi(g1 g2) (g1 g2)^-1 = g3
            assert reconstruct(T, (1, 1, 0)) == AlgebraElement.group_element(Q, Q.generator(2))

    def test_every_differencing_pass_asks_the_byte_budget(self, monkeypatch):
        # at degree 20 the first pass of the swap's table sends 1 771 triples
        # to 10 626, counted as 1.18 MB, and the second sends 7 338 to 41 640,
        # 4.62 MB: a 2 MB budget admits the first, which is checked before
        # the multi-indices are listed, and refuses the second
        chart = heisenberg_chart(P)
        Q = build_quotient(chart, 2, 2)
        phi = AutomorphismSpec.from_words(chart, SWAP_WORDS)
        monkeypatch.setattr(errors, "DENSE_BYTE_BUDGET", 2 * 10**6)
        with pytest.raises(BudgetError, match="--degree 20: a Mahler differencing pass"):
            aut_mahler_coeffs(phi, Q, 20)

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
        _, res0 = expand_aut(phi, [x], 0)[0][0]
        _, res_hi = expand_aut(phi, [x], 8)[0][8]
        assert res0.exact and res0.value == 2
        assert res_hi.value is None or res_hi.value > res0.value


class TestZMapGrowth:
    def test_approximants_from_pth_powers(self):
        # phi^(p^m) as the p-th power of phi^(p^(m-1)) against phi.power(p^m)
        chart = heisenberg_chart(P)
        phi, g = conj_by_g1(chart), chart.generators[1]
        beta, ginv = chart.coordinates(g), chart.inverse(g)
        want = [
            ref.root(chart, _mul(phi.power(P**m).image_words([beta])[0], ginv, chart.modulus), m)
            for m in range(4)
        ]
        chain = p_power_chain(phi, 3)
        assert chain[0] is phi
        assert z_approximants(chain, [g], range(4)) == [want]
        assert z_approximants(chain, [g], [3, 1]) == [[want[3], want[1]]]

    def test_z_of_conjugation_is_commutator(self):
        chart = heisenberg_chart(P)
        Q = build_quotient(chart, 2, 2)
        phi = conj_by_g1(chart)
        (z,), stable = z_stable(p_power_chain(phi, 2), [chart.generators[1]], 2, Q)
        assert stable == [True]
        # (g1, g2) = g3
        assert ref.index_of_matrix(Q, z) == Q.generator(2)

    def test_z_stable_roots_only_the_two_it_compares(self, monkeypatch):
        chart = heisenberg_chart(P)
        Q = build_quotient(chart, 2, 2)
        phi, g = conj_by_g1(chart), chart.generators[1]
        roots = []
        real = GroupChart.root_batch
        monkeypatch.setattr(GroupChart, "root_batch",
                            lambda c, h, m: roots.append(m) or real(c, h, m))
        chain = p_power_chain(phi, 4)
        zs, stable = z_stable(chain, [g], 4, Q)
        assert roots == [3, 4]
        assert (zs, stable) == ([z_approximants(chain, [g], [4])[0][0]], [True])

    def test_z_stable_reports_the_first_m_that_fails(self):
        # for the swap on g1 the root fails at m = 1 (outside the lattice) and
        # at m = 2, 3 (log not divisible); the error names m = 1, as a run
        # over every m would
        chart = heisenberg_chart(P)
        Q = build_quotient(chart, 2, 2)
        phi = AutomorphismSpec.from_words(chart, SWAP_WORDS)
        with pytest.raises(PrecisionError, match="target outside chart lattice"):
            z_stable(p_power_chain(phi, 3), chart.generators[0], 3, Q)

    def test_char0_growth_is_affine(self):
        chart = heisenberg_chart(P)
        Q = build_quotient(chart, 4, 6, size_budget=10**7, verify=False)
        vals = q_growth(conj_by_g1(chart), range(3), Q)[1]
        assert [v.value for v in vals] == [2, 3, 4]

    def test_charp_growth_is_exponential(self):
        chart = heisenberg_chart(P)
        Q = build_quotient(chart, 2, 1, verify=False)
        vals = q_growth(conj_by_g1(chart), range(2), Q)[1]
        assert [v.value for v in vals] == [2, 6]

    def test_one_chain_from_phi_serves_every_axis(self, monkeypatch):
        # m_range = range(3) reads phi^(p^m) up to m = 2: the chain is phi,
        # phi^3 and (phi^3)^3, two powers in all for the three axes
        chart = heisenberg_chart(P)
        Q = build_quotient(chart, 2, 2)
        phi = conj_by_g1(chart)
        calls = []
        real = AutomorphismSpec.power

        def spy(self, k):
            out = real(self, k)
            calls.append((self, k, out))
            return out

        monkeypatch.setattr(AutomorphismSpec, "power", spy)
        table = q_growth(phi, range(3), Q)
        assert len(table) == Q.dim
        assert [k for _, k, _ in calls] == [P, P]
        assert calls[0][0] is phi and calls[1][0] is calls[0][2]
