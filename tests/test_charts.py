"""Unipotent matrix charts: exp/log, coordinates, words, roots and the
derived structure constants."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iwasawa_kernel.charts import (
    GroupChart,
    _identity,
    _mul,
    abelian_chart,
    builtin_chart,
    chart_from_matrices,
    cyclic_chart,
    heisenberg_chart,
    unipotent_chart,
)
from iwasawa_kernel.errors import PrecisionError, ValidationError

P = 3


def random_word(chart, rng, bound=40):
    return tuple(rng.randrange(-bound, bound) for _ in range(chart.dim))


class TestConstruction:
    def test_even_prime_rejected(self):
        with pytest.raises(ValidationError):
            cyclic_chart(2)

    def test_entries_must_be_in_p_lattice(self):
        with pytest.raises(ValidationError):
            GroupChart(3, 10, (((0, 1), (0, 0)),))

    def test_non_strictly_upper_rejected(self):
        with pytest.raises(ValidationError):
            GroupChart(3, 10, (((3, 0), (3, 0)),))

    @pytest.mark.parametrize("matrices", [
        [((0, 3), (0, 0)), ((0, 6), (0, 0))],  # x2 = 2·x1
        [((0, 0), (0, 0))],
    ], ids=["multiple", "zero"])
    def test_dependent_basis_rejected(self, matrices):
        chart = chart_from_matrices(P, matrices)
        with pytest.raises(ValidationError, match="linearly dependent"):
            chart.solve_lattice(((0, 3), (0, 0)))

    def test_builtin_names(self):
        assert builtin_chart("cyclic", P).dim == 1
        assert builtin_chart("abelian3", P).dim == 3
        assert builtin_chart("heisenberg", P).dim == 3
        assert builtin_chart("unipotent4", P).dim == 6
        with pytest.raises(ValidationError):
            builtin_chart("dodecahedral", P)


class TestExpLog:
    @given(st.integers(0, 10**6))
    def test_cyclic_log_is_linear(self, k):
        chart = cyclic_chart(P)
        g = chart.generator_power(0, k)
        assert g[0][1] % chart.modulus == (P * k) % chart.modulus

    def test_roundtrip_heisenberg(self):
        chart = heisenberg_chart(P)
        rng = random.Random(5)
        for _ in range(20):
            g = chart.word(random_word(chart, rng))
            assert chart.exp(chart.log(g)) == g

    def test_roundtrip_unipotent4(self):
        chart = unipotent_chart(P, 4)
        rng = random.Random(6)
        for _ in range(10):
            g = chart.word(random_word(chart, rng, bound=15))
            assert chart.exp(chart.log(g)) == g

    def test_omega_of_generators(self):
        chart = heisenberg_chart(P)
        assert chart.omega_weights == (1, 1, 2)
        assert chart.omega(_identity(3)) is None

    def test_omega_increases_under_p_power(self):
        chart = heisenberg_chart(P)
        g = chart.generators[0]
        assert chart.omega(chart.generator_power(0, P)) == chart.omega(g) + 1


class TestCoordinates:
    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_word_coordinates_roundtrip(self, data):
        chart = heisenberg_chart(P)
        beta = tuple(data.draw(st.integers(-30, 30)) for _ in range(3))
        prec = 3
        got = chart.coordinates(chart.word(beta), prec=prec)
        assert got == tuple(b % P**prec for b in beta)

    def test_unipotent4_coordinates(self):
        chart = unipotent_chart(P, 4)
        rng = random.Random(9)
        for _ in range(5):
            beta = random_word(chart, rng, bound=10)
            got = chart.coordinates(chart.word(beta), prec=2)
            assert got == tuple(b % P**2 for b in beta)

    def test_inverse(self):
        chart = heisenberg_chart(P)
        g = chart.word((2, 5, 1))
        q = chart.modulus
        assert _mul(g, chart.inverse(g), q) == _identity(3)

    def test_root_inverts_p_th_power(self):
        chart = heisenberg_chart(P)
        q = chart.modulus
        for beta in [(1, 2, 0), (0, 1, 1), (2, 2, 2)]:
            g = chart.word(beta)
            gp = g
            for _ in range(P - 1):
                gp = _mul(gp, g, q)
            h = chart.root(gp, 1)
            assert chart.coordinates(h, prec=2) == chart.coordinates(g, prec=2)

    def test_root_of_non_power_raises(self):
        chart = heisenberg_chart(P)
        with pytest.raises(PrecisionError):
            chart.root(chart.generators[0], 1)


class TestStructure:
    def test_heisenberg_commutator_coordinates(self):
        chart = heisenberg_chart(P)
        q = chart.modulus
        g1, g2 = chart.generators[0], chart.generators[1]
        comm = _mul(
            _mul(chart.inverse(g1), chart.inverse(g2), q), _mul(g1, g2, q), q
        )
        assert chart.coordinates(comm, prec=2) == (0, 0, 1)

    def test_heisenberg_structure_presentation(self):
        # [p E12, p E23] = p^2 E13, which is the third basis matrix itself
        L = heisenberg_chart(P).structure_presentation(4)
        assert L.bracket[0][1][2] == 1
        assert not any(L.bracket[0][2])

    def test_unipotent4_matches_example2_relations(self):
        # basis p E_{ij} in lex order gives exactly the 6-dimensional
        # presentation with [x1,x4]=p x2, [x1,x5]=p x3, [x2,x6]=p x3,
        # [x4,x6]=p x5 (up to antisymmetry)
        L = unipotent_chart(P, 4).structure_presentation(4)
        nonzero = {
            (i + 1, j + 1, k + 1): int(L.bracket[i][j][k])
            for i in range(6)
            for j in range(i + 1, 6)
            for k in range(6)
            if L.bracket[i][j][k]
        }
        assert nonzero == {
            (1, 4, 2): P,
            (1, 5, 3): P,
            (2, 6, 3): P,
            (4, 6, 5): P,
        }

    def test_abelian_chart_commutes(self):
        chart = abelian_chart(P, 2)
        q = chart.modulus
        a, b = chart.generators
        assert _mul(a, b, q) == _mul(b, a, q)
