"""Unipotent matrix charts: exp/log, coordinates, words, roots and the
derived structure constants."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matrix_route as ref
from matrix_route import _identity, _mul
from stages import skew_heisenberg
from iwasawa_kernel.charts import (
    GroupChart,
    _as_matrix,
    abelian_chart,
    builtin_chart,
    chart_from_matrices,
    cyclic_chart,
    heisenberg_chart,
    unipotent_chart,
)
from iwasawa_kernel.errors import PrecisionError, ValidationError
from iwasawa_kernel.padic import legendre_factorial_val

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
        with pytest.raises(ValidationError, match="linearly dependent"):
            chart_from_matrices(P, matrices)

    def test_builtin_names(self):
        assert builtin_chart("cyclic", P).dim == 1
        assert builtin_chart("abelian3", P).dim == 3
        assert builtin_chart("heisenberg", P).dim == 3
        assert builtin_chart("unipotent4", P).dim == 6
        with pytest.raises(ValidationError):
            builtin_chart("dodecahedral", P)

    def test_generators_and_weights_are_derived_once(self):
        chart = heisenberg_chart(P)
        assert chart.omega_weights == (1, 1, 2)
        assert chart.generators == tuple(chart.generator_power(i, 1) for i in range(3))
        assert chart.generators is chart.generators


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
        betas = np.array([(1, 2, 0), (0, 1, 1), (2, 2, 2)])
        g = chart.words(betas)
        gp = g
        for _ in range(P - 1):
            gp = gp @ g % chart.modulus
        h = chart.root_batch(gp, 1)
        assert (chart.coordinates(h, prec=2) == betas).all()

    def test_root_of_non_power_raises(self):
        chart = heisenberg_chart(P)
        with pytest.raises(PrecisionError):
            chart.root_batch(chart.batch([chart.generators[0]]), 1)


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

    def test_skew_structure_constant_signed_at_its_precision(self):
        # [x1, x2] = -18 E13 = -2 x3 on x1 = 3(E12 + E23), x2 = 3(E12 - E23),
        # x3 = 9 E13; the solve fixes the coefficient only modulo
        # 3^(work_prec - 2), so signing it against 3^work_prec / 2 would
        # give 3^12 - 2
        L = skew_heisenberg(P).structure_presentation(4)
        assert L.bracket[0][1] == (0, 0, -2)
        assert ref.structure_triples(skew_heisenberg(P)) == [(1, 2, 3, -2)]

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

    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_abelian_chart_is_one_row(self, dim):
        # x_i = p E_{1,i+1}: every product x_i x_j vanishes
        chart = abelian_chart(P, dim)
        assert chart.mat_size == dim + 1
        x = chart.batch(chart.basis)
        assert not (x[:, None] @ x[None, :]).any()


# builtin charts, three of whose batches are object arrays of Python ints
# (p^work_prec too large for int64 products): (name, p, work_prec, object?)
ROUTE_CHARTS = [
    ("cyclic", 3, None, False),
    ("abelian2", 5, None, False),
    ("heisenberg", 3, None, False),
    ("unipotent4", 3, None, False),
    ("heisenberg", 7, None, True),
    ("heisenberg", 3, 30, True),
    ("unipotent4", 5, 24, True),
    ("skew", 3, None, False),
]


@pytest.fixture(params=ROUTE_CHARTS, ids=lambda c: f"{c[0]}-p{c[1]}-w{c[2]}")
def route_chart(request):
    name, p, work, wide = request.param
    chart = skew_heisenberg(p) if name == "skew" else builtin_chart(name, p, work_prec=work)
    assert (chart._terms.dtype == object) == wide
    return chart


def agree(a, b, chart, slack=0):
    """Whether two matrices agree modulo p^work_prec when p >= size, and
    modulo p^(work_prec - slack - 2 v) otherwise, with p^v the p-part of
    (size - 1)!: the tuple route reduces each power mod p^work_prec before
    its factorial division, so its top v digits of log and of exp are junk,
    and a p^m-th root moves them down m digits."""
    v = legendre_factorial_val(chart.mat_size - 1, chart.p)
    cut = chart.p ** (chart.work_prec - (slack + 2 * v if v else 0))
    return all((x - y) % cut == 0 for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def route_elements(chart, count=6, bound=30):
    rng = random.Random(f"{chart.name}-{chart.p}-{chart.work_prec}")
    return [chart.word(random_word(chart, rng, bound)) for _ in range(count)]


class TestAgainstMatrixRoute:
    """The array kernels against the tuple route of `tests/matrix_route.py`."""

    def test_inverse(self, route_chart):
        chart, q = route_chart, route_chart.modulus
        for g in route_elements(chart):
            assert chart.inverse(g) == ref.inverse(chart, g)
            assert _mul(g, chart.inverse(g), q) == _identity(chart.mat_size)

    def test_exp_log(self, route_chart):
        chart = route_chart
        for g in route_elements(chart):
            x = chart.log(g)
            assert agree(x, ref.log(chart, g), chart)
            assert agree(chart.exp(x), ref.exp(chart, x), chart)
            assert chart.exp(x) == g

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_root(self, route_chart, m):
        # the roots of every power in one batch, as the z-map takes them
        chart, q = route_chart, route_chart.modulus
        gs = route_elements(chart, count=3, bound=10)
        powers = []
        for g in gs:
            power = _identity(chart.mat_size)
            for _ in range(chart.p**m):
                power = _mul(power, g, q)
            powers.append(power)
        roots = [_as_matrix(r) for r in chart.root_batch(chart.batch(powers), m)]
        # the top m digits of a root are junk
        cut = chart.p ** (chart.work_prec - m)
        for g, power, root in zip(gs, powers, roots):
            assert agree(root, ref.root(chart, power, m), chart, slack=m)
            assert all((x - y) % cut == 0 for ra, rb in zip(root, g) for x, y in zip(ra, rb))

    def test_root_of_non_power_raises_on_both_routes(self, route_chart):
        chart = route_chart
        g = chart.generators[0]
        with pytest.raises(PrecisionError):
            ref.root(chart, g, 1)
        with pytest.raises(PrecisionError):
            chart.root_batch(chart.batch([_identity(chart.mat_size), g]), 1)

    def test_structure_presentation(self, route_chart):
        from iwasawa_kernel.nilpotent import LiePresentation

        chart = route_chart
        want = LiePresentation.from_triples(chart.p, chart.dim, 4, ref.structure_triples(chart))
        assert chart.structure_presentation(4).bracket == want.bracket
        if chart.name == "custom":
            # -2 modulo p^(work_prec - 2), the precision of a coefficient
            # of x3, whose pivot valuation is 2
            ((i, j, k, c),) = ref.structure_triples(chart)
            assert (i, j, k) == (1, 2, 3) and (c + 2) % chart.p ** (chart.work_prec - 2) == 0

    def test_conjugation(self, route_chart):
        from iwasawa_kernel.mahler import AutomorphismSpec

        chart = route_chart
        for g in route_elements(chart, count=3):
            phi = AutomorphismSpec.conjugation(chart, g)
            assert phi.images == ref.conjugation_images(chart, g)


@pytest.mark.parametrize("work", [None, 30])
def test_root_far_above_working_precision_raises_precision_error(work):
    # p^40 does not fit an int64 batch; the division is by p^min(m, work)
    chart = builtin_chart("heisenberg", P, work_prec=work)
    g = chart.generator_power(0, P**2)
    with pytest.raises(PrecisionError, match="not divisible by p\\^40"):
        chart.root_batch(chart.batch([g]), 40)
    assert _as_matrix(chart.root_batch(chart.batch([_identity(3)]), 40)[0]) == _identity(3)


def test_derivations_built_with_the_chart():
    chart = heisenberg_chart(P)
    assert chart.max_pivot_val == 2
    assert [pivot for pivot, _, _ in chart._echelon] == [(1, 1), (2, 2), (5, 1)]


@pytest.mark.parametrize("chart", [heisenberg_chart(23), abelian_chart(41, 2)],
                         ids=["heisenberg-23", "abelian2-41"])
def test_int64_coordinates_above_an_int64_modulus(chart):
    # p^work_prec > 2^63, so the chart's batches hold Python ints and the
    # int64 coordinates a stage passes in are cast to them
    assert chart.modulus > 2**63 - 1
    units = np.eye(chart.dim, dtype=np.int64)
    words = [[list(row) for row in chart.word(e)] for e in units.tolist()]
    assert chart.words(units).tolist() == words
    inverses = [[list(row) for row in chart.inverse(chart.word(e))] for e in units.tolist()]
    assert chart.inverse_words(units).tolist() == inverses
