"""The index-array group law against the matrix route.

A dense stage's generator columns come from one batched chart solve on the
|Q|/p^n elements with beta_1 = 0: left multiplication by g_1^a only shifts
the first coordinate, so the rest of each column is index arithmetic, as is
everything else.  ``columns_by_full_solve`` (in ``stages``) is the solve
over all of Q that this replaced, compared on every |Q| <= 729 test stage,
on a skew chart and on one stage solved in several chunks, and a wrapped
``chart.coordinates`` counts the matrices solved.  ``matrix_route`` is the
scalar route before both (tuple-matrix exp/log, one-element iterative
solves, phi(g^beta) through exp(b log phi(g_i))).  Small stages are
compared with it on all of Q, |Q| = 729 stages on sampled pairs and random
products.  The multiplication table, written one generator digit at a time,
is compared with the pairwise `mult_array` route it replaced.
"""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matrix_route as ref
from matrix_route import _mul
from mahler_route import coeffs_by_dicts, mahler_product_coeff
from stages import columns_by_full_solve, skew_heisenberg, stages_up_to_729
from iwasawa_kernel.algebra import AlgebraElement, build_quotient
from iwasawa_kernel.charts import GroupChart, builtin_chart, heisenberg_chart
from iwasawa_kernel.errors import InvariantViolation
from iwasawa_kernel.mahler import (
    AutomorphismSpec,
    aut_mahler_coeffs,
    is_mahler_aut,
    q_growth,
)

P = 3

HEIS_SWAP = [(0, 1, 0), (1, 0, 0), (0, 0, -1)]


def automorphisms(chart):
    """A few automorphisms of each test chart."""
    if chart.name == "cyclic":
        return [AutomorphismSpec.from_words(chart, [(2,)], name="square")]
    if chart.name == "abelian":
        return [
            AutomorphismSpec.from_words(chart, [(0, 1), (1, 0)], name="swap"),
            AutomorphismSpec.from_words(chart, [(1, 1), (0, -1)], name="shear"),
        ]
    if chart.name == "heisenberg":
        return [
            AutomorphismSpec.from_words(chart, HEIS_SWAP, name="swap"),
            AutomorphismSpec.conjugation(chart, chart.word((1, 2, 0))),
        ]
    return [AutomorphismSpec.conjugation(chart, chart.generators[0])]


def generator_matrix(chart, i):
    return ref.word(chart, tuple(1 if j == i else 0 for j in range(chart.dim)))


SMALL = [
    ("cyclic", 3, 1),
    ("cyclic", 3, 2),
    ("abelian2", 3, 1),
    ("abelian2", 3, 2),
    ("heisenberg", 3, 1),
    # 7^12 is too large for int64 products: the Python-int path
    ("cyclic", 7, 2),
]

LARGE = [("heisenberg", 2), ("abelian2", 3), ("unipotent4", 1)]


def test_python_int_path_is_covered():
    assert builtin_chart("cyclic", 7)._terms.dtype == object
    assert builtin_chart("heisenberg", P)._terms.dtype == np.int64


@pytest.mark.parametrize("name, p, n", SMALL)
def test_small_stage_matches_matrix_route_on_all_of_Q(name, p, n):
    chart = builtin_chart(name, p)
    Q = build_quotient(chart, n, 2)
    assert Q.size <= 243
    rng = random.Random(n)
    cols = Q.columns()
    tab = Q.mult_table()
    inverses = [ref.inv(Q, h) for h in range(Q.size)]
    for h in range(Q.size):
        for i in range(Q.dim):
            prod = _mul(ref.matrix(Q, h), generator_matrix(chart, i), chart.modulus)
            assert cols[i, 1, h] == ref.index_of_matrix(Q, prod)
        b = rng.randrange(Q.size)
        want = ref.mult(Q, h, b)
        assert Q.mult_array(h, b) == want and tab[h, b] == want
        assert Q.inverse_array(h) == inverses[h]
    # a 2-D batch keeps its shape
    idx = np.arange(Q.size).reshape(-1, Q.p)
    assert Q.inverse_array(idx).tolist() == np.array(inverses)[idx].tolist()
    for phi in automorphisms(chart):
        assert list(phi.perm(Q)) == [ref.apply_index(phi, Q, h) for h in range(Q.size)]


def test_columns_match_full_solve():
    stages = stages_up_to_729()
    stages += [(f"skew-n{n}", build_quotient(skew_heisenberg(P), n, 2)) for n in (1, 2)]
    # 3 * 729 products: more than one solve chunk
    stages.append(("heisenberg-n3", build_quotient(heisenberg_chart(P), 3, 2)))
    for name, Q in stages:
        assert (Q.columns() == columns_by_full_solve(Q)).all(), name


@pytest.mark.parametrize("name, n, solved", [("heisenberg", 2, 243), ("unipotent4", 1, 1458)])
def test_columns_solve_only_the_first_coordinate_slice(monkeypatch, name, n, solved):
    Q = build_quotient(builtin_chart(name, P), n, 2, verify=False)
    assert solved == Q.dim * Q.size // Q.radix
    sizes = []
    coordinates = GroupChart.coordinates

    def counted(chart, g, prec=None):
        sizes.append(len(g))
        return coordinates(chart, g, prec)

    monkeypatch.setattr(GroupChart, "coordinates", counted)
    Q.columns()
    assert sum(sizes) == solved


def test_columns_raise_when_a_power_is_not_the_identity():
    Q = build_quotient(heisenberg_chart(P), 2, 2, verify=False)
    solve = Q.index_of_matrices

    def corrupted(mats):
        out = solve(mats)
        out[0] = (out[0] + Q.radix) % Q.size
        return out

    Q.index_of_matrices = corrupted
    with pytest.raises(InvariantViolation):
        Q.columns()
    assert Q._columns is None


def test_mult_table_matches_pairwise_products():
    # the table written one digit at a time against the route it replaced:
    # d lookups in the columns for every pair (a, b)
    for name, Q in stages_up_to_729():
        h = np.arange(Q.size)
        assert np.array_equal(Q.mult_table(), Q.mult_array(h[:, None], h[None, :])), name


def test_mult_table_allocates_about_one_table():
    # the pairwise route peaks at ~2.02 tables; the digit steps write into
    # the table itself
    for name, Q in stages_up_to_729():
        if Q.size < 243:
            continue
        Q.columns()
        tracemalloc.start()
        try:
            Q.mult_table()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        r = Q.radix
        assert peak <= (1 + 1 / r + 1 / r**2) * 8 * Q.size**2 + 64 * 1024, name


def test_cached_index_arrays_are_read_only():
    Q = build_quotient(heisenberg_chart(P), 1, 2)
    for cached in (Q.columns(), Q.mult_table()):
        with pytest.raises(ValueError, match="read-only"):
            cached[..., 1] = 0
    assert Q.mult_array(1, 0) == 1 and Q.inverse_array(0) == 0


@pytest.mark.parametrize("name, n", LARGE)
def test_729_stage_matches_matrix_route_on_samples(name, n):
    chart = builtin_chart(name, P)
    Q = build_quotient(chart, n, 2)
    assert Q.size == 729
    rng = random.Random(7)
    for _ in range(200):
        a, b = rng.randrange(Q.size), rng.randrange(Q.size)
        assert Q.mult_array(a, b) == ref.mult(Q, a, b)
    phi = automorphisms(chart)[0]
    perm = phi.perm(Q)
    for h in rng.sample(range(Q.size), 20):
        assert Q.inverse_array(h) == ref.inv(Q, h)
        assert perm[h] == ref.apply_index(phi, Q, h)


@pytest.fixture(scope="module")
def heis729():
    return build_quotient(heisenberg_chart(P), 2, 2)


@given(exps=st.lists(st.integers(-60, 60), min_size=6, max_size=6))
@settings(max_examples=30, deadline=None)
def test_random_products_match_matrix_route(heis729, exps):
    Q = heis729
    chart = Q.chart
    u, v = ref.word(chart, exps[:3]), ref.word(chart, exps[3:])
    want = ref.index_of_matrix(Q, _mul(u, v, chart.modulus))
    assert Q.mult_array(Q.index(exps[:3]), Q.index(exps[3:])) == want


def test_heis_swap_mahler_table_and_witness_match_matrix_route(heis729):
    Q = heis729
    chart = Q.chart
    phi = AutomorphismSpec.from_words(chart, HEIS_SWAP, name="swap")
    q = chart.modulus

    def f_ref(beta):
        g = _mul(ref.apply_matrix(phi, beta), ref.inverse(chart, ref.word(chart, beta)), q)
        return AlgebraElement.group_element(Q, ref.index_of_matrix(Q, g))

    degree = 6
    want = coeffs_by_dicts(f_ref, Q.dim, degree, Q.p, Q.N)
    table = aut_mahler_coeffs(phi, Q, degree)
    assert table.entries == want.entries
    assert table.decay_log == want.decay_log

    psi = [
        ref.index_of_matrix(Q, _mul(img, ref.inverse(chart, generator_matrix(chart, i)), q))
        for i, img in enumerate(phi.images)
    ]
    first = None
    for alpha in sorted(
        (a, b, c) for a in range(7) for b in range(7) for c in range(7) if a + b + c <= degree
    ):
        got = want.entries.get(alpha, AlgebraElement.zero(Q))
        if got != mahler_product_coeff(psi, Q, alpha):
            first = alpha
            break
    assert first is not None
    assert is_mahler_aut(phi, Q, degree, table) == (False, False, first)


def test_sparse_stage_builds_no_index_arrays():
    chart = heisenberg_chart(P)
    Q = build_quotient(chart, 4, 6, size_budget=10**7, verify=False)
    phi = AutomorphismSpec.conjugation(chart, chart.generators[0])
    assert phi.verify_homomorphism(Q)
    assert [v.value for v in q_growth(phi, range(2), Q)[1]] == [2, 3]
    assert Q._columns is None and Q._mult_table is None
    assert phi._perm is None


def test_sparse_group_law_matches_matrix_route():
    # |Q| = 3^12 is above the dense limit: mult_array and inverse_array solve
    # through the chart, for arrays and single indices alike
    Q = build_quotient(heisenberg_chart(P), 4, 6, size_budget=10**7)
    assert Q.size == 531441 and not Q.dense
    rng = random.Random(11)
    a = np.array([rng.randrange(Q.size) for _ in range(200)])
    b = np.array([rng.randrange(Q.size) for _ in range(200)])
    want_mult = [ref.mult(Q, x, y) for x, y in zip(a.tolist(), b.tolist())]
    want_inv = [ref.inv(Q, x) for x in a.tolist()]
    assert Q.mult_array(a, b).tolist() == want_mult
    assert Q.inverse_array(a).tolist() == want_inv
    assert [int(Q.mult_array(x, y)) for x, y in zip(a.tolist(), b.tolist())] == want_mult
    assert [int(Q.inverse_array(x)) for x in a.tolist()] == want_inv
    assert Q._columns is None and Q._mult_table is None


def test_exact_check_rejects_non_bijective_spec(heis729):
    Q = heis729
    chart = Q.chart
    trivial = AutomorphismSpec.from_words(chart, [(0, 0, 0)] * 3, name="trivial")
    assert not trivial.verify_homomorphism(Q)
    assert np.count_nonzero(trivial.perm(Q)) == 0
