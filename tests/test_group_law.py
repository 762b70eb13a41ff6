"""The index-array group law against the matrix route.

The package solves each dense stage's generator columns in batches and
does everything else by index arithmetic; ``matrix_route`` is the scalar
route it replaced (tuple-matrix exp/log, one-element iterative solves,
phi(g^beta) through exp(b log phi(g_i))).  Small stages are compared on
all of Q, |Q| = 729 stages on sampled pairs and random products.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matrix_route as ref
from iwasawa_kernel.algebra import AlgebraElement, build_quotient
from iwasawa_kernel.charts import _mul, builtin_chart, heisenberg_chart
from iwasawa_kernel.mahler import (
    AutomorphismSpec,
    aut_mahler_coeffs,
    is_mahler_aut,
    mahler_coeffs,
    mahler_product_coeff,
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
    for h in range(Q.size):
        for i in range(Q.dim):
            prod = _mul(ref.matrix(Q, h), generator_matrix(chart, i), chart.modulus)
            assert cols[i, 1, h] == ref.index_of_matrix(Q, prod)
        b = rng.randrange(Q.size)
        want = ref.mult(Q, h, b)
        assert Q.mult(h, b) == want and tab[h, b] == want
        assert Q.inv(h) == ref.inv(Q, h)
    for phi in automorphisms(chart):
        assert list(phi.perm(Q)) == [ref.apply_index(phi, Q, h) for h in range(Q.size)]


@pytest.mark.parametrize("name, n", LARGE)
def test_729_stage_matches_matrix_route_on_samples(name, n):
    chart = builtin_chart(name, P)
    Q = build_quotient(chart, n, 2)
    assert Q.size == 729
    rng = random.Random(7)
    for _ in range(200):
        a, b = rng.randrange(Q.size), rng.randrange(Q.size)
        assert Q.mult(a, b) == ref.mult(Q, a, b)
    phi = automorphisms(chart)[0]
    perm = phi.perm(Q)
    for h in rng.sample(range(Q.size), 20):
        assert Q.inv(h) == ref.inv(Q, h)
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
    assert Q.mult(Q.index(exps[:3]), Q.index(exps[3:])) == want


def test_heis_swap_mahler_table_and_witness_match_matrix_route(heis729):
    Q = heis729
    chart = Q.chart
    phi = AutomorphismSpec.from_words(chart, HEIS_SWAP, name="swap")
    q = chart.modulus

    def f_ref(beta):
        g = _mul(ref.apply_matrix(phi, beta), ref.inverse(chart, ref.word(chart, beta)), q)
        return AlgebraElement.group_element(Q, ref.index_of_matrix(Q, g))

    degree = 6
    want = mahler_coeffs(f_ref, Q.dim, degree, Q.p, Q.N, zero=AlgebraElement.zero(Q))
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
    assert [v.value for v in q_growth(phi, 1, range(2), "char0", Q)] == [2, 3]
    assert Q._columns is None and Q._inverse is None and Q._mult_table is None
    assert phi._perm is None


def test_exact_check_rejects_non_bijective_spec(heis729):
    Q = heis729
    chart = Q.chart
    trivial = AutomorphismSpec.from_words(chart, [(0, 0, 0)] * 3, name="trivial")
    assert not trivial.verify_homomorphism(Q)
    assert np.count_nonzero(trivial.perm(Q)) == 0
