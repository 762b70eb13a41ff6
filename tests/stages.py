"""Small stages and ideals shared by the differential tests, the dense
coefficient vectors of stage elements, and the all-of-Q route to a stage's
generator columns."""

import numpy as np

from iwasawa_kernel.algebra import AlgebraElement, b_monomial, build_quotient
from iwasawa_kernel.charts import builtin_chart, chart_from_matrices


def to_vector(x):
    """The coefficients of x as a dense vector of length |Q|."""
    vec = np.zeros(x.quotient.size, dtype=np.int64)
    vec[list(x.coeffs)] = list(x.coeffs.values())
    return vec


def from_vector(Q, vec):
    """The element of Q's algebra with the dense coefficient vector vec."""
    return AlgebraElement(Q, {int(i): int(v) for i, v in enumerate(vec) if v})


def small_stage_ideals():
    """Right ideals on every test-chart stage with |Q| <= 243 at p = 3."""
    stages = [("cyclic", n) for n in range(1, 6)]
    stages += [("abelian2", 1), ("abelian2", 2), ("abelian3", 1), ("abelian5", 1)]
    stages += [("heisenberg", 1)]
    out = []
    for name, n in stages:
        for N in (2, 3) if n == 1 else (2,):
            Q = build_quotient(builtin_chart(name, 3), n, N)
            assert Q.size <= 243
            alphas = [tuple(k if j == i else 0 for j in range(Q.dim))
                      for i in range(min(Q.dim, 3)) for k in (1, 2)]
            alphas.append(tuple([1] * Q.dim))
            gens = [[]] + [[b_monomial(Q, a)] for a in alphas]
            out += [(f"{name}-n{n}-N{N}-{i}", Q, g) for i, g in enumerate(gens)]
    return out


def stages_up_to_729(N=2):
    """(name, Q) for the test-chart stages with |Q| <= 729 at p = 3."""
    levels = [("cyclic", n) for n in range(1, 7)]
    levels += [("abelian2", n) for n in (1, 2, 3)] + [("abelian3", 1), ("abelian3", 2)]
    levels += [("abelian5", 1), ("heisenberg", 1), ("heisenberg", 2), ("unipotent4", 1)]
    out = []
    for name, n in levels:
        Q = build_quotient(builtin_chart(name, 3), n, N)
        assert Q.size <= 729
        out.append((f"{name}-n{n}", Q))
    return out


def skew_heisenberg(p):
    """Heisenberg on x1 = p(E12 + E23), x2 = p(E12 - E23), x3 = p^2 E13,
    where both products x1 x2 and x2 x1 are nonzero: [x1, x2] = -2 x3."""
    return chart_from_matrices(p, [
        ((0, p, 0), (0, 0, p), (0, 0, 0)),
        ((0, p, 0), (0, 0, -p), (0, 0, 0)),
        ((0, 0, p * p), (0, 0, 0), (0, 0, 0)),
    ])


def columns_by_full_solve(Q):
    """columns[i, k, h] = index of h * g_i^k, with every product h * g_i over
    all of Q solved through the chart and the powers composed from them."""
    chart, size = Q.chart, Q.size
    gens = chart.words(np.eye(Q.dim, dtype=np.int64))
    hs = chart.words(Q.coords_array())
    cols = np.empty((Q.dim, Q.radix, size), dtype=np.int64)
    cols[:, 0] = np.arange(size)
    for i, g in enumerate(gens):
        cols[i, 1] = Q.index_of_matrices(np.matmul(hs, g) % chart.modulus)
    for k in range(2, Q.radix):
        cols[:, k] = np.take_along_axis(cols[:, 1], cols[:, k - 1], axis=1)
    return cols
