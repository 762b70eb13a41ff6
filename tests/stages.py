"""Small stages and ideals shared by the differential tests."""

from iwasawa_kernel.algebra import b_monomial, build_quotient
from iwasawa_kernel.charts import builtin_chart


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
