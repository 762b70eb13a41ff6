"""The scalar routes through the automorphism layer, kept as the tests'
reference.

These are the implementations `mahler` used before every group product in
it became an index-array pass or a batched chart solve:

- `table_by_dicts` evaluates beta -> phi(g^beta) g^{-beta} one point at a
  time (`aut_periodic_f`) on the whole (D+1)^d grid and differences the
  grid of sparse algebra elements with `mahler_coeffs`;
- `formula_mismatches` compares a table with the ordered products
  (psi_1 - 1)^{alpha_1} ... (psi_d - 1)^{alpha_d} of `mahler_product_coeff`,
  built by algebra convolution, one multi-index at a time;
- `expand_by_divided_powers` sums m_alpha * divided_power(alpha, x) by
  convolution;
- `verify_by_pairs` checks phi(ab) = phi(a) phi(b) on the seeded random
  pairs of a stage above the dense limit, one scalar chart solve per
  product and per image;
- `q_growth_by_powers` raises z(g_i) to p^m in the stage algebra by
  repeated squaring, and rebuilds the chain phi^(p^m) for each axis.

`apply_index` is phi on one index: a lookup in `perm` on a dense stage
(`test_group_law` checks it against the matrix route) and the matrix route
above it.
"""

import random

import matrix_route
from iwasawa_kernel.algebra import AlgebraElement, build_quotient, lazard_value
from iwasawa_kernel.errors import PrecisionError, ValidationError
from iwasawa_kernel.mahler import _multi_indices, divided_power, mahler_coeffs, z_approximants


def apply_index(phi, Q, idx):
    if Q.dense:
        return int(phi.perm(Q)[idx])
    return matrix_route.apply_index(phi, Q, idx)


def aut_periodic_f(phi, Q):
    """beta -> phi(g^beta) g^{-beta}, p^n-periodic per coordinate."""

    def f(beta):
        if isinstance(beta, int):
            beta = (beta,)
        idx = Q.index(beta)
        return AlgebraElement.group_element(Q, Q.mult(apply_index(phi, Q, idx), Q.inv(idx)))

    return f


def table_by_dicts(phi, Q, degree):
    return mahler_coeffs(aut_periodic_f(phi, Q), Q.dim, degree, Q.p, Q.N)


def psi_indices(phi, Q):
    """psi(g_i) = phi(g_i) g_i^{-1} for every generator."""
    return [
        Q.mult(apply_index(phi, Q, Q.generator(i)), Q.inv(Q.generator(i)))
        for i in range(Q.dim)
    ]


def mahler_product_coeff(psi, Q, alpha):
    """The ordered product (psi_1-1)^{alpha_1} ... (psi_d-1)^{alpha_d} for
    the indices psi_i = psi(g_i) of Q."""
    out = AlgebraElement.one(Q)
    one = AlgebraElement.one(Q)
    for c, a in zip(psi, alpha):
        if a:
            out = out * (AlgebraElement.group_element(Q, c) - one) ** a
    return out


def formula_mismatches(phi, Q, table, shells):
    """Every |alpha| <= shells where ``table`` and the product formula
    differ, lexicographically; the first is the witness."""
    psi = psi_indices(phi, Q)
    return [
        alpha
        for alpha in _multi_indices(Q.dim, shells)
        if table.entries.get(alpha, AlgebraElement.zero(Q))
        != mahler_product_coeff(psi, Q, alpha)
    ]


def by_commutation(phi, Q):
    psi = psi_indices(phi, Q)
    return all(
        Q.mult(psi[i], Q.generator(j)) == Q.mult(Q.generator(j), psi[i])
        for i in range(Q.dim)
        for j in range(i + 1)
    )


def expand_by_divided_powers(phi, x, degree, table):
    Q = x.quotient
    approx = AlgebraElement.zero(Q)
    for alpha, m in table.entries.items():
        if sum(alpha) > degree:
            continue
        term = divided_power(alpha, x)
        if not term.is_zero():
            approx = approx + m * term
    target = AlgebraElement.zero(Q)
    for k, s in x.coeffs.items():
        target = target + AlgebraElement(Q, {apply_index(phi, Q, k): s})
    return approx, lazard_value(target - approx)


def verify_by_pairs(phi, Q, samples=20):
    rng = random.Random(23)
    for _ in range(samples):
        a = rng.randrange(Q.size)
        b = rng.randrange(Q.size)
        lhs = apply_index(phi, Q, Q.mult(a, b))
        rhs = Q.mult(apply_index(phi, Q, a), apply_index(phi, Q, b))
        if lhs != rhs:
            return False
    return True


def q_growth_by_powers(phi, i, m_range, regime, Q):
    if regime not in ("char0", "charp"):
        raise ValidationError(f"unknown regime {regime!r}")
    if regime == "charp" and Q.N != 1:
        Q = build_quotient(Q.chart, Q.n, 1, verify=False)
    if regime == "char0" and Q.N == 1:
        raise ValidationError("char0 regime needs coefficient precision N > 1")
    m_max = max(2, *m_range) if m_range else 2
    approx = z_approximants(phi, phi.chart.generators[i], range(m_max + 1))
    idxs = [matrix_route.index_of_matrix(Q, a) for a in approx]
    z, stable = approx[-1], idxs[-1] == idxs[-2]
    if not stable:
        raise PrecisionError("z-map approximants did not stabilize")
    zel = AlgebraElement.group_element(Q, matrix_route.index_of_matrix(Q, z))
    one = AlgebraElement.one(Q)
    return [lazard_value(zel ** (Q.p**m) - one) for m in m_range]
