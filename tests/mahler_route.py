"""The scalar routes through the automorphism layer, kept as the tests'
reference.

These are the implementations `mahler` used before every group product in
it became an index-array pass or a batched chart solve:

- `coeffs_by_dicts` is the dict-grid differencing `mahler_coeffs` used
  before it became triples: f is evaluated on the simplex |beta| <= D,
  scalar or algebra-valued, and differenced one axis line at a time; its
  decay log takes the least valuation entry by entry (`_decay_log`);
- `table_by_dicts` evaluates beta -> phi(g^beta) g^{-beta} one point at a
  time (`aut_periodic_f`) and differences it with `coeffs_by_dicts`;
- `formula_mismatches` compares a table with the ordered products
  (psi_1 - 1)^{alpha_1} ... (psi_d - 1)^{alpha_d} of `mahler_product_coeff`,
  built by algebra convolution, one multi-index at a time;
- `expand_by_divided_powers` sums m_alpha * divided_power(alpha, x) by
  convolution, for one degree;
- `verify_by_pairs` checks phi(ab) = phi(a) phi(b) on the seeded random
  pairs of a stage above the dense limit, one scalar chart solve per
  product and per image;
- `q_growth_by_powers` raises z(g_i) to p^m in the stage algebra by
  repeated squaring, and rebuilds the chain phi^(p^m) for each axis;
- `z_approximants_by_roots` is the z-map of one element, with one scalar
  coordinate solve and one scalar root per m.

`apply_index` is phi on one index: a lookup in `perm` on a dense stage
(`test_group_law` checks it against the matrix route) and the matrix route
above it.
"""

import random
from typing import Dict, List, Optional, Tuple

import matrix_route
from iwasawa_kernel.algebra import AlgebraElement, build_quotient, lazard_value
from iwasawa_kernel.errors import PrecisionError, ValidationError
from iwasawa_kernel.mahler import (
    MahlerTable,
    _multi_indices,
    divided_power,
    p_power_chain,
)
from iwasawa_kernel.padic import vp_int


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
        prod = Q.mult_array(apply_index(phi, Q, idx), Q.inverse_array(idx))
        return AlgebraElement.group_element(Q, int(prod))

    return f


def _shell_val(value, p: int, N: int) -> Optional[int]:
    if isinstance(value, AlgebraElement):
        if value.is_zero():
            return None
        return min(vp_int(c, p, N) for c in value.coeffs.values())
    value = int(value) % p**N
    if value == 0:
        return None
    return vp_int(value, p, N)


def _decay_log(entries: Dict, degree: int, p: int, N: int) -> List[Optional[int]]:
    """Per shell |alpha| = s <= degree, the least valuation of a coefficient
    of the entries (None when the shell vanishes)."""
    decay = []
    for s in range(degree + 1):
        vals = [
            _shell_val(v, p, N) for a, v in entries.items() if sum(a) == s
        ]
        vals = [v for v in vals if v is not None]
        decay.append(min(vals) if vals else None)
    return decay


def coeffs_by_dicts(f, dim: int, degree: int, p: int, N: int) -> MahlerTable:
    """Mahler coefficients m_alpha of f for |alpha| <= degree.

    Computed by axis-wise forward differencing, which evaluates the
    alternating sum m_alpha = sum_{beta<=alpha} (-1)^{|alpha-beta|}
    binom(alpha,beta) f(beta) for every alpha at once.  m_alpha reads f
    only at beta <= alpha, and differencing along an axis line keeps to
    the simplex |beta| <= degree, so f is evaluated and differenced there
    alone.
    """
    if degree < 0:
        raise ValidationError("degree must be >= 0")
    grid: Dict[Tuple[int, ...], object] = {}

    def fill(prefix: Tuple[int, ...]):
        if len(prefix) == dim:
            grid[prefix] = f(prefix if dim > 1 else prefix[0])
            return
        for b in range(degree + 1 - sum(prefix)):
            fill(prefix + (b,))

    fill(())
    # difference along each axis in turn
    for axis in range(dim):
        new_grid: Dict[Tuple[int, ...], object] = {}
        # iteratively: Delta^k along this axis stored at coordinate k
        # process each line independently
        lines: Dict[Tuple[int, ...], List[object]] = {}
        for point, val in grid.items():
            key = point[:axis] + point[axis + 1:]
            lines.setdefault(key, [None] * (degree + 1 - sum(key)))[point[axis]] = val
        for key, line in lines.items():
            vals = list(line)
            out = [vals[0]]
            for _ in range(degree):
                vals = [b - a for a, b in zip(vals, vals[1:])]
                if not vals:
                    break
                out.append(vals[0])
            for k, v in enumerate(out):
                new_grid[key[:axis] + (k,) + key[axis:]] = v
        grid = new_grid

    entries = {}
    for alpha, v in grid.items():
        if isinstance(v, AlgebraElement):
            if not v.is_zero():
                entries[alpha] = v
        elif int(v) % p**N:
            entries[alpha] = int(v) % p**N
    return MahlerTable(dim, degree, entries, _decay_log(entries, degree, p, N))


def table_by_dicts(phi, Q, degree):
    return coeffs_by_dicts(aut_periodic_f(phi, Q), Q.dim, degree, Q.p, Q.N)


def psi_indices(phi, Q):
    """psi(g_i) = phi(g_i) g_i^{-1} for every generator."""
    return [
        int(Q.mult_array(apply_index(phi, Q, Q.generator(i)), Q.inverse_array(Q.generator(i))))
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
        Q.mult_array(psi[i], Q.generator(j)) == Q.mult_array(Q.generator(j), psi[i])
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
        lhs = apply_index(phi, Q, int(Q.mult_array(a, b)))
        rhs = int(Q.mult_array(apply_index(phi, Q, a), apply_index(phi, Q, b)))
        if lhs != rhs:
            return False
    return True


def z_approximants_by_roots(chain, g, m_range):
    """(phi^{p^m}(g) g^{-1})^{p^{-m}} for m in m_range, one element at a time."""
    chart = chain[0].chart
    beta, ginv = chart.coordinates(g), chart.inverse(g)
    return [
        chart.root(matrix_route._mul(chain[m].image_words([beta])[0], ginv, chart.modulus), m)
        for m in m_range
    ]


def q_growth_by_powers(phi, i, m_range, regime, Q):
    if regime not in ("char0", "charp"):
        raise ValidationError(f"unknown regime {regime!r}")
    if regime == "charp" and Q.N != 1:
        Q = build_quotient(Q.chart, Q.n, 1, verify=False)
    if regime == "char0" and Q.N == 1:
        raise ValidationError("char0 regime needs coefficient precision N > 1")
    m_max = max(2, *m_range) if m_range else 2
    approx = z_approximants_by_roots(
        p_power_chain(phi, m_max), phi.chart.generators[i], range(m_max + 1)
    )
    idxs = [matrix_route.index_of_matrix(Q, a) for a in approx]
    z, stable = approx[-1], idxs[-1] == idxs[-2]
    if not stable:
        raise PrecisionError("z-map approximants did not stabilize")
    zel = AlgebraElement.group_element(Q, matrix_route.index_of_matrix(Q, z))
    one = AlgebraElement.one(Q)
    return [lazard_value(zel ** (Q.p**m) - one) for m in m_range]
