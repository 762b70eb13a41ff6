"""Mahler expansions of continuous functions and of automorphisms.

Scalar side: the coefficients m_alpha(f) of a function on (Z/p^n)^d in the
binomial basis, by exact finite differencing, with a per-shell decay log
and partial-sum reconstruction.

Automorphism side: an automorphism given by generator images acts on a
quotient stage; the function beta -> phi(g^beta) g^{-beta} has algebra-
valued Mahler coefficients.  For Mahler automorphisms these factor as
ordered products of (psi(g_i))^{alpha_i} terms with psi(g) = phi(g)g^{-1};
both the factorization and the commutation criterion are checked
independently and must agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .algebra import (
    AlgebraElement,
    FiltValue,
    QuotientGroup,
    lazard_value,
)
from .charts import GroupChart, Matrix, _as_matrix, _mul
from .errors import BudgetError, PrecisionError, ValidationError
from .linalg import vp_int
from .padic import legendre_factorial_val


# ---------------------------------------------------------------------------
# scalar Mahler tables


@dataclass
class MahlerTable:
    """Coefficients m_alpha for |alpha| <= degree, with a decay log.

    decay_log[s] is the minimal valuation over the shell |alpha| = s
    (None when the shell vanishes identically).
    """

    dim: int
    degree: int
    entries: Dict[Tuple[int, ...], object]
    decay_log: List[Optional[int]]

    def coeff(self, alpha: Tuple[int, ...]):
        return self.entries.get(alpha, 0)

    def support_shell(self) -> int:
        """Largest shell carrying a nonzero coefficient (-1 if empty)."""
        last = -1
        for alpha in self.entries:
            last = max(last, sum(alpha))
        return last


def _shell_val(value, p: int, N: int) -> Optional[int]:
    if isinstance(value, AlgebraElement):
        if value.is_zero():
            return None
        return min(vp_int(c, p, N) for c in value.coeffs.values())
    value = int(value) % p**N
    if value == 0:
        return None
    return vp_int(value, p, N)


def mahler_coeffs(
    f: Callable,
    dim: int,
    degree: int,
    p: int,
    N: int,
    zero=0,
) -> MahlerTable:
    """Mahler coefficients of f on integer points of [0, degree]^dim.

    Computed by axis-wise forward differencing, which evaluates the
    alternating sum m_alpha = sum_{beta<=alpha} (-1)^{|alpha-beta|}
    binom(alpha,beta) f(beta) for every alpha at once.
    """
    if degree < 0:
        raise ValidationError("degree must be >= 0")
    grid: Dict[Tuple[int, ...], object] = {}

    def fill(prefix: Tuple[int, ...]):
        if len(prefix) == dim:
            grid[prefix] = f(prefix if dim > 1 else prefix[0])
            return
        for b in range(degree + 1):
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
            lines.setdefault(key, [None] * (degree + 1))[point[axis]] = val
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
        if sum(alpha) > degree:
            continue
        if isinstance(v, AlgebraElement):
            if not v.is_zero():
                entries[alpha] = v
        elif int(v) % p**N:
            entries[alpha] = int(v) % p**N
    decay = []
    for s in range(degree + 1):
        vals = [
            _shell_val(v, p, N) for a, v in entries.items() if sum(a) == s
        ]
        vals = [v for v in vals if v is not None]
        decay.append(min(vals) if vals else None)
    return MahlerTable(dim, degree, entries, decay)


def mahler_coeff_direct(f: Callable, alpha: Tuple[int, ...], zero=0):
    """One coefficient by the alternating-sum formula (cross-check route)."""
    dim = len(alpha)
    acc = zero

    def rec(i: int, beta: Tuple[int, ...], sign: int, binom: int):
        nonlocal acc
        if i == dim:
            val = f(beta if dim > 1 else beta[0])
            if isinstance(val, AlgebraElement):
                acc = acc + val.scale(sign * binom)
            else:
                acc = acc + sign * binom * val
            return
        for b in range(alpha[i] + 1):
            rec(
                i + 1,
                beta + (b,),
                sign * (-1) ** (alpha[i] - b),
                binom * math.comb(alpha[i], b),
            )

    rec(0, (), 1, 1)
    return acc


def tail_bound(T: MahlerTable) -> Optional[int]:
    """Observed lower valuation bound for shells beyond the cap.

    This is the decay-log value at the last populated shells; it is a
    witnessed bound, exact whenever the function is a finite binomial
    polynomial whose support lies within the cap.
    """
    vals = [v for v in T.decay_log[max(0, T.degree - 1):] if v is not None]
    return min(vals) if vals else None


def reconstruct(T: MahlerTable, gamma: Sequence[int], zero=0):
    """Partial Mahler sum f(gamma) ~= sum_alpha m_alpha binom(gamma, alpha)."""
    if isinstance(gamma, int):
        gamma = (gamma,)
    if len(gamma) != T.dim:
        raise ValidationError("evaluation point has wrong dimension")
    acc = zero
    for alpha, v in T.entries.items():
        c = 1
        for g, a in zip(gamma, alpha):
            c *= math.comb(g, a)
        if c == 0:
            continue
        if isinstance(v, AlgebraElement):
            acc = acc + v.scale(c)
        else:
            acc = acc + c * v
    return acc


# ---------------------------------------------------------------------------
# divided powers


def divided_power(alpha: Sequence[int], x: AlgebraElement) -> AlgebraElement:
    """The operator scaling the g^beta component by binom(beta, alpha).

    beta is lifted from Z/p^n to [0, p^n) and the binomial is an exact
    integer, so no precision is lost at the stage.
    """
    Q = x.quotient
    if len(alpha) != Q.dim:
        raise ValidationError("multi-index length mismatch")
    out: Dict[int, int] = {}
    for k, s in x.coeffs.items():
        beta = Q.coords(k)
        c = 1
        for b, a in zip(beta, alpha):
            c *= math.comb(b, a)
            if c == 0:
                break
        if c:
            out[k] = s * c
    return AlgebraElement(Q, out)


# ---------------------------------------------------------------------------
# automorphisms


@dataclass
class AutomorphismSpec:
    """An automorphism of the chart group, given by generator images.

    On a dense stage Q the automorphism is the index array `perm(Q)`; above
    the dense budget each image is solved through the chart matrices.
    """

    chart: GroupChart
    images: Tuple[Matrix, ...]
    name: str = "aut"
    # (Q, perm) for the last dense stage perm() was asked about
    _perm: Optional[Tuple[QuotientGroup, np.ndarray]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if len(self.images) != self.chart.dim:
            raise ValidationError("need one image per generator")

    @staticmethod
    def from_words(chart: GroupChart, words: Sequence[Sequence[int]], name: str = "aut"):
        return AutomorphismSpec(
            chart, tuple(chart.word(w) for w in words), name=name
        )

    @staticmethod
    def identity(chart: GroupChart) -> "AutomorphismSpec":
        return AutomorphismSpec(chart, chart.generators, name="identity")

    @staticmethod
    def conjugation(chart: GroupChart, g: Matrix, name: str = "conj") -> "AutomorphismSpec":
        q = chart.modulus
        ginv = chart.inverse(g)
        return AutomorphismSpec(
            chart,
            tuple(_mul(_mul(g, h, q), ginv, q) for h in chart.generators),
            name=name,
        )

    # -- action ---------------------------------------------------------

    def image_words(self, betas) -> np.ndarray:
        """phi(g^b) = phi(g_1)^{b_1} ... phi(g_d)^{b_d} for each row b of
        betas, each power evaluated as exp(b_i log phi(g_i))."""
        return self.chart.power_words(self.chart.log_powers(self.images), betas)

    def image_word(self, beta: Sequence[int]) -> Matrix:
        return _as_matrix(self.image_words([beta])[0])

    def perm(self, Q: QuotientGroup) -> np.ndarray:
        """phi on a dense stage as an index array: perm[idx(g^beta)] is the
        index of phi(g_1)^{b_1} ... phi(g_d)^{b_d}.

        The d images take one batched chart solve; the rest is index
        arithmetic.  The array is kept for the last stage asked about.
        """
        if self._perm is None or self._perm[0] is not Q:
            Q._require_dense()
            solved = self.chart.coordinates(self.chart.batch(self.images), prec=Q.n)
            imgs = Q.index_array(solved)
            coords = Q.coords_array()
            perm = np.zeros(Q.size, dtype=np.int64)
            for i, c in enumerate(imgs):
                powers = [0]  # c^k for 0 <= k < p^n
                for _ in range(1, Q.radix):
                    powers.append(Q.mult(powers[-1], int(c)))
                perm = Q.mult_array(perm, np.array(powers)[coords[:, i]])
            self._perm = (Q, perm)
        return self._perm[1]

    def apply_index(self, Q: QuotientGroup, idx: int) -> int:
        if Q.dense:
            return int(self.perm(Q)[idx])
        return Q.index_of_matrix(self.image_word(Q.coords(idx)))

    def apply_element(self, x: AlgebraElement) -> AlgebraElement:
        Q = x.quotient
        out: Dict[int, int] = {}
        for k, s in x.coeffs.items():
            j = self.apply_index(Q, k)
            out[j] = out.get(j, 0) + s
        return AlgebraElement(Q, out)

    def psi_index(self, Q: QuotientGroup, i: int) -> int:
        """psi(g_i) = phi(g_i) g_i^{-1} as an index of Q."""
        g = Q.generator(i)
        return Q.mult(self.apply_index(Q, g), Q.inv(g))

    def compose(self, other: "AutomorphismSpec") -> "AutomorphismSpec":
        """self after other."""
        betas = self.chart.coordinates(self.chart.batch(other.images))
        imgs = tuple(_as_matrix(m) for m in self.image_words(betas))
        return AutomorphismSpec(self.chart, imgs, name=f"{self.name}*{other.name}")

    def power(self, k: int) -> "AutomorphismSpec":
        out = AutomorphismSpec.identity(self.chart)
        base = self
        while k:
            if k & 1:
                out = base.compose(out)
            k >>= 1
            if k:
                base = base.compose(base)
        return out

    # -- verification ---------------------------------------------------

    def verify_homomorphism(self, Q: QuotientGroup, samples: int = 20) -> bool:
        """Whether phi acts on Q as an automorphism.

        Dense stages are checked exactly: perm(Q) must be a permutation with
        phi(h g_i) = phi(h) phi(g_i) for every h and every generator g_i.
        Above the dense budget, ``samples`` random products are checked.
        """
        if Q.dense:
            perm = self.perm(Q)
            if not np.array_equal(np.sort(perm), np.arange(Q.size)):
                return False
            for i in range(Q.dim):
                g = Q.generator(i)
                img = Q.right_mult_perm(int(perm[g]))
                if not np.array_equal(perm[Q.right_mult_perm(g)], img[perm]):
                    return False
            return True
        import random

        rng = random.Random(23)
        for _ in range(samples):
            a = rng.randrange(Q.size)
            b = rng.randrange(Q.size)
            lhs = self.apply_index(Q, Q.mult(a, b))
            rhs = Q.mult(self.apply_index(Q, a), self.apply_index(Q, b))
            if lhs != rhs:
                return False
        return True


# ---------------------------------------------------------------------------
# automorphism Mahler machinery


def aut_periodic_f(phi: AutomorphismSpec, Q: QuotientGroup) -> Callable:
    """beta -> phi(g^beta) g^{-beta}, p^n-periodic per coordinate."""

    def f(beta):
        if isinstance(beta, int):
            beta = (beta,)
        idx = Q.index(beta)
        return AlgebraElement.group_element(
            Q, Q.mult(phi.apply_index(Q, idx), Q.inv(idx))
        )

    return f


def aut_mahler_coeffs(
    phi: AutomorphismSpec, Q: QuotientGroup, degree: int
) -> MahlerTable:
    """Mahler table of beta -> phi(g^beta) g^{-beta}, with values in the
    stage algebra."""
    f = aut_periodic_f(phi, Q)
    return mahler_coeffs(f, Q.dim, degree, Q.p, Q.N, zero=AlgebraElement.zero(Q))


def mahler_product_coeff(
    psi: Sequence[int], Q: QuotientGroup, alpha: Sequence[int]
) -> AlgebraElement:
    """The ordered product (psi_1-1)^{alpha_1} ... (psi_d-1)^{alpha_d} for
    the indices psi_i = psi(g_i) of Q."""
    out = AlgebraElement.one(Q)
    one = AlgebraElement.one(Q)
    for c, a in zip(psi, alpha):
        if a:
            out = out * (AlgebraElement.group_element(Q, c) - one) ** a
    return out


def _multi_indices(dim: int, degree: int):
    """All alpha in N^dim with |alpha| <= degree, lexicographically."""
    if dim == 0:
        yield ()
        return
    for a in range(degree + 1):
        for rest in _multi_indices(dim - 1, degree - a):
            yield (a,) + rest


def is_mahler_aut(
    phi: AutomorphismSpec,
    Q: QuotientGroup,
    degree: int,
    table: Optional[MahlerTable] = None,
) -> Tuple[bool, bool, Optional[Tuple[int, ...]]]:
    """(by_formula, by_commutation, witness) for the factorization criterion.

    by_formula compares the Mahler table (computed here unless given) with
    the ordered-product formula for every |alpha| <= degree; witness is the
    first multi-index where they differ, None when by_formula holds.
    by_commutation checks that psi(g_i) commutes with g_j for all j <= i.
    The two are equivalent; callers treat disagreement as an internal
    invariant violation.
    """
    if table is None:
        table = aut_mahler_coeffs(phi, Q, degree)
    psi = [phi.psi_index(Q, i) for i in range(Q.dim)]
    witness = None
    # multi-indices that vanish in the table are checked too
    for alpha in _multi_indices(Q.dim, degree):
        want = mahler_product_coeff(psi, Q, alpha)
        got = table.entries.get(alpha, AlgebraElement.zero(Q))
        if not isinstance(got, AlgebraElement):
            got = AlgebraElement(Q, {0: got})
        if got != want:
            witness = alpha
            break

    by_commutation = all(
        Q.mult(psi[i], Q.generator(j)) == Q.mult(Q.generator(j), psi[i])
        for i in range(Q.dim)
        for j in range(i + 1)
    )
    return witness is None, by_commutation, witness


def expand_aut(
    phi: AutomorphismSpec,
    x: AlgebraElement,
    degree: int,
    table: Optional[MahlerTable] = None,
) -> Tuple[AlgebraElement, FiltValue]:
    """Truncated expansion phi(x) ~= sum_{|alpha|<=D} m_alpha ∂^{(alpha)} x
    and the filtration weight of the residual."""
    Q = x.quotient
    if table is None:
        table = aut_mahler_coeffs(phi, Q, degree)
    approx = AlgebraElement.zero(Q)
    for alpha, m in table.entries.items():
        if sum(alpha) > degree:
            continue
        term = divided_power(alpha, x)
        if term.is_zero():
            continue
        if isinstance(m, AlgebraElement):
            approx = approx + m * term
        else:
            approx = approx + term.scale(int(m))
    residual = phi.apply_element(x) - approx
    return approx, lazard_value(residual)


# ---------------------------------------------------------------------------
# the z-map and growth data


def z_approximants(
    phi: AutomorphismSpec, g: Matrix, m_range: Sequence[int]
) -> List[Matrix]:
    """(phi^{p^m}(g) g^{-1})^{p^{-m}} for m in m_range."""
    chart = phi.chart
    q = chart.modulus
    out = []
    beta = chart.coordinates(g)
    for m in m_range:
        pm = chart.p**m
        phim = phi.power(pm)
        h = _mul(phim.image_word(beta), chart.inverse(g), q)
        out.append(chart.root(h, m))
    return out


def z_stable(
    phi: AutomorphismSpec, g: Matrix, m_max: int, Q: QuotientGroup
) -> Tuple[Matrix, bool]:
    """Last approximant, plus whether consecutive approximants agreed in Q."""
    approx = z_approximants(phi, g, range(m_max + 1))
    idxs = [Q.index_of_matrix(a) for a in approx]
    stable = len(idxs) < 2 or idxs[-1] == idxs[-2]
    return approx[-1], stable


def find_m1(phi: AutomorphismSpec, Q: QuotientGroup, m_max: int = 6) -> Optional[int]:
    """Least m with w(z(g_i)^{p^m} - 1) > 1 for every basis index i."""
    zs = []
    for i in range(Q.dim):
        z, _ = z_stable(phi, phi.chart.generators[i], min(2, m_max), Q)
        zs.append(AlgebraElement.group_element(Q, Q.index_of_matrix(z)))
    one = AlgebraElement.one(Q)
    for m in range(m_max + 1):
        ok = True
        for z in zs:
            v = lazard_value(z ** (Q.p**m) - one)
            if v.exact and v.value <= 1:
                ok = False
                break
        if ok:
            return m
    return None


def q_growth(
    phi: AutomorphismSpec,
    i: int,
    m_range: Sequence[int],
    regime: str,
    Q: QuotientGroup,
) -> List[FiltValue]:
    """Weights of q_{i,m} = z(g_i)^{p^m} - 1 over the m-range.

    regime 'char0' keeps the stage's N > 1; 'charp' reduces coefficients
    to Z/p.  The caller fits the affine / p-power growth law.
    """
    from .algebra import build_quotient

    if regime not in ("char0", "charp"):
        raise ValidationError(f"unknown regime {regime!r}")
    if regime == "charp" and Q.N != 1:
        Q = build_quotient(Q.chart, Q.n, 1, verify=False)
    if regime == "char0" and Q.N == 1:
        raise ValidationError("char0 regime needs coefficient precision N > 1")
    z, stable = z_stable(phi, phi.chart.generators[i], max(2, *m_range) if m_range else 2, Q)
    if not stable:
        raise PrecisionError("z-map approximants did not stabilize")
    zel = AlgebraElement.group_element(Q, Q.index_of_matrix(z))
    one = AlgebraElement.one(Q)
    return [lazard_value(zel ** (Q.p**m) - one) for m in m_range]
