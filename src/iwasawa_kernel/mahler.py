"""Mahler expansions of continuous functions and of automorphisms.

Scalar side: the coefficients m_alpha(f) of a function on (Z/p^n)^d in the
binomial basis, by exact finite differencing, with a per-shell decay log
and partial-sum reconstruction.  Scalar, algebra-valued and group-valued
functions, and the product law a stage fits, share one differencing
kernel, `_difference`, on (point, label, weight) triples.

Automorphism side: an automorphism given by generator images acts on a
quotient stage; the function beta -> phi(g^beta) g^{-beta} has algebra-
valued Mahler coefficients.  For Mahler automorphisms these factor as
ordered products of (psi(g_i) - 1)^{alpha_i} terms with psi(g) = phi(g)g^{-1};
both the factorization and the commutation criterion are checked
independently and must agree.  The layer sees the stage only through index
arrays: every product and inverse is a `mult_array` or `inverse_array`
call, and phi is `apply_array` on every stage, so nothing is solved through
the chart but phi's d images and, in the z-map, the roots it indexes.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .algebra import (
    AlgebraElement,
    FiltValue,
    QuotientGroup,
    lazard_value,
)
from .charts import GroupChart, Matrix, _as_matrix
from .errors import PrecisionError, ValidationError, require_bytes
from .padic import vp_int

# the seeded pairs (a, b) `verify_homomorphism` checks above the dense limit
_HOMOMORPHISM_SAMPLES = 20


# ---------------------------------------------------------------------------
# scalar Mahler tables


@dataclass
class MahlerTable:
    """Coefficients m_alpha for |alpha| <= degree, with a decay log.

    decay_log[s] is the minimal valuation over the shell |alpha| = s
    (None when the shell vanishes identically).  ``quotient`` is the stage
    whose algebra holds the coefficients, None for scalar ones.
    """

    dim: int
    degree: int
    entries: Dict[Tuple[int, ...], object]
    decay_log: List[Optional[int]]
    quotient: Optional[QuotientGroup] = None

    def support_shell(self) -> int:
        """Largest shell carrying a nonzero coefficient (-1 if empty)."""
        last = -1
        for alpha in self.entries:
            last = max(last, sum(alpha))
        return last


def mahler_coeffs(f: Callable, dim: int, degree: int, p: int, N: int) -> MahlerTable:
    """Mahler coefficients m_alpha, |alpha| <= degree, of f on N^dim (f
    takes an int when dim == 1, else a tuple).

    m_alpha = sum_{beta<=alpha} (-1)^{|alpha-beta|} binom(alpha,beta) f(beta)
    reads f only on |beta| <= degree.  There f becomes (point, label,
    weight) triples for `_mahler_table`: one per point, with weight
    f(beta) mod p^N and a constant label, for a scalar f, and one per
    support element of f(beta) for an algebra-valued f.
    """
    if degree < 0:
        raise ValidationError("degree must be >= 0")
    points = _multi_index_array(dim, degree, p**N)
    values = [f(tuple(b) if dim > 1 else b[0]) for b in points.tolist()]
    if isinstance(values[0], AlgebraElement):
        return _mahler_table(
            np.repeat(points, [len(v.coeffs) for v in values], axis=0),
            [h for v in values for h in v.coeffs],
            [c for v in values for c in v.coeffs.values()],
            degree, p, N, values[0].quotient,
        )
    return _mahler_table(points, [0] * len(values), list(map(int, values)), degree, p, N)


def reconstruct(T: MahlerTable, gamma: Sequence[int]):
    """Partial Mahler sum f(gamma) ~= sum_alpha m_alpha binom(gamma, alpha),
    summed from the zero of the coefficients' ring."""
    if isinstance(gamma, int):
        gamma = (gamma,)
    if len(gamma) != T.dim:
        raise ValidationError("evaluation point has wrong dimension")
    acc = 0 if T.quotient is None else AlgebraElement.zero(T.quotient)
    for alpha, v in T.entries.items():
        c = 1
        for g, a in zip(gamma, alpha):
            c *= math.comb(g, a)
        if c == 0:
            continue
        acc = acc + (c * v if T.quotient is None else v.scale(c))
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
    betas = Q.coords_array(list(x.coeffs)).tolist()
    for (k, s), beta in zip(x.coeffs.items(), betas):
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

    phi(g^beta) is the ordered product of the powers exp(b_i log phi(g_i));
    the divided powers of the logarithms are computed on first use and kept,
    since the images never change.  On a stage Q, phi acts on index arrays
    through the power table of the images' indices (`apply_array`).
    """

    chart: GroupChart
    images: Tuple[Matrix, ...]
    name: str = "aut"
    # chart.log_powers(images), set by the first image_words call
    _log_terms: Optional[np.ndarray] = field(
        default=None, init=False, repr=False, compare=False
    )
    # (Q, pw), pw[k, i] the index of phi(g_i)^k, for the last stage asked about
    _powers: Optional[Tuple[QuotientGroup, np.ndarray]] = field(
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
        g, ginv = chart.batch([g, chart.inverse(g)])
        images = g @ chart.batch(chart.generators) % q @ ginv % q
        return AutomorphismSpec(chart, tuple(map(_as_matrix, images)), name=name)

    # -- action ---------------------------------------------------------

    def image_words(self, betas) -> np.ndarray:
        """phi(g^b) = phi(g_1)^{b_1} ... phi(g_d)^{b_d} for each row b of
        betas, each power evaluated as exp(b_i log phi(g_i))."""
        if self._log_terms is None:
            self._log_terms = self.chart.log_powers(self.images)
        return self.chart.power_words(self._log_terms, betas)

    def apply_array(self, Q: QuotientGroup, idx) -> np.ndarray:
        """phi on an array of indices of Q: the ordered products
        phi(g_1)^{b_1} ... phi(g_d)^{b_d} from the power table of the images,
        whose indices take one chart solve per stage."""
        idx = np.asarray(idx, dtype=np.int64)
        if self._powers is None or self._powers[0] is not Q:
            imgs = self.chart.coordinates(self.chart.batch(self.images), prec=Q.n)
            self._powers = (Q, _power_table(Q, Q.index_array(imgs), Q.radix - 1))
        return _ordered(Q, self._powers[1], Q.coords_array(idx.ravel())).reshape(idx.shape)

    def apply_element(self, x: AlgebraElement) -> AlgebraElement:
        Q = x.quotient
        out: Dict[int, int] = {}
        for j, s in zip(self.apply_array(Q, list(x.coeffs)).tolist(), x.coeffs.values()):
            out[j] = out.get(j, 0) + s
        return AlgebraElement(Q, out)

    def compose(self, other: "AutomorphismSpec") -> "AutomorphismSpec":
        """self after other."""
        return AutomorphismSpec(
            self.chart, self._after(other.images), name=f"{self.name}*{other.name}"
        )

    def _after(self, images: Tuple[Matrix, ...]) -> Tuple[Matrix, ...]:
        """The generator images of self after the map with generator images
        ``images``."""
        betas = self.chart.coordinates(self.chart.batch(images))
        return tuple(_as_matrix(m) for m in self.image_words(betas))

    def power(self, k: int) -> "AutomorphismSpec":
        """self^k for k >= 0 by repeated squaring, named ``name^k``.  The
        product starts as the images of the square at the lowest set bit of
        k, so each squaring and each later bit takes one coordinate solve."""
        if k < 0:
            raise ValidationError(f"automorphism powers need k >= 0, got {k}")
        images, base = None, self
        e = k
        while e:
            if e & 1:
                images = base.images if images is None else base._after(images)
            e >>= 1
            if e:
                base = AutomorphismSpec(self.chart, base._after(base.images), name=self.name)
        if images is None:
            images = self.chart.generators
        return AutomorphismSpec(self.chart, images, name=f"{self.name}^{k}")

    # -- verification ---------------------------------------------------

    def verify_homomorphism(self, Q: QuotientGroup) -> bool:
        """Whether phi acts on Q as an automorphism: phi(ab) = phi(a) phi(b)
        through `apply_array` and `mult_array`.

        On a dense stage the check is exact: phi must permute Q, and the
        pairs (a, b) are every (h, g_i).  Above the dense limit they are
        `_HOMOMORPHISM_SAMPLES` random pairs, drawn from a fixed seed.
        """
        if Q.dense:
            a = np.arange(Q.size)
            image = self.apply_array(Q, a)
            if not np.array_equal(np.sort(image), a):
                return False
            b = Q.index_array(np.eye(Q.dim, dtype=np.int64))[:, None]
            # phi of all of Q is at hand, and phi of a product a lookup in it
            lhs = image[Q.mult_array(a, b)]
        else:
            rng = random.Random(23)
            a, b = np.array([[rng.randrange(Q.size) for _ in range(2)]
                             for _ in range(_HOMOMORPHISM_SAMPLES)], dtype=np.int64).T
            image = self.apply_array(Q, a)
            lhs = self.apply_array(Q, Q.mult_array(a, b))
        rhs = Q.mult_array(image, self.apply_array(Q, b))
        return bool(np.array_equal(lhs, rhs))


# ---------------------------------------------------------------------------
# group-valued functions as index arrays, and the one differencing kernel


def _power_table(Q: QuotientGroup, bases: np.ndarray, top: int) -> np.ndarray:
    """pw[k, i] = bases[i]^k in Q for 0 <= k <= top; with rows 0 .. m - 1
    filled, one `mult_array` call fills m - 1 more as b^(m - 1) b^j."""
    pw = np.zeros((top + 1, len(bases)), dtype=np.int64)
    pw[1:2] = bases
    m = 2
    while m <= top:
        step = min(m - 1, top + 1 - m)
        pw[m:m + step] = Q.mult_array(pw[m - 1], pw[1:step + 1])
        m += step
    return pw


def _ordered(Q: QuotientGroup, pw: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """b_1^{beta_1} ... b_d^{beta_d} for each row of betas, from the power
    table pw of the b_i."""
    out = pw[betas[:, 0], 0]
    for i in range(1, betas.shape[1]):
        out = Q.mult_array(out, pw[betas[:, i], i])
    return out


def _aut_values(phi: AutomorphismSpec, Q: QuotientGroup, betas: np.ndarray) -> np.ndarray:
    """Indices of phi(g^beta) g^{-beta} for each row of betas, which is
    p^n-periodic in each coordinate."""
    idx = Q.index_array(betas)
    return Q.mult_array(phi.apply_array(Q, idx), Q.inverse_array(idx))


def _multi_indices(dim: int, degree: int):
    """All alpha in N^dim with |alpha| <= degree, lexicographically."""
    if dim == 0:
        yield ()
        return
    for a in range(degree + 1):
        for rest in _multi_indices(dim - 1, degree - a):
            yield (a,) + rest


def _multi_index_array(dim: int, degree: int, q: int) -> np.ndarray:
    """_multi_indices as a (count, dim) array, refused before it is listed
    when the first differencing pass on one triple per point, with weights
    mod q, would not fit."""
    _require_pass_bytes(
        math.comb(degree + dim + 1, dim + 1), math.comb(degree + dim, dim), dim, degree, q
    )
    return np.array(list(_multi_indices(dim, degree)), dtype=np.int64).reshape(-1, dim)


def _residue_dtype(q: int):
    """int64 when a product of two residues mod q fits in it, else Python ints."""
    return np.int64 if (q - 1) ** 2 < 2**63 else object


def _require_pass_bytes(triples: int, inputs: int, dim: int, degree: int, q: int):
    """BudgetError before a differencing pass on N^dim sends ``inputs``
    triples to ``triples`` with weights mod q.  The pass holds at once its
    inputs, each triple's int64 (point, label) key and weight twice (its own
    and `_merge`'s sorted copy) and three int64 index arrays; a Python-int
    weight counts as its pointer and an int of q's size."""
    key = 8 * (dim + 1)
    weight = 8 if _residue_dtype(q) is np.int64 else 8 + sys.getsizeof(q)
    require_bytes(
        (2 * (key + weight) + 24) * triples + (key + weight) * inputs,
        f"--degree {degree}: a Mahler differencing pass",
    )


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Where each run of equal rows of a sorted key array begins."""
    first = np.ones(len(keys), dtype=bool)
    first[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    return np.flatnonzero(first)


def _merge(keys: np.ndarray, w: np.ndarray, q: int) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct rows of keys in lexicographic order, each with the sum of
    its weights mod q; rows whose sum vanishes are dropped."""
    order = np.lexsort(keys.T[::-1])
    keys, w = keys[order], w[order]
    starts = _run_starts(keys)
    keys, w = keys[starts], np.add.reduceat(w, starts) % q
    keep = w != 0
    return keys[keep], w[keep]


def _difference(points: np.ndarray, labels, weights, degree: int, q: int):
    """The Mahler coefficients mod q of (point, label, weight) triples on
    |beta| <= degree, as sorted (point, label) key rows and their nonzero
    coefficients.

    Differencing along an axis sends a triple at coordinate j to every
    k >= j that stays within shell ``degree``, with weight
    (-1)^(k-j) binom(k, j), and merges the triples with equal point and
    label.  Every weight is a residue mod q, so int64 holds the product of
    two while (q - 1)^2 < 2^63, and Python ints do beyond.
    """
    dim = points.shape[1]
    dtype = _residue_dtype(q)
    signed = np.array(
        [[(-1) ** (k - j) * math.comb(k, j) % q for j in range(degree + 1)]
         for k in range(degree + 1)],
        dtype=dtype,
    )
    # the point's coordinates, then the label
    keys = np.column_stack([points, np.asarray(labels, dtype=np.int64)])
    w = np.array([c % q for c in weights], dtype=dtype)
    for axis in range(dim):
        # k - j runs over 0 .. degree - |point| for each triple
        reach = degree + 1 - keys[:, :dim].sum(axis=1)
        _require_pass_bytes(int(reach.sum()), len(keys), dim, degree, q)
        src = np.repeat(np.arange(len(keys)), reach)
        j = keys[src, axis]
        k = j + np.arange(len(src)) - np.repeat(np.cumsum(reach) - reach, reach)
        keys, w = keys[src], w[src] * signed[k, j] % q
        keys[:, axis] = k
        del src, j, k  # not held through the merge
        keys, w = _merge(keys, w, q)
    return keys, w


def _mahler_table(
    points: np.ndarray,
    labels: Sequence[int],
    weights: Sequence[int],
    degree: int,
    p: int,
    N: int,
    Q: Optional[QuotientGroup] = None,
) -> MahlerTable:
    """Mahler table, by `_difference` mod p^N, of a function given on points
    |beta| <= degree as (point, label, weight) triples: its value at beta is
    the sum of weight * g_label over the triples at beta, with values in
    the algebra of Q, or the sum of the weights when Q is None (the labels
    are then a constant).
    """
    dim = points.shape[1]
    keys, w = _difference(points, labels, weights, degree, p**N)
    points, labels, coeffs = keys[:, :dim], keys[:, dim].tolist(), w.tolist()
    bounds = np.append(_run_starts(points), len(w)).tolist()
    entries = {
        tuple(points[lo].tolist()): coeffs[lo] if Q is None
        else AlgebraElement(Q, dict(zip(labels[lo:hi], coeffs[lo:hi])))
        for lo, hi in zip(bounds, bounds[1:])
    }
    decay: List[Optional[int]] = [None] * (degree + 1)
    for shell, c in zip(points.sum(axis=1).tolist(), coeffs):
        v = vp_int(c, p, N)
        decay[shell] = v if decay[shell] is None else min(decay[shell], v)
    return MahlerTable(dim, degree, entries, decay, Q)


# ---------------------------------------------------------------------------
# automorphism Mahler machinery


def aut_mahler_coeffs(
    phi: AutomorphismSpec, Q: QuotientGroup, degree: int
) -> MahlerTable:
    """Mahler table of beta -> phi(g^beta) g^{-beta}, with values in the
    stage algebra: the function on every |beta| <= degree is one index
    array, differenced by `_mahler_table` with unit weights."""
    if degree < 0:
        raise ValidationError("degree must be >= 0")
    alphas = _multi_index_array(Q.dim, degree, Q.coeff_mod)
    values = _aut_values(phi, Q, alphas)
    return _mahler_table(alphas, values, [1] * len(alphas), degree, Q.p, Q.N, Q)


def is_mahler_aut(
    phi: AutomorphismSpec,
    Q: QuotientGroup,
    degree: int,
    table: Optional[MahlerTable] = None,
) -> Tuple[bool, bool, Optional[Tuple[int, ...]]]:
    """(by_formula, by_commutation, witness) for the factorization criterion.

    by_formula compares the Mahler table with the ordered-product formula
    (psi_1 - 1)^{alpha_1} ... (psi_d - 1)^{alpha_d}, psi_i = phi(g_i) g_i^{-1},
    for every |alpha| <= max(degree, 2).  Shells 0 and 1 match the formula
    for every automorphism, and shell 2 matches exactly when psi(g_j)
    commutes with g_i for all i <= j, so fewer shells could not see a
    non-Mahler automorphism.  The table is computed here unless one of at
    least that degree is given.  Expanding each factor binomially makes the
    formula the Mahler table of k -> psi_1^{k_1} ... psi_d^{k_d}.  witness
    is the first multi-index, lexicographically, where the two differ, None
    when by_formula holds.  by_commutation checks that psi(g_i) commutes
    with g_j for all j <= i.  The two are equivalent; callers treat
    disagreement as an internal invariant violation.
    """
    if degree < 0:
        raise ValidationError("degree must be >= 0")
    shells = max(degree, 2)
    if table is None or table.degree < shells:
        table = aut_mahler_coeffs(phi, Q, shells)
    d = Q.dim
    alphas = _multi_index_array(d, shells, Q.coeff_mod)
    psi = _aut_values(phi, Q, np.eye(d, dtype=np.int64))
    products = _ordered(Q, _power_table(Q, psi, shells), alphas)
    formula = _mahler_table(alphas, products, [1] * len(alphas), shells, Q.p, Q.N, Q)
    # multi-indices that vanish in the table are checked too
    witness = next(
        (a for a in map(tuple, alphas.tolist())
         if table.entries.get(a) != formula.entries.get(a)),
        None,
    )
    i, j = np.tril_indices(d)
    gens = Q.index_array(np.eye(d, dtype=np.int64))
    by_commutation = bool(
        np.array_equal(Q.mult_array(psi[i], gens[j]), Q.mult_array(gens[j], psi[i]))
    )
    return witness is None, by_commutation, witness


def expand_aut(
    phi: AutomorphismSpec,
    xs: Sequence[AlgebraElement],
    degree: int,
    table: Optional[MahlerTable] = None,
) -> List[List[Tuple[AlgebraElement, FiltValue]]]:
    """For each element x of xs, the truncated expansions
    phi(x) ~= sum_{|alpha|<=d} m_alpha ∂^{(alpha)} x for d = 0 .. degree,
    each with the filtration weight of its residual; the table is computed
    here unless one of at least that degree is given.

    Each (alpha, label h, coefficient c) triple of the table contributes
    c s_k binom(beta_k, alpha) to h g_k for each term s_k g_k of an element:
    every product is in one `Q.mult_array` call over labels x supports,
    keyed by (element, index) as one integer.  The triples are ordered by
    shell, so the truncation at d merges the contiguous slice of shell d
    into the one at d - 1, for all the elements at once.
    """
    if not xs:
        return []
    Q = xs[0].quotient
    if table is None or table.degree < degree:
        table = aut_mahler_coeffs(phi, Q, degree)
    q = Q.coeff_mod
    dtype = _residue_dtype(q)
    flat = sorted(
        ((alpha, h, c)
         for alpha, m in table.entries.items() if sum(alpha) <= degree
         for h, c in m.coeffs.items()),
        key=lambda t: sum(t[0]),
    )
    alphas = np.array([t[0] for t in flat], dtype=np.int64).reshape(-1, Q.dim)
    labels = np.array([t[1] for t in flat], dtype=np.int64)
    # the terms s_k g_k of every element; owner holds each term's key offset
    owner = Q.size * np.repeat(np.arange(len(xs)), [len(x.coeffs) for x in xs])
    support = np.array([k for x in xs for k in x.coeffs], dtype=np.int64)
    scalars = np.array([s for x in xs for s in x.coeffs.values()], dtype=dtype)
    # binom[k, i, a] = binom(beta_k[i], a) mod q for the support's exponents beta_k
    top = int(alphas.max(initial=0))
    binom = np.array(
        [[[math.comb(b, a) % q for a in range(top + 1)] for b in beta]
         for beta in Q.coords_array(support).tolist()],
        dtype=dtype,
    ).reshape(len(support), Q.dim, top + 1)
    w = np.array([t[2] for t in flat], dtype=dtype)[:, None] * scalars % q
    for i in range(Q.dim):
        w = w * binom[:, i, alphas[:, i]].T % q
    keys = Q.mult_array(labels[:, None], support[None, :]) + owner
    # shell d is the rows edges[d]:edges[d + 1]
    edges = np.searchsorted(alphas.sum(axis=1), np.arange(degree + 2)).tolist()
    images = owner + phi.apply_array(Q, support)
    targets = _split(Q, *_merge(images[:, None], scalars, q), len(xs))
    merged, sums = np.zeros((0, 1), dtype=np.int64), np.zeros(0, dtype=dtype)
    out = [[] for _ in xs]
    for lo, hi in zip(edges, edges[1:]):
        merged, sums = _merge(
            np.concatenate([merged, keys[lo:hi].reshape(-1, 1)]),
            np.concatenate([sums, w[lo:hi].ravel()]),
            q,
        )
        for steps, target, approx in zip(out, targets, _split(Q, merged, sums, len(xs))):
            steps.append((approx, lazard_value(target - approx)))
    return out


def _split(
    Q: QuotientGroup, keys: np.ndarray, w: np.ndarray, count: int
) -> List[AlgebraElement]:
    """The ``count`` elements held by merged (key, weight) rows, where key =
    element position * |Q| + index: the keys are sorted, so each element's
    terms are one slice."""
    edges = np.searchsorted(keys[:, 0], Q.size * np.arange(count + 1)).tolist()
    idx, coeffs = (keys[:, 0] % Q.size).tolist(), w.tolist()
    return [AlgebraElement(Q, dict(zip(idx[lo:hi], coeffs[lo:hi])))
            for lo, hi in zip(edges, edges[1:])]


# ---------------------------------------------------------------------------
# the z-map and growth data


def p_power_chain(phi: AutomorphismSpec, m_max: int) -> List[AutomorphismSpec]:
    """phi^(p^m) for 0 <= m <= m_max: phi, then each the p-th power of the
    one before, so the last costs about m_max·log2(p) squarings in all."""
    chain = [phi]
    for _ in range(m_max):
        chain.append(chain[-1].power(phi.chart.p))
    return chain


def z_approximants(
    chain: List[AutomorphismSpec], gs, m_range: Sequence[int]
) -> List[List[Matrix]]:
    """(phi^{p^m}(g) g^{-1})^{p^{-m}} for each g of the matrices gs (one
    matrix counts as a batch of one) and m in m_range, one list over the
    m-range per g, where ``chain`` is p_power_chain(phi, m) for an
    m >= max(m_range).  The coordinates of every g take one chart solve,
    and each m one batched root."""
    chart = chain[0].chart
    q, size = chart.modulus, chart.mat_size
    gs = chart.batch(np.reshape(np.array(gs, dtype=object), (-1, size, size)))
    betas = chart.coordinates(gs)
    ginv = chart.inverse_batch(gs)
    approx = {
        m: chart.root_batch(chain[m].image_words(betas) @ ginv % q, m)
        for m in sorted(set(m_range))
    }
    return [[_as_matrix(approx[m][k]) for m in m_range] for k in range(len(gs))]


def z_stable(
    chain: List[AutomorphismSpec], gs, m_max: int, Q: QuotientGroup
) -> Tuple[List[Matrix], List[bool]]:
    """For each g of the matrices gs, the approximant at m_max, plus
    whether it agrees in Q with the one at m_max - 1; ``chain`` is
    p_power_chain(phi, m_max).  Every m is computed only when one of those
    fails, so that the error is that of the first m that fails.  The
    compared approximants of every g are indexed in one chart solve."""
    try:
        approx = z_approximants(chain, gs, range(max(m_max - 1, 0), m_max + 1))
    except PrecisionError:
        approx = z_approximants(chain, gs, range(m_max + 1))
    compared = Q.chart.batch([a for row in approx for a in row[-2:]])
    idxs = Q.index_array(Q.chart.coordinates(compared, prec=Q.n)).reshape(len(approx), -1)
    stable = (idxs[:, -1] == idxs[:, 0]).tolist()
    return [row[-1] for row in approx], stable


def q_growth(
    phi: AutomorphismSpec, m_range: Sequence[int], Q: QuotientGroup
) -> List[List[FiltValue]]:
    """Weights of q_{i,m} = z(g_i)^{p^m} - 1 over the m-range, one list per
    axis i in order, with coefficients in the stage's Z/p^N: N = 1 is the
    charp regime and N > 1 char0.  The caller fits the affine / p-power
    growth law.  The z-map reads phi^(p^m) up to m = max(2, m_range), a
    chain built once for every axis, and `z_stable` takes every axis in one
    batch.  Each z(g_i)^{p^m} is exp(p^m log z(g_i)), and the powers of
    every axis are indexed in one batched chart solve.
    """
    m_range = list(m_range)
    m_max = max([2, *m_range])
    chain = p_power_chain(phi, m_max)
    chart = phi.chart
    zs, stable = z_stable(chain, chart.generators, m_max, Q)
    if not all(stable):
        raise PrecisionError("z-map approximants did not stabilize")
    exps = np.array([[Q.p**m] for m in m_range], dtype=object).reshape(-1, 1)
    terms = chart.log_powers(zs)
    powers = Q.index_array(chart.coordinates(np.concatenate(
        [chart.power_words(terms[i:i + 1], exps) for i in range(len(zs))]
    ), prec=Q.n)).reshape(len(zs), len(m_range))
    one = AlgebraElement.one(Q)
    return [[lazard_value(AlgebraElement.group_element(Q, k) - one) for k in row]
            for row in powers.tolist()]
