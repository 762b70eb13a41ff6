"""Finite stages (Z/p^N)[G/G^{p^n}] of the completed group ring.

A quotient stage enumerates Q = G/G^{p^n} through ordered-product
coordinates beta in [0, p^n)^d from a matrix chart; algebra elements are
sparse coefficient dictionaries over Z/p^N.  In these coordinates the
product is a polynomial map, which the stage fits once from chart products
(`fit_product_law`); no other product is solved through the chart.
`mult_array` and `inverse_array` are the group law's entry points for every
stage size: a dense stage evaluates the law once, for its generator
columns, and looks products up in them; a larger stage evaluates it per
batch.  Only the size and byte budgets limit a stage, for every command.
`ideal_closure` builds a right ideal as the direct sum of the translates,
over the right cosets of a lattice subgroup H, of the ideal the generators
span in KH.  The filtration weight of an element is read off its expansion
in the ordered monomials b^alpha, b_i = g_i - 1; weights at or above the
stage's precision floor are reported as ">= floor", never as exact
numbers: the finite stage cannot distinguish them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import linalg
from .charts import GroupChart
from .errors import BudgetError, InvariantViolation, ValidationError, require_bytes
from .padic import vp_array, vp_int

DEFAULT_SIZE_BUDGET = 50_000
# largest |alpha| a b-monomial may have
B_MONOMIAL_DEGREE_BUDGET = 512
# most multi-indices `lazard_value` may visit
LAZARD_DEGREE_CAP = 4096
# `QuotientGroup._law_array` holds its digits, sums and temporaries, 3d + 1 to
# 3d + 3 int64 arrays of the batch's length (tracemalloc, batches of 2e5 pairs
# on the built-in charts and a class-3 chart; one more below the 256 KiB at
# which numpy elides temporaries), and asks for _LAW_HOLD·(d + 1) of them
_LAW_HOLD = 3


# ---------------------------------------------------------------------------
# filtration values


@dataclass(frozen=True)
class FiltValue:
    """A filtration weight: an exact integer or ">= floor".

    ``value is None`` means the weight is indistinguishable from the
    precision floor upward (including genuinely infinite weights).
    """

    value: Optional[int]
    floor: int

    @property
    def exact(self) -> bool:
        return self.value is not None

    @property
    def status(self) -> str:
        return "exact" if self.exact else ">= floor"

    def __str__(self):
        return str(self.value) if self.exact else f">= {self.floor}"


# ---------------------------------------------------------------------------
# the quotient group


def fit_product_law(chart: GroupChart, n: int):
    """The product of G/G^{p^n} in coordinates, fitted from chart products:
    (beta gamma)_j = beta_j + gamma_j + the sum of c prod binom(x_v, k)
    over the terms (j, c, ((v, k), ...)), x = (beta, gamma) the lifted
    digits, returned with binom[k - 1, x] = binom(x, k) mod p^n, x < p^n.

    For a nilpotent group of class c these are integer-valued polynomials of
    degree <= c (P. Hall's collection polynomials), differenced, every
    coordinate in one labelled call, from the products g^beta g^gamma with
    beta, gamma != 0 and |beta| + |gamma| <= c + 1 (the terms vanish where
    beta or gamma is 0).  A term of degree c + 1 raises InvariantViolation,
    and (p^n)^2 >= 2^63 BudgetError before any solve.
    """
    # both import this module
    from .mahler import _difference, _multi_index_array
    from .nilpotent import upper_central_series

    d, q = chart.dim, chart.p**n
    if q * q >= 2**63:
        raise BudgetError(f"p^n = {chart.p}^{n}: products mod p^n would overflow int64")
    c = len(upper_central_series(chart.structure_presentation(n))) - 1
    # the pairs (beta, gamma) of nonzero points with |beta| + |gamma| <= c + 1
    simplex = _multi_index_array(d, c, q)[1:]
    shell = simplex.sum(axis=1)
    left, right = np.nonzero(shell[:, None] + shell <= c + 1)
    words = chart.words(simplex)
    solved = chart.coordinates(np.matmul(words[left], words[right]) % chart.modulus, prec=n)
    values = (np.asarray(solved, dtype=np.int64) - simplex[left] - simplex[right]) % q
    at, coord = np.nonzero(values)
    points = np.concatenate([simplex[left[at]], simplex[right[at]]], axis=1)
    keys, w = _difference(points, coord, values[at, coord], c + 1, q)
    exps = keys[:, :2 * d]
    if (exps.sum(axis=1) > c).any():
        raise InvariantViolation(f"the product law of the {chart.name} chart at level {n} "
                                 f"has a term of degree {c + 1}, above the nilpotency class {c}")
    terms = tuple(
        (j, coeff, tuple((v, k) for v, k in enumerate(e) if k))
        for e, j, coeff in zip(exps.tolist(), keys[:, 2 * d].tolist(), w.tolist())
    )
    top = int(exps.max(initial=0))
    require_bytes(8 * top * q, f"the binomial table at p^n = {q}")
    binom = np.empty((top, q), dtype=np.int64)
    binom[:1] = np.arange(q)
    # binom(x, k) = sum of binom(y, k - 1) over y < x
    for k in range(1, top):
        binom[k] = np.concatenate([[0], np.cumsum(binom[k - 1, :-1])]) % q
    return terms, binom


@dataclass
class QuotientGroup:
    """The group Q = G/G^{p^n} with coefficient ring Z/p^N.

    On a dense stage, |Q| <= DEFAULT_SIZE_BUDGET, a product a*b is d lookups
    in the generator columns h -> h g_i^k, following the coordinates of b;
    above it `mult_array` evaluates the product law on its batch, and no
    columns are built.  The |Q|^2 table of `mult_table` is built only for the
    tests' oracles.  The cached columns and table are read-only, so that no
    stray write can corrupt a later product.
    """

    chart: GroupChart
    n: int
    N: int

    # columns[i, k, h] = index of h * g_i^k (dense stages only)
    _columns: Optional["np.ndarray"] = field(default=None, repr=False)
    _mult_table: Optional["np.ndarray"] = field(default=None, repr=False)
    # the product law's terms and binomial table, fitted when the stage is built
    _terms: tuple = field(init=False, repr=False)
    _binom: "np.ndarray" = field(init=False, repr=False)

    def __post_init__(self):
        self._terms, self._binom = fit_product_law(self.chart, self.n)

    @property
    def p(self) -> int:
        return self.chart.p

    @property
    def dim(self) -> int:
        return self.chart.dim

    @property
    def radix(self) -> int:
        return self.p**self.n

    @property
    def size(self) -> int:
        return self.radix**self.dim

    @property
    def dense(self) -> bool:
        return self.size <= DEFAULT_SIZE_BUDGET

    @property
    def coeff_mod(self) -> int:
        return self.p**self.N

    @property
    def min_omega(self) -> int:
        return min(self.chart.omega_weights)

    @property
    def floor(self) -> int:
        """Precision floor for filtration weights at this stage."""
        if self.N == 1:
            return self.radix * self.min_omega
        return min(self.N, self.n * self.min_omega + 1)

    # -- indexing -------------------------------------------------------

    def index(self, beta: Sequence[int]) -> int:
        return int(self.index_array([beta])[0])

    def index_array(self, betas: np.ndarray) -> np.ndarray:
        """Indices of the rows of a (B, d) coordinate array."""
        r = self.radix
        return (np.asarray(betas) % r).astype(np.int64) @ (r ** np.arange(self.dim))

    def coords_array(self, idx=None) -> np.ndarray:
        """The (B, d) coordinates of the indices in idx (of every index of Q
        when idx is None)."""
        r = self.radix
        if idx is None:
            idx = np.arange(self.size)
        return np.asarray(idx, dtype=np.int64)[:, None] // (r ** np.arange(self.dim)) % r

    # -- group law ------------------------------------------------------

    def columns(self) -> np.ndarray:
        """columns[i, k, h] = index of h * g_i^k (dense; budgeted).

        The products h g_i over Q are one evaluation of the product law per
        generator, and the powers compositions of those permutations;
        g_i^{p^n} must act as the identity on Q (InvariantViolation otherwise).
        """
        if self._columns is None:
            d, r, size = self.dim, self.radix, self.size
            require_bytes(8 * d * r * size, f"the generator columns at |Q| = {size}")
            # allocated before the law's temporaries, so that where the block
            # lands, and with it the peak RSS, does not hang on the gaps they leave
            cols = np.empty((d, r, size), dtype=np.int64)
            cols[:, 0] = np.arange(size)
            for i in range(d):
                cols[i, 1] = self._law_array(cols[i, 0], r**i)
            for k in range(2, r):
                cols[:, k] = np.take_along_axis(cols[:, 1], cols[:, k - 1], axis=1)
            cycled = np.take_along_axis(cols[:, 1], cols[:, r - 1], axis=1)
            bad = (cycled != cols[:, 0]).any(axis=1)
            if bad.any():
                raise InvariantViolation(
                    f"g_{np.argmax(bad) + 1}^{r} does not act as the identity on Q (|Q| = {size})"
                )
            cols.flags.writeable = False
            self._columns = cols
        return self._columns

    def mult_array(self, a, b) -> np.ndarray:
        """Elementwise products a*b of two broadcastable index arrays: d
        lookups in the generator columns on a dense stage, following the
        coordinates of b, and one evaluation of the product law above it."""
        if not self.dense:
            return self._law_array(a, b)
        cols = self.columns()
        a, b = np.asarray(a), np.asarray(b)
        for i in range(self.dim):
            b, k = np.divmod(b, self.radix)
            a = cols[i, k, a]
        return a

    def inverse_array(self, idx) -> np.ndarray:
        """Indices of the inverses of the index array idx, as the products
        (g^beta)^{-1} = g_d^{-beta_d} ... g_1^{-beta_1} through `mult_array`."""
        idx = np.asarray(idx, dtype=np.int64)
        r, beta = self.radix, self.coords_array(idx.ravel())
        out = np.zeros(idx.size, dtype=np.int64)
        for i in reversed(range(self.dim)):
            out = self.mult_array(out, -beta[:, i] % r * r**i)
        return out.reshape(idx.shape)

    def _law_array(self, a, b) -> np.ndarray:
        """Elementwise products a*b of two broadcastable index arrays by the
        product law: beta + gamma plus its mixed terms, each a coefficient
        times binomials of the lifted digits, reduced after every factor."""
        d, r = self.dim, self.radix
        size = np.broadcast(a, b).size
        require_bytes(8 * _LAW_HOLD * (d + 1) * size, f"the product law on {size} elements")
        # x[v] is the digit beta_v of a for v < d, and gamma_{v-d} of b after
        x = [np.asarray(ab, dtype=np.int64) // r**i % r for ab in (a, b) for i in range(d)]
        y = [x[j] + x[d + j] for j in range(d)]
        for j, c, factors in self._terms:
            for var, k in factors:
                c = c * self._binom[k - 1][x[var]] % r
            y[j] = y[j] + c
        return sum(y[j] % r * r**j for j in range(d))

    def generator(self, i: int, power: int = 1) -> int:
        beta = [0] * self.dim
        beta[i] = power
        return self.index(beta)

    def lattice_grid(self, exponents: Sequence[int]) -> Tuple[np.ndarray, bool]:
        """The grid {g^beta : p^(e_i) | beta_i} of U_e = <g_i^(p^(e_i))>, as
        sorted read-only indices (higher digits vary slowest), and whether e
        is compatible.

        The grid holds 1 and lies in U_e, and a finite set that holds 1 and is
        closed under right multiplication by U_e's generators contains U_e; so
        it is U_e exactly when no g_i^(p^(e_i)) moves it (one `mult_array` batch).
        """
        r, steps = self.radix, self.p ** np.array(exponents, dtype=np.int64)
        require_bytes(9 * self.size, f"a lattice grid and its mask at |Q| = {self.size}")
        grid = _digit_grid(r, [r] * self.dim, steps.tolist())
        gens = np.flatnonzero(steps < r)
        inside = np.zeros(self.size, dtype=bool)
        inside[grid] = True
        grid.flags.writeable = False
        moved = self.mult_array(grid, (steps[gens] * r**gens)[:, None])
        return grid, bool(inside[moved].all())

    def mult_table(self) -> np.ndarray:
        """Dense table t[a, b] = a*b (budgeted), written in place one
        generator digit at a time.  No command builds it; it stays for the
        closure oracle of ``tests/howell_route.py`` and for
        ``perfbench/spans.py``, which wraps it and reads `_mult_table`.

        The buffer holds the transpose, row b being a -> a*b.  After i
        digits its first r^i rows are a -> a*g_1^{b_1}...g_i^{b_i}; the next
        digit sets row k*r^i + j to columns[i, k] applied to row j, and k = 0
        leaves row j as it is, so each step only writes rows past the ones it
        reads.  The buffer is the only |Q|^2 array allocated.
        """
        if self._mult_table is None:
            require_bytes(8 * self.size**2, f"the multiplication table at |Q| = {self.size}")
            cols, r, size = self.columns(), self.radix, self.size
            out = np.empty((size, size), dtype=np.int64)
            out[0] = np.arange(size)
            for i in range(self.dim):
                m = r**i
                # mode="raise" would buffer the output; "clip" writes the slab in place
                np.take(cols[i, 1:], out[:m], axis=1, mode="clip",
                        out=out[m:r * m].reshape(r - 1, m, size))
            out.flags.writeable = False
            self._mult_table = out.T
        return self._mult_table


def _digit_grid(r: int, stops: Sequence[int], steps: Sequence[int]) -> np.ndarray:
    """The indices sum_i beta_i r^i over beta_i in range(0, stops[i],
    steps[i]), higher digits varying slowest."""
    out = np.arange(0, stops[0], steps[0])
    for i in range(1, len(stops)):
        out = (np.arange(0, stops[i] * r**i, steps[i] * r**i)[:, None] + out).ravel()
    return out


def build_quotient(
    chart: GroupChart,
    n: int,
    N: int,
    size_budget: int = DEFAULT_SIZE_BUDGET,
    verify: bool = True,
) -> QuotientGroup:
    """Stage (Z/p^N)[G/G^{p^n}] with sampled group-axiom verification."""
    if n < 1 or N < 1:
        raise ValidationError("level n and precision N must be >= 1")
    size = (chart.p**n) ** chart.dim
    if size > size_budget:
        raise BudgetError(f"|Q| = p^(n*d) = {size} exceeds budget {size_budget}")
    needed = n + chart.max_pivot_val + 4
    if chart.work_prec < needed:
        raise ValidationError(
            f"chart work precision {chart.work_prec} too small for level {n}"
        )
    Q = QuotientGroup(chart, n, N)
    if verify:
        _verify_axioms(Q)
    return Q


def _verify_axioms(Q: QuotientGroup):
    import random

    rng = random.Random(17)
    size = Q.size
    sample = range(size) if size <= 30 else [rng.randrange(size) for _ in range(12)]
    sample = list(sample)
    a = np.array(sample[:6], dtype=np.int64)
    if (Q.mult_array(a, 0) != a).any() or (Q.mult_array(0, a) != a).any():
        raise ValidationError("identity axiom fails in quotient")
    if Q.mult_array(a, Q.inverse_array(a)).any():
        raise ValidationError("inverse axiom fails in quotient")
    a, b, c = np.array([[rng.choice(sample) for _ in range(3)] for _ in range(8)]).T
    if (Q.mult_array(Q.mult_array(a, b), c) != Q.mult_array(a, Q.mult_array(b, c))).any():
        raise ValidationError("associativity fails in quotient")


# ---------------------------------------------------------------------------
# algebra elements


@dataclass
class AlgebraElement:
    """Sparse element sum s_g g of the stage algebra."""

    quotient: QuotientGroup
    coeffs: Dict[int, int]

    def __post_init__(self):
        q = self.quotient.coeff_mod
        self.coeffs = {k: v % q for k, v in self.coeffs.items() if v % q}

    @staticmethod
    def zero(Q: QuotientGroup) -> "AlgebraElement":
        return AlgebraElement(Q, {})

    @staticmethod
    def one(Q: QuotientGroup) -> "AlgebraElement":
        return AlgebraElement(Q, {0: 1})

    @staticmethod
    def group_element(Q: QuotientGroup, idx: int) -> "AlgebraElement":
        return AlgebraElement(Q, {idx: 1})

    def _check(self, other: "AlgebraElement"):
        if other.quotient is not self.quotient:
            raise ValidationError("elements belong to different quotients")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        return AlgebraElement(self.quotient, out)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + -other

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.quotient, {k: -v for k, v in self.coeffs.items()})

    def scale(self, c: int) -> "AlgebraElement":
        return AlgebraElement(self.quotient, {k: c * v for k, v in self.coeffs.items()})

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        Q = self.quotient
        a = np.array(list(self.coeffs), dtype=np.int64)
        b = np.array(list(other.coeffs), dtype=np.int64)
        # exact Python-int products, in the order of the index products
        terms = [sa * sb for sa in self.coeffs.values() for sb in other.coeffs.values()]
        out: Dict[int, int] = {}
        for k, c in zip(Q.mult_array(a[:, None], b[None, :]).ravel().tolist(), terms):
            out[k] = out.get(k, 0) + c
        return AlgebraElement(Q, out)

    def __pow__(self, m: int) -> "AlgebraElement":
        if m < 0:
            raise ValidationError("negative powers not supported")
        result = AlgebraElement.one(self.quotient)
        base = self
        while m:
            if m & 1:
                result = result * base
            base = base * base if m > 1 else base
            m >>= 1
        return result

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraElement)
            and other.quotient is self.quotient
            and other.coeffs == self.coeffs
        )


def b_element(Q: QuotientGroup, i: int) -> AlgebraElement:
    """b_i = g_i - 1."""
    return AlgebraElement(Q, {Q.generator(i): 1, 0: -1})


def b_monomial(Q: QuotientGroup, alpha: Sequence[int]) -> AlgebraElement:
    """The ordered product (g_1-1)^{alpha_1} ... (g_d-1)^{alpha_d}.

    Each factor is expanded by the integer binomial theorem; only exponents
    of single generators are needed, so no group products occur until the
    final convolution.
    """
    if len(alpha) != Q.dim:
        raise ValidationError("multi-index length mismatch")
    if any(a < 0 for a in alpha):
        raise ValidationError("multi-index entries must be >= 0")
    if sum(alpha) > B_MONOMIAL_DEGREE_BUDGET:
        raise BudgetError(f"|alpha| = {sum(alpha)} exceeds degree budget")
    out = AlgebraElement.one(Q)
    for i, a in enumerate(alpha):
        if a == 0:
            continue
        factor: Dict[int, int] = {}
        for k in range(a + 1):
            idx = Q.generator(i, k)
            factor[idx] = factor.get(idx, 0) + (-1) ** (a - k) * math.comb(a, k)
        out = out * AlgebraElement(Q, factor)
    return out


# ---------------------------------------------------------------------------
# Lazard filtration weight


def lazard_value(x: AlgebraElement) -> FiltValue:
    """inf of v_p(lambda_alpha) + sum alpha_i * omega(g_i) over the
    ordered-monomial expansion of x.

    The coefficients come from the closed form
    g^beta = prod_i (1 + b_i)^{beta_i} = sum_alpha binom(beta, alpha) b^alpha,
    so lambda_alpha = sum_beta binom(beta, alpha) s_beta with exact integer
    binomials on lifted coordinates.  Only alpha with weighted degree below
    the floor can witness an exact value, which bounds the enumeration.
    """
    Q = x.quotient
    p, N = Q.p, Q.N
    floor = Q.floor
    omega = Q.chart.omega_weights
    if not x.coeffs:
        return FiltValue(None, floor)
    supp = list(zip(Q.coords_array(list(x.coeffs)).tolist(), x.coeffs.values()))
    maxes = [max(beta[i] for beta, _ in supp) for i in range(Q.dim)]

    best: Optional[int] = None
    count = 0

    def visit(i: int, tau: int, prefix: List[int]):
        nonlocal best, count
        if best is not None and tau >= best:
            return
        if tau >= floor:
            return
        if i == Q.dim:
            count += 1
            if count > LAZARD_DEGREE_CAP:
                raise BudgetError("b-expansion enumeration exceeds degree cap")
            lam = 0
            for (beta, s), pref in zip(supp, prefix):
                lam += pref * s
            v = vp_int(lam, p, N)
            if v < N:
                total = v + tau
                if total < floor and (best is None or total < best):
                    best = total
            return
        for a in range(0, maxes[i] + 1):
            t2 = tau + a * omega[i]
            if t2 >= floor or (best is not None and t2 >= best):
                break
            newpref = [
                pref * math.comb(beta[i], a) for (beta, _), pref in zip(supp, prefix)
            ]
            if not any(newpref):
                if a > 0:
                    break
                continue
            visit(i + 1, t2, newpref)

    visit(0, 0, [1] * len(supp))
    return FiltValue(best, floor)


# ---------------------------------------------------------------------------
# ideals


@dataclass(frozen=True)
class SubmoduleBasis:
    """Howell-echelon generating rows of a coefficient submodule, with the
    log_p of its size read off them once, when the basis is built.

    The rows must be reduced: each unit pivot is the only non-zero of its
    column, which `linalg.projection_rank_log` relies on.  That is checked
    once, here, and `InvariantViolation` names the first column where it
    fails.
    """

    quotient: QuotientGroup
    rows: linalg.Rows
    rank_log: int = field(init=False)

    def __post_init__(self):
        Q, rows = self.quotient, self.rows
        units = rows.indices[rows.indptr[:-1]][linalg.unit_pivots(rows, Q.p)]
        shared = units[np.bincount(rows.indices)[units] != 1]
        if shared.size:
            raise InvariantViolation(
                f"the unit pivot in column {shared[0]} is not the only non-zero "
                "of its column: the rows are not a reduced Howell form"
            )
        object.__setattr__(self, "rank_log", linalg.rank_log(rows, Q.p, Q.N))


def _translates(rows: linalg.Rows, perms: np.ndarray, m: int) -> linalg.Rows:
    """Every row moved by every permutation, permutation-major, as an
    m-column matrix: row t·k + r is rows[r] with its entry at column c
    moved to perms[t, c]."""
    t, k = len(perms), rows.shape[0]
    at = (np.arange(t)[:, None] * k + rows.row_ids()).ravel()
    cols = perms[:, rows.indices].ravel()
    return linalg.Rows.from_entries(at, cols, np.tile(rows.data, t), (t * k, m))


def _right_transversal(Q: QuotientGroup, exponents: Sequence[int]) -> np.ndarray:
    """T = {g^beta : 0 <= beta_i < p^(e_i)}, sorted, with the identity first:
    a right transversal of U_e in Q, which `_inducing_cosets` checks."""
    return _digit_grid(Q.radix, [Q.p**e for e in exponents], [1] * Q.dim)


def _inducing_cosets(Q: QuotientGroup, supp: np.ndarray):
    """The right cosets of the subgroup H that the right closure of
    generators on ``supp`` is induced from, as the columns of
    ``cosets[k, t] = h_k·t`` over the sorted grid h of H and the transversal
    t (column 0 is H itself), with ``order``, each column's argsort, and
    ``label``, the class of each coset under equality of orders.

    H = U_f' for the compatible f' <= f of largest |f'|, f_i the least
    v_p(beta_i) over supp (0 counting as n), so that KH holds the
    generators; H = Q when the order classes would cover Q anyway.
    `InvariantViolation` is raised when the cosets do not partition Q."""
    f = vp_array(Q.coords_array(supp), Q.p, Q.n).min(axis=0).tolist()
    # the last candidate is 0, whose grid is Q
    for below in sorted(product(*(range(x + 1) for x in f)), key=sum, reverse=True)[:-1]:
        grid, compatible = Q.lattice_grid(below)
        if not compatible:
            continue
        cosets = Q.mult_array(grid[:, None], _right_transversal(Q, below))
        if (np.bincount(cosets.ravel(), minlength=Q.size) != 1).any():
            raise InvariantViolation(
                f"the right cosets of the lattice subgroup {below} "
                f"do not partition Q (|Q| = {Q.size})"
            )
        order = np.argsort(cosets, axis=0)
        classes: Dict[bytes, int] = {}
        label = np.array([classes.setdefault(o.tobytes(), len(classes)) for o in order.T])
        if len(classes) * grid.size < Q.size:
            return cosets, order, label
        break
    # H = Q: Q is its one coset, ranked as it is
    whole = np.arange(Q.size)[:, None]
    return whole, whole, np.zeros(1, dtype=np.int64)


def _lay_out(blocks: linalg.Rows, cosets: np.ndarray, order: np.ndarray,
             label: np.ndarray) -> linalg.Rows:
    """The Howell rows of the direct sum over the cosets from the Howell
    ``blocks`` of the order classes: the rows of class c go onto each coset
    of class c, the r-th ranked column onto the coset's r-th smallest
    index, and the rows are sorted by pivot.  A single coset is Q, ranked
    as it is, and keeps the rows."""
    if label.size == 1:
        return blocks
    size = cosets.shape[0]
    # the rows of class c are contiguous, since the pivots are sorted
    pivots = blocks.indices[blocks.indptr[:-1]]
    start = np.searchsorted(pivots, size * np.arange(int(label.max()) + 2))
    count = (start[1:] - start[:-1])[label]
    coset = np.repeat(np.arange(label.size), count)
    src = np.arange(coset.size) + np.repeat(start[label] - np.cumsum(count) + count, count)
    placed = cosets[order, np.arange(label.size)]
    by = np.argsort(placed[pivots[src] % size, coset])
    coset, src = coset[by], src[by]
    lengths = blocks.indptr[src + 1] - blocks.indptr[src]
    indptr = np.zeros(src.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    at = np.repeat(blocks.indptr[src] - indptr[:-1], lengths) + np.arange(indptr[-1])
    cols = placed[blocks.indices[at] % size, np.repeat(coset, lengths)]
    return linalg.Rows(indptr, cols, blocks.data[at], cosets.size)


def ideal_closure(
    gens: Iterable[AlgebraElement], side: str = "right", *, quotient: QuotientGroup
) -> SubmoduleBasis:
    """Smallest right (``side="right"``) or two-sided ideal of ``quotient``
    containing ``gens``.

    The right closure is induced from the least lattice subgroup that holds
    the generators.  With f_i the least v_p(beta_i) over their supports (0
    counting as n), H = U_f' for the compatible f' <= f of largest |f'|, so
    J = sum_j x_j·KH lies in KH and the closure is the direct sum of the J·t
    over the right cosets Ht.  Right multiplication by t maps H onto Ht, and
    the Howell form of J·t is that of J with H's columns ranked by the
    order of their images in Ht, so one form serves every coset whose
    images come in the same order.  One `linalg.howell` call echelons the
    block-diagonal stack of the translates of the generators by H, one
    block per such order class, and `_lay_out` lays each block's rows onto
    the cosets of its class (H = Q when the classes would cover Q anyway).
    Every product is one `mult_array` batch on index arrays: |Q| for the
    cosets and |supp|·|H| for the sparse translates, on any stage size.

    The two-sided case finishes with a fixed-point iteration on the left.
    """
    Q = quotient
    if side not in ("right", "two-sided"):
        raise ValidationError(f"unknown side {side!r}")
    p, N = Q.p, Q.N
    # coefficients are held as int64 residues from here on
    linalg._check_modulus(p, N)
    mat = linalg.Rows.from_dicts([g.coeffs for g in gens if not g.is_zero()], Q.size)
    if not mat.shape[0]:
        return SubmoduleBasis(Q, mat)
    # row, column, residue and sort order of each translated entry, the
    # largest arrays the closure holds: the induced stack has at most |Q|
    # translates of each generator, as H = Q has
    require_bytes(32 * Q.size * mat.nnz, f"the translates at |Q| = {Q.size}")
    supp = np.flatnonzero(np.bincount(mat.indices, minlength=Q.size))
    cosets, order, label = _inducing_cosets(Q, supp)
    grid, (size, _), classes = cosets[:, 0], cosets.shape, int(label.max()) + 1
    # rank[c, k]: the place of h_k·t in Ht, the same for every coset of class c
    rank = np.empty((classes, size), dtype=np.int64)
    rank[label, order] = np.arange(size)[:, None]
    # perms[c·|H| + j, s]: the block column of supp[s]·h_j in class c
    local = np.empty(Q.size, dtype=np.int64)
    local[grid] = np.arange(size)
    local = local[Q.mult_array(supp[None, :], grid[:, None])]
    perms = (rank[:, local] + size * np.arange(classes)[:, None, None]).reshape(-1, supp.size)
    at_supp = linalg.Rows(mat.indptr, np.searchsorted(supp, mat.indices), mat.data, supp.size)
    blocks = linalg.howell(_translates(at_supp, perms, classes * size), p, N)
    rows = _lay_out(blocks, cosets, order, label)
    if side == "two-sided":
        # the identity first, so that each step keeps the rows it had
        h = np.arange(Q.size)
        lperms = np.array([h] + [Q.mult_array(Q.generator(i), h) for i in range(Q.dim)])
        while True:
            nxt = linalg.howell(_translates(rows, lperms, Q.size), p, N)
            if linalg.span_equal(nxt, rows):
                break
            rows = nxt
    return SubmoduleBasis(Q, rows)
