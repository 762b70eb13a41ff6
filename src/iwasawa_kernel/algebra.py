"""Finite stages (Z/p^N)[G/G^{p^n}] of the completed group ring.

A quotient stage enumerates Q = G/G^{p^n} through ordered-product
coordinates beta in [0, p^n)^d from a matrix chart; algebra elements are
sparse coefficient dictionaries over Z/p^N.  Within the dense budget the
group law is a set of index arrays: the d generator columns h -> h g_i
come from one batched chart solve each, and products, inverses, the
multiplication table and translation permutations are lookups in their
powers.  Larger stages solve each product through the chart matrices.

The filtration weight of an element is the infimum of v_p(coefficient) +
weighted degree over its expansion in the ordered monomials b^alpha,
b_i = g_i - 1, computed from the closed form
g^beta = sum_alpha binom(beta, alpha) b^alpha.

Weights at or above the stage's precision floor are reported as ">= floor",
never as exact numbers: the finite stage cannot distinguish them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import linalg
from .charts import GroupChart, Matrix, _mul
from .errors import BudgetError, PrecisionError, ValidationError

DEFAULT_SIZE_BUDGET = 50_000
# elements per batched chart solve, which bounds its temporary arrays
_SOLVE_CHUNK = 1024


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

    def shift(self, m: int) -> "FiltValue":
        if self.value is None:
            return self
        v = self.value + m
        return FiltValue(v if v < self.floor else None, self.floor)

    def __str__(self):
        return str(self.value) if self.exact else f">= {self.floor}"


def filt_min(a: FiltValue, b: FiltValue) -> FiltValue:
    floor = min(a.floor, b.floor)
    vals = [v.value for v in (a, b) if v.value is not None]
    v = min(vals) if vals else None
    if v is not None and v >= floor:
        v = None
    return FiltValue(v, floor)


# ---------------------------------------------------------------------------
# the quotient group


@dataclass
class QuotientGroup:
    """The group Q = G/G^{p^n} with coefficient ring Z/p^N.

    Within the dense budget the group law is index arithmetic: the d
    generator columns h -> h g_i are solved once, in one batched chart solve
    each, and their powers give the columns h -> h g_i^k; a product a*b is
    d lookups in them, following the coordinates of b.  Above the budget
    every product and inverse is solved through the chart matrices, and no
    |Q|-length array is built.
    """

    chart: GroupChart
    n: int
    N: int

    # columns[i, k, h] = index of h * g_i^k (dense stages only)
    _columns: Optional["np.ndarray"] = field(default=None, repr=False)
    _inverse: Optional["np.ndarray"] = field(default=None, repr=False)
    _mult_table: Optional["np.ndarray"] = field(default=None, repr=False)

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
        r = self.radix
        idx = 0
        for b in reversed([b % r for b in beta]):
            idx = idx * r + b
        return idx

    def coords(self, idx: int) -> Tuple[int, ...]:
        r = self.radix
        out = []
        for _ in range(self.dim):
            idx, b = divmod(idx, r)
            out.append(b)
        return tuple(out)

    def index_array(self, betas: np.ndarray) -> np.ndarray:
        """Indices of the rows of a (B, d) coordinate array."""
        r = self.radix
        return (np.asarray(betas) % r).astype(np.int64) @ (r ** np.arange(self.dim))

    def coords_array(self) -> np.ndarray:
        """The (|Q|, d) coordinates of every index."""
        r = self.radix
        return np.arange(self.size)[:, None] // (r ** np.arange(self.dim)) % r

    def matrix(self, idx: int) -> Matrix:
        return self.chart.word(self.coords(idx))

    def index_of_matrix(self, g: Matrix) -> int:
        return self.index(self.chart.coordinates(g, prec=self.n))

    # -- group law ------------------------------------------------------

    def columns(self) -> np.ndarray:
        """columns[i, k, h] = index of h * g_i^k (dense; budgeted).

        Only the d generator columns go through the chart, each as one
        batched solve over all of Q (in chunks); the powers are
        compositions of those permutations.
        """
        if self._columns is None:
            self._require_dense()
            chart, size = self.chart, self.size
            gens = chart.words(np.eye(self.dim, dtype=np.int64))
            coords = self.coords_array()
            right = np.empty((self.dim, size), dtype=np.int64)
            for lo in range(0, size, _SOLVE_CHUNK):
                hs = chart.words(coords[lo:lo + _SOLVE_CHUNK])
                for i, g in enumerate(gens):
                    prods = np.matmul(hs, g) % chart.modulus
                    right[i, lo:lo + _SOLVE_CHUNK] = self.index_array(
                        chart.coordinates(prods, prec=self.n)
                    )
            cols = np.empty((self.dim, self.radix, size), dtype=np.int64)
            cols[:, 0] = np.arange(size)
            for k in range(1, self.radix):
                cols[:, k] = np.take_along_axis(right, cols[:, k - 1], axis=1)
            self._columns = cols
        return self._columns

    def mult_array(self, a, b) -> np.ndarray:
        """Elementwise products a*b of two broadcastable index arrays."""
        cols = self.columns()
        a, b = np.asarray(a), np.asarray(b)
        for i in range(self.dim):
            b, k = np.divmod(b, self.radix)
            a = cols[i, k, a]
        return a

    def mult(self, a: int, b: int) -> int:
        if self._mult_table is not None:
            return int(self._mult_table[a, b])
        if not self.dense:
            return self.index_of_matrix(
                _mul(self.matrix(a), self.matrix(b), self.chart.modulus)
            )
        cols = self.columns()
        for i in range(self.dim):
            b, k = divmod(b, self.radix)
            a = cols[i, k, a]
        return int(a)

    def inv(self, a: int) -> int:
        if not self.dense:
            return self.index_of_matrix(self.chart.inverse(self.matrix(a)))
        if self._inverse is None:
            # (g^beta)^{-1} = g_d^{-beta_d} ... g_1^{-beta_1}
            cols, coords = self.columns(), self.coords_array()
            out = np.zeros(self.size, dtype=np.int64)
            for i in reversed(range(self.dim)):
                out = cols[i, -coords[:, i] % self.radix, out]
            self._inverse = out
        return int(self._inverse[a])

    def generator(self, i: int, power: int = 1) -> int:
        beta = [0] * self.dim
        beta[i] = power
        return self.index(beta)

    def mult_table(self) -> np.ndarray:
        """Dense table t[a, b] = a*b (budgeted), composed from the columns."""
        if self._mult_table is None:
            self._require_dense()
            h = np.arange(self.size)
            self._mult_table = self.mult_array(h[:, None], h[None, :])
        return self._mult_table

    def right_mult_perm(self, g: int) -> np.ndarray:
        """Permutation h -> h*g over all of Q (dense; budgeted)."""
        if self._mult_table is not None:
            return self._mult_table[:, g]
        return self.mult_array(np.arange(self.size), g)

    def left_mult_perm(self, g: int) -> np.ndarray:
        """Permutation h -> g*h over all of Q (dense; budgeted)."""
        if self._mult_table is not None:
            return self._mult_table[g]
        return self.mult_array(g, np.arange(self.size))

    def _require_dense(self):
        if not self.dense:
            raise BudgetError(
                f"|Q| = {self.size} exceeds the dense-vector budget {DEFAULT_SIZE_BUDGET}"
            )


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
    needed = n + max(e for _, e in _pivot_data(chart)) + 4
    if chart.work_prec < needed:
        raise ValidationError(
            f"chart work precision {chart.work_prec} too small for level {n}"
        )
    Q = QuotientGroup(chart, n, N)
    if verify:
        _verify_axioms(Q)
    return Q


def _pivot_data(chart: GroupChart):
    echelon, _, _ = chart._solver
    return [cols for cols, _, _ in echelon]


def _verify_axioms(Q: QuotientGroup):
    import random

    rng = random.Random(17)
    size = Q.size
    sample = range(size) if size <= 30 else [rng.randrange(size) for _ in range(12)]
    sample = list(sample)
    for a in sample[:6]:
        if Q.mult(a, 0) != a or Q.mult(0, a) != a:
            raise ValidationError("identity axiom fails in quotient")
        if Q.mult(a, Q.inv(a)) != 0:
            raise ValidationError("inverse axiom fails in quotient")
    for _ in range(8):
        a, b, c = (rng.choice(sample) for _ in range(3))
        if Q.mult(Q.mult(a, b), c) != Q.mult(a, Q.mult(b, c)):
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
        self._check(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) - v
        return AlgebraElement(self.quotient, out)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.quotient, {k: -v for k, v in self.coeffs.items()})

    def scale(self, c: int) -> "AlgebraElement":
        return AlgebraElement(self.quotient, {k: c * v for k, v in self.coeffs.items()})

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        Q = self.quotient
        out: Dict[int, int] = {}
        for a, sa in self.coeffs.items():
            for b, sb in other.coeffs.items():
                k = Q.mult(a, b)
                out[k] = out.get(k, 0) + sa * sb
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

    def support(self) -> List[int]:
        return sorted(self.coeffs)

    def to_vector(self) -> np.ndarray:
        self.quotient._require_dense()
        vec = np.zeros(self.quotient.size, dtype=np.int64)
        for k, v in self.coeffs.items():
            vec[k] = v
        return vec

    @staticmethod
    def from_vector(Q: QuotientGroup, vec: np.ndarray) -> "AlgebraElement":
        return AlgebraElement(Q, {int(i): int(v) for i, v in enumerate(vec) if v})

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in sorted(self.coeffs):
            beta = self.quotient.coords(k)
            mono = "*".join(
                f"g{i+1}^{b}" if b != 1 else f"g{i+1}" for i, b in enumerate(beta) if b
            )
            parts.append(f"{self.coeffs[k]}*{mono}" if mono else str(self.coeffs[k]))
        return " + ".join(parts)


def b_element(Q: QuotientGroup, i: int) -> AlgebraElement:
    """b_i = g_i - 1."""
    return AlgebraElement(Q, {Q.generator(i): 1, 0: -1})


def b_monomial(Q: QuotientGroup, alpha: Sequence[int], degree_budget: int = 512) -> AlgebraElement:
    """The ordered product (g_1-1)^{alpha_1} ... (g_d-1)^{alpha_d}.

    Each factor is expanded by the integer binomial theorem; only exponents
    of single generators are needed, so no group products occur until the
    final convolution.
    """
    if len(alpha) != Q.dim:
        raise ValidationError("multi-index length mismatch")
    if any(a < 0 for a in alpha):
        raise ValidationError("multi-index entries must be >= 0")
    if sum(alpha) > degree_budget:
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


def _vp_cap(c: int, p: int, N: int) -> Optional[int]:
    c %= p**N
    if c == 0:
        return None
    v = 0
    while c % p == 0:
        c //= p
        v += 1
    return v


def lazard_value(x: AlgebraElement, degree_cap: int = 4096) -> FiltValue:
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
    supp = [(Q.coords(k), s) for k, s in x.coeffs.items()]
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
            if count > degree_cap:
                raise BudgetError("b-expansion enumeration exceeds degree cap")
            lam = 0
            for (beta, s), pref in zip(supp, prefix):
                lam += pref * s
            v = _vp_cap(lam, p, N)
            if v is not None:
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


def lemma_value_check(
    x: AlgebraElement, m: int
) -> Tuple[FiltValue, FiltValue, bool]:
    """Compare w(x^{p^m} - 1) with m + w(x - 1) (requires w(x-1) > 1)."""
    Q = x.quotient
    one = AlgebraElement.one(Q)
    base = lazard_value(x - one)
    if base.exact and base.value <= 1:
        raise ValidationError("hypothesis w(x-1) > w(p) = 1 is violated")
    lhs = lazard_value(x ** (Q.p**m) - one)
    rhs = base.shift(m)
    ok = (lhs.value == rhs.value) and (lhs.floor == rhs.floor)
    return lhs, rhs, ok


# ---------------------------------------------------------------------------
# ideals and the canonical action


@dataclass
class SubmoduleBasis:
    """Howell-echelon generating rows of a coefficient submodule."""

    quotient: QuotientGroup
    rows: np.ndarray
    side: str = "right"

    def member(self, x: AlgebraElement) -> bool:
        return linalg.member(
            self.rows, x.to_vector(), self.quotient.p, self.quotient.N
        )

    def contains_rows(self, other: np.ndarray) -> bool:
        p, N = self.quotient.p, self.quotient.N
        return all(linalg.member(self.rows, r, p, N) for r in other)

    @property
    def rank_log(self) -> int:
        return linalg.rank_log(self.rows, self.quotient.p, self.quotient.N)

    def elements(self) -> List[AlgebraElement]:
        return [AlgebraElement.from_vector(self.quotient, r) for r in self.rows]


def _apply_perm(rows: np.ndarray, perm: np.ndarray) -> np.ndarray:
    out = np.zeros_like(rows)
    out[:, perm] = rows
    return out


def ideal_closure(
    gens: Iterable[AlgebraElement], side: str = "right", quotient: Optional[QuotientGroup] = None
) -> SubmoduleBasis:
    """Smallest submodule containing ``gens`` closed under the declared
    group-translation action.

    One-sided closures are spans of the full translate family, so a single
    echelon pass suffices; the two-sided case finishes with a fixed-point
    iteration on the remaining side.
    """
    gens = list(gens)
    if quotient is None:
        if not gens:
            raise ValidationError("need a quotient or at least one generator")
        quotient = gens[0].quotient
    Q = quotient
    if side not in ("left", "right", "two-sided"):
        raise ValidationError(f"unknown side {side!r}")
    Q._require_dense()
    p, N = Q.p, Q.N
    vecs = [g.to_vector() for g in gens if not g.is_zero()]
    if not vecs:
        return SubmoduleBasis(Q, np.zeros((0, Q.size), dtype=np.int64), side)
    mat = np.array(vecs, dtype=np.int64)
    tab = Q.mult_table()
    # column g of the table is h -> h*g, row g is h -> g*h
    perms = tab.T if side in ("right", "two-sided") else tab
    translates = np.vstack([_apply_perm(mat, perm) for perm in perms])
    rows = linalg.howell(translates, p, N)
    if side == "two-sided":
        lperms = [Q.left_mult_perm(Q.generator(i)) for i in range(Q.dim)]
        while True:
            new = [rows] + [_apply_perm(rows, perm) for perm in lperms]
            nxt = linalg.howell(np.vstack(new), p, N)
            if linalg.span_equal(nxt, rows):
                break
            rows = nxt
    return SubmoduleBasis(Q, rows, side)


def rho(f, x: AlgebraElement) -> AlgebraElement:
    """The canonical action of a function on Q: coefficientwise scaling."""
    Q = x.quotient
    if callable(f):
        scaled = {k: v * int(f(k)) for k, v in x.coeffs.items()}
    else:
        scaled = {k: v * int(f.get(k, 0)) for k, v in x.coeffs.items()}
    return AlgebraElement(Q, scaled)
