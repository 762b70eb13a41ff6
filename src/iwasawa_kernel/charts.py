"""Unipotent matrix charts for finitely generated uniform pro-p groups.

A chart fixes d nilpotent integer matrices x_1..x_d with entries in p·Z
(p odd) and realizes the group on generators g_i = exp(x_i).  All matrix
arithmetic is exact modulo p^work_prec: exp and log divide by factorials
via exact p-power division plus a unit inverse (`padic.unit_split`; powers
carry enough extra p-adic digits for the division to be exact), so no
floating point and no hidden rounding appear anywhere.  A power
g_i^b = exp(b x_i) is the sum of b^k (x_i^k / k!) over k < mat_size, from
the exact divided powers x_i^k / k! computed once when the chart is built,
together with the echelon solver of the chart lattice.

Matrices are arrays inside this module: every kernel (divided powers, exp,
log, the Neumann-series inverse, roots, the lattice solve) runs on a
(B, size, size) batch, and the scalar methods (`exp`, `log`, `inverse`,
`word`, ...) are batches of one whose result becomes the tuple `Matrix`
once, at the boundary (`inverse_batch` and `root_batch` are the batch
forms other modules call; roots have no scalar form).  Coordinates of a
group element in the ordered-product normal form
g = g_1^{b_1} ... g_d^{b_d} are recovered by
successive elimination on the logarithm, and every check applies to every
element of the batch; `coordinates` takes one matrix as a batch of one.
Batches are numpy arrays of int64 when
(mat_size + 1) * (modulus * headroom)^2 < 2^63, which bounds every
intermediate sum of products of residues, and of Python ints otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import PrecisionError, ValidationError
from .padic import legendre_factorial_val, unit_split, vp_array, vp_int

Matrix = Tuple[Tuple[int, ...], ...]


def _mat(rows: Sequence[Sequence[int]]) -> Matrix:
    return tuple(tuple(int(x) for x in r) for r in rows)


def _is_strictly_upper(a: Matrix) -> bool:
    return all(a[i][j] == 0 for i in range(len(a)) for j in range(i + 1))


def _divided_powers(xs, p: int, q: int) -> np.ndarray:
    """x^k / k! modulo q for 0 <= k < size and each x of the batch xs, as a
    (B, size, size, size) array of Python ints.  The integer power x^k is
    divided exactly by the p-part of k! and then multiplied by the inverse
    of the unit part."""
    x = np.array(xs, dtype=object)
    term = np.broadcast_to(np.eye(x.shape[-1], dtype=np.int64).astype(object), x.shape)
    out = [term]
    for k in range(1, x.shape[-1]):
        term = np.matmul(term, x)
        e, uinv = unit_split(math.factorial(k), p, q)
        if np.any(term % p**e):
            raise PrecisionError("inexact division by a power of p")
        out.append(term // p**e * uinv % q)
    return np.stack(out, axis=1)


def _powers(terms: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """exp(b x) = sum_k b^k x^k/k! for each residue in the batch b, given the
    divided powers of x."""
    n = len(terms)
    bk = np.empty((len(b), n), dtype=terms.dtype)
    bk[:, 0] = 1
    for k in range(1, n):
        bk[:, k] = bk[:, k - 1] * b % q
    return (bk @ terms.reshape(n, n * n) % q).reshape(len(b), n, n)


def _ordered_product(terms: np.ndarray, betas: np.ndarray, q: int) -> np.ndarray:
    """exp(b_1 y_1) ... exp(b_d y_d) for each row b of betas, where terms[i]
    holds the divided powers of y_i."""
    # int64 coordinates meet a modulus above 2^63 as Python ints, like the terms
    if betas.dtype != terms.dtype:
        betas = betas.astype(terms.dtype)
    out = _powers(terms[0], betas[:, 0] % q, q)
    for i in range(1, len(terms)):
        out = np.matmul(out, _powers(terms[i], betas[:, i] % q, q)) % q
    return out


def _as_matrix(a: np.ndarray) -> Matrix:
    return tuple(tuple(int(v) for v in row) for row in a)


def _echelon_solver(basis: Sequence[Matrix], p: int, work: int, dtype) -> list:
    """Echelon rows of the flattened basis, each with its pivot (column,
    valuation) and the transform back to basis coefficients:
    row = sum_j tr[j] * basis[j] (flattened).  Rows and transforms are
    arrays of the chart's batch dtype."""
    q, dim = p**work, len(basis)
    rows = [[v % q for r in x for v in r] for x in basis]
    trans = [[1 if j == i else 0 for j in range(dim)] for i in range(dim)]
    echelon = []
    live = list(range(dim))
    for col in range(len(rows[0])):
        cand = [i for i in live if rows[i][col]]
        if not cand:
            continue
        best = min(cand, key=lambda i: vp_int(rows[i][col], p, work))
        live.remove(best)
        e, uinv = unit_split(rows[best][col], p, q)
        rows[best] = [(x * uinv) % q for x in rows[best]]
        trans[best] = [(x * uinv) % q for x in trans[best]]
        for i in live:
            c = rows[i][col]
            if c:
                if vp_int(c, p, work) < e:
                    raise ValidationError("chart basis is not echelon-compatible")
                f = c // p**e
                rows[i] = [(a - f * b) % q for a, b in zip(rows[i], rows[best])]
                trans[i] = [(a - f * b) % q for a, b in zip(trans[i], trans[best])]
        echelon.append(((col, e), np.array(rows[best], dtype=dtype),
                        np.array(trans[best], dtype=dtype)))
    if live:
        raise ValidationError("chart basis matrices are linearly dependent")
    return echelon


@dataclass(frozen=True)
class GroupChart:
    """d nilpotent basis matrices over Z_p, worked modulo p^work_prec."""

    p: int
    work_prec: int
    basis: Tuple[Matrix, ...]
    name: str = "custom"
    # divided powers x_i^k / k! of the basis, shape (d, size, size, size)
    _terms: np.ndarray = field(init=False, repr=False, compare=False)
    # p^v_p((mat_size - 1)!): the extra p-power that keeps the factorial
    # divisions in exp/log exact
    _headroom: int = field(init=False, repr=False, compare=False)
    # ((pivot col, valuation), row, transform) per echelon row, see `_echelon_solver`
    _echelon: list = field(init=False, repr=False, compare=False)
    # the largest pivot valuation of the chart lattice
    max_pivot_val: int = field(init=False, repr=False, compare=False)
    # g_i = exp(x_i)
    generators: Tuple[Matrix, ...] = field(init=False, repr=False, compare=False)
    # the filtration weight of each g_i: the least valuation of an entry of x_i
    omega_weights: Tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.p == 2 or self.p < 2 or any(self.p % k == 0 for k in range(2, int(self.p**0.5) + 1)):
            raise ValidationError("p must be an odd prime")
        if not self.basis:
            raise ValidationError("chart needs at least one basis matrix")
        u = len(self.basis[0])
        for x in self.basis:
            if len(x) != u or any(len(r) != u for r in x):
                raise ValidationError("basis matrices must be square of equal size")
            if not _is_strictly_upper(x):
                raise ValidationError("basis matrices must be strictly upper triangular")
            if any(v % self.p for r in x for v in r):
                raise ValidationError("basis matrix entries must lie in p*Z")
        q = self.modulus
        headroom = self.p ** legendre_factorial_val(u - 1, self.p)
        wide = q * headroom
        dtype = np.int64 if (u + 1) * wide * wide < 2**63 else object
        terms = _divided_powers(self.basis, self.p, q)
        echelon = _echelon_solver(self.basis, self.p, self.work_prec, dtype)
        object.__setattr__(self, "_terms", terms.astype(dtype))
        object.__setattr__(self, "_headroom", headroom)
        object.__setattr__(self, "_echelon", echelon)
        object.__setattr__(self, "max_pivot_val", max(e for (_, e), _, _ in echelon))
        weights = self._weights(self.batch(self.basis))
        object.__setattr__(self, "omega_weights", tuple(weights.tolist()))
        gens = tuple(self.generator_power(i, 1) for i in range(self.dim))
        object.__setattr__(self, "generators", gens)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def mat_size(self) -> int:
        return len(self.basis[0])

    @property
    def modulus(self) -> int:
        return self.p**self.work_prec

    # -- batches --------------------------------------------------------

    def batch(self, mats) -> np.ndarray:
        """Matrices as one (B, size, size) array of residues mod p^work."""
        a = np.array(mats, dtype=object)
        if a.ndim != 3 or a.shape[1:] != (self.mat_size, self.mat_size):
            raise ValidationError(
                f"expected {self.mat_size}x{self.mat_size} matrices for this chart"
            )
        return (a % self.modulus).astype(self._terms.dtype)

    def words(self, betas: np.ndarray) -> np.ndarray:
        """g_1^{b_1} ... g_d^{b_d} for each row b of the (B, d) array betas."""
        return _ordered_product(self._terms, np.asarray(betas), self.modulus)

    def inverse_words(self, betas: np.ndarray) -> np.ndarray:
        """(g^b)^{-1} = g_d^{-b_d} ... g_1^{-b_1} for each row b."""
        return _ordered_product(self._terms[::-1], -betas[:, ::-1], self.modulus)

    def _exp_batch(self, x) -> np.ndarray:
        """exp x = sum_k x^k / k! for each x of the batch, as Python ints."""
        return _divided_powers(x, self.p, self.modulus).sum(axis=1) % self.modulus

    def _log_batch(self, g: np.ndarray) -> np.ndarray:
        """log g = sum_k (-1)^(k+1) m^k / k with m = g - 1, exact mod p^work:
        the powers m^k are kept modulo p^work times the largest p-part of a
        k < mat_size, so that every division by k is exact."""
        q, n = self.modulus, self.mat_size
        wide = q * self._headroom
        m = (g - np.eye(n, dtype=g.dtype)) % q
        if np.tril(m).any():
            raise ValidationError("log expects a unipotent upper-triangular matrix")
        out = np.zeros_like(m)
        term = m
        for k in range(1, n):
            if k > 1:
                term = np.matmul(term, m) % wide
            e, uinv = unit_split(k, self.p, q)
            pv = self.p**e
            t = term % (q * pv)
            if (t % pv).any():
                raise PrecisionError("inexact division by a power of p")
            t = t // pv * uinv % q
            out = (out + t if k % 2 == 1 else out - t) % q
        return out

    def inverse_batch(self, g: np.ndarray) -> np.ndarray:
        """g^-1 = sum_k (1 - g)^k over k < mat_size for each g of the batch,
        a Neumann series that ends because g - 1 is nilpotent."""
        q = self.modulus
        one = np.eye(self.mat_size, dtype=g.dtype)
        m = (one - g) % q
        out = term = np.broadcast_to(one, g.shape)
        for _ in range(1, self.mat_size):
            term = np.matmul(term, m) % q
            out = (out + term) % q
        return out

    def root_batch(self, g: np.ndarray, m: int) -> np.ndarray:
        """The p^m-th root of each g of the batch, when every log g is
        divisible by p^m.  The logs are residues below p^work_prec, so the
        divisor is p^min(m, work_prec), which fits the batch dtype."""
        x = self._log_batch(g)
        pm = self.p ** min(m, self.work_prec)
        if (x % pm).any():
            raise PrecisionError(f"log g not divisible by p^{m}: no root at precision")
        y = x // pm
        # the quotient must itself lie in the chart lattice (the top m
        # digits of y are junk after the division, hence the tolerance)
        self._solve_batch(y, tol=m + 3)
        return self._exp_batch(y)

    def _weights(self, x: np.ndarray) -> np.ndarray:
        """Per matrix: the least valuation of a nonzero entry (work_prec when
        the matrix vanishes)."""
        g = np.gcd.reduce(x.reshape(len(x), self.mat_size**2), axis=1)
        return vp_array(g, self.p, self.work_prec)

    def _solve_batch(self, x: np.ndarray, tol: int) -> np.ndarray:
        """Rows lam with sum_i lam_i x_i = target for each target in the batch;
        every remainder must vanish modulo p^(work_prec - tol)."""
        p, q = self.p, self.modulus
        t = x.reshape(len(x), self.mat_size**2) % q
        lam = np.zeros((len(x), self.dim), dtype=t.dtype)
        for (col, e), row, tr in self._echelon:
            c = t[:, col]
            if (c % p**e).any():
                raise PrecisionError("target outside chart lattice")
            f = (c // p**e)[:, None]
            t = (t - f * row) % q
            lam = (lam + f * tr) % q
        if (t % p ** max(self.work_prec - tol, 1)).any():
            raise PrecisionError("target outside chart lattice")
        return lam

    # -- exp / log -----------------------------------------------------

    def exp(self, x: Matrix) -> Matrix:
        return _as_matrix(self._exp_batch([x])[0])

    def log(self, g: Matrix) -> Matrix:
        return _as_matrix(self._log_batch(self.batch([g]))[0])

    # -- generators and words ------------------------------------------

    def generator_power(self, i: int, k: int) -> Matrix:
        """g_i^k for any integer k, via exp(k * x_i)."""
        b = np.array([k % self.modulus], dtype=self._terms.dtype)
        return _as_matrix(_powers(self._terms[i], b, self.modulus)[0])

    def word(self, beta: Sequence[int]) -> Matrix:
        if len(beta) != self.dim:
            raise ValidationError("exponent vector length mismatch")
        q = self.modulus
        row = np.array([[b % q for b in beta]], dtype=self._terms.dtype)
        return _as_matrix(self.words(row)[0])

    def log_powers(self, elements: Sequence[Matrix]) -> np.ndarray:
        """The divided powers (log h)^k / k! of each element h, from which
        `power_words` evaluates powers of the h."""
        return _divided_powers(self._log_batch(self.batch(elements)), self.p, self.modulus)

    def power_words(self, terms: np.ndarray, betas) -> np.ndarray:
        """h_1^{b_1} ... h_d^{b_d} for each row b of betas, each power
        evaluated as exp(b_i log h_i), where terms = log_powers([h_1..h_d])."""
        q = self.modulus
        return _ordered_product(terms, np.array(betas, dtype=object) % q, q)

    def inverse(self, g: Matrix) -> Matrix:
        return _as_matrix(self.inverse_batch(self.batch([g]))[0])

    # -- coordinate recovery -------------------------------------------

    def solve_lattice(self, target: Matrix) -> List[int]:
        """Solve sum lambda_i x_i = target in the chart lattice mod p^work;
        the remainder must vanish."""
        return [int(v) for v in self._solve_batch(self.batch([target]), tol=0)[0]]

    def coordinates(self, g, prec: Optional[int] = None):
        """Exponents (b_1..b_d) with g = g_1^{b_1} ... g_d^{b_d} mod p^prec.

        g is one matrix (the result is a tuple) or a (B, size, size) array of
        them (the result is a (B, d) array of residues mod p^prec); one
        matrix is solved as a batch of one.

        Each element iterates until the logarithm of the remainder
        (g_1^{b_1}...g_d^{b_d})^{-1} g has weight >= prec + max pivot
        valuation + 1; the weight must strictly increase at every step, each
        logarithm must lie in the chart lattice, and the final word must
        agree with g mod p^prec.  PrecisionError if any element fails.
        """
        if isinstance(g, np.ndarray) and g.ndim == 3:
            return self._coordinates(g, prec)
        return tuple(int(b) for b in self._coordinates([g], prec)[0])

    def _coordinates(self, gs, prec: Optional[int]) -> np.ndarray:
        p, q = self.p, self.modulus
        max_e = self.max_pivot_val
        noise = 3  # headroom for the factorial divisions inside exp/log
        if prec is None:
            prec = self.work_prec - max_e - noise - 2
        if prec < 1:
            raise PrecisionError("working precision too small for coordinates")
        stop_val = prec + max_e + 1
        if stop_val + noise > self.work_prec:
            raise PrecisionError("working precision too small for coordinates")
        gs = self.batch(gs)
        beta = np.zeros((len(gs), self.dim), dtype=gs.dtype)
        last_wt = np.full(len(gs), -1)
        live = np.arange(len(gs))  # elements still iterating
        for step in range(stop_val + self.mat_size + 2):
            if not live.size:
                break
            if step == 0:
                r = gs  # the remainder for beta = 0
            else:
                r = np.matmul(self.inverse_words(beta[live]), gs[live]) % q
            x = self._log_batch(r)
            wt = self._weights(x)
            going = wt < stop_val
            live, x, wt = live[going], x[going], wt[going]
            if (wt <= last_wt[live]).any():
                raise PrecisionError("coordinate iteration failed to converge")
            last_wt[live] = wt
            beta[live] += self._solve_batch(x, tol=noise)
        if live.size:
            raise PrecisionError("coordinate iteration failed to converge")
        out = beta % p**prec
        if ((self.words(out) - gs) % p**prec).any():
            raise PrecisionError("coordinate verification failed at precision")
        return out

    def structure_presentation(self, prec: int):
        """Lie structure constants of the chart lattice, when it is closed
        under the bracket; raises otherwise.

        The solve fixes a coefficient only modulo p^(work_prec -
        max_pivot_val), so each is reduced and signed at that modulus.
        """
        from .nilpotent import LiePresentation

        q = self.modulus
        known = self.p ** (self.work_prec - self.max_pivot_val)
        x = self.batch(self.basis)
        i, j = np.triu_indices(self.dim, 1)
        lams = self._solve_batch((x[i] @ x[j] - x[j] @ x[i]) % q, tol=0)
        triples = []
        for a, b, lam in zip(i.tolist(), j.tolist(), lams.tolist()):
            for k, c in enumerate(lam):
                c %= known
                if c:
                    signed = c - known if c > known // 2 else c
                    triples.append((a + 1, b + 1, k + 1, signed))
        return LiePresentation.from_triples(self.p, self.dim, prec, triples)


# ---------------------------------------------------------------------------
# builtin charts


def _unit_entry(size: int, i: int, j: int, val: int) -> Matrix:
    return tuple(
        tuple(val if (a, b) == (i, j) else 0 for b in range(size)) for a in range(size)
    )


def cyclic_chart(p: int, work_prec: int = 12) -> GroupChart:
    """Z_p itself: one generator, x_1 = p E_{12}."""
    return GroupChart(p, work_prec, (_unit_entry(2, 0, 1, p),), name="cyclic")


def abelian_chart(p: int, dim: int, work_prec: int = 12) -> GroupChart:
    """Z_p^d on the first row of a (d+1)x(d+1) matrix: x_i = p E_{1,i+1},
    so every product x_i x_j is zero."""
    basis = tuple(_unit_entry(dim + 1, 0, i + 1, p) for i in range(dim))
    return GroupChart(p, work_prec, basis, name="abelian")


def heisenberg_chart(p: int, work_prec: int = 14) -> GroupChart:
    """Heisenberg group: x1 = p E12, x2 = p E23, x3 = p^2 E13.

    The commutator (g1, g2) has coordinates (0, 0, 1) and the filtration
    weights are (1, 1, 2).
    """
    basis = (
        _unit_entry(3, 0, 1, p),
        _unit_entry(3, 1, 2, p),
        _unit_entry(3, 0, 2, p * p),
    )
    return GroupChart(p, work_prec, basis, name="heisenberg")


def unipotent_chart(p: int, size: int, work_prec: int = 14) -> GroupChart:
    """Full upper unitriangular group scaled into the uniform range:
    basis p E_{ij} for i < j in lexicographic (i, j) order."""
    basis = tuple(
        _unit_entry(size, i, j, p) for i in range(size) for j in range(i + 1, size)
    )
    return GroupChart(p, work_prec, basis, name=f"unipotent{size}")


def builtin_chart(name: str, p: int, work_prec: Optional[int] = None) -> GroupChart:
    kw = {} if work_prec is None else {"work_prec": work_prec}
    if name == "cyclic":
        return cyclic_chart(p, **kw)
    if name == "heisenberg":
        return heisenberg_chart(p, **kw)
    # abelian<d> and unipotent<size>, with d = 1 and size = 4 when omitted
    families = (("abelian", abelian_chart, 1), ("unipotent", unipotent_chart, 4))
    for family, make, default in families:
        suffix = name[len(family):]
        if name.startswith(family) and (suffix == "" or suffix.isdigit()):
            return make(p, int(suffix) if suffix else default, **kw)
    raise ValidationError(f"unknown builtin chart {name!r}")


def chart_from_matrices(
    p: int, matrices: Sequence[Sequence[Sequence[int]]], work_prec: int = 14
) -> GroupChart:
    return GroupChart(p, work_prec, tuple(_mat(m) for m in matrices))
