"""Nilpotent Z_p-Lie algebras given by structure constants.

Structure constants arrive as exact integers or rationals; rescaled
sublattices and the input format both allow rationals, and `validate`
reads them in Z_(p).  Every bracket is a combination of table rows, and
one kernel, `_annihilator`, gives both the upper central series (which
also decides nilpotency) and centralizers.  It works over Q and returns
primitive integer bases, so the results are saturated, which sidesteps the
junk vectors that plain mod-p^N kernels accumulate near the precision floor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, List, Optional, Sequence, Tuple

from .errors import ValidationError
from .padic import vp

Vector = Tuple[Fraction, ...]


# ---------------------------------------------------------------------------
# exact rational linear algebra (tiny dimensions)


def _rref(rows: List[List[Fraction]]) -> Tuple[List[List[Fraction]], List[int]]:
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivcols: List[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = Fraction(1, 1) / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivcols.append(c)
        r += 1
        if r == len(mat):
            break
    return [row for row in mat[:r]], pivcols


def _nullspace(rows: List[List[Fraction]], ncols: int) -> List[List[Fraction]]:
    """Basis of {x : x_1..x_ncols with M x = 0} for M given by ``rows``."""
    red, pivcols = _rref(rows)
    free = [c for c in range(ncols) if c not in pivcols]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, c in zip(red, pivcols):
            v[c] = -r[f]
        basis.append(v)
    return basis


def _primitive(vec: Sequence[Fraction]) -> Tuple[int, ...]:
    den = lcm(*[x.denominator for x in vec]) if vec else 1
    ints = [int(x * den) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, x)
    if g:
        ints = [x // g for x in ints]
    lead = next((x for x in ints if x != 0), 1)
    if lead < 0:
        ints = [-x for x in ints]
    return tuple(ints)


def _canonical_rows(vectors: Iterable[Sequence[Fraction]]) -> Tuple[Tuple[int, ...], ...]:
    rows = [[Fraction(x) for x in v] for v in vectors]
    rows = [r for r in rows if any(r)]
    if not rows:
        return ()
    red, _ = _rref(rows)
    return tuple(_primitive(r) for r in red)


def _combine(coeffs: Sequence, rows: Sequence[Sequence], dim: int) -> List[Fraction]:
    """sum_t coeffs[t] * rows[t]; rows with a zero coefficient are not read."""
    out = [Fraction(0)] * dim
    for c, row in zip(coeffs, rows):
        if c:
            for m, r in enumerate(row):
                if r:
                    out[m] += c * r
    return out


# ---------------------------------------------------------------------------
# presentations and submodules


@dataclass(frozen=True)
class Submodule:
    """Saturated submodule of the coefficient lattice, by primitive rows."""

    ambient: int
    rows: Tuple[Tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.rows)

    def describe(self) -> str:
        """Pretty form, e.g. ``span{x2, x3, x5}`` when rows are unit vectors."""
        if not self.rows:
            return "0"
        labels = []
        for r in self.rows:
            support = [i for i, x in enumerate(r) if x != 0]
            if len(support) == 1 and r[support[0]] == 1:
                labels.append(f"x{support[0] + 1}")
            else:
                labels.append("(" + " ".join(str(x) for x in r) + ")")
        return "span{" + ", ".join(labels) + "}"


def full_module(dim: int) -> Submodule:
    rows = tuple(tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim))
    return Submodule(dim, rows)


def zero_module(dim: int) -> Submodule:
    return Submodule(dim, ())


@dataclass(frozen=True)
class LiePresentation:
    """Lie lattice on basis x_1..x_d with exact structure constants.

    bracket[i][j] is the coefficient vector of [x_i, x_j]; entries may be
    Fractions for rescaled sublattices, plain ints otherwise.
    """

    p: int
    dim: int
    prec: int
    bracket: Tuple[Tuple[Vector, ...], ...]

    @staticmethod
    def from_triples(
        p: int, dim: int, prec: int, triples: Iterable[Tuple[int, int, int, int]]
    ) -> "LiePresentation":
        """Build from 1-based triples (i, j, k, c) meaning [x_i,x_j] ∋ c·x_k.

        The antisymmetric completion is automatic; unlisted pairs are zero.
        """
        table = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
        for i, j, k, c in triples:
            if not (1 <= i <= dim and 1 <= j <= dim and 1 <= k <= dim):
                raise ValidationError(f"bracket index out of range: {(i, j, k)}")
            if i == j and c != 0:
                raise ValidationError(f"nonzero bracket [x{i},x{i}]")
            table[i - 1][j - 1][k - 1] += Fraction(c)
            table[j - 1][i - 1][k - 1] -= Fraction(c)
        rows = tuple(tuple(tuple(v) for v in row) for row in table)
        return LiePresentation(p, dim, prec, rows)

    def rescaled(self, exponents: Sequence[int]) -> "LiePresentation":
        """Presentation of the sublattice with basis u_i = p^{e_i} x_i."""
        if len(exponents) != self.dim:
            raise ValidationError("exponent vector length mismatch")
        pw = [self.p ** e for e in exponents]
        table = []
        for i in range(self.dim):
            row = []
            for j in range(self.dim):
                row.append(
                    tuple(
                        Fraction(self.bracket[i][j][k]) * pw[i] * pw[j] / pw[k]
                        for k in range(self.dim)
                    )
                )
            table.append(tuple(row))
        return LiePresentation(self.p, self.dim, self.prec, tuple(table))


@dataclass
class ValidationReport:
    ok: bool
    violations: List[str] = field(default_factory=list)
    # the upper central series; empty when antisymmetry or Jacobi fails, or
    # when L is not nilpotent
    series: List[Submodule] = field(default_factory=list)

    def __str__(self):
        if self.ok:
            return "valid"
        return "invalid:\n" + "\n".join("  - " + v for v in self.violations)


def validate(L: LiePresentation) -> ValidationReport:
    """Check antisymmetry, Jacobi (mod p^prec), that every constant lies in
    p·Z_(p), and nilpotency, which the upper central series decides."""
    bad: List[str] = []
    for i in range(L.dim):
        for j in range(L.dim):
            for k in range(L.dim):
                if L.bracket[i][j][k] != -L.bracket[j][i][k]:
                    bad.append(f"antisymmetry fails at [x{i+1},x{j+1}] vs [x{j+1},x{i+1}]")
                if i == j and L.bracket[i][j][k] != 0:
                    bad.append(f"[x{i+1},x{i+1}] nonzero")
    # [u, x_k] = sum_t u_t bracket[t][k]: column k of the table
    cols = [[row[k] for row in L.bracket] for k in range(L.dim)]
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            for k in range(j + 1, L.dim):
                acc = [
                    a + b + c
                    for a, b, c in zip(
                        _combine(L.bracket[i][j], cols[k], L.dim),
                        _combine(L.bracket[j][k], cols[i], L.dim),
                        _combine(L.bracket[k][i], cols[j], L.dim),
                    )
                ]
                for t, val in enumerate(acc):
                    if val and vp(val, L.p) < L.prec:
                        bad.append(
                            f"Jacobi fails on (x{i+1},x{j+1},x{k+1}) in x{t+1}-coordinate"
                        )
                        break
    for i in range(L.dim):
        for j in range(L.dim):
            for k in range(L.dim):
                c = L.bracket[i][j][k]
                if c != 0 and vp(c, L.p) < 1:
                    bad.append(f"bracket [x{i+1},x{j+1}] not in p·lattice (x{k+1}-part {c})")
    series: List[Submodule] = []
    if not any(v.startswith("antisymmetry") or v.startswith("Jacobi") for v in bad):
        try:
            series = upper_central_series(L)
        except ValidationError as exc:
            bad.append(str(exc))
    return ValidationReport(not bad, bad, series)


def _annihilator(
    L: LiePresentation, S: Iterable[Sequence[int]], P: Sequence[Sequence[int]]
) -> Submodule:
    """Saturated {x : [x, s] in span(P) for every s in S}.

    [x, s] = sum_i x_i [x_i, s], and [x_i, s] = sum_k s_k bracket[i][k] is a
    combination of table rows.  Reduced modulo span(P), its coordinates off
    P's pivots must vanish: each is one linear condition on x.
    """
    red, pivcols = _rref([[Fraction(v) for v in r] for r in P])
    free = [t for t in range(L.dim) if t not in pivcols]
    conditions: List[List[Fraction]] = []
    for s in S:
        images = []
        for i in range(L.dim):
            vec = _combine(s, L.bracket[i], L.dim)
            for r, c in zip(red, pivcols):
                f = vec[c]
                if f != 0:
                    vec = [a - f * b for a, b in zip(vec, r)]
            images.append(vec)
        conditions.extend([img[t] for img in images] for t in free)
    return Submodule(L.dim, _canonical_rows(_nullspace(conditions, L.dim)))


def upper_central_series(L: LiePresentation) -> List[Submodule]:
    """Ascending chain 0 = Z_0 < Z_1 < ... terminating at L (saturated):
    Z_k is the annihilator of the basis modulo Z_{k-1}."""
    basis = full_module(L.dim).rows
    chain = [zero_module(L.dim)]
    while chain[-1].dim < L.dim:
        nxt = _annihilator(L, basis, chain[-1].rows)
        if nxt.rows == chain[-1].rows:
            raise ValidationError("upper central series stalls: not nilpotent")
        chain.append(nxt)
    return chain


def centralizer(L: LiePresentation, S: Submodule) -> Submodule:
    """Saturated kernel of x -> [x, S]."""
    if S.ambient != L.dim:
        raise ValidationError("ambient dimension mismatch")
    return _annihilator(L, S.rows, ())


def second_centre_centralizer(
    L: LiePresentation, chain: Optional[List[Submodule]] = None
) -> Submodule:
    """C(Z_2(L)); ``chain`` is L's upper central series when the caller
    already holds it."""
    if chain is None:
        chain = upper_central_series(L)
    z2 = chain[min(2, len(chain) - 1)]
    return centralizer(L, z2)


def centraliser_compat(L: LiePresentation, exponents: Sequence[int]) -> bool:
    """Does C_U(Z_2(U)) equal C(Z_2(L)) ∩ U for U with basis p^{e_i} x_i?

    Both sides are compared as saturated-in-U submodules, i.e. as rational
    subspaces in the ambient coordinates.
    """
    U = L.rescaled(exponents)
    inner = second_centre_centralizer(U)
    # transform u-coordinates back to ambient x-coordinates
    pw = [Fraction(L.p) ** e for e in exponents]
    inner_ambient = _canonical_rows(
        [[Fraction(r[i]) * pw[i] for i in range(L.dim)] for r in inner.rows]
    )
    outer = second_centre_centralizer(L)
    return inner_ambient == outer.rows
