"""Nilpotent Z_p-Lie algebras given by structure constants.

Structure constants arrive as exact integers or rationals; rescaled
sublattices and the input format both allow rationals.  A presentation
derives one integer table once, when it is built: D·[x_i, x_j], where D is
the lcm of the bracket denominators.  Everything below runs on that table
in Python ints.  `validate` reads the constants in Z_(p) through fixed
offsets of v_p(D).  Every bracket is a combination of table rows, and one
kernel, `_annihilator`, gives both the upper central series (which also
decides nilpotency) and centralizers.  It runs fraction-free row reduction
over Z (Bareiss, Math. Comp. 22, 1968), dividing each row by its content in
place of Bareiss's exact divisions, and returns primitive integer bases, so
the results are saturated, which sidesteps the junk vectors that plain
mod-p^N kernels accumulate near the precision floor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .algebra import require_bytes
from .errors import ValidationError
from .padic import vp

Vector = Tuple[Fraction, ...]
IntRow = Tuple[int, ...]


# ---------------------------------------------------------------------------
# fraction-free linear algebra over Z (tiny dimensions)


def _eliminate(row: List[int], piv: List[int], c: int) -> List[int]:
    """The primitive part of piv[c]·row − row[c]·piv, where piv[c] > 0: zero
    in column c, with the signs of row's other pivots kept."""
    g = gcd(piv[c], row[c])
    a, b = piv[c] // g, row[c] // g
    out = [a * x - b * y for x, y in zip(row, piv)]
    content = gcd(*out)
    return [x // content for x in out] if content > 1 else out


def _echelon(rows: Iterable[Sequence[int]], ncols: int) -> Tuple[Tuple[IntRow, ...], List[int]]:
    """Reduced echelon basis of the rational span of ``rows``, and its pivot
    columns: primitive integer rows in pivot order, each with a positive
    pivot and zeros in every other row's pivot column.  Each row is a
    positive multiple of a row of the reduced row echelon form, so the basis
    depends only on the span."""
    mat = [list(r) for r in rows if any(r)]
    done: List[List[int]] = []
    pivcols: List[int] = []
    for c in range(ncols):
        k = next((i for i, r in enumerate(mat) if r[c]), None)
        if k is None:
            continue
        piv = mat.pop(k)
        content = gcd(*piv)
        piv = [x // content for x in piv] if piv[c] > 0 else [-x // content for x in piv]
        mat = [_eliminate(r, piv, c) if r[c] else r for r in mat]
        mat = [r for r in mat if any(r)]
        done = [_eliminate(r, piv, c) if r[c] else r for r in done]
        done.append(piv)
        pivcols.append(c)
        if not mat:
            break
    return tuple(tuple(r) for r in done), pivcols


def _nullspace(rows: Sequence[Sequence[int]], ncols: int) -> Tuple[IntRow, ...]:
    """Reduced echelon basis of {x : M x = 0} for M given by ``rows``."""
    red, pivcols = _echelon(rows, ncols)
    pivots = set(pivcols)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        # x_f = m and x_c = −row[f]·m/row[c] on each pivot column c
        m = lcm(*(r[c] for r, c in zip(red, pivcols) if r[f]))
        v = [0] * ncols
        v[f] = m
        for r, c in zip(red, pivcols):
            if r[f]:
                v[c] = -r[f] * (m // r[c])
        basis.append(v)
    return _echelon(basis, ncols)[0]


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
    Fractions for rescaled sublattices, plain ints otherwise.  The
    presentation derives, once, ``_den``, the lcm D of the constants'
    denominators, and ``_table``, the integer table D·bracket.
    """

    p: int
    dim: int
    prec: int
    bracket: Tuple[Tuple[Vector, ...], ...]
    _den: int = field(init=False, repr=False, compare=False)
    _table: Tuple[Tuple[IntRow, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        den = lcm(*{c.denominator for row in self.bracket for v in row for c in v})
        zero = (0,) * self.dim
        table = tuple(
            tuple(tuple(c.numerator * (den // c.denominator) for c in v) if any(v) else zero
                  for v in row)
            for row in self.bracket
        )
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_table", table)

    @staticmethod
    def from_triples(
        p: int, dim: int, prec: int, triples: Iterable[Tuple[int, int, int, int]]
    ) -> "LiePresentation":
        """Build from 1-based triples (i, j, k, c) meaning [x_i,x_j] ∋ c·x_k.

        The antisymmetric completion is automatic; unlisted pairs are zero.
        The dim³ table, and the annihilator's dim² conditions of length dim,
        are asked of the byte budget before anything is allocated.  Only
        the listed pairs get vectors of their own, and every other pair, in
        the bracket and in the derived integer table alike, shares one zero
        vector, so building the presentation stays within the bytes asked.
        """
        require_bytes(8 * dim**3, f"the Lie bracket table at dim = {dim}")
        listed: Dict[Tuple[int, int], List[Fraction]] = {}
        for i, j, k, c in triples:
            if not (1 <= i <= dim and 1 <= j <= dim and 1 <= k <= dim):
                raise ValidationError(f"bracket index out of range: {(i, j, k)}")
            if i == j and c != 0:
                raise ValidationError(f"nonzero bracket [x{i},x{i}]")
            listed.setdefault((i - 1, j - 1), [Fraction(0)] * dim)[k - 1] += Fraction(c)
            listed.setdefault((j - 1, i - 1), [Fraction(0)] * dim)[k - 1] -= Fraction(c)
        zero = (Fraction(0),) * dim
        rows = tuple(
            tuple(tuple(listed[i, j]) if (i, j) in listed else zero for j in range(dim))
            for i in range(dim)
        )
        return LiePresentation(p, dim, prec, rows)

    def rescaled(self, exponents: Sequence[int]) -> "LiePresentation":
        """Presentation of the sublattice with basis u_i = p^{e_i} x_i."""
        if len(exponents) != self.dim:
            raise ValidationError("exponent vector length mismatch")
        if any(e < 0 for e in exponents):
            raise ValidationError(f"a sublattice needs exponents >= 0, got {tuple(exponents)}")
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


def _support(vec: Sequence[int]) -> List[Tuple[int, int]]:
    return [(t, c) for t, c in enumerate(vec) if c]


def validate(L: LiePresentation) -> ValidationReport:
    """Check antisymmetry, Jacobi (mod p^prec), that every constant lies in
    p·Z_(p), and nilpotency, which the upper central series decides.

    The table holds D·[x_i, x_j], so a Jacobi sum read off it is D² times
    the true one, and a constant D times the true one.  Only pairs with a
    nonzero bracket are visited: a Jacobi triple none of whose three pairs
    brackets to nonzero has sum zero.
    """
    dim, T = L.dim, L._table
    v_den = vp(L._den, L.p)
    nonzero = {
        (i, j): _support(T[i][j]) for i in range(dim) for j in range(dim) if any(T[i][j])
    }
    bad: List[str] = []
    for i in range(dim):
        for j in range(dim):
            if (i, j) not in nonzero and (j, i) not in nonzero:
                continue
            for k in range(dim):
                if T[i][j][k] != -T[j][i][k]:
                    bad.append(f"antisymmetry fails at [x{i+1},x{j+1}] vs [x{j+1},x{i+1}]")
                if i == j and T[i][j][k] != 0:
                    bad.append(f"[x{i+1},x{i+1}] nonzero")

    def term(i, j, k):
        # D²·[[x_i, x_j], x_k] = sum_s D·c_ij^s · D·[x_s, x_k]
        acc = [0] * dim
        for s, c in nonzero.get((i, j), ()):
            for t, w in enumerate(T[s][k]):
                if w:
                    acc[t] += c * w
        return acc

    triples = {
        tuple(sorted((i, j, k))) for i, j in nonzero if i != j for k in range(dim) if k not in (i, j)
    }
    for i, j, k in sorted(triples):
        for t, val in enumerate(map(sum, zip(term(i, j, k), term(j, k, i), term(k, i, j)))):
            if val and vp(val, L.p) - 2 * v_den < L.prec:
                bad.append(f"Jacobi fails on (x{i+1},x{j+1},x{k+1}) in x{t+1}-coordinate")
                break
    for (i, j), support in sorted(nonzero.items()):
        for k, c in support:
            if vp(c, L.p) - v_den < 1:
                bad.append(
                    f"bracket [x{i+1},x{j+1}] not in p·lattice (x{k+1}-part {L.bracket[i][j][k]})"
                )
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

    [x, s] = sum_i x_i [x_i, s], and [x_i, s] = sum_k s_k table[i][k] is a
    combination of table rows.  Reduced modulo span(P), its coordinates off
    P's pivots must vanish: each is one linear condition on x.  P's reduced
    echelon rows have pivots a_r; every image is scaled by m = lcm(a_r), so
    that reducing it subtracts the integer multiples image[c_r]·(m/a_r)·row_r
    and every condition keeps the same scale.
    """
    dim, T = L.dim, L._table
    red, pivcols = _echelon(P, dim)
    m = lcm(*(r[c] for r, c in zip(red, pivcols)))
    reducers = [(c, [(m // r[c]) * x for x in r]) for r, c in zip(red, pivcols)]
    pivots = set(pivcols)
    free = [t for t in range(dim) if t not in pivots]
    conditions: List[List[int]] = []
    for s in S:
        support = _support(s)
        images = []
        for i in range(dim):
            vec = None
            for k, sk in support:
                row = T[i][k]
                if any(row):
                    vec = [sk * w for w in row] if vec is None else [
                        a + sk * w for a, w in zip(vec, row)
                    ]
            if vec is not None:
                # the other reducers are zero in column c, so vec[c] is the
                # coefficient of row_r throughout
                out = [m * a for a in vec]
                for c, r in reducers:
                    if vec[c]:
                        out = [a - vec[c] * b for a, b in zip(out, r)]
                vec = out
            images.append(vec)
        if any(img is not None for img in images):
            for t in free:
                cond = [0 if img is None else img[t] for img in images]
                if any(cond):
                    conditions.append(cond)
    return Submodule(dim, _nullspace(conditions, dim))


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
    pw = [L.p ** e for e in exponents]
    inner_ambient, _ = _echelon(
        [[r[i] * pw[i] for i in range(L.dim)] for r in inner.rows], L.dim
    )
    outer = second_centre_centralizer(L)
    return inner_ambient == outer.rows
