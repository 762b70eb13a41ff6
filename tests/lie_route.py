"""The two-algorithm route through the Lie layer, kept as the tests'
reference.

These are the implementations `nilpotent` used before one kernel gave the
upper central series, nilpotency and centralizers:

- `validate` checks Jacobi and the p-lattice condition over Z (a bracket
  constant or Jacobi sum with a denominator fails), and decides nilpotency
  by the lower central series, `is_nilpotent`, built with `bracket_vec` on
  basis vectors one step at a time (`lcs_step`);
- `upper_central_series` builds its own conditions from the table, reduced
  modulo each term, and kernels their transpose;
- `centralizer` brackets each basis vector with each row of S by
  `bracket_vec`, with a special case for S = 0.
"""

from fractions import Fraction

from iwasawa_kernel.errors import ValidationError
from iwasawa_kernel.nilpotent import (
    Submodule,
    _canonical_rows,
    _nullspace,
    _rref,
    full_module,
    zero_module,
)

NOT_NILPOTENT = "lower central series does not reach 0 (not nilpotent)"


def basis_vector(L, i):
    return [Fraction(1) if j == i else Fraction(0) for j in range(L.dim)]


def bracket_vec(L, u, v):
    out = [Fraction(0)] * L.dim
    for i, ui in enumerate(u):
        if ui == 0:
            continue
        for j, vj in enumerate(v):
            if vj == 0:
                continue
            coeffs = L.bracket[i][j]
            if any(coeffs):
                f = Fraction(ui) * Fraction(vj)
                for k in range(L.dim):
                    out[k] += f * coeffs[k]
    return out


def validate(L):
    """The violations the parent's `validate` listed, in its order."""
    bad = []
    q = L.p**L.prec
    for i in range(L.dim):
        for j in range(L.dim):
            for k in range(L.dim):
                if L.bracket[i][j][k] != -L.bracket[j][i][k]:
                    bad.append(f"antisymmetry fails at [x{i+1},x{j+1}] vs [x{j+1},x{i+1}]")
                if i == j and L.bracket[i][j][k] != 0:
                    bad.append(f"[x{i+1},x{i+1}] nonzero")
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            for k in range(j + 1, L.dim):
                ei, ej, ek = (basis_vector(L, t) for t in (i, j, k))
                acc = [
                    a + b + c
                    for a, b, c in zip(
                        bracket_vec(L, L.bracket[i][j], ek),
                        bracket_vec(L, L.bracket[j][k], ei),
                        bracket_vec(L, L.bracket[k][i], ej),
                    )
                ]
                for t, val in enumerate(acc):
                    if val.denominator != 1 or int(val) % q != 0:
                        bad.append(
                            f"Jacobi fails on (x{i+1},x{j+1},x{k+1}) in x{t+1}-coordinate"
                        )
                        break
    for i in range(L.dim):
        for j in range(L.dim):
            for k in range(L.dim):
                c = L.bracket[i][j][k]
                if c != 0 and (Fraction(c) / L.p).denominator != 1:
                    bad.append(f"bracket [x{i+1},x{j+1}] not in p·lattice (x{k+1}-part {c})")
    if not any(v.startswith("antisymmetry") or v.startswith("Jacobi") for v in bad):
        if not is_nilpotent(L):
            bad.append(NOT_NILPOTENT)
    return bad


def lcs_step(L, current):
    gens = []
    for r in current.rows:
        for j in range(L.dim):
            gens.append(bracket_vec(L, r, basis_vector(L, j)))
    return Submodule(L.dim, _canonical_rows(gens))


def is_nilpotent(L):
    term = full_module(L.dim)
    for _ in range(L.dim + 1):
        nxt = lcs_step(L, term)
        if nxt.dim == 0:
            return True
        if nxt.rows == term.rows:
            return False
        term = nxt
    return False


def upper_central_series(L):
    chain = [zero_module(L.dim)]
    while True:
        prev = chain[-1]
        # x in Z_k  iff  [x, e_j] lies in span(Z_{k-1}) for every j.
        prev_rows = [[Fraction(x) for x in r] for r in prev.rows]
        red, pivcols = _rref(prev_rows) if prev_rows else ([], [])
        conditions = []
        for i in range(L.dim):
            row = []
            for j in range(L.dim):
                vec = [Fraction(c) for c in L.bracket[i][j]]
                for r, c in zip(red, pivcols):
                    f = vec[c]
                    if f != 0:
                        vec = [a - f * b for a, b in zip(vec, r)]
                row.extend(vec)
            conditions.append(row)
        transposed = [[conditions[i][c] for i in range(L.dim)] for c in range(len(conditions[0]))]
        basis = _nullspace(transposed, L.dim)
        nxt = Submodule(L.dim, _canonical_rows(basis))
        if nxt.rows == prev.rows:
            if nxt.dim < L.dim:
                raise ValidationError("upper central series stalls: not nilpotent")
            break
        chain.append(nxt)
        if nxt.dim == L.dim:
            break
    return chain


def centralizer(L, S):
    conditions = []
    for i in range(L.dim):
        row = []
        for s in S.rows:
            row.extend(bracket_vec(L, basis_vector(L, i), s))
        conditions.append(row)
    if not S.rows:
        return full_module(L.dim)
    transposed = [[conditions[i][c] for i in range(L.dim)] for c in range(len(conditions[0]))]
    basis = _nullspace(transposed, L.dim)
    return Submodule(L.dim, _canonical_rows(basis))
