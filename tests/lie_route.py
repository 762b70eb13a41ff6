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

Below them is the one-kernel route as it ran over Q, before the Lie layer
moved to an integer table: Fraction row reduction (`_rref`, `_nullspace`,
`_canonical_rows`), and `rational_validate`, `rational_annihilator` and the
series, centralizers and `rational_centraliser_compat` built on it, all
reading `L.bracket` directly.  Its `validate` reads constants in Z_(p), so
it is the oracle for rational constants too.
"""

from fractions import Fraction
from math import gcd, lcm

from iwasawa_kernel.errors import ValidationError
from iwasawa_kernel.nilpotent import Submodule, full_module, zero_module
from iwasawa_kernel.padic import vp

NOT_NILPOTENT = "lower central series does not reach 0 (not nilpotent)"


# ---------------------------------------------------------------------------
# exact rational linear algebra


def _rref(rows):
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivcols = []
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


def _nullspace(rows, ncols):
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


def _primitive(vec):
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


def _canonical_rows(vectors):
    rows = [[Fraction(x) for x in v] for v in vectors]
    rows = [r for r in rows if any(r)]
    if not rows:
        return ()
    red, _ = _rref(rows)
    return tuple(_primitive(r) for r in red)


def _combine(coeffs, rows, dim):
    """sum_t coeffs[t] * rows[t]; rows with a zero coefficient are not read."""
    out = [Fraction(0)] * dim
    for c, row in zip(coeffs, rows):
        if c:
            for m, r in enumerate(row):
                if r:
                    out[m] += c * r
    return out


# ---------------------------------------------------------------------------
# the two-algorithm route



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


# ---------------------------------------------------------------------------
# the one-kernel route over Q


def rational_validate(L):
    """The violations and series of `validate` over Q, in its order."""
    bad = []
    for i in range(L.dim):
        for j in range(L.dim):
            for k in range(L.dim):
                if L.bracket[i][j][k] != -L.bracket[j][i][k]:
                    bad.append(f"antisymmetry fails at [x{i+1},x{j+1}] vs [x{j+1},x{i+1}]")
                if i == j and L.bracket[i][j][k] != 0:
                    bad.append(f"[x{i+1},x{i+1}] nonzero")
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
    series = []
    if not any(v.startswith("antisymmetry") or v.startswith("Jacobi") for v in bad):
        try:
            series = rational_upper_central_series(L)
        except ValidationError as exc:
            bad.append(str(exc))
    return bad, series


def rational_annihilator(L, S, P):
    """Saturated {x : [x, s] in span(P) for every s in S}, over Q."""
    red, pivcols = _rref([[Fraction(v) for v in r] for r in P])
    free = [t for t in range(L.dim) if t not in pivcols]
    conditions = []
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


def rational_upper_central_series(L):
    basis = full_module(L.dim).rows
    chain = [zero_module(L.dim)]
    while chain[-1].dim < L.dim:
        nxt = rational_annihilator(L, basis, chain[-1].rows)
        if nxt.rows == chain[-1].rows:
            raise ValidationError("upper central series stalls: not nilpotent")
        chain.append(nxt)
    return chain


def rational_centralizer(L, S):
    return rational_annihilator(L, S.rows, ())


def rational_second_centre_centralizer(L):
    chain = rational_upper_central_series(L)
    return rational_centralizer(L, chain[min(2, len(chain) - 1)])


def rational_centraliser_compat(L, exponents):
    U = L.rescaled(exponents)
    inner = rational_second_centre_centralizer(U)
    pw = [Fraction(L.p) ** e for e in exponents]
    inner_ambient = _canonical_rows(
        [[Fraction(r[i]) * pw[i] for i in range(L.dim)] for r in inner.rows]
    )
    return inner_ambient == rational_second_centre_centralizer(L).rows
