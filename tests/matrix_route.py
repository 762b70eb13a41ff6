"""The matrix route to the group law, kept as the tests' reference.

These are the scalar implementations the package used before its group
law moved to batched solves and index arrays: tuple-matrix arithmetic,
exp/log, the Neumann-series inverse, p^m-th roots, the chart's structure
constants, conjugation images, the one-element iterative coordinate solve,
and phi(g^beta) as the product of exp(b_i log phi(g_i)).  They share no
arithmetic with the package beyond the chart's basis and its echelon
pivots, so agreement is a differential check of the batched route.
"""

from iwasawa_kernel.errors import PrecisionError


def _identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _add(a, b, q):
    return tuple(tuple((x + y) % q for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _scale(a, c, q):
    return tuple(tuple((c * x) % q for x in r) for r in a)


def _mul(a, b, q):
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(ra, cb)) % q for cb in bt) for ra in a
    )


def _vp_int(a, p, N):
    a %= p**N
    if a == 0:
        return N
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    return v


def _unit_part_inverse(k, p, q):
    v = 0
    while k % p == 0:
        k //= p
        v += 1
    return p**v, pow(k, -1, q)


def _div_exact(a, k, p, q):
    pv, uinv = _unit_part_inverse(k, p, q)
    out = []
    for r in a:
        row = []
        for x in r:
            x %= q
            if x % pv:
                raise PrecisionError("inexact division by a power of p")
            row.append((x // pv) * uinv % q)
        out.append(tuple(row))
    return tuple(out)


def _factorial(k):
    out = 1
    for j in range(2, k + 1):
        out *= j
    return out


def exp(chart, x):
    q = chart.modulus
    out = term = _identity(len(x))
    for k in range(1, len(x)):
        term = _mul(term, x, q * chart.modulus)
        out = _add(out, _div_exact(term, _factorial(k), chart.p, q), q)
    return out


def log(chart, g):
    q = chart.modulus
    m = _add(g, _scale(_identity(len(g)), -1, q), q)
    out = tuple((0,) * len(g) for _ in g)
    term = _identity(len(g))
    for k in range(1, len(g)):
        term = _mul(term, m, q)
        signed = term if k % 2 == 1 else _scale(term, -1, q)
        out = _add(out, _div_exact(signed, k, chart.p, q), q)
    return out


def inverse(chart, g):
    q = chart.modulus
    m = _add(g, _scale(_identity(len(g)), -1, q), q)
    out = term = _identity(len(g))
    for _ in range(1, len(g)):
        term = _scale(_mul(term, m, q), -1, q)
        out = _add(out, term, q)
    return out


def root(chart, g, m):
    """The p^m-th root of g, when log g is divisible by p^m."""
    x = log(chart, g)
    pm = chart.p**m
    if any(v % chart.modulus and v % pm for r in x for v in r):
        raise PrecisionError(f"log g not divisible by p^{m}: no root at precision")
    y = tuple(tuple((v % chart.modulus) // pm for v in r) for r in x)
    solve_lattice(chart, y, tol=m + 3)
    return exp(chart, y)


def structure_triples(chart):
    """(i, j, k, c) with [x_i, x_j] = sum_k c x_k for i < j, c a residue
    modulo p^(work_prec - max pivot valuation), the precision the solve
    fixes it to, signed against half that modulus, as
    `structure_presentation` reads them."""
    q = chart.modulus
    known = chart.p ** (chart.work_prec - max(e for (_, e), _, _ in chart._echelon))
    out = []
    for i in range(chart.dim):
        for j in range(i + 1, chart.dim):
            comm = _add(
                _mul(chart.basis[i], chart.basis[j], q),
                _scale(_mul(chart.basis[j], chart.basis[i], q), -1, q),
                q,
            )
            for k, c in enumerate(solve_lattice(chart, comm)):
                c %= known
                if c:
                    out.append((i + 1, j + 1, k + 1, c - known if c > known // 2 else c))
    return out


def conjugation_images(chart, g):
    """g g_i g^-1 for each generator g_i."""
    q = chart.modulus
    ginv = inverse(chart, g)
    units = [tuple(int(k == i) for k in range(chart.dim)) for i in range(chart.dim)]
    return tuple(_mul(_mul(g, word(chart, e), q), ginv, q) for e in units)


def word(chart, beta):
    q = chart.modulus
    g = _identity(chart.mat_size)
    for x, b in zip(chart.basis, beta):
        if b % q:
            g = _mul(g, exp(chart, _scale(x, b % q, q)), q)
    return g


def solve_lattice(chart, target, tol=0):
    echelon = chart._echelon
    p, q = chart.p, chart.modulus
    t = [v % q for r in target for v in r]
    lam = [0] * chart.dim
    for (col, e), row, tr in echelon:
        c = t[col]
        if c == 0:
            continue
        if _vp_int(c, p, chart.work_prec) < e:
            raise PrecisionError("target outside chart lattice")
        f = c // p**e
        t = [(a - f * int(b)) % q for a, b in zip(t, row)]
        lam = [(a + f * int(b)) % q for a, b in zip(lam, tr)]
    cutoff = p ** max(chart.work_prec - tol, 1)
    if any(v % cutoff for v in t):
        raise PrecisionError("target outside chart lattice")
    return lam


def coordinates(chart, g, prec):
    """Exponents (b_1..b_d) with g = g_1^{b_1} ... g_d^{b_d} mod p^prec, one
    log/solve step at a time."""
    p = chart.p
    max_e = chart.max_pivot_val
    noise = 3
    stop_val = prec + max_e + 1
    if prec < 1 or stop_val + noise > chart.work_prec:
        raise PrecisionError("working precision too small for coordinates")
    beta = [0] * chart.dim
    last_wt = -1
    for _ in range(stop_val + chart.mat_size + 2):
        x = log(chart, _mul(inverse(chart, word(chart, beta)), g, chart.modulus))
        vals = [_vp_int(v, p, chart.work_prec) for r in x for v in r if v % chart.modulus]
        wt = min(vals) if vals else chart.work_prec
        if wt >= stop_val:
            break
        if wt <= last_wt:
            raise PrecisionError("coordinate iteration failed to converge")
        last_wt = wt
        for i, lam in enumerate(solve_lattice(chart, x, tol=noise)):
            beta[i] += lam
    else:
        raise PrecisionError("coordinate iteration failed to converge")
    out = tuple(b % p**prec for b in beta)
    check = word(chart, out)
    if any((a - b) % p**prec for ra, rb in zip(check, g) for a, b in zip(ra, rb)):
        raise PrecisionError("coordinate verification failed at precision")
    return out


def index_of_matrix(Q, g):
    return Q.index(coordinates(Q.chart, g, Q.n))


def matrix(Q, idx):
    return word(Q.chart, Q.coords_array([idx])[0].tolist())


def apply_matrix(phi, beta):
    """phi(g^beta) as a matrix: the product of exp(b_i log phi(g_i))."""
    chart = phi.chart
    q = chart.modulus
    out = _identity(chart.mat_size)
    for img, b in zip(phi.images, beta):
        if b % q:
            x = log(chart, img)
            out = _mul(out, exp(chart, tuple(tuple(v * (b % q) % q for v in r) for r in x)), q)
    return out


def mult(Q, a, b):
    return index_of_matrix(Q, _mul(matrix(Q, a), matrix(Q, b), Q.chart.modulus))


def inv(Q, a):
    return index_of_matrix(Q, inverse(Q.chart, matrix(Q, a)))


def apply_index(phi, Q, idx):
    return index_of_matrix(Q, apply_matrix(phi, Q.coords_array([idx])[0].tolist()))
