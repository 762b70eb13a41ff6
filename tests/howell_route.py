"""The full-matrix route to Howell forms and membership, kept as the
tests' reference.

These are the implementations the package used before its elimination
started touching only live entries: `howell` rewrites the whole remaining
matrix at every pivot column, `reduce_vector` reduces one vector with a
Python loop over the pivots, `is_faithful` tests each g - 1 on its own,
and `j_ideal_rank` reduces each centre vector before stacking it on I.
Passing ``dtype=object`` runs `howell` on Python ints, which is the
oracle above the package's int64 modulus bound.  `ideal_closure` builds
its stacks of translates with one `_apply_perm` call per permutation and
`np.vstack`, as the package did before it indexed them in one step.

The dense array routes the package used before its bases became sparse
rows are kept too: `reduce_rows_dense` reduces a whole (k, m) batch with
one vectorised step per pivot (`remainders` reads the package's blocks of
remainders for comparison), `is_faithful_chunked` reduces the g - 1 in
dense batches of ``step`` vectors and stops at the first zero remainder,
and `j_ideal_rank_stacked` stacks the centre's unit vectors on I and
echelons the stack.
"""

import numpy as np

from iwasawa_kernel import linalg
from iwasawa_kernel.algebra import AlgebraElement, SubmoduleBasis
from iwasawa_kernel.control import centre_indices
from iwasawa_kernel.linalg import Rows, rank_log
from iwasawa_kernel.padic import vp_int
from stages import to_vector


def _unit_inv(a, p, N):
    q = p**N
    a %= q
    e = vp_int(a, p, N)
    return e, pow(a // p**e, -1, q)


def _col_vals(col, p, N):
    return np.array([vp_int(int(a), p, N) for a in col], dtype=np.int64)


def howell(mat, p, N, dtype=np.int64):
    q = p**N
    m = mat.shape[1]
    A = np.mod(np.asarray(mat, dtype=dtype), q)
    A = A[np.any(A != 0, axis=1)]
    result = []  # (pivot col, pivot val, row)

    for col in range(m):
        if A.shape[0] == 0:
            break
        colv = A[:, col] % q
        nz = np.nonzero(colv)[0]
        if nz.size == 0:
            continue
        vals = _col_vals(colv[nz], p, N)
        best = int(nz[int(np.argmin(vals))])
        e = int(vals[int(np.argmin(vals))])
        pivot = A[best].copy()
        A[best] = A[-1]
        A = A[:-1]
        _, uinv = _unit_inv(int(pivot[col]), p, N)
        pivot = (pivot * uinv) % q
        pe = p**e
        if A.shape[0]:
            factors = (A[:, col] % q) // pe
            if factors.any():
                A = (A - factors[:, None] * pivot[None, :]) % q
            if col % 8 == 7:
                A = A[np.any(A != 0, axis=1)]
        result.append((col, e, pivot))
        if e > 0:
            extra = (pivot * (q // pe)) % q
            if extra.any():
                A = np.vstack([A, extra[None, :]]) if A.shape[0] else extra[None, :]

    if not result:
        return np.zeros((0, m), dtype=dtype)
    rows = np.array([row for _, _, row in result], dtype=dtype)
    for j in range(1, len(result)):
        col, e, _ = result[j]
        pe = p**e
        factors = rows[:j, col] // pe
        if factors.any():
            rows[:j] = (rows[:j] - factors[:, None] * rows[j][None, :]) % q
    return rows


def _pivots(rows, p, N):
    out = []
    for r in rows:
        col = int(np.nonzero(r)[0][0])
        out.append((col, vp_int(int(r[col]), p, N)))
    return out


def reduce_vector(rows, vec, p, N):
    q = p**N
    v = np.mod(np.asarray(vec, dtype=np.int64), q)
    for (col, e), row in zip(_pivots(rows, p, N), rows):
        c = int(v[col])
        if c:
            v = (v - (c // p**e) * row) % q
    return v


def is_faithful(I):
    Q = I.quotient
    one = AlgebraElement.one(Q)
    rows = I.rows.toarray()
    for g in range(1, Q.size):
        vec = to_vector(AlgebraElement.group_element(Q, g) - one)
        if not reduce_vector(rows, vec, Q.p, Q.N).any():
            return False
    return True


def j_ideal_rank(I):
    Q = I.quotient
    p, N = Q.p, Q.N
    rows = I.rows.toarray()
    vecs = []
    for h in centre_indices(Q):
        v = np.zeros(Q.size, dtype=np.int64)
        v[h] = 1
        vecs.append(reduce_vector(rows, v, p, N) if rows.shape[0] else v)
    mat = np.array(vecs, dtype=np.int64)
    stacked = np.vstack([mat, rows]) if rows.shape[0] else mat
    total = rank_log(Rows.from_array(howell(stacked, p, N)), p, N)
    return total - rank_log(I.rows, p, N)


def reduce_rows_dense(rows, vecs, p, N):
    q = p**N
    rows = np.asarray(rows, dtype=np.int64)
    V = np.mod(np.asarray(vecs, dtype=np.int64), q)
    for (col, e), row in zip(_pivots(rows, p, N), rows):
        nz = V[:, col].nonzero()[0]
        if nz.size:
            factors = V[nz, col] // p**e
            block = V[nz, col:]
            block -= factors[:, None] * row[None, col:]
            np.mod(block, q, out=block)
            V[nz, col:] = block
    return V


def remainders(rows, vecs, p, N):
    """The remainders of the batch ``vecs`` (a `Rows`) against Howell
    ``rows``, as one array stacked from the blocks of `linalg._reduced`."""
    blocks = [rem.toarray() for rem in linalg._reduced(rows, vecs, p, N)]
    return np.vstack([np.zeros((0, vecs.m), dtype=np.int64), *blocks])


def is_faithful_chunked(I, step):
    Q = I.quotient
    rows = I.rows.toarray()
    for lo in range(1, Q.size, step):
        g = np.arange(lo, min(lo + step, Q.size))
        vecs = np.zeros((g.size, Q.size), dtype=np.int64)
        vecs[np.arange(g.size), g] = 1
        vecs[:, 0] = -1
        rems = reduce_rows_dense(rows, vecs, Q.p, Q.N)
        if not np.all(np.any(rems, axis=1)):
            return False
    return True


def j_ideal_rank_stacked(I):
    Q = I.quotient
    p, N = Q.p, Q.N
    centre = centre_indices(Q)
    units = np.zeros((len(centre), Q.size), dtype=np.int64)
    units[np.arange(len(centre)), centre] = 1
    total = rank_log(linalg.howell(np.vstack([units, I.rows.toarray()]), p, N), p, N)
    return total - rank_log(I.rows, p, N)


def _apply_perm(rows, perm):
    out = np.zeros_like(rows)
    out[:, perm] = rows
    return out


def ideal_closure(gens, side, Q):
    p, N = Q.p, Q.N
    mat = np.array([to_vector(g) for g in gens if not g.is_zero()], dtype=np.int64)
    rows = linalg.howell(np.vstack([_apply_perm(mat, perm) for perm in Q.mult_table().T]), p, N)
    if side == "two-sided":
        lperms = [Q.mult_array(Q.generator(i), np.arange(Q.size)) for i in range(Q.dim)]
        while True:
            dense = rows.toarray()
            new = [dense] + [_apply_perm(dense, perm) for perm in lperms]
            nxt = linalg.howell(np.vstack(new), p, N)
            if linalg.span_equal(nxt, rows):
                break
            rows = nxt
    return SubmoduleBasis(Q, rows)
