"""Echelon linear algebra over the chain ring Z/p^N.

Submodules of (Z/p^N)^m are represented by Howell canonical forms:
valuation-pivoted echelon rows, pivots normalized to powers of p, entries
above a pivot reduced modulo the pivot, plus the closure rows that make
membership decidable by reduction.  The Howell form of a span is unique,
so equality of submodules is array equality, whichever kernel built it.

`howell` has two kernels, each with a forward elimination and a
back-substitution above the pivots:

- the sparse kernel holds each live row as a column->residue dict and
  takes the next pivot column from a heap of the rows' leading columns, so
  its cost follows the non-zeros it touches;
- the dense loop works on an int64 array and touches only live entries:
  the remaining rows with a non-zero entry in the pivot column, and only
  the columns from the pivot on.

The fill rule picks between them from what it sees: a part of the work
goes to the dense loop when its non-zeros exceed `DENSE_FILL` (1/16) of
its rows' cells.  The input picks the forward kernel; a sparse forward
elimination hands its live rows to the dense loop once they fill in; the
forward result picks the back-substitution, and a sparse one that fills
in hands its rows over as well.  `reduce_rows` reduces a whole batch of
vectors against a Howell basis with one vectorised step per pivot;
`member` is a batch of one.

The dense loop and `reduce_rows` form one int64 product of two residues
before each reduction, and every kernel returns int64 arrays, so the
modulus must satisfy p^N <= isqrt(2^63 - 1).  `_check_modulus` enforces
that bound for every entry point and raises `BudgetError` above it.
"""

from __future__ import annotations

import heapq
from itertools import chain
from math import isqrt
from typing import Dict, List, Tuple

import numpy as np

from .errors import BudgetError

# Products of two residues modulo any q <= MAX_MODULUS fit in int64.
MAX_MODULUS = isqrt(2**63 - 1)

# Share of the cells of the rows at hand above which their non-zeros are work
# for the dense loop; measured on the control inputs and on random sparse
# and filling matrices (see `howell`).
DENSE_FILL = 1 / 16


def vp_int(a: int, p: int, N: int) -> int:
    """Valuation of a residue mod p^N, capped at N for zero."""
    a %= p**N
    if a == 0:
        return N
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    return v


def _unit_inv(a: int, p: int, N: int) -> Tuple[int, int]:
    """Split a nonzero residue as p^e * u and return (e, u^-1 mod p^N)."""
    q = p**N
    a %= q
    e = vp_int(a, p, N)
    u = a // p**e
    return e, pow(u, -1, q)


def _col_vals(col: np.ndarray, p: int, N: int) -> np.ndarray:
    """Vectorized valuations of a residue column (N for zeros)."""
    v = np.full(col.shape, N, dtype=np.int64)
    cur = col.copy()
    alive = cur != 0
    v[alive] = 0
    while True:
        alive = alive & (cur % p == 0) & (cur != 0)
        if not alive.any():
            break
        cur = np.where(alive, cur // p, cur)
        v[alive] += 1
    return v


def _check_modulus(p: int, N: int) -> int:
    """p^N, or BudgetError when int64 products of two residues could wrap."""
    q = p**N
    if q > MAX_MODULUS:
        raise BudgetError(
            f"coefficient modulus {p}^{N} exceeds {MAX_MODULUS}, "
            "the largest whose residue products fit in int64"
        )
    return q


def howell(mat: np.ndarray, p: int, N: int) -> np.ndarray:
    """Howell canonical form of the row span of ``mat`` over Z/p^N."""
    q = _check_modulus(p, N)
    A = np.asarray(mat, dtype=np.int64)
    m = A.shape[1]
    # row, column and residue of each non-zero entry, in row-major order
    r, c = np.divmod(np.flatnonzero(A != 0), m)
    vals = A[r, c] % q
    keep = vals != 0
    r, c, vals = r[keep], c[keep], vals[keep]
    if not vals.size:
        return np.zeros((0, m), dtype=np.int64)
    if _filled(vals.size, (np.count_nonzero(np.diff(r)) + 1) * m):
        A = np.mod(A, q)
        result = _dense_forward(A[np.any(A, axis=1)], 0, p, N)
    else:
        result, rest, col = _sparse_forward(r, c, vals, m, p, N)
        if rest is not None:
            result += _dense_forward(rest, col, p, N)
    # dict rows, then array rows from the dense loop
    piv = [(col, e) for col, e, _ in result]
    rows = [row for _, _, row in result]
    k = sum(isinstance(row, dict) for row in rows)
    nnz = sum(map(len, rows[:k])) + sum(map(np.count_nonzero, rows[k:]))
    if _filled(nnz, len(rows) * m):
        return _dense_back(np.vstack([_stack(rows[:k], m), *rows[k:]]), piv, p, N)
    for i in range(k, len(rows)):
        cols = rows[i].nonzero()[0]
        rows[i] = dict(zip(cols.tolist(), rows[i][cols].tolist()))
    return _sparse_back(rows, piv, m, p, N)


def _filled(nnz: int, cells: int) -> bool:
    """Whether ``nnz`` non-zeros in rows of ``cells`` cells are work for the
    dense loop rather than the sparse kernel."""
    return nnz > DENSE_FILL * cells


def _stack(rows: List[dict], m: int) -> np.ndarray:
    """Column->residue dict rows as one (r, m) array."""
    out = np.zeros((len(rows), m), dtype=np.int64)
    at = np.repeat(np.arange(len(rows)), [len(row) for row in rows])
    cols = np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=at.size)
    vals = chain.from_iterable(row.values() for row in rows)
    out[at, cols] = np.fromiter(vals, dtype=np.int64, count=at.size)
    return out


def _sparse_forward(
    row_idx: np.ndarray, col_idx: np.ndarray, vals: np.ndarray, m: int, p: int, N: int
):
    """Forward elimination on column->residue dicts.

    The input is the row, column and residue mod p^N of every non-zero
    entry of an array with ``m`` columns, in row-major order.  Live rows
    wait in buckets keyed by their leading column, and a heap of those
    columns gives the next pivot column, so a column without a lead costs
    nothing and a step touches only the non-zeros of the pivot row in the
    rows that share its lead.  Returns ``(result, rest, col)``: the (pivot
    col, valuation, dict row) triples, and either ``None`` or the live rows
    as an array with the column to resume from, once their non-zeros pass
    `DENSE_FILL` of their cells.
    """
    q = p**N
    bounds = [0, *(np.flatnonzero(np.diff(row_idx)) + 1).tolist(), row_idx.size]
    cols, vals = col_idx.tolist(), vals.tolist()
    buckets: Dict[int, List[dict]] = {}
    for lo, hi in zip(bounds, bounds[1:]):
        buckets.setdefault(cols[lo], []).append(dict(zip(cols[lo:hi], vals[lo:hi])))
    heap = list(buckets)
    heapq.heapify(heap)
    live, nnz = len(bounds) - 1, row_idx.size
    result: List[Tuple[int, int, dict]] = []

    def add(row: dict) -> None:
        lead = min(row)
        bucket = buckets.get(lead)
        if bucket is None:
            buckets[lead] = [row]
            heapq.heappush(heap, lead)
        else:
            bucket.append(row)

    while heap:
        col = heapq.heappop(heap)
        group = buckets.pop(col)
        # the shortest row of least valuation, which limits fill
        if len(group) > 1:
            units = [i for i, row in enumerate(group) if row[col] % p]
            if units:
                k = min(units, key=lambda i: len(group[i]))
            else:
                k = min(range(len(group)),
                        key=lambda i: (vp_int(group[i][col], p, N), len(group[i])))
            group[0], group[k] = group[k], group[0]
        pivot = group[0]
        e = 0
        if pivot[col] != 1:
            e, uinv = _unit_inv(pivot[col], p, N)
            if uinv != 1:
                pivot = {c: v * uinv % q for c, v in pivot.items()}
        result.append((col, e, pivot))
        live -= 1
        nnz -= len(pivot)
        if len(group) == 1 and not e:
            continue
        pe = p**e
        tail = [(c, v) for c, v in pivot.items() if c != col]
        for row in group[1:]:
            f = row.pop(col) // pe
            before = len(row)
            for c, v in tail:
                x = (row.get(c, 0) - f * v) % q
                if x:
                    row[c] = x
                elif c in row:
                    del row[c]
            nnz += len(row) - before - 1
            if row:
                add(row)
            else:
                live -= 1
        if e:
            s = q // pe
            extra = {c: x for c, v in tail if (x := v * s % q)}
            if extra:
                live += 1
                nnz += len(extra)
                add(extra)
        if _filled(nnz, live * m):
            rest = [row for bucket in buckets.values() for row in bucket]
            return result, _stack(rest, m), col + 1
    return result, None, m


def _dense_forward(A: np.ndarray, start: int, p: int, N: int) -> list:
    """Forward elimination of the array ``A`` from column ``start`` on;
    (pivot col, valuation, row) triples.

    It touches only live entries: after taking a pivot it updates the
    remaining rows whose entry in the pivot column is non-zero, and only
    the columns from the pivot on, since everything to the left is zero.
    """
    q = p**N
    m = A.shape[1]
    # A[:n] holds the live rows.  A pivot step retires one row and adds at
    # most one closure row, so the buffer never grows.
    n = A.shape[0]
    result: List[Tuple[int, int, np.ndarray]] = []

    # Invariant: columns left of ``col`` are zero in A[:n].  Rows become
    # zero only through an update, so ``exhausted`` says whether a drop of
    # zero rows would find any.
    exhausted = False
    for col in range(start, m):
        if n == 0:
            break
        nz = A[:n, col].nonzero()[0]
        if nz.size == 0:
            continue
        colv = A[nz, col]
        units = colv % p != 0
        if units.any():
            k, e = int(np.argmax(units)), 0
        else:
            vals = _col_vals(colv, p, N)
            k = int(np.argmin(vals))
            e = int(vals[k])
        best = int(nz[k])
        pivot = A[best].copy()
        # the last live row moves into the pivot's slot; nz follows it
        n -= 1
        A[best] = A[n]
        if nz[-1] == n:
            nz = nz[:-1]
        else:
            nz = np.concatenate((nz[:k], nz[k + 1 :]))
        _, uinv = _unit_inv(int(pivot[col]), p, N)
        pivot[col:] = (pivot[col:] * uinv) % q
        pe = p**e
        if nz.size:
            factors = A[nz, col] // pe
            block = A[nz, col:]
            block -= factors[:, None] * pivot[None, col:]
            np.mod(block, q, out=block)
            A[nz, col:] = block
            exhausted = exhausted or not block.any(axis=1).all()
        # Dropping exhausted rows is O(rows * m); do it sparingly.
        if exhausted and n and col % 8 == 7:
            keep = np.any(A[:n, col + 1 :], axis=1)
            kept = int(np.count_nonzero(keep))
            A[:kept] = A[:n][keep]
            n = kept
            exhausted = False
        result.append((col, e, pivot))
        if e > 0:
            extra = (pivot * (q // pe)) % q
            if extra.any():
                A[n] = extra
                n += 1
    return result


def _dense_back(rows: np.ndarray, piv: List[Tuple[int, int]], p: int, N: int) -> np.ndarray:
    """Reduce the entries above each pivot of ``rows`` modulo the pivot,
    touching only rows with a non-zero factor and the trailing columns;
    ``piv`` holds each row's (pivot col, valuation)."""
    q = p**N
    for j in range(1, len(piv)):
        col, e = piv[j]
        factors = rows[:j, col] // p**e
        nz = factors.nonzero()[0]
        if nz.size:
            block = rows[nz, col:]
            block -= factors[nz, None] * rows[j, None, col:]
            np.mod(block, q, out=block)
            rows[nz, col:] = block
    return rows


def _sparse_back(
    rows: List[dict], piv: List[Tuple[int, int]], m: int, p: int, N: int
) -> np.ndarray:
    """Reduce the entries above each pivot of the dict ``rows``, whose
    (pivot col, valuation) pairs are ``piv``.

    Rows are finished from the bottom up, each against the finished rows
    below it, visiting only its own entries in pivot columns (a heap, since
    a reduction can add entries to the right).  Once the rows' non-zeros
    pass `DENSE_FILL` of the (r, m) result the rest goes to `_dense_back`,
    which leaves the finished rows as they are.
    """
    q = p**N
    at = {col: (j, p**e) for j, (col, e) in enumerate(piv)}
    nnz = sum(map(len, rows))
    for i in range(len(rows) - 1, -1, -1):
        row, lead = rows[i], piv[i][0]
        todo = [c for c in row if c in at and c != lead]
        if not todo:
            continue
        before = len(row)
        heapq.heapify(todo)
        while todo:
            c = heapq.heappop(todo)
            j, pe = at[c]
            f = row.get(c, 0) // pe
            if not f:
                continue
            for cc, v in rows[j].items():
                x = (row.get(cc, 0) - f * v) % q
                if x:
                    if cc not in row and cc in at:
                        heapq.heappush(todo, cc)
                    row[cc] = x
                elif cc in row:
                    del row[cc]
        nnz += len(row) - before
        if i and _filled(nnz, len(rows) * m):
            return _dense_back(_stack(rows, m), piv, p, N)
    return _stack(rows, m)


def pivots(rows: np.ndarray, p: int, N: int) -> List[Tuple[int, int]]:
    """(column, valuation) of each Howell row's pivot."""
    if rows.shape[0] == 0:
        return []
    cols = np.argmax(rows != 0, axis=1)
    vals = _col_vals(rows[np.arange(rows.shape[0]), cols], p, N)
    return list(zip(cols.tolist(), vals.tolist()))


def reduce_rows(rows: np.ndarray, vecs: np.ndarray, p: int, N: int) -> np.ndarray:
    """Remainders of the (k, m) batch ``vecs`` after reduction against
    Howell ``rows``; one vectorised step per pivot, over the live rows."""
    q = _check_modulus(p, N)
    V = np.mod(np.asarray(vecs, dtype=np.int64), q)
    for (col, e), row in zip(pivots(rows, p, N), rows):
        nz = V[:, col].nonzero()[0]
        if nz.size:
            factors = V[nz, col] // p**e
            block = V[nz, col:]
            block -= factors[:, None] * row[None, col:]
            np.mod(block, q, out=block)
            V[nz, col:] = block
    return V


def member(rows: np.ndarray, vec: np.ndarray, p: int, N: int) -> bool:
    return not reduce_rows(rows, np.asarray(vec)[None, :], p, N).any()


def span_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and bool(np.array_equal(a, b))


def rank_log(rows: np.ndarray, p: int, N: int) -> int:
    """log_p of the cardinality of the spanned module."""
    return sum(N - e for _, e in pivots(rows, p, N))
