"""Echelon linear algebra over the chain ring Z/p^N.

Submodules of (Z/p^N)^m are represented by Howell canonical forms:
valuation-pivoted echelon rows, pivots normalized to powers of p, entries
above a pivot reduced modulo the pivot, plus the closure rows that make
membership decidable by reduction.  The Howell form of a span is unique,
so equality of submodules is array equality.

`howell` eliminates column by column and touches only live entries: after
taking a pivot it updates the remaining rows whose entry in the pivot
column is non-zero, and only the columns from the pivot on, since
everything to the left is already zero.  The back-reduction above each
pivot is restricted the same way.  `reduce_rows` reduces a whole batch of
vectors against a Howell basis with one vectorised step per pivot;
`member` is a batch of one.

All arithmetic is int64 and forms one product of two residues before each
reduction, so the modulus must satisfy p^N <= isqrt(2^63 - 1).
`_check_modulus` enforces that bound for every entry point and raises
`BudgetError` above it.
"""

from __future__ import annotations

from math import isqrt
from typing import List, Tuple

import numpy as np

from .errors import BudgetError

# Products of two residues modulo any q <= MAX_MODULUS fit in int64.
MAX_MODULUS = isqrt(2**63 - 1)


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
    m = mat.shape[1]
    A = np.mod(np.asarray(mat, dtype=np.int64), q)
    A = A[np.any(A, axis=1)]
    # A[:n] holds the live rows.  A pivot step retires one row and adds at
    # most one closure row, so the buffer never grows.
    n = A.shape[0]
    result: List[Tuple[int, int, np.ndarray]] = []  # (pivot col, pivot val, row)

    # Invariant: columns left of ``col`` are zero in A[:n].  Rows become
    # zero only through an update, so ``exhausted`` says whether a drop of
    # zero rows would find any.
    exhausted = False
    for col in range(m):
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

    if not result:
        return np.zeros((0, m), dtype=np.int64)
    rows = np.array([row for _, _, row in result], dtype=np.int64)
    # Reduce entries above each pivot modulo the pivot value.
    for j in range(1, len(result)):
        col, e, _ = result[j]
        factors = rows[:j, col] // p**e
        nz = factors.nonzero()[0]
        if nz.size:
            block = rows[nz, col:]
            block -= factors[nz, None] * rows[j, None, col:]
            np.mod(block, q, out=block)
            rows[nz, col:] = block
    return rows


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
