"""Echelon linear algebra over the chain ring Z/p^N.

Submodules of (Z/p^N)^m are represented by Howell canonical forms:
valuation-pivoted echelon rows, pivots normalized to powers of p, entries
above a pivot reduced modulo the pivot, plus the closure rows that make
membership decidable by reduction.  The Howell form of a span is unique,
so equality of submodules is equality of its rows, whichever kernel built
it.

Bases travel between layers as `Rows`: compressed sparse rows (CSR), the
residues of each row with their sorted columns and no stored zero.
`howell` takes an array or `Rows` and returns `Rows`.  It has two kernels,
each with a forward elimination and a back-substitution above the pivots:

- the sparse kernel holds each live row as a column->residue dict and
  takes the next pivot column from a heap of the rows' leading columns, so
  its cost follows the non-zeros it touches;
- the dense loop works on an int64 array and touches only live entries:
  the remaining rows with a non-zero entry in the pivot column, and only
  the columns from the pivot on.

The fill rule picks between them from what it sees: a part of the work
goes to the dense loop when its non-zeros exceed `DENSE_FILL` (1/16) of
its rows' cells.  The input picks the forward kernel, and a sparse forward
elimination hands its live rows to the dense loop once they fill in; the
forward result picks the back-substitution, which runs in that kernel to
the end.  `span_rank_log` runs the forward elimination alone: with the
closure row of each pivot p^e, e > 0, its rows are a weak Howell form
(Storjohann, thesis 2000), whose pivots give the log-cardinality of the
span exactly as `rank_log` reads it off the Howell form.

`projection_rank_log` ranks the projection of a Howell form onto a column
set S.  Its precondition is that the form is reduced, as `howell` returns
it: then a unit pivot is the only non-zero of its column, since entries
below it are zero by echelon and those above are reduced modulo 1.  If S
keeps the column c of such a pivot, x -> x_c maps the projected span onto
Z/p^N with the projected span of the other rows as its kernel, so

    log_p |pi_S(span)| = N * #(unit pivots in S) + log_p |pi_S(span of the rest)|,

the column-singleton step of structured Gaussian elimination (LaMacchia
and Odlyzko, CRYPTO 1990).  Only the rest, the non-unit pivots and closure
rows among them, goes through the forward elimination.

`in_span` tests a batch of vectors for membership in the span of a Howell
basis under the same fill rule: each vector is reduced by following its
non-zeros through the loop the sparse back-substitution uses, or,
against a filled basis, with one vectorised step per pivot.  The batch is
reduced in blocks of at most `_BLOCK_BYTES` as an array, and only one
block of remainders is held at a time.

The dense steps share one row update, `_eliminate`, which forms an int64
product of two residues before each reduction, and every kernel holds
int64 residues, so the modulus must satisfy p^N <= isqrt(2^63 - 1).
`_check_modulus` enforces that bound for every entry point and raises
`BudgetError` above it.  Pivot valuations (`padic.vp_int`, and
`padic.vp_array` for a column or the pivots of a basis) and the unit
inverse that normalizes a pivot to a power of p (`padic.unit_split`) come
from `padic`, as in every other layer.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import chain
from math import isqrt
from typing import Dict, Iterator, List, Tuple, Union

import numpy as np

from .errors import BudgetError
from .padic import unit_split, vp_array, vp_int

# Products of two residues modulo any q <= MAX_MODULUS fit in int64.
MAX_MODULUS = isqrt(2**63 - 1)

# Share of the cells of the rows at hand above which their non-zeros are work
# for the dense loop; measured on the control inputs and on random sparse
# and filling matrices (see `howell`).
DENSE_FILL = 1 / 16

# Batches are reduced in blocks of vectors taking at most this many bytes as
# an int64 array, so a long batch (such as the vectors g - 1 of the elements
# of order p in `is_faithful`) holds a bounded working set whatever |Q| is.
_BLOCK_BYTES = 8 << 20


@dataclass(frozen=True, eq=False)
class Rows:
    """An (r, m) matrix over Z/p^N as compressed sparse rows.

    Row i holds the residues ``data[indptr[i]:indptr[i + 1]]`` at the
    columns ``indices[indptr[i]:indptr[i + 1]]``, sorted within the row;
    no stored entry is zero, so a zero row is an empty one.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    m: int

    @property
    def shape(self) -> Tuple[int, int]:
        return self.indptr.size - 1, self.m

    @property
    def nnz(self) -> int:
        return self.data.size

    @staticmethod
    def from_array(A) -> "Rows":
        A = np.asarray(A, dtype=np.int64)
        r, c = np.nonzero(A)
        indptr = np.zeros(A.shape[0] + 1, dtype=np.int64)
        np.cumsum(np.count_nonzero(A, axis=1), out=indptr[1:])
        return Rows(indptr, c, A[r, c], A.shape[1])

    @staticmethod
    def from_entries(row: np.ndarray, col: np.ndarray, val: np.ndarray, shape) -> "Rows":
        """The (r, m) matrix with non-zero entries val[k] at (row[k], col[k]),
        in any order."""
        order = np.lexsort((col, row))
        indptr = np.zeros(shape[0] + 1, dtype=np.int64)
        np.cumsum(np.bincount(row, minlength=shape[0]), out=indptr[1:])
        return Rows(indptr, col[order], val[order], shape[1])

    @staticmethod
    def from_dicts(rows: List[dict], m: int) -> "Rows":
        """Column->residue dict rows (without zeros) as `Rows`."""
        at = np.repeat(np.arange(len(rows)), [len(row) for row in rows])
        cols = np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=at.size)
        vals = chain.from_iterable(row.values() for row in rows)
        vals = np.fromiter(vals, dtype=np.int64, count=at.size)
        return Rows.from_entries(at, cols, vals, (len(rows), m))

    def row_ids(self) -> np.ndarray:
        """The row of each stored entry."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=np.int64)
        out[self.row_ids(), self.indices] = self.data
        return out

    def dicts(self) -> List[dict]:
        """Each row as a column->residue dict."""
        ptr, cols, vals = self.indptr.tolist(), self.indices.tolist(), self.data.tolist()
        return [dict(zip(cols[a:b], vals[a:b])) for a, b in zip(ptr, ptr[1:])]

    def block(self, lo: int, hi: int) -> "Rows":
        """Rows lo to hi - 1."""
        hi = min(hi, self.shape[0])
        a, b = int(self.indptr[lo]), int(self.indptr[hi])
        return Rows(self.indptr[lo : hi + 1] - a, self.indices[a:b], self.data[a:b], self.m)

    def take(self, keep: np.ndarray) -> "Rows":
        """The rows where the boolean ``keep`` holds."""
        counts = np.diff(self.indptr)
        sel = np.repeat(keep, counts)
        indptr = np.zeros(int(np.count_nonzero(keep)) + 1, dtype=np.int64)
        np.cumsum(counts[keep], out=indptr[1:])
        return Rows(indptr, self.indices[sel], self.data[sel], self.m)

    def relabel(self, new: np.ndarray, m: int) -> "Rows":
        """The entries of column c moved to column new[c] of an m-column
        matrix; those with new[c] < 0 are dropped."""
        cols = new[self.indices]
        keep = cols >= 0
        return Rows.from_entries(self.row_ids()[keep], cols[keep], self.data[keep],
                                 (self.shape[0], m))


def _check_modulus(p: int, N: int) -> int:
    """p^N, or BudgetError when int64 products of two residues could wrap."""
    q = p**N
    if q > MAX_MODULUS:
        raise BudgetError(
            f"coefficient modulus {p}^{N} exceeds {MAX_MODULUS}, "
            "the largest whose residue products fit in int64"
        )
    return q


def howell(mat: Union[np.ndarray, Rows], p: int, N: int) -> Rows:
    """Howell canonical form of the row span of ``mat`` over Z/p^N."""
    result, k, m = _forward(mat, p, N)
    if not result:
        return Rows.from_array(np.zeros((0, m), dtype=np.int64))
    # k dict rows, then array rows from the dense loop
    piv = [(col, e) for col, e, _ in result]
    rows = [row for _, _, row in result]
    nnz = sum(map(len, rows[:k])) + sum(map(np.count_nonzero, rows[k:]))
    if _filled(nnz, len(rows) * m):
        dense = np.vstack([_stack(rows[:k], m), *rows[k:]])
        return Rows.from_array(_dense_back(dense, piv, p, N))
    for i in range(k, len(rows)):
        cols = rows[i].nonzero()[0]
        rows[i] = dict(zip(cols.tolist(), rows[i][cols].tolist()))
    return _sparse_back(rows, piv, m, p, N)


def span_rank_log(mat: Union[np.ndarray, Rows], p: int, N: int) -> int:
    """log_p of the cardinality of the row span of ``mat``: the forward
    elimination alone, a weak Howell form whose closure rows make the sum
    of N - e over its pivots p^e exact, as `rank_log` of `howell` reads it."""
    return sum(N - e for _, e, _ in _forward(mat, p, N)[0])


def projection_rank_log(rows: Rows, keep: np.ndarray, p: int, N: int) -> int:
    """log_p of the cardinality of the span of the reduced Howell ``rows``
    projected onto the columns where the boolean ``keep`` holds.

    A unit pivot of a reduced Howell form is the only non-zero of its
    column, so each one that ``keep`` holds adds N and drops out; the rest
    is `span_rank_log` of the other rows' projection.
    """
    peel = unit_pivots(rows, p) & keep[rows.indices[rows.indptr[:-1]]]
    peeled = int(np.count_nonzero(peel))
    if peeled:
        rows = rows.take(~peel)
    new = np.cumsum(keep) - 1
    new[~keep] = -1
    return N * peeled + span_rank_log(rows.relabel(new, int(np.count_nonzero(keep))), p, N)


def _forward(mat: Union[np.ndarray, Rows], p: int, N: int) -> Tuple[list, int, int]:
    """Forward elimination of ``mat`` over Z/p^N, with the closure row of
    each pivot p^e, e > 0; ``(result, k, m)``: the (pivot col, valuation,
    row) triples, of which the first k rows are column->residue dicts and
    the rest arrays, and the number of columns."""
    q = _check_modulus(p, N)
    if not isinstance(mat, Rows):
        mat = Rows.from_array(mat)
    m = mat.m
    # row, column and residue of each non-zero entry, in row-major order
    r, c, vals = mat.row_ids(), mat.indices, mat.data % q
    keep = vals != 0
    r, c, vals = r[keep], c[keep], vals[keep]
    if not vals.size:
        return [], 0, m
    # the position of each entry's row among the non-zero rows
    at = np.concatenate(([0], np.cumsum(np.diff(r) != 0)))
    if _filled(vals.size, (int(at[-1]) + 1) * m):
        A = np.zeros((int(at[-1]) + 1, m), dtype=np.int64)
        A[at, c] = vals
        return _dense_forward(A, 0, p, N), 0, m
    result, rest, col = _sparse_forward(r, c, vals, m, p, N)
    k = len(result)
    if rest is not None:
        result += _dense_forward(rest, col, p, N)
    return result, k, m


def _filled(nnz: int, cells: int) -> bool:
    """Whether ``nnz`` non-zeros in rows of ``cells`` cells are work for the
    dense loop rather than the sparse kernel."""
    return nnz > DENSE_FILL * cells


def _stack(rows: List[dict], m: int) -> np.ndarray:
    """Column->residue dict rows as one (r, m) array."""
    return Rows.from_dicts(rows, m).toarray()


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
            e, uinv = unit_split(pivot[col], p, q)
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
            vals = vp_array(colv, p, N)
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
        _, uinv = unit_split(int(pivot[col]), p, q)
        pivot[col:] = (pivot[col:] * uinv) % q
        pe = p**e
        if nz.size:
            block = _eliminate(A, nz, A[nz, col] // pe, pivot, col, q)
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


def _eliminate(X: np.ndarray, nz: np.ndarray, factors: np.ndarray, row: np.ndarray,
               col: int, q: int) -> np.ndarray:
    """Subtract ``factors[k] * row`` from row ``nz[k]`` of ``X`` modulo q,
    from column ``col`` on, and return the updated block ``X[nz, col:]``.

    Factors and entries are residues below q <= `MAX_MODULUS`, so each
    product, and the difference it is subtracted into, fits in int64.
    """
    block = X[nz, col:]
    block -= factors[:, None] * row[None, col:]
    np.mod(block, q, out=block)
    X[nz, col:] = block
    return block


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
            _eliminate(rows, nz, factors[nz], rows[j], col, q)
    return rows


def _sparse_back(
    rows: List[dict], piv: List[Tuple[int, int]], m: int, p: int, N: int
) -> Rows:
    """Reduce the entries above each pivot of the dict ``rows``, whose
    (pivot col, valuation) pairs are ``piv``.

    Rows are finished from the bottom up, each against the finished rows
    below it, visiting only its own entries in pivot columns (`_reduce`),
    so the cost follows the entries the rows gain even when they fill in.
    """
    q = p**N
    at = {col: (j, p**e) for j, (col, e) in enumerate(piv)}
    for i in range(len(rows) - 1, -1, -1):
        row, lead = rows[i], piv[i][0]
        todo = [c for c in row if c in at and c != lead]
        if todo:
            _reduce(row, todo, at, rows, q)
    return Rows.from_dicts(rows, m)


def _reduce(row: dict, todo: List[int], at: Dict[int, Tuple[int, int]], rows: List[dict],
            q: int) -> None:
    """Reduce the dict ``row`` in place at the pivot columns ``todo``.

    ``at`` maps each pivot column to the index of its row in ``rows`` and
    to p^e for its pivot p^e.  Columns are visited smallest first (a heap,
    since a reduction can add entries to the right), and only those where
    the row has an entry.
    """
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


def unit_pivots(rows: Rows, p: int) -> np.ndarray:
    """Whether each Howell row's pivot, its first entry, is a unit."""
    return rows.data[rows.indptr[:-1]] % p != 0


def pivots(rows: Rows, p: int, N: int) -> List[Tuple[int, int]]:
    """(column, valuation) of each Howell row's pivot, its first entry."""
    first = rows.indptr[:-1]
    vals = vp_array(rows.data[first], p, N)
    return list(zip(rows.indices[first].tolist(), vals.tolist()))


def _reduced(rows: Rows, vecs: Rows, p: int, N: int) -> Iterator[Rows]:
    """Remainders of the batch ``vecs`` after reduction against Howell
    ``rows``, one block of at most `_BLOCK_BYTES` in dense form at a time.

    Against a sparse basis each vector follows its own non-zeros through
    `_reduce`; against one the fill rule calls filled, each block is
    reduced as an array with one vectorised step per pivot, over the live
    vectors.
    """
    q = _check_modulus(p, N)
    piv = pivots(rows, p, N)
    step = max(1, _BLOCK_BYTES // (8 * vecs.m))
    filled = _filled(rows.nnz, rows.shape[0] * rows.m)
    if filled:
        dense = rows.toarray()
    else:
        basis = rows.dicts()
        at = {col: (j, p**e) for j, (col, e) in enumerate(piv)}
    for lo in range(0, vecs.shape[0], step):
        block = vecs.block(lo, lo + step)
        if not filled:
            V = [{c: x % q for c, x in vec.items() if x % q} for vec in block.dicts()]
            for vec in V:
                _reduce(vec, [c for c in vec if c in at], at, basis, q)
            yield Rows.from_dicts(V, vecs.m)
            continue
        V = np.mod(block.toarray(), q)
        for (col, e), row in zip(piv, dense):
            nz = V[:, col].nonzero()[0]
            if nz.size:
                _eliminate(V, nz, V[nz, col] // p**e, row, col, q)
        yield Rows.from_array(V)


def in_span(rows: Rows, vecs: Rows, p: int, N: int) -> np.ndarray:
    """Whether each vector of the batch ``vecs`` lies in the span of Howell
    ``rows``; only one block of remainders is held at a time."""
    rems = _reduced(rows, vecs, p, N)
    return np.concatenate([np.zeros(0, dtype=bool), *(np.diff(rem.indptr) == 0 for rem in rems)])


def span_equal(a: Rows, b: Rows) -> bool:
    """Whether two Howell forms are equal, and so span the same module."""
    return a.shape == b.shape and all(
        np.array_equal(x, y)
        for x, y in ((a.indptr, b.indptr), (a.indices, b.indices), (a.data, b.data))
    )


def rank_log(rows: Rows, p: int, N: int) -> int:
    """log_p of the cardinality of the spanned module: the sum of N - e
    over the pivots p^e u, the rows' first entries."""
    return N * rows.shape[0] - int(vp_array(rows.data[rows.indptr[:-1]], p, N).sum())
