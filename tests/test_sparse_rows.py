"""Sparse submodule bases (`linalg.Rows`) against the dense array routes.

The package passes Howell forms between layers as compressed sparse rows
and reduces batches by following non-zeros.  The array routes it used
before are kept in ``howell_route`` (the vectorised batch reduction, the
chunked `is_faithful`, `j_ideal_rank` from the stacked centre units) and
``control_route`` (`_restrict` and the projection onto KU on arrays, the
route `control` took before it read ranks of column projections).
Every stage with |Q| <= 729 must give the same remainders, verdicts,
ranks and Howell arrays both ways, and on random matrices `howell` must
not depend on the form of its input.
"""

import numpy as np
import pytest
from hypothesis import given, settings

import control_route as cref
import howell_route as ref
from stages import stages_up_to_729
from test_howell_route import random_matrix, sparse_matrices
from iwasawa_kernel import linalg
from iwasawa_kernel.algebra import b_monomial, ideal_closure
from iwasawa_kernel.control import is_faithful, j_ideal_rank
from iwasawa_kernel.linalg import Rows


def stage_ideals():
    """The zero ideal, an ideal per axis b-monomial (first three axes), the
    all-ones b-monomial and a p-scaled one, on every stage with |Q| <= 729."""
    out = []
    for name, Q in stages_up_to_729():
        alphas = [tuple(1 if j == i else 0 for j in range(Q.dim)) for i in range(min(Q.dim, 3))]
        gens = [[]] + [[b_monomial(Q, a)] for a in alphas]
        gens.append([b_monomial(Q, [1] * Q.dim)])
        gens.append([b_monomial(Q, alphas[0]).scale(Q.p)])
        out += [(f"{name}-{i}", Q, g) for i, g in enumerate(gens)]
    return out


CASES = stage_ideals()


def g_minus_one(Q):
    """The dense (|Q| - 1, |Q|) batch of g - 1, g = 1..|Q|-1."""
    vecs = np.zeros((Q.size - 1, Q.size), dtype=np.int64)
    vecs[np.arange(Q.size - 1), np.arange(1, Q.size)] = 1
    vecs[:, 0] = -1
    return vecs


@pytest.mark.parametrize("Q, gens", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_sparse_routes_match_dense_routes(Q, gens):
    p, N = Q.p, Q.N
    I = ideal_closure(gens, side="right", quotient=Q)
    assert isinstance(I.rows, Rows)
    dense = I.rows.toarray()
    assert np.array_equal(Rows.from_array(dense).toarray(), dense)

    vecs = g_minus_one(Q)
    want = ref.reduce_rows_dense(dense, vecs, p, N)
    assert np.array_equal(ref.remainders(I.rows, Rows.from_array(vecs), p, N), want)
    assert is_faithful(I) == ref.is_faithful_chunked(I, 64)
    assert j_ideal_rank(I) == ref.j_ideal_rank_stacked(I)

    whole = np.arange(Q.size)
    for e in np.ndindex(*[Q.n + 1] * Q.dim):
        members, compatible = Q.lattice_grid(e)
        if not compatible:
            continue
        inner = cref._restrict(I.rows, whole, members, p, N)
        assert inner.shape == (inner.shape[0], members.size)
        assert np.array_equal(inner.toarray(), cref.restrict_dense(dense, whole, members, p, N)), e
        projection = linalg.howell(cref._columns(I.rows, whole, members), p, N)
        assert np.array_equal(projection.toarray(), cref.project_dense(dense, members, p, N)), e


@given(sparse_matrices)
@settings(max_examples=60, deadline=None)
def test_rows_input_and_sparse_reduction_match_dense_routes(case):
    p, N, A = case
    q = p**N
    H = linalg.howell(A, p, N)
    assert linalg.span_equal(linalg.howell(Rows.from_array(A), p, N), H)
    assert np.array_equal(linalg.howell(Rows.from_array(A), p, N).toarray(), H.toarray())

    rng = np.random.default_rng(int(A.sum()) + A.size)
    k, m = A.shape
    # a filled basis: the Howell form of a few dense rows
    F = linalg.howell(random_matrix(rng, p, N, min(m, 8), m, "dense"), p, N)
    if F.shape[0]:
        assert linalg._filled(F.nnz, F.shape[0] * m)
    vecs = random_matrix(rng, p, N, 6, m, "sparse")
    vecs[0] = random_matrix(rng, p, N, 1, m, "dense")
    if k:
        # members of the span reduce to zero
        vecs[1:3] = (rng.integers(0, q, size=(2, k)) @ A) % q
    for basis in (H, F):
        got = ref.remainders(basis, Rows.from_array(vecs), p, N)
        assert np.array_equal(got, ref.reduce_rows_dense(basis.toarray(), vecs, p, N))
    assert linalg.in_span(H, Rows.from_array(vecs[1:3] if k else vecs[:0]), p, N).all()


def test_reduction_in_blocks_on_both_paths(monkeypatch):
    # a sparse basis follows each vector's non-zeros, a filled one runs the
    # array loop; with blocks of 3 vectors both give the one-batch remainders
    rng = np.random.default_rng(3)
    p, N = 3, 2
    H = linalg.howell(np.eye(40, dtype=np.int64)[:30] * 3, p, N)
    F = linalg.howell(random_matrix(rng, p, N, 8, 40, "dense"), p, N)
    assert not linalg._filled(H.nnz, H.shape[0] * H.m)
    assert linalg._filled(F.nnz, F.shape[0] * F.m)
    vecs = random_matrix(rng, p, N, 10, 40, "dense")
    vecs[[2, 7]] = (rng.integers(0, p**N, size=(2, F.shape[0])) @ F.toarray()) % p**N
    monkeypatch.setattr(linalg, "_BLOCK_BYTES", 3 * 8 * 40)
    followed = []
    real = linalg._reduce
    monkeypatch.setattr(linalg, "_reduce", lambda row, *rest: followed.append(row) or real(row, *rest))
    for basis, calls in ((H, len(vecs)), (F, 0)):
        followed.clear()
        want = ref.reduce_rows_dense(basis.toarray(), vecs, p, N)
        got = ref.remainders(basis, Rows.from_array(vecs), p, N)
        assert len(followed) == calls
        assert np.array_equal(got, want)
        assert np.array_equal(linalg.in_span(basis, Rows.from_array(vecs), p, N), ~want.any(axis=1))
    assert linalg.in_span(F, Rows.from_array(vecs), p, N).tolist().count(True) == 2


@pytest.mark.parametrize("name, Q", stages_up_to_729(), ids=[s[0] for s in stages_up_to_729()])
def test_is_faithful_on_full_support_ideal(name, Q, monkeypatch):
    # (g_1 - 1)^(p^n - 1) ... (g_d - 1)^(p^n - 1) has (nearly) full support,
    # and its right ideal has a Howell form of a few filled rows
    top = min(Q.p**Q.n - 1, 512 // Q.dim)
    I = ideal_closure([b_monomial(Q, [top] * Q.dim)], side="right", quotient=Q)
    want = ref.is_faithful_chunked(I, 64)
    assert is_faithful(I) == want
    # several blocks of g - 1 give the same verdict
    monkeypatch.setattr(linalg, "_BLOCK_BYTES", 8 * Q.size * 100)
    assert is_faithful(I) == want


def test_rows_round_trip_and_selection():
    A = np.array([[0, 5, 0, 2], [0, 0, 0, 0], [7, 0, 1, 0]])
    R = Rows.from_array(A)
    assert R.shape == (3, 4) and R.nnz == 4
    assert R.indptr.tolist() == [0, 2, 2, 4]
    assert np.array_equal(R.toarray(), A)
    assert R.dicts() == [{1: 5, 3: 2}, {}, {0: 7, 2: 1}]
    assert np.array_equal(R.take(np.array([True, False, True])).toarray(), A[[0, 2]])
    # columns 3, 2 -> 0, 1; columns 0, 1 dropped
    assert np.array_equal(R.relabel(np.array([-1, -1, 1, 0]), 2).toarray(), A[:, [3, 2]])
    assert np.array_equal(Rows.from_dicts(R.dicts(), 4).toarray(), A)
