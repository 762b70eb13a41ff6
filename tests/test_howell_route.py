"""Live-entry Howell elimination and batched membership against the
full-matrix route.

``howell_route`` holds the implementations the package used before: the
Howell form that rewrites the whole remaining matrix at every pivot, the
one-vector reduction, the per-element faithfulness loop and the
reduce-then-stack centre rank.  The new routes must agree array for array
on random matrices and verdict for verdict on every small stage.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import howell_route as ref
from stages import small_stage_ideals
from iwasawa_kernel import control, linalg
from iwasawa_kernel.algebra import ideal_closure
from iwasawa_kernel.control import is_faithful, j_ideal_rank


def random_matrix(rng, p, N, k, m, kind):
    """Dense, sparse (~20 % non-zero) or p-power-scaled residues mod p^N."""
    q = p**N
    A = rng.integers(0, q, size=(k, m), dtype=np.int64)
    if kind == "sparse":
        A *= rng.random((k, m)) < 0.2
    elif kind == "p-power":
        A = (A * p ** rng.integers(0, N + 1, size=(k, m))) % q
    return A


matrices = st.builds(
    lambda p, N, k, m, kind, seed: (
        p, N, random_matrix(np.random.default_rng(seed), p, N, k, m, kind)
    ),
    st.sampled_from([2, 3, 5, 7]),
    st.integers(1, 4),
    st.integers(0, 40),
    st.integers(1, 40),
    st.sampled_from(["dense", "sparse", "p-power"]),
    st.integers(0, 2**32 - 1),
)


@given(matrices)
@settings(max_examples=150, deadline=None)
def test_howell_matches_full_matrix_route(case):
    p, N, A = case
    got = linalg.howell(A, p, N)
    want = ref.howell(A, p, N)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


@given(matrices, st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_reduce_rows_matches_per_vector_reduction(case, seed):
    p, N, A = case
    H = ref.howell(A, p, N)
    rng = np.random.default_rng(seed)
    vecs = random_matrix(rng, p, N, 6, A.shape[1], "dense")
    # members of the span reduce to zero: include two combinations of A
    if A.shape[0]:
        vecs[:2] = (rng.integers(0, p**N, size=(2, A.shape[0])) @ A) % p**N
    got = linalg.reduce_rows(H, vecs, p, N)
    for v, r in zip(vecs, got):
        assert np.array_equal(r, ref.reduce_vector(H, v, p, N))
        assert linalg.member(H, v, p, N) == (not r.any())


CASES = small_stage_ideals()


@pytest.mark.parametrize("Q, gens", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_control_predicates_match_old_routes(Q, gens):
    I = ideal_closure(gens, side="right", quotient=Q)
    assert is_faithful(I) == ref.is_faithful(I)
    assert j_ideal_rank(I) == ref.j_ideal_rank(I)


@pytest.mark.parametrize("Q, gens", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_is_faithful_in_small_chunks(Q, gens, monkeypatch):
    # five g - 1 vectors per batch, so the early exit and the batch
    # boundaries are exercised on every stage
    I = ideal_closure(gens, side="right", quotient=Q)
    monkeypatch.setattr(control, "_FAITHFUL_CHUNK_BYTES", 5 * 8 * Q.size)
    assert is_faithful(I) == ref.is_faithful(I)
