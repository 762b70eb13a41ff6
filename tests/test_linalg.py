"""Echelon linear algebra over Z/p^N, checked against brute-force span
enumeration on small modules."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import howell_route
from iwasawa_kernel import linalg
from iwasawa_kernel.errors import BudgetError
from iwasawa_kernel.linalg import Rows


def enumerate_span(mat, q):
    """All Z/q-combinations of the rows (rows small enough to brute force)."""
    if mat.shape[0] == 0:
        return {tuple([0] * mat.shape[1])}
    out = set()
    for coeffs in itertools.product(range(q), repeat=mat.shape[0]):
        out.add(tuple(int(x) for x in (np.array(coeffs) @ mat) % q))
    return out


small_case = st.tuples(
    st.sampled_from([(2, 2), (2, 3), (3, 2), (5, 1)]),
    st.integers(2, 4),
    st.integers(1, 4),
    st.data(),
)


class TestHowell:
    @given(small_case)
    @settings(max_examples=60, deadline=None)
    def test_span_preserved_and_canonical(self, case):
        (p, N), m, k, data = case
        q = p**N
        mat = np.array(
            [[data.draw(st.integers(0, q - 1)) for _ in range(m)] for _ in range(k)]
        )
        R = linalg.howell(mat, p, N)
        H = R.toarray()
        span = enumerate_span(mat, q)
        assert enumerate_span(H, q) == span
        # canonical: any generating set of the same span gives identical rows
        doubled = np.vstack([mat, mat[::-1]])
        assert linalg.span_equal(linalg.howell(doubled, p, N), R)
        # cardinality
        assert p ** linalg.rank_log(R, p, N) == len(span)

    @given(small_case)
    @settings(max_examples=40, deadline=None)
    def test_leading_zero_rows_span_intersection(self, case):
        # the property the subalgebra-restriction step relies on
        (p, N), m, k, data = case
        q = p**N
        mat = np.array(
            [[data.draw(st.integers(0, q - 1)) for _ in range(m)] for _ in range(k)]
        )
        H = linalg.howell(mat, p, N).toarray()
        span = enumerate_span(mat, q)
        for c in range(1, m):
            keep = H[~np.any(H[:, :c], axis=1)] if H.shape[0] else H
            expected = {v for v in span if all(x == 0 for x in v[:c])}
            assert enumerate_span(keep.reshape(-1, m), q) == expected

    def test_membership_by_reduction(self):
        p, N = 3, 2
        mat = np.array([[3, 1, 0], [0, 3, 3]])
        H = linalg.howell(mat, p, N)
        vecs = Rows.from_array(np.array([[3, 1, 0], [3, 4, 3], [1, 0, 0]]))
        assert linalg.in_span(H, vecs, p, N).tolist() == [True, True, False]

    def test_zero_matrix(self):
        H = linalg.howell(np.zeros((3, 4), dtype=np.int64), 3, 2)
        assert H.shape == (0, 4)
        assert linalg.rank_log(H, 3, 2) == 0

    @pytest.mark.parametrize("p, N", [(2, 5), (3, 2), (3, 4), (5, 3), (41, 5)])
    def test_rank_log_is_the_sum_over_pivots(self, p, N):
        # rows scaled by powers of p give pivots of every valuation
        rng = np.random.default_rng(p * 100 + N)
        for k, m in [(1, 1), (4, 6), (9, 9), (20, 12)]:
            mat = rng.integers(0, p**N, size=(k, m)) * p ** rng.integers(0, N + 1, size=(k, 1))
            H = linalg.howell(mat % p**N, p, N)
            got = linalg.rank_log(H, p, N)
            assert type(got) is int
            assert got == sum(N - e for _, e in linalg.pivots(H, p, N))


class TestModulusGuard:
    """int64 arithmetic is exact up to p^N <= isqrt(2^63 - 1); above that
    every entry point refuses instead of wrapping around."""

    @given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_agrees_with_python_int_oracle_at_n19(self, k, m, seed):
        p, N = 3, 19
        assert p**N <= linalg.MAX_MODULUS
        rng = np.random.default_rng(seed)
        mat = rng.integers(0, p**N, size=(k, m), dtype=np.int64)
        mat[:, : m // 2] *= p ** rng.integers(0, 3, size=(k, 1))
        got = linalg.howell(mat, p, N).toarray()
        want = howell_route.howell(mat.astype(object), p, N, dtype=object)
        assert got.shape == want.shape
        assert [list(map(int, r)) for r in got] == [list(map(int, r)) for r in want]

    @pytest.mark.parametrize("N", [20, 25])
    @given(st.integers(1, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_refuses_above_the_bound(self, N, m, seed):
        p = 3
        assert p**N > linalg.MAX_MODULUS
        mat = np.random.default_rng(seed).integers(0, p**N, size=(3, m))
        with pytest.raises(BudgetError):
            linalg.howell(mat, p, N)
        with pytest.raises(BudgetError):
            howell_route.remainders(Rows.from_array(np.zeros((0, m))), Rows.from_array(mat), p, N)
