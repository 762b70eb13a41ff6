"""Echelon linear algebra over Z/p^N, checked against brute-force span
enumeration on small modules."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import howell_route
from iwasawa_kernel import errors, linalg
from iwasawa_kernel.algebra import AlgebraElement, build_quotient, ideal_closure
from iwasawa_kernel.charts import heisenberg_chart
from iwasawa_kernel.cli import main
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


def test_tied_unit_rows_pivot_on_the_one_reaching_furthest_right():
    # one bucket, led by column 0: a shorter row whose pivot is no unit, two
    # unit rows of length 2 ending at columns 3 and 5, and a longer unit row
    # ending at 9; units come first, then length, then the largest last
    # column (Markowitz's least fill, as in structured Gaussian elimination)
    p, N, m = 3, 2, 64
    bucket = [{0: 3}, {0: 1, 3: 1}, {0: 2, 5: 1}, {0: 1, 2: 1, 9: 1}]
    mat = Rows.from_dicts(bucket, m)
    result, rest, _ = linalg._sparse_forward(mat.row_ids(), mat.indices, mat.data, m, p, N)
    assert rest is None
    # 2 is a unit mod 9 with inverse 5: the pivot row is normalised to 1
    assert result[0] == (0, 0, {0: 1, 5: 5})


# heisenberg n = 2, N = 2: the sparse forward elimination of this element's
# right closure fills in and hands 209 live rows of 729 columns to the
# dense loop
DENSE_CLOSURE = {137: 2, 261: 2, 483: 7, 507: 8}


def test_dense_elimination_asks_the_byte_budget(monkeypatch, tmp_path, capsys):
    Q = build_quotient(heisenberg_chart(3), 2, 2)
    x = AlgebraElement(Q, DENSE_CLOSURE)
    asked, real = [], linalg.require_bytes
    monkeypatch.setattr(linalg, "require_bytes",
                        lambda nbytes, what: (asked.append((nbytes, what)), real(nbytes, what)))
    assert ideal_closure([x], quotient=Q).rank_log == 1458
    what = "the dense elimination of 209 rows x 729 columns"
    assert asked == [(linalg._DENSE_HOLD * 8 * 209 * 729, what)]
    # 4.9 MB asked: a 4 MB budget refuses before the block is allocated
    monkeypatch.setattr(errors, "DENSE_BYTE_BUDGET", 4 * 10**6)
    with pytest.raises(BudgetError, match=what):
        ideal_closure([x], quotient=Q)
    coeffs = " ".join(str(DENSE_CLOSURE.get(h, 0)) for h in range(max(DENSE_CLOSURE) + 1))
    path = tmp_path / "dense.txt"
    path.write_text(f"p 3\nchart heisenberg\nideal coeffs {coeffs}\n")
    assert main(["control", str(path), "--level", "2"]) == 2
    err = capsys.readouterr().err
    assert what in err and "Traceback" not in err
