"""Finite stage algebras: quotient group law, convolution, b-monomials,
the Lazard filtration weight and its precision floor."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matrix_route as ref
from matrix_route import _mul
from control_route import rho
from iwasawa_kernel.algebra import (
    AlgebraElement,
    FiltValue,
    SubmoduleBasis,
    b_element,
    b_monomial,
    build_quotient,
    ideal_closure,
    lazard_value,
)
from iwasawa_kernel.charts import (
    abelian_chart,
    cyclic_chart,
    heisenberg_chart,
)
from iwasawa_kernel.errors import BudgetError, InvariantViolation
from iwasawa_kernel import linalg

P = 3


def heis_quotient(n=1, N=2, **kw):
    return build_quotient(heisenberg_chart(P), n, N, **kw)


class TestQuotientGroup:
    def test_sizes_and_indexing(self):
        Q = heis_quotient(2, 2)
        assert Q.size == 729
        for idx in [0, 1, 500, 728]:
            assert Q.index(Q.coords_array([idx])[0]) == idx

    def test_mult_matches_matrix_oracle(self):
        Q = heis_quotient()
        rng = random.Random(2)
        q = Q.chart.modulus
        for _ in range(40):
            a, b = rng.randrange(Q.size), rng.randrange(Q.size)
            want = ref.index_of_matrix(Q, _mul(ref.matrix(Q, a), ref.matrix(Q, b), q))
            assert Q.mult_array(a, b) == want

    def test_mult_table_consistent(self):
        Q = heis_quotient()
        direct = [
            [int(Q.mult_array(a, b)) for b in range(Q.size)] for a in range(Q.size)
        ]
        tab = Q.mult_table()
        assert np.array_equal(tab, np.array(direct))

    def test_group_axioms(self):
        Q = heis_quotient()
        rng = random.Random(3)
        for _ in range(30):
            a, b, c = (rng.randrange(Q.size) for _ in range(3))
            assert Q.mult_array(Q.mult_array(a, b), c) == Q.mult_array(a, Q.mult_array(b, c))
            assert Q.mult_array(a, Q.inverse_array(a)) == 0
            assert Q.mult_array(0, a) == a

    def test_size_budget(self):
        with pytest.raises(BudgetError):
            build_quotient(heisenberg_chart(P), 4, 2)
        Q = build_quotient(heisenberg_chart(P), 4, 2, size_budget=10**7, verify=False)
        assert Q.size == 3**12

    def test_dense_byte_budget(self, monkeypatch):
        # the table and the translates are refused before allocation; the
        # translates cost 32 bytes per entry, |Q| entries per non-zero of
        # the generators, so a generator on all of Q overflows the budget
        from iwasawa_kernel import errors

        Q = heis_quotient()
        gen = b_element(Q, 0)
        full = AlgebraElement(Q, {h: 1 for h in range(Q.size)})
        monkeypatch.setattr(errors, "DENSE_BYTE_BUDGET", 8 * Q.size**2 - 1)
        with pytest.raises(BudgetError, match="multiplication table"):
            Q.mult_table()
        assert Q._mult_table is None
        with pytest.raises(BudgetError, match="translates"):
            ideal_closure([full], side="right", quotient=Q)
        monkeypatch.setattr(errors, "DENSE_BYTE_BUDGET", 8 * Q.size**2)
        assert ideal_closure([gen], side="right", quotient=Q).rank_log > 0

    def test_cyclic_quotient_is_cyclic(self):
        Q = build_quotient(cyclic_chart(P), 1, 1)
        assert Q.size == P
        assert Q.mult_array(1, 2) == 0


class TestAlgebraElement:
    def test_group_convolution(self):
        Q = heis_quotient()
        rng = random.Random(4)
        for _ in range(20):
            a, b = rng.randrange(Q.size), rng.randrange(Q.size)
            ga = AlgebraElement.group_element(Q, a)
            gb = AlgebraElement.group_element(Q, b)
            assert ga * gb == AlgebraElement.group_element(Q, int(Q.mult_array(a, b)))

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_ring_axioms(self, data):
        Q = heis_quotient()
        def elem():
            return AlgebraElement(
                Q,
                {
                    data.draw(st.integers(0, Q.size - 1)): data.draw(
                        st.integers(1, 8)
                    )
                    for _ in range(3)
                },
            )
        x, y, z = elem(), elem(), elem()
        assert (x + y) * z == x * z + y * z
        assert (x * y) * z == x * (y * z)
        assert x - x == AlgebraElement.zero(Q)

    def test_noncommutative(self):
        Q = heis_quotient()
        b1, b2 = b_element(Q, 0), b_element(Q, 1)
        assert b1 * b2 != b2 * b1

    def test_b_monomial_matches_ring_product(self):
        Q = heis_quotient()
        for alpha in [(1, 0, 0), (2, 1, 0), (1, 1, 1), (0, 3, 2)]:
            direct = AlgebraElement.one(Q)
            for i, a in enumerate(alpha):
                direct = direct * b_element(Q, i) ** a
            assert b_monomial(Q, alpha) == direct


class TestLazardValue:
    def test_generator_weights(self):
        Q = heis_quotient(2, 4)  # floor = min(4, 2*1+1) = 3
        assert Q.floor == 3
        assert lazard_value(b_element(Q, 0)).value == 1
        assert lazard_value(b_element(Q, 1)).value == 1
        # omega(g3) = 2
        assert lazard_value(b_element(Q, 2)).value == 2

    def test_scalar_p_has_weight_one(self):
        Q = heis_quotient(2, 4)
        x = AlgebraElement(Q, {0: P})
        assert lazard_value(x).value == 1

    def test_product_superadditive(self):
        Q = heis_quotient(2, 4)
        b1, b2 = b_element(Q, 0), b_element(Q, 1)
        v = lazard_value(b1 * b2)
        assert v.value == 2

    def test_zero_and_floor(self):
        Q = heis_quotient(1, 2)  # floor = 2
        assert lazard_value(AlgebraElement.zero(Q)).value is None
        v = lazard_value(b_element(Q, 2))  # weight 2 hits the floor
        assert not v.exact
        assert str(v) == ">= 2"

    def test_charp_floor_is_exponential(self):
        Q = heis_quotient(2, 1)
        assert Q.floor == 9

    def test_value_lemma_at_stage(self):
        # w(g3^(p^m) - 1) = m + w(g3 - 1) = m + 2 below the floor
        Q = build_quotient(heisenberg_chart(P), 3, 6)  # floor = 4
        g3 = AlgebraElement.group_element(Q, Q.generator(2))
        one = AlgebraElement.one(Q)
        for m in (0, 1, 2):
            v = lazard_value(g3 ** (P**m) - one)
            assert v.floor == Q.floor
            assert v.value == (2 + m if 2 + m < Q.floor else None)


class TestFiltValue:
    def test_status_and_str(self):
        assert FiltValue(2, 5).status == "exact"
        assert FiltValue(None, 5).status == ">= floor"
        assert str(FiltValue(None, 5)) == ">= 5"


class TestIdealsAndAction:
    def test_right_closure_is_translation_stable(self):
        Q = heis_quotient()
        I = ideal_closure([b_element(Q, 2)], side="right", quotient=Q)
        for i in range(Q.dim):
            perm = Q.mult_array(np.arange(Q.size), Q.generator(i))
            rows = I.rows.toarray()
            moved = np.zeros_like(rows)
            moved[:, perm] = rows
            assert linalg.in_span(I.rows, linalg.Rows.from_array(moved), Q.p, Q.N).all()

    def test_two_sided_contains_one_sided(self):
        Q = heis_quotient()
        gen = b_element(Q, 0)
        right = ideal_closure([gen], side="right", quotient=Q)
        two = ideal_closure([gen], side="two-sided", quotient=Q)
        assert two.rank_log >= right.rank_log
        assert linalg.in_span(two.rows, right.rows, Q.p, Q.N).all()

    def test_unreduced_rows_are_not_a_basis(self):
        # e0 + e1 and e1 are echelon, but the unit pivot of e1 is not the
        # only non-zero of column 1
        Q = heis_quotient()
        rows = np.zeros((2, Q.size), dtype=np.int64)
        rows[0, :2] = rows[1, 1] = 1
        with pytest.raises(InvariantViolation, match="unit pivot in column 1 is not the only"):
            SubmoduleBasis(Q, linalg.Rows.from_array(rows))
        rows[0, 1] = 0
        assert SubmoduleBasis(Q, linalg.Rows.from_array(rows)).rank_log == 2 * Q.N

    def test_rho_scales_coefficients(self):
        Q = heis_quotient()
        x = AlgebraElement(Q, {0: 1, 3: 2})
        y = rho(lambda k: k % 2, x)
        assert y.coeffs.get(3) == 2
        assert 0 not in y.coeffs
