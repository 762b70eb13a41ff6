"""Nilpotent Lie-lattice structure theory: validation, upper central
series, centralizers, and the rescaled-sublattice compatibility check."""

import pytest
from fractions import Fraction

from lie_route import bracket_vec
from iwasawa_kernel import nilpotent
from iwasawa_kernel.errors import ValidationError
from iwasawa_kernel.nilpotent import (
    LiePresentation,
    centraliser_compat,
    centralizer,
    second_centre_centralizer,
    upper_central_series,
    validate,
    zero_module,
)

P = 3

# [x1,x4]=p x2, [x1,x5]=p x3, [x2,x6]=p x3, [x4,x6]=p x5
EXAMPLE2 = [(1, 4, 2, P), (1, 5, 3, P), (2, 6, 3, P), (4, 6, 5, P)]


def example2():
    return LiePresentation.from_triples(P, 6, 6, EXAMPLE2)


def heisenberg():
    return LiePresentation.from_triples(P, 3, 6, [(1, 2, 3, P)])


def upper5():
    size = 5
    pairs = [(i, j) for i in range(size) for j in range(i + 1, size)]
    idx = {pr: m + 1 for m, pr in enumerate(pairs)}
    triples = []
    for a, (i, j) in enumerate(pairs):
        for b, (k, l) in enumerate(pairs):
            if a >= b:
                continue
            if j == k:
                triples.append((a + 1, b + 1, idx[(i, l)], P))
            if l == i:
                triples.append((a + 1, b + 1, idx[(k, j)], -P))
    return LiePresentation.from_triples(P, len(pairs), 6, triples)


class TestValidation:
    def test_example2_valid(self):
        assert validate(example2()).ok

    def test_antisymmetric_completion(self):
        L = heisenberg()
        assert L.bracket[1][0][2] == -P

    def test_jacobi_violation_named(self):
        # [[x1,x2],x4] = p[x3,x4] = p^2 x3 while the other two cyclic
        # terms vanish, so the Jacobi sum is nonzero
        L = LiePresentation.from_triples(P, 4, 4, [(1, 2, 3, P), (3, 4, 3, P)])
        report = validate(L)
        assert not report.ok
        assert any("Jacobi" in v for v in report.violations)

    def test_non_p_lattice_flagged(self):
        L = LiePresentation.from_triples(P, 3, 4, [(1, 2, 3, 1)])
        report = validate(L)
        assert not report.ok
        assert any("lattice" in v for v in report.violations)

    def test_rational_constants_read_in_z_p(self):
        # v_3(3/2) = 1, v_3(9/2) = 2, v_3(-3/4) = 1; x4 is central, so
        # Jacobi holds exactly
        L = LiePresentation.from_triples(P, 3, 4, [(1, 2, 3, Fraction(3, 2))])
        assert validate(L).ok
        L = LiePresentation.from_triples(
            P, 4, 4,
            [(1, 2, 3, Fraction(3, 2)), (1, 3, 4, Fraction(9, 2)), (2, 3, 4, Fraction(-3, 4))],
        )
        report = validate(L)
        assert report.ok, report.violations
        assert [s.describe() for s in report.series] == [
            "0", "span{x4}", "span{x3, x4}", "span{x1, x2, x3, x4}"
        ]

    @pytest.mark.parametrize("c", [Fraction(1, 3), Fraction(1, 2), Fraction(2, 9)])
    def test_unit_or_p_denominator_rejected(self, c):
        report = validate(LiePresentation.from_triples(P, 3, 4, [(1, 2, 3, c)]))
        assert not report.ok
        assert any("lattice" in v for v in report.violations)

    def test_jacobi_sum_read_in_z_p(self):
        # the Jacobi sum on (x1, x2, x4) is c·3 x5: (81/2) x5 has v_3 = 4 =
        # prec, (27/2) x5 has v_3 = 3 < prec
        def jacobi_violations(c):
            L = LiePresentation.from_triples(P, 5, 4, [(1, 2, 3, c), (3, 4, 5, P)])
            return [v for v in validate(L).violations if "Jacobi" in v]

        assert jacobi_violations(Fraction(27, 2)) == []
        assert jacobi_violations(27) == []
        assert jacobi_violations(Fraction(9, 2)) == [
            "Jacobi fails on (x1,x2,x4) in x5-coordinate"
        ]

    def test_report_carries_the_series(self):
        assert validate(example2()).series == upper_central_series(example2())
        bad = LiePresentation.from_triples(P, 4, 4, [(1, 2, 3, P), (3, 4, 3, P)])
        assert validate(bad).series == []

    def test_non_nilpotent_flagged(self):
        # sl2-like relations never reach zero in the lower central series
        L = LiePresentation.from_triples(
            P, 3, 4, [(1, 2, 2, 2 * P), (1, 3, 3, -2 * P), (2, 3, 1, P)]
        )
        report = validate(L)
        assert not report.ok
        assert any("nilpotent" in v for v in report.violations)


class TestUpperCentralSeries:
    def test_example2_series(self):
        chain = upper_central_series(example2())
        assert [s.describe() for s in chain] == [
            "0",
            "span{x3}",
            "span{x2, x3, x5}",
            "span{x1, x2, x3, x4, x5, x6}",
        ]
        assert len(upper_central_series(example2())) - 1 == 3

    def test_abelian_class_one(self):
        L = LiePresentation.from_triples(P, 2, 4, [])
        assert len(upper_central_series(L)) - 1 == 1

    def test_heisenberg_series(self):
        chain = upper_central_series(heisenberg())
        assert chain[1].describe() == "span{x3}"
        assert len(upper_central_series(heisenberg())) - 1 == 2

    def test_strictly_upper_5x5_class(self):
        assert len(upper_central_series(upper5())) - 1 == 4

    def test_non_nilpotent_raises(self):
        L = LiePresentation.from_triples(
            P, 3, 4, [(1, 2, 2, 2 * P), (1, 3, 3, -2 * P), (2, 3, 1, P)]
        )
        with pytest.raises(ValidationError):
            upper_central_series(L)


class TestBracket:
    def test_bracket_vec_is_bilinear_in_the_table(self):
        # the reference bracket of the Lie-route oracle
        L = example2()
        e = [[1 if j == i else 0 for j in range(6)] for i in range(6)]
        assert bracket_vec(L, e[0], e[3]) == [0, P, 0, 0, 0, 0]
        assert bracket_vec(L, e[3], e[0]) == [0, -P, 0, 0, 0, 0]
        # [2 x1 + x2, x4 - x6] = 2 [x1, x4] - [x2, x6] = 6 x2 - 3 x3
        u, v = [2, 1, 0, 0, 0, 0], [0, 0, 0, 1, 0, -1]
        assert bracket_vec(L, u, v) == [0, 2 * P, -P, 0, 0, 0]


class TestCentralizer:
    def test_example2_c_z2(self):
        c = second_centre_centralizer(example2())
        assert c.describe() == "span{x2, x3, x4, x5}"

    def test_upper5_c_z2_misses_corner_generators(self):
        # basis index 1 is the (1,2) entry, index 10 the (4,5) entry
        c = second_centre_centralizer(upper5())
        assert c.describe() == "span{x2, x3, x4, x5, x6, x7, x8, x9}"

    def test_centralizer_of_zero_is_everything(self):
        L = example2()
        c = centralizer(L, zero_module(L.dim))
        assert c.dim == L.dim

    def test_centralizer_is_saturated(self):
        # saturation: rows are primitive even though brackets carry p's
        c = second_centre_centralizer(example2())
        for row in c.rows:
            assert 1 in [abs(x) for x in row]


class TestRescaledCompat:
    def test_example2_diagonal_sublattices_compatible(self):
        L = example2()
        for e in [(0,) * 6, (1, 0, 0, 0, 0, 0), (1, 1, 0, 2, 0, 1)]:
            assert centraliser_compat(L, e)

    def test_heisenberg_compat(self):
        assert centraliser_compat(heisenberg(), (1, 1, 0))

    def test_negative_exponent_rejected(self):
        # p^-1 x1 spans no sublattice; the power would be a float
        with pytest.raises(ValidationError, match="exponents >= 0"):
            heisenberg().rescaled((-1, 0, 0))
        with pytest.raises(ValidationError, match="exponents >= 0"):
            centraliser_compat(heisenberg(), (0, -2, 0))

    def test_rescaled_brackets(self):
        L = heisenberg().rescaled((1, 0, 0))
        # u1 = p x1, so [u1, u2] = p * (p x3) = p^2 x3 = p^2 u3
        assert L.bracket[0][1][2] == Fraction(P * P)


class TestIntegerHotPath:
    def test_validate_and_c_z2_need_no_fraction(self, monkeypatch):
        # the bracket holds Fractions, but the derived table is Python ints
        # and nothing after the build makes a Fraction
        L = upper5()
        series = upper_central_series(L)
        c_z2 = second_centre_centralizer(L, series)
        assert all(type(x) is int for row in L._table for vec in row for x in vec)

        def no_fraction(*args):
            raise AssertionError("a Fraction on the Lie layer's hot path")

        monkeypatch.setattr(nilpotent, "Fraction", no_fraction)
        report = validate(L)
        assert report.ok and report.series == series
        assert second_centre_centralizer(L, report.series) == c_z2
        assert second_centre_centralizer(L) == c_z2
        assert c_z2.describe() == "span{x2, x3, x4, x5, x6, x7, x8, x9}"

    def test_table_scales_by_the_denominator_lcm(self):
        L = LiePresentation.from_triples(
            P, 4, 4, [(1, 2, 3, Fraction(3, 2)), (1, 3, 4, Fraction(2, 9))]
        )
        assert L._den == 18
        assert L._table[0][1] == (0, 0, 27, 0)
        assert L._table[2][0] == (0, 0, 0, -4)


@pytest.mark.parametrize("dim", [40, 80])
def test_bracket_table_build_stays_within_the_bytes_asked(monkeypatch, dim):
    # a one-bracket presentation: the parent held three dense dim³ tables
    # at its peak, 3.3-3.7 times the 8·dim³ bytes it asked the budget for
    import tracemalloc

    asked = []
    real = nilpotent.require_bytes
    monkeypatch.setattr(nilpotent, "require_bytes", lambda n, what: (asked.append(n), real(n, what)))
    tracemalloc.start()
    try:
        L = LiePresentation.from_triples(P, dim, 4, [(1, 2, 3, P)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert asked == [8 * dim**3]
    assert peak <= asked[0]
    assert L.bracket[1][0][2] == -P and L._table[0][1][2] == P
    assert not any(L.bracket[2][3]) and not any(L._table[dim - 1][0])
