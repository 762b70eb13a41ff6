"""The input text format: key parsing, matrix sections, ideal sections."""

import random
from fractions import Fraction

import pytest

from iwasawa_kernel.algebra import build_quotient
from iwasawa_kernel.charts import builtin_chart
from iwasawa_kernel.errors import ValidationError
from iwasawa_kernel.presentation import parse_presentation


class TestParsing:
    def test_comments_and_blanks_ignored(self):
        doc = parse_presentation("# header\n\np 3   # inline\ndim 2\nprec 4\n")
        assert (doc.p, doc.dim, doc.prec) == (3, 2, 4)

    def test_bracket_fraction_coefficient(self):
        doc = parse_presentation("p 3\ndim 2\nprec 4\nbracket 1 2 1 3/2\n")
        assert doc.brackets == [(1, 2, 1, Fraction(3, 2))]

    def test_chartmat_must_be_square(self):
        with pytest.raises(ValidationError):
            parse_presentation("p 3\nchartmat 0 3 0 0 0 0\n")

    def test_explicit_chart_matrices(self):
        text = "p 3\nchartmat 0 3 0 0\n"
        chart = parse_presentation(text).chart()
        assert chart.dim == 1
        assert chart.basis[0] == ((0, 3), (0, 0))

    def test_autmat_images(self):
        text = (
            "p 3\nchart cyclic\n"
            "autmat 1 1 3 0 1\n"
        )
        doc = parse_presentation(text)
        phi = doc.automorphism(doc.chart())
        assert phi.images[0] == ((1, 3), (0, 1))

    @pytest.mark.parametrize("name", ["cyclic", "abelian2", "heisenberg", "unipotent4"])
    def test_autmat_images_of_words_accepted(self, name):
        chart = builtin_chart(name, 3)
        rng = random.Random(11)
        words = [[rng.randrange(-20, 20) for _ in range(chart.dim)] for _ in range(chart.dim)]
        images = [chart.word(w) for w in words]
        text = f"p 3\nchart {name}\n" + "".join(
            f"autmat {i + 1} " + " ".join(str(v) for row in img for v in row) + "\n"
            for i, img in enumerate(images)
        )
        doc = parse_presentation(text)
        assert doc.automorphism(doc.chart()).images == tuple(images)

    @pytest.mark.parametrize("entries, gen", [
        ("1 0 3 0 1 0 0 0 1", 1),  # exp(x3 / 3)
        ("1 1 0 0 1 0 0 0 1", 1),  # exp(x1 / 3)
        ("1 0 0 0 1 1 0 0 1", 2),  # exp(x2 / 3)
    ])
    def test_autmat_image_outside_the_chart_group_rejected(self, entries, gen):
        text = f"p 3\nchart heisenberg\nautmat {gen} {entries}\n"
        text += "".join(f"aut {i} {' '.join(str(int(i == k)) for k in (1, 2, 3))}\n"
                        for i in (1, 2, 3) if i != gen)
        doc = parse_presentation(text)
        with pytest.raises(ValidationError, match=f"autmat image of generator {gen}"):
            doc.automorphism(doc.chart())

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError):
            parse_presentation("p 3\nmystery 1 2\n")

    def test_malformed_line_reports_lineno(self):
        with pytest.raises(ValidationError) as exc:
            parse_presentation("p 3\nbracket 1 two 3 4\n")
        assert "line 2" in str(exc.value)


class TestIdealSection:
    def test_coeff_list_with_rationals(self):
        doc = parse_presentation("p 3\nchart cyclic\nideal coeffs 1 -1/2 0\n")
        Q = build_quotient(doc.chart(), 1, 2)
        (gen,) = doc.ideal_generators(Q)
        # -1/2 mod 9 is -5 = 4
        assert gen.coeffs == {0: 1, 1: 4}

    def test_p_in_denominator_rejected(self):
        doc = parse_presentation("p 3\nchart cyclic\nideal coeffs 1/3\n")
        Q = build_quotient(doc.chart(), 1, 2)
        with pytest.raises(ValidationError):
            doc.ideal_generators(Q)

    def test_bmono_length_checked(self):
        doc = parse_presentation("p 3\nchart heisenberg\nideal bmono 1 0\n")
        Q = build_quotient(doc.chart(), 1, 2)
        with pytest.raises(ValidationError):
            doc.ideal_generators(Q)

    def test_too_long_coeff_list_rejected(self):
        doc = parse_presentation(
            "p 3\nchart cyclic\nideal coeffs 1 1 1 1\n"
        )
        Q = build_quotient(doc.chart(), 1, 2)
        with pytest.raises(ValidationError):
            doc.ideal_generators(Q)
