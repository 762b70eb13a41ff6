"""Line-oriented input format for the batch driver.

A document describes up to three things: a Lie presentation (fields ``p``,
``dim``, ``prec`` and ``bracket`` lines), an optional group chart with an
automorphism (``chart``/``chartmat`` and ``aut``/``autmat`` lines), and an
optional list of ideal generators (``ideal`` lines).  ``#`` starts a
comment; blank lines are ignored.

    p 3
    dim 3
    prec 6
    bracket 1 2 3 1          # [x1, x2] = 1*x3
    chart heisenberg
    aut 1 0 1 0              # image of g_1 is the word g_2
    aut 2 1 0 0
    aut 3 0 0 -1
    ideal bmono 0 0 1        # generator (g_3 - 1)
    ideal coeffs 1 -1/2 0    # generator with rational coefficient list

Automorphism images may instead be explicit matrices (``autmat i`` followed
by row-major entries), and the chart may be given as explicit basis
matrices (one ``chartmat`` line per generator).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import AlgebraElement, QuotientGroup, b_monomial
from .charts import GroupChart, builtin_chart, chart_from_matrices
from .errors import ValidationError
from .mahler import AutomorphismSpec
from .nilpotent import LiePresentation


def _square(entries: Sequence[int], what: str) -> Tuple[Tuple[int, ...], ...]:
    size = isqrt(len(entries))
    if size * size != len(entries):
        raise ValidationError(f"{what}: {len(entries)} entries is not a square matrix")
    return tuple(
        tuple(entries[r * size + c] for c in range(size)) for r in range(size)
    )


@dataclass
class PresentationFile:
    """Parsed form of one input document."""

    p: Optional[int] = None
    dim: Optional[int] = None
    prec: Optional[int] = None
    brackets: List[Tuple[int, int, int, Fraction]] = field(default_factory=list)
    chart_name: Optional[str] = None
    chart_matrices: List[Tuple[Tuple[int, ...], ...]] = field(default_factory=list)
    aut_words: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    aut_matrices: Dict[int, Tuple[Tuple[int, ...], ...]] = field(default_factory=dict)
    ideal_bmono: List[Tuple[int, ...]] = field(default_factory=list)
    ideal_coeffs: List[Tuple[Fraction, ...]] = field(default_factory=list)

    # -- assembly -------------------------------------------------------

    def lie_presentation(self) -> LiePresentation:
        if self.p is None or self.dim is None or self.prec is None:
            raise ValidationError("presentation needs p, dim and prec fields")
        return LiePresentation.from_triples(
            self.p,
            self.dim,
            self.prec,
            [(i, j, k, c) for i, j, k, c in self.brackets],
        )

    def chart(self, work_prec: Optional[int] = None) -> GroupChart:
        if self.p is None:
            raise ValidationError("chart needs the p field")
        if self.chart_matrices:
            return chart_from_matrices(
                self.p, self.chart_matrices, work_prec=work_prec or 14
            )
        if self.chart_name is None:
            raise ValidationError("no chart section in input")
        return builtin_chart(self.chart_name, self.p, work_prec=work_prec)

    def automorphism(self, chart: GroupChart) -> AutomorphismSpec:
        if not self.aut_words and not self.aut_matrices:
            raise ValidationError("no automorphism section in input")
        for i in sorted({*self.aut_words, *self.aut_matrices}):
            if not 0 <= i < chart.dim:
                raise ValidationError(
                    f"aut index {i + 1} outside 1..{chart.dim} for chart {chart.name}"
                )
        images = []
        for i in range(chart.dim):
            if i in self.aut_matrices:
                images.append(self.aut_matrices[i])
            elif i in self.aut_words:
                images.append(chart.word(self.aut_words[i]))
            else:
                raise ValidationError(f"missing image for generator {i + 1}")
        return AutomorphismSpec(chart, tuple(images), name="input")

    def ideal_generators(self, Q: QuotientGroup) -> List[AlgebraElement]:
        gens = []
        for alpha in self.ideal_bmono:
            if len(alpha) != Q.dim:
                raise ValidationError("b-monomial exponent length mismatch")
            gens.append(b_monomial(Q, alpha))
        q = Q.coeff_mod
        for coeffs in self.ideal_coeffs:
            if len(coeffs) > Q.size:
                raise ValidationError("coefficient list longer than the quotient")
            data = {}
            for idx, c in enumerate(coeffs):
                if c.denominator % Q.p == 0:
                    raise ValidationError(
                        f"coefficient {c} has denominator divisible by p"
                    )
                v = c.numerator * pow(c.denominator, -1, q) % q
                if v:
                    data[idx] = v
            gens.append(AlgebraElement(Q, data))
        return gens


def parse_presentation(text: str) -> PresentationFile:
    doc = PresentationFile()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        key, args = parts[0], parts[1:]
        try:
            if key in ("p", "dim", "prec"):
                setattr(doc, key, int(args[0]))
            elif key == "bracket":
                i, j, k = (int(a) for a in args[:3])
                doc.brackets.append((i, j, k, Fraction(args[3])))
            elif key == "chart":
                doc.chart_name = args[0]
            elif key == "chartmat":
                doc.chart_matrices.append(
                    _square([int(a) for a in args], f"line {lineno}")
                )
            elif key == "aut":
                doc.aut_words[int(args[0]) - 1] = tuple(int(a) for a in args[1:])
            elif key == "autmat":
                doc.aut_matrices[int(args[0]) - 1] = _square(
                    [int(a) for a in args[1:]], f"line {lineno}"
                )
            elif key == "ideal":
                kind = args[0]
                if kind == "bmono":
                    doc.ideal_bmono.append(tuple(int(a) for a in args[1:]))
                elif kind == "coeffs":
                    doc.ideal_coeffs.append(tuple(Fraction(a) for a in args[1:]))
                else:
                    raise ValidationError(f"unknown ideal kind {kind!r}")
            else:
                raise ValidationError(f"unknown key {key!r}")
        except (IndexError, ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"line {lineno}: cannot parse {raw!r}: {exc}")
    return doc


def load_presentation(path: str) -> PresentationFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_presentation(fh.read())
