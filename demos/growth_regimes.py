"""The two growth regimes of the q-series of an automorphism.

For conjugation by g1 on the Heisenberg group, q_m tracks the deviation
z(g)^(p^m) along an axis g.  Its filtration weight grows

    v(q_m) = lambda + m        with coefficients in characteristic 0,
    v(q_m) = p^m * lambda      with coefficients in characteristic p.

We print both tables on the g2 axis (where z(g2) = (g1,g2) = g3 has weight
lambda = 2) and on the central g3 axis, where every value sits at or above
the precision floor and the regime is reported as indeterminate.
"""

from iwasawa_kernel.algebra import build_quotient
from iwasawa_kernel.charts import heisenberg_chart
from iwasawa_kernel.mahler import AutomorphismSpec, q_growth

P = 3


def show(label, Q, phi, m_range):
    """The q-series on the g2 and g3 axes; Q.N fixes the regime."""
    print(label)
    table = q_growth(phi, m_range, Q)
    for axis in (1, 2):
        vals = table[axis]
        cells = ", ".join(f"v(q_{m})={v}" for m, v in zip(m_range, vals))
        print(f"  axis g{axis + 1}: {cells}")


def main():
    chart = heisenberg_chart(P)
    phi = AutomorphismSpec.conjugation(chart, chart.generators[0], name="conj-g1")

    Q0 = build_quotient(chart, 4, 6, size_budget=10**7, verify=False)
    show("characteristic 0 (N = 6, level 4): affine growth", Q0, phi, range(3))

    Qp = build_quotient(chart, 2, 1, verify=False)
    show("characteristic p (N = 1, level 2): p-power growth", Qp, phi, range(2))


if __name__ == "__main__":
    main()
