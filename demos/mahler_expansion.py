"""Mahler expansion of an inner automorphism of the Heisenberg group.

Conjugation by g1 acts on the stage (Z/81)[G/G^9] of the Heisenberg group
ring.  We compute its Mahler coefficient table, check the factorization
criterion both by the closed formula and by the commutation test, and then
watch the truncated expansion converge: the residual weight of
phi(x) - sum_{|alpha|<=D} m_alpha ∂^(alpha) x climbs to the precision
floor as the degree cap D grows.
"""

from iwasawa_kernel.algebra import AlgebraElement, build_quotient, lazard_value
from iwasawa_kernel.charts import heisenberg_chart
from iwasawa_kernel.mahler import (
    AutomorphismSpec,
    aut_mahler_coeffs,
    expand_aut,
    is_mahler_aut,
)

P = 3


def main():
    chart = heisenberg_chart(P)
    Q = build_quotient(chart, 2, 4)  # |Q| = 729, coefficients mod 81, floor 3
    phi = AutomorphismSpec.conjugation(chart, chart.generators[0], name="conj-g1")
    print("homomorphism check:", phi.verify_homomorphism(Q))

    by_formula, by_commutation, _ = is_mahler_aut(phi, Q, 3)
    print(f"Mahler factorization: by_formula={by_formula} "
          f"by_commutation={by_commutation}")

    table = aut_mahler_coeffs(phi, Q, 6)
    print(f"coefficient table: {len(table.entries)} nonzero entries up to |alpha|=6")
    for alpha in sorted(table.entries, key=sum)[:5]:
        m = table.entries[alpha]
        print(f"  m_{alpha}: support size {len(m.coeffs)}")

    x = AlgebraElement.group_element(Q, Q.index((0, 1, 0)))  # the g2 axis
    print("residual weight of the truncation at x = g2:")
    for degree in range(0, 10, 2):
        _, res = expand_aut(phi, x, degree)
        print(f"  D={degree}: w(residual) {res}")
    exact = lazard_value(phi.apply_element(x) - x)
    print("for reference, w(phi(x) - x) =", exact)


if __name__ == "__main__":
    main()
