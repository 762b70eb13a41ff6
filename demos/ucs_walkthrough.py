"""Upper central series of a 6-dimensional nilpotent Z_3-Lie lattice.

The lattice has basis x1..x6 with the nonzero brackets

    [x1,x4] = 3 x2   [x1,x5] = 3 x3   [x2,x6] = 3 x3   [x4,x6] = 3 x5

We validate the presentation, which decides nilpotency by computing the
upper central series Z_1 < Z_2 < ..., walk that series, and compute the
centralizer of Z_2, which is the input to the saturated-subalgebra
constructions downstream.
"""

from iwasawa_kernel.nilpotent import (
    LiePresentation,
    centralizer,
    validate,
)


def main():
    L = LiePresentation.from_triples(
        3, 6, 6, [(1, 4, 2, 3), (1, 5, 3, 3), (2, 6, 3, 3), (4, 6, 5, 3)]
    )
    report = validate(L)
    print("presentation valid:", report.ok)

    series = report.series
    for k, Z in enumerate(series[1:], start=1):
        print(f"Z_{k} = {Z.describe()}")
    print("nilpotency class =", len(series) - 1)

    C = centralizer(L, series[2])
    print("C(Z_2) =", C.describe())
    print("corank of C(Z_2):", L.dim - C.dim)


if __name__ == "__main__":
    main()
