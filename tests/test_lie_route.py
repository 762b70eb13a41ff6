"""The integer Lie layer against the two routes of ``lie_route``, on
seeded random presentations.

Half the presentations send [x_i, x_j] (i < j) only to basis vectors x_k
with k > j, so they are nilpotent; the other half send it anywhere, and
many of those are not nilpotent or fail Jacobi.  Constants are integers,
where reading them in Z and in Z_(p) agree, so every `validate` verdict
must match.  Every term of the upper central series must match (or both
routes must reject the presentation), and so must the centralizer of each
term and of random subspaces.

Against the route over Q, the constants are also rationals: with
denominators prime to p (3/2, 9/4), which lie in p·Z_(p), and with p in the
denominator (1/3, 2/9), which do not.  There the table is scaled by a
denominator lcm D, and every verdict rests on the offsets of v_p(D).  So do
the tables of `LiePresentation.rescaled` on random exponents, and
`centraliser_compat`, which rescales by itself.
"""

import random
from fractions import Fraction

import pytest

import lie_route as ref
from iwasawa_kernel.errors import ValidationError
from iwasawa_kernel.nilpotent import (
    LiePresentation,
    Submodule,
    _annihilator,
    centraliser_compat,
    centralizer,
    upper_central_series,
    validate,
)

P = 3
COUNT = 250  # per target shape
# multiples of p, and 1 and 2, which fail the p-lattice condition
CONSTANTS = (3, -3, 6, 9, -9, 27, 1, 2)
RATIONAL_CONSTANTS = {
    "prime-to-p-denominators": CONSTANTS + (Fraction(3, 2), Fraction(9, 4), Fraction(-3, 4)),
    "p-in-denominators": CONSTANTS + (Fraction(3, 2), Fraction(1, 3), Fraction(2, 9)),
}
RATIONAL_COUNT = 150  # per constant set


def random_presentation(rng, upper, constants=CONSTANTS):
    dim = rng.randint(2, 7)
    pairs = [(i, j) for i in range(1, dim + 1) for j in range(i + 1, dim + 1)]
    triples = []
    for i, j in rng.sample(pairs, rng.randint(0, min(len(pairs), 5))):
        targets = list(range(j + 1, dim + 1) if upper else range(1, dim + 1))
        for k in rng.sample(targets, min(len(targets), rng.randint(1, 2))):
            triples.append((i, j, k, rng.choice(constants)))
    return LiePresentation.from_triples(P, dim, rng.randint(1, 4), triples)


def random_subspace(rng, dim):
    rows = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(rng.randint(0, dim))]
    return Submodule(dim, ref._canonical_rows(rows))


def series_or_none(series, L):
    try:
        return series(L)
    except ValidationError:
        return None


@pytest.mark.parametrize("upper", [True, False], ids=["strictly-upper", "arbitrary"])
def test_matches_two_algorithm_route(upper):
    rng = random.Random(11 if upper else 12)
    seen = {"valid": 0, "flagged not nilpotent": 0}
    for _ in range(COUNT):
        L = random_presentation(rng, upper)
        report = validate(L)
        expected = ref.validate(L)
        got = [ref.NOT_NILPOTENT if v.endswith("not nilpotent") else v for v in report.violations]
        assert got == expected
        assert report.ok == (not expected)
        seen["valid"] += report.ok
        seen["flagged not nilpotent"] += ref.NOT_NILPOTENT in expected

        chain = series_or_none(upper_central_series, L)
        assert chain == series_or_none(ref.upper_central_series, L)
        assert (chain is not None) == ref.is_nilpotent(L)
        if not any(v.startswith("Jacobi") for v in expected):
            assert report.series == (chain or [])

        subspaces = list(chain or []) + [random_subspace(rng, L.dim) for _ in range(3)]
        for S in subspaces:
            assert centralizer(L, S) == ref.centralizer(L, S)
    assert seen["valid"] > COUNT // 10
    if not upper:
        assert seen["flagged not nilpotent"] > COUNT // 10


def assert_matches_rational_route(rng, L):
    """Violations, series and centralizers agree with the route over Q;
    returns the report."""
    report = validate(L)
    violations, series = ref.rational_validate(L)
    assert report.violations == violations
    assert report.series == series
    chain = series_or_none(upper_central_series, L)
    assert chain == series_or_none(ref.rational_upper_central_series, L)
    for S in list(chain or []) + [random_subspace(rng, L.dim) for _ in range(2)]:
        assert centralizer(L, S) == ref.rational_centralizer(L, S)
    return report


@pytest.mark.parametrize("name", sorted(RATIONAL_CONSTANTS))
def test_rational_constants_match_rational_route(name):
    rng = random.Random(sorted(RATIONAL_CONSTANTS).index(name) + 21)
    seen = {"valid": 0, "lattice": 0, "Jacobi": 0, "D divisible by p": 0}
    for _ in range(RATIONAL_COUNT):
        L = random_presentation(rng, rng.random() < 0.5, RATIONAL_CONSTANTS[name])
        report = assert_matches_rational_route(rng, L)
        seen["valid"] += report.ok
        seen["lattice"] += any("lattice" in v for v in report.violations)
        seen["Jacobi"] += any(v.startswith("Jacobi") for v in report.violations)
        seen["D divisible by p"] += L._den % P == 0
    assert seen["valid"] > RATIONAL_COUNT // 10
    assert seen["lattice"] > RATIONAL_COUNT // 10
    assert seen["Jacobi"] > 0
    assert (seen["D divisible by p"] > 0) == (name == "p-in-denominators")


def test_rescaled_tables_match_rational_route():
    rng = random.Random(31)
    seen = {"compat checked": 0, "D divisible by p": 0}
    for _ in range(RATIONAL_COUNT):
        L = random_presentation(rng, True)
        exponents = [rng.randint(0, 2) for _ in range(L.dim)]
        U = L.rescaled(exponents)
        seen["D divisible by p"] += U._den % P == 0
        assert_matches_rational_route(rng, U)
        if ref.rational_validate(L)[1]:
            assert centraliser_compat(L, exponents) == ref.rational_centraliser_compat(
                L, exponents
            )
            seen["compat checked"] += 1
    assert min(seen.values()) > 0, seen


def test_annihilator_modulo_random_subspaces_matches_rational_route():
    # the series only ever reduces modulo coordinate subspaces; random
    # subspaces have pivots other than 1, so the images are rescaled by
    # their lcm before the reduction
    rng = random.Random(41)
    seen = {"pivot above 1": 0, "proper": 0}
    for _ in range(RATIONAL_COUNT):
        L = random_presentation(rng, rng.random() < 0.5, RATIONAL_CONSTANTS["p-in-denominators"])
        S, Pmod = random_subspace(rng, L.dim), random_subspace(rng, L.dim)
        got = _annihilator(L, S.rows, Pmod.rows)
        assert got == ref.rational_annihilator(L, S.rows, Pmod.rows)
        seen["pivot above 1"] += any(abs(next(x for x in r if x)) > 1 for r in Pmod.rows)
        seen["proper"] += 0 < got.dim < L.dim
    assert min(seen.values()) > RATIONAL_COUNT // 10, seen
