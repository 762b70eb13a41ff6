"""The one-kernel Lie layer against the two-algorithm route of
``lie_route``, on seeded random presentations.

Half the presentations send [x_i, x_j] (i < j) only to basis vectors x_k
with k > j, so they are nilpotent; the other half send it anywhere, and
many of those are not nilpotent or fail Jacobi.  Constants are integers,
where reading them in Z and in Z_(p) agree, so every `validate` verdict
must match.  Every term of the upper central series must match (or both
routes must reject the presentation), and so must the centralizer of each
term and of random subspaces.
"""

import random

import pytest

import lie_route as ref
from iwasawa_kernel.errors import ValidationError
from iwasawa_kernel.nilpotent import (
    LiePresentation,
    Submodule,
    _canonical_rows,
    centralizer,
    upper_central_series,
    validate,
)

P = 3
COUNT = 250  # per target shape
# multiples of p, and 1 and 2, which fail the p-lattice condition
CONSTANTS = (3, -3, 6, 9, -9, 27, 1, 2)


def random_presentation(rng, upper):
    dim = rng.randint(2, 7)
    pairs = [(i, j) for i in range(1, dim + 1) for j in range(i + 1, dim + 1)]
    triples = []
    for i, j in rng.sample(pairs, rng.randint(0, min(len(pairs), 5))):
        targets = list(range(j + 1, dim + 1) if upper else range(1, dim + 1))
        for k in rng.sample(targets, min(len(targets), rng.randint(1, 2))):
            triples.append((i, j, k, rng.choice(CONSTANTS)))
    return LiePresentation.from_triples(P, dim, rng.randint(1, 4), triples)


def random_subspace(rng, dim):
    rows = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(rng.randint(0, dim))]
    return Submodule(dim, _canonical_rows(rows))


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
