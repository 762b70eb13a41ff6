"""The automorphism layer's array passes against the scalar routes of
``mahler_route``: Mahler tables, the factorization criterion, truncated
expansions, the sparse homomorphism check and the growth table.  The
triple kernel behind `mahler_coeffs` is checked against the dict-grid
differencing of ``mahler_route.coeffs_by_dicts`` on scalar and
algebra-valued functions.

The specs are the three ``inputs/`` automorphisms and the 79 other inner
automorphisms of the Heisenberg chart that the mahler-729 benchmark draws
from, at levels 1 and 2 (level 1 has radix 3 < D, so the p^n-periodic wrap
of beta -> phi(g^beta) g^{-beta} is covered) and degrees 0 to 6.
"""

import itertools
import math
import random
from pathlib import Path

import pytest

import mahler_route as ref
from iwasawa_kernel.algebra import AlgebraElement, build_quotient
from iwasawa_kernel.charts import GroupChart, cyclic_chart, heisenberg_chart
from iwasawa_kernel.cli import main
from iwasawa_kernel.errors import PrecisionError
from iwasawa_kernel.mahler import (
    AutomorphismSpec,
    aut_mahler_coeffs,
    expand_aut,
    is_mahler_aut,
    mahler_coeffs,
    q_growth,
)
from iwasawa_kernel.presentation import load_presentation

P = 3
DEGREE = 6
ROOT = Path(__file__).resolve().parents[1]
CHART = heisenberg_chart(P)


def input_spec(stem):
    doc = load_presentation(str(ROOT / "inputs" / f"{stem}.txt"))
    return doc.automorphism(CHART)


def inner(a, b):
    """Conjugation by g1^a g2^b: g1 -> g1 g3^-b, g2 -> g2 g3^a, g3 fixed."""
    words = [(1, 0, -b), (0, 1, a), (0, 0, 1)]
    return AutomorphismSpec.from_words(CHART, words, name=f"inner-{a}-{b}")


INPUTS = ["heis_id", "heis_conj", "heis_swap"]
# (0, 0) is heis_id and (1, 0) is heis_conj
INNER = [(a, b) for a in range(P**2) for b in range(P**2) if (a, b) not in ((0, 0), (1, 0))]
SPECS = [(stem, lambda stem=stem: input_spec(stem)) for stem in INPUTS] + [
    (f"inner-{a}-{b}", lambda a=a, b=b: inner(a, b)) for a, b in INNER
]


@pytest.fixture(scope="module")
def stages():
    return {n: build_quotient(CHART, n, 2) for n in (1, 2)}


def truncated(table, degree):
    return (
        {a: m for a, m in table.entries.items() if sum(a) <= degree},
        table.decay_log[: degree + 1],
    )


def test_spec_count():
    assert len(SPECS) == 82


@pytest.mark.parametrize("make", [s[1] for s in SPECS], ids=[s[0] for s in SPECS])
def test_tables_criterion_and_expansions_match_scalar_routes(stages, make):
    phi = make()
    rng = random.Random(5)
    for n, Q in stages.items():
        # m_alpha reads f only at beta <= alpha, so the degree-6 table of the
        # dict route holds the one of every lower degree
        want = ref.table_by_dicts(phi, Q, DEGREE)
        mismatches = ref.formula_mismatches(phi, Q, want, DEGREE)
        commutes = ref.by_commutation(phi, Q)
        for degree in range(DEGREE + 1):
            table = aut_mahler_coeffs(phi, Q, degree)
            assert (table.entries, table.decay_log) == truncated(want, degree)
            assert list(table.entries) == sorted(table.entries)
            # the formula is compared through shell 2 at least
            shells = max(degree, 2)
            witness = next((a for a in mismatches if sum(a) <= shells), None)
            got = is_mahler_aut(phi, Q, degree, table)
            assert got == (witness is None, commutes, witness)
            assert got[0] == got[1]
        x = AlgebraElement(Q, {rng.randrange(Q.size): 1 + rng.randrange(8) for _ in range(3)})
        for degree in (0, 1, 3, DEGREE):
            assert expand_aut(phi, [x], degree, want)[0][degree] == ref.expand_by_divided_powers(
                phi, x, degree, want
            )


def test_expansion_builds_its_own_table(stages):
    Q = stages[2]
    phi = input_spec("heis_swap")
    x = AlgebraElement.group_element(Q, Q.index((4, 7, 2)))
    for degree in range(4):
        want = ref.table_by_dicts(phi, Q, degree)
        assert expand_aut(phi, [x], degree)[0][degree] == ref.expand_by_divided_powers(
            phi, x, degree, want
        )
    zero = AlgebraElement.zero(Q)
    assert expand_aut(phi, [zero], 2)[0][2] == ref.expand_by_divided_powers(
        phi, zero, 2, ref.table_by_dicts(phi, Q, 2)
    )


def test_python_int_paths():
    # at degree 70 the weights stay int64 residues mod 9, where unreduced
    # they would pass 2^63; 3^25 squared is beyond int64, so the table and
    # the expansion at N = 25 run on Python ints
    chart = cyclic_chart(P)
    Q = build_quotient(chart, 2, 2)
    square = AutomorphismSpec.from_words(chart, [(2,)], name="square")
    want = ref.table_by_dicts(square, Q, 70)
    table = aut_mahler_coeffs(square, Q, 70)
    assert (table.entries, table.decay_log) == (want.entries, want.decay_log)
    Q = build_quotient(CHART, 1, 25)
    phi = input_spec("heis_swap")
    want = ref.table_by_dicts(phi, Q, 4)
    table = aut_mahler_coeffs(phi, Q, 4)
    assert (table.entries, table.decay_log) == (want.entries, want.decay_log)
    x = AlgebraElement(Q, {5: 3**24 + 7, 11: 2})
    assert expand_aut(phi, [x], 4, table)[0][4] == ref.expand_by_divided_powers(phi, x, 4, want)
    # q = 3^40 >= 2^63 does not fit in int64 itself (3^39 does), so the
    # differencing weights are Python ints even at degree 2
    Q = build_quotient(CHART, 1, 40)
    for stem in INPUTS:
        phi = input_spec(stem)
        want = ref.table_by_dicts(phi, Q, 2)
        table = aut_mahler_coeffs(phi, Q, 2)
        assert (table.entries, table.decay_log) == (want.entries, want.decay_log)


def test_every_truncation_matches_divided_powers(stages):
    # one call returns the expansion at each degree 0 .. D
    rng = random.Random(11)
    for Q in stages.values():
        for stem in INPUTS:
            phi = input_spec(stem)
            want = ref.table_by_dicts(phi, Q, DEGREE)
            x = AlgebraElement(Q, {rng.randrange(Q.size): 1 + rng.randrange(8) for _ in range(3)})
            steps = expand_aut(phi, [x], DEGREE, want)[0]
            assert len(steps) == DEGREE + 1
            for d, step in enumerate(steps):
                assert step == ref.expand_by_divided_powers(phi, x, d, want)


def test_lower_degree_table_is_recomputed(stages):
    # a table below the asked degree is rebuilt, not read as a truncation
    Q = stages[2]
    phi = input_spec("heis_swap")
    x = AlgebraElement.group_element(Q, Q.index((4, 7, 2)))
    want = ref.expand_by_divided_powers(phi, x, DEGREE, ref.table_by_dicts(phi, Q, DEGREE))
    low = aut_mahler_coeffs(phi, Q, 2)
    assert ref.expand_by_divided_powers(phi, x, DEGREE, low)[0] != want[0]
    assert expand_aut(phi, [x], DEGREE, low)[0][DEGREE] == want
    assert expand_aut(phi, [x], DEGREE, low) == expand_aut(phi, [x], DEGREE)


def polynomial(rng, dim, q):
    """A seeded integer polynomial on N^dim: up to four monomials of degree
    at most 3 per variable, with coefficients in (-q, q)."""
    terms = [
        ([rng.randrange(4) for _ in range(dim)], rng.randrange(-q + 1, q))
        for _ in range(rng.randint(1, 4))
    ]

    def f(beta):
        beta = (beta,) if dim == 1 else beta
        return sum(c * math.prod(b**e for b, e in zip(beta, exps)) for exps, c in terms)

    return f


def same_table(got, want):
    return (got.dim, got.degree, got.entries, got.decay_log) == (
        want.dim, want.degree, want.entries, want.decay_log
    )


def test_scalar_coeffs_match_dict_route():
    # two seeded polynomials for each of the 108 (dim, degree, N)
    rng = random.Random(17)
    for dim, degree, N in itertools.product((1, 2, 3), range(9), range(1, 5)):
        for _ in range(2):
            f = polynomial(rng, dim, P**N)
            assert same_table(
                mahler_coeffs(f, dim, degree, P, N), ref.coeffs_by_dicts(f, dim, degree, P, N)
            )


@pytest.mark.parametrize("stem", INPUTS)
def test_algebra_valued_coeffs_match_dict_route(stages, stem):
    phi = input_spec(stem)
    for Q in stages.values():
        f = ref.aut_periodic_f(phi, Q)
        for degree in range(DEGREE + 1):
            want = ref.coeffs_by_dicts(f, Q.dim, degree, Q.p, Q.N)
            assert same_table(mahler_coeffs(f, Q.dim, degree, Q.p, Q.N), want)


def test_multi_term_algebra_values_match_dict_route(stages):
    # values with several terms, coefficients other than 1 and some zeros
    rng = random.Random(29)
    Q = stages[1]
    for dim, degree in itertools.product((1, 2, 3), (0, 3, 6)):
        values = {}

        def f(beta):
            if beta not in values:
                values[beta] = AlgebraElement(
                    Q, {rng.randrange(Q.size): rng.randrange(Q.coeff_mod)
                        for _ in range(rng.randrange(4))}
                )
            return values[beta]

        want = ref.coeffs_by_dicts(f, dim, degree, Q.p, Q.N)
        assert same_table(mahler_coeffs(f, dim, degree, Q.p, Q.N), want)


def test_scalar_dtype_rule_both_sides():
    # q = 3^40 > 2^63: the weights start beyond int64
    rng = random.Random(31)
    for dim, degree in itertools.product((1, 2, 3), (0, 2, 5)):
        f = polynomial(rng, dim, P**40)
        assert same_table(
            mahler_coeffs(f, dim, degree, P, 40), ref.coeffs_by_dicts(f, dim, degree, P, 40)
        )
    # residues mod q = 3^19 multiply within int64 and those mod 3^20 do not,
    # so the weights are int64 at N = 19 and Python ints at N = 20;
    # alternating values q - 1 and 0 make products near (q - 1)^2
    for N in (19, 20):
        q = P**N
        assert ((q - 1) ** 2 < 2**63) == (N == 19)
        for dim, degree in itertools.product((1, 2, 3), range(3, 9)):
            def f(beta, dim=dim, q=q):
                return (q - 1) * (sum((beta,) if dim == 1 else beta) % 2)

            for g in (f, polynomial(rng, dim, q)):
                assert same_table(
                    mahler_coeffs(g, dim, degree, P, N), ref.coeffs_by_dicts(g, dim, degree, P, N)
                )


def test_degree_70_residues_match_dict_routes():
    # unreduced, the weights of a degree-70 pass would reach 9 * 2^70, beyond
    # int64; as residues mod 9 they stay int64.  beta -> phi(g^beta) g^{-beta}
    # is 3-periodic at level 1, and on such functions (T - 1)^3 = -3T(T - 1),
    # so (T - 1)^6 = 9T^2(T - 1)^2 vanishes mod 9 along every axis: no
    # coefficient has an alpha_i >= 6, and the dict route at degree 15 holds
    # the whole table (at degree 70 it takes over ten seconds)
    Q = build_quotient(CHART, 1, 2)
    phi = input_spec("heis_conj")
    want = ref.table_by_dicts(phi, Q, 15)
    table = aut_mahler_coeffs(phi, Q, 70)
    assert (table.entries, table.decay_log) == (want.entries, want.decay_log + [None] * 55)
    # seeded residues mod 9 on the stage's coordinates vanish nowhere, so
    # every shell through 70 is compared
    rng = random.Random(70)
    values = {}

    def f(beta):
        if beta not in values:
            values[beta] = rng.randrange(Q.coeff_mod)
        return values[beta]

    assert same_table(
        mahler_coeffs(f, Q.dim, 70, Q.p, Q.N), ref.coeffs_by_dicts(f, Q.dim, 70, Q.p, Q.N)
    )


@pytest.fixture(scope="module")
def sparse_stage():
    # |Q| = 3^12 is above the dense limit: no index arrays, chart solves only
    return build_quotient(CHART, 4, 6, size_budget=10**7, verify=False)


def broken():
    # fixing g1 and g2 but moving the commutator g3 is inconsistent
    return AutomorphismSpec.from_words(CHART, [(1, 0, 0), (0, 1, 0), (1, 0, 1)], name="broken")


def shear():
    return AutomorphismSpec.from_words(CHART, [(1, 0, 0), (1, 1, 0), (1, 0, 1)], name="shear")


@pytest.mark.parametrize(
    "make, expect",
    [
        (lambda: input_spec("heis_id"), True),
        (lambda: input_spec("heis_conj"), True),
        (lambda: input_spec("heis_swap"), True),
        (lambda: inner(5, 7), True),
        (broken, False),
        (shear, False),
    ],
    ids=["heis_id", "heis_conj", "heis_swap", "inner-5-7", "broken", "shear"],
)
def test_sparse_homomorphism_check_matches_pairs(sparse_stage, make, expect):
    Q = sparse_stage
    assert not Q.dense
    phi = make()
    assert phi.verify_homomorphism(Q) == ref.verify_by_pairs(phi, Q) == expect
    assert Q._columns is None


def test_sparse_table_criterion_and_expansion(sparse_stage):
    Q = sparse_stage
    for stem in INPUTS:
        phi = input_spec(stem)
        want = ref.table_by_dicts(phi, Q, 2)
        table = aut_mahler_coeffs(phi, Q, 2)
        assert (table.entries, table.decay_log) == (want.entries, want.decay_log)
        witness = next(iter(ref.formula_mismatches(phi, Q, want, 2)), None)
        assert is_mahler_aut(phi, Q, 1, table) == (
            witness is None, ref.by_commutation(phi, Q), witness
        )
        x = AlgebraElement(Q, {Q.index((40, 2, 77)): 5, Q.index((3, 80, 9)): 1})
        assert expand_aut(phi, [x], 2, table)[0][2] == ref.expand_by_divided_powers(
            phi, x, 2, want
        )


@pytest.mark.parametrize("dense", [True, False], ids=["dense", "sparse"])
@pytest.mark.parametrize("stem", ["heis_conj", "heis_swap"])
def test_one_pass_expands_every_element(stages, sparse_stage, dense, stem):
    # two group elements, a multi-term element, the zero element and a
    # duplicate, expanded together: each as the divided powers alone give it
    Q, degree = (stages[2], DEGREE) if dense else (sparse_stage, 2)
    phi = input_spec(stem)
    want = ref.table_by_dicts(phi, Q, degree)
    g, h = Q.index((4, 7, 2)), Q.index((1, 2, 5))
    multi = AlgebraElement(Q, {g: 5, h: 1, Q.index((3, 0, 8)): Q.coeff_mod - 2})
    xs = [AlgebraElement.group_element(Q, g), multi, AlgebraElement.zero(Q),
          AlgebraElement.group_element(Q, h), multi]
    got = expand_aut(phi, xs, degree, want)
    assert got == [
        [ref.expand_by_divided_powers(phi, x, d, want) for d in range(degree + 1)] for x in xs
    ]
    assert expand_aut(phi, [], degree, want) == []


@pytest.fixture
def solves(monkeypatch):
    """The batch size of every chart coordinate solve."""
    calls = []
    real = GroupChart._coordinates
    monkeypatch.setattr(GroupChart, "_coordinates",
                        lambda chart, gs, prec: calls.append(len(gs)) or real(chart, gs, prec))
    return calls


def test_sparse_homomorphism_check_takes_two_solves(sparse_stage, solves):
    # the products ab, then phi(ab) stacked on phi(a) phi(b)
    assert input_spec("heis_conj").verify_homomorphism(sparse_stage)
    assert solves == [20, 40]


def test_a_power_starts_from_the_images(solves):
    # phi^3: the images at the lowest bit cost nothing, then one squaring
    # and one product
    phi = input_spec("heis_conj")
    cube = phi.power(3)
    assert len(solves) == 2
    assert cube.images == phi.compose(phi.compose(phi)).images


def test_growth_takes_nine_solves_above_the_dense_limit(solves, capsys):
    # verification 2, the chain phi^3, phi^9 2 + 2, then for all three axes at
    # once the generators' coordinates, the compared approximants and the powers
    argv = ["growth", str(ROOT / "inputs" / "heis_conj.txt"), "--level", "4",
            "--coeff-prec", "6", "--m-max", "2", "--regime", "char0",
            "--size-budget", "10000000"]
    assert main(argv) == 0
    assert "axis g2: m=0:2 m=1:3 m=2:4" in capsys.readouterr().out
    assert solves == [20, 40, 3, 3, 3, 3, 3, 6, 9]


GROWTH = [
    # (level, N, regime, m_range)
    (2, 3, "char0", range(3)),
    (2, 1, "charp", range(2)),
    (4, 6, "char0", range(3)),
    (4, 1, "charp", range(2)),
]


@pytest.mark.parametrize("level, N, regime, m_range", GROWTH)
@pytest.mark.parametrize("stem", ["heis_conj", "heis_id", "inner-4-2"])
def test_growth_matches_powers_in_the_algebra(level, N, regime, m_range, stem):
    phi = inner(4, 2) if stem == "inner-4-2" else input_spec(stem)
    Q = build_quotient(CHART, level, N, size_budget=10**7, verify=False)
    assert q_growth(phi, m_range, Q) == [
        ref.q_growth_by_powers(phi, i, m_range, regime, Q) for i in range(Q.dim)
    ]


def test_growth_failure_is_the_same():
    phi = input_spec("heis_swap")
    Q = build_quotient(CHART, 2, 3)
    with pytest.raises(PrecisionError) as new:
        q_growth(phi, range(2), Q)
    with pytest.raises(PrecisionError) as old:
        ref.q_growth_by_powers(phi, 0, range(2), "char0", Q)
    assert str(new.value) == str(old.value)
