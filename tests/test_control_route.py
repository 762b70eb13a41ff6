"""Control lattices from ranks of column projections against the
per-coset route, and the skipping sweep against the full nested one.

``control_route`` holds the implementations the package used before: the
intersection I ∩ KU re-derived from all of I with a second echelon pass,
the spin of I ∩ KU to a fixed point under the generators of U, one Howell
rank per U-coset, and the nested sweep that took I ∩ KU_e from a larger
subgroup's with one reordered Howell pass.  The new lattice must agree
verdict for verdict.  At every point it evaluates, rank_log(I) minus the
rank of the projection of I off U must be the rank of I ∩ KU from the
re-echelon route (the sequence 0 -> I ∩ KU -> I -> π_{Q∖U}(I) -> 0 is
exact), and the rank of the projection onto KU that of its Howell form.
The subgroup images read from the power columns and the array-compared
centre must equal the scalar-product search on every stage with
|Q| <= 729, and each grid and compatibility verdict, now one `mult_array`
batch, the column lookups that gave them before and a closure of the grid
under products.  On those stages `linalg.projection_rank_log`, which peels
the unit pivots a projection keeps, must equal `span_rank_log` of the
projected rows for every lattice mask and the mask off the centre, and a
lattice hands the forward elimination only the rows it does not peel.

The sweep evaluates only the lattice points that the down-set and join
closure of the controlling set leave open; on seeded ideals its lattice
must equal the full nested sweep's and {e <= controller_estimate}, and it
must raise when a patched predicate breaks agreement or join closure, or
a patched rank breaks 0 <= rank(I ∩ KU) <= rank(π_U(I)) or
0 <= j_ideal_rank <= N·|Z|.
"""

import random
from functools import lru_cache
from itertools import product

import numpy as np
import pytest

import control_route as ref
from stages import filiform, small_stage_ideals, stages_up_to_729
from iwasawa_kernel import control, linalg
from iwasawa_kernel.algebra import (
    AlgebraElement,
    QuotientGroup,
    b_element,
    b_monomial,
    build_quotient,
    ideal_closure,
)
from iwasawa_kernel.charts import (
    abelian_chart,
    builtin_chart,
    cyclic_chart,
    heisenberg_chart,
)
from iwasawa_kernel.control import (
    centre_indices,
    control_lattice,
    controller_estimate,
    is_controlled,
    j_ideal_rank,
)
from iwasawa_kernel.errors import InvariantViolation, ValidationError

P = 3


def random_gen(rng, Q, scale=1):
    """Three random group elements with random coefficients, drawn as
    acceptance criterion 8 draws them."""
    return AlgebraElement(
        Q,
        {rng.randrange(Q.size): scale * rng.randrange(1, P**Q.N) for _ in range(3)},
    )


def cases():
    small = small_stage_ideals()
    out = [(name, Q, gens, "right") for name, Q, gens in small]
    # one random ideal per stage, inside the augmentation ideal: a random
    # generator is almost always a unit and generates the whole algebra
    rng = random.Random(5)
    stages = {id(Q): (name.rsplit("-", 1)[0], Q) for name, Q, _ in small}
    for name, Q in stages.values():
        x = random_gen(rng, Q)
        x = x - AlgebraElement.one(Q).scale(sum(x.coeffs.values()))
        out.append((f"{name}-random", Q, [x], "right"))
    # the two-sided ideal of test_algebra
    Q = build_quotient(heisenberg_chart(P), 1, 2)
    out.append(("heisenberg-n1-N2-two-sided", Q, [b_element(Q, 0)], "two-sided"))
    return out


def criterion_8_large_ideals():
    """The two random |Q| = 729 ideals of acceptance criterion 8, replaying
    its draws on the smaller stages first."""
    rng = random.Random(17)
    charts = {
        "cyclic": cyclic_chart(P),
        "abelian2": abelian_chart(P, 2),
        "heisenberg": heisenberg_chart(P),
    }
    for name, chart in charts.items():
        for n in (1, 2):
            if name == "heisenberg" and n == 2:
                continue
            Q = build_quotient(chart, n, 2)
            for _ in range(9):
                random_gen(rng, Q)
    heis2 = build_quotient(charts["heisenberg"], 2, 2)
    return [
        ("heisenberg-n2-N2-random", heis2, [random_gen(rng, heis2)], "right"),
        ("heisenberg-n2-N2-random-p", heis2, [random_gen(rng, heis2, P)], "right"),
    ]


CASES = cases()
LARGE = criterion_8_large_ideals()


def mask(Q, members):
    inside = np.zeros(Q.size, dtype=bool)
    inside[members] = True
    return inside


def recorded_lattice(I, monkeypatch):
    """control_lattice(I), plus the (I, mask) of each is_controlled it
    calls, keyed by the lattice point whose grid the mask holds."""
    Q = I.quotient
    points = {}
    for e in product(range(Q.n + 1), repeat=Q.dim):
        members = ref.grid(Q, e)
        if members is not None:
            points[mask(Q, members).tobytes()] = e
    seen = {}

    def record(I, inside):
        seen[points[inside.tobytes()]] = I, inside
        return is_controlled(I, inside)

    monkeypatch.setattr(control, "is_controlled", record)
    return control_lattice(I), seen


@pytest.mark.parametrize(
    "Q, gens, side", [c[1:] for c in CASES + LARGE], ids=[c[0] for c in CASES + LARGE]
)
def test_lattice_matches_per_coset_route(Q, gens, side, monkeypatch):
    I = ideal_closure(gens, side=side, quotient=Q)
    got, seen = recorded_lattice(I, monkeypatch)
    assert got == ref.control_lattice(I)
    # the sweep evaluates only the points the theorem leaves open
    assert set(seen) <= set(got)
    p, N = Q.p, Q.N
    dense = I.rows.toarray()
    for e, (J, inside) in seen.items():
        assert J is I
        members = np.flatnonzero(inside)
        outside = np.setdiff1d(np.arange(Q.size), members)
        # exactness of 0 -> I ∩ KU -> I -> π_{Q∖U}(I) -> 0, against I ∩ KU
        # from the re-echelon route
        inner = ref._subalgebra_restriction(I, set(members.tolist()))
        assert I.rank_log - linalg.span_rank_log(dense[:, outside], p, N) == ref._rank_log(
            inner, p, N
        ), e
        # the rank of π_U(I), against its Howell form
        projection = ref.project_dense(dense, members, p, N)
        assert linalg.span_rank_log(dense[:, members], p, N) == ref._rank_log(
            projection, p, N
        ), e


def test_single_point_matches_lattice():
    # the public entry computes I ∩ KU from I itself
    Q = build_quotient(heisenberg_chart(P), 1, 2)
    I = ideal_closure([random_gen(random.Random(3), Q)], side="right", quotient=Q)
    lattice = control_lattice(I)
    for e, verdicts in lattice.items():
        assert is_controlled(I, mask(Q, ref.grid(Q, e))) == verdicts


def test_left_ideal_rejected():
    # only right and two-sided closures exist
    Q = build_quotient(heisenberg_chart(P), 1, 2)
    with pytest.raises(ValidationError, match="unknown side 'left'"):
        ideal_closure([b_element(Q, 0)], side="left", quotient=Q)


def test_origin_must_control(monkeypatch):
    # U = Q controls every ideal; a lattice saying otherwise is a fault
    Q = build_quotient(heisenberg_chart(P), 1, 2)
    I = ideal_closure([b_element(Q, 2)], side="right", quotient=Q)
    monkeypatch.setattr(control, "is_controlled", lambda I, inside: (False, False))
    with pytest.raises(InvariantViolation):
        control_lattice(I)


@lru_cache(maxsize=None)
def stage(name, n, N):
    return build_quotient(builtin_chart(name, P), n, N)


SWEEP_STAGES = [
    ("heisenberg", 1, 2),
    ("heisenberg", 1, 3),
    ("heisenberg", 2, 2),
    ("abelian2", 2, 2),
    ("abelian3", 1, 2),
    ("unipotent4", 1, 2),
]


SWEEP_CASES = [(*s, seed) for s in SWEEP_STAGES for seed in range(6)]


def seeded_generator(Q, case):
    """A b-monomial for even seeds; for odd seeds a random element with 1-3
    terms moved into the augmentation ideal, where it rarely generates the
    whole algebra.  The draws are seeded by the whole case."""
    seed = case[-1]
    rng = random.Random("-".join(map(str, case)))
    if seed % 2 == 0:
        return b_monomial(Q, [rng.randrange(3) for _ in range(Q.dim)])
    x = AlgebraElement(
        Q,
        {rng.randrange(Q.size): rng.randrange(1, P**Q.N) for _ in range(rng.randint(1, 3))},
    )
    return x - AlgebraElement.one(Q).scale(sum(x.coeffs.values()))


@pytest.mark.parametrize(
    "case", SWEEP_CASES, ids=["{}-n{}-N{}-{}".format(*c) for c in SWEEP_CASES]
)
def test_sweep_matches_full_nested_sweep(case):
    Q = stage(*case[:3])
    I = ideal_closure([seeded_generator(Q, case)], side="right", quotient=Q)
    got = control_lattice(I)
    assert got == ref.nested_lattice(I)
    top = controller_estimate(I, got)
    assert got == {
        e: (all(a <= b for a, b in zip(e, top)),) * 2 for e in got
    }


@pytest.mark.parametrize(
    "name, n, gens, most, size",
    [
        ("heisenberg", 2, [(0, 0, 1)], 8, 23),
        ("heisenberg", 2, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3, 23),
        ("abelian2", 3, [(3, 0)], 5, 16),
    ],
    ids=["heis-central", "heis-augmentation", "abelian2-b30"],
)
def test_sweep_evaluates_few_points(name, n, gens, most, size, monkeypatch):
    Q = stage(name, n, 2)
    I = ideal_closure([b_monomial(Q, a) for a in gens], side="right", quotient=Q)
    lattice, seen = recorded_lattice(I, monkeypatch)
    assert len(lattice) == size
    assert len(seen) <= most


def test_lattice_reads_the_columns_once_per_exponent_vector(monkeypatch):
    # each exponent vector's grid and compatibility are read once; the
    # evaluated points and the final join (2, 2, 0) build their masks from
    # the stored grid
    Q = stage("heisenberg", 2, 2)
    I = ideal_closure([b_monomial(Q, (0, 0, 1))], side="right", quotient=Q)
    lookups = []
    columns = QuotientGroup.columns
    monkeypatch.setattr(QuotientGroup, "columns", lambda Q: lookups.append(Q) or columns(Q))
    assert controller_estimate(I, control_lattice(I)) == (2, 2, 0)
    assert len(lookups) == (Q.n + 1) ** Q.dim == 27


def test_disagreeing_verdicts_raise(monkeypatch):
    Q = build_quotient(heisenberg_chart(P), 1, 2)
    I = ideal_closure([b_element(Q, 2)], side="right", quotient=Q)
    monkeypatch.setattr(control, "is_controlled", lambda I, inside: (True, False))
    with pytest.raises(InvariantViolation, match="verdicts disagree at lattice point"):
        control_lattice(I)


def test_join_that_does_not_control_raises(monkeypatch):
    # (0,1) and (1,0) control but their join (1,1) does not: the sweep
    # fills (1,1) from the join without evaluating it, and the final
    # evaluation of the join catches the contradiction
    Q = build_quotient(abelian_chart(P, 2), 1, 2)
    I = ideal_closure([b_element(Q, 0)], side="right", quotient=Q)

    def patched(I, inside):
        # |U_e| = 9 / 3^|e|, so |e| <= 1 holds at |U| >= 3
        controls = np.count_nonzero(inside) >= 3
        return controls, controls

    monkeypatch.setattr(control, "is_controlled", patched)
    with pytest.raises(InvariantViolation, match="join"):
        control_lattice(I)


def test_intersection_above_projection_raises(monkeypatch):
    # with every projection of rank 0, I ∩ KU would be all of I, which is
    # more than its projection onto KU holds
    Q = build_quotient(heisenberg_chart(P), 1, 2)
    I = ideal_closure([b_element(Q, 2)], side="right", quotient=Q)
    monkeypatch.setattr(linalg, "projection_rank_log", lambda rows, keep, p, N: 0)
    with pytest.raises(InvariantViolation, match=r"rank_log\(I ∩ KU\) = 36 with \|U\| = 3 "):
        is_controlled(I, mask(Q, ref.grid(Q, (1, 1, 0))))
    with pytest.raises(InvariantViolation, match="the projection onto KU"):
        control_lattice(I)


def test_j_ideal_rank_above_centre_raises(monkeypatch):
    # a projection off the centre ranked above all of I would make
    # (KZ + I)/I larger than KZ
    Q = build_quotient(heisenberg_chart(P), 1, 2)
    I = ideal_closure([b_element(Q, 2)], side="right", quotient=Q)
    assert j_ideal_rank(I) == 2
    monkeypatch.setattr(linalg, "projection_rank_log", lambda rows, keep, p, N: I.rank_log + 1)
    with pytest.raises(InvariantViolation, match=r"j_ideal_rank 7 lies outside \[0, N·\|Z\|\] = \[0, 6\]"):
        j_ideal_rank(I)


STAGES = stages_up_to_729()


@pytest.mark.parametrize("Q", [s[1] for s in STAGES], ids=[s[0] for s in STAGES])
def test_projection_ranks_match_span_rank_of_projection(Q):
    # every lattice mask, inside and off U, and the mask off the centre, on
    # an ideal whose Howell form has unit and non-unit pivots
    gens = [b_monomial(Q, (0,) * (Q.dim - 1) + (2,)), b_element(Q, 0).scale(P)]
    I = ideal_closure(gens, side="right", quotient=Q)
    units = linalg.unit_pivots(I.rows, P)
    assert units.any() and not units.all()
    dense = I.rows.toarray()
    masks = []
    for e in product(range(Q.n + 1), repeat=Q.dim):
        inside = mask(Q, Q.lattice_grid(e)[0])
        masks += [inside, ~inside]
    off = np.ones(Q.size, dtype=bool)
    off[centre_indices(Q)] = False
    for keep in masks + [off]:
        want = linalg.span_rank_log(dense[:, keep], P, Q.N)
        assert linalg.projection_rank_log(I.rows, keep, P, Q.N) == want


def test_lattice_eliminates_only_the_rows_without_a_kept_unit_pivot(monkeypatch):
    # heis_central_ideal at level 2: the 16 projections of the 8 evaluated
    # points hand 16 x 648 rows to the forward elimination when no unit
    # pivot is peeled, and 162 when every kept one is
    Q = stage("heisenberg", 2, 2)
    I = ideal_closure([b_monomial(Q, (0, 0, 1))], side="right", quotient=Q)
    assert I.rows.shape[0] == 648
    seen = []
    span_rank_log = linalg.span_rank_log

    def spy(mat, p, N):
        seen.append(int(np.count_nonzero(np.diff(mat.indptr))))
        return span_rank_log(mat, p, N)

    monkeypatch.setattr(linalg, "span_rank_log", spy)
    assert controller_estimate(I, control_lattice(I)) == (2, 2, 0)
    assert len(seen) == 16 and sum(seen) == 162


@pytest.mark.parametrize("Q", [s[1] for s in STAGES], ids=[s[0] for s in STAGES])
def test_subgroup_members_match_search(Q):
    # every exponent vector, the incompatible ones included
    incompatible = 0
    for e in product(range(Q.n + 1), repeat=Q.dim):
        members, compatible = Q.lattice_grid(e)
        assert members.dtype == np.int64
        try:
            want = ref.subgroup_elements(Q, e)
        except ValidationError:
            incompatible += 1
            assert ref.grid_leaving_generator(Q, e) is not None
            assert not compatible
            continue
        assert ref.grid_leaving_generator(Q, e) is None
        assert members.tolist() == sorted(want)
        assert compatible
    if Q.chart.name == "heisenberg" and Q.n == 2:
        assert incompatible > 0


@pytest.mark.parametrize("name, n", [
    ("heisenberg", 1), ("heisenberg", 2), ("heisenberg", 3), ("abelian2", 3),
    ("unipotent4", 1), ("cyclic", 3), ("filiform", 1),
])
def test_lattice_grid_matches_the_column_route(name, n):
    # the grid and verdict of every exponent vector against one column lookup
    # per generator, and the verdict against the closure of the grid under
    # products: by all of it up to 729 points, and above that by its points
    # on one axis, which generate the same subgroup
    chart = filiform(5) if name == "filiform" else builtin_chart(name, P)
    Q = build_quotient(chart, n, 2)
    assert Q.dense
    verdicts = []
    for e in product(range(n + 1), repeat=Q.dim):
        grid, compatible = Q.lattice_grid(e)
        want_grid, want = ref.lattice_grid_by_columns(Q, e)
        assert grid.tolist() == want_grid.tolist() and compatible == want, e
        by = grid if grid.size <= 729 else grid[np.count_nonzero(Q.coords_array(grid), axis=1) <= 1]
        closed = ref.product_closure(Q, grid, by)
        assert compatible == (closed.tolist() == grid.tolist()), e
        verdicts.append(compatible)
    # only the heisenberg and filiform stages have grids that are no subgroup
    assert all(verdicts) == (name not in ("heisenberg", "filiform"))


@pytest.mark.parametrize("Q", [s[1] for s in STAGES], ids=[s[0] for s in STAGES])
def test_centre_matches_scalar_loop(Q):
    assert centre_indices(Q) == ref.centre_indices(Q)
