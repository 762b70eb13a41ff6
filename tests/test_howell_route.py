"""Sparse and live-entry Howell elimination and batched membership
against the full-matrix route.

``howell_route`` holds the implementations the package used before: the
Howell form that rewrites the whole remaining matrix at every pivot, the
one-vector reduction, the per-element faithfulness loop, the
reduce-then-stack centre rank and the closure that stacks translates one
permutation at a time.  The new routes must agree array for array on
random matrices and verdict for verdict on every small stage.  The right
closure, induced from the least lattice subgroup H holding the
generators, must give the rows of the full stack of translates, and hand
`howell` that same stack when H = Q and one block per order class of the
cosets otherwise; the Howell tests also check which of `linalg.howell`'s
kernels ran.  `span_rank_log` must equal `rank_log` of
the Howell form on the same inputs, from a forward elimination alone, and
`projection_rank_log`, which peels the unit pivots a projection keeps,
must equal `span_rank_log` of the projected Howell rows.
"""

import random
from contextlib import contextmanager
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import howell_route as ref
from stages import small_stage_ideals, to_vector
from iwasawa_kernel import algebra, linalg
from iwasawa_kernel.algebra import (
    AlgebraElement,
    b_element,
    b_monomial,
    build_quotient,
    ideal_closure,
)
from iwasawa_kernel.charts import builtin_chart, heisenberg_chart
from iwasawa_kernel.control import is_faithful, j_ideal_rank
from iwasawa_kernel.errors import InvariantViolation
from iwasawa_kernel.padic import vp_int

# The kernels `howell` can run, recorded at each kernel's call: a forward
# elimination, and a back-substitution chosen by the fill of its result.
DENSE = ["_dense_forward", "_dense_back"]
SPARSE = ["_sparse_forward", "_sparse_back"]
# the sparse forward elimination fills in and hands its live rows to the
# dense loop; the result is sparse again
HANDOFF = ["_sparse_forward", "_dense_forward", "_sparse_back"]
FORWARDS = (["_dense_forward"], ["_sparse_forward"], ["_sparse_forward", "_dense_forward"])
BACKS = (["_dense_back"], ["_sparse_back"])


@contextmanager
def kernels():
    """The names of the Howell kernels called inside the block, in order."""
    ran = []
    saved = {name: getattr(linalg, name) for name in DENSE + SPARSE}

    def spy(name, fn):
        def run(*args):
            ran.append(name)
            return fn(*args)

        return run

    for name, fn in saved.items():
        setattr(linalg, name, spy(name, fn))
    try:
        yield ran
    finally:
        for name, fn in saved.items():
            setattr(linalg, name, fn)


def selected(A, p, N):
    """The kernel the input gate picks: ``None`` for no non-zero residue."""
    R = np.mod(A, p**N)
    rows = int(np.count_nonzero(np.any(R, axis=1)))
    if rows == 0:
        return None
    nnz = int(np.count_nonzero(R))
    return "dense" if nnz > linalg.DENSE_FILL * rows * A.shape[1] else "sparse"


def howell_checked(A, p, N):
    """`linalg.howell(A)` after checking it against the full-matrix route
    and the recorded kernels against the input gate; returns the kernels."""
    with kernels() as ran:
        got = linalg.howell(A, p, N)
    assert isinstance(got, linalg.Rows)
    got = got.toarray()
    want = ref.howell(A, p, N)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    kind = selected(A, p, N)
    if kind is None:
        assert ran == []
        return ran
    assert ran[0] == f"_{kind}_forward"
    assert any(ran == f + b for f in FORWARDS for b in BACKS)
    return ran


def random_matrix(rng, p, N, k, m, kind):
    """Dense, sparse (~20 % non-zero) or p-power-scaled residues mod p^N."""
    q = p**N
    A = rng.integers(0, q, size=(k, m), dtype=np.int64)
    if kind == "sparse":
        A *= rng.random((k, m)) < 0.2
    elif kind == "p-power":
        A = (A * p ** rng.integers(0, N + 1, size=(k, m))) % q
    return A


matrices = st.builds(
    lambda p, N, k, m, kind, seed: (
        p, N, random_matrix(np.random.default_rng(seed), p, N, k, m, kind)
    ),
    st.sampled_from([2, 3, 5, 7]),
    st.integers(1, 4),
    st.integers(0, 40),
    st.integers(1, 40),
    st.sampled_from(["dense", "sparse", "p-power"]),
    st.integers(0, 2**32 - 1),
)


@given(matrices)
@settings(max_examples=150, deadline=None)
def test_howell_matches_full_matrix_route(case):
    howell_checked(*case[2:], *case[:2])


def sparse_matrix(rng, p, N, k, m, per_row, scaled):
    """``per_row`` (at most three) non-zeros in each row: residues mod p^N,
    or residues times p-powers (which may vanish)."""
    q = p**N
    A = np.zeros((k, m), dtype=np.int64)
    for row in A:
        cols = rng.choice(m, size=min(per_row, m), replace=False)
        vals = rng.integers(1, q, size=cols.size)
        if scaled:
            vals = vals * p ** rng.integers(0, N, size=cols.size) % q
        row[cols] = vals
    return A


sparse_matrices = st.builds(
    lambda p, N, k, m, per_row, scaled, seed: (
        p, N, sparse_matrix(np.random.default_rng(seed), p, N, k, m, per_row, scaled)
    ),
    st.sampled_from([2, 3, 5, 7]),
    st.integers(1, 4),
    st.integers(0, 200),
    st.integers(1, 200),
    st.integers(1, 3),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)


@given(sparse_matrices)
@settings(max_examples=60, deadline=None)
def test_sparse_howell_matches_full_matrix_route(case):
    p, N, A = case
    howell_checked(A, p, N)


def translates(Q, x):
    """The right translates x·g, g in Q: the matrix `ideal_closure` echelons."""
    T = np.zeros((Q.size, Q.size), dtype=np.int64)
    T[np.arange(Q.size)[:, None], Q.mult_table().T] = to_vector(x)
    return T


@pytest.fixture(scope="module")
def heis2():
    return build_quotient(heisenberg_chart(3), 2, 2)


def test_dense_generator_takes_dense_kernel(heis2):
    # a generator on all 729 elements: every translate is a full row
    rng = random.Random(5)
    x = AlgebraElement(heis2, {h: rng.randrange(1, 9) for h in range(heis2.size)})
    assert howell_checked(translates(heis2, x), 3, 2) == DENSE


def test_p_scaled_ideal_hands_off_to_dense_loop(heis2):
    # three terms with coefficients in pZ/9: the closure rows fill the live
    # rows in, and the dense loop finishes the forward elimination
    x = AlgebraElement(heis2, {5: 3, 301: 6, 712: 3})
    T = translates(heis2, x)
    assert howell_checked(T, 3, 2) == HANDOFF
    assert linalg.span_equal(ideal_closure([x], quotient=heis2).rows, linalg.howell(T, 3, 2))


def test_sparse_ideal_takes_sparse_kernel():
    # the translates of b5 = g5 - 1 at |Q| = 243 stay at two non-zeros per row
    Q = build_quotient(builtin_chart("abelian5", 3), 1, 2)
    x = AlgebraElement(Q, {Q.generator(4): 1, 0: -1})
    assert howell_checked(translates(Q, x), 3, 2) == SPARSE


def test_forward_fill_hands_off_to_dense_loop():
    # three random non-zeros per row fill the live rows in within a few
    # pivots, and the result stays filled in
    A = sparse_matrix(np.random.default_rng(0), 3, 2, 60, 60, 3, False)
    assert howell_checked(A, 3, 2) == ["_sparse_forward", "_dense_forward", "_dense_back"]


@pytest.mark.parametrize("scale", [1, 3])
def test_back_substitution_fill_goes_dense(scale):
    # rows e_2i + s e_2i+1 + e_2i+2 are already echelon, but reducing column
    # 2i+2 by row i+1 spreads row i over every later odd column: the result
    # fills in, and the sparse back-substitution finishes it
    for r in (40, 300):
        A = np.zeros((r, 2 * r + 1), dtype=np.int64)
        for i in range(r):
            A[i, 2 * i : 2 * i + 3] = (1, scale, 1)
        assert howell_checked(A, 3, 2) == SPARSE
        H = linalg.howell(A, 3, 2)
        assert linalg._filled(H.nnz, H.shape[0] * H.m)


def span_rank_checked(A, p, N):
    """`linalg.span_rank_log(A)` after checking it against `rank_log` of the
    Howell form, as an array and as `Rows`; returns the kernels it ran,
    which must include no back-substitution."""
    want = linalg.rank_log(linalg.howell(A, p, N), p, N)
    assert linalg.span_rank_log(linalg.Rows.from_array(A), p, N) == want
    with kernels() as ran:
        assert linalg.span_rank_log(A, p, N) == want
    assert ran in ([], *FORWARDS)
    return ran


@given(st.one_of(matrices, sparse_matrices))
@settings(max_examples=150, deadline=None)
def test_span_rank_matches_howell_rank(case):
    p, N, A = case
    span_rank_checked(A, p, N)


def test_span_rank_on_filling_inputs(heis2):
    rng = np.random.default_rng(0)
    assert span_rank_checked(random_matrix(rng, 3, 2, 30, 30, "dense"), 3, 2) == ["_dense_forward"]
    # the sparse forward elimination fills in and hands off to the dense loop
    A = sparse_matrix(np.random.default_rng(0), 3, 2, 60, 60, 3, False)
    assert span_rank_checked(A, 3, 2) == FORWARDS[2]
    x = AlgebraElement(heis2, {5: 3, 301: 6, 712: 3})
    assert span_rank_checked(translates(heis2, x), 3, 2) == FORWARDS[2]


@pytest.mark.parametrize("shape", [(0, 0), (0, 5), (4, 0), (4, 5)])
def test_span_rank_of_empty_matrices(shape):
    # no rows, no columns (the projection off the centre on an abelian
    # chart) or only zeros
    assert span_rank_checked(np.zeros(shape, dtype=np.int64), 3, 2) == []


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("N", [1, 2, 3])
def test_projection_rank_matches_span_rank_of_projection(p, N):
    # Howell forms of random matrices, some rows multiplied by powers of p
    # so that non-unit pivots and closure rows occur, against the span rank
    # of the projection onto a random column set
    rng = np.random.default_rng(100 * p + N)
    units = others = 0
    for _ in range(60):
        k, m = rng.integers(1, 30, size=2)
        A = random_matrix(rng, p, N, k, m, rng.choice(["dense", "sparse", "p-power"]))
        A = A * p ** rng.integers(0, N + 1, size=(k, 1)) % p**N
        H = linalg.howell(A, p, N)
        unit = linalg.unit_pivots(H, p)
        units, others = units + int(unit.sum()), others + int((~unit).sum())
        keep = rng.random(m) < rng.random()
        want = linalg.span_rank_log(H.toarray()[:, keep], p, N)
        assert linalg.projection_rank_log(H, keep, p, N) == want
    assert units > 0 and (others > 0) == (N > 1)


@given(matrices, st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_reduce_rows_matches_per_vector_reduction(case, seed):
    p, N, A = case
    H = linalg.Rows.from_array(ref.howell(A, p, N))
    rng = np.random.default_rng(seed)
    vecs = random_matrix(rng, p, N, 6, A.shape[1], "dense")
    # members of the span reduce to zero: include two combinations of A
    if A.shape[0]:
        vecs[:2] = (rng.integers(0, p**N, size=(2, A.shape[0])) @ A) % p**N
    got = ref.remainders(H, linalg.Rows.from_array(vecs), p, N)
    for v, r in zip(vecs, got):
        assert np.array_equal(r, ref.reduce_vector(H.toarray(), v, p, N))
        assert linalg.in_span(H, linalg.Rows.from_array(v[None, :]), p, N)[0] == (not r.any())


CASES = small_stage_ideals()


@pytest.mark.parametrize("Q, gens", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_control_predicates_match_old_routes(Q, gens):
    I = ideal_closure(gens, side="right", quotient=Q)
    assert is_faithful(I) == ref.is_faithful(I)
    assert j_ideal_rank(I) == ref.j_ideal_rank(I)


@pytest.mark.parametrize("Q, gens", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_is_faithful_in_small_chunks(Q, gens):
    # the dense route in five-vector batches, which stops at the first
    # batch with a zero remainder, against the one sparse batch
    I = ideal_closure(gens, side="right", quotient=Q)
    assert is_faithful(I) == ref.is_faithful_chunked(I, 5) == ref.is_faithful(I)


def in_span_batches(monkeypatch):
    """(batch, verdicts) of every `linalg.in_span` call from here on."""
    seen = []
    real = linalg.in_span

    def spy(rows, vecs, p, N):
        found = real(rows, vecs, p, N)
        seen.append((vecs, found))
        return found

    monkeypatch.setattr(linalg, "in_span", spy)
    return seen


def test_is_faithful_finds_a_non_normal_subgroup_through_order_p(monkeypatch):
    # g - 1 lies in the closure of g_1 - 1 exactly for g in H = <g_1> = Z/9,
    # which is not normal and holds only g_1^3 and g_1^6 of order p
    Q = build_quotient(heisenberg_chart(3), 2, 2)
    I = ideal_closure([b_element(Q, 0)], side="right", quotient=Q)
    seen = in_span_batches(monkeypatch)
    assert is_faithful(I) is False
    (batch, found), = seen
    assert batch.shape[0] == 26
    assert sorted(batch.indices[batch.indptr[1:] - 1][found]) == sorted(
        Q.generator(0, k) for k in (3, 6)
    )
    assert ref.is_faithful(I) is False


@pytest.mark.parametrize("name, n, rows", [("heisenberg", 2, 26), ("abelian2", 3, 8)])
def test_is_faithful_reduces_the_elements_of_order_p(monkeypatch, name, n, rows):
    Q = build_quotient(builtin_chart(name, 3), n, 2)
    I = ideal_closure([], side="right", quotient=Q)
    seen = in_span_batches(monkeypatch)
    assert is_faithful(I) is True
    assert [batch.shape[0] for batch, _ in seen] == [rows]
    assert ref.is_faithful(I) is True


def test_is_faithful_on_a_central_character_ideal():
    # the two-sided ideal of z - 4 at n = 1, N = 2: 4 has order p mod 9 as
    # z does, and no g - 1 lies in it
    Q = build_quotient(heisenberg_chart(3), 1, 2)
    z = Q.generator(2)
    I = ideal_closure([AlgebraElement(Q, {z: 1, 0: -4})], side="two-sided", quotient=Q)
    assert is_faithful(I) is True
    assert ref.is_faithful(I) is True


@contextmanager
def howell_inputs():
    """Copies of the matrices handed to `linalg.howell` inside the block."""
    seen = []
    real = linalg.howell

    def spy(mat, p, N):
        seen.append(mat.toarray() if isinstance(mat, linalg.Rows) else np.array(mat, copy=True))
        return real(mat, p, N)

    linalg.howell = spy
    try:
        yield seen
    finally:
        linalg.howell = real


def induced_blocks(Q, gens):
    """(|H|, order classes, cosets) of the right closure of ``gens`` induced
    from H, from the definitions: f_i is the least v_p(beta_i) over the
    supports, H = U_f' for the compatible f' <= f of largest |f'|, the
    cosets are H·t over t = g^beta, beta_i < p^(f'_i), as `mult_array`
    gives them, and two cosets are of one class when the argsorts of their
    indices agree.  (|Q|, 1, 1) when the classes would cover Q."""
    beta = Q.coords_array(sorted({h for g in gens for h in g.coeffs}))
    f = [min(vp_int(int(b), Q.p, Q.n) for b in beta[:, i]) for i in range(Q.dim)]
    below = sorted(product(*(range(e + 1) for e in f)), key=sum, reverse=True)
    e = next(e for e in below if Q.lattice_grid(e)[1])
    H = Q.lattice_grid(e)[0]
    ts = Q.index_array(list(product(*(range(Q.p**x) for x in e))))
    orders = {tuple(np.argsort(Q.mult_array(H, t)).tolist()) for t in ts}
    if len(orders) * H.size >= Q.size:
        return Q.size, 1, 1
    return H.size, len(orders), ts.size


CLOSURE_STAGES = [("cyclic", 2, 2), ("abelian2", 1, 3), ("abelian3", 1, 2),
                  ("heisenberg", 1, 2), ("heisenberg", 1, 3), ("abelian2", 2, 2)]


@pytest.mark.parametrize("side", ["right", "two-sided"])
@pytest.mark.parametrize("name, n, N", CLOSURE_STAGES,
                         ids=[f"{c[0]}-n{c[1]}-N{c[2]}" for c in CLOSURE_STAGES])
def test_closure_stacks_translates_as_before(name, n, N, side):
    # the right closure hands `howell` the full stack of translates when
    # H = Q and the induced block-diagonal stack otherwise; the left steps
    # of the two-sided loop stack as before
    Q = build_quotient(builtin_chart(name, 3), n, N)
    rng = random.Random(f"{name}{n}{N}{side}")
    steps = []
    for k in (2, 3):
        # k b-monomials of degree <= 2 per axis, scaled by random residues
        gens = [b_monomial(Q, [rng.randrange(3) for _ in range(Q.dim)])
                .scale(rng.randrange(1, Q.coeff_mod)) for _ in range(k)]
        with howell_inputs() as want:
            old = ref.ideal_closure(gens, side, Q)
        with howell_inputs() as got:
            new = ideal_closure(gens, side=side, quotient=Q)
        assert len(got) == len(want)
        size, classes, _ = induced_blocks(Q, gens)
        assert got[0].shape == (classes * size * k, classes * size)
        if size == Q.size:
            assert got[0].dtype == want[0].dtype and np.array_equal(got[0], want[0])
        for a, b in zip(got[1:], want[1:]):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert np.array_equal(new.rows.toarray(), old.rows.toarray())
        steps.append(len(got))
    if side == "two-sided" and name == "heisenberg":
        # the left translates add rows: the fixed-point loop runs twice
        assert max(steps) >= 3


# stages on which every b-monomial with 0 < |alpha| <= 3 is closed both ways
B_MONOMIAL_STAGES = [("heisenberg", 1, 2), ("heisenberg", 1, 3), ("heisenberg", 2, 2),
                     ("heisenberg", 2, 3), ("abelian2", 3, 2), ("unipotent4", 1, 2),
                     ("abelian5", 1, 2), ("cyclic", 3, 2)]


@pytest.mark.parametrize("name, n, N", B_MONOMIAL_STAGES,
                         ids=[f"{c[0]}-n{c[1]}-N{c[2]}" for c in B_MONOMIAL_STAGES])
def test_induced_closure_matches_full_stack_on_b_monomials(name, n, N):
    Q = build_quotient(builtin_chart(name, 3), n, N)
    induced = 0
    for alpha in product(range(4), repeat=Q.dim):
        if not 0 < sum(alpha) <= 3:
            continue
        gens = [b_monomial(Q, alpha)]
        with howell_inputs() as got:
            new = ideal_closure(gens, side="right", quotient=Q)
        old = ref.ideal_closure(gens, "right", Q)
        assert np.array_equal(new.rows.toarray(), old.rows.toarray()), alpha
        induced += got[0].shape[1] < Q.size
    # the cyclic stage's b-monomials all hold g, so H = Q throughout
    assert induced if name != "cyclic" else not induced


def _scaled_and_multi(Q):
    b = lambda *alpha: b_monomial(Q, alpha + (0,) * (Q.dim - len(alpha)))
    one = AlgebraElement.one(Q)
    top = (0,) * (Q.dim - 1)
    return {
        "scaled": [b(*top, 1).scale(Q.p)],
        "scaled-square": [b(*top, 2).scale(2)],
        "two-axis": [b(*top, 1), b(*top, 2).scale(Q.p)],
        "mixed": [b(1).scale(Q.p), b(*top, 1)],
        "scalar-p": [one.scale(Q.p)],
        "scalar-unit": [one.scale(2)],
        "character": [AlgebraElement(Q, {Q.generator(Q.dim - 1): 1, 0: -4})],
    }


@pytest.mark.parametrize("side", ["right", "two-sided"])
@pytest.mark.parametrize("name, n, N", [("heisenberg", 1, 2), ("heisenberg", 1, 3),
                                        ("abelian2", 2, 2), ("abelian3", 1, 3)])
def test_induced_closure_on_scaled_multi_and_scalar_ideals(name, n, N, side):
    Q = build_quotient(builtin_chart(name, 3), n, N)
    for case, gens in _scaled_and_multi(Q).items():
        new = ideal_closure(gens, side=side, quotient=Q)
        old = ref.ideal_closure(gens, side, Q)
        assert np.array_equal(new.rows.toarray(), old.rows.toarray()), case


def test_central_ideal_echelons_one_block_of_its_subgroup(heis2):
    # x = g3 - 1 lies in K<g3>, |<g3>| = 9, and all 81 cosets share one
    # order: one 9 x 9 block instead of the 729 x 729 stack
    with howell_inputs() as got:
        new = ideal_closure([b_element(heis2, 2)], side="right", quotient=heis2)
    assert [a.shape for a in got] == [(9, 9)]
    assert induced_blocks(heis2, [b_element(heis2, 2)]) == (9, 1, 81)
    old = ref.ideal_closure([b_element(heis2, 2)], "right", heis2)
    assert np.array_equal(new.rows.toarray(), old.rows.toarray())


@pytest.mark.parametrize("alpha, blocks", [((0, 1, 0), (9, 60, 81)), ((0, 1, 1), (729, 1, 1))])
def test_cosets_in_many_orders(heis2, alpha, blocks):
    # H = <g2> for b(0,1,0) and <g2, g3> for b(0,1,1): right multiplication
    # by g1^a shears g2^b into g3, so the cosets rank their images in many
    # orders, 60 for the 81 cosets of <g2>; each of the 9 cosets of <g2, g3>
    # has its own, which leaves nothing to share, and H = Q
    gens = [b_monomial(heis2, alpha)]
    H, _ = heis2.lattice_grid((2, 0, 0))
    ts = heis2.index_array(list(product(range(9), [0], [0])))
    assert len({tuple(np.argsort(heis2.mult_array(H, t))) for t in ts}) == 9
    assert induced_blocks(heis2, gens) == blocks
    size, classes, _ = blocks
    with howell_inputs() as got:
        new = ideal_closure(gens, side="right", quotient=heis2)
    assert got[0].shape == (size * classes, size * classes)
    old = ref.ideal_closure(gens, "right", heis2)
    assert np.array_equal(new.rows.toarray(), old.rows.toarray())


def test_incompatible_least_grid_takes_the_full_stack(heis2):
    # g1 g2 - 1: the least grid holding it is (0, 0, 2), which right
    # multiplication by g1 leaves, as it does (0, 0, 1); so H = Q
    x = AlgebraElement(heis2, {heis2.index((1, 1, 0)): 1, 0: -1})
    assert not heis2.lattice_grid((0, 0, 2))[1]
    assert not heis2.lattice_grid((0, 0, 1))[1]
    with howell_inputs() as got:
        new = ideal_closure([x], side="right", quotient=heis2)
    with howell_inputs() as want:
        old = ref.ideal_closure([x], "right", heis2)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(new.rows.toarray(), old.rows.toarray())


def test_a_transversal_that_misses_a_coset_raises(monkeypatch, heis2):
    real = algebra._right_transversal

    def twice_the_first(Q, exponents):
        out = real(Q, exponents).copy()
        out[-1] = out[0]
        return out

    monkeypatch.setattr(algebra, "_right_transversal", twice_the_first)
    with pytest.raises(InvariantViolation, match="do not partition Q"):
        ideal_closure([b_element(heis2, 2)], side="right", quotient=heis2)
