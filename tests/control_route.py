"""The per-coset route to the control verdicts, kept as the tests'
reference.

These are the implementations the package used before `control_lattice`
decided each lattice point from the identity coset and nested
intersections: `_subalgebra_restriction` re-echelons all of I with the
non-U columns first and then echelons the result again,
`_local_closure_rank` spins I ∩ KU under the generators of U to a fixed
point, and `is_controlled` sums a Howell rank over every U-coset, which
`coset_partition` lists with one scalar product per member and coset, for
any subgroup given by its members.  The subgroup image and the centre are
found with scalar products, as the package found them before it read the
power columns of Q.  `rho` is the canonical action of a function on Q.
`_restrict` is the Howell form of I ∩ KU from one echelon pass with the
columns outside U first, as `control` built it before it read both
verdicts off ranks of column projections, and `_columns` the projection
it started from.  `restrict_dense` and `project_dense` are `_restrict`
and the projection onto KU as they were on dense arrays, before bases
became sparse rows.  `nested_lattice` is the lattice sweep as it was
before it skipped the points that the down-set and join closure of the
controlling set decide: every compatible point evaluated, each from the
smallest already computed larger subgroup.  `lattice_grid_by_columns` is
`QuotientGroup.lattice_grid` as it was before it moved the grid through
`mult_array`, one lookup per generator in the generator columns, and
`product_closure` closes a set under products by search.
"""

from itertools import product

import numpy as np

from iwasawa_kernel import linalg
from iwasawa_kernel.algebra import AlgebraElement
from iwasawa_kernel.errors import ValidationError
from iwasawa_kernel.linalg import Rows


def grid(Q, e):
    """The image of U_e, for a compatible e, from `lattice_grid`, whose
    members `subgroup_elements` checks by search."""
    members, compatible = Q.lattice_grid(e)
    return members if compatible else None


def coset_partition(Q, members):
    """Map from the least element of each right coset U·g of the subgroup
    U with the given members to the members of U·g, one scalar product per
    element of Q; ValidationError when two cosets overlap without being
    equal."""
    members = [int(u) for u in members]
    out = {}
    covered = set()
    for g in range(Q.size):
        if g in covered:
            continue
        coset = [int(Q.mult_array(u, g)) for u in members]
        if covered.intersection(coset) or len(set(coset)) != len(coset):
            raise ValidationError("the right cosets do not partition Q")
        out[g] = coset
        covered.update(coset)
    return out


def rho(f, x):
    """The canonical action of a function on Q: coefficientwise scaling."""
    if callable(f):
        scaled = {k: v * int(f(k)) for k, v in x.coeffs.items()}
    else:
        scaled = {k: v * int(f.get(k, 0)) for k, v in x.coeffs.items()}
    return AlgebraElement(x.quotient, scaled)


def _subalgebra_restriction(I, members):
    Q = I.quotient
    p, N = Q.p, Q.N
    rows = I.rows.toarray()
    if rows.shape[0] == 0:
        return rows
    outside = [j for j in range(Q.size) if j not in members]
    if not outside:
        return rows
    inside = sorted(members)
    order = outside + inside
    H = linalg.howell(rows[:, order], p, N).toarray()
    keep = H[~np.any(H[:, : len(outside)], axis=1)]
    out = np.zeros((keep.shape[0], Q.size), dtype=np.int64)
    out[:, order] = keep
    if out.shape[0] == 0:
        return out
    return linalg.howell(out, p, N).toarray()


def _rank_log(rows, p, N):
    return linalg.rank_log(linalg.Rows.from_array(rows), p, N)


def _local_closure_rank(Q, e, inner):
    p, N = Q.p, Q.N
    members = grid(Q, e).tolist()
    pos = {m: i for i, m in enumerate(members)}
    rows = inner[:, members]
    perms = []
    for i, x in enumerate(e):
        if x < Q.n:
            g = Q.generator(i, Q.p**x)
            perms.append(
                np.array([pos[int(Q.mult_array(h, g))] for h in members], dtype=np.int64)
            )
    while True:
        stacked = [rows]
        for perm in perms:
            moved = np.zeros_like(rows)
            moved[:, perm] = rows
            stacked.append(moved)
        nxt = linalg.howell(np.vstack(stacked), p, N).toarray()
        if np.array_equal(nxt, rows):
            return _rank_log(rows, p, N)
        rows = nxt


def is_controlled(I, e):
    Q = I.quotient
    p, N = Q.p, Q.N
    rows = I.rows.toarray()
    total_rank = _rank_log(rows, p, N)
    if total_rank in (0, N * Q.size):
        return True, True

    members = grid(Q, e)
    inner = _subalgebra_restriction(I, set(members.tolist()))
    if inner.shape[0] == 0:
        definitional = rows.shape[0] == 0
    else:
        index = Q.size // members.size
        definitional = (
            total_rank == index * _local_closure_rank(Q, e, inner)
        )

    if rows.shape[0] == 0:
        by_action = True
    else:
        total = 0
        for coset in coset_partition(Q, members).values():
            cols = np.array(sorted(coset), dtype=np.int64)
            sub = rows[:, cols]
            sub = sub[np.any(sub, axis=1)]
            if sub.shape[0]:
                total += linalg.rank_log(linalg.howell(sub, p, N), p, N)
        by_action = total == total_rank
    return definitional, by_action


def control_lattice(I):
    Q = I.quotient
    out = {}
    for e in product(range(Q.n + 1), repeat=Q.dim):
        if grid(Q, e) is not None:
            out[e] = is_controlled(I, e)
    return out


def _columns(rows: Rows, cols: np.ndarray, members: np.ndarray) -> Rows:
    """The entries of ``rows``, a matrix on the sorted columns ``cols``, in
    the columns ``members`` (a sorted subset), numbered as in ``members``."""
    new = np.full(cols.size, -1, dtype=np.int64)
    new[np.searchsorted(cols, members)] = np.arange(members.size)
    return rows.relabel(new, members.size)


def _restrict(rows: Rows, cols: np.ndarray, members: np.ndarray, p: int, N: int) -> Rows:
    """Howell rows of span(rows) ∩ KU on the sorted columns ``members``.

    ``rows`` spans a submodule on the sorted columns ``cols``, a superset
    of ``members``.  One echelon pass with the columns outside U ordered
    first suffices: the rows vanishing on that block span the intersection,
    and since the inside columns keep their order they already form its
    Howell form.
    """
    inside = np.searchsorted(cols, members)
    if rows.shape[0] == 0 or inside.size == cols.size:
        return _columns(rows, cols, members)
    outside = np.setdiff1d(np.arange(cols.size), inside, assume_unique=True)
    new = np.empty(cols.size, dtype=np.int64)
    new[outside] = np.arange(outside.size)
    new[inside] = outside.size + np.arange(inside.size)
    H = linalg.howell(rows.relabel(new, cols.size), p, N)
    # a Howell row vanishes on the outside block iff its pivot lies past it
    H = H.take(H.indices[H.indptr[:-1]] >= outside.size)
    return H.relabel(np.arange(cols.size) - outside.size, inside.size)


def nested_lattice(I):
    """Both verdicts at every compatible point, rank_log(I) against [Q:U]
    times the ranks of I ∩ KU_e and of the projection onto KU_e, each taken
    from the smallest already computed U_f with f <= e; the product order
    visits every such f first."""
    Q = I.quotient
    p, N = Q.p, Q.N
    total = I.rank_log
    known = {}
    out = {}
    for e in product(range(Q.n + 1), repeat=Q.dim):
        members = grid(Q, e)
        if members is None:
            continue
        below = [f for f in known if all(a <= b for a, b in zip(f, e))]
        if below:
            cols, rows, outer = known[min(below, key=lambda f: known[f][0].size)]
        else:
            cols, rows, outer = np.arange(Q.size), I.rows, I.rows
        inner = _restrict(rows, cols, members, p, N)
        projection = linalg.howell(_columns(outer, cols, members), p, N)
        known[e] = (members, inner, projection)
        index = Q.size // members.size
        out[e] = (
            total == index * linalg.rank_log(inner, p, N),
            total == index * linalg.rank_log(projection, p, N),
        )
    return out


def restrict_dense(rows, cols, members, p, N):
    """`_restrict` on the dense array ``rows`` on the sorted columns
    ``cols``."""
    inside = np.searchsorted(cols, members)
    if rows.shape[0] == 0 or inside.size == cols.size:
        return rows[:, inside]
    outside = np.setdiff1d(np.arange(cols.size), inside, assume_unique=True)
    H = linalg.howell(rows[:, np.concatenate((outside, inside))], p, N).toarray()
    return H[~np.any(H[:, : outside.size], axis=1), outside.size :]


def project_dense(rows, members, p, N):
    """Howell rows of the projection of span(rows) onto KU, from all of
    the dense array ``rows``."""
    return linalg.howell(rows[:, members], p, N).toarray()


def subgroup_elements(Q, e):
    """The image of U_e in Q by search: close {1} under left and right
    multiplication by the generators g_i^{p^{e_i}}, two scalar products per
    member and generator; ValidationError unless it has the order
    p^(sum of n - e_i) of the grid."""
    gens = [Q.generator(i, Q.p**x) for i, x in enumerate(e) if x < Q.n]
    seen = {0}
    frontier = [0]
    while frontier:
        h = frontier.pop()
        for g in gens:
            for x in (int(Q.mult_array(h, g)), int(Q.mult_array(g, h))):
                if x not in seen:
                    seen.add(x)
                    frontier.append(x)
    expected = Q.p ** sum(Q.n - x for x in e)
    if len(seen) != expected:
        raise ValidationError(f"subgroup image has order {len(seen)}, expected {expected}")
    return frozenset(seen)


def grid_leaving_generator(Q, e):
    """The first i with e_i < n such that h·g_i^{p^{e_i}} leaves the grid
    {beta : p^{e_j} | beta_j for every j} for some h in it, one scalar product
    per grid element and generator; None when the grid is closed."""
    steps = [Q.p**x for x in e]
    points = [Q.index(beta) for beta in product(*(range(0, Q.radix, s) for s in steps))]
    for i, step in enumerate(steps):
        if step < Q.radix and any(
            (Q.coords_array([Q.mult_array(h, Q.generator(i, step))]) % steps).any()
            for h in points
        ):
            return i
    return None


def centre_indices(Q):
    """Elements of Q commuting with every generator, one scalar product pair
    per element and generator."""
    gens = [Q.generator(i) for i in range(Q.dim)]
    return [
        h for h in range(Q.size) if all(Q.mult_array(h, g) == Q.mult_array(g, h) for g in gens)
    ]


def lattice_grid_by_columns(Q, e):
    """The sorted grid {g^beta : p^(e_i) | beta_i}, listed coordinate by
    coordinate, and whether the lookups of h·g_i^(p^(e_i)) in the generator
    columns keep every grid point h inside it."""
    r, steps = Q.radix, Q.p ** np.array(e, dtype=np.int64)
    grid = np.array(sorted(Q.index(beta) for beta in product(*(range(0, r, s) for s in steps))))
    gens = np.flatnonzero(steps < r)
    inside = np.zeros(Q.size, dtype=bool)
    inside[grid] = True
    moved = Q.columns()[gens[:, None], steps[gens, None], grid]
    return grid, bool(inside[moved].all())


def product_closure(Q, members, by):
    """The sorted closure of ``members`` under right multiplication by the
    elements ``by``, by search: each round multiplies the elements the last
    round added by all of ``by``."""
    seen = frontier = np.unique(members)
    while frontier.size:
        frontier = np.setdiff1d(Q.mult_array(frontier[:, None], by[None, :]), seen)
        seen = np.union1d(seen, frontier)
    return seen
