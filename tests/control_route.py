"""The per-coset route to the control verdicts, kept as the tests'
reference.

These are the implementations the package used before `control_lattice`
decided each lattice point from the identity coset and nested
intersections: `_subalgebra_restriction` re-echelons all of I with the
non-U columns first and then echelons the result again,
`_local_closure_rank` spins I ∩ KU under the generators of U to a fixed
point, and `is_controlled` sums a Howell rank over every U-coset, which
`coset_partition` lists with one scalar product per member and coset.
The subgroup image and the centre are found with scalar products, as
`OpenSubgroupSpec` and `centre_indices` found them before they read the
power columns of Q.  `rho` is the canonical action of a function on Q.
"""

from itertools import product

import numpy as np

from iwasawa_kernel import linalg
from iwasawa_kernel.algebra import AlgebraElement
from iwasawa_kernel.control import OpenSubgroupSpec
from iwasawa_kernel.errors import ValidationError


def coset_partition(U):
    """Map from the index of each representative g_1^{b_1}...g_d^{b_d},
    0 <= b_i < p^{e_i}, to the members of its coset U·rep."""
    Q = U.quotient
    members = U.members().tolist()
    out = {}
    covered = set()
    for b in product(*[range(Q.p**e) for e in U.exponents]):
        rep = Q.index(b)
        out[rep] = [Q.mult(u, rep) for u in members]
        covered.update(out[rep])
    if len(covered) != Q.size:
        raise ValidationError("coset representatives do not partition Q")
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
    rows = I.rows
    if rows.shape[0] == 0:
        return rows
    outside = [j for j in range(Q.size) if j not in members]
    if not outside:
        return rows
    inside = sorted(members)
    order = outside + inside
    H = linalg.howell(rows[:, order], p, N)
    keep = H[~np.any(H[:, : len(outside)], axis=1)]
    out = np.zeros((keep.shape[0], Q.size), dtype=np.int64)
    out[:, order] = keep
    if out.shape[0] == 0:
        return out
    return linalg.howell(out, p, N)


def _local_closure_rank(U, inner):
    Q = U.quotient
    p, N = Q.p, Q.N
    members = U.members().tolist()
    pos = {m: i for i, m in enumerate(members)}
    rows = inner[:, members]
    perms = []
    for i, e in enumerate(U.exponents):
        if e < Q.n:
            g = Q.generator(i, Q.p**e)
            perms.append(
                np.array([pos[Q.mult(h, g)] for h in members], dtype=np.int64)
            )
    while True:
        stacked = [rows]
        for perm in perms:
            moved = np.zeros_like(rows)
            moved[:, perm] = rows
            stacked.append(moved)
        nxt = linalg.howell(np.vstack(stacked), p, N)
        if linalg.span_equal(nxt, rows):
            return linalg.rank_log(rows, p, N)
        rows = nxt


def is_controlled(I, U):
    Q = I.quotient
    p, N = Q.p, Q.N
    total_rank = linalg.rank_log(I.rows, p, N)
    if total_rank in (0, N * Q.size):
        return True, True

    inner = _subalgebra_restriction(I, set(U.members().tolist()))
    if inner.shape[0] == 0:
        definitional = I.rows.shape[0] == 0
    else:
        index = Q.size // U.members().size
        definitional = (
            linalg.rank_log(I.rows, p, N) == index * _local_closure_rank(U, inner)
        )

    if I.rows.shape[0] == 0:
        by_action = True
    else:
        total = 0
        for members in coset_partition(U).values():
            cols = np.array(sorted(members), dtype=np.int64)
            sub = I.rows[:, cols]
            sub = sub[np.any(sub, axis=1)]
            if sub.shape[0]:
                total += linalg.rank_log(linalg.howell(sub, p, N), p, N)
        by_action = total == linalg.rank_log(I.rows, p, N)
    return definitional, by_action


def control_lattice(I):
    Q = I.quotient
    out = {}
    for e in product(range(Q.n + 1), repeat=Q.dim):
        U = OpenSubgroupSpec(Q, e)
        if not U.is_compatible():
            continue
        out[e] = is_controlled(I, U)
    return out


def subgroup_elements(U):
    """The image of U in Q by search: close {1} under left and right
    multiplication by the generators g_i^{p^{e_i}}, two scalar products per
    member and generator; ValidationError unless it has the expected order."""
    Q = U.quotient
    gens = [Q.generator(i, Q.p**e) for i, e in enumerate(U.exponents) if e < Q.n]
    seen = {0}
    frontier = [0]
    while frontier:
        h = frontier.pop()
        for g in gens:
            for x in (Q.mult(h, g), Q.mult(g, h)):
                if x not in seen:
                    seen.add(x)
                    frontier.append(x)
    if len(seen) != U.expected_order:
        raise ValidationError(
            f"subgroup image has order {len(seen)}, expected {U.expected_order}"
        )
    return frozenset(seen)


def centre_indices(Q):
    """Elements of Q commuting with every generator, one scalar product pair
    per element and generator."""
    gens = [Q.generator(i) for i in range(Q.dim)]
    return [h for h in range(Q.size) if all(Q.mult(h, g) == Q.mult(g, h) for g in gens)]
