"""Subgroup control of ideals at a finite stage.

An open subgroup is specified by exponents e with U = <g_i^{p^{e_i}}>.
Control of an ideal I by U is decided two independent ways — the
definitional identity I = (I ∩ KU)·KG and stability of I under the
canonical action of U-coset indicator functions — and the two verdicts
must agree.  I is controlled by U exactly when π_U(I) ⊆ I, where π_U keeps
the coefficients on U, so the controlling diagonal subgroups form a
join-closed down-set of the lattice {0..n}^d (`control_lattice`), and the
controller estimate is the least controlling diagonal subgroup at the
stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import linalg
from .algebra import QuotientGroup, SubmoduleBasis
from .errors import InvariantViolation, ValidationError
from .linalg import Rows


# ---------------------------------------------------------------------------
# open subgroups of the quotient


@dataclass
class OpenSubgroupSpec:
    """U = <g_1^{p^{e_1}}, ..., g_d^{p^{e_d}}> inside a quotient stage."""

    quotient: QuotientGroup
    exponents: Tuple[int, ...]

    def __post_init__(self):
        Q = self.quotient
        self.exponents = tuple(int(e) for e in self.exponents)
        if len(self.exponents) != Q.dim:
            raise ValidationError("exponent vector length mismatch")
        if any(e < 0 or e > Q.n for e in self.exponents):
            raise ValidationError("exponents must lie in [0, n]")

    @property
    def expected_order(self) -> int:
        Q = self.quotient
        return Q.p ** sum(Q.n - e for e in self.exponents)

    def members(self) -> np.ndarray:
        """Sorted indices of the image of U in Q (dense stages).

        The grid S = {g^beta : p^{e_i} | beta_i for every i}, with indices
        sum_i p^{e_i} b_i r^i, lies in U and has the expected order.  A
        finite set that holds 1 and is closed under right multiplication by
        U's generators contains U, so S is the image of U exactly when it is
        so closed, which is when e is compatible with the ordered basis;
        ValidationError names the first generator that leaves S otherwise.
        """
        grid, i = self._grid()
        if i is not None:
            raise ValidationError(
                f"exponent vector {self.exponents} is incompatible: right multiplication "
                f"by g_{i + 1}^{self.quotient.p ** self.exponents[i]} leaves the grid"
            )
        return grid

    def is_compatible(self) -> bool:
        """True when the image of U is the grid of `members`, i.e. has the
        expected order."""
        return self._grid()[1] is None

    def _grid(self) -> Tuple[np.ndarray, Optional[int]]:
        """The sorted grid indices (higher digits vary slowest), and the first
        i with e_i < n whose g_i^{p^{e_i}} moves some of them off the grid,
        one lookup in the columns of Q per generator (None if there is none)."""
        Q = self.quotient
        r, steps = Q.radix, Q.p ** np.array(self.exponents)
        grid = np.zeros(1, dtype=np.int64)
        for i, step in enumerate(steps.tolist()):
            grid = (np.arange(0, r, step)[:, None] * r**i + grid).ravel()
        gens = np.flatnonzero(steps < r)
        inside = np.zeros(Q.size, dtype=bool)
        inside[grid] = True
        leaves = ~inside[Q.columns()[gens[:, None], steps[gens, None], grid]].all(axis=1)
        return grid, int(gens[np.argmax(leaves)]) if leaves.any() else None


# ---------------------------------------------------------------------------
# control predicate


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


def is_controlled(
    I: SubmoduleBasis,
    U: OpenSubgroupSpec,
    _inner: Optional[Rows] = None,
    _projection: Optional[Rows] = None,
    _total: Optional[int] = None,
) -> Tuple[bool, bool]:
    """(definitional, by_action) verdicts for control of the right ideal I
    by U.

    definitional: I equals the right ideal generated by I ∩ KU.  I ∩ KU is
    already closed under right multiplication by U, and the generated ideal
    is the direct sum of its translates over the [Q:U] cosets, so equality
    holds iff rank_log(I) = [Q:U] * rank_log(I ∩ KU).
    by_action: the canonical action of every U-coset indicator function maps
    I into I, i.e. I is the direct sum of its coset projections.  The
    projection onto the coset U·g is the projection onto U translated by g,
    so this holds iff rank_log(I) = [Q:U] * rank_log of the projection onto
    KU.

    ``_inner`` and ``_projection`` are the Howell forms of I ∩ KU and of the
    projection of I onto KU on the sorted members of U, and ``_total`` is
    rank_log(I), when the caller already has them (`control_lattice` takes
    the first two from a larger subgroup); otherwise they are computed from
    I.
    """
    Q = I.quotient
    if U.quotient is not Q:
        raise ValidationError("ideal and subgroup live in different quotients")
    p, N = Q.p, Q.N

    # The full algebra and the zero ideal are controlled by every subgroup,
    # under either reading.
    total = linalg.rank_log(I.rows, p, N) if _total is None else _total
    if total in (0, N * Q.size):
        return True, True

    members = U.members()
    whole = np.arange(Q.size)
    if _inner is None:
        _inner = _restrict(I.rows, whole, members, p, N)
    if _projection is None:
        _projection = linalg.howell(_columns(I.rows, whole, members), p, N)
    index = Q.size // members.size
    definitional = total == index * linalg.rank_log(_inner, p, N)
    by_action = total == index * linalg.rank_log(_projection, p, N)
    return definitional, by_action


def _leq(e: Tuple[int, ...], f: Tuple[int, ...]) -> bool:
    return all(a <= b for a, b in zip(e, f))


def control_lattice(
    I: SubmoduleBasis,
) -> Dict[Tuple[int, ...], Tuple[bool, bool]]:
    """Both control verdicts on every compatible diagonal lattice point
    e in {0..n}^d; incompatible exponent vectors are skipped.

    I is controlled by U iff π_U(I) ⊆ I, where π_U keeps the coefficients
    on U.  So the controlling points form a down-set (U_e ⊆ U_f for f <= e,
    and π_{U_f} is a sum of translates of π_{U_e}) closed under joins
    (U_e ∩ U_f = U_max(e,f) and π_{U∩V} = π_U·π_V), and every verdict is
    [e <= E] with E the join of the controlling points.  The sweep visits
    the points by increasing |e| and evaluates only those this does not
    decide: e <= J, the join of the controlling points found so far, is
    controlled, and e above a point that failed is not.

    An evaluated point takes I ∩ KU_e and the projection of I onto KU_e
    from the smallest evaluated U_f with f <= e rather than from all of I;
    at the origin both are I itself, whose rows are already in Howell form.
    Each evaluated point must give agreeing verdicts, U = Q must control,
    and the final join J, evaluated once, must control with no failed
    point below it; otherwise `InvariantViolation` is raised.
    """
    Q = I.quotient
    p, N = Q.p, Q.N
    total = I.rank_log
    # the zero ideal and the full algebra return before using I ∩ KU
    nested = total not in (0, N * Q.size)
    # evaluated e -> (members of U_e, I ∩ KU_e, projection of I onto KU_e)
    known: Dict[Tuple[int, ...], Tuple[np.ndarray, Rows, Rows]] = {}

    def evaluate(U: OpenSubgroupSpec) -> Tuple[bool, bool]:
        e = U.exponents
        members = U.members()
        inner = projection = None
        if nested and not known:
            # the origin, visited first: U = Q
            inner = projection = I.rows
        elif nested:
            below = [f for f in known if _leq(f, e)]
            cols, rows, outer = known[min(below, key=lambda f: known[f][0].size)]
            inner = _restrict(rows, cols, members, p, N)
            projection = linalg.howell(_columns(outer, cols, members), p, N)
        known[e] = (members, inner, projection)
        definitional, by_action = is_controlled(
            I, U, _inner=inner, _projection=projection, _total=total
        )
        if definitional != by_action:
            raise InvariantViolation(
                f"control verdicts disagree at lattice point {e}: "
                f"definitional={definitional} by_action={by_action}"
            )
        return definitional, by_action

    points = []
    for e in product(range(Q.n + 1), repeat=Q.dim):
        U = OpenSubgroupSpec(Q, e)
        if U.is_compatible():
            points.append(U)
    join: Optional[Tuple[int, ...]] = None
    failed: List[Tuple[int, ...]] = []
    out = dict.fromkeys(U.exponents for U in points)  # in the product order
    for U in sorted(points, key=lambda U: sum(U.exponents)):
        e = U.exponents
        if join is not None and _leq(e, join):
            out[e] = (True, True)
        elif any(_leq(f, e) for f in failed):
            out[e] = (False, False)
        else:
            out[e] = evaluate(U)
            if out[e][0]:
                join = e if join is None else tuple(map(max, join, e))
            else:
                failed.append(e)
    origin = (0,) * Q.dim
    if out[origin] != (True, True):
        raise InvariantViolation(
            f"U = Q does not control the ideal: verdicts {out[origin]} at {origin}"
        )
    if join not in known:
        top = OpenSubgroupSpec(Q, join)
        if not top.is_compatible() or evaluate(top) != (True, True):
            failed.append(join)
    if any(_leq(f, join) for f in failed):
        raise InvariantViolation(
            f"the join {join} of the controlling lattice points does not control"
        )
    return out


def controller_estimate(
    I: SubmoduleBasis, lattice: Optional[Dict] = None
) -> Tuple[int, ...]:
    """Coordinatewise max of all controlling exponent vectors.  The
    controlling points are a join-closed down-set (`control_lattice`), so
    this is the least controlling diagonal subgroup of the stage, and I is
    controlled by U_e exactly when e <= it."""
    Q = I.quotient
    if lattice is None:
        lattice = control_lattice(I)
    best = [0] * Q.dim
    for e, (definitional, by_action) in lattice.items():
        if definitional and by_action:
            best = [max(a, b) for a, b in zip(best, e)]
    return tuple(best)


# ---------------------------------------------------------------------------
# stage-level ideal predicates


def is_faithful(I: SubmoduleBasis) -> bool:
    """No nontrivial g in Q has g - 1 in I (stage shadow of faithfulness).

    H = {g : g - 1 in I} is a subgroup of Q for a right or two-sided I,
    since gh - 1 = (g - 1)h + (h - 1).
    A nontrivial H is a p-group and so holds an element of order p: only
    the g - 1 with g of order p are reduced, as one sparse batch.
    """
    Q = I.quotient
    h = np.arange(Q.size)
    power = h
    for _ in range(Q.p - 1):
        power = Q.mult_array(power, h)
    g = np.flatnonzero(power == 0)[1:]  # the identity is index 0
    # row t of the batch, for g = g[t], holds -1 at the identity and 1 at g
    batch = Rows(
        np.arange(0, 2 * g.size + 1, 2),
        np.column_stack((np.zeros_like(g), g)).ravel(),
        np.tile([Q.coeff_mod - 1, 1], g.size),
        Q.size,
    )
    return not linalg.in_span(I.rows, batch, Q.p, Q.N).any()


def centre_indices(Q: QuotientGroup) -> List[int]:
    """Elements of Q commuting with all generators: h·g_i = g_i·h for every
    i, compared over all of Q at once (dense stages)."""
    h = np.arange(Q.size)
    central = np.ones(Q.size, dtype=bool)
    for i in range(Q.dim):
        g = Q.generator(i)
        central &= Q.mult_array(h, g) == Q.mult_array(g, h)
    return np.flatnonzero(central).tolist()


def j_ideal_rank(I: SubmoduleBasis) -> int:
    """log_p of the size of the centre-subalgebra image modulo I.

    By the second isomorphism theorem (KZ + I)/I ≅ KZ/(I ∩ KZ), so the rank
    is N·|Z| - rank_log(I ∩ KZ), and `_restrict` gives I ∩ KZ from one
    Howell form of I, or from none when Z = Q (abelian charts).
    """
    Q = I.quotient
    p, N = Q.p, Q.N
    centre = np.array(centre_indices(Q), dtype=np.int64)
    inner = _restrict(I.rows, np.arange(Q.size), centre, p, N)
    return N * centre.size - linalg.rank_log(inner, p, N)
