"""Subgroup control of ideals at a finite stage.

An open subgroup is specified by exponents e with U = <g_i^{p^{e_i}}>.
Control of an ideal I by U is decided two independent ways — the
definitional identity I = (I ∩ KU)·KG and stability of I under the
canonical action of U-coset indicator functions — and the two verdicts
must agree.  Both are rank identities read off column projections of I:
the sequence 0 -> I ∩ KU -> I -> π_{Q∖U}(I) -> 0 is exact, so the rank of
I ∩ KU is rank_log(I) minus the rank of π_{Q∖U}(I), and the action is
read off π_U(I), where π_S keeps the coefficients on S.  A rank is read
off I's Howell rows by `linalg.projection_rank_log`: each unit pivot the
projection keeps adds N, and only the other rows go through the forward
elimination.  I is controlled by U exactly when π_U(I) ⊆ I, so the
controlling diagonal subgroups form a join-closed down-set of the lattice
{0..n}^d (`control_lattice`), and the controller estimate is the least
controlling diagonal subgroup at the stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import linalg
from .algebra import QuotientGroup, SubmoduleBasis
from .errors import InvariantViolation, ValidationError
from .linalg import Rows


# ---------------------------------------------------------------------------
# open subgroups of the quotient


@dataclass(frozen=True)
class OpenSubgroupSpec:
    """U = <g_1^{p^{e_1}}, ..., g_d^{p^{e_d}}> inside a dense quotient stage.

    The grid S = {g^beta : p^{e_i} | beta_i for every i}, with indices
    sum_i p^{e_i} b_i r^i, lies in U and has the expected order.  A finite
    set that holds 1 and is closed under right multiplication by U's
    generators contains U, so S is the image of U exactly when it is so
    closed, which is when e is compatible with the ordered basis.  Both are
    derived once, when the spec is built, by `QuotientGroup.lattice_grid`,
    which `algebra.ideal_closure` also reads: the sorted grid (higher digits
    vary slowest) and the first generator that leaves it.
    """

    quotient: QuotientGroup
    exponents: Tuple[int, ...]
    _grid: np.ndarray = field(init=False, repr=False, compare=False)
    # the first i whose g_i^{p^{e_i}} moves the grid, None when e is compatible
    _leaving: Optional[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        Q = self.quotient
        exponents = tuple(int(e) for e in self.exponents)
        if len(exponents) != Q.dim:
            raise ValidationError("exponent vector length mismatch")
        if any(e < 0 or e > Q.n for e in exponents):
            raise ValidationError("exponents must lie in [0, n]")
        grid, leaving = Q.lattice_grid(exponents)
        object.__setattr__(self, "exponents", exponents)
        object.__setattr__(self, "_grid", grid)
        object.__setattr__(self, "_leaving", leaving)

    @property
    def expected_order(self) -> int:
        """p^(sum of n - e_i), the size of the grid."""
        return self._grid.size

    def members(self) -> np.ndarray:
        """Sorted indices of the image of U in Q; ValidationError names the
        first generator that leaves the grid when e is incompatible."""
        i = self._leaving
        if i is not None:
            raise ValidationError(
                f"exponent vector {self.exponents} is incompatible: right multiplication "
                f"by g_{i + 1}^{self.quotient.p ** self.exponents[i]} leaves the grid"
            )
        return self._grid

    def is_compatible(self) -> bool:
        """True when the image of U is the grid of `members`, i.e. has the
        expected order."""
        return self._leaving is None


# ---------------------------------------------------------------------------
# control predicate


def is_controlled(I: SubmoduleBasis, U: OpenSubgroupSpec) -> Tuple[bool, bool]:
    """(definitional, by_action) verdicts for control of the right ideal I
    by U, each a rank identity read off a column projection of I's rows.

    definitional: I equals the right ideal generated by I ∩ KU.  I ∩ KU is
    already closed under right multiplication by U, and the generated ideal
    is the direct sum of its translates over the [Q:U] cosets, so equality
    holds iff rank_log(I) = [Q:U] * rank_log(I ∩ KU).  The sequence
    0 -> I ∩ KU -> I -> π_{Q∖U}(I) -> 0, with π_{Q∖U} keeping the
    coefficients off U, is exact, so rank_log(I ∩ KU) is rank_log(I) minus
    the rank of that projection.
    by_action: the canonical action of every U-coset indicator function maps
    I into I, i.e. I is the direct sum of its coset projections.  The
    projection onto the coset U·g is the projection π_U onto KU translated
    by g, so this holds iff rank_log(I) = [Q:U] * rank_log(π_U(I)).

    I ∩ KU lies in π_U(I), so 0 <= rank_log(I ∩ KU) <= rank_log(π_U(I));
    `InvariantViolation` is raised otherwise.  Both ranks come from
    `linalg.projection_rank_log` on I's Howell rows.
    """
    Q = I.quotient
    if U.quotient is not Q:
        raise ValidationError("ideal and subgroup live in different quotients")
    p, N = Q.p, Q.N
    inside = np.zeros(Q.size, dtype=bool)
    inside[U.members()] = True
    total = I.rank_log
    inner = total - linalg.projection_rank_log(I.rows, ~inside, p, N)
    projection = linalg.projection_rank_log(I.rows, inside, p, N)
    if not 0 <= inner <= projection:
        raise InvariantViolation(
            f"rank_log(I ∩ KU) = {inner} at {U.exponents} lies outside "
            f"[0, {projection}], the rank of the projection onto KU"
        )
    index = Q.size // U.expected_order
    return total == index * inner, total == index * projection


def _leq(e: Tuple[int, ...], f: Tuple[int, ...]) -> bool:
    return all(a <= b for a, b in zip(e, f))


def control_lattice(I: SubmoduleBasis) -> Dict[Tuple[int, ...], Tuple[bool, bool]]:
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

    Each evaluated point must give agreeing verdicts, U = Q must control,
    and the final join J, evaluated once, must control with no failed
    point below it; otherwise `InvariantViolation` is raised.
    """
    Q = I.quotient
    evaluated = set()

    def evaluate(U: OpenSubgroupSpec) -> Tuple[bool, bool]:
        evaluated.add(U.exponents)
        definitional, by_action = is_controlled(I, U)
        if definitional != by_action:
            raise InvariantViolation(
                f"control verdicts disagree at lattice point {U.exponents}: "
                f"definitional={definitional} by_action={by_action}"
            )
        return definitional, by_action

    specs = {e: OpenSubgroupSpec(Q, e) for e in product(range(Q.n + 1), repeat=Q.dim)}
    specs = {e: U for e, U in specs.items() if U.is_compatible()}  # in the product order
    join: Optional[Tuple[int, ...]] = None
    failed: List[Tuple[int, ...]] = []
    out = dict.fromkeys(specs)
    for e, U in sorted(specs.items(), key=lambda item: sum(item[0])):
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
    # a join missing from specs is incompatible, and counts as failed
    if join not in evaluated and (join not in specs or evaluate(specs[join]) != (True, True)):
        failed.append(join)
    if any(_leq(f, join) for f in failed):
        raise InvariantViolation(
            f"the join {join} of the controlling lattice points does not control"
        )
    return out


def controller_estimate(I: SubmoduleBasis, lattice: Dict) -> Tuple[int, ...]:
    """Coordinatewise max of all controlling exponent vectors of
    ``lattice``, I's `control_lattice`.  The controlling points are a
    join-closed down-set, so this is the least controlling diagonal subgroup
    of the stage, and I is controlled by U_e exactly when e <= it."""
    controlling = (e for e, verdicts in lattice.items() if all(verdicts))
    return tuple(map(max, zip((0,) * I.quotient.dim, *controlling)))


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
    is N·|Z| - rank_log(I ∩ KZ).  The sequence 0 -> I ∩ KZ -> I ->
    π_{Q∖Z}(I) -> 0 is exact, so this is N·|Z| - rank_log(I) plus the rank
    of the projection of I off the centre (`linalg.projection_rank_log`), a
    matrix with no columns when Z = Q (abelian charts).  It lies in
    [0, N·|Z|]; `InvariantViolation` is raised otherwise.
    """
    Q = I.quotient
    off = np.ones(Q.size, dtype=bool)
    off[centre_indices(Q)] = False
    full = Q.N * (Q.size - int(np.count_nonzero(off)))
    rank = full - I.rank_log + linalg.projection_rank_log(I.rows, off, Q.p, Q.N)
    if not 0 <= rank <= full:
        raise InvariantViolation(f"j_ideal_rank {rank} lies outside [0, N·|Z|] = [0, {full}]")
    return rank
