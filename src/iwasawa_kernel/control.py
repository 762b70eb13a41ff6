"""Subgroup control of ideals at a finite stage.

A subgroup U of Q enters only as a boolean membership mask over Q, so the
control test serves any subgroup.  Control of an ideal I by U is decided
two independent ways — the definitional identity I = (I ∩ KU)·KG and
stability of I under the canonical action of U-coset indicator functions
— and the two verdicts must agree.  Both are rank identities read off
column projections of I's Howell rows by `linalg.projection_rank_log`,
where π_S keeps the coefficients on S: rank_log(I ∩ KU) from the exact
sequence 0 -> I ∩ KU -> I -> π_{Q∖U}(I) -> 0 (`_meet_rank_log`, which
`j_ideal_rank` reads with the centre as U), and the action from π_U(I).
I is controlled by U exactly when π_U(I) ⊆ I, so the controlling diagonal
subgroups U_e = <g_i^{p^{e_i}}>, whose masks come from the grids of
`QuotientGroup.lattice_grid`, form a join-closed down-set of the lattice
{0..n}^d (`control_lattice`), and the controller estimate is the least
controlling diagonal subgroup at the stage.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import linalg
from .algebra import QuotientGroup, SubmoduleBasis
from .errors import InvariantViolation, ValidationError
from .linalg import Rows


# ---------------------------------------------------------------------------
# control predicate


def _meet_rank_log(I: SubmoduleBasis, inside: np.ndarray) -> int:
    """rank_log(I ∩ KU) for the subgroup U whose mask over Q is ``inside``.

    The sequence 0 -> I ∩ KU -> I -> π_{Q∖U}(I) -> 0, with π_{Q∖U} keeping
    the coefficients off U, is exact, so this is rank_log(I) minus the rank
    of that projection, a matrix with no columns when U = Q.
    """
    Q = I.quotient
    return I.rank_log - linalg.projection_rank_log(I.rows, ~inside, Q.p, Q.N)


def is_controlled(I: SubmoduleBasis, inside: np.ndarray) -> Tuple[bool, bool]:
    """(definitional, by_action) verdicts for control of the right ideal I
    by the subgroup U of Q whose boolean mask over Q is ``inside``, each a
    rank identity read off a column projection of I's rows.

    definitional: I equals the right ideal generated by I ∩ KU.  I ∩ KU is
    already closed under right multiplication by U, and the generated ideal
    is the direct sum of its translates over the [Q:U] right cosets, so
    equality holds iff rank_log(I) = [Q:U] * rank_log(I ∩ KU), the latter
    from `_meet_rank_log`.
    by_action: the canonical action of every U-coset indicator function maps
    I into I, i.e. I is the direct sum of its coset projections.  The
    projection onto the coset U·g is the projection π_U onto KU translated
    by g, so this holds iff rank_log(I) = [Q:U] * rank_log(π_U(I)).

    ``inside`` must be a boolean array of length |Q| holding the identity
    (index 0) whose count divides |Q|; `ValidationError` is raised
    otherwise.  That U is closed under products is not checked.
    I ∩ KU lies in π_U(I), so 0 <= rank_log(I ∩ KU) <= rank_log(π_U(I));
    `InvariantViolation` is raised otherwise.
    """
    Q = I.quotient
    inside = np.asarray(inside)
    if inside.dtype != bool or inside.shape != (Q.size,):
        raise ValidationError(f"U must be a boolean mask of length |Q| = {Q.size}")
    if not inside[0]:
        raise ValidationError("U must hold the identity, index 0")
    order = int(np.count_nonzero(inside))
    if Q.size % order:
        raise ValidationError(f"|U| = {order} does not divide |Q| = {Q.size}")
    total = I.rank_log
    inner = _meet_rank_log(I, inside)
    projection = linalg.projection_rank_log(I.rows, inside, Q.p, Q.N)
    if not 0 <= inner <= projection:
        raise InvariantViolation(
            f"rank_log(I ∩ KU) = {inner} with |U| = {order} lies outside "
            f"[0, {projection}], the rank of the projection onto KU"
        )
    index = Q.size // order
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
    controlled, and e above a point that failed is not.  Each grid is read
    once, and a point's mask is built only when the point is evaluated.

    Each evaluated point must give agreeing verdicts, U = Q must control,
    and the final join J, evaluated once, must control with no failed
    point below it; otherwise `InvariantViolation` is raised.
    """
    Q = I.quotient
    evaluated = set()

    def evaluate(e: Tuple[int, ...]) -> Tuple[bool, bool]:
        evaluated.add(e)
        inside = np.zeros(Q.size, dtype=bool)
        inside[grids[e]] = True
        definitional, by_action = is_controlled(I, inside)
        if definitional != by_action:
            raise InvariantViolation(
                f"control verdicts disagree at lattice point {e}: "
                f"definitional={definitional} by_action={by_action}"
            )
        return definitional, by_action

    # the compatible points, in the product order
    grids = {}
    for e in product(range(Q.n + 1), repeat=Q.dim):
        grid, compatible = Q.lattice_grid(e)
        if compatible:
            grids[e] = grid
    join: Optional[Tuple[int, ...]] = None
    failed: List[Tuple[int, ...]] = []
    out = dict.fromkeys(grids)
    for e in sorted(grids, key=sum):
        if join is not None and _leq(e, join):
            out[e] = (True, True)
        elif any(_leq(f, e) for f in failed):
            out[e] = (False, False)
        else:
            out[e] = evaluate(e)
            if out[e][0]:
                join = e if join is None else tuple(map(max, join, e))
            else:
                failed.append(e)
    origin = (0,) * Q.dim
    if out[origin] != (True, True):
        raise InvariantViolation(
            f"U = Q does not control the ideal: verdicts {out[origin]} at {origin}"
        )
    # a join missing from grids is incompatible, and counts as failed
    if join not in evaluated and (join not in grids or evaluate(join) != (True, True)):
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
    i, compared over all of Q at once, two `mult_array` batches per
    generator."""
    h = np.arange(Q.size)
    central = np.ones(Q.size, dtype=bool)
    for i in range(Q.dim):
        g = Q.generator(i)
        central &= Q.mult_array(h, g) == Q.mult_array(g, h)
    return np.flatnonzero(central).tolist()


def j_ideal_rank(I: SubmoduleBasis) -> int:
    """log_p of the size of the centre-subalgebra image modulo I.

    By the second isomorphism theorem (KZ + I)/I ≅ KZ/(I ∩ KZ), so the rank
    is N·|Z| - rank_log(I ∩ KZ), with the centre as the mask of
    `_meet_rank_log`.  It lies in [0, N·|Z|]; `InvariantViolation` is
    raised otherwise.
    """
    Q = I.quotient
    centre = np.zeros(Q.size, dtype=bool)
    centre[centre_indices(Q)] = True
    full = Q.N * int(np.count_nonzero(centre))
    rank = full - _meet_rank_log(I, centre)
    if not 0 <= rank <= full:
        raise InvariantViolation(f"j_ideal_rank {rank} lies outside [0, N·|Z|] = [0, {full}]")
    return rank
