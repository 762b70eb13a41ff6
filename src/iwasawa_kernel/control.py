"""Subgroup control of ideals at a finite stage.

An open subgroup is specified by exponents e with U = <g_i^{p^{e_i}}>.
Control of an ideal I by U is decided two independent ways — the
definitional identity I = (I ∩ KU)·KG and stability of I under the
canonical action of U-coset indicator functions — and the two verdicts
must agree.  The controller estimate sweeps the diagonal subgroup lattice
{0..n}^d and is an upper approximation to the true controller subgroup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import linalg
from .algebra import QuotientGroup, SubmoduleBasis
from .errors import InvariantViolation, ValidationError

# bytes of one batch of g - 1 vectors in `is_faithful`
_FAITHFUL_CHUNK_BYTES = 8 << 20


# ---------------------------------------------------------------------------
# open subgroups of the quotient


@dataclass
class OpenSubgroupSpec:
    """U = <g_1^{p^{e_1}}, ..., g_d^{p^{e_d}}> inside a quotient stage."""

    quotient: QuotientGroup
    exponents: Tuple[int, ...]
    _members: Optional[np.ndarray] = field(default=None, repr=False)

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

        S <- S·<g_i^{p^{e_i}}> for each generator, one lookup in the power
        columns of Q per generator, until S stops growing; a finite set
        closed under right multiplication by the generators is the
        subgroup they generate.
        """
        if self._members is None:
            Q = self.quotient
            cols = Q.columns()
            inside = np.zeros(Q.size, dtype=bool)
            inside[0] = True
            size = 1
            while True:
                for i, e in enumerate(self.exponents):
                    if e < Q.n:
                        inside[cols[i, :: Q.p**e][:, inside]] = True
                grown = int(np.count_nonzero(inside))
                if grown == size:
                    break
                size = grown
            if size != self.expected_order:
                raise ValidationError(
                    f"subgroup image has order {size}, expected {self.expected_order}"
                )
            self._members = np.flatnonzero(inside)
        return self._members

    def is_compatible(self) -> bool:
        """True when the generated image has the expected order, i.e. the
        exponent vector is compatible with the ordered basis."""
        try:
            self.members()
            return True
        except ValidationError:
            return False


# ---------------------------------------------------------------------------
# control predicate


def _restrict(
    rows: np.ndarray, cols: np.ndarray, members: np.ndarray, p: int, N: int
) -> np.ndarray:
    """Howell rows of span(rows) ∩ KU on the sorted columns ``members``.

    ``rows`` spans a submodule on the sorted columns ``cols``, a superset
    of ``members``.  One echelon pass with the columns outside U ordered
    first suffices: the rows vanishing on that block span the intersection,
    and since the inside columns keep their order they already form its
    Howell form.
    """
    inside = np.searchsorted(cols, members)
    if rows.shape[0] == 0 or inside.size == cols.size:
        return rows[:, inside]
    outside = np.setdiff1d(np.arange(cols.size), inside, assume_unique=True)
    H = linalg.howell(rows[:, np.concatenate((outside, inside))], p, N)
    return H[~np.any(H[:, : outside.size], axis=1), outside.size :]


def is_controlled(
    I: SubmoduleBasis,
    U: OpenSubgroupSpec,
    _inner: Optional[np.ndarray] = None,
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

    ``_inner`` is the Howell form of I ∩ KU on the sorted members of U, and
    ``_total`` is rank_log(I), when the caller already has them
    (`control_lattice` restricts ``_inner`` from a larger subgroup);
    otherwise they are computed from I.
    """
    Q = I.quotient
    if U.quotient is not Q:
        raise ValidationError("ideal and subgroup live in different quotients")
    if I.side == "left":
        raise ValidationError("control is decided for right (or two-sided) ideals")
    p, N = Q.p, Q.N

    # The full algebra and the zero ideal are controlled by every subgroup,
    # under either reading.
    total = linalg.rank_log(I.rows, p, N) if _total is None else _total
    if total in (0, N * Q.size):
        return True, True

    members = U.members()
    if _inner is None:
        _inner = _restrict(I.rows, np.arange(Q.size), members, p, N)
    index = Q.size // members.size
    definitional = total == index * linalg.rank_log(_inner, p, N)
    projection = linalg.howell(I.rows[:, members], p, N)
    by_action = total == index * linalg.rank_log(projection, p, N)
    return definitional, by_action


def control_lattice(
    I: SubmoduleBasis,
) -> Dict[Tuple[int, ...], Tuple[bool, bool]]:
    """Both control verdicts on every compatible diagonal lattice point
    e in {0..n}^d; incompatible exponent vectors are skipped.

    e' <= e coordinatewise gives U_e ⊆ U_e', so I ∩ KU_e is restricted from
    the smallest already computed I ∩ KU_e' rather than from all of I; the
    sweep order visits every e' <= e before e.  U = Q controls every ideal,
    so a failure at e = 0 raises `InvariantViolation`.
    """
    Q = I.quotient
    p, N = Q.p, Q.N
    total = I.rank_log
    # the zero ideal and the full algebra return before using I ∩ KU
    nested = total not in (0, N * Q.size)
    known: Dict[Tuple[int, ...], Tuple[np.ndarray, np.ndarray]] = {}
    out = {}
    for e in product(range(Q.n + 1), repeat=Q.dim):
        U = OpenSubgroupSpec(Q, e)
        if not U.is_compatible():
            continue
        inner = None
        if nested:
            members = U.members()
            below = [f for f in known if all(a <= b for a, b in zip(f, e))]
            if below:
                cols, rows = known[min(below, key=lambda f: known[f][0].size)]
            else:
                cols, rows = np.arange(Q.size), I.rows
            inner = _restrict(rows, cols, members, p, N)
            known[e] = (members, inner)
        out[e] = is_controlled(I, U, _inner=inner, _total=total)
    origin = (0,) * Q.dim
    if out[origin] != (True, True):
        raise InvariantViolation(
            f"U = Q does not control the ideal: verdicts {out[origin]} at {origin}"
        )
    return out


def controller_estimate(
    I: SubmoduleBasis, lattice: Optional[Dict] = None
) -> Tuple[int, ...]:
    """Coordinatewise max of all controlling exponent vectors: the finest
    diagonal subgroup controlling I.  An upper approximation to the true
    controller at this stage."""
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
    """No nontrivial g in Q has g - 1 in I (stage shadow of faithfulness)."""
    Q = I.quotient
    # the g - 1 for g = 1..|Q|-1 in chunks of at most _FAITHFUL_CHUNK_BYTES;
    # row g - 1 holds 1 at g and -1 at the identity
    step = max(1, _FAITHFUL_CHUNK_BYTES // (8 * Q.size))
    for lo in range(1, Q.size, step):
        g = np.arange(lo, min(lo + step, Q.size))
        vecs = np.zeros((g.size, Q.size), dtype=np.int64)
        vecs[np.arange(g.size), g] = 1
        vecs[:, 0] = -1
        rems = linalg.reduce_rows(I.rows, vecs, Q.p, Q.N)
        if not np.all(np.any(rems, axis=1)):
            return False
    return True


def centre_indices(Q: QuotientGroup) -> List[int]:
    """Elements of Q commuting with all generators: h·g_i = g_i·h for every
    i, compared over all of Q at once (dense stages)."""
    h = np.arange(Q.size)
    central = np.ones(Q.size, dtype=bool)
    for i in range(Q.dim):
        g = Q.generator(i)
        central &= Q.mult_array(h, g) == Q.mult_array(g, h)
    return np.flatnonzero(central).tolist()


def j_ideal_rank(I: SubmoduleBasis, centre: Optional[Sequence[int]] = None) -> int:
    """log_p of the size of the centre-subalgebra image modulo I."""
    Q = I.quotient
    p, N = Q.p, Q.N
    if centre is None:
        centre = centre_indices(Q)
    units = np.zeros((len(centre), Q.size), dtype=np.int64)
    units[np.arange(len(centre)), list(centre)] = 1
    total = linalg.rank_log(linalg.howell(np.vstack([units, I.rows]), p, N), p, N)
    return total - linalg.rank_log(I.rows, p, N)

