"""Subgroup control of ideals at a finite stage, and the derivation data.

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
from .algebra import (
    AlgebraElement,
    FiltValue,
    QuotientGroup,
    SubmoduleBasis,
    ideal_closure,
    lazard_value,
    rho,
)
from .errors import PrecisionError, ValidationError
from .mahler import AutomorphismSpec, divided_power, z_stable


# ---------------------------------------------------------------------------
# open subgroups of the quotient


@dataclass
class OpenSubgroupSpec:
    """U = <g_1^{p^{e_1}}, ..., g_d^{p^{e_d}}> inside a quotient stage."""

    quotient: QuotientGroup
    exponents: Tuple[int, ...]
    _elements: Optional[frozenset] = field(default=None, repr=False)

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

    def elements(self) -> frozenset:
        """Image of U in Q, enumerated and verified to close under product."""
        if self._elements is not None:
            return self._elements
        Q = self.quotient
        gens = [
            Q.generator(i, Q.p**e)
            for i, e in enumerate(self.exponents)
            if e < Q.n
        ]
        seen = {0}
        frontier = [0]
        while frontier:
            h = frontier.pop()
            for g in gens:
                for x in (Q.mult(h, g), Q.mult(g, h)):
                    if x not in seen:
                        seen.add(x)
                        frontier.append(x)
        if len(seen) != self.expected_order:
            raise ValidationError(
                f"subgroup image has order {len(seen)}, expected {self.expected_order}"
            )
        self._elements = frozenset(seen)
        return self._elements

    def contains(self, idx: int) -> bool:
        return idx in self.elements()

    def is_compatible(self) -> bool:
        """True when the generated image has the expected order, i.e. the
        exponent vector is compatible with the ordered basis."""
        try:
            self.elements()
            return True
        except ValidationError:
            return False

    def coset_representatives(self) -> List[Tuple[int, ...]]:
        """The words g_1^{b_1}...g_d^{b_d}, 0 <= b_i < p^{e_i}."""
        Q = self.quotient
        ranges = [range(Q.p**e) for e in self.exponents]
        return [tuple(b) for b in product(*ranges)]

    def coset_partition(self) -> Dict[int, List[int]]:
        """Map from representative index to the members of the coset U·rep."""
        Q = self.quotient
        out = {}
        covered = set()
        for b in self.coset_representatives():
            rep = Q.index(b)
            members = [Q.mult(u, rep) for u in self.elements()]
            out[rep] = members
            covered.update(members)
        if len(covered) != Q.size:
            raise ValidationError("coset representatives do not partition Q")
        return out


# ---------------------------------------------------------------------------
# control predicate


def _subalgebra_restriction(I: SubmoduleBasis, members: frozenset) -> np.ndarray:
    """Howell rows of I ∩ KU, via the echelon form with the non-U columns
    ordered first: the rows vanishing on that block span the intersection."""
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


def _local_closure_rank(U: OpenSubgroupSpec, inner: np.ndarray) -> int:
    """rank_log of the right ideal generated by ``inner`` inside KU,
    computed on the |U|-dimensional local coordinates."""
    Q = U.quotient
    p, N = Q.p, Q.N
    members = sorted(U.elements())
    pos = {m: i for i, m in enumerate(members)}
    # inner is a Howell form supported on the sorted member columns, so
    # its restriction to them is already the local Howell form
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


def is_controlled(
    I: SubmoduleBasis, U: OpenSubgroupSpec
) -> Tuple[bool, bool]:
    """(definitional, by_action) verdicts for control of the right ideal I
    by U.

    definitional: I equals the right-ideal generated by I ∩ KU.  Since the
    generated ideal decomposes over the U-cosets into translated copies of
    the closure inside KU, equality holds iff rank_log(I) equals
    [Q:U] * rank_log of that local closure.
    by_action: rho(f)(I) ⊆ I for every U-coset indicator function f.
    """
    Q = I.quotient
    if U.quotient is not Q:
        raise ValidationError("ideal and subgroup live in different quotients")
    p, N = Q.p, Q.N
    Q.mult_table()

    # The full algebra and the zero ideal are controlled by every subgroup,
    # under either reading.
    total_rank = linalg.rank_log(I.rows, p, N)
    if total_rank in (0, N * Q.size):
        return True, True

    inner = _subalgebra_restriction(I, U.elements())
    if inner.shape[0] == 0:
        definitional = I.rows.shape[0] == 0
    else:
        index = Q.size // len(U.elements())
        definitional = (
            linalg.rank_log(I.rows, p, N) == index * _local_closure_rank(U, inner)
        )

    # rho-stability under every coset indicator is equivalent to I being
    # the direct sum of its coset-supported parts, i.e. to rank_log(I)
    # equalling the sum of the projected rank_logs over the cosets.
    if I.rows.shape[0] == 0:
        by_action = True
    else:
        total = 0
        for members in U.coset_partition().values():
            cols = np.array(sorted(members), dtype=np.int64)
            sub = I.rows[:, cols]
            sub = sub[np.any(sub, axis=1)]
            if sub.shape[0]:
                total += linalg.rank_log(linalg.howell(sub, p, N), p, N)
        by_action = total == linalg.rank_log(I.rows, p, N)
    return definitional, by_action


def control_lattice(
    I: SubmoduleBasis,
) -> Dict[Tuple[int, ...], Tuple[bool, bool]]:
    """Both control verdicts on every compatible diagonal lattice point
    e in {0..n}^d; incompatible exponent vectors are skipped."""
    Q = I.quotient
    out = {}
    for e in product(range(Q.n + 1), repeat=Q.dim):
        U = OpenSubgroupSpec(Q, e)
        if not U.is_compatible():
            continue
        out[e] = is_controlled(I, U)
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
# the subgroup U_lambda of an automorphism


@dataclass
class ApproxSeries:
    """Growth data v(q_{i,m}) of an automorphism, per basis index."""

    quotient: QuotientGroup
    phi: AutomorphismSpec
    values: Dict[int, List[FiltValue]]  # index i -> series over m
    m_range: Tuple[int, ...]

    @property
    def lam(self) -> Optional[int]:
        vals = [
            s[0].value for s in self.values.values() if s and s[0].exact
        ]
        return min(vals) if vals else None

    def realizing_indices(self) -> List[int]:
        lam = self.lam
        return [
            i
            for i, s in self.values.items()
            if s and s[0].exact and s[0].value == lam
        ]

    def ratio_stabilization(self, max_prec: int) -> Dict[int, List[int]]:
        """Leading-coefficient ratios q_{1,m}^{-1} q_{i,m} mod p^j monitored
        for eventual constancy; returns, per realizing index, the residues
        observed per m (constant tails witness stabilization)."""
        Q = self.quotient
        out = {}
        reals = self.realizing_indices()
        if not reals:
            return out
        base = reals[0]
        for i in reals:
            res = []
            for m_pos in range(len(self.m_range)):
                a = self.values[base][m_pos]
                b = self.values[i][m_pos]
                if a.exact and b.exact:
                    res.append(b.value - a.value)
            out[i] = res
        return out


def build_series(
    phi: AutomorphismSpec,
    Q: QuotientGroup,
    m_range: Sequence[int],
    regime: str = "char0",
) -> ApproxSeries:
    from .mahler import q_growth

    values = {
        i: q_growth(phi, i, m_range, regime, Q) for i in range(Q.dim)
    }
    return ApproxSeries(Q, phi, values, tuple(m_range))


def u_lambda(series: ApproxSeries, g_idx: int) -> Optional[bool]:
    """Membership of g in U = {g : v(z(g) - 1) > lambda}.

    Returns None (indeterminate) when the weight sits at the precision
    floor but lambda + 1 does not: the stage cannot decide.
    """
    lam = series.lam
    if lam is None:
        raise PrecisionError("lambda is not determined at this precision")
    Q = series.quotient
    z, stable = z_stable(series.phi, Q.matrix(g_idx), max(series.m_range), Q)
    if not stable:
        raise PrecisionError("z-map did not stabilize")
    zel = AlgebraElement.group_element(Q, Q.index_of_matrix(z))
    v = lazard_value(zel - AlgebraElement.one(Q))
    if v.exact:
        return v.value > lam
    # at the floor: decided only if the floor itself exceeds lambda
    if v.floor > lam:
        return True
    return None


# ---------------------------------------------------------------------------
# coset splitting and the derivation h


def coset_split(
    r: AlgebraElement, U: OpenSubgroupSpec
) -> Dict[Tuple[int, ...], AlgebraElement]:
    """Split r = sum_b r_b * g_b over representatives g_b = g^b of U,
    with each component r_b supported in the U-subalgebra.

    A support point k lies in exactly one coset U·g_b; its contribution to
    r_b is s_k * (k * g_b^{-1}), which lies in KU."""
    Q = r.quotient
    rep_of: Dict[int, Tuple[int, ...]] = {}
    for b, members in zip(U.coset_representatives(), U.coset_partition().values()):
        for k in members:
            rep_of[k] = b
    comps: Dict[Tuple[int, ...], Dict[int, int]] = {}
    for k, s in r.coeffs.items():
        b = rep_of[k]
        comps.setdefault(b, {})[k] = s
    result = {}
    for b in U.coset_representatives():
        rep_inv = Q.inv(Q.index(b))
        shifted = {
            Q.mult(k, rep_inv): s for k, s in comps.get(b, {}).items()
        }
        result[b] = AlgebraElement(Q, shifted)
    return result


def reassemble(split: Dict[Tuple[int, ...], AlgebraElement], Q: QuotientGroup) -> AlgebraElement:
    total = AlgebraElement.zero(Q)
    for b, comp in split.items():
        rep = AlgebraElement.group_element(Q, Q.index(b))
        total = total + comp * rep
    return total


def identity_coset_component(r: AlgebraElement, U: OpenSubgroupSpec) -> AlgebraElement:
    """r - rho(f)(r) for f = 1 - indicator(U): the U-supported part of r."""
    Q = r.quotient
    members = U.elements()
    f = {k: (0 if k in members else 1) for k in r.coeffs}
    return r - rho(f, r)


def h_derivation(betas: Sequence[int], x: AlgebraElement) -> AlgebraElement:
    """h(x) = sum_i beta_i * ∂^{(e_i)}(x): the stage derivation."""
    Q = x.quotient
    if len(betas) != Q.dim:
        raise ValidationError("betas length mismatch")
    out = AlgebraElement.zero(Q)
    for i, c in enumerate(betas):
        if c % Q.coeff_mod == 0:
            continue
        e = tuple(1 if j == i else 0 for j in range(Q.dim))
        out = out + divided_power(e, x).scale(c)
    return out


def annihilation_check(betas: Sequence[int], I: SubmoduleBasis) -> bool:
    """Does h map every basis element of I back into I?"""
    Q = I.quotient
    for r in I.rows:
        x = AlgebraElement.from_vector(Q, r)
        if not I.member(h_derivation(betas, x)):
            return False
    return True


# ---------------------------------------------------------------------------
# stage-level ideal predicates


def is_faithful(I: SubmoduleBasis) -> bool:
    """No nontrivial g in Q has g - 1 in I (stage shadow of faithfulness)."""
    Q = I.quotient
    # row g - 1 holds the vector of g - 1: 1 at g, -1 at the identity
    vecs = np.eye(Q.size, dtype=np.int64)[1:]
    vecs[:, 0] = -1
    rems = linalg.reduce_rows(I.rows, vecs, Q.p, Q.N)
    return bool(np.all(np.any(rems, axis=1)))


def centre_indices(Q: QuotientGroup) -> List[int]:
    """Elements of Q commuting with all generators."""
    gens = [Q.generator(i) for i in range(Q.dim)]
    out = []
    for h in range(Q.size):
        if all(Q.mult(h, g) == Q.mult(g, h) for g in gens):
            out.append(h)
    return out


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


def is_j_ideal(I: SubmoduleBasis, rank_bound: int) -> bool:
    """Stage shadow: centre image modulo I has rank_log at most the bound."""
    return j_ideal_rank(I) <= rank_bound
