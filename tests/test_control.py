"""Subgroup control: lattice sweeps checked against brute-force oracles
on small stages, and ideal predicates."""

import itertools
import random

import numpy as np
import pytest

from control_route import coset_partition, rho
from stages import from_vector
from iwasawa_kernel import linalg
from iwasawa_kernel.algebra import (
    AlgebraElement,
    b_element,
    b_monomial,
    build_quotient,
    ideal_closure,
)
from iwasawa_kernel.charts import abelian_chart, cyclic_chart, heisenberg_chart
from iwasawa_kernel.control import (
    OpenSubgroupSpec,
    centre_indices,
    control_lattice,
    controller_estimate,
    is_controlled,
    is_faithful,
    j_ideal_rank,
)
from iwasawa_kernel.errors import ValidationError

P = 3


def heis_quotient(n=1, N=2):
    return build_quotient(heisenberg_chart(P), n, N)


def central_ideal(Q):
    return ideal_closure([b_element(Q, 2)], side="right", quotient=Q)


class TestOpenSubgroupSpec:
    def test_elements_and_order(self):
        Q = heis_quotient()
        U = OpenSubgroupSpec(Q, (1, 1, 0))
        assert U.expected_order == P
        assert U.members().size == P
        assert Q.generator(2) in U.members()

    def test_incompatible_exponents_detected(self):
        # e = (0,0,1) regenerates g3 through the commutator (g1,g2)
        Q = heis_quotient()
        U = OpenSubgroupSpec(Q, (0, 0, 1))
        assert not U.is_compatible()
        with pytest.raises(ValidationError):
            U.members()

    def test_coset_partition(self):
        Q = heis_quotient()
        U = OpenSubgroupSpec(Q, (1, 0, 0))
        part = coset_partition(U)
        seen = sorted(k for members in part.values() for k in members)
        assert seen == list(range(Q.size))

    def test_exponent_bounds(self):
        Q = heis_quotient()
        with pytest.raises(ValidationError):
            OpenSubgroupSpec(Q, (2, 0, 0))


def brute_force_by_action(I, U):
    """rho(indicator of each U-coset) must map I into I."""
    Q = I.quotient
    for members in coset_partition(U).values():
        member_set = set(members)
        for row in I.rows.toarray():
            x = from_vector(Q, row)
            proj = rho(lambda k, s=member_set: 1 if k in s else 0, x)
            vec = linalg.Rows.from_dicts([proj.coeffs], Q.size)
            if not linalg.in_span(I.rows, vec, Q.p, Q.N)[0]:
                return False
    return True


class TestIsControlled:
    def test_agrees_with_brute_force(self):
        rng = random.Random(21)
        for chart in [cyclic_chart(P), abelian_chart(P, 2), heisenberg_chart(P)]:
            Q = build_quotient(chart, 1, 2)
            for _ in range(4):
                gen = AlgebraElement(
                    Q,
                    {rng.randrange(Q.size): rng.randrange(1, 9) for _ in range(2)},
                )
                I = ideal_closure([gen], side="right", quotient=Q)
                for e in itertools.product(range(2), repeat=Q.dim):
                    U = OpenSubgroupSpec(Q, e)
                    if not U.is_compatible():
                        continue
                    definitional, by_action = is_controlled(I, U)
                    assert definitional == by_action
                    assert by_action == brute_force_by_action(I, U)

    def test_central_ideal_controller(self):
        Q = heis_quotient()
        I = central_ideal(Q)
        lattice = control_lattice(I)
        assert all(d == a for d, a in lattice.values())
        assert controller_estimate(I, lattice) == (1, 1, 0)

    def test_central_ideal_controller_level2(self):
        Q = heis_quotient(2)
        I = central_ideal(Q)
        assert controller_estimate(I, control_lattice(I)) == (2, 2, 0)

    def test_zero_ideal_controlled_by_finest(self):
        Q = heis_quotient()
        I = ideal_closure([], side="right", quotient=Q)
        lattice = control_lattice(I)
        assert all(d and a for d, a in lattice.values())
        assert controller_estimate(I, lattice) == (1, 1, 1)

    def test_augmentation_ideal_verdicts(self):
        # proper subgroups do not rebuild the full augmentation ideal at
        # this stage; both routes must still agree cell by cell
        Q = heis_quotient()
        gens = [b_element(Q, i) for i in range(3)]
        I = ideal_closure(gens, side="right", quotient=Q)
        lattice = control_lattice(I)
        assert all(d == a for d, a in lattice.values())
        assert lattice[(0, 0, 0)] == (True, True)
        assert lattice[(1, 1, 1)] == (False, False)


class TestIdealPredicates:
    def test_zero_ideal_is_faithful(self):
        Q = heis_quotient()
        assert is_faithful(ideal_closure([], side="right", quotient=Q))

    def test_augmentation_ideal_not_faithful(self):
        Q = heis_quotient()
        gens = [b_element(Q, i) for i in range(3)]
        assert not is_faithful(ideal_closure(gens, side="right", quotient=Q))

    def test_centre_of_heisenberg_stage(self):
        Q = heis_quotient()
        centre = centre_indices(Q)
        assert len(centre) == P  # powers of g3

    def test_j_rank_of_central_ideal(self):
        Q = heis_quotient()
        I = central_ideal(Q)
        assert j_ideal_rank(I) == 2

    def test_j_rank_of_zero_ideal_is_full_centre(self):
        Q = heis_quotient()
        I = ideal_closure([], side="right", quotient=Q)
        assert j_ideal_rank(I) == len(centre_indices(Q)) * 0 + linalg.rank_log(
            linalg.howell(
                np.eye(Q.size, dtype=np.int64)[centre_indices(Q)], P, Q.N
            ),
            P,
            Q.N,
        )
