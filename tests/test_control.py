"""Subgroup control: lattice sweeps checked against brute-force oracles
on small stages, and ideal predicates."""

import itertools
import random

import numpy as np
import pytest

from control_route import coset_partition, grid, rho
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


def mask(Q, members):
    inside = np.zeros(Q.size, dtype=bool)
    inside[list(members)] = True
    return inside


def cyclic_subgroup(Q, g):
    """The powers of g, by repeated scalar products."""
    members, h = [0], int(Q.mult_array(0, g))
    while h != 0:
        members.append(h)
        h = int(Q.mult_array(h, g))
    return members


class TestLatticeGrid:
    def test_elements_and_order(self):
        Q = heis_quotient()
        members, compatible = Q.lattice_grid((1, 1, 0))
        assert compatible
        assert members.size == P
        assert Q.generator(2) in members

    def test_incompatible_exponents_detected(self):
        # e = (0,0,1) regenerates g3 through the commutator (g1,g2)
        Q = heis_quotient()
        members, compatible = Q.lattice_grid((0, 0, 1))
        assert not compatible
        assert members.size == P**2

    def test_coset_partition(self):
        Q = heis_quotient()
        part = coset_partition(Q, grid(Q, (1, 0, 0)))
        seen = sorted(k for members in part.values() for k in members)
        assert seen == list(range(Q.size))


class TestMaskChecks:
    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda Q: np.ones(Q.size - 1, dtype=bool), "boolean mask of length"),
            (lambda Q: ~mask(Q, [0]), "identity"),
            (lambda Q: mask(Q, [0, 1]), "does not divide"),
        ],
        ids=["length", "identity", "order"],
    )
    def test_bad_mask_raises(self, make, message):
        Q = heis_quotient()
        with pytest.raises(ValidationError, match=message):
            is_controlled(central_ideal(Q), make(Q))


def brute_force_by_action(I, members):
    """rho(indicator of each right coset of the subgroup U with the given
    members) must map I into I."""
    Q = I.quotient
    for coset in coset_partition(Q, members).values():
        member_set = set(coset)
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
                    members = grid(Q, e)
                    if members is None:
                        continue
                    definitional, by_action = is_controlled(I, mask(Q, members))
                    assert definitional == by_action
                    assert by_action == brute_force_by_action(I, members)

    def test_subgroups_off_the_grid_agree_with_brute_force(self):
        # <g1 g2> is no coordinate grid: its square has a g3 digit
        Q = heis_quotient()
        diagonal = cyclic_subgroup(Q, Q.index((1, 1, 0)))
        assert len(diagonal) == P and Q.index((2, 2, 2)) in diagonal
        rng = random.Random(26)
        verdicts = set()
        for members in (diagonal, centre_indices(Q)):
            # u - 1 for a generator u of U lies in KU, so U controls its ideal
            gens = [AlgebraElement(Q, {members[1]: 1, 0: -1})]
            for _ in range(4):
                x = AlgebraElement(
                    Q, {rng.randrange(Q.size): rng.randrange(1, 9) for _ in range(2)}
                )
                gens.append(x - AlgebraElement.one(Q).scale(sum(x.coeffs.values())))
            for x in gens:
                I = ideal_closure([x], side="right", quotient=Q)
                definitional, by_action = is_controlled(I, mask(Q, members))
                assert definitional == by_action == brute_force_by_action(I, members)
                verdicts.add(by_action)
        assert verdicts == {True, False}

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


def test_large_control_builds_no_columns():
    # |Q| = 3^12 is above the dense limit: the closure, the lattice grids,
    # is_faithful and j_ideal_rank take every product from the product law,
    # and the generator columns, which would take 1.03 GB, are never built
    Q = build_quotient(heisenberg_chart(P), 4, 2, size_budget=10**7)
    assert not Q.dense
    I = central_ideal(Q)
    lattice = control_lattice(I)
    got = (I.rank_log, controller_estimate(I, lattice), is_faithful(I), j_ideal_rank(I),
           len(lattice))
    assert got == (1049760, (4, 4, 0), False, 2, 105)
    assert Q._columns is None and Q._mult_table is None
