"""Seeded operations for the benchmark workloads.

A workload is a list of slots; each slot is a list of candidate operations,
and the workload seed picks one candidate per slot.  A slot with a single
candidate is a fixed member (the files in ``inputs/``).  Every candidate
carries the answers an oracle knows without running the program, and the
digest table (digests.json) covers every candidate of every slot, so any
seed yields fully checked operations.

Ideal generators are b-monomials ``(g_1-1)^a1 ... (g_d-1)^ad`` with
``|alpha| <= 3``.  Dense generators with unit coefficients would generate
the whole algebra (rank_log = N|Q|), and ``is_controlled`` returns early on
that, so such a workload would not measure the control lattice at all.

Known answers used by the oracle:
- an ideal generated by ``(g_i - 1)^k`` lies in K<g_i>, so the subgroups
  containing g_i control it and no other diagonal one does: the controller
  estimate is n on every axis except 0 on axis i.  For the Heisenberg
  centre (i = 3) this is the central-ideal controller (n, n, 0);
- the zero ideal has rank_log 0 and controller (n, ..., n);
- the identity and every inner automorphism factor (by_formula and
  by_commutation both True); the swap g1 <-> g2 does not;
- conjugation by g_1^a g_2^b g_3^c on the Heisenberg chart sends
  g_1 -> g_1 g_3^-b, g_2 -> g_2 g_3^a and fixes g_3;
- for heis_conj (lambda = 2) the growth of axis 2 is 2, 3, 4 in
  characteristic 0;
- upper5 (5x5 strictly upper triangular) has nilpotency class 4.
"""

from __future__ import annotations

import functools
import os
import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

P = 3
N = 2  # coefficient precision of every control stage


@dataclass(frozen=True)
class Op:
    """One CLI command on one presentation file."""

    command: str
    stem: str  # file name without .txt
    text: str  # presentation file contents
    args: Tuple[str, ...]
    expect: Dict = field(default_factory=dict, hash=False, compare=False)

    @property
    def key(self) -> str:
        return f"{self.command} {self.stem} {' '.join(self.args)}".strip()


def _fixed_text(root: str, name: str) -> str:
    with open(os.path.join(root, "inputs", f"{name}.txt"), encoding="utf-8") as fh:
        return fh.read()


def _bmono_text(chart: str, alpha) -> str:
    return f"p {P}\nchart {chart}\nideal bmono {' '.join(map(str, alpha))}\n"


def _inner_text(a: int, b: int) -> str:
    return (
        f"# Heisenberg: conjugation by g1^{a} g2^{b}\n"
        f"p {P}\nchart heisenberg\naut 1 1 0 {-b}\naut 2 0 1 {a}\naut 3 0 0 1\n"
    )


def _levels(n: int) -> Tuple[str, ...]:
    return ("--level", str(n), "--coeff-prec", str(N))


def _control_expect(dim: int, n: int, alpha=None, kind=None) -> Dict:
    """Answers known for a control command on a |Q| = p^(n dim) stage."""
    size = P ** (n * dim)
    out: Dict = {"full_rank": N * size, "dim": dim}
    if kind == "zero":
        out.update(rank_log=0, controller_estimate=[n] * dim)
    elif alpha is not None and sum(1 for a in alpha if a) == 1:
        axis = next(i for i, a in enumerate(alpha) if a)
        out.update(controller_estimate=[0 if i == axis else n for i in range(dim)])
    return out


def _control_fixed(root, name, dim, n, **known):
    return [Op("control", name, _fixed_text(root, name), _levels(n),
               _control_expect(dim, n, **known))]


def _control_bmono(chart, dim, n, alphas):
    return [
        Op("control", f"{chart}-bmono-{'-'.join(map(str, a))}", _bmono_text(chart, a),
           _levels(n), _control_expect(dim, n, alpha=a))
        for a in alphas
    ]


def _mahler(stem, text, n, degree, by_formula):
    return Op("mahler", stem, text, ("--level", str(n), "--degree", str(degree)),
              {"by_formula": by_formula, "by_commutation": by_formula})


def _inner(n, degree):
    r = P**n
    return [
        _mahler(f"heis-inner-{a}-{b}", _inner_text(a, b), n, degree, True)
        # (0, 0) is heis_id and (1, 0) is heis_conj, both fixed members
        for a in range(r) for b in range(r) if (a, b) not in ((0, 0), (1, 0))
    ]


def slots(workload: str, root: str) -> List[List[Op]]:
    """Candidate operations per slot; ``root`` holds the ``inputs/`` files."""
    fx = functools.partial(_fixed_text, root)
    if workload == "control-729":
        axis = [tuple(k if i == j else 0 for j in range(2)) for i in range(2) for k in (1, 2, 3)]
        return [
            _control_fixed(root, "heis_zero_ideal", 3, 2, kind="zero"),
            _control_fixed(root, "heis_central_ideal", 3, 2, alpha=(0, 0, 1)),
            _control_bmono("abelian2", 2, 3, axis),
        ]
    if workload == "mahler-729":
        # ucs and growth never reach linalg either; two cheap members keep
        # the median operation a level-2 mahler command.
        return [
            [_mahler("heis_conj", fx("heis_conj"), 2, 6, True)],
            [_mahler("heis_id", fx("heis_id"), 2, 6, True)],
            [_mahler("heis_swap", fx("heis_swap"), 2, 6, False)],
            _inner(2, 6),
            [Op("ucs", "upper5", fx("upper5"), (), {"nilpotency_class": 4})],
            [Op("growth", "heis_conj", fx("heis_conj"),
                ("--level", "4", "--coeff-prec", "6", "--m-max", "2", "--regime", "char0",
                 "--size-budget", "10000000"), {"axis2": [2, 3, 4]})],
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("control-729", "mahler-729")


def draw(workload: str, seed: int, root: str) -> List[Op]:
    """The operations of one run: one candidate per slot, chosen by the seed."""
    rng = random.Random(f"{workload}/{seed}")
    return [rng.choice(cands) for cands in slots(workload, root)]


def write_inputs(ops: List[Op], directory: str) -> Dict[str, str]:
    """Write each operation's presentation file; map op key -> path."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for op in ops:
        path = os.path.join(directory, f"{op.command}-{op.stem}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(op.text)
        paths[op.key] = path
    return paths
