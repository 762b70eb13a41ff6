"""Batch driver: ingest presentation files, run computations, emit reports.

One process, one command per run.  Text output is for reading; structured
output is a single self-describing JSON document (config echo included)
that is byte-identical across runs with the same input, flags and seed.

Exit codes: 0 success, 1 validation failure, 2 budget/precision failure,
3 internal invariant violation (an equivalence that must hold by theorem
came out unequal — that falsifies the build, not the input).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import Dict, List, Optional

from . import control as control_mod
from . import mahler as mahler_mod
from . import nilpotent
from .algebra import AlgebraElement, FiltValue, build_quotient, ideal_closure
from .errors import (
    BudgetError,
    InvariantViolation,
    KernelError,
    PrecisionError,
    ValidationError,
)
from .presentation import load_presentation


def _status(v: FiltValue) -> str:
    return "exact" if v.exact else ">= floor"


def _cell(v: FiltValue) -> Dict:
    return {
        "value": v.value,
        "floor": v.floor,
        "status": _status(v),
    }


def _emit(doc: Dict, lines: List[str], config) -> None:
    if config.format == "structured":
        doc["config"] = {
            "command": config.command,
            "input": config.input,
            "p": config.p,
            "level": config.level,
            "coeff_prec": config.coeff_prec,
            "degree": config.degree,
            "m_max": config.m_max,
            "regime": config.regime,
            "seed": config.seed,
        }
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        print("\n".join(lines))


# ---------------------------------------------------------------------------
# subcommands


def _load(config):
    doc = load_presentation(config.input)
    if config.p is not None:
        doc.p = config.p
    return doc


def cmd_ucs(config) -> int:
    doc = _load(config)
    L = doc.lie_presentation()
    report = nilpotent.validate(L)
    if not report.ok:
        print(str(report), file=sys.stderr)
        return 1
    chain = nilpotent.upper_central_series(L)
    c_z2 = nilpotent.second_centre_centralizer(L)
    cls = len(chain) - 1
    lines = [f"presentation: p={L.p} dim={L.dim} prec={L.prec}", "valid"]
    for k, sub in enumerate(chain):
        lines.append(f"Z_{k} = {sub.describe()}")
    lines.append(f"C(Z_2) = {c_z2.describe()}")
    lines.append(f"nilpotency class = {cls}")
    out = {
        "command": "ucs",
        "series": [[list(map(str, r)) for r in sub.rows] for sub in chain],
        "series_described": [sub.describe() for sub in chain],
        "centralizer_z2": [list(map(str, r)) for r in c_z2.rows],
        "centralizer_z2_described": c_z2.describe(),
        "nilpotency_class": cls,
    }
    _emit(out, lines, config)
    return 0


def cmd_mahler(config) -> int:
    doc = _load(config)
    chart = doc.chart()
    phi = doc.automorphism(chart)
    Q = build_quotient(chart, config.level, config.coeff_prec)
    if not phi.verify_homomorphism(Q):
        print("automorphism spec is not a homomorphism on the stage", file=sys.stderr)
        return 1
    degree = config.degree
    table = mahler_mod.aut_mahler_coeffs(phi, Q, degree)
    by_formula, by_commutation, witness = mahler_mod.is_mahler_aut(phi, Q, degree, table)
    if by_formula != by_commutation:
        raise InvariantViolation(
            "factorization criteria disagree: "
            f"by_formula={by_formula} by_commutation={by_commutation}"
        )
    rng = random.Random(config.seed)
    sample = sorted(rng.randrange(Q.size) for _ in range(min(4, Q.size)))
    residuals = {}
    for d in range(1, degree + 1):
        worst: Optional[FiltValue] = None
        for g in sample:
            x = AlgebraElement.group_element(Q, g)
            _, res = mahler_mod.expand_aut(phi, x, d, table)
            if worst is None or (
                res.value is not None
                and (worst.value is None or res.value < worst.value)
            ):
                worst = res
        residuals[d] = worst

    lines = [f"automorphism: {phi.name} on {chart.name}, |Q| = {Q.size}"]
    lines.append(f"mahler factorization: by_formula={by_formula} by_commutation={by_commutation}")
    if witness is not None:
        lines.append(f"mismatch witness: alpha = {list(witness)}")
    lines.append("decay log (shell: min valuation):")
    for s, v in enumerate(table.decay_log):
        lines.append(f"  |alpha| = {s}: {'-' if v is None else v}")
    lines.append("expansion residual weight per degree (worst sampled element):")
    for d, res in residuals.items():
        lines.append(f"  D = {d}: {res}")
    out = {
        "command": "mahler",
        "chart": chart.name,
        "by_formula": by_formula,
        "by_commutation": by_commutation,
        "decay_log": [v for v in table.decay_log],
        "support_shell": table.support_shell(),
        "coefficients": {
            ",".join(map(str, alpha)): sorted(
                (int(k), int(c)) for k, c in val.coeffs.items()
            )
            if isinstance(val, AlgebraElement)
            else int(val)
            for alpha, val in sorted(table.entries.items())
        },
        "residuals": {str(d): _cell(r) for d, r in residuals.items()},
        "sampled_elements": sample,
    }
    _emit(out, lines, config)
    return 0


def cmd_control(config) -> int:
    doc = _load(config)
    chart = doc.chart()
    Q = build_quotient(chart, config.level, config.coeff_prec)
    gens = doc.ideal_generators(Q)
    I = ideal_closure(gens, side="right", quotient=Q)
    lattice = control_mod.control_lattice(I)
    for e, (definitional, by_action) in sorted(lattice.items()):
        if definitional != by_action:
            raise InvariantViolation(
                f"control verdicts disagree at lattice point {e}: "
                f"definitional={definitional} by_action={by_action}"
            )
    controller = control_mod.controller_estimate(I, lattice)
    faithful = control_mod.is_faithful(I)
    j_rank = control_mod.j_ideal_rank(I)

    lines = [f"ideal: {len(gens)} generators, rank_log = {I.rank_log}, |Q| = {Q.size}"]
    lines.append("control matrix (e: definitional, by_action):")
    for e, (d, a) in sorted(lattice.items()):
        lines.append(f"  {e}: {d} {a}")
    lines.append(f"controller estimate: {controller}")
    lines.append(f"faithful: {faithful}")
    lines.append(f"centre image rank_log mod I: {j_rank}")
    out = {
        "command": "control",
        "chart": chart.name,
        "rank_log": I.rank_log,
        "lattice": {
            ",".join(map(str, e)): {"definitional": d, "by_action": a}
            for e, (d, a) in sorted(lattice.items())
        },
        "controller_estimate": list(controller),
        "faithful": faithful,
        "j_ideal_rank": j_rank,
    }
    _emit(out, lines, config)
    return 0


def cmd_growth(config) -> int:
    doc = _load(config)
    chart = doc.chart()
    phi = doc.automorphism(chart)
    N = 1 if config.regime == "charp" else config.coeff_prec
    Q = build_quotient(chart, config.level, N, size_budget=config.size_budget, verify=False)
    if not phi.verify_homomorphism(Q):
        print("automorphism spec is not a homomorphism on the stage", file=sys.stderr)
        return 1
    m_range = list(range(config.m_max + 1))
    table: Dict[int, List[FiltValue]] = {}
    fits: Dict[int, Dict] = {}
    lines = [f"growth regime {config.regime}: chart {chart.name}, n={Q.n}, N={Q.N}"]
    p = Q.p
    for i in range(Q.dim):
        vals = mahler_mod.q_growth(phi, i, m_range, config.regime, Q)
        table[i] = vals
        exact = [(m, v.value) for m, v in zip(m_range, vals) if v.exact]
        fit: Dict = {"law": None, "lambda": None, "fit_exact": None}
        if not exact:
            fit["law"] = "indeterminate"
        elif config.regime == "char0":
            m0, v0 = exact[0]
            lam = v0 - m0
            ok = all(v == lam + m for m, v in exact)
            fit.update({"law": "affine", "lambda": lam, "fit_exact": ok})
        else:
            m0, v0 = exact[0]
            lam, rem = divmod(v0, p**m0)
            ok = rem == 0 and all(v == lam * p**m for m, v in exact)
            fit.update({"law": "p-power", "lambda": lam, "fit_exact": ok})
        if fit["fit_exact"] is False:
            raise InvariantViolation(
                f"growth law violated on axis {i + 1}: "
                f"{[(m, v.value) for m, v in zip(m_range, vals)]}"
            )
        fits[i] = fit
        cells = " ".join(f"m={m}:{v}" for m, v in zip(m_range, vals))
        lines.append(f"axis g{i + 1}: {cells}")
        lines.append(f"  fit: {fit['law']}"
                     + (f", lambda = {fit['lambda']}" if fit["lambda"] is not None else ""))
    out = {
        "command": "growth",
        "chart": chart.name,
        "regime": config.regime,
        "m_range": m_range,
        "table": {
            str(i + 1): [_cell(v) for v in vals] for i, vals in table.items()
        },
        "fits": {str(i + 1): fits[i] for i in fits},
    }
    _emit(out, lines, config)
    return 0


# ---------------------------------------------------------------------------
# driver


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iwasawa-kernel",
        description="finite-stage computations in Iwasawa algebras of uniform pro-p groups",
    )
    parser.add_argument("command", choices=["ucs", "mahler", "control", "growth"])
    parser.add_argument("input", help="presentation file")
    parser.add_argument("--p", type=int, default=None, help="override the prime")
    parser.add_argument("--level", type=int, default=1, help="quotient level n")
    parser.add_argument("--coeff-prec", dest="coeff_prec", type=int, default=2,
                        help="coefficient precision N")
    parser.add_argument("--degree", type=int, default=6, help="Mahler degree cap D")
    parser.add_argument("--m-max", dest="m_max", type=int, default=2,
                        help="largest m in growth tables")
    parser.add_argument("--regime", choices=["char0", "charp"], default="char0")
    parser.add_argument("--format", choices=["text", "structured"], default="text")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size-budget", dest="size_budget", type=int,
                        default=50_000, help="dense |Q| budget")
    return parser


_COMMANDS = {
    "ucs": cmd_ucs,
    "mahler": cmd_mahler,
    "control": cmd_control,
    "growth": cmd_growth,
}


def main(argv=None) -> int:
    config = build_parser().parse_args(argv)
    if config.p is not None and config.p < 2:
        print("p must be a prime", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[config.command](config)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except (BudgetError, PrecisionError) as exc:
        print(f"budget/precision failure: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, OSError) as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
