"""Batch driver: ingest presentation files, run computations, emit reports.

One process, one command per run.  Text output is for reading; structured
output is a single self-describing JSON document (config echo included)
that is byte-identical across runs with the same input, flags and seed.

The command line is `COMMAND INPUT` plus flags, read with one table
(`FLAGS`: flag -> config field, `int` or a tuple of choices, default).  A
flag goes before, between or after the two positionals; it takes its value
as the next argument or after "=" (`--level 2`, `--level=2`), a unique
prefix names it (`--lev`), a negative integer is a value (`--m-max -1`),
the last of a repeated flag wins, and "--" ends the flags.  `-h`/`--help`
prints `USAGE` and exits 0.

Exit codes: 0 success, 1 validation failure (a malformed command line
among them: an unknown or ambiguous flag, a missing value, a non-integer,
a bad choice, a wrong count of positionals or an unknown command),
2 budget/precision failure, 3 internal invariant violation (an
equivalence that must hold by theorem came out unequal — that falsifies
the build, not the input).
"""

from __future__ import annotations

import json
import math
import random
import sys
from types import SimpleNamespace
from typing import Dict, List

from . import control as control_mod
from . import mahler as mahler_mod
from . import nilpotent
from .algebra import DEFAULT_SIZE_BUDGET, AlgebraElement, FiltValue, build_quotient, ideal_closure
from .errors import (
    BudgetError,
    InvariantViolation,
    PrecisionError,
    ValidationError,
)
from .presentation import load_presentation


def _cell(v: FiltValue) -> Dict:
    return {
        "value": v.value,
        "floor": v.floor,
        "status": v.status,
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
    chain = report.series
    c_z2 = nilpotent.second_centre_centralizer(L, chain)
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
    Q = build_quotient(chart, config.level, config.coeff_prec, size_budget=config.size_budget)
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
    # one expansion pass serves every sampled element at every degree
    # 1 .. D; only the residual weights are kept
    weights = [
        [res for _, res in steps]
        for steps in mahler_mod.expand_aut(
            phi, [AlgebraElement.group_element(Q, g) for g in sample], degree, table)
    ] if degree else []
    # the first least residual weight, None counting as infinite
    residuals = {
        d: min((row[d] for row in weights),
               key=lambda r: math.inf if r.value is None else r.value)
        for d in range(1, degree + 1)
    }

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
    Q = build_quotient(chart, config.level, config.coeff_prec, size_budget=config.size_budget)
    gens = doc.ideal_generators(Q)
    I = ideal_closure(gens, side="right", quotient=Q)
    lattice = control_mod.control_lattice(I)
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
    if config.m_max < 0:
        raise ValidationError(f"--m-max must be >= 0, got {config.m_max}")
    if config.regime == "char0" and config.coeff_prec == 1:
        raise ValidationError("char0 regime needs coefficient precision N > 1")
    doc = _load(config)
    chart = doc.chart()
    phi = doc.automorphism(chart)
    N = 1 if config.regime == "charp" else config.coeff_prec
    Q = build_quotient(chart, config.level, N, size_budget=config.size_budget, verify=False)
    if not phi.verify_homomorphism(Q):
        print("automorphism spec is not a homomorphism on the stage", file=sys.stderr)
        return 1
    m_range = list(range(config.m_max + 1))
    table = mahler_mod.q_growth(phi, m_range, Q)
    fits: Dict[int, Dict] = {}
    lines = [f"growth regime {config.regime}: chart {chart.name}, n={Q.n}, N={Q.N}"]
    p = Q.p
    for i, vals in enumerate(table):
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
            str(i + 1): [_cell(v) for v in vals] for i, vals in enumerate(table)
        },
        "fits": {str(i + 1): fits[i] for i in fits},
    }
    _emit(out, lines, config)
    return 0


# ---------------------------------------------------------------------------
# driver


_COMMANDS = {
    "ucs": cmd_ucs,
    "mahler": cmd_mahler,
    "control": cmd_control,
    "growth": cmd_growth,
}


# flag -> (config field, int or the tuple of its choices, default)
FLAGS = {
    "--p": ("p", int, None),
    "--level": ("level", int, 1),
    "--coeff-prec": ("coeff_prec", int, 2),
    "--degree": ("degree", int, 6),
    "--m-max": ("m_max", int, 2),
    "--regime": ("regime", ("char0", "charp"), "char0"),
    "--format": ("format", ("text", "structured"), "text"),
    "--seed": ("seed", int, 0),
    "--size-budget": ("size_budget", int, DEFAULT_SIZE_BUDGET),
}

USAGE = f"""\
usage: iwasawa-kernel {{ucs,mahler,control,growth}} INPUT [flags]

finite-stage computations in Iwasawa algebras of uniform pro-p groups

Flags go before, between or after the command and the presentation file
INPUT.  A flag takes its value as the next argument or after "=", a unique
prefix names it, and the last of a repeated flag wins.

  -h, --help            print this text
  --p P                 override the prime
  --level n             quotient level n (1)
  --coeff-prec N        coefficient precision N (2)
  --degree D            Mahler degree cap D (6)
  --m-max M             largest m in growth tables (2)
  --regime {{char0,charp}}
  --format {{text,structured}}
  --seed S              sampling seed (0)
  --size-budget B       largest |Q| that mahler, control and growth accept
                        ({DEFAULT_SIZE_BUDGET})
"""


def _flag(arg: str):
    """The flag an argument names, "" for an unknown flag, and None for a
    value.  This is argparse's reading: "-", a negative number and an
    argument with a space that names no flag are values."""
    if arg[:1] != "-" or arg == "-":
        return None
    name = arg.partition("=")[0]
    if name == "-h":
        return "--help"
    if name.startswith("--"):
        hits = [f for f in (*FLAGS, "--help") if f.startswith(name)]
        if name in hits:
            return name
        if len(hits) > 1:
            raise ValidationError(f"ambiguous flag {name}: could be {', '.join(hits)}")
        if hits:
            return hits[0]
    # the negative numbers -\d+ and -\d*\.\d+
    whole, dot, frac = arg[1:].partition(".")
    if (whole.isdecimal() and not dot) or ((not whole or whole.isdecimal()) and frac.isdecimal()):
        return None
    return None if " " in arg else ""


def parse_args(argv: List[str]):
    """The config of one command line, or None for -h/--help."""
    config = {field: default for field, _, default in FLAGS.values()}
    positionals: List[str] = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        i += 1
        if arg == "--":
            positionals += argv[i:]
            break
        flag = _flag(arg)
        if flag is None:
            positionals.append(arg)
            continue
        name, eq, value = arg.partition("=")
        if not flag:
            raise ValidationError(f"unknown flag {name}")
        if flag == "--help":
            if eq:
                raise ValidationError(f"{name} takes no value")
            return None
        if not eq:
            if i == len(argv) or argv[i] == "--" or _flag(argv[i]) is not None:
                raise ValidationError(f"{flag} needs a value")
            value = argv[i]
            i += 1
        field, kind, _ = FLAGS[flag]
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise ValidationError(f"{flag} needs an integer, got {value!r}") from None
        elif value not in kind:
            raise ValidationError(f"{flag} must be one of {', '.join(kind)}, got {value!r}")
        config[field] = value
    if len(positionals) != 2:
        raise ValidationError(
            f"expected a command and an input file, got {positionals!r}; see --help")
    config["command"], config["input"] = positionals
    if config["command"] not in _COMMANDS:
        raise ValidationError(
            f"unknown command {config['command']!r}: choose from {', '.join(_COMMANDS)}")
    return SimpleNamespace(**config)


def main(argv=None) -> int:
    try:
        config = parse_args(sys.argv[1:] if argv is None else argv)
        if config is None:
            print(USAGE, end="")
            return 0
        if config.p is not None and config.p < 2:
            print("p must be a prime", file=sys.stderr)
            return 1
        if config.size_budget < 1:
            raise ValidationError(f"--size-budget must be >= 1, got {config.size_budget}")
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
