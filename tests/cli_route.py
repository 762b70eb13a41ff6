"""The argparse route to the command line, kept as the tests' reference.

This is the parser `cli.main` used before it read argv with its own flag
table: the same positionals, flags, types, choices and defaults, with
argparse's reading of prefixes, `--flag=value`, negative numbers and
repeated flags.  A malformed command line raises `SystemExit(2)` here.
"""

import argparse

from iwasawa_kernel.algebra import DEFAULT_SIZE_BUDGET


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
                        default=DEFAULT_SIZE_BUDGET,
                        help="largest |Q| that mahler, control and growth accept")
    return parser


def parse_args(argv):
    return build_parser().parse_args(argv)
