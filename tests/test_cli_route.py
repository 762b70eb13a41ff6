"""The flag table against the argparse route it replaced (`cli_route`):
every valid command line gives the same config on both routes, and every
malformed one is refused by both, with exit 1 from `main`."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cli_route as ref
from iwasawa_kernel.cli import _COMMANDS, FLAGS, main, parse_args
from iwasawa_kernel.errors import ValidationError

VALID = [
    ["control", "in.txt"],
    ["mahler", "in.txt", "--level", "2", "--degree", "3", "--format", "structured"],
    ["control", "in.txt", "--level=2", "--format=structured"],
    # unique prefixes, with and without "="
    ["control", "in.txt", "--lev", "2", "--coeff", "2"],
    ["growth", "in.txt", "--lev=2", "--si=10", "--fo=structured", "--r=charp", "--m=1"],
    ["mahler", "in.txt", "--se", "5", "--d", "4", "--c=3"],
    # negative integers are values
    ["growth", "in.txt", "--m-max", "-1"],
    ["growth", "in.txt", "--m-max=-1", "--seed", "-7", "--p", "-3", "--size-budget", "-1"],
    # int() spellings
    ["control", "in.txt", "--level", "+3", "--seed", " 4 ", "--p", "1_1"],
    # the last of a repeated flag wins
    ["control", "in.txt", "--level", "2", "--level", "3"],
    ["control", "in.txt", "--format", "text", "--format=structured", "--form", "text"],
    ["control", "in.txt", "--p=5", "--p", "7"],
    # flags before, between and after the positionals
    ["--level", "2", "control", "in.txt"],
    ["control", "--level", "2", "in.txt"],
    ["--seed", "3", "ucs", "--degree", "1", "in.txt", "--p", "5"],
    # positionals that start with "-": a negative number, "-", one with a
    # space, and anything after "--"
    ["control", "-1"],
    ["control", "-1.5", "--level", "2"],
    ["control", "-"],
    ["control", "-a b.txt"],
    ["control", "--", "-x.txt"],
    ["--level", "2", "--", "control", "--in.txt"],
]

MALFORMED = [
    ["control", "in.txt", "--level", "x"],
    ["control", "in.txt", "--level", "1.5"],
    ["control", "in.txt", "--level="],
    ["control", "in.txt", "--bogus", "1"],
    ["control", "in.txt", "--bogus=1"],
    ["control", "in.txt", "-x"],
    ["control", "in.txt", "--format", "xml"],
    ["control", "in.txt", "--regime=char1"],
    ["control", "in.txt", "--level"],
    ["control", "in.txt", "--level", "--seed", "1"],
    ["control", "in.txt", "--level", "--", "1"],
    ["control", "in.txt", "--s", "1"],
    ["control", "in.txt", "--=1"],
    ["frobnicate", "in.txt"],
    [],
    ["control"],
    ["control", "a.txt", "b.txt"],
    ["control", "in.txt", "-h=1"],
]


def both(argv):
    return vars(parse_args(argv)), vars(ref.parse_args(argv))


@pytest.mark.parametrize("argv", VALID, ids=" ".join)
def test_valid_command_lines_match_argparse(argv):
    new, old = both(argv)
    assert new == old


@pytest.mark.parametrize("argv", MALFORMED, ids=" ".join)
def test_malformed_command_lines_refused_by_both_routes(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        ref.parse_args(argv)
    assert exc.value.code == 2
    with pytest.raises(ValidationError):
        parse_args(argv)
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation failure: ") and err.count("\n") == 1
    assert "Traceback" not in err


def unique_prefixes(flag):
    names = [*FLAGS, "--help"]
    return [flag[:k] for k in range(3, len(flag) + 1)
            if [n for n in names if n.startswith(flag[:k])] == [flag]]


@st.composite
def command_lines(draw):
    """A valid command line: some flags, each spelled in full or as a unique
    prefix, its value after "=" or as the next argument, perhaps repeated,
    in any order, with the command and the input at any two places
    between them."""
    tokens = []
    for flag in draw(st.lists(st.sampled_from(list(FLAGS)), max_size=12)):
        kind = FLAGS[flag][1]
        value = str(draw(st.integers(-10**6, 10**6))) if kind is int else draw(st.sampled_from(kind))
        name = draw(st.sampled_from(unique_prefixes(flag)))
        tokens.append([f"{name}={value}"] if draw(st.booleans()) else [name, value])
    command = draw(st.sampled_from(list(_COMMANDS)))
    path = draw(st.sampled_from(["in.txt", "inputs/heis_conj.txt", "-1", "-", "a b.txt"]))
    at = sorted(draw(st.lists(st.integers(0, len(tokens)), min_size=2, max_size=2)))
    tokens.insert(at[1], [path])
    tokens.insert(at[0], [command])
    return [arg for token in tokens for arg in token]


@settings(max_examples=200, deadline=None)
@given(command_lines())
def test_drawn_command_lines_match_argparse(argv):
    new, old = both(argv)
    assert new == old


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["--h"], ["control", "in.txt", "-h"],
                                  ["--level", "2", "control", "--help"]], ids=" ".join)
def test_help_names_every_flag_and_exits_0(argv, capsys):
    assert parse_args(argv) is None
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: iwasawa-kernel")
    assert all(flag in out for flag in (*FLAGS, "-h", "--help", *_COMMANDS))
