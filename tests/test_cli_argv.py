"""The command line reader against argparse.

`valforge.cli` reads a plain `COMMAND SCENARIO` line without argparse,
so that a cold process does not pay for its import, and hands every other
line to an argparse parser built from its table of five options.  The
reference here is an argparse parser written out on its own, with the
same commands and options; for every argv in the table both must give the
same command, scenario and option values, or both must refuse it (exit 2)
or both ask for help.  The plain reader must read the lines of `PLAIN` and
hand over every other.
"""

import argparse

import pytest

import valforge.cli as cli
from valforge.cli import main

COMMANDS = ("chain", "defect", "newton", "verify")


def reference_parser():
    ap = argparse.ArgumentParser(prog="valforge")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("scenario")
        p.add_argument("--depth", type=int, default=None)
        p.add_argument("--window", type=int, default=None)
        p.add_argument("--precision", default=None, metavar="N|VAR:N")
        p.add_argument("--format", choices=("text", "tsv"), default="text")
        p.add_argument("--branch", type=int, default=None)
    return ap


def by_reference(argv):
    try:
        return vars(reference_parser().parse_args(argv))
    except SystemExit as exc:
        return exc.code


def by_reader(argv):
    try:
        ns = cli._read_argv(argv)
    except cli._Malformed:
        return 2
    return 0 if ns is None else vars(ns)


OPTION_FORMS = []
for opt, value in (("--depth", "3"), ("--window", "2"),
                   ("--precision", "y:4"), ("--format", "tsv"),
                   ("--branch", "1")):
    OPTION_FORMS += [[opt, value], [opt + "=" + value],
                     [opt[:4], value], [opt[:5] + "=" + value]]

ARGVS = [[cmd, "quartic"] for cmd in COMMANDS] + [
    ["chain", "quartic"] + form for form in OPTION_FORMS] + [
    # a repeated option: the last one wins
    ["chain", "quartic", "--depth", "3", "--dep=5"],
    ["defect", "quartic", "--format", "tsv", "--format", "text"],
    # options before the scenario, and on both sides of it
    ["verify", "--depth", "3", "--branch", "2", "quartic"],
    ["newton", "--format=tsv", "quartic", "--depth", "2"],
    # values that start with '-': a negative number, or an explicit value
    ["chain", "quartic", "--depth", "-1"],
    ["chain", "quartic", "--precision=-5"],
    ["chain", "quartic", "--precision="],
    # `--` makes the rest positional
    ["chain", "--", "quartic"],
    ["chain", "quartic", "--"],
    ["chain", "--", "--depth"],
    ["chain", "--depth", "3", "--", "quartic"],
    ["chain", "quartic", "--depth", "3", "--"],
    ["chain", "quartic", "--", "extra"],
    ["chain", "--depth", "--", "quartic"],
    # a scenario named '-', or with a space after its dash
    ["chain", "-"],
    ["chain", "-x y"],
    # malformed: missing scenario, extra positional, unknown option
    ["chain"],
    ["chain", "--depth", "3"],
    ["chain", "quartic", "extra"],
    ["chain", "quartic", "--bogus"],
    ["chain", "quartic", "-x"],
    ["--bogus", "chain", "quartic"],
    ["--depth", "3", "chain", "quartic"],
    # malformed: bad values, a missing value, an ambiguous prefix
    ["chain", "quartic", "--depth", "x"],
    ["chain", "quartic", "--depth="],
    ["chain", "quartic", "--format", "csv"],
    ["chain", "quartic", "--depth"],
    ["chain", "quartic", "--depth", "--branch", "1"],
    ["chain", "quartic", "--precision", "-h"],
    ["chain", "quartic", "--=3"],
    # malformed: no arguments, an unknown command
    [],
    ["bogus", "quartic"],
    ["--", "chain", "quartic"],
    # help, from where it stands
    ["-h"],
    ["--help"],
    ["--he"],
    ["defect", "-h"],
    ["chain", "quartic", "--help"],
    ["chain", "-hh"],
    ["--bogus", "-h"],
    ["chain", "--bogus", "-h"],
    ["chain", "-h", "--depth", "x"],
    ["chain", "--depth", "x", "-h"],
    ["chain", "-h", "--=3"],
    ["bogus", "-h"],
    ["chain", "--help=x"],
]

# values that `int()` takes with padding, a non-ASCII digit or an
# underscore, an empty text value, an explicit default, a scenario between
# options, a repeated option, a bad value, a final option with no value and
# a prefix
ARGVS += [
    ["chain", "quartic", "--precision", ""],
    ["chain", "quartic", "--depth", " 3"],
    ["chain", "quartic", "--depth", "\u0663"],
    ["chain", "quartic", "--depth", "0_1"],
    ["defect", "quartic", "--format", "text"],
    ["verify", "--depth", "3", "quartic", "--branch", "1"],
    ["chain", "quartic", "--depth", "3", "--depth", "5"],
    ["chain", "quartic", "--depth", "verify"],
    ["chain", "quartic", "--branch"],
    ["chain", "quartic", "--dep", "3"],
]

# the lines the plain reader reads: a command and a scenario that does not
# start with '-', an empty one included
PLAIN = [[cmd, "quartic"] for cmd in COMMANDS] + [["chain", ""],
                                                  ["chain", "a -b"]]

ARGVS += PLAIN[len(COMMANDS):]


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_reader_agrees_with_argparse(argv, capsys):
    want = by_reference(argv)
    capsys.readouterr()
    assert by_reader(argv) == want


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_plain_reader_reads_only_plain_lines(argv):
    ns = cli._plain(argv)
    if argv in PLAIN:
        assert vars(ns) == by_reference(argv)
    else:
        assert ns is None


@pytest.mark.parametrize("argv", [["-h"], ["defect", "-h"]])
def test_help_prints_usage_and_exits_zero(argv, capsys):
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.startswith("usage: valforge {chain,defect,newton,verify} "
                          "SCENARIO [--depth N]")
    assert out.endswith(cli.__doc__)


@pytest.mark.parametrize("argv, message", [
    (["chain"], "the following arguments are required: scenario"),
    (["chain", "quartic", "--format", "csv"],
     "argument --format: invalid choice: 'csv' (choose from 'text', 'tsv')"),
    (["chain", "quartic", "--depth", "x"],
     "argument --depth: invalid int value: 'x'"),
    (["chain", "quartic", "--depth"], "argument --depth: expected one argument"),
    (["chain", "quartic", "extra", "--bogus"],
     "unrecognized arguments: extra --bogus"),
], ids=["missing-scenario", "bad-choice", "bad-int", "missing-value",
        "unrecognized"])
def test_malformed_argv_writes_usage_and_exits_two(argv, message, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "%s\nvalforge: error: %s\n" % (cli._USAGE, message)


@pytest.mark.parametrize("argv, message", [
    (["chain", "quartic", "--format", "csv"],
     "argument --format: invalid choice: 'csv' (choose from 'text', 'tsv')"),
    (["bogus", "quartic"],
     "argument command: invalid choice: 'bogus' (choose from 'chain', "
     "'defect', 'newton', 'verify')"),
], ids=["format", "command"])
def test_invalid_choice_text_is_the_same_on_every_python(argv, message,
                                                         monkeypatch, capsys):
    # Python 3.14's argparse writes the choices without quotes; the reader
    # writes this text itself, whatever the running argparse would write
    def unquoted(self, action, value):
        raise argparse.ArgumentError(action, "choose from text, tsv")
    monkeypatch.setattr(argparse.ArgumentParser, "_check_value", unquoted)
    assert main(argv) == 2
    assert capsys.readouterr().err == ("%s\nvalforge: error: %s\n"
                                       % (cli._USAGE, message))
