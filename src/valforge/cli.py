"""Command line front end.

    valforge chain SCENARIO    branch tree with per-stage data
    valforge defect SCENARIO   branch reports and the degree identity
    valforge newton SCENARIO   polygon of the target at the last stage
    valforge verify SCENARIO   oracle assertions; nonzero exit on failure

Options, before or after SCENARIO, as `--opt V` or `--opt=V`; a unique
prefix names its option (`--dep 3`), and the last of a repeated option
wins:

    --depth N              override the scenario depth, N >= 0
    --window N             stages over which a limit block's closing key
                           must keep its degree, N >= 1
    --precision N|VAR:N    override the field precision: over a lex series
                           VAR:N ... as its `precision` row takes them, or
                           a bare N for every declared bound; over a tower
                           a bare N >= 1, its depth; none over k(y)
    --format text|tsv      output format (default text)
    --branch N             restrict to one branch id
    -h, --help             print this help and exit

The scenario parser checks --depth, --window and --precision as it checks
the file rows they override, for every command, and a refusal names the
option (`error: --window: must be at least 1, got 0`).

`verify` grows each branch only as far as its answer, the first stage at
which the target's effective degree is 1, and grows a branch so stopped on
to the scenario's depth when it misses one of its oracle values; a
[chain] script is never extended.  `newton` grows to the scenario's depth
only the branches up to the one it draws, so a refusal in a later branch
does not stop it.  `chain` and `defect` grow every branch to the
scenario's depth.

Scenarios are named by file path or by bare name, searched on the
directories in VALFORGE_SCENARIO_PATH, the working directory, and the
packaged examples.  Exit status: 0 success, 1 failed verdict, 2 a
refusal (any `Refusal`), an unreadable file or a malformed command line;
a traceback is a bug.
"""

import sys
from types import SimpleNamespace

from . import keypoly
from .fields import Refusal
from .keypoly import explore
from .report import (classify, completeness_sample, defect, degree_identity,
                     render_chain, render_defect, render_newton)
from .scenario import ScenarioError, load_scenario

__all__ = ["main", "grow", "pick", "account"]


def grow(sc, stop_at_answer=False, first=None):
    """(chains, skipped) of a scenario: its target grown by `explore` to the
    scenario's depth, with its [chain] script, `lump_sides` and `branches`
    mode, each grown branch stopped at its answer when stop_at_answer is
    set, and only the first `first` chains made when it is given.  Every
    command grows a scenario here."""
    return explore(sc.field, sc.var, sc.target, sc.depth,
                   lump_sides=sc.lump_sides, scripted=sc.scripted_map(),
                   scripted_only=sc.branches_mode == "scripted",
                   stop_at_answer=stop_at_answer, first=first)


def pick(chains, skipped, wanted=None):
    """([(branch id, chain)], complete): the grown chains numbered from 1,
    only branch `wanted` when one is given, and whether they are every
    branch of the target (no starting value skipped, no branch left out)."""
    pairs = list(enumerate(chains, 1))
    if wanted is None:
        return pairs, not skipped
    if not 1 <= wanted <= len(pairs):
        raise ScenarioError("no branch %d; the scenario grew %d"
                            % (wanted, len(pairs)))
    return pairs[wanted - 1:wanted], False


def account(sc, pairs, complete):
    """(branch reports, degree identity) of picked chains, as `defect` and
    `verify` read them."""
    branches = [classify(ch, sc.window, bid) for bid, ch in pairs]
    return branches, degree_identity(sc.target, branches, complete)


def _picked(ns, stop_at_answer=False, first=None):
    """The scenario a command line names, its grown chains and skipped
    starting values, and its picked chains with their completeness."""
    sc = load_scenario(ns.scenario, ns.depth, ns.window, ns.precision)
    chains, skipped = grow(sc, stop_at_answer, first)
    return (sc, chains, skipped) + pick(chains, skipped, ns.branch)


def _cmd_chain(ns):
    sc, chains, skipped, pairs, complete = _picked(ns)
    return render_chain(pairs, ns.format), 0


def _cmd_defect(ns):
    sc, chains, skipped, pairs, complete = _picked(ns)
    branches, identity = account(sc, pairs, complete)
    out = render_defect(branches, identity, skipped, ns.format)
    return out, 0 if identity.verdict or not complete else 1


def _cmd_newton(ns):
    # the chains up to the drawn one are grown, and no others; a --branch
    # below 1 names none, and its refusal counts every chain
    wanted = 1 if ns.branch is None else ns.branch
    sc, chains, skipped, pairs, complete = _picked(
        ns, first=wanted if wanted >= 1 else None)
    bid, ch = pairs[0]
    return render_newton(ch, sc.target, ch.depth(), ns.format), 0


def _cmd_verify(ns):
    sc, chains, skipped, pairs, complete = _picked(ns, stop_at_answer=True)
    oracle = []
    for i, (bid, ch) in enumerate(pairs):
        samples = sc.oracle_samples(bid - 1) if sc.oracle else []
        good = completeness_sample(ch, samples) if samples else None
        if good is False and ch.entries[-1].origin == "derived":
            # a branch stopped at its answer may miss an oracle value that a
            # deeper stage attains; at effective degree 1 each later stage
            # has one move, so it grows on to its full-depth chain.  A
            # replayed script ends where it ends and is never grown on.
            [ch] = keypoly._grow(ch, sc.depth, bid)
            pairs[i] = bid, ch
            good = completeness_sample(ch, samples)
        oracle.append((samples, good))
    branches, identity = account(sc, pairs, complete)
    # after `account`, so a scenario that `defect` refuses is refused alike;
    # a row of several values has one for each grown branch, picked or not
    for _, values in sc.oracle:
        n = len(values)
        if 1 < n < len(chains):
            raise ScenarioError("oracle row with %d values cannot cover "
                                "branch %d" % (n, n + 1))
        if n > max(len(chains), 1):
            raise ScenarioError("oracle row with %d values names branch %d; "
                                "the scenario grew %d" % (n, n, len(chains)))
    lines, ok = [], True
    for br, (samples, good) in zip(branches, oracle):
        ch = br.chain
        if samples:
            lines.append("%s: branch %d attains its %d oracle value(s)"
                         % ("ok" if good else "fail", br.branch_id,
                            len(samples)))
            ok = ok and good
        for f, _ in samples:
            vals = [ch.cval(f, k) for k in range(1, ch.depth() + 1)]
            good = all(not b < a for a, b in zip(vals, vals[1:]))
            lines.append("%s: branch %d truncations of %s are monotone"
                         % ("ok" if good else "fail", br.branch_id,
                            f.format()))
            ok = ok and good
    ds = defect(branches)
    lines.append("ok: defects %s pass the characteristic check"
                 % (ds if ds else "[]"))
    good = (identity.verdict if identity.complete
            else identity.lhs >= identity.total)
    lines.append("%s: identity %s" % ("ok" if good else "fail", identity.line()))
    ok = ok and good
    return "\n".join(lines) + "\n", 0 if ok else 1


_COMMANDS = {"chain": _cmd_chain, "defect": _cmd_defect,
             "newton": _cmd_newton, "verify": _cmd_verify}


_USAGE = ("usage: valforge {chain,defect,newton,verify} SCENARIO "
          "[--depth N] [--window N] [--precision N|VAR:N] "
          "[--format {text,tsv}] [--branch N]")

# the options every command takes, each with the values it admits: an int,
# any text, or one of a tuple of choices, the first of which is the default
_OPTIONS = {"--depth": int, "--window": int, "--precision": str,
            "--format": ("text", "tsv"), "--branch": int}


class _Malformed(Exception):
    """A command line that names no command and scenario, or an option or
    value that none of them takes."""


def _plain(argv):
    """The command, scenario and default options of a plain line, `COMMAND
    SCENARIO` with a scenario that does not start with '-'; None for any
    other line, which argparse reads."""
    if len(argv) != 2 or argv[0] not in _COMMANDS or argv[1].startswith("-"):
        return None
    ns = SimpleNamespace(command=argv[0], scenario=argv[1])
    for name, kind in _OPTIONS.items():
        setattr(ns, name[2:], kind[0] if isinstance(kind, tuple) else None)
    return ns


def _read_argv(argv):
    """The command, scenario and options of a command line; None when it
    asks for help.  A plain line is read by `_plain`, and every other by an
    argparse parser built from `_OPTIONS`, imported only then, so that a
    cold `COMMAND SCENARIO` process does not pay for its import."""
    ns = _plain(argv)
    if ns is not None:
        return ns
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            raise _Malformed(message)

        def print_help(self, file=None):
            """`main` prints the help."""

        def _check_value(self, action, value):
            # the text of Python 3.10 to 3.13, on every Python: 3.14's
            # argparse writes the choices without quotes
            if action.choices is not None and value not in action.choices:
                raise argparse.ArgumentError(
                    action, "invalid choice: %r (choose from %s)"
                    % (value, ", ".join(map(repr, action.choices))))

    parser = Parser(prog="valforge")
    commands = parser.add_subparsers(dest="command", required=True)
    for command in _COMMANDS:
        sub = commands.add_parser(command)
        sub.add_argument("scenario")
        for name, kind in _OPTIONS.items():
            if isinstance(kind, tuple):
                sub.add_argument(name, choices=kind, default=kind[0])
            else:
                sub.add_argument(name, type=kind)
    try:
        return parser.parse_args(argv)
    except SystemExit:
        # the help action prints nothing, by `print_help`, and then exits:
        # the line asks for help
        return None


def main(argv=None):
    try:
        ns = _read_argv(sys.argv[1:] if argv is None else list(argv))
    except _Malformed as exc:
        sys.stderr.write("%s\nvalforge: error: %s\n" % (_USAGE, exc))
        return 2
    if ns is None:
        sys.stdout.write("%s\n\n%s" % (_USAGE, __doc__))
        return 0
    try:
        out, code = _COMMANDS[ns.command](ns)
    except (Refusal, OSError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
