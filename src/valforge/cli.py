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
which the target's effective degree is 1, and grows the scenario again to
its depth when a branch so stopped misses an oracle value; the other
commands grow to the scenario's depth.

Scenarios are named by file path or by bare name, searched on the
directories in VALFORGE_SCENARIO_PATH, the working directory, and the
packaged examples.  Exit status: 0 success, 1 failed verdict, 2 a
refusal (any `Refusal`), an unreadable file or a malformed command line;
a traceback is a bug.
"""

import re
import sys
from types import SimpleNamespace

from .fields import Refusal
from .keypoly import explore
from .report import (classify, completeness_sample, defect, degree_identity,
                     render_chain, render_defect, render_newton)
from .scenario import ScenarioError, load_scenario

__all__ = ["main", "grow", "pick", "account"]


def grow(sc, stop_at_answer=False):
    """(chains, skipped) of a scenario: its target grown by `explore` to the
    scenario's depth, with its [chain] script, `lump_sides` and `branches`
    mode, and each grown branch stopped at its answer when stop_at_answer
    is set.  Every command grows a scenario here."""
    return explore(sc.field, sc.var, sc.target, sc.depth,
                   lump_sides=sc.lump_sides, scripted=sc.scripted_map(),
                   scripted_only=sc.branches_mode == "scripted",
                   stop_at_answer=stop_at_answer)


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


def _picked(ns, stop_at_answer=False):
    """The scenario a command line names, its skipped starting values, and
    its picked chains with their completeness."""
    sc = load_scenario(ns.scenario, ns.depth, ns.window, ns.precision)
    chains, skipped = grow(sc, stop_at_answer)
    return (sc, skipped) + pick(chains, skipped, ns.branch)


def _cmd_chain(ns):
    sc, skipped, pairs, complete = _picked(ns)
    return render_chain(pairs, ns.format), 0


def _cmd_defect(ns):
    sc, skipped, pairs, complete = _picked(ns)
    branches, identity = account(sc, pairs, complete)
    out = render_defect(branches, identity, skipped, ns.format)
    return out, 0 if identity.verdict or not complete else 1


def _cmd_newton(ns):
    sc, skipped, pairs, complete = _picked(ns)
    bid, ch = pairs[0]
    return render_newton(ch, sc.target, ch.depth(), ns.format), 0


def _oracle(sc, branches):
    """(samples, attained) per branch: its oracle samples, and whether some
    stage of its chain attains each one (None when it has none)."""
    out = []
    for br in branches:
        samples = sc.oracle_samples(br.branch_id - 1) if sc.oracle else []
        out.append((samples, completeness_sample(br.chain, samples)
                    if samples else None))
    return out


def _cmd_verify(ns):
    sc, skipped, pairs, complete = _picked(ns, stop_at_answer=True)
    branches, identity = account(sc, pairs, complete)
    oracle = _oracle(sc, branches)
    if any(good is False for _, good in oracle):
        # a branch stopped at its answer may miss an oracle value that a
        # deeper stage attains: grow to full depth, as the other commands do
        pairs, complete = pick(*grow(sc), ns.branch)
        branches, identity = account(sc, pairs, complete)
        oracle = _oracle(sc, branches)
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
# any text, or one of a tuple of choices
_OPTIONS = {"--depth": int, "--window": int, "--precision": str,
            "--format": ("text", "tsv"), "--branch": int}

# an argument that starts with '-' but is a negative number is a value; the
# pattern is compiled on first use, which a usual command line never needs
_NEGATIVE = r"^-\d+$|^-\d*\.\d+$"


class _Malformed(Exception):
    """A command line that names no command and scenario, or an option or
    value that none of them takes."""


def _option(arg, names):
    """How one argument reads among the long option `names`: None for a
    positional or a value, else (option, explicit value or None), with
    option None when it is unknown.  `--opt=V` carries its value, a unique
    prefix names its option, and `-h` followed only by more h's is help.
    These are argparse's rules, and tests/test_cli_argv.py holds the
    reader to them."""
    if not arg.startswith("-") or arg in ("-", "--"):
        return None
    if arg.startswith("--"):
        head, eq, tail = arg.partition("=")
        found = [name for name in names if name.startswith(head)]
        if len(found) > 1:
            raise _Malformed("ambiguous option: %s could match %s"
                             % (head, ", ".join(found)))
        if found:
            return found[0], tail if eq else None
    elif arg.startswith("-h"):
        rest = arg[2:]
        return "--help", rest if rest.strip("h") else None
    if re.match(_NEGATIVE, arg) or " " in arg:
        return None
    return None, None


def _value(name, text):
    kind = _OPTIONS[name]
    if kind is int:
        try:
            return int(text)
        except ValueError:
            raise _Malformed("argument %s: invalid int value: %r"
                             % (name, text)) from None
    if kind is str or text in kind:
        return text
    raise _Malformed("argument %s: invalid choice: %r (choose from %s)"
                     % (name, text, ", ".join(map(repr, kind))))


def _no_value(text):
    """Refuse a value given to help, as `--help=x`."""
    if text is not None:
        raise _Malformed("argument -h/--help: ignored explicit argument %r"
                         % text)


def _read_argv(argv):
    """The command, scenario and options of a command line; None when it
    asks for help.  Before the command only help is an option; after it, an
    argument `--` makes every later one positional.  Help, a bad or missing
    value and an ambiguous prefix take effect where they stand; an unknown
    option, an extra positional and a missing scenario are refused once the
    whole line is read."""
    unknown = []
    for pos, arg in enumerate(argv):
        opt = _option(arg, ("--help",))
        if opt is None:
            break
        if opt[0] is None:
            unknown.append(arg)
        else:
            _no_value(opt[1])
            return None
    else:
        raise _Malformed("the following arguments are required: command")
    if arg not in _COMMANDS:
        raise _Malformed("argument command: invalid choice: %r (choose from "
                         "%s)" % (arg, ", ".join(map(repr, _COMMANDS))))
    ns = SimpleNamespace(command=arg, scenario=None, format="text",
                         depth=None, window=None, precision=None,
                         branch=None)
    args = argv[pos + 1:]
    names = ("--help",) + tuple(_OPTIONS)
    kinds, rest = [], False
    for arg in args:
        if rest:
            kinds.append(None)
        elif arg == "--":
            rest = True
            kinds.append("--")
        else:
            kinds.append(_option(arg, names))
    i = at = 0
    while i < len(args):
        arg, kind = args[i], kinds[i]
        i += 1
        if kind is None:
            if ns.scenario is None:
                ns.scenario, at = arg, i
            else:
                unknown.append(arg)
            continue
        if kind == "--":
            # a `--` that follows the scenario is taken only right after it
            if ns.scenario is not None and at != i - 1:
                unknown.append(arg)
            continue
        name, text = kind
        if name is None:
            unknown.append(arg)
        elif name == "--help":
            _no_value(text)
            return None
        else:
            if text is None:
                if i == len(args) or kinds[i] is not None:
                    raise _Malformed("argument %s: expected one argument"
                                     % name)
                text = args[i]
                i += 1
            setattr(ns, name[2:], _value(name, text))
    if ns.scenario is None:
        raise _Malformed("the following arguments are required: scenario")
    if unknown:
        raise _Malformed("unrecognized arguments: %s" % " ".join(unknown))
    return ns


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
