"""Command line front end.

    valforge chain SCENARIO    branch tree with per-stage data
    valforge defect SCENARIO   branch reports and the degree identity
    valforge newton SCENARIO   polygon of the target at the last stage
    valforge verify SCENARIO   oracle assertions; nonzero exit on failure

Scenarios are named by file path or by bare name, searched on the
directories in VALFORGE_SCENARIO_PATH, the working directory, and the
packaged examples.  Exit status: 0 success, 1 failed verdict, 2 a
refusal (any `Refusal`) or an unreadable file; a traceback is a bug.
"""

import argparse
import functools
import sys

from .fields import Refusal
from .keypoly import explore
from .report import (classify, completeness_sample, defect, degree_identity,
                     render_chain, render_defect, render_newton)
from .scenario import ScenarioError, load_scenario

__all__ = ["main"]


def _precision_override(text):
    """{VAR: N} for `VAR:N`, {None: N} for a bare `N`; N is ASCII digits."""
    if text is None:
        return None
    var, colon, num = text.partition(":")
    if not colon:
        var, num = None, text
    if var == "" or not (num.isascii() and num.isdigit()):
        raise ScenarioError("bad precision %r; use N or VAR:N" % text)
    return {var: int(num)}


def _build(ns):
    sc = load_scenario(ns.scenario, _precision_override(ns.precision))
    depth = sc.depth if ns.depth is None else ns.depth
    if depth < 0:
        raise ScenarioError("depth must be nonnegative")
    chains, skipped = explore(sc.field, sc.var, sc.target, depth,
                              lump_sides=sc.lump_sides,
                              scripted=sc.scripted_map(),
                              scripted_only=sc.branches_mode == "scripted")
    return sc, list(enumerate(chains, 1)), skipped


def _pick(pairs, wanted):
    if wanted is None:
        return pairs
    picked = [(bid, ch) for bid, ch in pairs if bid == wanted]
    if not picked:
        raise ScenarioError("no branch %d; the scenario grew %d"
                            % (wanted, len(pairs)))
    return picked


def _classified(sc, ns, pairs):
    window = sc.window if ns.window is None else ns.window
    return [classify(ch, window, bid) for bid, ch in pairs]


def _cmd_chain(ns):
    sc, pairs, skipped = _build(ns)
    return render_chain(_pick(pairs, ns.branch), ns.format), 0


def _cmd_defect(ns):
    sc, pairs, skipped = _build(ns)
    branches = _classified(sc, ns, _pick(pairs, ns.branch))
    complete = not skipped and ns.branch is None
    identity = degree_identity(sc.target, branches, complete)
    out = render_defect(branches, identity, skipped, ns.format)
    return out, 0 if identity.verdict or not complete else 1


def _cmd_newton(ns):
    sc, pairs, skipped = _build(ns)
    bid, ch = _pick(pairs, ns.branch)[0]
    return render_newton(ch, sc.target, ch.depth(), ns.format), 0


def _cmd_verify(ns):
    sc, pairs, skipped = _build(ns)
    branches = _classified(sc, ns, _pick(pairs, ns.branch))
    lines, ok = [], True
    for br in branches:
        ch = br.chain
        samples = sc.oracle_samples(br.branch_id - 1) if sc.oracle else []
        if samples:
            good = completeness_sample(ch, samples)
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
    complete = not skipped and ns.branch is None
    identity = degree_identity(sc.target, branches, complete)
    good = identity.verdict if complete else identity.lhs >= identity.total
    lines.append("%s: identity %s" % ("ok" if good else "fail", identity.line()))
    ok = ok and good
    return "\n".join(lines) + "\n", 0 if ok else 1


_COMMANDS = {"chain": _cmd_chain, "defect": _cmd_defect,
             "newton": _cmd_newton, "verify": _cmd_verify}


@functools.cache
def _parser():
    """The argument parser, built once per process: `parse_args` leaves it
    unchanged."""
    ap = argparse.ArgumentParser(
        prog="valforge",
        description="key polynomial chains, defects, and Newton polygons "
                    "for scenario files")
    sub = ap.add_subparsers(dest="command", required=True)
    helps = {"chain": "print the branch tree stage by stage",
             "defect": "print branch reports and the degree identity",
             "newton": "print the polygon of the target at the last stage",
             "verify": "run the scenario's oracle assertions"}
    for name, text in helps.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("scenario", help="scenario name or .scn path")
        p.add_argument("--depth", type=int, default=None,
                       help="override the scenario depth")
        p.add_argument("--window", type=int, default=None,
                       help="stages over which a limit block's closing key "
                            "must keep its degree")
        p.add_argument("--precision", default=None, metavar="N|VAR:N",
                       help="override the field precision")
        p.add_argument("--format", choices=("text", "tsv"), default="text")
        p.add_argument("--branch", type=int, default=None,
                       help="restrict to one branch id")
    return ap


def main(argv=None):
    ns = _parser().parse_args(argv)
    try:
        out, code = _COMMANDS[ns.command](ns)
    except (Refusal, OSError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
