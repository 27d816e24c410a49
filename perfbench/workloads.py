"""The three workloads: their set-up, their inputs, and one step of each kind.

A workload is a list of engine inputs plus a list of command inputs.  An
engine input is one target grown by `explore`, classified and checked by
`degree_identity`, in process.  A command input is one scenario that the
four subcommands run on, warm through `valforge.cli.main` and cold in a
fresh `verify` process; its stdout bytes and exit codes are compared with
the ones recorded on the seed commit in `golden/`.
"""

import contextlib
import io
import json
import os
import subprocess
import sys

import corpus

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build")
PYCACHE = os.path.join(BUILD, "pycache")
GOLDEN = os.path.join(HERE, "golden")

COMMANDS = ("chain", "defect", "newton", "verify")
SCENARIOS = {"ladder": ("quartic",), "wild": ("cubic_char3", "quintic_tower")}
CORPUS_SEED = 5
CORPUS_SIZE = 120

# outcomes of one engine run
VERIFIED, REFUSED, FAILED = "verified", "refused", "failed"


def child_env():
    """Environment of every process the benchmark starts: the package from
    src, bytecode under the build directory, no user scenario path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONPYCACHEPREFIX"] = PYCACHE
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("VALFORGE_SCENARIO_PATH", None)
    return env


def refusal_types():
    from valforge import (ChainError, InsufficientPrecision, ReportError,
                          ScenarioError, UnsupportedStructure)
    return (ScenarioError, ChainError, ReportError, UnsupportedStructure,
            InsufficientPrecision)


class EngineInput:
    """One target for the engine, with what its result must satisfy."""

    __slots__ = ("name", "field", "var", "target", "depth", "window",
                 "explore_kw", "label", "identity")

    def __init__(self, name, field, var, target, depth, window, explore_kw,
                 label, identity):
        self.name = name
        self.field = field
        self.var = var
        self.target = target
        self.depth = depth
        self.window = window
        self.explore_kw = explore_kw
        self.label = label
        self.identity = identity      # expected identity line, or None


class CommandInput:
    """One scenario argument with the golden (stdout, exit code) per
    subcommand."""

    __slots__ = ("name", "arg", "golden")

    def __init__(self, name, arg, golden):
        self.name = name
        self.arg = arg
        self.golden = golden


class Workload:
    __slots__ = ("name", "engine", "commands")

    def __init__(self, name, engine, commands):
        self.name = name
        self.engine = engine
        self.commands = commands


# ---------------------------------------------------------------------------
# set-up


def load_golden():
    with open(os.path.join(GOLDEN, "manifest.json"), encoding="ascii") as fh:
        manifest = json.load(fh)
    out = {}
    for name, codes in manifest["exit_codes"].items():
        out[name] = {}
        for cmd, code in codes.items():
            path = os.path.join(GOLDEN, "%s.%s.out" % (name, cmd))
            with open(path, "rb") as fh:
                out[name][cmd] = (fh.read(), code)
    return manifest, out


def precompile():
    """Bytecode for the package, written under the build directory."""
    import compileall
    compileall.compile_dir(os.path.join(SRC, "valforge"), quiet=1)


def warm_sympy():
    from valforge.fields import PrimeField, QQ, factor_scalar_poly
    from fractions import Fraction
    factor_scalar_poly(QQ, [Fraction(-2), Fraction(0), Fraction(1)])
    for p in (2, 3, 5):
        factor_scalar_poly(PrimeField(p), [1, 1, 1])


def setup(name):
    """Everything a workload needs before its first timed step."""
    precompile()
    warm_sympy()
    manifest, golden = load_golden()
    if name == "corpus":
        return _setup_corpus(manifest, golden)
    from valforge.scenario import load_scenario
    engine, commands = [], []
    for scn in SCENARIOS[name]:
        sc = load_scenario(scn)
        kw = {"lump_sides": sc.lump_sides, "scripted": sc.scripted_map(),
              "scripted_only": sc.branches_mode == "scripted"}
        ident = golden[scn]["defect"][0].decode().splitlines()[-1]
        engine.append(EngineInput(scn, sc.field, sc.var, sc.target, sc.depth,
                                  sc.window, kw, None,
                                  ident[len("identity: "):]))
        commands.append(CommandInput(scn, scn, golden[scn]))
    return Workload(name, engine, commands)


def _setup_corpus(manifest, golden):
    targets = corpus.draw_targets(CORPUS_SEED, CORPUS_SIZE)
    engine = []
    for t in targets:
        t.label = corpus.label(t)
        poly = corpus.build_poly(t)
        engine.append(EngineInput("t%03d" % t.index, poly.field, "x", poly,
                                  corpus.DEPTH, corpus.WINDOW, {}, t.label,
                                  None))
    scn_dir = os.path.join(BUILD, "corpus")
    os.makedirs(scn_dir, exist_ok=True)
    commands = []
    for index in manifest["corpus_commands"]:
        name = "t%03d" % index
        path = os.path.join(scn_dir, name + ".scn")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(corpus.scenario_text(targets[index]))
        commands.append(CommandInput(name, path, golden[name]))
    return Workload("corpus", engine, commands)


# ---------------------------------------------------------------------------
# steps


def run_engine(inp):
    """Grow, classify and check one target and return its outcome;
    refusals are the typed exceptions, everything else that goes wrong is a
    failure."""
    import valforge.keypoly as keypoly
    import valforge.report as report
    try:
        chains, skipped = keypoly.explore(inp.field, inp.var, inp.target,
                                          inp.depth, **inp.explore_kw)
        branches = [report.classify(ch, inp.window, i)
                    for i, ch in enumerate(chains, 1)]
        ident = report.degree_identity(inp.target, branches,
                                       complete=not skipped)
    except refusal_types():
        return REFUSED
    except Exception:
        return FAILED
    return _check(inp, branches, ident)


def _check(inp, branches, ident):
    p = inp.field.char
    for br in branches:
        d = br.d
        while p and d % p == 0:
            d //= p
        if d != 1:
            return FAILED
    total = sum(br.e * br.f * br.d for br in branches)
    if inp.identity is not None and ident.line() != inp.identity:
        return FAILED
    if ident.complete:
        good = ident.verdict and total == inp.target.degree
    else:
        good = inp.target.degree >= total
    return VERIFIED if good else FAILED


def run_command(inp, cmd):
    """One subcommand in process.  Returns 1 when its stdout or exit code
    differs from the golden one, else 0."""
    import valforge.cli as cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([cmd, inp.arg])
        except Exception:
            code = None
    return int((out.getvalue().encode(), code) != inp.golden[cmd])


def run_cold(inp, extra=()):
    """A fresh `verify` process.  Returns (mismatch, stderr bytes)."""
    argv = [sys.executable] + list(extra) + ["-m", "valforge.cli", "verify",
                                            inp.arg]
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(),
                          capture_output=True, timeout=120)
    bad = (proc.stdout, proc.returncode) != inp.golden["verify"] \
        or b"Traceback" in proc.stderr
    return int(bad), proc.stderr
