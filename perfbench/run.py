"""Benchmark of valforge: end-to-end times, or per-layer times and counts.

    python3 perfbench/run.py --workload ladder|wild|corpus --seed N \\
        --seconds S --trace 0|1

Run it from anywhere; it finds the package under src/ next to this
directory and needs no install.  Each workload is a closed loop with one
client: one process making sequential calls.  --seed orders the steps of
every round.  With --trace 0 it times the workload untraced and prints the
end-to-end metrics; with --trace 1 it wraps the layers (see tracer.py) and
prints per-layer self times and counts.  The last line of stdout is one JSON
object: correct, attempted, failed and metrics.  See README.md.
"""

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 3
# engine steps per round, at the least: a round of `ladder` (one slow
# engine input) then gets about as much engine time as command time, and
# its engine median rests on some fifteen samples in a 30 s run
MIN_ENGINE_PER_ROUND = 6
TRACED_CORPUS = 60


def _args(argv):
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", required=True,
                    choices=("ladder", "wild", "corpus"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="run the set-up and exit (used to time set-up)")
    return ap.parse_args(argv)


def main(argv=None):
    args = _args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "valforge", "cli.py")):
        sys.stderr.write("error: no valforge sources under %s\n"
                         % os.path.join(ROOT, "src"))
        return 2
    sys.pycache_prefix = os.path.join(ROOT, ".bench_build", "pycache")
    sys.dont_write_bytecode = False
    import workloads as W
    sys.path.insert(0, W.SRC)
    if args.setup_only:
        W.setup(args.workload)
        return 0
    result = (traced if args.trace else timed)(W, args)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


# ---------------------------------------------------------------------------
# shared pieces


def _rounds(rng, engine_steps, other_steps, seconds):
    """Yield steps round by round in a fresh seeded order.  A round is every
    other step plus the next engine steps (MIN_ENGINE_PER_ROUND or half the
    engine inputs, whichever is more), which cycle through the engine
    inputs in seeded passes; a large input set is spread over two rounds,
    so that the other steps recur through the run.  Rounds go on until
    `seconds` have passed, every step has run once, and every engine input
    has run once."""
    per_round = max(MIN_ENGINE_PER_ROUND, len(engine_steps) // 2)
    t_end = time.perf_counter() + seconds
    pending, engine_done, rounds = [], 0, 0
    while True:
        chunk = []
        while len(chunk) < per_round:
            if not pending:
                pending = list(engine_steps)
                rng.shuffle(pending)
            chunk.append(pending.pop())
        order = other_steps + chunk
        rng.shuffle(order)
        for step in order:
            if rounds and engine_done >= len(engine_steps) and \
                    time.perf_counter() >= t_end:
                return
            engine_done += step[0] == "engine"
            yield step
        rounds += 1


def _quantile(sorted_vals, q):
    """Linear interpolation between order statistics (inclusive method)."""
    if len(sorted_vals) == 1:
        return sorted_vals[0]
    pos = q * (len(sorted_vals) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (pos - lo) * (sorted_vals[hi] - sorted_vals[lo])


def _warm_up(W, wl):
    """Engine runs of the first few inputs and one cheap command, so that
    lazy imports and first-call costs stay out of the timed steps."""
    for inp in wl.engine[:8]:
        W.run_engine(inp)
    if wl.commands:
        import contextlib
        import io
        import valforge.cli as cli
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["newton", wl.commands[0].arg, "--depth", "1"])


def _metric(value, unit):
    return {"value": value, "unit": unit}


class Tally:
    """Outcomes per distinct operation: an engine input, a subcommand on a
    command input, or a cold verify of one.  `attempted` and `failed` count
    distinct operations, so they do not depend on how many rounds fit into
    the run.  The run is incorrect when an operation's outcome differs
    between rounds, or when a failure is not the known defect (a wrong
    verdict on a corpus target labelled repeated or inseparable)."""

    def __init__(self):
        self.unexpected = set()
        self.outcomes = {}          # engine input name -> (label, outcome)
        self.ops = {}               # distinct operation -> set of outcomes

    def engine(self, inp, outcome, W):
        self.outcomes[inp.name] = (inp.label, outcome)
        self._op(("engine", inp.name), outcome, outcome == W.FAILED)
        if outcome == W.FAILED and inp.label in (None, "squarefree"):
            self.unexpected.add("engine %s" % inp.name)

    def outputs(self, op, bad):
        self._op(op, "failed" if bad else "ok", bad)
        if bad:
            self.unexpected.add(" ".join(op))

    def _op(self, op, outcome, bad):
        seen = self.ops.setdefault(op, set())
        seen.add((outcome, bool(bad)))
        if len(seen) > 1:
            self.unexpected.add("%s: outcome changed between rounds"
                                % " ".join(op))

    def failed(self):
        return sum(any(bad for _, bad in seen) for seen in self.ops.values())

    def sound_share(self):
        """Share of distinct operations that never gave a wrong output."""
        return 1.0 - self.failed() / len(self.ops)

    def by_label(self):
        out = Counter()
        for label, outcome in self.outcomes.values():
            out[(outcome, label)] += 1
        return out

    def head(self):
        return {"correct": not self.unexpected, "attempted": len(self.ops),
                "failed": self.failed()}


def _report(wl, tally, lines):
    for line in lines:
        sys.stdout.write("# %s\n" % line)
    if wl.name == "corpus":
        counts = tally.by_label()
        sys.stdout.write("# outcomes by label: %s\n" % ", ".join(
            "%s/%s %d" % (o, l, n) for (o, l), n in sorted(counts.items())))
    for what in sorted(tally.unexpected):
        sys.stdout.write("# unexpected failure: %s\n" % what)


# ---------------------------------------------------------------------------
# timed run (--trace 0)


def _setup_process(W, args):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
            args.workload, "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(argv, cwd=ROOT, env=W.child_env(),
                          capture_output=True, timeout=170)
    if proc.returncode:
        raise RuntimeError("set-up failed:\n" + proc.stderr.decode())


def timed(W, args):
    from speed import REFERENCE, SpeedProbe
    probe = SpeedProbe()
    raw = defaultdict(list)        # (kind, name) -> [(seconds, loop index)]

    def step(key, fn):
        j = probe.tick()
        t0 = time.perf_counter()
        out = fn()
        raw[key].append((time.perf_counter() - t0, j))
        return out

    for i in range(SETUP_SAMPLES):
        step(("setup", i), lambda: _setup_process(W, args))
    wl = W.setup(args.workload)
    _warm_up(W, wl)
    tally = Tally()
    others = []
    for inp in wl.commands:
        others += [("command", inp, cmd) for cmd in W.COMMANDS]
        # twice per round: a fresh process is the noisiest step
        others += [("cold", inp, None)] * 2
    engine = [("engine", inp, None) for inp in wl.engine]
    for kind, inp, cmd in _rounds(random.Random(args.seed), engine, others,
                                  args.seconds):
        if kind == "engine":
            outcome = step((kind, inp.name), lambda: W.run_engine(inp))
            tally.engine(inp, outcome, W)
        elif kind == "command":
            bad = step((cmd, inp.name), lambda: W.run_command(inp, cmd))
            tally.outputs((cmd, inp.name), bad)
        else:
            bad = step((kind, inp.name), lambda: W.run_cold(inp)[0])
            tally.outputs((kind, inp.name), bad)
    probe.tick()

    def med(key, scaled=True):
        return statistics.median(
            sec * probe.factor(j) if scaled else sec for sec, j in raw[key])

    def summed(kinds, inputs, scaled=True):
        return sum(med((k, i.name), scaled) for k in kinds for i in inputs)

    per_target = sorted(med(("engine", i.name)) for i in wl.engine)
    engine_s = sum(per_target)
    verified = sum(1 for _, o in tally.outcomes.values() if o == W.VERIFIED)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [med(("setup", i)) for i in range(SETUP_SAMPLES)]
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "cold_verify_s": _metric(summed(("cold",), wl.commands), "s"),
        "engine_s": _metric(engine_s, "s"),
        "commands_s": _metric(summed(W.COMMANDS, wl.commands), "s"),
        "target_p50_s": _metric(_quantile(per_target, 0.5), "s"),
        "target_p90_s": _metric(_quantile(per_target, 0.9), "s"),
        "verified_per_s": _metric(verified / engine_s, "1/s"),
        "verified_share": _metric(verified / len(wl.engine), "ratio"),
        "sound_share": _metric(tally.sound_share(), "ratio"),
        "peak_rss_mb": _metric(peak, "MB"),
    }
    counts = {k: len(v) for k, v in raw.items()}
    _report(wl, tally, [
        "workload %s, seed %d: %d targets, %d command inputs; samples per "
        "input: engine %s, each command %s, cold %s" % (
            wl.name, args.seed, len(wl.engine), len(wl.commands),
            _span_of(counts, ("engine",)), _span_of(counts, W.COMMANDS),
            _span_of(counts, ("cold",))),
        "unscaled seconds: setup %.4f, cold_verify %.4f, engine %.4f, "
        "commands %.4f; speed loop median %.5f s over %d samples "
        "(range %.5f-%.5f), reference %.5f s" % (
            statistics.median(med(("setup", i), False)
                              for i in range(SETUP_SAMPLES)),
            summed(("cold",), wl.commands, False),
            summed(("engine",), wl.engine, False),
            summed(W.COMMANDS, wl.commands, False), probe.median(),
            len(probe.took), min(probe.took), max(probe.took), REFERENCE)])
    return dict(tally.head(), metrics=metrics)


def _span_of(counts, kinds):
    ns = [n for (k, _), n in counts.items() if k in kinds]
    if not ns:
        return "0"
    return "%d" % ns[0] if min(ns) == max(ns) else "%d-%d" % (min(ns),
                                                              max(ns))


# ---------------------------------------------------------------------------
# traced run (--trace 1)


LAYER_TIMES = {
    "fields.arith_s": "fields.arith", "fields.factor_s": "fields.factor",
    "polyring.expand_s": "polyring.expand",
    "keypoly.values_s": "keypoly.values", "keypoly.growth_s": "keypoly.growth",
    "graded.ring_s": "graded.ring", "values.group_s": "values.group",
    "scenario.parse_s": "scenario.parse",
    "report.classify_s": "report.classify", "report.render_s": "report.render",
}
LAYER_CALLS = {
    "fields.arith_calls": "fields.arith", "fields.factor_calls":
    "fields.factor", "graded.ring_calls": "graded.ring",
    "values.group_calls": "values.group",
}
EVENTS = ("polyring.expansions", "polyring.expansion_repeats",
          "keypoly.cval_calls", "keypoly.nres_calls", "keypoly.appends",
          "keypoly.branches", "keypoly.refusals")


def _import_times(stderr):
    """Seconds spent importing in a cold process, read from `python -X
    importtime` output: sympy's cumulative time, and the cumulative time of
    every other top-level import (valforge, the standard library)."""
    out = Counter()
    for line in stderr.decode("ascii", "replace").splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        if name.startswith("  "):
            continue
        out["sympy" if name.strip() == "sympy" else "other"] += int(cum) / 1e6
    return out


def traced(W, args):
    from tracer import Tracer
    wl = W.setup(args.workload)
    _warm_up(W, wl)
    subset = wl.engine[:TRACED_CORPUS] if wl.name == "corpus" else wl.engine
    traced_names = {inp.name for inp in subset}
    tally = Tally()
    tr = Tracer()
    rng = random.Random(args.seed)
    t_end = time.perf_counter() + args.seconds
    passes = []
    while not passes or time.perf_counter() < t_end:
        tr.reset()
        plain = with_trace = 0.0
        order = list(wl.engine)
        rng.shuffle(order)
        for inp in order:
            t0 = time.perf_counter()
            tally.engine(inp, W.run_engine(inp), W)
            t1 = time.perf_counter()
            if inp.name not in traced_names:
                continue
            # the traced run follows the untraced one at once, so that the
            # overhead ratio does not pick up drift in machine speed
            tr.install(W.refusal_types())
            try:
                tr.begin_run()
                t2 = time.perf_counter()
                W.run_engine(inp)
                with_trace += time.perf_counter() - t2
            finally:
                tr.uninstall()
            plain += t1 - t0
        tr.install(W.refusal_types())
        try:
            for inp in wl.commands:
                for cmd in W.COMMANDS:
                    tally.outputs((cmd, inp.name),
                                  W.run_command(inp, cmd))
        finally:
            tr.uninstall()
        imports = Counter()
        for inp in wl.commands:
            bad, err = W.run_cold(inp, ("-X", "importtime"))
            tally.outputs(("cold", inp.name), bad)
            imports.update(_import_times(err))
        passes.append({
            "times": dict(tr.self_time), "calls": dict(tr.calls),
            "events": dict(tr.events), "imports": imports,
            "ratio": with_trace / plain})

    def med(get):
        return statistics.median(get(p) for p in passes)

    first = passes[0]
    for p in passes[1:]:
        if p["calls"] != first["calls"] or p["events"] != first["events"]:
            sys.stderr.write("warning: per-layer counts differ between "
                             "traced passes\n")
    metrics = {}
    for name, layer in LAYER_TIMES.items():
        metrics[name] = _metric(med(lambda p: p["times"].get(layer, 0.0)),
                                "s")
    for name, layer in LAYER_CALLS.items():
        metrics[name] = _metric(first["calls"].get(layer, 0), "count")
    for name in EVENTS:
        metrics[name] = _metric(first["events"].get(name, 0), "count")
    n_exp = first["events"].get("polyring.expansions", 0)
    n_rep = first["events"].get("polyring.expansion_repeats", 0)
    metrics["polyring.expansion_useful_ratio"] = _metric(
        (n_exp - n_rep) / n_exp if n_exp else 1.0, "ratio")
    metrics["cli.cold_import_s"] = _metric(
        med(lambda p: p["imports"]["other"]), "s")
    metrics["cli.sympy_import_s"] = _metric(
        med(lambda p: p["imports"]["sympy"]), "s")
    metrics["trace.overhead_ratio"] = _metric(med(lambda p: p["ratio"]),
                                              "ratio")
    by_label = tally.by_label()
    for outcome in (W.REFUSED, W.FAILED):
        for label in W.corpus.LABELS:
            metrics["corpus.%s_%s" % (outcome, label)] = _metric(
                by_label.get((outcome, label), 0), "count")
    _report(wl, tally, [
        "workload %s, seed %d: %d traced passes over %d of %d targets "
        "and %d command inputs" % (wl.name, args.seed, len(passes),
                                   len(subset), len(wl.engine),
                                   len(wl.commands))])
    return dict(tally.head(), metrics=metrics)


if __name__ == "__main__":
    sys.exit(main())
