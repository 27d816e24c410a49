"""Record the golden outputs the benchmark compares against.

    python3 perfbench/record_golden.py

Runs `python -m valforge.cli <command> <scenario>` in a fresh process for
every packaged scenario and every subcommand and stores the stdout bytes and
exit code under perfbench/golden/.  For the corpus it picks, per
characteristic, the first squarefree target of degree 3 or more that the
engine verifies, and records the same four outputs for it.  Run it on the
commit whose behaviour is the reference; later commits must reproduce the
files byte for byte.
"""

import json
import os
import subprocess
import sys

import corpus
import workloads as W


def record(name, arg, codes):
    codes[name] = {}
    for cmd in W.COMMANDS:
        proc = subprocess.run(
            [sys.executable, "-m", "valforge.cli", cmd, arg], cwd=W.ROOT,
            env=W.child_env(), capture_output=True, timeout=300)
        if b"Traceback" in proc.stderr:
            raise SystemExit("%s %s crashed:\n%s"
                             % (cmd, name, proc.stderr.decode()))
        with open(os.path.join(W.GOLDEN, "%s.%s.out" % (name, cmd)),
                  "wb") as fh:
            fh.write(proc.stdout)
        codes[name][cmd] = proc.returncode


def main():
    sys.pycache_prefix = W.PYCACHE
    sys.path.insert(0, W.SRC)
    os.makedirs(W.GOLDEN, exist_ok=True)
    codes = {}
    for names in W.SCENARIOS.values():
        for scn in names:
            record(scn, scn, codes)
    targets = corpus.draw_targets(W.CORPUS_SEED, W.CORPUS_SIZE)
    scn_dir = os.path.join(W.BUILD, "corpus")
    os.makedirs(scn_dir, exist_ok=True)
    picked = []
    for p in corpus.CHARS:
        for t in targets:
            if t.p != p or t.degree < 3:
                continue
            t.label = corpus.label(t)
            poly = corpus.build_poly(t)
            inp = W.EngineInput("t", poly.field, "x", poly, corpus.DEPTH,
                                corpus.WINDOW, {}, t.label, None)
            if t.label == "squarefree" and W.run_engine(inp) == W.VERIFIED:
                picked.append(t.index)
                break
    for index in picked:
        name = "t%03d" % index
        path = os.path.join(scn_dir, name + ".scn")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(corpus.scenario_text(targets[index]))
        record(name, path, codes)
    manifest = {"exit_codes": codes, "corpus_commands": picked}
    with open(os.path.join(W.GOLDEN, "manifest.json"), "w",
              encoding="ascii") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
