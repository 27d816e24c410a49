"""The command line against the golden outputs of the benchmark.

`perfbench/golden/` holds the stdout bytes and exit codes of every packaged
scenario and of the benchmark's corpus commands under every subcommand.
Running `valforge.cli.main` in process here makes a change of output fail in
the test suite and not only in the benchmark.  A corpus command's scenario
is written from `perfbench/corpus.py` as the benchmark writes it.  The
files are only read.
"""

import json

import pytest

from inputs import CORPUS, PERFBENCH, corpus_targets, perfbench
from valforge import cli
from valforge.cli import main

GOLDEN = PERFBENCH / "golden"
MANIFEST = json.loads((GOLDEN / "manifest.json").read_text())
CORPUS_COMMANDS = {"t%03d" % index: index
                   for index in MANIFEST["corpus_commands"]}
COMMANDS = ("chain", "defect", "newton", "verify")


@pytest.mark.parametrize("cmd", COMMANDS)
@pytest.mark.parametrize("scenario", sorted(MANIFEST["exit_codes"]))
def test_cli_output_matches_golden(scenario, cmd, capsys, monkeypatch,
                                   tmp_path):
    monkeypatch.delenv("VALFORGE_SCENARIO_PATH", raising=False)
    arg = scenario
    if scenario in CORPUS_COMMANDS:
        path = tmp_path / (scenario + ".scn")
        path.write_text(CORPUS.scenario_text(
            corpus_targets()[CORPUS_COMMANDS[scenario]]), encoding="ascii")
        arg = str(path)
    code = main([cmd, arg])
    out = capsys.readouterr().out.encode()
    assert out == (GOLDEN / ("%s.%s.out" % (scenario, cmd))).read_bytes()
    assert code == MANIFEST["exit_codes"][scenario][cmd]


def test_benchmark_command_lines_are_plain():
    # the benchmark runs `COMMAND SCENARIO` lines only; the plain reader
    # reads each of them, so no benchmark process imports argparse
    for cmd in perfbench("workloads").COMMANDS:
        for scenario in MANIFEST["exit_codes"]:
            assert cli._plain([cmd, scenario]) is not None, (cmd, scenario)
