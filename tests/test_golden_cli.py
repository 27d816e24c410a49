"""The command line against the golden outputs of the benchmark.

`perfbench/golden/` holds the stdout bytes and exit codes of every packaged
scenario under every subcommand.  Running `valforge.cli.main` in process
here makes a change of output fail in the test suite and not only in the
benchmark.  The files are only read.
"""

import json
from pathlib import Path

import pytest

from valforge.cli import main

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden"
SCENARIOS = ("quartic", "cubic_char3", "quintic_tower")
COMMANDS = ("chain", "defect", "newton", "verify")


@pytest.mark.parametrize("cmd", COMMANDS)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_cli_output_matches_golden(scenario, cmd, capsys, monkeypatch):
    monkeypatch.delenv("VALFORGE_SCENARIO_PATH", raising=False)
    manifest = json.loads((GOLDEN / "manifest.json").read_text())
    code = main([cmd, scenario])
    out = capsys.readouterr().out.encode()
    assert out == (GOLDEN / ("%s.%s.out" % (scenario, cmd))).read_bytes()
    assert code == manifest["exit_codes"][scenario][cmd]
