"""One list of test dependencies.

The CI workflow installs pinned versions of pytest, sympy and hypothesis,
since sympy is the tests' factoring reference and its answers change
between versions; `pyproject.toml`'s `test` extra must name exactly those
pins.  Both files are read with regular expressions, not `tomllib`, which
Python 3.10 lacks.
"""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _workflow_pins():
    text = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    lines = re.findall(r"^\s*run: python -m pip install (.+)$", text, re.M)
    assert len(lines) == 1, lines
    return sorted(lines[0].split())


def _extra_pins():
    text = (ROOT / "pyproject.toml").read_text()
    extras = re.findall(r"^test = \[([^\]]*)\]$", text, re.M)
    assert len(extras) == 1, extras
    return sorted(re.findall(r'"([^"]+)"', extras[0]))


def test_test_extra_names_the_workflow_pins():
    pins = _workflow_pins()
    assert pins == _extra_pins()
    assert all(re.fullmatch(r"[a-z]+==[0-9.]+", pin) for pin in pins), pins
    assert {pin.split("==")[0] for pin in pins} == {"pytest", "sympy",
                                                    "hypothesis"}
