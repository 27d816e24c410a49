"""One refusal type.

Every typed refusal derives from `valforge.Refusal`, and growth, the
scenario parser and the command line each catch that one type.  So the
command line answers every input with exit 0 or 1 (a verdict) or exit 2 (a
refusal or an unreadable file); a traceback is a bug.
"""

import random

import pytest

import valforge
import valforge.keypoly as keypoly
from inputs import PACKAGED, packaged_text
from valforge.cli import main
from valforge.keypoly import Chain
from valforge.report import ReportError
from valforge.scenario import ScenarioError, parse_scenario


def test_every_refusal_is_a_refusal():
    for cls in (valforge.InsufficientPrecision, valforge.UnsupportedStructure,
                valforge.ChainError, valforge.ReportError,
                valforge.ScenarioError):
        assert issubclass(cls, valforge.Refusal)


def test_growth_locates_a_refusal_of_any_type(monkeypatch):
    # growth names the branch, stage and key of every `Refusal`, not only of
    # the types it raises today; the quartic's target has effective degree
    # 2 at stage 2, before its branches have their answers
    sc = parse_scenario(MINIMAL.replace(
        "x^2 - y^3", "(x^2 - y^3)^2 + (y^2*x + y^5)*(x^2 - y^3) + y^8"),
        "located")
    plain = Chain.derive_keys

    def refusing(self):
        if self.depth() == 2:
            raise ReportError("no report here")
        return plain(self)

    monkeypatch.setattr(Chain, "derive_keys", refusing)
    with pytest.raises(ReportError) as exc:
        keypoly.explore(sc.field, sc.var, sc.target, 6)
    assert type(exc.value) is ReportError
    assert str(exc.value) == ("branch 1.1: stage 2, key Q = x^2 - y^3: "
                              "no report here")


MINIMAL = """\
[field]
kind = rational_functions
char = 0
generator = y

[target]
var = x
poly = x^2 - y^3
"""


@pytest.mark.parametrize("text, message", [
    (MINIMAL.replace("x^2 - y^3", "(" * 250 + "x" + ")" * 250),
     "line 8: poly: expression nested too deeply"),
    (MINIMAL.replace("x^2 - y^3", "-" * 1000 + "x"),
     "line 8: poly: expression nested too deeply"),
    (MINIMAL + "\n[chain]\n1 ; " + "(" * 250 + "x" + ")" * 250 + " ; 3/2\n",
     "line 11: expression nested too deeply"),
], ids=["parentheses", "unary-minus", "chain-row"])
def test_cli_deep_nesting_is_refused(tmp_path, capsys, text, message):
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(text, "deep")
    assert type(exc.value) is ScenarioError and str(exc.value) == message
    path = tmp_path / "deep.scn"
    path.write_text(text, encoding="ascii")
    rc = main(["verify", str(path)])
    out, err = capsys.readouterr()
    assert rc == 2 and out == "" and err == "error: %s\n" % message


def test_moderate_nesting_still_parses():
    text = MINIMAL.replace("x^2 - y^3", "(" * 60 + "x" + ")" * 60 + "^2"
                           + " - " + "-" * 60 + "y^3")
    assert parse_scenario(text, "nested").target.format() == "x^2 - y^3"


# ---------------------------------------------------------------------------
# seeded mutations of the packaged scenarios through the command line

TEXTS = [packaged_text(name) for name in PACKAGED]

# Insertions draw no digit, and a digit is replaced only by a digit, so no
# number grows a digit and every mutated target keeps a small degree.
SYMBOLS = "xyzuvw+-*/^()[];=., \n"
DIGITS = "0123456789"


def _mutate(rng, text):
    for _ in range(rng.randint(1, 3)):
        op, i = rng.randrange(6), rng.randrange(len(text))
        if op == 0:
            text = text[:i] + text[i + 1:]
        elif op == 1:
            text = text[:i] + rng.choice(SYMBOLS) + text[i + 1:]
        elif op == 2:
            text = text[:i] + rng.choice(SYMBOLS) + text[i:]
        elif op == 3:
            text = text[:i] + text[i + 1:i + 2] + text[i:i + 1] + text[i + 2:]
        elif op == 4:
            lines = text.split("\n")
            lines.insert(rng.randrange(len(lines)), rng.choice(lines))
            text = "\n".join(lines)
        else:
            j = rng.choice([j for j, c in enumerate(text) if c in DIGITS])
            text = text[:j] + rng.choice(DIGITS) + text[j + 1:]
    return text


def test_mutated_scenarios_get_a_verdict_or_a_refusal(tmp_path, capsys):
    rng = random.Random(23)
    path = tmp_path / "mutated.scn"
    codes = set()
    for k in range(60):
        text = _mutate(rng, TEXTS[k % len(TEXTS)])
        path.write_text(text, encoding="ascii")
        for cmd in ("chain", "defect", "newton", "verify"):
            rc = main([cmd, str(path), "--depth", "6"])
            assert rc in (0, 1, 2), text
            codes.add(rc)
        capsys.readouterr()
    # the sample reaches both answers and refusals
    assert {0, 2} <= codes
