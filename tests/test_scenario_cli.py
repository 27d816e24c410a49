import functools
import os
import subprocess
import sys
import time
from decimal import Decimal

import pytest

import valforge
from inputs import (PACKAGED, PERFBENCH, V, packaged_text, quartic_setup,
                    tower_script, tower_setup)
from valforge import cli
from valforge.cli import main
from valforge.fields import (CoordinateTower, InsufficientPrecision,
                             UnsupportedStructure)
from valforge.keypoly import Chain
from valforge.scenario import (ScenarioError, format_scenario, load_scenario,
                               parse_expression, parse_index, parse_scenario)
from valforge.values import OrdinalIndex


# ---------------------------------------------------------------------------
# expressions and index tokens


def test_expression_matches_hand_built_target():
    F, x, Q, P = quartic_setup()
    got = parse_expression(
        F, "x", "(x^2 - y^3)^2 + (y^2*x + y^5)*(x^2 - y^3) + y^8")
    assert (got - P).is_zero


def test_expression_constants_and_division():
    F, x, Q, P = quartic_setup()
    half = parse_expression(F, "x", "3/2 - 1")
    assert half.degree == 0
    assert F.eq(half.constant_term(), F.div(F.one, F.from_int(2)))
    scaled = parse_expression(F, "x", "(2*x + y^2)/2")
    assert (scaled - parse_expression(F, "x", "x + y^2/2")).is_zero


def test_expression_rejects_garbage():
    F, x, Q, P = quartic_setup()
    for text in ("x + * 2", "x/(x + 1)", "x^(2)", "x^y", "q + 1",
                 "x + ", "(x", "x $ 2"):
        with pytest.raises(ScenarioError):
            parse_expression(F, "x", text)


def test_index_tokens():
    assert parse_index("3") == OrdinalIndex(0, 3)
    assert parse_index("w") == OrdinalIndex(1, 0)
    assert parse_index("w+2") == OrdinalIndex(1, 2)
    assert parse_index("w2") == OrdinalIndex(2, 0)
    assert parse_index("w2+5") == OrdinalIndex(2, 5)
    for bad in ("", "w-1", "+3", "2w", "w+", "x3", "w0", "w0+3"):
        with pytest.raises(ScenarioError):
            parse_index(bad)


# ---------------------------------------------------------------------------
# scenario parsing


MINIMAL = """\
[field]
kind = rational_functions
char = 0
generator = y

[target]
var = x
poly = x^2 - y^3
"""


def test_minimal_scenario_defaults():
    sc = parse_scenario(MINIMAL, "minimal")
    assert sc.rank == 1 and sc.var == "x"
    assert sc.script == [] and sc.oracle == []
    assert (sc.depth, sc.window) == (8, 4)
    assert not sc.lump_sides and sc.branches_mode == "all"


def test_empty_scenario_is_a_syntax_error():
    with pytest.raises(ScenarioError):
        parse_scenario("", "empty")
    with pytest.raises(ScenarioError):
        parse_scenario("# only a comment\n", "empty")


def test_syntax_errors_carry_line_numbers():
    with pytest.raises(ScenarioError, match="line 1"):
        parse_scenario("kind = lost\n[field]\n", "stray")
    with pytest.raises(ScenarioError, match="line 2"):
        parse_scenario("[field]\n[nonsense]\n", "badsection")
    dup = MINIMAL.replace("char = 0\n", "char = 0\nchar = 0\n")
    with pytest.raises(ScenarioError, match="line 4"):
        parse_scenario(dup, "dupkey")


def test_semantic_errors():
    with pytest.raises(ScenarioError, match="monic"):
        parse_scenario(MINIMAL.replace("x^2 - y^3", "y*x^2 + 1"), "nonmonic")
    with pytest.raises(ScenarioError, match="rank"):
        parse_scenario(MINIMAL + "\n[valuation]\nrank = 2\n", "badrank")
    with pytest.raises(ScenarioError, match="scripted"):
        parse_scenario(MINIMAL + "\n[params]\nbranches = scripted\n",
                       "noscript")
    chain = "\n[chain]\n1 ; x ; 3/2\n2 ; x^2 - y^3 ; 1/2\n"
    with pytest.raises(ScenarioError, match="increase"):
        parse_scenario(MINIMAL + chain, "badbeta")
    chain = "\n[chain]\n1 ; x ; inf\n2 ; x^2 - y^3 ; 7/2\n"
    with pytest.raises(ScenarioError, match="terminal"):
        parse_scenario(MINIMAL + chain, "earlyinf")
    chain = "\n[chain]\n2 ; x ; 3/2\n1 ; x^2 - y^3 ; 7/2\n"
    with pytest.raises(ScenarioError, match="indices"):
        parse_scenario(MINIMAL + chain, "badindex")


FIELD_KINDS = {
    "rational_functions": "kind = rational_functions\nchar = 0\ngenerator = x\n",
    "lex_series": "kind = lex_series\np = 3\ngenerators = z x\n",
    "coordinate_tower": "kind = coordinate_tower\np = 2\ngamma = 1\ndepth = 4\n",
}


@pytest.mark.parametrize("kind, var", [("rational_functions", "x"),
                                       ("lex_series", "x"),
                                       ("coordinate_tower", "v")])
def test_chain_variable_that_names_a_field_atom_is_refused(kind, var):
    text = ("[field]\n%s\n[target]\nvar = %s\npoly = %s^2 + 1\n"
            % (FIELD_KINDS[kind], var, var))
    with pytest.raises(ScenarioError,
                       match="chain variable '%s' already names" % var):
        parse_scenario(text, "clash")


def test_round_trip_packaged_scenarios():
    for name in PACKAGED:
        sc = load_scenario(name)
        text = format_scenario(sc)
        sc2 = parse_scenario(text, name)
        assert (sc.target - sc2.target).is_zero
        assert sc.var == sc2.var and sc.rank == sc2.rank
        assert (sc.depth, sc.window, sc.lump_sides, sc.branches_mode) == \
            (sc2.depth, sc2.window, sc2.lump_sides, sc2.branches_mode)
        assert len(sc.script) == len(sc2.script)
        for (i1, q1, b1), (i2, q2, b2) in zip(sc.script, sc2.script):
            assert i1 == i2 and b1 == b2 and (q1 - q2).is_zero
        for (q1, v1), (q2, v2) in zip(sc.oracle, sc2.oracle):
            assert (q1 - q2).is_zero and v1 == v2
        assert format_scenario(sc2) == text


def test_packaged_tower_script_is_the_derived_chain():
    sc = load_scenario("quintic_tower")
    F, P, qw, qw2 = tower_setup()
    ref = tower_script(F, qw, qw2)
    assert (sc.target - P).is_zero
    assert len(sc.script) == len(ref) == 38
    for (i1, q1, b1), (i2, q2, b2) in zip(sc.script, ref):
        assert i1 == i2 and b1 == b2 and (q1 - q2).is_zero


def test_oracle_rows_cover_branches():
    sc = load_scenario("quartic")
    lo = sc.oracle_samples(0)
    hi = sc.oracle_samples(1)
    assert lo[0][1] == V("3/2") and hi[0][1] == V("3/2")
    assert lo[1][1] == V("7/2") and hi[1][1] == V("9/2")
    with pytest.raises(ScenarioError):
        sc.oracle_samples(2)


def test_search_path(tmp_path, monkeypatch):
    packaged = format_scenario(load_scenario("quartic"))
    target = tmp_path / "local_quartic.scn"
    target.write_text(packaged, encoding="ascii")
    monkeypatch.setenv("VALFORGE_SCENARIO_PATH", str(tmp_path))
    sc = load_scenario("local_quartic")
    assert sc.name == "local_quartic" and sc.depth == 12
    monkeypatch.delenv("VALFORGE_SCENARIO_PATH")
    with pytest.raises(ScenarioError):
        load_scenario("local_quartic")
    assert load_scenario(str(target)).depth == 12


# ---------------------------------------------------------------------------
# the command line


def run_cli(*args, env_extra=None, timeout=None):
    # a fresh `python -m valforge` process on the source imported here, so
    # the tests need no installed console script and never pick up a stray
    # installed copy
    return run_python("-m", "valforge", *args, env_extra=env_extra,
                      timeout=timeout)


def run_python(*args, env_extra=None, timeout=None):
    env = dict(os.environ)
    env.pop("VALFORGE_SCENARIO_PATH", None)
    source = os.path.dirname(os.path.dirname(valforge.__file__))
    inherited = [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join([source] + inherited)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run((sys.executable,) + args,
                          capture_output=True, text=True, env=env,
                          timeout=timeout)
    return proc.returncode, proc.stdout, proc.stderr


def test_cli_defect_quartic():
    rc, out, err = run_cli("defect", "quartic")
    assert rc == 0 and err == ""
    assert out == (
        "branch 1: e 2, f 1, d_blocks [1], d 1, stable delta 1\n"
        "branch 2: e 2, f 1, d_blocks [1], d 1, stable delta 1\n"
        "identity: 4 = 2*1*1 + 2*1*1\n")


@pytest.mark.parametrize("name", PACKAGED)
def test_cli_module_verify_runs_clean(name):
    # the cold form the benchmark times: running the module itself warns
    # on stderr when importing the package has imported it already
    rc, out, err = run_python("-m", "valforge.cli", "verify", name)
    assert (rc, err) == (0, "")
    assert out.startswith("ok: ")
    # and `newton`, which grows only the chains up to the one it draws
    rc, out, err = run_python("-m", "valforge.cli", "newton", name)
    assert (rc, err) == (0, "") and out


def test_cli_defect_tower_reports_d4():
    rc, out, err = run_cli("defect", "quintic_tower")
    assert rc == 0
    assert "d = 4\n" in out
    assert out.endswith("identity: 5 > 1*1*4 (partial)\n")


def test_cli_chain_depth_zero_prints_only_first_key(capsys):
    rc = main(["chain", "quartic", "--depth", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out == ("branch 1: depth 1\n"
                   "  1: Q = x, beta = 3/2, alpha 1, delta 4, derived\n")


def test_cli_defect_cubic(capsys):
    rc = main(["defect", "cubic_char3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "branch 1: e 1, f 2, d_blocks [1], d 1, terminated\n" in out
    assert out.endswith("identity: 3 = 1*2*1 + 1*1*1\n")


def test_cli_newton(capsys):
    rc = main(["newton", "quartic", "--depth", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "side 0..1: slope 9/2\n" in out
    assert "side 1..2: slope 7/2\n" in out


@pytest.mark.parametrize("name", ["quartic", "cubic_char3"])
def test_cli_verify_checks_each_branch_against_its_own_oracle(capsys, name):
    # the oracle value of branch 2 differs from that of branch 1
    for branch in ("1", "2"):
        rc = main(["verify", name, "--branch", branch])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "ok: branch %s attains its" % branch in out


def test_cli_verify_all_packaged(capsys):
    for name in PACKAGED:
        rc = main(["verify", name])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "fail" not in out


@pytest.mark.parametrize("name", PACKAGED)
def test_cold_verify_never_imports_sympy(name):
    # valforge factors over Q and over F_p with its own code; sympy is only a
    # test reference, and an import of it would put its import time back into
    # every cold verify.  A plain `COMMAND SCENARIO` line is read without
    # argparse, whose import would cost every cold process its time.
    rc, out, err = run_python("-c", (
        "import contextlib, io, sys\n"
        "from valforge.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = main(['verify', %r])\n"
        "print(rc, 'sympy' in sys.modules, 'argparse' in sys.modules)\n")
        % name)
    assert err == ""
    assert out == "0 False False\n"


@pytest.mark.parametrize("cmd", ["chain", "defect", "newton", "verify"])
def test_cli_refusal_at_a_roots_first_key_names_its_branch(tmp_path, capsys,
                                                            cmd):
    # the first key y has value 1/16, which a tower of depth 2 cannot hold;
    # the refusal names its branch as a refusal at a later stage does
    path = tmp_path / "shallow_tower.scn"
    path.write_text("[field]\n%s\n[target]\nvar = y\npoly = y^8 + v\n\n"
                    "[params]\ndepth = 4\n"
                    % FIELD_KINDS["coordinate_tower"].replace("depth = 4",
                                                              "depth = 2"),
                    encoding="ascii")
    rc = main([cmd, str(path)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == ("error: branch 1: incoming key y at stage 1: "
                            "value 1/16 needs tower depth 4, beyond depth 2\n")


def test_cli_tsv_and_branch_filter(capsys):
    rc = main(["defect", "quartic", "--format", "tsv"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines()[0] == "1\t2\t1\t1\t1\tstable delta 1"
    rc = main(["chain", "quartic", "--branch", "2", "--depth", "2",
               "--format", "tsv"])
    out = capsys.readouterr().out
    assert rc == 0
    rows = out.strip().split("\n")
    assert len(rows) == 2 and rows[0].startswith("2\t1\tx\t3/2")


def test_cli_scripts_replay_verbatim_under_depth_flag(capsys):
    rc = main(["defect", "quintic_tower", "--depth", "3"])
    out = capsys.readouterr().out
    assert rc == 0 and "d = 4\n" in out


def test_cli_output_is_deterministic():
    first = run_cli("defect", "quintic_tower")
    second = run_cli("defect", "quintic_tower")
    assert first == second


def test_cli_errors_exit_two(capsys):
    rc = main(["defect", "no_such_scenario"])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("error:")


@pytest.mark.parametrize("command", ["chain", "defect", "newton", "verify"])
def test_cli_missing_branch_exits_two(capsys, command):
    # every command picks its branch in one place
    rc = main([command, "quartic", "--branch", "7"])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err == "error: no branch 7; the scenario grew 2\n"


TOWER = "[field]\n" + FIELD_KINDS["coordinate_tower"] + "\n[target]\nvar = y\npoly = y^2 + v\n"


@pytest.mark.parametrize("text, line, key, got", [
    (MINIMAL.replace("char = 0", "char = zero"), 3, "char", "zero"),
    (TOWER.replace("p = 2", "p = two"), 3, "p", "two"),
    (TOWER.replace("depth = 4", "depth = x"), 5, "depth", "x"),
    (TOWER.replace("gamma = 1", "gamma = 1 x"), 4, "gamma", "x"),
    (MINIMAL + "\n[valuation]\nrank = one\n", 11, "rank", "one"),
    (MINIMAL + "\n[params]\ndepth = eight\n", 11, "depth", "eight"),
    (MINIMAL + "\n[params]\ndepth = 8\nwindow = 1/2\n", 12, "window", "1/2"),
    (MINIMAL + "\n[params]\ndepth = 1_0\n", 11, "depth", "1_0"),
    (MINIMAL + "\n[params]\ndepth = 8\nwindow = +3\n", 12, "window", "+3"),
], ids=["char", "p", "tower-depth", "gamma", "rank", "params-depth", "window",
        "underscore", "plus-sign"])
def test_cli_non_integer_names_line_and_key(tmp_path, capsys, text, line,
                                            key, got):
    path = tmp_path / "not_an_integer.scn"
    path.write_text(text, encoding="ascii")
    rc = main(["verify", str(path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == "error: line %d: %s: must be an integer, got %r\n" % (line, key, got)


LEX = ("[field]\n" + FIELD_KINDS["lex_series"]
       + "\n[target]\nvar = y\npoly = y^2 + z\n")


@pytest.mark.parametrize("text, line, key, reason", [
    (TOWER.replace("gamma = 1", "gamma = 2"), 4, "gamma",
     "tower units must be nonzero"),
    (TOWER.replace("gamma = 1", "gamma = 1 1").replace("depth = 4", "depth = 6"),
     4, "gamma", "need a tower unit for every level up to 6"),
    (MINIMAL.replace("char = 0", "char = 4"), 3, "char", "4 is not prime"),
    (LEX.replace("p = 3", "p = 6"), 3, "p", "6 is not prime"),
    (LEX.replace("generators = z x", "generators = z x\nprecision = q:40"), 5,
     "precision", "precision bound for unknown variable 'q'"),
    # a strong pseudoprime to every prime base up to 23
    (MINIMAL.replace("char = 0", "char = 3825123056546413051"), 3, "char",
     "3825123056546413051 is not prime"),
    (LEX.replace("p = 3", "p = %d" % 10 ** 25), 3, "p", "%d is too large: a "
     "characteristic must be below 3317044064679887385961981" % 10 ** 25),
], ids=["tower-gamma-zero", "tower-gamma-short", "char", "lex-p", "precision",
        "char-pseudoprime", "lex-p-too-large"])
def test_cli_field_constructor_refusal_names_line_and_key(tmp_path, capsys,
                                                          text, line, key,
                                                          reason):
    path = tmp_path / "bad_field.scn"
    path.write_text(text, encoding="ascii")
    rc = main(["verify", str(path)])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err == "error: line %d: %s: %s\n" % (line, key, reason)


def test_cli_large_prime_characteristic_answers(tmp_path):
    # the characteristic check took more than 10 s for this p by trial
    # division
    path = tmp_path / "large_p.scn"
    path.write_text(MINIMAL.replace("char = 0", "char = %d" % (10 ** 18 + 3))
                    .replace("x^2 - y^3", "x^3 + y*x + y^2"), encoding="ascii")
    rc, out, err = run_python("-m", "valforge.cli", "verify", str(path),
                              timeout=10)
    assert (rc, err) == (0, "")
    assert out.endswith("ok: identity 3 = 2*1*1 + 1*1*1\n")


@pytest.mark.parametrize("text, line, reason", [
    (MINIMAL.replace("x^2 - y^3", "x^2 - w"), 8, "unknown name 'w'"),
    (TOWER.replace("y^2 + v", "y^2 + v5"), 9, "v5 lies below tower depth 4"),
    (TOWER.replace("y^2 + v", "y^2 + u4"), 9,
     "u4 needs v5, which lies below tower depth 4"),
    (TOWER.replace("y^2 + v", "y^2 + w3"), 9, "unknown name 'w3'"),
], ids=["Q(y)", "tower-v", "tower-u", "tower-unknown"])
def test_cli_unknown_atom_names_it_once_with_its_cause(tmp_path, capsys,
                                                       text, line, reason):
    path = tmp_path / "unknown_atom.scn"
    path.write_text(text, encoding="ascii")
    rc = main(["verify", str(path)])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err == "error: line %d: poly: %s\n" % (line, reason)


def test_cli_tower_depth_below_one_is_refused(tmp_path, capsys):
    # a depth written in the file names its line; one from the command line
    # names the option, not the line it overrides
    path = tmp_path / "depth_0.scn"
    path.write_text(TOWER.replace("depth = 4", "depth = 0"), encoding="ascii")
    for args, where in ((["verify", str(path)], "line 5: depth"),
                        (["chain", "quintic_tower", "--precision", "0"],
                         "--precision")):
        rc = main(args)
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err == ("error: %s: tower depth must be at least 1, got 0\n"
                       % where)


def test_cli_huge_tower_power_is_refused_at_once(tmp_path):
    # a power squares and multiplies from the top bit down: v^(2^32) takes 32
    # products and only the last one meets the 2^31 bound, where one product
    # per unit of the exponent would run for hours
    path = tmp_path / "huge_power.scn"
    path.write_text(TOWER.replace("depth = 4", "depth = 8")
                    .replace("y^2 + v", "y + v^4294967296"), encoding="ascii")
    rc, out, err = run_cli("verify", str(path), timeout=60)
    assert rc == 2 and out == ""
    assert err == ("error: line 9: poly: the product of v^2147483648 and "
                   "v^2147483648 has value 2^31 or more, beyond the tower's "
                   "exponent fields\n")


QUINTIC = packaged_text("quintic_tower")
HUGE = "v^4294967296"
TOO_BIG = ("the product of v^2147483648 and v^2147483648 has value 2^31 or "
           "more, beyond the tower's exponent fields")
# the power squares from the top bit down: z^1562499999 squared is the first
# product past the lex range, refused before an exponent could wrap into its
# neighbour's field (the tuple-keyed lex field verified this target)
LEX_TOO_BIG = ("z^3124999998 has an exponent outside [-2^31, 2^31), beyond "
               "the lex series' exponent fields")


@pytest.mark.parametrize("text, kind, message", [
    (TOWER.replace("y^2 + v", "y^2 + (u"), ScenarioError,
     "line 9: poly: missing closing parenthesis"),
    (QUINTIC.replace("y^5 + y^4 + v^2*y + v^2 + u", "y + " + HUGE),
     InsufficientPrecision, "line 16: poly: " + TOO_BIG),
    (QUINTIC.replace("2 ; y + v2 ;", "2 ; y + %s ;" % HUGE),
     InsufficientPrecision, "line 20: " + TOO_BIG),
    (QUINTIC.replace("\ny + v2 ; 5/16", "\ny + %s ; 5/16" % HUGE),
     InsufficientPrecision, "line 60: " + TOO_BIG),
    (LEX.replace("y^2 + z", "y^2 + 1/(1 + z)"), UnsupportedStructure,
     "line 8: poly: series division is restricted to monomial divisors"),
    (LEX + "\n[oracle]\ny + 1/(1 + z) ; 0\n", UnsupportedStructure,
     "line 11: series division is restricted to monomial divisors"),
    (LEX.replace("y^2 + z", "y^2 + z^99999999999"), InsufficientPrecision,
     "line 8: poly: " + LEX_TOO_BIG),
    (MINIMAL.replace("x^2 - y^3", "y*x^2 + 1"), ScenarioError,
     "line 8: poly: target polynomial is not monic"),
    (LEX.replace("generators = z x", "generators = z x\nprecision = z:abc"),
     ScenarioError, "line 5: precision: bad precision 'z:abc'"),
    (MINIMAL + "\n[valuation]\nrank = 2\n", ScenarioError,
     "line 11: rank: declared rank 2 but the field has rank 1"),
    (MINIMAL + "\n[chain]\n2 ; x ; 3/2\n1 ; x^2 - y^3 ; 7/2\n", ScenarioError,
     "line 12: chain indices must increase (2 before 1)"),
    (MINIMAL + "\n[chain]\n1 ; x ; inf\n2 ; x^2 - y^3 ; 7/2\n", ScenarioError,
     "line 12: only the last chain entry may be terminal"),
    (MINIMAL + "\n[chain]\n1 ; x ; 3/2\n2 ; x^2 - y^3 ; 1/2\n", ScenarioError,
     "line 12: chain values must increase (3/2 before 1/2)"),
    (MINIMAL + "\n[params]\ndepth = -1\n", ScenarioError,
     "line 11: depth: must be at least 0, got -1"),
    (MINIMAL + "\n[params]\nwindow = 0\n", ScenarioError,
     "line 11: window: must be at least 1, got 0"),
    (LEX.replace("generators = z x", "generators = z z"), ScenarioError,
     "line 4: generators: generator 'z' named twice"),
    (LEX.replace("generators = z x", "generators = z x\nprecision = z:10 z:20"),
     ScenarioError, "line 5: precision: precision for 'z' given twice"),
    (MINIMAL + "\n[chain]\nw0+3 ; x ; 3/2\n", ScenarioError,
     "line 11: bad chain index 'w0+3'"),
    # value literals are a or a/b in ASCII digits: an exponent, a decimal
    # point or an underscore is refused at its line
    (MINIMAL + "\n[chain]\n1 ; x ; 1e5000\n", ScenarioError,
     "line 11: bad value literal '1e5000'"),
    (MINIMAL + "\n[chain]\n1 ; x ; 1.5\n", ScenarioError,
     "line 11: bad value literal '1.5'"),
    (MINIMAL + "\n[oracle]\nx ; 1_0\n", ScenarioError,
     "line 11: bad value literal '1_0'"),
    (MINIMAL + "\n[chain]\n1 ; x ; 3/0\n", ScenarioError,
     "line 11: bad value literal '3/0'"),
    (LEX + "\n[oracle]\ny ; (1, 1e5)\n", ScenarioError,
     "line 11: bad value literal '(1, 1e5)'"),
], ids=["target-syntax", "target-precision", "chain-precision",
        "oracle-precision", "target-division", "oracle-division",
        "lex-huge-power", "non-monic", "lex-precision-row", "rank-mismatch", "chain-indices",
        "chain-terminal", "chain-values", "params-depth", "params-window",
        "lex-generator-twice", "lex-precision-twice", "chain-limit-zero",
        "value-exponent", "value-decimal-point", "value-underscore",
        "value-zero-denominator", "value-tuple-exponent"])
def test_parse_refusals_name_their_line(tmp_path, capsys, text, kind,
                                        message):
    # a refusal raised while a row is parsed names the row's line (and the
    # key `poly` for the target) and keeps its type, so it still exits 2
    with pytest.raises(kind) as exc:
        parse_scenario(text, "parse_refusal")
    assert type(exc.value) is kind and str(exc.value) == message
    path = tmp_path / "parse_refusal.scn"
    path.write_text(text, encoding="ascii")
    rc = main(["verify", str(path)])
    out, err = capsys.readouterr()
    assert rc == 2 and out == "" and err == "error: %s\n" % message


@pytest.mark.parametrize("poly, degree, var", [
    ("x^65537 + 1", 65537, "x"),
    ("(x^2)^32769", 65538, "x"),
    ("x + y^65537", 65537, "y"),
    ("x + (1/y)^65537", 65537, "y"),
], ids=["chain-variable", "chain-variable-power", "generator",
        "generator-denominator"])
def test_power_past_the_degree_cap_is_refused(poly, degree, var):
    # the degree is checked before the power is built: x^1000000000 would
    # otherwise be a dense list of 10^9 coefficients
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(MINIMAL.replace("x^2 - y^3", poly))
    assert str(exc.value) == ("line 8: poly: a power of degree %d in %s "
                              "passes the degree cap 65536" % (degree, var))


@pytest.mark.parametrize("char", [0, 3])
def test_power_past_the_degree_cap_in_its_product_is_refused(char):
    # over k(y) a power's work grows with its degree in x times its degree
    # in y, one product in k(y) per pair of coefficients: (x + y)^256, with
    # product exactly the cap, parses, and (x + y)^257 is refused
    text = MINIMAL.replace("char = 0", "char = %d" % char)
    sc = parse_scenario(text.replace("x^2 - y^3", "(x + y)^256"))
    assert sc.target.degree == 256
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(text.replace("x^2 - y^3", "(x + y)^257"))
    assert str(exc.value) == ("line 8: poly: a power of degree 257 in x and "
                              "257 in y passes the degree cap 65536 in their "
                              "product")


@pytest.mark.parametrize("poly, message", [
    ("x^40000 * x^30000", "a product of degree 70000 in x passes the degree "
                          "cap 65536"),
    ("(x + y)^128 * (x - y)^129", "a product of degree 257 in x and 257 in y "
                                  "passes the degree cap 65536 in their "
                                  "product"),
    # the bound counts a dense result, not its terms, so a single term is
    # refused as (x*y)^300 is refused as a power
    ("y^300 * x^300", "a product of degree 300 in x and 300 in y passes the "
                      "degree cap 65536 in their product"),
    ("x^2 * y^40000", "a product of degree 2 in x and 40000 in y passes the "
                      "degree cap 65536 in their product"),
    # every product is under the cap, but the row is not: its eight terms
    # took 2.8 s to build before a row's work was bounded, and the third
    # term's product takes it past the budget
    ("x^256 + " + " + ".join("(x + %d*y)^128 * (x - %d*y)^127" % (k, k)
                             for k in range(1, 9)),
     "the powers and products of the row pass its work budget of 262144 "
     "dense terms"),
], ids=["chain-variable", "product", "monomial", "monomial-y", "row"])
def test_product_past_the_degree_cap_is_refused(poly, message):
    # a product is bounded as a power is: (x + y)^256 * (x - y)^256 took
    # 2.7 s to build over Q(y), where each factor alone takes 0.3 s;
    # (x + y)^128 * (x - y)^128, with product exactly the cap, parses
    sc = parse_scenario(MINIMAL.replace("x^2 - y^3",
                                        "(x + y)^128 * (x - y)^128"))
    assert sc.target.degree == 256
    start = time.perf_counter()
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(MINIMAL.replace("x^2 - y^3", poly))
    assert str(exc.value) == "line 8: poly: " + message
    assert time.perf_counter() - start < 2


def test_row_work_counts_a_remembered_value_once():
    # two terms fit in a row's budget, and a third would not; a term that
    # comes again is taken from the parser's memo and not counted again,
    # and the budget starts again on every row
    term = "(x + %d*y)^128 * (x - %d*y)^127"
    poly = "x^256 + %s + %s + %s - %s" % ((term % (1, 1), term % (2, 2))
                                         + (term % (1, 1),) * 2)
    oracle = "%s + %s ; 0" % (term % (3, 3), term % (4, 4))
    sc = parse_scenario(MINIMAL.replace("x^2 - y^3", poly)
                        + "\n[oracle]\n" + oracle + "\n")
    assert sc.target.degree == 256 and len(sc.oracle) == 1


def test_cli_power_with_a_large_product_is_refused_at_once(tmp_path):
    # (x + y)^1000 took 9.5 s to build over Q(y) before its product was
    # bounded, though each of its degrees is far below the cap
    path = tmp_path / "product_power.scn"
    path.write_text(MINIMAL.replace("x^2 - y^3", "(x + y)^1000"),
                    encoding="ascii")
    rc, out, err = run_cli("verify", str(path), timeout=10)
    assert rc == 2 and out == ""
    assert err == ("error: line 8: poly: a power of degree 1000 in x and 1000 "
                   "in y passes the degree cap 65536 in their product\n")


def test_powers_up_to_the_degree_cap_parse():
    # the cap bounds degrees only: a number's power is a constant
    for poly, degree in (("x^65536 + y^65536", 65536),
                         ("x + 2^65537", 1), ("x + y^0", 1)):
        sc = parse_scenario(MINIMAL.replace("x^2 - y^3", poly))
        assert sc.target.degree == degree


@pytest.mark.parametrize("text, message", [
    (MINIMAL.replace("x^2 - y^3", "x^² - y^3"),
     "line 8: poly: stray character '²'"),
    (MINIMAL.replace("x^2 - y^3", "x^2 - y^٣"),
     "line 8: poly: stray character '٣'"),
    (MINIMAL + "\n[chain]\n1 ; x ; 3/2\n2 ; x^² - y^3 ; 7/2\n",
     "line 12: stray character '²'"),
    (MINIMAL + "\n[oracle]\nx + ² ; 3/2\n", "line 11: stray character '²'"),
], ids=["target-superscript", "target-arabic-indic", "chain-superscript",
        "oracle-superscript"])
def test_digits_outside_ascii_are_refused_at_their_line(text, message):
    # '²'.isdigit() is true, and the one-pass tokenizer takes only ASCII
    # digits, so these are stray characters, not a bare ValueError of int()
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(text, "non_ascii_digit")
    assert type(exc.value) is ScenarioError and str(exc.value) == message


@pytest.mark.parametrize("data, line", [
    (MINIMAL.replace("x^2 - y^3", "x^² - y^3").encode("utf-8"), 8),
    (("# café\n" + MINIMAL).encode("utf-8"), 1),
    ((MINIMAL + "\n[chain]\n1 ; x ; 3/2 # ≥\n").encode("utf-8"), 11),
    (MINIMAL.encode("ascii").replace(b"generator = y", b"generator = \xff"), 4),
    (MINIMAL.encode("ascii").replace(b"\n", b"\r\n").replace(b"- y^3",
                                                             b"- y^\xb3"), 8),
], ids=["target-utf8", "comment-utf8", "chain-utf8", "latin1-byte", "crlf"])
def test_cli_non_ascii_byte_names_its_line(tmp_path, capsys, data, line):
    path = tmp_path / "non_ascii.scn"
    path.write_bytes(data)
    for cmd in ("chain", "verify"):
        rc = main([cmd, str(path)])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err == "error: line %d: non-ASCII character\n" % line


def test_integers_past_the_str_digit_limit_print_and_parse_back(tmp_path,
                                                               capsys):
    # str() of an int refuses more than 4300 digits; the target's
    # coefficient 2^20000 has 6021, and chain and newton print it
    text = MINIMAL.replace("x^2 - y^3", "x^2 - 2^20000*y")
    path = tmp_path / "big.scn"
    path.write_text(text, encoding="ascii")
    digits = str(Decimal(2 ** 20000))
    for cmd in ("chain", "newton", "defect", "verify"):
        rc = main([cmd, str(path)])
        out, err = capsys.readouterr()
        assert rc == 0 and err == "", cmd
        assert (digits in out) == (cmd in ("chain", "newton")), cmd
    # and the printed scenario, which spells the coefficient out, parses
    # back to the same target
    sc = parse_scenario(text, "big")
    back = parse_scenario(format_scenario(sc), "big")
    assert digits in format_scenario(sc)
    assert (back.target - sc.target).is_zero


def test_tower_power_parses_to_the_repeated_product():
    F = CoordinateTower(2, 1, 8)
    v = F.atom("v")
    big = parse_expression(F, "y", "v^100000").constant_term()
    assert F.valuate(big) == F.valuate(v).scale(100000)
    assert F.eq(parse_expression(F, "y", "v^13").constant_term(),
                functools.reduce(F.mul, [v] * 13))


def test_cli_precision_below_a_scripted_atom_says_why(capsys):
    rc = main(["chain", "quintic_tower", "--precision", "3"])
    assert rc == 2
    assert capsys.readouterr().err == \
        "error: line 21: v4 lies below tower depth 3\n"


def test_cli_precision_override_rejects_stale_terminal(capsys):
    # at 100 digits of y the scripted exact factor no longer divides
    rc = main(["defect", "cubic_char3", "--precision", "y:100"])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("error:")


@pytest.mark.parametrize("text, reason", [
    ("\u00b2", "bad precision '\u00b2'"),
    ("y:\u00b2", "bad precision 'y:\u00b2'"),
    ("\u0663", "bad precision '\u0663'"),
    (":5", "precision bound for unknown variable ''"),
    ("y:", "bad precision 'y:'"),
], ids=["\u00b2", "y:\u00b2", "\u0663", ":5", "y:"])
def test_cli_precision_takes_ascii_digits_only(capsys, text, reason):
    # str.isdigit accepts a superscript two, which int() then refuses
    rc = main(["chain", "cubic_char3", "--precision", text])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err == "error: --precision: %s\n" % reason


@pytest.mark.parametrize("text", [":5", "y:", "y:\u00b2", "q:5"])
def test_precision_override_is_refused_as_its_row(capsys, text):
    # one reader serves the lex `precision` row and `--precision`, so a text
    # both refuse is refused for the same reason, at its line or its option
    row = packaged_text("cubic_char3").replace("precision = y:40",
                                               "precision = " + text)
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(row, "precision_row")
    head, reason = str(exc.value).split(": ", 2)[1:]
    assert head == "precision"
    rc = main(["chain", "cubic_char3", "--precision", text])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err == "error: --precision: %s\n" % reason


def test_precision_row_takes_ascii_digits_only():
    text = LEX.replace("generators = z x",
                       "generators = z x\nprecision = z:\u00b2")
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(text, "superscript_precision")
    assert str(exc.value) == "line 5: precision: bad precision 'z:\u00b2'"


SCRIPTED_X_TO_5 = """
[field]
kind = rational_functions
char = %d
generator = y

[valuation]
rank = 1

[target]
var = x
poly = x^2 + y

[chain]
1 ; x ; 5

[params]
window = 1
branches = scripted
"""


@pytest.mark.parametrize("char", [0, 3])
def test_cli_zero_block_factor_is_refused(tmp_path, char):
    # v(x) = 5 overshoots v(y) = 1, so the target's effective degree is 0;
    # in characteristic 3 the power-of-p check used to divide 0 forever
    path = tmp_path / "zero_block.scn"
    path.write_text(SCRIPTED_X_TO_5 % char, encoding="ascii")
    rc, out, err = run_cli("defect", str(path), timeout=60)
    assert rc == 2 and err.startswith("error:")
    assert "branch 1" in err


@pytest.mark.parametrize("cmd", ["defect", "verify"])
@pytest.mark.parametrize("char, poly, delta, key", [
    (2, "(x^2 + x + y)^2", 2, "x + (y^32 + y^16 + y^8 + y^4 + y^2 + y + 1)"),
    (3, "(x^2 + x + y)^3", 3, "x + (y^9 + y^5 + y^4 + y^3 + 2*y^2 + 2*y + 1)"),
    (3, "(x^2 - y^2 - y^3)^3", 3,
     "x + (y^10 + y^6 + 2*y^5 + y^4 + y^3 + 2*y^2 + y)"),
    (0, "(x^2 - y^2 - y^3)^2", 2, "x + (21/1024*y^7 - 7/256*y^6 + 5/128*y^5 "
     "- 1/16*y^4 + 1/8*y^3 - 1/2*y^2 - y)"),
], ids=["F2-square", "F3-cube", "F3-cube-nodal", "Q-square-nodal"])
def test_cli_stable_block_above_one_is_refused(tmp_path, capsys, cmd, char,
                                               poly, delta, key):
    # a repeated factor whose local factors are not defined over k(y) keeps
    # the target's effective degree at its multiplicity forever; that is no
    # defect (k((y)) is separable over k(y)), and nothing proves the degree
    # will not drop later, so classify refuses instead of reporting delta
    text = (MINIMAL.replace("char = 0", "char = %d" % char)
            .replace("x^2 - y^3", poly)
            + "\n[params]\ndepth = 8\nwindow = 3\nbranches = all\n")
    path = tmp_path / "stable_block.scn"
    path.write_text(text, encoding="ascii")
    rc = main([cmd, str(path)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == ("error: branch 1: stage 8, key Q = %s: effective "
                            "degree %d has not dropped to 1; a deeper run or "
                            "a limit stage is needed\n" % (key, delta))


@pytest.mark.parametrize("cmd, last", [
    ("defect", "identity: 4 = 2*1*1 + 2*1*1"),
    ("verify", "ok: identity 4 = 2*1*1 + 2*1*1"),
])
def test_cli_shallow_run_answers_once_the_degree_is_one(capsys, cmd, last):
    # both quartic branches reach effective degree 1 at stage 3, and 1 is
    # final, so a depth-3 run gives the answer of the full depth-12 run
    rc = main([cmd, "quartic", "--depth", "3"])
    out = capsys.readouterr().out
    assert rc == 0 and out.splitlines()[-1] == last


@pytest.mark.parametrize("cmd", ["defect", "verify"])
def test_cli_shallow_run_above_one_is_refused(capsys, cmd):
    # at stage 2 the effective degree has dropped, but only to 2
    rc = main([cmd, "quartic", "--depth", "2"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == ("error: branch 1: stage 2, key Q = x^2 - y^3: "
                            "effective degree 2 has not dropped to 1; a "
                            "deeper run or a limit stage is needed\n")


def test_cli_verify_grows_each_branch_only_to_its_answer(capsys, monkeypatch):
    # branch 1 reaches effective degree 1 at stage 3 and branch 2 at stage 2;
    # grown to depth 12, as `chain` and `defect` grow it, there are 23 appends
    appends = []
    plain = Chain.append

    def counted(self, *args):
        appends.append(args)
        return plain(self, *args)

    monkeypatch.setattr(Chain, "append", counted)
    rc = main(["verify", "quartic"])
    out = capsys.readouterr().out
    assert rc == 0 and out.endswith("ok: identity 4 = 2*1*1 + 2*1*1\n")
    assert len(appends) == 4


# stage 5's key is valued 13/2 only from stage 5 on in quartic's branch 1,
# which has its answer at stage 3; branch 2 attains its 7/2 at stage 2
DEEP_ORACLE = packaged_text("quartic").replace(
    "x^2 - y^3 ; 7/2 ; 9/2\n", "x^2 - y^3 ; 7/2 ; 9/2\n"
    "x^2 + (-y^4 - y^3 + y^2)*x - y^3 ; 13/2 ; 7/2\n")


def test_cli_verify_grows_on_for_an_oracle_value_past_the_answer(
        tmp_path, capsys, monkeypatch):
    # verify grows branch 1 on from its answer to full depth, and only it:
    # 4 appends to the answers and 9 more for branch 1's stages 4 to 12,
    # where growing the scenario again from stage 1 made 23 more
    appends, depths = [], []
    plain, account = Chain.append, cli.account

    def counted(self, *args):
        appends.append(args)
        return plain(self, *args)

    def accounted(sc, pairs, complete):
        depths.append([ch.depth() for _, ch in pairs])
        return account(sc, pairs, complete)

    monkeypatch.setattr(Chain, "append", counted)
    monkeypatch.setattr(cli, "account", accounted)
    path = tmp_path / "deep_oracle.scn"
    path.write_text(DEEP_ORACLE, encoding="ascii")
    rc = main(["verify", str(path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert len(appends) <= 13 and depths == [[12, 2]]
    key = "x^2 + (-y^4 - y^3 + y^2)*x - y^3"
    assert out == "".join(
        "ok: branch %d attains its 3 oracle value(s)\n"
        "ok: branch %d truncations of x are monotone\n"
        "ok: branch %d truncations of x^2 - y^3 are monotone\n"
        "ok: branch %d truncations of %s are monotone\n" % (b, b, b, b, key)
        for b in (1, 2)) + (
        "ok: defects [1, 1] pass the characteristic check\n"
        "ok: identity 4 = 2*1*1 + 2*1*1\n")


def test_cli_verify_never_extends_a_script(tmp_path, capsys):
    # the script stops at stage 2, where the degree is still 2: its oracle
    # value past the script is no reason to grow it on, and the script is
    # refused as `defect` refuses it
    path = tmp_path / "scripted_deep_oracle.scn"
    path.write_text(DEEP_ORACLE.replace(
        "[params]", "[chain]\n1 ; x ; 3/2\n2 ; x^2 - y^3 ; 7/2\n\n[params]"),
        encoding="ascii")
    rc = main(["verify", str(path)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == ("error: branch 1: stage 2, key Q = x^2 - y^3: "
                            "effective degree 2 has not dropped to 1; a "
                            "deeper run or a limit stage is needed\n")


@pytest.mark.parametrize("branch", [[], ["--branch", "2"]])
def test_cli_oracle_row_past_the_grown_branches_is_refused(tmp_path, capsys,
                                                           branch):
    # quartic grows 2 branches, so a third value would never be checked
    path = tmp_path / "extra_value.scn"
    path.write_text(packaged_text("quartic").replace(
        "x^2 - y^3 ; 7/2 ; 9/2\n", "x^2 - y^3 ; 7/2 ; 9/2 ; 100\n"),
        encoding="ascii")
    rc = main(["verify", str(path)] + branch)
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == ("error: oracle row with 3 values names branch 3; "
                            "the scenario grew 2\n")


@pytest.mark.parametrize("branch", [[], ["--branch", "1"]])
def test_cli_oracle_row_short_of_the_grown_branches_is_refused(tmp_path,
                                                               capsys,
                                                               branch):
    # three branches and two values: the third branch has none, whichever
    # branch is picked
    path = tmp_path / "short_row.scn"
    path.write_text(MINIMAL.replace("x^2 - y^3", "(x - y)*(x - y^2)*(x - y^3)")
                    + "\n[oracle]\nx ; 3 ; 2\n\n[params]\ndepth = 4\n",
                    encoding="ascii")
    rc = main(["verify", str(path)] + branch)
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == ("error: oracle row with 2 values cannot cover "
                            "branch 3\n")


def test_cli_verify_of_a_degree_184_quartic_stops_at_its_answers(tmp_path):
    # grown to depth 12, the first branch's keys reach degree 184, which
    # took more than 20 s; its answer is at stage 2
    text = packaged_text("quartic").replace("(x^2 - y^3)^2", "(x^92 - y^3)^2")
    text = text[:text.index("[oracle]")] + text[text.index("[params]"):]
    path = tmp_path / "quartic_184.scn"
    path.write_text(text, encoding="ascii")
    rc, out, err = run_python("-m", "valforge.cli", "verify", str(path),
                              timeout=10)
    assert (rc, err) == (0, "")
    assert out.endswith("ok: identity 184 = 181*1*1 + 3*1*1\n")


@pytest.mark.parametrize("cmd, last", [
    ("defect", "identity: 2 = 2*1*1 (partial)"),
    ("verify", "ok: identity 2 = 2*1*1 (partial)"),
])
def test_cli_partial_identity_with_equal_sides_prints_equals(tmp_path, capsys,
                                                             cmd, last):
    # x^2 - y has one branch, so picking it leaves the sides equal; the line
    # stays partial and the exit status that of a partial run
    path = tmp_path / "one_branch.scn"
    path.write_text(MINIMAL.replace("x^2 - y^3", "x^2 - y")
                    + "\n[params]\ndepth = 3\n", encoding="ascii")
    rc = main([cmd, str(path), "--branch", "1"])
    out = capsys.readouterr().out
    assert rc == 0 and out.splitlines()[-1] == last


@pytest.mark.parametrize("rows, err", [
    # an empty chain has no entry to name: the refusal names its branch only
    ("2 ; x ; 3/2\n", "branch 1: a chain starts at index 1"),
    # a replayed chain names the stage and key the entry was appended to
    ("1 ; x ; 3/2\n2 ; x^2 - y^3 ; 7/2\n3 ; x^3 - y^3 ; 9/2\n",
     "branch 1: stage 2, key Q = x^2 - y^3: key degree must be a positive "
     "multiple of its predecessor"),
], ids=["first-index", "degree-multiple"])
def test_cli_scripted_chain_axioms_are_refused(tmp_path, capsys, rows, err):
    text = packaged_text("quartic").replace("branches = all",
                                            "branches = scripted")
    path = tmp_path / "axiom.scn"
    path.write_text(text + "\n[chain]\n" + rows, encoding="ascii")
    rc = main(["chain", str(path)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == "error: %s\n" % err


@pytest.mark.parametrize("cmd", ["chain", "defect", "newton", "verify"])
def test_cli_constant_target_is_refused(tmp_path, capsys, cmd):
    text = (SCRIPTED_X_TO_5.replace("x^2 + y", "1")
            .replace("[chain]\n1 ; x ; 5\n", "").replace("scripted", "all"))
    path = tmp_path / "constant.scn"
    path.write_text(text % 0, encoding="ascii")
    rc = main([cmd, str(path)])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("error:")
    assert "tracked polynomial 1 has degree 0" in err


def test_cli_refusal_names_stage_key_and_residual(tmp_path, capsys):
    # the stage-2 residual has a coefficient in Q[T]/(T^2 + 2), off the
    # scalar residue field
    text = (SCRIPTED_X_TO_5.replace("x^2 + y", "x^4 + 2*y^2*x^2 + 2*y^2")
            .replace("[chain]\n1 ; x ; 5\n", "").replace("scripted", "all"))
    path = tmp_path / "second_extension.scn"
    path.write_text(text % 0, encoding="ascii")
    rc = main(["defect", str(path)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith(
        "error: branch 1.1: stage 2, key Q = x^4 + 2*y^2: ")
    assert "leave the scalar residue field" in captured.err
    assert "(1, -1/4*T), constant term first, over k[T]/(T^2 + 2)" in captured.err


def test_cli_verify_failure_exits_one(tmp_path, capsys, monkeypatch):
    bad = format_scenario(load_scenario("quartic")).replace(
        "x ; 3/2", "x ; 5/2")
    path = tmp_path / "bad_oracle.scn"
    path.write_text(bad, encoding="ascii")
    rc = main(["verify", str(path)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "fail: branch 1 attains" in out


def test_cli_search_path_env(tmp_path):
    text = format_scenario(load_scenario("quartic"))
    (tmp_path / "env_quartic.scn").write_text(text, encoding="ascii")
    rc, out, err = run_cli("defect", "env_quartic",
                           env_extra={"VALFORGE_SCENARIO_PATH": str(tmp_path)})
    assert rc == 0 and "identity: 4 = 2*1*1 + 2*1*1" in out


# ---------------------------------------------------------------------------
# refusals that name their stage and key, and override paths

ARTIN_SCHREIER = """\
[field]
kind = coordinate_tower
p = 2
gamma = 1
depth = 12

[target]
var = y
poly = y^2 + y + 1/v

[params]
depth = 8
window = 3
branches = all
"""


def test_cli_arithmetic_refusal_names_branch_stage_and_key(tmp_path, capsys):
    # the tower runs out of levels inside the stage-6 key's arithmetic
    path = tmp_path / "artin_schreier.scn"
    path.write_text(ARTIN_SCHREIER, encoding="ascii")
    rc = main(["defect", str(path)])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err.startswith("error: branch 1.1.1.1.1.1: stage 6, key Q = y + ")
    assert err.endswith(": tower depth 12 exhausted\n")
    assert err.count("stage ") == 1


def test_cli_tower_truncation_artifact_is_refused(tmp_path, capsys):
    # unscripted, branch 2 is a degree-1 ladder whose stage-9 value has
    # denominator 2^28: the depth-26 tower sees only 2^-26 Z of Z[1/2], so
    # that step is the truncation's, not ramification (it used to count
    # e_step 4 and exit 0 with `5 = 1*1*1 + 4*1*1`)
    path = tmp_path / "quintic_unscripted.scn"
    path.write_text(QUINTIC.split("[chain]")[0] + "[params]\nbranches = all\n",
                    encoding="ascii")
    rc = main(["defect", str(path), "--depth", "10", "--window", "1"])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err.startswith("error: branch 2.1.1.1.1.1.1.1.1: stage 8, key "
                          "Q = y + ")
    assert err.count("incoming key y + ") == 1
    assert err.endswith(" at stage 9: value 89478485/268435456 needs tower "
                        "depth 28, beyond depth 26\n")


STALE_TERMINAL = ("branch 1: stage 2, key Q = w^2 + 2*z^6: terminal key does "
                  "not divide the tracked polynomial within the working "
                  "precision")


@pytest.mark.parametrize("args, message", [
    (["chain", "quartic", "--precision", "5"], "--precision: rational "
     "function fields are exact; no precision to override"),
    (["chain", "cubic_char3", "--precision", "q:5"],
     "--precision: precision bound for unknown variable 'q'"),
    (["chain", "quintic_tower", "--precision", "y:3"],
     "--precision: tower precision is its depth; use a bare number"),
    (["chain", "cubic_char3", "--precision", "100"], STALE_TERMINAL),
    (["chain", "cubic_char3", "--precision", "y:100"], STALE_TERMINAL),
    (["chain", "quartic", "--depth", "-1"],
     "--depth: must be at least 0, got -1"),
    # each override is checked as its file row is, by every subcommand
    (["chain", "quartic", "--window", "0"],
     "--window: must be at least 1, got 0"),
    (["defect", "quartic", "--window", "0"],
     "--window: must be at least 1, got 0"),
    (["newton", "quartic", "--window", "0"],
     "--window: must be at least 1, got 0"),
], ids=["exact-field", "unknown-var", "tower-var", "bare-stale",
        "var-stale", "negative-depth", "chain-window", "defect-window",
        "newton-window"])
def test_cli_override_refusals(capsys, args, message):
    rc = main(args)
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err == "error: %s\n" % message


def test_cli_bare_precision_needs_a_declared_cutoff(tmp_path, capsys):
    path = tmp_path / "no_cutoff.scn"
    path.write_text(LEX, encoding="ascii")
    rc = main(["chain", str(path), "--precision", "5"])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err == ("error: --precision: bare precision override needs a "
                   "declared cutoff to replace\n")


def test_cli_bare_precision_replaces_the_declared_cutoff(capsys):
    golden = (PERFBENCH / "golden" / "cubic_char3.chain.out").read_text(
        encoding="ascii")
    rc = main(["chain", "cubic_char3", "--precision", "40"])
    assert rc == 0 and capsys.readouterr().out == golden


def test_overrides_are_the_scenario_settings():
    sc = load_scenario("cubic_char3", depth=3, window=2, precision="y:50")
    assert (sc.depth, sc.window, sc.field.precision) == (3, 2, {"y": 50})
    assert load_scenario("quintic_tower", precision="30").field.max_depth == 30


def test_cli_newton_tsv(capsys):
    rc = main(["newton", "quartic", "--depth", "2", "--format", "tsv"])
    assert rc == 0
    rows = [("point", "0", "8"), ("point", "1", "7/2"), ("point", "2", "0"),
            ("vertex", "0", "8"), ("vertex", "1", "7/2"), ("vertex", "2", "0"),
            ("side", "0", "1", "9/2"), ("side", "1", "2", "7/2")]
    assert capsys.readouterr().out == "".join("\t".join(r) + "\n"
                                              for r in rows)


@pytest.mark.parametrize("text, message", [
    ("[field\n", "line 1: unterminated section header"),
    (MINIMAL.replace("[target]", "[params]"), "missing [target] section"),
    (MINIMAL + "\n[params]\nlump_sides = yes\n",
     "line 11: lump_sides: must be true or false"),
    (MINIMAL + "\n[params]\nbranches = some\n",
     "line 11: branches: must be all or scripted"),
    (MINIMAL.replace("rational_functions", "rational"),
     "line 2: kind: unknown field kind 'rational'"),
    (MINIMAL + "\n[params]\ndepth = 4\nbranches = scripted\n",
     "line 12: branches: scripted needs a [chain] section"),
    (MINIMAL.replace("var = x", "var = y"),
     "line 7: var: chain variable 'y' already names an element of the field"),
    (MINIMAL + "\n[field]\n", "line 10: duplicate section 'field'"),
    (MINIMAL.replace("char = 0", "char 0"),
     "line 3: expected key = value in [field]"),
    (MINIMAL + "\n[params]\nspeed = 2\n",
     "line 11: unknown key 'speed' in [params]"),
    (MINIMAL + "\n[chain]\n1 ; x\n",
     "line 11: chain entries are index ; expr ; value"),
    (MINIMAL + "\n[oracle]\nx\n",
     "line 11: oracle rows are expr ; value [; value ...]"),
], ids=["unterminated", "no-target", "lump-sides", "branches", "unknown-kind",
        "scripted-without-chain", "chain-variable-clash", "dup-section",
        "no-equals", "unknown-key", "chain-row", "oracle-row"])
def test_scenario_structure_refusals(text, message):
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(text, "broken")
    assert str(exc.value) == message


def test_cli_value_order_above_the_cap_is_refused(tmp_path, capsys):
    # canonical monomials try every multiple below a level's spacing
    path = tmp_path / "order_cap.scn"
    path.write_text((SCRIPTED_X_TO_5 % 0).replace("1 ; x ; 5",
                                                  "1 ; x ; 1/10000001"),
                    encoding="ascii")
    rc = main(["chain", str(path)])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err == "error: order of 1/10000001 exceeds cap 1000000\n"


def test_cli_value_order_above_the_cap_names_stage_and_key(tmp_path, capsys):
    # past the first entry the cap refusal is located like every other one
    path = tmp_path / "order_cap_stage.scn"
    text = (SCRIPTED_X_TO_5 % 0).replace("x^2 + y\n", "(x^2 + y)^2 + y^5\n")
    path.write_text(text.replace(
        "1 ; x ; 5", "1 ; x ; 1/2\n2 ; x^2 + y ; 10000002/10000001"),
        encoding="ascii")
    rc = main(["chain", str(path)])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err == ("error: branch 1: stage 1, key Q = x: order of "
                   "10000002/10000001 exceeds cap 1000000\n")
