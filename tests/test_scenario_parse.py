"""The scenario expression parser against the one it replaced.

`scenario._ExprParser` reads tokens one at a time, evaluates on coefficient
tuples of the field's dense core, remembers the value of each source text
for the rest of one scenario, and takes the value of a remembered text at
the start of a sum or a product instead of reading it again.  The tokenizer
and parser it replaced, which built a `Poly` per atom and per operation and
remembered nothing, are copied below as the reference.  Every expression of
the packaged scenarios and of the pinned benchmark corpus
(`perfbench/corpus.py`, read only), drawn expressions and drawn ladders of
rows that each extend the row before, over Q(y), F_p(y), the lex series and
the tower, must give equal coefficient tuples, or the same refusal type and
message.
"""

import functools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inputs import (CORPUS, CORPUS_SIZE, PACKAGED, corpus_targets,
                    packaged_text)
from valforge import scenario
from valforge.fields import (CoordinateTower, LexMonomialSeries, PrimeField,
                             QQ, RationalFunctions)
from valforge.polyring import Poly
from valforge.scenario import (Scenario, ScenarioError, _ExprParser,
                               format_scenario, load_scenario,
                               parse_expression, parse_scenario)
from valforge.values import INF, OrdinalIndex, Value

SETTINGS = settings(derandomize=True, max_examples=150, deadline=None)


# ---------------------------------------------------------------------------
# the reference: the per-token parser on `Poly` objects that was replaced


_REF_TOKENS = re.compile(r"\d+|[A-Za-z_][A-Za-z0-9_]*|\^|[()+\-*/]|\S")


def _ref_tokenize(text):
    out = []
    for m in _REF_TOKENS.finditer(text):
        tok = m.group(0)
        if tok not in "()+-*/^" and not tok.isdigit() \
                and not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok):
            raise ScenarioError("stray character %r" % tok)
        out.append(tok)
    return out


class _RefParser:
    def __init__(self, field, var, text):
        self.field = field
        self.var = var
        self.toks = _ref_tokenize(text)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse(self):
        out = self.expr()
        if self.peek() is not None:
            raise ScenarioError("unexpected %r" % self.peek())
        return out

    def expr(self):
        out = self.term()
        while self.peek() in ("+", "-"):
            if self.take() == "+":
                out = out + self.term()
            else:
                out = out - self.term()
        return out

    def term(self):
        out = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.factor()
            if op == "*":
                out = out * rhs
            else:
                if rhs.degree != 0 or rhs.is_zero:
                    raise ScenarioError("division only by nonzero constants")
                F = self.field
                out = out.scale(F.div(F.one, rhs.constant_term()))
        return out

    def factor(self):
        if self.peek() == "-":
            self.take()
            return -self.factor()
        out = self.atom()
        while self.peek() == "^":
            self.take()
            tok = self.take()
            if tok is None or not tok.isdigit():
                raise ScenarioError("exponent must be a literal integer")
            out = out.pow(int(tok))
        return out

    def atom(self):
        tok = self.take()
        if tok is None:
            raise ScenarioError("expression ended early")
        if tok == "(":
            out = self.expr()
            if self.take() != ")":
                raise ScenarioError("missing closing parenthesis")
            return out
        if tok.isdigit():
            return Poly.const(self.field, self.var, self.field.from_int(int(tok)))
        if tok == self.var:
            return Poly.variable(self.field, self.var)
        if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok):
            try:
                elem = self.field.atom(tok)
            except KeyError as exc:
                raise ScenarioError(exc.args[0])
            return Poly.const(self.field, self.var, elem)
        raise ScenarioError("unexpected %r" % tok)


def _outcome(parse, text):
    """('ok', coefficient tuple) or ('refused', type, message)."""
    try:
        return ("ok", parse(text).coeffs)
    except Exception as exc:
        return ("refused", type(exc), str(exc))


def _reference(field, var, text):
    return _outcome(lambda t: _RefParser(field, var, t).parse(), text)


def _check_rows(field, texts):
    """One parser, and so one memo, reads the texts in order and then back,
    as it reads the rows of one scenario; each must parse as the reference
    parses it alone.  A refused row leaves the memo as it was."""
    parse = _ExprParser(field, "x").parse
    for text in texts + texts[::-1]:
        assert _outcome(parse, text) == _reference(field, "x", text), text


# ---------------------------------------------------------------------------
# scenario texts


def _expression_rows(text):
    """The expression texts of a scenario in the order parse_scenario reads
    them: the target, the [chain] rows, the [oracle] rows."""
    rows = {"target": [], "chain": [], "oracle": []}
    section = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("["):
            section = line[1:-1].strip()
        elif section == "target" and line.split("=")[0].strip() == "poly":
            rows["target"].append(line.split("=", 1)[1].strip())
        elif section == "chain" and line:
            rows["chain"].append(line.split(";")[1].strip())
        elif section == "oracle" and line:
            rows["oracle"].append(line.split(";")[0].strip())
    return rows["target"] + rows["chain"] + rows["oracle"]


def _scenario_polys(sc):
    return ([sc.target] + [q for _, q, _ in sc.script]
            + [q for q, _ in sc.oracle])


def _check_scenario_text(text):
    sc = parse_scenario(text, "checked")
    exprs = _expression_rows(text)
    polys = _scenario_polys(sc)
    assert len(exprs) == len(polys)
    for expr, poly in zip(exprs, polys):
        assert ("ok", poly.coeffs) == _reference(sc.field, sc.var, expr), expr
        assert poly.field is sc.field and poly.var == sc.var
    return sc


@pytest.mark.parametrize("name", PACKAGED)
def test_packaged_scenarios_parse_as_the_reference_does(name):
    _check_scenario_text(packaged_text(name))


def test_corpus_scenarios_parse_as_the_reference_does():
    texts = [CORPUS.scenario_text(t) for t in corpus_targets()]
    assert len(texts) == CORPUS_SIZE
    for text in texts:
        _check_scenario_text(text)


# ---------------------------------------------------------------------------
# drawn expressions over every field kind


FIELDS = {
    "Q(y)": (lambda: RationalFunctions(QQ, "y"), ["y"]),
    "F_2(y)": (lambda: RationalFunctions(PrimeField(2), "y"), ["y"]),
    "F_3(y)": (lambda: RationalFunctions(PrimeField(3), "y"), ["y"]),
    "lex series": (lambda: LexMonomialSeries(PrimeField(3), ("z", "t")),
                   ["z", "t"]),
    "tower": (lambda: CoordinateTower(2, 1, 6),
              ["u", "v", "v2", "v3", "u2", "v7", "w"]),
}


def _expressions(atoms, max_leaves=8):
    leaf = st.sampled_from(["x"] + atoms) | st.integers(0, 7).map(str)
    power = st.tuples(leaf, st.integers(0, 3)).map(lambda t: "%s^%d" % t)

    def grow(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from([" + ", " - ", "*", " * "]),
                      inner).map("".join),
            st.tuples(inner, leaf).map(lambda t: "%s/%s" % t),
            inner.map(lambda s: "(%s)" % s),
            inner.map(lambda s: "-" + s))

    return st.recursive(leaf | power, grow, max_leaves=max_leaves)


def _drawn(kind):
    make, atoms = FIELDS[kind]
    return st.lists(_expressions(atoms), min_size=1, max_size=6)


@pytest.mark.parametrize("kind", list(FIELDS))
def test_drawn_expressions_parse_as_the_reference_does(kind):
    make, atoms = FIELDS[kind]

    @SETTINGS
    @given(texts=_drawn(kind))
    def check(texts):
        _check_rows(make(), texts)

    check()


@st.composite
def _ladders(draw, atoms):
    """Rows that each extend the one before, as the rows of a key ladder
    do.  The growing part gains ` + t`, ` - t`, `*f` or `/c`, or the term
    added last times one more factor (the ladders of `quintic_tower`), or
    the growth moves into a new parenthesized group after a head, as in
    `y^2 + v*(v3 + v3*v5)`, the second and third ladders of
    `quintic_tower`."""
    expr = _expressions(atoms, max_leaves=3)
    leaf = st.sampled_from(["x"] + atoms) | st.integers(0, 7).map(str)
    outer, inner = "@", draw(expr)
    last = inner
    rows = [inner]
    for _ in range(draw(st.integers(1, 8))):
        step = draw(st.sampled_from([" + ", " - ", "*", "/", "ladder",
                                     "nest"]))
        if step in (" + ", " - "):
            last = draw(expr)
            inner += step + last
        elif step in ("*", "/"):
            inner += step + draw(leaf)
        elif step == "ladder":
            last = "%s*%s" % (last, draw(leaf))
            inner += " + " + last
        else:
            outer = outer.replace("@", "%s*(@)" % draw(expr))
            inner = last = draw(expr)
        rows.append(outer.replace("@", inner))
    return rows


@pytest.mark.parametrize("kind", list(FIELDS))
def test_drawn_ladders_parse_as_the_reference_does(kind):
    # each row meets the texts of the rows before it, and on the way back
    # of the longer rows after it, in the memo; a refused row is extended
    # by the rows after it
    make, atoms = FIELDS[kind]

    @SETTINGS
    @given(rows=_ladders(atoms))
    def check(rows):
        _check_rows(make(), rows)

    check()


TRAPS = {
    # `x + y` is remembered as a sum, never taken for the left factor of
    # `y*x`; `(x)` alone is not remembered, so no sum is taken before it
    "sum-before-product": ["x + y", "x + y*x", "x + y*x - 1", "x + y/2",
                           "(x) + y", "(x) + y*x", "(x) + y/2 - 1"],
    "unary-minus-after-times": ["x*y", "x*-y", "x*-y*x + 1",
                                "x*-y*x + 1 - x*-y", "-x*y - x*-y"],
    "remembered-span-before-power": ["x + y", "x + y^2", "x*y", "x*y^2",
                                     "x*y^2*x", "(x + y)^2", "-x^2*y",
                                     "-x^2*y^2"],
    "refused-row-then-extension": ["x + y + ", "x + y + 1", "x/(y - y)",
                                   "x/(y - y) + 1", "x + q", "x + q + 1",
                                   "(x + y", "(x + y)*2", "x*y/x",
                                   "x*y/x*2", "x*y/2"],
    "nested-ladder": ["y^2 + x*(y + y*x)", "y^2 + x*(y + y*x + y*x*y)",
                      "y^2 + x*(y + y*x) + 1", "y^2 + x*(y + y*x)*x",
                      "(y + y*x) - x", "x*(y + y*x)^2"],
}


@pytest.mark.parametrize("rows", list(TRAPS.values()), ids=list(TRAPS))
def test_remembered_texts_are_taken_only_where_they_parse_alike(rows):
    _check_rows(RationalFunctions(QQ, "y"), rows)


def test_a_remembered_sum_is_not_a_left_factor():
    F = RationalFunctions(QQ, "y")
    parse = _ExprParser(F, "x").parse
    x, y = Poly.variable(F, "x"), Poly.const(F, "x", F.atom("y"))
    for first in ("x", "(x)"):
        parse(first + " + y")
        assert (parse(first + " + y*x") - (x + y * x)).is_zero


MALFORMED = ("", " ", "x + * 2", "x/(x + 1)", "x/x", "x/0", "x/(y - y)",
             "x^(2)", "x^y", "x^", "^2", "x^-1", "x**2", "q + 1", "x + ",
             "(x", "((x)", "x)", "()", "x $ 2", "2x", "x 2", "x y", "-",
             "x +- ", "3/(2*y - y - y)", "x^2^", "(x + y", "x + (y*(x - 1)")


@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_expressions_are_refused_as_the_reference_refuses(text):
    F = RationalFunctions(QQ, "y")
    got = _outcome(lambda t: parse_expression(F, "x", t), text)
    assert got[0] == "refused"
    assert got == _reference(F, "x", text)


@pytest.mark.parametrize("text, char", [
    ("x^²", "²"), ("x + ²", "²"),
    ("x^٣", "٣"), ("x + ١٢", "١"),
    ("x−y", "−"),
], ids=["superscript-exponent", "superscript-term", "arabic-indic-exponent",
        "arabic-indic-term", "minus-sign"])
def test_digits_and_signs_outside_ascii_are_stray_characters(text, char):
    # '²'.isdigit() is true, so the old tokenizer let it through to int()
    F = RationalFunctions(QQ, "y")
    with pytest.raises(ScenarioError) as exc:
        parse_expression(F, "x", text)
    assert type(exc.value) is ScenarioError
    assert str(exc.value) == "stray character %r" % char


# ---------------------------------------------------------------------------
# cost and isolation


def test_quintic_tower_computes_each_repeated_product_once(monkeypatch):
    # the ladder rows repeat the products of the row before: 686 tower
    # products when each row is evaluated afresh, 100 distinct ones
    calls = []
    mul = CoordinateTower.mul

    def counted(self, x, y):
        calls.append(1)
        return mul(self, x, y)

    monkeypatch.setattr(CoordinateTower, "mul", counted)
    sc = load_scenario("quintic_tower")
    assert 0 < len(calls) <= 100
    assert len(sc.script) == 38


class _CountedTokens:
    """The tokenizer's regex, counting each token read through it, by
    `match` (one token) or `finditer` (every token of a row)."""

    def __init__(self, pattern):
        self.pattern = pattern
        self.tokens = 0

    def match(self, *args):
        self.tokens += 1
        return self.pattern.match(*args)

    def finditer(self, *args):
        for m in self.pattern.finditer(*args):
            self.tokens += 1
            yield m


def test_quintic_tower_reads_each_ladder_row_once(monkeypatch):
    # each [chain] row holds the row before it and one more term: the
    # scenario's expressions are 1861 tokens (1838 in the rows), and a
    # parser that takes the remembered part of each row reads 366 of them
    counted = _CountedTokens(scenario._TOKEN)
    monkeypatch.setattr(scenario, "_TOKEN", counted)
    sc = load_scenario("quintic_tower")
    assert 0 < counted.tokens <= 400
    assert len(sc.script) == 38


SHARED = """\
[field]
kind = rational_functions
char = %d
generator = y

[target]
var = x
poly = x^2 + 3*x*y + 7*y^2

[chain]
1 ; x ; 1
2 ; x + 3*x*y + 5 ; 2

[oracle]
3*x*y ; 1
"""


@pytest.mark.parametrize("chars", [(0, 2), (2, 0), (3, 5), (5, 0, 3)])
def test_no_value_is_shared_between_scenarios(chars):
    # the same texts over different fields, one scenario after the other: a
    # memo that outlived its scenario would hand one field's elements to
    # the next
    for p in chars:
        sc = _check_scenario_text(SHARED % p)
        assert sc.field.char == p


# ---------------------------------------------------------------------------
# printing and parsing again


def _round_trip_fields():
    rational = st.sampled_from([0, 2, 3, 5]).map(
        lambda p: RationalFunctions(QQ if p == 0 else PrimeField(p), "y"))
    lex = st.tuples(st.sampled_from([2, 3]),
                    st.sampled_from([None, {"z": 6}, {"z": 5, "t": 9}])).map(
        lambda t: LexMonomialSeries(PrimeField(t[0]), ("z", "t"), t[1]))
    tower = st.tuples(st.sampled_from([2, 3]), st.integers(2, 6)).map(
        lambda t: CoordinateTower(t[0], 1, t[1]))
    return st.one_of(rational, lex, tower)


def _atoms(F):
    if isinstance(F, RationalFunctions):
        return ["y"]
    if isinstance(F, LexMonomialSeries):
        return ["z", "t"]
    return ["u", "v", "v2"]


@st.composite
def scenarios(draw):
    F = draw(_round_trip_fields())
    atoms = _atoms(F)
    var = "x"
    coeff = st.tuples(st.integers(1, 4), st.sampled_from(atoms),
                      st.integers(0, 2)).map(lambda t: "%d*%s^%d" % t)
    # monic: the lead x^n lies above every drawn lower term
    poly = st.tuples(st.integers(1, 2),
                     st.lists(coeff, min_size=0, max_size=3)).map(
        lambda t: " + ".join(["x^%d" % (t[0] + len(t[1]))]
                             + ["(%s)*x^%d" % (c, i)
                                for i, c in enumerate(t[1])]))
    rank = F.rank
    fraction = st.fractions(min_value=0, max_value=20, max_denominator=8)
    value = st.lists(fraction, min_size=rank, max_size=rank).map(Value)

    indices = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 4)),
                            max_size=4, unique=True).map(sorted))
    indices = [OrdinalIndex(m, n) for m, n in indices if (m, n) != (0, 0)]
    betas = sorted(set(draw(st.lists(value, min_size=len(indices),
                                     max_size=len(indices)))),
                   key=lambda v: v.coords)
    parse = functools.partial(parse_expression, F, var)
    script = [(i, parse(draw(poly)), b) for i, b in zip(indices, betas)]
    if script and draw(st.booleans()):
        script[-1] = script[-1][:2] + (INF,)
    oracle = [(parse(draw(poly)), draw(st.lists(value, min_size=1,
                                                 max_size=3)))
              for _ in range(draw(st.integers(0, 2)))]
    mode = draw(st.sampled_from(["all", "scripted"])) if script else "all"
    return Scenario("drawn", F, rank, var, parse(draw(poly)), script, oracle,
                    draw(st.integers(0, 12)), draw(st.integers(1, 6)),
                    draw(st.booleans()), mode)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(sc=scenarios())
def test_format_and_parse_round_trip_over_every_field_kind(sc):
    text = format_scenario(sc)
    back = _check_scenario_text(text)
    assert type(back.field) is type(sc.field)
    assert back.field.char == sc.field.char and back.rank == sc.rank
    assert back.var == sc.var
    assert (back.depth, back.window, back.lump_sides, back.branches_mode) == \
        (sc.depth, sc.window, sc.lump_sides, sc.branches_mode)
    assert (back.target - sc.target).is_zero
    assert len(back.script) == len(sc.script)
    for (i1, q1, b1), (i2, q2, b2) in zip(sc.script, back.script):
        assert i1 == i2 and b1 == b2 and (q1 - q2).is_zero
    assert len(back.oracle) == len(sc.oracle)
    for (q1, v1), (q2, v2) in zip(sc.oracle, back.oracle):
        assert v1 == v2 and (q1 - q2).is_zero
    assert format_scenario(back) == text
