"""Scenario files: a line-oriented description of one chain computation.

Sections in square brackets, keys as `name = value`, comments with `#`.

[field]      kind = rational_functions | lex_series | coordinate_tower
             rational_functions: char (0 or a prime), generator
             lex_series: p, generators (space separated), precision (var:N ...)
             coordinate_tower: p, gamma, depth
[valuation]  rank = 1 | 2 (must match the field kind)
[target]     var, poly (infix expression, ^ for powers)
[chain]      optional script, one entry per line: index ; expr ; value
             index tokens as printed by chain listings: 3, w, w+1, w2+5
[oracle]     optional samples: expr ; value [; value per branch]
[params]     depth (N >= 0, default 8), window (N >= 1, default 4),
             lump_sides = true | false, branches = all | scripted

Rationals are written a/b, rank 2 values as (a1, a2), infinity as inf.
A scenario file is ASCII; a byte outside it is refused at its line.

`parse_scenario` and `load_scenario` take the command line's `depth`,
`window` and `precision` overrides.  Each is read by the reader of the row
it overrides (`precision` by the lex `precision` row's, which takes a bare N
from the command line only), and the scenario holds the values that apply.
Every input refusal names its place in one format, written by `_located`:
`line N: key: reason` for a file row (`line N: reason` for a row read
whole, as a [chain] entry), `--option: reason` for an override.

Expressions are read one token at a time and evaluated on coefficient
tuples of the field's dense core (`field.polys`), with one `Poly` made per
row.  One parser serves a whole scenario, and its memo holds the value of
each atom and each operation under its source text.  Each row of a key
ladder repeats the row before it and adds a term: the parser takes the
repeated text's value from the memo at the start of a sum or a product, so
it reads only the new tokens of each row and computes every product once.
"""

import math
import os
import re
from contextlib import contextmanager

from .fields import (CoordinateTower, LexMonomialSeries, PrimeField, QQ,
                     RationalFunctions, Refusal)
from .polyring import Poly
from .values import (INF, OrdinalIndex, format_value, parse_integer,
                     parse_value)

__all__ = ["Scenario", "ScenarioError", "parse_scenario", "format_scenario",
           "parse_expression", "parse_index", "load_scenario",
           "scenario_search_paths"]

ENV_PATH = "VALFORGE_SCENARIO_PATH"


class ScenarioError(Refusal):
    """A scenario, or a command-line setting, that cannot be read."""


# ---------------------------------------------------------------------------
# expressions

# the highest degree a power or product may have in the chain variable, or
# in the generator of k(y): `x^1000000000` would otherwise ask for a dense
# list of 10^9 coefficients before anything refuses it
DEGREE_CAP = 1 << 16

# the most dense terms that the powers and products of one row may make in
# all, each counted as (1 + degree in x), times (1 + degree in y) over k(y):
# a sum of products each under the cap would otherwise take minutes
WORK_BUDGET = 4 * DEGREE_CAP

# a token after optional whitespace; a stray character is refused up front
_TOKEN = re.compile(r"\s*(?:(?P<num>[0-9]+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
                    r"|(?P<op>[()+\-*/^]))")
_STRAY = re.compile(r"[^\s0-9A-Za-z_()+\-*/^]")
_SUM_OPS = re.compile(r"[-+]")
_PRODUCT_OPS = re.compile(r"[*/]")
_TERM_END = re.compile(r"[-+)]")


class _ExprParser:
    """Infix expressions over the scenario field: the chain variable, the
    field's named atoms, integers, + - * / ^ and parentheses.  Division
    only by constants; exponents are literal nonnegative integers.

    Values are coefficient tuples on the field's dense core, and `parse`
    wraps one `Poly` around each expression.  The memo maps source text to
    its coefficient tuple: every atom and number by its token, and the
    result of every operator by the text it spans (`v2*v4*v6`, `v^2`,
    `y + v2`).  The same text always has the same value over one field and
    chain variable.  A parser, and so its memo, serves one scenario.

    An expression that repeats an earlier one and adds to it, as the rows
    of a key ladder do, is read only where it is new.  At the start of a
    sum the parser takes the longest remembered text that runs from there
    to just before a + or -, and reads on after it.  At the start of a
    product it takes the longest that runs to just before a * or / and
    stops short of the first +, - or ) after the product's first token: a
    product or a factor, never a remembered sum such as `a + b` in
    `a + b*c`.  Every remembered text is a whole expression with balanced
    parentheses, so one that ends before an operator of the current sum or
    product is its left operand there, with the same value.  Tokens are
    read one at a time from the current offset, so a text taken from the
    memo is never tokenized; a stray character is refused by one search of
    the row before any token is read.  Each power or product made for a row
    counts its dense terms towards the row's `WORK_BUDGET`; one taken from
    the memo was counted when it was made."""

    def __init__(self, field, var):
        self.field = field
        self.polys = field.polys
        self.var = var
        self.memo = {}

    def parse(self, text):
        bad = _STRAY.search(text)
        if bad is not None:
            raise ScenarioError("stray character %r" % bad.group())
        self.text = text
        self.work = 0
        self.read(0)
        try:
            out = self.expr(len(text))
        except RecursionError:
            raise ScenarioError("expression nested too deeply") from None
        if self.peek() is not None:
            raise ScenarioError("unexpected %r" % self.peek())
        return Poly(self.field, self.var, out)

    def read(self, offset):
        """Make the token after `offset` the next one: (kind, text, start,
        end), kind num, name, op or end (text None); `last` is `offset`,
        where the text taken so far ends."""
        self.last = offset
        m = _TOKEN.match(self.text, offset)
        if m is None:
            n = len(self.text)
            self.tok = ("end", None, n, n)
        else:
            kind = m.lastgroup
            end = m.end()
            tok = m.group(kind)
            self.tok = (kind, tok, end - len(tok), end)

    def peek(self):
        return self.tok[1]

    def take(self):
        tok = self.tok
        self.read(tok[3])
        return tok

    def remember(self, start, op, *args):
        """op(*args), made once per source text: the text runs from offset
        `start` to the end of the last token taken."""
        key = self.text[start:self.last]
        out = self.memo.get(key)
        if out is None:
            out = self.memo[key] = op(*args)
        return out

    def recall(self, start, ops, bound):
        """The value of the longest remembered text that runs from offset
        `start` to just before an operator that the regex `ops` finds
        below `bound`, with the parser moved past it; None if there is
        none.  Each partial sum and product is remembered as it is made,
        so the remembered texts among these are the shorter ones (but for
        a first operand in parentheses, which is not remembered alone).
        The search tries the longest first, since a ladder row extends the
        row before it, then bisects: it hashes at most 1 + log2(n) texts
        for n operators."""
        text = self.text
        ops = [m.start() for m in ops.finditer(text, start + 1, bound)]
        lo, hi = 0, len(ops)
        found = None
        mid = hi - 1
        while lo < hi:
            key = text[start:ops[mid]].rstrip()
            if key in self.memo:
                found, lo = key, mid + 1
            else:
                hi = mid
            mid = (lo + hi) // 2
        if found is None:
            return None
        self.read(start + len(found))
        return self.memo[found]

    def expr(self, bound):
        """A sum, whose remembered left operands are looked up before
        offset `bound`: the first ) after the opening parenthesis, or the
        end of the row."""
        start = self.tok[2]
        out = self.recall(start, _SUM_OPS, bound)
        if out is None:
            out = self.term()
        while self.peek() in ("+", "-"):
            op = self.polys.add if self.take()[1] == "+" else self.polys.sub
            rhs = self.term()
            out = self.remember(start, op, out, rhs)
        return out

    def term(self):
        start = self.tok[2]
        end = _TERM_END.search(self.text, start + 1)
        out = self.recall(start, _PRODUCT_OPS,
                          len(self.text) if end is None else end.start())
        if out is None:
            out = self.factor()
        while self.peek() in ("*", "/"):
            op = self.multiply if self.take()[1] == "*" else self.divide
            rhs = self.factor()
            out = self.remember(start, op, out, rhs)
        return out

    def divide(self, out, rhs):
        if len(rhs) != 1:
            raise ScenarioError("division only by nonzero constants")
        F = self.field
        return self.polys.scale(out, F.div(F.one, rhs[0]))

    def factor(self):
        start = self.tok[2]
        if self.peek() == "-":
            self.take()
            out = self.factor()
            return self.remember(start, self.polys.neg, out)
        out = self.atom()
        while self.peek() == "^":
            self.take()
            kind, text = self.take()[:2]
            if kind != "num":
                raise ScenarioError("exponent must be a literal integer")
            out = self.remember(start, self.power, out, int(text))
        return out

    def degrees(self, value):
        """[(degree, variable)] of a value: its degree in the chain
        variable, and over k(y) its degree in y, the highest of any
        coefficient's numerator or denominator."""
        F = self.field
        out = [(len(value) - 1, self.var)]
        if isinstance(F, RationalFunctions):
            out.append((max((len(part) - 1 for c in value for part in c),
                            default=0), F.var))
        return out

    def capped(self, what, degrees):
        """Refuse a power or product, `what`, before it is built when one of
        its `degrees` or, over k(y), their product would pass DEGREE_CAP,
        or when its dense terms would take the row past WORK_BUDGET.  The
        product bounds the work: each coefficient over k(y) is a
        polynomial in y, and multiplying costs one field product per pair
        of them."""
        for degree, var in degrees:
            if degree > DEGREE_CAP:
                raise ScenarioError("a %s of degree %d in %s passes the "
                                    "degree cap %d" % (what, degree, var,
                                                       DEGREE_CAP))
        if len(degrees) == 2:
            (dx, x), (dy, y) = degrees
            if dx * dy > DEGREE_CAP:
                raise ScenarioError("a %s of degree %d in %s and %d in %s "
                                    "passes the degree cap %d in their "
                                    "product" % (what, dx, x, dy, y,
                                                 DEGREE_CAP))
        self.work += math.prod(degree + 1 for degree, _ in degrees)
        if self.work > WORK_BUDGET:
            raise ScenarioError("the powers and products of the row pass its "
                                "work budget of %d dense terms" % WORK_BUDGET)

    def power(self, base, n):
        self.capped("power", [(d * n, var) for d, var in self.degrees(base)])
        return self.polys.pow(base, n)

    def multiply(self, a, b):
        self.capped("product", [(da + db, var) for (da, var), (db, _)
                                in zip(self.degrees(a), self.degrees(b))])
        return self.polys.mul(a, b)

    def atom(self):
        kind, text = self.take()[:2]
        if kind == "end":
            raise ScenarioError("expression ended early")
        if text == "(":
            close = self.text.find(")", self.last)
            out = self.expr(len(self.text) if close < 0 else close)
            if self.peek() != ")":
                raise ScenarioError("missing closing parenthesis")
            self.take()
            return out
        if kind == "op":
            raise ScenarioError("unexpected %r" % text)
        return self.remember(self.last - len(text), self.constant, kind, text)

    def constant(self, kind, text):
        F = self.field
        if kind == "num":
            return self.polys.const(F.from_int(parse_integer(text)))
        if text == self.var:
            return Poly.variable(F, self.var).coeffs
        try:
            return self.polys.const(F.atom(text))
        except KeyError as exc:
            raise ScenarioError(exc.args[0])


def parse_expression(field, var, text):
    return _ExprParser(field, var).parse(text)


def parse_index(tok):
    tok = tok.strip()
    m = re.fullmatch(r"(\d+)|w(\d*)(?:\+(\d+))?", tok)
    if m is None or m.group(2) and int(m.group(2)) == 0:
        raise ScenarioError("bad chain index %r" % tok)
    if m.group(1) is not None:
        return OrdinalIndex(0, int(m.group(1)))
    limit = int(m.group(2)) if m.group(2) else 1
    return OrdinalIndex(limit, int(m.group(3) or 0))


# ---------------------------------------------------------------------------
# the scenario itself

_SECTIONS = ("field", "valuation", "target", "chain", "oracle", "params")


class Scenario:
    __slots__ = ("name", "field", "rank", "var", "target", "script", "oracle",
                 "depth", "window", "lump_sides", "branches_mode")

    def __init__(self, name, field, rank, var, target, script, oracle,
                 depth, window, lump_sides, branches_mode):
        self.name = name
        self.field = field
        self.rank = rank
        self.var = var
        self.target = target
        self.script = script
        self.oracle = oracle
        self.depth = depth
        self.window = window
        self.lump_sides = lump_sides
        self.branches_mode = branches_mode

    def scripted_map(self):
        if not self.script:
            return {}
        return {self.script[0][2]: list(self.script)}

    def oracle_samples(self, branch_pos):
        """(poly, value) pairs for the branch at the given 0-based spot in
        the branch listing; a single oracle value covers every branch."""
        out = []
        for poly, values in self.oracle:
            if len(values) == 1:
                out.append((poly, values[0]))
            elif branch_pos < len(values):
                out.append((poly, values[branch_pos]))
            else:
                raise ScenarioError(
                    "oracle row with %d values cannot cover branch %d"
                    % (len(values), branch_pos + 1))
        return out


def _located(exc, row, key=None):
    """The input refusal exc with its place put before its reason: `line N:
    key: reason` for a file row (`line N: reason` for a row read whole, with
    no key), `--key: reason` for a command-line override, which is a row
    whose line is None.  Every input refusal is located here, and nowhere
    else; the raisers state only the reason.  A ValueError (a field
    constructor's or `parse_value`'s) becomes a ScenarioError; a `Refusal`
    keeps its type."""
    n = row[0]
    where = ("--%s" % key if n is None
             else "line %d" % n + (": %s" % key if key else ""))
    kind = ScenarioError if isinstance(exc, ValueError) else type(exc)
    return kind("%s: %s" % (where, exc))


@contextmanager
def _refusing(row, key=None):
    """Locate what building from a row raises (`_located`)."""
    try:
        yield
    except (ValueError, Refusal) as exc:
        raise _located(exc, row, key) from None


def _split_sections(text):
    sections = {}
    current = None
    for n, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            name = line[1:-1].strip()
            if not line.endswith("]"):
                reason = "unterminated section header"
            elif name not in _SECTIONS:
                reason = "unknown section %r" % name
            elif name in sections:
                reason = "duplicate section %r" % name
            else:
                current = sections.setdefault(name, [])
                continue
            raise _located(ScenarioError(reason), (n, line))
        if current is None:
            raise _located(ScenarioError("content before any section"),
                           (n, line))
        current.append((n, line))
    if not sections:
        raise ScenarioError("empty scenario")
    return sections


def _keyvals(rows, section):
    out = {}
    for n, line in rows:
        if "=" not in line:
            raise _located(ScenarioError("expected key = value in [%s]"
                                         % section), (n, line))
        key, val = line.split("=", 1)
        key, val = key.strip(), val.strip()
        if key in out:
            raise _located(ScenarioError("duplicate key %r" % key), (n, line))
        out[key] = (n, val)
    return out


def _want(kv, key, section):
    """The (line, text) row of a required key, taken out of kv."""
    if key not in kv:
        raise ScenarioError("[%s] is missing %r" % (section, key))
    return kv.pop(key)


def _int(row, key, least=None):
    """The integer of a (line, text) row, ASCII digits with a leading minus
    or not as value literals take them (`parse_integer`), refused below
    `least` if given.  A command-line override is read here too, as the
    row (None, value) of the int the command line read."""
    with _refusing(row, key):
        value = row[1]
        if not isinstance(value, int):
            if not re.fullmatch(r"-?[0-9]+", value):
                raise ScenarioError("must be an integer, got %r" % value)
            value = parse_integer(value)
        if least is not None and value < least:
            raise ScenarioError("must be at least %d, got %d" % (least, value))
    return value


def _setting(kv, key, override, default, least):
    """An integer [params] setting: the file's row when there is one, else
    the default, and the command line's override when it is given; the row
    and the override are each read by `_int`."""
    value = default if key not in kv else _int(kv.pop(key), key, least)
    return value if override is None else _int((None, override), key, least)


def _choice(kv, key, choices, default):
    """The (line, text) row of a [params] key whose text is one of
    `choices`, (None, default) when the key is absent."""
    row = kv.pop(key, (None, default))
    if row[1] not in choices:
        raise _located(ScenarioError("must be %s" % " or ".join(choices)),
                       row, key)
    return row


def _bounds(row, gens):
    """The {var: N} precision bounds of a `VAR:N ...` row over the generators
    `gens`.  An override (line None) without a colon is a bare `N`, read as
    {None: N}: a bound for every declared variable."""
    n, text = row
    bare = n is None and ":" not in text
    bounds = {}
    with _refusing(row, "precision"):
        for part in [text] if bare else text.split():
            var, _, num = (None, "", part) if bare else part.partition(":")
            if not (num.isascii() and num.isdigit()):
                raise ScenarioError("bad precision %r" % part)
            if var is not None and var not in gens:
                raise ScenarioError("precision bound for unknown variable %r"
                                    % var)
            if var in bounds:
                raise ScenarioError("precision for %r given twice" % var)
            bounds[var] = int(num)
    return bounds


def _reject_extra(kv, section):
    if kv:
        key, row = next(iter(kv.items()))
        raise _located(ScenarioError("unknown key %r in [%s]" % (key, section)),
                       row)


def _build_field(kv, precision):
    """The field of a [field] section, its precision overridden by the
    command line's `precision` text when that is given."""
    kind_row = _want(kv, "kind", "field")
    kind = kind_row[1]
    over = (None, precision)
    if kind == "rational_functions":
        row = _want(kv, "char", "field")
        char = _int(row, "char")
        gen = _want(kv, "generator", "field")[1]
        _reject_extra(kv, "field")
        if precision is not None:
            raise _located(ScenarioError("rational function fields are exact; "
                                         "no precision to override"),
                           over, "precision")
        with _refusing(row, "char"):
            scalars = QQ if char == 0 else PrimeField(char)
        return RationalFunctions(scalars, gen)
    if kind == "lex_series":
        p_row = _want(kv, "p", "field")
        p = _int(p_row, "p")
        gens_row = _want(kv, "generators", "field")
        gens = tuple(gens_row[1].split())
        bounds = _bounds(kv.pop("precision", (0, "")), gens)
        _reject_extra(kv, "field")
        if precision is not None:
            new = _bounds(over, gens)
            if None in new:
                if not bounds:
                    raise _located(ScenarioError(
                        "bare precision override needs a declared cutoff to "
                        "replace"), over, "precision")
                new = dict.fromkeys(bounds, new[None])
            bounds.update(new)
        with _refusing(p_row, "p"):
            scalars = PrimeField(p)
        # every precision variable is a generator by now, so the
        # constructor can refuse only the generators
        with _refusing(gens_row, "generators"):
            return LexMonomialSeries(scalars, gens, bounds or None)
    if kind == "coordinate_tower":
        p_row = _want(kv, "p", "field")
        p = _int(p_row, "p")
        gamma_row = n, text = _want(kv, "gamma", "field")
        gamma = [_int((n, g), "gamma") for g in text.split()]
        gamma = gamma[0] if len(gamma) == 1 else gamma
        depth_row = _want(kv, "depth", "field")
        depth = _int(depth_row, "depth")
        _reject_extra(kv, "field")
        place = depth_row, "depth"
        if precision is not None:
            if ":" in precision:
                raise _located(ScenarioError("tower precision is its depth; "
                                             "use a bare number"),
                               over, "precision")
            depth, place = _bounds(over, ())[None], (over, "precision")
        if depth < 1:
            raise _located(ScenarioError("tower depth must be at least 1, "
                                         "got %d" % depth), *place)
        with _refusing(p_row, "p"):
            PrimeField(p)  # the tower builds its own; this names the line
        with _refusing(gamma_row, "gamma"):
            return CoordinateTower(p, gamma, max_depth=depth)
    raise _located(ScenarioError("unknown field kind %r" % kind), kind_row,
                   "kind")


def parse_scenario(text, name="scenario", depth=None, window=None,
                   precision=None):
    """The scenario of a file's text.  `depth`, `window` and `precision`
    override the file's settings as the command line's `--depth`,
    `--window` and `--precision` do, and each is refused as the row it
    overrides is, at its option; the returned scenario holds the values that
    apply."""
    sections = _split_sections(text)
    for needed in ("field", "target"):
        if needed not in sections:
            raise ScenarioError("missing [%s] section" % needed)

    field = _build_field(_keyvals(sections["field"], "field"), precision)

    rank = field.rank
    if "valuation" in sections:
        kv = _keyvals(sections["valuation"], "valuation")
        rank_row = _want(kv, "rank", "valuation")
        rank = _int(rank_row, "rank")
        _reject_extra(kv, "valuation")
        if rank != field.rank:
            raise _located(ScenarioError("declared rank %d but the field has "
                                         "rank %d" % (rank, field.rank)),
                           rank_row, "rank")

    kv = _keyvals(sections["target"], "target")
    var_row = _want(kv, "var", "target")
    var = var_row[1]
    try:
        field.atom(var)
    except KeyError:
        pass
    else:
        raise _located(ScenarioError("chain variable %r already names an "
                                     "element of the field" % var),
                       var_row, "var")
    poly_row = _want(kv, "poly", "target")
    _reject_extra(kv, "target")
    parse = _ExprParser(field, var).parse
    with _refusing(poly_row, "poly"):
        target = parse(poly_row[1])
        if not target.is_monic:
            raise ScenarioError("target polynomial is not monic")

    script = []
    for row in sections.get("chain", []):
        parts = [p.strip() for p in row[1].split(";")]
        with _refusing(row):
            if len(parts) != 3:
                raise ScenarioError("chain entries are index ; expr ; value")
            index = parse_index(parts[0])
            poly = parse(parts[1])
            beta = parse_value(parts[2], rank)
            if script:
                i1, _, b1 = script[-1]
                if not i1 < index:
                    raise ScenarioError("chain indices must increase "
                                        "(%s before %s)" % (i1, index))
                if b1 is INF:
                    raise ScenarioError("only the last chain entry may be "
                                        "terminal")
                if beta is not INF and not b1 < beta:
                    raise ScenarioError("chain values must increase "
                                        "(%s before %s)" % (b1, beta))
        script.append((index, poly, beta))

    oracle = []
    for row in sections.get("oracle", []):
        parts = [p.strip() for p in row[1].split(";")]
        with _refusing(row):
            if len(parts) < 2:
                raise ScenarioError("oracle rows are expr ; value [; value ...]")
            poly = parse(parts[0])
            values = [parse_value(p, rank) for p in parts[1:]]
        oracle.append((poly, values))

    kv = _keyvals(sections.get("params", []), "params")
    depth = _setting(kv, "depth", depth, 8, 0)
    window = _setting(kv, "window", window, 4, 1)
    lump_sides = _choice(kv, "lump_sides", ("true", "false"), "false")[1]
    branches_row = _choice(kv, "branches", ("all", "scripted"), "all")
    _reject_extra(kv, "params")
    if branches_row[1] == "scripted" and not script:
        raise _located(ScenarioError("scripted needs a [chain] section"),
                       branches_row, "branches")

    return Scenario(name, field, rank, var, target, script, oracle,
                    depth, window, lump_sides == "true", branches_row[1])


# ---------------------------------------------------------------------------
# printing


def _field_lines(F):
    if isinstance(F, RationalFunctions):
        return ["kind = rational_functions", "char = %d" % F.char,
                "generator = %s" % F.var]
    if isinstance(F, LexMonomialSeries):
        out = ["kind = lex_series", "p = %d" % F.char,
               "generators = %s" % " ".join(F.varnames)]
        if F.precision:
            out.append("precision = " + " ".join(
                "%s:%d" % (v, F.precision[v]) for v in F.varnames
                if v in F.precision))
        return out
    if isinstance(F, CoordinateTower):
        gammas = F._gammas
        gamma = (str(gammas[0]) if len(set(gammas)) == 1
                 else " ".join(str(g) for g in gammas))
        return ["kind = coordinate_tower", "p = %d" % F.p,
                "gamma = %s" % gamma, "depth = %d" % F.max_depth]
    raise ScenarioError("cannot print field %r" % F)


def format_scenario(sc):
    lines = ["[field]"] + _field_lines(sc.field)
    lines += ["", "[valuation]", "rank = %d" % sc.rank]
    lines += ["", "[target]", "var = %s" % sc.var,
              "poly = %s" % sc.target.format()]
    if sc.script:
        lines += ["", "[chain]"]
        for index, poly, beta in sc.script:
            lines.append("%s ; %s ; %s"
                         % (index, poly.format(), format_value(beta)))
    if sc.oracle:
        lines += ["", "[oracle]"]
        for poly, values in sc.oracle:
            lines.append(" ; ".join([poly.format()]
                                    + [format_value(v) for v in values]))
    lines += ["", "[params]",
              "depth = %d" % sc.depth,
              "window = %d" % sc.window,
              "lump_sides = %s" % ("true" if sc.lump_sides else "false"),
              "branches = %s" % sc.branches_mode]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# locating scenario files


def scenario_search_paths():
    paths = []
    env = os.environ.get(ENV_PATH, "")
    for part in env.split(os.pathsep):
        if part:
            paths.append(part)
    paths.append(os.getcwd())
    return paths


def _decode(data):
    """Scenario bytes as text.  A byte outside ASCII is refused at its line,
    counted as `_split_sections` counts lines."""
    text = data.decode("ascii", errors="replace")
    if not data.isascii():
        for n, line in enumerate(text.splitlines(), 1):
            if "\ufffd" in line:
                raise _located(ScenarioError("non-ASCII character"), (n, line))
    return text


def _packaged_text(fname):
    from importlib import resources
    ref = resources.files(__package__) / "scenarios" / fname
    if ref.is_file():
        return _decode(ref.read_bytes())
    return None


def load_scenario(name, depth=None, window=None, precision=None):
    """Scenario text by file path or bare name; bare names search the env
    path, the working directory, then the packaged scenarios.  The
    overrides are those of `parse_scenario`."""
    fname = name if name.endswith(".scn") else name + ".scn"
    if os.sep in fname or os.path.isfile(fname):
        candidates = [fname]
    else:
        candidates = [os.path.join(d, fname) for d in scenario_search_paths()]
    for cand in candidates:
        if os.path.isfile(cand):
            with open(cand, "rb") as fh:
                text = _decode(fh.read())
            return parse_scenario(text, os.path.basename(fname)[:-4],
                                  depth, window, precision)
    text = _packaged_text(fname)
    if text is not None:
        return parse_scenario(text, fname[:-4], depth, window, precision)
    raise ScenarioError("no scenario named %r on the search path" % name)
