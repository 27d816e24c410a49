"""Lex series monomials packed into ints, against the tuple-keyed reference.

`LexMonomialSeries` holds a monomial as one int with its signed exponents in
64-bit fields, sums raw coefficient products per monomial and reduces them
mod p once per product.  Here every operation is checked against the
tuple-keyed field it replaced, copied below, on random Laurent elements over
F_2, F_3 and F_5 in one to three variables; and the exponent range
[-2^31, 2^31) is checked at its edges (a scenario that leaves it is
refused in `test_scenario_cli.py`).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valforge.fields import (InsufficientPrecision, LexMonomialSeries,
                             PrimeField, UnsupportedStructure,
                             ValuedFieldBase)
from valforge.polyring import format_terms
from valforge.values import INF, Value

SETTINGS = settings(derandomize=True, max_examples=150, deadline=None)
VARS = ("z", "y", "t")


class TupleLex(ValuedFieldBase):
    # the tuple-keyed field the int monomials replaced: an element is the
    # dict {exponent tuple: nonzero scalar}, each pair product reduced mod p

    def __init__(self, scalars, varnames, precision=None):
        self.scalars = scalars
        self.varnames = tuple(varnames)
        self.rank = len(self.varnames)
        self.precision = dict(precision or {})
        self.zero = {}
        self.one = {(0,) * self.rank: scalars.one}

    def _make(self, terms):
        sc = self.scalars
        return {e: c for e, c in terms.items() if not sc.is_zero(c)}

    def add(self, x, y):
        sc = self.scalars
        terms = dict(x)
        for e, c in y.items():
            terms[e] = sc.add(terms.get(e, sc.zero), c)
        return self._make(terms)

    def neg(self, x):
        return {e: self.scalars.neg(c) for e, c in x.items()}

    def mul(self, x, y):
        sc = self.scalars
        terms = {}
        for e1, c1 in x.items():
            for e2, c2 in y.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = sc.add(terms.get(e, sc.zero), sc.mul(c1, c2))
        return self._make(terms)

    def inv(self, x):
        if not x:
            raise ZeroDivisionError("division by zero")
        if len(x) != 1:
            raise UnsupportedStructure("series division is restricted to monomial divisors")
        (e0, c0), = x.items()
        return {tuple(-a for a in e0): self.scalars.inv(c0)}

    def is_zero(self, x):
        return not x

    def is_zero_mod_precision(self, x):
        box = [(i, self.precision[v]) for i, v in enumerate(self.varnames)
               if v in self.precision]
        return all(any(e[i] >= b for i, b in box) for e in x)

    def valuate(self, x):
        return Value.over(min(x)) if x else INF

    def unit_residue(self, x, d):
        if not x or not d:
            raise ValueError("unit_residue of zero")
        lx, ld = min(x), min(d)
        if lx != ld:
            raise ValueError("unit_residue needs equal values, got %s and %s" % (lx, ld))
        return self.scalars.div(x[lx], d[ld])

    def canonical_element(self, v):
        if v.den != 1:
            raise ValueError("%s is not in the base value group" % v)
        return {v.nums: self.scalars.one}

    def lift_scalar(self, c):
        if self.scalars.is_zero(c):
            return self.zero
        return {(0,) * self.rank: c}

    def format_element(self, x):
        return format_terms(
            (self.scalars.format(x[e]),
             "*".join(var if k == 1 else "%s^%d" % (var, k)
                      for var, k in zip(self.varnames, e) if k))
            for e in sorted(x))


@st.composite
def field_pairs(draw):
    """The packed field and its reference over F_2, F_3 or F_5, in one to
    three variables, with a random precision box."""
    p = draw(st.sampled_from([2, 3, 5]))
    names = VARS[:draw(st.integers(1, 3))]
    bounds = st.one_of(st.none(), st.integers(-40, 40))
    box = {v: b for v in names if (b := draw(bounds)) is not None}
    scalars = PrimeField(p)
    return (LexMonomialSeries(scalars, names, box),
            TupleLex(scalars, names, box))


def _terms(draw, F, size=(0, 6)):
    """Laurent terms as (exponent vector, nonzero scalar) pairs."""
    exps = st.tuples(*[st.integers(-40, 40)] * F.rank)
    return draw(st.lists(st.tuples(exps, st.integers(1, F.p - 1)),
                         min_size=size[0], max_size=size[1]))


def _build(F, terms):
    # through the field API only, so both fields build their own forms
    acc = F.zero
    for exps, c in terms:
        acc = F.add(acc, F.mul(F.lift_scalar(c),
                               F.canonical_element(Value(exps))))
    return acc


def _same(F, R, x, xr):
    assert F.format_element(x) == R.format_element(xr)
    assert F.valuate(x) == R.valuate(xr)
    assert F.is_zero(x) == R.is_zero(xr)
    assert F.is_zero_mod_precision(x) == R.is_zero_mod_precision(xr)


@SETTINGS
@given(st.data())
def test_arithmetic_matches_the_tuple_reference(data):
    F, R = data.draw(field_pairs())
    tx, ty = _terms(data.draw, F), _terms(data.draw, F)
    tm = _terms(data.draw, F, (1, 1))
    x, y, m = _build(F, tx), _build(F, ty), _build(F, tm)
    xr, yr, mr = _build(R, tx), _build(R, ty), _build(R, tm)
    for a, ar in ((x, xr), (y, yr), (m, mr)):
        _same(F, R, a, ar)
        _same(F, R, F.neg(a), R.neg(ar))
    _same(F, R, F.add(x, y), R.add(xr, yr))
    _same(F, R, F.sub(x, y), R.sub(xr, yr))
    _same(F, R, F.sub(x, x), R.sub(xr, xr))
    _same(F, R, F.mul(x, y), R.mul(xr, yr))
    n = data.draw(st.integers(0, 3))
    _same(F, R, F.pow(x, n), R.pow(xr, n))
    _same(F, R, F.pow(m, -n), R.pow(mr, -n))
    _same(F, R, F.inv(m), R.inv(mr))
    _same(F, R, F.div(x, m), R.div(xr, mr))
    assert F.mul(F.inv(m), m) == F.one
    if x:
        v = F.valuate(x)
        assert F.unit_residue(x, F.canonical_element(v)) == \
            R.unit_residue(xr, R.canonical_element(v))
        assert F.unit_residue(F.mul(x, m), F.mul(m, F.canonical_element(v))) \
            == R.unit_residue(R.mul(xr, mr), R.mul(mr, R.canonical_element(v)))
    if x and y and F.valuate(x) != F.valuate(y):
        with pytest.raises(ValueError) as got:
            F.unit_residue(x, y)
        with pytest.raises(ValueError) as want:
            R.unit_residue(xr, yr)
        assert str(got.value) == str(want.value)


def test_constants_and_scalars():
    F = LexMonomialSeries(PrimeField(3), ("z", "y"))
    assert F.one == F.lift_scalar(F.scalars.one)
    assert F.lift_scalar(F.scalars.zero) is F.zero
    assert F.canonical_element(Value([0, 0])) == F.one
    with pytest.raises(ValueError, match="prime field"):
        LexMonomialSeries(object(), ("z",))


# ---------------------------------------------------------------------------
# the exponent range [-2^31, 2^31)


def _field():
    F = LexMonomialSeries(PrimeField(3), ("z", "y"))
    return F, F.atom("z"), F.atom("y")


def test_largest_exponent_is_accepted():
    F, z, y = _field()
    top = F.pow(z, 2 ** 31 - 1)
    assert F.valuate(top) == Value([2 ** 31 - 1, 0])
    assert F.valuate(F.mul(top, F.pow(y, -2 ** 31))) == \
        Value([2 ** 31 - 1, -2 ** 31])
    assert F.format_element(F.canonical_element(Value([-2 ** 31, 1]))) == \
        "z^-2147483648*y"


@pytest.mark.parametrize("make, name", [
    (lambda F, z, y: F.mul(F.pow(z, 2 ** 30), F.pow(z, 2 ** 30)),
     "z^2147483648"),
    (lambda F, z, y: F.mul(F.pow(y, -2 ** 30), F.pow(y, -2 ** 30 - 1)),
     "y^-2147483649"),
    (lambda F, z, y: F.canonical_element(Value([1, 2 ** 31])),
     "z*y^2147483648"),
    (lambda F, z, y: F.inv(F.canonical_element(Value([-2 ** 31, 0]))),
     "z^2147483648"),
], ids=["product", "negative-product", "canonical", "inverse"])
def test_exponent_out_of_range_is_refused(make, name):
    F, z, y = _field()
    with pytest.raises(InsufficientPrecision) as exc:
        make(F, z, y)
    assert str(exc.value) == ("%s has an exponent outside [-2^31, 2^31), "
                              "beyond the lex series' exponent fields" % name)
