"""The `Domain` base: derived operations over scalar fields, valued fields
and residue rings, and negative powers, which invert."""

from fractions import Fraction

import pytest

from valforge.fields import (QQ, CoordinateTower, LexMonomialSeries,
                             PrimeField, RationalFunctions)
from valforge.graded import EtaleRing, ScalarRing
from valforge.polyring import Poly


def _rational_functions():
    F = RationalFunctions(QQ, "y")
    return F, F.atom("y")


def _lex_series():
    F = LexMonomialSeries(PrimeField(5), ("z", "y"))
    return F, F.mul(F.from_int(2), F.atom("z"))


def _tower():
    F = CoordinateTower(2, 1, 6)
    return F, F.atom("v")


VALUED = {"Q(y)": _rational_functions, "lex series": _lex_series,
          "tower": _tower}


@pytest.mark.parametrize("name", sorted(VALUED))
def test_negative_power_of_a_valued_field_element_inverts(name):
    F, a = VALUED[name]()
    for n in (1, 2, 3):
        inverse = F.pow(a, -n)
        assert F.eq(F.mul(inverse, F.pow(a, n)), F.one)
        assert F.eq(inverse, F.div(F.one, F.pow(a, n)))
        assert F.valuate(inverse) == -F.valuate(F.pow(a, n))
    assert F.eq(F.pow(a, 0), F.one)


def test_derived_operations_over_scalars_and_residue_rings():
    assert QQ.pow(Fraction(2), -3) == Fraction(1, 8)
    assert QQ.div(Fraction(3), Fraction(4)) == Fraction(3, 4)
    assert QQ.eq(Fraction(1, 2), Fraction(2, 4))
    F5 = PrimeField(5)
    assert F5.div(3, 2) == 4 and F5.pow(2, -1) == 3 and F5.sub(1, 3) == 3
    ring = ScalarRing(F5)
    assert ring.pow(2, -2) == 4 and ring.div(1, 2) == 3
    # F_3[T]/(T^2 + 1) is a field: T has inverse -T
    etale = EtaleRing(PrimeField(3), (1, 0, 1))
    assert etale.pow(etale.gen, -1) == (0, 2)
    assert etale.eq(etale.mul(etale.pow(etale.gen, -3),
                              etale.pow(etale.gen, 3)), etale.one)


def test_negative_polynomial_power_is_refused():
    F, y = _rational_functions()
    x = Poly.variable(F, "x")
    assert x.pow(0).eq(Poly.const(F, "x", F.one))
    with pytest.raises(ValueError):
        x.pow(-1)
    with pytest.raises(ValueError):
        F.polys.pow(x.coeffs, -2)


@pytest.mark.parametrize("name", sorted(VALUED))
def test_division_by_a_monic_divisor_never_inverts_its_lead(name):
    F, a = VALUED[name]()
    calls = []
    inv = F.inv

    def counting_inv(x):
        calls.append(x)
        return inv(x)

    F.inv = counting_inv
    f = Poly(F, "x", [a, F.one, a, F.one])
    monic = Poly(F, "x", [a, F.lift_scalar(F.scalars.one)])
    q, r = f.euclid_div(monic)
    assert (q * monic + r).eq(f) and not calls
    q, r = f.euclid_div(monic.scale(a))
    assert (q * monic.scale(a) + r).eq(f) and len(calls) == 1
    assert F.valuate(calls[0]) == F.valuate(a)
