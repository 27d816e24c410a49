"""The number kernel of the dense core against the generic core.

Z, Q and Z/mZ run their polynomials on `NumberPolys`, which works on the
ints and Fractions with Python's operators and reduces each output
coefficient once.  Every operation must agree with the generic `DensePolys`
over the same domain, read canonically (reduced into [0, m), no trailing
zero), also on unreduced and negative inputs, and its own outputs must be
canonical already.  The last tests pin which domains select the kernel.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valforge.fields import (QQ, ZZ, CoordinateTower, LexMonomialSeries,
                             PrimeField, RationalFunctions, _IntegersMod)
from valforge.graded import EtaleRing, ScalarRing
from valforge.polyring import DensePolys, NumberPolys

SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)

DOMAINS = {
    "ZZ": ZZ,
    "QQ": QQ,
    "F_2": PrimeField(2),
    "F_3": PrimeField(3),
    "F_5": PrimeField(5),
    "F_7": PrimeField(7),
    "Z/125Z": _IntegersMod(5 ** 3),
}
FIELDS = ["QQ", "F_2", "F_3", "F_5", "F_7"]


def _numbers(domain):
    """Raw coefficients: Fractions over Q, ints over Z, and over Z/mZ ints
    well outside [0, m), negative ones included."""
    if domain is QQ:
        return st.builds(Fraction, st.integers(-20, 20), st.integers(1, 6))
    m = getattr(domain, "m", None)
    return st.integers(-50, 50) if m is None else st.integers(-3 * m, 3 * m)


def _canonical(domain, f):
    """f reduced into [0, m) over Z/mZ, without trailing zeros."""
    m = getattr(domain, "m", None)
    out = [c % m for c in f] if m is not None else list(f)
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _check(domain, got, generic):
    assert got == _canonical(domain, got)
    assert got == _canonical(domain, generic)


@pytest.mark.parametrize("name", sorted(DOMAINS))
@SETTINGS
@given(data=st.data(), n=st.integers(0, 4))
def test_ring_operations_agree_with_the_generic_core(name, data, n):
    domain = DOMAINS[name]
    kernel, generic = domain.polys, DensePolys(domain)
    coeffs = st.lists(_numbers(domain), max_size=5)
    f, g = tuple(data.draw(coeffs)), tuple(data.draw(coeffs))
    c = data.draw(_numbers(domain))
    _check(domain, kernel.trim(f), generic.trim(f))
    for op in ("add", "sub", "mul"):
        _check(domain, getattr(kernel, op)(f, g), getattr(generic, op)(f, g))
    _check(domain, kernel.neg(f), generic.neg(f))
    _check(domain, kernel.scale(f, c), generic.scale(f, c))
    # pow hands back a first power as given, so it takes canonical inputs
    h = kernel.trim(f)
    _check(domain, kernel.pow(h, n), generic.pow(h, n))
    if _canonical(domain, f):
        assert kernel.ord(f) == generic.ord(f)
    else:
        with pytest.raises(ValueError):
            kernel.ord(f)


def _divisor(data, domain):
    """A divisor of positive degree whose lead the domain can invert: any
    nonzero lead over a field, the lead 1 over Z and Z/mZ."""
    low = data.draw(st.lists(_numbers(domain), min_size=1, max_size=3))
    if not hasattr(domain, "inv"):
        return tuple(low) + (1,)
    lead = data.draw(_numbers(domain).filter(
        lambda c: _canonical(domain, (c,))))
    return tuple(low) + (lead,)


@pytest.mark.parametrize("name", sorted(DOMAINS))
@SETTINGS
@given(data=st.data())
def test_division_agrees_with_the_generic_core(name, data):
    domain = DOMAINS[name]
    kernel, generic = domain.polys, DensePolys(domain)
    f = tuple(data.draw(st.lists(_numbers(domain), max_size=7)))
    g = _divisor(data, domain)
    q, r = kernel.divmod(f, g)
    gq, gr = generic.divmod(f, g)
    _check(domain, q, gq)
    _check(domain, r, gr)
    assert len(r) < len(_canonical(domain, g))
    assert kernel.add(kernel.mul(q, g), r) == kernel.trim(f)


@pytest.mark.parametrize("name", FIELDS)
@SETTINGS
@given(data=st.data())
def test_gcd_and_xgcd_agree_over_the_fields(name, data):
    domain = DOMAINS[name]
    kernel, generic = domain.polys, DensePolys(domain)
    # the monic gcd of f and () inverts the lead of f, so f is canonical
    f = kernel.trim(data.draw(st.lists(_numbers(domain), max_size=6)))
    g = kernel.trim(data.draw(st.lists(_numbers(domain), max_size=5)))
    _check(domain, kernel.gcd(f, g), generic.gcd(f, g))
    for got, want in zip(kernel.xgcd(f, g), generic.xgcd(f, g)):
        _check(domain, got, want)


@pytest.mark.parametrize("domain", [ZZ, _IntegersMod(5 ** 3)],
                         ids=["ZZ", "Z/125Z"])
def test_rings_without_inverses_divide_by_monic_divisors_only(domain):
    polys = domain.polys
    # below the divisor degree the lead is never inverted
    assert polys.divmod((3, 1), (1, 2, 7)) == ((), (3, 1))
    assert polys.divmod((3, 3, 2), (1, 1)) == ((1, 2), (2,))
    with pytest.raises(AttributeError):
        polys.divmod((3, 0, 2), (1, 2))


def test_the_number_domains_select_the_kernel():
    for domain in (ZZ, QQ, PrimeField(5), _IntegersMod(5 ** 3)):
        assert type(domain.polys) is NumberPolys
    assert ZZ.polys.m is QQ.polys.m is None
    assert PrimeField(5).polys.m == 5
    assert _IntegersMod(5 ** 3).polys.m == 125
    for scalars in (QQ, PrimeField(3)):
        assert type(RationalFunctions(scalars, "y").sp) is NumberPolys


def test_valued_fields_and_residue_rings_keep_the_generic_core():
    for domain in (RationalFunctions(QQ, "y"),
                   LexMonomialSeries(PrimeField(5), ("z", "y")),
                   CoordinateTower(2, 1, 6),
                   ScalarRing(PrimeField(3)),
                   EtaleRing(PrimeField(3), (1, 0, 1))):
        assert type(domain.polys) is DensePolys
