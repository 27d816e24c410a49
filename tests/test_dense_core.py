"""Property tests for the dense polynomial core over every kind of domain.

The same `DensePolys` arithmetic runs over the three valued base fields (as
`Poly`), over the scalar fields, and over the residue rings of the graded
machinery.  Euclidean division and standard expansions are checked against
their defining identities on every base field kind, on F_p, on Z/p^kZ and on
a residue field k[T]/(m); over a residue ring with zero divisors, division
below the divisor degree must never invert the lead.  A counting domain pins
the cost of division, products and powers in domain operations.
"""

from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from inputs import DOMAINS, SETTINGS, TERMS, element
from valforge.fields import PrimeField, UnsupportedStructure, _IntegersMod
from valforge.graded import EtaleRing, InClass, graded_divmod
from valforge.polyring import DensePolys, Domain, Poly, standard_expansion
from valforge.values import INF, Value


@pytest.mark.parametrize("name", sorted(DOMAINS))
@SETTINGS
@given(f_specs=st.lists(TERMS, max_size=6),
       g_specs=st.lists(TERMS, min_size=1, max_size=3))
def test_division_and_expansion_identities(name, f_specs, g_specs):
    F, from_int, blocks, dens = DOMAINS[name]
    f = Poly(F, "x", [element(F, from_int, blocks, dens, s) for s in f_specs])
    g = Poly(F, "x", [element(F, from_int, blocks, dens, s)
                      for s in g_specs] + [F.one])
    assert g.is_monic and g.degree >= 1

    q, r = f.euclid_div(g)
    assert (q * g + r).eq(f)
    assert r.degree < g.degree
    if dens:
        # a lead other than one is inverted
        h = g.scale(blocks[-1])
        q, r = f.euclid_div(h)
        assert (q * h + r).eq(f)
        assert r.degree < h.degree

    cs = standard_expansion(f, g)
    assert all(c.degree < g.degree for c in cs)
    back = Poly.zero(F, "x")
    for c in reversed(cs):
        back = back * g + c
    assert back.eq(f)


# F_3[T]/(T^2 - 1): T + 1 and T - 1 are zero divisors
RING = EtaleRing(PrimeField(3), (2, 0, 1))
ZERO_DIVISOR = (1, 1)
RESIDUES = st.tuples(st.integers(0, 2), st.integers(0, 2)).map(RING.embed)


@SETTINGS
@given(f=st.lists(RESIDUES, max_size=3),
       g=st.lists(RESIDUES, min_size=1, max_size=2))
def test_division_below_degree_keeps_zero_divisor_lead(f, g):
    polys = RING.polys
    g = polys.trim(g + [RING.one] * (len(f) - len(g)) + [ZERO_DIVISOR])
    f = polys.trim(f)
    assert len(f) < len(g)
    assert polys.divmod(f, g) == ((), f)
    # the graded wrapper answers the same way
    a, b = InClass(RING, Value([0]), f), InClass(RING, Value([1]), g)
    q, r = graded_divmod(a, b)
    assert q.is_zero and q.value is INF
    assert r.coeffs == f
    # dividing at or above the divisor degree needs the lead inverted
    with pytest.raises(UnsupportedStructure, match="zero divisor"):
        polys.divmod(polys.mul(g, g), g)


class Counting(Domain):
    """A domain that forwards to another and counts each operation."""

    def __init__(self, inner):
        self.inner = inner
        self.zero = inner.zero
        self.one = inner.one
        self.calls = Counter()

    def add(self, a, b):
        self.calls["add"] += 1
        return self.inner.add(a, b)

    def mul(self, a, b):
        self.calls["mul"] += 1
        return self.inner.mul(a, b)

    def neg(self, a):
        self.calls["neg"] += 1
        return self.inner.neg(a)

    def inv(self, a):
        self.calls["inv"] += 1
        return self.inner.inv(a)

    def is_zero(self, a):
        return self.inner.is_zero(a)


# (quotient, monic divisor, remainder), constant term first; every quotient
# coefficient is nonzero, and the divisors' low parts are sparse
DIVISIONS = [
    ((3, 1, 4, 1, 5), (2, 1), (6,)),
    ((1, 2, 3), (0, 0, 5, 1), (1, 0, 4)),
    ((2, 6, 1, 1), (3, 0, 0, 0, 1), ()),
    ((5,), (1, 0, 2, 0, 1), (4, 4)),
    ((1, 1, 1, 1, 1, 1, 1), (0, 1), (3,)),
]


@pytest.mark.parametrize("domain", [PrimeField(7), _IntegersMod(5 ** 3)],
                         ids=["F_7", "Z/125Z"])
@pytest.mark.parametrize("q, g, r", DIVISIONS)
def test_division_by_a_monic_divisor_costs_one_product_per_low_term(
        domain, q, g, r):
    polys = domain.polys
    q, g, r = polys.trim(q), polys.trim(g), polys.trim(r)
    f = polys.add(polys.mul(q, g), r)
    counting = Counting(domain)
    assert counting.polys.divmod(f, g) == (q, r)
    low = sum(1 for c in g[:-1] if c)
    assert counting.calls["mul"] == (len(f) - len(g) + 1) * low
    assert counting.calls["neg"] <= len(g) - 1
    assert counting.calls["add"] == counting.calls["mul"]
    assert counting.calls["inv"] == 0


def test_product_skips_the_zero_coefficients_of_both_factors():
    F7 = PrimeField(7)
    counting = Counting(F7)
    f, g = (1, 0, 3, 2), (0, 5, 0, 0, 1)
    assert counting.polys.mul(f, g) == F7.polys.mul(f, g)
    assert counting.calls["mul"] == 3 * 2
    assert counting.calls["add"] == 3 * 2
    counting.calls.clear()
    assert counting.polys.mul(g, f) == F7.polys.mul(f, g)
    assert counting.calls["mul"] == 2 * 3


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 8, 13, 31, 32, 1000, 12345])
def test_powers_square_and_multiply(n):
    # at most two products per bit below the top one
    products = 2 * max(n.bit_length() - 1, 0)
    F7 = PrimeField(7)
    counting = Counting(F7)
    assert counting.pow(3, n) == pow(3, n, 7)
    assert counting.calls["mul"] <= products
    if n > 32:
        return
    expect = F7.polys.one()
    for _ in range(n):
        expect = F7.polys.mul(expect, (2, 1))
    polys = DensePolys(F7)
    plain, calls = polys.mul, []
    polys.mul = lambda f, g: calls.append((f, g)) or plain(f, g)
    assert polys.pow((2, 1), n) == expect
    assert len(calls) <= products
