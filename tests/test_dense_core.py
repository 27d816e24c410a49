"""Property tests for the dense polynomial core over every kind of domain.

The same `DensePolys` arithmetic runs over the three valued base fields (as
`Poly`), over the scalar fields, and over the residue rings of the graded
machinery.  Euclidean division and standard expansions are checked against
their defining identities on every base field kind; over a residue ring with
zero divisors, division below the divisor degree must never invert the lead.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valforge.fields import (QQ, CoordinateTower, LexMonomialSeries,
                             PrimeField, RationalFunctions,
                             UnsupportedStructure)
from valforge.graded import EtaleRing, InClass, graded_divmod
from valforge.polyring import Poly, standard_expansion
from valforge.values import INF, Value

SETTINGS = settings(derandomize=True, max_examples=40, deadline=None)


def _rational_functions(scalars):
    F = RationalFunctions(scalars, "t")
    t = F.atom("t")
    one_plus_t = F.add(F.one, t)
    return F, (F.one, t, one_plus_t), (F.one, t, one_plus_t)


def _lex_series():
    F = LexMonomialSeries(PrimeField(5), ("z", "y"))
    z, y = F.atom("z"), F.atom("y")
    return F, (F.one, z, y, F.mul(z, y)), (F.one, z, y)


def _tower():
    F = CoordinateTower(2, 1, 6)
    u, v, v2 = F.atom("u"), F.atom("v"), F.atom("v2")
    return F, (F.one, u, v, v2), (F.one, v, F.add(F.one, v2))


# field, building blocks of numerators, allowed denominators
FIELDS = {
    "Q(t)": _rational_functions(QQ),
    "F_3(t)": _rational_functions(PrimeField(3)),
    "lex series": _lex_series(),
    "tower": _tower(),
}

# one coefficient: sum of c * block_i * block_j, over one denominator
TERMS = st.tuples(
    st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 3),
                       st.integers(0, 3)), max_size=3),
    st.integers(0, 2))


def _element(F, blocks, dens, spec):
    terms, den = spec
    out = F.zero
    for c, i, j in terms:
        mono = F.mul(blocks[i % len(blocks)], blocks[j % len(blocks)])
        out = F.add(out, F.mul(F.from_int(c), mono))
    return F.div(out, dens[den % len(dens)])


@pytest.mark.parametrize("name", sorted(FIELDS))
@SETTINGS
@given(f_specs=st.lists(TERMS, max_size=6),
       g_specs=st.lists(TERMS, min_size=1, max_size=3))
def test_division_and_expansion_identities(name, f_specs, g_specs):
    F, blocks, dens = FIELDS[name]
    f = Poly(F, "x", [_element(F, blocks, dens, s) for s in f_specs])
    g = Poly(F, "x", [_element(F, blocks, dens, s) for s in g_specs] + [F.one])
    assert g.is_monic and g.degree >= 1

    q, r = f.euclid_div(g)
    assert (q * g + r).eq(f)
    assert r.degree < g.degree

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
