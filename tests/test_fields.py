import copy
import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from inputs import run_scenario
from valforge.fields import (
    QQ,
    CoordinateTower,
    InsufficientPrecision,
    LexMonomialSeries,
    PrimeField,
    RationalFunctions,
    UnsupportedStructure,
    _is_prime,
    _PRIME_LIMIT,
    factor_scalar_poly,
)
from valforge.polyring import DensePolys as ScalarPolys
from valforge.scenario import load_scenario, parse_expression
from valforge.values import INF, Value


def qv(*coords):
    return Value(Fraction(c) for c in coords)


class TestScalars:
    def test_prime_check(self):
        PrimeField(2)
        PrimeField(13)
        with pytest.raises(ValueError):
            PrimeField(9)
        with pytest.raises(ValueError):
            PrimeField(1)

    def test_prime_check_matches_trial_division(self):
        for n in range(10 ** 5):
            want = n > 1 and all(n % d for d in range(2, isqrt(n) + 1))
            assert _is_prime(n) == want, n

    def test_prime_check_refuses_strong_pseudoprimes(self):
        # strong pseudoprimes to the prime bases up to 7 and up to 23, and a
        # composite beside a prime
        for n in (3215031751, 3825123056546413051, 10 ** 18 + 1):
            assert not _is_prime(n)
        assert _is_prime(10 ** 18 + 3)

    def test_prime_check_refuses_what_its_bases_cannot_decide(self):
        # the limit is the least composite that passes every base
        with pytest.raises(ValueError, match="too large"):
            PrimeField(_PRIME_LIMIT)
        with pytest.raises(ValueError, match="too large"):
            _is_prime(2 ** 127 - 1)

    def test_prime_inverse_randomized(self):
        rng = random.Random(3)
        for p in (2, 3, 7):
            f = PrimeField(p)
            for _ in range(20):
                a = rng.randint(1, p - 1)
                assert f.mul(a, f.inv(a)) == f.one

    def test_rationals(self):
        assert QQ.div(Fraction(3), Fraction(2)) == Fraction(3, 2)
        assert QQ.pow(Fraction(1, 2), 3) == Fraction(1, 8)

    def test_rational_inverse_of_an_int_is_exact(self):
        for got, want in ((QQ.inv(3), Fraction(1, 3)),
                          (QQ.div(2, 3), Fraction(2, 3))):
            assert type(got) is Fraction and got == want


class TestScalarPolys:
    def setup_method(self):
        self.sp = ScalarPolys(QQ)

    def test_divmod_identity_randomized(self):
        rng = random.Random(5)
        sp = ScalarPolys(PrimeField(5))
        for _ in range(60):
            f = sp.trim([rng.randint(0, 4) for _ in range(rng.randint(0, 6))])
            g = sp.trim([rng.randint(0, 4) for _ in range(rng.randint(1, 4))])
            if not g:
                continue
            q, r = sp.divmod(f, g)
            assert sp.add(sp.mul(q, g), r) == f
            assert not r or sp.degree(r) < sp.degree(g)

    def test_xgcd(self):
        sp = self.sp
        f = sp.trim([Fraction(-1), Fraction(0), Fraction(1)])  # T^2 - 1
        g = sp.trim([Fraction(-1), Fraction(1)])  # T - 1
        d, s, t = sp.xgcd(f, g)
        assert d == g
        assert sp.add(sp.mul(s, f), sp.mul(t, g)) == d

    def test_xgcd_coprime_gives_inverse(self):
        sp = ScalarPolys(PrimeField(3))
        f = (1, 0, 1)  # T^2 + 1, irreducible mod 3
        g = (1, 1)  # T + 1
        d, s, t = sp.xgcd(f, g)
        assert d == (1,)
        assert sp.mod(sp.mul(t, g), f) == (1,)

    def test_format(self):
        sp = self.sp
        assert sp.format((Fraction(-1), Fraction(0), Fraction(1)), "T") == "T^2 - 1"
        assert sp.format((), "T") == "0"


class TestFactorization:
    def test_split_over_q(self):
        got = factor_scalar_poly(QQ, (Fraction(-1), Fraction(0), Fraction(1)))
        assert got == [((Fraction(-1), Fraction(1)), 1), ((Fraction(1), Fraction(1)), 1)]

    def test_perfect_power(self):
        # (T - 1)^2
        got = factor_scalar_poly(QQ, (Fraction(1), Fraction(-2), Fraction(1)))
        assert got == [((Fraction(-1), Fraction(1)), 2)]

    def test_split_mod_3(self):
        p3 = PrimeField(3)
        got = factor_scalar_poly(p3, (2, 0, 1))  # T^2 - 1 mod 3
        assert got == [((1, 1), 1), ((2, 1), 1)]

    def test_irreducible_mod_3(self):
        p3 = PrimeField(3)
        got = factor_scalar_poly(p3, (1, 0, 1))
        assert got == [((1, 0, 1), 1)]

    def test_full_split_mod_3(self):
        p3 = PrimeField(3)
        got = factor_scalar_poly(p3, (0, 2, 0, 1))  # T^3 - T
        assert got == [((0, 1), 1), ((1, 1), 1), ((2, 1), 1)]


def factor_order(domain, pairs):
    """(factor, multiplicity) pairs sorted the way `factor_scalar_poly`
    sorts."""
    return sorted(pairs, key=lambda fm: (len(fm[0]),
                                         [domain.sort_key(c) for c in fm[0]]))


def sympy_factors(domain, coeffs):
    """sympy's factorization over F_p, made monic and sorted the way
    `factor_scalar_poly` sorts."""
    import sympy

    p, sp = domain.char, domain.polys
    poly = sympy.Poly([int(c) for c in reversed(coeffs)], sympy.Symbol("T"),
                      modulus=p)
    return factor_order(domain, [
        (sp.monic(sp.trim([int(c) % p for c in reversed(fac.all_coeffs())])),
         int(m)) for fac, m in poly.factor_list()[1]])


def sympy_factors_q(coeffs):
    """sympy's factorization over Q, made monic and sorted the way
    `factor_scalar_poly` sorts."""
    import sympy

    sp = QQ.polys
    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(coeffs)], sympy.Symbol("T"),
                      domain="QQ")
    return factor_order(QQ, [
        (sp.monic(sp.trim([Fraction(int(c.p), int(c.q))
                           for c in reversed(fac.all_coeffs())])), int(m))
        for fac, m in poly.factor_list()[1]])


@st.composite
def mod_p_polys(draw):
    """A prime field and a non-monic polynomial of degree 1-12 over it: a
    random one, one with a repeated factor, or an inseparable g(T^p) or
    g(T^p)^2."""
    p = draw(st.sampled_from((2, 3, 5)))
    domain = PrimeField(p)
    sp = domain.polys

    def poly(lo, hi):
        body = draw(st.lists(st.integers(0, p - 1), min_size=lo, max_size=hi))
        return sp.trim(body + [draw(st.integers(1, p - 1))])

    kind = draw(st.sampled_from(("random", "repeated", "inseparable",
                                 "inseparable squared")))
    if kind == "random":
        f = poly(1, 12)
    elif kind == "repeated":
        g = poly(1, 3)
        f = sp.mul(sp.pow(g, draw(st.integers(2, 12 // len(g)))), poly(0, 2))
        f = f if sp.degree(f) <= 12 else sp.pow(g, 2)
    else:
        g = poly(1, 12 // p // (2 if kind == "inseparable squared" else 1))
        f = sp.trim([g[i // p] if i % p == 0 else 0
                     for i in range(p * (len(g) - 1) + 1)])
        if kind == "inseparable squared":
            f = sp.mul(f, f)
    return domain, sp.scale(f, draw(st.integers(1, p - 1)))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(mod_p_polys())
def test_factor_mod_p_matches_sympy(case):
    domain, f = case
    assert 1 <= domain.polys.degree(f) <= 12
    assert factor_scalar_poly(domain, f) == sympy_factors(domain, f)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(mod_p_polys())
def test_factor_mod_p_rebuilds_monic_input(case):
    domain, f = case
    sp = domain.polys
    out = sp.one()
    for g, m in factor_scalar_poly(domain, f):
        assert g[-1] == domain.one
        out = sp.mul(out, sp.pow(g, m))
    assert out == sp.monic(f)


@st.composite
def rational_polys(draw):
    """A polynomial of degree 1-12 over Q with coefficients of denominator
    up to 6, so mostly neither integral nor monic: a random one, or a
    product of up to four random factors of degree 1-3, each raised to a
    power of up to 3."""
    sp = QQ.polys
    coeff = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))

    def poly(lo, hi):
        body = draw(st.lists(coeff, min_size=lo, max_size=hi))
        return sp.trim(body + [draw(coeff.filter(bool))])

    if draw(st.booleans()):
        return poly(1, 12)
    f = sp.one()
    for _ in range(draw(st.integers(1, 4))):
        g = sp.pow(poly(1, 3), draw(st.integers(1, 3)))
        if sp.degree(f) + sp.degree(g) <= 12:
            f = sp.mul(f, g)
    return f


@settings(derandomize=True, max_examples=300, deadline=None)
@given(rational_polys())
def test_factor_over_q_matches_sympy(f):
    assert 1 <= QQ.polys.degree(f) <= 12
    assert factor_scalar_poly(QQ, f) == sympy_factors_q(f)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(rational_polys())
def test_factor_over_q_rebuilds_monic_input(f):
    sp = QQ.polys
    out = sp.one()
    for g, m in factor_scalar_poly(QQ, f):
        assert g[-1] == 1
        out = sp.mul(out, sp.pow(g, m))
    assert out == sp.monic(f)


X4_MINUS_10X2_PLUS_1 = tuple(map(Fraction, (1, 0, -10, 0, 1)))
X4_PLUS_1 = tuple(map(Fraction, (1, 0, 0, 0, 1)))


@pytest.mark.parametrize("f, irreducible", [
    (X4_MINUS_10X2_PLUS_1, True),
    (X4_PLUS_1, True),
    (QQ.polys.mul(X4_MINUS_10X2_PLUS_1, X4_PLUS_1), False),
])
def test_factor_over_q_recombines(f, irreducible):
    # both quartics are irreducible over Q but split mod every prime, so
    # only the recombination of the lifted factors mod p finds the answer
    got = factor_scalar_poly(QQ, f)
    assert got == sympy_factors_q(f)
    assert (got == [(f, 1)]) == irreducible


@pytest.mark.parametrize("domain, f", [
    (QQ, (Fraction(3), Fraction(-2))),
    (PrimeField(2), (1, 1)),
    (PrimeField(5), (3, 2)),
])
def test_linear_input_is_its_own_factor(domain, f):
    assert factor_scalar_poly(domain, f) == [(domain.polys.monic(f), 1)]


class TestRationalFunctions:
    def setup_method(self):
        self.F = RationalFunctions(QQ, "y")
        self.y = self.F.atom("y")

    def test_valuation(self):
        F, y = self.F, self.y
        y3 = F.pow(y, 3)
        assert F.valuate(y3) == qv(3)
        assert F.valuate(F.div(F.pow(y, 2), F.pow(y, 5))) == qv(-3)
        assert F.valuate(F.add(F.from_int(2), y)) == qv(0)
        assert F.valuate(F.zero) is INF

    def test_residue(self):
        F, y = self.F, self.y
        assert F.unit_residue(F.add(F.from_int(2), y), F.one) == Fraction(2)
        x = F.mul(F.from_int(3), F.pow(y, 2))
        assert F.unit_residue(x, F.canonical_element(qv(2))) == Fraction(3)
        with pytest.raises(ValueError):
            F.unit_residue(y, F.one)

    def test_canonical_element(self):
        F = self.F
        assert F.valuate(F.canonical_element(qv(-2))) == qv(-2)
        assert F.eq(F.canonical_element(qv(0)), F.one)

    def test_field_axioms_randomized(self):
        rng = random.Random(9)
        F = RationalFunctions(PrimeField(3), "t")
        t = F.atom("t")

        def rand_elem():
            num = [rng.randint(0, 2) for _ in range(rng.randint(1, 4))]
            acc = F.zero
            for i, c in enumerate(num):
                acc = F.add(acc, F.mul(F.from_int(c), F.pow(t, i)))
            return acc

        for _ in range(40):
            a, b = rand_elem(), rand_elem()
            assert F.eq(F.add(a, b), F.add(b, a))
            assert F.eq(F.sub(F.add(a, b), b), a)
            if not F.is_zero(b):
                assert F.eq(F.mul(F.div(a, b), b), a)

    def test_valuation_is_multiplicative_randomized(self):
        rng = random.Random(10)
        F, y = self.F, self.y
        for _ in range(30):
            a = F.add(F.pow(y, rng.randint(0, 4)), F.mul(F.from_int(rng.randint(1, 5)), F.pow(y, rng.randint(0, 4))))
            b = F.add(F.pow(y, rng.randint(0, 4)), F.from_int(rng.randint(1, 3)))
            assert F.valuate(F.mul(a, b)) == F.valuate(a) + F.valuate(b)

    def test_format(self):
        F, y = self.F, self.y
        e = F.sub(F.pow(y, 3), F.from_int(2))
        assert F.format_element(e) == "y^3 - 2"


POLY_FIELDS = {"Q(y)": QQ, "F_2(y)": PrimeField(2), "F_5(y)": PrimeField(5)}
NUMERATORS = st.lists(st.integers(-4, 4), max_size=5)


@pytest.mark.parametrize("name", sorted(POLY_FIELDS))
@settings(derandomize=True, max_examples=60, deadline=None)
@given(a=NUMERATORS, b=NUMERATORS, da=st.integers(1, 6), db=st.integers(1, 6))
def test_polynomial_fast_path_is_canonical(name, a, b, da, db):
    """add and mul of two elements with constant denominators (a positive
    integer over Q, always 1 over F_p) skip the polynomial gcd of _make;
    their results equal what _make builds from the same numerator and
    denominator, as structures."""
    F = RationalFunctions(POLY_FIELDS[name], "y")
    sp = F.sp
    if F.char:
        da = db = 1
    x = F._make([sp.domain.from_int(c) for c in a], (da,))
    y = F._make([sp.domain.from_int(c) for c in b], (db,))
    assert F.add(x, y) == F._make(
        sp.add(sp.mul(x[0], y[1]), sp.mul(y[0], x[1])), sp.mul(x[1], y[1]))
    assert F.mul(x, y) == F._make(sp.mul(x[0], y[0]), sp.mul(x[1], y[1]))


RATIONALS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
Q_POLYS = st.lists(RATIONALS, max_size=4)


def _sympy_parts(expr, y):
    """(valuation, lowest-order coefficient ratio, numerator and denominator
    coefficients constant first over Q) of sympy's cancelled form of expr,
    scaled so that the denominator's lowest coefficient is 1."""
    import sympy

    num, den = (sympy.Poly(part, y, domain="QQ")
                for part in sympy.fraction(sympy.cancel(expr)))
    coeffs = [[Fraction(int(c.p), int(c.q)) for c in reversed(f.all_coeffs())]
              for f in (num, den)]
    low = [next(i for i, c in enumerate(cs) if c) for cs in coeffs]
    unit = coeffs[1][low[1]]
    coeffs = [QQ.polys.trim([c / unit for c in cs]) for cs in coeffs]
    return (low[0] - low[1], coeffs[0][low[0]] / coeffs[1][low[1]],
            coeffs[0], coeffs[1])


@settings(derandomize=True, max_examples=150, deadline=None)
@given(a=Q_POLYS, b=Q_POLYS.filter(any), c=Q_POLYS.filter(any),
       s=RATIONALS.filter(bool))
def test_rational_functions_over_q_are_canonical_integer_pairs(a, b, c, s):
    """Over Q an element is a pair of integer polynomials whose form does not
    depend on how the fraction was reached: cancelling a common factor c or
    a rational scale s gives the same structure and hash.  Values, residues
    and printed forms agree with sympy's cancelled fraction."""
    import sympy

    F = RationalFunctions(QQ, "y")
    t = F.atom("y")

    def elem(cs):
        out = F.zero
        for i, k in enumerate(cs):
            out = F.add(out, F.mul(F.lift_scalar(k), F.pow(t, i)))
        return out

    ea, eb, ec, es = elem(a), elem(b), elem(c), F.lift_scalar(s)
    x = F.div(ea, eb)
    for other in (F.div(F.mul(ea, ec), F.mul(eb, ec)),
                  F.div(F.mul(es, ea), F.mul(eb, es))):
        assert other == x and hash(other) == hash(x)
    for e in (ea, eb, ec, es, x):
        assert all(type(k) is int for part in e for k in part)
    if F.is_zero(x):
        assert x == F.zero and F.valuate(x) is INF
        return
    y = sympy.Symbol("y")

    def expr(cs):
        return sum(sympy.Rational(k.numerator, k.denominator) * y**i
                   for i, k in enumerate(cs))

    v, ratio, num, den = _sympy_parts(expr(a) / expr(b), y)
    assert F.valuate(x) == Value([v])
    got = F.unit_residue(x, F.canonical_element(Value([v])))
    assert type(got) is Fraction and got == ratio
    if v == 0:
        assert F.unit_residue(x, F.one) == ratio
    want = QQ.polys.format(num, "y")
    if den != (1,):
        want = "(%s)/(%s)" % (want, QQ.polys.format(den, "y"))
    assert F.format_element(x) == want


@pytest.mark.parametrize("name", sorted(POLY_FIELDS))
def test_general_denominators_still_reduce(name):
    F = RationalFunctions(POLY_FIELDS[name], "y")
    y = F.atom("y")
    one_plus_y = F.add(F.one, y)
    assert F.add(F.div(y, one_plus_y), F.div(F.one, one_plus_y)) == F.one
    assert F.mul(F.div(y, one_plus_y), F.div(one_plus_y, y)) == F.one


class TestLexMonomialSeries:
    def setup_method(self):
        self.F = LexMonomialSeries(PrimeField(3), ("z", "y"))
        self.z = self.F.atom("z")
        self.y = self.F.atom("y")

    def test_lex_valuation(self):
        F, z, y = self.F, self.z, self.y
        assert F.valuate(F.pow(z, 6)) == qv(6, 0)
        assert F.valuate(F.mul(F.pow(y, 3), F.pow(z, 9))) == qv(9, 3)
        # y-part is infinitesimal against z: y^3 + z leads with y^3
        assert F.valuate(F.add(F.pow(y, 3), z)) == qv(0, 3)
        assert F.valuate(F.zero) is INF

    def test_arithmetic(self):
        F, z, y = self.F, self.z, self.y
        left = F.mul(F.add(y, z), F.sub(y, z))
        right = F.sub(F.mul(y, y), F.mul(z, z))
        assert F.eq(left, right)

    def test_division_by_monomial_only(self):
        F, z, y = self.F, self.z, self.y
        q = F.div(F.mul(F.pow(z, 6), F.pow(y, 3)), F.pow(z, 3))
        assert F.valuate(q) == qv(3, 3)
        with pytest.raises(UnsupportedStructure):
            F.div(F.one, F.add(y, z))

    def test_residue(self):
        F, z, y = self.F, self.z, self.y
        x = F.mul(F.from_int(2), F.mul(F.pow(z, 3), F.pow(y, 2)))
        assert F.unit_residue(x, F.canonical_element(qv(3, 2))) == 2

    def test_canonical_laurent(self):
        F = self.F
        assert F.valuate(F.canonical_element(qv(-3, 5))) == qv(-3, 5)

    def test_zero_mod_precision(self):
        F = LexMonomialSeries(PrimeField(3), ("z", "y"), precision={"y": 40})
        z, y = F.atom("z"), F.atom("y")
        deep = F.mul(F.pow(z, 9), F.pow(y, 81))
        assert F.is_zero_mod_precision(deep)
        assert not F.is_zero_mod_precision(F.mul(F.pow(z, 9), F.pow(y, 39)))
        assert not F.is_zero(deep)

    def test_format(self):
        F, z, y = self.F, self.z, self.y
        e = F.sub(F.pow(y, 3), F.mul(F.pow(z, 2), y))
        assert F.format_element(e) == "y^3 + 2*z^2*y"


class TestCoordinateTower:
    def setup_method(self):
        self.F = CoordinateTower(2, 1, 8)

    def test_atom_values(self):
        F = self.F
        assert F.valuate(F.atom("u")) == qv(1)
        assert F.valuate(F.atom("v")) == qv(Fraction(1, 2))
        assert F.valuate(F.atom("v3")) == qv(Fraction(1, 8))
        assert F.valuate(F.atom("u3")) == qv(Fraction(1, 4))
        with pytest.raises(KeyError):
            F.atom("v99")

    def test_defining_relation(self):
        # u = v^p * (v2 + gamma) exactly
        F = self.F
        v, v2 = F.atom("v"), F.atom("v2")
        rhs = F.mul(F.mul(v, v), F.add(v2, F.one))
        assert F.eq(F.atom("u"), rhs)

    def test_cancellation_values(self):
        # v(u - v^p) = 1 + 1/p^2 and v(v - gamma*v2^p) = 1/p + 1/p^3:
        # the cross terms cancel and the value jumps by two tower steps
        F = self.F
        u, v, v2 = F.atom("u"), F.atom("v"), F.atom("v2")
        assert F.valuate(F.sub(u, F.mul(v, v))) == qv(Fraction(5, 4))
        assert F.valuate(F.sub(v, F.mul(v2, v2))) == qv(Fraction(5, 8))

    def test_cancellation_values_p3(self):
        F = CoordinateTower(3, 1, 6)
        u, v, v2 = F.atom("u"), F.atom("v"), F.atom("v2")
        v3cube = F.pow(v2, 3)
        assert F.valuate(F.sub(v, v3cube)) == qv(Fraction(10, 27))
        assert F.valuate(F.sub(u, F.pow(v, 3))) == qv(Fraction(10, 9))

    def test_residue(self):
        F = self.F
        u, v = F.atom("u"), F.atom("v")
        # u / v^2 = v2 + 1, residue 1
        assert F.unit_residue(u, F.mul(v, v)) == 1
        # (u + v^2) / (v^2 * v2) = 1
        x = F.sub(u, F.mul(v, v))
        d = F.mul(F.mul(v, v), F.atom("v2"))
        assert F.unit_residue(x, d) == 1

    def test_canonical_element(self):
        F = self.F
        for val in (qv(1), qv(Fraction(5, 4)), qv(Fraction(-3, 8))):
            assert F.valuate(F.canonical_element(val)) == val

    def test_depth_exhaustion(self):
        F = CoordinateTower(2, 1, 2)
        v, v2 = F.atom("v"), F.atom("v2")
        with pytest.raises(InsufficientPrecision):
            F.valuate(F.sub(v, F.mul(v2, v2)))
        with pytest.raises(ValueError, match="depth must be at least 1"):
            CoordinateTower(2, 1, 0)

    def test_field_axioms_randomized(self):
        rng = random.Random(21)
        F = self.F
        atoms = [F.atom(n) for n in ("u", "v", "v2", "u2", "v3")]

        def rand_elem():
            acc = F.zero
            for _ in range(rng.randint(1, 3)):
                term = F.from_int(1)
                for _ in range(rng.randint(0, 2)):
                    term = F.mul(term, rng.choice(atoms))
                acc = F.add(acc, term)
            return acc

        for _ in range(25):
            a, b = rand_elem(), rand_elem()
            assert F.eq(F.add(a, b), F.add(b, a))
            assert F.eq(F.sub(F.add(a, b), b), a)
            if not F.is_zero(b):
                assert F.eq(F.mul(F.div(a, b), b), a)

    def test_valuation_is_multiplicative(self):
        F = self.F
        xs = [F.atom("u"), F.add(F.atom("v"), F.atom("v2")), F.sub(F.atom("u"), F.mul(F.atom("v"), F.atom("v")))]
        for a in xs:
            for b in xs:
                assert F.valuate(F.mul(a, b)) == F.valuate(a) + F.valuate(b)


# random polynomial tower elements: terms (coefficient, ((level, exp), ...))
TOWER_TERMS = st.lists(
    st.tuples(st.integers(1, 4),
              st.lists(st.tuples(st.integers(1, 8), st.integers(1, 3)),
                       max_size=3)),
    min_size=1, max_size=4)
DEPTH_8_TOWERS = {p: CoordinateTower(p, 1, 8) for p in (2, 3, 5)}


def _tower_element(F, terms):
    x = F.zero
    for c, mono in terms:
        t = F.from_int(c)
        for lvl, n in mono:
            t = F.mul(t, F.pow(F.atom("v%d" % lvl), n))
        x = F.add(x, t)
    return x


@settings(derandomize=True, max_examples=200, deadline=None)
@given(p=st.sampled_from(sorted(DEPTH_8_TOWERS)), a=TOWER_TERMS, b=TOWER_TERMS)
def test_tower_spelling_round_trip_and_multiplicativity(p, a, b):
    # the printed spelling re-encodes every monomial through the atoms, and
    # the value of a product is the sum of the values
    F = DEPTH_8_TOWERS[p]
    x, y = _tower_element(F, a), _tower_element(F, b)
    xy = F.mul(x, y)
    for z in (x, y, xy):
        assert parse_expression(F, "y", F.format_element(z)).constant_term() == z
    try:
        vxy, vx, vy = F.valuate(xy), F.valuate(x), F.valuate(y)
    except InsufficientPrecision:
        reject()
    assert vxy == vx + vy


def _power(F, x, n):
    out = F.one
    while n:
        if n & 1:
            out = F.mul(out, x)
        n >>= 1
        if n:
            x = F.mul(x, x)
    return out


def test_tower_refuses_monomials_beyond_their_exponent_fields():
    # a stored monomial has value below 2^31; every way of making a larger
    # one is refused instead of spilling into the next exponent field
    F = CoordinateTower(2, 1, 8)
    with pytest.raises(InsufficientPrecision, match=r"v\^2199023255552 has value 2\^31"):
        F.canonical_element(Value([2**40]))
    assert F.valuate(F.canonical_element(Value([2**31 - 1]))) == qv(2**31 - 1)
    v = F.atom("v")
    big = _power(F, v, 2**32 - 1)
    assert F.valuate(big) == qv(Fraction(2**32 - 1, 2))
    with pytest.raises(InsufficientPrecision, match="product of v"):
        F.mul(big, v)
    # v^e and v2^(2e) tie at value e/2; rewriting v^e adds up to v3^e, and
    # e has three binary digits, so (v3 + 1)^e has only eight terms
    e = 2**32 - 2**29
    tie = F.sub(_power(F, v, e), _power(F, F.atom("v2"), 2 * e))
    with pytest.raises(InsufficientPrecision, match=r"v\^3758096384 rewritten"):
        F.valuate(tie)


TOWER_UNITS = [(p, g) for p in (2, 3, 5, 7) for g in range(1, p)]


@pytest.mark.parametrize("p, gamma", TOWER_UNITS,
                         ids=["p%d-g%d" % pg for pg in TOWER_UNITS])
def test_tower_unit_block_is_the_binomial_power(p, gamma):
    # (gamma + V)^e through base-p digits equals the dense power over F_p
    F = CoordinateTower(p, gamma, 4)
    sp = F.scalars.polys
    power = (1,)
    for e in range(3 * p * p + 1):
        assert F._unit_block(e, gamma) == {i: c for i, c in enumerate(power) if c}
        power = sp.mul(power, (gamma, 1))


@pytest.mark.parametrize("p, gamma", TOWER_UNITS,
                         ids=["p%d-g%d" % pg for pg in TOWER_UNITS])
def test_tower_cancellation_and_residue_for_every_unit(p, gamma):
    F = CoordinateTower(p, gamma, 4)
    u, v, v2 = F.atom("u"), F.atom("v"), F.atom("v2")
    g = F.from_int(gamma)
    vp = F.pow(v, p)
    assert F.valuate(F.sub(u, F.mul(g, vp))) == qv(1 + Fraction(1, p**2))
    assert F.valuate(F.sub(v, F.mul(g, F.pow(v2, p)))) == \
        qv(Fraction(1, p) + Fraction(1, p**3))
    assert F.unit_residue(u, vp) == gamma


# ---------------------------------------------------------------------------
# elements are values: no operation changes its operands or the shared constants


def _random_lex(rng):
    F = LexMonomialSeries(PrimeField(3), ("z", "y"))

    def elem(monomial=False):
        acc = F.zero
        for _ in range(1 if monomial else rng.randint(1, 4)):
            mono = F.canonical_element(Value([rng.randrange(-2, 3),
                                              rng.randrange(-2, 3)]))
            acc = F.add(acc, F.mul(F.lift_scalar(rng.randrange(1, 3)), mono))
        return acc

    return F, elem


def _random_tower(rng):
    F = CoordinateTower(2, 1, 8)
    atoms = [F.atom(n) for n in ("u", "v", "v2", "u2", "v3")]

    def elem(monomial=False):
        acc = F.zero
        for _ in range(1 if monomial else rng.randint(1, 3)):
            term = F.from_int(1)
            for _ in range(rng.randint(0, 2)):
                term = F.mul(term, rng.choice(atoms))
            acc = F.add(acc, term)
        if not monomial and rng.randrange(2):
            acc = F.div(acc, F.add(rng.choice(atoms), F.one))
        return acc

    return F, elem


def _random_rational(rng):
    F = RationalFunctions(QQ, "y")
    y = F.atom("y")

    def elem(monomial=False):
        acc = F.zero
        for _ in range(1 if monomial else rng.randint(1, 3)):
            c = F.lift_scalar(Fraction(rng.randint(1, 5), rng.randint(1, 3)))
            acc = F.add(acc, F.mul(c, F.pow(y, rng.randint(0, 3))))
        if not monomial and rng.randrange(2):
            acc = F.div(acc, F.add(y, F.from_int(rng.randint(1, 3))))
        return acc

    return F, elem


@pytest.mark.parametrize("make", [_random_lex, _random_tower, _random_rational],
                         ids=["lex", "tower", "Q(y)"])
def test_operations_never_change_their_operands(make):
    rng = random.Random(77)
    F, elem = make(rng)
    zero, one = copy.deepcopy(F.zero), copy.deepcopy(F.one)

    def check(op, *args):
        before = copy.deepcopy(args)
        op(*args)
        assert args == before, op.__name__
        assert F.zero == zero and F.one == one, op.__name__

    for _ in range(20):
        a, b, m = elem(), elem(), elem(monomial=True)
        if F.is_zero(a) or F.is_zero(m):
            continue
        for x in (a, b, F.zero, F.one):
            for y in (a, b, m, F.zero, F.one):
                check(F.add, x, y)
                check(F.sub, x, y)
                check(F.mul, x, y)
            check(F.neg, x)
            check(F.valuate, x)
        check(F.inv, m)
        check(F.inv, F.one)
        va = F.valuate(a)
        check(F.canonical_element, va)
        check(F.unit_residue, a, F.canonical_element(va))
        check(F.unit_residue, a, a)
        check(F.lift_scalar, F.scalars.one)
        check(F.lift_scalar, F.scalars.zero)


@pytest.mark.parametrize("name", ["cubic_char3", "quintic_tower"])
def test_explore_leaves_shared_constants_alone(name):
    sc = load_scenario(name)
    F = sc.field
    zero, one = copy.deepcopy(F.zero), copy.deepcopy(F.one)
    chains, _ = run_scenario(sc)
    assert chains
    assert F.zero == zero and F.one == one
