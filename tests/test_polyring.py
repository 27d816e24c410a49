import random
from fractions import Fraction

from valforge.fields import PrimeField, QQ, RationalFunctions
from valforge.polyring import Poly, standard_expansion
from valforge.values import Value


def rat_y():
    return RationalFunctions(QQ, "y")


def ypow(F, n):
    return F.canonical_element(Value((Fraction(n),)))


def test_construction_trims_and_degree():
    F = rat_y()
    x = Poly.variable(F, "x")
    assert x.degree == 1
    z = Poly(F, "x", (F.zero, F.zero))
    assert z.is_zero and z.degree == -1
    c = Poly.const(F, "x", F.from_int(3))
    assert c.degree == 0
    assert not c.is_monic
    assert x.is_monic


def test_arithmetic_identities():
    F = rat_y()
    x = Poly.variable(F, "x")
    y = Poly.const(F, "x", F.atom("y"))
    p = (x + y) * (x - y)
    q = x * x - y * y
    assert p.eq(q)
    assert (p - q).is_zero
    assert (x.pow(3)).degree == 3


def test_euclid_div_identity_randomized():
    F = RationalFunctions(PrimeField(5), "t")
    rng = random.Random(20260822)
    t = F.atom("t")

    def rand_poly(max_deg):
        deg = rng.randrange(max_deg + 1)
        coeffs = []
        for _ in range(deg + 1):
            a = rng.randrange(-2, 3)
            b = rng.randrange(5)
            coeffs.append(F.add(F.pow(t, abs(a)) if a >= 0 else F.div(F.one, F.pow(t, -a)), F.from_int(b)))
        return Poly(F, "x", coeffs)

    for _ in range(60):
        f = rand_poly(6)
        g = rand_poly(3)
        if g.is_zero:
            continue
        q, r = f.euclid_div(g)
        assert (q * g + r).eq(f)
        assert r.degree < g.degree


def test_expansion_of_quartic_in_quadratic_key():
    # P = Q^2 + (y^2 x + y^5) Q + y^8 with Q = x^2 - y^3, written out in x
    # and then re-expanded; the three coefficients must come back exactly.
    F = rat_y()
    x = Poly.variable(F, "x")
    yc = lambda n: Poly.const(F, "x", ypow(F, n))
    Q = x * x - yc(3)
    c1 = x.scale(ypow(F, 2)) + yc(5)
    c0 = yc(8)
    P = Q * Q + c1 * Q + c0
    assert P.degree == 4 and P.is_monic
    cs = standard_expansion(P, Q)
    assert len(cs) == 3
    assert cs[0].eq(c0)
    assert cs[1].eq(c1)
    assert cs[2].eq(Poly.const(F, "x", F.one))
    # reconstruction from the expansion is the identity oracle
    back = Poly.zero(F, "x")
    for j in range(len(cs) - 1, -1, -1):
        back = back * Q + cs[j]
    assert back.eq(P)


def test_expansion_reconstruction_randomized():
    F = RationalFunctions(PrimeField(3), "t")
    rng = random.Random(7)
    t = F.atom("t")
    for _ in range(40):
        f = Poly(F, "x", [F.mul(F.from_int(rng.randrange(3)), F.pow(t, rng.randrange(3)))
                          for _ in range(rng.randrange(1, 8))])
        q = Poly(F, "x", [F.from_int(rng.randrange(3)) for _ in range(rng.randrange(2, 4))])
        if q.degree < 1:
            continue
        q = q + Poly.variable(F, "x").pow(q.degree + 1)
        cs = standard_expansion(f, q)
        assert all(c.degree < q.degree for c in cs)
        back = Poly.zero(F, "x")
        for j in range(len(cs) - 1, -1, -1):
            back = back * q + cs[j]
        assert back.eq(f)


def test_format():
    F = rat_y()
    x = Poly.variable(F, "x")
    Q = x * x - Poly.const(F, "x", ypow(F, 3))
    assert Q.format() == "x^2 - y^3"
    p = x.scale(ypow(F, 2)) + Poly.const(F, "x", ypow(F, 5))
    assert p.format() == "y^2*x + y^5"
    assert Poly.zero(F, "x").format() == "0"
