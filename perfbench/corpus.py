"""Seeded corpus of random monic targets over Q(y) and F_p(y).

A target is kept as plain data: the characteristic p (0 for Q) and, for each
power of x below the leading one, a map from powers of y to integer
coefficients.  From that one record the benchmark builds the valforge
polynomial, the scenario text for the command line, and the integer
bivariate form that sympy labels.  The draws are not filtered: targets with
a repeated factor, or an inseparable one in characteristic p, keep their
natural rate.
"""

import random

CHARS = (0, 2, 3, 5)
DEGREES = (1, 8)
DEPTH = 8
WINDOW = 3
LABELS = ("squarefree", "repeated", "inseparable")


class Target:
    __slots__ = ("index", "p", "coeffs", "label")

    def __init__(self, index, p, coeffs, label=None):
        self.index = index
        self.p = p
        self.coeffs = coeffs      # coeffs[i] = {ydeg: int}, x^i, i < degree
        self.label = label

    @property
    def degree(self):
        return len(self.coeffs)


def draw_targets(seed, count):
    """`count` targets from one seeded stream: characteristic uniform over
    CHARS, degree uniform over DEGREES, and each lower coefficient a sum of
    zero to two terms c*y^k with c in [-2, 2] and k in [0, 2]."""
    rng = random.Random(seed)
    out = []
    for index in range(count):
        p = rng.choice(CHARS)
        deg = rng.randint(*DEGREES)
        coeffs = []
        for _ in range(deg):
            c = {}
            for _ in range(rng.randrange(0, 3)):
                k = rng.randrange(0, 3)
                c[k] = c.get(k, 0) + rng.randrange(-2, 3)
            coeffs.append(_reduce(c, p))
        out.append(Target(index, p, coeffs))
    return out


def _reduce(c, p):
    if p:
        c = {k: v % p for k, v in c.items()}
    return {k: v for k, v in sorted(c.items()) if v}


def poly_text(t):
    """Infix text of the target in x and y, as the scenario parser reads it."""
    parts = ["x^%d" % t.degree if t.degree > 1 else "x"]
    for i in range(t.degree - 1, -1, -1):
        c = t.coeffs[i]
        if not c:
            continue
        inner = " + ".join(_mono(v, k) for k, v in c.items())
        head = "" if i == 0 else ("x" if i == 1 else "x^%d" % i)
        parts.append("(%s)*%s" % (inner, head) if head else "(%s)" % inner)
    return " + ".join(parts)


def _mono(v, k):
    if k == 0:
        return "%d" % v
    return "%d*y" % v if k == 1 else "%d*y^%d" % (v, k)


def scenario_text(t):
    return ("[field]\nkind = rational_functions\nchar = %d\ngenerator = y\n\n"
            "[valuation]\nrank = 1\n\n"
            "[target]\nvar = x\npoly = %s\n\n"
            "[params]\ndepth = %d\nwindow = %d\nbranches = all\n"
            % (t.p, poly_text(t), DEPTH, WINDOW))


def build_poly(t):
    """The target as a valforge polynomial over Q(y) or F_p(y)."""
    from valforge.fields import PrimeField, QQ, RationalFunctions
    from valforge.polyring import Poly
    F = RationalFunctions(QQ if t.p == 0 else PrimeField(t.p), "y")
    y = F.atom("y")
    coeffs = []
    for c in t.coeffs:
        elem = F.zero
        for k, v in c.items():
            elem = F.add(elem, F.mul(F.from_int(v), F.pow(y, k)))
        coeffs.append(elem)
    coeffs.append(F.one)
    return Poly(F, "x", coeffs)


def label(t):
    """squarefree, repeated or inseparable, from the integer bivariate form
    over ZZ or GF(p).  A factor of positive x-degree divides gcd(P, P_x, P_y)
    exactly when it is repeated; an inseparable factor of multiplicity one
    divides P_x but not P_y."""
    import sympy
    x, y = sympy.symbols("x y")
    expr = x ** t.degree + sum(v * y ** k * x ** i
                               for i, c in enumerate(t.coeffs)
                               for k, v in c.items())
    opts = {"modulus": t.p} if t.p else {"domain": "ZZ"}
    P = sympy.Poly(expr, x, y, **opts)
    g = sympy.gcd(P, P.diff(x))
    if g.degree(x) == 0:
        return "squarefree"
    if sympy.gcd(g, P.diff(y)).degree(x) > 0:
        return "repeated"
    return "inseparable"
