"""Valued base fields and their exact arithmetic.

Three concrete coefficient fields cover every scenario the engine handles:

* `RationalFunctions`: K = k(t) with the t-adic valuation, k the rationals or a
  prime field.  Elements are reduced fractions of dense polynomials over the
  integers (k = Q, as `ZZ` polynomials with integer content 1 together) or
  over F_p, so equal elements are equal tuples of ints.
* `LexMonomialSeries`: Laurent polynomials in several variables over a prime
  field, valued by the lexicographic exponent order (first variable dominant).
  A monomial is one int that packs its signed exponents in 64-bit fields,
  first variable on top, so integer order is the lex order and a product of
  monomials is an integer sum.  Elements are plain {monomial: scalar} dicts
  with exact arithmetic, and a product reduces each coefficient mod p once;
  an exponent outside [-2^31, 2^31) is refused.  An optional per-variable
  precision box is the tolerance for accepting a terminal key, whose
  remainder may keep only terms outside the box.
* `CoordinateTower`: the fraction field of a 2-variable coordinate tower
  u_i = v_i^p (v_{i+1} + gamma_{i+1}), v_i = u_{i+1}, with v(u_1) = 1 and
  v(v_i) = 1/p^i.  A monomial in the v-atoms is one int that packs its
  exponents and, above them, its value, so a product of monomials is an
  integer sum and a value one shift; a tied minimum is rewritten one atom
  deeper, and only where it ties, until a lone leading term certifies the
  value.

No field changes an element in place: every operation builds a new element
or hands back one of its operands or a shared constant, so each field keeps
one `zero` and one `one` and never copies them.

All fields share one duck-typed interface (see ValuedFieldBase) consumed by the
polynomial ring and the chain engine: exact arithmetic, `valuate`, residues of
units against canonical elements, canonical elements for base-group values, and
named atoms for the scenario expression parser.
"""

import random
from bisect import bisect_right
from fractions import Fraction
from functools import cached_property, reduce
from itertools import combinations, count
from math import comb, gcd, lcm

from .polyring import Domain, NumberPolys, _power, format_terms
from .values import INF, Value, ValueGroup, format_rational


class Refusal(Exception):
    """The engine declines an input, and says why: the one type every typed
    refusal derives from, and the one its callers catch."""


class InsufficientPrecision(Refusal):
    """A leading term was requested that the declared precision cannot certify."""


class UnsupportedStructure(Refusal):
    """The input is legal mathematics but outside what this engine implements."""


# ---------------------------------------------------------------------------
# scalar domains (residue fields)


class Integers(Domain):
    """The ring Z with int elements.  It has no `inv`: the dense core over Z
    (`NumberPolys`, also that of `Rationals`) divides only by monic
    polynomials, whose lead it never inverts."""

    zero = 0
    one = 1

    @cached_property
    def polys(self):
        return NumberPolys(self)

    def from_int(self, n):
        return n

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def is_zero(self, a):
        return a == 0

    def __repr__(self):
        return "ZZ"


class Rationals(Integers):
    """The field Q with Fraction elements.  Python's operators do its ring
    arithmetic as they do that of `Integers`; it adds inverses, a sort key
    and a format."""

    char = 0

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return Fraction(1) / a

    def sort_key(self, a):
        return (a.numerator, a.denominator)

    def format(self, a):
        return format_rational(a)

    def __repr__(self):
        return "Q"


class _IntegersMod(Domain):
    """The ring Z/mZ with int elements in [0, m).  Only `PrimeField` can
    invert; Hensel lifting over Q runs on Z/p^kZ and divides by monic
    polynomials alone, which `NumberPolys.divmod` never inverts.  The
    dense core, also that of `PrimeField`, reduces each output coefficient
    mod m once."""

    def __init__(self, m):
        self.m = m
        self.zero = 0
        self.one = 1 % m

    @cached_property
    def polys(self):
        return NumberPolys(self, self.m)

    def from_int(self, n):
        return n % self.m

    def add(self, a, b):
        return (a + b) % self.m

    def mul(self, a, b):
        return (a * b) % self.m

    def neg(self, a):
        return (-a) % self.m

    def is_zero(self, a):
        return a % self.m == 0


# the primes 2 to 41 as Miller-Rabin bases decide primality exactly for
# every n below _PRIME_LIMIT (Sorenson and Webster, "Strong pseudoprimes to
# twelve prime bases", Math. Comp. 2017)
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_LIMIT = 3317044064679887385961981


def _is_prime(n):
    """Deterministic Miller-Rabin over `_PRIME_BASES`; an n at or above
    `_PRIME_LIMIT`, where those bases do not decide, is refused."""
    if n >= _PRIME_LIMIT:
        raise ValueError("%d is too large: a characteristic must be below %d"
                         % (n, _PRIME_LIMIT))
    if n < 2:
        return False
    for b in _PRIME_BASES:
        if n % b == 0:
            return n == b
    if n < 43 * 43:
        return True     # a composite below 43^2 has a prime factor up to 41
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for b in _PRIME_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField(_IntegersMod):
    """The field F_p with int elements in [0, p)."""

    def __init__(self, p):
        if not _is_prime(p):
            raise ValueError("%d is not prime" % p)
        super().__init__(p)
        self.p = self.char = p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def pow(self, a, n):
        if n < 0:
            return pow(self.inv(a), -n, self.p)
        return pow(a, n, self.p)

    def sort_key(self, a):
        return (a % self.p,)

    def format(self, a):
        return str(a % self.p)

    def __repr__(self):
        return "GF(%d)" % self.p


QQ = Rationals()
ZZ = Integers()


def factor_scalar_poly(domain, coeffs):
    """Monic irreducible factors of a univariate polynomial over Q or F_p, as a
    deterministically sorted list of (coeffs, multiplicity) pairs.  The leading
    unit is dropped.  A linear input is its own factor.  Both fields are
    factored here: F_p by `_factor_finite`, Q by `_factor_rational`."""
    sp = domain.polys
    f = sp.trim(coeffs)
    if sp.degree(f) < 1:
        return []
    f = sp.monic(f)
    if sp.degree(f) == 1:
        return [(f, 1)]
    if domain.char:
        out = _factor_finite(sp, f, domain.char, domain.char)
    else:
        out = _factor_rational(sp, f)
    out.sort(key=lambda fm: (len(fm[0]), [domain.sort_key(c) for c in fm[0]]))
    return out


def _derivative(sp, f):
    """The formal derivative of f."""
    dom = sp.domain
    return sp.trim([dom.mul(a, dom.from_int(i)) for i, a in enumerate(f) if i])


# Factoring over Q by Zassenhaus's method (J. Number Theory 1969; Cohen, A
# Course in Computational Algebraic Number Theory, 3.5): each squarefree part
# is made a monic integer polynomial F, factored mod a small prime p, lifted
# to a power of p above twice the Mignotte bound, and the true factors are
# the subset products of the lifted ones that divide F over Z.


def _factor_rational(sp, f):
    """Monic irreducible factors of the monic f over Q, with
    multiplicities, in no particular order."""
    return [(h, m) for g, m in _squarefree_parts(sp, f, 0, 0)
            for h in _zassenhaus(g)]


def _zassenhaus(g):
    """Monic irreducible factors over Q of the squarefree monic g: with D the
    lcm of its denominators, F(x) = D^n g(x/D) is monic over Z, and each
    factor H of F gives the factor D^-deg(H) H(Dx) of g."""
    n = len(g) - 1
    if n == 1:
        return [g]
    D = lcm(*(c.denominator for c in g))
    F = tuple(int(c * D ** (n - i)) for i, c in enumerate(g))
    for p in count(3, 2):
        if _is_prime(p):
            fp = PrimeField(p).polys
            Fp = tuple(c % p for c in F)
            if fp.degree(fp.gcd(Fp, _derivative(fp, Fp))) == 0:
                break
    factors = [u for u, _ in _factor_finite(fp, Fp, p, p)]
    if len(factors) == 1:
        return [g]
    m = p
    while m <= 2 ** (n + 1) * sum(map(abs, F)):
        m *= m
    # each lift splits one factor off the lifted product of the rest
    lifted, rest = [], F
    for u in factors[:-1]:
        u, rest = _hensel_lift(fp, rest, u, m)
        lifted.append(u)
    lifted.append(rest)
    return [tuple(Fraction(c, D ** (len(H) - 1 - i)) for i, c in enumerate(H))
            for H in _recombine(F, lifted, m)]


def _hensel_lift(fp, F, u, m):
    """(U, V) with F = U V mod m = p^(2^i) and U = u mod p, for a monic F
    known mod m and a monic factor u of F mod p coprime to its cofactor v.
    Quadratic Hensel lifting (von zur Gathen and Gerhard, Modern Computer
    Algebra, Algorithm 15.10) lifts the Bezout coefficients s v + t u = 1
    along; every division is by the monic lift of u."""
    mod = fp.domain.p
    v = fp.divmod(F, u)[0]
    _, s, t = fp.xgcd(v, u)
    while mod < m:
        mod *= mod
        zm = _IntegersMod(mod).polys
        e = zm.sub(F, zm.mul(u, v))
        q, r = zm.divmod(zm.mul(s, e), u)
        v = zm.add(v, zm.add(zm.mul(t, e), zm.mul(q, v)))
        u = zm.add(u, r)
        b = zm.sub(zm.add(zm.mul(s, v), zm.mul(t, u)), zm.one())
        c, d = zm.divmod(zm.mul(s, b), u)
        s = zm.sub(s, d)
        t = zm.sub(t, zm.add(zm.mul(t, b), zm.mul(c, v)))
    return u, v


def _recombine(F, lifted, m):
    """The monic irreducible factors over Z of the monic F, given the monic
    lifts mod m of its distinct irreducible factors mod p, with m above twice
    the Mignotte bound: a subset product read with symmetric residues is a
    factor when it divides F exactly.  Subsets are tried smallest first, and
    what no subset of at most half the lifts divides is irreducible."""
    zm = _IntegersMod(m).polys
    zz = ZZ.polys
    out = []
    size = 1
    while 2 * size <= len(lifted):
        for subset in combinations(range(len(lifted)), size):
            H = reduce(zm.mul, [lifted[i] for i in subset])
            H = tuple(c - m if 2 * c > m else c for c in H)
            quo, rem = zz.divmod(F, H)
            if not rem:
                out.append(H)
                F = quo
                lifted = [u for i, u in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    out.append(F)
    return out


# Factoring over a finite field F_q of characteristic p, written once over the
# dense core: squarefree parts, then distinct-degree factorization, then the
# equal-degree split of Cantor and Zassenhaus (Math. Comp. 1981), with the
# trace map in characteristic 2 (von zur Gathen and Gerhard, Modern Computer
# Algebra, ch. 14).  Polynomials are monic throughout.


def _factor_finite(sp, f, p, q):
    """Monic irreducible factors of the monic f over F_q, with
    multiplicities, in no particular order."""
    rng = random.Random(q)
    out = []
    for g, m in _squarefree_parts(sp, f, p, q):
        for d, h in _distinct_degree(sp, g, q):
            out.extend((fac, m) for fac in _equal_degree(sp, h, d, q, rng))
    return out


def _squarefree_parts(sp, f, p, q):
    """Pairs (g, m) with f = prod g^m, the g squarefree, coprime and of
    positive degree.  What survives the division by the parts of
    multiplicity prime to p is a polynomial in x^p, and F_q is perfect, so
    it is the p-th power of the polynomial its p-th root gives.  Over Q
    (p = q = 0) nothing survives."""
    c = sp.gcd(f, _derivative(sp, f))
    w = sp.divmod(f, c)[0]
    out = []
    i = 1
    while len(w) > 1:
        y = sp.gcd(w, c)
        z = sp.divmod(w, y)[0]
        if len(z) > 1:
            out.append((z, i))
        w, c, i = y, sp.divmod(c, y)[0], i + 1
    if len(c) > 1:
        root = sp.trim([sp.domain.pow(a, q // p) for a in c[::p]])
        out.extend((g, m * p) for g, m in _squarefree_parts(sp, root, p, q))
    return out


def _distinct_degree(sp, f, q):
    """Pairs (d, h): h the product of the degree-d factors of the squarefree
    f, from gcd(f, x^(q^d) - x)."""
    x = sp.monomial(1)
    h = x
    out = []
    d = 0
    while sp.degree(f) >= 2 * (d + 1):
        d += 1
        h = _power(h, q, sp.one(), lambda u, v: sp.mod(sp.mul(u, v), f))
        g = sp.gcd(f, sp.sub(h, x))
        if len(g) > 1:
            out.append((d, g))
            f = sp.divmod(f, g)[0]
            h = sp.mod(h, f)
    if len(f) > 1:
        out.append((sp.degree(f), f))
    return out


def _equal_degree(sp, f, d, q, rng):
    """The irreducible factors of f, a product of distinct degree-d ones: a
    random a splits f at gcd(f, a^((q^d - 1)/2) - 1) for odd q, and at
    gcd(f, a + a^2 + ... + a^(q^d / 2)) for even q.  The coefficients of a
    are drawn through `from_int`, which spans the field only when q = p."""
    n = sp.degree(f)
    if n == d:
        return [f]
    dom = sp.domain
    while True:
        a = sp.trim([dom.from_int(rng.randrange(q)) for _ in range(n)])
        if q % 2:
            b = sp.sub(_power(a, (q**d - 1) // 2, sp.one(),
                              lambda u, v: sp.mod(sp.mul(u, v), f)),
                       sp.one())
        else:
            b = t = a
            for _ in range(d * (q.bit_length() - 1) - 1):
                t = sp.mod(sp.mul(t, t), f)
                b = sp.add(b, t)
        g = sp.gcd(f, b)
        if 0 < sp.degree(g) < n:
            return (_equal_degree(sp, g, d, q, rng)
                    + _equal_degree(sp, sp.divmod(f, g)[0], d, q, rng))


# ---------------------------------------------------------------------------
# shared field scaffolding


class ValuedFieldBase(Domain):
    """Interface shared by the concrete base fields.

    Subclasses provide: rank, scalars, arithmetic (add/mul/neg/inv),
    is_zero, valuate, unit_residue, canonical_element, lift_scalar, atom,
    base_group_gens, format_element.  `atom` refuses a name with a KeyError
    whose one argument is the sentence that says why.
    """

    @property
    def char(self):
        return self.scalars.char

    def format(self, x):
        return self.format_element(x)

    def base_group(self):
        return ValueGroup(self.rank, self.base_group_gens())

    def is_zero_mod_precision(self, x):
        """Default: exact fields have nothing to truncate."""
        return self.is_zero(x)

    def admit_value(self, v):
        """Refuse, with `InsufficientPrecision`, a key value that only a
        truncation of the base value group would count as ramification.
        Default: the base group is the field's whole value group."""

    def from_int(self, n):
        return self.lift_scalar(self.scalars.from_int(n))


# ---------------------------------------------------------------------------
# K = k(t) with the t-adic valuation


class RationalFunctions(ValuedFieldBase):
    """Fractions of polynomials in one variable, valued by order of vanishing
    at the origin.

    An element is a pair (num, den) of coprime polynomials, both int tuples
    on the dense core.  Over F_p they are polynomials over F_p, and den's
    lowest nonzero coefficient is 1.  Over Q they are integer polynomials
    (over `ZZ`) with integer content 1 together, and den's lowest nonzero
    coefficient is positive; scalars still enter (`lift_scalar`) and leave
    (`unit_residue`) as `Fraction`s.  Either way the form is canonical:
    equal elements are equal tuples of ints, and `one` is ((1,), (1,)).

    Most elements the engine meets are polynomials over k, with a constant
    den: 1 over F_p, a positive integer over Q.  Two of them add and
    multiply by one scaled sum or product of numerators and, over Q, one
    integer gcd; only `_make` takes a polynomial gcd."""

    rank = 1

    def __init__(self, scalars, var):
        self.scalars = scalars
        self.var = var
        self.sp = (ZZ if scalars.char == 0 else scalars).polys
        self.zero = ((), (1,))
        self.one = ((1,), (1,))

    def _over(self, num, d):
        """num/d for a trimmed polynomial num and a positive integer d, which
        is 1 over F_p."""
        if not num:
            return self.zero
        if d != 1:
            g = gcd(d, *num)
            if g != 1:
                num = tuple(c // g for c in num)
                d //= g
        return (num, (d,))

    def _make(self, num, den):
        """num/den in canonical form, for any two polynomials over the
        coefficient ring with den nonzero.  The common factor comes from the
        gcd over k[t]; over Q that runs on the int coefficients as they are
        (`QQ.inv` is exact on ints), and the rational quotients are then
        cleared to integers of content 1."""
        char = self.scalars.char
        sp = self.sp if char else QQ.polys
        num, den = sp.trim(num), sp.trim(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            return self.zero
        g = sp.gcd(num, den)
        if sp.degree(g) > 0:
            num = sp.divmod(num, g)[0]
            den = sp.divmod(den, g)[0]
        if not char:
            m = lcm(*(c.denominator for c in num + den))
            num = tuple(c.numerator * (m // c.denominator) for c in num)
            den = tuple(c.numerator * (m // c.denominator) for c in den)
            g = gcd(*num, *den)
            num = tuple(c // g for c in num)
            den = tuple(c // g for c in den)
        return self._unit(num, den)

    def _unit(self, num, den):
        """num/den for coprime num and den (over Q also of integer content 1
        together), times the unit that makes den's lowest coefficient 1 over
        F_p and positive over Q."""
        sp = self.sp
        c = den[sp.ord(den)]
        if self.scalars.char:
            if c != 1:
                inv = self.scalars.inv(c)
                num, den = sp.scale(num, inv), sp.scale(den, inv)
        elif c < 0:
            num, den = sp.neg(num), sp.neg(den)
        return (num, den)

    def add(self, x, y):
        sp = self.sp
        (a, b), (c, d) = x, y
        if len(b) == 1 and len(d) == 1:
            if b == d:
                return self._over(sp.add(a, c), b[0])
            return self._over(sp.add(sp.scale(a, d[0]), sp.scale(c, b[0])),
                              b[0] * d[0])
        return self._make(sp.add(sp.mul(a, d), sp.mul(c, b)), sp.mul(b, d))

    def neg(self, x):
        return (self.sp.neg(x[0]), x[1])

    def mul(self, x, y):
        sp = self.sp
        (a, b), (c, d) = x, y
        if len(b) == 1 and len(d) == 1:
            return self._over(sp.mul(a, c), b[0] * d[0])
        return self._make(sp.mul(a, c), sp.mul(b, d))

    def inv(self, x):
        if self.is_zero(x):
            raise ZeroDivisionError("division by zero")
        return self._unit(x[1], x[0])

    def is_zero(self, x):
        return not x[0]

    def valuate(self, x):
        if self.is_zero(x):
            return INF
        return Value.over((self.sp.ord(x[0]) - self.sp.ord(x[1]),))

    def unit_residue(self, x, d):
        (a, b), (c, e) = x, d
        if not a or not c:
            raise ValueError("unit_residue of zero")
        sp = self.sp
        oa, ob, oc, oe = sp.ord(a), sp.ord(b), sp.ord(c), sp.ord(e)
        if oa - ob != oc - oe:
            raise ValueError("unit_residue needs equal values, got %s and %s"
                             % (Value([oa - ob]), Value([oc - oe])))
        # the lowest coefficient of a e over that of b c
        num, den = a[oa] * e[oe], b[ob] * c[oc]
        if self.scalars.char:
            return self.scalars.div(num, den)
        return Fraction(num, den)

    def canonical_element(self, v):
        if v.den != 1:
            raise ValueError("%s is not in the base value group" % v)
        m = v.nums[0]
        if m >= 0:
            return (self.sp.monomial(m), self.one[1])
        return (self.one[0], self.sp.monomial(-m))

    def lift_scalar(self, c):
        if self.scalars.char:
            return (self.sp.const(c), self.one[1])
        return ((c.numerator,), (c.denominator,)) if c else self.zero

    def atom(self, name):
        if name == self.var:
            return (self.sp.monomial(1), self.one[1])
        raise KeyError("unknown name %r" % name)

    def base_group_gens(self):
        return [Value([1])]

    def format_element(self, x):
        """num/den written over k with den's lowest coefficient 1, and the
        den left out when that makes it 1."""
        num, den = x
        sp = self.sp
        if not self.scalars.char:
            c = den[sp.ord(den)]
            num = tuple(Fraction(a, c) for a in num)
            den = tuple(Fraction(a, c) for a in den)
            sp = QQ.polys
        ns = sp.format(num, self.var)
        if den == self.one[1]:
            return ns
        return "(%s)/(%s)" % (ns, sp.format(den, self.var))

    def __repr__(self):
        return "%r(%s) t-adic" % (self.scalars, self.var)


# ---------------------------------------------------------------------------
# lexicographically valued monomial series


class LexMonomialSeries(ValuedFieldBase):
    """Laurent polynomials in an ordered tuple of variables over a prime
    field, valued by the lexicographic order on exponent vectors (first
    variable strongest).

    A monomial is one int: the exponent vector (e_1, ..., e_r) is
    m = sum e_i 2^(64 (r - i)), signed digits in 64-bit fields with the
    first variable's on top.  Integer order on m is then the lex order on
    vectors, a product of monomials is m1 + m2, the monomial 1 is 0 and the
    inverse of m is -m.  A stored exponent lies in the signed 32-bit range
    [-2^31, 2^31), so a digit of the sum of two monomials never reaches
    past its field; a product, an inverse, `canonical_element` and `atom`
    check the range on what they make, a product with one add and one mask,
    and refuse with `InsufficientPrecision`, naming the monomial, where it
    fails.  Vectors are decoded only where they leave the field: values,
    the precision box and the format.

    An element is the dict {monomial: scalar in [1, p)}.  A product sums the
    raw int products of its term pairs per monomial and reduces each sum
    mod p once.  Elements are never changed in place, so `zero` and `one`
    are shared, and two elements compare equal exactly when their terms do.
    Arithmetic is exact; the optional per-variable precision box only says
    which terms a terminal key may leave behind (`is_zero_mod_precision`).

    Division is supported only by single-term elements; everything the chain
    machinery needs from this field reduces to term arithmetic and leading
    forms, and a general series inverse would silently leave the exact world.
    """

    def __init__(self, scalars, varnames, precision=None):
        if not isinstance(scalars, PrimeField):
            raise ValueError("lex series scalars must be a prime field, got %r"
                             % (scalars,))
        self.scalars = scalars
        self.p = scalars.p
        self.varnames = tuple(varnames)
        self.rank = len(self.varnames)
        for i, var in enumerate(self.varnames):
            if var in self.varnames[:i]:
                raise ValueError("generator %r named twice" % var)
        self.precision = dict(precision or {})
        for var in self.precision:
            if var not in self.varnames:
                raise ValueError("precision bound for unknown variable %r" % var)
        self._box = [(i, self.precision[v]) for i, v in enumerate(self.varnames)
                     if v in self.precision]
        # m + _offs holds each in-range exponent as a digit in [0, 2^32) of
        # its field, so an exponent out of range sets a bit of _guard
        fields = [1 << 64 * i for i in range(self.rank)]
        self._offs = sum(f << 31 for f in fields)
        self._guard = sum((f << 64) - (f << 32) for f in fields)
        self.zero = {}
        self.one = {0: scalars.one}

    def _exponents(self, m):
        """The exponent vector of the monomial m, read as signed 64-bit
        digits from the lowest field up."""
        out = []
        for _ in range(self.rank):
            e = ((m + 2 ** 63) & (2 ** 64 - 1)) - 2 ** 63
            out.append(e)
            m = (m - e) >> 64
        return tuple(reversed(out))

    def _monomial(self, exps):
        if not all(-2 ** 31 <= e < 2 ** 31 for e in exps):
            raise self._overflow(exps)
        m = 0
        for e in exps:
            m = (m << 64) + e
        return m

    def _overflow(self, exps):
        return InsufficientPrecision(
            "%s has an exponent outside [-2^31, 2^31), beyond the lex "
            "series' exponent fields" % self._spell(exps))

    def _spell(self, exps):
        return "*".join(var if k == 1 else "%s^%d" % (var, k)
                        for var, k in zip(self.varnames, exps) if k)

    def add(self, x, y):
        if not x:
            return y
        p = self.p
        out = dict(x)
        for m, c in y.items():
            s = (out.get(m, 0) + c) % p
            if s:
                out[m] = s
            else:
                del out[m]
        return out

    def neg(self, x):
        p = self.p
        return {m: p - c for m, c in x.items()}

    def mul(self, x, y):
        acc = {}
        get = acc.get
        for m1, c1 in x.items():
            for m2, c2 in y.items():
                m = m1 + m2
                acc[m] = get(m, 0) + c1 * c2
        p, offs, guard = self.p, self._offs, self._guard
        out = {}
        for m, c in acc.items():
            c %= p
            if c:
                if (m + offs) & guard:
                    raise self._overflow(self._exponents(m))
                out[m] = c
        return out

    def inv(self, x):
        if not x:
            raise ZeroDivisionError("division by zero")
        if len(x) != 1:
            raise UnsupportedStructure("series division is restricted to monomial divisors")
        (m, c), = x.items()
        if (self._offs - m) & self._guard:
            raise self._overflow(self._exponents(-m))
        return {-m: self.scalars.inv(c)}

    def is_zero(self, x):
        return not x

    def is_zero_mod_precision(self, x):
        """True when every term of x lies outside the precision box, that is,
        has some exponent at or above its variable's bound."""
        box = self._box
        return all(any(e[i] >= b for i, b in box)
                   for e in map(self._exponents, x))

    def valuate(self, x):
        return Value.over(self._exponents(min(x))) if x else INF

    def unit_residue(self, x, d):
        if not x or not d:
            raise ValueError("unit_residue of zero")
        lx, ld = min(x), min(d)
        if lx != ld:
            raise ValueError("unit_residue needs equal values, got %s and %s"
                             % (self._exponents(lx), self._exponents(ld)))
        return self.scalars.div(x[lx], d[ld])

    def canonical_element(self, v):
        if v.den != 1:
            raise ValueError("%s is not in the base value group" % v)
        return {self._monomial(v.nums): self.scalars.one}

    def lift_scalar(self, c):
        c %= self.p
        return {0: c} if c else self.zero

    def atom(self, name):
        if name in self.varnames:
            return {self._monomial([1 if v == name else 0
                                    for v in self.varnames]): self.scalars.one}
        raise KeyError("unknown name %r" % name)

    def base_group_gens(self):
        gens = []
        for i in range(self.rank):
            gens.append(Value([1 if j == i else 0 for j in range(self.rank)]))
        return gens

    def format_element(self, x):
        return format_terms((self.scalars.format(x[m]),
                             self._spell(self._exponents(m)))
                            for m in sorted(x))

    def __repr__(self):
        return "%r[[%s]] lex" % (self.scalars, ", ".join(self.varnames))


# ---------------------------------------------------------------------------
# the coordinate tower


class CoordinateTower(ValuedFieldBase):
    """Fraction field of the tower k[u_1, v_1] -> k[u_2, v_2] -> ... over F_p,
    glued by u_i = v_i^p (v_{i+1} + gamma_{i+1}) and v_i = u_{i+1}, with
    v(u_i) = 1/p^(i-1) and v(v_i) = 1/p^i.

    Elements are fractions of sparse polynomials in the v-atoms alone; a u-atom
    enters through its defining expansion.  A monomial wears its value on its
    face (exponent over p^level, summed), so nothing is rewritten until a value
    computation actually ties.  A tie substitutes the shallowest atom involved
    one step deeper, v_i -> v_{i+1}^p (v_{i+2} + gamma_{i+2}), and only inside
    the tied terms; the unit power expands through base-p digits of the
    exponent using the Frobenius, which keeps structured inputs sparse.  Either
    the tie cancels and the minimum climbs, or a lone leading term survives and
    certifies the value.  The same reduction drives unit residues: numerator
    and denominator leads are pushed deeper until their monomials literally
    match, the unit evaluations accumulating into the scalars in front.

    A monomial is one int.  With D the depth, the exponent of v_l sits in a
    bit field of width 32 + (p^l).bit_length(), level 1 lowest, and the scaled
    value sum n_l p^(D-l) sits above all the fields.  So v_l is the int A_l,
    1 is 0, a product of monomials is their sum, a value is one shift, and
    ints order by value first.  A stored monomial has value below 2^31, which
    bounds each n_l below 2^31 p^l and keeps the top bit of its field clear;
    a product, a rewrite and `canonical_element` check that bound on what
    they make and refuse with `InsufficientPrecision` where it fails (an
    atom's multiples are p at most).  A polynomial is
    the dict {monomial: coefficient in [1, p)}; an element is a (num, den)
    pair of those.  Elements are never changed in place, so `zero`, `one` and
    the polynomial 1 are shared objects.  Note
    that distinct polynomials can name the same field element when a scenario
    spells one atom through the relation of a deeper pair; values and residues
    still come out right, but `is_zero` and `eq` answer for the spelling, and a
    disguised zero fails loudly in certification rather than quietly.
    """

    rank = 1

    def __init__(self, p, gamma, max_depth):
        self.scalars = PrimeField(p)
        self.p = p
        self.max_depth = max_depth
        if max_depth < 1:
            raise ValueError("tower depth must be at least 1, got %d" % max_depth)
        if isinstance(gamma, int):
            self._gammas = [gamma % p] * (max_depth + 1)
        else:
            self._gammas = [g % p for g in gamma]
            if len(self._gammas) < max_depth + 1:
                raise ValueError("need a tower unit for every level up to %d" % max_depth)
        if any(g == 0 for g in self._gammas):
            raise ValueError("tower units must be nonzero")
        self._pD = p ** max_depth
        # _off[l] and _mask[l] place the exponent of v_l (index 0 unused);
        # _off[D + 1] is where the value starts
        self._off, self._mask = [0, 0], [0]
        for lvl in range(1, max_depth + 1):
            width = 32 + (p ** lvl).bit_length()
            self._off.append(self._off[-1] + width)
            self._mask.append((1 << width) - 1)
        self._shift = self._off[-1]
        self._atoms = [0] + [(1 << self._off[lvl])
                             + (p ** (max_depth - lvl) << self._shift)
                             for lvl in range(1, max_depth + 1)]
        self._bound = 2 ** 31 * self._pD
        self._limit = self._bound << self._shift
        self._one_poly = {0: 1}
        self.zero = ({}, self._one_poly)
        self.one = (self._one_poly, self._one_poly)

    def gamma(self, level):
        return self._gammas[level]

    # sparse polynomials over the v-atoms

    def _padd(self, f, g):
        p = self.p
        out = dict(f)
        for e, c in g.items():
            s = (out.get(e, 0) + c) % p
            if s:
                out[e] = s
            else:
                del out[e]
        return out

    def _pneg(self, f):
        p = self.p
        return {e: p - c for e, c in f.items()}

    def _pmul(self, f, g):
        if g == self._one_poly:
            return f
        if f == self._one_poly:
            return g
        if max(f, default=0) + max(g, default=0) >= self._limit:
            raise self._overflow("the product of %s and %s"
                                 % (self._spell(self._pairs(max(f))),
                                    self._spell(self._pairs(max(g)))))
        p = self.p
        out = {}
        for e1, c1 in f.items():
            for e2, c2 in g.items():
                e = e1 + e2
                s = (out.get(e, 0) + c1 * c2) % p
                if s:
                    out[e] = s
                else:
                    del out[e]
        return out

    def _pairs(self, m):
        """The (level, exponent) pairs of the monomial m, by level."""
        off, mask = self._off, self._mask
        return tuple((lvl, n) for lvl in range(1, self.max_depth + 1)
                     if (n := (m >> off[lvl]) & mask[lvl]))

    @staticmethod
    def _spell(pairs):
        """The monomial of the (level, exponent) pairs, as v*v2^3."""
        return "*".join(("v" if lvl == 1 else "v%d" % lvl)
                        + ("" if n == 1 else "^%d" % n)
                        for lvl, n in pairs)

    @staticmethod
    def _overflow(what):
        return InsufficientPrecision(
            "%s has value 2^31 or more, beyond the tower's exponent fields" % what)

    # lazy rewriting

    def _unit_block(self, e, gamma):
        """(V + gamma)^e as {v_exponent: scalar} through base-p digits of e;
        gamma^(p^j) = gamma over the prime field, so each digit contributes a
        small binomial block in V^(p^j).  A digit d < p and gamma != 0 make
        every block coefficient C(d, k) gamma^(d-k) nonzero, and distinct
        digit choices give distinct exponents, so nothing is collected."""
        sc = self.scalars
        out = {0: sc.one}
        block_exp = 1
        while e:
            d = e % self.p
            e //= self.p
            if d:
                block = [(k * block_exp,
                          sc.mul(sc.from_int(comb(d, k)), sc.pow(gamma, d - k)))
                         for k in range(d + 1)]
                out = {e1 + e2: sc.mul(c1, c2)
                       for e1, c1 in out.items() for e2, c2 in block}
            block_exp *= self.p
        return out

    def _subst_term(self, m, coeff, i):
        """One term with its v_i^e replaced by v_{i+1}^(p e) (v_{i+2} + g)^e;
        a term without v_i comes back as it is."""
        p, atoms = self.p, self._atoms
        e = (m >> self._off[i]) & self._mask[i]
        base = m - e * atoms[i] + p * e * atoms[i + 1]
        step = atoms[i + 2]
        if base + e * step >= self._limit:
            raise self._overflow("%s rewritten one level deeper"
                                 % self._spell(self._pairs(e * atoms[i])))
        return {base + ve * step: coeff * uc % p
                for ve, uc in self._unit_block(e, self.gamma(i + 2)).items()}

    def _reduce_group(self, f, group, i):
        """Substitute atom i inside the given terms; other terms, and given
        ones without atom i, stay as they are.  This is the one place that
        refuses a rewrite past the tower's depth."""
        if i + 2 > self.max_depth:
            raise InsufficientPrecision("tower depth %d exhausted" % self.max_depth)
        p = self.p
        out = {e: c for e, c in f.items() if e not in group}
        for e in group:
            for e2, c2 in self._subst_term(e, f[e], i).items():
                s = (out.get(e2, 0) + c2) % p
                if s:
                    out[e2] = s
                else:
                    del out[e2]
        return out

    def _split_level(self, monos):
        """Smallest level at which the given monomials of one value disagree:
        that of the lowest bit set in any m ^ m0.  Substituting a shared atom
        deepens every term in lockstep and never breaks a tie, so this is the
        only productive choice."""
        m0, diff = monos[0], 0
        for m in monos:
            diff |= m ^ m0
        if not diff:
            raise ValueError("monomials do not disagree at any level")
        return bisect_right(self._off, (diff & -diff).bit_length() - 1, 1) - 1

    def _certify(self, f):
        """Reduce until one monomial owns the minimal value; returns the
        scaled value (numerator over p^depth), its coefficient, the monomial,
        and the reduced polynomial."""
        shift = self._shift
        steps = 0
        while True:
            if not f:
                raise InsufficientPrecision(
                    "certification cancelled every term within depth %d"
                    % self.max_depth)
            low = min(f)
            minv = low >> shift
            above = (minv + 1) << shift
            group = [e for e in f if e < above]
            if len(group) == 1:
                return minv, f[low], low, f
            f = self._reduce_group(f, set(group), self._split_level(group))
            steps += 1
            if steps > 64 * self.max_depth:
                raise InsufficientPrecision(
                    "value certification did not settle within depth %d"
                    % self.max_depth)

    # the field interface

    def add(self, x, y):
        n1, d1 = x
        n2, d2 = y
        if d1 == d2:
            num, den = self._padd(n1, n2), d1
        else:
            num = self._padd(self._pmul(n1, d2), self._pmul(n2, d1))
            den = self._pmul(d1, d2)
        return (num, den) if num else self.zero

    def neg(self, x):
        return (self._pneg(x[0]), x[1])

    def mul(self, x, y):
        num = self._pmul(x[0], y[0])
        return (num, self._pmul(x[1], y[1])) if num else self.zero

    def inv(self, x):
        if self.is_zero(x):
            raise ZeroDivisionError("division by zero")
        return (x[1], x[0])

    def is_zero(self, x):
        return not x[0]

    def valuate(self, x):
        if self.is_zero(x):
            return INF
        num, den = x
        vn = self._certify(num)[0]
        vd = self._certify(den)[0]
        return Value.over((vn - vd,), self._pD)

    def unit_residue(self, x, d):
        if self.is_zero(x) or self.is_zero(d):
            raise ValueError("unit_residue of zero")
        num = self._pmul(x[0], d[1])
        den = self._pmul(x[1], d[0])
        sc = self.scalars
        steps = 0
        while True:
            vn, cn, en, num = self._certify(num)
            vd, cd, ed, den = self._certify(den)
            if vn != vd:
                raise ValueError(
                    "unit_residue needs equal values, got %s and %s"
                    % (Fraction(vn, self._pD), Fraction(vd, self._pD)))
            if en == ed:
                return sc.div(cn, cd)
            i = self._split_level([en, ed])
            num = self._reduce_group(num, {en}, i)
            den = self._reduce_group(den, {ed}, i)
            steps += 1
            if steps > 64 * self.max_depth:
                raise InsufficientPrecision(
                    "residue computation did not settle within depth %d"
                    % self.max_depth)

    def canonical_element(self, v):
        q, r = divmod(self._pD, v.den)
        if r:
            raise ValueError("%s is not in the base value group" % v)
        n = v.nums[0] * q
        if n == 0:
            return self.one
        poly = {self._digit_monomial(abs(n)): 1}
        if n > 0:
            return (poly, self._one_poly)
        return (self._one_poly, poly)

    def _digit_monomial(self, n):
        """The shallowest monomial of value n / p^depth: base-p digits on the
        atoms, whole units carried by powers of v_1."""
        if n >= self._bound:
            raise self._overflow("v^%d" % (n // (self._pD // self.p)))
        m = 0
        for lvl in range(self.max_depth, 1, -1):
            n, d = divmod(n, self.p)
            m += d * self._atoms[lvl]
        return m + n * self._atoms[1]

    def lift_scalar(self, c):
        c = c % self.p
        return ({0: c}, self._one_poly) if c else self.zero

    def atom(self, name):
        kind, level = None, None
        if name in ("u", "v"):
            kind, level = name, 1
        elif name[:1] in ("u", "v") and name[1:].isdigit():
            kind, level = name[0], int(name[1:])
        if kind is None or level < 1:
            raise KeyError("unknown name %r" % name)
        depth = self.max_depth
        if kind == "v":
            if level > depth:
                raise KeyError("%s lies below tower depth %d" % (name, depth))
            return ({self._atoms[level]: 1}, self._one_poly)
        if level + 1 > depth:
            raise KeyError("%s needs v%d, which lies below tower depth %d"
                           % (name, level + 1, depth))
        vp = self.p * self._atoms[level]
        num = {vp + self._atoms[level + 1]: 1, vp: self.gamma(level + 1)}
        return (num, self._one_poly)

    def base_group_gens(self):
        return [Value.over((1,), self._pD)]

    def admit_value(self, v):
        """The infinite tower's value group is Z[1/p], of which depth D sees
        only p^-D Z.  A value whose denominator holds p more than D times
        lies outside the truncated group yet inside Z[1/p], so the step it
        makes is the truncation's, not ramification: refuse it and name the
        depth it needs.  A prime other than p in the denominator is real
        ramification and passes."""
        den, need = v.den, 0
        while den % self.p == 0:
            den //= self.p
            need += 1
        if need > self.max_depth:
            raise InsufficientPrecision(
                "value %s needs tower depth %d, beyond depth %d"
                % (v, need, self.max_depth))

    def _format_poly(self, f):
        # value first, then the pairs; the two fix the monomial, so the
        # coefficient is never compared
        shift = self._shift
        terms = sorted((m >> shift, self._pairs(m), c) for m, c in f.items())
        return format_terms((self.scalars.format(c), self._spell(pairs))
                            for _, pairs, c in terms)

    def format_element(self, x):
        num, den = x
        ns = self._format_poly(num)
        if den == self._one_poly:
            return ns
        return "(%s)/(%s)" % (ns, self._format_poly(den))

    def __repr__(self):
        return "tower(p=%d, depth=%d)" % (self.p, self.max_depth)
