"""Residue arithmetic for graded pieces of a truncated valuation.

A chain stage assigns every polynomial an initial form: a value together with
X-coefficients living in the residue ring of the stage.  The residue ring is
the scalar domain until some step adjoins a root of a nonlinear residual, at
which point it becomes k[T]/(m).  That quotient need not be a field (a lumped
residual can be a product of distinct irreducibles), so inverses go through
the extended euclidean algorithm and a non-coprime element is reported as an
unsupported structure rather than silently wrong.

Initial forms multiply like polynomials in X with no reduction: at its own
level the class of the key polynomial is transcendental over the residue ring.
"""

from .fields import UnsupportedStructure
from .polyring import Domain
from .values import INF


class ScalarRing(Domain):
    """The residue ring before any extension: the scalar domain itself."""

    def __init__(self, domain):
        self.domain = domain
        self.zero = domain.zero
        self.one = domain.one

    def embed(self, c):
        return c

    def add(self, a, b):
        return self.domain.add(a, b)

    def mul(self, a, b):
        return self.domain.mul(a, b)

    def neg(self, a):
        return self.domain.neg(a)

    def inv(self, a):
        if self.domain.is_zero(a):
            raise UnsupportedStructure("inverse of zero in the residue ring")
        return self.domain.inv(a)

    def is_zero(self, a):
        return self.domain.is_zero(a)

    def is_scalar(self, a):
        return True

    def to_scalar(self, a):
        return a

    def format(self, a):
        return self.domain.format(a)


class EtaleRing(Domain):
    """k[T]/(m) for a monic modulus m of degree >= 2.

    Elements are dense coefficient tuples over the scalar domain, reduced
    mod m.  A scalar embeds as a constant; the class of T is the adjoined
    root.
    """

    def __init__(self, domain, modulus):
        self.domain = domain
        self.sp = domain.polys
        self.modulus = self.sp.trim(modulus)
        if self.sp.degree(self.modulus) < 2:
            raise ValueError("extension modulus must have degree >= 2")
        self.zero = self.sp.zero()
        self.one = self.sp.one()
        self.gen = self.sp.monomial(1)

    def embed(self, c):
        if isinstance(c, tuple):
            return self.sp.mod(c, self.modulus)
        return self.sp.const(c)

    def add(self, a, b):
        return self.sp.add(a, b)

    def mul(self, a, b):
        return self.sp.mod(self.sp.mul(a, b), self.modulus)

    def neg(self, a):
        return self.sp.neg(a)

    def inv(self, a):
        g, s, _ = self.sp.xgcd(a, self.modulus)
        if self.sp.degree(g) != 0:
            raise UnsupportedStructure(
                "residue %s is a zero divisor mod %s"
                % (self.sp.format(a, "T"), self.sp.format(self.modulus, "T")))
        return self.sp.mod(s, self.modulus)

    def is_zero(self, a):
        return not a

    def is_scalar(self, a):
        return self.sp.degree(a) <= 0

    def to_scalar(self, a):
        if not self.is_scalar(a):
            raise UnsupportedStructure("residue %s does not lie in the scalar domain"
                                       % self.sp.format(a, "T"))
        return a[0] if a else self.domain.zero

    def format(self, a):
        return self.sp.format(a, "T")


class InClass:
    """Initial form of a polynomial at a chain stage: the truncated value plus
    its X-coefficients, a dense tuple over the residue ring whose nonzero
    entries are the coefficients that attain the value.
    """

    __slots__ = ("ring", "value", "coeffs")

    def __init__(self, ring, value, coeffs):
        self.ring = ring
        self.value = value
        self.coeffs = ring.polys.trim(coeffs)

    @property
    def terms(self):
        """The nonzero X-coefficients by degree."""
        return {j: c for j, c in enumerate(self.coeffs)
                if not self.ring.is_zero(c)}

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def is_zero(self):
        return not self.coeffs

    def __repr__(self):
        return "InClass(%s @ %s)" % (
            self.ring.polys.format(self.coeffs, "X", wrap=True), self.value)


def graded_mul(a, b):
    return InClass(a.ring, a.value + b.value,
                   a.ring.polys.mul(a.coeffs, b.coeffs))


def graded_equal(a, b):
    if a.is_zero or b.is_zero:
        return a.is_zero and b.is_zero
    return a.value == b.value and not a.ring.polys.sub(a.coeffs, b.coeffs)


def graded_is_unit(a):
    """Units of the graded ring are the classes concentrated in X-degree 0
    with an invertible residue."""
    if len(a.coeffs) != 1:
        return False
    try:
        a.ring.inv(a.coeffs[0])
    except UnsupportedStructure:
        return False
    return True


def graded_inverse(a):
    if not graded_is_unit(a):
        raise ValueError("initial form is not a unit")
    return InClass(a.ring, -a.value, (a.ring.inv(a.coeffs[0]),))


def graded_add(a, b):
    if a.is_zero:
        return b
    if b.is_zero:
        return a
    if a.value != b.value:
        raise ValueError("graded pieces at different values do not add")
    coeffs = a.ring.polys.add(a.coeffs, b.coeffs)
    return InClass(a.ring, a.value if coeffs else INF, coeffs)


def graded_divmod(a, b):
    """Euclidean step for the effective degree: a = b*q + r with the degree
    of r strictly below the degree of b, or r = 0.  A unit divisor always
    leaves r = 0."""
    ring = a.ring
    q, r = ring.polys.divmod(a.coeffs, b.coeffs)
    zero = InClass(ring, INF, ())
    return (InClass(ring, a.value - b.value, q) if q else zero,
            InClass(ring, a.value, r) if r else zero)


def graded_div(a, b):
    """Exact division of initial forms; raises ValueError when b does not
    divide a in the graded ring."""
    q, r = graded_divmod(a, b)
    if not r.is_zero:
        raise ValueError("initial form is not divisible: nonzero remainder")
    return q
