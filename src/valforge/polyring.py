"""Dense univariate polynomials: the one polynomial core of valforge.

`DensePolys(domain)` is the arithmetic.  Polynomials are constant-first
tuples of domain elements with trailing zeros stripped; the zero polynomial is
the empty tuple.  A domain is a `Domain`: it provides `zero`, `one`, `add`,
`mul`, `neg`, `inv`, `is_zero` and `format`, and inherits the rest.  Division
only ever inverts the leading coefficient of the divisor, and skips even that
when the lead compares equal to `one`, as the lead of a monic key does: every
domain's elements compare by structure.  It never computes the lead it
cancels (it pops it from the remainder), negates the divisor's nonzero low
coefficients once per call, and skips a zero quotient coefficient, so a
quotient coefficient costs one product and one sum per nonzero low
coefficient of the divisor.  Products skip the zero coefficients of both
factors, and powers square and multiply from the top bit down.

The same core runs over every domain valforge has: the integers Z
(numerators and denominators of Q(t), recombination over Q), the scalar
fields Q and F_p (numerators and denominators of F_p(t), residual
polynomials and their factoring, with Z/p^kZ for Hensel lifting over Q),
the valued base fields (`Poly`, standard expansions in powers of a key
and their Taylor shifts when the key moves by a constant),
and the residue rings of `graded` (quotients k[T]/(m) and initial forms).
Z and Z/p^kZ have no `inv`; the core divides over them by monic
polynomials only.  `Poly` is a thin wrapper that carries the field and the
variable name.

Z, Q, F_p and Z/mZ, whose elements are Python numbers, select the subclass
`NumberPolys` as their `polys`: the same algorithms with `+`, `*`, unary
`-` and truth value inline, no domain method call per coefficient
operation.  It collects raw sums of products and reduces each output
coefficient once, mod m over Z/mZ and F_p, before it trims; inputs may be
unreduced or negative, outputs lie in [0, m).  The valued fields and the
residue rings keep `DensePolys`.
"""

from functools import cached_property


def _power(a, n, one, mul):
    """a^n for n >= 0 by left-to-right square-and-multiply: every
    intermediate is a^m for a leading bit string m of n, so none exceeds the
    result and a refusal that the result would not meet never fires."""
    if n == 0:
        return one
    out = a
    for bit in bin(n)[3:]:
        out = mul(out, out)
        if bit == "1":
            out = mul(out, a)
    return out


class Domain:
    """Base of every domain: scalar fields, valued fields and residue rings.

    A subclass provides `zero`, `one`, `add`, `mul`, `neg`, `inv`, `is_zero`
    and `format`.  Subtraction, equality, division, powers and the dense
    polynomial core over the domain are derived here once; a subclass
    overrides one of them only as a fast path."""

    @cached_property
    def polys(self):
        """The dense polynomial core over this domain."""
        return DensePolys(self)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def eq(self, a, b):
        return self.is_zero(self.sub(a, b))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, n):
        if n < 0:
            return self.pow(self.div(self.one, a), -n)
        return _power(a, n, self.one, self.mul)


def format_terms(terms):
    """A sum written from (coefficient text, monomial text) pairs, in the
    order given.  An empty monomial leaves the coefficient alone, a
    coefficient 1 or -1 before a monomial shows only its sign, any other is
    written c*monomial, and a term with a leading minus is subtracted."""
    parts = []
    for cs, mono in terms:
        if not mono:
            parts.append(cs)
        elif cs == "1":
            parts.append(mono)
        elif cs == "-1":
            parts.append("-" + mono)
        else:
            parts.append(cs + "*" + mono)
    if not parts:
        return "0"
    out = parts[0]
    for part in parts[1:]:
        out += " - " + part[1:] if part.startswith("-") else " + " + part
    return out


class DensePolys:
    """Dense polynomial arithmetic over one domain."""

    def __init__(self, domain):
        self.domain = domain

    def trim(self, coeffs):
        coeffs = list(coeffs)
        while coeffs and self.domain.is_zero(coeffs[-1]):
            coeffs.pop()
        return tuple(coeffs)

    def zero(self):
        return ()

    def one(self):
        return (self.domain.one,)

    def const(self, c):
        return self.trim([c])

    def monomial(self, k, c=None):
        c = self.domain.one if c is None else c
        return self.trim([self.domain.zero] * k + [c])

    def degree(self, f):
        return len(f) - 1

    def ord(self, f):
        """Index of the lowest nonzero coefficient."""
        if not f:
            raise ValueError("zero polynomial has no order")
        return next(i for i, c in enumerate(f) if not self.domain.is_zero(c))

    def add(self, f, g):
        d = self.domain
        out = list(f) + [d.zero] * (len(g) - len(f))
        for i, c in enumerate(g):
            out[i] = d.add(out[i], c)
        return self.trim(out)

    def neg(self, f):
        return tuple(self.domain.neg(c) for c in f)

    def sub(self, f, g):
        return self.add(f, self.neg(g))

    def mul(self, f, g):
        if not f or not g:
            return ()
        d = self.domain
        add, mul, is_zero = d.add, d.mul, d.is_zero
        gs = [(j, b) for j, b in enumerate(g) if not is_zero(b)]
        out = [d.zero] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            if is_zero(a):
                continue
            for j, b in gs:
                out[i + j] = add(out[i + j], mul(a, b))
        return self.trim(out)

    def scale(self, f, c):
        d = self.domain
        if d.is_zero(c):
            return ()
        return self.trim([d.mul(a, c) for a in f])

    def pow(self, f, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return _power(f, n, self.one(), self.mul)

    def divmod(self, f, g):
        """(q, r) with f = q*g + r and deg r < deg g.  When deg f < deg g the
        answer is ((), f) and the lead of g is never inverted: over a residue
        ring it may be a zero divisor.  A lead equal to `one` as a structure
        is not inverted either."""
        if not g:
            raise ZeroDivisionError("division by the zero polynomial")
        dg = len(g) - 1
        if len(f) - 1 < dg:
            return (), f
        d = self.domain
        add, mul, is_zero = d.add, d.mul, d.is_zero
        inv_lead = None if g[-1] == d.one else d.inv(g[-1])
        low = [(i, d.neg(b)) for i, b in enumerate(g[:-1]) if not is_zero(b)]
        rem = list(f)
        q = [d.zero] * (len(f) - dg)
        for k in range(len(q) - 1, -1, -1):
            c = rem.pop()
            if is_zero(c):
                continue
            if inv_lead is not None:
                c = mul(c, inv_lead)
            q[k] = c
            for i, nb in low:
                rem[k + i] = add(rem[k + i], mul(c, nb))
        return self.trim(q), self.trim(rem)

    def mod(self, f, g):
        return self.divmod(f, g)[1]

    def monic(self, f):
        if not f:
            return f
        return self.scale(f, self.domain.inv(f[-1]))

    def gcd(self, f, g):
        """Monic gcd, by the euclidean algorithm."""
        while g:
            f, g = g, self.mod(f, g)
        return self.monic(f)

    def xgcd(self, f, g):
        """(d, s, t) with s*f + t*g = d, d monic."""
        r0, r1 = f, g
        s0, s1 = self.one(), self.zero()
        t0, t1 = self.zero(), self.one()
        while r1:
            q, r = self.divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, self.sub(s0, self.mul(q, s1))
            t0, t1 = t1, self.sub(t0, self.mul(q, t1))
        if r0:
            c = self.domain.inv(r0[-1])
            r0, s0, t0 = self.scale(r0, c), self.scale(s0, c), self.scale(t0, c)
        return r0, s0, t0

    def format(self, f, var, wrap=False):
        """f written in var, highest power first.  With wrap, a coefficient
        whose text is a sum or a fraction is parenthesized."""
        d = self.domain
        terms = []
        for i in range(len(f) - 1, -1, -1):
            if d.is_zero(f[i]):
                continue
            cs = d.format(f[i])
            if wrap and (" + " in cs or " - " in cs or "/" in cs):
                cs = "(%s)" % cs
            terms.append((cs, "" if i == 0 else
                          var if i == 1 else "%s^%d" % (var, i)))
        return format_terms(terms)


class NumberPolys(DensePolys):
    """The dense core over Z, Q or Z/mZ, whose elements are Python numbers:
    `+`, `*`, unary `-` and truth value are the ring's arithmetic, up to one
    reduction mod m when `m` is given.  Each operation collects raw sums of
    products on ints or Fractions, seeded with the domain's `zero`, and
    reduces every output coefficient once before it trims, so inputs may be
    unreduced or negative (Hensel lifting passes Z coefficients into
    Z/p^kZ).  Division keeps the generic contract on inverses."""

    def __init__(self, domain, m=None):
        super().__init__(domain)
        self.m = m

    def trim(self, coeffs):
        m = self.m
        out = list(coeffs) if m is None else [c % m for c in coeffs]
        while out and not out[-1]:
            out.pop()
        return tuple(out)

    def ord(self, f):
        m = self.m
        for i, c in enumerate(f):
            if c if m is None else c % m:
                return i
        raise ValueError("zero polynomial has no order")

    def add(self, f, g):
        if len(f) < len(g):
            f, g = g, f
        out = list(f)
        for i, c in enumerate(g):
            out[i] += c
        return self.trim(out)

    def sub(self, f, g):
        out = list(f) + [self.domain.zero] * (len(g) - len(f))
        for i, c in enumerate(g):
            out[i] -= c
        return self.trim(out)

    def neg(self, f):
        return self.trim([-c for c in f])

    def mul(self, f, g):
        if not f or not g:
            return ()
        out = [self.domain.zero] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            if a:
                for k, b in enumerate(g, i):
                    if b:
                        out[k] += a * b
        return self.trim(out)

    def scale(self, f, c):
        if not c:
            return ()
        return self.trim([a * c for a in f])

    def divmod(self, f, g):
        """As `DensePolys.divmod`: the lead of g is inverted only when
        deg f >= deg g and it is not `one`, and only by `domain.inv`."""
        if not g:
            raise ZeroDivisionError("division by the zero polynomial")
        dg = len(g) - 1
        if len(f) - 1 < dg:
            return (), self.trim(f)
        d, m = self.domain, self.m
        inv_lead = None if g[-1] == d.one else d.inv(g[-1])
        low = [(i, -b) for i, b in enumerate(g[:-1]) if b]
        rem = list(f)
        q = [d.zero] * (len(f) - dg)
        for k in range(len(q) - 1, -1, -1):
            c = rem.pop()
            if m is not None:
                c %= m
            if not c:
                continue
            if inv_lead is not None:
                c = c * inv_lead if m is None else c * inv_lead % m
            q[k] = c
            for i, nb in low:
                rem[k + i] += c * nb
        while q and not q[-1]:
            q.pop()
        return tuple(q), self.trim(rem)


class Poly:
    """A polynomial in `var` over a valued field: a coefficient tuple worked
    on by the field's dense core, `field.polys`."""

    __slots__ = ("field", "var", "coeffs")

    def __init__(self, field, var, coeffs):
        self.field = field
        self.var = var
        self.coeffs = field.polys.trim(coeffs)

    @classmethod
    def zero(cls, field, var):
        return cls(field, var, ())

    @classmethod
    def const(cls, field, var, elem):
        return cls(field, var, (elem,))

    @classmethod
    def variable(cls, field, var):
        return cls(field, var, (field.zero, field.lift_scalar(field.scalars.one)))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def lead(self):
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self):
        return not self.is_zero and self.field.eq(self.lead, self.field.one)

    def constant_term(self):
        """The base element of a polynomial of degree <= 0."""
        if self.degree > 0:
            raise ValueError("degree %d polynomial is not a constant" % self.degree)
        return self.coeffs[0] if self.coeffs else self.field.zero

    def _spawn(self, coeffs):
        """A polynomial over the same field and variable from an already
        trimmed coefficient tuple."""
        out = Poly.__new__(Poly)
        out.field = self.field
        out.var = self.var
        out.coeffs = coeffs
        return out

    def __add__(self, other):
        return self._spawn(self.field.polys.add(self.coeffs, other.coeffs))

    def __sub__(self, other):
        return self._spawn(self.field.polys.sub(self.coeffs, other.coeffs))

    def __neg__(self):
        return self._spawn(self.field.polys.neg(self.coeffs))

    def __mul__(self, other):
        return self._spawn(self.field.polys.mul(self.coeffs, other.coeffs))

    def scale(self, elem):
        return self._spawn(self.field.polys.scale(self.coeffs, elem))

    def pow(self, n):
        return self._spawn(self.field.polys.pow(self.coeffs, n))

    def eq(self, other):
        return not self.field.polys.sub(self.coeffs, other.coeffs)

    def euclid_div(self, g):
        """(q, r) with self = q*g + r and deg r < deg g."""
        q, r = self.field.polys.divmod(self.coeffs, g.coeffs)
        return self._spawn(q), self._spawn(r)

    def format(self):
        return self.field.polys.format(self.coeffs, self.var, wrap=True)

    def __repr__(self):
        return "Poly(%s)" % self.format()


def standard_expansion(f, q):
    """Coefficients [c_0, c_1, ...] with f = sum c_j * q^j and deg c_j < deg q,
    by repeated euclidean division."""
    if q.degree < 1:
        raise ValueError("expansion needs a divisor of positive degree")
    polys = f.field.polys
    out = []
    rest = f.coeffs
    while rest:
        rest, r = polys.divmod(rest, q.coeffs)
        out.append(f._spawn(r))
    if not out:
        out.append(f._spawn(()))
    return out


def shifted_expansion(expansion, s):
    """The expansion in powers of q - s, for a constant s, of the polynomial
    whose expansion [c_0, c_1, ...] in powers of q is given.  From
    f = sum c_j ((q - s) + s)^j the new coefficients are those of the Taylor
    shift g(Z + s) of g(Z) = sum c_j Z^j, so they too have degree below
    deg q.  Horner's scheme shifts each column (the x^i-coefficients of
    c_0, c_1, ...) as a list of field elements, at most n(n+1)/2 products
    by s per column for n + 1 coefficients, with the field's `add` and `mul`
    bound from the instance at call time."""
    head = expansion[0]
    field = head.field
    add, mul, is_zero = field.add, field.mul, field.is_zero
    if is_zero(s):
        return list(expansion)
    n = len(expansion) - 1
    zero = field.zero
    cols = []
    for i in range(max(len(c.coeffs) for c in expansion)):
        col = [c.coeffs[i] if i < len(c.coeffs) else zero for c in expansion]
        for lo in range(n):
            for j in range(n - 1, lo - 1, -1):
                b = col[j + 1]
                if not is_zero(b):
                    col[j] = add(col[j], mul(s, b))
        cols.append(col)
    trim = field.polys.trim
    return [head._spawn(trim([col[j] for col in cols])) for j in range(n + 1)]
