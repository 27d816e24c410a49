"""Value-group arithmetic: ordered value vectors, finitely generated groups, ordinal indices.

Values live in Q^r ordered lexicographically (rank r is fixed per valued field), with a
single formal infinite element on top.  A finite value is a tuple of integer numerators
over one positive common denominator in lowest terms: sums, differences, scalings and
comparisons are integer operations, with no Fraction on the way, and `coords` gives the
exact ints or Fractions back for printing.  Groups are finitely generated subgroups of
Q^r; membership and subgroup index go through integer Hermite normal forms of the
generator numerators over their common denominator, so everything is exact.
"""

import re
from decimal import Decimal
from fractions import Fraction
from math import gcd, lcm


class Value:
    """A finite point of Q^r under lexicographic order, held as integer
    numerators `nums` over one positive denominator `den` in lowest terms, so
    equal points have equal fields however they were written.  `Value(coords)`
    takes ints or Fractions; `Value.over(nums, den)` takes the integers and
    keeps a tuple it is given.  Arithmetic and comparison work on the
    integers and cross-multiply only when two denominators differ; at rank 1
    (every valuation on k(y) and the tower) sums, differences and int scales
    work on the single numerator, with no generator or `zip`."""

    __slots__ = ("nums", "den")
    is_infinite = False

    def __init__(self, coords):
        coords = tuple(coords)
        den = lcm(*(c.denominator for c in coords))
        self.nums = tuple(c.numerator * (den // c.denominator) for c in coords)
        self.den = den

    @classmethod
    def over(cls, nums, den=1):
        """The point nums/den for ints nums and den > 0."""
        if type(nums) is not tuple:
            nums = tuple(nums)
        if den != 1:
            g = gcd(den, *nums)
            if g != 1:
                nums = tuple(n // g for n in nums)
                den //= g
        out = object.__new__(cls)
        out.nums = nums
        out.den = den
        return out

    @classmethod
    def zero(cls, rank):
        return cls.over((0,) * rank)

    @property
    def rank(self):
        return len(self.nums)

    @property
    def coords(self):
        """The coordinates as ints, or as Fractions when den is not 1."""
        den = self.den
        if den == 1:
            return self.nums
        return tuple(Fraction(n, den) for n in self.nums)

    def scale(self, n):
        """The point times a rational n (an int or a Fraction)."""
        nums = self.nums
        if type(n) is int and len(nums) == 1:
            return Value.over((nums[0] * n,), self.den)
        num = n.numerator
        return Value.over(tuple(a * num for a in nums),
                          self.den * n.denominator)

    def __truediv__(self, n):
        """The point divided by a positive int n."""
        return Value.over(self.nums, self.den * n)

    def __add__(self, other):
        if other.is_infinite:
            return INF
        return self._combine(other, 1)

    def __sub__(self, other):
        if other.is_infinite:
            raise ValueError("cannot subtract the infinite value")
        return self._combine(other, -1)

    def _combine(self, other, sign):
        """self + sign*other, over the lcm of the two denominators."""
        an, bn = self.nums, other.nums
        da, db = self.den, other.den
        if len(an) == 1 and len(bn) == 1:
            if da == db:
                return Value.over((an[0] + bn[0] if sign > 0
                                   else an[0] - bn[0],), da)
            g = gcd(da, db)
            fa = db // g
            return Value.over((an[0] * fa + bn[0] * ((da // g) * sign),),
                              da * fa)
        pairs = zip(an, bn, strict=True)
        if da == db:
            if sign > 0:
                return Value.over(tuple(x + y for x, y in pairs), da)
            return Value.over(tuple(x - y for x, y in pairs), da)
        g = gcd(da, db)
        fa, fb = db // g, (da // g) * sign
        return Value.over(tuple(x * fa + y * fb for x, y in pairs), da * fa)

    def __neg__(self):
        return Value.over(tuple(-c for c in self.nums), self.den)

    def __eq__(self, other):
        return (isinstance(other, Value) and not other.is_infinite
                and self.den == other.den and self.nums == other.nums)

    def __hash__(self):
        return hash((self.nums, self.den))

    def __lt__(self, other):
        if other.is_infinite:
            return True
        da, db = self.den, other.den
        if da == db:
            return self.nums < other.nums
        for x, y in zip(self.nums, other.nums):
            x *= db
            y *= da
            if x != y:
                return x < y
        return False

    def __le__(self, other):
        return self == other or self < other

    def __gt__(self, other):
        return not self <= other

    def __ge__(self, other):
        return not self < other

    def __repr__(self):
        return "Value(%s)" % (self.coords,)

    def __str__(self):
        return format_value(self)


class _InfiniteValue(Value):
    """The formal top element; absorbing under addition and positive scaling."""

    __slots__ = ()
    is_infinite = True

    def __init__(self):
        self.nums = self.den = None

    @property
    def rank(self):
        raise ValueError("infinite value has no rank")

    def scale(self, n):
        if n <= 0:
            raise ValueError("cannot scale the infinite value by %s" % n)
        return self

    def __add__(self, other):
        return self

    def __sub__(self, other):
        raise ValueError("cannot subtract from the infinite value")

    def __neg__(self):
        raise ValueError("cannot negate the infinite value")

    def __eq__(self, other):
        return isinstance(other, _InfiniteValue)

    def __hash__(self):
        return hash("inf-value")

    def __lt__(self, other):
        return False

    def __repr__(self):
        return "INF"


INF = _InfiniteValue()


def format_rational(q):
    """str(q) for an int or a Fraction of any size.  str() of an int refuses
    more than sys.get_int_max_str_digits() digits (4300 by default); the
    Decimal conversion has no such limit and writes the same digits."""
    text = str(Decimal(q.numerator))
    if q.denominator == 1:
        return text
    return "%s/%s" % (text, Decimal(q.denominator))


def parse_integer(digits):
    """int(digits) for a string of ASCII digits, with a leading minus or
    not, of any length: int() refuses more than 4300 digits, the Decimal
    conversion reads them all."""
    return int(Decimal(digits))


def format_value(v):
    if v.is_infinite:
        return "inf"
    if len(v.coords) == 1:
        return format_rational(v.coords[0])
    return "(%s)" % ", ".join(format_rational(c) for c in v.coords)


_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def parse_value(text, rank):
    """Parse 'inf', a single rational a or a/b, or a tuple '(a, b, ...)' of
    the given rank, a and b integers in ASCII digits (`parse_integer`)."""
    text = text.strip()
    if text == "inf":
        return INF
    if text.startswith("("):
        if not text.endswith(")"):
            raise ValueError("unbalanced value tuple: %r" % text)
        parts = [p.strip() for p in text[1:-1].split(",")]
    else:
        parts = [text]
    if len(parts) != rank:
        raise ValueError("value %r has %d coordinates, expected %d" % (text, len(parts), rank))
    nums, dens = [], []
    for part in parts:
        m = _RATIONAL.fullmatch(part)
        den = parse_integer(m.group(2) or "1") if m else 0
        if den == 0:
            raise ValueError("bad value literal %r" % text)
        nums.append(parse_integer(m.group(1)))
        dens.append(den)
    den = lcm(*dens)
    return Value.over(tuple(n * (den // d) for n, d in zip(nums, dens)), den)


def _hermite_rows(rows):
    """Row Hermite form of an integer matrix: echelon basis rows, positive pivots,
    entries above each pivot reduced into [0, pivot)."""
    ncols = len(rows[0]) if rows else 0
    mat = [list(r) for r in rows if any(r)]
    basis = []
    for col in range(ncols):
        while True:
            nz = [r for r in mat if r[col]]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda r: abs(r[col]))
            a = nz[0]
            for b in nz[1:]:
                q = b[col] // a[col]
                for k in range(col, ncols):
                    b[k] -= q * a[k]
            mat = [r for r in mat if any(r)]
        nz = [r for r in mat if r[col]]
        if nz:
            p = nz[0]
            mat = [r for r in mat if r is not p]
            if p[col] < 0:
                p = [-x for x in p]
            basis.append(p)
    for i, row in enumerate(basis):
        pc = next(k for k, x in enumerate(row) if x)
        for j in range(i):
            q = basis[j][pc] // row[pc]
            if q:
                basis[j] = [x - q * y for x, y in zip(basis[j], row)]
    return basis


class ValueGroup:
    """Finitely generated subgroup of Q^r, closed under the queries the chains need:
    membership, extension by a new value, and index of a finite-index subgroup."""

    __slots__ = ("rank", "gens", "_den", "_basis", "_pivots")

    def __init__(self, rank, gens):
        self.rank = rank
        self.gens = tuple(gens)
        for g in self.gens:
            if g.is_infinite:
                raise ValueError("groups are generated by finite values only")
            if g.rank != rank:
                raise ValueError("generator rank %d does not match group rank %d" % (g.rank, rank))
        den = self._den = lcm(*(g.den for g in self.gens))
        rows = [[n * (den // g.den) for n in g.nums] for g in self.gens]
        self._basis = _hermite_rows(rows)
        self._pivots = tuple(next(k for k, x in enumerate(r) if x) for r in self._basis)

    def contains(self, v):
        if v.is_infinite or v.rank != self.rank:
            return False
        f, r = divmod(self._den, v.den)
        if r:
            return False
        t = [n * f for n in v.nums]
        for row, pc in zip(self._basis, self._pivots):
            if t[pc] % row[pc]:
                return False
            q = t[pc] // row[pc]
            if q:
                t = [x - q * y for x, y in zip(t, row)]
        return not any(t)

    def extend(self, v):
        if self.contains(v):
            return self
        return ValueGroup(self.rank, self.gens + (v,))

    def multiple_order(self, v):
        """Least m >= 1 with m*v in the group: the index of the group in its
        extension by v, the commensurability index of v."""
        return group_index(self, self.extend(v))

    def __repr__(self):
        return "ValueGroup(rank=%d, gens=%s)" % (self.rank, list(self.gens))


def group_index(sub, sup):
    """Index [sup : sub] for groups with the same Q-span; raises if the index
    is infinite or the containment fails."""
    if sub.rank != sup.rank:
        raise ValueError("ambient ranks differ")
    for g in sub.gens:
        if not sup.contains(g):
            raise ValueError("%s is not contained in the larger group" % g)
    if sub._pivots != sup._pivots:
        raise ValueError("groups span different subspaces; index is infinite")
    s = len(sub._pivots)
    num = sup._den**s
    den = sub._den**s
    for row, pc in zip(sub._basis, sub._pivots):
        num *= row[pc]
    for row, pc in zip(sup._basis, sup._pivots):
        den *= row[pc]
    idx, r = divmod(num, den)
    if r:
        raise AssertionError("index computation produced a non-integer: %s/%s"
                             % (num, den))
    return idx


class OrdinalIndex:
    """Chain position of shape w*m + n, printed in ASCII ('3', 'w+1', 'w2+5')."""

    __slots__ = ("limit", "offset")

    def __init__(self, limit, offset):
        if limit < 0 or offset < 0:
            raise ValueError("ordinal parts must be nonnegative")
        self.limit = limit
        self.offset = offset

    @property
    def is_limit(self):
        return self.limit > 0 and self.offset == 0

    def successor(self):
        return OrdinalIndex(self.limit, self.offset + 1)

    def key(self):
        return (self.limit, self.offset)

    def __eq__(self, other):
        return isinstance(other, OrdinalIndex) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __lt__(self, other):
        return self.key() < other.key()

    def __le__(self, other):
        return self.key() <= other.key()

    def __str__(self):
        if self.limit == 0:
            return str(self.offset)
        head = "w" if self.limit == 1 else "w%d" % self.limit
        return head if self.offset == 0 else "%s+%d" % (head, self.offset)

    def __repr__(self):
        return "OrdinalIndex(%d, %d)" % (self.limit, self.offset)
