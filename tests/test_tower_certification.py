"""The coordinate tower's certification against a whole-copy reference.

`CoordinateTower._certify` copies an element once, at its first tie, and
rewrites the tied terms of that working copy in place; `unit_residue`
certifies numerator and denominator once and then moves only their two
leading terms.  The reference below is the plain form of the same
algorithm: every rewrite builds a new polynomial, and a residue rewrites
both whole polynomials and certifies both again at every level.  On seeded
random elements the two must give the same values, the same residues and
the same refusals, type and text, and neither may change an operand.
"""

import copy
import random
import re
from fractions import Fraction

from valforge.fields import CoordinateTower, InsufficientPrecision, Refusal
from valforge.values import INF, Value


def _ref_subst_term(F, m, coeff, i):
    p, atoms = F.p, F._atoms
    e = (m >> F._off[i]) & F._mask[i]
    base = m - e * atoms[i] + p * e * atoms[i + 1]
    step = atoms[i + 2]
    if base + e * step >= F._limit:
        raise F._overflow("%s rewritten one level deeper"
                          % F._spell(F._pairs(e * atoms[i])))
    return {base + ve * step: coeff * uc % p
            for ve, uc in F._unit_block(e, F.gamma(i + 2)).items()}


def _ref_reduce_group(F, f, group, i):
    if i + 2 > F.max_depth:
        raise InsufficientPrecision("tower depth %d exhausted" % F.max_depth)
    p = F.p
    out = {e: c for e, c in f.items() if e not in group}
    for e in group:
        for e2, c2 in _ref_subst_term(F, e, f[e], i).items():
            s = (out.get(e2, 0) + c2) % p
            if s:
                out[e2] = s
            else:
                del out[e2]
    return out


def _ref_certify(F, f, log):
    """(value, coefficient, monomial, reduced polynomial); logs the number
    of rewrites it made."""
    rewrites = log["rewrites"]
    shift = F._shift
    steps = 0
    while True:
        if not f:
            rewrites.append(steps)
            raise InsufficientPrecision(
                "certification cancelled every term within depth %d"
                % F.max_depth)
        low = min(f)
        minv = low >> shift
        above = (minv + 1) << shift
        group = [e for e in f if e < above]
        if len(group) == 1:
            rewrites.append(steps)
            return minv, f[low], low, f
        try:
            f = _ref_reduce_group(F, f, set(group), F._split_level(group))
        except InsufficientPrecision:
            rewrites.append(steps)
            raise
        steps += 1
        if steps > 64 * F.max_depth:
            rewrites.append(steps)
            raise InsufficientPrecision(
                "value certification did not settle within depth %d"
                % F.max_depth)


def _ref_valuate(F, x, log):
    if F.is_zero(x):
        return INF
    num, den = x
    vn = _ref_certify(F, num, log)[0]
    vd = _ref_certify(F, den, log)[0]
    return Value.over((vn - vd,), F._pD)


def _ref_unit_residue(F, x, d, log):
    """Logs the number of levels it moved the two leads down."""
    if F.is_zero(x) or F.is_zero(d):
        raise ValueError("unit_residue of zero")
    num = F._pmul(x[0], d[1])
    den = F._pmul(x[1], d[0])
    steps = 0
    while True:
        vn, cn, en, num = _ref_certify(F, num, log)
        vd, cd, ed, den = _ref_certify(F, den, log)
        if vn != vd:
            raise ValueError(
                "unit_residue needs equal values, got %s and %s"
                % (Fraction(vn, F._pD), Fraction(vd, F._pD)))
        if en == ed:
            log["moves"].append(steps)
            return F.scalars.div(cn, cd)
        i = F._split_level([en, ed])
        num = _ref_reduce_group(F, num, {en}, i)
        den = _ref_reduce_group(F, den, {ed}, i)
        steps += 1
        if steps > 64 * F.max_depth:
            raise InsufficientPrecision(
                "residue computation did not settle within depth %d"
                % F.max_depth)


def _outcome(call):
    try:
        return "ok", call()
    except (ValueError, Refusal) as exc:
        return type(exc).__name__, str(exc)


def _towers():
    for p in (2, 3, 5):
        for gamma in range(1, p):
            for depth in range(3, 8):
                yield CoordinateTower(p, gamma, depth)


def _elements(F, rng, count):
    """Sums and differences of squares of atom products, over such
    denominators.  The second product of a square pair spells the first
    one's value another way (v_l as v_{l+1}^p or u_{l+1}, u_l as v_l^p), so
    their terms tie, often all the way to a cancellation or past the
    depth."""
    D, p = F.max_depth, F.p

    def respell(spec):
        spec = list(spec)
        kind, lvl = spec.pop(rng.randrange(len(spec)))
        if kind == "u":
            return spec + [("v", lvl)] * p
        if lvl + 1 < D and rng.randrange(2):
            return spec + [("u", lvl + 1)]
        if lvl < D:
            return spec + [("v", lvl + 1)] * p
        return spec + [(kind, lvl)]

    def square(spec, sign):
        term = F.from_int(sign * rng.randrange(1, p))
        for kind, lvl in spec:
            term = F.mul(term, F.atom("%s%d" % (kind, lvl)))
        return F.mul(term, term)

    def poly():
        spec = [(rng.choice("uv"), rng.randrange(1, D))
                for _ in range(rng.randint(1, 2))]
        acc = square(spec, 1)
        for _ in range(rng.randint(1, 3)):
            spec = respell(spec)
            acc = F.add(acc, square(spec, rng.choice((1, -1))))
        return acc

    out = []
    while len(out) < count:
        x = poly()
        if F.is_zero(x):
            continue
        if rng.randrange(2):
            den = poly()
            if not F.is_zero(den):
                x = F.div(x, den)
        out.append(x)
    return out


def _check_pair(F, ref_call, new_call, args, log):
    before = copy.deepcopy(args)
    zero, one = copy.deepcopy(F.zero), copy.deepcopy(F.one)
    expected = _outcome(lambda: ref_call(F, *args, log))
    got = _outcome(lambda: new_call(*args))
    assert got == expected, (F, [F.format_element(a) for a in args])
    assert args == before and F.zero == zero and F.one == one
    return got


def test_certification_matches_the_whole_copy_reference():
    rng = random.Random(37)
    log, refusals, residues = {"rewrites": [], "moves": []}, [], 0
    for F in _towers():
        xs = _elements(F, rng, 20)
        for x in xs:
            kind, value = _check_pair(F, _ref_valuate, F.valuate, (x,), log)
            if kind != "ok":
                refusals.append((kind, value))
                continue
            # partners of x's value: x times a unit, and the value's
            # shallowest monomial times a unit, whose lead x's must meet
            w = F.add(F.from_int(rng.randrange(1, F.p)),
                      F.mul(rng.choice(xs), F.atom("v%d" % F.max_depth)))
            for d in (F.mul(x, w), F.mul(F.canonical_element(value), w),
                      rng.choice(xs)):
                kind, got = _check_pair(F, _ref_unit_residue, F.unit_residue,
                                        (x, d), log)
                if kind == "ok":
                    residues += 1
                else:
                    refusals.append((kind, got))
    # the inputs reach deep ties, leads that meet only levels down, the
    # depth refusal and unequal values
    assert max(log["rewrites"]) >= 3
    assert max(log["moves"]) >= 3
    assert residues
    assert any(kind == "InsufficientPrecision"
               and re.fullmatch(r"tower depth \d+ exhausted", text)
               for kind, text in refusals)
    assert any(kind == "ValueError"
               and text.startswith("unit_residue needs equal values")
               for kind, text in refusals)


def test_overflow_refusal_names_the_reference_term():
    # both tied terms overflow when rewritten; the refusal names the same
    # one as the reference, whichever order the element lists them in
    F = CoordinateTower(2, 1, 3)
    n = 3_500_000_000
    a = F.pow(F.atom("v"), n)
    b = F.mul(F.pow(F.atom("v"), n - 1), F.pow(F.atom("v2"), 2))
    log = {"rewrites": [], "moves": []}
    for x in (F.add(a, b), F.add(b, a)):
        kind, text = _check_pair(F, _ref_valuate, F.valuate, (x,), log)
        assert kind == "InsufficientPrecision"
        assert text.endswith(" rewritten one level deeper has value 2^31 or "
                             "more, beyond the tower's exponent fields")
