"""Key polynomial chains and the truncated valuations they carry.

A chain is a sequence of monic keys Q_1, Q_2, ... with strictly increasing
values beta_1 < beta_2 < ...; positions are ordinal indices so that a chain
can pass through limit stages.  Stage k assigns every polynomial the value

    min_m ( m*beta_k + value of the m-th coefficient at stage k-1 )

over its expansion in powers of Q_k, with the base valuation at stage 0.
Everything else here is bookkeeping on top of that recursion: effective
degrees (the largest expansion exponent attaining the minimum), Newton
polygons of coefficient values, residues of graded pieces against canonical
monomials, and the peel-refine loop that grows chains from the residual
polynomial of a side.

Residues are normalized against canonical monomials.  Every value in the
stage group has a unique expression v0 + sum m_j*beta_j with 0 <= m_j below
the spacing e_j of level j and v0 in the base group; the canonical monomial
multiplies the base element of v0 with the matching key powers.  The residue
identification of level j (what the class of Q_j^{e_j} divided by its weight
monomial evaluates to) is forced by the next key, so it is stored on entry
j+1, either as a scalar or as a generator of one quotient ring k[T]/(m); a
second simultaneous extension is refused rather than guessed at.  A key
that growth lifts from a factor of a residual brings that factor as its
identification; a scripted or limit key has it read from its initial form.
For a degree jump g > 1 over the spacing that is done when the key is
appended, since whether the relation adjoins a root decides the residue
ring and the refusal.  For g = 1 the relation is a root, which decides
neither, so it is read when a residue first needs it (`Chain.rule`) and
kept on the entry: it depends only on the levels up to its own, which never
change, and most scripted relations are never read.  Entries are never
replaced once appended.
"""

import functools

from .fields import (InsufficientPrecision, Refusal, UnsupportedStructure,
                     factor_scalar_poly)
from .graded import EtaleRing, InClass, ScalarRing
from .polyring import Poly, shifted_expansion, standard_expansion
from .values import INF, OrdinalIndex, group_index


class ChainError(Refusal):
    """An entry or query that the chain axioms reject."""


# `canonical_monomial` tries every multiple below a level's spacing, so
# `append` refuses a value whose order over the group below exceeds this.
ORDER_CAP = 10**6


# ---------------------------------------------------------------------------
# canonical monomials


class CanonMono:
    """A value split as v0 + sum m_j*beta_j: base part plus key exponents."""

    __slots__ = ("v0", "exps")

    def __init__(self, v0, exps):
        self.v0 = v0
        self.exps = {j: m for j, m in exps.items() if m}

    def materialize(self, chain):
        out = Poly.const(chain.field, chain.var,
                         chain.field.canonical_element(self.v0))
        for j in sorted(self.exps):
            out = out * chain.entry(j).poly.pow(self.exps[j])
        return out

    def __repr__(self):
        return "CanonMono(%s, %r)" % (self.v0, self.exps)


# ---------------------------------------------------------------------------
# chain entries


class ChainEntry:
    """One key of a chain.  `rule` is the residue identification of the level
    below, which this key forces (None on the first entry), read through
    `Chain.rule`: a scripted or limit key of degree jump g = 1 holds None
    until that first reads it, and the relation made then is kept here.
    `memo` maps each polynomial (by identity: a `Poly` is never changed) to
    its record at this level, the pair (`term_values`, `argmin_data`): the
    term list and its minimum, both made once, when the polynomial is first
    valued here.  `weight` is the level's weight monomial once
    `Chain.weight` has made it.  All three depend only on the keys and
    values of levels up to this one, which never change, so every chain
    that shares the entry (each clone shares all of them) shares them
    too."""

    __slots__ = ("index", "poly", "beta", "origin", "alpha",
                 "e_step", "f_step", "group", "rule", "memo", "weight")

    def __init__(self, index, poly, beta, origin, alpha, e_step, f_step, group,
                 rule):
        self.index = index
        self.poly = poly
        self.beta = beta
        self.origin = origin
        self.alpha = alpha
        self.e_step = e_step
        self.f_step = f_step
        self.group = group
        self.rule = rule
        self.memo = {}
        self.weight = None

    def __repr__(self):
        return "ChainEntry(%s: %s @ %s)" % (self.index, self.poly.format(),
                                            self.beta)


# ---------------------------------------------------------------------------
# Newton polygon helpers (exact, division-free comparisons)


class Side:
    __slots__ = ("j_left", "v_left", "j_right", "v_right", "sigma")

    def __init__(self, j_left, v_left, j_right, v_right):
        self.j_left = j_left
        self.v_left = v_left
        self.j_right = j_right
        self.v_right = v_right
        self.sigma = (v_left - v_right) / (j_right - j_left)

    def __repr__(self):
        return "Side(%d..%d, sigma=%s)" % (self.j_left, self.j_right, self.sigma)


def lower_hull(points):
    """Vertices of the lower convex hull of (int, Value) points, collinear
    interior points merged away."""
    pts = sorted(points)
    hull = []
    for x3, y3 in pts:
        while len(hull) >= 2:
            x1, y1 = hull[-2]
            x2, y2 = hull[-1]
            # drop the middle point when slope(1,2) >= slope(2,3)
            if (y2 - y1).scale(x3 - x2) >= (y3 - y2).scale(x2 - x1):
                hull.pop()
            else:
                break
        hull.append((x3, y3))
    return hull


def polygon_sides(hull):
    return [Side(hull[i][0], hull[i][1], hull[i + 1][0], hull[i + 1][1])
            for i in range(len(hull) - 1)]


# ---------------------------------------------------------------------------
# the chain


class Chain:
    def __init__(self, field, var, target, lump_sides=False):
        if not target.is_monic:
            raise ChainError("the tracked polynomial must be monic")
        if target.degree < 1:
            raise ChainError("the tracked polynomial %s has degree %d; it "
                             "must have degree at least 1"
                             % (target.format(), target.degree))
        self.field = field
        self.var = var
        self.target = target
        self.lump_sides = lump_sides
        self.entries = []
        self.base_group = field.base_group()
        self.ring = ScalarRing(field.scalars)
        self._expansions = {}
        self._latest = {}

    # -- structure ----------------------------------------------------------

    def depth(self):
        return len(self.entries)

    def entry(self, k):
        if not 1 <= k <= len(self.entries):
            raise ChainError("no entry at level %d" % k)
        return self.entries[k - 1]

    def group(self, k):
        return self.base_group if k == 0 else self.entry(k).group

    def clone(self):
        """Shares every attribute but the entry list, which `append` grows."""
        ch = Chain.__new__(Chain)
        ch.__dict__.update(self.__dict__)
        ch.entries = list(self.entries)
        return ch

    def _expand(self, f, key):
        """f's expansion in powers of key.  The target's is made once per key
        and shared with every clone: `candidate_betas` expands the target in
        a key before it is appended, and `term_values` at the key's level
        (or the terminal check in `append`) needs the same expansion after.
        A `Poly` hashes by identity, so the dict also keeps each key alive.

        `_latest` holds the last key of each degree the target was expanded
        in, shared with clones the same way.  When key differs from it only
        in the constant coefficient (compared structurally), as successive
        keys of a degree-1 ladder do, the target's expansion in key is the
        Taylor shift of the one held (`shifted_expansion`), products by the
        constant step instead of a division by the whole key; every other
        expansion is divided out (`standard_expansion`)."""
        if f is not self.target:
            return standard_expansion(f, key)
        out = self._expansions.get(key)
        if out is None:
            held = self._latest.get(key.degree)
            if held is not None and held.coeffs[1:] == key.coeffs[1:]:
                step = self.field.sub(held.coeffs[0], key.coeffs[0])
                out = shifted_expansion(self._expansions[held], step)
            else:
                out = standard_expansion(f, key)
            self._expansions[key] = out
            self._latest[key.degree] = key
        return out

    # -- truncated values ---------------------------------------------------

    def cval(self, f, k):
        """Value of f under the stage-k truncation (base valuation at k=0).
        Above stage 0 it is the minimum that `argmin_data` keeps in the
        entry's memo."""
        if f.is_zero:
            return INF
        if k:
            self.entry(k)           # refuses a level the chain lacks
        deg = f.degree
        while k and deg < self.entries[k - 1].poly.degree:
            k -= 1
        if k:
            data = self._record(f, k, self.entries[k - 1])[1]
            return INF if data is None else data[0]
        if deg > 0:
            raise ChainError("stage 0 only values constants")
        elem = f.constant_term()
        return INF if self.field.is_zero(elem) else self.field.valuate(elem)

    def term_values(self, f, k):
        """(m, coefficient, m*beta_k + stage-(k-1) value) over the expansion
        of f in powers of Q_k; zero coefficients are skipped."""
        return self._record(f, k, self.entry(k))[0]

    def argmin_data(self, f, k):
        """(min value, ((m, coefficient), ...) attaining it), or None when
        every term is infinite."""
        return self._record(f, k, self.entry(k))[1]

    def _record(self, f, k, ent):
        """The memo record of f at level k, whose entry ent the caller has
        looked up, the pair (`term_values`, `argmin_data`): made on the
        first call for f and level, and read from the entry's memo after."""
        rec = ent.memo.get(f)
        if rec is not None:
            return rec
        terms = []
        minv, S = None, []
        for m, c in enumerate(self._expand(f, ent.poly)):
            if c.is_zero:
                continue
            v = self.cval(c, k - 1)
            if m and v is not INF:
                v = v + ent.beta.scale(m)
            terms.append((m, c, v))
            if v is INF:
                continue
            if minv is None or v < minv:
                minv, S = v, [(m, c)]
            elif v == minv:
                S.append((m, c))
        rec = ent.memo[f] = (tuple(terms),
                             None if minv is None else (minv, tuple(S)))
        return rec

    def effective_degree(self, f, k=None):
        """Largest expansion exponent attaining the stage value; None when f
        vanishes under the truncation."""
        k = self.depth() if k is None else k
        data = self.argmin_data(f, k)
        if data is None:
            return None
        return max(m for m, _ in data[1])

    # -- canonical monomials and residues -----------------------------------

    def canonical_monomial(self, v, k):
        """Split v uniquely over the stage-k group: base part plus bounded key
        exponents."""
        if v is INF:
            raise ChainError("no canonical monomial for an infinite value")
        exps = {}
        cur = v
        for j in range(k, 0, -1):
            ent = self.entry(j)
            if ent.e_step == 1:     # only m = 0; a terminated level too
                continue
            for m in range(ent.e_step):
                if self.group(j - 1).contains(cur - ent.beta.scale(m)):
                    if m:
                        exps[j] = m
                        cur = cur - ent.beta.scale(m)
                    break
            else:
                raise ChainError("%s is not in the stage %d value group" % (v, k))
        if not self.base_group.contains(cur):
            raise ChainError("%s is not in the stage %d value group" % (v, k))
        return CanonMono(cur, exps)

    def weight(self, k):
        """Canonical monomial of e_k*beta_k, written at level k-1: the unit
        against which the class of Q_k^{e_k} is measured."""
        ent = self.entry(k)
        if ent.weight is None:
            if ent.beta is INF:
                raise ChainError("terminated level has no weight monomial")
            ent.weight = self.canonical_monomial(ent.beta.scale(ent.e_step),
                                                 k - 1)
        return ent.weight

    def rule(self, k):
        """The residue relation that the key of entry k forces on level k-1
        (None for k = 1).  A scripted or limit key of degree jump g = 1 is
        appended without one; it is read from the key's initial form here,
        on the first call, from the levels below k, and kept on the entry,
        which every clone shares.  The chain's residue ring may have been
        extended above those levels since; their residues then lie in the
        scalars it embeds, so the same root is read.  A refusal raised here
        keeps its type and is placed by the caller, as any refusal of a
        residue is."""
        ent = self.entry(k)
        if ent.rule is None and k > 1:
            g = ent.alpha // self.entries[k - 2].e_step
            ent.rule = self._derive_rule(ent.poly, g, k - 1)
        return ent.rule

    def _rule_power(self, k, q):
        ring = self.ring
        if q == 0:
            return ring.one
        if k >= self.depth():
            raise ChainError("level %d has no residue identification yet" % k)
        rule = self.rule(k + 1)         # forced by the key of level k + 1
        if rule[0] == "const":
            return ring.pow(ring.embed(rule[1]), q)
        return ring.pow(ring.gen, q)

    def nres(self, f, dv0, dexps, k):
        """Residue of the initial form of f against the monomial with base
        part dv0 and key exponents dexps, all at level k.  Returns zero when
        f sits strictly above the monomial, and refuses to look below it.

        Like `cval`, it first steps down past every level whose key is longer
        than f and to which dexps gives no exponent: there f is its own
        expansion, its value and the check against the monomial are those of
        the level below, and the rule power is one, so the level below gives
        the same residue or the same refusal.

        At level k the residue is the level's residual polynomial evaluated
        at its residue class: every term of the minimum lies t_m spacings
        from the monomial's Q_k exponent, `_residual` gives its residue
        against the monomial less t_m weight monomials, and the sum weighs
        each by the t_m-th power of the class of Q_k^{e_k} over the weight
        (`_rule_power`)."""
        ring = self.ring
        if f.is_zero:
            return ring.zero
        if k:
            self.entry(k)           # refuses a level the chain lacks
        deg = f.degree
        while k and deg < self.entries[k - 1].poly.degree and not dexps.get(k):
            k -= 1
        if k == 0:
            elem = f.constant_term()
            if self.field.is_zero(elem):
                return ring.zero
            fv = self.field.valuate(elem)
            if fv > dv0:
                return ring.zero
            if fv < dv0:
                raise ChainError("initial form dips below its reference monomial")
            return ring.embed(self.field.unit_residue(
                elem, self.field.canonical_element(dv0)))
        target = dv0
        for j, m in dexps.items():
            target = target + self.entry(j).beta.scale(m)
        data = self._record(f, k, self.entries[k - 1])[1]
        if data is None:
            return ring.zero
        minv, S = data
        if minv > target:
            return ring.zero
        if minv < target:
            raise ChainError("initial form dips below its reference monomial")
        parts = self._residual(S, k, dexps.get(k, 0), dv0,
                               {j: m for j, m in dexps.items() if j < k})
        acc = ring.zero
        for t, part in parts.items():
            if not ring.is_zero(part):
                acc = ring.add(acc, ring.mul(self._rule_power(k, t), part))
        return acc

    def in_class(self, f, k=None):
        """Initial form of f at stage k as a graded object: the stage value
        plus residue coefficients in X-degrees that attain it."""
        k = self.depth() if k is None else k
        ring = self.ring
        data = self.argmin_data(f, k)
        if data is None:
            return InClass(ring, INF, ())
        minv, S = data
        ent = self.entry(k)
        coeffs = [ring.zero] * (max(m for m, _ in S) + 1)
        for m, c in S:
            cv = minv if m == 0 else minv - ent.beta.scale(m)
            mono = self.canonical_monomial(cv, k - 1)
            coeffs[m] = self.nres(c, mono.v0, mono.exps, k - 1)
        return InClass(ring, minv, coeffs)

    # -- growth: validation, residuals, lifting ------------------------------

    def append(self, index, poly, beta, origin, rule=None):
        """Check the key poly with value beta at position index against the
        chain axioms and put it on top.  rule is the residue relation the key
        forces on the level below: `derive_keys` gives it with each key it
        lifts, and a key that comes without one (a scripted or limit entry)
        has it read from its initial form (`_derive_rule`).  For a degree
        jump g > 1 that is done here: the relation is a root or a quotient
        ring, which decides `self.ring` and the refusal of a second residue
        field extension.  For g = 1 it is a root, so neither depends on it,
        and it is read on its first use (`rule`).  The dominance, spacing,
        terminal and balance checks run for every key.  A value the field
        cannot hold is refused with the incoming key and stage put before
        the reason when the chain has a top entry, which is the place
        `located` gives; a refused first key is placed by its caller."""
        field = self.field
        if not poly.is_monic:
            raise ChainError("key polynomials are monic")
        prev = self.entries[-1] if self.entries else None
        if prev is None:
            if poly.degree != 1:
                raise ChainError("a chain starts with a degree 1 key")
            if index != OrdinalIndex(0, 1):
                raise ChainError("a chain starts at index 1")
            alpha = 1
        else:
            if prev.beta is INF:
                raise ChainError("cannot extend beyond a terminated stage")
            if not prev.index < index:
                raise ChainError("chain indices must increase")
            alpha, r = divmod(poly.degree, prev.poly.degree)
            if r or alpha < 1:
                raise ChainError("key degree must be a positive multiple of "
                                 "its predecessor")
            if beta is not INF and beta <= prev.beta:
                raise ChainError("stage values must strictly increase")
            if not index.is_limit and beta is not INF:
                dom = self.cval(poly, self.depth())
                if not beta > dom:
                    raise ChainError("declared value %s does not dominate the "
                                     "current truncation %s" % (beta, dom))
        if beta is not INF:
            try:
                field.admit_value(beta)
            except InsufficientPrecision as exc:
                if prev is None:
                    raise
                raise InsufficientPrecision(
                    "incoming key %s at stage %s: %s"
                    % (poly.format(), index, exc)) from None
        prev_group = self.group(self.depth())
        group = prev_group if beta is INF else prev_group.extend(beta)
        e_order = group_index(prev_group, group)
        if e_order > ORDER_CAP:
            raise ChainError("order of %s exceeds cap %d" % (beta, ORDER_CAP))
        f_step = 1
        if prev is not None:
            g, r = divmod(alpha, prev.e_step)
            if r:
                raise ChainError("degree jump %d is not a multiple of the "
                                 "level %d spacing %d"
                                 % (alpha, self.depth(), prev.e_step))
            if not index.is_limit:
                f_step = g
        if beta is INF:
            c0 = self._expand(self.target, poly)[0]
            if not all(field.is_zero_mod_precision(c) for c in c0.coeffs):
                raise ChainError("terminal key does not divide the tracked "
                                 "polynomial within the working precision")
        if prev is None:
            rule = None
        else:
            # a key valued below its top term Q_k^alpha has an initial form
            # that gives no monic relation of degree g on the level's class
            minv = self.argmin_data(poly, self.depth())[0]
            top = prev.beta.scale(alpha)
            if minv < top:
                raise ChainError("incoming key is not balanced at level %d: "
                                 "value %s below %s"
                                 % (self.depth(), minv, top))
            if rule is None and g > 1:
                rule = self._derive_rule(poly, g)
            ext = rule is not None and rule[0] == "ext"
            if ext and isinstance(self.ring, EtaleRing):
                raise UnsupportedStructure(
                    "the incoming key %s relates the residue class by %s, "
                    "and a second residue field extension is not supported"
                    % (poly.format(),
                       field.scalars.polys.format(rule[1], "T")))
            if ext:
                self.ring = EtaleRing(field.scalars, rule[1])
        self.entries.append(ChainEntry(index, poly, beta, origin, alpha,
                                       e_order, f_step, group, rule))

    def _derive_rule(self, newpoly, g, k=None):
        """Identification of the level-k residue class (k the depth unless
        given) forced by a key above it that brings none (a scripted or
        limit key), whose degree jump over Q_k is g*e_k (`append` has
        checked the spacing and the balance): the monic relation of degree
        g that its initial form imposes on the class of Q_k^{e_k} over the
        weight monomial, cut to its radical (`_relation`).  `append` calls
        it for g > 1 and `rule` on the first read for g = 1; it reads only
        levels up to k, so both give what it gives on the chain just
        before the key."""
        k = self.depth() if k is None else k
        S = self.argmin_data(newpoly, k)[1]
        e = self.entries[k - 1].e_step
        wt = self.weight(k)
        ring = self.ring
        parts = self._residual([(m, c) for m, c in S if m < g * e], k, 0,
                               wt.v0.scale(g),
                               {j: m * g for j, m in wt.exps.items()})
        rel = [parts.get(t, ring.zero) for t in range(g)] + [ring.one]
        if all(ring.is_scalar(a) for a in rel):
            domain = self.field.scalars
            return self._relation(factor_scalar_poly(
                domain, [ring.to_scalar(a) for a in rel]))
        if g == 1:
            return ("const", ring.neg(rel[0]))
        raise UnsupportedStructure(
            "key relation of degree %d over an extended residue ring" % g)

    def _relation(self, factors):
        """The residue relation whose roots are those of the factored
        polynomial: its radical, the product of its distinct monic factors,
        as ("const", root) when that is linear and ("ext", radical) else."""
        domain = self.field.scalars
        sp = domain.polys
        rad = functools.reduce(sp.mul, [fac for fac, _ in factors])
        if sp.degree(rad) == 1:
            return ("const", domain.neg(rad[0]))
        return ("ext", rad)

    def _residual(self, S, k, j1, dv0, dexps):
        """{t: residue} over the (m, coefficient) terms S of a minimum at
        level k, as `argmin_data` gives them: each term must lie on the
        lattice m = j1 + t*e_k, and its residue is taken against the
        monomial (dv0, dexps) less t weight monomials of level k.  A t with
        no term lies above the minimum, so its residue is zero.  `nres`,
        `side_residual` and `_derive_rule` check the lattice and lower their
        monomials by weight monomials here and nowhere else."""
        e = self.entry(k).e_step
        wt = self.weight(k)
        out = {}
        for m, c in S:
            t, r = divmod(m - j1, e)
            if r:
                raise ChainError("graded term off the value lattice of level %d" % k)
            exps = dict(dexps)
            for j, mj in wt.exps.items():
                exps[j] = exps.get(j, 0) - t * mj
            out[t] = self.nres(c, dv0 - wt.v0.scale(t), exps, k - 1)
        return out

    def side_residual(self, k=None):
        """The residual polynomial of the minimal side at stage k: spacing,
        support range, and T-coefficients in the stage residue ring,
        normalized so that the first one is 1."""
        k = self.depth() if k is None else k
        ent = self.entry(k)
        if ent.beta is INF:
            raise ChainError("a terminated stage has no residual")
        data = self.argmin_data(self.target, k)
        if data is None:
            raise ChainError("tracked polynomial vanishes at stage %d" % k)
        minv, S = data
        j1, j2 = S[0][0], S[-1][0]
        e = ent.e_step
        dmono = self.canonical_monomial(minv - ent.beta.scale(j1), k - 1)
        raw = self._residual(S, k, j1, dmono.v0, dmono.exps)
        ring = self.ring
        base_inv = ring.inv(raw[0])
        return e, j1, j2, [ring.mul(raw.get(t, ring.zero), base_inv)
                           for t in range((j2 - j1) // e + 1)], minv

    def derive_keys(self):
        """(key, relation) pairs in deterministic order: the monic keys lifted
        from the irreducible factors of the stage residual, each with the
        residue relation it forces on level k, which is the factor it was
        lifted from (`_relation`), so `append` need not read it back from
        the key.  With lump_sides a residual that splits is kept whole, so
        the whole side lifts to a single key, whose relation is the
        product of the distinct factors."""
        k = self.depth()
        e, j1, j2, rho, _ = self.side_residual(k)
        if j2 == j1:
            return []
        ring = self.ring
        if not all(ring.is_scalar(r) for r in rho):
            raise UnsupportedStructure(
                "residual coefficients leave the scalar residue field: (%s), "
                "constant term first, over k[T]/(%s)"
                % (", ".join(ring.sp.format(r, "T") for r in rho),
                   ring.sp.format(ring.modulus, "T")))
        domain = self.field.scalars
        sp = domain.polys
        resid = sp.trim([ring.to_scalar(r) for r in rho])
        factors = factor_scalar_poly(domain, resid)
        if len(factors) > 1 and self.lump_sides:
            picks = [(sp.monic(resid), factors)]
        else:
            picks = [(fac, [(fac, 1)]) for fac, _ in factors]
        return [(self._lift_key(k, gco), self._relation(facs))
                for gco, facs in picks]

    def _lift_key(self, k, gcoeffs):
        ent = self.entry(k)
        e = ent.e_step
        domain = self.field.scalars
        g = len(gcoeffs) - 1
        wpoly = self.weight(k).materialize(self)
        out = ent.poly.pow(g * e)
        for s in range(g):
            a = gcoeffs[s]
            if domain.is_zero(a):
                continue
            term = Poly.const(self.field, self.var, self.field.lift_scalar(a))
            term = term * wpoly.pow(g - s) * ent.poly.pow(s * e)
            out = out + term
        return out

    def candidate_betas(self, qnew, k=None):
        """Admissible next values for the key qnew: negated slopes of the
        Newton polygon of the tracked polynomial against qnew that exceed the
        current truncation of qnew, plus infinity on exact division."""
        k = self.depth() if k is None else k
        _, _, sides = self.polygon(self.target, qnew, k)
        threshold = None if k == 0 else self.cval(qnew, k)
        out = [side.sigma for side in reversed(sides)
               if threshold is None or side.sigma > threshold]
        if self._expand(self.target, qnew)[0].is_zero:
            out.append(INF)
        return out

    def polygon(self, f, key, k):
        """The Newton polygon of f against key, ordinates at stage k, as
        (points, hull, sides): points are (j, value) for each nonzero
        coefficient of f's expansion in key, infinite ordinates included;
        hull is the lower hull of the finite points and sides its sides."""
        points = [(j, self.cval(c, k))
                  for j, c in enumerate(self._expand(f, key)) if not c.is_zero]
        hull = lower_hull([(j, v) for j, v in points if v is not INF])
        return points, hull, polygon_sides(hull)

    def newton_points(self, f, k=None):
        """(j, value) pairs for the polygon of f against the stage-k key,
        ordinates taken at stage k-1; infinite ordinates are reported too."""
        k = self.depth() if k is None else k
        return self.polygon(f, self.entry(k).poly, k - 1)[0]


# ---------------------------------------------------------------------------
# growing chains


def explore(field, var, target, depth, lump_sides=False, scripted=None,
            scripted_only=False, stop_at_answer=False, first=None):
    """All chains for the target up to the given depth.  scripted maps a first
    value to a full entry list [(index, poly, beta)] replayed verbatim;
    unscripted starting values grow by peel-and-refine unless scripted_only,
    in which case they are reported as skipped.  Each grown starting value's
    branches grow stage by stage (`_grow`) and come back in depth-first
    order; a refusal raised there is the first met stage by stage, at the
    shallowest stage that refuses, and names its branch.  With
    stop_at_answer a grown branch stops at the first stage where the
    target's effective degree is 1, where its e, f and d are final (a
    prefix of the branch grown to full depth).  With first = N only the
    first N chains of that order are made (all of them when there are
    fewer): a root or script past the N-th chain is neither grown nor
    replayed, though `skipped` still lists every skipped root.  A script
    whose first value is the r-th root names its branch r in a refusal, as
    a grown branch does; a script for no root names none.  A refused first
    key names its stage and key as a refused first row of a script does."""
    scripted = dict(scripted or {})
    seed = Chain(field, var, target, lump_sides)
    x, first_index = Poly.variable(field, var), OrdinalIndex(0, 1)
    chains, skipped = [], []
    for root, beta1 in enumerate(seed.candidate_betas(x, 0), 1):
        script = scripted.pop(beta1, None)
        room = None if first is None else first - len(chains)
        if script is None and scripted_only:
            skipped.append(beta1)
        elif room is not None and room < 1:
            continue
        elif script is not None:
            chains.append(replay(field, var, target, script, root))
        else:
            ch = seed.clone()
            try:
                ch.append(first_index, x, beta1, "derived")
            except Refusal as exc:
                raise located(exc, ch, (root,), (first_index, x)) from None
            chains.extend(_grow(ch, depth, root, stop_at_answer, room))
    for script in scripted.values():
        if first is not None and len(chains) >= first:
            break
        chains.append(replay(field, var, target, script))
    return chains, skipped


def replay(field, var, target, entries, root=None):
    """The scripted chain [(index, poly, beta)]; a refusal names the stage
    and key it was appended to, or the refused row's own when that is the
    first, and the branch `root` when given (`explore` passes the index of
    the script's first value among the roots)."""
    ch = Chain(field, var, target)
    for index, poly, beta in entries:
        origin = "limit" if index.is_limit else "scripted"
        try:
            ch.append(index, poly, beta, origin)
        except Refusal as exc:
            path = None if root is None else (root,)
            raise located(exc, ch, path, (index, poly)) from None
    return ch


def _grow(ch, depth, root, stop_at_answer=False, first=None):
    """Every chain grown from ch up to the given depth, in depth-first order.

    Growth goes stage by stage: each chain of one stage derives its keys and
    their values, and each move (a key with one value) makes a child at the
    next stage, tagged with its parent's path plus the move's index.  A chain
    stops at the depth cap, at a terminal value, or when it has no move;
    with stop_at_answer also once the target's effective degree at its top
    stage is 1.  That degree never rises along a block, so the branch's
    e, f and d are final there, and at degree 1 every later stage has one
    move, so the chain is a prefix of the one grown without the stop.
    Sorting the finished chains by path gives the depth-first order.

    With first = N, each stage keeps only the N smallest paths among the
    finished chains and the frontier, and a chain makes children of its
    first N moves only.  Every chain of the frontier yields at least one
    finished chain, and the descendants of two paths of which neither is
    a prefix of the other keep their order, so the result is the first N
    chains of unpruned growth, or all of them when there are fewer.  A
    pruned path grows no further, so it can refuse no more.

    A `Refusal` of any type ends the whole growth, so the one reported is
    the first met in the stage-by-stage order: it lies at the shallowest
    stage that refuses, and no branch has grown past that stage.  It keeps
    its type and names the path of its branch, `branch r.i.j`, and the stage
    and key of the branch's top entry (`located`), where r is `root`: the
    root's index among the first values (`explore`), or the branch id of a
    stopped chain that `verify` grows on; i, j, ... are the 1-based move
    indices below it."""
    done = []
    frontier = [((root,), ch)]
    while frontier:
        grown = []
        for path, cur in frontier:
            top = cur.entries[-1]
            if (cur.depth() >= depth or top.beta is INF
                    or (stop_at_answer
                        and cur.effective_degree(cur.target) == 1)):
                done.append((path, cur))
                continue
            try:
                moves = [(q, rule, sigma) for q, rule in cur.derive_keys()
                         for sigma in cur.candidate_betas(q)][:first]
            except Refusal as exc:
                raise located(exc, cur, path) from None
            if not moves:
                done.append((path, cur))
                continue
            index = top.index.successor()
            for i, (q, rule, sigma) in enumerate(moves, 1):
                child = cur if i == len(moves) else cur.clone()
                try:
                    child.append(index, q, sigma, "derived", rule)
                except Refusal as exc:
                    raise located(exc, child, path + (i,)) from None
                grown.append((path + (i,), child))
        frontier = grown
        if first is not None and len(done) + len(frontier) > first:
            last = sorted(path for path, _ in done + frontier)[first - 1]
            done = [item for item in done if item[0] <= last]
            frontier = [item for item in frontier if item[0] <= last]
    done.sort(key=lambda item: item[0])
    return [chain for _, chain in done]


def located(exc, ch, path=None, row=None):
    """The refusal exc, of the same type, with its place put before its
    reason: `branch P: stage S, key Q = K: reason`, the branch path when
    there is one, and the stage and key of ch's top entry when ch has one,
    or else of row, the (index, key) that ch refused as its first entry.
    Growth, replay and classification locate their refusals here, and
    nowhere else; the raisers state only the reason."""
    where = [] if path is None else ["branch " + ".".join(map(str, path))]
    if ch.entries:
        row = ch.entries[-1].index, ch.entries[-1].poly
    if row is not None:
        where.append("stage %s, key Q = %s" % (row[0], row[1].format()))
    return type(exc)(": ".join(where + [str(exc)]))
