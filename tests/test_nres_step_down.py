"""Residues that step down to the level that sees them, against a reference.

`Chain.nres` first steps down past every level k whose key is longer than
its argument f and to which the monomial gives no exponent: there f is its
own expansion, and the level below gives the same residue or the same
refusal.  Here it is checked against the level-by-level recursion it
replaced, copied below, on every call the engine makes for every packaged
scenario and a slice of the pinned benchmark corpus
(`perfbench/corpus.py`, read only).  A guard checks that no call does its
work at a level it should have stepped past.
"""

from collections import Counter
from fractions import Fraction

import pytest

import valforge.keypoly as keypoly
from inputs import growth_inputs, run_scenario
from valforge.fields import QQ, RationalFunctions
from valforge.keypoly import Chain, ChainError
from valforge.polyring import Poly
from valforge.scenario import load_scenario
from valforge.values import INF, OrdinalIndex, Value

CORPUS_SLICE = 40


def _level_by_level_nres(self, f, dv0, dexps, k):
    # the recursion that `Chain.nres` replaced, one level per call
    ring = self.ring
    if f.is_zero:
        return ring.zero
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
    ent = self.entry(k)
    target = dv0
    for j, m in dexps.items():
        target = target + self.entry(j).beta.scale(m)
    data = self.argmin_data(f, k)
    if data is None:
        return ring.zero
    minv, S = data
    if minv > target:
        return ring.zero
    if minv < target:
        raise ChainError("initial form dips below its reference monomial")
    dk = dexps.get(k, 0)
    wt = self.weight(k)
    acc = ring.zero
    for m, c in S:
        q, r = divmod(m - dk, ent.e_step)
        if r:
            raise ChainError("graded term off the value lattice of level %d" % k)
        sub_v0 = dv0 - wt.v0.scale(q) if q else dv0
        sub_exps = {j: n for j, n in dexps.items() if j < k}
        if q:
            for j, n in wt.exps.items():
                sub_exps[j] = sub_exps.get(j, 0) - q * n
            sub_exps = {j: n for j, n in sub_exps.items() if n}
        part = _level_by_level_nres(self, c, sub_v0, sub_exps, k - 1)
        if ring.is_zero(part):
            continue
        acc = ring.add(acc, ring.mul(self._rule_power(k, q), part))
    return acc


def _outcome(fn, *args):
    """(True, residue), or (False, message) for a refusal."""
    try:
        return True, fn(*args)
    except ChainError as exc:
        return False, str(exc)


def _chains():
    """The chains `explore` grows for every input (the engine's only caller
    of `nres`; `classify` makes none); a typed refusal ends an input."""
    out = []
    for _, grow in growth_inputs(CORPUS_SLICE):
        try:
            out += grow()[0]
        except (ChainError, keypoly.UnsupportedStructure):
            pass
    return out


def _passed_by_step_down(ch, f, dexps, k):
    """True at a level the step-down passes: its key is longer than f and
    the monomial has no Q_k exponent."""
    return (k > 0 and f.degree < ch.entry(k).poly.degree
            and not dexps.get(k))


def test_step_down_matches_the_level_by_level_reference(monkeypatch):
    stepped = 0
    stepping = Chain.nres

    def checked(self, f, dv0, dexps, k):
        nonlocal stepped
        if not f.is_zero and _passed_by_step_down(self, f, dexps, k):
            stepped += 1
        want = _outcome(_level_by_level_nres, self, f, dv0, dict(dexps), k)
        got = _outcome(stepping, self, f, dv0, dexps, k)
        assert got == want, (f.format(), dv0, dexps, k)
        answered, out = got
        if not answered:
            raise ChainError(out)
        return out

    monkeypatch.setattr(Chain, "nres", checked)
    _chains()
    assert stepped > 0


def test_calls_with_a_level_k_exponent_match_the_reference():
    # In the engine's own calls a polynomial shorter than Q_k never comes
    # with a Q_k exponent, so such calls are made here: at every level k
    # with a finite value, each lower key and each coefficient of the
    # target's expansion in Q_k, against the monomial with Q_k exponent
    # t < e_k whose value lies one beta_k below, at, or above the
    # polynomial's.  At the value itself and t > 0 the reference refuses
    # (the term is off the lattice), which a step past level k would miss.
    # Terminated levels are left out: there the reference refuses for want
    # of a weight monomial, where the step-down answers from the level below.
    seen = Counter()
    for ch in _chains():
        for k in range(1, ch.depth() + 1):
            ent = ch.entry(k)
            if ent.beta is INF:
                continue
            shorter = ([e.poly for e in ch.entries[:k - 1]]
                       + [c for _, c, _ in ch.term_values(ch.target, k)])
            for f in shorter:
                fv = ch.cval(f, k)
                if fv is INF:
                    continue
                for t in range(ent.e_step):
                    dexps = {k: t} if t else {}
                    for s in (-1, 0, 1):
                        dv0 = fv + ent.beta.scale(s - t)
                        want = _outcome(_level_by_level_nres, ch, f, dv0,
                                        dexps, k)
                        got = _outcome(ch.nres, f, dv0, dexps, k)
                        assert got == want, (f.format(), dv0, dexps, k)
                        seen[bool(t), got[0]] += 1
    assert all(seen[key] for key in ((True, True), (True, False),
                                     (False, True), (False, False))), seen


@pytest.mark.parametrize("q1, q2, want", [(0, 2, 1), (0, 3, -1), (1, 1, -1)],
                         ids=["Q2^2", "Q2^3", "Q2*Q1"])
def test_key_exponents_are_lowered_by_the_weight_monomial(q1, q2, want):
    # In the first quartic chain grown to depth 3 the weight monomial of
    # level 2 carries a Q_1 exponent, so each spacing that a term of
    # Q_1^q1 * Q_2^q2 lies above its canonical monomial lowers the Q_1
    # exponent of the monomial one level down by one.
    ch = run_scenario(load_scenario("quartic", depth=3))[0][0]
    wt = ch.weight(2)
    assert (wt.v0, wt.exps) == (Value([2]), {1: 1})
    f = ch.entry(1).poly.pow(q1) * ch.entry(2).poly.pow(q2)
    mono = ch.canonical_monomial(ch.cval(f, 2), 2)
    want_outcome = (True, want)
    assert _outcome(ch.nres, f, mono.v0, mono.exps, 2) == want_outcome
    assert _outcome(_level_by_level_nres, ch, f, mono.v0, mono.exps,
                    2) == want_outcome


def test_a_term_a_spacing_below_the_key_exponent_takes_the_inverse_rule():
    # The monomial y^-2 * x^4 has the value of x at level 1 of x @ 2/3, but
    # its x exponent lies a spacing e_1 = 3 above the term's: the residue of
    # x against it is the inverse of the class of x^3 / y^2, which the key
    # x^3 + 2*y^2 sets to -2.  `_derive_rule` can make such calls when the
    # weight monomial's exponents times the relation degree pass a spacing.
    F = RationalFunctions(QQ, "y")
    x = Poly.variable(F, "x")
    target = x.pow(3) + Poly.const(F, "x", F.from_int(2)) * Poly.const(
        F, "x", F.atom("y")).pow(2)
    ch = Chain(F, "x", target)
    ch.append(OrdinalIndex(0, 1), x, Value([Fraction(2, 3)]), "scripted")
    ch.append(OrdinalIndex(0, 2), target, INF, "scripted")
    assert ch.entry(2).rule == ("const", -2)
    want = (True, Fraction(-1, 2))
    assert _outcome(ch.nres, x, Value([-2]), {1: 4}, 1) == want
    assert _outcome(_level_by_level_nres, ch, x, Value([-2]), {1: 4},
                    1) == want


def _guard(monkeypatch, nres):
    """Run the engine with `nres` as Chain.nres and list each call that
    does its work (the first `argmin_data` of its own f) at a level the
    step-down passes."""
    frames, bad = [], []
    plain_argmin = Chain.argmin_data

    def framed(self, f, dv0, dexps, k):
        frames.append([f, dexps, False])
        try:
            return nres(self, f, dv0, dexps, k)
        finally:
            frames.pop()

    def argmin_data(self, f, k):
        top = frames[-1] if frames else None
        if top is not None and not top[2] and top[0] is f:
            top[2] = True
            if _passed_by_step_down(self, f, top[1], k):
                bad.append((f.format(), dict(top[1]), k))
        return plain_argmin(self, f, k)

    monkeypatch.setattr(Chain, "nres", framed)
    monkeypatch.setattr(Chain, "argmin_data", argmin_data)
    _chains()
    return bad


def test_no_call_works_at_a_level_that_cannot_see_f(monkeypatch):
    assert _guard(monkeypatch, Chain.nres) == []


def test_the_guard_catches_the_level_by_level_recursion(monkeypatch):
    assert _guard(monkeypatch, _level_by_level_nres)


def test_a_level_the_chain_lacks_is_refused_before_stepping_down():
    ch = run_scenario(load_scenario("quartic"))[0][0]
    with pytest.raises(ChainError, match="no entry at level"):
        ch.nres(ch.entries[0].poly, ch.base_group.gens[0], {}, ch.depth() + 1)
