"""A scripted key of degree jump g = 1 has its relation read when first used.

`Chain.append` reads the residue relation of a key that brings none (a
scripted or limit key) from the key's initial form (`_derive_rule`) only
when its degree jump g is above 1.  For g = 1 the relation is a root, it
is read on the first call to `Chain.rule` and kept on the entry.  Here
every such relation is checked against the one an eager reading gives on
the chain just before the key, over `quintic_tower`, `cubic_char3` and
every chain that growth makes for the pinned corpus targets
(`perfbench/corpus.py`, read only), each replayed as a script the way a
[chain] section is (`keypoly.replay`).  The relation is read once per
entry, whichever chain sharing the entry reads it, and a refusal raised
while reading it keeps its type and the place its caller gives it.
"""

import pytest

from inputs import V, grown_chains, quartic_setup
from valforge import keypoly
from valforge.fields import InsufficientPrecision
from valforge.keypoly import Chain, replay
from valforge.values import OrdinalIndex


def _script(ch):
    return [(ent.index, ent.poly, ent.beta) for ent in ch.entries]


def _eager(field, var, target, script):
    """{k: relation} for k >= 2: the relation `_derive_rule` reads for the
    k-th row on the chain of the rows before it, which is built with every
    relation so read supplied to `append`, as before any was deferred."""
    ch = Chain(field, var, target)
    out = {}
    for index, poly, beta in script:
        origin = "limit" if index.is_limit else "scripted"
        rule = None
        if ch.entries:
            prev = ch.entries[-1]
            g = poly.degree // prev.poly.degree // prev.e_step
            rule = out[ch.depth() + 1] = ch._derive_rule(poly, g)
        ch.append(index, poly, beta, origin, rule)
    return out


@pytest.fixture(scope="module")
def replays():
    return [("%s.%d" % (name, bid), sc.field, sc.var, sc.target, _script(ch))
            for name, bid, sc, ch in grown_chains()]


def _counting(monkeypatch):
    calls = []
    plain = Chain._derive_rule

    def derive(self, newpoly, g, k=None):
        calls.append(g)
        return plain(self, newpoly, g, k)

    monkeypatch.setattr(Chain, "_derive_rule", derive)
    return calls


def test_replays_cover_the_corpus_and_both_packaged_scripts(replays):
    names = {name.split(".")[0] for name, *_ in replays}
    assert {"quintic_tower", "cubic_char3"} <= names
    assert len(names) > 70


def test_deferred_relation_is_the_eager_one(replays, monkeypatch):
    calls = _counting(monkeypatch)
    eager = deferred = 0
    for name, field, var, target, script in replays:
        want = _eager(field, var, target, script)
        del calls[:]
        ch = replay(field, var, target, script)
        n = len(calls)
        assert all(g > 1 for g in calls), name
        assert ch.rule(1) is None
        # deepest first, so a read may meet levels below it still unread
        got = {k: ch.rule(k) for k in range(ch.depth(), 1, -1)}
        assert got == want, name
        assert all(g == 1 for g in calls[n:]), name
        assert len(calls) == len(script) - 1, name
        eager, deferred = eager + n, deferred + len(calls) - n
        # a second read, from the chain or a clone, derives nothing
        clone = ch.clone()
        assert {k: clone.rule(k) for k in want} == want
        assert {k: ch.rule(k) for k in want} == want
        assert len(calls) == len(script) - 1, name
    assert eager > 2 and deferred > 300


def test_relation_read_from_a_clone_is_kept_for_the_chain(monkeypatch):
    F, x, Q, P = quartic_setup()
    ch = replay(F, "x", P, [(OrdinalIndex(0, 1), x, V("3/2")),
                            (OrdinalIndex(0, 2), Q, V("7/2"))])
    calls = _counting(monkeypatch)
    assert ch.entry(2).rule is None
    assert ch.clone().rule(2) == ch.rule(2) == ("const", 1)
    assert calls == [1]


def test_refusal_in_a_deferred_relation_is_placed_by_its_reader(monkeypatch):
    # x @ 3/2 has spacing 2, so x^2 - y^3 has g = 1 and no relation until
    # it is first read.  Growth reads it first at stage 3, where each branch
    # has its answer; here derive_keys reads it at stage 2, where the
    # target's effective degree is still 2
    F, x, Q, P = quartic_setup()
    ch = replay(F, "x", P, [(OrdinalIndex(0, 1), x, V("3/2")),
                            (OrdinalIndex(0, 2), Q, V("7/2"))])
    assert ch.effective_degree(P) == 2
    plain = Chain.derive_keys

    def reading(self):
        self.rule(self.depth())
        return plain(self)

    def refuse(self, newpoly, g, k=None):
        raise InsufficientPrecision("no room for the relation")

    monkeypatch.setattr(Chain, "derive_keys", reading)
    monkeypatch.setattr(Chain, "_derive_rule", refuse)
    with pytest.raises(InsufficientPrecision) as info:
        keypoly._grow(ch, 4, 1)
    assert str(info.value) == ("branch 1: stage 2, key Q = x^2 - y^3: no room "
                               "for the relation")
