"""Grown keys bring their residue relation.

`derive_keys` lifts each key from a factor of the stage residual, and that
factor is the relation the key forces on the level below, so growth hands
it to `Chain.append` and nothing reads it back from the key.  Here every
relation growth supplies is checked against the one `_derive_rule` reads
from the key's initial form on the same chain, and the pins below hold the
cost: no grown key derives its relation, and each `derive_keys` call
factors once.  Keys that come without a relation (scripted and limit
entries) still have it derived: at append when the degree jump g > 1, and
on the first read (`Chain.rule`) when g = 1.
"""

import re

import valforge.keypoly as keypoly
from inputs import grown, packaged_text, run_scenario, scenarios
from valforge.keypoly import Chain
from valforge.scenario import load_scenario, parse_scenario


def grown_only(name, **params):
    """The packaged scenario without its [chain] rows, with the given
    [params] values set, so every branch grows."""
    text = re.sub(r"\[chain\]\n[^\[]*", "", packaged_text(name))
    head, sep, tail = text.partition("[params]\n")
    for key, value in params.items():
        tail, n = re.subn(r"(?m)^%s = .*$" % key, "%s = %s" % (key, value),
                          tail)
        if not n:
            tail += "%s = %s\n" % (key, value)
    return parse_scenario(head + sep + tail, name + " grown")


# over Q(y) the one side of (x - y)^2*(x - 2*y) at x has the residual
# (T - 1)^2*(T - 2); lumped, its key is the whole cubic and its relation
# the radical (T - 1)*(T - 2)
LUMPED_REPEATED = """\
[field]
kind = rational_functions
char = 0
generator = y

[valuation]
rank = 1

[target]
var = x
poly = (x - y)^2*(x - 2*y)

[params]
depth = 4
lump_sides = true
"""

GROWN_ONLY = [
    ("lumped repeated factor", parse_scenario(LUMPED_REPEATED, "lumped")),
    ("cubic_char3 grown, lumped",
     grown_only("cubic_char3", lump_sides="true")),
    ("cubic_char3 grown, unlumped",
     grown_only("cubic_char3", lump_sides="false")),
    ("quintic_tower grown",
     grown_only("quintic_tower", branches="all", depth=6)),
]


def test_supplied_relation_is_the_derived_one(monkeypatch):
    # every relation a caller supplies to `Chain.append` must be the one
    # `_derive_rule` derives on the chain as it was before the key
    plain = Chain.append
    checked = []

    def append(self, index, poly, beta, origin, rule=None):
        before = self.clone()
        plain(self, index, poly, beta, origin, rule)
        if rule is not None:
            prev = before.entries[-1]
            g = poly.degree // prev.poly.degree // prev.e_step
            assert rule == before._derive_rule(poly, g), \
                (name, str(index), poly.format())
            checked.append(rule)

    monkeypatch.setattr(Chain, "append", append)
    # every key appended before a refusal is checked
    for name, sc in scenarios() + GROWN_ONLY:
        grown(sc, "full")
    assert len(checked) > 300
    assert {rule[0] for rule in checked} == {"const", "ext"}
    # the lumped quadratic of cubic_char3 is the product of two factors,
    # and the lumped cubic above has a relation of lower degree than its key
    assert ("ext", (2, 0, 1)) in checked
    assert ("ext", (2, -3, 1)) in checked


def _counted(monkeypatch):
    counts = dict.fromkeys(("_derive_rule", "derive_keys",
                            "factor_scalar_poly"), 0)

    def counting(owner, name):
        plain = getattr(owner, name)

        def wrapper(*args, **kw):
            counts[name] += 1
            return plain(*args, **kw)

        monkeypatch.setattr(owner, name, wrapper)

    counting(Chain, "_derive_rule")
    counting(Chain, "derive_keys")
    counting(keypoly, "factor_scalar_poly")
    return counts


def test_grown_keys_derive_no_relation(monkeypatch):
    # quartic has no [chain]: every key is grown, so none derives its
    # relation, and each `derive_keys` call factors once
    counts = _counted(monkeypatch)
    run_scenario(load_scenario("quartic"))
    assert counts == {"_derive_rule": 0, "derive_keys": 21,
                      "factor_scalar_poly": 21}


def test_replayed_keys_still_derive_their_relation(monkeypatch):
    # quintic_tower is all script: its two limit keys w and w2 (g = 2) read
    # their relation from their initial form at replay, and nothing reads
    # the 35 others (g = 1), which are read from theirs when asked for
    counts = _counted(monkeypatch)
    chains, _ = run_scenario(load_scenario("quintic_tower"))
    assert [ch.depth() for ch in chains] == [38]
    assert counts == {"_derive_rule": 2, "derive_keys": 0,
                      "factor_scalar_poly": 2}
    (ch,) = chains
    assert all(ch.rule(k) is not None for k in range(2, 39))
    assert counts == {"_derive_rule": 37, "derive_keys": 0,
                      "factor_scalar_poly": 37}
