"""Each stage computation of `Chain` has one producer.

`Chain.polygon` builds every Newton polygon: `newton_points` reads its
points, `candidate_betas` its sides and `valforge newton` all three, so its
hull must be the lower hull by definition (`bruteforce.brute_lower_hull`)
at every stage of the packaged scenarios and of a corpus slice.  `append`
extends the value group of the level below once, so it builds at most one
`ValueGroup` per call.
"""

from bruteforce import brute_lower_hull
from inputs import CORPUS, PACKAGED, corpus_targets, run_scenario
from valforge.fields import InsufficientPrecision, UnsupportedStructure
from valforge.keypoly import Chain, ChainError, explore
from valforge.scenario import load_scenario
from valforge.values import ValueGroup

CORPUS_SLICE = 24


def _packaged_chains():
    for name in PACKAGED:
        yield from run_scenario(load_scenario(name))[0]


def _corpus_chains():
    for t in corpus_targets()[:CORPUS_SLICE]:
        target = CORPUS.build_poly(t)
        try:
            chains, _ = explore(target.field, "x", target, CORPUS.DEPTH)
        except (ChainError, UnsupportedStructure, InsufficientPrecision):
            continue
        yield from chains


def test_polygon_is_the_points_hull_and_sides_at_every_stage():
    stages = 0
    for ch in list(_packaged_chains()) + list(_corpus_chains()):
        for k in range(1, ch.depth() + 1):
            points, hull, sides = ch.polygon(ch.target, ch.entry(k).poly, k - 1)
            assert points == ch.newton_points(ch.target, k)
            assert hull == brute_lower_hull(points)
            assert [(s.j_left, s.v_left, s.j_right, s.v_right)
                    for s in sides] == [a + b for a, b in zip(hull, hull[1:])]
            stages += 1
    assert stages > 100


def test_append_builds_at_most_one_value_group(monkeypatch):
    built = []
    per_call = []
    init, append = ValueGroup.__init__, Chain.append

    def counted_init(self, *args):
        built.append(args)
        init(self, *args)

    def measured_append(self, *args):
        before = len(built)
        try:
            append(self, *args)
        finally:
            per_call.append(len(built) - before)

    monkeypatch.setattr(ValueGroup, "__init__", counted_init)
    monkeypatch.setattr(Chain, "append", measured_append)
    list(_packaged_chains())
    assert len(per_call) > 50
    assert max(per_call) <= 1
