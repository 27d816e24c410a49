"""The per-entry memo of stage values and weights never changes an answer.

Every `ChainEntry`, over each field kind, memoizes `term_values` at its
level by polynomial identity and keeps the level's weight monomial once
made; a clone shares every entry, so sibling branches share both.  An
explored chain is queried first, with memos and weights warmed by growth
and shared with its sibling branches; its entries are then replayed into a
fresh chain, whose memos and weights start empty and are filled in the
opposite stage order.  At every stage the weight, the side residual, and
for the target, each key and seeded random polynomials (over the field's
own atoms) the truncated value, effective degree and initial form must be
the same from both.  A memo whose entries leaked across levels or chains
would make the answers depend on the order in which it was filled.

The memos also do their work: in one `explore`, each polynomial's minimum
at each entry is made once.
"""

import random
from collections import Counter, defaultdict

import pytest

from inputs import FIELDS, PACKAGED, rand_poly, run_scenario
from valforge.fields import RationalFunctions, UnsupportedStructure
from valforge.graded import InClass
from valforge.keypoly import Chain, ChainError, explore, replay
from valforge.scenario import load_scenario

# packaged scenarios over the lex series and the coordinate tower, with the
# atoms their probes are built from
OTHER_FIELDS = {"cubic_char3": ("z", "y"), "quintic_tower": ("v", "u")}
SEEDED_TARGETS = 4
DEPTH = 5
RANDOM_POLYS = 3


def _outcome(fn, *args):
    """A comparable record of a query: its answer, or its refusal."""
    try:
        out = fn(*args)
    except (ChainError, UnsupportedStructure) as exc:
        return ("refused", type(exc).__name__, str(exc))
    if isinstance(out, InClass):
        return (out.value, out.coeffs)
    return out


def _weight(ch, k):
    w = ch.weight(k)
    return w.v0, w.exps


def _answers(ch, probes, stages):
    out = {}
    for k in stages:
        out[k, "weight"] = _outcome(_weight, ch, k)
        out[k, "residual"] = _outcome(ch.side_residual, k)
        for i, f in enumerate(probes):
            out[k, i, "cval"] = _outcome(ch.cval, f, k)
            out[k, i, "delta"] = _outcome(ch.effective_degree, f, k)
            out[k, i, "in_class"] = _outcome(ch.in_class, f, k)
    return out


def _check_chains(F, target, chains, rng, atoms=("y",)):
    for ch in chains:
        assert all(ent.memo for ent in ch.entries[:-1]), "growth warms the memos"
        stages = range(1, ch.depth() + 1)
        probes = ([target] + [ent.poly for ent in ch.entries]
                  + [rand_poly(F, rng, rng.randint(1, 2 * target.degree),
                               False, atoms, target.var)
                     for _ in range(RANDOM_POLYS)])
        warm = _answers(ch, probes, stages)
        fresh = replay(F, target.var, target,
                       [(ent.index, ent.poly, ent.beta) for ent in ch.entries])
        for ent in fresh.entries:       # replay itself fills some
            ent.memo.clear()
            ent.weight = None
        assert _answers(fresh, probes, reversed(stages)) == warm


def test_memo_never_changes_an_answer_quartic():
    sc = load_scenario("quartic", depth=8)
    chains, _ = run_scenario(sc)
    _check_chains(sc.field, sc.target, chains, random.Random(6))


@pytest.mark.parametrize("name", sorted(OTHER_FIELDS))
def test_memo_never_changes_an_answer_other_fields(name):
    """The lex series (cubic_char3) and the coordinate tower
    (quintic_tower)."""
    sc = load_scenario(name)
    _check_chains(sc.field, sc.target, run_scenario(sc)[0],
                  random.Random(name), OTHER_FIELDS[name])


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_memo_never_changes_an_answer_seeded(name):
    """Seeded monic targets; those refused for a second residue extension
    are drawn past, so that each field checks the same number of targets."""
    F = RationalFunctions(FIELDS[name], "y")
    rng = random.Random("memo-" + name)
    checked = 0
    while checked < SEEDED_TARGETS:
        target = rand_poly(F, rng, rng.randint(2, 6), True)
        try:
            chains, _ = explore(F, "x", target, DEPTH)
        except UnsupportedStructure:
            continue
        _check_chains(F, target, chains, rng)
        checked += 1


@pytest.mark.parametrize("name", PACKAGED)
def test_each_minimum_is_made_once(monkeypatch, name):
    """Every minimum for one (entry, polynomial) is the same object: it is
    made once and then read from the entry's memo.  `cval`, `nres` and
    `argmin_data` all read it from `Chain._record`."""
    plain = Chain._record
    answers = defaultdict(list)

    def _record(self, f, k, ent):
        out = plain(self, f, k, ent)
        answers[ent, f].append(out[1])      # keeps both alive
        return out

    monkeypatch.setattr(Chain, "_record", _record)
    run_scenario(load_scenario(name))
    assert any(len(outs) > 1 for outs in answers.values()), "no repeats"
    made = Counter(len({id(out) for out in outs if out is not None})
                   for outs in answers.values())
    assert set(made) <= {0, 1}, made
