"""Stage-by-stage growth against a depth-first reference.

`keypoly._grow` grows a root's branches one stage at a time and sorts the
finished chains back into depth-first order.  Here it is checked against the
depth-first loop it replaced, copied below with the same stop at a branch's
answer, on the pinned benchmark corpus (`perfbench/corpus.py`, read only)
and every packaged scenario, with the stop off and on, and with growth cut
to the first 1, 2 or 3 chains: the chains must agree entry by entry, and a
refusal must have the same type, name its branch and name a stage no
deeper than the reference's.  Cut growth drops the branches past its
first chains before they grow, so it may answer where the reference,
which grows them all, refuses.
"""

import re

import pytest

import valforge.keypoly as keypoly
from inputs import entries, grown, read_ledger, refusal, scenarios
from valforge.fields import (PrimeField, RationalFunctions, Refusal,
                             UnsupportedStructure)
from valforge.keypoly import Chain
from valforge.scenario import parse_expression, parse_index
from valforge.values import INF


def _depth_first_grow(ch, depth, root, stop_at_answer=False, first=None):
    # the depth-first stack loop that `_grow` replaced, given the same stop
    # at a target effective degree of 1 and the same `first` rule, as a cut
    # of its leaves in depth-first order; it names no branch, and it locates
    # a refusal at the top entry of the chain it was growing
    out = []
    stack = [ch]
    try:
        while stack:
            cur = stack.pop()
            while True:
                if cur.depth() >= depth:
                    out.append(cur)
                    break
                top = cur.entries[-1]
                if top.beta is INF:
                    out.append(cur)
                    break
                if (stop_at_answer
                        and cur.effective_degree(cur.target) == 1):
                    out.append(cur)
                    break
                keys = cur.derive_keys()
                moves = []
                for q, rule in keys:
                    for sigma in cur.candidate_betas(q):
                        moves.append((q, sigma, rule))
                if not moves:
                    out.append(cur)
                    break
                nxt = top.index.successor()
                for q, sigma, rule in reversed(moves[1:]):
                    alt = cur.clone()
                    alt.append(nxt, q, sigma, "derived", rule)
                    stack.append(alt)
                q, sigma, rule = moves[0]
                cur.append(nxt, q, sigma, "derived", rule)
    except Refusal as exc:
        # a clone refused by append has the top entry of cur
        raise keypoly.located(exc, cur) from None
    return out[:first]


def _stage(exc):
    found = re.match(r"stage (\S+), key ", str(exc))
    return parse_index(found.group(1)) if found else None


def _unbranched(exc):
    """exc of the same type without the branch prefix `_grow` adds, which
    must be there."""
    found = re.match(r"branch [1-9][0-9]*(\.[1-9][0-9]*)*: ", str(exc))
    assert found, str(exc)
    return type(exc)(str(exc)[found.end():])


def _compare_with_reference(monkeypatch, mode):
    inputs, recorded = scenarios(), read_ledger()
    outcomes = [grown(sc, mode) for _, sc in inputs]
    monkeypatch.setattr(keypoly, "_grow", _depth_first_grow)
    refusals = answered = 0
    for (name, sc), got in zip(inputs, outcomes):
        want = grown(sc, mode)
        # growth meets the ledger's refusal, or answers where it answers;
        # the reference refuses only where full growth does
        assert refusal(recorded[mode][name]) == (
            (type(got).__name__, str(got)) if isinstance(got, Refusal)
            else None), name
        if not isinstance(want, Refusal):
            assert not isinstance(got, Refusal), name
            assert ([entries(ch) for ch in got[0]], got[1]) == (
                [entries(ch) for ch in want[0]], want[1]), name
            continue
        refusals += 1
        assert refusal(recorded["full"][name]), name
        if not isinstance(got, Refusal):
            # the reference grows every branch before it cuts its leaves,
            # so it meets refusals in branches that pruned growth drops
            assert mode.startswith("first"), name
            answered += 1
            continue
        assert type(got) is type(want), name
        got = _unbranched(got)
        if _stage(want) is None:
            assert str(got) == str(want), name
        else:
            assert _stage(got) is not None, name
            assert _stage(got) <= _stage(want), name
    # the corpus has refusals, so the comparison above reaches them
    assert refusals > answered


def test_stage_by_stage_growth_matches_the_depth_first_reference(monkeypatch):
    _compare_with_reference(monkeypatch, "full")


@pytest.mark.parametrize("mode", ["first1", "first2", "first3"])
def test_pruned_growth_matches_the_depth_first_reference(monkeypatch, mode):
    # the reference cuts its leaves to the first ones, as `first` does
    _compare_with_reference(monkeypatch, mode)


def test_growth_stopped_at_the_answer_matches_the_reference(monkeypatch):
    _compare_with_reference(monkeypatch, "answer")


# over F_5(y): branches 1.1 and 1.2 grow to depth 8, and branch 1.3 is
# refused at stage 2, where the target's effective degree is still above 1
REFUSED = "x^8 + 4*y*x^7 + 3*y*x^6 + 3*x^4 + (2*y^2 + 1)*x^2 + y*x"


def test_refusal_stops_growth_at_its_stage(monkeypatch):
    # the depth-first loop grew every sibling of the refusing key to depth 8
    # first: 16 appends before the stage-2 refusal
    F = RationalFunctions(PrimeField(5), "y")
    target = parse_expression(F, "x", REFUSED)
    appends = []
    plain = Chain.append

    def counted(self, *args):
        appends.append(args)
        return plain(self, *args)

    monkeypatch.setattr(Chain, "append", counted)
    # the refusal comes before the branch's answer: a stop there meets it
    for stop_at_answer in (False, True):
        del appends[:]
        with pytest.raises(UnsupportedStructure, match=r"^branch 1\.3: "
                           r"stage 2, key Q = x\^2 \+ 3: residual "
                           r"coefficients"):
            keypoly.explore(F, "x", target, 8, stop_at_answer=stop_at_answer)
        assert len(appends) <= 6
