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

import functools
import re

import pytest

import valforge.keypoly as keypoly
from inputs import growth_inputs
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


def _outcome(grow):
    """(chains as (index, key, value) text per entry, skipped), or the
    refusal."""
    try:
        chains, skipped = grow()
    except Exception as exc:
        return exc
    return ([[(str(e.index), e.poly.format(), str(e.beta))
              for e in ch.entries] for ch in chains], skipped)


def _stage(exc):
    found = re.match(r"stage (\S+), key ", str(exc))
    return parse_index(found.group(1)) if found else None


def _unbranched(exc):
    """exc of the same type without the branch prefix `_grow` adds, which
    must be there."""
    found = re.match(r"branch [1-9][0-9]*(\.[1-9][0-9]*)*: ", str(exc))
    assert found, str(exc)
    return type(exc)(str(exc)[found.end():])


def _compare_with_reference(monkeypatch, stop_at_answer, first=None):
    inputs = growth_inputs()
    grown = [_outcome(functools.partial(grow, stop_at_answer=stop_at_answer,
                                        first=first))
             for _, grow in inputs]
    monkeypatch.setattr(keypoly, "_grow", _depth_first_grow)
    reference = [_outcome(functools.partial(grow,
                                            stop_at_answer=stop_at_answer,
                                            first=first))
                 for _, grow in inputs]
    refusals = answered = 0
    for (name, _), got, want in zip(inputs, grown, reference):
        if not isinstance(want, Exception):
            assert got == want, name
            continue
        refusals += 1
        if not isinstance(got, Exception):
            # the reference grows every branch before it cuts its leaves,
            # so it meets refusals in branches that pruned growth drops
            assert first is not None, name
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
    return answered


def test_stage_by_stage_growth_matches_the_depth_first_reference(monkeypatch):
    _compare_with_reference(monkeypatch, False)


@pytest.mark.parametrize("first, answered", [(1, 20), (2, 5), (3, 1)])
def test_pruned_growth_matches_the_depth_first_reference(monkeypatch, first,
                                                         answered):
    # the reference cuts its leaves to the first ones, as `first` does;
    # pruned growth answers on this many inputs that the reference refuses
    assert _compare_with_reference(monkeypatch, False, first) == answered


def test_growth_stopped_at_the_answer_matches_the_reference(monkeypatch):
    _compare_with_reference(monkeypatch, True)


T035 = ("x^8 + (y^2 + 4*y)*x^7 + (y^2 + 3)*x^4 + 4*y^2*x^3 + (y^2 + 4)*x^2"
        " + 2")


def test_refusal_stops_growth_at_its_stage(monkeypatch):
    # the depth-first loop grew every sibling of the refusing key to depth 8
    # first: 16 appends before the stage-2 refusal
    F = RationalFunctions(PrimeField(5), "y")
    target = parse_expression(F, "x", T035)
    appends = []
    plain = Chain.append

    def counted(self, *args):
        appends.append(args)
        return plain(self, *args)

    monkeypatch.setattr(Chain, "append", counted)
    with pytest.raises(UnsupportedStructure, match=r"^branch 1\.3: stage 2, "
                       r"key Q = x\^6 \+ x\^4 \+ 4\*x\^2 \+ 3: residual "
                       r"coefficients"):
        keypoly.explore(F, "x", target, 8)
    assert len(appends) <= 6
