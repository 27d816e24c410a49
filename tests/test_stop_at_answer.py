"""Growth stopped at each branch's answer, as `verify` grows a scenario.

With `stop_at_answer` a grown branch stops at the first stage where the
target's effective degree is 1.  Here every pinned corpus target
(`perfbench/corpus.py`, read only) and every packaged scenario is grown by
the command line's own pipeline with the stop and without it: each stopped
chain must be an entry-by-entry prefix of its full-depth chain, and where
full growth answers, the stopped growth gives the same identity line and
the same (e, f, d) per branch.  Where full growth refuses, a refusal past a
branch's answer no longer stops the stopped growth; the outcomes there are
pinned.
"""

from collections import Counter

import pytest

from inputs import CORPUS, PACKAGED, corpus_targets
from valforge.cli import account, grow, main, pick
from valforge.fields import Refusal
from valforge.scenario import load_scenario, parse_scenario


def _scenarios():
    out = [("t%03d" % t.index, parse_scenario(CORPUS.scenario_text(t)), t)
           for t in corpus_targets()]
    return out + [(name, load_scenario(name), None) for name in PACKAGED]


def _answer(sc, stop_at_answer):
    """(chains, branch reports, identity) of a scenario, or its refusal."""
    try:
        chains, skipped = grow(sc, stop_at_answer)
        pairs, complete = pick(chains, skipped)
        return (chains,) + account(sc, pairs, complete)
    except Refusal as exc:
        return exc


def _entries(ch):
    return [(str(e.index), e.poly.format(), str(e.beta)) for e in ch.entries]


def test_growth_stopped_at_the_answer_keeps_every_answer():
    after_refusal = Counter()
    refused = []
    for name, sc, t in _scenarios():
        full, stopped = _answer(sc, False), _answer(sc, True)
        assert not isinstance(stopped, Exception) or \
            isinstance(full, Exception), name
        if isinstance(full, Exception):
            if isinstance(stopped, Exception):
                refused.append(name)
            else:
                verdict = "holds" if stopped[2].verdict else "fails"
                after_refusal[verdict, CORPUS.label(t)] += 1
            continue
        chains, branches, identity = stopped
        assert len(chains) == len(full[0]), name
        for ch, whole in zip(chains, full[0]):
            assert _entries(ch) == _entries(whole)[:ch.depth()], name
        assert identity.line() == full[2].line(), name
        assert ([(br.e, br.f, br.d) for br in branches]
                == [(br.e, br.f, br.d) for br in full[1]]), name
    # 42 corpus targets refuse at full depth: 37 identities now hold, the 3
    # that fail are repeated-factor targets (the degree identity counts no
    # multiplicity yet), and 2 refuse before any branch has its answer
    assert after_refusal == {("holds", "squarefree"): 37,
                             ("fails", "repeated"): 3}
    assert refused == ["t024", "t095"]


@pytest.mark.parametrize("index", [32, 76, 78])
def test_verify_of_a_repeated_target_fails_its_identity(tmp_path, capsys,
                                                        index):
    # full growth refuses these past their answers; stopped, they reach the
    # identity, which fails until it counts multiplicities
    t = corpus_targets()[index]
    path = tmp_path / ("t%03d.scn" % index)
    path.write_text(CORPUS.scenario_text(t), encoding="ascii")
    rc = main(["verify", str(path)])
    out = capsys.readouterr().out
    assert rc == 1
    assert out.splitlines()[-1].startswith("fail: identity %d != "
                                           % t.degree)
