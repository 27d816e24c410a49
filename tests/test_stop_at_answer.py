"""Growth stopped at each branch's answer, as `verify` grows a scenario.

With `stop_at_answer` a grown branch stops at the first stage where the
target's effective degree is 1.  Here every pinned corpus target
(`perfbench/corpus.py`, read only) and every packaged scenario is grown by
the command line's own pipeline with the stop and without it: each stopped
chain must be an entry-by-entry prefix of its full-depth chain, and where
full growth answers, the stopped growth gives the same identity line and
the same (e, f, d) per branch.  Where full growth refuses, a refusal past a
branch's answer no longer stops the stopped growth; the outcomes are those
of the ledger (`tests/corpus_outcomes.txt`).
"""

import pytest

from inputs import (CORPUS, corpus_targets, entries, outcome, read_ledger,
                    refusal, scenarios)
from valforge import cli, keypoly
from valforge.cli import main
from valforge.fields import Refusal
from valforge.report import completeness_sample
from valforge.scenario import format_scenario
from valforge.values import INF


def test_growth_stopped_at_the_answer_keeps_every_answer():
    recorded = read_ledger()["answer"]
    refused = []
    for name, sc in scenarios():
        full, stopped = outcome(sc, "full"), outcome(sc, "answer")
        assert not isinstance(stopped, Refusal) or \
            isinstance(full, Refusal), name
        if isinstance(full, Refusal):
            if isinstance(stopped, Refusal):
                refused.append(name)
                continue
            # a corpus target refused at full depth: its identity is the
            # ledger's, and fails only for a repeated-factor target (the
            # degree identity counts no multiplicity yet)
            identity = stopped[2]
            assert recorded[name][-1] == "%s identity %s" % (name,
                                                             identity.line())
            assert CORPUS.label(corpus_targets()[int(name[1:])]) == (
                "squarefree" if identity.verdict else "repeated"), name
            continue
        chains, branches, identity = stopped
        assert len(chains) == len(full[0]), name
        for ch, whole in zip(chains, full[0]):
            assert entries(ch) == entries(whole)[:ch.depth()], name
        assert identity.line() == full[2].line(), name
        assert ([(br.e, br.f, br.d) for br in branches]
                == [(br.e, br.f, br.d) for br in full[1]]), name
    # the rest refuse before a branch has its answer
    assert refused == [name for name, record in recorded.items()
                       if refusal(record)]


@pytest.mark.parametrize("index", [32, 76, 78])
def test_verify_of_a_repeated_target_fails_its_identity(tmp_path, capsys,
                                                        index):
    # repeated-factor targets that full growth refuses past their answers;
    # stopped, they reach the identity, which `verify` prints as the ledger
    # has it, and fails until it counts multiplicities
    t = corpus_targets()[index]
    path = tmp_path / ("t%03d.scn" % index)
    path.write_text(CORPUS.scenario_text(t), encoding="ascii")
    rc = main(["verify", str(path)])
    out = capsys.readouterr().out
    line = read_ledger()["answer"]["t%03d" % index][-1].split(" identity ")[1]
    fails = " != " in line
    assert CORPUS.label(t) == "repeated"
    assert (rc, out.splitlines()[-1]) == (
        int(fails), "%s: identity %s" % ("fail" if fails else "ok", line))


def test_verify_grows_on_only_a_branch_that_misses_an_oracle_value(
        tmp_path, capsys, monkeypatch):
    # each scenario that answers at full depth gets one more oracle row per
    # branch: that branch's deepest key, with each branch's value for it.
    # A stopped branch that misses one grows on to its full-depth chain;
    # every other branch stays a prefix of it and attains its samples.
    grown_on, picked = [], []
    plain_grow, plain_account = keypoly._grow, cli.account

    def growing(ch, depth, root, stop_at_answer=False, first=None):
        if not stop_at_answer:
            grown_on.append(root)
        return plain_grow(ch, depth, root, stop_at_answer, first)

    def accounted(sc, pairs, complete):
        picked.append(list(pairs))
        return plain_account(sc, pairs, complete)

    monkeypatch.setattr(keypoly, "_grow", growing)
    monkeypatch.setattr(cli, "account", accounted)
    names, recorded = [], read_ledger()
    for name, sc in scenarios():
        full = outcome(sc, "full")
        if isinstance(full, Refusal):
            continue
        chains = full[0]
        for ch in chains:
            key = ch.entries[-1].poly
            sc.oracle.append((key, [o.cval(key, o.depth()) for o in chains]))
        path = tmp_path / (name + ".scn")
        path.write_text(format_scenario(sc), encoding="ascii")
        grown_on.clear()
        picked.clear()
        main(["verify", str(path)])
        capsys.readouterr()
        [pairs] = picked
        assert [bid for bid, _ in pairs] == list(range(1, len(chains) + 1))
        for bid, ch in pairs:
            whole = entries(chains[bid - 1])
            if bid in grown_on:
                assert entries(ch) == whole, (name, bid)
            else:
                assert entries(ch) == whole[:ch.depth()], (name, bid)
                assert completeness_sample(ch, sc.oracle_samples(bid - 1))
        # a branch grows on when the ledger stops it short of its full depth
        # and its deepest value is finite (an infinite one is not sampled)
        stopped = [int(line.split()[4])
                   for line in recorded["answer"][name][:-1]]
        assert grown_on == [
            bid for bid, (depth, ch) in enumerate(zip(stopped, chains), 1)
            if depth < ch.depth() and ch.entries[-1].beta is not INF], name
        names.append(name)
    assert names == [name for name, record in recorded["full"].items()
                     if not refusal(record)]


def test_a_refusal_met_growing_a_branch_on_names_its_branch(tmp_path, capsys):
    # no branch of corpus target 0 attains x's value 1000, so each grows on
    # from its answer; branch 2 is refused at stage 2 and is named by its
    # id, as --branch names it (growing the whole scenario named it 1.2)
    path = tmp_path / "t000.scn"
    path.write_text(CORPUS.scenario_text(corpus_targets()[0])
                    + "\n[oracle]\nx ; 1000\n", encoding="ascii")
    rc = main(["verify", str(path)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith(
        "error: branch 2: stage 2, key Q = x^3 + x^2 + 2: residual "
        "coefficients leave the scalar residue field: ")
