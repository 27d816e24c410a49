"""Growth cut to the first chains, as `newton` grows a scenario.

`explore(..., first=N)` makes only the first N chains of the depth-first
order.  Here, on every pinned corpus target (`perfbench/corpus.py`, read
only) and every packaged scenario, they must be the first N chains of
unpruned growth, entry by entry, wherever unpruned growth answers.
`newton` grows the chains up to the one it draws and no others: it draws
the same polygon as from unpruned growth, and a refusal in a branch past
the drawn one no longer stops it; the outcomes are those of the ledger
(`tests/corpus_outcomes.txt`).
"""

import re

import pytest

from inputs import (PACKAGED, entries, grown, read_ledger, refusal,
                    scenarios)
from valforge.cli import grow, main
from valforge.fields import Refusal
from valforge.keypoly import Chain
from valforge.report import render_newton
from valforge.scenario import format_scenario, load_scenario


@pytest.mark.parametrize("first", [1, 2, 3])
def test_first_chains_are_those_of_unpruned_growth(first):
    got = []
    for name, sc in scenarios():
        full = grown(sc, "full")
        if isinstance(full, Refusal):
            continue
        chains, skipped = full
        cut, cut_skipped = grown(sc, "first%d" % first)
        assert ([entries(ch) for ch in cut]
                == [entries(ch) for ch in chains][:first]), name
        assert cut_skipped == skipped, name
        got.append(name)
    assert got == [name for name, record in read_ledger()["full"].items()
                   if not refusal(record)]


def _newton(argv, capsys):
    rc = main(["newton"] + argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.mark.parametrize("name", PACKAGED)
def test_newton_draws_each_branch_as_unpruned_growth_does(name, capsys):
    sc = load_scenario(name)
    chains, _ = grow(sc)
    for bid, ch in enumerate(chains, 1):
        want = render_newton(ch, sc.target, ch.depth(), "text")
        assert _newton([name, "--branch", str(bid)], capsys) == (0, want, "")
    # a branch that is not there is refused with the count of every branch
    for bid in (0, len(chains) + 1):
        rc, out, err = _newton([name, "--branch", str(bid)], capsys)
        assert (rc, out) == (2, "")
        assert err == ("error: no branch %d; the scenario grew %d\n"
                       % (bid, len(chains)))


def test_newton_grows_only_the_branch_it_draws(capsys, monkeypatch):
    # quartic's branches part at stage 2; grown to depth 12, as `chain`
    # grows both, there are 23 appends, and branch 1 alone has 12
    appends = []
    plain = Chain.append

    def counted(self, *args):
        appends.append(args)
        return plain(self, *args)

    monkeypatch.setattr(Chain, "append", counted)
    rc, out, err = _newton(["quartic"], capsys)
    assert rc == 0 and err == ""
    assert len(appends) <= 12


# a refusal on the branch `newton` draws: the first chain, path 1.1...1
ON_BRANCH_1 = re.compile(r"(error: )?branch 1(\.1)*: ")


def test_newton_meets_no_refusal_past_the_branch_it_draws(tmp_path, capsys):
    # newton's outcome is the ledger's, and a refusal it meets is on the
    # drawn branch; an answer is kept, and a refusal is not turned into
    # another, nor into an answer, unless it is met past that branch
    recorded = read_ledger()["first1"]
    for name, sc in scenarios():
        try:
            chains, _ = grow(sc)
            ch = chains[0]
            full = (0, render_newton(ch, sc.target, ch.depth(), "text"), "")
        except Refusal as exc:
            full = (2, "", "error: %s\n" % exc)
        path = tmp_path / (name + ".scn")
        path.write_text(format_scenario(sc), encoding="ascii")
        got = _newton([str(path)], capsys)
        cut = refusal(recorded[name])
        if cut is None:
            assert (got[0], got[2]) == (0, ""), name
        else:
            assert got == (2, "", "error: %s\n" % cut[1]), name
            assert ON_BRANCH_1.match(cut[1]), name
        if full[0] == 0:
            assert got == full, name
        elif got != full:
            assert not ON_BRANCH_1.match(full[2]), name
