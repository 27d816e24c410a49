"""Growth cut to the first chains, as `newton` grows a scenario.

`explore(..., first=N)` makes only the first N chains of the depth-first
order.  Here, on every pinned corpus target (`perfbench/corpus.py`, read
only) and every packaged scenario, they must be the first N chains of
unpruned growth, entry by entry, wherever unpruned growth answers.
`newton` grows the chains up to the one it draws and no others: it draws
the same polygon as from unpruned growth, and a refusal in a branch past
the drawn one no longer stops it; the outcomes on the corpus are pinned.
"""

from collections import Counter

import pytest

from inputs import CORPUS, PACKAGED, corpus_targets, growth_inputs
from valforge.cli import grow, main
from valforge.fields import Refusal
from valforge.keypoly import Chain
from valforge.report import render_newton
from valforge.scenario import load_scenario, parse_scenario


def _entries(chains):
    return [[(str(e.index), e.poly.format(), str(e.beta), e.origin)
             for e in ch.entries] for ch in chains]


@pytest.mark.parametrize("first", [1, 2, 3])
def test_first_chains_are_those_of_unpruned_growth(first):
    answered = 0
    for name, grown in growth_inputs():
        try:
            chains, skipped = grown()
        except Refusal:
            continue
        cut, cut_skipped = grown(first=first)
        assert _entries(cut) == _entries(chains)[:first], name
        assert cut_skipped == skipped, name
        answered += 1
    assert answered == 78 + len(PACKAGED)


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


def test_newton_meets_no_refusal_past_the_branch_it_draws(tmp_path, capsys):
    outcomes = Counter()
    changed = {}
    for t in corpus_targets():
        name = "t%03d" % t.index
        text = CORPUS.scenario_text(t)
        sc = parse_scenario(text)
        try:
            chains, _ = grow(sc)
            ch = chains[0]
            full = (0, render_newton(ch, sc.target, ch.depth(), "text"), "")
        except Refusal as exc:
            full = (2, "", "error: %s\n" % exc)
        path = tmp_path / (name + ".scn")
        path.write_text(text, encoding="ascii")
        got = _newton([str(path)], capsys)
        outcomes[full[0], got[0]] += 1
        if full[0] == 0 or got[0] == 2:
            # an answer is kept, and a refusal is not turned into another
            # unless it is met in a branch past branch 1
            if got != full:
                changed[name] = got[2]
    # 21 targets whose unpruned growth refuses in a later branch now answer
    assert outcomes == {(0, 0): 78, (2, 0): 21, (2, 2): 21}
    # two refused in branch 1.2 at stage 2, and now branch 1's own deeper
    # refusal is the first met
    assert sorted(changed) == ["t007", "t022"]
    assert changed["t007"].startswith(
        "error: branch 1.1.1: stage 3, key Q = x^2 + 3*x + (2*y + 4): "
        "residual coefficients leave the scalar residue field: ")
    assert changed["t022"].startswith("error: branch 1.1.1: stage 3, ")
