"""Every input's outcome under every way a command grows it, byte for byte.

Each of the benchmark's 120 corpus targets (`perfbench/corpus.py`, read
only) and each packaged scenario is grown in each mode of `inputs.MODES`,
then picked and accounted by `cli.pick` and `cli.account`.  Per input the
record keeps each branch's depth, e, f, block factors and status and the
identity line, or the type and text of the refusal.  `corpus_outcomes.txt`
is that ledger, a `[mode]` line before each mode's records; the other
tests read outcomes from it (`inputs.read_ledger`).  A change that means
to move an outcome re-records it with

    PYTHONPATH=src python tests/test_corpus_outcomes.py

which prints each input whose record changed: its mode and name, and the
first line at which its old and new records differ.
"""

from inputs import LEDGER, MODES, outcome, read_ledger, scenarios
from valforge.fields import Refusal


def ledger_text():
    lines, inputs = [], scenarios()
    for mode in MODES:
        lines.append("[%s]" % mode)
        for name, sc in inputs:
            result = outcome(sc, mode)
            if isinstance(result, Refusal):
                lines.append("%s refused %s: %s"
                             % (name, type(result).__name__, result))
                continue
            lines += ["%s branch %d depth %d e %d f %d d_blocks %s status %s"
                      % (name, br.branch_id, br.chain.depth(), br.e, br.f,
                         br.d_blocks, br.status) for br in result[1]]
            lines.append("%s identity %s" % (name, result[2].line()))
    return "".join(line + "\n" for line in lines)


def changes(old, new):
    """`mode name: old line -> new line` for each input whose record differs
    between two ledger texts, at the first line where they differ."""
    before, after = read_ledger(old), read_ledger(new)
    out = []
    for mode in {**before, **after}:
        was, now = before.get(mode, {}), after.get(mode, {})
        for name in {**was, **now}:
            diff = [pair for pair in zip(was.get(name, []) + ["(none)"],
                                         now.get(name, []) + ["(none)"])
                    if pair[0] != pair[1]]
            if diff:
                out.append("%s %s: %s -> %s" % ((mode, name) + diff[0]))
    return out


def test_corpus_outcomes_are_unchanged():
    text, recorded = ledger_text(), LEDGER.read_bytes()
    assert text.encode("ascii") == recorded, "\n".join(
        changes(recorded.decode("ascii"), text)[:5])


if __name__ == "__main__":
    old, new = LEDGER.read_text(encoding="ascii"), ledger_text()
    LEDGER.write_bytes(new.encode("ascii"))
    for line in changes(old, new):
        print(line)
