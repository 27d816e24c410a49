"""The engine's outcome on every pinned corpus target, held byte for byte.

Each of the benchmark's 120 corpus targets (`perfbench/corpus.py`, read
only) is grown, classified and summed as the benchmark's engine step does
it: `explore` to the corpus depth, `classify` of each branch with the
corpus window, then `degree_identity`.  Per target the record keeps each
branch's depth, e, f, block factors and status and the identity line, or
the type and text of the refusal.  `corpus_outcomes.txt` is that record;
a change that means to move an outcome re-records it with

    PYTHONPATH=src python tests/test_corpus_outcomes.py

and shows the difference.
"""

from pathlib import Path

from inputs import CORPUS, corpus_targets
from valforge.fields import Refusal
from valforge.keypoly import explore
from valforge.report import classify, degree_identity

RECORD = Path(__file__).resolve().parent / "corpus_outcomes.txt"


def outcome_lines(t):
    name = "t%03d" % t.index
    target = CORPUS.build_poly(t)
    try:
        chains, skipped = explore(target.field, "x", target, CORPUS.DEPTH)
        branches = [classify(ch, CORPUS.WINDOW, i)
                    for i, ch in enumerate(chains, 1)]
        ident = degree_identity(target, branches, complete=not skipped)
    except Refusal as exc:
        return ["%s refused %s: %s" % (name, type(exc).__name__, exc)]
    out = ["%s branch %d depth %d e %d f %d d_blocks %s status %s"
           % (name, br.branch_id, br.chain.depth(), br.e, br.f,
              br.d_blocks, br.status) for br in branches]
    return out + ["%s identity %s" % (name, ident.line())]


def outcome_text():
    return "".join(line + "\n" for t in corpus_targets()
                   for line in outcome_lines(t))


def test_corpus_outcomes_are_unchanged():
    assert outcome_text().encode("ascii") == RECORD.read_bytes()


if __name__ == "__main__":
    RECORD.write_bytes(outcome_text().encode("ascii"))
