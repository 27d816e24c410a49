"""The target's expansion in a key that moves by a constant is a Taylor shift.

`Chain._expand` builds the target's expansion in a key from the one held for
the last key of the same degree when the two differ only in the constant
coefficient (`polyring.shifted_expansion`), and divides otherwise.  Every
expansion it hands out must be the one `standard_expansion` divides out: at
every key met while the three packaged scenarios are explored and rendered
by all four subcommands, and while the pinned benchmark corpus
(`perfbench/corpus.py`, read only) is explored, classified and rendered;
and, as a property, over all four field kinds.  Elements of k(y) and of the
lex series compare by structure; a tower element has more than one
spelling, so there the coefficients are compared with `field.eq`.
"""

import contextlib
import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

import valforge.keypoly as keypoly
from inputs import DOMAINS, PACKAGED, SETTINGS, TERMS, element, grown_chains
from valforge.cli import main
from valforge.fields import CoordinateTower
from valforge.keypoly import Chain
from valforge.polyring import Poly, shifted_expansion, standard_expansion
from valforge.report import ReportError, classify, render_chain
from valforge.scenario import load_scenario

COMMANDS = ("chain", "defect", "newton", "verify")
VALUED = ("Q(t)", "F_3(t)", "lex series", "tower")


def _same_expansion(field, got, want):
    if len(got) != len(want):
        return False
    if isinstance(field, CoordinateTower):
        return all(a.eq(b) for a, b in zip(got, want))
    return all(a.coeffs == b.coeffs for a, b in zip(got, want))


@pytest.fixture
def target_expansions(monkeypatch):
    """Every (field, target, key, expansion) that `Chain._expand` hands out
    for the target, and the number of shifted ones."""
    met, shifted = [], []
    plain_expand = Chain._expand

    def _expand(self, f, key):
        out = plain_expand(self, f, key)
        if f is self.target:
            met.append((self.field, f, key, out))
        return out

    def counted_shift(expansion, s):
        shifted.append(s)
        return shifted_expansion(expansion, s)

    monkeypatch.setattr(Chain, "_expand", _expand)
    monkeypatch.setattr(keypoly, "shifted_expansion", counted_shift)
    return met, shifted


def _check(met):
    """Checks each expansion handed out once; returns how many there are."""
    made = {id(out): item for item in met for out in [item[3]]}
    for field, target, key, out in made.values():
        assert _same_expansion(field, out, standard_expansion(target, key)), \
            key.format()
    return len(made)


def test_packaged_commands_expand_as_division(target_expansions):
    met, shifted = target_expansions
    for name in PACKAGED:
        for command in COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main([command, name]) == 0
    assert shifted and _check(met) > 100


def test_corpus_expands_as_division(target_expansions):
    met, shifted = target_expansions
    for _, bid, sc, ch in grown_chains():
        try:
            classify(ch, sc.window, bid)
        except ReportError:     # a refused verdict still expanded
            pass
        render_chain([(bid, ch)])
    assert shifted and _check(met) > 400


@pytest.mark.parametrize("name", VALUED)
@SETTINGS
@given(f_specs=st.lists(TERMS, max_size=7),
       q_specs=st.lists(TERMS, min_size=1, max_size=3), s_spec=TERMS)
def test_shift_is_the_expansion_in_the_shifted_key(name, f_specs, q_specs,
                                                   s_spec):
    F, from_int, blocks, dens = DOMAINS[name]
    f = Poly(F, "x", [element(F, from_int, blocks, dens, spec)
                      for spec in f_specs] + [F.one])
    q = Poly(F, "x", [element(F, from_int, blocks, dens, spec)
                      for spec in q_specs] + [F.one])
    s = element(F, from_int, blocks, dens, s_spec)
    moved = Poly(F, "x", (F.sub(q.coeffs[0], s),) + q.coeffs[1:])
    got = shifted_expansion(standard_expansion(f, q), s)
    assert _same_expansion(F, got, standard_expansion(f, moved))


def test_tower_chain_divides_the_target_at_most_four_times(monkeypatch):
    """`chain quintic_tower` values the target at all 38 stages, whose keys
    have degrees 1, 2 and 4.  Only the first key of each degree, and the
    key x of the starting values, is divided out; every later key moves by
    a constant and is shifted."""
    target = load_scenario("quintic_tower").target
    divided = []
    plain = keypoly.standard_expansion

    def counted(f, q):
        if f.coeffs == target.coeffs:
            divided.append(q)
        return plain(f, q)

    monkeypatch.setattr(keypoly, "standard_expansion", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["chain", "quintic_tower"]) == 0
    assert 1 <= len(divided) <= 4, [q.format()[:20] for q in divided]
