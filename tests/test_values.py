import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import (
    brute_coset_count,
    brute_multiple_order,
    brute_solve_unique,
)
from inputs import FIELDS, PACKAGED, rand_poly, run_scenario
from valforge.values import (
    INF,
    OrdinalIndex,
    Value,
    ValueGroup,
    format_value,
    group_index,
    parse_value,
)
from valforge.fields import (QQ, CoordinateTower, LexMonomialSeries,
                             PrimeField, RationalFunctions,
                             UnsupportedStructure)
from valforge.keypoly import explore
from valforge.scenario import load_scenario


def qv(*coords):
    return Value(Fraction(c) for c in coords)


class TestValueOrder:
    def test_lex_compare(self):
        assert qv(1, 5) < qv(2, 0)
        assert qv(2, -1) < qv(2, 0)
        assert not qv(2, 0) < qv(2, 0)
        assert qv(Fraction(3, 2)) < qv(2)

    def test_infinite_is_top(self):
        assert qv(10**9, 10**9) < INF
        assert not INF < qv(0)
        assert INF <= INF and INF == INF
        assert INF + qv(1) == INF
        assert qv(1) + INF == INF

    def test_arithmetic(self):
        assert qv(1, 2) + qv(3, -1) == qv(4, 1)
        assert qv(1, 2) - qv(3, -1) == qv(-2, 3)
        assert -qv(1, -2) == qv(-1, 2)
        assert qv(Fraction(3, 2)).scale(2) == qv(3)
        assert qv(1, 2).scale(Fraction(1, 2)) == qv(Fraction(1, 2), 1)

    def test_infinite_guards(self):
        with pytest.raises(ValueError):
            INF.scale(0)
        with pytest.raises(ValueError):
            -INF
        with pytest.raises(ValueError):
            qv(1) - INF
        assert INF.scale(3) is INF

    def test_mismatched_rank_rejected(self):
        with pytest.raises(ValueError):
            qv(1) + qv(1, 2)


class TestParseFormat:
    def test_roundtrip_rank1(self):
        for text in ["3/2", "-7", "0", "12/5"]:
            assert format_value(parse_value(text, 1)) == text

    def test_roundtrip_rank2(self):
        for text in ["(3, 3)", "(0, -1/2)", "(9, 3)"]:
            assert format_value(parse_value(text, 2)) == text

    def test_inf(self):
        assert parse_value("inf", 1) is INF
        assert format_value(INF) == "inf"

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            parse_value("(1, 2)", 1)
        with pytest.raises(ValueError):
            parse_value("3/2", 2)

    def test_garbage(self):
        with pytest.raises(ValueError):
            parse_value("(1, 2", 2)
        with pytest.raises(ValueError):
            parse_value("one", 1)

    @pytest.mark.parametrize("text", ["1e5", "1.5", "1_0", "+3", "3/0",
                                      "3/-2", "1/2/3", "\u0663", "0x10", ""])
    def test_only_integers_and_their_quotients_are_literals(self, text):
        with pytest.raises(ValueError, match="bad value literal"):
            parse_value(text, 1)
        with pytest.raises(ValueError, match="bad value literal"):
            parse_value("(1, %s)" % text, 2)

    def test_literals_of_any_length_round_trip(self):
        # int() and str() refuse more than 4300 digits
        for text in ["1" * 5000, "-%s/7" % ("9" * 4400), "0/5"]:
            back = format_value(parse_value(text, 1))
            assert back == (text if text != "0/5" else "0")
        assert format_value(parse_value("(6/4, -2/%s)" % ("3" * 4400), 2)) \
            == "(3/2, -2/%s)" % ("3" * 4400)


class TestValueGroup:
    def test_membership_basic(self):
        g = ValueGroup(1, [qv(1), qv(Fraction(3, 2))])
        assert g.contains(qv(Fraction(1, 2)))
        assert g.contains(qv(-5))
        assert not g.contains(qv(Fraction(1, 3)))

    def test_frozen_index_six(self):
        # [<(1/2,0),(0,1/3)> : Z^2] = 6, frozen against the coset-counting oracle
        sub = [qv(1, 0), qv(0, 1)]
        sup = [qv(Fraction(1, 2), 0), qv(0, Fraction(1, 3))]
        assert brute_coset_count(sub, sup, 6) == 6
        assert group_index(ValueGroup(2, sub), ValueGroup(2, sup)) == 6

    def test_index_requires_containment(self):
        g1 = ValueGroup(1, [qv(Fraction(1, 3))])
        g2 = ValueGroup(1, [qv(Fraction(1, 2))])
        with pytest.raises(ValueError):
            group_index(g1, g2)

    def test_index_infinite_span_mismatch(self):
        sub = ValueGroup(2, [qv(1, 0)])
        sup = ValueGroup(2, [qv(1, 0), qv(0, 1)])
        with pytest.raises(ValueError):
            group_index(sub, sup)

    def test_extend_noop_when_contained(self):
        g = ValueGroup(1, [qv(1)])
        assert g.extend(qv(5)) is g
        assert g.extend(qv(Fraction(1, 2))) is not g

    def test_multiple_order_frozen(self):
        z = ValueGroup(1, [qv(1)])
        assert z.multiple_order(qv(Fraction(3, 2))) == 2
        assert z.multiple_order(qv(Fraction(7, 2))) == 2
        assert z.multiple_order(qv(Fraction(5, 3))) == 3
        half = ValueGroup(1, [qv(1), qv(Fraction(3, 2))])
        assert half.multiple_order(qv(Fraction(7, 2))) == 1
        zz = ValueGroup(2, [qv(1, 0), qv(0, 1)])
        assert zz.multiple_order(qv(3, 3)) == 1
        assert zz.multiple_order(qv(Fraction(7, 2), 0)) == 2
        assert zz.multiple_order(qv(Fraction(1, 2), Fraction(1, 3))) == 6

    def test_membership_matches_solve_oracle_randomized(self):
        # independent generators: membership iff the unique rational solution is integral
        rng = random.Random(20260822)
        checked = 0
        while checked < 150:
            rank = rng.choice([1, 2])
            gens = [
                qv(*[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rank)])
                for _ in range(rank)
            ]
            target = qv(*[Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(rank)])
            try:
                sol = brute_solve_unique(gens, target)
            except ValueError:
                continue
            expected = sol is not None and all(c.denominator == 1 for c in sol)
            assert ValueGroup(rank, gens).contains(target) == expected
            checked += 1

    def test_membership_sound_on_known_combinations(self):
        # dependent generator sets: every integer combination must be recognized
        rng = random.Random(11)
        for _ in range(80):
            rank = rng.choice([1, 2])
            gens = [
                qv(*[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rank)])
                for _ in range(rank + 1)
            ]
            grp = ValueGroup(rank, gens)
            member = Value.zero(rank)
            for g in gens:
                member = member + g.scale(rng.randint(-7, 7))
            assert grp.contains(member)

    def test_multiple_order_matches_oracle_randomized(self):
        rng = random.Random(7)
        for _ in range(40):
            den = rng.randint(1, 4)
            gens = [qv(1)]
            grp = ValueGroup(1, gens)
            v = qv(Fraction(rng.randint(1, 9), den))
            assert grp.multiple_order(v) == brute_multiple_order(gens, v, den, 12)


class TestOrdinalIndex:
    def test_display(self):
        assert str(OrdinalIndex(0, 3)) == "3"
        assert str(OrdinalIndex(1, 0)) == "w"
        assert str(OrdinalIndex(1, 3)) == "w+3"
        assert str(OrdinalIndex(2, 5)) == "w2+5"

    def test_order_and_steps(self):
        a = OrdinalIndex(0, 9)
        b = OrdinalIndex(1, 0)
        assert a < b < b.successor() < OrdinalIndex(2, 0)
        assert a.successor() == OrdinalIndex(0, 10)
        assert b.is_limit and not b.successor().is_limit


# ---------------------------------------------------------------------------
# exact coordinates: a Value holds integer numerators over one positive
# denominator in lowest terms, whatever ints and Fractions it is given


RATIONALS = st.builds(Fraction, st.integers(-12, 12),
                      st.sampled_from((1, 2, 3, 4, 6)))
CANONICAL_FIELDS = {
    1: (RationalFunctions(QQ, "y"), CoordinateTower(2, 1, max_depth=3)),
    2: (LexMonomialSeries(PrimeField(3), ("z", "y")),),
    3: (LexMonomialSeries(PrimeField(3), ("z", "y", "w")),),
}


def _as_given(q):
    """q as a valuation hands it over: an int when it is integral."""
    return q.numerator if q.denominator == 1 else q


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("refused", str(exc))


def _assert_canonical(v, coords):
    assert v.den > 0 and gcd(v.den, *v.nums) == 1
    assert v.coords == tuple(coords)
    assert all(type(c) is (int if v.den == 1 else Fraction) for c in v.coords)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(rank=st.sampled_from((1, 2, 3)), data=st.data())
def test_int_coordinates_agree_with_equal_fractions(rank, data):
    # rank 1 takes the single-numerator path of sums, differences and int
    # scales; ranks 2 and 3 take the general one
    coords = st.lists(RATIONALS, min_size=rank, max_size=rank)
    a, b, g = data.draw(coords), data.draw(coords), data.draw(coords)
    n = data.draw(st.sampled_from((-2, -1, 0, 1, 2, 3, 4, Fraction(1, 2),
                                   Fraction(-2, 3))))
    d = data.draw(st.sampled_from((1, 2, 3, 6)))
    m = data.draw(st.sampled_from((1, 2, 5)))
    ai, af = Value(map(_as_given, a)), Value(a)
    bi, bf = Value(map(_as_given, b)), Value(b)
    # the same point written over a denominator m times too large
    am = Value.over(tuple(x * m for x in af.nums), af.den * m)

    for v in (ai, af, am):
        _assert_canonical(v, a)
    assert ai == af == am and af == ai and hash(ai) == hash(af) == hash(am)
    for x, y in ((ai, bf), (af, bi), (ai, bi), (am, bi)):
        assert ((x < y, x <= y, x > y, x >= y, x == y)
                == (a < b, a <= b, a > b, a >= b, a == b))
    for x in (ai, af):
        assert x < INF and x <= INF and not x > INF and x != INF
        assert INF > x and not INF < x and x + INF is INF

    given_results = (ai + bi, ai - bi, -ai, ai.scale(n), ai / d)
    fraction_results = (af + bf, af - bf, -af, af.scale(n), af / d)
    exact = ([x + y for x, y in zip(a, b)], [x - y for x, y in zip(a, b)],
             [-x for x in a], [x * n for x in a], [x / d for x in a])
    assert given_results == fraction_results
    for v, want in zip(given_results, exact):
        _assert_canonical(v, want)
    assert [hash(v) for v in given_results] == [hash(v) for v in fraction_results]
    assert ([format_value(v) for v in (ai,) + given_results]
            == [format_value(v) for v in (af,) + fraction_results])

    gi = ValueGroup(rank, [Value(map(_as_given, g)), bi])
    gf = ValueGroup(rank, [Value(g), bf])
    assert gi.contains(ai) == gi.contains(af) == gf.contains(ai) == gf.contains(af)

    for F in CANONICAL_FIELDS[rank]:
        assert _outcome(F.canonical_element, ai) == _outcome(F.canonical_element, af)


def test_equal_values_written_differently_are_one_value():
    half = [Value([Fraction(2, 4)]), Value([Fraction(1, 2)]),
            Value.over((1,), 2), Value.over((3,), 6), Value.over((2,), 4)]
    two = [Value([2]), Value([Fraction(2)]), Value([Fraction(4, 2)]),
           Value.over((4,), 2), Value.over((2,))]
    for group, (nums, den) in ((half, ((1,), 2)), (two, ((2,), 1))):
        assert {(v.nums, v.den) for v in group} == {(nums, den)}
        assert len(set(group)) == 1 and len({hash(v) for v in group}) == 1
    assert Value([1, Fraction(1, 2)]) == Value.over((2, 1), 2)
    assert Value([Fraction(3, 3), 0]).coords == (1, 0)


def _assert_exact_stage_values(ch):
    """cval of the target and of every key, at every stage of the chain."""
    for k in range(1, ch.depth() + 1):
        for f in [ch.target] + [ent.poly for ent in ch.entries]:
            v = ch.cval(f, k)
            if v is not INF:
                assert all(type(c) in (int, Fraction) for c in v.coords), \
                    (k, f.format(), v.coords)


@pytest.mark.parametrize("name", PACKAGED)
def test_stage_values_are_exact_packaged(name):
    chains, _ = run_scenario(load_scenario(name))
    assert chains
    for ch in chains:
        _assert_exact_stage_values(ch)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_stage_values_are_exact_seeded(name):
    F = RationalFunctions(FIELDS[name], "y")
    rng = random.Random("exact-" + name)
    checked = 0
    while checked < 4:
        target = rand_poly(F, rng, rng.randint(2, 6), True)
        try:
            chains, _ = explore(F, "x", target, 5)
        except UnsupportedStructure:
            continue
        for ch in chains:
            _assert_exact_stage_values(ch)
        checked += 1
