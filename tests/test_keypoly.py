import random
from fractions import Fraction

import pytest

from bruteforce import brute_flat_value, brute_lower_hull
from inputs import V, cubic_setup, quartic_setup, run_scenario, tower_chain
from valforge.fields import (CoordinateTower, InsufficientPrecision, QQ,
                             RationalFunctions, UnsupportedStructure)
from valforge.graded import (EtaleRing, graded_add, graded_div,
                             graded_divmod, graded_equal, graded_inverse,
                             graded_is_unit, graded_mul)
from valforge.keypoly import (Chain, ChainError, explore, located, lower_hull,
                              replay)
from valforge.polyring import Poly
from valforge.scenario import load_scenario
from valforge.values import INF, OrdinalIndex, Value


IDX = [OrdinalIndex(0, n) for n in range(12)]


# ---------------------------------------------------------------------------
# the running example: P = Q^2 + (y^2 x + y^5) Q + y^8 over Q(y), Q = x^2 - y^3


def test_first_candidates_single_side():
    F, x, Q, P = quartic_setup()
    ch = Chain(F, "x", P)
    assert ch.candidate_betas(x, 0) == [V("3/2")]


def test_first_entry_bookkeeping():
    F, x, Q, P = quartic_setup()
    ch = Chain(F, "x", P)
    ch.append(IDX[1], x, V("3/2"), "derived")
    ent = ch.entries[0]
    assert ent.e_step == 2 and ent.f_step == 1 and ent.alpha == 1
    assert ch.group(1).contains(V("3/2"))
    assert not ch.base_group.contains(V("3/2"))


def test_side_residual_is_squared_linear():
    F, x, Q, P = quartic_setup()
    ch = Chain(F, "x", P)
    ch.append(IDX[1], x, V("3/2"), "derived")
    e, j1, j2, rho, minv = ch.side_residual()
    assert (e, j1, j2) == (2, 0, 4)
    assert minv == V(6)
    assert rho == [Fraction(1), Fraction(-2), Fraction(1)]
    keys = ch.derive_keys()
    assert len(keys) == 1
    assert keys[0][0].eq(Q)
    assert keys[0][1] == ("const", Fraction(1))   # rho = (T - 1)^2


def test_branch_point_candidates():
    F, x, Q, P = quartic_setup()
    ch = Chain(F, "x", P)
    ch.append(IDX[1], x, V("3/2"), "derived")
    assert ch.candidate_betas(Q) == [V("7/2"), V("9/2")]


def test_rule_derivation_and_weights():
    F, x, Q, P = quartic_setup()
    ch = Chain(F, "x", P)
    ch.append(IDX[1], x, V("3/2"), "derived")
    ch.append(IDX[2], Q, V("7/2"), "derived")
    assert ch.rule(2) == ("const", Fraction(1))
    w2 = ch.weight(2)
    assert w2.v0 == V(2) and w2.exps == {1: 1}
    assert w2.materialize(ch).format() == "y^2*x"


def test_lift_on_both_branches():
    F, x, Q, P = quartic_setup()
    ch = Chain(F, "x", P)
    ch.append(IDX[1], x, V("3/2"), "derived")
    hi = ch.clone()
    ch.append(IDX[2], Q, V("7/2"), "derived")
    e, j1, j2, rho, _ = ch.side_residual()
    assert (e, j1, j2) == (1, 1, 2)
    assert rho == [Fraction(1), Fraction(1)]
    keys = [q for q, _ in ch.derive_keys()]
    assert len(keys) == 1
    assert keys[0].format() == "x^2 + y^2*x - y^3"
    assert ch.candidate_betas(keys[0]) == [V("9/2")]

    hi.append(IDX[2], Q, V("9/2"), "derived")
    assert hi.weight(2).materialize(hi).format() == "y^3*x"
    keys = [q for q, _ in hi.derive_keys()]
    assert len(keys) == 1
    assert keys[0].format() == "x^2 + y^3*x - y^3"
    assert hi.candidate_betas(keys[0]) == [V("11/2")]


def test_clone_shares_its_entries_after_appends():
    """Appending on a chain or on its clone replaces no entry they share:
    the relation a key forces on the level below is stored on the key's
    own entry when it is built."""
    F, x, Q, P = quartic_setup()
    ch = Chain(F, "x", P)
    ch.append(IDX[1], x, V("3/2"), "derived")
    ch.append(IDX[2], Q, V("7/2"), "derived")
    key, rule = ch.derive_keys()[0]
    child = ch.clone()
    ch.append(IDX[3], key, V("9/2"), "derived", rule)
    child.append(IDX[3], key, V(5), "derived", rule)
    assert all(a is b for a, b in zip(ch.entries[:2], child.entries[:2]))
    assert ch.entry(3) is not child.entry(3)
    assert ch.entry(1).rule is None
    assert ch.entry(3).rule == child.entry(3).rule == ("const", Fraction(-1))


def test_explore_two_branches_frozen_values():
    F, x, Q, P = quartic_setup()
    chains, skipped = explore(F, "x", P, depth=6)
    assert skipped == []
    assert len(chains) == 2
    lo, hi = chains
    assert [e.beta for e in lo.entries] == [V("3/2"), V("7/2"), V("9/2"),
                                            V("11/2"), V("13/2"), V("15/2")]
    assert [e.beta for e in hi.entries] == [V("3/2"), V("9/2"), V("11/2"),
                                            V("13/2"), V("15/2"), V("17/2")]
    # every key after the branch point stays quadratic
    assert all(e.poly.degree == 2 for e in lo.entries[1:])
    assert all(e.poly.degree == 2 for e in hi.entries[1:])
    assert [e.e_step for e in lo.entries] == [2, 1, 1, 1, 1, 1]
    assert [e.f_step for e in lo.entries] == [1, 1, 1, 1, 1, 1]


def test_truncated_values_frozen():
    F, x, Q, P = quartic_setup()
    chains, _ = explore(F, "x", P, depth=3)
    lo, hi = chains
    assert lo.cval(P, 1) == V(6)
    assert lo.cval(P, 2) == V(7)
    assert hi.cval(P, 2) == V(8)
    assert lo.cval(Q, 2) == V("7/2")
    assert hi.cval(Q, 2) == V("9/2")
    assert lo.cval(x, 2) == V("3/2")
    # nondecreasing along the chain
    for ch in chains:
        for f in (P, Q, x):
            vals = [ch.cval(f, k) for k in range(1, ch.depth() + 1)]
            assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_effective_degrees_frozen():
    F, x, Q, P = quartic_setup()
    chains, _ = explore(F, "x", P, depth=3)
    lo, hi = chains
    assert lo.effective_degree(P, 1) == 4
    assert lo.effective_degree(P, 2) == 2
    assert lo.effective_degree(P, 3) == 1
    assert hi.effective_degree(P, 2) == 1
    # the refinement inequality alpha*delta_new <= delta_old at every step
    for ch in chains:
        for k in range(1, ch.depth()):
            d_old = ch.effective_degree(P, k)
            d_new = ch.effective_degree(P, k + 1)
            assert ch.entries[k].alpha * d_new <= d_old


def test_cval_matches_flat_expansion_oracle():
    F, x, Q, P = quartic_setup()
    chains, _ = explore(F, "x", P, depth=4)
    rng = random.Random(41)
    y = F.atom("y")
    for ch in chains:
        polys = [e.poly for e in ch.entries]
        betas = [e.beta for e in ch.entries]
        for _ in range(25):
            f = Poly(F, "x", [
                F.mul(F.from_int(rng.randrange(-3, 4)), F.pow(y, rng.randrange(4)))
                for _ in range(rng.randrange(1, 6))])
            if f.is_zero:
                continue
            for k in range(1, ch.depth() + 1):
                assert ch.cval(f, k) == brute_flat_value(polys[:k], betas[:k], F, f)


def test_hull_against_bruteforce():
    rng = random.Random(99)
    for _ in range(80):
        pts = []
        for j in range(rng.randrange(2, 9)):
            pts.append((j, V(Fraction(rng.randrange(-12, 13), rng.randrange(1, 4)))))
        assert lower_hull(pts) == brute_lower_hull(pts)


def test_graded_additivity_and_units():
    F, x, Q, P = quartic_setup()
    chains, _ = explore(F, "x", P, depth=3)
    ch = chains[0]
    rng = random.Random(5)
    y = F.atom("y")

    def rand_poly():
        while True:
            f = Poly(F, "x", [
                F.mul(F.from_int(rng.randrange(-2, 3)), F.pow(y, rng.randrange(3)))
                for _ in range(rng.randrange(1, 6))])
            if not f.is_zero:
                return f

    for _ in range(40):
        f, g = rand_poly(), rand_poly()
        df, dg = ch.effective_degree(f), ch.effective_degree(g)
        dfg = ch.effective_degree(f * g)
        assert dfg == df + dg
        # the initial form of a product is the product of initial forms
        assert graded_equal(ch.in_class(f * g),
                            graded_mul(ch.in_class(f), ch.in_class(g)))
        # delta = 0 exactly for graded units, certified by an explicit inverse
        a = ch.in_class(f)
        assert (df == 0) == graded_is_unit(a)
        if df == 0:
            inv = graded_inverse(a)
            one = graded_mul(a, inv)
            assert one.value == V(0) and set(one.terms) == {0}
            assert one.ring.eq(one.terms[0], one.ring.one)


def test_graded_div_postconditions():
    F, x, Q, P = quartic_setup()
    chains, _ = explore(F, "x", P, depth=3)
    ch = chains[0]
    rng = random.Random(17)
    y = F.atom("y")

    def rand_poly():
        while True:
            f = Poly(F, "x", [
                F.mul(F.from_int(rng.randrange(-2, 3)), F.pow(y, rng.randrange(3)))
                for _ in range(rng.randrange(1, 6))])
            if not f.is_zero:
                return f

    for _ in range(40):
        f, g = rand_poly(), rand_poly()
        a = ch.in_class(f * g)
        b = ch.in_class(f)
        q = graded_div(a, b)
        assert graded_equal(graded_mul(b, q), a)
        assert q.value == a.value - b.value


def test_graded_divmod_postconditions():
    F, x, Q, P = quartic_setup()
    chains, _ = explore(F, "x", P, depth=3)
    ch = chains[0]
    rng = random.Random(23)
    y = F.atom("y")

    def rand_poly():
        while True:
            f = Poly(F, "x", [
                F.mul(F.from_int(rng.randrange(-2, 3)), F.pow(y, rng.randrange(3)))
                for _ in range(rng.randrange(1, 6))])
            if not f.is_zero:
                return f

    for _ in range(60):
        a = ch.in_class(rand_poly())
        b = ch.in_class(rand_poly())
        q, r = graded_divmod(a, b)
        assert graded_equal(a, graded_add(graded_mul(b, q), r))
        assert r.is_zero or r.degree < b.degree
        if graded_is_unit(b):
            assert r.is_zero
        if r.is_zero and not q.is_zero:
            assert graded_equal(graded_div(a, b), q)
    # exact divisions leave no remainder
    f, g = rand_poly(), rand_poly()
    q, r = graded_divmod(ch.in_class(f * g), ch.in_class(g))
    assert r.is_zero and graded_equal(q, ch.in_class(f))
    with pytest.raises(ZeroDivisionError):
        graded_divmod(ch.in_class(f), ch.in_class(f - f))
    with pytest.raises(ValueError):
        graded_add(ch.in_class(x), ch.in_class(f * f * f * f * f))


def test_validation_rejects_bad_entries():
    F, x, Q, P = quartic_setup()
    ch = Chain(F, "x", P)
    with pytest.raises(ChainError):
        ch.append(IDX[1], x * x, V(1), "scripted")  # wrong starting degree
    ch.append(IDX[1], x, V("3/2"), "scripted")
    with pytest.raises(ChainError):
        ch.append(IDX[2], Q, V(1), "scripted")  # value does not increase
    with pytest.raises(ChainError):
        ch.append(IDX[2], Q, V(2), "scripted")  # fails to dominate mu'(Q) = 3
    with pytest.raises(ChainError):
        ch.append(IDX[2], Q + x, V(4), "scripted")  # degree not a multiple: ok, 3 = no
    with pytest.raises(ChainError):
        # unbalanced: x^2 - y has stage-1 value 2*beta at top but min(3, 1) = 1 below
        ch.append(IDX[2], x * x - Poly.const(F, "x", F.canonical_element(V(1))),
                  V(4), "scripted")
    ch.append(IDX[2], Q, V("7/2"), "scripted")
    with pytest.raises(ChainError):
        ch.append(IDX[2], Q, V(4), "scripted")  # index must increase


@pytest.mark.parametrize("index, beta", [
    (IDX[2], V(5)),                 # a successor entry
    (OrdinalIndex(1, 0), V(5)),     # a limit entry
    (OrdinalIndex(1, 0), INF),      # refused before the terminal check
], ids=["successor", "limit", "limit-terminal"])
def test_degree_jump_must_be_a_multiple_of_the_spacing(index, beta):
    F, x, Q, P = quartic_setup()
    ch = Chain(F, "x", P)
    ch.append(IDX[1], x, V("3/2"), "scripted")     # spacing e_1 = 2
    with pytest.raises(ChainError) as info:
        ch.append(index, x.pow(3), beta, "scripted")
    assert str(info.value) == ("degree jump 3 is not a multiple of the "
                               "level 1 spacing 2")
    assert ch.depth() == 1


def test_second_residue_extension_refusal_names_stage_and_key():
    # x^2 + y^2 adjoins a root of T^2 + 1 at level 1; the incoming key asks
    # for T^2 + 1 again at level 2
    F = RationalFunctions(QQ, "y")
    x = Poly.variable(F, "x")
    y = Poly.const(F, "x", F.atom("y"))
    q2 = x * x + y * y
    q3 = q2.pow(4) + y.pow(10)
    ch = Chain(F, "x", q3)
    ch.append(IDX[1], x, V(1), "scripted")
    ch.append(IDX[2], q2, V("5/2"), "scripted")
    with pytest.raises(UnsupportedStructure) as info:
        ch.append(IDX[3], q3, V("21/2"), "scripted")
    # append states the reason; growth and replay put the place before it
    msg = str(info.value)
    assert msg.startswith("the incoming key x^8 ")
    assert "by T^2 + 1, and a second residue field extension" in msg
    assert str(located(info.value, ch)) == "stage 2, key Q = x^2 + y^2: " + msg


@pytest.mark.parametrize("rule", [None, ("const", Fraction(1))],
                         ids=["derived", "supplied"])
def test_unbalanced_key_is_refused_with_or_without_its_relation(rule):
    # x^2 - y has value min(2*3/2, 1) = 1 at stage 1, below the 3 of its top
    # term; a relation handed to `append` skips no check
    F, x, Q, P = quartic_setup()
    ch = Chain(F, "x", P)
    ch.append(IDX[1], x, V("3/2"), "scripted")
    key = x * x - Poly.const(F, "x", F.canonical_element(V(1)))
    with pytest.raises(ChainError) as info:
        ch.append(IDX[2], key, V(4), "scripted", rule)
    assert str(info.value) == ("incoming key is not balanced at level 1: "
                               "value 1 below 3")
    assert ch.depth() == 1


def test_second_residue_extension_is_refused_for_a_supplied_relation():
    F = RationalFunctions(QQ, "y")
    x = Poly.variable(F, "x")
    y = Poly.const(F, "x", F.atom("y"))
    q2 = x * x + y * y
    q3 = q2.pow(4) + y.pow(10)
    ch = Chain(F, "x", q3)
    ch.append(IDX[1], x, V(1), "scripted")
    ch.append(IDX[2], q2, V("5/2"), "scripted")
    with pytest.raises(UnsupportedStructure) as info:
        ch.append(IDX[3], q3, V("21/2"), "derived", ch.entry(2).rule)
    msg = str(info.value)
    assert "by T^2 + 1, and a second residue field extension" in msg
    assert ch.depth() == 2


def test_terminal_entry_requires_divisibility():
    F, x, Q, P = quartic_setup()
    y = lambda n: Poly.const(F, "x", F.canonical_element(V(n)))
    target = (x * x - y(3)) * (x * x + y(1))
    ch = Chain(F, "x", target)
    ch.append(IDX[1], x, V("1/2"), "scripted")
    with pytest.raises(ChainError):
        bad = ch.clone()
        bad.append(IDX[2], x * x - y(1), INF, "scripted")
    ch.append(IDX[2], x * x + y(1), INF, "scripted")
    assert ch.entries[-1].beta is INF
    with pytest.raises(ChainError):
        ch.append(IDX[3], target, V(9), "scripted")  # nothing beyond a terminal


# ---------------------------------------------------------------------------
# char 3, rank 2: P = w^3 - z^6 w + y^3 z^9 over GF(3)((z,y)) lex


def test_cubic_two_sides():
    F, w, z, y, P = cubic_setup()
    ch = Chain(F, "w", P)
    assert ch.candidate_betas(w, 0) == [V(3, 0), V(3, 3)]


def test_cubic_split_branch_derives_frobenius_ladder():
    F, w, z, y, P = cubic_setup()
    ch = Chain(F, "w", P, lump_sides=True)
    ch.append(IDX[1], w, V(3, 3), "derived")
    assert ch.effective_degree(P) == 1
    keys = [q for q, _ in ch.derive_keys()]
    assert len(keys) == 1
    q2 = keys[0]
    diff = q2 - (w - Poly.const(F, "w", F.mul(F.pow(z, 3), F.pow(y, 3))))
    assert diff.is_zero
    assert ch.candidate_betas(q2) == [V(3, 9)]
    ch.append(IDX[2], q2, V(3, 9), "derived")
    assert ch.effective_degree(P) == 1
    q3 = ch.derive_keys()[0][0]
    assert ch.candidate_betas(q3) == [V(3, 27)]


def test_cubic_lumped_branch_etale_layer():
    F, w, z, y, P = cubic_setup()
    ch = Chain(F, "w", P, lump_sides=True)
    ch.append(IDX[1], w, V(3, 0), "derived")
    e, j1, j2, rho, minv = ch.side_residual()
    assert (e, j1, j2) == (1, 1, 3)
    assert minv == V(9, 0)
    assert rho == [1, 0, 2]
    keys = ch.derive_keys()
    assert len(keys) == 1
    q2, rule = keys[0]
    assert q2.format() == "w^2 + 2*z^6"  # = w^2 - z^6 over GF(3)
    assert ch.candidate_betas(q2) == [V(6, 3)]
    ch.append(IDX[2], q2, V(6, 3), "derived", rule)
    # the lumped quadratic installs the one allowed residue ring extension
    assert ch.entry(2).rule == ("ext", (2, 0, 1))
    assert isinstance(ch.ring, EtaleRing) and ch.ring.modulus == (2, 0, 1)
    e, j1, j2, rho, _ = ch.side_residual()
    assert (e, j1, j2) == (1, 0, 1)
    assert rho == [(1,), (0, 1)]  # 1 and the adjoined class of T
    with pytest.raises(UnsupportedStructure):
        ch.derive_keys()
    # the terminal key is scenario input; the engine validates it
    u = F.add(F.add(F.pow(y, 3), F.pow(y, 9)), F.pow(y, 27))
    a = F.mul(F.pow(z, 3), u)
    c = lambda e: Poly.const(F, "w", e)
    q3 = q2 + c(a) * Poly.variable(F, "w") + c(F.mul(a, a))
    ch.append(IDX[3], q3, INF, "scripted")
    assert ch.rule(3) == ("const", (0, 2))  # minus the adjoined class
    assert [ent.f_step for ent in ch.entries] == [1, 2, 1]
    assert [ent.e_step for ent in ch.entries] == [1, 1, 1]


def test_cubic_terminal_rejected_at_higher_precision():
    # the same scripted terminal key fails once the box sees y^81
    F, w, z, y, P = cubic_setup(precision={"y": 100})
    ch = Chain(F, "w", P, lump_sides=True)
    ch.append(IDX[1], w, V(3, 0), "derived")
    q2, rule = ch.derive_keys()[0]
    ch.append(IDX[2], q2, V(6, 3), "derived", rule)
    u = F.add(F.add(F.pow(y, 3), F.pow(y, 9)), F.pow(y, 27))
    a = F.mul(F.pow(z, 3), u)
    c = lambda e: Poly.const(F, "w", e)
    q3 = q2 + c(a) * Poly.variable(F, "w") + c(F.mul(a, a))
    with pytest.raises(ChainError):
        ch.append(IDX[3], q3, INF, "scripted")


def test_canonical_monomials_rank_two():
    F, w, z, y, P = cubic_setup()
    ch = Chain(F, "w", P, lump_sides=True)
    ch.append(IDX[1], w, V(3, 0), "derived")
    mono = ch.canonical_monomial(V(6, 3), 1)
    assert mono.v0 == V(6, 3) and mono.exps == {}
    assert F.format_element(mono.materialize(ch).constant_term()) == "z^6*y^3"
    with pytest.raises(ChainError):
        ch.canonical_monomial(V(0, "1/2"), 1)


def test_scripted_replay_roundtrip():
    F, x, Q, P = quartic_setup()
    script = [(IDX[1], x, V("3/2")), (IDX[2], Q, V("9/2"))]
    ch = replay(F, "x", P, script)
    assert ch.depth() == 2
    assert ch.entries[1].origin == "scripted"
    chains, skipped = explore(F, "x", P, depth=4,
                              scripted={V("3/2"): script}, scripted_only=True)
    assert len(chains) == 1 and chains[0].depth() == 2
    assert skipped == []


# ---------------------------------------------------------------------------
# the quintic over the coordinate tower: two limit stages, trivial e and f


def test_tower_scripted_chain_replays():
    F, P, qw, qw2, script, ch = tower_chain()
    assert ch.depth() == 38
    assert all(ent.e_step == 1 and ent.f_step == 1 for ent in ch.entries)
    assert ch.entry(13).alpha == 2 and ch.entry(26).alpha == 2
    assert ch.entry(13).index.is_limit and ch.entry(26).index.is_limit


def test_tower_effective_degree_blocks():
    F, P, qw, qw2, script, ch = tower_chain()
    assert ch.effective_degree(P, 1) == 4
    assert [ch.effective_degree(qw, k) for k in range(1, 13)] == [2] * 12
    assert [ch.effective_degree(qw2, k) for k in range(14, 26)] == [2] * 12
    assert [ch.effective_degree(P, k) for k in range(26, 39)] == [1] * 13


def test_tower_limit_appends_balance_on_even_support():
    F, P, qw, qw2, script, ch = tower_chain()
    minv, S = ch.argmin_data(qw, 12)
    assert sorted(m for m, _ in S) == [0, 2]
    assert minv == V(2 * Fraction(4 ** 12 - 1, 3 * 4 ** 12))
    minv2, S2 = ch.argmin_data(qw2, 25)
    assert sorted(m for m, _ in S2) == [0, 2]
    assert minv2 == ch.entry(25).beta.scale(2)


def test_tower_rules_frozen():
    F, P, qw, qw2, script, ch = tower_chain()
    rules = [ch.rule(k + 1) for k in range(1, 38)]
    bump = [("const", 0)]
    assert rules == [("const", 1)] * 12 + bump + [("const", 1)] * 12 + bump \
        + [("const", 1)] * 11


def test_tower_deep_block_rederived_by_engine():
    F, P, qw, qw2, script, ch = tower_chain()
    pre = replay(F, "y", P, script[:26])
    assert pre.candidate_betas(qw2) == [V(Fraction(5, 4))]
    pre.append(OrdinalIndex(2, 1), qw2, V(Fraction(5, 4)), "scripted")
    keys = [q for q, _ in pre.derive_keys()]
    assert len(keys) == 1
    diff = keys[0] + script[27][1]
    assert diff.is_zero
    assert pre.candidate_betas(keys[0]) == [V(Fraction(21, 16))]


# ---------------------------------------------------------------------------
# the stage-value oracle over the coordinate tower and the lex series


def _oracle_cases():
    """name -> (chain, number of leading stages to check, field atoms): the
    first six entries of the tower chain and the finite-valued stages of
    both `cubic_char3` branches."""
    F, P, qw, qw2, script, ch = tower_chain()
    cases = {"tower": (ch, 6, [F.atom(a) for a in ("u", "v", "v2", "v3")])}
    sc = load_scenario("cubic_char3")
    chains, _ = run_scenario(sc)
    for n, c in enumerate(chains):
        stages = sum(not e.beta.is_infinite for e in c.entries)
        cases["cubic_char3-%d" % n] = (
            c, stages, [sc.field.atom(a) for a in ("z", "y")])
    return cases


@pytest.mark.parametrize("name", ["tower", "cubic_char3-0", "cubic_char3-1"])
def test_cval_matches_flat_expansion_oracle_over_tower_and_lex(name):
    ch, stages, atoms = _oracle_cases()[name]
    F = ch.field
    polys = [e.poly for e in ch.entries[:stages]]
    betas = [e.beta for e in ch.entries[:stages]]
    rng = random.Random(53)

    def rand_poly():
        while True:
            coeffs = []
            for _ in range(rng.randrange(1, 6)):
                c = F.from_int(rng.randrange(F.char))
                for _ in range(rng.randrange(3)):
                    c = F.mul(c, rng.choice(atoms))
                coeffs.append(c)
            f = Poly(F, ch.var, coeffs)
            if not f.is_zero:
                return f

    compared = 0
    for _ in range(60 // stages):
        f = rand_poly()
        for k in range(1, stages + 1):
            assert ch.cval(f, k) == brute_flat_value(polys[:k], betas[:k], F, f)
            compared += 1
    assert compared == 60


def test_tower_refuses_a_value_beyond_its_depth():
    """At depth D the tower sees p^-D Z of its value group Z[1/p]: a value
    with denominator p^D extends nothing, one with p^(D+1) is the
    truncation's artifact and is refused with the depth it needs, and a
    denominator prime to p is ramification and passes."""
    F = CoordinateTower(2, 1, max_depth=3)
    y = Poly.variable(F, "y")
    target = y * y + Poly.const(F, "y", F.atom("v3"))
    first = OrdinalIndex(0, 1)
    ch = Chain(F, "y", target)
    ch.append(first, y, Value([Fraction(1, 8)]), "derived")
    assert ch.entry(1).e_step == 1
    ch = Chain(F, "y", target)
    ch.append(first, y, Value([Fraction(1, 3)]), "derived")
    assert ch.entry(1).e_step == 3
    ch = Chain(F, "y", target)
    with pytest.raises(InsufficientPrecision) as info:
        ch.append(first, y, Value([Fraction(1, 16)]), "derived")
    assert str(info.value) == "value 1/16 needs tower depth 4, beyond depth 3"
    assert ch.depth() == 0
