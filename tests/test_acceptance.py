"""End-to-end acceptance checks, one criterion per test.

Each test prints a single "criterion N (...): PASS" or "... FAIL" line;
run with -s to watch them scroll by.  All random draws are seeded, so a
run exercises exactly the same cases every time.  Timed sections start
after one warm-up explore (see the module fixture) and wrap only the
engine work, not scenario parsing.
"""

import random
import time
from fractions import Fraction

import pytest

from bruteforce import brute_flat_value, brute_lower_hull
from valforge.fields import (PrimeField, QQ, RationalFunctions,
                             UnsupportedStructure)
from valforge.graded import (graded_add, graded_divmod, graded_equal,
                             graded_inverse, graded_is_unit, graded_mul)
from valforge.keypoly import explore, lower_hull, polygon_sides
from valforge.polyring import Poly
from valforge.report import classify, defect, degree_identity
from valforge.scenario import load_scenario
from valforge.values import INF, Value


def V(*coords):
    return Value([Fraction(c) for c in coords])


class _criterion:
    """Prints the verdict line whether the body passes or raises."""

    def __init__(self, number, label):
        self.number = number
        self.label = label

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        print("criterion %d (%s): %s"
              % (self.number, self.label, "FAIL" if exc_type else "PASS"))
        return False


@pytest.fixture(scope="module", autouse=True)
def warm_backend():
    # the first explore builds the scenario's field and runs each engine
    # path once; keep that first-call cost out of the timed sections below
    sc = load_scenario("quartic")
    explore(sc.field, sc.var, sc.target, depth=2)


def test_criterion_1_quartic_golden():
    sc = load_scenario("quartic")
    with _criterion(1, "quartic golden run"):
        t0 = time.perf_counter()
        chains, skipped = explore(sc.field, sc.var, sc.target, depth=sc.depth)
        branches = [classify(ch, sc.window, i)
                    for i, ch in enumerate(chains, 1)]
        ident = degree_identity(sc.target, branches, complete=True)
        elapsed = time.perf_counter() - t0
        assert skipped == [] and len(chains) == 2
        lo = [Fraction(3, 2)] + [Fraction(3, 2) + i for i in range(2, 13)]
        hi = [Fraction(3, 2)] + [Fraction(3, 2) + i + 1 for i in range(2, 13)]
        assert [e.beta for e in chains[0].entries] == [V(b) for b in lo]
        assert [e.beta for e in chains[1].entries] == [V(b) for b in hi]
        for br in branches:
            assert (br.e, br.f, br.d) == (2, 1, 1)
        assert ident.line() == "4 = 2*1*1 + 2*1*1" and ident.verdict
        assert elapsed < 1.0


def test_criterion_2_cubic_split():
    sc = load_scenario("cubic_char3")
    F, var, P = sc.field, sc.var, sc.target
    assert F.precision["y"] >= 40
    w = Poly.variable(F, var)
    z, y = F.atom("z"), F.atom("y")
    with _criterion(2, "cubic branch split"):
        t0 = time.perf_counter()
        chains, skipped = explore(F, var, P, depth=sc.depth,
                                  lump_sides=True, scripted=sc.scripted_map())
        branches = [classify(ch, sc.window, i)
                    for i, ch in enumerate(chains, 1)]
        ident = degree_identity(P, branches, complete=True)
        elapsed = time.perf_counter() - t0
        assert skipped == [] and len(chains) == 2
        ch1 = next(ch for ch in chains if ch.entries[0].beta == V(3, 0))
        ch2 = next(ch for ch in chains if ch.entries[0].beta == V(3, 3))
        # the opening polygon splits the target into exactly two sides
        pts = [(j, v) for j, v in ch1.newton_points(P, 1) if v is not INF]
        sides = polygon_sides(lower_hull(pts))
        assert len(sides) == 2
        assert {s.sigma for s in sides} == {V(3, 0), V(3, 3)}
        # the unramified branch keeps effective degree 1 all the way down
        assert ch2.depth() == 10
        assert [ch2.effective_degree(P, k) for k in range(1, 11)] == [1] * 10
        br2 = next(br for br in branches if br.chain is ch2)
        assert br2.d == 1
        # the lumped branch terminates at its third key, and the cofactor
        # identity holds modulo the working precision but not exactly
        assert ch1.depth() == 3 and ch1.entries[-1].beta is INF
        a = F.mul(F.pow(z, 3),
                  F.add(F.add(F.pow(y, 3), F.pow(y, 9)), F.pow(y, 27)))
        diff = (w - Poly.const(F, var, a)) * ch1.entries[-1].poly - P
        assert not all(F.is_zero(c) for c in diff.coeffs)
        assert all(F.is_zero_mod_precision(c) for c in diff.coeffs)
        assert ident.line() == "3 = 1*2*1 + 1*1*1" and ident.verdict
        assert elapsed < 5.0


def test_criterion_3_tower_defect():
    sc = load_scenario("quintic_tower")
    F, var, P = sc.field, sc.var, sc.target
    yv = Poly.variable(F, var)
    with _criterion(3, "tower limit blocks"):
        t0 = time.perf_counter()
        chains, skipped = explore(F, var, P, depth=sc.depth,
                                  scripted=sc.scripted_map(),
                                  scripted_only=True)
        assert len(chains) == 1
        br = classify(chains[0], sc.window, 1)
        elapsed = time.perf_counter() - t0
        assert skipped == [V(0), V("5/16")]
        ch = chains[0]
        assert ch.depth() == 38
        # first block: the Artin-Schreier probe keeps effective degree p
        g1 = yv * yv - Poly.const(F, var, F.atom("v"))
        assert (g1 - ch.entries[12].poly).is_zero
        assert all(ch.effective_degree(g1, l) == 2 for l in range(1, 13))
        # second block: same for the square of the first limit key plus u
        g2 = g1 * g1 + Poly.const(F, var, F.atom("u"))
        assert (g2 - ch.entries[25].poly).is_zero
        assert all(ch.effective_degree(g2, k) == 2 for k in range(13, 26))
        # final block: the target itself settles at effective degree 1
        assert all(ch.effective_degree(P, n) == 1 for n in range(26, 39))
        assert [b.kind for b in br.blocks] == ["limit", "limit", "stable"]
        assert br.d_blocks == [2, 2, 1]
        assert br.d == 4 == F.char ** 2
        assert defect([br]) == [4]
        assert elapsed < 10.0


def _graded_levels():
    """(label, chain, stage, draw) per scenario, each at an ordinary
    augmentation stage.  Draws are biased with key powers so the degree
    spread is not all units."""
    levels = []

    def add(label, ch, stage, coeff, seed):
        rng = random.Random(seed)
        F, var = ch.field, ch.var
        key = ch.entry(stage).poly

        def draw():
            while True:
                f = Poly(F, var, [coeff(rng)
                                  for _ in range(rng.randrange(1, 5))])
                if not f.is_zero:
                    return f * key.pow(rng.randrange(3))
        levels.append((label, ch, stage, draw))

    sq = load_scenario("quartic")
    F = sq.field
    y = F.atom("y")

    def coeff_q(rng):
        return F.mul(F.from_int(rng.randrange(-2, 3)),
                     F.pow(y, rng.randrange(3)))

    qchains, _ = explore(F, sq.var, sq.target, depth=3)
    add("quartic lower branch, stage 3", qchains[0], 3, coeff_q, 101)
    add("quartic upper branch, stage 2", qchains[1], 2, coeff_q, 102)

    sc3 = load_scenario("cubic_char3")
    G = sc3.field
    z, yy = G.atom("z"), G.atom("y")

    def coeff_c(rng):
        return G.mul(G.from_int(rng.randrange(3)),
                     G.mul(G.pow(z, rng.randrange(4)),
                           G.pow(yy, rng.randrange(3))))

    cchains, _ = explore(G, sc3.var, sc3.target, depth=6, lump_sides=True,
                         scripted=sc3.scripted_map())
    add("cubic lumped branch, stage 2", cchains[0], 2, coeff_c, 103)
    add("cubic ladder branch, stage 3", cchains[1], 3, coeff_c, 104)

    st = load_scenario("quintic_tower")
    T = st.field
    u, v, v2 = T.atom("u"), T.atom("v"), T.atom("v2")

    def coeff_t(rng):
        out = T.zero
        for _ in range(rng.randrange(1, 3)):
            m = T.one
            for atom, bound in ((u, 2), (v, 3), (v2, 2)):
                m = T.mul(m, T.pow(atom, rng.randrange(bound)))
            out = T.add(out, m)
        return out if rng.randrange(3) else T.zero

    tchains, _ = explore(T, st.var, st.target, depth=st.depth,
                         scripted=st.scripted_map(), scripted_only=True)
    add("tower first block, stage 5", tchains[0], 5, coeff_t, 105)
    return levels, [("quartic", sq, qchains), ("cubic", sc3, cchains),
                    ("tower", st, tchains)]


def test_criterion_4_property_suite():
    """Graded and inequality properties at ordinary augmentation stages.

    The tower's limit slots replay the closure of a block under a value
    that restarts below the settled level, so neither degree additivity
    nor the refinement inequality governs the step into them; those two
    slots are exempted below, everything else is checked with no skips.
    """
    levels, scenarios = _graded_levels()
    with _criterion(4, "graded property suite"):
        for label, ch, stage, draw in levels:
            for _ in range(200):
                f, g = draw(), draw()
                df = ch.effective_degree(f, stage)
                dg = ch.effective_degree(g, stage)
                assert ch.effective_degree(f * g, stage) == df + dg, label
                a, b = ch.in_class(f, stage), ch.in_class(g, stage)
                assert graded_equal(ch.in_class(f * g, stage),
                                    graded_mul(a, b)), label
                # degree zero exactly for units, witnessed by an inverse
                assert (df == 0) == graded_is_unit(a), label
                if df == 0:
                    one = graded_mul(a, graded_inverse(a))
                    assert one.value == a.value - a.value
                    assert set(one.terms) == {0}
                # division with remainder below the divisor degree
                q, r = graded_divmod(a, b)
                assert graded_equal(a, graded_add(graded_mul(b, q), r)), label
                assert r.is_zero or r.degree < b.degree, label

        for name, sc, chains in scenarios:
            for pos, ch in enumerate(chains):
                P = sc.target
                steps = 0
                for k in range(1, ch.depth()):
                    nxt = ch.entries[k]
                    if nxt.beta is INF:
                        continue
                    if nxt.index.limit and nxt.index.offset == 0:
                        continue
                    steps += 1
                    assert (nxt.alpha * ch.effective_degree(P, k + 1)
                            <= ch.effective_degree(P, k)), (name, k)
                assert steps > 0 or ch.depth() <= 1
                # truncated values stay below the oracle value, climb
                # monotonically and reach it
                for f, want in sc.oracle_samples(pos):
                    vals = [ch.cval(f, k) for k in range(1, ch.depth() + 1)]
                    assert all(not b < a for a, b in zip(vals, vals[1:]))
                    assert all(not want < v for v in vals), (name, f.format())
                    assert any(v == want for v in vals), (name, f.format())


def test_criterion_5_oracle_equivalence():
    """Truncated values against the flat expansion oracle over F_3(t),
    then hull vertices against the quadratic domination scan."""
    F = RationalFunctions(PrimeField(3), "t")
    t = F.atom("t")
    x = Poly.variable(F, "x")

    def c(e):
        return Poly.const(F, "x", F.pow(t, e))

    targets = [
        x * x - c(1),
        x * x * x - c(1),
        (x * x - c(1)) * (x - c(2)) + c(9),
        x * x * x * x + c(1) * x * x + c(3),
    ]
    with _criterion(5, "oracle equivalence"):
        chains = []
        for P in targets:
            grown, _ = explore(F, "x", P, depth=3)
            chains.extend(grown)
        rng = random.Random(7)

        def rand_poly():
            while True:
                f = Poly(F, "x", [
                    F.mul(F.from_int(rng.randrange(-1, 2)),
                          F.pow(t, rng.randrange(4)))
                    for _ in range(rng.randrange(1, 8))])
                if not f.is_zero:
                    return f

        cases = 0
        for ch in chains:
            polys = [e.poly for e in ch.entries]
            betas = [e.beta for e in ch.entries]
            for _ in range(650):
                f = rand_poly()
                for k in range(1, ch.depth() + 1):
                    assert ch.cval(f, k) == brute_flat_value(
                        polys[:k], betas[:k], F, f)
                    cases += 1
        assert cases >= 10000

        rng = random.Random(23)
        for _ in range(500):
            pts = [(j, V(Fraction(rng.randrange(-12, 13),
                                  rng.randrange(1, 4))))
                   for j in range(rng.randrange(2, 9))]
            assert lower_hull(pts) == brute_lower_hull(pts)


def test_criterion_6_char_zero_has_no_defect():
    """Fifty random monic targets of degree at most 5 over Q(y).

    Seeds whose residual coefficients leave the scalar residue field are
    skipped and replaced, as are targets with a repeated factor (the same
    branch would be grown twice and the degree count double-booked); the
    fifty that remain must classify with no limit entries, no settled
    effective degree above 1, and an exact degree identity.
    """
    F = RationalFunctions(QQ, "y")
    y = F.atom("y")
    rng = random.Random(2024)

    def rand_target():
        deg = rng.randrange(1, 6)
        coeffs = []
        for _ in range(deg):
            c = F.zero
            for _ in range(rng.randrange(0, 3)):
                c = F.add(c, F.mul(F.from_int(rng.randrange(-2, 3)),
                                   F.pow(y, rng.randrange(0, 3))))
            coeffs.append(c)
        coeffs.append(F.one)
        return Poly(F, "x", coeffs)

    import sympy

    X, Y = sympy.symbols("x y")

    def squarefree(P):
        # the draws are monic in x with coefficients in Q[y], so by Gauss's
        # lemma P is squarefree over Q(y) exactly when its gcd with dP/dx
        # over Q[x, y] has degree 0 in x
        B = sympy.Poly.from_dict(
            {(i, j): c for i, (num, _) in enumerate(P.coeffs)
             for j, c in enumerate(num)}, X, Y, domain="QQ")
        return sympy.gcd(B, B.diff(X)).degree(X) == 0

    with _criterion(6, "no defect in characteristic zero"):
        valid = skipped = 0
        while valid < 50:
            P = rand_target()
            if not squarefree(P):
                skipped += 1
                continue
            try:
                chains, leftovers = explore(F, "x", P, depth=8)
            except UnsupportedStructure:
                skipped += 1
                continue
            assert leftovers == []
            branches = [classify(ch, 3, i) for i, ch in enumerate(chains, 1)]
            for br in branches:
                assert not any(e.index.limit for e in br.chain.entries)
                assert br.status in ("terminated", "stable delta 1")
                assert br.d == 1
            ident = degree_identity(P, branches, complete=True)
            assert ident.verdict, ident.line()
            valid += 1
        assert valid == 50 and skipped < 200
