"""The inputs the tests share, in one place.

Every packaged scenario (`PACKAGED`, found in the package), grown by the
command line's own grow step (`run_scenario` is `valforge.cli.grow`, to
the depth the scenario was loaded with); the benchmark's pinned corpus,
read from `perfbench/` (only read); the hand-built targets of the running
examples; and the fields, elements and polynomials that property tests
draw from.  Test modules take these from here and import no other test
module.
"""

import functools
import importlib.util
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

from hypothesis import settings
from hypothesis import strategies as st

import valforge.keypoly as keypoly
from valforge.cli import grow as run_scenario
from valforge.fields import (QQ, CoordinateTower, LexMonomialSeries,
                             PrimeField, RationalFunctions, _IntegersMod)
from valforge.graded import EtaleRing
from valforge.polyring import Poly
from valforge.scenario import load_scenario
from valforge.values import OrdinalIndex, Value


def V(*coords):
    return Value([Fraction(c) for c in coords])


# ---------------------------------------------------------------------------
# the packaged scenarios

SCENARIOS = resources.files("valforge") / "scenarios"
PACKAGED = tuple(sorted(p.name.removesuffix(".scn")
                        for p in SCENARIOS.iterdir() if p.name.endswith(".scn")))


def packaged_text(name):
    return (SCENARIOS / (name + ".scn")).read_text(encoding="ascii")


# ---------------------------------------------------------------------------
# the benchmark's pinned corpus

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@functools.cache
def perfbench(name):
    """The benchmark's module perfbench/<name>.py, loaded from its file.  It
    is registered under its bare name, by which the benchmark's modules
    import each other (`workloads` imports `corpus`, so load that first)."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / (name + ".py"))
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CORPUS = perfbench("corpus")
CORPUS_SEED = perfbench("workloads").CORPUS_SEED
CORPUS_SIZE = perfbench("workloads").CORPUS_SIZE


def corpus_targets():
    """The corpus targets of the benchmark, in its order: target i is the
    input `t%03d` % i."""
    return CORPUS.draw_targets(CORPUS_SEED, CORPUS_SIZE)


def growth_inputs(count=CORPUS_SIZE):
    """(name, grow) for the first `count` corpus targets and every packaged
    scenario, where grow() returns what `explore` returns for the input."""
    out = []
    for t in corpus_targets()[:count]:
        target = CORPUS.build_poly(t)
        out.append(("t%03d" % t.index, functools.partial(
            keypoly.explore, target.field, "x", target, CORPUS.DEPTH)))
    for name in PACKAGED:
        out.append((name, functools.partial(run_scenario,
                                            load_scenario(name))))
    return out


# ---------------------------------------------------------------------------
# the running example: P = Q^2 + (y^2 x + y^5) Q + y^8 over Q(y), Q = x^2 - y^3


def quartic_setup():
    F = RationalFunctions(QQ, "y")
    x = Poly.variable(F, "x")
    y = lambda n: Poly.const(F, "x", F.canonical_element(V(n)))
    Q = x * x - y(3)
    P = Q * Q + (x.scale(F.canonical_element(V(2))) + y(5)) * Q + y(8)
    return F, x, Q, P


# ---------------------------------------------------------------------------
# char 3, rank 2: P = w^3 - z^6 w + y^3 z^9 over GF(3)((z,y)) lex


def cubic_setup(precision={"y": 40}):
    F = LexMonomialSeries(PrimeField(3), ("z", "y"), precision=precision)
    w = Poly.variable(F, "w")
    z = F.atom("z")
    y = F.atom("y")
    c = lambda e: Poly.const(F, "w", e)
    P = w.pow(3) - c(F.pow(z, 6)) * w + c(F.mul(F.pow(y, 3), F.pow(z, 9)))
    return F, w, z, y, P


# ---------------------------------------------------------------------------
# the quintic over the coordinate tower: two limit stages, trivial e and f


def tower_setup(max_depth=26):
    F = CoordinateTower(2, 1, max_depth=max_depth)
    u, v = F.atom("u"), F.atom("v")
    one = F.one
    v2u = F.add(F.mul(v, v), u)
    P = Poly(F, "y", [v2u, F.mul(v, v), F.zero, F.zero, one, one])
    qw = Poly(F, "y", [v, F.zero, one])
    qw2 = Poly(F, "y", [v2u, F.zero, F.zero, F.zero, one])
    return F, P, qw, qw2


def tower_script(F, qw, qw2, depth=12):
    """Scripted chain for the quintic.  Inside a block consecutive keys
    differ by the digit monomial of the stage value, so the correction
    tails are cumulative products of every other tower atom."""
    u, v = F.atom("u"), F.atom("v")
    y = Poly.variable(F, "y")
    c = lambda e: Poly.const(F, "y", e)
    one = F.one
    script = []
    tail, prod = F.zero, one
    for l in range(1, depth + 1):
        script.append((OrdinalIndex(0, l), y + c(tail),
                       V(Fraction(4 ** l - 1, 3 * 4 ** l))))
        prod = F.mul(prod, F.atom("v%d" % (2 * l)))
        tail = F.add(tail, prod)
    script.append((OrdinalIndex(1, 0), qw, V(Fraction(3, 8))))
    script.append((OrdinalIndex(1, 1), qw, V(Fraction(1, 2))))
    tail, prod = F.zero, one
    for k in range(2, depth + 1):
        beta = (1 + sum(Fraction(2, 2 ** (2 * j + 1)) for j in range(1, k - 1))
                + Fraction(1, 2 ** (2 * k - 2))) / 2
        script.append((OrdinalIndex(1, k),
                       Poly(F, "y", [F.mul(v, tail), F.zero, one]), V(beta)))
        prod = F.mul(prod, F.atom("v%d" % (2 * k - 1)))
        tail = F.add(tail, prod)
    script.append((OrdinalIndex(2, 0), qw2, V(Fraction(3, 4))))
    tail, prod = F.zero, one
    for n in range(1, depth + 1):
        q = Poly(F, "y", [F.add(u, F.mul(F.mul(v, v), F.add(one, tail))),
                          F.zero, F.zero, F.zero, one])
        script.append((OrdinalIndex(2, n), q,
                       V(1 + Fraction(4 ** n - 1, 3 * 4 ** n))))
        prod = F.mul(prod, F.atom("v%d" % (2 * n)))
        tail = F.add(tail, prod)
    return script


_TOWER = {}


def tower_chain():
    if not _TOWER:
        F, P, qw, qw2 = tower_setup()
        script = tower_script(F, qw, qw2)
        _TOWER["data"] = (F, P, qw, qw2, script,
                          keypoly.replay(F, "y", P, script))
    return _TOWER["data"]


# ---------------------------------------------------------------------------
# seeded random targets over k(y)

FIELDS = {"Q(y)": QQ, "F_2(y)": PrimeField(2), "F_3(y)": PrimeField(3),
          "F_5(y)": PrimeField(5)}


def rand_poly(F, rng, degree, monic, atoms=("y",), var="x"):
    """A random polynomial in var whose coefficients are small sums of
    monomials in the named atoms of F."""
    atoms = [F.atom(name) for name in atoms]
    coeffs = []
    for _ in range(degree):
        c = F.zero
        for _ in range(rng.randrange(0, 3)):
            term = F.from_int(rng.randrange(-2, 3))
            for a in atoms:
                term = F.mul(term, F.pow(a, rng.randrange(0, 4)))
            c = F.add(c, term)
        coeffs.append(c)
    coeffs.append(F.one if monic else F.from_int(rng.randrange(1, 4)))
    return Poly(F, var, coeffs)


# ---------------------------------------------------------------------------
# drawn elements over every kind of domain the dense core runs on

SETTINGS = settings(derandomize=True, max_examples=40, deadline=None)


def _rational_functions(scalars):
    F = RationalFunctions(scalars, "t")
    t = F.atom("t")
    one_plus_t = F.add(F.one, t)
    return F, F.from_int, (F.one, t, one_plus_t), (F.one, t, one_plus_t)


def _lex_series():
    F = LexMonomialSeries(PrimeField(5), ("z", "y"))
    z, y = F.atom("z"), F.atom("y")
    return F, F.from_int, (F.one, z, y, F.mul(z, y)), (F.one, z, y)


def _tower():
    F = CoordinateTower(2, 1, 6)
    u, v, v2 = F.atom("u"), F.atom("v"), F.atom("v2")
    return F, F.from_int, (F.one, u, v, v2), (F.one, v, F.add(F.one, v2))


def _prime_field():
    F = PrimeField(7)
    return F, F.from_int, (1, 3, 5), (1, 2, 6)


def _integers_mod_prime_power():
    # Z/5^3Z has no inverse: numerators only, and monic divisors
    R = _IntegersMod(5 ** 3)
    return R, R.from_int, (1, 5, 7, 25), ()


def _residue_field():
    # F_3[T]/(T^2 + 1) is F_9: -1 is not a square mod 3
    F3 = PrimeField(3)
    R = EtaleRing(F3, (1, 0, 1))
    one_plus_t = R.add(R.one, R.gen)
    return (R, lambda n: R.embed(F3.from_int(n)), (R.one, R.gen, one_plus_t),
            (R.one, R.gen, one_plus_t))


# domain, integer embedding, building blocks of numerators, allowed
# denominators (none where the domain cannot invert)
DOMAINS = {
    "Q(t)": _rational_functions(QQ),
    "F_3(t)": _rational_functions(PrimeField(3)),
    "lex series": _lex_series(),
    "tower": _tower(),
    "F_7": _prime_field(),
    "Z/125Z": _integers_mod_prime_power(),
    "F_3[T]/(T^2 + 1)": _residue_field(),
}

# one coefficient: sum of c * block_i * block_j, over one denominator
TERMS = st.tuples(
    st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 3),
                       st.integers(0, 3)), max_size=3),
    st.integers(0, 2))


def element(F, from_int, blocks, dens, spec):
    terms, den = spec
    out = F.zero
    for c, i, j in terms:
        mono = F.mul(blocks[i % len(blocks)], blocks[j % len(blocks)])
        out = F.add(out, F.mul(from_int(c), mono))
    return F.div(out, dens[den % len(dens)]) if dens else out
