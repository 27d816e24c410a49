"""Side residuals against their defining formulation.

`Chain.side_residual` takes the residue of each side coefficient against
the reference monomial shifted down by t weight monomials.  The reference
here is the definition: multiply the coefficient by the materialized weight
polynomial W^t, take the residue of the product against the reference
monomial, and normalize by the first residue.  Both must agree at every
stage of the chains of the packaged scenarios (all three field kinds,
scalar and extended residue rings) and of seeded targets over Q(y) and
F_p(y).
"""

import random

import pytest

from inputs import PACKAGED, run_scenario
from valforge.fields import (QQ, PrimeField, RationalFunctions,
                             UnsupportedStructure)
from valforge.graded import EtaleRing
from valforge.keypoly import ChainError, explore
from valforge.polyring import Poly, standard_expansion
from valforge.scenario import load_scenario
from valforge.values import INF


def reference_residual(ch, k):
    ent = ch.entry(k)
    if ent.beta is INF:
        raise ChainError("a terminated stage has no residual")
    minv, S = ch.argmin_data(ch.target, k)
    ms = [m for m, _ in S]
    j1, j2 = min(ms), max(ms)
    e = ent.e_step
    if any((m - j1) % e for m in ms):
        raise ChainError("side support leaves the value lattice")
    expansion = standard_expansion(ch.target, ent.poly)
    ring = ch.ring
    c1 = dict(S)[j1]
    dmono = ch.canonical_monomial(ch.cval(c1, k - 1), k - 1)
    base_inv = ring.inv(ch.nres(c1, dmono.v0, dmono.exps, k - 1))
    wpoly = ch.weight(k).materialize(ch)
    rho = []
    acc = Poly.const(ch.field, ch.var, ch.field.one)
    for t in range((j2 - j1) // e + 1):
        c = expansion[j1 + t * e]
        if c.is_zero:
            rho.append(ring.zero)
        else:
            rho.append(ring.mul(
                ch.nres(c * acc, dmono.v0, dmono.exps, k - 1), base_inv))
        acc = acc * wpoly
    return e, j1, j2, rho, minv


def outcome(fn, ch, k):
    try:
        return fn(ch, k)
    except (ChainError, UnsupportedStructure) as exc:
        return type(exc)


def compare_all_stages(chains):
    """Compare at every stage; returns the number of residuals compared."""
    compared = 0
    for ch in chains:
        for k in range(1, ch.depth() + 1):
            want = outcome(reference_residual, ch, k)
            got = outcome(lambda c, s: c.side_residual(s), ch, k)
            if isinstance(want, type):
                assert got is want, (k, got)
                continue
            assert got[0::2] == want[0::2] and got[1] == want[1], k
            assert len(got[3]) == len(want[3])
            assert all(ch.ring.eq(a, b) for a, b in zip(got[3], want[3])), k
            compared += 1
    return compared


@pytest.mark.parametrize("name", PACKAGED)
def test_side_residual_matches_weight_products_on_scenarios(name):
    chains, _ = run_scenario(load_scenario(name))
    assert compare_all_stages(chains) >= len(chains)


def test_side_residual_reaches_an_extended_residue_ring():
    chains, _ = run_scenario(load_scenario("cubic_char3"))
    assert any(isinstance(ch.ring, EtaleRing) and ch.ring.modulus == (2, 0, 1)
               for ch in chains)


@pytest.mark.parametrize("p", [0, 2, 3, 5])
def test_side_residual_matches_weight_products_on_seeded_targets(p):
    F = RationalFunctions(QQ if p == 0 else PrimeField(p), "y")
    y = F.atom("y")
    rng = random.Random(100 + p)
    compared = grown = 0
    while grown < 4:
        coeffs = []
        for _ in range(rng.randrange(2, 6)):
            c = F.zero
            for _ in range(rng.randrange(0, 3)):
                c = F.add(c, F.mul(F.from_int(rng.randrange(-2, 3)),
                                   F.pow(y, rng.randrange(0, 3))))
            coeffs.append(c)
        target = Poly(F, "x", coeffs + [F.one])
        try:
            chains, _ = explore(F, "x", target, depth=4)
        except UnsupportedStructure:
            continue
        grown += 1
        compared += compare_all_stages(chains)
    assert compared > 0
