"""Smoke test of the benchmark's per-layer tracer (`perfbench/tracer.py`).

The tracer wraps valforge callables by name, so a refactor that drops or
renames one of them breaks `perfbench/run.py --trace 1`.  This test installs
it, grows the two wild scenarios and the Q(y) quartic twice each, and checks
that every field operation the tracer names is its wrapper, that the counts
repeat exactly and that uninstalling restores the original functions."""

import importlib.util
import os

import pytest

import valforge.keypoly as keypoly
from valforge import (ChainError, InsufficientPrecision, ReportError,
                      ScenarioError, UnsupportedStructure)
from valforge.scenario import load_scenario

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")
REFUSALS = (ScenarioError, ChainError, ReportError, UnsupportedStructure,
            InsufficientPrecision)


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["cubic_char3", "quartic", "quintic_tower"])
def test_tracer_counts_repeat_and_uninstall_restores(name):
    sc = load_scenario(name)
    kw = {"lump_sides": sc.lump_sides, "scripted": sc.scripted_map(),
          "scripted_only": sc.branches_mode == "scripted"}
    original = keypoly.explore
    module = _tracer_module()
    tr = module.Tracer()
    counts = []
    tr.install(REFUSALS)
    try:
        # an operation the tracer cannot see (say, one an instance or a
        # subclass shadows) would leave fields.arith undercounted
        for op in module.FIELD_ARITH:
            if hasattr(sc.field, op):
                assert getattr(sc.field, op).__func__.__qualname__ == \
                    "Tracer._span.<locals>.wrapper", op
        for _ in range(2):
            tr.reset()
            tr.begin_run()
            keypoly.explore(sc.field, sc.var, sc.target, sc.depth, **kw)
            counts.append((dict(tr.calls), dict(tr.events)))
    finally:
        tr.uninstall()
    assert keypoly.explore is original
    assert counts[0] == counts[1]
    assert counts[0][0]["fields.arith"] > 0
