"""Smoke test of the benchmark's per-layer tracer (`perfbench/tracer.py`).

The tracer wraps valforge callables by name, so a refactor that drops or
renames one of them breaks `perfbench/run.py --trace 1`.  This test installs
it, grows every packaged scenario twice, and checks that every field
operation the tracer names is its wrapper, that the counts repeat exactly
and that uninstalling restores the original functions."""

import pytest

import valforge.keypoly as keypoly
from inputs import PACKAGED, perfbench, run_scenario
from valforge import (ChainError, InsufficientPrecision, ReportError,
                      ScenarioError, UnsupportedStructure)
from valforge.scenario import load_scenario

REFUSALS = (ScenarioError, ChainError, ReportError, UnsupportedStructure,
            InsufficientPrecision)


@pytest.mark.parametrize("name", PACKAGED)
def test_tracer_counts_repeat_and_uninstall_restores(name):
    sc = load_scenario(name)
    original = keypoly.explore
    module = perfbench("tracer")
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
            run_scenario(sc)
            counts.append((dict(tr.calls), dict(tr.events)))
    finally:
        tr.uninstall()
    assert keypoly.explore is original
    assert counts[0] == counts[1]
    assert counts[0][0]["fields.arith"] > 0
