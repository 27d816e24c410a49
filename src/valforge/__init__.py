"""Exact engine for key-polynomial chains over valued fields: truncated valuations,
Newton polygons, branch enumeration, and defect accounting."""

from .values import INF, OrdinalIndex, Value, ValueGroup, group_index
from .fields import (CoordinateTower, InsufficientPrecision, LexMonomialSeries,
                     PrimeField, QQ, RationalFunctions, Refusal,
                     UnsupportedStructure)
from .polyring import Poly, standard_expansion
from .keypoly import Chain, ChainError, explore, replay
from .report import (BranchReport, DegreeIdentity, ReportError, classify,
                     completeness_sample, defect, degree_identity)
from .scenario import (Scenario, ScenarioError, format_scenario,
                       load_scenario, parse_scenario)

__all__ = [
    "INF", "OrdinalIndex", "Value", "ValueGroup", "group_index",
    "CoordinateTower", "InsufficientPrecision", "LexMonomialSeries",
    "PrimeField", "QQ", "RationalFunctions", "Refusal", "UnsupportedStructure",
    "Poly", "standard_expansion",
    "Chain", "ChainError", "explore", "replay",
    "BranchReport", "DegreeIdentity", "ReportError", "classify",
    "completeness_sample", "defect", "degree_identity",
    "Scenario", "ScenarioError", "format_scenario", "load_scenario",
    "parse_scenario",
]
