"""Declarative scenario layer (see ``docs/scenarios.md``).

One spec, one context, one registry:

* :class:`ScenarioSpec` — a JSON-round-trippable description of a run
  (seed, band, trace/CSI/metrics/span options, channel models, device
  placements, parameters);
* :class:`SimContext` — the single canonical Engine + Medium + RNG +
  trace + metrics wiring, built lazily from a spec;
* :data:`REGISTRY` / :func:`scenario` — named scenarios every front end
  shares: ``python -m repro run <name>``, ``python -m repro campaign
  --scenario <name>``, examples, and benchmarks.
"""

from repro.scenario.context import SimContext
from repro.scenario.params import (
    BoolParam,
    ChoiceParam,
    FloatListParam,
    FloatParam,
    IntParam,
    ParamSpec,
    ParameterValueError,
    StrParam,
)
from repro.scenario.registry import (
    REGISTRY,
    SCENARIO_MODULES_ENV,
    DuplicateScenarioError,
    RegisteredScenario,
    ScenarioRegistry,
    ScenarioResult,
    UnknownParameterError,
    UnknownScenarioError,
    available_scenarios,
    run_scenario,
    scenario,
)
from repro.scenario.spec import BAND_FREQUENCIES_HZ, PlacementSpec, ScenarioSpec

__all__ = [
    "BAND_FREQUENCIES_HZ",
    "BoolParam",
    "ChoiceParam",
    "DuplicateScenarioError",
    "FloatListParam",
    "FloatParam",
    "IntParam",
    "ParamSpec",
    "ParameterValueError",
    "PlacementSpec",
    "REGISTRY",
    "RegisteredScenario",
    "SCENARIO_MODULES_ENV",
    "ScenarioRegistry",
    "ScenarioResult",
    "ScenarioSpec",
    "SimContext",
    "StrParam",
    "UnknownParameterError",
    "UnknownScenarioError",
    "available_scenarios",
    "run_scenario",
    "scenario",
]
