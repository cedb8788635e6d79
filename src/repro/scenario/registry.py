"""Named scenario registry and the one-call runner.

A *scenario* is a callable ``fn(ctx) -> outputs``, a template
:class:`~repro.scenario.spec.ScenarioSpec`, and a ``param_schema``
declaring every parameter it reads (:mod:`repro.scenario.params`).
Registering it gives every front end the same handle on it:

* ``python -m repro run <name> --param k=v`` runs it narrated, and
  ``python -m repro run --list`` prints each parameter with its
  constraint and default;
* ``python -m repro campaign --scenario <name>`` fans it across seeds;
* tests and benchmarks call :func:`run_scenario` directly.

Register with the decorator::

    @scenario("my-sweep", spec=ScenarioSpec(seed=7, trace=True),
              param_schema={"rate": FloatParam(minimum=0.0, default=50.0)},
              description="one-line summary")
    def my_sweep(ctx):
        devices = ctx.place_devices()
        rate = ctx.params["rate"]  # a float, range-checked, defaulted
        ctx.say("narration, silenced inside campaign workers")
        return {"some_count": 42}

Registration stamps the schema's defaults into the template spec's
``params``, so every run's spec carries the full parameter set and
:meth:`RegisteredScenario.fingerprint` covers the defaults.  Outputs must
be a flat dict of JSON-serializable values (campaigns sum the numeric
ones into their aggregate).
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.scenario.context import SimContext
from repro.scenario.params import ParamSpec
from repro.scenario.spec import ScenarioSpec

__all__ = [
    "DuplicateScenarioError",
    "RegisteredScenario",
    "ScenarioRegistry",
    "ScenarioResult",
    "UnknownParameterError",
    "UnknownScenarioError",
    "REGISTRY",
    "SCENARIO_MODULES_ENV",
    "scenario",
    "available_scenarios",
    "run_scenario",
]

#: Comma-separated module paths imported (for their registration side
#: effects) alongside the built-ins.  This is how out-of-tree scenarios
#: reach subprocesses that only know a scenario *name* — a
#: ``python -m repro campaign`` process, and the perf benchmarks'
#: throwaway scenarios.
SCENARIO_MODULES_ENV = "REPRO_SCENARIO_MODULES"

#: ``fn(ctx) -> outputs``; flat JSON-serializable outputs dict.
ScenarioFn = Callable[[SimContext], Dict[str, object]]


class DuplicateScenarioError(ValueError):
    """A scenario name was registered twice."""


class UnknownScenarioError(KeyError):
    """Lookup of a name nobody registered (message lists known names)."""

    def __init__(self, name: str, known: List[str]) -> None:
        listing = ", ".join(known) or "(none)"
        super().__init__(f"unknown scenario {name!r}; registered: {listing}")
        self.name = name
        self.known = known


class UnknownParameterError(ValueError):
    """A run passed a parameter the scenario does not declare.

    Raised before the scenario executes, so ``--param`` typos fail fast
    instead of silently running the scenario at its defaults.  The
    message lists the scenario's valid keys.
    """

    def __init__(self, scenario: str, unknown: List[str], valid: List[str]) -> None:
        listing = ", ".join(sorted(valid)) or "(this scenario takes no parameters)"
        super().__init__(
            f"unknown parameter(s) {', '.join(sorted(unknown))} for scenario "
            f"{scenario!r}; valid: {listing}"
        )
        self.scenario = scenario
        self.unknown = sorted(unknown)
        self.valid = sorted(valid)


@dataclass(frozen=True)
class RegisteredScenario:
    """One registry entry: the callable, its template spec, and its
    parameter schema (empty: the scenario takes no parameters)."""

    name: str
    fn: ScenarioFn
    spec: ScenarioSpec
    description: str = ""
    #: Every parameter the scenario reads (name ->
    #: :class:`~repro.scenario.params.ParamSpec`); values are coerced and
    #: range-checked through :meth:`coerce_params` before a run.
    param_schema: Dict[str, ParamSpec] = field(default_factory=dict)

    def validate_params(self, params: Optional[Dict[str, object]]) -> None:
        """Raise :class:`UnknownParameterError` on undeclared keys."""
        unknown = [key for key in params or () if key not in self.param_schema]
        if unknown:
            raise UnknownParameterError(self.name, unknown, list(self.param_schema))

    def coerce_params(
        self, params: Optional[Dict[str, object]]
    ) -> Dict[str, object]:
        """Validate names, then coerce values through the schema.

        Returns the coerced copy (``--param`` strings become their
        declared types); raises :class:`UnknownParameterError` on an
        undeclared key or
        :class:`~repro.scenario.params.ParameterValueError` on a value
        that fails its type/range/choice check.  Defaults are not added:
        the template spec already carries them.
        """
        self.validate_params(params)
        return {
            key: self.param_schema[key].coerce(self.name, key, value)
            for key, value in (params or {}).items()
        }

    def coerce_grid(
        self, grid: Optional[Dict[str, Sequence[object]]]
    ) -> Optional[Dict[str, List[object]]]:
        """:meth:`coerce_params` for every value of a campaign grid."""
        if not grid:
            return None
        self.validate_params(grid)
        return {
            key: [self.param_schema[key].coerce(self.name, key, v) for v in values]
            for key, values in grid.items()
        }

    def build_spec(
        self,
        seed: Optional[int] = None,
        params: Optional[Dict[str, object]] = None,
        **overrides: object,
    ) -> ScenarioSpec:
        """The concrete spec one run executes: the template with the run's
        seed, (coerced) parameters and spec overrides stamped on.  The
        campaign runner embeds it in every run record so a manifest is
        auditable without the registry."""
        if seed is not None:
            overrides["seed"] = int(seed)
        return self.spec.derive(params=dict(params or {}), **overrides)

    def fingerprint(self) -> str:
        """Stable identity of *what this scenario is*: a SHA-256 over the
        name, the template spec (defaults included), and the schema.

        Campaign manifests record this so ``campaign compare`` flags two
        manifests produced by different scenario definitions (same name,
        different template) — the silent way two sweeps stop being
        comparable.
        """
        payload = {
            "name": self.name,
            "spec": self.spec.to_dict(),
            "param_schema": {
                key: spec.to_dict() for key, spec in self.param_schema.items()
            },
        }
        canonical = json.dumps(payload, sort_keys=True, default=str)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class ScenarioResult:
    """What one scenario run produced."""

    name: str
    outputs: Dict[str, object]
    ctx: SimContext = field(repr=False)

    @property
    def spec(self) -> ScenarioSpec:
        return self.ctx.spec


class ScenarioRegistry:
    """Decorator-based name → scenario mapping."""

    def __init__(self) -> None:
        self._scenarios: Dict[str, RegisteredScenario] = {}
        self._builtins_loaded = False

    # ------------------------------------------------------------------
    # Registration / lookup
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        spec: Optional[ScenarioSpec] = None,
        description: str = "",
        param_schema: Optional[Dict[str, ParamSpec]] = None,
    ) -> Callable[[ScenarioFn], ScenarioFn]:
        """Register ``fn(ctx) -> outputs`` under ``name`` (decorator).

        ``param_schema`` declares every key the scenario reads from
        ``ctx.params``, with its type, bounds and default
        (:mod:`repro.scenario.params`); runs passing any other key fail
        fast with :class:`UnknownParameterError`.  The defaults are
        coerced through their own specs (a bad default is a registration
        error) and stamped into the template spec's ``params``, which
        must therefore be empty.
        """
        schema = dict(param_schema or {})
        template = spec if spec is not None else ScenarioSpec()
        if template.params:
            raise ValueError(
                f"scenario {name!r}: declare parameter defaults in "
                f"param_schema, not in the template spec's params"
            )
        defaults = {
            key: None if p.default is None else p.coerce(name, key, p.default)
            for key, p in schema.items()
        }

        def decorator(fn: ScenarioFn) -> ScenarioFn:
            if name in self._scenarios:
                raise DuplicateScenarioError(
                    f"scenario {name!r} already registered"
                )
            summary = description
            if not summary and fn.__doc__:
                summary = fn.__doc__.strip().splitlines()[0]
            self._scenarios[name] = RegisteredScenario(
                name=name,
                fn=fn,
                spec=template.derive(params=defaults),
                description=summary,
                param_schema=schema,
            )
            return fn

        return decorator

    def _ensure_builtins(self) -> None:
        if self._builtins_loaded:
            return
        self._builtins_loaded = True
        # Imported for registration side effects.
        import repro.scenario.library  # noqa: F401

        # Out-of-tree scenario modules (comma-separated module paths).
        # This is how a campaign subprocess — which receives only a
        # scenario *name* in its spec or on its command line — learns about
        # scenarios registered outside repro.scenario.library.
        extra = os.environ.get(SCENARIO_MODULES_ENV, "")
        for module_name in (m.strip() for m in extra.split(",")):
            if not module_name:
                continue
            try:
                importlib.import_module(module_name)
            except ImportError as exc:
                raise ImportError(
                    f"cannot import scenario module {module_name!r} from "
                    f"{SCENARIO_MODULES_ENV}: {exc}"
                ) from exc

    def get(self, name: str) -> RegisteredScenario:
        self._ensure_builtins()
        try:
            return self._scenarios[name]
        except KeyError:
            raise UnknownScenarioError(name, self.names()) from None

    def __contains__(self, name: str) -> bool:
        self._ensure_builtins()
        return name in self._scenarios

    def names(self) -> List[str]:
        self._ensure_builtins()
        return sorted(self._scenarios)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        name: str,
        seed: Optional[int] = None,
        params: Optional[Dict[str, object]] = None,
        metrics=None,
        quiet: bool = False,
        **spec_overrides: object,
    ) -> ScenarioResult:
        """Build the context and run the named scenario once."""
        entry = self.get(name)
        params = entry.coerce_params(params)
        spec = entry.build_spec(seed=seed, params=params, **spec_overrides)
        ctx = SimContext(spec, metrics=metrics, quiet=quiet)
        outputs = entry.fn(ctx)
        return ScenarioResult(name=name, outputs=dict(outputs or {}), ctx=ctx)


#: The process-wide registry every front end shares.
REGISTRY = ScenarioRegistry()


def scenario(
    name: str,
    spec: Optional[ScenarioSpec] = None,
    description: str = "",
    param_schema: Optional[Dict[str, ParamSpec]] = None,
) -> Callable[[ScenarioFn], ScenarioFn]:
    """Register a scenario in the shared :data:`REGISTRY` (decorator)."""
    return REGISTRY.register(
        name, spec=spec, description=description, param_schema=param_schema
    )


def available_scenarios() -> List[str]:
    """Sorted names of every registered scenario."""
    return REGISTRY.names()


def run_scenario(
    name: str,
    seed: Optional[int] = None,
    params: Optional[Dict[str, object]] = None,
    metrics=None,
    quiet: bool = False,
    **spec_overrides: object,
) -> ScenarioResult:
    """Run a registered scenario once via the shared registry."""
    return REGISTRY.run(
        name, seed=seed, params=params, metrics=metrics, quiet=quiet,
        **spec_overrides,
    )
