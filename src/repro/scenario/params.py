"""Typed scenario parameters: each one declared once, with its default.

A scenario's ``param_schema`` maps every parameter it reads to a
:class:`ParamSpec` that says what the parameter **is** — an int in a
range, a positive float, a list of numbers, one of a fixed set of
choices, a boolean, a string — and what it defaults to.  That entry is
the only declaration: its keys are the scenario's whole parameter
surface (a scenario without a schema takes no parameters), registration
stamps the defaults into the template spec, and every value a caller
passes is coerced to its declared type and range-checked *before* the
scenario runs.  Scenario bodies read ``ctx.params["x"]`` with no default
and no cast.

Declare a schema at registration time::

    @scenario(
        "my-sweep",
        param_schema={
            "devices": IntParam(minimum=1, maximum=10_000, default=100),
            "scale": FloatParam(minimum=0.0, exclusive_minimum=True, default=1.0),
            "rates": FloatListParam(minimum=0.0, default=[0.0, 50.0]),
            "mode": ChoiceParam(("fast", "exact"), default="fast"),
            "cap": IntParam(minimum=1),  # default None: uncapped
        },
    )
    def my_sweep(ctx):
        ...

Values arrive as strings from ``--param``/``--grid`` on the command line
and typed from Python or a campaign spec file; every front end
— ``run_scenario``, ``python -m repro run`` and the campaign runner
(base params *and* grid values) — coerces through the same
:meth:`~repro.scenario.registry.RegisteredScenario.coerce_params` path,
so a parameter's type is decided here and nowhere else.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "BoolParam",
    "ChoiceParam",
    "FloatListParam",
    "FloatParam",
    "IntParam",
    "ParamSpec",
    "ParameterValueError",
    "StrParam",
]


class ParameterValueError(ValueError):
    """A parameter value failed its schema check.

    The message names the scenario, the parameter, the offending value,
    and the declared constraint, so a ``--param`` mistake is a one-line
    fix rather than a stack trace.
    """

    def __init__(self, scenario: str, name: str, value: object, reason: str) -> None:
        super().__init__(
            f"invalid value {value!r} for parameter {name!r} of scenario "
            f"{scenario!r}: {reason}"
        )
        self.scenario = scenario
        self.param = name
        self.value = value
        self.reason = reason


_TRUE_WORDS = frozenset({"1", "true", "yes", "on"})
_FALSE_WORDS = frozenset({"0", "false", "no", "off"})


@dataclass(frozen=True)
class ParamSpec:
    """Base class: one parameter's declared type and constraints.

    Subclasses implement :meth:`_convert` (raw value -> typed value, or
    raise ``ValueError`` with a human reason) and may override
    :meth:`_check` for range/choice constraints.  :meth:`describe`
    renders the constraint for error messages and ``--list`` output.
    ``default`` is the value a run gets when the caller does not pass
    the parameter; ``None`` means absent (e.g. an uncapped population).
    """

    default: object = field(default=None, kw_only=True)

    def coerce(self, scenario: str, name: str, value: object) -> object:
        try:
            typed = self._convert(value)
        except (TypeError, ValueError) as exc:
            raise ParameterValueError(
                scenario, name, value, str(exc) or f"expected {self.describe()}"
            ) from None
        reason = self._check(typed)
        if reason is not None:
            raise ParameterValueError(scenario, name, value, reason)
        return typed

    def _convert(self, value: object) -> object:  # pragma: no cover - abstract
        raise NotImplementedError

    def _check(self, value: object) -> Optional[str]:
        return None

    def describe(self) -> str:  # pragma: no cover - abstract
        raise NotImplementedError

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe description (part of the scenario fingerprint)."""
        return {"kind": type(self).__name__, "constraint": self.describe()}


@dataclass(frozen=True)
class IntParam(ParamSpec):
    """An integer, optionally bounded (bounds inclusive)."""

    minimum: Optional[int] = None
    maximum: Optional[int] = None

    def _convert(self, value: object) -> int:
        if isinstance(value, bool):
            raise ValueError("expected an integer, got a boolean")
        if isinstance(value, int):
            return value
        if isinstance(value, float):
            if not value.is_integer():
                raise ValueError("expected an integer, got a non-integral float")
            return int(value)
        if isinstance(value, str):
            try:
                return int(value.strip())
            except ValueError:
                raise ValueError("expected an integer") from None
        raise ValueError("expected an integer")

    def _check(self, value: int) -> Optional[str]:
        if self.minimum is not None and value < self.minimum:
            return f"must be >= {self.minimum}"
        if self.maximum is not None and value > self.maximum:
            return f"must be <= {self.maximum}"
        return None

    def describe(self) -> str:
        bounds = _bounds_note(self.minimum, self.maximum, False)
        return f"an integer{bounds}"


@dataclass(frozen=True)
class FloatParam(ParamSpec):
    """A float, optionally bounded; ``exclusive_minimum`` makes the
    lower bound strict (the common "must be positive" case)."""

    minimum: Optional[float] = None
    maximum: Optional[float] = None
    exclusive_minimum: bool = False

    def _convert(self, value: object) -> float:
        if isinstance(value, bool):
            raise ValueError("expected a number, got a boolean")
        if isinstance(value, (int, float)):
            return float(value)
        if isinstance(value, str):
            try:
                return float(value.strip())
            except ValueError:
                raise ValueError("expected a number") from None
        raise ValueError("expected a number")

    def _check(self, value: float) -> Optional[str]:
        if value != value:  # NaN never satisfies a range
            return "must be a finite number"
        if self.minimum is not None:
            if self.exclusive_minimum and value <= self.minimum:
                return f"must be > {self.minimum}"
            if not self.exclusive_minimum and value < self.minimum:
                return f"must be >= {self.minimum}"
        if self.maximum is not None and value > self.maximum:
            return f"must be <= {self.maximum}"
        return None

    def describe(self) -> str:
        bounds = _bounds_note(self.minimum, self.maximum, self.exclusive_minimum)
        return f"a number{bounds}"


@dataclass(frozen=True)
class FloatListParam(FloatParam):
    """A non-empty list of numbers, each bounded like a :class:`FloatParam`.

    Strings accept a JSON list (``[0, 50]``), comma-separated numbers
    (``0,50``) or a single number (``50``), so one ``--param`` carries
    a whole sweep axis.
    """

    def _convert(self, value: object) -> List[float]:
        if isinstance(value, str):
            text = value.strip()
            value = json.loads(text) if text.startswith("[") else text.split(",")
        if not isinstance(value, (list, tuple)):
            value = [value]
        if not value:
            raise ValueError("expected at least one number")
        return [FloatParam._convert(self, item) for item in value]

    def _check(self, values: List[float]) -> Optional[str]:
        for item in values:
            reason = FloatParam._check(self, item)
            if reason is not None:
                return f"every element {reason}"
        return None

    def describe(self) -> str:
        bounds = _bounds_note(self.minimum, self.maximum, self.exclusive_minimum)
        return f"a list of numbers{bounds}"


@dataclass(frozen=True)
class BoolParam(ParamSpec):
    """A boolean; strings accept true/false, yes/no, on/off, 1/0."""

    def _convert(self, value: object) -> bool:
        if isinstance(value, bool):
            return value
        if isinstance(value, int) and value in (0, 1):
            return bool(value)
        if isinstance(value, str):
            word = value.strip().lower()
            if word in _TRUE_WORDS:
                return True
            if word in _FALSE_WORDS:
                return False
        raise ValueError("expected a boolean (true/false, yes/no, on/off, 1/0)")

    def describe(self) -> str:
        return "a boolean (true/false)"


@dataclass(frozen=True)
class ChoiceParam(ParamSpec):
    """One of a fixed set of values; string input matches ``str(choice)``
    so ``--param mode=2`` can select the integer choice ``2``."""

    choices: Tuple[object, ...] = ()

    def __init__(self, choices: Sequence[object], default: object = None) -> None:
        object.__setattr__(self, "choices", tuple(choices))
        object.__setattr__(self, "default", default)
        if not self.choices:
            raise ValueError("ChoiceParam needs at least one choice")

    def _convert(self, value: object) -> object:
        if value in self.choices:
            return self.choices[self.choices.index(value)]
        if isinstance(value, str):
            text = value.strip()
            for choice in self.choices:
                if text == str(choice):
                    return choice
        raise ValueError(f"expected {self.describe()}")

    def describe(self) -> str:
        return "one of " + ", ".join(str(c) for c in self.choices)


@dataclass(frozen=True)
class StrParam(ParamSpec):
    """Any string (declares the parameter without constraining it)."""

    def _convert(self, value: object) -> str:
        if isinstance(value, str):
            return value
        raise ValueError("expected a string")

    def describe(self) -> str:
        return "a string"


def _bounds_note(
    minimum: Optional[float], maximum: Optional[float], exclusive_minimum: bool
) -> str:
    parts = []
    if minimum is not None:
        parts.append(f"{'>' if exclusive_minimum else '>='} {minimum}")
    if maximum is not None:
        parts.append(f"<= {maximum}")
    return f" ({', '.join(parts)})" if parts else ""

