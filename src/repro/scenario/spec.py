"""Declarative description of one simulation run.

A :class:`ScenarioSpec` is the single source of truth for *how a
simulation is wired*: the seed every random stream descends from, the
band, which observability surfaces are on (frame trace, CSI tagging,
metrics, span tracing), the channel realism knobs (path loss / FER
models), optional declarative device placements, and the scenario's
parameter dict.  It deliberately contains only JSON-serializable fields
so a spec can ride inside a campaign manifest and be rebuilt from it —
``ScenarioSpec.from_dict(spec.to_dict())`` round-trips exactly.

The spec says *what* to build; :class:`~repro.scenario.context.SimContext`
is the one place that builds it.  Everything that used to be copy-pasted
Engine/Medium/RNG wiring across the CLI demos, examples, benchmarks, and
campaign scenarios is now a handful of spec fields.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Dict, List, Optional

__all__ = ["PlacementSpec", "ScenarioSpec", "BAND_FREQUENCIES_HZ"]

#: Carrier frequency the medium uses for each supported band label.
#: (2.437 GHz = 2.4 GHz channel 6; 5.18 GHz = 5 GHz channel 36.)
BAND_FREQUENCIES_HZ: Dict[str, float] = {
    "2.4GHz": 2.437e9,
    "5GHz": 5.18e9,
}


@dataclass
class PlacementSpec:
    """One device to materialize into the simulation.

    ``kind`` selects the device class (see
    :meth:`~repro.scenario.context.SimContext.place_devices` for the
    supported kinds); ``role`` is the key the materialized device is
    returned under, so scenario code reads ``devices["victim"]`` instead
    of tracking construction order.  ``options`` is passed through to the
    device constructor (``ssid``, ``passphrase``, ``vendor``,
    ``channel``, and — for access points — a nested ``behavior`` dict
    built into an :class:`~repro.devices.access_point.ApBehavior`).
    """

    kind: str
    mac: str
    role: str
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0
    options: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "PlacementSpec":
        return cls(**data)  # type: ignore[arg-type]


@dataclass
class ScenarioSpec:
    """Everything needed to wire one deterministic simulation.

    Determinism contract: **all randomness descends from** ``seed``.
    The context's root RNG is ``np.random.default_rng(seed)``; the
    medium's RNG (when ``seed_medium`` is on) is an independent
    ``default_rng(seed)`` stream; a shadowing model draws from
    ``default_rng(path_loss["seed"])``.  Nothing reads global NumPy
    state, so two contexts built from equal specs produce byte-identical
    traces.
    """

    #: Root seed; every random stream in the run derives from it.
    seed: int = 0
    #: Band label (key of :data:`BAND_FREQUENCIES_HZ`).
    band: str = "2.4GHz"
    #: How long ``run()`` drives the engine (``None`` = scenario decides).
    duration_s: Optional[float] = None
    #: Capture every frame into a :class:`~repro.sim.trace.FrameTrace`.
    trace: bool = False
    #: Bound the trace buffer (``None`` = unbounded).
    trace_capacity: Optional[int] = None
    #: Attach a :class:`~repro.channel.csi.CsiChannelModel` so receptions
    #: carry per-subcarrier channel estimates.
    csi: bool = False
    #: CSI measurement-noise config for the CSI model, e.g.
    #: ``{"snr_db": 35.0, "seed": 5007}`` (implies ``csi``); ``None``
    #: keeps noiseless estimates.
    csi_noise: Optional[Dict[str, object]] = None
    #: Create a MetricsRegistry and thread it through the engine/medium.
    metrics: bool = True
    #: Enable the SpanTracer (and, with ``metrics``, export span totals
    #: into the metrics snapshot as ``span.*`` wall-time counters).
    spans: bool = False
    #: Give the medium ``default_rng(seed)`` (FER sampling etc.).  Off by
    #: default: the simple demos historically ran an unseeded medium.
    seed_medium: bool = False
    #: Explicit medium RNG seed, independent of ``seed`` (overrides
    #: ``seed_medium``; the Table 2 benchmark pins this to 98).
    medium_seed: Optional[int] = None
    #: Path-loss model config, e.g. ``{"kind": "shadowed", "exponent":
    #: 2.8, "walls": 1, "sigma_db": 4.0, "seed": 99}``.  ``None`` keeps
    #: the medium's free-space default.
    path_loss: Optional[Dict[str, object]] = None
    #: Frame-error model name (``"snr"``) or ``None`` for lossless.
    fer: Optional[str] = None
    #: Declarative device placements, materialized by
    #: :meth:`SimContext.place_devices`.
    placements: List[PlacementSpec] = field(default_factory=list)
    #: Scenario parameters (the campaign ``--param`` surface).
    params: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.band not in BAND_FREQUENCIES_HZ:
            known = ", ".join(sorted(BAND_FREQUENCIES_HZ))
            raise ValueError(f"unknown band {self.band!r}; known bands: {known}")
        self.placements = [
            p if isinstance(p, PlacementSpec) else PlacementSpec.from_dict(p)
            for p in self.placements
        ]

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    @property
    def frequency_hz(self) -> float:
        return BAND_FREQUENCIES_HZ[self.band]

    def derive(self, **overrides: object) -> "ScenarioSpec":
        """A copy with ``overrides`` applied (the campaign runner uses
        this to stamp each run's seed and parameters onto the scenario's
        template spec).  ``params`` overrides *merge over* the template's
        params instead of replacing them."""
        if "params" in overrides:
            merged = dict(self.params)
            merged.update(overrides["params"])  # type: ignore[arg-type]
            overrides = {**overrides, "params": merged}
        return replace(self, **overrides)  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    # JSON round-tripping (manifests)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        data = asdict(self)
        data["placements"] = [p.to_dict() for p in self.placements]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ScenarioSpec":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown ScenarioSpec field(s): {', '.join(sorted(unknown))}"
            )
        return cls(**data)  # type: ignore[arg-type]

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))
