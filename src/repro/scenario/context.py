"""The one canonical Engine/Medium/RNG/trace/metrics wiring.

Before this module existed, every entry point — CLI demos, examples,
benchmarks, campaign scenarios — hand-rolled the same six lines of
setup and quietly re-derived the seeding contract each time.
:class:`SimContext` owns that wiring now: build a
:class:`~repro.scenario.spec.ScenarioSpec`, hand it to a context, and
read ``ctx.engine`` / ``ctx.medium`` / ``ctx.rng`` / ``ctx.trace`` /
``ctx.metrics`` / ``ctx.tracer``.

Everything is built **lazily** on first access, in a fixed order, so a
context is free until used and — crucially — constructs exactly the
objects the pre-refactor call sites constructed, in the same order,
with the same arguments.  The seeded traces of the Figure 2 probe and
the Table 2 wardrive are byte-identical across the refactor, and the
determinism tests pin that.

Randomness: the root RNG is ``np.random.default_rng(spec.seed)``; the
medium and shadowing models get their own independent ``default_rng``
streams per the spec.  Nothing touches NumPy's global state.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, Dict, Optional

import numpy as np

from repro.scenario.spec import PlacementSpec, ScenarioSpec

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.sim.engine import Engine
    from repro.sim.medium import Medium
    from repro.sim.trace import FrameTrace
    from repro.telemetry.registry import MetricsRegistry
    from repro.telemetry.spans import SpanTracer

__all__ = ["SimContext"]

_UNSET = object()


def _build_path_loss(config: Dict[str, object]):
    """Materialize a path-loss model from its spec dict.

    A key the kind does not read is an error, not a silent default.
    """
    kind = str(config.get("kind", "free_space"))
    accepted = {
        "free_space": ("kind",),
        "log_distance": ("kind", "exponent", "walls"),
        "shadowed": ("kind", "exponent", "walls", "sigma_db", "seed"),
    }.get(kind)
    if accepted is None:
        raise ValueError(f"unknown path_loss kind {kind!r}")
    unknown = sorted(set(config) - set(accepted))
    if unknown:
        raise ValueError(
            f"unknown path_loss key(s) {', '.join(map(repr, unknown))} for "
            f"kind {kind!r}; it accepts: {', '.join(accepted)}"
        )
    if kind == "free_space":
        return None
    from repro.phy.signal import LogDistancePathLoss

    base = LogDistancePathLoss(
        exponent=float(config.get("exponent", 3.0)),
        walls=int(config.get("walls", 0)),
    )
    if kind == "log_distance":
        return base
    from repro.channel.propagation import ShadowedPathLoss

    return ShadowedPathLoss(
        base=base,
        shadowing_sigma_db=float(config.get("sigma_db", 6.0)),
        rng=np.random.default_rng(int(config.get("seed", 0))),
    )


def _build_fer(name: str):
    if name == "snr":
        from repro.phy.signal import SnrFerModel

        return SnrFerModel()
    raise ValueError(f"unknown fer model {name!r}")


class SimContext:
    """Lazily-built simulation wiring for one :class:`ScenarioSpec`.

    Parameters
    ----------
    spec:
        The declarative description of the run.
    metrics:
        An externally-owned registry (the campaign runner passes each
        run's private registry).  When given it is used regardless of
        ``spec.metrics``; when ``None`` a registry is created iff
        ``spec.metrics`` is on.
    quiet:
        Silence :meth:`say` — campaign workers run scenarios quietly,
        the CLI/demos run them narrated.
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        metrics: Optional["MetricsRegistry"] = None,
        quiet: bool = False,
    ) -> None:
        self.spec = spec
        self.params: Dict[str, object] = dict(spec.params)
        self.quiet = quiet
        self._metrics = metrics if metrics is not None else _UNSET
        self._engine = _UNSET
        self._medium = _UNSET
        self._trace = _UNSET
        self._csi_model = _UNSET
        self._rng = _UNSET
        self._tracer = _UNSET

    # ------------------------------------------------------------------
    # Narration
    # ------------------------------------------------------------------
    @property
    def verbose(self) -> bool:
        """True when narration should be produced (guard expensive
        rendering like ``trace.to_table()`` behind this)."""
        return not self.quiet

    def say(self, text: str = "") -> None:
        """Print narration unless the context is quiet."""
        if not self.quiet:
            print(text)

    # ------------------------------------------------------------------
    # Randomness
    # ------------------------------------------------------------------
    @property
    def rng(self) -> np.random.Generator:
        """Root RNG: ``default_rng(spec.seed)``, created once."""
        if self._rng is _UNSET:
            self._rng = np.random.default_rng(self.spec.seed)
        return self._rng

    def derive_rng(self, label: str) -> np.random.Generator:
        """An independent, reproducible stream keyed on ``label``.

        Both the spec seed and the label feed the seed sequence, so
        distinct labels give uncorrelated streams that still descend
        from the one scenario seed."""
        return np.random.default_rng([self.spec.seed, zlib.crc32(label.encode())])

    # ------------------------------------------------------------------
    # Wiring (lazy, fixed construction order)
    # ------------------------------------------------------------------
    @property
    def metrics(self) -> Optional["MetricsRegistry"]:
        if self._metrics is _UNSET:
            if self.spec.metrics:
                from repro.telemetry.registry import MetricsRegistry

                self._metrics = MetricsRegistry()
            else:
                self._metrics = None
        return self._metrics

    @property
    def tracer(self) -> "SpanTracer":
        """Span tracer (disabled unless ``spec.spans``); when metrics are
        on, span totals are exported into the metrics snapshot as
        ``span.<name>.wall_time_*`` counters."""
        if self._tracer is _UNSET:
            from repro.telemetry.spans import NULL_TRACER, SpanTracer

            if self.spec.spans:
                self._tracer = SpanTracer()
                if self.metrics is not None:
                    self._tracer.bind(self.metrics)
            else:
                self._tracer = NULL_TRACER
        return self._tracer

    @property
    def engine(self) -> "Engine":
        if self._engine is _UNSET:
            from repro.sim.engine import Engine

            self._engine = Engine(metrics=self.metrics)
        return self._engine

    @property
    def trace(self) -> Optional["FrameTrace"]:
        if self._trace is _UNSET:
            if self.spec.trace:
                from repro.sim.trace import FrameTrace

                self._trace = FrameTrace(capacity=self.spec.trace_capacity)
            else:
                self._trace = None
        return self._trace

    @property
    def csi_model(self):
        if self._csi_model is _UNSET:
            spec = self.spec
            if spec.csi or spec.csi_noise is not None:
                from repro.channel.csi import CsiChannelModel

                noise = None
                if spec.csi_noise is not None:
                    from repro.channel.noise import CsiMeasurementNoise

                    noise = CsiMeasurementNoise(
                        snr_db=float(spec.csi_noise.get("snr_db", 35.0)),
                        rng=np.random.default_rng(
                            int(spec.csi_noise.get("seed", spec.seed))
                        ),
                    )
                self._csi_model = CsiChannelModel(noise=noise)
            else:
                self._csi_model = None
        return self._csi_model

    @property
    def medium(self) -> "Medium":
        if self._medium is _UNSET:
            from repro.sim.medium import Medium

            spec = self.spec
            medium_rng = None
            if spec.medium_seed is not None:
                medium_rng = np.random.default_rng(spec.medium_seed)
            elif spec.seed_medium:
                medium_rng = np.random.default_rng(spec.seed)
            self._medium = Medium(
                self.engine,
                frequency_hz=spec.frequency_hz,
                path_loss_db=(
                    _build_path_loss(spec.path_loss) if spec.path_loss else None
                ),
                fer=_build_fer(spec.fer) if spec.fer else None,
                csi_model=self.csi_model,
                trace=self.trace,
                rng=medium_rng,
            )
        return self._medium

    # ------------------------------------------------------------------
    # Execution helpers
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Drive the engine to ``until`` (default: ``spec.duration_s``)."""
        end = until if until is not None else self.spec.duration_s
        if end is None:
            raise ValueError(
                "no duration: pass until=... or set ScenarioSpec.duration_s"
            )
        self.engine.run_until(end)

    def snapshot(self) -> Optional[Dict[str, Dict[str, object]]]:
        """The metrics snapshot (span totals included when bound)."""
        return None if self.metrics is None else self.metrics.snapshot()

    # ------------------------------------------------------------------
    # Declarative placements
    # ------------------------------------------------------------------
    def place_devices(self) -> Dict[str, object]:
        """Materialize ``spec.placements`` in order, keyed by role.

        Devices are constructed with the context's root RNG (shared, in
        placement order), which is exactly what the hand-written demos
        did, so migrated scenarios keep their pre-refactor RNG draws.
        """
        devices: Dict[str, object] = {}
        for placement in self.spec.placements:
            if placement.role in devices:
                raise ValueError(f"duplicate placement role {placement.role!r}")
            devices[placement.role] = self.place(placement)
        return devices

    def place(self, placement: PlacementSpec):
        """Build one device from its placement spec."""
        from repro.mac.addresses import MacAddress
        from repro.sim.world import Position

        options = dict(placement.options)
        for key in ("expected_ack_ra", "bssid"):
            if key in options:
                options[key] = MacAddress(str(options[key]))
        common = {
            "mac": MacAddress(placement.mac),
            "medium": self.medium,
            "position": Position(placement.x, placement.y, placement.z),
            "rng": self.rng,
        }
        kind = placement.kind
        if kind == "station":
            from repro.devices.station import Station

            return Station(**common, **options)
        if kind == "access_point":
            from repro.devices.access_point import AccessPoint, ApBehavior

            behavior = options.pop("behavior", None)
            if isinstance(behavior, dict):
                behavior = ApBehavior(**behavior)
            if behavior is not None:
                options["behavior"] = behavior
            return AccessPoint(**common, **options)
        if kind == "monitor_dongle":
            from repro.devices.dongle import MonitorDongle

            return MonitorDongle(**common, **options)
        if kind == "esp8266":
            from repro.devices.esp import Esp8266Device

            return Esp8266Device(**common, **options)
        if kind == "esp32_sniffer":
            from repro.devices.esp import Esp32CsiSniffer

            return Esp32CsiSniffer(**common, **options)
        raise ValueError(f"unknown placement kind {kind!r}")
