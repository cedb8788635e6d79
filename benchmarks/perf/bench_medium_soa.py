"""SoA delivery microbenchmark: one sender, thousands of receivers.

The purest measurement of the struct-of-arrays hot path: a single
channel packed with static receivers, one sender transmitting
repeatedly.  The production :class:`~repro.sim.medium.Medium` (numpy
range gate + cached delivery lists) is timed by its engine, which is
the gated number; the same world then runs on the cache-free
per-receiver reference medium (``tests/reference_medium.py``).  The
first transmission pays the cold SoA build and budget resolution; the
rest exercise the warm delivery-cache path — the shape every wardrive
beacon takes.

``reference_over_production`` is the measured case for the machinery:
how many times slower the simple path is on this workload.
"""

from __future__ import annotations

from benchmarks.perf.harness import BenchOutcome

import time

from repro.sim.engine import Engine
from repro.sim.medium import Medium
from repro.sim.world import Position
from repro.telemetry import MetricsRegistry
from tests.reference_medium import ReferenceMedium

N_RECEIVERS = 5000
FRAME_DURATION_S = 3e-4
FRAME_INTERVAL_S = 1e-3


class _Frame:
    __slots__ = ()

    @staticmethod
    def wire_length() -> int:
        return 200


class _SinkRadio:
    """Bare RadioPort: static position, counts receptions, no MAC."""

    __slots__ = ("name", "channel", "rx_sensitivity_dbm", "_position",
                 "static_position", "received")

    def __init__(self, name: str, position: Position) -> None:
        self.name = name
        self.channel = 1
        self.rx_sensitivity_dbm = -92.0
        self._position = position
        self.static_position = position
        self.received = 0

    def current_position(self, time: float) -> Position:
        return self._position

    def on_reception(self, reception) -> None:
        self.received += 1


def _run_one(n_receivers: int, transmissions: int, medium_cls, metrics=None):
    """Build the world, fire ``transmissions`` broadcasts, time the run."""
    engine = Engine(metrics=metrics)
    medium = medium_cls(engine)
    sender = _SinkRadio("tx", Position(300.0, 210.0, 3.0))
    medium.attach(sender)
    receivers = []
    for index in range(n_receivers):
        # Deterministic scatter over ~600 x 420 m (no RNG needed).
        x = (index * 37) % 600
        y = (index * 73) % 420
        radio = _SinkRadio(f"r{index:04d}", Position(x, y, 3.0))
        medium.attach(radio)
        receivers.append(radio)

    frame = _Frame()

    def send() -> None:
        medium.transmit(sender, frame, FRAME_DURATION_S, 20.0, 6.0)
        if engine.now < (transmissions - 0.5) * FRAME_INTERVAL_S:
            engine.call_after(FRAME_INTERVAL_S, send)

    engine.call_after(FRAME_INTERVAL_S, send)
    start = time.perf_counter()
    engine.run_until((transmissions + 1.0) * FRAME_INTERVAL_S)
    wall = time.perf_counter() - start
    receptions = sum(radio.received for radio in receivers)
    return wall, receptions


def bench_medium_soa(quick: bool) -> BenchOutcome:
    n_receivers = N_RECEIVERS if quick else 4 * N_RECEIVERS
    transmissions = 50 if quick else 200
    metrics = MetricsRegistry()
    prod_wall, prod_rx = _run_one(n_receivers, transmissions, Medium, metrics)
    ref_wall, ref_rx = _run_one(n_receivers, transmissions, ReferenceMedium)
    if prod_rx != ref_rx:
        raise AssertionError(
            f"delivery mismatch: production {prod_rx} vs reference {ref_rx}"
        )

    return BenchOutcome(
        outputs={
            "receivers": n_receivers,
            "transmissions": transmissions,
            "receptions": prod_rx,
            "production_s": prod_wall,
            "reference_s": ref_wall,
            "reference_over_production": (ref_wall / prod_wall) if prod_wall else 0.0,
        },
        metrics=metrics,
    )
