"""Reception-path microbenchmark: one transmitter, thousands of receivers.

This isolates the per-arrival cost of the reception pipeline — the span
scheduling, the vectorized lane pre-filter, and the lane tallies each
``AckEngine`` publishes a mask for — with everything else held trivial:
a single sender on one channel, a dense field of parked stations each
running a real :class:`~repro.mac.ack_engine.AckEngine` (one in
``SLEEPER_EVERY`` asleep), and an alternating broadcast / unicast
traffic mix so all three hot lanes (group-addressed, not-for-me,
unicast-for-me plus the ACK reply) and the sleep drop are exercised.

The same workload runs twice in one record: once on the production
medium (span scheduling + lanes) and once on the cache-free per-receiver
reference medium (``tests/reference_medium.py``), which builds a full
``Reception`` for every arrival.  Both timings land in the outputs, so
``reference_over_production`` — what the batched machinery buys over
the simple path — is tracked release over release; the gating
``engine_wall_s`` comes from the production run.  The two runs must
agree on every receiver counter, or the bench fails.
"""

from __future__ import annotations

from benchmarks.perf.harness import BenchOutcome

import time

from repro.mac.ack_engine import AckEngine
from repro.mac.addresses import MacAddress
from repro.mac.frames import BeaconFrame, DataFrame
from repro.phy.radio import Radio
from repro.sim.engine import Engine
from repro.sim.medium import Medium
from repro.sim.world import Position
from repro.telemetry import MetricsRegistry
from tests.reference_medium import ReferenceMedium

CHANNEL = 6
SEND_INTERVAL_S = 1e-3
RATE_MBPS = 6.0
#: Every this many receivers, one sleeps through the run.
SLEEPER_EVERY = 50

#: Receiver counters production and reference must agree on.
COUNTERS = (
    "transmissions",
    "receptions",
    "frames_dropped_asleep",
    "frames_seen",
    "fcs_failures",
    "passed_up",
    "acks_sent",
)

SENDER_MAC = MacAddress("02:53:4e:44:00:01")
#: Unicast traffic alternates with broadcast and always targets this
#: station, so exactly one receiver per odd transmission takes the
#: unicast-for-me lane and answers with an ACK.
TARGET_MAC = MacAddress("02:10:00:00:00:00")


def _receiver_mac(index: int) -> MacAddress:
    """Deterministic unicast MAC for receiver ``index`` (no RNG)."""
    return MacAddress(b"\x02\x10" + index.to_bytes(4, "big"))


def _run_mode(
    n_receivers: int,
    sim_duration: float,
    medium_cls,
    metrics: MetricsRegistry,
) -> dict:
    """Build the field fresh and run it to completion on ``medium_cls``."""
    setup_start = time.perf_counter()
    engine = Engine(metrics=metrics)
    medium = medium_cls(engine)

    sender = Radio("sender", medium, Position(0.0, 0.0, 10.0), channel=CHANNEL)
    AckEngine(sender, SENDER_MAC)

    receivers = []
    engines = []
    for index in range(n_receivers):
        # Deterministic scatter inside ~300 x 200 m: every station is
        # comfortably inside free-space range of the sender.
        x = 10.0 + (index * 37) % 300
        y = 10.0 + (index * 73) % 200
        radio = Radio(
            f"rx{index:05d}", medium, Position(x, y, 1.5), channel=CHANNEL
        )
        engines.append(AckEngine(radio, _receiver_mac(index)))
        if index % SLEEPER_EVERY == SLEEPER_EVERY - 1:
            radio.sleep()
        receivers.append(radio)

    beacon = BeaconFrame(addr2=SENDER_MAC, ssid="bench")
    unicast = DataFrame(addr1=TARGET_MAC, addr2=SENDER_MAC, body=b"x" * 64)
    sent = 0

    def send() -> None:
        nonlocal sent
        frame = unicast if sent % 2 else beacon
        sender.transmit(frame, RATE_MBPS)
        sent += 1
        engine.call_after(SEND_INTERVAL_S, send)

    engine.call_after(0.0, send)
    setup_s = time.perf_counter() - setup_start

    run_start = time.perf_counter()
    engine.run_until(sim_duration)
    run_s = time.perf_counter() - run_start

    return {
        "setup_s": setup_s,
        "run_s": run_s,
        "transmissions": medium.transmission_count,
        "receptions": sum(radio.frames_delivered for radio in receivers),
        "frames_dropped_asleep": sum(r.frames_dropped_asleep for r in receivers),
        "frames_seen": sum(e.stats.frames_seen for e in engines),
        "fcs_failures": sum(e.stats.fcs_failures for e in engines),
        "passed_up": sum(e.stats.passed_up for e in engines),
        "acks_sent": sum(e.stats.acks_sent for e in engines),
        "events_executed": engine.events_processed,
    }


def bench_reception_path(quick: bool) -> BenchOutcome:
    n_receivers = 1200 if quick else 5000
    sim_duration = 0.2 if quick else 0.3

    metrics = MetricsRegistry()
    production = _run_mode(n_receivers, sim_duration, Medium, metrics)
    # The reference pass gets a throwaway registry so the gating
    # engine_wall_s reflects only the production medium.
    reference = _run_mode(n_receivers, sim_duration, ReferenceMedium, MetricsRegistry())

    # Event counts differ by design (two batch entries per transmission
    # against one event per arrival instant); the work must not.
    mismatched = {
        key: (production[key], reference[key])
        for key in COUNTERS
        if production[key] != reference[key]
    }
    if mismatched:
        raise AssertionError(
            f"counter mismatch (production, reference): {mismatched}"
        )
    return BenchOutcome(
        outputs={
            "receivers": n_receivers,
            "sim_s": sim_duration,
            "transmissions": production["transmissions"],
            "receptions": production["receptions"],
            "frames_dropped_asleep": production["frames_dropped_asleep"],
            "frames_seen": production["frames_seen"],
            "acks_sent": production["acks_sent"],
            "events_executed": production["events_executed"],
            "production_run_s": production["run_s"],
            "reference_run_s": reference["run_s"],
            "reference_over_production": (
                reference["run_s"] / max(production["run_s"], 1e-9)
            ),
        },
        metrics=metrics,
        setup_s=production["setup_s"] + reference["setup_s"],
    )
