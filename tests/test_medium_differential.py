"""Differential fuzzer: the production medium against the reference medium.

Hypothesis builds small random worlds and runs each one twice, once on
:class:`repro.sim.medium.Medium` and once on the cache-free per-receiver
loop in ``tests/reference_medium.py``.  Every observable must match:
each reception handed to a handler (time, RSSI, SNR, FCS verdict,
corruption flags, CSI), ACK-engine and radio counters, the frame trace,
the medium's metrics counters, and the engine clock after every run.

A world mixes static and mobile radios on two or three channels, plain
handlers, ACK engines (with a lane-passive MAC handler, promiscuous, or
with a sniffer switched between active and passive), a sleeping
station, an unattached sender, an optional CSI model with its own RNG,
a custom path-loss model and a FER model.  Scripted actions retune, detach, re-attach and reposition radios
mid-run, put stations to sleep, and queue foreign events at exactly the
start or end time of an arrival.  The engine advances in ``run_until``
chunks with random boundaries, and a handler may stop it.
"""

from __future__ import annotations

import math
from dataclasses import asdict

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.devices.dongle import RawPsdu
from repro.mac.ack_engine import AckEngine, AckEngineConfig
from repro.mac.addresses import MacAddress
from repro.mac.frames import BeaconFrame, NullDataFrame
from repro.mac.serialization import serialize
from repro.phy.radio import Radio, RadioState
from repro.sim.engine import Engine
from repro.sim.medium import Medium
from repro.sim.trace import FrameTrace
from repro.sim.world import Position
from repro.telemetry.registry import MetricsRegistry
from tests.reference_medium import ReferenceMedium

CHANNELS = (1, 6, 11)
KINDS = ("plain", "ack", "promiscuous", "sniffer")
OPS = (
    "unicast", "broadcast", "raw", "ghost", "tie", "retune", "detach",
    "attach", "reposition", "sleep", "wake", "listen", "stop",
)
FOREIGN = ("transmit", "busy", "detach", "stop")

_radio = st.tuples(
    st.sampled_from(KINDS),
    st.integers(0, 120),  # x (m)
    st.integers(0, 60),  # y (m)
    st.one_of(st.none(), st.integers(-30, 30)),  # speed (m/s) if mobile
    st.integers(0, 2),  # channel index
    st.sampled_from([-92.0, -70.0, -55.0]),  # sensitivity (dBm)
    st.sampled_from([20.0, 10.0, 5.0]),  # transmit power (dBm)
)
_action = st.tuples(
    st.integers(0, 20_000),  # time (us)
    st.sampled_from(OPS),
    st.integers(0, 7),  # target radio
    st.integers(0, 63),  # op argument
)
_world = st.fixed_dictionaries(
    {
        "radios": st.lists(_radio, min_size=3, max_size=6),
        "channels": st.sampled_from([2, 3]),
        "csi": st.booleans(),
        "path_loss": st.booleans(),
        "fer": st.booleans(),
        "stop_after": st.one_of(st.none(), st.integers(1, 30)),
        "actions": st.lists(_action, min_size=1, max_size=24),
        "chunks": st.lists(st.integers(1, 30_000), max_size=4),
    }
)


def _mac(k: int) -> MacAddress:
    return MacAddress(f"02:00:00:00:00:{k:02x}")


def _provider(x: float, y: float, speed):
    if speed is None:
        return Position(float(x), float(y))
    return lambda t: Position(x + speed * t, float(y))


def _simulate(world, medium_cls):
    """Run ``world`` on ``medium_cls``; return everything observable."""
    engine = Engine(metrics=MetricsRegistry())
    trace = FrameTrace()
    csi_rng = np.random.default_rng(11)
    medium = medium_cls(
        engine,
        trace=trace,
        rng=np.random.default_rng(5),
        csi_model=(lambda tx, rx, t: csi_rng.normal(size=2)) if world["csi"] else None,
        path_loss_db=(
            (lambda tx, rx: 40.0 + 35.0 * math.log10(max(tx.distance_to(rx), 1.0)))
            if world["path_loss"] else None
        ),
        fer=(
            (lambda snr, rate, length: 0.4 if snr < 60.0 else 0.05)
            if world["fer"] else None
        ),
    )
    channels = CHANNELS[: world["channels"]]
    log = []
    seen = [0]

    def record(name, what, reception, frame=None):
        csi = None if reception.csi is None else tuple(reception.csi.tolist())
        log.append((
            name, what, engine.now, type(frame or reception.frame).__name__,
            reception.rssi_dbm, reception.snr_db, reception.fcs_ok,
            reception.collided, reception.while_transmitting, csi,
        ))
        seen[0] += 1
        if seen[0] == world["stop_after"]:
            engine.stop()

    radios, engines = [], []
    listening = set()  # sniffers currently active; the rest promise passivity
    for k, (kind, x, y, speed, ch, sens, power) in enumerate(world["radios"]):
        name = f"r{k}"
        radio = Radio(
            name, medium, _provider(x, y, speed), channels[ch % len(channels)],
            tx_power_dbm=power, rx_sensitivity_dbm=sens,
        )
        if kind == "plain":
            radio.frame_handler = lambda rec, name=name: record(name, "phy", rec)
        else:
            config = AckEngineConfig(promiscuous=kind == "promiscuous")
            ack = AckEngine(radio, _mac(k), config)
            handler = lambda frame, rec, name=name: record(name, "mac", rec, frame)
            if kind == "sniffer":
                listening.add(name)
                ack.install_sniffer(
                    lambda frame, rec, name=name: (
                        name not in listening or record(name, "sniff", rec, frame)
                    ),
                    passive_check=lambda name=name: name not in listening,
                )
            elif kind == "ack":
                # Passive for group frames (the probe's promise), so the
                # lanes may consume beacons without calling it.
                ack.install_mac_handler(
                    lambda frame, rec, name=name: (
                        not frame.addr1.is_unicast or record(name, "mac", rec, frame)
                    ),
                    passive_probe=lambda key: True,
                )
            else:
                ack.mac_handler = handler
            engines.append(ack)
        radios.append(radio)
    ghost = Radio("ghost", medium, Position(30.0, 30.0), channels[0])
    medium.detach("ghost")  # an unattached sender: transmits, never hears

    def pick(target):
        return radios[target % len(radios)]

    def null_to(target):
        return NullDataFrame(addr1=_mac(target % len(radios)), addr2=_mac(99))

    def foreign(kind, radio):
        if kind == "transmit":
            radio.transmit(null_to(0), 6.0)
        elif kind == "busy":
            log.append((radio.name, "busy", engine.now, medium.is_busy_for(radio.name)))
        elif kind == "detach":
            medium.detach(radio.name)
        else:
            engine.stop()

    def tie(sender, receiver, arg):
        # A foreign event at exactly the arrival start (or end) at
        # `receiver`, queued before or after the transmission itself.
        now = engine.now
        tx_pos = sender.current_position(now)
        start = now + tx_pos.distance_to(receiver.current_position(now)) / 299_792_458.0
        kind = FOREIGN[arg % len(FOREIGN)]
        frame = null_to(arg // 4)
        if arg & 16:
            engine.call_at(start, lambda: foreign(kind, receiver))
            sender.transmit(frame, 6.0)
        else:
            duration = sender.transmit(frame, 6.0).duration
            engine.call_at(start + duration if arg & 32 else start,
                           lambda: foreign(kind, receiver))

    def act(op, target, arg):
        radio = pick(target)
        attached = medium.has_radio(radio.name)
        if op in ("unicast", "broadcast", "raw", "tie") and not attached:
            return
        if op == "unicast":
            radio.transmit(null_to(arg), 6.0 if arg & 1 else 24.0)
        elif op == "broadcast":
            radio.transmit(BeaconFrame(addr2=_mac(target), ssid="net"), 6.0)
        elif op == "raw":
            psdu = serialize(null_to(arg)) if arg & 1 else b"\x00\x01garbage"
            radio.transmit(RawPsdu(bytes(psdu)), 6.0)
        elif op == "ghost":
            ghost.channel = channels[arg % len(channels)]
            ghost.transmit(null_to(arg), 6.0)
        elif op == "tie":
            tie(radio, pick(arg), arg)
        elif op == "retune" and attached:
            radio.channel = channels[arg % len(channels)]
        elif op == "detach":
            medium.detach(radio.name)
        elif op == "attach" and not attached:
            medium.attach(radio)
        elif op == "reposition" and attached:
            speed = None if arg & 1 else arg - 32
            radio._position = _provider(arg * 2.0, arg % 7 * 5.0, speed)
        elif op == "sleep" and radio.state is RadioState.IDLE:
            radio.sleep()
        elif op == "wake":
            radio.wake()
        elif op == "listen":
            listening.symmetric_difference_update({radio.name})
        elif op == "stop":
            engine.stop()

    for time_us, op, target, arg in world["actions"]:
        engine.call_at(time_us * 1e-6, lambda op=op, t=target, a=arg: act(op, t, a))
    for end_us in sorted(world["chunks"]) + [40_000, 40_000, 40_000]:
        engine.run_until(end_us * 1e-6)
        log.append(("clock", engine.now))
    counters = {
        key: value
        for key, value in engine.metrics.snapshot()["counters"].items()
        if not key.startswith("engine.")
    }
    return {
        "log": log,
        "trace": trace.to_jsonl(),
        "counters": counters,
        "stats": [asdict(ack.stats) for ack in engines],
        "radios": [
            (r.frames_sent, r.frames_delivered, r.frames_dropped_asleep) for r in radios
        ],
        "transmissions": medium.transmission_count,
    }


@settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(world=_world)
def test_production_medium_matches_reference(world):
    production = _simulate(world, Medium)
    reference = _simulate(world, ReferenceMedium)
    assert production == reference


def test_fuzzed_worlds_exercise_the_delivery_rules():
    # A fixed busy world, to show the generated worlds reach the rules
    # the fuzzer is meant to compare: collisions, half duplex, FER
    # drops, sleep drops and ACKs.
    world = {
        "radios": [
            ("ack", 0, 0, None, 0, -92.0, 20.0),
            ("plain", 5, 0, None, 0, -92.0, 20.0),
            ("sniffer", 9, 3, 10, 0, -92.0, 20.0),
            ("ack", 20, 0, None, 0, -92.0, 5.0),
        ],
        "channels": 2, "csi": True, "path_loss": False, "fer": True, "stop_after": None,
        "actions": [(t, op, target, 0) for t, op, target in [
            (0, "unicast", 1), (10, "unicast", 2), (15, "broadcast", 3), (500, "sleep", 3),
            (600, "unicast", 1), (700, "tie", 1), (2000, "wake", 3), (2100, "ghost", 0),
        ]] + [(3000 + 40 * k, "unicast", k, 3) for k in range(8)],
        "chunks": [700, 2000],
    }
    result = _simulate(world, Medium)
    assert result == _simulate(world, ReferenceMedium)
    receptions = [entry for entry in result["log"] if len(entry) == 10]
    assert any(entry[7] for entry in receptions)  # collided
    assert any(entry[8] for entry in receptions)  # while transmitting
    assert result["counters"]["medium.frames.dropped"] > 0
    assert result["counters"]["ack.acks_sent"] > 0
    assert any(dropped_asleep for _, _, dropped_asleep in result["radios"])
