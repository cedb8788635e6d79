"""Differential fuzzer: the production medium against the reference medium.

Hypothesis builds small random worlds and runs each one twice, once on
:class:`repro.sim.medium.Medium` and once on the cache-free per-receiver
loop in ``tests/reference_medium.py``.  Every observable must match:
each reception handed to a handler (time, RSSI, SNR, FCS verdict,
corruption flags, CSI), ACK-engine and radio counters, the frame trace,
the medium's metrics counters, and the engine clock after every run.

A world mixes static and mobile radios on two or three channels, plain
handlers, ACK engines (with a lane-passive MAC handler, promiscuous, or
with a sniffer switched between active and passive, each switch pushed
to the engine as a new passivity promise), a sleeping
station, an unattached sender, an optional CSI model with its own RNG,
a custom path-loss model and a FER model.  Scripted actions retune, detach, re-attach and reposition radios
mid-run, put stations to sleep, and queue foreign events at exactly the
start or end time of an arrival.  The engine advances in ``run_until``
chunks with random boundaries, and a handler may stop it.
"""

from __future__ import annotations

import gc
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.devices.dongle import RawPsdu
from repro.mac.ack_engine import AckEngine, AckEngineConfig
from repro.mac.addresses import MacAddress
from repro.mac.frames import BeaconFrame, FrameType, NullDataFrame
from repro.mac.serialization import serialize
from repro.phy.plcp import frame_airtime
from repro.phy.radio import Radio, RadioState
from repro.sim.engine import Engine
from repro.sim.medium import Medium, _ArrivalSpan
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
ALL_FRAME_KEYS = frozenset((ftype, subtype) for ftype in FrameType for subtype in range(16))

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
    sniffers = {}  # name -> the engine whose sniffer passivity "listen" flips
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
                sniffers[name] = ack
                ack.install_sniffer(
                    lambda frame, rec, name=name: (
                        name not in listening or record(name, "sniff", rec, frame)
                    ),
                    passive=False,
                )
            elif kind == "ack":
                # Passive for every group frame type (the promise), so
                # the lanes may consume beacons without calling it.
                ack.install_mac_handler(
                    lambda frame, rec, name=name: (
                        not frame.addr1.is_unicast or record(name, "mac", rec, frame)
                    ),
                    passive_keys=ALL_FRAME_KEYS,
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
            # Flip the sniffer between active and passive mid-run and
            # push the new promise.
            listening.symmetric_difference_update({radio.name})
            ack = sniffers.get(radio.name)
            if ack is not None:
                ack.install_sniffer(
                    ack.sniffer_handler, passive=radio.name not in listening
                )
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


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
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


# ---------------------------------------------------------------------------
# Scripted edge cases of the air state, so their coverage does not hang
# on what the fuzzer happens to draw.  Three radios on one channel: the
# receiver "x" at the origin, with senders "a" 60 m to one side (x is
# its nearest receiver) and "b" 30 m to the other (within the capture
# threshold of "a" at x).
# ---------------------------------------------------------------------------

def _scripted(medium_cls, script):
    """Run ``script(engine, medium, radios, log)`` to the end; return the log."""
    engine = Engine(metrics=MetricsRegistry())
    medium = medium_cls(engine, rng=np.random.default_rng(5))
    log = []
    radios = {}
    for name, x in (("x", 0.0), ("b", -30.0), ("a", 60.0)):
        radio = Radio(name, medium, Position(x, 0.0), 6)
        radio.frame_handler = lambda rec, name=name: log.append((
            name, engine.now, rec.transmission.sender, rec.fcs_ok, rec.collided,
            rec.while_transmitting,
        ))
        radios[name] = radio
    script(engine, medium, radios, log)
    engine.run()
    return log


def _both(script):
    """The scripted log, after checking the two media agree on it."""
    production = _scripted(Medium, script)
    assert production == _scripted(ReferenceMedium, script)
    return production


def _at_x(log):
    """``x``'s receptions as (sender, fcs_ok, collided, while_transmitting)."""
    return [entry[2:] for entry in log if entry[0] == "x"]


def _null_to_x():
    return NullDataFrame(addr1=_mac(0), addr2=_mac(99))


def test_detached_receiver_still_hears_overlapping_arrivals_collide():
    # x leaves between delivery and the arrival starts, so both
    # arrivals start on the air of a detached name and collide there;
    # x is back before they end, so both are handed up, corrupted.
    def script(engine, medium, radios, log):
        radios["a"].transmit(_null_to_x(), 6.0)
        radios["b"].transmit(_null_to_x(), 6.0)
        engine.call_at(50e-9, lambda: medium.detach("x"))
        engine.call_at(5e-6, lambda: medium.attach(radios["x"]))

    assert _at_x(_both(script)) == [
        ("b", False, True, False),
        ("a", False, True, False),
    ]


def _reattach_mid_arrival(engine, medium, radios, log):
    # a's arrival starts at x's first attachment; x detaches and
    # re-attaches while it is on the air, before b's arrival starts.
    radios["a"].transmit(_null_to_x(), 6.0)

    def reattach():
        medium.detach("x")
        medium.attach(radios["x"])

    engine.call_at(1e-6, reattach)
    engine.call_at(2e-6, lambda: radios["b"].transmit(_null_to_x(), 6.0))


def _detach_between_arrivals(engine, medium, radios, log):
    # Both frames are delivered to an attached x; x detaches after a's
    # arrival started and before b's does, and is back before both end.
    radios["a"].transmit(_null_to_x(), 6.0)
    engine.call_at(300e-9, lambda: radios["b"].transmit(_null_to_x(), 6.0))
    engine.call_at(350e-9, lambda: medium.detach("x"))
    engine.call_at(1e-6, lambda: medium.attach(radios["x"]))


def _attach_between_arrivals(engine, medium, radios, log):
    # a's arrival starts while x is detached; x re-attaches before b's
    # frame is sent.
    radios["a"].transmit(_null_to_x(), 6.0)
    engine.call_at(50e-9, lambda: medium.detach("x"))
    engine.call_at(1e-6, lambda: medium.attach(radios["x"]))
    engine.call_at(2e-6, lambda: radios["b"].transmit(_null_to_x(), 6.0))


@pytest.mark.parametrize(
    "script",
    [_reattach_mid_arrival, _detach_between_arrivals, _attach_between_arrivals],
    ids=["reattach", "detach", "attach"],
)
def test_arrivals_do_not_collide_across_an_attach_or_detach(script):
    # An attach or a detach of x starts a fresh air state for it, so
    # b's arrival never meets a's and both frames come through clean.
    assert _at_x(_both(script)) == [
        ("a", True, False, False),
        ("b", True, False, False),
    ]


@pytest.mark.parametrize("lanes", [True, False], ids=["lanes", "no_lanes"])
def test_receiver_detached_mid_flight_hears_nothing(lanes):
    # x leaves while a's frame is on its air and stays away, so it gets
    # nothing, on the lane drain and on the per-item drain of a frame
    # without lanes alike; b still hears the frame.
    frame = _null_to_x() if lanes else RawPsdu(b"\x00\x01garbage")

    def script(engine, medium, radios, log):
        radios["a"].transmit(frame, 6.0)
        engine.call_at(1e-6, lambda: medium.detach("x"))

    assert [entry[0] for entry in _both(script)] == ["b"]


@pytest.mark.parametrize("instant", ["start", "end"])
@pytest.mark.parametrize("queued", ["before", "after"])
@pytest.mark.parametrize("action", ["busy", "transmit"])
def test_queries_at_exactly_an_arrival_start_and_end(instant, queued, action):
    # A foreign event at exactly the start or end instant of a's arrival
    # at x, queued before the transmission (so it runs first at that
    # instant) or after it (so the arrival event runs first).
    def script(engine, medium, radios, log):
        start = 60.0 / 299_792_458.0
        if action == "busy":
            def act():
                log.append(("busy", engine.now, medium.is_busy_for("x")))
        else:
            def act():
                radios["x"].transmit(NullDataFrame(addr1=_mac(1), addr2=_mac(0)), 6.0)

        if queued == "before":
            duration = frame_airtime(_null_to_x().wire_length(), 6.0)
            engine.call_at(start if instant == "start" else start + duration, act)
        transmission = radios["a"].transmit(_null_to_x(), 6.0)
        if queued == "after":
            at = start if instant == "start" else start + transmission.duration
            engine.call_at(at, act)

    log = _both(script)
    on_air = (instant, queued) in (("start", "after"), ("end", "before"))
    if action == "busy":
        assert [entry[2] for entry in log if entry[0] == "busy"] == [on_air]
    else:
        # Transmitting before the arrival starts, or while it is on the
        # air, deafens x to it; a transmission after its end does not.
        deafened = on_air or (instant, queued) == ("start", "before")
        assert _at_x(log)[0] == ("a", not deafened, False, deafened)


# ---------------------------------------------------------------------------
# Lane masks that change while a span is in flight.  "x" at the origin
# runs an ACK engine whose MAC handler promises passivity for every group
# frame, so a beacon from "a" (60 m away) is tallied, not handed up,
# unless something between the arrival's start (200 ns) and end changes
# that.  Each script acts at 1 us, inside the first of two beacons.
# ---------------------------------------------------------------------------

def _in_flight(medium_cls, script):
    """Run ``script``; return what is observable and the lane tally."""
    engine = Engine(metrics=MetricsRegistry())
    medium = medium_cls(engine, rng=np.random.default_rng(5))
    log = []
    x = Radio("x", medium, Position(0.0, 0.0), 6)
    ack = AckEngine(x, _mac(0))
    ack.install_mac_handler(lambda frame, rec: None, passive_keys=ALL_FRAME_KEYS)
    a = Radio("a", medium, Position(60.0, 0.0), 6)

    def record(tag):
        return lambda *args: log.append((tag, engine.now, type(args[0]).__name__))

    def at(time, action):
        engine.call_at(time, action)

    script(x, ack, medium, at, record)
    for k in range(2):
        at(1e-3 * k, lambda: a.transmit(BeaconFrame(addr2=_mac(1), ssid="net"), 6.0))
    engine.run()
    observed = (log, asdict(ack.stats), x.frames_delivered, x.frames_dropped_asleep)
    return observed, sum(x.lanes[1:])


def _sleep(x, ack, medium, at, record):
    # The first beacon ends while x sleeps; x is awake for the second.
    at(1e-6, x.sleep)
    at(0.5e-3, x.wake)


def _wake(x, ack, medium, at, record):
    x.sleep()
    at(1e-6, x.wake)


def _swap_frame_handler(x, ack, medium, at, record):
    at(1e-6, lambda: setattr(x, "frame_handler", record("phy")))


def _swap_mac_handler(x, ack, medium, at, record):
    at(1e-6, lambda: setattr(ack, "mac_handler", record("mac")))


def _swap_sniffer(x, ack, medium, at, record):
    ack.install_sniffer(lambda frame, rec: None, passive=True)
    at(1e-6, lambda: setattr(ack, "sniffer_handler", record("sniff")))


def _push_passivity(x, ack, medium, at, record):
    listening = []
    sniffer = lambda frame, rec: listening and record("sniff")(frame, rec)
    ack.install_sniffer(sniffer, passive=True)

    def listen():
        listening.append(True)
        ack.install_sniffer(sniffer, passive=False)

    at(1e-6, listen)


def _detach(x, ack, medium, at, record):
    at(1e-6, lambda: medium.detach("x"))


@pytest.mark.parametrize(
    "script, tallied",
    [
        (_sleep, 1),
        (_wake, 2),
        (_swap_frame_handler, 0),
        (_swap_mac_handler, 0),
        (_swap_sniffer, 0),
        (_push_passivity, 0),
        (_detach, 0),
    ],
    ids=[
        "sleep", "wake", "frame_handler", "mac_handler", "sniffer_handler",
        "passivity", "detach",
    ],
)
def test_lane_mask_changes_while_a_span_is_in_flight(script, tallied):
    production, production_tallied = _in_flight(Medium, script)
    reference, _ = _in_flight(ReferenceMedium, script)
    assert production == reference
    # Beacons the published mask still covered were tallied, not handed up.
    assert production_tallied == tallied


def test_air_state_is_empty_and_acyclic_after_a_drained_run():
    # Spans leave the live list at their last arrival end and hold no
    # reference cycles, so reference counting alone frees every one.
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        engine = Engine(metrics=MetricsRegistry())
        medium = Medium(engine, rng=np.random.default_rng(5))
        radios = [
            Radio(f"r{k}", medium, Position(10.0 * k, 0.0), 6) for k in range(6)
        ]
        for k, radio in enumerate(radios):
            AckEngine(radio, _mac(k), AckEngineConfig())
        for step in range(40):
            sender = radios[step % len(radios)]
            frame = (
                BeaconFrame(addr2=_mac(step % 6), ssid="net") if step % 3 else
                NullDataFrame(addr1=_mac((step + 1) % 6), addr2=_mac(step % 6))
            )
            engine.call_at(step * 7e-6, lambda s=sender, f=frame: s.transmit(f, 6.0))
        engine.call_at(60e-6, lambda: medium.detach("r2"))
        engine.call_at(90e-6, lambda: medium.attach(radios[2]))
        engine.run()
        assert medium.contended_starts > 0
        assert medium._live == []
        gc.collect()
        leaked = [obj for obj in gc.garbage if isinstance(obj, _ArrivalSpan)]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert leaked == []


# ---------------------------------------------------------------------------
# A dense static field.  The fuzzed and scripted worlds hold at most six
# radios; a census street holds hundreds.  Here one sender alternates
# beacons with unicast frames to receiver 0 (which, with an ACK engine,
# answers) across 300 parked receivers on a deterministic scatter.
# Sensitivities rotate so the field straddles the range limit, and one
# receiver in SLEEPER_EVERY is a radio asleep for the whole run.  Shape
# "sink" fills the rest of the field with bare RadioPort sinks (no
# lanes, so every arrival is a full Reception); shape "ack" gives every
# receiver an ACK engine, so most arrivals end in lane tallies.
# ---------------------------------------------------------------------------

DENSE_RECEIVERS = 300
DENSE_TRANSMISSIONS = 40
SLEEPER_EVERY = 50
#: At -55 dBm a 20 dBm sender reaches about 55 m; at -92 dBm, the field.
DENSE_SENSITIVITIES = (-92.0, -70.0, -55.0)


class _SinkRadio:
    """Bare RadioPort: a static position and a reception count, no MAC."""

    frames_dropped_asleep = 0

    def __init__(self, name: str, position: Position, sensitivity: float) -> None:
        self.name = name
        self.channel = 6
        self.rx_sensitivity_dbm = sensitivity
        self.static_position = position
        self.frames_delivered = 0

    def current_position(self, time: float) -> Position:
        return self.static_position

    def on_reception(self, reception) -> None:
        self.frames_delivered += 1


def _rx_mac(index: int) -> MacAddress:
    return MacAddress(b"\x02\x10" + index.to_bytes(4, "big"))


def _dense_field(shape, medium_cls):
    """Run the field on ``medium_cls``; return what is observable and the lane tally."""
    engine = Engine(metrics=MetricsRegistry())
    medium = medium_cls(engine, rng=np.random.default_rng(5))
    sender = Radio("tx", medium, Position(0.0, 0.0, 10.0), 6)
    engines = [AckEngine(sender, _mac(0xFE))]
    receivers = []
    for index in range(DENSE_RECEIVERS):
        name = f"rx{index:03d}"
        position = Position(10.0 + (index * 37) % 300, 10.0 + (index * 73) % 200, 1.5)
        sensitivity = DENSE_SENSITIVITIES[index % len(DENSE_SENSITIVITIES)]
        sleeper = index % SLEEPER_EVERY == SLEEPER_EVERY - 1
        if shape == "sink" and not sleeper:
            radio = _SinkRadio(name, position, sensitivity)
            medium.attach(radio)
        else:
            radio = Radio(name, medium, position, 6, rx_sensitivity_dbm=sensitivity)
            if shape == "ack":
                engines.append(AckEngine(radio, _rx_mac(index)))
            if sleeper:
                radio.sleep()
        receivers.append(radio)

    beacon = BeaconFrame(addr2=_mac(0xFE), ssid="net")
    unicast = NullDataFrame(addr1=_rx_mac(0), addr2=_mac(0xFE))
    for k in range(DENSE_TRANSMISSIONS):
        frame = unicast if k % 2 else beacon
        engine.call_at(k * 1e-3, lambda frame=frame: sender.transmit(frame, 6.0))
    engine.run()
    observed = {
        "transmissions": medium.transmission_count,
        "radios": [(r.frames_delivered, r.frames_dropped_asleep) for r in receivers],
        "stats": [asdict(ack.stats) for ack in engines],
        "clock": engine.now,
    }
    return observed, sum(sum(r.lanes[1:]) for r in receivers if isinstance(r, Radio))


@pytest.mark.parametrize("shape", ["sink", "ack"])
def test_dense_field_matches_reference(shape):
    production, tallied = _dense_field(shape, Medium)
    reference, _ = _dense_field(shape, ReferenceMedium)
    assert production == reference
    # The field reaches both sides of the range gate and the sleep drop.
    awake = [
        delivered
        for index, (delivered, _) in enumerate(production["radios"])
        if index % SLEEPER_EVERY != SLEEPER_EVERY - 1
    ]
    assert 0 < awake.count(0) < len(awake)
    assert sum(dropped for _, dropped in production["radios"]) > 0
    if shape == "ack":
        assert sum(stats["acks_sent"] for stats in production["stats"]) > 0
        assert tallied > 0
    else:
        assert tallied == 0
