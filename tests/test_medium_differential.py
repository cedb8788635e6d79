"""Differential fuzzer: the production medium against the reference medium.

Hypothesis builds small random worlds and runs each one twice, once on
:class:`repro.sim.medium.Medium` and once on the cache-free per-receiver
loop in ``tests/reference_medium.py``.  Every observable must match:
each reception handed to a handler (time, RSSI, SNR, FCS verdict,
corruption flags, CSI), ACK-engine and radio counters, the frame trace,
the medium's metrics counters, and the engine clock after every run.

A world mixes static and mobile radios on two or three channels, plain
handlers, ACK engines (with a lane-passive MAC handler, promiscuous, with
a sniffer switched between active and passive, each switch pushed to the
engine as a new passivity promise, or promiscuous with a sniffer that
ignores every source it has heard, in a set that grows during the run),
access points that answer wildcard probe requests or ignore them, a
sleeping station, an unattached sender, an optional CSI model with its
own RNG, a custom path-loss model and a FER model.  Scripted actions send
wildcard and directed probe requests, flip an AP between answering and
ignoring wildcard probes, retune, detach, re-attach and reposition radios
mid-run, put stations to sleep, and queue foreign events at exactly the
start or end time of an arrival.  Silent static radios are churned by
scripts of their own before they send once, so the lists their attach
built are read only after every push.  The engine advances in ``run_until``
chunks with random boundaries, and a handler may stop it.
"""

from __future__ import annotations

import gc
import json
import math
from collections import Counter
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.devices.access_point import AccessPoint, ApBehavior
from repro.devices.dongle import RawPsdu
from repro.mac.ack_engine import AckEngine, AckEngineConfig
from repro.mac.addresses import MacAddress
from repro.mac.frames import BeaconFrame, FrameType, NullDataFrame, ProbeRequestFrame
from repro.mac.serialization import serialize
from repro.phy.plcp import frame_airtime
from repro.phy.radio import Radio, RadioState
from repro.sim.engine import Engine
from repro.sim.medium import (
    _LANES_SCALAR,
    TALLY_FCS_FAIL,
    TALLY_GROUP,
    Medium,
    _ArrivalSpan,
)
from repro.sim.trace import FrameTrace
from repro.sim.world import Position
from repro.telemetry.registry import MetricsRegistry
from tests.conftest import attached
from tests.reference_medium import ReferenceMedium

CHANNELS = (1, 6, 11)
KINDS = ("plain", "ack", "promiscuous", "sniffer", "scanner", "ap", "silent_ap")
OPS = (
    "unicast", "broadcast", "raw", "ghost", "tie", "retune", "detach",
    "attach", "reposition", "sleep", "wake", "listen", "stop", "probe",
    "behave",
)
FOREIGN = ("transmit", "busy", "detach", "stop")
ALL_FRAME_KEYS = frozenset((ftype, subtype) for ftype in FrameType for subtype in range(16))
#: The SSID every access point serves; probes ask for it, for no network
#: (wildcard) or for another one.
SSID = "net"
PROBED_SSIDS = ("", SSID, "elsewhere")

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
#: A silent radio: static, churned by its own script (attach/detach
#: toggles, retunes, moves) before its one broadcast, so the list its
#: attach built takes every push before a frame of its own reads it.
SILENT_OPS = ("toggle", "retune", "move")
_silent = st.tuples(
    st.integers(0, 120),  # x (m)
    st.integers(0, 60),  # y (m)
    st.integers(0, 2),  # channel index
    st.sampled_from([-92.0, -70.0]),  # sensitivity (dBm)
    st.sampled_from([20.0, 5.0]),  # transmit power (dBm)
    st.lists(
        st.tuples(st.integers(0, 20_000), st.sampled_from(SILENT_OPS), st.integers(0, 63)),
        max_size=5,
    ),  # churn: (time (us), op, op argument)
    st.integers(0, 30_000),  # its one broadcast (us)
)
_world = st.fixed_dictionaries(
    {
        "radios": st.lists(_radio, min_size=3, max_size=6),
        "silent": st.lists(_silent, max_size=3),
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


def _behavior(respond: bool) -> ApBehavior:
    return ApBehavior(respond_to_wildcard_probe=respond)


def _probe(sender: int, arg: int) -> ProbeRequestFrame:
    return ProbeRequestFrame(addr2=_mac(sender), ssid=PROBED_SSIDS[arg % len(PROBED_SSIDS)])


def _provider(x: float, y: float, speed):
    if speed is None:
        return Position(float(x), float(y))
    return lambda t: Position(x + speed * t, float(y))


def _scanner(record):
    """A sniffer that records a source's first clean frame and ignores
    the rest, and the set of sources it ignores, which it grows."""
    known = set()

    def sniffer(frame, reception):
        source = frame.src_u64()
        if source not in known:
            record(frame, reception)
            if source is not None:
                known.add(source)

    return sniffer, known


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
    aps = {}  # radio name -> access point, whose behavior "behave" flips
    for k, (kind, x, y, speed, ch, sens, power) in enumerate(world["radios"]):
        if kind.endswith("ap"):
            ap = AccessPoint(
                mac=_mac(k), medium=medium, position=_provider(x, y, speed),
                rng=np.random.default_rng(k), channel=channels[ch % len(channels)],
                tx_power_dbm=power, rx_sensitivity_dbm=sens, ssid=SSID,
                behavior=_behavior(kind == "ap"),
            )
            aps[ap.radio.name] = ap
            engines.append(ap.ack_engine)
            radios.append(ap.radio)
            continue
        name = f"r{k}"
        radio = attached(Radio(
            name, medium, _provider(x, y, speed), channels[ch % len(channels)],
            tx_power_dbm=power, rx_sensitivity_dbm=sens,
        ))
        if kind == "plain":
            radio.frame_handler = lambda rec, name=name: record(name, "phy", rec)
        else:
            config = AckEngineConfig(promiscuous=kind in ("promiscuous", "scanner"))
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
            elif kind == "scanner":
                sniffer, known = _scanner(
                    lambda frame, rec, name=name: record(name, "scan", rec, frame)
                )
                ack.install_sniffer(sniffer, ignored_sources=known)
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
    ghost = attached(Radio("ghost", medium, Position(30.0, 30.0), channels[0]))
    medium.detach("ghost")  # an unattached sender: transmits, never hears

    def churn(radio, op, arg):
        attached = medium.has_radio(radio.name)
        if op == "toggle":
            if attached:
                medium.detach(radio.name)
            else:
                medium.attach(radio)
        elif op == "retune" and attached:
            radio.channel = channels[arg % len(channels)]
        elif op == "move" and attached:
            radio._position = Position(arg * 2.0, arg % 7 * 5.0)

    silents = []  # never picked by the actions: only their script moves them
    for k, (x, y, ch, sens, power, script, speak_us) in enumerate(world.get("silent", ())):
        name = f"s{k}"
        silent = attached(Radio(
            name, medium, Position(float(x), float(y)), channels[ch % len(channels)],
            tx_power_dbm=power, rx_sensitivity_dbm=sens,
        ))
        silent.frame_handler = lambda rec, name=name: record(name, "phy", rec)
        silents.append(silent)
        for time_us, op, arg in script:
            engine.call_at(time_us * 1e-6, lambda r=silent, op=op, a=arg: churn(r, op, a))
        engine.call_at(speak_us * 1e-6, lambda r=silent, k=k: medium.has_radio(r.name) and (
            r.transmit(BeaconFrame(addr2=_mac(40 + k), ssid=SSID), 6.0)))

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
        if op in ("unicast", "broadcast", "raw", "tie", "probe") and not attached:
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
        elif op == "probe":
            radio.transmit(_probe(target, arg), 6.0)
        elif op == "behave" and radio.name in aps:
            ap = aps[radio.name]
            ap.behavior = _behavior(not ap.behavior.respond_to_wildcard_probe)

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
            (r.frames_sent, r.frames_delivered, r.frames_dropped_asleep)
            for r in radios + silents
        ],
        "transmissions": medium.transmission_count,
    }


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(world=_world)
def test_production_medium_matches_reference(world):
    production = _simulate(world, Medium)
    reference = _simulate(world, ReferenceMedium)
    assert production == reference


def test_fuzzed_worlds_exercise_the_lists_built_at_attach(monkeypatch):
    # A fixed world of silent radios: each is churned (detached and
    # re-attached, retuned, moved) before its one broadcast, which reads
    # the list its last attach built and the churn pushed into.  Under
    # free space no attached static sender resolves a list cold.
    cold = []
    resolve = Medium._resolve_static

    def recording(medium, entry, tx_position, channel, power_dbm, push=False):
        if entry is not None and not push:
            cold.append(entry.name)
        return resolve(medium, entry, tx_position, channel, power_dbm, push)

    world = {
        "radios": [
            ("ack", 0, 0, None, 0, -92.0, 20.0),
            ("plain", 10, 0, None, 0, -92.0, 20.0),
            ("ap", 20, 5, None, 1, -92.0, 20.0),
        ],
        "silent": [
            (5, 5, 0, -92.0, 20.0, [(100, "toggle", 0), (300, "toggle", 0)], 2000),
            (15, 0, 1, -70.0, 5.0, [(200, "retune", 0), (400, "move", 4)], 2500),
            (30, 10, 0, -92.0, 20.0, [(500, "toggle", 0), (700, "toggle", 0)], 3000),
        ],
        "channels": 2, "csi": False, "path_loss": False, "fer": False, "stop_after": None,
        "actions": [
            (1000, "broadcast", 0, 0), (1500, "detach", 1, 0), (2200, "retune", 2, 0),
            (3500, "attach", 1, 0), (4000, "unicast", 2, 0),
        ],
        "chunks": [],
    }
    reference = _simulate(world, ReferenceMedium)
    monkeypatch.setattr(Medium, "_resolve_static", recording)
    result = _simulate(world, Medium)
    assert result == reference
    silent = result["radios"][-3:]
    assert [sent for sent, _, _ in silent] == [1, 1, 1]
    assert all(delivered for _, delivered, _ in silent)
    assert cold == []


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


def test_fuzzed_worlds_split_windows_in_both_slices(monkeypatch):
    # A fixed world whose foreign events and stops land inside a span's
    # arrivals (the fuzzer's "tie" op), so the drain takes both of its
    # window paths in both slices: the whole remainder due at once, and
    # due-time lists bisected around a split.  The same world with a CSI
    # model runs every span without fast lanes, through the same drain,
    # so a split there must match the reference too.
    spans = []

    class RecordingSpan(_ArrivalSpan):
        def __init__(self, *args):
            super().__init__(*args)
            spans.append(self)

    world = {
        "radios": [
            ("ack", 0, 0, None, 0, -92.0, 20.0),
            ("plain", 5, 0, None, 0, -92.0, 20.0),
            ("sniffer", 9, 3, None, 0, -92.0, 20.0),
            ("ack", 20, 0, None, 0, -92.0, 20.0),
            ("plain", 40, 0, None, 1, -92.0, 20.0),
        ],
        "channels": 2, "csi": False, "path_loss": False, "fer": True, "stop_after": None,
        # r0's arrivals reach r1 first and r3 last.  A tie's argument
        # picks the receiver (arg % 5), the foreign event (arg % 4: 1 is
        # a busy query, 3 a stop) and the instant (bit 5 set: the
        # arrival end, else its start).
        "actions": [(t, op, target, arg) for t, op, target, arg in [
            (0, "unicast", 0, 1), (1000, "tie", 0, 1), (2000, "tie", 0, 13),
            (3000, "tie", 0, 33), (4000, "tie", 0, 3), (5000, "tie", 2, 35),
            (6000, "broadcast", 3, 0),
        ]],
        "chunks": [],
    }
    reference = _simulate(world, ReferenceMedium)
    monkeypatch.setattr("repro.sim.medium._ArrivalSpan", RecordingSpan)
    assert _simulate(world, Medium) == reference
    assert all(span.begun == span.ended == len(span.radios) for span in spans)
    assert any(span.due_begin is not None for span in spans)
    assert any(span.due_end is not None for span in spans)
    assert any(span.due_begin is None for span in spans)
    assert any(span.due_end is None for span in spans)

    spans.clear()
    csi_world = dict(world, csi=True)
    assert _simulate(csi_world, Medium) == _simulate(csi_world, ReferenceMedium)
    assert spans and all(span.lane_mode == _LANES_SCALAR for span in spans)
    assert any(span.due_end is not None for span in spans)
    assert all(span.begun == span.ended == len(span.radios) for span in spans)


def test_fuzzed_worlds_exercise_the_probe_lanes():
    # A fixed quiet world (no CSI model, no FER, so every group frame
    # takes a lane): r0 sends a wildcard probe, a probe for the APs' SSID
    # and one for another SSID, then the silent AP r1 is flipped to
    # answer wildcard probes and r0 sends one more.
    world = {
        "radios": [
            ("ack", 0, 0, None, 0, -92.0, 20.0),
            ("silent_ap", 10, 0, None, 0, -92.0, 20.0),
            ("ap", 0, 10, None, 0, -92.0, 20.0),
            ("ack", 20, 0, None, 0, -92.0, 20.0),
        ],
        "channels": 2, "csi": False, "path_loss": False, "fer": False, "stop_after": None,
        "actions": [(1000 + 2000 * k, "probe", 0, k) for k in range(3)]
        + [(7000, "behave", 1, 0), (9000, "probe", 0, 0)],
        "chunks": [8000],
    }
    result = _simulate(world, Medium)
    assert result == _simulate(world, ReferenceMedium)
    answered = {}
    for line in result["trace"].splitlines():
        if "Probe Response" in line:
            record = json.loads(line)
            answered.setdefault(record["source"], {}).setdefault(record["info"], record["time"])
    times = {ap: sorted(responses.values()) for ap, responses in answered.items()}
    # The responding AP answers the first two probes; the silent one the
    # probe for its SSID and, once flipped, the last wildcard probe.
    assert [t < 7e-3 for t in times[str(_mac(1))]] == [True, False]
    assert [t < 7e-3 for t in times[str(_mac(2))]] == [True, True, False]


def test_fuzzed_worlds_exercise_the_source_lane(monkeypatch):
    # A fixed quiet world with two scanners: each records the first
    # clean frame of a source and then ignores the source, so repeated
    # beacons (source r1), null frames, typed and raw (source 99), and
    # probes (r2) are tallied once their source is known.  r3 sleeps
    # through a beacon and a raw frame; the plain radio hears everything.
    verdicts = []
    known_source = _ArrivalSpan._known_source

    def counting(span, sources):
        known = known_source(span, sources)
        verdicts.append(known)
        return known

    world = {
        "radios": [
            ("scanner", 0, 0, None, 0, -92.0, 20.0),
            ("ack", 10, 0, None, 0, -92.0, 20.0),
            ("plain", 0, 10, None, 0, -92.0, 20.0),
            ("scanner", 20, 0, 5, 0, -92.0, 20.0),
        ],
        "channels": 2, "csi": False, "path_loss": False, "fer": False, "stop_after": None,
        "actions": [(500 * k, op, target, arg) for k, (op, target, arg) in enumerate([
            ("broadcast", 1, 0), ("unicast", 2, 2), ("broadcast", 1, 0),
            ("sleep", 3, 0), ("raw", 1, 3), ("broadcast", 1, 0), ("wake", 3, 0),
            ("probe", 2, 0), ("broadcast", 1, 0), ("unicast", 2, 0), ("raw", 2, 3),
            ("raw", 1, 0),
        ])],
        "chunks": [3000],
    }
    reference = _simulate(world, ReferenceMedium)
    monkeypatch.setattr(_ArrivalSpan, "_known_source", counting)
    result = _simulate(world, Medium)
    assert result == reference
    assert True in verdicts and False in verdicts
    scans = Counter(entry[0] for entry in result["log"] if entry[1] == "scan")
    assert scans == {"r0": 3, "r3": 3}


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
        radio = attached(Radio(name, medium, Position(x, 0.0), 6))
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


@pytest.mark.parametrize("instant", ["start", "end"])
def test_run_limit_between_two_arrivals_of_a_span(instant):
    # b's frame reaches x (30 m) before a (90 m).  A run that ends
    # between the two arrival starts (or ends) leaves a's for the next
    # run, and the clock stops at the limit.  ACK engines under other
    # addresses make both arrival ends lane tallies, drained in one
    # window.
    def script(engine, medium, radios, log):
        AckEngine(radios["x"], _mac(5))
        AckEngine(radios["a"], _mac(6))
        transmission = radios["b"].transmit(_null_to_x(), 6.0)
        limit = 60.0 / 299_792_458.0
        if instant == "end":
            limit += transmission.duration
        engine.run_until(limit)
        log.append(("limit", engine.now == limit, medium.is_busy_for("x"),
                    medium.is_busy_for("a")))

    busy = [entry[1:] for entry in _both(script) if entry[0] == "limit"]
    assert busy == [(True, True, False) if instant == "start" else (True, False, True)]


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
    x = attached(Radio("x", medium, Position(0.0, 0.0), 6))
    ack = AckEngine(x, _mac(0))
    ack.install_mac_handler(lambda frame, rec: None, passive_keys=ALL_FRAME_KEYS)
    a = attached(Radio("a", medium, Position(60.0, 0.0), 6))

    def record(tag):
        return lambda *args: log.append((tag, engine.now, type(args[0]).__name__))

    def at(time, action):
        engine.call_at(time, action)

    script(x, ack, medium, at, record)
    for k in range(2):
        at(1e-3 * k, lambda: a.transmit(BeaconFrame(addr2=_mac(1), ssid="net"), 6.0))
    engine.run()
    observed = (log, asdict(ack.stats), x.frames_delivered, x.frames_dropped_asleep)
    return observed, sum(x.lanes[TALLY_FCS_FAIL : TALLY_GROUP + 1])


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
            attached(Radio(f"r{k}", medium, Position(10.0 * k, 0.0), 6)) for k in range(6)
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
# unicast frames to receiver 0 (which, with an ACK engine, answers) with
# group frames: beacons, wildcard probe requests and directed ones, for
# the field's SSID and for another, across 300 parked receivers on a
# deterministic scatter.  Sensitivities rotate so the field straddles
# the range limit, and one receiver in SLEEPER_EVERY is a radio asleep
# for the whole run.  Shape "sink" fills the rest of the field with bare
# RadioPort sinks (no lanes, so every arrival is a full Reception);
# shape "ack" gives every receiver an ACK engine, so most arrivals end
# in lane tallies, and makes one in AP_EVERY an access point that
# ignores wildcard probes (the synthetic city's) and answers the others
# for its SSID.
# ---------------------------------------------------------------------------

DENSE_RECEIVERS = 300
DENSE_TRANSMISSIONS = 48
SLEEPER_EVERY = 50
AP_EVERY = 10
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
    """Run the field on ``medium_cls``; return what is observable, the
    lane tally, and the group tally of the APs."""
    engine = Engine(metrics=MetricsRegistry())
    medium = medium_cls(engine, rng=np.random.default_rng(5))
    sender = attached(Radio("tx", medium, Position(0.0, 0.0, 10.0), 6))
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
        elif shape == "ack" and index % AP_EVERY == AP_EVERY // 2:
            ap = AccessPoint(
                mac=_rx_mac(index), medium=medium, position=position,
                rng=np.random.default_rng(index), rx_sensitivity_dbm=sensitivity,
                ssid=SSID, behavior=_behavior(False),
            )
            engines.append(ap.ack_engine)
            radio = ap.radio
        else:
            radio = attached(Radio(name, medium, position, 6, rx_sensitivity_dbm=sensitivity))
            if shape == "ack":
                engines.append(AckEngine(radio, _rx_mac(index)))
            if sleeper:
                radio.sleep()
        receivers.append(radio)

    unicast = NullDataFrame(addr1=_rx_mac(0), addr2=_mac(0xFE))
    group = [BeaconFrame(addr2=_mac(0xFE), ssid=SSID)] + [
        _probe(0xFE, arg) for arg in range(len(PROBED_SSIDS))
    ]
    for k in range(DENSE_TRANSMISSIONS):
        frame = unicast if k % 2 else group[k // 2 % len(group)]
        engine.call_at(k * 1e-3, lambda frame=frame: sender.transmit(frame, 6.0))
    engine.run()
    observed = {
        "transmissions": medium.transmission_count,
        "radios": [(r.frames_delivered, r.frames_dropped_asleep) for r in receivers],
        "stats": [asdict(ack.stats) for ack in engines],
        "clock": engine.now,
    }
    ap_group_tally = sum(
        r.lanes[TALLY_GROUP] for index, r in enumerate(receivers)
        if shape == "ack" and index % AP_EVERY == AP_EVERY // 2
    )
    lanes = sum(
        sum(r.lanes[TALLY_FCS_FAIL : TALLY_GROUP + 1])
        for r in receivers
        if isinstance(r, Radio)
    )
    return observed, lanes, ap_group_tally


@pytest.mark.parametrize("shape", ["sink", "ack"])
def test_dense_field_matches_reference(shape):
    production, tallied, ap_tallied = _dense_field(shape, Medium)
    reference, _, _ = _dense_field(shape, ReferenceMedium)
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
        # The APs tallied wildcard probes (and beacons), and answered the
        # probes for their SSID: those responses were acknowledged.
        assert ap_tallied > 0
        assert production["stats"][0]["acks_sent"] > 0
    else:
        assert tallied == ap_tallied == 0


# ---------------------------------------------------------------------------
# Dense churn.  CHURN_RADIOS parked ACK-engine radios share one channel, so
# a sender's live delivery list passes 64 entries (and its MAC column
# gets a numpy view) while the same radio objects leave and rejoin in
# bursts between transmissions from many senders.  A receiver drives
# through the field, one radio retunes away, one is moved far off, and
# one radio leaves and another rejoins while a frame is in flight to
# them, so those pushes land in a list an arrival span is still reading
# (the driving receiver is away then: a mobile in range would give the
# span a private merged copy instead).
# ---------------------------------------------------------------------------

CHURN_RADIOS = 80
CHURN_SENDERS = 60  # radios 0..59 send; the churned radios are 60..79
CHURN_TRANSMISSIONS = 48
CHURN_SPACING = 400e-6
#: Sensitivities rotate so the farthest pairs of the field fall out of range.
CHURN_SENSITIVITIES = (-92.0, -75.0, -60.0)
#: Radios from this index on get their ACK engine mid-run, so the MAC and
#: lane list they publish must reach lists that already hold them.
LATE_ENGINES = CHURN_SENDERS - 6


def _dense_churn(medium_cls):
    """Run the churned field on ``medium_cls``; return what is observable.

    On the production medium also return, for the in-flight detach and
    attach: whether the frame's span was reading the sender's live list,
    whether the span's receivers stayed as they were, and whether the
    live list is a separate copy afterwards.
    """
    engine = Engine(metrics=MetricsRegistry())
    trace = FrameTrace()
    medium = medium_cls(engine, trace=trace, rng=np.random.default_rng(5))
    log = []
    radios, engines = [], []
    for index in range(CHURN_RADIOS):
        position = Position(5.0 + (index * 37) % 130, 5.0 + (index * 53) % 95, 1.5)
        sensitivity = CHURN_SENSITIVITIES[index % len(CHURN_SENSITIVITIES)]
        radio = attached(
            Radio(f"c{index:02d}", medium, position, 6, rx_sensitivity_dbm=sensitivity)
        )
        if index < LATE_ENGINES:
            engines.append(AckEngine(radio, _rx_mac(index)))
        radios.append(radio)

    def drive(t):
        if 13e-3 < t < 16e-3:
            return Position(5000.0, 5000.0, 1.5)  # out of everybody's range
        return Position(-20.0 + 8000.0 * t, 50.0, 1.5)

    rover = attached(Radio("rover", medium, drive, 6))
    rover.frame_handler = lambda rec: log.append((
        engine.now, rec.transmission.sender, rec.rssi_dbm, rec.snr_db, rec.fcs_ok,
        rec.collided, rec.while_transmitting,
    ))
    in_flight = []

    def mutate_in_flight(sender, mutation):
        if medium_cls is not Medium:
            return mutation()
        (delivery,) = medium._entries[sender.name].lists.values()
        (span,) = [s for s in medium._live if s.transmission.sender == sender.name]
        held = span.radios is delivery.radios
        before = list(span.radios)
        mutation()
        in_flight.append((held, span.radios == before, delivery.radios is not span.radios))

    def send(k):
        index = (k * 7) % CHURN_SENDERS
        if k % 3:
            frame = BeaconFrame(addr2=_rx_mac(index), ssid="net")
        else:
            target = (k * 11) % CHURN_RADIOS
            frame = NullDataFrame(addr1=_rx_mac(target), addr2=_rx_mac(index))
        radios[index].transmit(frame, 6.0)

    def burst(group, leave):
        for radio in group:
            if leave:
                medium.detach(radio.name)
            else:
                medium.attach(radio)

    for k in range(CHURN_TRANSMISSIONS):
        engine.call_at(k * CHURN_SPACING, lambda k=k: send(k))
    for index in range(LATE_ENGINES, CHURN_RADIOS):
        engine.call_at(5.5 * CHURN_SPACING, lambda index=index: engines.append(
            AckEngine(radios[index], _rx_mac(index))))
    # Bursts: ten radios leave after one transmission and rejoin after
    # the next, and five leave and rejoin within one event.
    for b, start in enumerate((2, 9, 16, 23, 30)):
        group = radios[CHURN_SENDERS + 5 * (b % 4): CHURN_SENDERS + 5 * (b % 4) + 10]
        at = (start + 0.5) * CHURN_SPACING
        engine.call_at(at, lambda g=group: burst(g, True))
        engine.call_at(at + CHURN_SPACING, lambda g=group: burst(g, False))
        quick = radios[CHURN_SENDERS + 15 - b: CHURN_SENDERS + 20 - b]
        engine.call_at(at + 1.5 * CHURN_SPACING, lambda g=quick: (burst(g, True), burst(g, False)))
    # While transmission 36's frame is on the air: a receiver leaves,
    # then another one rejoins.
    sender = radios[(36 * 7) % CHURN_SENDERS]
    victim, joiner = radios[CHURN_RADIOS - 1], radios[CHURN_RADIOS - 2]
    engine.call_at(35.5 * CHURN_SPACING, lambda: medium.detach(joiner.name))
    engine.call_at(36 * CHURN_SPACING + 20e-6, lambda: mutate_in_flight(
        sender, lambda: medium.detach(victim.name)))
    engine.call_at(36 * CHURN_SPACING + 40e-6, lambda: mutate_in_flight(
        sender, lambda: medium.attach(joiner)))
    engine.call_at(40.5 * CHURN_SPACING, lambda: medium.attach(victim))
    # One retune away and one move out of everybody's range.
    engine.call_at(12.5 * CHURN_SPACING, lambda: setattr(radios[CHURN_SENDERS + 2], "channel", 11))
    engine.call_at(20.5 * CHURN_SPACING, lambda: setattr(
        radios[CHURN_SENDERS + 3], "_position", Position(400.0, 400.0, 1.5)))
    engine.run()
    counters = {
        key: value
        for key, value in engine.metrics.snapshot()["counters"].items()
        if not key.startswith("engine.")
    }
    observed = {
        "log": log,
        "trace": trace.to_jsonl(),
        "counters": counters,
        "stats": [asdict(ack.stats) for ack in engines],
        "radios": [
            (r.frames_sent, r.frames_delivered, r.frames_dropped_asleep) for r in radios
        ],
        "transmissions": medium.transmission_count,
        "clock": engine.now,
    }
    return observed, in_flight, medium


def test_dense_churn_matches_reference():
    production, in_flight, medium = _dense_churn(Medium)
    reference, _, _ = _dense_churn(ReferenceMedium)
    assert production == reference
    # The in-flight detach pushed into the list the frame's span was
    # reading: it copied the list first, so the span's receivers stayed
    # as they were, through the attach that followed too.
    assert in_flight == [(True, True, True), (False, True, True)]
    assert medium.held_copies > 0
    assert production["log"] and production["counters"]["ack.acks_sent"] > 0
    # Lists past 64 receivers, so their MAC columns were vectorized, and
    # every list carries each receiver's current MAC and lane list.
    lists = [
        delivery for entry in medium._entries.values() for delivery in entry.lists.values()
    ]
    assert max(len(delivery.radios) for delivery in lists) > 64
    for delivery in lists:
        assert delivery.macs == [radio.rx_mac_u64 for radio in delivery.radios]
        assert all(
            lanes is radio.lanes for radio, lanes in zip(delivery.radios, delivery.lanes)
        )
