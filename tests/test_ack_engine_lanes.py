"""The ACK engine's reception lanes.

The medium pre-classifies arrivals into lanes and tallies those the
receiver's published lane mask covers instead of building a
``Reception``.  These tests pin the mask an engine publishes for each
receiver configuration — where it must refuse and defer to the scalar
path, such as a (nonstandard) group-bit own MAC — and the promises
devices make (a station's, an access point's on wildcard probe requests,
and a monitor dongle's while nobody listens to it or every listener
promises which sources it ignores) against the lane-free
reference medium, plus the duplicate cache's exact eviction threshold
and the ACK-but-don't-deliver retry semantics.
"""

from dataclasses import asdict

import numpy as np
import pytest

from repro.devices.access_point import AccessPoint, ApBehavior
from repro.devices.dongle import EVERY_SOURCE, MonitorDongle
from repro.devices.station import Station
from repro.mac.ack_engine import _DUPLICATE_CACHE_SIZE, AckEngine, AckEngineConfig
from repro.mac.addresses import ATTACKER_FAKE_MAC, MacAddress
from repro.mac.frames import (
    SUBTYPE_BEACON,
    SUBTYPE_PROBE_REQUEST,
    BeaconFrame,
    FrameType,
    NullDataFrame,
    ProbeRequestFrame,
)
from repro.phy.radio import Radio
from repro.sim.engine import Engine
from repro.sim.medium import (
    LANE_GROUP,
    LANE_NOT_FOR_ME,
    TALLY_FCS_FAIL,
    TALLY_GROUP,
    Medium,
    Reception,
    Transmission,
    group_lane,
)
from repro.sim.world import Position
from tests.conftest import attached, fresh_mac
from tests.reference_medium import ReferenceMedium

#: First octet 0x01: the individual/group bit is set, which no standard
#: station address has — exactly the case the fast lanes refuse to guess.
GROUP_MAC = MacAddress("01:aa:bb:cc:dd:ee")
SENDER_MAC = MacAddress("02:11:22:33:44:55")


ALL_FRAME_KEYS = frozenset((ftype, subtype) for ftype in FrameType for subtype in range(16))
PROBE_REQUEST_KEY = (FrameType.MANAGEMENT, SUBTYPE_PROBE_REQUEST)


def _reception(frame) -> Reception:
    transmission = Transmission(
        "tx", frame, 0.0, 1e-4, 20.0, 6.0, 6, Position(0, 0)
    )
    return Reception(frame, transmission, -40.0, 55.0, 0.0, 1e-4, True)


class TestGroupBitMac:
    def test_group_lane_refused(self, medium):
        radio = attached(Radio("victim", medium, Position(0, 0)))
        victim = AckEngine(radio, GROUP_MAC)
        assert victim._group_mac is True
        mask = radio.lanes[0]
        # No group lane, keyed or not: it would need an exact
        # own-address comparison to stay correct for a group-bit MAC, so
        # those arrivals take the scalar path.
        assert not mask & (1 << LANE_GROUP)
        assert not mask & (1 << group_lane(FrameType.MANAGEMENT, SUBTYPE_BEACON))
        # Not-for-me stays consumable: the scalar path would also only
        # bump counters for a clean unicast addressed elsewhere.
        assert mask & (1 << LANE_NOT_FOR_ME)
        # Publishing counts nothing.
        assert victim.stats.frames_seen == 0
        assert radio.frames_delivered == 0

    def test_broadcast_still_delivered(self, engine, medium):
        radio = attached(Radio("victim", medium, Position(0, 0)))
        victim = AckEngine(radio, GROUP_MAC)
        heard = []
        victim.mac_handler = lambda frame, reception: heard.append(frame)
        sender = attached(Radio("sender", medium, Position(2, 0)))
        sender.transmit(BeaconFrame(addr2=SENDER_MAC, ssid="net"), 6.0)
        engine.run_until(0.01)
        assert len(heard) == 1
        assert victim.stats.passed_up == 1

    def test_frame_to_group_bit_own_mac_delivered_never_acked(self, engine, medium):
        radio = attached(Radio("victim", medium, Position(0, 0)))
        victim = AckEngine(radio, GROUP_MAC)
        heard = []
        victim.mac_handler = lambda frame, reception: heard.append(frame)
        sender = attached(Radio("sender", medium, Position(2, 0)))
        sender.transmit(
            NullDataFrame(addr1=GROUP_MAC, addr2=ATTACKER_FAKE_MAC), 6.0
        )
        engine.run_until(0.01)
        # Exact own-address match wins over the group-bit heuristic for
        # delivery: the frame reaches the MAC exactly once.  No ACK goes
        # out, though — a group-bit RA is never acknowledged, own
        # address or not.
        assert len(heard) == 1
        assert victim.stats.passed_up == 1
        assert victim.stats.acks_sent == 0


class TestDuplicateCacheEviction:
    @pytest.fixture
    def victim(self, medium):
        radio = attached(Radio("victim", medium, Position(0, 0)))
        return AckEngine(radio, MacAddress("02:aa:aa:aa:aa:01"))

    @staticmethod
    def _data(sequence: int, retry: bool = False) -> NullDataFrame:
        frame = NullDataFrame(
            addr1=MacAddress("02:aa:aa:aa:aa:01"), addr2=SENDER_MAC
        )
        frame.sequence = sequence
        frame.retry = retry
        return frame

    def test_eviction_at_exactly_cache_size(self, victim):
        for sequence in range(_DUPLICATE_CACHE_SIZE):
            frame = self._data(sequence)
            victim._pass_up_unicast(frame, _reception(frame))
        assert len(victim._duplicate_cache) == _DUPLICATE_CACHE_SIZE
        # Retry of the oldest entry: still cached, still filtered.
        retry = self._data(0, retry=True)
        victim._pass_up_unicast(retry, _reception(retry))
        assert victim.stats.duplicates_dropped == 1
        assert victim.stats.passed_up == _DUPLICATE_CACHE_SIZE
        # One more distinct key evicts exactly the oldest entry...
        frame = self._data(_DUPLICATE_CACHE_SIZE)
        victim._pass_up_unicast(frame, _reception(frame))
        assert len(victim._duplicate_cache) == _DUPLICATE_CACHE_SIZE
        # ...so the same retry is no longer recognized as a duplicate.
        victim._pass_up_unicast(retry, _reception(retry))
        assert victim.stats.duplicates_dropped == 1
        assert victim.stats.passed_up == _DUPLICATE_CACHE_SIZE + 2

    def test_non_retry_same_sequence_redelivered(self, victim):
        # The cache only filters frames flagged as retries; a fresh frame
        # reusing a sequence number (counter wrap) is delivered again.
        for _ in range(2):
            frame = self._data(7)
            victim._pass_up_unicast(frame, _reception(frame))
        assert victim.stats.passed_up == 2
        assert victim.stats.duplicates_dropped == 0


class TestRetryDuplicatesAcrossModes:
    @pytest.mark.parametrize("lanes", [True, False])
    def test_retry_acked_but_not_redelivered(self, lanes):
        # lanes=False: the reference medium, which has no reception lanes.
        engine = Engine()
        medium = (Medium if lanes else ReferenceMedium)(engine)
        radio = attached(Radio("victim", medium, Position(0, 0)))
        victim = AckEngine(radio, MacAddress("02:aa:aa:aa:aa:02"))
        delivered = []
        victim.mac_handler = lambda frame, reception: delivered.append(frame)
        sender = attached(Radio("sender", medium, Position(3, 0)))

        first = NullDataFrame(
            addr1=MacAddress("02:aa:aa:aa:aa:02"), addr2=ATTACKER_FAKE_MAC
        )
        first.sequence = 42
        retry = NullDataFrame(
            addr1=MacAddress("02:aa:aa:aa:aa:02"), addr2=ATTACKER_FAKE_MAC
        )
        retry.sequence = 42
        retry.retry = True
        sender.transmit(first, 6.0)
        engine.call_after(0.002, lambda: sender.transmit(retry, 6.0))
        engine.run_until(0.01)
        # The ACK automaton answers both copies — duplicate filtering
        # runs above it — but the MAC sees the frame exactly once, on
        # the lane fast path and the reference's scalar path alike.
        assert victim.stats.acks_sent == 2
        assert len(delivered) == 1
        assert victim.stats.duplicates_dropped == 1


# ---------------------------------------------------------------------------
# Published lane masks against the lane-free reference medium: every
# receiver configuration x every lane, each run on both media.
# ---------------------------------------------------------------------------

RX_MAC = MacAddress("02:aa:00:00:00:01")
OTHER_MAC = MacAddress("02:aa:00:00:00:02")
SENDER_MAC_U64 = int.from_bytes(SENDER_MAC.bytes, "big")
OTHER_MAC_U64 = int.from_bytes(OTHER_MAC.bytes, "big")
#: The network an AP receiver serves.
AP_SSID = "net"

#: Every probe lane: "probe_request" is a wildcard probe (empty SSID),
#: the other two are directed probes for the AP's own and another SSID.
PROBE_LANES = {"probe_request", "own_ssid_probe", "other_ssid_probe"}
#: Receiver configuration -> the lanes the production medium tallies for it.
CONFIGS = {
    "plain": set(),
    "default": {"collision", "not_for_me", "beacon"} | PROBE_LANES,
    "promiscuous": {"collision", "not_for_me"},
    # A monitor dongle's sniffer is passive until someone listens; then
    # only the frames of sources every listener ignores are tallied.
    "monitor": {"collision", "not_for_me", "beacon"} | PROBE_LANES,
    "monitor_with_listener": {"collision"},
    "monitor_ignoring_every_source": {"collision", "not_for_me", "beacon"} | PROBE_LANES,
    "monitor_ignoring_the_sender": {"collision", "not_for_me", "beacon"} | PROBE_LANES,
    "monitor_ignoring_another_source": {"collision"},
    "monitor_with_a_listener_without_promise": {"collision"},
    "monitor_with_two_source_sets": {"collision"},
    "group_bit_mac": {"collision", "not_for_me"},
    "passive_sniffer": {"collision", "not_for_me", "beacon"} | PROBE_LANES,
    "active_sniffer": {"collision"},
    "probe_request_handler": {"collision", "not_for_me", "beacon"},
    "asleep": set(),
    "woken": {"collision", "not_for_me", "beacon"} | PROBE_LANES,
    "frame_handler_swapped": set(),
    "mac_handler_swapped": {"collision", "not_for_me"},
    # Devices: of the probe lanes, only a station and an AP that ignores
    # wildcard probes may tally any.
    "station": {"collision", "not_for_me", "beacon"} | PROBE_LANES,
    "silent_ap": {"collision", "not_for_me", "beacon", "probe_request"},
    "responding_ap": {"collision", "not_for_me", "beacon"},
    "probe_logging_ap": {"collision", "not_for_me", "beacon"},
}
#: Monitor configuration -> the ``ignored_sources`` promise of each
#: listener; a listener logs every frame its promise leaves it.
MONITOR_LISTENERS = {
    "monitor": (),
    "monitor_with_listener": (None,),
    "monitor_ignoring_every_source": (EVERY_SOURCE,),
    "monitor_ignoring_the_sender": ({SENDER_MAC_U64},),
    "monitor_ignoring_another_source": ({OTHER_MAC_U64},),
    "monitor_with_a_listener_without_promise": (EVERY_SOURCE, None),
    "monitor_with_two_source_sets": ({SENDER_MAC_U64}, {SENDER_MAC_U64}),
}
LANES = ("collision", "not_for_me", "beacon", "probe_request", "own_ssid_probe",
         "other_ssid_probe")
#: The (configuration, lane) pairs whose receiver answers the probes.
ANSWERED = {
    ("silent_ap", "own_ssid_probe"),
    ("responding_ap", "probe_request"),
    ("responding_ap", "own_ssid_probe"),
    ("probe_logging_ap", "own_ssid_probe"),
}


class _ProbeLoggingAp(AccessPoint):
    """Ignores wildcard probes too, but overrides the handler: no promise."""

    def on_probe_request(self, frame, reception):
        self.log.append(("probe", frame.ssid))
        super().on_probe_request(frame, reception)


def _ap(cls, medium, behavior):
    return cls(
        mac=RX_MAC, medium=medium, position=Position(0.0, 0.0),
        rng=np.random.default_rng(3), ssid=AP_SSID, behavior=behavior,
    )


def _listener(ignored, sniff):
    """A dongle listener that keeps its ``ignored_sources`` promise."""
    if ignored is None:
        return sniff

    def listener(frame, reception):
        source = frame.src_u64()
        if source is None or source not in ignored:
            sniff(frame, reception)

    return listener


def _receiver(config, medium, log):
    """Attach the receiver ``config`` at the origin; return its radio and engine."""

    def record(tag):
        return lambda *args: log.append((tag, type(args[0]).__name__))

    silent = ApBehavior(respond_to_wildcard_probe=False)
    if config.startswith("monitor"):
        device = MonitorDongle(
            mac=RX_MAC, medium=medium, position=Position(0.0, 0.0),
            rng=np.random.default_rng(3),
        )
        for ignored in MONITOR_LISTENERS[config]:
            device.add_listener(_listener(ignored, record("sniff")), ignored)
        return device.radio, device.ack_engine
    if config == "station":
        device = Station(
            mac=RX_MAC, medium=medium, position=Position(0.0, 0.0),
            rng=np.random.default_rng(3),
        )
        return device.radio, device.ack_engine
    if config.endswith("_ap"):
        if config == "probe_logging_ap":
            device = _ap(_ProbeLoggingAp, medium, silent)
            device.log = log
        else:
            device = _ap(AccessPoint, medium, ApBehavior() if config == "responding_ap" else silent)
        return device.radio, device.ack_engine
    radio = attached(Radio("rx", medium, Position(0.0, 0.0)))
    return radio, _configure(config, radio, record)


def _configure(config, radio, record):
    """Set the bare ``radio`` up as ``config``; return its engine, if any."""
    if config == "plain":
        radio.frame_handler = record("phy")
        return None
    ack = AckEngine(
        radio,
        GROUP_MAC if config == "group_bit_mac" else RX_MAC,
        AckEngineConfig(promiscuous=config == "promiscuous"),
    )
    if config == "passive_sniffer":
        ack.install_sniffer(lambda frame, reception: None, passive=True)
    elif config == "active_sniffer":
        ack.install_sniffer(record("sniff"))
    elif config == "probe_request_handler":
        # Acts on probe requests only, and promises so for the rest.
        ack.install_mac_handler(
            lambda frame, reception: (
                (frame.ftype, frame.subtype) != PROBE_REQUEST_KEY
                or record("mac")(frame)
            ),
            passive_keys=ALL_FRAME_KEYS - {PROBE_REQUEST_KEY},
        )
    elif config == "asleep":
        radio.sleep()
    elif config == "woken":
        radio.sleep()
        radio.wake()
    elif config == "frame_handler_swapped":
        radio.frame_handler = record("phy")
    elif config == "mac_handler_swapped":
        ack.install_mac_handler(lambda frame, reception: None, passive_keys=ALL_FRAME_KEYS)
        ack.mac_handler = record("mac")
    return ack


def _probe(ssid=""):
    return ProbeRequestFrame(addr2=SENDER_MAC, ssid=ssid)


def _lane_run(medium_cls, config, lane):
    engine = Engine()
    medium = medium_cls(engine)
    log = []
    radio, ack = _receiver(config, medium, log)
    # "b" is close enough to "a" at rx for their frames to collide.
    a = attached(Radio("a", medium, Position(60.0, 0.0)))
    b = attached(Radio("b", medium, Position(-30.0, 0.0)))
    for k in range(3):
        if lane == "collision":
            frames = [(a, NullDataFrame(addr1=RX_MAC, addr2=SENDER_MAC)),
                      (b, NullDataFrame(addr1=RX_MAC, addr2=SENDER_MAC))]
        elif lane == "not_for_me":
            frames = [(a, NullDataFrame(addr1=OTHER_MAC, addr2=SENDER_MAC))]
        elif lane == "beacon":
            frames = [(a, BeaconFrame(addr2=SENDER_MAC, ssid="net"))]
        elif lane == "own_ssid_probe":
            frames = [(a, _probe(AP_SSID))]
        elif lane == "other_ssid_probe":
            frames = [(a, _probe("elsewhere"))]
        else:
            frames = [(a, _probe())]
        for sender, frame in frames:
            engine.call_at(2e-3 * k, lambda s=sender, f=frame: s.transmit(f, 6.0))
    engine.run()
    observed = {
        "log": log,
        "stats": None if ack is None else asdict(ack.stats),
        "radio": (radio.frames_sent, radio.frames_delivered, radio.frames_dropped_asleep),
    }
    return observed, sum(radio.lanes[TALLY_FCS_FAIL : TALLY_GROUP + 1])


@pytest.mark.parametrize("lane", LANES)
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_published_lanes_match_reference(config, lane):
    production, tallied = _lane_run(Medium, config, lane)
    reference, _ = _lane_run(ReferenceMedium, config, lane)
    assert production == reference
    # The tallies show which arrivals skipped the scalar path: the
    # published mask is neither too wide (the comparison above) nor
    # narrower than the configuration allows.
    assert (tallied > 0) == (lane in CONFIGS[config])
    # Only an AP answers a probe, and only one it is meant to.
    assert (production["radio"][0] > 0) == ((config, lane) in ANSWERED)


@pytest.mark.parametrize("respond_after", [True, False], ids=["wakes_up", "falls_silent"])
def test_replacing_ap_behavior_republishes_the_promise(respond_after):
    # Three wildcard probes, 10 ms apart; the AP's behavior is replaced
    # between the first and the second.  The prober acknowledges probe
    # responses, so each answered probe gets exactly one.
    def run(medium_cls):
        engine = Engine()
        medium = medium_cls(engine)
        ap = _ap(AccessPoint, medium, ApBehavior(respond_to_wildcard_probe=not respond_after))
        prober = attached(Radio("prober", medium, Position(20.0, 0.0)))
        heard = []
        AckEngine(prober, SENDER_MAC).mac_handler = (
            lambda frame, reception: heard.append((engine.now, type(frame).__name__))
        )
        for k in range(3):
            engine.call_at(10e-3 * k, lambda: prober.transmit(_probe(), 6.0))
        engine.call_at(5e-3, lambda: setattr(
            ap, "behavior", ApBehavior(respond_to_wildcard_probe=respond_after)))
        engine.run()
        return (heard, asdict(ap.ack_engine.stats)), ap.radio.lanes[TALLY_GROUP]

    production, tallied = run(Medium)
    assert production == run(ReferenceMedium)[0]
    heard, _ = production
    answered = [at for at, kind in heard if kind == "ProbeResponseFrame"]
    if respond_after:
        assert len(answered) == 2 and min(answered) > 10e-3
        assert tallied == 1
    else:
        assert len(answered) == 1 and max(answered) < 5e-3
        assert tallied == 2


def test_group_passivity_evaluated_once_per_class_and_key(medium, rng):
    calls = []

    class QuietStation(Station):
        @classmethod
        def _dispatch_is_passive(cls, key):
            calls.append(key)
            return super()._dispatch_is_passive(key)

    stations = [
        QuietStation(mac=fresh_mac(), medium=medium, position=Position(k, 0), rng=rng)
        for k in range(4)
    ]
    # One verdict per frame key for the class, none per further engine.
    assert len(calls) == len(ALL_FRAME_KEYS)
    assert set(calls) == ALL_FRAME_KEYS
    assert len({station.radio.lanes[0] for station in stations}) == 1
