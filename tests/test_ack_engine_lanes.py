"""Edge cases of the ACK engine's batched reception lanes.

The vectorized medium pre-classifies arrivals into lanes and the engine's
``_on_reception_lane`` consumes the counter-only ones.  These tests pin
the boundaries where the fast path must refuse and defer to the scalar
path — a (nonstandard) group-bit own MAC — plus the duplicate cache's
exact eviction threshold and the ACK-but-don't-deliver retry semantics
on the production medium and on the lane-free reference medium.
"""

import pytest

from repro.mac.ack_engine import _DUPLICATE_CACHE_SIZE, AckEngine
from repro.mac.addresses import ATTACKER_FAKE_MAC, MacAddress
from repro.mac.frames import BeaconFrame, NullDataFrame
from repro.phy.radio import Radio
from repro.sim.engine import Engine
from repro.sim.medium import LANE_GROUP, LANE_NOT_FOR_ME, Medium, Reception, Transmission
from repro.sim.world import Position
from tests.reference_medium import ReferenceMedium

#: First octet 0x01: the individual/group bit is set, which no standard
#: station address has — exactly the case the fast lanes refuse to guess.
GROUP_MAC = MacAddress("01:aa:bb:cc:dd:ee")
SENDER_MAC = MacAddress("02:11:22:33:44:55")


class _Span:
    """Minimal stand-in for an arrival span on the direct lane calls."""

    frame_key = (0, 8)


def _reception(frame) -> Reception:
    transmission = Transmission(
        "tx", frame, 0.0, 1e-4, 20.0, 6.0, 6, Position(0, 0)
    )
    return Reception(frame, transmission, -40.0, 55.0, 0.0, 1e-4, True)


class TestGroupBitMac:
    def test_group_lane_refused(self, medium):
        radio = Radio("victim", medium, Position(0, 0))
        victim = AckEngine(radio, GROUP_MAC)
        assert victim._group_mac is True
        # The group lane would need an exact own-address comparison to
        # stay correct for a group-bit MAC; the lane must return False
        # (scalar path) and mutate nothing.
        assert victim._on_reception_lane(LANE_GROUP, _Span(), 0) is False
        assert victim.stats.frames_seen == 0
        assert radio.frames_delivered == 0
        # Not-for-me stays consumable: the scalar path would also only
        # bump counters for a clean unicast addressed elsewhere.
        assert victim._on_reception_lane(LANE_NOT_FOR_ME, _Span(), 0) is True
        assert victim.stats.frames_seen == 1

    def test_broadcast_still_delivered(self, engine, medium):
        radio = Radio("victim", medium, Position(0, 0))
        victim = AckEngine(radio, GROUP_MAC)
        heard = []
        victim.mac_handler = lambda frame, reception: heard.append(frame)
        sender = Radio("sender", medium, Position(2, 0))
        sender.transmit(BeaconFrame(addr2=SENDER_MAC, ssid="net"), 6.0)
        engine.run_until(0.01)
        assert len(heard) == 1
        assert victim.stats.passed_up == 1

    def test_frame_to_group_bit_own_mac_delivered_never_acked(self, engine, medium):
        radio = Radio("victim", medium, Position(0, 0))
        victim = AckEngine(radio, GROUP_MAC)
        heard = []
        victim.mac_handler = lambda frame, reception: heard.append(frame)
        sender = Radio("sender", medium, Position(2, 0))
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
        radio = Radio("victim", medium, Position(0, 0))
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
        radio = Radio("victim", medium, Position(0, 0))
        victim = AckEngine(radio, MacAddress("02:aa:aa:aa:aa:02"))
        delivered = []
        victim.mac_handler = lambda frame, reception: delivered.append(frame)
        sender = Radio("sender", medium, Position(3, 0))

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
