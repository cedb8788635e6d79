"""The ACK engine — the Polite WiFi automaton itself.

These tests pin down the paper's findings as executable facts:
fake frames are ACKed within SIFS; validation cannot intervene; RTS draws
CTS; blocklists and deauth logic run too late to matter.
"""

import pytest

from repro.crypto.timing_model import DecodeTimingModel, DecoderClass
from repro.mac.ack_engine import AckEngine, AckEngineConfig
from repro.mac.addresses import ATTACKER_FAKE_MAC, BROADCAST, MacAddress
from repro.mac.frames import (
    AckFrame,
    DataFrame,
    NullDataFrame,
    QosNullFrame,
    RtsFrame,
)
from repro.mac.serialization import serialize
from repro.phy.constants import Band, sifs
from repro.phy.plcp import frame_airtime
from repro.phy.radio import Radio
from repro.sim.world import Position
from tests.conftest import attached

VICTIM_MAC = MacAddress("f2:6e:0b:11:22:33")


@pytest.fixture
def victim_radio(medium):
    return attached(Radio(str(VICTIM_MAC), medium, Position(0, 0)))


@pytest.fixture
def victim_engine(victim_radio):
    return AckEngine(victim_radio, VICTIM_MAC)


@pytest.fixture
def sniffer(medium):
    """A bare radio that records everything it hears."""
    radio = attached(Radio("sniffer", medium, Position(3, 0)))
    radio.received = []
    radio.frame_handler = radio.received.append
    return radio


@pytest.fixture
def attacker_radio(medium):
    return attached(Radio("attacker", medium, Position(5, 0)))


def _fake_null():
    return NullDataFrame(addr1=VICTIM_MAC, addr2=ATTACKER_FAKE_MAC)


def _acks_heard(sniffer):
    return [
        r.frame
        for r in sniffer.received
        if getattr(r.frame, "is_ack", False)
    ]


class TestPoliteness:
    def test_fake_frame_is_acked(self, engine, victim_engine, attacker_radio, sniffer):
        attacker_radio.transmit(_fake_null(), 6.0)
        engine.run_until(0.01)
        acks = _acks_heard(sniffer)
        assert len(acks) == 1
        assert acks[0].addr1 == ATTACKER_FAKE_MAC
        assert victim_engine.stats.acks_sent == 1

    def test_ack_goes_out_exactly_one_sifs_after_frame_end(
        self, engine, victim_engine, attacker_radio, trace
    ):
        frame = _fake_null()
        airtime = frame_airtime(frame.wire_length(), 6.0)
        attacker_radio.transmit(frame, 6.0)
        engine.run_until(0.01)
        ack_records = trace.filter(lambda r: "Acknowledgement" in r.info)
        assert len(ack_records) == 1
        # The trace records TX start; propagation over 5 m is ~17 ns.
        expected = airtime + sifs(Band.GHZ_2_4)
        assert ack_records[0].time == pytest.approx(expected, abs=1e-7)

    def test_serialized_bytes_also_acked(
        self, engine, victim_engine, attacker_radio, sniffer
    ):
        # Inject raw wire bytes, like Scapy would.
        from repro.devices.dongle import RawPsdu

        psdu = serialize(_fake_null())
        attacker_radio.transmit(RawPsdu(psdu), 6.0, length_bytes=len(psdu))
        engine.run_until(0.01)
        assert len(_acks_heard(sniffer)) == 1

    def test_garbage_payload_still_acked(
        self, engine, victim_engine, attacker_radio, sniffer
    ):
        frame = DataFrame(
            addr1=VICTIM_MAC, addr2=ATTACKER_FAKE_MAC, body=b"\xde\xad" * 32
        )
        attacker_radio.transmit(frame, 6.0)
        engine.run_until(0.01)
        assert len(_acks_heard(sniffer)) == 1

    def test_qos_null_acked(self, engine, victim_engine, attacker_radio, sniffer):
        attacker_radio.transmit(
            QosNullFrame(addr1=VICTIM_MAC, addr2=ATTACKER_FAKE_MAC), 6.0
        )
        engine.run_until(0.01)
        assert len(_acks_heard(sniffer)) == 1

    def test_every_fake_frame_gets_its_own_ack(
        self, engine, victim_engine, attacker_radio, sniffer
    ):
        for index in range(5):
            frame = _fake_null()
            frame.sequence = index
            engine.call_at(index * 0.001, lambda f=frame: attacker_radio.transmit(f, 6.0))
        engine.run_until(0.1)
        assert len(_acks_heard(sniffer)) == 5


class TestSelectivity:
    def test_frame_for_someone_else_not_acked(
        self, engine, victim_engine, attacker_radio, sniffer
    ):
        other = NullDataFrame(
            addr1=MacAddress("02:99:99:99:99:99"), addr2=ATTACKER_FAKE_MAC
        )
        attacker_radio.transmit(other, 6.0)
        engine.run_until(0.01)
        assert _acks_heard(sniffer) == []
        assert victim_engine.stats.acks_sent == 0

    def test_broadcast_not_acked(self, engine, victim_engine, attacker_radio, sniffer):
        frame = DataFrame(addr1=BROADCAST, addr2=ATTACKER_FAKE_MAC)
        attacker_radio.transmit(frame, 6.0)
        engine.run_until(0.01)
        assert _acks_heard(sniffer) == []

    def test_fcs_failure_not_acked(self, engine, medium, victim_engine, sniffer):
        import numpy as np

        lossy = attached(Radio("lossy-tx", medium, Position(4, 0)))
        medium._fer = lambda snr, rate, length: 1.0
        medium._rng = np.random.default_rng(0)
        lossy.transmit(_fake_null(), 6.0)
        engine.run_until(0.01)
        assert _acks_heard(sniffer) == []
        assert victim_engine.stats.fcs_failures == 1

    def test_ack_frames_themselves_not_acked(
        self, engine, victim_engine, attacker_radio, sniffer
    ):
        attacker_radio.transmit(AckFrame(VICTIM_MAC), 6.0)
        engine.run_until(0.01)
        # The sniffer hears the attacker's ACK, but the victim must not
        # answer an ACK with another ACK (no infinite ACK ping-pong).
        assert victim_engine.stats.acks_sent == 0


class TestRtsCts:
    def test_rts_draws_cts(self, engine, victim_engine, attacker_radio, sniffer):
        rts = RtsFrame(VICTIM_MAC, ATTACKER_FAKE_MAC, duration_us=300)
        attacker_radio.transmit(rts, 6.0)
        engine.run_until(0.01)
        cts = [r.frame for r in sniffer.received if getattr(r.frame, "is_cts", False)]
        assert len(cts) == 1
        assert cts[0].addr1 == ATTACKER_FAKE_MAC
        assert victim_engine.stats.cts_sent == 1

    def test_cts_duration_decrements_nav(
        self, engine, victim_engine, attacker_radio, sniffer
    ):
        rts = RtsFrame(VICTIM_MAC, ATTACKER_FAKE_MAC, duration_us=500)
        attacker_radio.transmit(rts, 6.0)
        engine.run_until(0.01)
        cts = [r.frame for r in sniffer.received if getattr(r.frame, "is_cts", False)][0]
        assert 0 < cts.duration_us < 500

    def test_rts_response_disabled_for_ablation(self, engine, medium, attacker_radio, sniffer):
        radio = attached(Radio("mute-victim", medium, Position(0, 1)))
        AckEngine(radio, MacAddress("02:12:12:12:12:12"),
                  AckEngineConfig(respond_to_rts=False))
        rts = RtsFrame(MacAddress("02:12:12:12:12:12"), ATTACKER_FAKE_MAC, 300)
        attacker_radio.transmit(rts, 6.0)
        engine.run_until(0.01)
        assert not any(getattr(r.frame, "is_cts", False) for r in sniffer.received)


class TestHypotheticalCheckingDevice:
    """The Section 2.2 strawman: validate before ACK."""

    def _checking_engine(self, medium, decoder=DecoderClass.MAINSTREAM):
        radio = attached(Radio("checker", medium, Position(0, 2)))
        config = AckEngineConfig(
            validate_before_ack=True,
            validator=DecodeTimingModel(decoder),
        )
        return AckEngine(radio, MacAddress("02:77:77:77:77:77"), config)

    def test_fake_frame_suppressed_after_validation(
        self, engine, medium, attacker_radio, sniffer
    ):
        checker = self._checking_engine(medium)
        fake = NullDataFrame(
            addr1=MacAddress("02:77:77:77:77:77"), addr2=ATTACKER_FAKE_MAC
        )
        attacker_radio.transmit(fake, 6.0)
        engine.run_until(0.01)
        assert checker.stats.acks_suppressed_by_validation == 1
        assert _acks_heard(sniffer) == []

    def test_validation_always_misses_sifs_deadline(self, medium):
        for decoder in DecoderClass:
            model = DecodeTimingModel(decoder)
            assert model.decode_time(0) > sifs(Band.GHZ_2_4)

    def test_legitimate_frame_acked_late(self, engine, medium, attacker_radio, sniffer):
        # A validator that accepts the frame but takes decode time: the
        # ACK exists but is late — the transmitter will already have
        # retransmitted.
        radio = attached(Radio("late-checker", medium, Position(0, 3)))
        config = AckEngineConfig(
            validate_before_ack=True,
            validator=lambda frame: (True, 300e-6),
        )
        checker = AckEngine(radio, MacAddress("02:88:88:88:88:88"), config)
        frame = NullDataFrame(
            addr1=MacAddress("02:88:88:88:88:88"), addr2=ATTACKER_FAKE_MAC
        )
        attacker_radio.transmit(frame, 6.0)
        engine.run_until(0.01)
        assert checker.stats.late_acks == 1
        assert checker.stats.acks_sent == 1
        ack_time = next(
            r.end for r in sniffer.received if getattr(r.frame, "is_ack", False)
        )
        airtime = frame_airtime(frame.wire_length(), 6.0)
        assert ack_time > airtime + 10 * sifs(Band.GHZ_2_4)

    def test_validator_required(self, medium):
        radio = attached(Radio("misconfigured", medium, Position(0, 4)))
        engine_obj = AckEngine(
            radio,
            MacAddress("02:66:66:66:66:66"),
            AckEngineConfig(validate_before_ack=True),
        )
        frame = NullDataFrame(
            addr1=MacAddress("02:66:66:66:66:66"), addr2=ATTACKER_FAKE_MAC
        )
        from repro.sim.medium import Reception, Transmission
        from repro.sim.world import Position as P

        transmission = Transmission("x", frame, 0.0, 1e-4, 20.0, 6.0, 6, P(0, 0))
        reception = Reception(frame, transmission, -40.0, 55.0, 0.0, 1e-4, True)
        with pytest.raises(RuntimeError):
            engine_obj._on_reception(reception)


class TestDuplicates:
    def test_retry_duplicate_still_acked_but_delivered_once(
        self, engine, victim_engine, attacker_radio, sniffer
    ):
        delivered = []
        victim_engine.mac_handler = lambda frame, reception: delivered.append(frame)
        frame = NullDataFrame(addr1=VICTIM_MAC, addr2=ATTACKER_FAKE_MAC)
        frame.sequence = 77
        retry = NullDataFrame(addr1=VICTIM_MAC, addr2=ATTACKER_FAKE_MAC)
        retry.sequence = 77
        retry.retry = True
        attacker_radio.transmit(frame, 6.0)
        engine.call_after(0.002, lambda: attacker_radio.transmit(retry, 6.0))
        engine.run_until(0.01)
        # Both copies ACKed (the ACK is below duplicate filtering)...
        assert victim_engine.stats.acks_sent == 2
        # ...but the MAC saw the frame once.
        assert len(delivered) == 1
        assert victim_engine.stats.duplicates_dropped == 1


class TestMonitorMode:
    def test_promiscuous_engine_never_answers(self, engine, medium, attacker_radio, sniffer):
        radio = attached(Radio("monitor", medium, Position(1, 1)))
        monitor = AckEngine(
            radio,
            MacAddress("02:55:55:55:55:55"),
            AckEngineConfig(promiscuous=True),
        )
        seen = []
        monitor.sniffer_handler = lambda frame, reception: seen.append(frame)
        frame = NullDataFrame(
            addr1=MacAddress("02:55:55:55:55:55"), addr2=ATTACKER_FAKE_MAC
        )
        attacker_radio.transmit(frame, 6.0)
        engine.run_until(0.01)
        assert len(seen) == 1  # it heard the frame...
        assert monitor.stats.acks_sent == 0  # ...and stayed silent
        assert _acks_heard(sniffer) == []
