"""Radio state machine and medium attachment."""

import pytest

from repro.mac.addresses import MacAddress
from repro.mac.frames import NullDataFrame
from repro.phy.radio import Radio, RadioState
from repro.sim.world import Position
from tests.conftest import attached


@pytest.fixture
def radio(medium):
    return attached(Radio("radio-a", medium, Position(0, 0)))


@pytest.fixture
def peer(medium):
    return attached(Radio("radio-b", medium, Position(5, 0)))


def _null_frame():
    return NullDataFrame(
        addr1=MacAddress("02:00:00:00:00:01"),
        addr2=MacAddress("02:00:00:00:00:02"),
    )


class TestStates:
    def test_starts_idle(self, radio):
        assert radio.state is RadioState.IDLE
        assert radio.is_awake

    def test_sleep_and_wake(self, radio):
        radio.sleep()
        assert radio.state is RadioState.SLEEP
        assert not radio.is_awake
        radio.wake()
        assert radio.state is RadioState.IDLE

    def test_wake_when_awake_is_noop(self, radio):
        changes = []
        radio.add_state_listener(lambda state, time: changes.append(state))
        radio.wake()
        assert changes == []

    def test_state_listener_called_on_change(self, radio):
        changes = []
        radio.add_state_listener(lambda state, time: changes.append(state))
        radio.sleep()
        radio.wake()
        assert changes == [RadioState.SLEEP, RadioState.IDLE]

    def test_tx_state_during_transmission(self, engine, radio, peer):
        radio.transmit(_null_frame(), 6.0)
        assert radio.state is RadioState.TX
        engine.run_until(0.01)
        assert radio.state is RadioState.IDLE

    def test_cannot_sleep_while_transmitting(self, engine, radio, peer):
        radio.transmit(_null_frame(), 6.0)
        with pytest.raises(RuntimeError):
            radio.sleep()


class TestReception:
    def test_peer_receives_frame(self, engine, radio, peer):
        received = []
        peer.frame_handler = received.append
        radio.transmit(_null_frame(), 6.0)
        engine.run_until(0.01)
        assert len(received) == 1
        assert received[0].fcs_ok

    def test_sleeping_radio_misses_frames(self, engine, radio, peer):
        received = []
        peer.frame_handler = received.append
        peer.sleep()
        radio.transmit(_null_frame(), 6.0)
        engine.run_until(0.01)
        assert received == []
        assert peer.frames_dropped_asleep == 1

    def test_different_channel_not_received(self, engine, medium, radio):
        other = attached(Radio("radio-c", medium, Position(3, 0), channel=11))
        received = []
        other.frame_handler = received.append
        radio.transmit(_null_frame(), 6.0)
        engine.run_until(0.01)
        assert received == []

    def test_out_of_range_not_received(self, engine, medium, radio):
        # Free-space at 2.4 GHz: 20 dBm - PL(100 km) is far below -92 dBm.
        far = attached(Radio("radio-far", medium, Position(100_000.0, 0)))
        received = []
        far.frame_handler = received.append
        radio.transmit(_null_frame(), 6.0)
        engine.run_until(1.0)
        assert received == []

    def test_transmit_requires_length(self, radio):
        with pytest.raises(ValueError):
            radio.transmit(object(), 6.0)

    def test_counters(self, engine, radio, peer):
        peer.frame_handler = lambda reception: None
        radio.transmit(_null_frame(), 6.0)
        engine.run_until(0.01)
        assert radio.frames_sent == 1
        assert peer.frames_delivered == 1


class TestHalfDuplex:
    def test_simultaneous_transmitters_corrupt_each_others_reception(
        self, engine, medium
    ):
        a = attached(Radio("a", medium, Position(0, 0)))
        b = attached(Radio("b", medium, Position(5, 0)))
        results = {}
        a.frame_handler = lambda reception: results.setdefault("a", reception)
        b.frame_handler = lambda reception: results.setdefault("b", reception)
        a.transmit(_null_frame(), 6.0)
        b.transmit(_null_frame(), 6.0)
        engine.run_until(0.01)
        # Each radio was transmitting while the other's frame arrived.
        assert results["a"].while_transmitting or not results["a"].fcs_ok
        assert results["b"].while_transmitting or not results["b"].fcs_ok
