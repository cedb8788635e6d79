"""Failure injection and stress: the unhappy paths.

Lossy channels, vanishing devices, probe storms, and resource exhaustion
must degrade gracefully — the wardrive depends on it.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.injector import FakeFrameInjector
from repro.core.probe import PoliteWiFiProbe
from repro.devices.dongle import MonitorDongle
from repro.devices.station import Station
from repro.mac.addresses import ATTACKER_FAKE_MAC, MacAddress
from repro.mac.frames import NullDataFrame
from repro.phy.radio import Radio
from repro.sim.engine import Engine
from repro.sim.medium import Medium
from repro.sim.world import Position

from tests.conftest import attached, fresh_mac


class TestLossyChannel:
    def _lossy_setup(self, loss_probability, seed=0):
        engine = Engine()
        medium = Medium(
            engine,
            fer=lambda snr, rate, length: loss_probability,
            rng=np.random.default_rng(seed),
        )
        rng = np.random.default_rng(seed + 1)
        victim = Station(
            mac=fresh_mac(), medium=medium, position=Position(0, 0), rng=rng
        )
        attacker = MonitorDongle(
            mac=fresh_mac(0x0A), medium=medium, position=Position(5, 0), rng=rng
        )
        return engine, victim, attacker

    def test_probe_retries_through_loss(self):
        engine, victim, attacker = self._lossy_setup(loss_probability=0.5)
        probe = PoliteWiFiProbe(attacker, attempts=10)
        successes = sum(
            1 for _ in range(10) if probe.probe(victim.mac).responded
        )
        assert successes >= 8  # 10 attempts beat 50% loss almost surely

    def test_total_loss_fails_cleanly(self):
        engine, victim, attacker = self._lossy_setup(loss_probability=1.0)
        probe = PoliteWiFiProbe(attacker, attempts=3)
        result = probe.probe(victim.mac)
        assert not result.responded
        assert result.attempts == 3
        assert victim.ack_engine.stats.fcs_failures >= 3

    def test_loss_on_return_path_only_looks_like_no_response(self):
        """The attacker can't distinguish 'frame lost' from 'ACK lost' —
        exactly why the survey uses retries."""
        engine = Engine()
        calls = {"n": 0}

        def ack_killer(snr, rate, length):
            calls["n"] += 1
            # Lose every second frame (the 14-byte ACKs, by length).
            return 1.0 if length == 14 else 0.0

        medium = Medium(engine, fer=ack_killer, rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        victim = Station(
            mac=fresh_mac(), medium=medium, position=Position(0, 0), rng=rng
        )
        attacker = MonitorDongle(
            mac=fresh_mac(0x0A), medium=medium, position=Position(5, 0), rng=rng
        )
        result = PoliteWiFiProbe(attacker, attempts=3).probe(victim.mac)
        assert not result.responded
        # The victim did its part every time.
        assert victim.ack_engine.stats.acks_sent == 3


class TestVanishingDevices:
    def test_victim_detached_mid_stream(self, engine, medium, rng):
        victim = Station(
            mac=fresh_mac(), medium=medium, position=Position(0, 0), rng=rng
        )
        attacker = MonitorDongle(
            mac=fresh_mac(0x0A), medium=medium, position=Position(5, 0), rng=rng
        )
        injector = FakeFrameInjector(attacker)
        stream = injector.start_stream(victim.mac, rate_pps=200.0)
        engine.run_until(0.5)
        medium.detach(victim.radio.name)  # drives out of range / powers off
        engine.run_until(1.5)
        stream.stop()
        engine.run_until(2.0)
        # No crash; ACKs stopped when the victim vanished.
        acked_before = victim.ack_engine.stats.acks_sent
        assert 80 <= acked_before <= 120

    def test_attacker_detached_mid_probe(self, engine, medium, rng):
        victim = Station(
            mac=fresh_mac(), medium=medium, position=Position(0, 0), rng=rng
        )
        attacker = MonitorDongle(
            mac=fresh_mac(0x0A), medium=medium, position=Position(5, 0), rng=rng
        )
        probe = PoliteWiFiProbe(attacker, attempts=2)
        outcomes = []
        probe.probe_async(victim.mac, outcomes.append)
        medium.detach(attacker.radio.name)
        engine.run_until(1.0)
        # The probe times out instead of hanging.
        assert len(outcomes) == 1 and not outcomes[0].responded


class TestProbeStorms:
    def test_many_concurrent_streams(self, engine, medium, rng):
        victims = [
            Station(mac=fresh_mac(), medium=medium, position=Position(float(i), 0), rng=rng)
            for i in range(5)
        ]
        attacker = MonitorDongle(
            mac=fresh_mac(0x0A), medium=medium, position=Position(10, 0), rng=rng
        )
        injector = FakeFrameInjector(attacker)
        streams = [
            injector.start_stream(v.mac, rate_pps=100.0) for v in victims
        ]
        engine.run_until(2.0)
        for stream in streams:
            stream.stop()
        total_acks = sum(v.ack_engine.stats.acks_sent for v in victims)
        # 5 victims x ~200 frames each, minus self-interference losses.
        assert total_acks > 700

    def test_transmitter_queue_drains_in_order_under_load(
        self, engine, medium, rng
    ):
        from repro.mac.transmitter import TxOutcome

        sender = Station(
            mac=fresh_mac(), medium=medium, position=Position(0, 0), rng=rng
        )
        receiver = Station(
            mac=fresh_mac(), medium=medium, position=Position(3, 0), rng=rng
        )
        outcomes = []
        for index in range(50):
            frame = NullDataFrame(addr1=receiver.mac, addr2=sender.mac)
            frame.sequence = index + 1
            sender.send(frame, on_complete=outcomes.append)
        engine.run_until(5.0)
        assert len(outcomes) == 50
        assert all(o.outcome is TxOutcome.ACKED for o in outcomes)
        sequences = [o.frame.sequence for o in outcomes]
        assert sequences == sorted(sequences)


class TestEngineInvariants:
    @settings(max_examples=20)
    @given(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=50))
    def test_time_never_regresses(self, times):
        engine = Engine()
        observed = []
        for t in times:
            engine.call_at(t, lambda: observed.append(engine.now))
        engine.run_until(11.0)
        assert observed == sorted(observed)
        assert len(observed) == len(times)

    def test_receptions_end_after_start(self, engine, medium):
        tx = attached(Radio("tx", medium, Position(0, 0)))
        rx = attached(Radio("rx", medium, Position(5, 0)))
        receptions = []
        rx.frame_handler = receptions.append
        for i in range(10):
            engine.call_at(
                i * 0.001,
                lambda: tx.transmit(
                    NullDataFrame(
                        addr1=MacAddress("02:00:00:00:00:01"),
                        addr2=MacAddress("02:00:00:00:00:02"),
                    ),
                    6.0,
                ),
            )
        engine.run_until(1.0)
        assert len(receptions) == 10
        for reception in receptions:
            assert reception.end > reception.start
            assert reception.airtime > 0

    def test_transmission_conservation(self, engine, medium):
        """Each radio receives each transmission at most once."""
        tx = attached(Radio("tx", medium, Position(0, 0)))
        receivers = [attached(Radio(f"rx{i}", medium, Position(3.0 + i, 0))) for i in range(4)]
        counts = {r.name: 0 for r in receivers}
        for radio in receivers:
            radio.frame_handler = (
                lambda reception, name=radio.name: counts.__setitem__(
                    name, counts[name] + 1
                )
            )
        for _ in range(7):
            tx.transmit(
                NullDataFrame(
                    addr1=MacAddress("02:00:00:00:00:01"),
                    addr2=MacAddress("02:00:00:00:00:02"),
                ),
                6.0,
            )
            engine.run_until(engine.now + 0.01)
        assert all(count == 7 for count in counts.values())
