"""Live delivery lists under mid-run topology churn.

The medium keeps each sender's resolved delivery lists on its radio
entry and pushes every attach, detach, retune, reposition and
addressing change straight into the lists it affects, instead of
re-resolving them.  These tests drive every mutation through the public
API (attach, detach, retune, reposition, AckEngine installation, plain
``frame_handler`` assignment) and assert on observable delivery — so a
stale list can never hide behind implementation details.
"""

from __future__ import annotations

import pytest

import numpy as np

from repro.devices.access_point import AccessPoint
from repro.devices.station import Station
from repro.mac.ack_engine import AckEngine
from repro.mac.addresses import MacAddress
from repro.mac.frames import NullDataFrame
from repro.phy.radio import Radio
from repro.sim.engine import Engine
from repro.sim.medium import Medium
from repro.sim.world import Position
from tests.conftest import attached


def _broadcast():
    return NullDataFrame(
        addr1=MacAddress("ff:ff:ff:ff:ff:ff"), addr2=MacAddress("02:00:00:00:00:99")
    )


@pytest.fixture
def sim():
    engine = Engine()
    medium = Medium(engine)
    sender = attached(Radio("sender", medium, Position(0, 0)))
    return engine, medium, sender


def _tx_and_run(engine, sender, until_extra=0.01):
    sender.transmit(_broadcast(), 6.0)
    engine.run_until(engine.now + until_extra)


class TestPatchOps:
    def test_attach_after_cache_primed(self, sim):
        engine, medium, sender = sim
        early = attached(Radio("early", medium, Position(5, 0)))
        _tx_and_run(engine, sender)  # resolves the sender's live list
        late = attached(Radio("late", medium, Position(6, 0)))
        _tx_and_run(engine, sender)
        assert early.frames_delivered == 2
        assert late.frames_delivered == 1

    def test_detach_after_cache_primed(self, sim):
        engine, medium, sender = sim
        keep = attached(Radio("keep", medium, Position(5, 0)))
        gone = attached(Radio("gone", medium, Position(6, 0)))
        _tx_and_run(engine, sender)
        medium.detach("gone")
        _tx_and_run(engine, sender)
        assert keep.frames_delivered == 2
        assert gone.frames_delivered == 1

    def test_retune_poisons_both_channels(self, sim):
        engine, medium, sender = sim
        mover = attached(Radio("mover", medium, Position(5, 0)))
        _tx_and_run(engine, sender)
        mover.channel = 11
        _tx_and_run(engine, sender)
        assert mover.frames_delivered == 1  # no longer on the sender's channel
        mover.channel = sender.channel
        _tx_and_run(engine, sender)
        assert mover.frames_delivered == 2

    def test_reposition_out_of_range(self, sim):
        engine, medium, sender = sim
        mover = attached(Radio("mover", medium, Position(5, 0)))
        _tx_and_run(engine, sender)
        mover._position = Position(500_000.0, 0)  # far beyond free-space range
        _tx_and_run(engine, sender)
        assert mover.frames_delivered == 1
        mover._position = Position(5, 0)
        _tx_and_run(engine, sender)
        assert mover.frames_delivered == 2

    def test_long_mutation_burst_between_transmissions(self, sim):
        engine, medium, sender = sim
        stayer = attached(Radio("stayer", medium, Position(5, 0)))
        _tx_and_run(engine, sender)
        # A 200-mutation burst between two transmissions: every one is
        # pushed into the sender's live list on its own.
        extras = [
            attached(Radio(f"extra{i:04d}", medium, Position(5 + (i % 40), 1 + i // 40)))
            for i in range(200)
        ]
        _tx_and_run(engine, sender)
        assert stayer.frames_delivered == 2
        assert all(r.frames_delivered == 1 for r in extras)


class TestAddressingChanges:
    def test_mac_layer_installed_after_cache_primed(self, sim):
        engine, medium, sender = sim
        radio = attached(Radio("station", medium, Position(5, 0)))
        _tx_and_run(engine, sender)
        assert radio.frames_delivered == 1
        # Installing the ACK engine publishes rx_mac_u64 and a lane
        # list; the live delivery list must pick both up.
        station = AckEngine(radio, MacAddress("02:aa:bb:cc:dd:01"))
        _tx_and_run(engine, sender)
        assert radio.frames_delivered == 2
        assert station.stats.frames_seen == 1
        # A clean unicast for somebody else is consumed on the fast lane
        # with the *new* address — a stale _NO_MAC mirror would instead
        # classify it as for-me and try to ACK it.
        sender.transmit(
            NullDataFrame(
                addr1=MacAddress("02:77:77:77:77:77"),
                addr2=MacAddress("02:00:00:00:00:99"),
            ),
            6.0,
        )
        engine.run_until(engine.now + 0.01)
        assert station.stats.acks_sent == 0
        assert station.stats.frames_seen == 2

    def test_plain_handler_after_ack_engine_clears_fused_sink(self, sim):
        engine, medium, sender = sim
        radio = attached(Radio("station", medium, Position(5, 0)))
        AckEngine(radio, MacAddress("02:aa:bb:cc:dd:02"))
        _tx_and_run(engine, sender)  # the live list now holds the engine's lane list
        received = []
        radio.frame_handler = received.append
        # The assignment must zero the engine's published lane mask,
        # which the live list shares: the next arrival has to surface
        # as a Reception to the plain handler, not vanish into a tally.
        _tx_and_run(engine, sender)
        assert len(received) == 1
        assert radio.frames_delivered == 2

    def test_patched_lists_match_fresh_medium(self):
        # The same choreography on a medium with live lists and on a
        # fresh one (no transmission before the final state) delivers
        # identically — pushes cannot drift from a cold resolution.
        # Static radios that never transmit keep the list their attach
        # built, and it takes every push of the churn too.
        def run(prime_first: bool):
            engine = Engine()
            medium = Medium(engine)
            sender = attached(Radio("sender", medium, Position(0, 0)))
            if prime_first:
                _tx_and_run(engine, sender)
            a = attached(Radio("a", medium, Position(4, 0)))
            b = attached(Radio("b", medium, Position(6, 0)))
            AckEngine(b, MacAddress("02:aa:bb:cc:dd:03"))
            silent = [
                attached(Radio(
                    f"silent{i}", medium, Position(3.0 + 9.0 * i, 2.0 * i),
                    tx_power_dbm=(20.0, 5.0)[i % 2], rx_sensitivity_dbm=(-92.0, -70.0)[i % 2],
                ))
                for i in range(6)
            ]
            if prime_first:
                _tx_and_run(engine, sender)
            medium.detach("a")
            silent[1].channel = 11  # retune away and back
            silent[1].channel = sender.channel
            silent[2]._position = Position(30.0, 1.0)  # reposition
            medium.detach(silent[3].name)  # detach and re-attach
            medium.attach(silent[3])
            AckEngine(silent[4], MacAddress("02:aa:bb:cc:dd:04"))  # readdress
            medium.detach(silent[5].name)  # gone for good
            attached(Radio("late", medium, Position(8.0, 3.0)))
            before = b.frames_delivered, a.frames_delivered
            _tx_and_run(engine, sender)
            for radio in silent[:5]:
                assert radio.frames_sent == 0
                _assert_own_list_is_cold(medium, radio)
            return (b.frames_delivered - before[0], a.frames_delivered - before[1])

        assert run(prime_first=True) == run(prime_first=False) == (1, 0)

    @pytest.mark.parametrize("device_cls", [Station, AccessPoint])
    def test_device_radio_joins_lists_already_addressed(self, monkeypatch, device_cls):
        # A device's radio attaches after its ACK engine published the
        # MAC and lane list: construction readdresses nothing, and every
        # list that holds the radio (built at its neighbours' attach,
        # before any of them sent) carries both from the start.
        medium = Medium(Engine())
        neighbours = [attached(Radio(f"n{i}", medium, Position(3.0 * i, 1.0))) for i in range(5)]
        passes = []
        real = Medium.note_addressing_changed

        def note_addressing_changed(self, name):
            if self.has_radio(name):
                passes.append(name)
            real(self, name)

        monkeypatch.setattr(Medium, "note_addressing_changed", note_addressing_changed)
        device = device_cls(
            mac=MacAddress("02:aa:bb:cc:dd:05"), medium=medium, position=Position(4.0, 2.0),
            rng=np.random.default_rng(0),
        )
        assert passes == []
        radio = device.radio
        assert radio.rx_mac_u64 == int.from_bytes(device.mac.bytes, "big")
        for neighbour in neighbours:
            (delivery,) = medium._entries[neighbour.name].lists.values()
            k = delivery.radios.index(radio)  # every neighbour's list holds it
            assert delivery.macs[k] == radio.rx_mac_u64
            assert delivery.lanes[k] is radio.lanes


def _assert_own_list_is_cold(medium, radio):
    """``radio``'s live list at its power equals, column for column, the
    cold resolution of a fresh medium holding the same attached radios
    with the same attach seqs."""
    fresh = Medium(Engine())
    for entry in sorted(medium._entries.values(), key=lambda entry: entry.seq):
        fresh._attach_seq = entry.seq
        fresh.attach(entry.radio)
    entry = fresh._entries[radio.name]
    cold = fresh._resolve_static(entry, entry.static_pos, entry.channel, radio.tx_power_dbm)
    live = medium._entries[radio.name].lists[radio.tx_power_dbm]
    assert live.delays == cold.delays
    assert live.seqs == cold.seqs
    assert [r.name for r in live.radios] == [r.name for r in cold.radios]
    assert all(x is y for x, y in zip(live.radios, cold.radios))
    assert live.rssis == cold.rssis
    assert live.macs == cold.macs
    assert all(x is y for x, y in zip(live.lanes, cold.lanes))
    assert live.radios  # the check compared receivers, not two empty lists
