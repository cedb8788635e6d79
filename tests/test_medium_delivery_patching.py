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

from repro.mac.ack_engine import AckEngine
from repro.mac.addresses import MacAddress
from repro.mac.frames import NullDataFrame
from repro.phy.radio import Radio
from repro.sim.engine import Engine
from repro.sim.medium import Medium
from repro.sim.world import Position


def _broadcast():
    return NullDataFrame(
        addr1=MacAddress("ff:ff:ff:ff:ff:ff"), addr2=MacAddress("02:00:00:00:00:99")
    )


@pytest.fixture
def sim():
    engine = Engine()
    medium = Medium(engine)
    sender = Radio("sender", medium, Position(0, 0))
    return engine, medium, sender


def _tx_and_run(engine, sender, until_extra=0.01):
    sender.transmit(_broadcast(), 6.0)
    engine.run_until(engine.now + until_extra)


class TestPatchOps:
    def test_attach_after_cache_primed(self, sim):
        engine, medium, sender = sim
        early = Radio("early", medium, Position(5, 0))
        _tx_and_run(engine, sender)  # resolves the sender's live list
        late = Radio("late", medium, Position(6, 0))
        _tx_and_run(engine, sender)
        assert early.frames_delivered == 2
        assert late.frames_delivered == 1

    def test_detach_after_cache_primed(self, sim):
        engine, medium, sender = sim
        keep = Radio("keep", medium, Position(5, 0))
        gone = Radio("gone", medium, Position(6, 0))
        _tx_and_run(engine, sender)
        medium.detach("gone")
        _tx_and_run(engine, sender)
        assert keep.frames_delivered == 2
        assert gone.frames_delivered == 1

    def test_retune_poisons_both_channels(self, sim):
        engine, medium, sender = sim
        mover = Radio("mover", medium, Position(5, 0))
        _tx_and_run(engine, sender)
        mover.channel = 11
        _tx_and_run(engine, sender)
        assert mover.frames_delivered == 1  # no longer on the sender's channel
        mover.channel = sender.channel
        _tx_and_run(engine, sender)
        assert mover.frames_delivered == 2

    def test_reposition_out_of_range(self, sim):
        engine, medium, sender = sim
        mover = Radio("mover", medium, Position(5, 0))
        _tx_and_run(engine, sender)
        mover._position = Position(500_000.0, 0)  # far beyond free-space range
        _tx_and_run(engine, sender)
        assert mover.frames_delivered == 1
        mover._position = Position(5, 0)
        _tx_and_run(engine, sender)
        assert mover.frames_delivered == 2

    def test_long_mutation_burst_between_transmissions(self, sim):
        engine, medium, sender = sim
        stayer = Radio("stayer", medium, Position(5, 0))
        _tx_and_run(engine, sender)
        # A 200-mutation burst between two transmissions: every one is
        # pushed into the sender's live list on its own.
        extras = [
            Radio(f"extra{i:04d}", medium, Position(5 + (i % 40), 1 + i // 40))
            for i in range(200)
        ]
        _tx_and_run(engine, sender)
        assert stayer.frames_delivered == 2
        assert all(r.frames_delivered == 1 for r in extras)


class TestAddressingChanges:
    def test_mac_layer_installed_after_cache_primed(self, sim):
        engine, medium, sender = sim
        radio = Radio("station", medium, Position(5, 0))
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
        radio = Radio("station", medium, Position(5, 0))
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
        # fresh one (no list resolved before the final state) delivers
        # identically — pushes cannot drift from a cold resolution.
        def run(prime_first: bool):
            engine = Engine()
            medium = Medium(engine)
            sender = Radio("sender", medium, Position(0, 0))
            if prime_first:
                _tx_and_run(engine, sender)
            a = Radio("a", medium, Position(4, 0))
            b = Radio("b", medium, Position(6, 0))
            AckEngine(b, MacAddress("02:aa:bb:cc:dd:03"))
            if prime_first:
                _tx_and_run(engine, sender)
            medium.detach("a")
            before = b.frames_delivered, a.frames_delivered
            _tx_and_run(engine, sender)
            return (b.frames_delivered - before[0], a.frames_delivered - before[1])

        assert run(prime_first=True) == run(prime_first=False) == (1, 0)
