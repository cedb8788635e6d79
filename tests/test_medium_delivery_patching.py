"""Incremental delivery-list patching under mid-run topology churn.

The vectorized medium caches, per (sender, channel, position-epoch), the
fully-resolved delivery lists — including each receiver's cached batch
sink.  Attach/detach/addressing changes append to a per-channel
changelog that later transmissions replay onto the cached lists instead
of rebuilding them.  These tests drive every op through the public API
(attach, detach, retune, reposition, AckEngine installation, plain
``frame_handler`` assignment) and assert on observable delivery — so a
stale patch can never hide behind implementation details.
"""

from __future__ import annotations

import pytest

from repro.mac.ack_engine import AckEngine
from repro.mac.addresses import MacAddress
from repro.mac.frames import NullDataFrame
from repro.phy.radio import Radio
from repro.sim.engine import Engine
from repro.sim.medium import _BUCKET_LOG_MAX, Medium
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
        _tx_and_run(engine, sender)  # primes the delivery cache
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

    def test_changelog_overflow_falls_back_to_rebuild(self, sim):
        engine, medium, sender = sim
        stayer = Radio("stayer", medium, Position(5, 0))
        _tx_and_run(engine, sender)
        # More ops than the changelog retains: replay cannot cover the
        # cached version anymore, so the lists must rebuild from scratch.
        extras = [
            Radio(f"extra{i:04d}", medium, Position(5 + (i % 40), 1 + i // 40))
            for i in range(_BUCKET_LOG_MAX + 8)
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
        # Installing the ACK engine publishes rx_mac_u64 and the batch
        # sink; the cached delivery lists must pick both up ("m" op).
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
        _tx_and_run(engine, sender)  # cache now holds the engine's lane list
        received = []
        radio.frame_handler = received.append
        # The assignment must zero the engine's published lane mask,
        # which the cached list shares: the next arrival has to surface
        # as a Reception to the plain handler, not vanish into a tally.
        _tx_and_run(engine, sender)
        assert len(received) == 1
        assert radio.frames_delivered == 2

    def test_patched_lists_match_fresh_medium(self):
        # The same choreography on a patched medium and on a fresh one
        # (caches never primed before the final state) delivers
        # identically — the patch path cannot drift from the rebuild.
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
