"""Fast-path medium: channel index, link-budget caches, and their
invalidation rules.

Every test here pins a *semantic* guarantee the hot-path rewrite must
preserve: the caches may only change how fast answers arrive, never what
they are.
"""

import math

import numpy as np
import pytest

from repro.channel.propagation import ShadowedPathLoss
from repro.mac.addresses import MacAddress
from repro.mac.frames import NullDataFrame
from repro.phy.radio import Radio
from repro.sim.engine import Engine
from repro.sim.medium import (
    CorruptionReason,
    Medium,
    free_space_path_loss_db,
)
from repro.sim.world import Position
from repro.telemetry.registry import MetricsRegistry
from tests.conftest import attached


def _frame(dst="02:00:00:00:00:01", src="02:00:00:00:00:02"):
    return NullDataFrame(addr1=MacAddress(dst), addr2=MacAddress(src))


def _pair_budgets(medium):
    """Entries of the pair-budget memo over every attached radio (under
    free space each pair counts once per endpoint)."""
    return sum(len(entry.links) for entry in medium._entries.values())


class _CountingLoss:
    """Path-loss wrapper that tallies real model evaluations."""

    def __init__(self, frequency_hz=2.437e9):
        self.calls = 0
        self.frequency_hz = frequency_hz

    def __call__(self, tx_pos, rx_pos):
        self.calls += 1
        return free_space_path_loss_db(tx_pos, rx_pos, self.frequency_hz)


class TestChannelIndex:
    def test_cross_channel_radios_hear_nothing(self, engine):
        medium = Medium(engine)
        tx = attached(Radio("tx", medium, Position(0, 0), channel=1))
        rx_same = attached(Radio("same", medium, Position(5, 0), channel=1))
        rx_other = attached(Radio("other", medium, Position(5, 1), channel=6))
        heard = []
        rx_same.frame_handler = lambda r: heard.append("same")
        rx_other.frame_handler = lambda r: heard.append("other")
        tx.transmit(_frame(), 6.0)
        engine.run_until(0.01)
        assert heard == ["same"]

    def test_retune_via_channel_setter_moves_the_radio(self, engine):
        medium = Medium(engine)
        tx = attached(Radio("tx", medium, Position(0, 0), channel=1))
        rx = attached(Radio("rx", medium, Position(5, 0), channel=6))
        heard = []
        rx.frame_handler = heard.append
        tx.transmit(_frame(), 6.0)
        engine.run_until(0.01)
        assert heard == []
        rx.channel = 1
        tx.transmit(_frame(), 6.0)
        engine.run_until(0.02)
        assert len(heard) == 1

    def test_retuned_sender_does_not_reuse_old_channel_delivery_list(self, engine):
        """Regression: the delivery cache is keyed per channel.

        Channel version counters are independent, so after a retune the
        old channel's cached list can carry a version numerically equal
        to the new channel's counter.  With the exact attach/retune
        sequence below the counters collide (both at 2), and a cache key
        without the channel would deliver the retuned sender's frame to
        the *old* channel's receiver.
        """
        medium = Medium(engine)
        tx = attached(Radio("tx", medium, Position(0, 0), channel=1))
        rx1 = attached(Radio("rx1", medium, Position(5, 0), channel=1))
        rx6 = attached(Radio("rx6", medium, Position(6, 0), channel=6))
        heard = []
        rx1.frame_handler = lambda r: heard.append("rx1")
        rx6.frame_handler = lambda r: heard.append("rx6")
        tx.transmit(_frame(), 6.0)  # warms (tx, ch1) delivery list
        engine.run_until(0.01)
        assert heard == ["rx1"]
        tx.channel = 6
        tx.transmit(_frame(), 6.0)
        engine.run_until(0.02)
        assert heard == ["rx1", "rx6"]

    def test_unattached_sender_observing_movement_invalidates_lists(self, engine):
        """Regression: the non-cacheable (unattached-sender) bucket walk
        must bump the channel version when it observes a mobile receiver
        moved, or an attached sender's warm delivery list keeps serving
        the old RSSI."""
        medium = Medium(engine)
        tx = attached(Radio("tx", medium, Position(0, 0)))
        where = {"pos": Position(10, 0)}
        rx = attached(Radio("rx", medium, lambda t: where["pos"]))
        ghost = attached(Radio("ghost", medium, Position(0, 3)))
        medium.detach("ghost")  # unattached: transmits bypass the caches
        seen = []
        rx.frame_handler = lambda r: seen.append(r.rssi_dbm)
        tx.transmit(_frame(), 6.0)  # warms tx's delivery list at 10 m
        engine.run_until(0.01)
        where["pos"] = Position(1000, 0)
        # The unattached sender's transmission is what first observes the
        # move (it re-reads every receiver position).
        ghost.transmit(_frame(src="02:00:00:00:00:03"), 6.0)
        engine.run_until(0.02)
        tx.transmit(_frame(), 6.0)
        engine.run_until(0.03)
        assert len(seen) == 3  # tx@10m, ghost@1000m, tx@1000m
        assert seen[2] < seen[0] - 30.0  # ~-80 dBm, not the stale ~-40 dBm
        assert seen[2] == pytest.approx(seen[1], abs=1.0)

    def test_lists_and_budgets_die_with_their_radio(self, engine):
        medium = Medium(engine)
        tx = attached(Radio("tx", medium, Position(0, 0)))
        receivers = [attached(Radio(f"rx{i}", medium, Position(5 + i, i))) for i in range(4)]
        # Every radio sends, so each holds live lists and pair budgets.
        for i, radio in enumerate([tx, *receivers]):
            radio.transmit(_frame(src=f"02:00:00:00:02:0{i}"), 6.0)
            engine.run_until(engine.now + 0.01)
        assert _pair_budgets(medium) > 0
        for radio in receivers:
            medium.detach(radio.name)
        assert _pair_budgets(medium) == 0
        live = [
            radio
            for entry in medium._entries.values()
            for delivery in entry.lists.values()
            for radio in delivery.radios
        ]
        assert live == []
        medium.attach(receivers[2])
        tx.transmit(_frame(), 6.0)
        engine.run_until(engine.now + 0.01)
        assert [r.frames_delivered for r in receivers] == [4, 4, 5, 4]

    def test_attach_mid_run_invalidates_delivery_lists(self, engine):
        medium = Medium(engine)
        tx = attached(Radio("tx", medium, Position(0, 0)))
        rx1 = attached(Radio("rx1", medium, Position(5, 0)))
        counts = {"rx1": 0, "rx2": 0}
        rx1.frame_handler = lambda r: counts.__setitem__("rx1", counts["rx1"] + 1)
        tx.transmit(_frame(), 6.0)
        engine.run_until(0.01)
        # A warm delivery cache exists for tx now; the newcomer must
        # still be reached by the next transmission.
        rx2 = attached(Radio("rx2", medium, Position(6, 0)))
        rx2.frame_handler = lambda r: counts.__setitem__("rx2", counts["rx2"] + 1)
        tx.transmit(_frame(), 6.0)
        engine.run_until(0.02)
        assert counts == {"rx1": 2, "rx2": 1}


class TestLinkBudgetCache:
    def test_static_links_evaluate_the_model_once(self, engine):
        loss = _CountingLoss()
        medium = Medium(engine, path_loss_db=loss)
        tx = attached(Radio("tx", medium, Position(0, 0)))
        attached(Radio("rx", medium, Position(5, 0)))
        for _ in range(5):
            tx.transmit(_frame(), 6.0)
            engine.run_until(engine.now + 0.01)
        # One evaluation per direction-independent (tx, rx) link — never
        # one per transmission.
        assert loss.calls == 1
        assert medium.link_cache_hits > 0

    def test_rssi_identical_between_cold_and_warm_paths(self, engine):
        medium = Medium(engine)
        tx = attached(Radio("tx", medium, Position(0, 0)))
        rx = attached(Radio("rx", medium, Position(7, 3)))
        seen = []
        rx.frame_handler = lambda r: seen.append(r.rssi_dbm)
        tx.transmit(_frame(), 6.0)
        engine.run_until(0.01)
        tx.transmit(_frame(), 6.0)
        engine.run_until(0.02)
        assert seen[0] == seen[1]
        expected = tx.tx_power_dbm - free_space_path_loss_db(
            Position(0, 0), Position(7, 3), medium.frequency_hz
        )
        assert seen[0] == pytest.approx(expected)

    def test_mobile_receiver_move_invalidates_budget(self, engine):
        loss = _CountingLoss()
        medium = Medium(engine, path_loss_db=loss)
        tx = attached(Radio("tx", medium, Position(0, 0)))
        where = {"pos": Position(5, 0)}
        rx = attached(Radio("rx", medium, lambda t: where["pos"]))
        seen = []
        rx.frame_handler = lambda r: seen.append(r.rssi_dbm)
        tx.transmit(_frame(), 6.0)
        engine.run_until(0.01)
        where["pos"] = Position(50, 0)
        tx.transmit(_frame(), 6.0)
        engine.run_until(0.02)
        assert len(seen) == 2
        assert seen[1] < seen[0]  # ten times the distance, weaker signal
        assert loss.calls == 2  # stale budget was not reused

    def test_shadowed_model_serves_an_unmoved_mobile_from_the_memo(self, engine):
        # Stateful shadowing needs the pair memo: a mobile radio that has
        # not moved keeps its budgets and its own lists, and a query
        # sees exactly what a delivery saw.
        shadowed = ShadowedPathLoss(rng=np.random.default_rng(3))
        calls = []
        medium = Medium(
            engine, path_loss_db=lambda tx, rx: calls.append(1) or shadowed(tx, rx)
        )
        tx = attached(Radio("tx", medium, Position(0, 0)))
        where = {"pos": Position(30, 4, 1.8)}
        rig = attached(Radio("rig", medium, lambda t: where["pos"]))
        seen = []
        rig.frame_handler = lambda r: seen.append(r.rssi_dbm)
        for _ in range(3):
            tx.transmit(_frame(), 6.0)
            engine.run_until(engine.now + 0.01)
        assert len(seen) == 3 and len(set(seen)) == 1
        assert len(calls) == 1
        assert medium.rssi_between("tx", "rig", engine.now) == seen[-1]
        rig.transmit(_frame(src="02:00:00:00:00:0c"), 6.0)
        rig.transmit(_frame(src="02:00:00:00:00:0c"), 6.0)
        engine.run_until(engine.now + 0.01)
        assert len(calls) == 2  # rig -> tx, once: the rig kept its list
        assert medium._entries["rig"].lists
        where["pos"] = Position(60, 4, 1.8)
        tx.transmit(_frame(), 6.0)
        engine.run_until(engine.now + 0.01)
        assert len(calls) == 3 and seen[-1] != seen[0]
        assert medium.rssi_between("tx", "rig", engine.now) == seen[-1]
        assert not medium._entries["rig"].lists  # the move dropped them

    def test_position_provider_swap_invalidates_budget(self, engine):
        """Regression: the localization attack takes over a *static*
        radio's position with a mutable provider after construction."""
        medium = Medium(engine)
        tx = attached(Radio("tx", medium, Position(0, 0)))
        rx = attached(Radio("rx", medium, Position(5, 0)))
        seen = []
        rx.frame_handler = lambda r: seen.append(r.rssi_dbm)
        tx.transmit(_frame(), 6.0)
        engine.run_until(0.01)
        walk = {"pos": Position(80, 0)}
        rx._position = lambda t: walk["pos"]
        assert rx.static_position is None
        tx.transmit(_frame(), 6.0)
        engine.run_until(0.02)
        assert len(seen) == 2 and seen[1] < seen[0]

    def test_detach_reattach_never_reuses_old_budgets(self, engine):
        medium = Medium(engine)
        tx = attached(Radio("tx", medium, Position(0, 0)))
        rx = attached(Radio("rx", medium, Position(5, 0)))
        seen = []
        rx.frame_handler = lambda r: seen.append(r.rssi_dbm)
        tx.transmit(_frame(), 6.0)
        engine.run_until(0.01)
        medium.detach("rx")
        rx._position = Position(100, 0)
        medium.attach(rx)
        tx.transmit(_frame(), 6.0)
        engine.run_until(0.02)
        assert len(seen) == 2 and seen[1] < seen[0]


class TestCaptureEdgeCases:
    def test_equal_rssi_three_way_overlap(self, engine):
        medium = Medium(engine)
        rx = attached(Radio("rx", medium, Position(0, 0)))
        receptions = []
        rx.frame_handler = receptions.append
        # Three senders at the same distance: identical RSSI at rx, so no
        # capture between any pair.  The first two arrivals collide with
        # each other; the third finds only already-corrupted arrivals on
        # the air (which no longer contend under the capture model) and
        # decodes cleanly.  This pins the model's documented behaviour so
        # a cache regression can't silently change overlap resolution.
        for i, pos in enumerate(
            [Position(10, 0), Position(0, 10), Position(-10, 0)]
        ):
            sender = attached(Radio(f"tx{i}", medium, pos))
            sender.transmit(_frame(src=f"02:00:00:00:01:0{i}"), 6.0)
        engine.run_until(0.05)
        assert len(receptions) == 3
        assert [r.fcs_ok for r in receptions] == [False, False, True]
        assert [r.collided for r in receptions] == [True, True, False]
        assert len({r.rssi_dbm for r in receptions}) == 1  # truly equal

    def test_arrival_during_own_transmission_flagged_not_collided(self, engine):
        medium = Medium(engine)
        a = attached(Radio("a", medium, Position(0, 0)))
        b = attached(Radio("b", medium, Position(5, 0)))
        receptions = []
        b.frame_handler = receptions.append
        # b is mid-transmission when a's frame arrives: half duplex.
        b.transmit(_frame(src="02:00:00:00:00:0b"), 6.0)
        a.transmit(_frame(src="02:00:00:00:00:0a"), 6.0)
        engine.run_until(0.05)
        assert len(receptions) == 1
        reception = receptions[0]
        assert not reception.fcs_ok
        assert reception.while_transmitting
        assert not reception.collided  # deafness, not an air collision

    def test_detach_mid_flight_with_warm_cache(self, engine):
        medium = Medium(engine)
        tx = attached(Radio("tx", medium, Position(0, 0)))
        rx = attached(Radio("rx", medium, Position(5, 0)))
        heard = []
        rx.frame_handler = heard.append
        tx.transmit(_frame(), 6.0)  # warms the delivery cache
        engine.run_until(0.01)
        tx.transmit(_frame(), 6.0)  # delivered off the cached list
        engine.call_after(10e-6, lambda: medium.detach("rx"))
        engine.run_until(0.02)
        assert len(heard) == 1  # only the pre-detach frame


class TestCorruptionReasonEnum:
    def test_reasons_are_enum_members(self):
        assert isinstance(CorruptionReason.RECEIVER_TRANSMITTING, CorruptionReason)
        members = {m.name for m in CorruptionReason}
        assert {
            "RECEIVER_TRANSMITTING",
            "CAPTURED_BY_STRONGER",
            "LOCKED_ON_STRONGER",
            "COLLISION",
        } <= members


class TestTelemetryGuards:
    def test_transmit_without_metrics_keeps_counters_none(self, engine):
        medium = Medium(engine)
        assert medium.metrics is None
        tx = attached(Radio("tx", medium, Position(0, 0)))
        attached(Radio("rx", medium, Position(5, 0)))
        tx.transmit(_frame(), 6.0)
        engine.run_until(0.01)
        assert medium.transmission_count == 1

    def test_airtime_counter_guarded_and_accumulating(self):
        metrics = MetricsRegistry()
        engine = Engine(metrics=metrics)
        medium = Medium(engine)
        tx = attached(Radio("tx", medium, Position(0, 0)))
        attached(Radio("rx", medium, Position(5, 0)))
        tx.transmit(_frame(), 6.0)
        engine.run_until(0.01)
        snapshot = metrics.snapshot()
        counters = snapshot["counters"]
        assert counters["medium.frames.transmitted"] == 1
        assert counters["medium.airtime_s"] > 0.0
        assert counters["medium.frames.delivered"] == 1


class TestSchedulingFastPath:
    def test_post_orders_with_call_at_by_schedule_order(self):
        engine = Engine()
        order = []
        engine.call_at(1.0, lambda: order.append("event"))
        engine.post(1.0, lambda: order.append("posted"))
        engine.call_at(1.0, lambda: order.append("late-event"))
        engine.run_until(2.0)
        assert order == ["event", "posted", "late-event"]

    def test_compact_preserves_posted_callbacks(self):
        engine = Engine()
        order = []
        cancelled = [engine.call_at(1.0 + i * 1e-6, lambda: None) for i in range(200)]
        engine.post(2.0, lambda: order.append("survivor"))
        for event in cancelled:
            event.cancel()  # triggers compaction (dead entries dominate)
        engine.run_until(3.0)
        assert order == ["survivor"]
        assert engine.pending_events == 0

    def test_math_matches_free_space_formula(self):
        # The scalar-math fast path must agree with the textbook formula.
        wavelength = 299_792_458.0 / 2.437e9
        expected = 20.0 * math.log10(4.0 * math.pi * 10.0 / wavelength)
        assert free_space_path_loss_db(
            Position(0, 0), Position(10, 0), 2.437e9
        ) == pytest.approx(expected)
