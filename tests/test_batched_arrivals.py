"""Batched arrival scheduling and the full-scale Table 2 city.

Three contracts pinned here:

* :class:`~repro.sim.engine.EventBatch` — one heap entry streaming many
  timestamped items to a slice handler, re-posted with a fresh sequence
  number whenever items remain;
* the batched medium produces **byte-identical seeded traces** to the
  per-receiver reference medium (``tests/reference_medium.py``) for
  both the Figure 2 exchange and a Table 2-shaped wardrive, while
  executing far fewer heap events;
* the full-scale city draws the paper's exact census — 5,328 devices
  across 186 vendors — deterministically for a fixed seed, and the
  ``max_devices`` quick-mode cap subsamples it evenly.
"""

from __future__ import annotations

import pytest

import repro.sim.medium as medium_module
from repro.devices.vendors import TOTAL_VENDOR_COUNT, VendorDatabase
from repro.scenario import UnknownParameterError, run_scenario
from repro.sim.engine import Engine, EventBatch
from repro.sim.medium import Medium
from repro.survey.city import CityConfig, DeviceKind, SyntheticCity
from tests.reference_medium import ReferenceMedium


def _batch(engine, fire, base, shift, offsets, payloads):
    """A batch whose slice handler runs ``fire(payload)`` one item per call.

    The smallest legal slice: every later item goes back through the
    engine's re-post, so these tests pin the engine's side of the
    contract (fire times, re-post sequence numbers, run limit, stop).
    """

    def handler(batch):
        fire(payloads[batch.index])
        return batch.index + 1

    return EventBatch(engine, handler, base, shift, offsets)


# ----------------------------------------------------------------------
# EventBatch
# ----------------------------------------------------------------------
class TestEventBatch:
    def test_payloads_fire_in_order_at_their_times(self, engine):
        fired = []
        batch = _batch(
            engine, lambda p: fired.append((engine.now, p)),
            base=1.0, shift=0.0, offsets=[0.0, 1e-6, 5e-6], payloads=["a", "b", "c"],
        )
        engine.post_batch(batch)
        engine.run_until(2.0)
        assert fired == [(1.0, "a"), (1.0 + 1e-6, "b"), (1.0 + 5e-6, "c")]

    def test_interleaving_event_preempts_the_drain(self, engine):
        order = []
        batch = _batch(
            engine, lambda p: order.append(p),
            base=0.0, shift=0.0, offsets=[1.0, 3.0], payloads=["p0", "p1"],
        )
        engine.post_batch(batch)
        engine.call_at(2.0, lambda: order.append("evt"))
        engine.run_until(4.0)
        assert order == ["p0", "evt", "p1"]

    def test_repost_loses_exact_time_ties(self, engine):
        # A re-posted batch draws a fresh sequence number, so an event
        # already queued at the same instant runs first — exactly as if
        # the payload had been posted individually at that moment.
        order = []
        batch = _batch(
            engine, lambda p: order.append(p),
            base=0.0, shift=0.0, offsets=[1.0, 2.0], payloads=["p0", "p1"],
        )
        engine.post_batch(batch)
        engine.call_at(2.0, lambda: order.append("evt"))
        engine.run_until(3.0)
        assert order == ["p0", "evt", "p1"]

    def test_run_until_limit_pauses_and_resumes_the_batch(self, engine):
        fired = []
        batch = _batch(
            engine, lambda p: fired.append((engine.now, p)),
            base=0.0, shift=0.0, offsets=[1.0, 5.0], payloads=["early", "late"],
        )
        engine.post_batch(batch)
        engine.run_until(2.0)
        assert fired == [(1.0, "early")]
        assert engine.now == 2.0
        engine.run_until(6.0)
        assert fired == [(1.0, "early"), (5.0, "late")]

    def test_stop_inside_a_handler_halts_the_drain(self, engine):
        fired = []

        def handler(payload):
            fired.append(payload)
            engine.stop()

        batch = _batch(
            engine, handler,
            base=0.0, shift=0.0, offsets=[1.0, 1.1], payloads=["a", "b"],
        )
        engine.post_batch(batch)
        engine.run_until(2.0)
        assert fired == ["a"]
        engine.run_until(2.0)  # resuming picks the batch back up
        assert fired == ["a", "b"]

    def test_shift_is_left_associated(self, engine):
        # shift=duration must reproduce the per-payload expression
        # ``(base + offset) + duration`` bit-for-bit.
        base, offset, shift = 12.345678, 3.7e-8, 0.00123
        fired = []
        batch = _batch(
            engine, lambda p: fired.append(engine.now),
            base=base, shift=shift, offsets=[offset], payloads=[None],
        )
        engine.post_batch(batch)
        engine.run_until(base + 1.0)
        assert fired == [(base + offset) + shift]

    def test_slice_handler_resumes_at_the_returned_index(self, engine):
        # A handler may consume several items per call (here the two
        # due at t=1.0); the engine re-posts the batch at the first
        # unconsumed item's time.
        calls = []

        def handler(batch):
            calls.append((engine.now, batch.index))
            return min(batch.index + 2, len(batch.offsets))

        engine.post_batch(EventBatch(engine, handler, 0.0, 0.0, [1.0, 1.0, 3.0]))
        engine.run_until(4.0)
        assert calls == [(1.0, 0), (3.0, 2)]

    def test_post_batch_rejects_times_in_the_past(self, engine):
        engine.call_at(1.0, lambda: None)
        engine.run_until(1.0)
        batch = _batch(
            engine, lambda p: None,
            base=0.5, shift=0.0, offsets=[0.0], payloads=[None],
        )
        with pytest.raises(ValueError):
            engine.post_batch(batch)


class TestEventBatchEdgeCases:
    """Boundary conditions PR 5 left unpinned: the run limit and stop
    requests landing *mid-drain*, and re-posted batches racing ordinary
    events scheduled for the very same instant."""

    def test_payload_exactly_on_the_run_until_limit_fires(self, engine):
        # The drain guard is ``t > limit``: a payload due exactly at
        # ``end_time`` belongs to this run, the one after it does not.
        fired = []
        batch = _batch(
            engine, lambda p: fired.append((engine.now, p)),
            base=0.0, shift=0.0, offsets=[0.5, 1.0, 1.5],
            payloads=["before", "on-limit", "after"],
        )
        engine.post_batch(batch)
        engine.run_until(1.0)
        assert fired == [(0.5, "before"), (1.0, "on-limit")]
        assert engine.now == 1.0
        engine.run_until(2.0)
        assert fired == [(0.5, "before"), (1.0, "on-limit"), (1.5, "after")]

    def test_limit_mid_drain_defers_without_losing_payloads(self, engine):
        # The batch advances the clock itself while draining inline; a
        # limit landing between two payloads must leave the clock at the
        # limit and the batch re-posted, with no payload skipped or
        # double-fired on resume.
        fired = []
        batch = _batch(
            engine, lambda p: fired.append((engine.now, p)),
            base=0.0, shift=0.0, offsets=[0.1, 0.3, 0.6],
            payloads=["a", "b", "c"],
        )
        engine.post_batch(batch)
        engine.run_until(0.4)
        assert fired == [(0.1, "a"), (0.3, "b")]
        assert engine.now == 0.4
        engine.run_until(1.0)
        assert fired == [(0.1, "a"), (0.3, "b"), (0.6, "c")]

    def test_stop_from_an_interleaving_event_halts_the_drain(self, engine):
        # stop() arrives from an *ordinary* event that preempted the
        # batch (not from the batch's own handler): the batch must have
        # re-posted itself before yielding, and the stop must prevent it
        # from draining further until the next run call.
        order = []
        batch = _batch(
            engine, lambda p: order.append(p),
            base=0.0, shift=0.0, offsets=[1.0, 3.0, 5.0],
            payloads=["p0", "p1", "p2"],
        )
        engine.post_batch(batch)
        engine.call_at(2.0, lambda: (order.append("stop"), engine.stop()))
        engine.run_until(10.0)
        assert order == ["p0", "stop"]
        engine.run_until(10.0)  # resuming drains the remainder
        assert order == ["p0", "stop", "p1", "p2"]
        assert engine.now == 10.0

    def test_repost_races_event_queued_before_the_repost(self, engine):
        # An ordinary event scheduled (during an earlier payload) for the
        # same instant as the batch's next payload holds an older
        # sequence number than the re-posted batch entry, so it wins.
        order = []

        def handler(payload):
            order.append(payload)
            if payload == "p0":
                engine.call_at(1.0, lambda: order.append("evt"))

        batch = _batch(
            engine, handler,
            base=0.0, shift=0.0, offsets=[0.0, 1.0], payloads=["p0", "p1"],
        )
        engine.post_batch(batch)
        engine.run_until(2.0)
        assert order == ["p0", "evt", "p1"]

    def test_repost_beats_event_queued_after_the_repost(self, engine):
        # The mirror race: once the batch has re-posted, an event
        # scheduled *later* for the same instant draws a younger
        # sequence number — the batch payload runs first, exactly as if
        # the payloads had been posted individually.
        order = []

        def handler(payload):
            order.append(payload)
            if payload == "p0":
                # Runs at t=1.0 (before the batch's 2.0 payload), i.e.
                # strictly after the batch re-posted itself for t=2.0.
                engine.call_at(
                    1.0, lambda: engine.call_at(2.0, lambda: order.append("evt"))
                )

        batch = _batch(
            engine, handler,
            base=0.0, shift=0.0, offsets=[0.0, 2.0], payloads=["p0", "p1"],
        )
        engine.post_batch(batch)
        engine.run_until(3.0)
        assert order == ["p0", "p1", "evt"]

    def test_same_timestamp_payloads_straddling_a_preemption(self, engine):
        # Two payloads at the same instant with an interleaving event
        # also at that instant but queued earlier: the event preempts
        # the batch *between* the equal-time payloads only if it was
        # queued first — here it was (queued at t=0), so the whole
        # equal-time group still runs after it, in list order.
        order = []
        batch = _batch(
            engine, lambda p: order.append(p),
            base=0.0, shift=0.0, offsets=[1.0, 1.0], payloads=["p0", "p1"],
        )
        engine.call_at(1.0, lambda: order.append("evt"))
        engine.post_batch(batch)
        engine.run_until(2.0)
        # The event was scheduled before the batch, so it holds the
        # older sequence number and runs first; the batch then drains
        # both equal-time payloads in list order.
        assert order == ["evt", "p0", "p1"]


# ----------------------------------------------------------------------
# Batched medium == per-receiver reference medium, byte for byte
# ----------------------------------------------------------------------
WARDRIVE_PARAMS = {
    "population_scale": 0.01,
    "keep_all_vendors": False,
    "blocks_x": 4,
    "blocks_y": 3,
}


def _both(monkeypatch, name, **kwargs):
    """The scenario run on the production medium, then on the reference."""
    production = run_scenario(name, quiet=True, **kwargs)
    with monkeypatch.context() as patched:
        patched.setattr(medium_module, "Medium", ReferenceMedium)
        reference = run_scenario(name, quiet=True, **kwargs)
    return production, reference


class TestBatchedMediumEquivalence:
    def test_figure2_trace_byte_identical(self, monkeypatch):
        batched, reference = _both(monkeypatch, "probe")
        assert batched.ctx.trace.to_jsonl() == reference.ctx.trace.to_jsonl()
        assert batched.outputs == reference.outputs

    def test_wardrive_trace_byte_identical(self, monkeypatch):
        # A Table 2-shaped run: static city, driving 3-dongle rig, so
        # the static delivery cache, changelog patching, the
        # per-transmission mobile merge and the reception lanes all run.
        batched, reference = _both(
            monkeypatch, "wardrive", trace=True, params=dict(WARDRIVE_PARAMS)
        )
        assert int(batched.outputs["discovered"]) > 0
        assert batched.ctx.trace.to_jsonl() == reference.ctx.trace.to_jsonl()
        assert batched.outputs == reference.outputs

    def test_batching_actually_reduces_heap_traffic(self, monkeypatch):
        # Guard against the medium silently reverting to per-receiver
        # scheduling: same run, far fewer events through the heap.
        batched, reference = _both(monkeypatch, "wardrive", params=dict(WARDRIVE_PARAMS))
        assert (
            batched.ctx.engine.events_processed
            < reference.ctx.engine.events_processed / 2
        )


# ----------------------------------------------------------------------
# The full-scale Table 2 city
# ----------------------------------------------------------------------
def _city(**overrides):
    engine = Engine()
    medium = Medium(engine)
    return SyntheticCity(engine, medium, CityConfig(**overrides))


class TestFullScaleCity:
    def test_full_census_is_5328_devices_from_186_vendors(self):
        city = _city(population_scale=1.0)
        assert len(city.specs) == 5328
        macs = {str(spec.mac) for spec in city.specs}
        assert len(macs) == 5328  # every device gets a distinct MAC
        vendors = {spec.vendor for spec in city.specs}
        assert len(vendors) == TOTAL_VENDOR_COUNT == 186

    def test_every_mac_carries_its_vendors_oui(self):
        db = VendorDatabase()
        city = _city(population_scale=1.0)
        for spec in city.specs:
            assert db.vendor_of(spec.mac) == spec.vendor

    def test_population_is_deterministic_for_a_seed(self):
        def identity(city):
            return [
                (str(s.mac), s.vendor, s.kind, s.channel,
                 s.position.x, s.position.y)
                for s in city.specs
            ]

        assert identity(_city(population_scale=1.0)) == identity(
            _city(population_scale=1.0)
        )

    def test_max_devices_subsamples_evenly(self):
        capped = _city(population_scale=1.0, max_devices=100)
        assert len(capped.specs) == 100
        kinds = {spec.kind for spec in capped.specs}
        # An even subsample keeps the AP/client mix.
        assert DeviceKind.ACCESS_POINT in kinds
        assert DeviceKind.CLIENT in kinds
        full_macs = [str(s.mac) for s in _city(population_scale=1.0).specs]
        capped_macs = [str(s.mac) for s in capped.specs]
        # The cap selects from the full census in order, it never invents.
        assert set(capped_macs) <= set(full_macs)

    def test_max_devices_noop_when_population_is_smaller(self):
        city = _city(
            population_scale=0.01, keep_all_vendors=False, max_devices=10_000
        )
        assert len(city.specs) < 10_000


# ----------------------------------------------------------------------
# The wardrive-full scenario
# ----------------------------------------------------------------------
class TestWardriveFullScenario:
    def test_smoke_with_a_tiny_cap(self):
        result = run_scenario(
            "wardrive-full", seed=0, params={"max_devices": 60}, quiet=True
        )
        outputs = result.outputs
        assert outputs["population"] == 60
        assert 0 < outputs["discovered"] <= 60
        assert outputs["probed"] >= outputs["responded"] > 0
        assert 0.0 < outputs["response_rate"] <= 1.0
        assert 0 < outputs["vendors_responded"] <= outputs["vendors"]

    def test_rejects_unknown_parameters(self):
        with pytest.raises(UnknownParameterError) as excinfo:
            run_scenario("wardrive-full", params={"max_device": 10}, quiet=True)
        assert "max_devices" in str(excinfo.value)  # the fix is in the message
