"""The production medium's delivery path: equivalence, queries, gates, mutations.

Five contracts pinned here:

* the production medium produces **byte-identical seeded traces** and
  outputs to the cache-free reference medium on the Figure 2 probe
  exchange and a Table 2-shaped wardrive with the SNR frame-error model,
  across the matrix of ``no_lanes × traced`` (every arrival on the scalar
  reception path, pass-through tracer wrappers on the hot entry points);
* ad-hoc queries (``rssi_between`` / ``is_busy_for``) read the same
  memoized budgets as the delivery path, so they can never drift from
  what a transmission actually experiences;
* the per-channel radio index and the live delivery lists survive
  arbitrary mid-run retune / reposition / detach sequences
  (property-tested against the cache-free reference medium): no push
  ever changes who hears what;
* the range gate that cold resolutions and attach pushes share
  (``Medium._range2``), and what a cold resolution walks;
* :class:`~repro.sim.engine.EventBatch` hands its slice handler drain
  positions (``batch.index``) rather than payloads.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.sim.medium as medium_module
from repro.mac.frames import Frame
from repro.phy.radio import Radio
from repro.scenario import run_scenario
from repro.sim.engine import Engine, EventBatch
from repro.sim.medium import Medium
from repro.sim.trace import FrameTrace
from repro.sim.world import Position
from tests.conftest import attached
from tests.reference_medium import ReferenceMedium
from tests.test_sim_medium import _frame


#: (no_lanes, traced): every combination must leave the production trace
#: byte-identical to the reference medium's.
MATRIX = [
    (no_lanes, traced) for no_lanes in (False, True) for traced in (False, True)
]

WARDRIVE_PARAMS = {
    "population_scale": 0.01,
    "keep_all_vendors": False,
    "blocks_x": 4,
    "blocks_y": 3,
}

_REFERENCE_RUNS = {}


def _reference(name, **kwargs):
    """The scenario on the reference medium, run once per test session."""
    key = (name, repr(sorted(kwargs.items())))
    if key not in _REFERENCE_RUNS:
        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(medium_module, "Medium", ReferenceMedium)
            _REFERENCE_RUNS[key] = run_scenario(name, quiet=True, **kwargs)
    return _REFERENCE_RUNS[key]


def _production(monkeypatch, no_lanes, traced, name, **kwargs):
    """The scenario on the production medium under one matrix cell.

    ``no_lanes`` hides the frames' destination hook, so every arrival
    takes the scalar reception path (as for an unparseable PSDU);
    ``traced`` wraps the entry points the end-to-end tracer patches in
    counting pass-throughs.
    """
    calls = {"transmit": 0, "on_reception": 0}
    with monkeypatch.context() as patched:
        if no_lanes:
            patched.setattr(Frame, "dest_u64", lambda self: None)
        if traced:
            for owner, attr in ((Medium, "transmit"), (Radio, "on_reception")):
                original = getattr(owner, attr)

                def wrapper(*args, _original=original, _attr=attr, **kw):
                    calls[_attr] += 1
                    return _original(*args, **kw)

                patched.setattr(owner, attr, wrapper)
        run = run_scenario(name, quiet=True, **kwargs)
    if traced:
        assert calls["transmit"] > 0 and calls["on_reception"] > 0
    return run


# ----------------------------------------------------------------------
# Production against the reference, across the matrix
# ----------------------------------------------------------------------
class TestEquivalenceMatrix:
    @pytest.mark.parametrize("no_lanes,traced", MATRIX)
    def test_figure2_trace_byte_identical(self, monkeypatch, no_lanes, traced):
        reference = _reference("probe")
        other = _production(monkeypatch, no_lanes, traced, "probe")
        assert other.ctx.trace.to_jsonl() == reference.ctx.trace.to_jsonl()
        assert other.outputs == reference.outputs

    @pytest.mark.parametrize("no_lanes,traced", MATRIX)
    def test_wardrive_trace_byte_identical(self, monkeypatch, no_lanes, traced):
        # Static city + driving rig: exercises the live delivery lists,
        # the per-transmission mobile merge, and (fer="snr") the per-list
        # FER memo and the coin flips.
        reference = _reference(
            "wardrive", trace=True, fer="snr", params=WARDRIVE_PARAMS
        )
        assert int(reference.outputs["discovered"]) > 0
        other = _production(
            monkeypatch, no_lanes, traced,
            "wardrive", trace=True, fer="snr", params=dict(WARDRIVE_PARAMS),
        )
        assert other.ctx.trace.to_jsonl() == reference.ctx.trace.to_jsonl()
        assert other.outputs == reference.outputs



# ----------------------------------------------------------------------
# Query paths read the delivery-path budgets
# ----------------------------------------------------------------------
class TestQueryPathsMatchDelivery:
    def test_rssi_between_matches_delivered_rssi(self, engine):
        # A stateful path-loss model (frozen per-link shadowing) makes any
        # out-of-band model re-invocation visible: a second draw for the
        # same link would disagree with what the delivery saw.
        from repro.channel.propagation import ShadowedPathLoss

        medium = Medium(
            engine,
            path_loss_db=ShadowedPathLoss(rng=np.random.default_rng(7)),
        )
        tx = attached(Radio("tx", medium, Position(0, 0), tx_power_dbm=20.0))
        rx = attached(Radio("rx", medium, Position(12, 5)))
        seen = []
        rx.frame_handler = lambda r: seen.append(r.rssi_dbm)

        # Query first (primes the link cache), then deliver, then query
        # again: all three must agree exactly.
        before = medium.rssi_between("tx", "rx", engine.now)
        tx.transmit(_frame(), 6.0)
        engine.run_until(0.01)
        after = medium.rssi_between("tx", "rx", engine.now)
        assert len(seen) == 1
        assert seen[0] == before == after

    def test_rssi_between_names_an_unattached_radio(self, engine):
        medium = Medium(engine)
        attached(Radio("a", medium, Position(0, 0)))
        attached(Radio("b", medium, Position(5, 0)))
        medium.detach("b")
        with pytest.raises(KeyError, match="'b' is not attached"):
            medium.rssi_between("a", "b", 0.0)
        with pytest.raises(KeyError, match="'ghost' is not attached"):
            medium.rssi_between("ghost", "a", 0.0)

    def test_is_busy_for_uses_delivered_rssi(self, engine):
        medium = Medium(engine)
        tx = attached(Radio("tx", medium, Position(0, 0), tx_power_dbm=20.0))
        rx = attached(Radio("rx", medium, Position(30, 0)))
        rssi = medium.rssi_between("tx", "rx", engine.now)
        verdicts = {}

        def check():
            verdicts["below"] = medium.is_busy_for("rx", rssi - 1.0)
            verdicts["above"] = medium.is_busy_for("rx", rssi + 1.0)

        tx.transmit(_frame(), 6.0, length_bytes=1000)
        engine.call_after(100e-6, check)  # mid-flight
        engine.run_until(0.01)
        # The CCA comparison uses the very same RSSI the arrival carries.
        assert verdicts == {"below": True, "above": False}

    def test_queries_agree_across_modes(self, engine):
        production = Medium(engine)
        reference = ReferenceMedium(Engine())
        for medium in (production, reference):
            attached(Radio("a", medium, Position(0, 0)))
            attached(Radio("b", medium, Position(25, 40)))
        assert production.rssi_between("a", "b", 0.0) == reference.rssi_between(
            "a", "b", 0.0
        )


# ----------------------------------------------------------------------
# SoA index compaction under mid-run mutation (property-based)
# ----------------------------------------------------------------------
CHANNELS = (1, 6, 11)


def _mutation_run(ops, medium_cls):
    """Scripted world: periodic broadcasts + a mutation schedule.

    Returns every reception as ``(receiver, time, rssi, fcs_ok)`` plus the
    frame trace — the full observable surface of the delivery path.
    """
    engine = Engine()
    trace = FrameTrace()
    medium = medium_cls(engine, trace=trace)
    radios = []
    for i in range(9):
        radios.append(
            attached(Radio(
                f"r{i}",
                medium,
                Position(7.0 * (i % 3), 9.0 * (i // 3)),
                channel=CHANNELS[i % 3],
            ))
        )
    log = []
    for radio in radios:
        radio.frame_handler = (
            lambda rec, name=radio.name: log.append(
                (name, rec.end, rec.rssi_dbm, rec.fcs_ok)
            )
        )

    def apply(op):
        kind, target, arg = op
        radio = radios[target]
        name = radio.name
        attached = name in medium.radio_names
        if kind == "retune" and attached:
            radio.channel = CHANNELS[arg % 3]
        elif kind == "reposition" and attached:
            radio._position = Position(3.0 * (arg % 7), 2.0 * (arg % 5))
        elif kind == "detach" and attached:
            medium.detach(name)
        elif kind == "attach" and not attached:
            medium.attach(radio)

    # One broadcast per sender per millisecond; mutations land between
    # transmissions and also *mid-flight* (50 us into an airtime).
    for k, op in enumerate(ops):
        engine.call_at(1e-3 * (k + 1) + 50e-6, lambda op=op: apply(op))
    for k in range(len(ops) + 2):
        for s in (0, 1, 2):
            engine.call_at(
                1e-3 * (k + 0.5) + 17e-6 * s,
                lambda s=s: (
                    radios[s].name in medium.radio_names
                    and radios[s].transmit(_frame(), 6.0, length_bytes=200)
                ),
            )
    engine.run_until(1e-3 * (len(ops) + 4))
    return log, trace.to_jsonl()


_op = st.tuples(
    st.sampled_from(["retune", "reposition", "detach", "attach"]),
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=20),
)


class TestSoACompaction:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(ops=st.lists(_op, min_size=1, max_size=8))
    def test_mutation_sweep_is_mode_invariant(self, ops):
        vec_log, vec_trace = _mutation_run(ops, Medium)
        ref_log, ref_trace = _mutation_run(ops, ReferenceMedium)
        assert vec_log == ref_log
        assert vec_trace == ref_trace

    def test_detach_reattach_compacts_and_restores(self, engine):
        medium = Medium(engine)
        radios = [attached(Radio(f"x{i}", medium, Position(float(i), 0))) for i in range(5)]
        tx = radios[0]
        heard = []
        for r in radios[1:]:
            r.frame_handler = lambda rec, n=r.name: heard.append(n)
        medium.detach("x2")
        tx.transmit(_frame(), 6.0)
        engine.run_until(0.01)
        assert sorted(heard) == ["x1", "x3", "x4"]
        heard.clear()
        medium.attach(radios[2])
        tx.transmit(_frame(), 6.0)
        engine.run_until(0.02)
        assert sorted(heard) == ["x1", "x2", "x3", "x4"]


# ----------------------------------------------------------------------
# The range gate of cold resolutions and attach pushes
# ----------------------------------------------------------------------
def _cold_names(medium, sender, channel, power_dbm=20.0):
    """Receiver names of a fresh cold resolution from ``sender``."""
    entry = medium._entries[sender]
    delivery = medium._resolve_static(entry, entry.static_pos, channel, power_dbm)
    return [radio.name for radio in delivery.radios]


class TestChannelSoA:
    def test_mobile_rows_are_nan_and_gated_out(self, engine):
        # A mobile radio never enters a cold list, however close it is:
        # transmissions merge it in afresh every time instead.
        medium = Medium(engine)
        tx = attached(Radio("tx", medium, Position(0, 0), channel=1))
        attached(Radio("s", medium, Position(1, 2, 3), channel=1))
        attached(Radio("m", medium, lambda t: Position(t, 0), channel=1))
        assert _cold_names(medium, "tx", 1) == ["s"]
        heard = []
        for name in ("s", "m"):
            medium.radio(name).frame_handler = lambda rec, n=name: heard.append(n)
        tx.transmit(_frame(), 6.0)
        engine.run_until(0.01)
        assert sorted(heard) == ["m", "s"]
        (delivery,) = medium._entries["tx"].lists.values()
        assert [radio.name for radio in delivery.radios] == ["s"]

    def test_limit2_cached_per_power_and_covers_scalar_range(self, engine):
        medium = Medium(engine)
        limit2 = medium._range2(20.0, -92.0)
        assert medium._range2(20.0, -92.0) is limit2  # cached per pair
        assert medium._range2(10.0, -92.0) < limit2
        assert medium._range2(20.0, -70.0) < limit2
        # The squared gate must admit at least the exact scalar range:
        # dmax = (lambda / 4 pi) * 10^((P - sens) / 20), clamped to 1 m.
        wavelength = 299_792_458.0 / medium.frequency_hz
        for power in (20.0, 10.0, -40.0):
            for sens in (-92.0, -70.0, -20.0):
                dmax = max(
                    (wavelength / (4.0 * math.pi)) * 10.0 ** ((power - sens) / 20.0),
                    1.0,
                )
                assert medium._range2(power, sens) >= dmax * dmax

    def test_rebuilt_after_version_bump(self, engine):
        # A retuned radio leaves the old channel's next cold resolution
        # and joins the new channel's.
        medium = Medium(engine)
        attached(Radio("tx", medium, Position(0, 0), channel=1))
        r0 = attached(Radio("a", medium, Position(3, 0), channel=1))
        attached(Radio("b", medium, Position(5, 0), channel=1))
        attached(Radio("c", medium, Position(4, 0), channel=6))
        assert _cold_names(medium, "tx", 1) == ["a", "b"]
        r0.channel = 6
        assert _cold_names(medium, "tx", 1) == ["b"]
        assert _cold_names(medium, "c", 6) == ["a"]


# ----------------------------------------------------------------------
# EventBatch drains by position
# ----------------------------------------------------------------------
def _by_index(engine, fire, base, offsets):
    """A batch whose slice handler hands ``fire`` each due item's position."""

    def handler(batch):
        fire(batch.index)
        return batch.index + 1

    return EventBatch(engine, handler, base, 0.0, offsets)


class TestEventBatchIndexMode:
    def test_none_payloads_hand_the_handler_indices(self, engine):
        fired = []
        engine.post_batch(
            _by_index(
                engine, lambda i: fired.append((engine.now, i)),
                base=1.0, offsets=[0.0, 1e-6, 5e-6],
            )
        )
        engine.run_until(2.0)
        assert fired == [(1.0, 0), (1.0 + 1e-6, 1), (1.0 + 5e-6, 2)]

    def test_index_mode_pauses_and_resumes_like_payload_mode(self, engine):
        fired = []
        engine.post_batch(
            _by_index(engine, fired.append, base=0.0, offsets=[0.1, 0.3, 0.6])
        )
        engine.run_until(0.4)
        assert fired == [0, 1]
        engine.run_until(1.0)
        assert fired == [0, 1, 2]

    def test_index_mode_yields_to_interleaving_events(self, engine):
        order = []
        engine.post_batch(
            _by_index(engine, order.append, base=0.0, offsets=[1.0, 3.0])
        )
        engine.call_at(2.0, lambda: order.append("evt"))
        engine.run_until(4.0)
        assert order == [0, "evt", 1]
