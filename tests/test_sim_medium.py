"""Medium semantics: delivery, capture, collisions, CSI tagging, trace."""

import numpy as np
import pytest

from repro.mac.addresses import MacAddress
from repro.mac.frames import NullDataFrame
from repro.phy.radio import Radio
from repro.sim.engine import Engine
from repro.sim.medium import Medium, free_space_path_loss_db
from repro.sim.trace import FrameTrace
from repro.sim.world import Position
from tests.conftest import attached


def _frame(dst="02:00:00:00:00:01", src="02:00:00:00:00:02"):
    return NullDataFrame(addr1=MacAddress(dst), addr2=MacAddress(src))


class TestAttachment:
    def test_duplicate_names_rejected(self, engine):
        medium = Medium(engine)
        attached(Radio("dup", medium, Position(0, 0)))
        with pytest.raises(ValueError):
            attached(Radio("dup", medium, Position(1, 0)))

    def test_detach_then_reattach(self, engine):
        medium = Medium(engine)
        radio = attached(Radio("r", medium, Position(0, 0)))
        medium.detach("r")
        assert "r" not in medium.radio_names
        medium.attach(radio)
        assert "r" in medium.radio_names

    def test_detached_radio_receives_nothing(self, engine):
        medium = Medium(engine)
        tx = attached(Radio("tx", medium, Position(0, 0)))
        rx = attached(Radio("rx", medium, Position(5, 0)))
        received = []
        rx.frame_handler = received.append
        medium.detach("rx")
        tx.transmit(_frame(), 6.0)
        engine.run_until(0.01)
        assert received == []

    def test_detach_mid_flight_is_safe(self, engine):
        medium = Medium(engine)
        tx = attached(Radio("tx", medium, Position(0, 0)))
        rx = attached(Radio("rx", medium, Position(5, 0)))
        received = []
        rx.frame_handler = received.append
        tx.transmit(_frame(), 6.0)
        # Detach while the frame is on the air.
        engine.call_after(10e-6, lambda: medium.detach("rx"))
        engine.run_until(0.01)
        assert received == []


class TestPropagation:
    def test_free_space_path_loss_formula(self):
        loss = free_space_path_loss_db(Position(0, 0), Position(10, 0), 2.437e9)
        # ~60 dB at 10 m for 2.4 GHz.
        assert loss == pytest.approx(60.2, abs=0.5)

    def test_rssi_decreases_with_distance(self, engine):
        medium = Medium(engine)
        tx = attached(Radio("tx", medium, Position(0, 0)))
        near = attached(Radio("near", medium, Position(2, 0)))
        far = attached(Radio("far", medium, Position(50, 0)))
        rssi = {}
        near.frame_handler = lambda r: rssi.setdefault("near", r.rssi_dbm)
        far.frame_handler = lambda r: rssi.setdefault("far", r.rssi_dbm)
        tx.transmit(_frame(), 6.0)
        engine.run_until(0.01)
        assert rssi["near"] > rssi["far"]

    def test_propagation_delay_orders_reception(self, engine):
        medium = Medium(engine)
        tx = attached(Radio("tx", medium, Position(0, 0)))
        near = attached(Radio("near", medium, Position(3, 0)))
        far = attached(Radio("far", medium, Position(3000, 0)))
        ends = {}
        near.frame_handler = lambda r: ends.setdefault("near", r.end)
        far.frame_handler = lambda r: ends.setdefault("far", r.end)
        tx.transmit(_frame(), 6.0)
        engine.run_until(0.01)
        assert ends["far"] > ends["near"]


class TestCollisions:
    def _three(self, engine, medium):
        a = attached(Radio("a", medium, Position(0, 0)))
        b = attached(Radio("b", medium, Position(200, 0)))
        rx = attached(Radio("rx", medium, Position(100, 0)))  # equidistant
        return a, b, rx

    def test_equal_power_overlap_collides(self, engine):
        medium = Medium(engine)
        a, b, rx = self._three(engine, medium)
        receptions = []
        rx.frame_handler = receptions.append
        a.transmit(_frame(), 6.0)
        b.transmit(_frame(), 6.0)
        engine.run_until(0.01)
        assert len(receptions) == 2
        assert all(not r.fcs_ok for r in receptions)
        assert all(r.collided for r in receptions)

    def test_capture_effect_stronger_frame_survives(self, engine):
        medium = Medium(engine)
        a = attached(Radio("a", medium, Position(99, 0)))  # 1 m from rx — very strong
        b = attached(Radio("b", medium, Position(0, 0)))  # 100 m — weak
        rx = attached(Radio("rx", medium, Position(100, 0)))
        receptions = {}
        rx.frame_handler = lambda r: receptions.setdefault(r.transmission.sender, r)
        b.transmit(_frame(), 6.0)
        a.transmit(_frame(), 6.0)
        engine.run_until(0.01)
        assert receptions["a"].fcs_ok
        assert not receptions["b"].fcs_ok

    def test_non_overlapping_frames_both_succeed(self, engine):
        medium = Medium(engine)
        a, b, rx = self._three(engine, medium)
        receptions = []
        rx.frame_handler = receptions.append
        a.transmit(_frame(), 6.0)
        engine.call_after(0.001, lambda: b.transmit(_frame(), 6.0))
        engine.run_until(0.01)
        assert len(receptions) == 2
        assert all(r.fcs_ok for r in receptions)


class TestFrameErrors:
    def test_fer_model_drops_frames(self, engine):
        medium = Medium(
            engine,
            fer=lambda snr, rate, length: 1.0,  # always lose
            rng=np.random.default_rng(0),
        )
        tx = attached(Radio("tx", medium, Position(0, 0)))
        rx = attached(Radio("rx", medium, Position(5, 0)))
        receptions = []
        rx.frame_handler = receptions.append
        tx.transmit(_frame(), 6.0)
        engine.run_until(0.01)
        assert len(receptions) == 1
        assert not receptions[0].fcs_ok

    @pytest.mark.parametrize("static_neighbour", [False, True])
    def test_mobile_only_receiver_flips_the_fer_coin(self, engine, static_neighbour):
        # Regression: with no static receiver in range the sender's static
        # delivery list is empty, and a mobile receiver (the wardrive rig)
        # used to skip the FER draw and receive every frame intact.
        medium = Medium(
            engine,
            fer=lambda snr, rate, length: 0.5,
            rng=np.random.default_rng(3),
        )
        tx = attached(Radio("tx", medium, Position(0, 0)))
        rig = attached(Radio("rig", medium, lambda t: Position(5.0 + t, 0)))
        if static_neighbour:
            attached(Radio("neighbour", medium, Position(8, 0)))
        receptions = []
        rig.frame_handler = receptions.append
        for k in range(40):
            engine.call_at(1e-3 * k, lambda: tx.transmit(_frame(), 6.0))
        engine.run_until(0.1)
        assert len(receptions) == 40
        delivered = sum(r.fcs_ok for r in receptions)
        assert 5 < delivered < 35


class TestCsiTagging:
    def test_csi_attached_when_model_registered(self, engine):
        def csi_model(tx_name, rx_name, time):
            return np.ones(52, dtype=complex)

        medium = Medium(engine, csi_model=csi_model)
        tx = attached(Radio("tx", medium, Position(0, 0)))
        rx = attached(Radio("rx", medium, Position(5, 0)))
        receptions = []
        rx.frame_handler = receptions.append
        tx.transmit(_frame(), 6.0)
        engine.run_until(0.01)
        assert receptions[0].csi is not None
        assert len(receptions[0].csi) == 52


class TestTrace:
    def test_transmissions_recorded(self, engine):
        trace = FrameTrace()
        medium = Medium(engine, trace=trace)
        tx = attached(Radio("tx", medium, Position(0, 0)))
        attached(Radio("rx", medium, Position(5, 0)))
        tx.transmit(_frame(src="aa:bb:bb:bb:bb:bb"), 6.0)
        engine.run_until(0.01)
        assert len(trace) == 1
        assert trace[0].source == "aa:bb:bb:bb:bb:bb"
        assert "Null function" in trace[0].info


class TestBusyDetection:
    def test_busy_during_overlap(self, engine):
        medium = Medium(engine)
        tx = attached(Radio("tx", medium, Position(0, 0)))
        rx = attached(Radio("rx", medium, Position(5, 0)))
        rx.frame_handler = lambda r: None
        tx.transmit(_frame(), 6.0)
        busy = []
        engine.call_after(20e-6, lambda: busy.append(medium.is_busy_for("rx")))
        engine.run_until(0.01)
        assert busy == [True]
        assert not medium.is_busy_for("rx")
