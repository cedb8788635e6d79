"""MacTransmitter: ACK-gated completion, retries, queueing, retention."""

import gc
import weakref

import numpy as np
import pytest

from repro.mac.ack_engine import AckEngine
from repro.mac.addresses import MacAddress
from repro.mac.frames import BeaconFrame, NullDataFrame
from repro.mac.transmitter import MacTransmitter, TxOutcome
from repro.phy.radio import Radio
from repro.sim.engine import Engine
from repro.sim.medium import Medium
from repro.sim.world import Position
from tests.conftest import attached

SENDER = MacAddress("02:01:01:01:01:01")
RESPONDER = MacAddress("02:02:02:02:02:02")


@pytest.fixture
def sender(medium, rng):
    radio = attached(Radio(str(SENDER), medium, Position(0, 0)))
    ack_engine = AckEngine(radio, SENDER)
    return MacTransmitter(radio, ack_engine, SENDER, rng)


@pytest.fixture
def responder(medium):
    """A standard polite device that will ACK unicast frames."""
    radio = attached(Radio(str(RESPONDER), medium, Position(5, 0)))
    AckEngine(radio, RESPONDER)
    return radio


def _data_to_responder():
    return NullDataFrame(addr1=RESPONDER, addr2=SENDER)


class TestAckedDelivery:
    def test_frame_acked_on_first_attempt(self, engine, sender, responder):
        outcomes = []
        sender.send(_data_to_responder(), on_complete=outcomes.append)
        engine.run_until(0.1)
        assert len(outcomes) == 1
        assert outcomes[0].outcome is TxOutcome.ACKED
        assert outcomes[0].attempts == 1

    def test_broadcast_completes_without_ack(self, engine, sender, responder):
        outcomes = []
        beacon = BeaconFrame(addr2=SENDER)
        sender.send(beacon, on_complete=outcomes.append)
        engine.run_until(0.1)
        assert outcomes[0].outcome is TxOutcome.BROADCAST


class TestRetries:
    def test_absent_responder_exhausts_retries(self, engine, medium, sender):
        outcomes = []
        ghost = NullDataFrame(addr1=MacAddress("02:de:ad:de:ad:01"), addr2=SENDER)
        sender.send(ghost, on_complete=outcomes.append)
        engine.run_until(1.0)
        assert outcomes[0].outcome is TxOutcome.NO_ACK
        assert outcomes[0].attempts == sender.retry_limit + 1

    def test_retry_limit_override(self, engine, sender):
        outcomes = []
        ghost = NullDataFrame(addr1=MacAddress("02:de:ad:de:ad:02"), addr2=SENDER)
        sender.send(ghost, on_complete=outcomes.append, retry_limit=2)
        engine.run_until(1.0)
        assert outcomes[0].attempts == 3

    def test_retry_bit_set_on_retransmissions(self, engine, sender, trace):
        ghost = NullDataFrame(addr1=MacAddress("02:de:ad:de:ad:03"), addr2=SENDER)
        sender.send(ghost, retry_limit=1)
        engine.run_until(1.0)
        assert ghost.retry  # the final attempt carried the retry flag


class TestQueueing:
    def test_frames_sent_in_fifo_order(self, engine, sender, responder, trace):
        for index in range(3):
            frame = _data_to_responder()
            frame.sequence = 100 + index
            sender.send(frame)
        engine.run_until(1.0)
        nulls = trace.filter(lambda r: "Null function" in r.info)
        sequences = [int(r.info.split("SN=")[1].split(",")[0]) for r in nulls]
        assert sequences == [100, 101, 102]

    def test_history_records_everything(self, engine, sender, responder):
        # Every completed frame is reported through its callback.
        attempts = []
        for _ in range(3):
            sender.send(_data_to_responder(), on_complete=attempts.append)
        engine.run_until(1.0)
        assert len(attempts) == 3
        assert all(a.outcome is TxOutcome.ACKED for a in attempts)

    def test_busy_flag(self, engine, sender, responder):
        sender.send(_data_to_responder())
        assert sender.busy
        engine.run_until(1.0)
        assert not sender.busy


class TestRetention:
    def test_completed_frames_are_not_retained(self, rng):
        # Nothing keeps a sent frame once its callback has run: a
        # beaconing city sends tens of thousands of them per run.  No
        # frame trace here, since a trace keeps its own records.
        engine = Engine()
        medium = Medium(engine)
        radio = attached(Radio(str(SENDER), medium, Position(0, 0)))
        sender = MacTransmitter(radio, AckEngine(radio, SENDER), SENDER, rng)
        AckEngine(attached(Radio(str(RESPONDER), medium, Position(5, 0))), RESPONDER)
        refs, outcomes = [], []
        for index in range(300):
            frame = _data_to_responder() if index % 100 == 0 else BeaconFrame(addr2=SENDER)
            refs.append(weakref.ref(frame))
            sender.send(frame, on_complete=lambda attempt: outcomes.append(attempt.outcome))
            del frame
        engine.run_until(5.0)
        assert outcomes.count(TxOutcome.ACKED) == 3
        assert outcomes.count(TxOutcome.BROADCAST) == 297
        gc.collect()
        assert [ref for ref in refs if ref() is not None] == []
