"""The politeness invariant, property-tested over arbitrary frames.

For ANY frame that (a) passes the FCS and (b) carries the victim's MAC as
receiver address: the victim emits exactly one ACK (or CTS for RTS) —
regardless of type, subtype, flags, payload content, spoofed source, or
protection bit.  Group-addressed and control frames (other than RTS) are
never answered.  This is the paper's discovery stated as an executable
universally-quantified property.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mac.ack_engine import AckEngine
from repro.mac.addresses import MacAddress
from repro.mac.frames import (
    SUBTYPE_ACK,
    SUBTYPE_ASSOC_REQUEST,
    SUBTYPE_AUTH,
    SUBTYPE_BEACON,
    SUBTYPE_CTS,
    SUBTYPE_DATA,
    SUBTYPE_DEAUTH,
    SUBTYPE_NULL,
    SUBTYPE_PROBE_REQUEST,
    SUBTYPE_QOS_DATA,
    SUBTYPE_QOS_NULL,
    SUBTYPE_RTS,
    Frame,
    FrameType,
)
from repro.mac.serialization import serialize
from repro.phy.radio import Radio
from repro.sim.engine import Engine
from repro.sim.medium import Medium
from repro.sim.world import Position
from tests.conftest import attached

VICTIM = MacAddress("f2:6e:0b:11:22:33")

unicast_macs = st.binary(min_size=6, max_size=6).map(
    lambda raw: MacAddress(bytes([raw[0] & 0xFE]) + raw[1:5] + bytes([raw[5] | 0x01]))
)
group_macs = st.binary(min_size=6, max_size=6).map(
    lambda raw: MacAddress(bytes([raw[0] | 0x01]) + raw[1:])
)

_ACKABLE_SUBTYPES = {
    FrameType.DATA: [SUBTYPE_DATA, SUBTYPE_NULL, SUBTYPE_QOS_DATA, SUBTYPE_QOS_NULL],
    FrameType.MANAGEMENT: [
        SUBTYPE_BEACON,  # unicast-addressed beacons are still data-class ACKable
        SUBTYPE_PROBE_REQUEST,
        SUBTYPE_AUTH,
        SUBTYPE_ASSOC_REQUEST,
        SUBTYPE_DEAUTH,
    ],
}


@st.composite
def ackable_frames(draw):
    """Any non-control frame addressed to the victim."""
    ftype = draw(st.sampled_from([FrameType.DATA, FrameType.MANAGEMENT]))
    frame = Frame(
        ftype=ftype,
        subtype=draw(st.sampled_from(_ACKABLE_SUBTYPES[ftype])),
        addr1=VICTIM,
        addr2=draw(unicast_macs),
        addr3=draw(st.one_of(st.none(), unicast_macs)),
        duration_us=draw(st.integers(0, 0x7FFF)),
        to_ds=draw(st.booleans()),
        from_ds=draw(st.booleans()),
        retry=False,  # retries are deliberately exercised elsewhere
        power_management=draw(st.booleans()),
        more_data=draw(st.booleans()),
        protected=draw(st.booleans()),
        body=draw(st.binary(max_size=128)),
    )
    frame.sequence = draw(st.integers(0, 4095))
    return frame


def _deliver(frame):
    """Fresh world per example: transmit the frame at the victim."""
    engine = Engine()
    medium = Medium(engine)
    victim_radio = attached(Radio(str(VICTIM), medium, Position(0, 0)))
    victim = AckEngine(victim_radio, VICTIM)
    tx = attached(Radio("tx", medium, Position(4, 0)))
    tx.transmit(frame, 6.0)
    engine.run_until(0.01)
    return victim


class TestPolitenessInvariant:
    @settings(max_examples=120, deadline=None)
    @given(ackable_frames())
    def test_every_unicast_noncontrol_frame_gets_exactly_one_ack(self, frame):
        victim = _deliver(frame)
        assert victim.stats.acks_sent == 1

    @settings(max_examples=60, deadline=None)
    @given(ackable_frames(), group_macs)
    def test_group_addressed_variant_never_acked(self, frame, group):
        frame.addr1 = group
        victim = _deliver(frame)
        assert victim.stats.acks_sent == 0

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([SUBTYPE_ACK, SUBTYPE_CTS]), unicast_macs)
    def test_ack_and_cts_never_answered(self, subtype, ta):
        frame = Frame(ftype=FrameType.CONTROL, subtype=subtype, addr1=VICTIM)
        victim = _deliver(frame)
        assert victim.stats.acks_sent == 0
        assert victim.stats.cts_sent == 0

    @settings(max_examples=60, deadline=None)
    @given(unicast_macs, st.integers(0, 0x7FFF))
    def test_rts_always_answered_with_cts(self, ta, duration):
        frame = Frame(
            ftype=FrameType.CONTROL, subtype=SUBTYPE_RTS,
            addr1=VICTIM, addr2=ta, duration_us=duration,
        )
        victim = _deliver(frame)
        assert victim.stats.cts_sent == 1
        assert victim.stats.acks_sent == 0

    @settings(max_examples=60, deadline=None)
    @given(ackable_frames())
    def test_politeness_independent_of_payload_and_protection(self, frame):
        """Flipping the protected bit or payload never changes the ACK."""
        baseline = _deliver(frame).stats.acks_sent
        frame.protected = not frame.protected
        frame.body = bytes(reversed(frame.body)) + b"\x00"
        assert _deliver(frame).stats.acks_sent == baseline == 1
