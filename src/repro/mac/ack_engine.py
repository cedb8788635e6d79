"""The PHY-level acknowledgement engine — the Polite WiFi root cause.

IEEE 802.11 requires that a receiver start transmitting the ACK exactly one
SIFS after the end of any correctly-received (FCS-passing) unicast frame
addressed to it, and a CTS one SIFS after any RTS.  SIFS is 10 µs at
2.4 GHz — far too short to consult the MAC, the driver, or the operating
system, let alone run CCMP decryption (200–700 µs).  The consequence the
paper discovers is that this automaton answers *strangers*: a fake,
unencrypted frame from a device that was never part of the network is
acknowledged like any other, because the only checks that fit in the
deadline are the CRC and the receiver-address match.

:class:`AckEngine` implements exactly that automaton.  Politeness is not a
hard-coded "vulnerability flag": it emerges from implementing the standard
faithfully.  The ablation hooks (:attr:`AckEngineConfig.validate_before_ack`)
model the *hypothetical* checking device of Section 2.2 so the benchmarks
can show why it cannot meet the deadline.

Everything above this module (association state, blocklists, deauth logic,
802.11w) runs *after* the ACK decision — which is why the access point in
Figure 3 deauthenticates the attacker and still acknowledges its frames.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Collection, Container, Dict, Optional, Tuple

from repro.mac.addresses import MacAddress
from repro.mac.frames import (
    SUBTYPE_PROBE_REQUEST,
    _CONTROL,
    AckFrame,
    CtsFrame,
    Frame,
    FrameType,
)
from repro.phy.constants import Band, sifs
from repro.phy.plcp import cts_airtime
from repro.phy.radio import Radio
from repro.phy.rates import ack_rate_for
from repro.sim.medium import (
    GROUP_LANES_MASK,
    LANE_FCS_FAIL,
    LANE_KNOWN_SOURCE,
    LANE_NOT_FOR_ME,
    LANE_WILDCARD_PROBE,
    TALLY_FCS_FAIL,
    TALLY_GROUP,
    TALLY_NOT_FOR_ME,
    Reception,
    group_lane,
)

#: How many (transmitter, sequence) pairs the duplicate cache remembers.
_DUPLICATE_CACHE_SIZE = 64

#: Passive key of the probe requests for any network alone (empty SSID,
#: :data:`~repro.sim.medium.LANE_WILDCARD_PROBE`), next to the
#: ``(ftype, subtype)`` keys of whole frame types.
WILDCARD_PROBE_KEY = (FrameType.MANAGEMENT, SUBTYPE_PROBE_REQUEST, "")


@functools.lru_cache(maxsize=64)
def _group_mask(keys: frozenset) -> int:
    """Group-lane mask of a set of passive keys.

    Cached: callers hand the same set for every instance of a device
    class, so an install is one lookup.
    """
    mask = 0
    for key in keys:
        if key[:2] == WILDCARD_PROBE_KEY[:2]:
            # Passive for every probe request is passive for the
            # wildcard ones too.
            mask |= 1 << LANE_WILDCARD_PROBE
        if key != WILDCARD_PROBE_KEY:
            mask |= 1 << group_lane(*key)
    return mask


@dataclass
class AckEngineConfig:
    """Behavioural knobs of the receive-side PHY/low-MAC automaton.

    The defaults model every real device the paper tested.  The other
    settings exist purely for the defense-feasibility ablations:

    ``validate_before_ack``
        The hypothetical device that verifies frame legitimacy before
        acknowledging.  The ``validator`` callback returns
        ``(is_legitimate, decode_time_s)``; the ACK (if the frame proves
        legitimate) is only transmitted after the decode time, so it
        always misses the SIFS deadline (the transmitter will long since
        have declared the frame lost).
    ``respond_to_rts``
        Disable to model a device that somehow suppressed CTS responses —
        the standard does not permit this, since control frames cannot be
        encrypted and channel reservation must work network-wide.
    """

    band: Band = Band.GHZ_2_4
    respond_to_rts: bool = True
    validate_before_ack: bool = False
    validator: Optional[Callable[[Frame], Tuple[bool, float]]] = None
    promiscuous: bool = False


@dataclass
class AckEngineStats:
    """Counters the tests and benchmarks assert on."""

    frames_seen: int = 0
    fcs_failures: int = 0
    acks_sent: int = 0
    cts_sent: int = 0
    acks_suppressed_by_validation: int = 0
    late_acks: int = 0
    duplicates_dropped: int = 0
    passed_up: int = 0


class AckEngine:
    """Receive-side automaton bound to one radio.

    Wire-up: the engine installs itself as the radio's ``frame_handler``;
    the device's upper MAC subscribes via :attr:`mac_handler` (data and
    management frames that survive duplicate filtering) and
    :attr:`control_handler` (ACK/CTS addressed to us, consumed by the
    retransmitting transmitter).

    Most arrivals at a receiver end in counter arithmetic: a failed FCS,
    clean unicast for another MAC, a group frame nobody above acts on.
    The engine publishes which of those lanes it can take as tallies
    (:meth:`Radio.publish_lanes`), and republishes whenever an input of
    that verdict changes: a handler assignment or installation, or a
    passivity promise.  :attr:`stats` folds the tallies back in, so the
    counters read exactly as if every arrival had taken the scalar path.
    """

    def __init__(
        self,
        radio: Radio,
        mac_address: MacAddress,
        config: Optional[AckEngineConfig] = None,
        metrics=None,
    ) -> None:
        self.radio = radio
        self.mac_address = MacAddress(mac_address)
        self.config = config if config is not None else AckEngineConfig()
        self._stats = AckEngineStats()
        # Default to the simulation-wide registry threaded through the
        # engine/medium, so instrumenting the Engine instruments every
        # device's ACK automaton with shared counters.
        self.metrics = metrics if metrics is not None else radio.medium.metrics
        self._ctr_acks = None
        self._ctr_cts = None
        self._hist_gap = None
        if self.metrics is not None:
            self._ctr_acks = self.metrics.counter(
                "ack.acks_sent", "acknowledgements transmitted"
            )
            self._ctr_cts = self.metrics.counter(
                "ack.cts_sent", "clear-to-send responses transmitted"
            )
            self._hist_gap = self.metrics.histogram(
                "ack.response_gap_us",
                "gap between frame end and the scheduled ACK/CTS (us); "
                "SIFS unless a validation ablation delays it",
                buckets=(10.0, 16.0, 25.0, 50.0, 100.0, 250.0, 1000.0),
            )
        self._mac_handler: Optional[Callable[[Frame, Reception], None]] = None
        self.control_handler: Optional[Callable[[Frame, Reception], None]] = None
        self._sniffer_handler: Optional[Callable[[Frame, Reception], None]] = None
        # Passivity promises (see install_sniffer / install_mac_handler),
        # dropped whenever the handler they were made for is replaced.
        self._sniffer_passive = False
        #: Sources the sniffer promised to ignore (``install_sniffer``).
        self._sniffer_sources = None
        #: Group lanes the MAC handler promised to ignore.
        self._mac_group_mask = 0
        self._duplicate_cache: Dict[Tuple[MacAddress, int, int], None] = {}
        # Hot-path caches: the config flag, SIFS and own-address bytes are
        # immutable after construction and read on every reception (a
        # per-ACK sifs() lookup hashes the Band enum in Python).
        self._promiscuous = self.config.promiscuous
        self._sifs = sifs(self.config.band)
        self._mac_value = self.mac_address._value
        # A (nonstandard) group-bit own address would tie with the
        # group-destination test; the fast lanes refuse to guess and the
        # scalar path keeps its exact address-match semantics.
        self._group_mac = bool(self._mac_value[0] & 0x01)
        radio.frame_handler = self._on_reception
        # Claim a lane list of our own, so the tallies in it are ours,
        # and publish the receive MAC the medium's lane pre-filter
        # classifies against.  A radio attached before this engine
        # existed is in delivery lists: tell the medium the addressing
        # changed (a no-op for a radio not attached yet, as a Device's).
        self._lanes = radio.claim_lanes()
        #: Lane tallies already folded into ``_stats``.
        self._folded = [0, 0, 0]
        radio.rx_mac_u64 = int.from_bytes(self._mac_value, "big")
        radio.medium.note_addressing_changed(radio.name)
        self._publish_lanes()

    @property
    def stats(self) -> AckEngineStats:
        """The counters, with the arrivals the medium tallied folded in."""
        stats = self._stats
        lanes = self._lanes
        folded = self._folded
        fcs = lanes[TALLY_FCS_FAIL] - folded[0]
        other = lanes[TALLY_NOT_FOR_ME] - folded[1]
        group = lanes[TALLY_GROUP] - folded[2]
        if fcs or other or group:
            stats.frames_seen += fcs + other + group
            stats.fcs_failures += fcs
            stats.passed_up += group
            folded[:] = lanes[TALLY_FCS_FAIL : TALLY_GROUP + 1]
        return stats

    # ------------------------------------------------------------------
    # Handlers and the lane mask
    # ------------------------------------------------------------------
    @property
    def sniffer_handler(self) -> Optional[Callable[[Frame, Reception], None]]:
        """Called with every decoded frame, ours or not."""
        return self._sniffer_handler

    @sniffer_handler.setter
    def sniffer_handler(self, handler) -> None:
        self.install_sniffer(handler)

    @property
    def mac_handler(self) -> Optional[Callable[[Frame, Reception], None]]:
        """Called with the group frames and our unicast frames."""
        return self._mac_handler

    @mac_handler.setter
    def mac_handler(self, handler) -> None:
        self.install_mac_handler(handler)

    def install_sniffer(
        self,
        handler: Optional[Callable[[Frame, Reception], None]],
        passive: bool = False,
        ignored_sources: Optional[Container[int]] = None,
    ) -> None:
        """Set :attr:`sniffer_handler`, with a passivity promise.

        ``passive=True`` promises that ``handler`` currently has no
        observable effect for any frame, so arrivals that would reach it
        and nothing else may be tallied without calling it.
        ``ignored_sources`` promises the same for the clean non-control
        frames whose transmitter (``Frame.src_u64``) it contains; the
        handler may grow it in place, never shrink it.  Only a
        promiscuous engine, which hands such a frame to its sniffer
        alone, publishes it.  Call again with the same handler to push a
        changed promise.
        """
        self._sniffer_handler = handler
        self._sniffer_passive = passive
        self._sniffer_sources = ignored_sources
        self._publish_lanes()

    def install_mac_handler(
        self,
        handler: Optional[Callable[[Frame, Reception], None]],
        passive_keys: Collection[tuple] = frozenset(),
    ) -> None:
        """Set :attr:`mac_handler`, with a passivity promise.

        ``passive_keys`` holds the ``(ftype, subtype)`` pairs for which
        ``handler`` is a no-op on group frames — beacons heard by idle
        stations are the wardrive's dominant traffic — so those arrivals
        are tallied without building their :class:`Reception`.
        :data:`WILDCARD_PROBE_KEY` covers the probe requests with an
        empty SSID alone.  Pass the same frozen set for every instance
        of a class: its lane mask is computed once.
        """
        self._mac_handler = handler
        self._mac_group_mask = _group_mask(frozenset(passive_keys))
        self._publish_lanes()

    def _publish_lanes(self) -> None:
        """Tell the radio which lanes are pure counter arithmetic here.

        A failed FCS always is.  Clean not-for-me unicast is, unless a
        sniffer without a passivity promise would see it; a promiscuous
        engine does nothing else with such a frame either.  A clean group
        frame also reaches the MAC handler of a non-promiscuous engine,
        so its lane needs that handler absent or passive for its frame
        type, and an own MAC without the group bit (a group-bit own
        address would need the exact address comparison of the scalar
        path).  At a promiscuous engine every clean frame reaches the
        sniffer alone, so one from a source the sniffer ignores is a
        not-for-me tally (:data:`LANE_KNOWN_SOURCE`).  Nothing is
        published once another handler owns the radio.
        """
        radio = self.radio
        if radio.lanes is not self._lanes or radio.frame_handler != self._on_reception:
            return
        mask = 1 << LANE_FCS_FAIL
        if self._sniffer_handler is None or self._sniffer_passive:
            mask |= 1 << LANE_NOT_FOR_ME
            if not self._promiscuous and not self._group_mac:
                if self._mac_handler is None:
                    mask |= GROUP_LANES_MASK
                else:
                    mask |= self._mac_group_mask
        sources = self._sniffer_sources if self._promiscuous else None
        if sources is not None:
            mask |= 1 << LANE_KNOWN_SOURCE
        radio.publish_lanes(mask, sources)

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def _on_reception(self, reception: Reception) -> None:
        stats = self._stats
        stats.frames_seen += 1
        if not reception.fcs_ok:
            # The PHY silently discards frames that fail the CRC; nothing
            # above ever learns they existed, and no ACK is generated.
            stats.fcs_failures += 1
            return
        payload = reception.frame
        frame = payload if isinstance(payload, Frame) else self._as_frame(payload)
        if frame is None:
            stats.fcs_failures += 1
            return
        sniffer = self._sniffer_handler
        if sniffer is not None:
            sniffer(frame, reception)
        if self._promiscuous:
            # Monitor-mode interfaces capture everything and answer nothing.
            return
        addr1 = frame.addr1
        if addr1._value != self._mac_value:
            if addr1._value[0] & 0x01:  # group bit: multicast/broadcast
                stats.passed_up += 1
                handler = self._mac_handler
                if handler is not None:
                    handler(frame, reception)
            return

        # --- From here on the frame is addressed to us and passed the FCS.
        # This is the entirety of what fits inside SIFS.
        if frame.ftype is _CONTROL:
            self._handle_control(frame, reception)
            return
        self._schedule_ack(frame, reception)
        self._pass_up_unicast(frame, reception)

    @staticmethod
    def _as_frame(payload: object) -> Optional[Frame]:
        """The frame behind an untyped payload off the air; ``None`` if malformed.

        A raw PSDU (``repro.devices.dongle.RawPsdu``) parses itself once
        for every reader: the CRC check and parse are the same at each
        receiver of a transmission.
        """
        parsed = getattr(payload, "parsed", None)
        return parsed() if parsed is not None else None

    # ------------------------------------------------------------------
    # Control responses
    # ------------------------------------------------------------------
    def _handle_control(self, frame: Frame, reception: Reception) -> None:
        if frame.is_rts and self.config.respond_to_rts:
            self._schedule_cts(frame, reception)
            return
        if (frame.is_ack or frame.is_cts) and self.control_handler is not None:
            self.control_handler(frame, reception)

    def _schedule_cts(self, rts: Frame, reception: Reception) -> None:
        """CTS one SIFS after the RTS — mandatory, unencryptable, and the
        reason Polite WiFi survives even a hypothetical instant validator."""
        gap = self._sifs
        rate = ack_rate_for(reception.rate_mbps)
        remaining = rts.duration_us * 1e-6 - gap - cts_airtime(rate)
        cts = CtsFrame(
            ra=rts.addr2 if rts.addr2 is not None else rts.addr1,
            duration_us=max(int(remaining * 1e6), 0),
        )

        def send() -> None:
            self.radio.transmit(cts, rate)
            self._stats.cts_sent += 1
            if self._ctr_cts is not None:
                self._ctr_cts.inc()

        if self._hist_gap is not None:
            self._hist_gap.observe(gap * 1e6)
        # post(), not call_after(): the response is never cancelled, and
        # both take exactly one sequence number.
        engine = self.radio.medium.engine
        engine.post(engine.clock._now + gap, send)

    def _schedule_ack(self, frame: Frame, reception: Reception) -> None:
        if not frame.needs_ack:
            return
        rate = ack_rate_for(reception.rate_mbps)
        ack = AckFrame(ra=frame.addr2 if frame.addr2 is not None else frame.addr1)
        gap = self._sifs

        if self.config.validate_before_ack:
            # Hypothetical checking device (Section 2.2 ablation): the ACK
            # waits for full frame validation.  Decode takes 200-700 us,
            # so the ACK — when it comes at all — is hopelessly late.
            validator = self.config.validator
            if validator is None:
                raise RuntimeError(
                    "validate_before_ack requires a validator callback"
                )
            legitimate, decode_time = validator(frame)
            if not legitimate:
                self._stats.acks_suppressed_by_validation += 1
                return
            if decode_time > gap:
                self._stats.late_acks += 1
            gap = max(gap, decode_time)

        def send() -> None:
            self.radio.transmit(ack, rate)
            self._stats.acks_sent += 1
            if self._ctr_acks is not None:
                self._ctr_acks.inc()

        if self._hist_gap is not None:
            self._hist_gap.observe(gap * 1e6)
        engine = self.radio.medium.engine
        engine.post(engine.clock._now + gap, send)

    # ------------------------------------------------------------------
    # Pass-up to the real MAC (runs long after the ACK decision)
    # ------------------------------------------------------------------
    def _pass_up_unicast(self, frame: Frame, reception: Reception) -> None:
        key = None
        if frame.addr2 is not None:
            key = (frame.addr2, frame.sequence, frame.fragment)
        if frame.retry and key is not None and key in self._duplicate_cache:
            # Duplicates are *still acknowledged* (the ACK already went out
            # above); they are merely not delivered twice.
            self._stats.duplicates_dropped += 1
            return
        if key is not None:
            self._duplicate_cache[key] = None
            while len(self._duplicate_cache) > _DUPLICATE_CACHE_SIZE:
                self._duplicate_cache.pop(next(iter(self._duplicate_cache)))
        self._stats.passed_up += 1
        handler = self._mac_handler
        if handler is not None:
            handler(frame, reception)
