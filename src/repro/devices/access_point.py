"""Access point: beaconing, association handling, and the Section 2.1
behaviours the paper observed on real APs.

Two quirks from the paper are modelled explicitly:

* **deauth-on-unknown** — some APs react to the attacker's fake data
  frames by bursting deauthentication frames at the spoofed address
  ("leave the network!"), even though that address was never associated.
  Because the attacker's monitor interface never acknowledges them, the
  AP retransmits each deauth — which is why Figure 3 shows the same
  sequence number three times.  And the AP *still* acknowledges the next
  fake frame, because the ACK engine sits below all of this.
* **MAC blocklists** — blocking the attacker's address drops its frames
  at the MAC filter, but the filter runs above the ACK engine, so the
  ACKs keep flowing ("this experiment destroyed the last hope of
  preventing this attack").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from repro.crypto.ccmp import CcmpError, CcmpSession
from repro.crypto.wpa2 import FourWayHandshake, derive_pmk, tk_of
from repro.devices.base import Device, DeviceKind
from repro.mac import llc
from repro.mac.ack_engine import WILDCARD_PROBE_KEY
from repro.mac.addresses import BROADCAST, MacAddress
from repro.mac.frames import (
    AssocResponseFrame,
    AuthFrame,
    BeaconFrame,
    DataFrame,
    DeauthFrame,
    Frame,
    ProbeResponseFrame,
)
from repro.sim.medium import Reception


@dataclass(frozen=True)
class ApBehavior:
    """Per-chipset AP personality knobs.

    Frozen: an AP's passivity promise is computed from its behavior, so
    a change is a new object assigned to :attr:`AccessPoint.behavior`,
    which republishes the promise.
    """

    beacon_interval: float = 0.1024
    deauth_on_unknown: bool = False
    deauth_retry_limit: int = 2  # 1 + 2 retries = the 3 copies of Figure 3
    deauth_cooldown: float = 0.5  # at most one burst per source per cooldown
    pmf: bool = False
    #: Answer wildcard (broadcast-SSID) probe requests.  Real APs mostly
    #: do; the dense synthetic city disables it because a single wildcard
    #: probe answered by every AP in range creates response/retry storms
    #: that dominate simulation cost without affecting any result (the
    #: survey discovers APs from their beacons).
    respond_to_wildcard_probe: bool = True


@dataclass
class _Association:
    station: MacAddress
    state: str = "authenticated"  # authenticated → associated → keyed
    handshake: Optional[FourWayHandshake] = None
    session: Optional[CcmpSession] = None
    association_id: int = 0


class AccessPoint(Device):
    """A WPA2-PSK access point."""

    #: The beacon loop: ``None`` while there is none, ``True`` while it
    #: runs, ``False`` once stopped while its next tick is still queued
    #: (that tick ends it).  A class default set on start: one more
    #: attribute per instance would take a started AP past CPython's
    #: shared-key dict limit (about 1.3 KB more per device).
    _beaconing: Optional[bool] = None

    def __init__(
        self,
        *args,
        ssid: str = "PoliteNet",
        passphrase: Optional[str] = "correct horse battery",
        behavior: Optional[ApBehavior] = None,
        **kwargs,
    ) -> None:
        """``passphrase=None`` runs an *open* network (no WPA2) — the
        configuration a WindTalker-style rogue AP uses to lure victims."""
        if passphrase is not None and not 8 <= len(passphrase) <= 63:
            # Fail fast at setup: only the PBKDF2 work is deferred, not
            # the 802.11i passphrase validity check.
            raise ValueError("WPA2 passphrases are 8..63 characters")
        kwargs.setdefault("kind", DeviceKind.ACCESS_POINT)
        super().__init__(*args, **kwargs)
        self.ssid = ssid
        self._passphrase = passphrase
        self.behavior = behavior if behavior is not None else ApBehavior()
        # PMK derivation (PBKDF2, ~ms of real work) is deferred until a
        # station actually reaches the 4-way handshake: a wardrive city
        # materializes hundreds of APs nobody ever associates with.
        self._pmk_bytes: Optional[bytes] = b"" if passphrase is None else None
        self._gtk = bytes(int(b) for b in self.rng.integers(0, 256, size=16))
        self._associations: Dict[MacAddress, _Association] = {}
        self._next_aid = 1
        self.blocklist: Set[MacAddress] = set()
        self.blocked_frames_dropped = 0
        self.deauth_bursts_sent = 0
        self._last_deauth_at: Dict[MacAddress, float] = {}
        self.data_received = 0
        #: Optional application hook: (payload, frame) per delivered payload.
        self.data_handler = None

    @property
    def behavior(self) -> ApBehavior:
        return self._behavior

    @behavior.setter
    def behavior(self, behavior: ApBehavior) -> None:
        self._behavior = behavior
        self._publish_passivity()

    def _publish_passivity(self) -> None:
        """Promise passivity on wildcard probe requests while ignoring them.

        :meth:`on_probe_request` returns at once for a wildcard probe
        (``Frame.is_wildcard_probe``) unless
        ``behavior.respond_to_wildcard_probe``, so those arrivals are
        tallied without building their Reception: in the synthetic city
        they are most of what an AP hears.  The promise needs neither
        ``_dispatch_frame`` nor ``on_probe_request`` overridden and the
        handler installed at construction still in place; every
        ``behavior`` assignment republishes it.
        """
        cls = type(self)
        ack_engine = self.ack_engine
        if (
            cls._dispatch_frame is not Device._dispatch_frame
            or cls.on_probe_request is not AccessPoint.on_probe_request
            or ack_engine.mac_handler != self._dispatch_frame
        ):
            return
        keys = cls._passive_group_keys()
        if not self._behavior.respond_to_wildcard_probe:
            keys = keys | {WILDCARD_PROBE_KEY}
        ack_engine.install_mac_handler(self._dispatch_frame, passive_keys=keys)

    @property
    def _pmk(self) -> bytes:
        pmk = self._pmk_bytes
        if pmk is None:
            assert self._passphrase is not None
            pmk = self._pmk_bytes = derive_pmk(self._passphrase, self.ssid)
        return pmk

    # ------------------------------------------------------------------
    # Beaconing / discovery
    # ------------------------------------------------------------------
    def start_beaconing(self) -> None:
        """Broadcast beacons at the configured interval until stopped.

        A restart while the stopped loop's next tick is still queued
        resumes that loop: one loop per AP, whatever the stop/start
        pattern.
        """
        if self._beaconing:
            return
        queued = self._beaconing is False
        self._beaconing = True
        if queued:
            return
        # Jitter the first beacon so co-channel APs don't synchronize.
        offset = float(self.rng.uniform(0.0, self._behavior.beacon_interval))
        engine = self.engine
        engine.post(engine.clock._now + offset, self._beacon_tick)

    def stop_beaconing(self) -> None:
        """Stop the beacon loop (wardrive deactivation)."""
        if self._beaconing:
            self._beaconing = False

    def _beacon_tick(self) -> None:
        # Ticks are posted (Engine.post): nothing cancels one, a stopped
        # loop ends at its next tick.
        if not self._beaconing:
            self._beaconing = None
            return
        interval = self._behavior.beacon_interval
        mac = self.mac
        beacon = BeaconFrame(
            addr1=BROADCAST,
            addr2=mac,
            addr3=mac,
            ssid=self.ssid,
            beacon_interval_tu=int(interval / 1.024e-3),
        )
        self.send(beacon)
        engine = self.engine
        engine.post(engine.clock._now + interval, self._beacon_tick)

    def on_probe_request(self, frame: Frame, reception: Reception) -> None:
        if frame.is_wildcard_probe():
            if not self.behavior.respond_to_wildcard_probe:
                return
        elif getattr(frame, "ssid", "") != self.ssid:
            return
        if frame.addr2 is None:
            return
        response = ProbeResponseFrame(
            addr1=frame.addr2,
            addr2=self.mac,
            addr3=self.mac,
            ssid=self.ssid,
        )
        self.send(response)

    # ------------------------------------------------------------------
    # MAC filtering (demonstrably useless against Polite WiFi)
    # ------------------------------------------------------------------
    def block(self, mac: MacAddress) -> None:
        """Add ``mac`` to the AP's blocklist (a MAC-layer filter)."""
        self.blocklist.add(MacAddress(mac))

    def _blocked(self, frame: Frame) -> bool:
        if frame.addr2 is not None and frame.addr2 in self.blocklist:
            # Dropped *here*, at the MAC — the PHY already ACKed.
            self.blocked_frames_dropped += 1
            return True
        return False

    # ------------------------------------------------------------------
    # Association control plane
    # ------------------------------------------------------------------
    def on_auth(self, frame: Frame, reception: Reception) -> None:
        if self._blocked(frame) or frame.addr2 is None:
            return
        if getattr(frame, "auth_sequence", 0) != 1:
            return
        self._associations[frame.addr2] = _Association(station=frame.addr2)
        reply = AuthFrame(
            addr1=frame.addr2,
            addr2=self.mac,
            addr3=self.mac,
            auth_sequence=2,
            status=0,
        )
        self.send(reply)

    def on_assoc_request(self, frame: Frame, reception: Reception) -> None:
        if self._blocked(frame) or frame.addr2 is None:
            return
        association = self._associations.get(frame.addr2)
        if association is None:
            return
        association.state = "associated"
        association.association_id = self._next_aid
        self._next_aid += 1
        reply = AssocResponseFrame(
            addr1=frame.addr2,
            addr2=self.mac,
            addr3=self.mac,
            status=0,
            association_id=association.association_id,
        )
        if self._passphrase is None:
            # Open network: associated means connected; no key handshake.
            association.state = "keyed"
            self.send(reply)
            return
        anonce = bytes(int(b) for b in self.rng.integers(0, 256, size=32))
        association.handshake = FourWayHandshake(
            pmk=self._pmk,
            ap_mac=self.mac,
            sta_mac=frame.addr2,
            anonce=anonce,
            snonce=b"\x00" * 32,  # learned from message 2
            gtk=self._gtk,
        )

        def kick_off_handshake(_attempt) -> None:
            assert association.handshake is not None
            self._send_eapol(association.station, association.handshake.ap_message1())

        self.send(reply, on_complete=kick_off_handshake)

    def _send_eapol(self, station: MacAddress, payload: bytes) -> None:
        frame = DataFrame(
            addr1=station,
            addr2=self.mac,
            addr3=self.mac,
            from_ds=True,
            body=llc.wrap_eapol(payload),
        )
        self.send(frame)

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def on_data(self, frame: Frame, reception: Reception) -> None:
        if self._blocked(frame):
            return
        source = frame.addr2
        association = self._associations.get(source) if source is not None else None
        if association is not None and llc.is_eapol(frame.body):
            assert association.handshake is not None
            reply = association.handshake.ap_handle(llc.eapol_payload(frame.body))
            if reply is not None:
                self._send_eapol(association.station, reply)
            if association.handshake.ap_installed:
                association.state = "keyed"
                assert association.handshake.ap_ptk is not None
                association.session = CcmpSession(
                    tk_of(association.handshake.ap_ptk)
                )
            return
        if association is not None and association.state == "keyed":
            if frame.protected and association.session is not None:
                try:
                    plaintext = association.session.decrypt(frame)
                except CcmpError:
                    return
                self.data_received += 1
                self._deliver_payload(plaintext, frame)
                return
            if frame.is_null_data:
                self.data_received += 1  # keepalive
                return
            if not frame.protected and association.session is None:
                # Open network: plaintext data from a connected station.
                self.data_received += 1
                self._deliver_payload(frame.body, frame)
                return
        # Class-3 data from a station we know nothing about: the paper's
        # fake frame.  Some APs bark; none can stop the ACK below.
        self.unsolicited_data_frames += 1
        self.fake_frames_discarded += 1
        if self.behavior.deauth_on_unknown and source is not None:
            self._maybe_deauth(source)

    def _maybe_deauth(self, intruder: MacAddress) -> None:
        now = self.engine.now
        last = self._last_deauth_at.get(intruder)
        if last is not None and now - last < self.behavior.deauth_cooldown:
            return
        self._last_deauth_at[intruder] = now
        deauth = DeauthFrame(
            addr1=intruder,
            addr2=self.mac,
            addr3=self.mac,
            reason=7,  # class-3 frame from nonassociated station
        )
        if self.behavior.pmf:
            deauth.protected = True
        self.deauth_bursts_sent += 1
        self.send(deauth, retry_limit=self.behavior.deauth_retry_limit)

    def _deliver_payload(self, body: bytes, frame: Frame) -> None:
        parsed = llc.unwrap(body)
        payload = parsed[1] if parsed is not None else body
        if self.data_handler is not None:
            self.data_handler(payload, frame)

    def send_data(
        self, station: MacAddress, payload: bytes, rate_mbps: float = 24.0
    ) -> None:
        """Send an application payload to an associated station."""
        station = MacAddress(station)
        association = self._associations.get(station)
        if association is None or association.state != "keyed":
            raise RuntimeError(f"{station} is not associated")
        frame = DataFrame(
            addr1=station,
            addr2=self.mac,
            addr3=self.mac,
            from_ds=True,
        )
        wrapped = llc.wrap(llc.ETHERTYPE_IPV4, payload)
        if association.session is not None:
            frame.body = association.session.encrypt(frame, wrapped)
        else:
            frame.body = wrapped
        self.send(frame, rate_mbps)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def is_associated(self, station: MacAddress) -> bool:
        association = self._associations.get(MacAddress(station))
        return association is not None and association.state == "keyed"

    def associated_stations(self) -> Set[MacAddress]:
        return {
            mac
            for mac, record in self._associations.items()
            if record.state == "keyed"
        }
