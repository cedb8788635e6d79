"""Client station: scanning, association, WPA2 handshake, data path.

The station walks the standard join sequence against an
:class:`~repro.devices.access_point.AccessPoint`: open-system
authentication, association, then the 4-way handshake over EAPOL data
frames, after which a :class:`~repro.crypto.ccmp.CcmpSession` protects its
data path.  All of it rides through the simulator as real frames, so an
associated victim in the attack scenarios holds genuine keys the attacker
demonstrably does not have.

Stations also run the background behaviours the wardriving scanner feeds
on: periodic keepalive null frames to their AP and, when unassociated,
broadcast probe requests.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.crypto.ccmp import CcmpError, CcmpSession
from repro.crypto.wpa2 import FourWayHandshake, derive_pmk, tk_of
from repro.devices.base import Device, DeviceKind
from repro.mac import llc
from repro.mac.addresses import MacAddress
from repro.mac.frames import (
    AssocRequestFrame,
    AuthFrame,
    DataFrame,
    Frame,
    NullDataFrame,
    ProbeRequestFrame,
)
from repro.mac.duration import data_frame_duration_us
from repro.sim.medium import Reception


class StationState(enum.Enum):
    IDLE = "idle"
    AUTHENTICATING = "authenticating"
    ASSOCIATING = "associating"
    HANDSHAKING = "handshaking"
    ASSOCIATED = "associated"


class Station(Device):
    """A WiFi client."""

    #: The probe loop, as ``AccessPoint._beaconing`` keeps the beacon
    #: loop (a class default for the same memory reason).
    _probing: Optional[bool] = None

    def __init__(self, *args, pmf_enabled: bool = False, **kwargs) -> None:
        kwargs.setdefault("kind", DeviceKind.CLIENT)
        super().__init__(*args, **kwargs)
        self.state = StationState.IDLE
        self.pmf_enabled = pmf_enabled
        self.bssid: Optional[MacAddress] = None
        self.ssid: Optional[str] = None
        self._passphrase: Optional[str] = None
        self._handshake: Optional[FourWayHandshake] = None
        self.session: Optional[CcmpSession] = None
        self._keepalive_interval: Optional[float] = None
        self.deauth_received = 0
        self.deauth_ignored_pmf = 0
        self.data_delivered = 0
        #: Optional application hook: called with (payload, frame) for every
        #: data payload delivered up the stack (decrypted if protected).
        self.data_handler = None

    # ------------------------------------------------------------------
    # Join sequence
    # ------------------------------------------------------------------
    def connect(
        self, bssid: MacAddress, ssid: str, passphrase: Optional[str] = None
    ) -> None:
        """Begin joining the network (async; watch :attr:`state`).

        ``passphrase=None`` joins an *open* network — no 4-way handshake
        and no CCMP session.  This is how the WindTalker baseline's rogue
        AP lures victims (Figure 4a): the victim connects to an open
        attacker-controlled network and exchanges plaintext traffic.
        """
        self.bssid = MacAddress(bssid)
        self.ssid = ssid
        self._passphrase = passphrase
        self.state = StationState.AUTHENTICATING
        auth = AuthFrame(
            addr1=self.bssid,
            addr2=self.mac,
            addr3=self.bssid,
            auth_sequence=1,
        )
        self.send(auth)

    def on_auth(self, frame: Frame, reception: Reception) -> None:
        if self.state is not StationState.AUTHENTICATING:
            return
        if frame.addr2 != self.bssid:
            return
        if getattr(frame, "auth_sequence", 0) != 2 or getattr(frame, "status", 1):
            self.state = StationState.IDLE
            return
        self.state = StationState.ASSOCIATING
        request = AssocRequestFrame(
            addr1=self.bssid,
            addr2=self.mac,
            addr3=self.bssid,
            ssid=self.ssid or "",
        )
        self.send(request)

    def on_assoc_response(self, frame: Frame, reception: Reception) -> None:
        if self.state is not StationState.ASSOCIATING:
            return
        if frame.addr2 != self.bssid or getattr(frame, "status", 1):
            self.state = StationState.IDLE
            return
        if self._passphrase is None:
            # Open network: no keys to negotiate.
            self.state = StationState.ASSOCIATED
            if self._keepalive_interval is not None:
                self._schedule_keepalive()
            return
        # Keys next: the AP drives message 1 of the 4-way handshake.
        assert self.ssid is not None
        pmk = derive_pmk(self._passphrase, self.ssid)
        snonce = bytes(int(b) for b in self.rng.integers(0, 256, size=32))
        self._handshake = FourWayHandshake(
            pmk=pmk,
            ap_mac=self.bssid,
            sta_mac=self.mac,
            anonce=b"\x00" * 32,  # learned from message 1
            snonce=snonce,
        )
        self.state = StationState.HANDSHAKING

    def on_data(self, frame: Frame, reception: Reception) -> None:
        if llc.is_eapol(frame.body) and frame.addr2 == self.bssid:
            self._handle_eapol(llc.eapol_payload(frame.body))
            return
        if frame.protected and self.session is not None:
            try:
                plaintext = self.session.decrypt(frame)
            except CcmpError:
                return
            self._deliver_payload(plaintext, frame)
            return
        if (
            not frame.protected
            and self.session is None
            and self.state is StationState.ASSOCIATED
            and frame.addr2 == self.bssid
            and not frame.is_null_data
        ):
            # Open-network data from our AP: plaintext delivery.
            self._deliver_payload(frame.body, frame)
            return
        super().on_data(frame, reception)

    def _deliver_payload(self, body: bytes, frame: Frame) -> None:
        self.data_delivered += 1
        parsed = llc.unwrap(body)
        payload = parsed[1] if parsed is not None else body
        if self.data_handler is not None:
            self.data_handler(payload, frame)

    def _handle_eapol(self, payload: bytes) -> None:
        if self._handshake is None or self.bssid is None:
            return
        reply = self._handshake.sta_handle(payload)
        self._send_eapol(reply)
        if self._handshake.sta_installed and self._handshake.sta_ptk is not None:
            self.session = CcmpSession(tk_of(self._handshake.sta_ptk))
            self.state = StationState.ASSOCIATED
            if self._keepalive_interval is not None:
                self._schedule_keepalive()

    def _send_eapol(self, payload: bytes) -> None:
        assert self.bssid is not None
        frame = DataFrame(
            addr1=self.bssid,
            addr2=self.mac,
            addr3=self.bssid,
            to_ds=True,
            body=llc.wrap_eapol(payload),
        )
        self.send(frame)

    # ------------------------------------------------------------------
    # Steady-state behaviour
    # ------------------------------------------------------------------
    def send_data(self, payload: bytes, rate_mbps: float = 24.0) -> None:
        """Send an application payload to the AP (encrypted when keyed)."""
        if self.state is not StationState.ASSOCIATED:
            raise RuntimeError("station is not associated")
        assert self.bssid is not None
        frame = DataFrame(
            addr1=self.bssid,
            addr2=self.mac,
            addr3=self.bssid,
            to_ds=True,
            duration_us=data_frame_duration_us(rate_mbps, self.band),
        )
        wrapped = llc.wrap(llc.ETHERTYPE_IPV4, payload)
        if self.session is not None:
            frame.body = self.session.encrypt(frame, wrapped)
        else:
            frame.body = wrapped  # open network: plaintext
        self.send(frame, rate_mbps)

    def start_keepalive(self, interval: float = 30.0) -> None:
        """Periodic null frames to the AP (what real clients do; also what
        makes clients discoverable to the wardriving sniffer)."""
        self._keepalive_interval = interval
        if self.state is StationState.ASSOCIATED:
            self._schedule_keepalive()

    def _schedule_keepalive(self) -> None:
        if self._keepalive_interval is None:
            return

        def tick() -> None:
            if self.state is StationState.ASSOCIATED and self.bssid is not None:
                null = NullDataFrame(
                    addr1=self.bssid,
                    addr2=self.mac,
                    addr3=self.bssid,
                    to_ds=True,
                )
                self.send(null)
            if self._keepalive_interval is not None:
                self.engine.call_after(self._keepalive_interval, tick)

        self.engine.call_after(self._keepalive_interval, tick)

    def probe_scan(self) -> None:
        """Broadcast a wildcard probe request (unassociated discovery)."""
        probe = ProbeRequestFrame(addr2=self.mac)
        self.send(probe)

    def start_probing(self, interval: float = 5.0) -> None:
        """Probe periodically, like an idle phone; what the wardriving
        sniffer discovers clients by.

        A restart while the stopped loop's next tick is still queued
        resumes that loop, at the new interval from the tick after it:
        one loop per station, whatever the stop/start pattern.
        """
        if self._probing:
            return
        queued = self._probing is False
        self._probing = True
        self._probe_interval = interval
        if queued:
            return
        offset = float(self.rng.uniform(0.0, interval))
        engine = self.engine
        engine.post(engine.clock._now + offset, self._probe_tick)

    def _probe_tick(self) -> None:
        # Posted like the AP's beacon ticks: a stopped loop ends here.
        if not self._probing:
            self._probing = None
            return
        self.probe_scan()
        engine = self.engine
        engine.post(engine.clock._now + self._probe_interval, self._probe_tick)

    def stop_probing(self) -> None:
        if self._probing:
            self._probing = False

    def stop_keepalive(self) -> None:
        self._keepalive_interval = None

    # ------------------------------------------------------------------
    # Deauthentication handling (and the 802.11w defense)
    # ------------------------------------------------------------------
    def on_deauth(self, frame: Frame, reception: Reception) -> None:
        if frame.addr2 != self.bssid:
            return
        self.deauth_received += 1
        if self.pmf_enabled and not frame.protected:
            # Protected Management Frames: forged deauths are discarded.
            self.deauth_ignored_pmf += 1
            return
        self.state = StationState.IDLE
        self.session = None
        self._handshake = None
