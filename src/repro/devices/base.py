"""Common device plumbing.

A :class:`Device` bundles one radio, the PHY ACK engine, a retransmitting
transmitter, optional power accounting, and optional power save, and
routes received frames to overridable ``on_*`` handlers.  Subclasses
(:class:`~repro.devices.station.Station`,
:class:`~repro.devices.access_point.AccessPoint`, the ESP models, the
monitor dongle) add their role-specific behaviour on top.

A deliberate consequence of this layering: by the time any ``on_*``
handler runs, the ACK (if one was due) has already been scheduled by the
ACK engine.  Nothing a subclass does — ignoring strangers, blocklisting
them, deauthenticating them — can reach back below and stop it.  That is
the paper's Section 2.1 observation, reproduced structurally.
"""

from __future__ import annotations

import enum
import itertools
from typing import Callable, Optional

import numpy as np

from repro.devices.power_model import EnergyAccountant, PowerProfile
from repro.mac.ack_engine import AckEngine, AckEngineConfig
from repro.mac.addresses import MacAddress
from repro.mac import frames as frame_types
from repro.mac.frames import _CONTROL, _DATA, _MANAGEMENT, Frame, FrameType
from repro.mac.powersave import PowerSaveConfig, PowerSaveController
from repro.mac.transmitter import MacTransmitter, TxAttempt
from repro.phy.constants import Band
from repro.phy.radio import PositionProvider, Radio
from repro.sim.medium import Medium, Reception


class DeviceKind(enum.Enum):
    CLIENT = "client"
    ACCESS_POINT = "access_point"
    MONITOR = "monitor"


#: Mirror of the `_dispatch_frame` management-subtype switch, used by the
#: passivity verdict to find which handler a frame type routes to.
_MGMT_HANDLERS = {
    frame_types.SUBTYPE_BEACON: "on_beacon",
    frame_types.SUBTYPE_PROBE_REQUEST: "on_probe_request",
    frame_types.SUBTYPE_PROBE_RESPONSE: "on_probe_response",
    frame_types.SUBTYPE_AUTH: "on_auth",
    frame_types.SUBTYPE_ASSOC_REQUEST: "on_assoc_request",
    frame_types.SUBTYPE_ASSOC_RESPONSE: "on_assoc_response",
    frame_types.SUBTYPE_DEAUTH: "on_deauth",
}

#: Every (ftype, subtype) pair a frame can carry.
_FRAME_KEYS = tuple(
    (ftype, subtype) for ftype in FrameType for subtype in range(16)
)


class Device:
    """Base class for everything with a WiFi radio."""

    def __init__(
        self,
        mac: MacAddress,
        medium: Medium,
        position: PositionProvider,
        rng: np.random.Generator,
        kind: DeviceKind = DeviceKind.CLIENT,
        vendor: Optional[str] = None,
        channel: int = 6,
        band: Band = Band.GHZ_2_4,
        tx_power_dbm: float = 20.0,
        rx_sensitivity_dbm: float = -92.0,
        power_profile: Optional[PowerProfile] = None,
        power_save: Optional[PowerSaveConfig] = None,
        ack_config: Optional[AckEngineConfig] = None,
        use_dcf: bool = True,
    ) -> None:
        self.mac = MacAddress(mac)
        self.kind = kind
        self.vendor = vendor
        self.band = band
        self.rng = rng
        self.medium = medium
        self.engine = medium.engine
        self.radio = Radio(
            name=str(self.mac),
            medium=medium,
            position=position,
            channel=channel,
            tx_power_dbm=tx_power_dbm,
            rx_sensitivity_dbm=rx_sensitivity_dbm,
        )
        if ack_config is None:
            ack_config = AckEngineConfig(band=band)
        self.ack_engine = AckEngine(self.radio, self.mac, ack_config)
        # The engine has published the radio's MAC and lane list, so the
        # radio joins the medium's delivery lists with both final.
        medium.attach(self.radio)
        self.transmitter = MacTransmitter(
            self.radio, self.ack_engine, self.mac, rng, band, use_dcf=use_dcf
        )
        self.accountant: Optional[EnergyAccountant] = None
        if power_profile is not None:
            self.accountant = EnergyAccountant(self.radio, power_profile)
        self.power_save: Optional[PowerSaveController] = None
        if power_save is not None:
            self.power_save = PowerSaveController(
                self.radio, self.engine, power_save
            )
        # Handler installation comes after the accountant/power-save
        # wiring so the passivity promises below read settled state.
        # Arrivals a promise covers are tallied without calling the
        # handler; both promises are conservative — any override or any
        # attached accounting keeps the scalar path.
        cls = type(self)
        if cls._dispatch_frame is Device._dispatch_frame:
            self.ack_engine.install_mac_handler(
                self._dispatch_frame, passive_keys=cls._passive_group_keys()
            )
        else:
            self.ack_engine.install_mac_handler(self._dispatch_frame)
        self.ack_engine.install_sniffer(
            self._account_frame,
            passive=cls._account_frame is Device._account_frame
            and self._sniffer_is_passive(),
        )
        self._sequence = itertools.count(int(rng.integers(0, 4096)))
        self.unsolicited_data_frames = 0
        self.fake_frames_discarded = 0

    # ------------------------------------------------------------------
    # Identity / convenience
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return str(self.mac)

    def next_sequence(self) -> int:
        return next(self._sequence) & 0x0FFF

    def send(
        self,
        frame: Frame,
        rate_mbps: float = 6.0,
        on_complete: Optional[Callable[[TxAttempt], None]] = None,
        retry_limit: Optional[int] = None,
    ) -> None:
        """Stamp a sequence number and queue the frame for transmission.

        This is the only place a device stamps: its frames come here
        with ``sequence`` at the default 0, so each is stamped once and a
        counter that wraps sends 0 like any other number.  A frame built
        with a nonzero ``sequence`` keeps it.
        """
        if frame.sequence == 0 and frame.ftype is not _CONTROL:
            frame.sequence = self.next_sequence()
        self.transmitter.send(frame, rate_mbps, on_complete, retry_limit)

    # ------------------------------------------------------------------
    # Passivity promises for the reception lanes
    # ------------------------------------------------------------------
    def _sniffer_is_passive(self) -> bool:
        """True while :meth:`_account_frame` would observably do nothing.

        Only consulted when the method is not overridden (see __init__);
        the base implementation touches state solely through the
        accountant and the power-save controller, both settled before
        the promise is made.
        """
        return self.accountant is None and self.power_save is None

    #: The frozen set of :meth:`_passive_group_keys`, stored on each
    #: class's own dict (never inherited): overrides differ per subclass
    #: while the verdict is identical across instances.
    _passive_group_keys_memo: frozenset

    @classmethod
    def _passive_group_keys(cls) -> frozenset:
        """The ``(ftype, subtype)`` keys :meth:`_dispatch_frame` ignores.

        Group-addressed frames of these types — beacons at idle stations
        are the wardrive's dominant traffic — are then tallied without
        ever constructing their Reception.  Evaluated once per class.
        """
        keys = cls.__dict__.get("_passive_group_keys_memo")
        if keys is None:
            keys = frozenset(key for key in _FRAME_KEYS if cls._dispatch_is_passive(key))
            cls._passive_group_keys_memo = keys
        return keys

    @classmethod
    def _dispatch_is_passive(cls, key: tuple) -> bool:
        """True if :meth:`_dispatch_frame` is a no-op for this frame type."""
        ftype, subtype = key
        if ftype is FrameType.MANAGEMENT:
            name = _MGMT_HANDLERS.get(subtype, "on_management")
            return getattr(cls, name) is getattr(Device, name)
        # _dispatch_frame has no control branch at all; the base on_data
        # counts unsolicited frames, so DATA is never passive.
        return ftype is FrameType.CONTROL

    # ------------------------------------------------------------------
    # Receive-side accounting (every decoded frame, ours or not)
    # ------------------------------------------------------------------
    def _account_frame(self, frame: Frame, reception: Reception) -> None:
        addressed_to_us = frame.addr1._value == self.mac._value
        if self.accountant is not None:
            self.accountant.note_frame_received(reception.airtime, addressed_to_us)
        if self.power_save is not None and addressed_to_us:
            self.power_save.note_activity()

    # ------------------------------------------------------------------
    # Frame dispatch (unicast-to-us and group frames, post-ACK)
    # ------------------------------------------------------------------
    def _dispatch_frame(self, frame: Frame, reception: Reception) -> None:
        ftype = frame.ftype
        if ftype is _MANAGEMENT:
            subtype = frame.subtype
            if subtype == frame_types.SUBTYPE_BEACON:
                self.on_beacon(frame, reception)
            elif subtype == frame_types.SUBTYPE_PROBE_REQUEST:
                self.on_probe_request(frame, reception)
            elif subtype == frame_types.SUBTYPE_PROBE_RESPONSE:
                self.on_probe_response(frame, reception)
            elif subtype == frame_types.SUBTYPE_AUTH:
                self.on_auth(frame, reception)
            elif subtype == frame_types.SUBTYPE_ASSOC_REQUEST:
                self.on_assoc_request(frame, reception)
            elif subtype == frame_types.SUBTYPE_ASSOC_RESPONSE:
                self.on_assoc_response(frame, reception)
            elif subtype == frame_types.SUBTYPE_DEAUTH:
                self.on_deauth(frame, reception)
            else:
                self.on_management(frame, reception)
        elif ftype is _DATA:
            self.on_data(frame, reception)

    # ------------------------------------------------------------------
    # Overridable handlers (defaults do nothing)
    # ------------------------------------------------------------------
    def on_beacon(self, frame: Frame, reception: Reception) -> None:
        """Broadcast beacon from some AP."""

    def on_probe_request(self, frame: Frame, reception: Reception) -> None:
        """Probe request (APs answer these)."""

    def on_probe_response(self, frame: Frame, reception: Reception) -> None:
        """Probe response (scanning clients consume these)."""

    def on_auth(self, frame: Frame, reception: Reception) -> None:
        """Authentication exchange step."""

    def on_assoc_request(self, frame: Frame, reception: Reception) -> None:
        """Association request (AP side)."""

    def on_assoc_response(self, frame: Frame, reception: Reception) -> None:
        """Association response (client side)."""

    def on_deauth(self, frame: Frame, reception: Reception) -> None:
        """Deauthentication notice."""

    def on_management(self, frame: Frame, reception: Reception) -> None:
        """Any other management frame."""

    def on_data(self, frame: Frame, reception: Reception) -> None:
        """Data-class frame addressed to us (or group-addressed).

        The default treats data from unknown peers the way real MACs
        treat the paper's fake frames: counted and discarded — *after*
        the PHY has already acknowledged them.
        """
        self.unsolicited_data_frames += 1
        if frame.is_null_data or not frame.protected:
            self.fake_frames_discarded += 1
