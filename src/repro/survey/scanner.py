"""Passive device discovery.

The first of the paper's three survey threads: sniff WiFi traffic and add
the MAC address of every unseen device to a target list.  Device *kind*
is inferred the way wardriving tools do it: beacons and probe responses
identify access points; probe requests, to-DS data, and association
traffic identify clients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set

from repro.devices.base import DeviceKind
from repro.devices.dongle import MonitorDongle
from repro.devices.vendors import VendorDatabase
from repro.mac import frames as frame_types
from repro.mac.addresses import MacAddress
from repro.mac.frames import Frame
from repro.sim.medium import Reception


@dataclass
class DiscoveredDevice:
    """One entry in the scanner's target list."""

    mac: MacAddress
    kind: DeviceKind
    vendor: Optional[str]
    channel: int
    first_seen: float
    first_rssi_dbm: float


class PassiveScanner:
    """Sniffs one or more monitor dongles and builds the target list.

    New discoveries are pushed to ``on_discovery`` (the wardrive pipeline's
    injector queue) as they happen.  Once a source is recorded as an
    access point its frames can change nothing here, and each dongle is
    told so (``MonitorDongle.add_listener(ignored_sources=...)``): the
    medium tallies them instead of handing them up.
    """

    def __init__(
        self,
        dongles: List[MonitorDongle],
        vendor_db: Optional[VendorDatabase] = None,
        on_discovery: Optional[Callable[[DiscoveredDevice], None]] = None,
    ) -> None:
        self.vendor_db = vendor_db
        self.on_discovery = on_discovery
        self.devices: Dict[MacAddress, DiscoveredDevice] = {}
        #: ``Frame.src_u64`` of every source recorded as an access point,
        #: shared with the dongles, which may stop handing up its frames.
        self._ap_sources: Set[int] = set()
        self.dongles = list(dongles)
        for dongle in self.dongles:
            dongle.add_listener(
                self._make_listener(dongle), ignored_sources=self._ap_sources
            )

    def _make_listener(self, dongle: MonitorDongle):
        def listener(frame: Frame, reception: Reception) -> None:
            # Read at reception time: hopping rigs retune this radio.
            channel = dongle.radio.channel
            source = frame.addr2
            if source is None or source.is_multicast:
                return
            kind = self._classify(frame)
            if kind is None:
                return
            if kind is DeviceKind.ACCESS_POINT:
                self._ap_sources.add(frame.src_u64())
            known = self.devices.get(source)
            if known is not None:
                # Beacons are authoritative: a MAC first seen via data
                # frames may later prove to be an AP.
                if kind is DeviceKind.ACCESS_POINT:
                    known.kind = DeviceKind.ACCESS_POINT
                return
            record = DiscoveredDevice(
                mac=source,
                kind=kind,
                vendor=self.vendor_db.vendor_of(source) if self.vendor_db else None,
                channel=channel,
                first_seen=reception.end,
                first_rssi_dbm=reception.rssi_dbm,
            )
            self.devices[source] = record
            if self.on_discovery is not None:
                self.on_discovery(record)

        return listener

    @staticmethod
    def _classify(frame: Frame) -> Optional[DeviceKind]:
        """Infer device kind from what it transmits."""
        if frame.is_beacon:
            return DeviceKind.ACCESS_POINT
        if frame.is_management:
            if frame.subtype == frame_types.SUBTYPE_PROBE_RESPONSE:
                return DeviceKind.ACCESS_POINT
            if frame.subtype == frame_types.SUBTYPE_PROBE_REQUEST:
                return DeviceKind.CLIENT
            if frame.subtype in (
                frame_types.SUBTYPE_AUTH,
                frame_types.SUBTYPE_ASSOC_REQUEST,
            ):
                return DeviceKind.CLIENT
            return None
        if frame.is_data:
            if frame.from_ds:
                return DeviceKind.ACCESS_POINT
            return DeviceKind.CLIENT
        return None  # control frames carry no transmitter identity

    # ------------------------------------------------------------------
    # Readout
    # ------------------------------------------------------------------
    def count(self, kind: Optional[DeviceKind] = None) -> int:
        if kind is None:
            return len(self.devices)
        return sum(1 for d in self.devices.values() if d.kind is kind)

    def by_kind(self, kind: DeviceKind) -> List[DiscoveredDevice]:
        return [d for d in self.devices.values() if d.kind is kind]
