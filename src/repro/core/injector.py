"""Fake-frame crafting and injection (the Scapy role).

The paper: "we develop a simple python program that uses the Scapy
library to create fake frames ... the only valid information in the frame
is the destination MAC address.  The transmitter MAC address is set to
the fake MAC address (aa:bb:bb:bb:bb:bb), and the frame has no payload
(i.e., null frame) and is not encrypted."

:class:`FakeFrameInjector` crafts exactly those frames (and the RTS
variant of Section 2.2, and arbitrary garbage-payload data frames for the
robustness tests) and transmits them through a monitor-mode dongle —
one-shot or as a paced stream for the 150/900 frames-per-second attacks.
Crafted frames fly typed (:meth:`MonitorDongle.inject`); hand-built or
malformed bytes go through :meth:`MonitorDongle.inject_bytes`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.devices.dongle import MonitorDongle
from repro.mac.addresses import ATTACKER_FAKE_MAC, MacAddress
from repro.mac.duration import data_frame_duration_us, rts_duration_us
from repro.mac.frames import (
    DataFrame,
    Frame,
    NullDataFrame,
    QosNullFrame,
    RtsFrame,
)
from repro.phy.constants import Band


@dataclass
class InjectionStream:
    """A running paced injection (one target, fixed rate)."""

    target: MacAddress
    rate_pps: float
    frames_sent: int = 0
    running: bool = True

    def stop(self) -> None:
        self.running = False


class FakeFrameInjector:
    """Crafts and transmits fake 802.11 frames from spoofed addresses."""

    def __init__(
        self,
        dongle: MonitorDongle,
        fake_source: MacAddress = ATTACKER_FAKE_MAC,
        band: Band = Band.GHZ_2_4,
        rate_mbps: float = 6.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.dongle = dongle
        self.fake_source = MacAddress(fake_source)
        self.band = band
        self.rate_mbps = rate_mbps
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._sequence = int(self._rng.integers(0, 4096))
        self.total_injected = 0
        self._nav = (rate_mbps, band, data_frame_duration_us(rate_mbps, band))

    def _nav_us(self) -> int:
        """The crafted data frames' Duration field for the current rate and
        band, resolved once per setting: the memo of
        :func:`data_frame_duration_us` would hash the ``Band`` enum (a
        Python-level ``__hash__``) for every frame."""
        rate, band, nav = self._nav
        if rate != self.rate_mbps or band is not self.band:
            rate, band = self.rate_mbps, self.band
            nav = data_frame_duration_us(rate, band)
            self._nav = (rate, band, nav)
        return nav

    def _next_sequence(self) -> int:
        self._sequence = (self._sequence + 1) & 0x0FFF
        return self._sequence

    # ------------------------------------------------------------------
    # Frame crafting
    # ------------------------------------------------------------------
    def craft_null(self, target: MacAddress) -> Frame:
        """The paper's fake frame: a null function with a spoofed source,
        a plausible NAV, no payload, no encryption."""
        frame = NullDataFrame(
            addr1=MacAddress(target),
            addr2=self.fake_source,
            addr3=self.fake_source,
            duration_us=self._nav_us(),
        )
        frame.sequence = self._next_sequence()
        return frame

    def craft_qos_null(self, target: MacAddress) -> Frame:
        frame = QosNullFrame(
            addr1=MacAddress(target),
            addr2=self.fake_source,
            addr3=self.fake_source,
            duration_us=self._nav_us(),
        )
        frame.sequence = self._next_sequence()
        return frame

    def craft_rts(self, target: MacAddress, reserve_bytes: int = 1500) -> Frame:
        """The RTS variant: control frames cannot be encrypted, so even a
        hypothetical fast validator cannot suppress the CTS response."""
        return RtsFrame(
            ra=MacAddress(target),
            ta=self.fake_source,
            duration_us=rts_duration_us(reserve_bytes, self.rate_mbps, self.band),
        )

    def craft_garbage_data(self, target: MacAddress, length: int = 64) -> Frame:
        """A data frame whose payload is random bytes — still ACKed,
        because payload validity is never checked before the ACK."""
        body = bytes(int(b) for b in self._rng.integers(0, 256, size=length))
        frame = DataFrame(
            addr1=MacAddress(target),
            addr2=self.fake_source,
            addr3=self.fake_source,
            body=body,
            duration_us=self._nav_us(),
        )
        frame.sequence = self._next_sequence()
        return frame

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def inject(self, frame: Frame) -> None:
        """One-shot injection through the dongle (the typed frame)."""
        self.total_injected += 1
        self.dongle.inject(frame, self.rate_mbps)

    def inject_null(self, target: MacAddress) -> Frame:
        frame = self.craft_null(target)
        self.inject(frame)
        return frame

    def start_stream(
        self,
        target: MacAddress,
        rate_pps: float,
        kind: str = "null",
        on_inject: Optional[Callable[[Frame], None]] = None,
    ) -> InjectionStream:
        """Back-to-back fake frames at ``rate_pps`` until stopped.

        This is the engine of both headline attacks: 150 fps for keystroke
        inference, up to 900 fps for battery draining.  A small timing
        jitter (±5 % of the period) mirrors host-side pacing noise.
        """
        if rate_pps <= 0.0:
            raise ValueError("rate must be positive")
        crafters = {
            "null": self.craft_null,
            "qos_null": self.craft_qos_null,
            "rts": self.craft_rts,
            "data": self.craft_garbage_data,
        }
        try:
            crafter = crafters[kind]
        except KeyError:
            raise ValueError(f"unknown stream kind {kind!r}") from None
        stream = InjectionStream(target=MacAddress(target), rate_pps=rate_pps)
        period = 1.0 / rate_pps
        engine = self.dongle.engine

        def tick() -> None:
            if not stream.running:
                return
            frame = crafter(stream.target)
            self.inject(frame)
            stream.frames_sent += 1
            if on_inject is not None:
                on_inject(frame)
            jitter = float(self._rng.uniform(-0.05, 0.05)) * period
            # post(), not call_after(): stop() ends a stream through its
            # flag, so no tick is ever cancelled and no handle is needed.
            engine.post(engine.clock._now + max(period + jitter, 1e-6), tick)

        engine.call_after(period, tick)
        return stream
