"""ACK observation and probe correlation (the verify role).

An ACK frame carries only the receiver address — the attacker's spoofed
MAC — so "which device just acknowledged?" must be answered by timing:
the ACK lands one SIFS after the frame that elicited it.  The third
survey thread does exactly this correlation; :class:`AckMonitor`
implements it with one outstanding expectation per dongle (the injector
serializes probes per channel, like the paper's implementation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.devices.dongle import EVERY_SOURCE, MonitorDongle
from repro.mac.addresses import MacAddress
from repro.mac.frames import Frame
from repro.sim.engine import Event
from repro.sim.medium import Reception


@dataclass
class _Expectation:
    target: MacAddress
    deadline: float
    on_ack: Callable[[Reception], None]
    on_timeout: Callable[[], None]
    timeout_event: Optional[Event] = None


@dataclass
class AckObservation:
    """One ACK the monitor attributed to a probe."""

    target: MacAddress
    time: float
    rssi_dbm: float
    latency_after_probe: float


class AckMonitor:
    """Matches overheard ACKs to outstanding probes by timing."""

    def __init__(
        self,
        dongle: MonitorDongle,
        fake_source: MacAddress,
    ) -> None:
        self.dongle = dongle
        self.fake_source = MacAddress(fake_source)
        self._pending: Optional[_Expectation] = None
        self._pending_since = 0.0
        self.observations: List[AckObservation] = []
        self.stray_acks = 0
        # ACK and CTS carry no source: every frame with one is ignored.
        dongle.add_listener(self._on_frame, ignored_sources=EVERY_SOURCE)

    @property
    def busy(self) -> bool:
        return self._pending is not None

    # ------------------------------------------------------------------
    # Expectation lifecycle
    # ------------------------------------------------------------------
    def expect_ack(
        self,
        target: MacAddress,
        window_s: float,
        on_ack: Callable[[Reception], None],
        on_timeout: Callable[[], None],
    ) -> None:
        """Arm the monitor: the next ACK to our fake MAC within the window
        is attributed to ``target``."""
        if self._pending is not None:
            raise RuntimeError("an expectation is already outstanding")
        engine = self.dongle.engine
        expectation = _Expectation(
            target=MacAddress(target),
            deadline=engine.now + window_s,
            on_ack=on_ack,
            on_timeout=on_timeout,
        )
        self._pending = expectation
        self._pending_since = engine.now

        def timeout() -> None:
            if self._pending is expectation:
                self._pending = None
                expectation.on_timeout()

        expectation.timeout_event = engine.call_after(window_s, timeout)

    def _on_frame(self, frame: Frame, reception: Reception) -> None:
        # ACKs answer data/management probes; CTSs answer RTS probes.
        # Both carry only a receiver address — our spoofed MAC.
        if not (frame.is_ack or frame.is_cts) or frame.addr1 != self.fake_source:
            return
        expectation = self._pending
        if expectation is None or reception.end > expectation.deadline:
            self.stray_acks += 1
            return
        self._pending = None
        if expectation.timeout_event is not None:
            expectation.timeout_event.cancel()
        self.observations.append(
            AckObservation(
                target=expectation.target,
                time=reception.end,
                rssi_dbm=reception.rssi_dbm,
                latency_after_probe=reception.end - self._pending_since,
            )
        )
        expectation.on_ack(reception)

    # ------------------------------------------------------------------
    # Passive counting (streams don't track individual expectations)
    # ------------------------------------------------------------------
    def count_acks_to_fake_mac(self) -> int:
        """Total attributed ACK observations so far."""
        return len(self.observations)
