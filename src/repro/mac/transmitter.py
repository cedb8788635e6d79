"""Retransmitting MAC transmitter.

Implements the send half of the data path: transmit a frame, arm the ACK
timeout (SIFS + slack — if no ACK has *started* arriving by then the frame
is presumed lost), and retransmit with the Retry bit set and a widened
contention window, up to the retry limit.

This is the machinery that makes Polite WiFi observable from the attacker
side: the attacker's injector uses the same transmitter, so "the victim
acknowledged" and "the victim did not acknowledge" are distinguished the
same way a real NIC distinguishes them — by whether an ACK addressed to
the spoofed transmitter address arrives inside the timeout.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.mac.ack_engine import AckEngine
from repro.mac.addresses import MacAddress
from repro.mac.frames import Frame
from repro.mac.timing import DcfTimer
from repro.phy.constants import Band, ack_timeout
from repro.phy.plcp import ack_airtime
from repro.phy.radio import Radio
from repro.phy.rates import ack_rate_for
from repro.sim.engine import Engine, Event
from repro.sim.medium import Reception

#: Default long-retry limit (802.11 dot11LongRetryLimit is 4; consumer
#: drivers commonly retry 7 times).
DEFAULT_RETRY_LIMIT = 7


class TxOutcome(enum.Enum):
    ACKED = "acked"
    NO_ACK = "no_ack"  # retries exhausted
    BROADCAST = "broadcast"  # no ACK expected


#: Alias for the per-broadcast completion (an enum class lookup per
#: beacon is measurable).
_BROADCAST = TxOutcome.BROADCAST


@dataclass
class TxAttempt:
    """Result record for one logical frame (including its retries)."""

    frame: Frame
    outcome: TxOutcome
    attempts: int
    completed_at: float
    rate_mbps: float


class MacTransmitter:
    """Sends frames with ACK-based retransmission over one radio.

    One logical frame is in flight at a time; submissions made while busy
    queue up in FIFO order.  Completion is reported through the per-send
    callback only: the transmitter keeps no record of a completed frame,
    so a long run holds none of the frames it has sent.
    """

    def __init__(
        self,
        radio: Radio,
        ack_engine: AckEngine,
        source_mac: MacAddress,
        rng: np.random.Generator,
        band: Band = Band.GHZ_2_4,
        retry_limit: int = DEFAULT_RETRY_LIMIT,
        use_dcf: bool = True,
    ) -> None:
        self.radio = radio
        self.source_mac = MacAddress(source_mac)
        self.band = band
        self.retry_limit = retry_limit
        self._current_retry_limit = retry_limit
        self.use_dcf = use_dcf
        self.engine: Engine = radio.medium.engine
        self._dcf = DcfTimer(self.engine, rng, band)
        self._queue: List[tuple] = []
        self._busy = False
        self._current_frame: Optional[Frame] = None
        self._current_rate: float = 6.0
        self._current_callback: Optional[Callable[[TxAttempt], None]] = None
        self._attempts = 0
        self._timeout_event: Optional[Event] = None
        ack_engine.control_handler = self._on_control

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        return self._busy

    def send(
        self,
        frame: Frame,
        rate_mbps: float = 6.0,
        on_complete: Optional[Callable[[TxAttempt], None]] = None,
        retry_limit: Optional[int] = None,
    ) -> None:
        """Queue ``frame`` for transmission at ``rate_mbps``.

        ``retry_limit`` overrides the transmitter default for this frame
        only (an AP's deauth bursts use a short limit, Figure 3 style).
        """
        if self._busy:
            self._queue.append((frame, rate_mbps, on_complete, retry_limit))
        else:  # idle means the queue is empty: start at once
            self._start(frame, rate_mbps, on_complete, retry_limit)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _start(
        self,
        frame: Frame,
        rate: float,
        callback: Optional[Callable[[TxAttempt], None]],
        retry_limit: Optional[int],
    ) -> None:
        self._busy = True
        self._current_frame = frame
        self._current_rate = rate
        self._current_callback = callback
        self._current_retry_limit = (
            self.retry_limit if retry_limit is None else retry_limit
        )
        self._attempts = 0
        self._attempt()

    def _attempt(self) -> None:
        attempts = self._attempts = self._attempts + 1
        self._current_frame.retry = attempts > 1
        if self.use_dcf:
            self._dcf.schedule(self._transmit, attempts - 1)
        else:
            self._transmit()

    def _transmit(self) -> None:
        """The current attempt goes on the air (after DCF access timing).

        Nothing can complete or replace the current frame while its
        backoff runs, so this reads it from the transmitter's state.
        """
        frame = self._current_frame
        rate = self._current_rate
        transmission = self.radio.transmit(frame, rate)
        if not frame.needs_ack:
            self._complete(_BROADCAST)
            return
        # The simulator delivers the ACK at the end of its airtime (a
        # real NIC detects its preamble earlier), so the wait covers
        # frame + SIFS + the whole ACK + timeout slack.
        response = ack_airtime(ack_rate_for(rate))
        wait = transmission.duration + response + ack_timeout(self.band)
        self._timeout_event = self.engine.call_after(wait, self._on_timeout)

    def _on_control(self, frame: Frame, reception: Reception) -> None:
        """ACK/CTS addressed to our MAC, delivered by the ACK engine."""
        if not frame.is_ack:
            return
        if frame.addr1 != self.source_mac:
            return
        if not self._busy or self._timeout_event is None:
            return
        self._timeout_event.cancel()
        self._timeout_event = None
        self._complete(TxOutcome.ACKED)

    def _on_timeout(self) -> None:
        self._timeout_event = None
        if self._attempts <= self._current_retry_limit:
            self._attempt()
        else:
            self._complete(TxOutcome.NO_ACK)

    def _complete(self, outcome: TxOutcome) -> None:
        """Report the current frame to its callback, if one waits, and
        start the next one."""
        callback = self._current_callback
        if callback is not None:
            attempt = TxAttempt(
                frame=self._current_frame,
                outcome=outcome,
                attempts=self._attempts,
                completed_at=self.engine.now,
                rate_mbps=self._current_rate,
            )
        self._current_frame = None
        self._current_callback = None
        if callback is not None:
            callback(attempt)
        if self._queue:
            self._start(*self._queue.pop(0))
        else:
            self._busy = False
