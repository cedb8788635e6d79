"""The attacker's monitor-mode dongle (RTL8812AU class).

The paper's attacker hardware is a $12 Realtek RTL8812AU USB dongle in
monitor mode: it sniffs every frame on the channel and injects arbitrary
crafted frames (via Scapy).  Two properties of monitor mode matter and
are modelled here:

* a monitor interface **never acknowledges anything** — its MAC filter is
  bypassed entirely, so frames addressed to the spoofed attacker MAC go
  unanswered (which is why the AP in Figure 3 retransmits its deauths);
* injected frames skip normal MAC queueing — they go straight to the
  radio, optionally without carrier sense, with any header fields the
  attacker likes (spoofed transmitter address included).

Injection takes typed frames or raw PSDU bytes.  A frame crafted inside
the simulation (:meth:`MonitorDongle.inject`) goes on the air as the
:class:`~repro.mac.frames.Frame` itself: nothing on the receive side
reads its bytes, since the medium decides corruption
(:attr:`Reception.fcs_ok`) and the victim ACKs on that verdict alone.
Raw bytes (:meth:`MonitorDongle.inject_bytes`: malformed frames, a bad
FCS, anything hand-built) travel as a :class:`RawPsdu` and are parsed by
the victim's receive chain, so wherever bytes were injected the victim
validates attacker bytes, CRC included.  A PSDU is parsed at most once,
however many hooks read it: the medium's receiver-address pre-filter,
every receiver's ACK engine and the capture trace share that parse.

A dongle nobody listens to (no :meth:`MonitorDongle.add_listener`, no
energy accounting, no power save) promises its receive chain that its
sniffer is passive, so the ACKs a flood elicits for the spoofed source
address are tallied by the medium instead of handed up to it one by one.
A dongle whose listeners all promise which sources they ignore gets the
same for the frames of those sources (see :class:`MonitorDongle`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Container, List, Optional

from repro.devices.base import Device, DeviceKind
from repro.mac.ack_engine import AckEngineConfig
from repro.mac.frames import Frame
from repro.mac.serialization import FrameFormatError, deserialize
from repro.sim.medium import Reception

#: :attr:`RawPsdu._frame` before the first parse (``None`` means malformed).
_UNPARSED = object()


@dataclass(slots=True)
class RawPsdu:
    """On-air bytes, as injected by the attacker.

    Receivers parse ``psdu`` through :func:`repro.mac.serialization.
    deserialize`; the trace hooks parse lazily so capture output matches
    what Wireshark would show.  The parse is done once and kept: every
    reader gets the same frame, which all of them treat as immutable.
    """

    psdu: bytes
    _frame: object = field(default=_UNPARSED, init=False, repr=False, compare=False)

    def wire_length(self) -> int:
        return len(self.psdu)

    def parsed(self) -> Optional[Frame]:
        """The frame these bytes encode, or ``None`` when they are malformed
        (a failed FCS included)."""
        frame = self._frame
        if frame is _UNPARSED:
            try:
                frame = deserialize(self.psdu)
            except FrameFormatError:
                frame = None
            self._frame = frame
        return frame

    def dest_u64(self) -> Optional[int]:
        """Receiver address for the medium's batch pre-filter, or ``None``
        when the bytes don't parse (every receiver then takes the scalar
        path and applies its own malformed-frame handling)."""
        frame = self.parsed()
        return frame.dest_u64() if frame is not None else None

    def src_u64(self) -> Optional[int]:
        """Transmitter address of the parsed frame (``Frame.src_u64``), or
        ``None`` when the bytes don't parse."""
        frame = self.parsed()
        return frame.src_u64() if frame is not None else None

    def trace_source(self) -> str:
        frame = self.parsed()
        return frame.trace_source() if frame is not None else "(raw)"

    def trace_destination(self) -> str:
        frame = self.parsed()
        return frame.trace_destination() if frame is not None else "(raw)"

    def trace_info(self) -> str:
        frame = self.parsed()
        return frame.trace_info() if frame is not None else "Malformed frame"


SnifferCallback = Callable[[Frame, Reception], None]


class _EverySource:
    def __contains__(self, source: object) -> bool:
        return True


#: The ``ignored_sources`` promise of a listener that does nothing for
#: any frame with a transmitter address (``Frame.src_u64``): one that
#: reads only ACK and CTS frames, which carry none.
EVERY_SOURCE = _EverySource()


class MonitorDongle(Device):
    """Monitor-mode capture + raw injection.

    A listener may promise which sources it ignores
    (``add_listener(callback, ignored_sources=...)``): a set of
    transmitter addresses (``Frame.src_u64``) whose clean frames it does
    nothing with, which it may grow but never shrink, or
    :data:`EVERY_SOURCE`.  When every listener has promised, the dongle
    publishes the sources they all ignore to its ACK engine, and the
    medium tallies those frames instead of handing them up: a survey
    rig stops hearing the beacons of the APs it already knows.  The
    :class:`~repro.core.monitor.AckMonitor` ignores every source and the
    :class:`~repro.survey.scanner.PassiveScanner` the APs it has
    recorded.  A listener without a promise, energy accounting, power
    save or an overridden :meth:`_account_frame` keeps every frame on
    the scalar path, as do two listeners with sets of their own (their
    intersection would not grow with them).
    """

    def __init__(self, *args, **kwargs) -> None:
        kwargs.setdefault("kind", DeviceKind.MONITOR)
        config = kwargs.pop("ack_config", None)
        if config is None:
            config = AckEngineConfig()
        config.promiscuous = True
        kwargs["ack_config"] = config
        super().__init__(*args, **kwargs)
        self._listeners: List[SnifferCallback] = []
        #: Each listener's ``ignored_sources`` promise, in listener order.
        self._promises: List[Optional[Container[int]]] = []
        self.injected = 0
        self._install_sniffer()

    # ------------------------------------------------------------------
    # Capture
    # ------------------------------------------------------------------
    def add_listener(
        self,
        callback: SnifferCallback,
        ignored_sources: Optional[Container[int]] = None,
    ) -> None:
        """Subscribe to every decoded frame the dongle overhears.

        ``ignored_sources`` is the listener's promise (see the class
        docstring); ``None`` makes none.
        """
        self._listeners.append(callback)
        self._promises.append(ignored_sources)
        self._install_sniffer()

    def _install_sniffer(self) -> None:
        """Push what :meth:`_account_frame` promises to the ACK engine.

        The base class cannot vouch for an overridden _account_frame;
        this one only adds listeners to the base accounting.
        """
        sources = None
        if (
            type(self)._account_frame is MonitorDongle._account_frame
            and self._sniffer_is_passive()
        ):
            finite = [p for p in self._promises if p is not EVERY_SOURCE]
            if not finite:
                sources = EVERY_SOURCE
            elif len(finite) == 1:
                sources = finite[0]
        self.ack_engine.install_sniffer(
            self._account_frame,
            passive=sources is not None and not self._listeners,
            ignored_sources=sources,
        )

    def _account_frame(self, frame: Frame, reception: Reception) -> None:
        super()._account_frame(frame, reception)
        for listener in self._listeners:
            listener(frame, reception)

    # ------------------------------------------------------------------
    # Injection
    # ------------------------------------------------------------------
    def inject(self, frame: Frame, rate_mbps: float = 6.0) -> None:
        """Put a crafted frame on the air immediately (no DCF, no retry).

        The frame flies typed: every receiver reads this same object,
        whose wire length sets the airtime, and the medium's verdict
        (:attr:`Reception.fcs_ok`) is the FCS check the victim's ACK
        rests on.  Bytes would buy nothing here, since the frame is well
        formed by construction; to make the victim parse
        attacker-controlled bytes, as a Scapy injection does, pass them
        to :meth:`inject_bytes`.
        """
        self.injected += 1
        self.radio.transmit(frame, rate_mbps)

    def inject_bytes(self, psdu: bytes, rate_mbps: float = 6.0) -> None:
        """Inject raw attacker-controlled bytes (may be malformed)."""
        self.injected += 1
        self.radio.transmit(RawPsdu(bytes(psdu)), rate_mbps, length_bytes=len(psdu))
