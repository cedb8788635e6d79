"""802.11 frame model.

Every frame the reproduction exchanges is an instance of a :class:`Frame`
subclass.  The class hierarchy mirrors the standard's type/subtype split:

* management — beacon, probe request/response, authentication,
  association request/response, deauthentication;
* control — RTS, CTS, ACK (14/20-byte short formats, never encrypted —
  the reason the RTS/CTS variant of the attack is unpreventable even with
  a hypothetical fast validator, Section 2.2);
* data — data, null function (the paper's fake-frame payload of choice),
  and the QoS variants.

Frames know their receiver address, whether the standard requires them to
be acknowledged, their wire length, and how to describe themselves in a
capture trace with the same Info strings the paper's Wireshark figures
show ("Null function (No data)", "Acknowledgement, Flags=...",
"Deauthentication, SN=...").
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from typing import Optional

from repro.mac.addresses import BROADCAST, MacAddress


class FrameType(enum.IntEnum):
    MANAGEMENT = 0
    CONTROL = 1
    DATA = 2


#: Frame types as module globals: reading a member off the enum class
#: costs ~150 ns, and every frame asks for its type several times.
_MANAGEMENT = FrameType.MANAGEMENT
_CONTROL = FrameType.CONTROL
_DATA = FrameType.DATA


# Management subtypes
SUBTYPE_ASSOC_REQUEST = 0
SUBTYPE_ASSOC_RESPONSE = 1
SUBTYPE_PROBE_REQUEST = 4
SUBTYPE_PROBE_RESPONSE = 5
SUBTYPE_BEACON = 8
SUBTYPE_DISASSOC = 10
SUBTYPE_AUTH = 11
SUBTYPE_DEAUTH = 12

# Control subtypes
SUBTYPE_RTS = 11
SUBTYPE_CTS = 12
SUBTYPE_ACK = 13

# Data subtypes
SUBTYPE_DATA = 0
SUBTYPE_NULL = 4
SUBTYPE_QOS_DATA = 8
SUBTYPE_QOS_NULL = 12

#: Header bytes: FC(2) + Duration(2) + 3 addresses(18) + SeqCtl(2).
LONG_HEADER_BYTES = 24
QOS_CONTROL_BYTES = 2
FCS_BYTES = 4


@dataclass
class Frame:
    """Common 802.11 frame state.

    ``addr1`` is always the receiver address (RA) — the only field the
    PHY checks before acknowledging.  ``addr2``/``addr3`` are absent on
    ACK/CTS frames (``None``).
    """

    ftype: FrameType = FrameType.DATA
    subtype: int = SUBTYPE_DATA
    addr1: MacAddress = field(default_factory=lambda: BROADCAST)
    addr2: Optional[MacAddress] = None
    addr3: Optional[MacAddress] = None
    duration_us: int = 0
    sequence: int = 0
    fragment: int = 0
    to_ds: bool = False
    from_ds: bool = False
    retry: bool = False
    power_management: bool = False
    more_data: bool = False
    protected: bool = False
    body: bytes = b""

    # ------------------------------------------------------------------
    # Identity helpers
    # ------------------------------------------------------------------
    @property
    def receiver(self) -> MacAddress:
        """The RA — the only address the ACK engine matches on."""
        return self.addr1

    @property
    def transmitter(self) -> Optional[MacAddress]:
        return self.addr2

    def dest_u64(self) -> int:
        """The RA as a 48-bit big-endian integer (bit 40 = group bit).

        The medium's lane pre-filter classifies a whole arrival span
        against its receiver-MAC mirror with one integer comparison per
        receiver; this hook is how a payload exposes its destination
        without any per-receiver parsing.
        """
        return int.from_bytes(self.addr1._value, "big")

    def src_u64(self) -> Optional[int]:
        """The TA as a 48-bit big-endian integer; ``None`` for a control
        frame or a frame without ``addr2``.

        The medium tests it against a promiscuous receiver's source set
        (:data:`~repro.sim.medium.LANE_KNOWN_SOURCE`), once per
        transmission and only when such a receiver needs it.
        """
        addr2 = self.addr2
        if addr2 is None or self.ftype is _CONTROL:
            return None
        return int.from_bytes(addr2._value, "big")

    def is_wildcard_probe(self) -> bool:
        """True for a probe request for any network (an empty SSID).

        The medium gives clean group-addressed ones a reception lane of
        their own, so an AP that ignores them can say so while it still
        answers probes for its own SSID; the AP decides with this same
        test.
        """
        return (
            self.ftype == _MANAGEMENT
            and self.subtype == SUBTYPE_PROBE_REQUEST
            and getattr(self, "ssid", "") == ""
        )

    @property
    def is_management(self) -> bool:
        return self.ftype is _MANAGEMENT

    @property
    def is_control(self) -> bool:
        return self.ftype is _CONTROL

    @property
    def is_data(self) -> bool:
        return self.ftype is _DATA

    @property
    def is_rts(self) -> bool:
        return self.ftype is _CONTROL and self.subtype == SUBTYPE_RTS

    @property
    def is_cts(self) -> bool:
        return self.ftype is _CONTROL and self.subtype == SUBTYPE_CTS

    @property
    def is_ack(self) -> bool:
        return self.ftype is _CONTROL and self.subtype == SUBTYPE_ACK

    @property
    def is_beacon(self) -> bool:
        return self.ftype is _MANAGEMENT and self.subtype == SUBTYPE_BEACON

    @property
    def is_deauth(self) -> bool:
        return self.ftype is _MANAGEMENT and self.subtype == SUBTYPE_DEAUTH

    @property
    def is_null_data(self) -> bool:
        return self.ftype is _DATA and self.subtype in (SUBTYPE_NULL, SUBTYPE_QOS_NULL)

    @property
    def needs_ack(self) -> bool:
        """Does the standard require an ACK for this frame?

        Unicast data and management frames are acknowledged; control
        frames and group-addressed frames are not.  Nothing here depends
        on frame *legitimacy* — that is the Polite WiFi root cause.
        """
        return self.ftype is not _CONTROL and not self.addr1._value[0] & 0x01

    # ------------------------------------------------------------------
    # Wire-format hooks (serialization fills in the real bytes)
    # ------------------------------------------------------------------
    def header_length(self) -> int:
        ftype = self.ftype
        if ftype is _CONTROL:
            # RTS has two addresses, ACK/CTS one.
            return 16 if self.subtype == SUBTYPE_RTS else 10
        if ftype is _DATA and self.subtype in (SUBTYPE_QOS_DATA, SUBTYPE_QOS_NULL):
            return LONG_HEADER_BYTES + QOS_CONTROL_BYTES
        return LONG_HEADER_BYTES

    def body_length(self) -> int:
        """Length of the serialized frame body in bytes.

        Management subclasses override this because their bodies (fixed
        fields plus information elements) are generated at serialize time.
        """
        return len(self.body)

    def wire_length(self) -> int:
        """Total on-air PSDU length including FCS."""
        return self.header_length() + self.body_length() + FCS_BYTES

    # ------------------------------------------------------------------
    # Trace hooks consumed by the medium's capture buffer
    # ------------------------------------------------------------------
    def trace_source(self) -> str:
        return str(self.addr2) if self.addr2 is not None else "(none)"

    def trace_destination(self) -> str:
        return str(self.addr1)

    def trace_info(self) -> str:
        return f"{self.ftype.name} subtype {self.subtype}"


# ----------------------------------------------------------------------
# Control frames
# ----------------------------------------------------------------------
def AckFrame(ra: MacAddress) -> Frame:
    """An acknowledgement to ``ra`` — the frame Polite WiFi elicits."""
    return _TracedAck(
        ftype=FrameType.CONTROL, subtype=SUBTYPE_ACK, addr1=MacAddress(ra)
    )


def CtsFrame(ra: MacAddress, duration_us: int = 0) -> Frame:
    return _TracedCts(
        ftype=FrameType.CONTROL,
        subtype=SUBTYPE_CTS,
        addr1=MacAddress(ra),
        duration_us=duration_us,
    )


def RtsFrame(ra: MacAddress, ta: MacAddress, duration_us: int = 0) -> Frame:
    return _TracedRts(
        ftype=FrameType.CONTROL,
        subtype=SUBTYPE_RTS,
        addr1=MacAddress(ra),
        addr2=MacAddress(ta),
        duration_us=duration_us,
    )


@dataclass
class _TracedAck(Frame):
    def trace_info(self) -> str:
        return "Acknowledgement, Flags=........"


@dataclass
class _TracedCts(Frame):
    def trace_info(self) -> str:
        return "Clear-to-send, Flags=........"


@dataclass
class _TracedRts(Frame):
    def trace_info(self) -> str:
        return "Request-to-send, Flags=........"


# ----------------------------------------------------------------------
# Data frames
# ----------------------------------------------------------------------
@dataclass
class DataFrame(Frame):
    """A (possibly encrypted) data frame."""

    def __post_init__(self) -> None:
        self.ftype = _DATA
        if self.subtype not in (SUBTYPE_DATA, SUBTYPE_QOS_DATA):
            self.subtype = SUBTYPE_DATA

    def trace_info(self) -> str:
        kind = "QoS Data" if self.subtype == SUBTYPE_QOS_DATA else "Data"
        suffix = " [protected]" if self.protected else ""
        return f"{kind}, SN={self.sequence}{suffix}"


@dataclass
class NullDataFrame(Frame):
    """Null function (no data) — the paper's fake frame.

    The only *valid* field an attacker needs is ``addr1`` (the victim's
    MAC); ``addr2`` is spoofed and there is no payload or encryption.
    """

    def __post_init__(self) -> None:
        self.ftype = _DATA
        self.subtype = SUBTYPE_NULL
        self.body = b""

    def trace_info(self) -> str:
        return f"Null function (No data), SN={self.sequence}, FN={self.fragment}"


@dataclass
class QosNullFrame(Frame):
    """QoS null function frame (used interchangeably with the plain null)."""

    def __post_init__(self) -> None:
        self.ftype = _DATA
        self.subtype = SUBTYPE_QOS_NULL
        self.body = b""

    def trace_info(self) -> str:
        return f"QoS Null function (No data), SN={self.sequence}"


# ----------------------------------------------------------------------
# Management frames
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=8192)
def _ssid_ies_length(ssid: str) -> int:
    """Bytes taken by the SSID IE plus the fixed supported-rates IE.

    Memoized per SSID: an AP asks for its beacon's length on every send.
    """
    return (2 + len(ssid.encode("utf-8"))) + (2 + 3)


@dataclass
class BeaconFrame(Frame):
    """AP beacon advertising SSID and capabilities."""

    ssid: str = ""
    beacon_interval_tu: int = 100
    capabilities: int = 0x0431  # ESS | privacy | short preamble/slot

    def __post_init__(self) -> None:
        self.ftype = _MANAGEMENT
        self.subtype = SUBTYPE_BEACON
        # The cheap identity tests first: ``MacAddress.__eq__`` is Python.
        if self.addr3 is None and self.addr2 is not None and self.addr1 == BROADCAST:
            self.addr3 = self.addr2

    def body_length(self) -> int:
        return 12 + _ssid_ies_length(self.ssid)

    def wire_length(self) -> int:
        # One call per send instead of three: a management header is
        # always the long one.
        return LONG_HEADER_BYTES + 12 + _ssid_ies_length(self.ssid) + FCS_BYTES

    def trace_info(self) -> str:
        return f"Beacon frame, SN={self.sequence}, SSID={self.ssid!r}"


@dataclass
class ProbeRequestFrame(Frame):
    """Active-scan probe (broadcast; SSID empty for wildcard)."""

    ssid: str = ""

    def __post_init__(self) -> None:
        self.ftype = _MANAGEMENT
        self.subtype = SUBTYPE_PROBE_REQUEST

    def body_length(self) -> int:
        return _ssid_ies_length(self.ssid)

    def trace_info(self) -> str:
        return f"Probe Request, SN={self.sequence}, SSID={self.ssid!r}"


@dataclass
class ProbeResponseFrame(Frame):
    ssid: str = ""
    beacon_interval_tu: int = 100
    capabilities: int = 0x0431

    def __post_init__(self) -> None:
        self.ftype = _MANAGEMENT
        self.subtype = SUBTYPE_PROBE_RESPONSE

    def body_length(self) -> int:
        return 12 + _ssid_ies_length(self.ssid)

    def trace_info(self) -> str:
        return f"Probe Response, SN={self.sequence}, SSID={self.ssid!r}"


@dataclass
class AuthFrame(Frame):
    """Open-system authentication step (algorithm 0)."""

    algorithm: int = 0
    auth_sequence: int = 1
    status: int = 0

    def __post_init__(self) -> None:
        self.ftype = _MANAGEMENT
        self.subtype = SUBTYPE_AUTH

    def body_length(self) -> int:
        return 6

    def trace_info(self) -> str:
        return f"Authentication, SN={self.sequence}, SEQ={self.auth_sequence}"


@dataclass
class AssocRequestFrame(Frame):
    ssid: str = ""
    capabilities: int = 0x0431
    listen_interval: int = 10

    def __post_init__(self) -> None:
        self.ftype = _MANAGEMENT
        self.subtype = SUBTYPE_ASSOC_REQUEST

    def body_length(self) -> int:
        return 4 + _ssid_ies_length(self.ssid)

    def trace_info(self) -> str:
        return f"Association Request, SN={self.sequence}, SSID={self.ssid!r}"


@dataclass
class AssocResponseFrame(Frame):
    capabilities: int = 0x0431
    status: int = 0
    association_id: int = 1

    def __post_init__(self) -> None:
        self.ftype = _MANAGEMENT
        self.subtype = SUBTYPE_ASSOC_RESPONSE

    def body_length(self) -> int:
        return 6

    def trace_info(self) -> str:
        return f"Association Response, SN={self.sequence}, status={self.status}"


@dataclass
class DeauthFrame(Frame):
    """Deauthentication — what confused APs hurl at the attacker (Fig. 3)."""

    reason: int = 7  # Class 3 frame received from nonassociated STA

    def __post_init__(self) -> None:
        self.ftype = _MANAGEMENT
        self.subtype = SUBTYPE_DEAUTH

    def body_length(self) -> int:
        return 2

    def trace_info(self) -> str:
        return f"Deauthentication, SN={self.sequence}"
