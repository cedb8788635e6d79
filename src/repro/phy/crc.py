"""CRC-32 frame check sequence.

Every 802.11 frame ends in a 4-byte FCS computed with the IEEE CRC-32
(polynomial 0x04C11DB7, reflected, initial value and final XOR of
0xFFFFFFFF — the same CRC used by Ethernet and zlib).  This check is the
*entirety* of what a receiver validates before acknowledging a frame: a
fake frame with a correct FCS is, to the PHY, a perfectly good frame.

:func:`crc32` spells the algorithm out (table-driven) as the reference
the test suite checks against.  The FCS helpers every frame passes
through, :func:`fcs_of` and :func:`fcs_is_valid`, run the same CRC in C
through :func:`zlib.crc32`: in the Figure 6 flood each fake frame is
checksummed twice (sent and received), and there the pure-Python loop
costs about 20 times as much per frame.
"""

from __future__ import annotations

import zlib
from typing import List

#: Reflected polynomial for IEEE CRC-32.
_POLYNOMIAL = 0xEDB88320

#: The CRC-32 of any message followed by its own little-endian CRC: a
#: PSDU whose FCS is right leaves this residue over all its bytes.
_RESIDUE = 0x2144DF1C


def _build_table() -> List[int]:
    table = []
    for byte in range(256):
        value = byte
        for _ in range(8):
            if value & 1:
                value = (value >> 1) ^ _POLYNOMIAL
            else:
                value >>= 1
        table.append(value)
    return table


_TABLE = _build_table()


def crc32(data: bytes, initial: int = 0) -> int:
    """IEEE CRC-32 of ``data`` (matches ``zlib.crc32``)."""
    crc = initial ^ 0xFFFFFFFF
    for byte in data:
        crc = (crc >> 8) ^ _TABLE[(crc ^ byte) & 0xFF]
    return crc ^ 0xFFFFFFFF


def fcs_of(frame_body: bytes) -> bytes:
    """The 4-byte FCS for a MAC header+body, little-endian as on the wire."""
    return zlib.crc32(frame_body).to_bytes(4, "little")


def append_fcs(frame_body: bytes) -> bytes:
    """Return ``frame_body`` with its FCS appended (the on-air PSDU)."""
    return frame_body + fcs_of(frame_body)


def fcs_is_valid(psdu: bytes) -> bool:
    """Check the trailing FCS of an on-air PSDU.

    Frames shorter than the FCS itself are malformed and invalid.
    """
    return len(psdu) >= 4 and zlib.crc32(psdu) == _RESIDUE


def strip_fcs(psdu: bytes) -> bytes:
    """Drop a validated FCS; raises ``ValueError`` if the FCS is wrong."""
    if not fcs_is_valid(psdu):
        raise ValueError("FCS check failed")
    return psdu[:-4]
