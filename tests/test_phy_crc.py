"""CRC-32 FCS: vectors, zlib cross-check, and algebraic properties."""

import zlib

import pytest
from hypothesis import given, strategies as st

from repro.phy.crc import append_fcs, crc32, fcs_is_valid, fcs_of, strip_fcs


class TestKnownVectors:
    def test_check_value(self):
        # The canonical CRC-32 check value for "123456789".
        assert crc32(b"123456789") == 0xCBF43926

    def test_empty(self):
        assert crc32(b"") == 0

    def test_single_byte(self):
        assert crc32(b"\x00") == zlib.crc32(b"\x00")


class TestZlibEquivalence:
    @given(st.binary(min_size=0, max_size=2048))
    def test_matches_zlib(self, data):
        assert crc32(data) == zlib.crc32(data)


class TestFcsAgainstReference:
    """The FCS helpers run zlib's CRC; the table-driven one is the reference."""

    @given(st.binary(min_size=0, max_size=512))
    def test_fcs_of_matches_reference(self, body):
        assert fcs_of(body) == crc32(body).to_bytes(4, "little")

    @given(st.binary(min_size=0, max_size=512), st.binary(min_size=4, max_size=4))
    def test_validity_matches_reference(self, body, fcs):
        # An arbitrary trailer is valid exactly when it is the reference CRC.
        assert fcs_is_valid(body + fcs) == (fcs == crc32(body).to_bytes(4, "little"))
        assert fcs_is_valid(body + crc32(body).to_bytes(4, "little"))


class TestFcsRoundTrip:
    @given(st.binary(min_size=0, max_size=512))
    def test_append_then_validate(self, body):
        assert fcs_is_valid(append_fcs(body))

    @given(st.binary(min_size=0, max_size=512))
    def test_strip_recovers_body(self, body):
        assert strip_fcs(append_fcs(body)) == body

    @given(st.binary(min_size=4, max_size=256), st.integers(0, 255))
    def test_single_byte_corruption_detected(self, body, flip):
        psdu = bytearray(append_fcs(body))
        index = flip % len(psdu)
        psdu[index] ^= 0x01
        assert not fcs_is_valid(bytes(psdu))

    def test_too_short_is_invalid(self):
        assert not fcs_is_valid(b"abc")
        assert not fcs_is_valid(b"")

    def test_strip_raises_on_bad_fcs(self):
        with pytest.raises(ValueError):
            strip_fcs(b"hello wrong fcs!")

    def test_fcs_is_little_endian_on_wire(self):
        body = b"frame"
        expected = zlib.crc32(body).to_bytes(4, "little")
        assert fcs_of(body) == expected
