"""Check-code model: CRC-16/CCITT over flit payloads.

The simulator models detection abstractly (a ``corrupted`` bit per flit,
assumed always detected), matching the paper's assumption that "parity
on each physical channel" or per-flit check codes catch transient
errors.  This module grounds that assumption: it implements the actual
CRC-16 a hardware implementation would use, and the test suite verifies
the detection properties the abstraction relies on (all single- and
double-bit errors within a flit are detected).
"""

from __future__ import annotations

from typing import Iterable

CRC16_CCITT_POLY = 0x1021
CRC16_INIT = 0xFFFF


def crc16(data: bytes) -> int:
    """CRC-16/CCITT of ``data`` (bit-by-bit reference implementation)."""
    crc = CRC16_INIT
    for byte in data:
        crc ^= byte << 8
        for _ in range(8):
            if crc & 0x8000:
                crc = ((crc << 1) ^ CRC16_CCITT_POLY) & 0xFFFF
            else:
                crc = (crc << 1) & 0xFFFF
    return crc


def flit_with_crc(payload: bytes) -> bytes:
    """Append the check code a link-level flit would carry."""
    code = crc16(payload)
    return payload + bytes([code >> 8, code & 0xFF])


def check_flit(flit_bytes: bytes) -> bool:
    """Validate a flit produced by :func:`flit_with_crc`."""
    if len(flit_bytes) < 2:
        raise ValueError("flit too short to carry a check code")
    payload, code = flit_bytes[:-2], flit_bytes[-2:]
    expected = crc16(payload)
    return code == bytes([expected >> 8, expected & 0xFF])


def flip_bits(data: bytes, bit_positions: Iterable[int]) -> bytes:
    """Return ``data`` with the given bit positions flipped (test helper)."""
    out = bytearray(data)
    for pos in bit_positions:
        byte, bit = divmod(pos, 8)
        if byte >= len(out):
            raise ValueError(f"bit {pos} outside data of {len(out)} bytes")
        out[byte] ^= 1 << bit
    return bytes(out)
