"""Modbus/TCP framing and register codecs.

Frames are MBAP header + PDU. The MBAP header is transaction id (u16),
protocol id (u16, always 0), length (u16, unit byte + PDU length), unit (u8),
all big-endian. Only the function codes the gateway needs are implemented:
0x03 read holding registers, 0x04 read input registers, 0x10 write multiple
registers. Responses with the high bit set on the function code are exception
responses carrying a one-byte code.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

FC_READ_HOLDING = 0x03
FC_READ_INPUT = 0x04
FC_WRITE_MULTIPLE = 0x10
EXCEPTION_BIT = 0x80
MAX_READ_COUNT = 125
MAX_WRITE_COUNT = 123

HOLDING = "holding"
INPUT = "input"

_FUNCTION_CODES = {HOLDING: FC_READ_HOLDING, INPUT: FC_READ_INPUT}

EXCEPTION_NAMES = {
    0x01: "illegal-function",
    0x02: "illegal-data-address",
    0x03: "illegal-data-value",
    0x04: "server-device-failure",
    0x05: "acknowledge",
    0x06: "server-device-busy",
    0x08: "memory-parity-error",
    0x0A: "gateway-path-unavailable",
    0x0B: "gateway-target-failed",
}


class ModbusError(Exception):
    pass


class CountOutOfRange(ModbusError, ValueError):
    pass


class MalformedFrame(ModbusError):
    pass


class LengthMismatch(ModbusError):
    pass


class TransactionMismatch(ModbusError):
    pass


class SpanMismatch(ModbusError, ValueError):
    pass


class ExceptionResponse(ModbusError):
    """The device answered with a Modbus exception."""

    def __init__(self, code: int):
        self.code = code
        self.name = EXCEPTION_NAMES.get(code, f"exception-{code}")
        super().__init__(f"modbus exception 0x{code:02X} ({self.name})")


def _mbap(tx: int, unit: int, pdu_len: int) -> bytes:
    if not 0 <= unit <= 0xFF:
        raise ValueError(f"unit {unit} outside 0..0xFF")
    return struct.pack(">HHHB", tx & 0xFFFF, 0, pdu_len + 1, unit)


def encode_read(tx: int, unit: int, function: str, address: int, count: int) -> bytes:
    """Build a read-registers request frame for fc 0x03/0x04."""
    if function not in _FUNCTION_CODES:
        raise ValueError(f"function must be {HOLDING!r} or {INPUT!r}, got {function!r}")
    if not 1 <= count <= MAX_READ_COUNT:
        raise CountOutOfRange(f"register count {count} outside 1..{MAX_READ_COUNT}")
    if not 0 <= address <= 0xFFFF:
        raise ValueError(f"address {address} outside 0..0xFFFF")
    pdu = struct.pack(">BHH", _FUNCTION_CODES[function], address, count)
    return _mbap(tx, unit, len(pdu)) + pdu


def encode_write_multiple(tx: int, unit: int, address: int, words: list[int]) -> bytes:
    """Build a write-multiple-registers request frame (fc 0x10)."""
    if not 1 <= len(words) <= MAX_WRITE_COUNT:
        raise CountOutOfRange(f"write count {len(words)} outside 1..{MAX_WRITE_COUNT}")
    if not 0 <= address <= 0xFFFF:
        raise ValueError(f"address {address} outside 0..0xFFFF")
    for w in words:
        if not 0 <= w <= 0xFFFF:
            raise ValueError(f"register value {w} outside 0..0xFFFF")
    pdu = struct.pack(">BHHB", FC_WRITE_MULTIPLE, address, len(words), 2 * len(words))
    pdu += struct.pack(f">{len(words)}H", *words)
    return _mbap(tx, unit, len(pdu)) + pdu


def _check_mbap(frame: bytes, expected_tx: int) -> int:
    if len(frame) < 9:
        raise LengthMismatch(f"frame too short ({len(frame)} bytes)")
    tx, proto, length, _unit = struct.unpack(">HHHB", frame[:7])
    if proto != 0:
        raise MalformedFrame(f"protocol id {proto} != 0")
    if length != len(frame) - 6:
        raise LengthMismatch(f"header says {length} bytes, frame has {len(frame) - 6}")
    if tx != expected_tx:
        raise TransactionMismatch(f"transaction {tx} != expected {expected_tx}")
    return frame[7]


def decode_read_response(frame: bytes, expected_tx: int, expected_count: int) -> list[int]:
    """Validate a read response and return its registers as u16 words."""
    fc = _check_mbap(frame, expected_tx)
    if fc & EXCEPTION_BIT:
        raise ExceptionResponse(frame[8])
    if fc not in (FC_READ_HOLDING, FC_READ_INPUT):
        raise MalformedFrame(f"unexpected function 0x{fc:02X} in read response")
    byte_count = frame[8]
    if byte_count != 2 * expected_count:
        raise LengthMismatch(f"byte count {byte_count} != {2 * expected_count}")
    if len(frame) != 9 + byte_count:
        raise LengthMismatch(f"frame length {len(frame)} != {9 + byte_count}")
    return list(struct.unpack(f">{expected_count}H", frame[9:]))


def decode_write_response(frame: bytes, expected_tx: int) -> tuple[int, int]:
    """Validate a write-multiple response; return (address, count)."""
    fc = _check_mbap(frame, expected_tx)
    if fc & EXCEPTION_BIT:
        raise ExceptionResponse(frame[8])
    if fc != FC_WRITE_MULTIPLE:
        raise MalformedFrame(f"unexpected function 0x{fc:02X} in write response")
    if len(frame) != 12:
        raise LengthMismatch(f"write response length {len(frame)} != 12")
    address, count = struct.unpack(">HH", frame[8:12])
    return address, count


# ---------------------------------------------------------------------------
# register codecs

_DATATYPES = {"u16": 1, "i16": 1, "u32": 2, "i32": 2, "f32": 2}
_INT_RANGE = {
    "u16": (0, 0xFFFF),
    "i16": (-0x8000, 0x7FFF),
    "u32": (0, 0xFFFFFFFF),
    "i32": (-0x80000000, 0x7FFFFFFF),
}


@dataclass(frozen=True, slots=True)
class RegisterCodec:
    """How a run of registers maps to an engineering value.

    value = raw * scale + offset. Multi-word types combine two registers;
    word_order selects which register carries the high word (bytes inside a
    register are always big-endian on the wire).
    """

    datatype: str
    word_order: str = "big"
    scale: float = 1.0
    offset: float = 0.0

    def __post_init__(self):
        if self.datatype not in _DATATYPES:
            raise ValueError(f"unknown datatype {self.datatype!r}")
        if self.word_order not in ("big", "little"):
            raise ValueError(f"word_order must be big or little, got {self.word_order!r}")
        if self.scale == 0:
            raise ValueError("scale must be non-zero")

    @property
    def span(self) -> int:
        return _DATATYPES[self.datatype]

    def _raw32(self, words: list[int]) -> int:
        hi, lo = words if self.word_order == "big" else (words[1], words[0])
        return (hi << 16) | lo

    def decode(self, words: list[int]) -> float:
        if len(words) != _DATATYPES[self.datatype]:  # self.span, without its call
            raise SpanMismatch(f"{self.datatype} needs {self.span} words, got {len(words)}")
        for w in words:
            if not 0 <= w <= 0xFFFF:
                raise ValueError(f"register value {w} outside 0..0xFFFF")
        if self.datatype == "u16":
            raw: float = words[0]
        elif self.datatype == "i16":
            raw = words[0] - 0x10000 if words[0] >= 0x8000 else words[0]
        elif self.datatype == "u32":
            raw = self._raw32(words)
        elif self.datatype == "i32":
            v = self._raw32(words)
            raw = v - 0x100000000 if v >= 0x80000000 else v
        else:  # f32
            raw = struct.unpack(">f", struct.pack(">HH", *self._words_be(words)))[0]
        return raw * self.scale + self.offset

    def _words_be(self, words: list[int]) -> tuple[int, int]:
        return tuple(words) if self.word_order == "big" else (words[1], words[0])

    def encode(self, value: float) -> list[int]:
        """Inverse of decode; used by simulators to pack register banks."""
        x = (value - self.offset) / self.scale
        if self.datatype == "f32":
            hi, lo = struct.unpack(">HH", struct.pack(">f", x))
        else:
            raw = round(x)
            lo_b, hi_b = _INT_RANGE[self.datatype]
            if not lo_b <= raw <= hi_b:
                raise ValueError(f"{value} encodes to {raw}, outside {self.datatype}")
            raw &= 0xFFFFFFFF if self.span == 2 else 0xFFFF
            if self.span == 1:
                return [raw]
            hi, lo = (raw >> 16) & 0xFFFF, raw & 0xFFFF
        return [hi, lo] if self.word_order == "big" else [lo, hi]


# ---------------------------------------------------------------------------
# server-side helpers (used by the device simulators)


@dataclass(frozen=True, slots=True)
class Request:
    tx: int
    unit: int
    fc: int
    address: int
    count: int
    words: tuple[int, ...] = ()


def parse_request(frame: bytes) -> Request:
    if len(frame) < 8:
        raise MalformedFrame(f"request too short ({len(frame)} bytes)")
    tx, proto, length, unit = struct.unpack(">HHHB", frame[:7])
    if proto != 0:
        raise MalformedFrame(f"protocol id {proto} != 0")
    if length != len(frame) - 6:
        raise LengthMismatch(f"header says {length} bytes, frame has {len(frame) - 6}")
    fc = frame[7]
    if fc in (FC_READ_HOLDING, FC_READ_INPUT):
        address, count = struct.unpack(">HH", frame[8:12])
        return Request(tx, unit, fc, address, count)
    if fc == FC_WRITE_MULTIPLE:
        address, count, byte_count = struct.unpack(">HHB", frame[8:13])
        if byte_count != 2 * count or len(frame) != 13 + byte_count:
            raise LengthMismatch("write request byte count disagrees with frame")
        words = struct.unpack(f">{count}H", frame[13:])
        return Request(tx, unit, fc, address, count, words)
    raise MalformedFrame(f"unsupported function 0x{fc:02X}")


def build_read_response(tx: int, unit: int, fc: int, words: list[int]) -> bytes:
    pdu = struct.pack(f">BB{len(words)}H", fc, 2 * len(words), *words)
    return _mbap(tx, unit, len(pdu)) + pdu


def build_write_response(tx: int, unit: int, address: int, count: int) -> bytes:
    pdu = struct.pack(">BHH", FC_WRITE_MULTIPLE, address, count)
    return _mbap(tx, unit, len(pdu)) + pdu


def build_exception(tx: int, unit: int, fc: int, code: int) -> bytes:
    pdu = struct.pack(">BB", fc | EXCEPTION_BIT, code)
    return _mbap(tx, unit, len(pdu)) + pdu
