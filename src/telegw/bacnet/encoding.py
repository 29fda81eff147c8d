"""BACnet/IP encoding: BVLC/NPDU wrapping, tagged values, and the
ReadPropertyMultiple service (request, ack, error, reject, abort).

Only what the gateway needs is implemented, but the decoder is total: any
byte string either decodes or raises MalformedTag, never an unhandled
exception, because it runs against network input.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional, Union

BVLL_TYPE = 0x81
BVLC_UNICAST = 0x0A
BVLC_BROADCAST = 0x0B
NPDU_VERSION = 0x01

PDU_CONFIRMED = 0x0
PDU_COMPLEX_ACK = 0x3
PDU_ERROR = 0x5
PDU_REJECT = 0x6
PDU_ABORT = 0x7

SERVICE_RPM = 14
MAX_APDU = 1476
# encoded max-apdu selector: 0x05 selects 1476 octets
_MAX_APDU_OCTET = 0x05

TAG_NULL = 0
TAG_BOOLEAN = 1
TAG_UNSIGNED = 2
TAG_SIGNED = 3
TAG_REAL = 4
TAG_DOUBLE = 5
TAG_OCTETSTRING = 6
TAG_CHARSTRING = 7
TAG_BITSTRING = 8
TAG_ENUMERATED = 9
TAG_DATE = 10
TAG_TIME = 11
TAG_OBJECTID = 12

OBJECT_TYPES = {
    "analog-input": 0,
    "analog-output": 1,
    "analog-value": 2,
    "binary-input": 3,
    "binary-output": 4,
    "binary-value": 5,
    "device": 8,
    "multi-state-input": 13,
    "multi-state-value": 19,
}
_OBJECT_TYPE_NAMES = {v: k for k, v in OBJECT_TYPES.items()}

PROPERTY_IDS = {
    "description": 28,
    "object-identifier": 75,
    "object-list": 76,
    "object-name": 77,
    "object-type": 79,
    "present-value": 85,
    "status-flags": 111,
    "units": 117,
}
_PROPERTY_NAMES = {v: k for k, v in PROPERTY_IDS.items()}

# engineering units the configs actually use; anything else renders unit-<n>
UNITS = {
    "amperes": 3,
    "volts": 5,
    "hertz": 27,
    "percent-relative-humidity": 29,
    "luxes": 37,
    "watts": 47,
    "kilowatts": 48,
    "pascals": 53,
    "kilopascals": 54,
    "degrees-celsius": 62,
    "degrees-fahrenheit": 64,
    "no-units": 95,
    "parts-per-million": 96,
    "percent": 98,
}
_UNIT_NAMES = {v: k for k, v in UNITS.items()}

ERROR_CLASSES = {
    "device": 0,
    "object": 1,
    "property": 2,
    "resources": 3,
    "security": 4,
    "services": 5,
    "vt": 6,
    "communication": 7,
}
_ERROR_CLASS_NAMES = {v: k for k, v in ERROR_CLASSES.items()}

ERROR_CODES = {
    "other": 0,
    "unknown-object": 31,
    "unknown-property": 32,
    "value-out-of-range": 37,
}
_ERROR_CODE_NAMES = {v: k for k, v in ERROR_CODES.items()}

ABORT_REASONS = {
    0: "other",
    1: "buffer-overflow",
    2: "invalid-apdu-in-this-state",
    3: "preempted-by-higher-priority-task",
    4: "segmentation-not-supported",
}

REJECT_REASONS = {
    0: "other",
    4: "invalid-tag",
    5: "missing-required-parameter",
    9: "unrecognized-service",
}


class BacnetError(Exception):
    pass


class MalformedTag(BacnetError):
    pass


class TooLarge(BacnetError):
    pass


class ServiceError(BacnetError):
    def __init__(self, error_class: str, error_code: str):
        self.error_class = error_class
        self.error_code = error_code
        super().__init__(f"device error: class={error_class} code={error_code}")


class Rejected(BacnetError):
    def __init__(self, reason: int):
        self.reason = reason
        super().__init__(f"request rejected: {REJECT_REASONS.get(reason, reason)}")


class Aborted(BacnetError):
    def __init__(self, reason: int):
        self.reason = reason
        self.reason_name = ABORT_REASONS.get(reason, str(reason))
        super().__init__(f"request aborted: {self.reason_name}")

    @property
    def response_too_big(self) -> bool:
        return self.reason in (1, 4)


class Enumerated(int):
    """An enumerated value; distinct from plain unsigned so callers can map
    binary present-values to flags and units to tokens."""

    __slots__ = ()


@dataclass(frozen=True, order=True, slots=True)
class ObjectRef:
    type_id: int
    instance: int

    @property
    def type_name(self) -> str:
        return _OBJECT_TYPE_NAMES.get(self.type_id, f"type-{self.type_id}")

    @staticmethod
    def of(type_name: str, instance: int) -> "ObjectRef":
        return ObjectRef(object_type_id(type_name), instance)


def object_type_id(name: Union[str, int]) -> int:
    if isinstance(name, int):
        return name
    if name not in OBJECT_TYPES:
        raise ValueError(f"unknown object type {name!r}")
    return OBJECT_TYPES[name]


def property_id(name: Union[str, int]) -> int:
    if isinstance(name, int):
        return name
    if name not in PROPERTY_IDS:
        raise ValueError(f"unknown property {name!r}")
    return PROPERTY_IDS[name]


def property_name(pid: int) -> str:
    return _PROPERTY_NAMES.get(pid, f"property-{pid}")


def unit_token(n: int) -> str:
    return _UNIT_NAMES.get(n, f"unit-{n}")


def unit_id(token: str) -> int:
    if token in UNITS:
        return UNITS[token]
    if token.startswith("unit-"):
        return int(token[5:])
    raise ValueError(f"unknown engineering unit {token!r}")


def error_names(class_id: int, code_id: int) -> tuple[str, str]:
    return (
        _ERROR_CLASS_NAMES.get(class_id, f"class-{class_id}"),
        _ERROR_CODE_NAMES.get(code_id, f"code-{code_id}"),
    )


@dataclass(frozen=True, slots=True)
class PropertyQuery:
    obj: ObjectRef
    prop: int
    array_index: Optional[int] = None


@dataclass(frozen=True, slots=True)
class PropResult:
    obj: ObjectRef
    prop: int
    array_index: Optional[int]
    # a property value is a sequence of application values (object-list
    # reads return many); errors carry (class, code) name pairs
    values: Optional[tuple] = None
    error: Optional[tuple[str, str]] = None


# ---------------------------------------------------------------------------
# primitive tag encoding


def _unsigned_content(n: int) -> bytes:
    if n < 0:
        raise ValueError("unsigned content cannot be negative")
    out = b"" if n else b"\x00"
    while n:
        out = bytes([n & 0xFF]) + out
        n >>= 8
    return out


def _tag(number: int, context: bool, length: int) -> bytes:
    if number > 14:
        raise ValueError("extended tag numbers not produced by this stack")
    first = (number << 4) | (0x08 if context else 0x00)
    if length < 5:
        return bytes([first | length])
    if length <= 253:
        return bytes([first | 5, length])
    if length <= 65535:
        return bytes([first | 5, 254]) + struct.pack(">H", length)
    return bytes([first | 5, 255]) + struct.pack(">I", length)


def _opening(number: int) -> bytes:
    return bytes([(number << 4) | 0x08 | 6])


def _closing(number: int) -> bytes:
    return bytes([(number << 4) | 0x08 | 7])


def context_unsigned(number: int, n: int) -> bytes:
    c = _unsigned_content(n)
    return _tag(number, True, len(c)) + c


def objectid_content(ref: ObjectRef) -> bytes:
    if not 0 <= ref.type_id <= 0x3FF or not 0 <= ref.instance <= 0x3FFFFF:
        raise ValueError(f"object id out of range: {ref}")
    return struct.pack(">I", (ref.type_id << 22) | ref.instance)


def app_null() -> bytes:
    return bytes([0x00])


def app_boolean(v: bool) -> bytes:
    return bytes([0x10 | (1 if v else 0)])


def app_unsigned(n: int) -> bytes:
    c = _unsigned_content(n)
    return _tag(TAG_UNSIGNED, False, len(c)) + c


def app_enumerated(n: int) -> bytes:
    c = _unsigned_content(n)
    return _tag(TAG_ENUMERATED, False, len(c)) + c


def app_real(x: float) -> bytes:
    return _tag(TAG_REAL, False, 4) + struct.pack(">f", x)


def app_charstring(s: str) -> bytes:
    body = b"\x00" + s.encode("utf-8")  # charset 0 = UTF-8
    return _tag(TAG_CHARSTRING, False, len(body)) + body


def app_objectid(ref: ObjectRef) -> bytes:
    return _tag(TAG_OBJECTID, False, 4) + objectid_content(ref)


def encode_app_value(v) -> bytes:
    if v is None:
        return app_null()
    if isinstance(v, bool):
        return app_boolean(v)
    if isinstance(v, Enumerated):
        return app_enumerated(int(v))
    if isinstance(v, int):
        return app_unsigned(v)
    if isinstance(v, float):
        return app_real(v)
    if isinstance(v, str):
        return app_charstring(v)
    if isinstance(v, ObjectRef):
        return app_objectid(v)
    raise ValueError(f"cannot encode {type(v).__name__} as an application value")


# ---------------------------------------------------------------------------
# decoding


@dataclass(frozen=True, slots=True)
class Tag:
    number: int
    context: bool
    form: str  # value | opening | closing
    length: int  # content length; for app booleans the raw lvt


class Reader:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    @property
    def remaining(self) -> int:
        return len(self.data) - self.pos

    def take(self, n: int) -> bytes:
        if n < 0 or self.remaining < n:
            raise MalformedTag(f"truncated at offset {self.pos} (wanted {n} bytes)")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack(">H", self.take(2))[0]

    def peek_tag(self) -> Optional[Tag]:
        saved = self.pos
        try:
            return self.read_tag()
        finally:
            self.pos = saved

    def read_tag(self) -> Tag:
        first = self.u8()
        number = first >> 4
        context = bool(first & 0x08)
        lvt = first & 0x07
        if number == 0xF:
            number = self.u8()
        if context and lvt == 6:
            return Tag(number, True, "opening", 0)
        if context and lvt == 7:
            return Tag(number, True, "closing", 0)
        if lvt == 5:
            ext = self.u8()
            if ext == 254:
                length = self.u16()
            elif ext == 255:
                length = struct.unpack(">I", self.take(4))[0]
            else:
                length = ext
        else:
            length = lvt
        if not context and number == TAG_BOOLEAN:
            # application boolean carries its value in the lvt field
            if lvt > 1:
                raise MalformedTag(f"boolean lvt {lvt} invalid")
            return Tag(number, False, "value", lvt)
        if not context and lvt in (6, 7):
            raise MalformedTag("opening/closing form on an application tag")
        return Tag(number, context, "value", length)

    def expect_opening(self, number: int) -> None:
        t = self.read_tag()
        if t.form != "opening" or t.number != number:
            raise MalformedTag(f"expected opening tag {number}, got {t}")

    def expect_closing(self, number: int) -> None:
        t = self.read_tag()
        if t.form != "closing" or t.number != number:
            raise MalformedTag(f"expected closing tag {number}, got {t}")

    def at_closing(self, number: int) -> bool:
        if self.remaining == 0:
            raise MalformedTag(f"missing closing tag {number}")
        t = self.peek_tag()
        return t.form == "closing" and t.number == number

    def read_unsigned_content(self, length: int) -> int:
        if length == 0 or length > 8:
            raise MalformedTag(f"unsigned length {length} invalid")
        n = 0
        for b in self.take(length):
            n = (n << 8) | b
        return n

    def read_app_value(self):
        t = self.read_tag()
        if t.context:
            raise MalformedTag(f"expected application tag, got context {t.number}")
        if t.number == TAG_NULL:
            if t.length:
                raise MalformedTag("null with content")
            return None
        if t.number == TAG_BOOLEAN:
            return bool(t.length)
        if t.number == TAG_UNSIGNED:
            return self.read_unsigned_content(t.length)
        if t.number == TAG_SIGNED:
            raw = self.read_unsigned_content(t.length)
            bits = 8 * t.length
            return raw - (1 << bits) if raw >= (1 << (bits - 1)) else raw
        if t.number == TAG_REAL:
            if t.length != 4:
                raise MalformedTag(f"real length {t.length} != 4")
            return struct.unpack(">f", self.take(4))[0]
        if t.number == TAG_DOUBLE:
            if t.length != 8:
                raise MalformedTag(f"double length {t.length} != 8")
            return struct.unpack(">d", self.take(8))[0]
        if t.number == TAG_CHARSTRING:
            if t.length < 1:
                raise MalformedTag("character string without charset octet")
            body = self.take(t.length)
            if body[0] != 0x00:
                raise MalformedTag(f"unsupported charset {body[0]}")
            try:
                return body[1:].decode("utf-8")
            except UnicodeDecodeError as e:
                raise MalformedTag("invalid utf-8 in character string") from e
        if t.number == TAG_ENUMERATED:
            return Enumerated(self.read_unsigned_content(t.length))
        if t.number == TAG_OBJECTID:
            if t.length != 4:
                raise MalformedTag(f"object id length {t.length} != 4")
            raw = struct.unpack(">I", self.take(4))[0]
            return ObjectRef(raw >> 22, raw & 0x3FFFFF)
        # octet strings, bit strings, dates, times: carried opaque
        return self.take(t.length)


# ---------------------------------------------------------------------------
# BVLC / NPDU


def wrap(apdu: bytes, expecting_reply: bool) -> bytes:
    npdu = bytes([NPDU_VERSION, 0x04 if expecting_reply else 0x00])
    return struct.pack(">BBH", BVLL_TYPE, BVLC_UNICAST, 4 + len(npdu) + len(apdu)) + npdu + apdu


def unwrap(datagram: bytes) -> bytes:
    r = Reader(datagram)
    if r.u8() != BVLL_TYPE:
        raise MalformedTag("not a BACnet/IP datagram")
    fn = r.u8()
    if fn not in (BVLC_UNICAST, BVLC_BROADCAST):
        raise MalformedTag(f"unsupported BVLC function 0x{fn:02X}")
    total = r.u16()
    if total != len(datagram):
        raise MalformedTag(f"BVLC length {total} != datagram size {len(datagram)}")
    if r.u8() != NPDU_VERSION:
        raise MalformedTag("unsupported NPDU version")
    control = r.u8()
    if control & 0x80:
        raise MalformedTag("network layer message, not an APDU")
    if control & 0x20:  # destination present
        r.u16()
        dlen = r.u8()
        r.take(dlen)
    if control & 0x08:  # source present
        r.u16()
        slen = r.u8()
        r.take(slen)
    if control & 0x20:  # hop count trails the source field
        r.u8()
    apdu = datagram[r.pos :]
    if not apdu:
        raise MalformedTag("empty APDU")
    return apdu


# ---------------------------------------------------------------------------
# ReadPropertyMultiple service


def _group_consecutive(items, key):
    groups = []
    for it in items:
        k = key(it)
        if groups and groups[-1][0] == k:
            groups[-1][1].append(it)
        else:
            groups.append((k, [it]))
    return groups


def encode_rpm_request(invoke_id: int, queries: list[PropertyQuery], max_apdu: int = MAX_APDU) -> bytes:
    if not queries:
        raise ValueError("queries must be non-empty")
    if not 0 <= invoke_id <= 255:
        raise ValueError("invoke id outside 0..255")
    parts = [bytes([PDU_CONFIRMED << 4, _MAX_APDU_OCTET, invoke_id, SERVICE_RPM])]
    for ref, members in _group_consecutive(queries, key=lambda q: q.obj):
        parts.append(_tag(0, True, 4) + objectid_content(ref))
        parts.append(_opening(1))
        for q in members:
            parts.append(context_unsigned(0, q.prop))
            if q.array_index is not None:
                parts.append(context_unsigned(1, q.array_index))
        parts.append(_closing(1))
    apdu = b"".join(parts)
    if len(apdu) > max_apdu:
        raise TooLarge(f"request APDU {len(apdu)} bytes exceeds {max_apdu}")
    return apdu


def decode_rpm_request(apdu: bytes) -> tuple[int, list[PropertyQuery]]:
    r = Reader(apdu)
    first = r.u8()
    if first >> 4 != PDU_CONFIRMED:
        raise MalformedTag("not a confirmed request")
    if first & 0x0F:
        raise MalformedTag("segmented request")
    r.u8()  # max segments / max apdu
    invoke_id = r.u8()
    if r.u8() != SERVICE_RPM:
        raise MalformedTag("not a ReadPropertyMultiple request")
    queries: list[PropertyQuery] = []
    while r.remaining:
        t = r.read_tag()
        if not (t.context and t.number == 0 and t.form == "value" and t.length == 4):
            raise MalformedTag("expected object identifier")
        raw = struct.unpack(">I", r.take(4))[0]
        ref = ObjectRef(raw >> 22, raw & 0x3FFFFF)
        r.expect_opening(1)
        any_prop = False
        while not r.at_closing(1):
            t = r.read_tag()
            if not (t.context and t.number == 0 and t.form == "value"):
                raise MalformedTag("expected property identifier")
            prop = r.read_unsigned_content(t.length)
            idx = None
            if r.remaining and not r.at_closing(1):
                nxt = r.peek_tag()
                if nxt.context and nxt.number == 1 and nxt.form == "value":
                    r.read_tag()
                    idx = r.read_unsigned_content(nxt.length)
            queries.append(PropertyQuery(ref, prop, idx))
            any_prop = True
        r.expect_closing(1)
        if not any_prop:
            raise MalformedTag("object with empty property list")
    if not queries:
        raise MalformedTag("request carries no queries")
    return invoke_id, queries


def encode_rpm_ack(invoke_id: int, results: list[PropResult]) -> bytes:
    parts = [bytes([PDU_COMPLEX_ACK << 4, invoke_id, SERVICE_RPM])]
    for ref, members in _group_consecutive(results, key=lambda x: x.obj):
        parts.append(_tag(0, True, 4) + objectid_content(ref))
        parts.append(_opening(1))
        for res in members:
            parts.append(context_unsigned(2, res.prop))
            if res.array_index is not None:
                parts.append(context_unsigned(3, res.array_index))
            if res.error is not None:
                cls, code = res.error
                parts.append(_opening(5))
                parts.append(app_enumerated(ERROR_CLASSES.get(cls, 0)))
                parts.append(app_enumerated(ERROR_CODES.get(code, 0)))
                parts.append(_closing(5))
            else:
                parts.append(_opening(4))
                for v in res.values or ():
                    parts.append(encode_app_value(v))
                parts.append(_closing(4))
        parts.append(_closing(1))
    return b"".join(parts)


def decode_rpm_ack(apdu: bytes, expected_invoke: Optional[int] = None) -> list[PropResult]:
    r = Reader(apdu)
    first = r.u8()
    pdu_type = first >> 4
    if pdu_type == PDU_ERROR:
        invoke = r.u8()
        r.u8()  # service
        cls = r.read_app_value()
        code = r.read_app_value()
        if not isinstance(cls, Enumerated) or not isinstance(code, Enumerated):
            raise MalformedTag("error PDU without enumerated class/code")
        raise ServiceError(*error_names(int(cls), int(code)))
    if pdu_type == PDU_REJECT:
        r.u8()
        raise Rejected(r.u8())
    if pdu_type == PDU_ABORT:
        r.u8()
        raise Aborted(r.u8())
    if pdu_type != PDU_COMPLEX_ACK:
        raise MalformedTag(f"unexpected PDU type {pdu_type}")
    if first & 0x0F:
        raise MalformedTag("segmented ack")
    invoke = r.u8()
    if expected_invoke is not None and invoke != expected_invoke:
        raise MalformedTag(f"invoke id {invoke} != expected {expected_invoke}")
    if r.u8() != SERVICE_RPM:
        raise MalformedTag("ack for a different service")
    results: list[PropResult] = []
    while r.remaining:
        t = r.read_tag()
        if not (t.context and t.number == 0 and t.form == "value" and t.length == 4):
            raise MalformedTag("expected object identifier in ack")
        raw = struct.unpack(">I", r.take(4))[0]
        ref = ObjectRef(raw >> 22, raw & 0x3FFFFF)
        r.expect_opening(1)
        while not r.at_closing(1):
            t = r.read_tag()
            if not (t.context and t.number == 2 and t.form == "value"):
                raise MalformedTag("expected property identifier in result")
            prop = r.read_unsigned_content(t.length)
            idx = None
            nxt = r.peek_tag()
            if nxt.context and nxt.number == 3 and nxt.form == "value":
                r.read_tag()
                idx = r.read_unsigned_content(nxt.length)
            nxt = r.read_tag()
            if nxt.form == "opening" and nxt.number == 4:
                values = []
                while not r.at_closing(4):
                    values.append(r.read_app_value())
                r.expect_closing(4)
                results.append(PropResult(ref, prop, idx, values=tuple(values)))
            elif nxt.form == "opening" and nxt.number == 5:
                cls = r.read_app_value()
                code = r.read_app_value()
                r.expect_closing(5)
                if not isinstance(cls, Enumerated) or not isinstance(code, Enumerated):
                    raise MalformedTag("access error without enumerated class/code")
                results.append(
                    PropResult(ref, prop, idx, error=error_names(int(cls), int(code)))
                )
            else:
                raise MalformedTag("result is neither a value nor an access error")
        r.expect_closing(1)
    if not results:
        raise MalformedTag("ack carries no results")
    return results


def encode_reject(invoke_id: int, reason: int) -> bytes:
    return bytes([PDU_REJECT << 4, invoke_id, reason])


def encode_abort(invoke_id: int, reason: int, from_server: bool = True) -> bytes:
    return bytes([(PDU_ABORT << 4) | (1 if from_server else 0), invoke_id, reason])


def apdu_invoke_id(apdu: bytes) -> Optional[int]:
    """Best-effort invoke id extraction for response matching."""
    if len(apdu) < 2:
        return None
    return apdu[1]
