"""BACnet/IP encoding: BVLC/NPDU wrapping, tagged values, and the
ReadPropertyMultiple service (request, ack, error, reject, abort).

Only what the gateway needs is implemented. Decoding is one pass over the
bytes with an integer offset, each tag header read once, and it is total:
any byte string either decodes or raises MalformedTag (or the device's own
error, reject or abort), never an unhandled exception, because it runs
against network input. ``rpm_ack_items`` walks an ack into plain tuples;
``decode_rpm_ack`` is the same walk viewed as ``PropResult`` records.
"""

from __future__ import annotations

import functools
import itertools
import struct
from dataclasses import dataclass
from operator import attrgetter
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
    return n.to_bytes(max(1, (n.bit_length() + 7) // 8), "big")


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
# decoding: one pass with an integer offset, each tag header read once

_APP, _CONTEXT, _OPENING, _CLOSING = range(4)
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_F32 = struct.Struct(">f")
_F64 = struct.Struct(">d")
_BVLC_NPDU = struct.Struct(">BBHBB")


def _total(decode):
    """Turn a read past the end of the input (unchecked) into MalformedTag."""

    @functools.wraps(decode)
    def checked(*args):
        try:
            return decode(*args)
        except (IndexError, struct.error) as e:
            raise MalformedTag(f"truncated: input ends inside a field ({e})") from None

    return checked


def _header(data: bytes, pos: int) -> tuple[int, int, int, int]:
    """The tag at ``pos``: (number, form, length, offset after the header).

    ``form`` is _APP, _CONTEXT, _OPENING or _CLOSING. An application
    boolean carries its value in the length slot."""
    first = data[pos]
    number = first >> 4
    lvt = first & 0x07
    pos += 1
    if number == 0xF:
        number = data[pos]
        pos += 1
    context = first & 0x08
    if context and lvt >= 6:
        return number, _OPENING if lvt == 6 else _CLOSING, 0, pos
    length = lvt
    if lvt == 5:
        length = data[pos]
        pos += 1
        if length == 254:
            length = _U16.unpack_from(data, pos)[0]
            pos += 2
        elif length == 255:
            length = _U32.unpack_from(data, pos)[0]
            pos += 4
    if context:
        return number, _CONTEXT, length, pos
    if number == TAG_BOOLEAN:
        if lvt > 1:
            raise MalformedTag(f"boolean lvt {lvt} invalid")
        return number, _APP, lvt, pos
    if lvt >= 6:
        raise MalformedTag("opening/closing form on an application tag")
    return number, _APP, length, pos


def _content(data: bytes, pos: int, length: int) -> tuple[bytes, int]:
    end = pos + length
    if end > len(data):
        raise MalformedTag(f"truncated at offset {pos} (wanted {length} bytes)")
    return data[pos:end], end


def _unsigned(data: bytes, pos: int, length: int, signed: bool = False) -> tuple[int, int]:
    if length == 1 and not signed:  # property ids and most enumerations
        return data[pos], pos + 1
    if length == 0 or length > 8:
        raise MalformedTag(f"unsigned length {length} invalid")
    raw, end = _content(data, pos, length)
    return int.from_bytes(raw, "big", signed=signed), end


def _app_value(data: bytes, pos: int) -> tuple[object, int]:
    """The application-tagged value at ``pos`` and the offset after it."""
    if data[pos] == 0x44:  # a real, the commonest present value
        return _F32.unpack_from(data, pos + 1)[0], pos + 5
    if data[pos] == 0x91:  # a one-octet enumerated, as binary present values are
        return Enumerated(data[pos + 1]), pos + 2
    number, form, length, pos = _header(data, pos)
    if form != _APP:
        raise MalformedTag(f"expected application tag, got context {number}")
    if number == TAG_REAL:
        if length != 4:
            raise MalformedTag(f"real length {length} != 4")
        return _F32.unpack_from(data, pos)[0], pos + 4
    if number == TAG_ENUMERATED:
        raw, pos = _unsigned(data, pos, length)
        return Enumerated(raw), pos
    if number == TAG_UNSIGNED:
        return _unsigned(data, pos, length)
    if number == TAG_BOOLEAN:
        return bool(length), pos
    if number == TAG_NULL:
        if length:
            raise MalformedTag("null with content")
        return None, pos
    if number == TAG_SIGNED:
        return _unsigned(data, pos, length, signed=True)
    if number == TAG_DOUBLE:
        if length != 8:
            raise MalformedTag(f"double length {length} != 8")
        return _F64.unpack_from(data, pos)[0], pos + 8
    if number == TAG_CHARSTRING:
        if length < 1:
            raise MalformedTag("character string without charset octet")
        body, pos = _content(data, pos, length)
        if body[0] != 0x00:
            raise MalformedTag(f"unsupported charset {body[0]}")
        try:
            return body[1:].decode("utf-8"), pos
        except UnicodeDecodeError as e:
            raise MalformedTag("invalid utf-8 in character string") from e
    if number == TAG_OBJECTID:
        if length != 4:
            raise MalformedTag(f"object id length {length} != 4")
        raw = _U32.unpack_from(data, pos)[0]
        return ObjectRef(raw >> 22, raw & 0x3FFFFF), pos + 4
    # octet strings, bit strings, dates, times: carried opaque
    return _content(data, pos, length)


def _object_id(data: bytes, pos: int, what: str) -> tuple[int, int, int]:
    """The type id and instance of the context-0 object identifier at
    ``pos``, and the offset after the opening tag 1 that follows it."""
    if data[pos] == 0x0C and data[pos + 5] == 0x1E:  # in their usual encoding
        raw = _U32.unpack_from(data, pos + 1)[0]
        return raw >> 22, raw & 0x3FFFFF, pos + 6
    number, form, length, pos = _header(data, pos)
    if form != _CONTEXT or number != 0 or length != 4:
        raise MalformedTag(f"expected object identifier{what}")
    raw = _U32.unpack_from(data, pos)[0]
    number, form, _, end = _header(data, pos + 4)
    if form != _OPENING or number != 1:
        raise MalformedTag(f"expected opening tag 1 at offset {pos + 4}")
    return raw >> 22, raw & 0x3FFFFF, end


# ---------------------------------------------------------------------------
# BVLC / NPDU


def wrap(apdu: bytes, expecting_reply: bool) -> bytes:
    npdu = bytes([NPDU_VERSION, 0x04 if expecting_reply else 0x00])
    return struct.pack(">BBH", BVLL_TYPE, BVLC_UNICAST, 4 + len(npdu) + len(apdu)) + npdu + apdu


@_total
def unwrap(datagram: bytes) -> bytes:
    bvll, fn, total, version, control = _BVLC_NPDU.unpack_from(datagram)
    if bvll != BVLL_TYPE:
        raise MalformedTag("not a BACnet/IP datagram")
    if fn not in (BVLC_UNICAST, BVLC_BROADCAST):
        raise MalformedTag(f"unsupported BVLC function 0x{fn:02X}")
    if total != len(datagram):
        raise MalformedTag(f"BVLC length {total} != datagram size {len(datagram)}")
    if version != NPDU_VERSION:
        raise MalformedTag("unsupported NPDU version")
    if control & 0x80:
        raise MalformedTag("network layer message, not an APDU")
    pos = 6
    if control & 0x20:  # destination present: network, length, address
        pos += 3 + datagram[pos + 2]
    if control & 0x08:  # source present
        pos += 3 + datagram[pos + 2]
    if control & 0x20:  # hop count trails the source field
        pos += 1
    if pos > len(datagram):
        raise MalformedTag(f"truncated at offset {len(datagram)}: NPDU header runs past the end")
    apdu = datagram[pos:]
    if not apdu:
        raise MalformedTag("empty APDU")
    return apdu


# ---------------------------------------------------------------------------
# ReadPropertyMultiple service


def _per_object(records, encode) -> bytes:
    """Each run of ``records`` on one object: its identifier, opening tag 1,
    ``encode(record)`` for each, closing tag 1."""
    parts = []
    for ref, run in itertools.groupby(records, attrgetter("obj")):
        parts += (_tag(0, True, 4) + objectid_content(ref), _opening(1), *map(encode, run), _closing(1))
    return b"".join(parts)


def _query_octets(q: PropertyQuery) -> bytes:
    prop = context_unsigned(0, q.prop)
    return prop if q.array_index is None else prop + context_unsigned(1, q.array_index)


def encode_rpm_request(invoke_id: int, queries: list[PropertyQuery]) -> bytes:
    if not queries:
        raise ValueError("queries must be non-empty")
    if not 0 <= invoke_id <= 255:
        raise ValueError("invoke id outside 0..255")
    header = bytes([PDU_CONFIRMED << 4, _MAX_APDU_OCTET, invoke_id, SERVICE_RPM])
    apdu = header + _per_object(queries, _query_octets)
    if len(apdu) > MAX_APDU:
        raise TooLarge(f"request APDU {len(apdu)} bytes exceeds {MAX_APDU}")
    return apdu


@_total
def decode_rpm_request(apdu: bytes) -> tuple[int, list[PropertyQuery]]:
    first = apdu[0]
    if first >> 4 != PDU_CONFIRMED:
        raise MalformedTag("not a confirmed request")
    if first & 0x0F:
        raise MalformedTag("segmented request")
    if apdu[3] != SERVICE_RPM:  # after max segments / max apdu and the invoke id
        raise MalformedTag("not a ReadPropertyMultiple request")
    queries: list[PropertyQuery] = []
    pos, end = 4, len(apdu)
    while pos < end:
        type_id, instance, pos = _object_id(apdu, pos, "")
        ref = ObjectRef(type_id, instance)
        number, form, length, pos = _header(apdu, pos)
        if form == _CLOSING and number == 1:
            raise MalformedTag("object with empty property list")
        while form != _CLOSING or number != 1:
            if form != _CONTEXT or number != 0:
                raise MalformedTag("expected property identifier")
            prop, pos = _unsigned(apdu, pos, length)
            idx = None
            number, form, length, pos = _header(apdu, pos)
            if form == _CONTEXT and number == 1:
                idx, pos = _unsigned(apdu, pos, length)
                number, form, length, pos = _header(apdu, pos)
            queries.append(PropertyQuery(ref, prop, idx))
    if not queries:
        raise MalformedTag("request carries no queries")
    return apdu[2], queries


def _result_octets(res: PropResult) -> bytes:
    parts = [context_unsigned(2, res.prop)]
    if res.array_index is not None:
        parts.append(context_unsigned(3, res.array_index))
    if res.error is not None:
        cls, code = res.error
        parts += (_opening(5), app_enumerated(ERROR_CLASSES.get(cls, 0)),
                  app_enumerated(ERROR_CODES.get(code, 0)), _closing(5))
    else:
        parts += (_opening(4), *map(encode_app_value, res.values or ()), _closing(4))
    return b"".join(parts)


def encode_rpm_ack(invoke_id: int, results: list[PropResult]) -> bytes:
    return bytes([PDU_COMPLEX_ACK << 4, invoke_id, SERVICE_RPM]) + _per_object(results, _result_octets)


def _error_names(data: bytes, pos: int, what: str) -> tuple[tuple[str, str], int]:
    """The (class, code) names of the two enumerated values at ``pos``."""
    cls, pos = _app_value(data, pos)
    code, pos = _app_value(data, pos)
    if not isinstance(cls, Enumerated) or not isinstance(code, Enumerated):
        raise MalformedTag(f"{what} without enumerated class/code")
    return error_names(int(cls), int(code)), pos


@_total
def rpm_ack_items(apdu: bytes, expected_invoke: Optional[int] = None) -> list[tuple]:
    """The results of a ReadPropertyMultiple ack, in one walk over its bytes:
    (type id, instance, property, array index, values, error) each, in
    answer order. ``values`` is a tuple of application values and ``error``
    None, or ``values`` is None and ``error`` a (class, code) name pair."""
    first = apdu[0]
    pdu_type = first >> 4
    if pdu_type == PDU_ERROR:
        raise ServiceError(*_error_names(apdu, 3, "error PDU")[0])
    if pdu_type == PDU_REJECT:
        raise Rejected(apdu[2])
    if pdu_type == PDU_ABORT:
        raise Aborted(apdu[2])
    if pdu_type != PDU_COMPLEX_ACK:
        raise MalformedTag(f"unexpected PDU type {pdu_type}")
    if first & 0x0F:
        raise MalformedTag("segmented ack")
    invoke = apdu[1]
    if expected_invoke is not None and invoke != expected_invoke:
        raise MalformedTag(f"invoke id {invoke} != expected {expected_invoke}")
    if apdu[2] != SERVICE_RPM:
        raise MalformedTag("ack for a different service")
    items: list[tuple] = []
    pos, end = 3, len(apdu)
    while pos < end:
        type_id, instance, pos = _object_id(apdu, pos, " in ack")
        while True:
            # past the end, apdu[pos] raises IndexError: MalformedTag under _total
            if (b := apdu[pos]) == 0x29:  # a one-octet property identifier
                prop, pos = apdu[pos + 1], pos + 2
            elif b == 0x1F:  # closing tag 1
                pos += 1
                break
            else:
                number, form, length, pos = _header(apdu, pos)
                if form == _CLOSING and number == 1:
                    break
                if form != _CONTEXT or number != 2:
                    raise MalformedTag("expected property identifier in result")
                prop, pos = _unsigned(apdu, pos, length)
            idx = None
            if apdu[pos] == 0x4E:  # opening tag 4, no array index before it
                number, form, pos = 4, _OPENING, pos + 1
            else:
                number, form, length, pos = _header(apdu, pos)
                if form == _CONTEXT and number == 3:
                    idx, pos = _unsigned(apdu, pos, length)
                    number, form, length, pos = _header(apdu, pos)
            if form == _OPENING and number == 4:
                values = ()
                # closing tag 4 is the octet 0x4F, or 0xFF 0x04 in extended form
                while (b := apdu[pos]) != 0x4F and (b != 0xFF or apdu[pos + 1] != 4):
                    value, pos = _app_value(apdu, pos)
                    values += (value,)
                pos += 1 if b == 0x4F else 2
                items.append((type_id, instance, prop, idx, values, None))
            elif form == _OPENING and number == 5:
                error, pos = _error_names(apdu, pos, "access error")
                number, form, _, pos = _header(apdu, pos)
                if form != _CLOSING or number != 5:
                    raise MalformedTag("expected closing tag 5 after an access error")
                items.append((type_id, instance, prop, idx, None, error))
            else:
                raise MalformedTag("result is neither a value nor an access error")
    if not items:
        raise MalformedTag("ack carries no results")
    return items


def prop_results(items: list[tuple]) -> list[PropResult]:
    """Walked ack items as PropResults."""
    return [PropResult(ObjectRef(t, i), p, x, v, e) for t, i, p, x, v, e in items]


def decode_rpm_ack(apdu: bytes, expected_invoke: Optional[int] = None) -> list[PropResult]:
    return prop_results(rpm_ack_items(apdu, expected_invoke))


def encode_reject(invoke_id: int, reason: int) -> bytes:
    return bytes([PDU_REJECT << 4, invoke_id, reason])


def encode_abort(invoke_id: int, reason: int) -> bytes:
    return bytes([(PDU_ABORT << 4) | 1, invoke_id, reason])  # sent by the server


def apdu_invoke_id(apdu: bytes) -> Optional[int]:
    """Best-effort invoke id extraction for response matching."""
    if len(apdu) < 2:
        return None
    return apdu[1]
