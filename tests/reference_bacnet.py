"""The BACnet decoder as it was before the one-pass rewrite, kept as an
oracle for :mod:`telegw.bacnet.encoding`.

``Reader`` decodes one tag at a time into a ``Tag`` record and looks ahead
with ``peek_tag``; ``unwrap``, ``decode_rpm_request`` and ``decode_rpm_ack``
are copied unchanged from that version. Every input must give the same
result, or raise the same exception class, under both.
"""

import struct
from dataclasses import dataclass
from typing import Optional

from telegw.bacnet.encoding import (
    BVLC_BROADCAST,
    BVLC_UNICAST,
    BVLL_TYPE,
    NPDU_VERSION,
    PDU_ABORT,
    PDU_COMPLEX_ACK,
    PDU_CONFIRMED,
    PDU_ERROR,
    PDU_REJECT,
    SERVICE_RPM,
    TAG_BOOLEAN,
    TAG_CHARSTRING,
    TAG_DOUBLE,
    TAG_ENUMERATED,
    TAG_NULL,
    TAG_OBJECTID,
    TAG_REAL,
    TAG_SIGNED,
    TAG_UNSIGNED,
    Aborted,
    Enumerated,
    MalformedTag,
    ObjectRef,
    PropertyQuery,
    PropResult,
    Rejected,
    ServiceError,
    error_names,
)


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
