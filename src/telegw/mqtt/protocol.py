"""MQTT 3.1.1 packet encoding and decoding.

Covers the packet types a telemetry publisher/subscriber needs: CONNECT,
CONNACK, PUBLISH, PUBACK, SUBSCRIBE, SUBACK, PINGREQ, PINGRESP, DISCONNECT.
QoS 2 and retained delivery are out of scope.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from telegw.netio import recv_exact

CONNECT = 1
CONNACK = 2
PUBLISH = 3
PUBACK = 4
SUBSCRIBE = 8
SUBACK = 9
PINGREQ = 12
PINGRESP = 13
DISCONNECT = 14

PROTOCOL_NAME = "MQTT"
PROTOCOL_LEVEL = 4

CONNACK_ACCEPTED = 0
CONNACK_BAD_PROTOCOL = 1
CONNACK_ID_REJECTED = 2
CONNACK_UNAVAILABLE = 3
CONNACK_BAD_CREDENTIALS = 4
CONNACK_NOT_AUTHORIZED = 5

SUBACK_FAILURE = 0x80

MAX_REMAINING_LENGTH = 268_435_455


class MqttError(Exception):
    """Base for MQTT protocol and client failures."""


class ProtocolViolation(MqttError):
    """Packet bytes violate the wire grammar."""


def encode_string(s: str) -> bytes:
    data = s.encode("utf-8")
    if len(data) > 0xFFFF:
        raise ProtocolViolation("string exceeds 65535 bytes")
    return struct.pack(">H", len(data)) + data


def encode_remaining_length(n: int) -> bytes:
    if not 0 <= n <= MAX_REMAINING_LENGTH:
        raise ProtocolViolation(f"remaining length {n} out of range")
    out = bytearray()
    while True:
        n, digit = divmod(n, 128)
        out.append(digit | (0x80 if n else 0))
        if not n:
            return bytes(out)


def fixed_header(packet_type: int, flags: int, remaining: int) -> bytes:
    return bytes([(packet_type << 4) | flags]) + encode_remaining_length(remaining)


class BodyReader:
    """Sequential reader over one packet's variable header + payload."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def remaining(self) -> int:
        return len(self.data) - self.pos

    def take(self, n: int) -> bytes:
        if self.remaining() < n:
            raise ProtocolViolation("packet truncated")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack(">H", self.take(2))[0]

    def string(self) -> str:
        raw = self.take(self.u16())
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as e:
            raise ProtocolViolation("string is not valid UTF-8") from e

    def rest(self) -> bytes:
        chunk = self.data[self.pos :]
        self.pos = len(self.data)
        return chunk

    def expect_end(self) -> None:
        if self.remaining():
            raise ProtocolViolation(f"{self.remaining()} trailing bytes")


def encode_connect(
    client_id: str,
    username: str | None = None,
    password: str | None = None,
    keepalive: int = 60,
    clean_session: bool = True,
) -> bytes:
    flags = 0x02 if clean_session else 0x00
    payload = encode_string(client_id)
    if username is not None:
        flags |= 0x80
        payload += encode_string(username)
        if password is not None:
            flags |= 0x40
            payload += encode_string(password)
    body = (
        encode_string(PROTOCOL_NAME)
        + bytes([PROTOCOL_LEVEL, flags])
        + struct.pack(">H", keepalive)
        + payload
    )
    return fixed_header(CONNECT, 0, len(body)) + body


@dataclass(frozen=True, slots=True)
class ConnectInfo:
    client_id: str
    username: str | None
    password: str | None
    keepalive: int
    clean_session: bool


def decode_connect(body: bytes) -> ConnectInfo:
    r = BodyReader(body)
    if r.string() != PROTOCOL_NAME:
        raise ProtocolViolation("unexpected protocol name")
    if r.u8() != PROTOCOL_LEVEL:
        raise ProtocolViolation("unsupported protocol level")
    flags = r.u8()
    if flags & 0x01:
        raise ProtocolViolation("reserved connect flag set")
    keepalive = r.u16()
    client_id = r.string()
    if flags & 0x04:  # will message: parse past it, then discard
        r.string()
        r.take(r.u16())
    username = r.string() if flags & 0x80 else None
    password = r.string() if flags & 0x40 else None
    r.expect_end()
    return ConnectInfo(client_id, username, password, keepalive, bool(flags & 0x02))


def encode_connack(return_code: int, session_present: bool = False) -> bytes:
    return fixed_header(CONNACK, 0, 2) + bytes([int(session_present), return_code])


def decode_connack(body: bytes) -> tuple[bool, int]:
    r = BodyReader(body)
    session_present = r.u8()
    code = r.u8()
    r.expect_end()
    return bool(session_present & 0x01), code


@dataclass(frozen=True, slots=True)
class PublishPacket:
    topic: str
    payload: bytes
    qos: int = 0
    packet_id: int | None = None
    retain: bool = False
    dup: bool = False


def encode_publish(pkt: PublishPacket) -> bytes:
    if pkt.qos not in (0, 1):
        raise ProtocolViolation(f"unsupported qos {pkt.qos}")
    if pkt.qos > 0 and pkt.packet_id is None:
        raise ProtocolViolation("qos > 0 requires a packet id")
    flags = (pkt.qos << 1) | (0x01 if pkt.retain else 0) | (0x08 if pkt.dup else 0)
    body = encode_string(pkt.topic)
    if pkt.qos > 0:
        body += struct.pack(">H", pkt.packet_id)
    body += pkt.payload
    return fixed_header(PUBLISH, flags, len(body)) + body


def decode_publish(flags: int, body: bytes) -> PublishPacket:
    qos = (flags >> 1) & 0x03
    if qos == 3:
        raise ProtocolViolation("qos bits 11 are malformed")
    r = BodyReader(body)
    topic = r.string()
    if "+" in topic or "#" in topic:
        raise ProtocolViolation("wildcard in publish topic")
    packet_id = r.u16() if qos > 0 else None
    return PublishPacket(
        topic, r.rest(), qos, packet_id, bool(flags & 0x01), bool(flags & 0x08)
    )


def encode_puback(packet_id: int) -> bytes:
    return fixed_header(PUBACK, 0, 2) + struct.pack(">H", packet_id)


def decode_packet_id(body: bytes) -> int:
    r = BodyReader(body)
    pid = r.u16()
    r.expect_end()
    return pid


def encode_subscribe(packet_id: int, filters: list[tuple[str, int]]) -> bytes:
    if not filters:
        raise ProtocolViolation("subscribe requires at least one filter")
    body = struct.pack(">H", packet_id)
    for topic_filter, qos in filters:
        validate_filter(topic_filter)
        if qos not in (0, 1):
            raise ProtocolViolation(f"unsupported subscription qos {qos}")
        body += encode_string(topic_filter) + bytes([qos])
    return fixed_header(SUBSCRIBE, 0x02, len(body)) + body


def decode_subscribe(flags: int, body: bytes) -> tuple[int, list[tuple[str, int]]]:
    if flags != 0x02:
        raise ProtocolViolation("subscribe fixed-header flags must be 0b0010")
    r = BodyReader(body)
    packet_id = r.u16()
    filters: list[tuple[str, int]] = []
    while r.remaining():
        topic_filter = r.string()
        qos = r.u8()
        if qos > 2:
            raise ProtocolViolation(f"requested qos {qos} is malformed")
        filters.append((topic_filter, qos))
    if not filters:
        raise ProtocolViolation("subscribe carries no filters")
    return packet_id, filters


def encode_suback(packet_id: int, return_codes: list[int]) -> bytes:
    body = struct.pack(">H", packet_id) + bytes(return_codes)
    return fixed_header(SUBACK, 0, len(body)) + body


def decode_suback(body: bytes) -> tuple[int, list[int]]:
    r = BodyReader(body)
    packet_id = r.u16()
    codes = list(r.rest())
    if not codes:
        raise ProtocolViolation("suback carries no return codes")
    return packet_id, codes


def encode_pingreq() -> bytes:
    return fixed_header(PINGREQ, 0, 0)


def encode_pingresp() -> bytes:
    return fixed_header(PINGRESP, 0, 0)


def encode_disconnect() -> bytes:
    return fixed_header(DISCONNECT, 0, 0)


def validate_filter(topic_filter: str) -> None:
    if not topic_filter:
        raise ProtocolViolation("empty topic filter")
    levels = topic_filter.split("/")
    for i, level in enumerate(levels):
        if "#" in level:
            if level != "#" or i != len(levels) - 1:
                raise ProtocolViolation(f"misplaced # in {topic_filter!r}")
        elif "+" in level and level != "+":
            raise ProtocolViolation(f"misplaced + in {topic_filter!r}")


def topic_matches(topic_filter: str, topic: str) -> bool:
    """True when the topic falls under the filter's + and # wildcards."""
    filter_levels = topic_filter.split("/")
    topic_levels = topic.split("/")
    # wildcard-led filters never match $-system topics
    if topic_levels[0].startswith("$") and filter_levels[0] in ("+", "#"):
        return False
    for i, pattern in enumerate(filter_levels):
        if pattern == "#":
            return True
        if i >= len(topic_levels):
            return False
        if pattern != "+" and pattern != topic_levels[i]:
            return False
    return len(topic_levels) == len(filter_levels)


def read_packet(sock) -> tuple[int, int, bytes]:
    """Read one packet from a stream socket: (type, flags, body)."""
    first = recv_exact(sock, 1)[0]
    packet_type, flags = first >> 4, first & 0x0F
    remaining = 0
    for shift in range(0, 28, 7):
        digit = recv_exact(sock, 1)[0]
        remaining |= (digit & 0x7F) << shift
        if not digit & 0x80:
            break
    else:
        raise ProtocolViolation("remaining length exceeds 4 bytes")
    body = recv_exact(sock, remaining) if remaining else b""
    return packet_type, flags, body
