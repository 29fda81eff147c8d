"""Blocking MQTT 3.1.1 client with one background reader thread.

Publishes at QoS 0/1 and subscribes with a message callback. QoS 1
publishes wait for the PUBACK; there is no in-flight retransmission, so
a timed-out publish surfaces to the caller, who may republish (duplicate
deliveries are expected to be absorbed downstream).

The client is a :class:`telegw.netio.Stoppable`. The connecting thread owns
the socket until CONNACK; after that the reader thread alone waits on it,
sends PINGREQ every ``keepalive / 2`` whatever arrives, and closes it on its
way out. A connection on which nothing was read between one PINGREQ and the
next is ended (MQTT 3.1.1 §3.1.2.10), and so is one whose packet stops part
way for that long: ``SO_RCVTIMEO`` bounds each ``recv``. The socket stays
blocking for Python, so ``sendall`` has no deadline and no ``recv`` costs a
``poll()`` first. ``close()`` and ``interrupt()`` only wake the reader, so no
descriptor is closed under a call in progress.

TCP options: brokers commonly keep Nagle's algorithm on (Mosquitto's
``set_tcp_nodelay`` defaults to false), so a broker holds a small segment
while an earlier one is unacknowledged, and Linux holds the client's ACK
for up to its 40 ms delayed-ACK minimum. Without help the first PUBLISH
after SUBACK, and the first after every PINGRESP or PUBACK, can wait out
that timer. So the client sets ``TCP_NODELAY`` on its socket, which keeps its
own PUBACK, PINGREQ and PUBLISH from waiting behind the broker's delayed
ACK, and sets ``TCP_QUICKACK`` right after it reads a reply to its own
request (CONNACK, SUBACK, PUBACK, PINGRESP), so that ACK leaves at once.
``TCP_QUICKACK`` is Linux-only and is skipped where ``socket`` lacks it.
"""

from __future__ import annotations

import contextlib
import select
import socket
import struct
import threading
import time
from typing import Callable

from telegw.mqtt import protocol as mp
from telegw.netio import Stoppable, connect as tcp_connect

_QUICKACK = getattr(socket, "TCP_QUICKACK", None)
CONNECT_TIMEOUT_S = 5.0


def _ack_now(sock: socket.socket) -> None:
    """Send the ACK for what was just read now, not when the delayed-ACK
    timer fires; the kernel clears the flag again by itself."""
    if _QUICKACK is None:
        return
    try:
        sock.setsockopt(socket.IPPROTO_TCP, _QUICKACK, 1)
    except OSError:
        pass


class AuthRejected(mp.MqttError):
    """Broker refused the CONNECT; terminal for these credentials."""

    def __init__(self, return_code: int):
        super().__init__(f"connection refused, return code {return_code}")
        self.return_code = return_code


class ConnectionLost(mp.MqttError):
    """Transport dropped while an operation was outstanding."""


class NotConnected(mp.MqttError):
    pass


class AckTimeout(mp.MqttError):
    """No PUBACK/SUBACK arrived within the io timeout."""


class SubscribeRefused(mp.MqttError):
    def __init__(self, codes: list[int]):
        super().__init__(f"broker refused subscription: {codes}")
        self.codes = codes


class _Slot(threading.Event):
    """A request's wait: set with ``payload`` by its ack, without by a loss."""

    payload = None


class MqttClient(Stoppable):
    def __init__(
        self,
        host: str,
        port: int = 1883,
        client_id: str = "telegw",
        username: str | None = None,
        password: str | None = None,
        keepalive: float = 60.0,
        io_timeout: float = 5.0,
        on_message: Callable[[str, bytes], None] | None = None,
    ):
        self.host = host
        self.port = port
        self.client_id = client_id
        self.username = username
        self.password = password
        self.keepalive = keepalive
        self.io_timeout = io_timeout
        self.on_message = on_message
        super().__init__()
        self._send_lock = threading.Lock()  # orders each send against the reader's close
        self._reader: threading.Thread | None = None
        # (ack type, packet id) -> the slot its requester waits on
        self._pending: dict[tuple[int, int], _Slot] = {}
        self._ack_lock = threading.Lock()
        self._next_pid = 0
        self.callback_errors = 0

    # -- connection lifecycle ------------------------------------------

    def connect(self) -> None:
        """Connect; a client connects once. A failed connect closes its socket
        here, a made one hands it to the reader thread."""
        sock = tcp_connect(self.host, self.port, CONNECT_TIMEOUT_S, self._publish)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.sendall(
                mp.encode_connect(
                    self.client_id,
                    self.username,
                    self.password,
                    int(self.keepalive),
                )
            )
            ptype, _, body = mp.read_packet(sock)
            _ack_now(sock)
            if ptype != mp.CONNACK:
                raise mp.ProtocolViolation(f"expected CONNACK, got type {ptype}")
            _, code = mp.decode_connack(body)
            if code != mp.CONNACK_ACCEPTED:
                raise AuthRejected(code)
            sock.settimeout(None)
            reader = threading.Thread(target=self._read_loop, daemon=True)
            reader.start()
        except BaseException:
            Stoppable.close(self)
            raise
        self._reader = reader  # published once started: close() joins what it finds

    @property
    def connected(self) -> bool:
        return self._reader is not None and self._sock is not None and not self._interrupted.is_set()

    def wait_closed(self, timeout: float | None = None) -> bool:
        """Block until the connection, once made, is closed or lost: until its reader ends."""
        reader = self._reader
        if reader is not None:
            reader.join(timeout)
        return reader is None or not reader.is_alive()

    def close(self) -> None:
        """Send DISCONNECT if connected, then wake the reader and wait for it
        to close the socket."""
        if self.connected:
            with contextlib.suppress(mp.MqttError):
                self._send(mp.encode_disconnect())
        self.interrupt()
        if self._reader is not None and self._reader is not threading.current_thread():
            self._reader.join(timeout=5)

    def __enter__(self) -> "MqttClient":
        self.connect()
        return self

    # -- outbound -------------------------------------------------------

    def _send(self, data: bytes) -> None:
        with self._send_lock:
            if self._sock is None or self._interrupted.is_set():
                raise NotConnected("client is not connected")
            try:
                self._sock.sendall(data)
            except OSError as e:
                self.interrupt()
                raise ConnectionLost(str(e)) from e

    def _request(self, ack_type: int, encode: Callable[[int], bytes]):
        """Send ``encode(packet_id)`` under a fresh packet id and return the
        payload of the ``ack_type`` packet answering it."""
        slot = _Slot()
        with self._ack_lock:
            self._next_pid = self._next_pid % 0xFFFF + 1
            key = (ack_type, self._next_pid)
            self._pending[key] = slot
        try:
            self._send(encode(key[1]))
            if not slot.wait(self.io_timeout):
                raise AckTimeout(f"no ack for packet {key[1]}")
        finally:
            with self._ack_lock:
                del self._pending[key]
        if slot.payload is None:
            raise ConnectionLost("connection dropped while awaiting ack")
        return slot.payload

    def publish(self, topic: str, payload: bytes, qos: int = 0) -> None:
        if qos == 0:
            self._send(mp.encode_publish(mp.PublishPacket(topic, payload, 0)))
        else:
            packet = lambda pid: mp.encode_publish(mp.PublishPacket(topic, payload, 1, pid))
            self._request(mp.PUBACK, packet)

    def subscribe(self, filters: list[str], qos: int = 1) -> list[int]:
        packet = lambda pid: mp.encode_subscribe(pid, [(f, qos) for f in filters])
        codes = self._request(mp.SUBACK, packet)
        if any(c == mp.SUBACK_FAILURE for c in codes):
            raise SubscribeRefused(codes)
        return codes

    # -- the reader thread -----------------------------------------------

    def _read_loop(self) -> None:
        sock, waiter = self._sock, select.poll()
        waiter.register(sock, select.POLLIN)
        interval = max(1.0, self.keepalive / 2) if self.keepalive > 0 else None
        ping_due, heard = time.monotonic() + (interval or 0), True
        try:
            if interval is not None:  # a recv that waits this long raises BlockingIOError
                timeval = struct.pack("@ll", int(interval), int(interval % 1 * 1_000_000))
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, timeval)
            while True:
                if interval is not None:
                    now = time.monotonic()
                    if now >= ping_due:
                        if not heard:
                            return  # the broker answered nothing to the last PINGREQ
                        self._send(mp.encode_pingreq())
                        ping_due, heard = now + interval, False
                    if not waiter.poll((ping_due - now) * 1000):
                        continue
                ptype, flags, body = mp.read_packet(sock)
                heard = True
                if ptype == mp.PUBLISH:
                    pkt = mp.decode_publish(flags, body)
                    if pkt.qos == 1:
                        self._send(mp.encode_puback(pkt.packet_id))
                    if self.on_message is not None:
                        try:
                            self.on_message(pkt.topic, pkt.payload)
                        except Exception:
                            self.callback_errors += 1
                elif ptype in (mp.PUBACK, mp.SUBACK):
                    _ack_now(sock)
                    if ptype == mp.PUBACK:
                        pid, payload = mp.decode_packet_id(body), True
                    else:
                        pid, payload = mp.decode_suback(body)
                    with self._ack_lock:
                        slot = self._pending.get((ptype, pid))
                        if slot is not None:
                            slot.payload = payload
                            slot.set()
                elif ptype == mp.PINGRESP:
                    _ack_now(sock)
                else:
                    raise mp.ProtocolViolation(f"unexpected packet type {ptype}")
        except (ConnectionError, OSError, mp.MqttError):
            pass
        finally:
            with self._send_lock:  # no send holds the socket once it is closed
                Stoppable.close(self)
            with self._ack_lock:
                # wake every requester; each takes a missing payload as a loss
                for slot in self._pending.values():
                    slot.set()
