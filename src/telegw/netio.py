"""Socket helpers shared by the protocol clients and the simulators.

:class:`Stoppable` is how a stop reaches the Modbus, HTTP and MQTT clients,
and :func:`connect` is their TCP connect. It hands an ASCII host to the
resolver as ``bytes``: ``socket.getaddrinfo`` sends a ``str`` host through
the IDNA codec, which loads ``encodings.idna``, ``stringprep`` and
``unicodedata`` even for ``"127.0.0.1"``. A non-ASCII host is still passed
as ``str`` and IDNA-encoded as before. An ASCII host that IDNA would refuse
(an empty or over-long label) fails in the resolver as ``socket.gaierror``
instead of as ``UnicodeError``.
"""

from __future__ import annotations

import contextlib
import errno
import os
import select
import socket
import threading
from typing import Callable


def connect(host: str, port: int, timeout: float, publish: Callable = lambda sock: None) -> socket.socket:
    """``socket.create_connection`` to ``host``, IDNA-encoding only a non-ASCII one.
    Each socket goes to ``publish``, which may raise to refuse it, once its connect has
    started, so a shutdown() from another thread ends that; None goes there if the
    attempt fails. The connect is waited for with poll(), which takes any descriptor."""
    host_arg = host.encode() if host.isascii() else host
    addrs = socket.getaddrinfo(host_arg, port, 0, socket.SOCK_STREAM)  # raises, never empty
    for i, (family, kind, proto, _, addr) in enumerate(addrs):
        sock = socket.socket(family, kind, proto)
        try:
            sock.setblocking(False)
            err = sock.connect_ex(addr)
            publish(sock)
            if err == errno.EINPROGRESS:
                waiter = select.poll()
                waiter.register(sock, select.POLLOUT)
                if not waiter.poll(timeout * 1000):
                    raise TimeoutError("timed out")
                err = sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
            if err:
                raise OSError(err, os.strerror(err))
            sock.settimeout(timeout)
            return sock
        except BaseException as e:
            publish(None)
            sock.close()
            if i == len(addrs) - 1 or not isinstance(e, OSError):  # the last one's error is raised
                raise


class Stoppable:
    """A client's stop hand-off, shared by ``ModbusClient``, ``HttpClient`` and
    ``MqttClient``. The owner thread (a poll's; MQTT's connecting thread, then its
    reader) hands each socket it connects to :meth:`_publish` and alone closes it
    (:meth:`close`), so no descriptor is reused under a call. :meth:`interrupt`, from
    any thread, refuses later sockets and shuts the held one down, which ends a blocked
    connect, TLS handshake, read or write."""

    def __init__(self):
        self._sock: socket.socket | None = None
        self._interrupted = False
        self._lock = threading.Lock()  # orders _publish and close against interrupt()

    def _publish(self, sock: socket.socket | None) -> None:
        """Hold ``sock``, or with None close the one held; after interrupt(), close and refuse it."""
        if sock is None:  # the base close: MqttClient.close() wakes and joins its reader
            return Stoppable.close(self)
        with self._lock:
            if self._interrupted:
                sock.close()
                raise ConnectionError("client was interrupted")
            self._sock = sock

    def close(self) -> None:
        with self._lock:
            sock, self._sock = self._sock, None
        if sock is not None:
            sock.close()

    def interrupt(self) -> None:
        with self._lock, contextlib.suppress(OSError):
            self._interrupted = True
            if self._sock is not None:
                self._sock.shutdown(socket.SHUT_RDWR)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def recv_exact(sock: socket.socket, n: int) -> bytes:
    """``n`` bytes; ``ConnectionError`` if the stream ends first."""
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise ConnectionError("connection closed mid-packet")
        buf.extend(chunk)
    return bytes(buf)


def shut(sock: socket.socket) -> None:
    """Close ``sock``, first waking any thread blocked on it: close() alone
    wakes neither accept() nor recv(), shutdown() wakes both. On a UDP socket
    shutdown() raises ENOTCONN, and a recvfrom() with a timeout ends only after both."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass
