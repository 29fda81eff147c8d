"""Socket helpers shared by the protocol clients and the simulators."""

from __future__ import annotations

import socket


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
    wakes neither accept() nor recv(), shutdown() wakes both. On a UDP
    socket shutdown() raises ENOTCONN but still wakes recvfrom()."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass
