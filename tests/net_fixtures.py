"""A TCP peer that leaves a connect waiting, and a record of which thread
closes a socket, for tests of what a stop wakes."""

import contextlib
import socket
import threading


@contextlib.contextmanager
def full_listener():
    """The port of a listener whose accept queue is full, so that a connect
    to it waits for an answer until its own timeout: a backlog of 0 holds one
    connection, and one is made here and never accepted."""
    with socket.create_server(("127.0.0.1", 0), backlog=0) as server:
        port = server.getsockname()[1]
        with socket.create_connection(("127.0.0.1", port), timeout=5):
            yield port


def record_closers(monkeypatch, sock: socket.socket) -> list:
    """The list that each thread closing ``sock`` from now on is appended to."""
    closers, close = [], socket.socket.close

    def recording_close(s):
        if s is sock:
            closers.append(threading.current_thread())
        close(s)

    monkeypatch.setattr(socket.socket, "close", recording_close)
    return closers
