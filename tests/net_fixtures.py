"""A TCP peer that leaves a connect waiting, for tests of what a stop wakes."""

import contextlib
import socket


@contextlib.contextmanager
def full_listener():
    """The port of a listener whose accept queue is full, so that a connect
    to it waits for an answer until its own timeout: a backlog of 0 holds one
    connection, and one is made here and never accepted."""
    with socket.create_server(("127.0.0.1", 0), backlog=0) as server:
        port = server.getsockname()[1]
        with socket.create_connection(("127.0.0.1", port), timeout=5):
            yield port
