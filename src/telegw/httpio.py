"""One HTTP request per connection, over ``http.client``: the exchange of
the HTTP sink, HTTP polls, webhooks and ``gateway stats --url``.

Importing this module loads ``http.client`` and ``ssl``, so its callers
import it when they first send. It follows no redirects, reads no proxy
settings, and verifies an HTTPS server against the system trust store
(``ssl.create_default_context()``).
"""

from __future__ import annotations

import http.client
from urllib.parse import urlsplit

from telegw.netio import shut

TIMEOUT_S = 10.0  # per socket operation: the sink's and a webhook's


class HttpClient:
    """Sends each request on a new connection. :meth:`close`, from any
    thread, shuts down the request in flight and keeps every later one from
    being sent; a connect or TLS handshake still waiting for its server is
    not woken."""

    def __init__(self, timeout_s: float = TIMEOUT_S):
        self.timeout_s = timeout_s
        self._conn: http.client.HTTPConnection | None = None
        self._closed = False

    def request(
        self, method: str, url: str, headers: dict | None = None, body: bytes | None = None
    ) -> tuple[int, bytes]:
        """The answer's status and whole body; ``ConnectionError`` for any
        failure to exchange them, a timeout or a malformed answer included."""
        parts = urlsplit(url)
        target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        try:
            if parts.scheme not in ("http", "https"):
                raise http.client.InvalidURL(f"scheme {parts.scheme!r} is not http or https")
            https = parts.scheme == "https"
            connection = http.client.HTTPSConnection if https else http.client.HTTPConnection
            # close() sets _closed, then shuts the published connection's
            # socket: either the check below sees the first, or the I/O wakes
            conn = self._conn = connection(parts.netloc, timeout=self.timeout_s)
            try:
                conn.connect()
                if self._closed:
                    raise ConnectionError("client was closed")
                conn.request(method, target, body, headers or {})
                response = conn.getresponse()
                return response.status, response.read()
            finally:
                conn.close()
        except (OSError, http.client.HTTPException) as e:
            raise ConnectionError(f"{method} {url}: {type(e).__name__}: {e}") from e

    def close(self) -> None:
        self._closed = True
        conn = self._conn
        sock = conn.sock if conn is not None else None  # read once: the request clears it
        if sock is not None:
            shut(sock)
