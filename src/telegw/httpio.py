"""One HTTP request per connection, over ``http.client``: the exchange of
the HTTP sink, HTTP polls, webhooks and ``gateway stats --url``.

Importing this module loads ``http.client`` and ``ssl``, so its callers
import it when they first send. It follows no redirects, reads no proxy
settings, and verifies an HTTPS server against the system trust store
(``ssl.create_default_context()``). :meth:`HttpClient.interrupt` wakes a
request at any step, its TCP connect and TLS handshake included.
"""

from __future__ import annotations

import http.client
from urllib.parse import urlsplit

from telegw.netio import Stoppable, connect

TIMEOUT_S = 10.0  # per socket operation: the sink's and a webhook's


class HttpClient(Stoppable):
    """Sends each request on a new connection, on the calling thread; see
    :class:`~telegw.netio.Stoppable` for how a stop reaches it."""

    def __init__(self, timeout_s: float = TIMEOUT_S):
        super().__init__()
        self.timeout_s = timeout_s

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
            connection = http.client.HTTPSConnection if parts.scheme == "https" else http.client.HTTPConnection
            conn = connection(parts.netloc, timeout=self.timeout_s)
            # http.client's connect step, so that interrupt() reaches the socket
            conn._create_connection = lambda addr, timeout, *_: connect(*addr, timeout, self._publish)
            try:
                conn.request(method, target, body, headers or {})
                response = conn.getresponse()
                return response.status, response.read()
            finally:
                conn.close()
                self.close()
        except (OSError, http.client.HTTPException) as e:
            raise ConnectionError(f"{method} {url}: {type(e).__name__}: {e}") from e

    def _publish(self, sock) -> None:
        # TLS takes the socket over before its handshake; shutting a duplicate ends that too
        super()._publish(sock and sock.dup())
