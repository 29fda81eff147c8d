"""BACnet/IP client: ReadPropertyMultiple over UDP with quiet fallbacks.

One request is in flight per endpoint at a time (UDP gives no ordering, so
responses are matched by invoke id and strays are ignored). Reads that the
device aborts for size are split in half recursively; an object list too
large to return whole is walked by array index instead.

Discovery reads the object list, then names and units in chunks sized so
that each answer fits ``encoding.MAX_APDU``: the first chunk at 40 octets
per object, each later one at the octets per object the answers so far
took. A 77-object controller named like ``room-temp-01`` takes 3 requests
(the list, 36 objects, the other 41); an abort still halves a chunk. A
poll is then one request, encoded once per discovery, and its ack is
walked once (``encoding.rpm_ack_items``) straight into data points.

The client is a :class:`telegw.netio.Stoppable` whose ``interrupt()`` also sends its
own port an empty datagram: no shutdown() ends a UDP ``recvfrom()`` with a timeout.
"""

from __future__ import annotations

import contextlib
import socket
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

from ..model import NO_TAGS, DataPoint, Value
from ..netio import Stoppable
from . import encoding
from .encoding import (
    Aborted,
    BacnetError,
    MalformedTag,
    ObjectRef,
    PropertyQuery,
    PropResult,
    TooLarge,
    object_type_id,
    property_id,
    unit_token,
)

ANALOG_TYPES = {0, 1, 2}
BINARY_TYPES = {3, 4, 5}
# octets an object's name and units take in a discovery answer, assumed
# until an answer is seen: a name of up to 20 characters
_FIRST_GUESS = 40
_FLAGS = (Value.flag(False), Value.flag(True))  # shared, as a Value is immutable


class Timeout(BacnetError):
    pass


class EmptyQuery(BacnetError, ValueError):
    pass


class UnknownName(BacnetError):
    def __init__(self, names: Sequence[str]):
        self.names = list(names)
        super().__init__(f"no such object name(s): {', '.join(self.names)}")


class DiscoveryFailed(BacnetError):
    pass


@dataclass(frozen=True)
class BacnetEndpoint:
    host: str
    port: int = 0xBAC0
    device_instance: int = 0
    timeout_ms: int = 1000
    retries: int = 3


@dataclass(frozen=True)
class DiscoveredObject:
    ref: ObjectRef
    name: str
    units: Optional[str] = None


class BacnetClient(Stoppable):
    def __init__(self, endpoint: BacnetEndpoint, clock_ns: Callable[[], int] = time.time_ns):
        super().__init__()
        self.endpoint = endpoint
        self.clock_ns = clock_ns
        self._publish(socket.socket(socket.AF_INET, socket.SOCK_DGRAM))
        self._sock.bind(("0.0.0.0", 0))
        self._port = self._sock.getsockname()[1]  # where interrupt() sends its wake
        self._invoke = 0
        self._request_lock = threading.Lock()  # one request in flight; interrupt() takes _lock
        self._name_cache: dict[str, DiscoveredObject] = {}
        # the last present-value read, built once per discovery: (names, or
        # None for all; their objects; queries; APDU with invoke id 0)
        self._present: Optional[tuple] = None
        self._ack_octets = 0  # size of every ack decoded, for discovery's chunks

    def interrupt(self) -> None:
        super().interrupt()
        with contextlib.suppress(OSError), socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as waker:
            waker.sendto(b"", ("127.0.0.1", self._port))

    # -- transport ----------------------------------------------------------

    def _next_invoke(self) -> int:
        self._invoke = (self._invoke + 1) & 0xFF
        return self._invoke

    def _transact(self, apdu: bytes, invoke_id: int) -> bytes:
        """Send and await the reply for invoke_id, retrying lost datagrams."""
        sock, dest = self._sock, (self.endpoint.host, self.endpoint.port)
        datagram = encoding.wrap(apdu, expecting_reply=True)
        for _ in range(self.endpoint.retries + 1):
            if self._interrupted.is_set():
                raise BacnetError(f"client for {dest[0]}:{dest[1]} was interrupted")
            sock.sendto(datagram, dest)
            deadline = time.monotonic() + self.endpoint.timeout_ms / 1000
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                sock.settimeout(remaining)
                try:
                    data, _addr = sock.recvfrom(65535)
                except socket.timeout:
                    break
                if self._interrupted.is_set():  # the wake datagram is no reply
                    raise BacnetError(f"client for {dest[0]}:{dest[1]} was interrupted")
                try:
                    reply = encoding.unwrap(data)
                except MalformedTag:
                    continue
                if encoding.apdu_invoke_id(reply) != invoke_id:
                    continue  # stray or stale reply; keep waiting for ours
                return reply
        raise Timeout(
            f"no reply from {self.endpoint.host}:{self.endpoint.port} "
            f"after {self.endpoint.retries + 1} attempts"
        )

    # -- reads ----------------------------------------------------------------

    def read_properties(self, queries: Sequence[PropertyQuery]) -> list[PropResult]:
        """Read many properties in one exchange, splitting when size-bound.

        Results come back in query order. Devices that cannot fit the answer
        in one APDU abort; the query list is then halved recursively, so the
        result of a chunked read is identical to an unchunked one.
        """
        queries = list(queries)
        if not queries:
            raise EmptyQuery("query list is empty")
        with self._request_lock:
            return encoding.prop_results(self._read_locked(queries))

    def _read_locked(self, queries: list[PropertyQuery], apdu: bytes = b"") -> list[tuple]:
        """The walked items (``encoding.rpm_ack_items``) of the answers to
        ``queries``. ``apdu``, if given, is ``queries`` encoded with invoke
        id 0; a split after an abort encodes its halves afresh."""
        try:
            invoke = self._next_invoke()
            if apdu:  # the invoke id is the third octet of a confirmed request
                apdu = apdu[:2] + bytes((invoke,)) + apdu[3:]
            else:
                apdu = encoding.encode_rpm_request(invoke, queries)
            reply = self._transact(apdu, invoke)
            items = encoding.rpm_ack_items(reply, invoke)
            self._ack_octets += len(reply)
            return items
        except (TooLarge, Aborted) as e:
            if isinstance(e, Aborted) and not e.response_too_big:
                raise
            if len(queries) == 1:
                raise
            mid = len(queries) // 2
            return self._read_locked(queries[:mid]) + self._read_locked(queries[mid:])

    # -- discovery -------------------------------------------------------------

    def discover_objects(self) -> list[DiscoveredObject]:
        """Walk the device's object list and name every object.

        Returns entries sorted by (type, instance), excluding the device
        object itself. Units are read for analog objects only; objects
        without a units property report None.
        """
        dev = ObjectRef(object_type_id("device"), self.endpoint.device_instance)
        refs = self._read_object_list(dev)
        objs = [r for r in refs if r != dev]
        if not all(isinstance(r, ObjectRef) for r in objs):
            raise DiscoveryFailed("object list contains non-object entries")
        objs.sort()
        discovered: list[DiscoveredObject] = []
        room = encoding.MAX_APDU - 3  # less an ack's header
        per_object, octets = _FIRST_GUESS, self._ack_octets
        while len(discovered) < len(objs):
            chunk = objs[len(discovered) :][: max(1, room // per_object)]
            queries = []
            for ref in chunk:
                queries.append(PropertyQuery(ref, property_id("object-name")))
                if ref.type_id in ANALOG_TYPES:
                    queries.append(PropertyQuery(ref, property_id("units")))
            results = iter(self.read_properties(queries))
            for ref in chunk:
                name = _first(next(results, None), str)
                units = _first(next(results, None), int) if ref.type_id in ANALOG_TYPES else None
                if name is None:
                    raise DiscoveryFailed(f"object {ref} has no readable name")
                units = None if units is None else unit_token(int(units))
                discovered.append(DiscoveredObject(ref, name, units))
            # the octets per object of the answers so far, rounded up
            per_object = -(-(self._ack_octets - octets) // len(discovered))
        self._name_cache = {d.name: d for d in discovered}
        self._present = None
        return discovered

    def _read_object_list(self, dev: ObjectRef) -> list[ObjectRef]:
        olist = property_id("object-list")
        try:
            res = self.read_properties([PropertyQuery(dev, olist)])
            return [v for v in res[0].values or () if isinstance(v, ObjectRef)]
        except (Aborted, TooLarge) as e:
            if isinstance(e, Aborted) and not e.response_too_big:
                raise
        # too big in one shot: count, then walk by array index
        res = self.read_properties([PropertyQuery(dev, olist, array_index=0)])
        if res[0].error is not None or not res[0].values:
            raise DiscoveryFailed(f"cannot size object list: {res[0].error}")
        count = int(res[0].values[0])
        refs: list[ObjectRef] = []
        for start in range(1, count + 1, 24):
            stop = min(start + 24, count + 1)
            queries = [PropertyQuery(dev, olist, array_index=i) for i in range(start, stop)]
            for r in self.read_properties(queries):
                if r.error is not None or not r.values:
                    raise DiscoveryFailed(f"object-list[{r.array_index}]: {r.error or 'no value'}")
                refs.append(r.values[0])
        return refs

    # -- named reads ------------------------------------------------------------

    def read_by_name(self, names: Sequence[str]) -> list[PropResult]:
        """Resolve object names via discovery and read their present values."""
        return encoding.prop_results(self._read_named(names)[1])

    def _read_named(self, names: Optional[Sequence[str]]) -> tuple[list, list[tuple]]:
        """The (name, unit, binary) row of each object ``names`` resolves to
        (all for None), and the walked items of its present value. Rows and
        request are made once per discovery and names; the request is sent
        again with a fresh invoke id on each later read. A failed read, or
        an answer naming an object the device no longer has, clears the name
        cache and that request: the device has changed, so the next read
        discovers again."""
        if names is not None and not names:
            raise EmptyQuery("no names given")
        key = None if names is None else tuple(names)
        try:
            if not self._name_cache:
                self.discover_objects()
            if self._present is None or self._present[0] != key:
                self._present = (key, *self._present_request(key))
            _, rows, queries, apdu = self._present
            with self._request_lock:
                items = self._read_locked(queries, apdu)
        except Exception:
            self._name_cache = {}
            self._present = None
            raise
        if any(it[5] is not None and it[5][1] == "unknown-object" for it in items):
            self._name_cache = {}
            self._present = None
        return rows, items

    def _present_request(self, names: Optional[tuple]) -> tuple[list, list, bytes]:
        """The rows of the objects ``names`` (all for None) resolve to, their
        present-value queries, and those encoded, or b"" when too large to
        send whole."""
        names = list(self._name_cache) if names is None else names
        missing = [n for n in names if n not in self._name_cache]
        if missing:
            raise UnknownName(missing)
        objs = [self._name_cache[n] for n in names]
        rows = [(o.name, o.units or "", o.ref.type_id in BINARY_TYPES) for o in objs]
        queries = [PropertyQuery(o.ref, property_id("present-value")) for o in objs]
        if not queries:
            raise EmptyQuery("query list is empty")
        try:
            return rows, queries, encoding.encode_rpm_request(0, queries)
        except TooLarge:
            return rows, queries, b""

    def read_points(
        self,
        names: Optional[Sequence[str]],
        entity_id: str,
        tags: Mapping[str, str] = NO_TAGS,
        dropped: Optional[Counter] = None,
    ) -> list[DataPoint]:
        """Poll named objects (all for None) into data points (analog -> real,
        binary -> flag). An object answered with an error, or with no value or
        one no point can carry, is left out and counted in ``dropped`` under
        the error's code (e.g. ``unknown-object``), ``no-value`` or
        ``unsupported-value``. Every point carries ``tags`` itself, not a
        copy."""
        rows, items = self._read_named(names)
        stamp = self.clock_ns()
        points = []
        for (name, unit, binary), (_, _, _, _, values, error) in zip(rows, items):
            if not values:  # an access error, or an empty value list
                if dropped is not None:
                    dropped[error[1] if error else "no-value"] += 1
                continue
            raw = values[0]
            if binary:
                value = _FLAGS[bool(raw)] if isinstance(raw, int) else None
            elif isinstance(raw, bool):
                value = Value.flag(raw)
            elif isinstance(raw, (int, float)):
                value = Value.real(raw)
            elif isinstance(raw, str):
                value = Value.text(raw)
            else:
                value = None
            if value is None:
                if dropped is not None:
                    dropped["unsupported-value"] += 1
                continue
            points.append(DataPoint(entity_id, name, value, unit, stamp, tags))
        return points


def _first(res: Optional[PropResult], kind: type):
    """The first value of ``res`` if it has one of type ``kind``, else None."""
    if res is not None and res.error is None and res.values and isinstance(res.values[0], kind):
        return res.values[0]
    return None
