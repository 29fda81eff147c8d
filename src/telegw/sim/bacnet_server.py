"""BACnet/IP controller simulator.

Serves ReadPropertyMultiple over UDP for a configurable object inventory.
The device object's object-list property supports whole-array and indexed
reads; when an answer would exceed ``max_response`` the simulator aborts
with segmentation-not-supported exactly like a small-buffer controller, so
clients are forced into chunked reads. ``drop_requests(n)`` silently eats
the next n datagrams to exercise client retries.
"""

from __future__ import annotations

import socket
import threading
from dataclasses import dataclass, field
from typing import Optional

from ..bacnet import encoding
from ..bacnet.encoding import (
    Enumerated,
    MalformedTag,
    ObjectRef,
    PropertyQuery,
    PropResult,
    object_type_id,
    property_id,
    unit_id,
)
from ..netio import shut

_DEVICE = object_type_id("device")
_ANALOG = {object_type_id(t) for t in ("analog-input", "analog-output", "analog-value")}
_BINARY = {object_type_id(t) for t in ("binary-input", "binary-output", "binary-value")}

_PROP_LIST = property_id("object-list")
_PROP_NAME = property_id("object-name")
_PROP_PV = property_id("present-value")
_PROP_UNITS = property_id("units")
_PROP_TYPE = property_id("object-type")


@dataclass
class SimObject:
    type_name: str
    instance: int
    name: str
    units: Optional[str] = None
    value: object = 0.0
    model: object = None  # optional value generator with step(now_ns)

    @property
    def ref(self) -> ObjectRef:
        return ObjectRef(object_type_id(self.type_name), self.instance)


class BacnetSim:
    def __init__(
        self,
        device_instance: int,
        objects: list[SimObject],
        device_name: str = "sim-controller",
        host: str = "127.0.0.1",
        port: int = 0,
        max_response: int = encoding.MAX_APDU,
    ):
        self.device_instance = device_instance
        self.device_name = device_name
        self.objects = {o.ref: o for o in objects}
        self.order = [o.ref for o in objects]
        self.host = host
        self.port = port
        self.max_response = max_response
        self.request_log: list[int] = []  # query count per handled request
        self.clock_ns = lambda: 0
        self._drop = 0
        self._sock: Optional[socket.socket] = None
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "BacnetSim":
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._sock.bind((self.host, self.port))
        self.port = self._sock.getsockname()[1]
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._sock is not None:
            shut(self._sock)
        if self._thread is not None:
            self._thread.join(timeout=5)

    def __enter__(self) -> "BacnetSim":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def drop_requests(self, n: int) -> None:
        self._drop = n

    # -- serving ------------------------------------------------------------

    def _loop(self) -> None:
        while not self._stop.is_set():
            try:
                data, addr = self._sock.recvfrom(65535)
            except OSError:
                return
            if self._stop.is_set():
                return
            if self._drop > 0:
                self._drop -= 1
                continue
            reply = self._handle(data)
            if reply is not None:
                try:
                    self._sock.sendto(reply, addr)
                except OSError:
                    return

    def _handle(self, data: bytes) -> Optional[bytes]:
        try:
            apdu = encoding.unwrap(data)
        except MalformedTag:
            return None  # not for us; nothing sane to answer
        invoke = encoding.apdu_invoke_id(apdu) or 0
        pdu_type = apdu[0] >> 4
        if pdu_type != encoding.PDU_CONFIRMED:
            return None
        if apdu[0] & 0x0F:
            return encoding.wrap(encoding.encode_abort(invoke, 4), False)
        if len(apdu) >= 4 and apdu[3] != encoding.SERVICE_RPM:
            return encoding.wrap(encoding.encode_reject(invoke, 9), False)
        try:
            invoke, queries = encoding.decode_rpm_request(apdu)
        except MalformedTag:
            return encoding.wrap(encoding.encode_reject(invoke, 4), False)
        self.request_log.append(len(queries))
        results = [self._answer(q) for q in queries]
        ack = encoding.encode_rpm_ack(invoke, results)
        if len(ack) > self.max_response:
            return encoding.wrap(encoding.encode_abort(invoke, 4), False)
        return encoding.wrap(ack, False)

    # -- per-query evaluation ----------------------------------------------

    def _answer(self, q: PropertyQuery) -> PropResult:
        if q.obj.type_id == _DEVICE and q.obj.instance == self.device_instance:
            return self._answer_device(q)
        obj = self.objects.get(q.obj)
        if obj is None:
            return PropResult(q.obj, q.prop, q.array_index, error=("object", "unknown-object"))
        if q.prop == _PROP_NAME:
            return PropResult(q.obj, q.prop, q.array_index, values=(obj.name,))
        if q.prop == _PROP_TYPE:
            return PropResult(q.obj, q.prop, q.array_index, values=(Enumerated(q.obj.type_id),))
        if q.prop == _PROP_PV:
            return PropResult(q.obj, q.prop, q.array_index, values=(self._present_value(obj),))
        if q.prop == _PROP_UNITS:
            if q.obj.type_id in _ANALOG and obj.units:
                return PropResult(
                    q.obj, q.prop, q.array_index, values=(Enumerated(unit_id(obj.units)),)
                )
            return PropResult(q.obj, q.prop, q.array_index, error=("property", "unknown-property"))
        return PropResult(q.obj, q.prop, q.array_index, error=("property", "unknown-property"))

    def _answer_device(self, q: PropertyQuery) -> PropResult:
        if q.prop == _PROP_NAME:
            return PropResult(q.obj, q.prop, q.array_index, values=(self.device_name,))
        if q.prop == _PROP_LIST:
            # the device object lists itself first, like real controllers
            full = [q.obj] + self.order
            if q.array_index is None:
                return PropResult(q.obj, q.prop, None, values=tuple(full))
            if q.array_index == 0:
                return PropResult(q.obj, q.prop, 0, values=(len(full),))
            if 1 <= q.array_index <= len(full):
                return PropResult(q.obj, q.prop, q.array_index, values=(full[q.array_index - 1],))
            return PropResult(q.obj, q.prop, q.array_index, error=("property", "value-out-of-range"))
        return PropResult(q.obj, q.prop, q.array_index, error=("property", "unknown-property"))

    def _present_value(self, obj: SimObject):
        if obj.model is not None:
            obj.value = obj.model.step(self.clock_ns())
        v = obj.value
        if obj.ref.type_id in _BINARY:
            return Enumerated(1 if v else 0)
        if isinstance(v, bool):
            return v
        if isinstance(v, (int, float)):
            return float(v)
        return str(v)
