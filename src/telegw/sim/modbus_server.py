"""Modbus/TCP device simulator with configurable failure behavior.

Reproduces the connection quirks real meters exhibit:

* ``single_connection_limit``: the device stops listening while one client
  is connected, so a second connect is refused outright. Listening resumes
  when the client disconnects.
* ``reject_alternate_connections``: firmware that hard-resets every second
  accepted connection before reading a byte.
* ``delayed_ready(n)``: history blocks are staged asynchronously; a ready
  flag register reports staged only from the (n+1)-th status poll after the
  date window is written.
* ``exception_on(address, code)``: any request touching the address gets a
  Modbus exception response.

Every accepted connection and every request lands in ``request_log`` so
tests can assert exact request sequences.
"""

from __future__ import annotations

import socket
import struct
import threading
from dataclasses import dataclass, field
from typing import Optional

from ..modbus import protocol
from ..modbus.client import HistoricalReadConfig
from ..modbus.protocol import (
    FC_READ_HOLDING,
    FC_READ_INPUT,
    FC_WRITE_MULTIPLE,
    RegisterCodec,
)
from ..netio import recv_exact, shut

NONE = "none"
SINGLE_CONNECTION = "single_connection_limit"
REJECT_ALTERNATE = "reject_alternate_connections"
DELAYED_READY = "delayed_ready"
EXCEPTION_ON = "exception_on"


@dataclass(frozen=True)
class FaultModel:
    kind: str = NONE
    ready_polls: int = 0  # delayed_ready: polls answered not-staged
    address: int = 0  # exception_on
    code: int = 0x02  # exception_on

    @staticmethod
    def none() -> "FaultModel":
        return FaultModel(NONE)

    @staticmethod
    def single_connection_limit() -> "FaultModel":
        return FaultModel(SINGLE_CONNECTION)

    @staticmethod
    def reject_alternate_connections() -> "FaultModel":
        return FaultModel(REJECT_ALTERNATE)

    @staticmethod
    def delayed_ready(n_polls: int) -> "FaultModel":
        return FaultModel(DELAYED_READY, ready_polls=n_polls)

    @staticmethod
    def exception_on(address: int, code: int = 0x02) -> "FaultModel":
        return FaultModel(EXCEPTION_ON, address=address, code=code)


@dataclass
class LogEntry:
    kind: str  # connect | reset | read | write
    fc: int = 0
    address: int = 0
    count: int = 0


@dataclass
class _ModelSlot:
    address: int
    codec: RegisterCodec
    model: object  # anything with step(now_ns) -> float
    table: str  # holding | input


class ModbusSim:
    """One simulated Modbus/TCP device on an ephemeral (or fixed) port."""

    def __init__(
        self,
        unit: int = 1,
        fault: Optional[FaultModel] = None,
        hist: Optional[HistoricalReadConfig] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.unit = unit
        self.fault = fault or FaultModel.none()
        self.hist = hist or HistoricalReadConfig()
        self.host = host
        self.port = port
        self.request_log: list[LogEntry] = []
        self.holding: dict[int, int] = {}
        self.input: dict[int, int] = {}
        self._models: list[_ModelSlot] = []
        self._listener: Optional[socket.socket] = None
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._conns: set[socket.socket] = set()
        self._accepted = 0
        self._ready_polls_seen = 0
        self._date_written: Optional[tuple[int, ...]] = None
        self._lock = threading.Lock()
        self.clock_ns = lambda: 0

    # -- register bank ------------------------------------------------------

    def load(self, address: int, words: list[int], table: str = "holding") -> None:
        bank = self.holding if table == "holding" else self.input
        for i, w in enumerate(words):
            bank[address + i] = w & 0xFFFF

    def load_value(self, address: int, codec: RegisterCodec, value: float, table: str = "holding") -> None:
        self.load(address, codec.encode(value), table)

    def bind_model(self, address: int, codec: RegisterCodec, model, table: str = "holding") -> None:
        self._models.append(_ModelSlot(address, codec, model, table))
        self.load_value(address, codec, model.step(0), table)

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "ModbusSim":
        self._listener = self._make_listener()
        self.port = self._listener.getsockname()[1]
        self._thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        # under the lock, so a single-connection loop cannot listen again
        with self._lock:
            self._stop.set()
            socks = list(self._conns)
            if self._listener is not None:
                socks.append(self._listener)
        for sock in socks:
            shut(sock)
        if self._thread is not None:
            self._thread.join(timeout=5)

    def __enter__(self) -> "ModbusSim":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def _make_listener(self) -> socket.socket:
        s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        s.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        s.bind((self.host, self.port))
        s.listen(8)
        return s

    # -- accept loops -----------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
                conn.settimeout(30)
            except OSError:
                if self._stop.is_set():
                    return
                continue
            self._accepted += 1
            self.request_log.append(LogEntry("connect"))
            if self.fault.kind == REJECT_ALTERNATE and self._accepted % 2 == 0:
                self.request_log.append(LogEntry("reset"))
                self._rst(conn)
                continue
            if self.fault.kind == SINGLE_CONNECTION:
                # device stops listening while a client is connected
                self._listener.close()
                self._serve(conn)
                with self._lock:
                    if self._stop.is_set():
                        return
                    try:
                        self._listener = self._make_listener()
                    except OSError:
                        return
                continue
            if self.fault.kind == REJECT_ALTERNATE:
                self._serve(conn)
                continue
            t = threading.Thread(target=self._serve, args=(conn,), daemon=True)
            t.start()

    @staticmethod
    def _rst(conn: socket.socket) -> None:
        try:
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            conn.close()
        except OSError:
            pass

    # -- request handling ---------------------------------------------------

    def _serve(self, conn: socket.socket) -> None:
        with self._lock:
            self._conns.add(conn)
        conn.settimeout(30)
        try:
            while not self._stop.is_set():
                frame = self._read_frame(conn)
                if frame is None:
                    return
                try:
                    req = protocol.parse_request(frame)
                except protocol.ModbusError:
                    return
                conn.sendall(self._dispatch(req))
        except OSError:
            pass
        finally:
            with self._lock:
                self._conns.discard(conn)
            try:
                conn.close()
            except OSError:
                pass

    @staticmethod
    def _read_frame(conn: socket.socket) -> Optional[bytes]:
        """The next request frame; None at the stream's end or a bad length."""
        try:
            header = recv_exact(conn, 7)
            length = struct.unpack(">H", header[4:6])[0]
            if not 2 <= length <= 256:
                return None
            return header + recv_exact(conn, length - 1)
        except ConnectionError:
            return None

    def _dispatch(self, req: protocol.Request) -> bytes:
        if req.fc in (FC_READ_HOLDING, FC_READ_INPUT):
            self.request_log.append(LogEntry("read", req.fc, req.address, req.count))
            if not 1 <= req.count <= protocol.MAX_READ_COUNT:
                return protocol.build_exception(req.tx, req.unit, req.fc, 0x03)
            return self._do_read(req)
        if req.fc == FC_WRITE_MULTIPLE:
            self.request_log.append(LogEntry("write", req.fc, req.address, req.count))
            return self._do_write(req)
        return protocol.build_exception(req.tx, req.unit, req.fc, 0x01)

    def _do_read(self, req: protocol.Request) -> bytes:
        span = range(req.address, req.address + req.count)
        if self.fault.kind == EXCEPTION_ON and self.fault.address in span:
            return protocol.build_exception(req.tx, req.unit, req.fc, self.fault.code)
        table = protocol.HOLDING if req.fc == FC_READ_HOLDING else protocol.INPUT
        self._refresh_models(table, req.address, req.count)
        is_status_poll = (
            req.fc == FC_READ_HOLDING
            and req.address == self.hist.ready_address
            and req.count == 1
        )
        if is_status_poll:
            # the ready flag is part of the history handshake; a fault model
            # only adds staging delay, it does not create the flag
            delay = self.fault.ready_polls if self.fault.kind == DELAYED_READY else 0
            self._ready_polls_seen += 1
            staged = (
                self._date_written is not None
                and self._ready_polls_seen > delay
            )
            value = self.hist.ready_value if staged else 0
            return protocol.build_read_response(req.tx, req.unit, req.fc, [value])
        bank = self.holding if req.fc == FC_READ_HOLDING else self.input
        words = []
        for a in span:
            if a not in bank:
                return protocol.build_exception(req.tx, req.unit, req.fc, 0x02)
            words.append(bank[a])
        return protocol.build_read_response(req.tx, req.unit, req.fc, words)

    def _do_write(self, req: protocol.Request) -> bytes:
        span = range(req.address, req.address + req.count)
        if self.fault.kind == EXCEPTION_ON and self.fault.address in span:
            return protocol.build_exception(req.tx, req.unit, req.fc, self.fault.code)
        for i, w in enumerate(req.words):
            self.holding[req.address + i] = w
        if req.address == self.hist.date_address:
            # a new date selection restages the block
            self._date_written = tuple(req.words)
            self._ready_polls_seen = 0
        return protocol.build_write_response(req.tx, req.unit, req.address, req.count)

    def _refresh_models(self, table: str, address: int, count: int) -> None:
        lo, hi = address, address + count
        now = self.clock_ns()
        for slot in self._models:
            if slot.table == table and slot.address < hi and slot.address + slot.codec.span > lo:
                self.load_value(slot.address, slot.codec, slot.model.step(now), table)

    @property
    def date_selected(self) -> Optional[tuple[int, ...]]:
        return self._date_written
