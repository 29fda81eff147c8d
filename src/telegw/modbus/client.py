"""Modbus/TCP client with device-friendly connection policies.

Many metering devices accept a single TCP connection at a time and drop or
refuse anything beyond it. The default policy therefore opens a fresh
connection per request and closes it as soon as the response is in, so
several pollers (or a second gateway) can interleave against the same meter.
``persistent`` keeps the socket open for devices that tolerate it.
"""

from __future__ import annotations

import socket
import struct
import time
from dataclasses import dataclass, field
from datetime import date as _date
from typing import Callable, Iterable, Mapping, Optional, Sequence

from ..model import NO_TAGS, DataPoint, Value, check_identifier
from ..netio import Stoppable, connect as tcp_connect, recv_exact
from . import protocol
from .protocol import (
    ExceptionResponse,
    MalformedFrame,
    ModbusError,
    RegisterCodec,
    TransactionMismatch,
)

PER_REQUEST_CLOSE = "per_request_close"
PERSISTENT = "persistent"


class ConnectTimeout(ModbusError):
    pass


class IoTimeout(ModbusError):
    pass


class ConnectionReset(ModbusError):
    pass


class ReadyTimeout(ModbusError):
    pass


class WriteRejected(ModbusError):
    def __init__(self, code: int):
        self.code = code
        super().__init__(f"date window write rejected with exception 0x{code:02X}")


@dataclass(frozen=True)
class ConnectionPolicy:
    mode: str = PER_REQUEST_CLOSE
    connect_timeout_ms: int = 2000
    io_timeout_ms: int = 2000
    # resend budget when the device resets or drops the connection mid-request
    request_retries: int = 1

    def __post_init__(self):
        if self.mode not in (PER_REQUEST_CLOSE, PERSISTENT):
            raise ValueError(f"unknown connection mode {self.mode!r}")
        if self.connect_timeout_ms <= 0 or self.io_timeout_ms <= 0:
            raise ValueError("timeouts must be positive")
        if self.request_retries < 0:
            raise ValueError("request_retries must be >= 0")


@dataclass(frozen=True)
class RegisterBinding:
    """One parameter bound to a register span."""

    parameter: str
    function: str  # holding | input
    address: int
    codec: RegisterCodec
    unit_label: str = ""

    def __post_init__(self):
        check_identifier(self.parameter, "register name")
        if self.address < 0 or self.end > 0x10000:
            raise ValueError(
                f"{self.codec.datatype} at address {self.address} does not fit in 0..65535"
            )

    @property
    def end(self) -> int:
        return self.address + self.codec.span


@dataclass
class ReadReport:
    points: list[DataPoint] = field(default_factory=list)
    errors: dict[str, str] = field(default_factory=dict)


def encode_date_y2k(d: _date) -> list[int]:
    """Date packing for history windows: [year-2000, month, day]."""
    return [d.year - 2000, d.month, d.day]


@dataclass(frozen=True)
class HistoricalReadConfig:
    date_address: int = 0x1000
    ready_address: int = 0x1003
    ready_value: int = 1
    poll_interval_ms: int = 500
    max_polls: int = 20

    def __post_init__(self):
        words = len(encode_date_y2k(_date(2000, 1, 1)))
        if self.date_address < 0 or self.date_address + words > 0x10000:
            raise ValueError(
                f"date window at address {self.date_address} ({words} registers) "
                "does not fit in 0..65535"
            )
        if not 0 <= self.ready_address <= 0xFFFF:
            raise ValueError(f"ready address {self.ready_address} outside 0..65535")


# one read request: (function, start, count, the bindings it answers)
ReadGroup = tuple[str, int, int, list[RegisterBinding]]


def coalesce(bindings: Iterable[RegisterBinding]) -> list[ReadGroup]:
    """Group bindings into (function, start, count, members) read requests.

    Contiguous or overlapping spans within one function table merge; a gap
    starts a new group, and no group exceeds the protocol read limit.
    """
    groups: list[ReadGroup] = []
    by_fn: dict[str, list[RegisterBinding]] = {}
    for b in bindings:
        by_fn.setdefault(b.function, []).append(b)
    for fn in sorted(by_fn):
        run: list[RegisterBinding] = []
        start = end = 0
        for b in sorted(by_fn[fn], key=lambda b: (b.address, b.end)):
            if run and b.address <= end and max(end, b.end) - start <= protocol.MAX_READ_COUNT:
                end = max(end, b.end)
                run.append(b)
            else:
                if run:
                    groups.append((fn, start, end - start, run))
                run = [b]
                start, end = b.address, b.end
        if run:
            groups.append((fn, start, end - start, run))
    return groups


class ModbusClient(Stoppable):
    _MAX_STALE_FRAMES = 8

    def __init__(
        self,
        host: str,
        port: int = 502,
        unit: int = 1,
        policy: Optional[ConnectionPolicy] = None,
        clock_ns: Callable[[], int] = time.time_ns,
    ):
        super().__init__()
        self.host = host
        self.port = port
        self.unit = unit
        self.policy = policy or ConnectionPolicy()
        self.clock_ns = clock_ns
        self._tx = 0

    # -- connection management -------------------------------------------

    def connect(self) -> None:
        """Open the socket, retrying refusals until the connect budget runs out.

        Refusals are retried because a single-connection device re-arms its
        listener a beat after the previous client disconnects. A reset during
        connect is different: the device accepted and then actively dropped
        us, which is a per-request failure governed by request_retries, so it
        surfaces as ConnectionReset instead of being absorbed here. A host
        the resolver rejects raises socket.gaierror at once, unless the
        resolver says to try again (EAI_AGAIN).
        """
        if self._sock is not None:
            return
        deadline = time.monotonic() + self.policy.connect_timeout_ms / 1000
        last: Exception | None = None
        while True:
            if self._interrupted.is_set():
                raise ModbusError(f"client for {self.host}:{self.port} was interrupted")
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ConnectTimeout(
                    f"could not connect to {self.host}:{self.port} "
                    f"within {self.policy.connect_timeout_ms} ms ({last})"
                )
            try:
                s = tcp_connect(self.host, self.port, remaining, self._publish)
                s.settimeout(self.policy.io_timeout_ms / 1000)
                return
            except ConnectionResetError as e:
                raise ConnectionReset(
                    f"{self.host}:{self.port} reset the connection during connect"
                ) from e
            except socket.gaierror as e:
                if e.errno != socket.EAI_AGAIN:
                    raise  # the name will not resolve within the budget either
                last = e
                self._interrupted.wait(0.01)  # the loop's check raises once interrupted
            except OSError as e:
                last = e
                self._interrupted.wait(0.01)

    # -- framing ----------------------------------------------------------

    def _next_tx(self) -> int:
        self._tx = (self._tx + 1) & 0xFFFF or 1
        return self._tx

    def _recv_exact(self, n: int) -> bytes:
        assert self._sock is not None
        try:
            return recv_exact(self._sock, n)
        except socket.timeout as e:
            raise IoTimeout(f"no response from {self.host}:{self.port}") from e
        except (ConnectionResetError, ConnectionAbortedError, BrokenPipeError) as e:
            raise ConnectionReset(f"{self.host}:{self.port} reset the connection") from e
        except ConnectionError as e:  # the stream ended
            raise ConnectionReset(f"{self.host}:{self.port} closed the connection") from e

    def _read_frame(self) -> bytes:
        header = self._recv_exact(7)
        _tx, _proto, length = struct.unpack(">HHH", header[:6])
        if not 2 <= length <= 256:
            raise MalformedFrame(f"implausible frame length {length}")
        return header + self._recv_exact(length - 1)

    def _send(self, frame: bytes) -> None:
        assert self._sock is not None
        try:
            self._sock.sendall(frame)
        except socket.timeout as e:
            raise IoTimeout(f"send to {self.host}:{self.port} timed out") from e
        except (ConnectionResetError, ConnectionAbortedError, BrokenPipeError) as e:
            raise ConnectionReset(f"{self.host}:{self.port} reset the connection") from e

    def _exchange(self, build) -> tuple[bytes, int]:
        """Send one request and return (response frame, tx).

        ``build`` maps a transaction id to the request frame. Responses are
        matched by transaction id, never by arrival order: stale frames with
        older ids are skipped (bounded) rather than misattributed. Connection
        loss is retried on a fresh connection up to the policy's budget.
        """
        attempts = self.policy.request_retries + 1
        last: Exception | None = None
        for _ in range(attempts):
            try:
                if self._sock is None:
                    self.connect()
                tx = self._next_tx()
                self._send(build(tx))
                skipped = 0
                while True:
                    frame = self._read_frame()
                    got = struct.unpack(">H", frame[:2])[0]
                    if got == tx:
                        break
                    skipped += 1
                    if skipped > self._MAX_STALE_FRAMES:
                        raise TransactionMismatch(
                            f"no response for transaction {tx} after skipping {skipped - 1} frames"
                        )
                if self.policy.mode == PER_REQUEST_CLOSE:
                    self.close()
                return frame, tx
            except (ConnectionReset, IoTimeout, ConnectTimeout) as e:
                last = e
                self.close()
        assert last is not None
        raise last

    # -- public operations -------------------------------------------------

    def read_registers(self, function: str, address: int, count: int) -> list[int]:
        frame, tx = self._exchange(
            lambda tx: protocol.encode_read(tx, self.unit, function, address, count)
        )
        return protocol.decode_read_response(frame, tx, count)

    def write_registers(self, address: int, words: list[int]) -> None:
        frame, tx = self._exchange(
            lambda tx: protocol.encode_write_multiple(tx, self.unit, address, words)
        )
        protocol.decode_write_response(frame, tx)

    def read_parameters(
        self,
        plan: Sequence[ReadGroup],
        entity_id: str,
        tags: Mapping[str, str] = NO_TAGS,
    ) -> ReadReport:
        """Poll a device by its read plan, the groups :func:`coalesce` made of
        its bindings, at one request per group. Every point carries ``tags``
        itself, not a copy.

        A device that rejects a group read (illegal address and friends) is
        retried binding by binding, so one bad map entry degrades to a single
        error annotation instead of killing the whole poll. Transport errors
        still propagate: a dead device is the caller's problem.
        """
        report = ReadReport()
        for fn, start, count, members in plan:
            try:
                words = self.read_registers(fn, start, count)
                stamp = self.clock_ns()
                for b in members:
                    self._decode_into(report, b, words[b.address - start : b.end - start],
                                      entity_id, tags, stamp)
            except ExceptionResponse:
                for b in members:
                    try:
                        w = self.read_registers(b.function, b.address, b.codec.span)
                        self._decode_into(report, b, w, entity_id, tags, self.clock_ns())
                    except ExceptionResponse as e:
                        report.errors[b.parameter] = e.name
        return report

    @staticmethod
    def _decode_into(report, binding, words, entity_id, tags, stamp) -> None:
        try:
            value = binding.codec.decode(words)
        except (ModbusError, ValueError) as e:
            report.errors[binding.parameter] = str(e)
            return
        report.points.append(DataPoint(
            entity_id, binding.parameter, Value.real(value), binding.unit_label, stamp, tags
        ))

    def read_historical_block(
        self,
        day: _date,
        cfg: HistoricalReadConfig,
        bindings: Sequence[RegisterBinding],
        entity_id: str,
        tags: Mapping[str, str] = NO_TAGS,
    ) -> ReadReport:
        """Run the select-date / wait-ready / read-block handshake.

        Writes the requested day into the date window, polls the ready flag
        until the device reports the block staged (bounded by max_polls),
        then reads the data bindings. Returned points carry a ``date`` tag.
        """
        try:
            self.write_registers(cfg.date_address, encode_date_y2k(day))
        except ExceptionResponse as e:
            raise WriteRejected(e.code) from e
        for n in range(cfg.max_polls):
            flag = self.read_registers(protocol.HOLDING, cfg.ready_address, 1)[0]
            if flag == cfg.ready_value:
                break
            if n + 1 < cfg.max_polls and self._interrupted.wait(cfg.poll_interval_ms / 1000):
                raise ModbusError(f"client for {self.host}:{self.port} was interrupted")
        else:
            raise ReadyTimeout(
                f"ready flag at 0x{cfg.ready_address:04X} never became "
                f"{cfg.ready_value} in {cfg.max_polls} polls"
            )
        return self.read_parameters(coalesce(bindings), entity_id, {**tags, "date": day.isoformat()})
