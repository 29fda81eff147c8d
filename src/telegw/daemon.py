"""Process supervisor: one validated config in, a running gateway out.

The gateway owns a pipeline, an alert engine, one subscriber per broker, and a
scheduler thread per polled device and HTTP poll. Each poll job owns its
client, whose wake lets a stop cut short a poll waiting on a silent device or
server, in its connect or TLS handshake too. What a job reads (a Modbus
device's read groups) and the tags its points carry are fixed when the job is
built. A job returns when it delivered its points and raises when it did not;
the scheduler records either against that job, and ``/health`` reads those
records. No failure escapes a poller's thread; the process outlives any single
dead dependency. Shutdown is two-phase: intake stops first, then the pipeline
drains into the sink bounded by the configured timeout.

``/health``, ``/metrics`` and ``/stats`` are served as HTTP/1.0 by an
accept loop on a plain socket rather than by ``http.server``, which would
load ``http.client`` and with it ``ssl``, libssl and libcrypto: about 5 MB
of a process that otherwise needs no TLS. A gateway with an HTTP poll loads
them, through :mod:`telegw.httpio`, when it starts. Likewise only a gateway
with a BACnet device loads :mod:`telegw.bacnet`, in :meth:`Gateway.start`.
"""

from __future__ import annotations

import json
import logging
import os
import socket
import threading
import time
from collections import Counter
from datetime import date, timedelta
from functools import partial
from http import HTTPStatus
from typing import TYPE_CHECKING, Callable, Mapping

from telegw.alerts import AlertEngine
from telegw.config import STATS_JOB, BacnetDeviceSpec, GatewayConfig, ModbusDeviceSpec
from telegw.ingest import POLL_TIMEOUT_S, Subscriber, _default_getter, poll_http
from telegw.modbus import ModbusClient, client as modbus_client
from telegw.pipeline import JobRecord, Pipeline, PollSchedule, Scheduler, stats_to_doc

if TYPE_CHECKING:
    from telegw.bacnet import BacnetClient

log = logging.getLogger(__name__)

# The health endpoint's limits; the line and header bounds are http.server's.
MAX_LINE = 65536  # bytes in the request line and in each header line
MAX_HEADERS = 100
IDLE_TIMEOUT_S = 2.0  # a connection that sends no whole request by then is closed


class Gateway:
    def __init__(self, config: GatewayConfig, clock_ns=time.time_ns):
        self.config = config
        self.clock_ns = clock_ns
        self.alert_engine = AlertEngine(
            list(config.alert_rules), [spec.build() for spec in config.notifiers]
        )
        self.pipeline = Pipeline(
            config.sink,
            heartbeat_s=config.gateway.heartbeat_s,
            alert_engine=self.alert_engine,
            clock_ns=clock_ns,
        )
        self.scheduler = Scheduler(clock_ns)
        self.subscribers: list[Subscriber] = []
        # job -> reason -> items its polls read but could not hand on
        self._drops: dict[str, Counter] = {}
        self._drops_lock = threading.Lock()
        self._health: tuple[socket.socket, threading.Event, threading.Thread] | None = None
        self._started_ns: int | None = None

    # -- poller jobs ----------------------------------------------------------

    def _modbus_job(self, dev: ModbusDeviceSpec, client: ModbusClient):
        plan = modbus_client.coalesce(dev.bindings)  # the device's read groups, made once

        def job() -> None:
            # the live points go out before the history handshake, so a
            # failed handshake fails the poll without costing them
            try:
                if plan:
                    report = client.read_parameters(plan, dev.id, dev.tags)
                    self.pipeline.submit_many(report.points)
                    self._count_drops(dev.id, Counter(report.errors.values()))
                if dev.historical is not None:
                    today = date.fromtimestamp(self.clock_ns() // 1_000_000_000)
                    day = today - timedelta(days=dev.historical.days_back)
                    report = client.read_historical_block(
                        day, dev.historical.config, dev.historical.bindings, dev.id, dev.tags
                    )
                    self.pipeline.submit_many(report.points)
                    self._count_drops(dev.id, Counter(report.errors.values()))
            except Exception:
                client.close()
                raise

        return job

    def _bacnet_job(self, dev: BacnetDeviceSpec, client: BacnetClient):
        def job() -> None:
            dropped = Counter()
            self.pipeline.submit_many(
                client.read_points(dev.names or None, dev.id, dev.tags, dropped)
            )
            self._count_drops(dev.id, dropped)

        return job

    def _http_job(self, poll, name: str, getter=_default_getter):
        def job() -> None:
            stats: dict[str, int] = {}
            points = poll_http(poll, now_ns=self.clock_ns(), getter=getter, stats=stats)
            self.pipeline.submit_many(points)
            del stats["points"]
            self._count_drops(name, stats)

        return job

    def _count_drops(self, job: str, counts: Mapping[str, int]) -> None:
        """Add one poll's losses, by reason, to ``job``'s counts."""
        if counts:
            with self._drops_lock:
                self._drops.setdefault(job, Counter()).update(counts)

    # -- lifecycle --------------------------------------------------------------

    def start(self) -> "Gateway":
        self._started_ns = self.clock_ns()
        # a job's wake: interrupt for Modbus and HTTP, whose sockets only the job's
        # own thread closes; close for BACnet, whose recvfrom() no shutdown() ends
        jitter = self.config.gateway.jitter
        for dev in self.config.modbus_devices:
            client = ModbusClient(dev.host, dev.port, dev.unit, dev.policy, self.clock_ns)
            schedule = PollSchedule(dev.interval_s, jitter)
            job = self._modbus_job(dev, client)
            self.scheduler.add(dev.id, schedule, job, client.interrupt, client.close)
        for dev in self.config.bacnet_devices:
            from telegw.bacnet import BacnetClient, BacnetEndpoint  # only with a BACnet device

            ep = BacnetEndpoint(dev.host, dev.port, dev.device_instance, dev.timeout_ms, dev.retries)
            client = BacnetClient(ep, self.clock_ns)
            schedule = PollSchedule(dev.interval_s, jitter)
            self.scheduler.add(dev.id, schedule, self._bacnet_job(dev, client), client.close)
        for i, poll in enumerate(self.config.http_polls):
            from telegw.httpio import HttpClient  # loads http.client and ssl: only when polling

            http = HttpClient(POLL_TIMEOUT_S)
            name, schedule = f"http-{i}", PollSchedule(poll.interval_s, jitter)
            job = self._http_job(poll, name, partial(http.request, "GET"))
            self.scheduler.add(name, schedule, job, http.interrupt)
        if self.config.gateway.stats_path:
            self.scheduler.add(STATS_JOB, PollSchedule(30.0, 0.0), self.dump_stats)
        # threads start once every job is added and /health's port is bound: a
        # job the scheduler refuses (a name taken twice) or a taken port leaves none
        serve = self._open_health_listener()
        self.pipeline.start()
        for entry in self.config.brokers:
            bindings = list(entry.bindings)
            sub = Subscriber(entry.config, bindings, self.pipeline.submit, self.clock_ns)
            self.subscribers.append(sub.start())
        self.scheduler.start()
        serve.start()
        for warning in self.config.warnings:
            log.warning("%s", warning)
        return self

    def stop(self) -> None:
        # phase 1: stop intake so nothing new lands in the buffer
        for sub in self.subscribers:
            sub.stop()
        self.scheduler.stop()
        # phase 2: drain what is buffered, bounded, then stop the flusher
        self.pipeline.stop(drain_timeout_s=self.config.gateway.drain_timeout_s)
        self.alert_engine.stop()
        if self.config.gateway.stats_path:
            self.dump_stats()
        if self._health is not None:
            (listener, stopping, loop), self._health = self._health, None
            stopping.set()
            listener.shutdown(socket.SHUT_RDWR)  # wakes accept(); the loop closes the listener
            loop.join()

    # -- introspection ----------------------------------------------------------

    def _device_records(self) -> dict[str, JobRecord]:
        """The scheduler's records of the device and HTTP polls, without the stats dump."""
        return {name: r for name, r in self.scheduler.records().items() if name != STATS_JOB}

    def health_snapshot(self) -> dict:
        now = self.clock_ns()
        devices = {
            name: {
                "green": r.last_success_ns is not None and r.consecutive_failures == 0,
                "last_success_ns": r.last_success_ns,
                "consecutive_failures": r.consecutive_failures,
                "last_error": r.last_error,
            }
            for name, r in self._device_records().items()
        }
        sink_status = self.pipeline.last_flush_status
        sink_ok = sink_status is None or (isinstance(sink_status, int) and 200 <= sink_status < 300)
        degraded = (
            any(d["consecutive_failures"] >= 3 for d in devices.values())
            or not sink_ok
            or any(s.auth_failure for s in self.subscribers)
        )
        return {
            "status": "degraded" if degraded else "ok",
            "uptime_s": (now - self._started_ns) / 1e9 if self._started_ns else 0.0,
            "devices": devices,
            "brokers": {
                f"{s.broker.host}:{s.broker.port}": {
                    "points_out": s.points_out,
                    "parse_errors": s.parse_errors,
                    "reconnects": s.reconnects,
                    "auth_failure": s.auth_failure,
                }
                for s in self.subscribers
            },
            "pipeline": self.pipeline.counters(),
            "sink": {"last_flush_status": sink_status, "ok": sink_ok},
        }

    def metrics_snapshot(self) -> dict:
        with self._drops_lock:
            polls = {job: dict(counts) for job, counts in self._drops.items()}
        records = self._device_records()
        return {
            "pipeline": self.pipeline.counters(),
            "scheduler": {"runs": {name: r.runs for name, r in records.items()},
                          "errors": {name: r.errors for name, r in records.items()}},
            "polls": polls,
            "brokers": {f"{s.broker.host}:{s.broker.port}": dict(s.stats) for s in self.subscribers},
            "alerts": {
                "delivery_failures": self.alert_engine.delivery_failures,
                "disabled": len(self.alert_engine.disabled),
            },
        }

    def dump_stats(self) -> None:
        path = self.config.gateway.stats_path
        doc = stats_to_doc(self.pipeline.rate_stats())
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        os.replace(tmp, path)

    # -- health endpoint ----------------------------------------------------------

    def _open_health_listener(self) -> threading.Thread:
        routes = {
            "/health": self.health_snapshot,
            "/metrics": self.metrics_snapshot,
            "/stats": lambda: stats_to_doc(self.pipeline.rate_stats()),
        }
        gw = self.config.gateway
        listener = socket.create_server((gw.health_host, gw.health_port))  # sets SO_REUSEADDR
        self.health_port = listener.getsockname()[1]
        stopping = threading.Event()
        loop = threading.Thread(target=serve_forever, args=(listener, routes, stopping), daemon=True)
        self._health = (listener, stopping, loop)
        return loop


def serve_forever(listener: socket.socket, routes: dict, stopping: threading.Event) -> None:
    """Serve ``routes``, a path -> document function map, a thread per connection,
    until ``stopping`` is set and a shutdown() wakes ``accept()``; then close ``listener``."""
    with listener:
        while not stopping.is_set():
            try:
                conn, _ = listener.accept()
            except OSError:
                continue  # skipped, as is the accept() a stop's shutdown() ends
            threading.Thread(target=_serve_connection, args=(conn, routes), daemon=True).start()


def _serve_connection(conn: socket.socket, routes: dict) -> None:
    """One HTTP/1.0 request per connection. A GET of a routed path gets its
    JSON document; anything else gets an error status with a JSON body."""
    with conn, conn.makefile("rb") as rfile:
        try:
            conn.settimeout(IDLE_TIMEOUT_S)
            status, doc = _answer(rfile, routes)
            body = json.dumps(doc).encode("utf-8")
            head = (
                f"HTTP/1.0 {status.value} {status.phrase}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            )
            conn.sendall(head.encode("ascii") + body)
            conn.shutdown(socket.SHUT_WR)
        except OSError:
            pass  # the client left, or sent no whole request within the timeout


def _answer(rfile, routes: dict[str, Callable[[], dict]]) -> tuple[HTTPStatus, dict]:
    line = rfile.readline(MAX_LINE + 1)
    if len(line) > MAX_LINE:
        return HTTPStatus.REQUEST_URI_TOO_LONG, {"error": "request line too long"}
    words = line.split()
    if len(words) != 3 or not words[2].startswith(b"HTTP/"):
        return HTTPStatus.BAD_REQUEST, {"error": "malformed request line"}
    # read the headers so that closing the socket does not reset it
    for _ in range(MAX_HEADERS + 1):
        header = rfile.readline(MAX_LINE + 1)
        if len(header) > MAX_LINE:
            return HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE, {"error": "header line too long"}
        if header in (b"\r\n", b"\n", b""):
            break
    else:
        return HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE, {"error": "too many headers"}
    if words[0] != b"GET":
        return HTTPStatus.NOT_IMPLEMENTED, {"error": "only GET is served"}
    route = routes.get(words[1].decode("latin-1"))
    if route is None:
        return HTTPStatus.NOT_FOUND, {"error": "no such path"}
    return HTTPStatus.OK, route()
