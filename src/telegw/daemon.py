"""Process supervisor: one validated config in, a running gateway out.

The gateway owns a pipeline, an alert engine, one subscriber per broker,
and a scheduler thread per polled device. A device's poll job returns when
it delivered its points and raises when it did not; the scheduler records
either against that device, and ``/health`` reads those records. No failure
escapes a poller's thread; the process outlives any single dead dependency.
Shutdown is two-phase: intake stops first, then the pipeline drains into
the sink bounded by the configured timeout.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from datetime import date, timedelta
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from telegw.alerts import AlertEngine, LogNotifier, SmtpStubNotifier, WebhookNotifier
from telegw.bacnet import BacnetClient, BacnetEndpoint
from telegw.config import BacnetDeviceSpec, GatewayConfig, ModbusDeviceSpec, NotifierSpec
from telegw.ingest import Subscriber, poll_http
from telegw.modbus import ModbusClient
from telegw.pipeline import Pipeline, PollSchedule, Scheduler, stats_to_doc

log = logging.getLogger(__name__)
STATS_JOB = "stats-dump"  # writes stats_path; not a device


def build_notifiers(specs: tuple[NotifierSpec, ...]) -> list:
    out = []
    for spec in specs:
        if spec.type == "log":
            out.append(LogNotifier())
        elif spec.type == "webhook":
            out.append(WebhookNotifier(spec.url))
        else:
            out.append(SmtpStubNotifier(spec.spool_dir))
    return out


class Gateway:
    def __init__(self, config: GatewayConfig, clock_ns=time.time_ns):
        self.config = config
        self.clock_ns = clock_ns
        self.alert_engine = AlertEngine(
            list(config.alert_rules), build_notifiers(config.notifiers)
        )
        self.pipeline = Pipeline(
            config.sink,
            heartbeat_s=config.gateway.heartbeat_s,
            alert_engine=self.alert_engine,
            clock_ns=clock_ns,
        )
        self.scheduler = Scheduler()
        self.subscribers: list[Subscriber] = []
        self._bacnet_clients: dict[str, BacnetClient] = {}
        self._modbus_clients: dict[str, ModbusClient] = {}
        self._server: ThreadingHTTPServer | None = None
        self._server_thread: threading.Thread | None = None
        self._started_ns: int | None = None

        for dev in config.modbus_devices:
            self.scheduler.add(
                dev.id,
                PollSchedule(dev.interval_s, config.gateway.jitter),
                self._modbus_job(dev),
            )
        for dev in config.bacnet_devices:
            self.scheduler.add(
                dev.id,
                PollSchedule(dev.interval_s, config.gateway.jitter),
                self._bacnet_job(dev),
            )
        for i, poll in enumerate(config.http_polls):
            self.scheduler.add(
                f"http-{i}", PollSchedule(poll.interval_s, config.gateway.jitter), self._http_job(poll)
            )
        if config.gateway.stats_path:
            self.scheduler.add(STATS_JOB, PollSchedule(30.0, 0.0), self.dump_stats)

    # -- poller jobs ----------------------------------------------------------

    def _modbus_job(self, dev: ModbusDeviceSpec):
        def job() -> None:
            client = self._modbus_clients.get(dev.id)
            if client is None:
                client = ModbusClient(dev.host, dev.port, dev.unit, dev.policy)
                self._modbus_clients[dev.id] = client
            try:
                points = []
                if dev.bindings:
                    report = client.read_parameters(list(dev.bindings), dev.id, dev.tags)
                    points.extend(report.points)
                if dev.historical is not None:
                    day = date.today() - timedelta(days=dev.historical.days_back)
                    report = client.read_historical_block(
                        day, dev.historical.config, list(dev.historical.bindings), dev.id, dev.tags
                    )
                    points.extend(report.points)
            except Exception:
                client.close()
                raise
            self.pipeline.submit_many(points)

        return job

    def _bacnet_job(self, dev: BacnetDeviceSpec):
        def job() -> None:
            client = self._bacnet_clients.get(dev.id)
            if client is None:
                client = BacnetClient(
                    BacnetEndpoint(
                        dev.host,
                        dev.port,
                        device_instance=dev.device_instance,
                        timeout_ms=dev.timeout_ms,
                        retries=dev.retries,
                    )
                )
                self._bacnet_clients[dev.id] = client
            names = list(dev.names)
            if not names:
                names = [o.name for o in client.discover_objects()]
            self.pipeline.submit_many(client.read_points(names, dev.id, dev.tags))

        return job

    def _http_job(self, poll):
        def job() -> None:
            self.pipeline.submit_many(poll_http(poll, now_ns=self.clock_ns()))

        return job

    # -- lifecycle --------------------------------------------------------------

    def start(self) -> "Gateway":
        self._started_ns = self.clock_ns()
        self.pipeline.start()
        for entry in self.config.brokers:
            sub = Subscriber(entry.config, list(entry.bindings), self.pipeline.submit)
            self.subscribers.append(sub.start())
        self.scheduler.start()
        self._start_health_server()
        for warning in self.config.warnings:
            log.warning("%s", warning)
        return self

    def stop(self) -> None:
        # phase 1: stop intake so nothing new lands in the buffer
        for sub in self.subscribers:
            sub.stop()
        self.scheduler.stop()
        for client in self._modbus_clients.values():
            client.close()
        for client in self._bacnet_clients.values():
            client.close()
        # phase 2: drain what is buffered, bounded, then stop the flusher
        self.pipeline.stop(drain_timeout_s=self.config.gateway.drain_timeout_s)
        self.alert_engine.stop()
        if self.config.gateway.stats_path:
            self.dump_stats()
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None

    def __enter__(self) -> "Gateway":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- introspection ----------------------------------------------------------

    def health_snapshot(self) -> dict:
        now = self.clock_ns()
        devices = {
            name: {
                "green": r.last_success_ns is not None and r.consecutive_failures == 0,
                "last_success_ns": r.last_success_ns,
                "consecutive_failures": r.consecutive_failures,
                "last_error": r.last_error,
            }
            for name, r in self.scheduler.records().items()
            if name != STATS_JOB
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
            "pipeline": {
                "buffer_depth": self.pipeline.buffer_depth,
                **self.pipeline.counters(),
            },
            "sink": {"last_flush_status": sink_status, "ok": sink_ok},
        }

    def metrics_snapshot(self) -> dict:
        return {
            "pipeline": self.pipeline.counters(),
            "scheduler": {"runs": self.scheduler.job_runs, "errors": self.scheduler.job_errors},
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

    def _start_health_server(self) -> None:
        gateway = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):
                if self.path == "/health":
                    doc = gateway.health_snapshot()
                elif self.path == "/metrics":
                    doc = gateway.metrics_snapshot()
                elif self.path == "/stats":
                    doc = stats_to_doc(gateway.pipeline.rate_stats())
                else:
                    self.send_error(404)
                    return
                body = json.dumps(doc).encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        self._server = ThreadingHTTPServer(
            (self.config.gateway.health_host, self.config.gateway.health_port), Handler
        )
        self.health_port = self._server.server_address[1]
        # shutdown() waits for serve_forever to see its flag, which it checks
        # once per poll interval (0.5 s by default); this bounds stop().
        self._server_thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.02}, daemon=True
        )
        self._server_thread.start()
