import contextlib
import dataclasses
import http.server
import json
import os
import pathlib
import queue
import signal
import socket
import subprocess
import sys
import textwrap
import threading
import time
from datetime import date, timedelta

import pytest
import requests

from telegw.bacnet import BacnetClient, BacnetEndpoint, Timeout
from telegw.cli import main
from telegw.config import load_config
from telegw import daemon
from telegw.daemon import IDLE_TIMEOUT_S, Gateway
from telegw.modbus import ModbusClient, ReadyTimeout, RegisterCodec
from telegw.pipeline import PollSchedule
from telegw.mqtt import MqttClient
from telegw.sim import BacnetSim, FaultModel, ModbusSim, MqttBroker, SimObject

from bacnet_fixtures import EmptyListEntrySim, wide_inventory
from net_fixtures import full_listener, record_closers


def free_port() -> int:
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    return port


def write_config(tmp_path, text: str) -> str:
    p = tmp_path / "gw.yaml"
    p.write_text(textwrap.dedent(text), encoding="utf-8")
    return str(p)


@pytest.fixture
def meter_sim():
    sim = ModbusSim(unit=1)
    sim.load_value(6, RegisterCodec("u32", scale=0.1), 230.4)
    sim.load_value(0x1000, RegisterCodec("f32"), 3.25)
    with sim:
        yield sim


def daemon_config(tmp_path, modbus_port, broker_port, interval=0.3) -> str:
    return write_config(
        tmp_path,
        f"""
        gateway:
          health_port: 0
          jitter: 0
          drain_timeout_s: 3
        sink:
          mode: file
          path: {tmp_path}/out.lp
          batch_age_ms: 150
        brokers:
          - host: 127.0.0.1
            port: {broker_port}
            client_id: gw-test
            bindings:
              - topic: radon/+/report
                entity: "radon-{{1}}"
                tags: {{model: radoneye}}
                fields:
                  /radon: {{parameter: radon, unit: Bq/m3}}
        devices:
          - id: meter-1
            protocol: modbus
            host: 127.0.0.1
            port: {modbus_port}
            interval_s: {interval}
            tags: {{model: cem-c31}}
            registers:
              - {{name: voltage_l1, addr: 6, dtype: u32, scale: 0.1, unit: V}}
        alerts:
          rules:
            - {{id: radon-high, parameter: radon, predicate: gt, threshold: 300}}
          notifiers:
            - type: log
        """,
    )


def wait_until(predicate, timeout=8.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


# -------------------------------------------------------------------- daemon


def test_gateway_end_to_end(tmp_path, meter_sim):
    with MqttBroker() as broker:
        cfg = load_config(daemon_config(tmp_path, meter_sim.port, broker.port))
        gw = Gateway(cfg)
        gw.start()
        try:
            # modbus device polled and green within two intervals
            assert wait_until(lambda: gw.health_snapshot()["devices"]["meter-1"]["green"], 3)

            # a pushed point flows through broker -> subscriber -> pipeline
            assert wait_until(lambda: broker.session_count == 1, 3)
            pub = MqttClient("127.0.0.1", broker.port, "pub")
            pub.connect()
            pub.publish("radon/r1/report", b'{"radon": 351}', qos=1)
            pub.close()
            assert wait_until(lambda: gw.pipeline.received >= 2, 5)

            # health endpoint serves all three documents over HTTP
            base = f"http://127.0.0.1:{gw.health_port}"
            health = requests.get(f"{base}/health", timeout=2).json()
            assert health["status"] == "ok"
            assert health["devices"]["meter-1"]["consecutive_failures"] == 0
            metrics = requests.get(f"{base}/metrics", timeout=2).json()
            assert metrics["scheduler"]["runs"]["meter-1"] >= 1
            stats = requests.get(f"{base}/stats", timeout=2).json()
            assert "meter-1" in stats["entities"]
            assert stats["entities"]["radon-r1"]["kind"] == "radoneye"
        finally:
            gw.stop()
    text = (tmp_path / "out.lp").read_text()
    assert "voltage_l1,device=meter-1" in text
    assert "radon,device=radon-r1" in text


def _subscriber_threads() -> list:
    return [
        t for t in threading.enumerate()
        if getattr(getattr(t, "_target", None), "__name__", None) == "_run_subscriber"
    ]


def test_rejected_broker_login_degrades_health_and_stop_joins_subscribers(
    tmp_path, monkeypatch
):
    monkeypatch.setenv("GW_TEST_MQ_USER", "gw")
    monkeypatch.setenv("GW_TEST_MQ_PASS", "wrong")
    binding = '{topic: radon/+/report, entity: "radon-{1}", fields: {/radon: {parameter: radon}}}'
    with MqttBroker(auth={"gw": "right"}) as locked, MqttBroker() as open_broker:
        path = write_config(
            tmp_path,
            f"""
            gateway: {{health_port: 0, jitter: 0, drain_timeout_s: 1}}
            sink: {{mode: file, path: {tmp_path}/out.lp}}
            brokers:
              - host: 127.0.0.1
                port: {locked.port}
                username_env: GW_TEST_MQ_USER
                password_env: GW_TEST_MQ_PASS
                bindings: [{binding}]
              - host: 127.0.0.1
                port: {open_broker.port}
                bindings: [{binding}]
            """,
        )
        gw = Gateway(load_config(path))
        gw.start()
        try:
            key = f"127.0.0.1:{locked.port}"
            assert wait_until(lambda: gw.health_snapshot()["brokers"][key]["auth_failure"], 5)
            assert wait_until(lambda: open_broker.session_count == 1, 5)
            snap = gw.health_snapshot()
            assert snap["status"] == "degraded"
            assert snap["brokers"][f"127.0.0.1:{open_broker.port}"]["auth_failure"] is None
            assert len(_subscriber_threads()) == 1  # the open broker's
        finally:
            gw.stop()
        assert _subscriber_threads() == []


def test_health_endpoint_fast_while_device_stalls(tmp_path):
    # a listener that never accepts: connects succeed, replies never come
    stall = socket.socket()
    stall.bind(("127.0.0.1", 0))
    stall.listen(1)
    try:
        cfg = load_config(
            write_config(
                tmp_path,
                f"""
                gateway: {{health_port: 0, jitter: 0}}
                sink: {{mode: file, path: {tmp_path}/out.lp}}
                devices:
                  - id: dead-1
                    protocol: modbus
                    host: 127.0.0.1
                    port: {stall.getsockname()[1]}
                    interval_s: 60
                    io_timeout_ms: 30000
                    connect_timeout_ms: 30000
                    registers:
                      - {{name: v, addr: 0, dtype: u16}}
                """,
            )
        )
        gw = Gateway(cfg)
        gw.start()
        try:
            time.sleep(0.3)  # poller is now blocked waiting on the dead device
            base = f"http://127.0.0.1:{gw.health_port}"
            for _ in range(3):
                t0 = time.monotonic()
                resp = requests.get(f"{base}/health", timeout=2)
                assert time.monotonic() - t0 < 0.1
                assert resp.status_code == 200
            assert resp.json()["devices"]["dead-1"]["green"] is False
        finally:
            gw.stop()
    finally:
        stall.close()


def test_daemon_survives_dead_sink_and_reports_red(tmp_path, meter_sim):
    cfg = load_config(
        write_config(
            tmp_path,
            f"""
            gateway: {{health_port: 0, jitter: 0, drain_timeout_s: 0.5}}
            sink:
              mode: http
              url: http://127.0.0.1:{free_port()}/write
              batch_age_ms: 100
              retry_attempts: 1
              retry_backoff_ms: 50
            devices:
              - id: meter-1
                protocol: modbus
                host: 127.0.0.1
                port: {meter_sim.port}
                interval_s: 0.2
                registers:
                  - {{name: voltage_l1, addr: 6, dtype: u32, scale: 0.1}}
            """,
        )
    )
    gw = Gateway(cfg)
    gw.start()
    try:
        assert wait_until(lambda: gw.pipeline.flush_failures >= 1, 5)
        snap = gw.health_snapshot()
        assert snap["status"] == "degraded"
        assert snap["sink"]["ok"] is False
        # device polling is unaffected by the dead sink
        assert snap["devices"]["meter-1"]["green"] is True
        assert requests.get(f"http://127.0.0.1:{gw.health_port}/health", timeout=2).ok
    finally:
        gw.stop()


def test_http_poll_connection_error_shows_in_health(tmp_path):
    # nothing listens on the polled port, so requests raises ConnectionError
    cfg = load_config(
        write_config(
            tmp_path,
            f"""
            gateway: {{health_port: 0, jitter: 0}}
            sink: {{mode: file, path: {tmp_path}/out.lp}}
            http_polls:
              - url: http://127.0.0.1:{free_port()}/v1/plant
                interval_s: 60
                entity_array_pointer: /inverters
                entity_id_pointer: /sn
                fields:
                  /power: {{parameter: active_power, unit: W}}
            """,
        )
    )
    gw = Gateway(cfg).start()
    try:
        base = f"http://127.0.0.1:{gw.health_port}"

        def http_0():
            return requests.get(f"{base}/health", timeout=2).json()["devices"]["http-0"]

        assert wait_until(lambda: http_0()["consecutive_failures"] >= 1, 2)
        assert "ConnectionError" in http_0()["last_error"]
        assert http_0()["green"] is False
        metrics = requests.get(f"{base}/metrics", timeout=2).json()
        assert metrics["scheduler"]["errors"]["http-0"] >= 1
        assert metrics["scheduler"]["runs"]["http-0"] == 0
    finally:
        gw.stop()


def test_bacnet_device_is_discovered_once_and_again_after_a_failed_poll(tmp_path):
    objects = [
        SimObject("analog-value", 1, "zone-temp", units="degrees-celsius", value=21.5),
        SimObject("binary-input", 2, "occupancy", value=True),
    ]
    with BacnetSim(55002, objects) as sim:
        cfg = load_config(
            write_config(
                tmp_path,
                f"""
                gateway: {{health_port: 0}}
                sink: {{mode: file, path: {tmp_path}/out.lp}}
                devices:
                  - id: hvac-1
                    protocol: bacnet
                    host: 127.0.0.1
                    port: {sim.port}
                    device_instance: 55002
                    timeout_ms: 100
                    retries: 0
                    discover: true
                """,
            )
        )
        gw = Gateway(cfg)  # not started: the test runs the poll job itself
        dev = cfg.bacnet_devices[0]
        client = BacnetClient(
            BacnetEndpoint(sim.host, sim.port, device_instance=55002, timeout_ms=100, retries=0)
        )
        discoveries = []
        discover = client.discover_objects
        client.discover_objects = lambda: discoveries.append(1) or discover()
        job = gw._bacnet_job(dev, client)
        try:
            for _ in range(3):
                job()
            assert len(discoveries) == 1
            assert gw.pipeline.counters()["received"] == 6
            sim.drop_requests(1)
            with pytest.raises(Timeout):
                job()
            job()  # a failed poll may mean the device changed: discover again
            assert len(discoveries) == 2
            assert gw.pipeline.counters()["received"] == 8
        finally:
            client.close()


def test_failed_history_handshake_keeps_the_live_points_of_its_poll(tmp_path):
    sim = ModbusSim(unit=1, fault=FaultModel.delayed_ready(100))
    sim.load_value(6, RegisterCodec("u32", scale=0.1), 230.4)
    sim.load_value(20, RegisterCodec("f32"), 3.25)
    with sim:
        cfg = load_config(
            write_config(
                tmp_path,
                f"""
                gateway: {{health_port: 0}}
                sink: {{mode: file, path: {tmp_path}/out.lp}}
                devices:
                  - id: meter-1
                    protocol: modbus
                    host: 127.0.0.1
                    port: {sim.port}
                    registers:
                      - {{name: voltage_l1, addr: 6, dtype: u32, scale: 0.1, unit: V}}
                    historical:
                      poll_interval_ms: 1
                      max_polls: 2
                      registers:
                        - {{name: energy, addr: 20, dtype: f32, unit: kWh}}
                """,
            )
        )
        gw = Gateway(cfg)  # not started: the test runs the poll job itself
        dev = cfg.modbus_devices[0]
        job = gw._modbus_job(dev, ModbusClient(dev.host, dev.port, dev.unit, dev.policy))
        with pytest.raises(ReadyTimeout):
            job()  # the ready flag never comes up: the poll fails ...
        # ... but the live reading taken before the handshake is not lost
        assert gw.pipeline.counters()["received"] == 1


def test_the_gateway_clock_stamps_every_point_the_history_day_and_health(tmp_path, meter_sim):
    # noon UTC: the local date is the same day in every zone from -12 to +11 h
    fake_ns = 1_614_859_200_000_000_000  # 2021-03-04T12:00:00Z
    with MqttBroker() as broker:
        path = pathlib.Path(daemon_config(tmp_path, meter_sim.port, broker.port, interval=60))
        history = (  # meter-1's, after its registers
            "    historical:\n"
            "      registers:\n"
            "        - {name: energy, addr: 0x1000, dtype: f32, unit: kWh}\n"
        )
        path.write_text(path.read_text().replace("unit: V}\n", "unit: V}\n" + history))
        gw = Gateway(load_config(str(path)), clock_ns=lambda: fake_ns).start()
        try:
            assert wait_until(lambda: gw.scheduler.job_runs["meter-1"] == 1, 5)
            assert wait_until(lambda: broker.session_count == 1, 5)
            pub = MqttClient("127.0.0.1", broker.port, "pub")
            pub.connect()
            pub.publish("radon/r1/report", b'{"radon": 120}', qos=1)  # no timestamp pointer
            pub.close()
            assert wait_until(lambda: gw.pipeline.received >= 3, 5)
            health = requests.get(f"http://127.0.0.1:{gw.health_port}/health", timeout=2).json()
            assert health["devices"]["meter-1"]["last_success_ns"] == fake_ns
        finally:
            gw.stop()
    lines = (tmp_path / "out.lp").read_text(encoding="utf-8").splitlines()
    assert sorted(line.split(",")[0] for line in lines) == ["energy", "radon", "voltage_l1"]
    assert {line.rsplit(" ", 1)[1] for line in lines} == {str(fake_ns)}
    day = date.fromtimestamp(fake_ns // 10**9) - timedelta(days=1)
    assert f"date={day.isoformat()}" in next(line for line in lines if line.startswith("energy"))


def test_poll_losses_are_counted_by_job_and_reason_in_metrics(tmp_path):
    sim = ModbusSim(unit=1, fault=FaultModel.exception_on(8))
    sim.load_value(6, RegisterCodec("u16"), 230)
    sim.load_value(8, RegisterCodec("u16"), 5)
    objects = [
        SimObject("analog-value", 1, "zone-temp", value=21.5),
        SimObject("binary-input", 2, "occupancy", value=True),
    ]
    served = {"inverters": [{"sn": "a", "power": "high"}, {"power": 5}, {"sn": "b", "power": 7}]}

    class Plant(http.server.BaseHTTPRequestHandler):
        def do_GET(self):
            body = json.dumps(served).encode()
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    plant = http.server.HTTPServer(("127.0.0.1", 0), Plant)
    threading.Thread(target=plant.serve_forever, daemon=True).start()
    with sim, BacnetSim(55004, objects) as bsim:
        cfg = load_config(
            write_config(
                tmp_path,
                f"""
                gateway: {{health_port: 0}}
                sink: {{mode: file, path: {tmp_path}/out.lp}}
                devices:
                  - id: meter-1
                    protocol: modbus
                    host: 127.0.0.1
                    port: {sim.port}
                    registers:
                      - {{name: voltage, addr: 6, dtype: u16}}
                      - {{name: current, addr: 8, dtype: u16}}
                  - id: hvac-1
                    protocol: bacnet
                    host: 127.0.0.1
                    port: {bsim.port}
                    device_instance: 55004
                    timeout_ms: 200
                    discover: true
                http_polls:
                  - url: http://127.0.0.1:{plant.server_address[1]}/v1/plant
                    interval_s: 60
                    entity_array_pointer: /inverters
                    entity_id_pointer: /sn
                    fields:
                      /power: {{parameter: power}}
                """,
            )
        )
        gw = Gateway(cfg)  # not started: the test runs the poll jobs itself
        modbus_dev, bacnet_dev = cfg.modbus_devices[0], cfg.bacnet_devices[0]
        client = BacnetClient(BacnetEndpoint(bsim.host, bsim.port, 55004, 200, 0))
        jobs = [
            gw._modbus_job(modbus_dev, ModbusClient(sim.host, sim.port)),
            gw._bacnet_job(bacnet_dev, client),
            gw._http_job(cfg.http_polls[0], "http-0"),
        ]
        try:
            for job in jobs:
                job()
            del bsim.objects[objects[1].ref]  # gone after discovery: answered with an error
            for job in jobs:
                job()
        finally:
            client.close()
            plant.shutdown()
            plant.server_close()
    assert gw.metrics_snapshot()["polls"] == {
        "meter-1": {"illegal-data-address": 2},
        "hvac-1": {"unknown-object": 1},
        "http-0": {"type_errors": 2, "missing_entity_ids": 2},
    }
    # voltage twice, zone-temp twice and occupancy once, inverter b twice
    assert gw.pipeline.counters()["received"] == 7


def test_drop_counts_lose_no_update_across_job_threads(tmp_path):
    gw = Gateway(load_config(write_config(tmp_path, "sink: {mode: file, path: out.lp}\n")))
    jobs, polls = [f"job-{i}" for i in range(8)], 5000
    reasons = dict(zip("abcdef", range(1, 7)))
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(
                target=lambda job=job: [
                    gw._count_drops(job, reasons) for _ in range(polls)
                ]
            )
            for job in jobs
        ]
        for t in threads:
            t.start()
        while any(t.is_alive() for t in threads):
            for counts in gw.metrics_snapshot()["polls"].values():
                # one poll's counts land together
                assert counts == {k: n * counts["a"] for k, n in reasons.items()}
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(old)
    totals = {k: n * polls for k, n in reasons.items()}
    assert gw.metrics_snapshot()["polls"] == {job: totals for job in jobs}


def test_bacnet_device_with_names_recovers_once_a_missing_object_appears(tmp_path):
    zone = SimObject("analog-value", 1, "zone-temp", units="degrees-celsius", value=21.5)
    with BacnetSim(55003, [zone]) as sim:
        cfg = load_config(
            write_config(
                tmp_path,
                f"""
                gateway: {{health_port: 0, jitter: 0}}
                sink: {{mode: file, path: {tmp_path}/out.lp}}
                devices:
                  - id: hvac-1
                    protocol: bacnet
                    host: 127.0.0.1
                    port: {sim.port}
                    device_instance: 55003
                    timeout_ms: 200
                    retries: 0
                    interval_s: 0.05
                    names: [zone-temp, occupancy]
                """,
            )
        )
        gw = Gateway(cfg).start()
        try:
            assert wait_until(lambda: gw.scheduler.job_errors["hvac-1"] >= 1, 5)
            assert "UnknownName" in gw.health_snapshot()["devices"]["hvac-1"]["last_error"]
            # the object shows up after the first poll, as on a controller still booting
            late = SimObject("binary-input", 2, "occupancy", value=True)
            sim.objects[late.ref] = late
            sim.order.append(late.ref)
            assert wait_until(lambda: gw.health_snapshot()["devices"]["hvac-1"]["green"], 5)
            assert wait_until(lambda: gw.pipeline.counters()["received"] >= 2, 5)
        finally:
            gw.stop()


def test_modbus_device_recovers_after_its_connection_drops(tmp_path):
    codec = RegisterCodec("u32", scale=0.1)
    first = ModbusSim(unit=1)
    first.load_value(6, codec, 230.4)
    first.start()
    cfg = load_config(
        write_config(
            tmp_path,
            f"""
            gateway: {{health_port: 0, jitter: 0}}
            sink: {{mode: file, path: {tmp_path}/out.lp, batch_age_ms: 20}}
            devices:
              - {{id: meter-1, protocol: modbus, host: 127.0.0.1, port: {first.port},
                  interval_s: 0.05, mode: persistent, retries: 0,
                  connect_timeout_ms: 200, io_timeout_ms: 200,
                  registers: [{{name: voltage_l1, addr: 6, dtype: u32, scale: 0.1}}]}}
            """,
        )
    )
    gw = Gateway(cfg).start()
    second = None
    try:
        assert wait_until(lambda: gw.scheduler.job_runs["meter-1"] >= 2, 5)
        first.stop()  # drops the kept connection and refuses new ones
        assert wait_until(lambda: gw.scheduler.job_errors["meter-1"] >= 1, 5)
        runs = gw.scheduler.job_runs["meter-1"]
        second = ModbusSim(unit=1, port=first.port)
        second.load_value(6, codec, 231.5)
        second.start()
        assert wait_until(lambda: gw.scheduler.job_runs["meter-1"] >= runs + 3, 5)
        health = gw.health_snapshot()["devices"]["meter-1"]
        assert health["consecutive_failures"] == 0
        assert health["last_error"] is None
        out = tmp_path / "out.lp"
        assert wait_until(lambda: "value=231.5 " in out.read_text(encoding="utf-8"), 5)
    finally:
        gw.stop()
        if second is not None:
            second.stop()
        first.stop()


def test_stats_path_is_written_on_stop_and_read_by_the_stats_command(tmp_path, meter_sim):
    path = tmp_path / "stats.json"
    cfg = load_config(
        write_config(
            tmp_path,
            f"""
            gateway: {{health_port: 0, jitter: 0, stats_path: {path}}}
            sink: {{mode: file, path: {tmp_path}/out.lp, batch_age_ms: 20}}
            devices:
              - id: meter-1
                protocol: modbus
                host: 127.0.0.1
                port: {meter_sim.port}
                interval_s: 60
                registers:
                  - {{name: voltage_l1, addr: 6, dtype: u32, scale: 0.1}}
            """,
        )
    )
    # a clock the test moves, so the window's end, and with it the document, holds still
    now = [1_700_000_000_000_000_000]
    gw = Gateway(cfg, clock_ns=lambda: now[0]).start()
    try:
        assert wait_until(lambda: gw.scheduler.job_runs["meter-1"] == 1, 5)
        now[0] += 60_000_000_000
        served = requests.get(f"http://127.0.0.1:{gw.health_port}/stats", timeout=2).json()
    finally:
        gw.stop()
    assert served["entities"]["meter-1"]["received"] == 1
    assert json.loads(path.read_text(encoding="utf-8")) == served
    assert not os.path.exists(f"{path}.tmp")
    assert main(["stats", "--file", str(path), "--json"]) == 0


def test_three_failed_polls_degrade_health_and_one_success_resets(tmp_path):
    cfg = load_config(
        write_config(
            tmp_path,
            f"""
            gateway: {{health_port: 0}}
            sink: {{mode: file, path: {tmp_path}/out.lp}}
            """,
        )
    )
    gw = Gateway(cfg)
    outcomes: queue.Queue = queue.Queue()
    released = threading.Event()

    def job():
        # one scripted outcome per poll: None returns, an exception is raised
        if released.is_set():
            return
        error = outcomes.get(timeout=5)
        if error is not None:
            raise error

    gw.scheduler.add("fake-1", PollSchedule(0.001), job)
    gw.start()
    try:
        for i in range(3):
            outcomes.put(OSError(f"timed out {i}"))
        assert wait_until(lambda: gw.scheduler.job_errors["fake-1"] == 3, 2)
        snap = gw.health_snapshot()
        assert snap["status"] == "degraded"
        assert snap["devices"] == {
            "fake-1": {
                "green": False,
                "last_success_ns": None,
                "consecutive_failures": 3,
                "last_error": "OSError: timed out 2",
            }
        }
        outcomes.put(None)
        assert wait_until(lambda: gw.scheduler.job_runs["fake-1"] == 1, 2)
        snap = gw.health_snapshot()
        assert snap["status"] == "ok"
        dev = snap["devices"]["fake-1"]
        assert (dev["green"], dev["consecutive_failures"], dev["last_error"]) == (True, 0, None)
        assert dev["last_success_ns"] is not None
        assert gw.scheduler.job_errors["fake-1"] == 3
    finally:
        released.set()
        outcomes.put(None)
        gw.stop()


def test_metrics_report_ingest_counts_per_broker(tmp_path):
    with MqttBroker() as broker:
        path = write_config(
            tmp_path,
            f"""
            gateway: {{health_port: 0}}
            sink: {{mode: file, path: {tmp_path}/out.lp}}
            brokers:
              - host: 127.0.0.1
                port: {broker.port}
                bindings:
                  - topic: radon/+/report
                    entity: "radon-{{1}}"
                    timestamp_pointer: /ts
                    fields:
                      /radon: {{parameter: radon}}
            """,
        )
        gw = Gateway(load_config(path)).start()
        try:
            key = f"127.0.0.1:{broker.port}"
            zero = {"points": 0, "ignored_fields": 0, "type_errors": 0, "bad_timestamps": 0}
            assert gw.metrics_snapshot()["brokers"] == {key: zero}
            assert wait_until(lambda: broker.session_count == 1, 5)
            pub = MqttClient("127.0.0.1", broker.port, "pub")
            pub.connect()
            pub.publish("radon/r1/report", b'{"radon": 351, "ts": "late", "extra": 1}', qos=1)
            pub.publish("radon/r1/report", b'{"radon": "high", "ts": 1700000000}', qos=1)
            pub.close()
            base = f"http://127.0.0.1:{gw.health_port}"

            def counts():
                return requests.get(f"{base}/metrics", timeout=2).json()["brokers"][key]

            assert wait_until(lambda: counts()["type_errors"] == 1, 5)
            assert counts() == {"points": 1, "ignored_fields": 1, "type_errors": 1, "bad_timestamps": 1}
        finally:
            gw.stop()



def test_stop_is_prompt_without_sources(tmp_path):
    cfg = load_config(
        write_config(
            tmp_path,
            f"""
            gateway: {{health_port: 0}}
            sink: {{mode: file, path: {tmp_path}/out.lp}}
            """,
        )
    )
    gw = Gateway(cfg).start()
    time.sleep(0.1)
    t0 = time.monotonic()
    gw.stop()
    elapsed = time.monotonic() - t0
    assert elapsed < 0.1, f"stop() took {elapsed * 1000:.0f} ms"


def test_stop_wakes_the_health_listener_at_once_and_closes_it(tmp_path):
    cfg = load_config(
        write_config(
            tmp_path,
            f"""
            gateway: {{health_port: 0}}
            sink: {{mode: file, path: {tmp_path}/out.lp}}
            """,
        )
    )
    for _ in range(5):
        gw = Gateway(cfg).start()
        t0 = time.monotonic()
        gw.stop()
        elapsed = time.monotonic() - t0
        assert elapsed < 0.01, f"stop() took {elapsed * 1000:.1f} ms"
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(("127.0.0.1", gw.health_port), timeout=1).close()


@contextlib.contextmanager
def _silent_device(kind: str):
    """The port of a device that never answers: a TCP listener whose connects
    succeed from its backlog ("modbus"), one whose full backlog leaves every
    connect waiting ("modbus-connect"), or a bound UDP socket ("bacnet")."""
    if kind == "modbus-connect":
        with full_listener() as port:
            yield port
        return
    tcp = kind == "modbus"
    with socket.socket(type=socket.SOCK_STREAM if tcp else socket.SOCK_DGRAM) as sock:
        sock.bind(("127.0.0.1", 0))
        if tcp:
            sock.listen(1)
        yield sock.getsockname()[1]


_SILENT_DEVICE = {
    "modbus": "io_timeout_ms: 30000, connect_timeout_ms: 30000,"
    " registers: [{name: v, addr: 0, dtype: u16}]",
    "bacnet": "device_instance: 1, timeout_ms: 30000, retries: 3, discover: true",
}


@pytest.mark.parametrize("kind", ["modbus", "bacnet", "modbus-connect"])
def test_stop_wakes_a_poll_blocked_on_a_silent_device(tmp_path, kind):
    protocol = kind.split("-")[0]
    with _silent_device(kind) as port:
        cfg = load_config(
            write_config(
                tmp_path,
                f"""
                gateway: {{health_port: 0, jitter: 0}}
                sink: {{mode: file, path: {tmp_path}/out.lp}}
                devices:
                  - {{id: dead-1, protocol: {protocol}, host: 127.0.0.1, port: {port},
                      interval_s: 60, {_SILENT_DEVICE[protocol]}}}
                """,
            )
        )
        gw = Gateway(cfg).start()
        time.sleep(0.3)  # the poll is now blocked waiting for a reply, or a connect
        t0 = time.monotonic()
        gw.stop()
        elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"stop() took {elapsed:.2f} s"
    # the woken poll was cancelled by the stop; the device did not fail it
    assert gw.scheduler.job_errors == {"dead-1": 0}


def test_stop_leaves_a_bacnet_socket_to_its_poll_thread(tmp_path, monkeypatch):
    # a descriptor closed under the poll's recvfrom() may be reused by then
    clients = []

    class RecordedClient(BacnetClient):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            clients.append(self)

    monkeypatch.setattr("telegw.bacnet.BacnetClient", RecordedClient)  # imported by start()
    with _silent_device("bacnet") as port:
        cfg = load_config(
            write_config(
                tmp_path,
                f"""
                gateway: {{health_port: 0, jitter: 0}}
                sink: {{mode: file, path: {tmp_path}/out.lp}}
                devices:
                  - {{id: dead-1, protocol: bacnet, host: 127.0.0.1, port: {port},
                      interval_s: 60, {_SILENT_DEVICE["bacnet"]}}}
                """,
            )
        )
        gw = Gateway(cfg).start()
        closers, poll = record_closers(monkeypatch, clients[0]._sock), gw.scheduler._threads[0]
        time.sleep(0.3)  # the poll is now blocked waiting for a reply
        t0 = time.monotonic()
        gw.stop()
        elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"stop() took {elapsed:.2f} s"
    assert closers == [poll]
    assert gw.scheduler.job_errors == {"dead-1": 0}


def test_stop_ends_a_modbus_history_handshake_between_ready_polls(tmp_path):
    with ModbusSim(unit=1, fault=FaultModel.delayed_ready(10**6)) as sim:
        cfg = load_config(
            write_config(
                tmp_path,
                f"""
                gateway: {{health_port: 0, jitter: 0}}
                sink: {{mode: file, path: {tmp_path}/out.lp}}
                devices:
                  - id: meter-1
                    protocol: modbus
                    host: 127.0.0.1
                    port: {sim.port}
                    interval_s: 60
                    historical:
                      poll_interval_ms: 3000
                      registers:
                        - {{name: energy, addr: 20, dtype: f32, unit: kWh}}
                """,
            )
        )
        gw = Gateway(cfg).start()
        time.sleep(0.3)  # the handshake now waits out its pause after a ready-flag poll
        t0 = time.monotonic()
        gw.stop()
        elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"stop() took {elapsed:.2f} s"
    assert gw.scheduler.job_errors == {"meter-1": 0}


def test_stop_wakes_an_http_poll_blocked_on_a_silent_server(tmp_path):
    # connects succeed from the listener's backlog; no request is ever read
    with socket.create_server(("127.0.0.1", 0), backlog=1) as server:
        port = server.getsockname()[1]
        cfg = load_config(
            write_config(
                tmp_path,
                f"""
                gateway: {{health_port: 0, jitter: 0}}
                sink: {{mode: file, path: {tmp_path}/out.lp}}
                http_polls:
                  - url: http://127.0.0.1:{port}/v1/plant
                    interval_s: 60
                    entity_array_pointer: /items
                    entity_id_pointer: /id
                    fields: {{/v: {{parameter: v}}}}
                """,
            )
        )
        gw = Gateway(cfg).start()
        time.sleep(0.3)  # the poll is now blocked waiting for an answer
        t0 = time.monotonic()
        gw.stop()
        elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"stop() took {elapsed:.2f} s"
    # the woken poll was cancelled by the stop; the poll did not fail
    assert gw.scheduler.job_errors == {"http-0": 0}


@contextlib.contextmanager
def _silent_http_server(kind: str):
    """The URL of a server that leaves a poll waiting: in its TLS handshake,
    since no ClientHello is answered ("https"), or in its TCP connect, since
    the listener's accept queue is full ("http-connect")."""
    if kind == "https":
        with socket.create_server(("127.0.0.1", 0)) as server:
            yield f"https://127.0.0.1:{server.getsockname()[1]}/v1/plant"
    else:
        with full_listener() as port:
            yield f"http://127.0.0.1:{port}/v1/plant"


@pytest.mark.parametrize("kind", ["https", "http-connect"])
def test_stop_wakes_an_http_poll_in_its_connect_or_tls_handshake(tmp_path, kind):
    with _silent_http_server(kind) as url:
        cfg = load_config(
            write_config(
                tmp_path,
                f"""
                gateway: {{health_port: 0, jitter: 0}}
                sink: {{mode: file, path: {tmp_path}/out.lp}}
                http_polls:
                  - url: {url}
                    interval_s: 60
                    entity_array_pointer: /items
                    entity_id_pointer: /id
                    fields: {{/v: {{parameter: v}}}}
                """,
            )
        )
        gw = Gateway(cfg).start()
        time.sleep(0.3)  # the poll is now blocked in its handshake, or its connect
        t0 = time.monotonic()
        gw.stop()
        elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"stop() took {elapsed:.2f} s"
    assert gw.scheduler.job_errors == {"http-0": 0}


def _health_port_taken_config(tmp_path, port: int, broker_port: int) -> str:
    return write_config(
        tmp_path,
        f"""
        gateway: {{health_host: 127.0.0.1, health_port: {port}}}
        sink: {{mode: file, path: {tmp_path}/out.lp}}
        brokers:
          - host: 127.0.0.1
            port: {broker_port}
            bindings:
              - topic: radon/+/report
                entity: "radon-{{1}}"
                fields:
                  /radon: {{parameter: radon}}
        """,
    )


def test_a_taken_health_port_fails_start_before_any_thread_starts(tmp_path):
    with socket.create_server(("127.0.0.1", 0)) as taken, MqttBroker() as broker:
        cfg = load_config(_health_port_taken_config(tmp_path, taken.getsockname()[1], broker.port))
        before = threading.active_count()
        with pytest.raises(OSError):
            Gateway(cfg).start()
        time.sleep(0.2)  # a subscriber, had one started, would be connected by now
        assert threading.active_count() == before
        assert broker.session_count == 0


def test_run_reports_a_taken_health_port_in_one_line(tmp_path):
    with socket.create_server(("127.0.0.1", 0)) as taken, MqttBroker() as broker:
        config = _health_port_taken_config(tmp_path, taken.getsockname()[1], broker.port)
        done = subprocess.run(
            [sys.executable, "-m", "telegw.cli", "run", "-c", config],
            capture_output=True, text=True, timeout=30,
        )
    assert done.returncode == 1
    assert done.stderr.startswith("health endpoint: ") and done.stderr.count("\n") == 1, done.stderr
    assert "Traceback" not in done.stderr


def test_stop_closes_a_persistent_modbus_connection(tmp_path, meter_sim, monkeypatch):
    clients = []

    class RecordedClient(ModbusClient):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            clients.append(self)

    monkeypatch.setattr(daemon, "ModbusClient", RecordedClient)
    cfg = load_config(
        write_config(
            tmp_path,
            f"""
            gateway: {{health_port: 0, jitter: 0}}
            sink: {{mode: file, path: {tmp_path}/out.lp}}
            devices:
              - {{id: meter-1, protocol: modbus, host: 127.0.0.1, port: {meter_sim.port},
                  interval_s: 0.05, mode: persistent,
                  registers: [{{name: voltage_l1, addr: 6, dtype: u32, scale: 0.1}}]}}
            """,
        )
    )
    gw = Gateway(cfg).start()
    deadline = time.monotonic() + 3
    while gw.scheduler.job_runs["meter-1"] < 3 and time.monotonic() < deadline:
        time.sleep(0.01)
    assert clients[0]._sock is not None  # the connection is kept between polls
    t0 = time.monotonic()
    gw.stop()
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"stop() took {elapsed:.2f} s"
    assert clients[0]._sock is None
    assert gw.scheduler.job_errors == {"meter-1": 0}


def test_start_and_stop_leave_no_descriptor_or_thread_behind(tmp_path, meter_sim):
    zone = SimObject("analog-value", 1, "zone-temp", units="degrees-celsius", value=21.5)
    with BacnetSim(55005, [zone]) as bsim:
        cfg = load_config(
            write_config(
                tmp_path,
                f"""
                gateway: {{health_port: 0, jitter: 0}}
                sink: {{mode: file, path: {tmp_path}/out.lp}}
                devices:
                  - {{id: meter-1, protocol: modbus, host: 127.0.0.1, port: {meter_sim.port},
                      interval_s: 0.05, mode: persistent,
                      registers: [{{name: voltage_l1, addr: 6, dtype: u32, scale: 0.1}}]}}
                  - {{id: hvac-1, protocol: bacnet, host: 127.0.0.1, port: {bsim.port},
                      device_instance: 55005, interval_s: 0.05, discover: true}}
                """,
            )
        )

        def in_use():  # descriptors count as 0 where /proc/self/fd is absent
            fds = len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else 0
            return fds, threading.active_count()

        before = in_use()
        for _ in range(30):
            gw = Gateway(cfg).start()
            try:
                assert wait_until(lambda: min(gw.scheduler.job_runs.values()) > 0, 5, 0.005)
            finally:
                gw.stop()
        # a simulator ends its side of a connection a moment after the gateway;
        # fewer is fine, since what an earlier test left may end meanwhile
        back = lambda: all(now <= was for now, was in zip(in_use(), before))
        assert wait_until(back, 5), (in_use(), before)


def test_metrics_count_the_devices_and_not_the_stats_dump(tmp_path, meter_sim):
    cfg = load_config(
        write_config(
            tmp_path,
            f"""
            gateway: {{health_port: 0, jitter: 0, stats_path: {tmp_path}/stats.json}}
            sink: {{mode: file, path: {tmp_path}/out.lp}}
            devices:
              - {{id: meter-1, protocol: modbus, host: 127.0.0.1, port: {meter_sim.port},
                  interval_s: 60, registers: [{{name: voltage_l1, addr: 6, dtype: u32}}]}}
            """,
        )
    )
    gw = Gateway(cfg).start()
    try:
        assert wait_until(lambda: gw.scheduler.job_runs["meter-1"] == 1, 5)
        assert wait_until(lambda: os.path.exists(f"{tmp_path}/stats.json"), 5)
        scheduler = gw.metrics_snapshot()["scheduler"]
        devices = gw.health_snapshot()["devices"]
    finally:
        gw.stop()
    assert scheduler == {"runs": {"meter-1": 1}, "errors": {"meter-1": 0}}
    assert list(devices) == ["meter-1"]


def test_a_job_name_taken_twice_starts_nothing(tmp_path):
    """A config built in code skips load_config's check on device ids; the
    scheduler refuses the second job before the gateway starts a thread."""
    cfg = load_config(
        write_config(
            tmp_path,
            f"""
            gateway: {{health_port: 0}}
            sink: {{mode: file, path: {tmp_path}/out.lp}}
            devices:
              - {{id: meter-1, protocol: modbus, host: 127.0.0.1,
                  registers: [{{name: v, addr: 0, dtype: u16}}]}}
            """,
        )
    )
    cfg = dataclasses.replace(cfg, modbus_devices=cfg.modbus_devices * 2)
    before = set(threading.enumerate())
    with pytest.raises(ValueError, match="'meter-1'"):
        Gateway(cfg).start()
    assert set(threading.enumerate()) <= before


# ------------------------------------------------------------ health endpoint


@pytest.fixture
def bare_gateway(tmp_path):
    cfg = load_config(
        write_config(
            tmp_path,
            f"""
            gateway: {{health_port: 0}}
            sink: {{mode: file, path: {tmp_path}/out.lp}}
            """,
        )
    )
    gw = Gateway(cfg).start()
    try:
        yield gw
    finally:
        gw.stop()


def _exchange(port: int, request: bytes) -> bytes:
    """Send ``request`` on a connection of its own; read until the server closes it."""
    reply = b""
    with socket.create_connection(("127.0.0.1", port), timeout=5) as s:
        s.sendall(request)
        try:
            while chunk := s.recv(65536):
                reply += chunk
        except ConnectionResetError:
            pass  # closed with part of the request unread, after its reply
    return reply


def _status(reply: bytes) -> int:
    version, status, _reason = reply.split(b"\r\n", 1)[0].split(b" ", 2)
    assert version == b"HTTP/1.0"
    return int(status)


@pytest.mark.parametrize(
    "request_bytes, status",
    [
        (b"GET /nope HTTP/1.0\r\n\r\n", 404),
        (b"GET /health?verbose=1 HTTP/1.1\r\nHost: x\r\n\r\n", 404),
        (b"POST /health HTTP/1.0\r\nContent-Length: 0\r\n\r\n", 501),
        (b"HEAD /health HTTP/1.0\r\n\r\n", 501),
        (b"garbage\r\n\r\n", 400),
        (b"GET /health HTTP/1.0 extra\r\n\r\n", 400),
        (b"GET /health HTTP/1.0\r\n" + b"X-A: b\r\n" * 100 + b"\r\n", 200),
        (b"GET /health HTTP/1.0\r\n" + b"X-A: b\r\n" * 101 + b"\r\n", 431),
        (b"GET /health HTTP/1.0\r\nX-A: " + b"b" * 65536 + b"\r\n\r\n", 431),
    ],
)
def test_health_endpoint_status_codes(bare_gateway, request_bytes, status):
    assert _status(_exchange(bare_gateway.health_port, request_bytes)) == status


def test_health_endpoint_refuses_an_overlong_request_line_unread(bare_gateway):
    # no line end follows, so only a server that stops at the limit can answer
    reply = _exchange(bare_gateway.health_port, b"GET /" + b"a" * 65536)
    assert _status(reply) == 414


@pytest.mark.parametrize("path", ["/health", "/metrics", "/stats"])
def test_health_endpoint_reply_carries_json_and_its_length(bare_gateway, path):
    reply = _exchange(bare_gateway.health_port, f"GET {path} HTTP/1.1\r\nHost: x\r\n\r\n".encode())
    head, body = reply.split(b"\r\n\r\n", 1)
    status_line, *header_lines = head.split(b"\r\n")
    assert status_line == b"HTTP/1.0 200 OK"
    headers = dict(line.split(b": ", 1) for line in header_lines)
    assert headers[b"Content-Type"] == b"application/json"
    assert int(headers[b"Content-Length"]) == len(body)
    assert isinstance(json.loads(body), dict)


def test_idle_connection_neither_delays_health_nor_stays_open(bare_gateway):
    port = bare_gateway.health_port
    with socket.create_connection(("127.0.0.1", port)) as idle:
        opened = time.monotonic()
        assert _status(_exchange(port, b"GET /health HTTP/1.0\r\n\r\n")) == 200
        assert time.monotonic() - opened < 0.5
        idle.settimeout(IDLE_TIMEOUT_S + 5)
        assert idle.recv(1) == b""  # the server closed it, without a reply
        assert IDLE_TIMEOUT_S - 0.1 <= time.monotonic() - opened < IDLE_TIMEOUT_S + 1

def test_run_subcommand_drains_on_sigterm(tmp_path, meter_sim):
    port = free_port()
    config = write_config(
        tmp_path,
        f"""
        gateway: {{health_host: 127.0.0.1, health_port: {port}, jitter: 0, drain_timeout_s: 3}}
        sink: {{mode: file, path: {tmp_path}/out.lp, batch_age_ms: 100}}
        devices:
          - id: meter-1
            protocol: modbus
            host: 127.0.0.1
            port: {meter_sim.port}
            interval_s: 0.2
            registers:
              - {{name: voltage_l1, addr: 6, dtype: u32, scale: 0.1}}
        """,
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "telegw.cli", "run", "-c", config],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        assert wait_until(
            lambda: _health_ok(port), timeout=10
        ), "daemon never served /health"
        time.sleep(1.0)  # let it poll a few times
        proc.send_signal(signal.SIGTERM)
        rc = proc.wait(timeout=15)
        assert rc == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    out = proc.stdout.read()
    assert "draining" in out
    lp = (tmp_path / "out.lp").read_text()
    assert "voltage_l1,device=meter-1" in lp


def _health_ok(port: int) -> bool:
    try:
        return requests.get(f"http://127.0.0.1:{port}/health", timeout=0.5).ok
    except requests.RequestException:
        return False


# ----------------------------------------------------------------- validate


def test_validate_ok(tmp_path, capsys):
    config = write_config(
        tmp_path,
        """
        sink: {mode: file, path: out.lp}
        devices:
          - id: m
            protocol: modbus
            host: h
            registers: [{name: v, addr: 0, dtype: u16}]
        """,
    )
    assert main(["validate", "-c", config]) == 0
    out = capsys.readouterr().out
    assert out.startswith("OK: 1 modbus")


def test_validate_reports_all_problems(tmp_path, capsys):
    config = write_config(
        tmp_path,
        """
        sink: {mode: file, path: out.lp, compression: on}
        devices:
          - {id: a, protocol: modbus, host: h, registers: [{name: v, addr: 0, dtype: u99}]}
          - {id: a, protocol: bacnet, host: h, discover: true}
        """,
    )
    assert main(["validate", "-c", config]) == 2
    err = capsys.readouterr().err
    assert "sink.compression" in err
    assert "u99" in err
    assert "duplicate device id" in err



def test_validate_reports_empty_topic_filter(tmp_path, capsys):
    config = write_config(
        tmp_path,
        """
        sink: {mode: file, path: out.lp}
        brokers:
          - host: h
            bindings: [{topic: "", entity: e, fields: {/v: {parameter: v}}}]
        """,
    )
    assert main(["validate", "-c", config]) == 2
    err = capsys.readouterr().err
    assert "brokers[0].bindings[0]: empty topic filter" in err
    assert "Traceback" not in err

def test_validate_missing_file(capsys):
    assert main(["validate", "-c", "/no/such/file.yaml"]) == 2
    assert "not found" in capsys.readouterr().err


# -------------------------------------------------------------------- probe


def test_probe_modbus_decodes(meter_sim, capsys):
    rc = main(
        [
            "probe", "modbus",
            "--host", "127.0.0.1",
            "--port", str(meter_sim.port),
            "--addr", "0x1000",
            "--count", "2",
            "--dtype", "f32",
        ]
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 2
    assert len(doc["words"]) == 2
    assert doc["decoded"] == [3.25]


def test_probe_modbus_error_surfaces(capsys):
    rc = main(
        [
            "probe", "modbus",
            "--host", "127.0.0.1",
            "--port", str(free_port()),
            "--addr", "0",
            "--timeout-ms", "200",
            "--retries", "0",
        ]
    )
    assert rc == 1
    doc = json.loads(capsys.readouterr().out)
    assert "error" in doc


def test_probe_bacnet_lists_objects_and_reads(capsys):
    objects = [
        SimObject("analog-value", 1, "zone-temp", units="degrees-celsius", value=43.0),
        SimObject("binary-input", 2, "occupancy", value=True),
    ]
    with BacnetSim(55001, objects) as sim:
        rc = main(
            [
                "probe", "bacnet",
                "--host", "127.0.0.1",
                "--port", str(sim.port),
                "--device-instance", "55001",
                "--names", "zone-temp",
            ]
        )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    names = {o["name"] for o in doc["objects"]}
    assert names == {"zone-temp", "occupancy"}
    assert doc["objects"][0]["units"] == "degrees-celsius"
    assert doc["values"]["zone-temp"] == 43.0


def test_probe_bacnet_reports_a_failed_discovery(capsys):
    with EmptyListEntrySim(3000, wide_inventory(120), max_response=480) as sim:
        rc = main(
            [
                "probe", "bacnet",
                "--host", "127.0.0.1",
                "--port", str(sim.port),
                "--device-instance", "3000",
            ]
        )
    assert rc == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error.startswith("DiscoveryFailed: ") and "object-list[2]" in error


# -------------------------------------------------------------------- stats


STATS_DOC = {
    "window_start_ns": 0,
    "window_end_ns": 3_600_000_000_000,
    "entities": {
        "a-1": {"kind": "aranet4", "params": ["co2", "temp"], "received": 120, "emitted": 14},
        "a-2": {"kind": "aranet4", "params": ["co2", "temp"], "received": 120, "emitted": 18},
        "m-1": {"kind": "cem-c31", "params": ["v"], "received": 60, "emitted": 60},
    },
}


def test_stats_table_from_file(tmp_path, capsys):
    path = tmp_path / "stats.json"
    path.write_text(json.dumps(STATS_DOC))
    assert main(["stats", "--file", str(path)]) == 0
    out = capsys.readouterr().out
    assert "aranet4" in out and "cem-c31" in out and "total" in out
    # 32 emitted over 2 devices in 1 h
    assert "16.00" in out


def test_stats_json_and_window(tmp_path, capsys):
    path = tmp_path / "stats.json"
    path.write_text(json.dumps(STATS_DOC))
    assert main(["stats", "--file", str(path), "--window", "30m", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    aranet = next(r for r in rows if r["device_kind"] == "aranet4")
    assert aranet["avg_points_per_hour"] == 64.0  # 32 points in half an hour
    total = rows[-1]
    assert total["device_kind"] == "total"
    assert total["avg_points_per_hour"] == sum(
        r["avg_points_per_hour"] for r in rows[:-1]
    )


def test_stats_zero_window_fails(tmp_path, capsys):
    doc = dict(STATS_DOC, window_end_ns=0)
    path = tmp_path / "stats.json"
    path.write_text(json.dumps(doc))
    assert main(["stats", "--file", str(path)]) == 1
    assert "empty window" in capsys.readouterr().err


@pytest.mark.parametrize("window", ["nan", "inf", "infh"])
def test_stats_window_that_is_not_finite_fails(tmp_path, capsys, window):
    path = tmp_path / "stats.json"
    path.write_text(json.dumps(STATS_DOC))
    assert main(["stats", "--file", str(path), "--window", window]) == 1
    captured = capsys.readouterr()
    assert "empty window" in captured.err
    assert captured.out == ""


def test_stats_needs_exactly_one_source(capsys):
    assert main(["stats"]) == 2
    assert main(["stats", "--file", "x", "--url", "y"]) == 2


def test_stats_from_running_daemon(tmp_path, meter_sim):
    with MqttBroker() as broker:
        cfg = load_config(daemon_config(tmp_path, meter_sim.port, broker.port, interval=0.2))
        gw = Gateway(cfg)
        gw.start()
        try:
            assert wait_until(lambda: gw.pipeline.received >= 1, 5)
            url = f"http://127.0.0.1:{gw.health_port}"
            rc = main(["stats", "--url", url, "--json"])
        finally:
            gw.stop()
    assert rc == 0


def test_stats_url_that_gives_no_stats_fails_with_one_line(tmp_path, capsys):
    # a port nothing listens on, and a daemon path its health server answers with 404
    cfg = load_config(
        write_config(
            tmp_path,
            f"""
            gateway: {{health_port: 0}}
            sink: {{mode: file, path: {tmp_path}/out.lp}}
            """,
        )
    )
    gw = Gateway(cfg).start()
    try:
        urls = {
            "ConnectionRefusedError": f"http://127.0.0.1:{free_port()}",
            "answered 404": f"http://127.0.0.1:{gw.health_port}/nope",
        }
        for reason, url in urls.items():
            assert main(["stats", "--url", url]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("stats: ") and captured.err.count("\n") == 1
            assert reason in captured.err
    finally:
        gw.stop()


ENTITY_WITH_TEXT_COUNT = {"kind": "aranet4", "params": ["co2"], "received": 1, "emitted": "x"}


def _assert_one_stats_line(capsys, reason: str) -> None:
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("stats: ") and captured.err.count("\n") == 1
    assert reason in captured.err


@pytest.mark.parametrize(
    "text, reason",
    [
        (None, "No such file or directory"),
        ("not json", "Expecting value"),
        ('{"x": 1}', "not a stats document (KeyError: 'entities')"),
        (json.dumps(dict(STATS_DOC, entities={"a-1": ENTITY_WITH_TEXT_COUNT})), "not a stats document"),
    ],
    ids=["missing", "not json", "no entities", "text for a count"],
)
def test_stats_file_that_holds_no_stats_document_fails_with_one_line(tmp_path, capsys, text, reason):
    path = tmp_path / "stats.json"
    if text is not None:
        path.write_text(text)
    assert main(["stats", "--file", str(path)]) == 1
    _assert_one_stats_line(capsys, reason)


def test_stats_window_that_is_no_duration_fails_with_one_line(tmp_path, capsys):
    path = tmp_path / "stats.json"
    path.write_text(json.dumps(STATS_DOC))
    assert main(["stats", "--file", str(path), "--window", "5x"]) == 1
    _assert_one_stats_line(capsys, "--window 5x")


def test_stats_url_answering_200_with_no_stats_document_fails_with_one_line(capsys):
    bodies = iter([b"not json", b'{"x": 1}'])

    class NotStats(http.server.BaseHTTPRequestHandler):
        def do_GET(self):
            body = next(bodies)
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = http.server.HTTPServer(("127.0.0.1", 0), NotStats)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        url = f"http://127.0.0.1:{server.server_address[1]}"
        for reason in ("Expecting value", "not a stats document (KeyError: 'entities')"):
            assert main(["stats", "--url", url]) == 1
            _assert_one_stats_line(capsys, reason)
    finally:
        server.shutdown()
        server.server_close()


# ----------------------------------------------------------------- simulate


def test_simulate_brings_up_everything(tmp_path, capsys):
    config = write_config(
        tmp_path,
        f"""
        sink: {{mode: file, path: {tmp_path}/out.lp}}
        brokers:
          - host: 127.0.0.1
            port: {free_port()}
            bindings:
              - topic: aranet/+/measurements
                entity: "{{1}}"
                fields:
                  /co2: {{parameter: co2, unit: ppm}}
        devices:
          - id: meter-1
            protocol: modbus
            host: 127.0.0.1
            port: {free_port()}
            registers:
              - {{name: voltage_l1, addr: 6, dtype: u32, scale: 0.1}}
          - id: hvac-1
            protocol: bacnet
            host: 127.0.0.1
            port: {free_port()}
            discover: true
        simulate:
          compression: 3600
          seed: 3
          fleets:
            - kind: aranet
              count: 2
              interval_s: 60
              change_prob: 0.5
              parameters:
                - {{name: co2, lo: 400, hi: 1200, step: 40}}
        """,
    )
    rc = main(["simulate", "-c", config, "--hours", "0.05"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "modbus simulator for meter-1" in out
    assert "bacnet simulator for hvac-1" in out
    assert "mqtt broker" in out
    assert "fleet of 2 devices" in out
