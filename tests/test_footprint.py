"""The gateway process loads no HTTP client library, no TLS and no simulator.

The health endpoint is plain HTTP/1.0 on a stdlib socket server, and the
code paths that send HTTP (HTTP sink, webhook notifier, HTTP poll,
``gateway stats --url``) import :mod:`telegw.httpio`, and with it
``http.client``, when they first run. A module-level import of it would map
libssl and libcrypto into every gateway, which the first test catches. None
of those paths needs ``requests``, a test-only dependency, which the second
test checks. The simulators (:mod:`telegw.sim`) are for ``gateway
simulate`` and the tests only; the config types a simulated fleet is parsed
into live in :mod:`telegw.config`. Nor do the CLI and the daemon import
the BACnet client, and a Modbus or MQTT connect to an ASCII host loads no
IDNA codec. Every test runs in a fresh interpreter, since the test process
itself has long since imported ``requests``, ``http.client``, the
simulators, :mod:`telegw.bacnet` and the IDNA codec.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
NOT_LOADED = ("ssl", "http.client", "http.server", "requests", "urllib3", "email")

CHILD = textwrap.dedent(
    """
    import socket, sys, textwrap
    from pathlib import Path

    import telegw.cli
    from telegw.config import load_config
    from telegw.daemon import Gateway
    from telegw.model import DataPoint, Value

    tmp = Path(sys.argv[1])
    config = tmp / "gw.yaml"
    config.write_text(textwrap.dedent(f'''
        gateway: {{health_port: 0}}
        sink: {{mode: file, path: {tmp}/out.lp}}
        alerts:
          rules:
            - {{id: hot, parameter: t, predicate: gt, threshold: 30}}
          notifiers:
            - type: log
    '''))
    gw = Gateway(load_config(str(config))).start()
    try:
        # fires the rule, so the log notifier and the file sink both run
        gw.pipeline.submit(DataPoint("room-1", "t", Value.real(40.0), "C", 1, {}))
        with socket.create_connection(("127.0.0.1", gw.health_port), timeout=5) as s:
            s.sendall(b"GET /health HTTP/1.0\\r\\n\\r\\n")
            reply = b""
            while chunk := s.recv(65536):
                reply += chunk
    finally:
        gw.stop()
    assert reply.startswith(b"HTTP/1.0 200 "), reply[:80]
    assert (tmp / "out.lp").read_text().startswith("t,device=room-1 value=40")
    print(" ".join(name for name in sys.modules))
    """
)


def test_gateway_process_loads_no_http_client_or_tls(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "telegw.daemon" in loaded
    assert [name for name in NOT_LOADED if name in loaded] == []
    assert sorted(name for name in loaded if name.split(".")[:2] == ["telegw", "sim"]) == []


NO_REQUESTS = textwrap.dedent(
    """
    import json, sys, threading

    sys.modules["requests"] = None  # any import of requests now raises ImportError
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    from telegw import cli
    from telegw.alerts import AlertEvent, WebhookNotifier
    from telegw.ingest import FieldSpec, HttpPollSpec, poll_http
    from telegw.pipeline import HttpSink

    ENTITY = {"kind": "meter", "params": ["v"], "received": 2, "emitted": 1}
    STATS = {"window_start_ns": 0, "window_end_ns": 3600 * 10**9, "entities": {"d1": ENTITY}}
    GETS = {"/stats": STATS, "/plant": {"items": [{"id": "d1", "v": 1.5}]}}

    class Stub(BaseHTTPRequestHandler):
        def do_GET(self):
            self.answer(200, json.dumps(GETS[self.path]).encode())

        def do_POST(self):
            self.rfile.read(int(self.headers["Content-Length"]))
            self.answer(204, b"")

        def answer(self, status, body):
            self.send_response(status)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Stub)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    url = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        assert HttpSink(f"{url}/write").write(["v,device=d1 value=1.5 1"]) == 204
        spec = HttpPollSpec(f"{url}/plant", 10, {"/v": FieldSpec("v")}, "/items", "/id")
        assert [(p.entity_id, p.parameter) for p in poll_http(spec)] == [("d1", "v")]
        event = AlertEvent("hot", "d1", "v", "fired", 1.5, 1)
        assert WebhookNotifier(f"{url}/hook").notify(event) is True
        assert cli.main(["stats", "--url", url]) == 0
    finally:
        server.shutdown()
    """
)


def test_no_http_path_needs_requests():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", NO_REQUESTS], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr


def _child(code: str, *args) -> set[str]:
    """Run ``code`` in a fresh interpreter; the modules it ended with."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


IDNA = ("encodings.idna", "stringprep", "unicodedata")
PRINT_MODULES = 'print(" ".join(sys.modules))'


def test_cli_and_daemon_load_no_bacnet():
    loaded = _child(f"import sys, telegw.cli, telegw.daemon\n{PRINT_MODULES}")
    assert "telegw.daemon" in loaded
    assert sorted(name for name in loaded if name.startswith("telegw.bacnet")) == []


ASCII_CONNECTS = textwrap.dedent(
    f"""
    import sys

    from telegw.modbus import ModbusClient
    from telegw.mqtt import MqttClient

    modbus_port, broker_port = map(int, sys.argv[1:])
    with ModbusClient("127.0.0.1", modbus_port) as client:
        assert client.read_registers("holding", 0, 2) == [7, 8]
    for host in ("127.0.0.1", "localhost"):
        mqtt = MqttClient(host, broker_port, f"footprint-{{host}}")
        mqtt.connect()
        mqtt.close()
    {PRINT_MODULES}
    """
)


def test_modbus_and_mqtt_connects_to_an_ascii_host_load_no_idna_codec():
    from telegw.sim import ModbusSim, MqttBroker

    with ModbusSim() as sim, MqttBroker() as broker:
        sim.load(0, [7, 8])
        loaded = _child(ASCII_CONNECTS, sim.port, broker.port)
    assert broker.connects == 2
    assert {"telegw.modbus.client", "telegw.mqtt.client"} <= loaded
    assert [name for name in IDNA if name in loaded] == []
    assert sorted(name for name in loaded if name.split(".")[:2] == ["telegw", "sim"]) == []


NON_ASCII_HOST = textwrap.dedent(
    f"""
    import socket, sys

    from telegw.mqtt import MqttClient
    from telegw.netio import connect

    # full-width digits and dots: IDNA maps this host to 127.0.0.1
    host = "\\uff11\\uff12\\uff17\\uff0e\\uff10\\uff0e\\uff10\\uff0e\\uff11"
    listener = socket.socket()
    listener.bind((b"127.0.0.1", 0))
    listener.listen()
    connect(host, listener.getsockname()[1], 5).close()
    closed_port = listener.getsockname()[1]
    listener.close()
    for attempt in (
        lambda: connect(host, closed_port, 5),
        lambda: MqttClient(host, closed_port, "footprint").connect(),
    ):
        try:
            attempt()
        except OSError as e:
            assert type(e) is ConnectionRefusedError, repr(e)
        else:
            raise AssertionError("connected to a closed port")
    # an ASCII host IDNA would refuse reaches the resolver, which refuses it
    try:
        connect("a..b", closed_port, 5)
    except socket.gaierror:
        pass
    else:
        raise AssertionError("resolved a host with an empty label")
    {PRINT_MODULES}
    """
)


def test_non_ascii_host_still_goes_through_idna_and_fails_as_os_error():
    loaded = _child(NON_ASCII_HOST)
    assert "encodings.idna" in loaded
