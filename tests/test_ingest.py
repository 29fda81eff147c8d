"""Payload parsing, JSON pointers, the HTTP poller, and subscriber recovery."""

import json
import math
import random
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from telegw.ingest import (
    AuthFailure,
    BrokerConfig,
    FieldSpec,
    HttpPollSpec,
    HttpStatus,
    MalformedJson,
    SchemaMismatch,
    Subscriber,
    TemplateMismatch,
    TopicBinding,
    parse_payload,
    poll_http,
    resolve_pointer,
)
from telegw.httpio import HttpClient
from telegw.model import Value
from telegw.mqtt import protocol as mp
from telegw.mqtt.client import MqttClient
from telegw.netio import shut
from telegw.pipeline import Pipeline, SinkConfig
from telegw.sim.broker import MqttBroker

from ingest_fixtures import ARANET_SAMPLE, MOTION_SAMPLE, aranet_binding, motion_binding
from net_fixtures import full_listener, record_closers


class TestJsonPointer:
    def test_whole_document(self):
        assert resolve_pointer({"a": 1}, "") == {"a": 1}

    def test_nested_and_array(self):
        doc = {"a": {"b": [10, 20, {"c": 3}]}}
        assert resolve_pointer(doc, "/a/b/1") == 20
        assert resolve_pointer(doc, "/a/b/2/c") == 3

    def test_escapes(self):
        doc = {"a/b": 1, "m~n": 2}
        assert resolve_pointer(doc, "/a~1b") == 1
        assert resolve_pointer(doc, "/m~0n") == 2

    def test_absent_paths(self):
        for ptr in ["/x", "/a/9", "/a/x", "/a/0/deep"]:
            with pytest.raises(LookupError):
                resolve_pointer({"a": [1]}, ptr)

    def test_array_index_is_zero_or_ascii_digits_without_a_leading_zero(self):
        doc = {"a": [1, 2]}
        assert resolve_pointer(doc, "/a/0") == 1
        assert resolve_pointer(doc, "/a/1") == 2
        for ptr in ["/a/01", "/a/00", "/a/\uff11", "/a/-1", "/a/+1", "/a/ 1"]:
            with pytest.raises(LookupError):
                resolve_pointer(doc, ptr)

    def test_pointer_must_be_rooted(self):
        with pytest.raises(ValueError):
            resolve_pointer({}, "a")


class TestParsePayload:
    def test_six_parameter_payload(self):
        points = parse_payload(
            "aranet/a4p-0001/measurements", ARANET_SAMPLE, aranet_binding(), 1000
        )
        assert len(points) == 6
        by_param = {p.parameter: p for p in points}
        assert by_param["co2"].value.raw == 618.0
        assert by_param["co2"].unit == "ppm"
        assert by_param["rssi"].value.raw == -61.0
        assert all(p.entity_id == "aranet-a4p-0001" for p in points)
        assert all(p.timestamp == 1000 for p in points)
        assert all(dict(p.tags) == {"model": "aranet4"} for p in points)

    def test_ten_parameter_motion_payload(self):
        points = parse_payload("zigbee/mot-17/motion", MOTION_SAMPLE, motion_binding(), 0)
        assert len(points) == 10
        by_param = {p.parameter: p for p in points}
        assert by_param["occupancy"].value.raw is True
        assert by_param["battery_low"].value.raw is False
        assert by_param["battery_voltage"].value.raw == 2.9
        assert points[0].entity_id == "mot-17"

    def test_not_json(self):
        with pytest.raises(MalformedJson):
            parse_payload("aranet/x/measurements", b"not json", aranet_binding(), 0)

    def test_topic_outside_filter(self):
        with pytest.raises(TemplateMismatch):
            parse_payload("other/x/measurements", b"{}", aranet_binding(), 0)

    def test_missing_fields_simply_skipped(self):
        points = parse_payload(
            "aranet/x/measurements", b'{"co2": 500}', aranet_binding(), 0
        )
        assert [p.parameter for p in points] == ["co2"]

    def test_unmatched_payload_members_counted(self):
        stats = {}
        parse_payload(
            "aranet/x/measurements",
            b'{"co2": 500, "vendor_extra": 1, "fw": "2.1"}',
            aranet_binding(),
            0,
            stats,
        )
        assert stats["ignored_fields"] == 2
        assert stats["points"] == 1

    def test_type_contradiction_counted_and_skipped(self):
        stats = {}
        points = parse_payload(
            "aranet/x/measurements",
            b'{"co2": "high", "temperature": 20}',
            aranet_binding(),
            0,
            stats,
        )
        assert [p.parameter for p in points] == ["temperature"]
        assert stats["type_errors"] == 1

    def test_device_timestamp_widening(self):
        binding = TopicBinding(
            "t/+",
            "{1}",
            {"/v": FieldSpec("v")},
            timestamp_pointer="/ts",
            timestamp_unit="s",
        )
        (p,) = parse_payload("t/d", b'{"v": 1, "ts": 1623139200}', binding, 0)
        assert p.timestamp == 1_623_139_200_000_000_000

    def test_millisecond_timestamps(self):
        binding = TopicBinding(
            "t/+", "{1}", {"/v": FieldSpec("v")},
            timestamp_pointer="/ts", timestamp_unit="ms",
        )
        (p,) = parse_payload("t/d", b'{"v": 1, "ts": 1623139200123}', binding, 0)
        assert p.timestamp == 1_623_139_200_123_000_000

    def test_bad_timestamp_falls_back_to_now(self):
        binding = TopicBinding(
            "t/+", "{1}", {"/v": FieldSpec("v")},
            timestamp_pointer="/ts", timestamp_unit="s",
        )
        stats = {}
        (p,) = parse_payload("t/d", b'{"v": 1, "ts": "late"}', binding, 555, stats)
        assert p.timestamp == 555
        assert stats["bad_timestamps"] == 1

    def test_scale_applied(self):
        binding = TopicBinding(
            "t/+", "{1}", {"/mv": FieldSpec("voltage", "V", scale=0.001)}
        )
        (p,) = parse_payload("t/d", b'{"mv": 3300}', binding, 0)
        assert p.value.raw == pytest.approx(3.3)

    @pytest.mark.parametrize("sign, scale", [("", None), ("-", None), ("", 0.001)])
    def test_integer_beyond_float_range_reads_as_infinity(self, sign, scale):
        # 1e400 parses to inf; an integer as large must too, not raise
        binding = TopicBinding(
            "t/+", "{1}", {"/v": FieldSpec("v", scale=scale), "/w": FieldSpec("w")}
        )
        payload = b'{"v": ' + sign.encode() + b"1" + b"0" * 400 + b', "w": 2}'
        v, w = parse_payload("t/d", payload, binding, 0)
        assert v.value == Value.real(-math.inf if sign else math.inf)
        assert w.value == Value.real(2.0)

    def test_huge_field_costs_only_itself(self, tmp_path):
        # the subscriber's message handler catches only IngestError: one
        # out-of-range field must not take the message's other fields with it
        pipe = Pipeline(SinkConfig(path=str(tmp_path / "out.lp")))  # not started: writes nothing
        binding = TopicBinding("t/+", "{1}", {"/v": FieldSpec("v"), "/w": FieldSpec("w")})
        sub = Subscriber(BrokerConfig("127.0.0.1"), [binding], pipe.submit)
        sub._on_message("t/d", b'{"v": 1' + b"0" * 400 + b', "w": 2}')
        c = pipe.counters()
        assert (sub.parse_errors, sub.points_out) == (0, 2)
        assert (c["received"], c["rejected_non_finite"], c["emitted"]) == (2, 1, 1)

    def test_deeply_nested_payload_is_a_parse_error(self, tmp_path):
        pipe = Pipeline(SinkConfig(path=str(tmp_path / "out.lp")))  # not started: writes nothing
        binding = TopicBinding("t/+", "{1}", {"/v": FieldSpec("v")})
        sub = Subscriber(BrokerConfig("127.0.0.1"), [binding], pipe.submit)
        sub._on_message("t/d", b"[" * 100_000)  # deeper than the recursion limit
        sub._on_message("u/d", b'{"v": 1}')  # another binding's topic: not an error
        sub._on_message("t/d", b'{"v": 1}')
        assert (sub.parse_errors, sub.points_out) == (1, 1)

    def test_timestamp_beyond_range_falls_back_to_now(self):
        binding = TopicBinding(
            "t/+", "{1}", {"/v": FieldSpec("v")},
            timestamp_pointer="/ts", timestamp_unit="s",
        )
        stats = {}
        (p,) = parse_payload("t/d", b'{"v": 1, "ts": 1e400}', binding, 555, stats)
        assert p.timestamp == 555
        assert stats["bad_timestamps"] == 1

    def test_nested_pointer_mapping(self):
        binding = TopicBinding(
            "gw/+", "{1}", {"/sensors/0/value": FieldSpec("reading")}
        )
        (p,) = parse_payload("gw/g1", b'{"sensors": [{"value": 7}]}', binding, 0)
        assert p.value.raw == 7.0

    def test_deterministic(self):
        args = ("aranet/x/measurements", ARANET_SAMPLE, aranet_binding(), 123)
        assert parse_payload(*args) == parse_payload(*args)


class TestBindingValidation:
    def test_capture_must_exist_in_filter(self):
        with pytest.raises(ValueError):
            TopicBinding("a/+", "{5}", {"/v": FieldSpec("v")})

    def test_capture_may_not_point_into_multilevel_tail(self):
        with pytest.raises(ValueError):
            TopicBinding("a/#", "{1}", {"/v": FieldSpec("v")})
        TopicBinding("a/#", "{0}", {"/v": FieldSpec("v")})  # fixed level is fine

    def test_named_captures_rejected(self):
        with pytest.raises(ValueError):
            TopicBinding("a/+", "{name}", {"/v": FieldSpec("v")})

    def test_empty_field_map(self):
        with pytest.raises(ValueError):
            TopicBinding("a/+", "{1}", {})

    def test_unrooted_timestamp_pointer_rejected_when_built(self):
        # loading it would make every message count a bad timestamp
        with pytest.raises(ValueError, match="bad timestamp_pointer 'ts'"):
            TopicBinding("a/+", "{1}", {"/v": FieldSpec("v")}, timestamp_pointer="ts")
        TopicBinding("a/+", "{1}", {"/v": FieldSpec("v")}, timestamp_pointer="")  # whole doc

    def test_unrooted_poll_pointers_rejected_when_built(self):
        # loading them would make every poll raise
        base = dict(
            url="http://127.0.0.1/api",
            interval_s=10,
            field_map={"/v": FieldSpec("v")},
            entity_array_pointer="/items",
            entity_id_pointer="/id",
        )
        for key, bad, what in [
            ("field_map", {"v": FieldSpec("v")}, "field pointer 'v'"),
            ("entity_array_pointer", "items", "entity_array_pointer 'items'"),
            ("entity_id_pointer", "id", "entity_id_pointer 'id'"),
        ]:
            with pytest.raises(ValueError, match=f"bad {what}"):
                HttpPollSpec(**{**base, key: bad})
        HttpPollSpec(**{**base, "entity_array_pointer": ""})  # the document is the array

    def test_field_kinds_validated(self):
        with pytest.raises(ValueError):
            FieldSpec("x", kind="enum")
        with pytest.raises(ValueError):
            FieldSpec("x", kind="flag", scale=2.0)


@settings(max_examples=200)
@given(
    present=st.sets(st.sampled_from(["co2", "temperature", "humidity", "pressure", "battery", "rssi"])),
    junk=st.dictionaries(
        st.text(st.characters(codec="utf-8", exclude_categories=("Cs",)), min_size=1, max_size=8).filter(
            lambda s: s not in {"co2", "temperature", "humidity", "pressure", "battery", "rssi"}
        ),
        st.integers(-1000, 1000),
        max_size=4,
    ),
)
def test_point_count_equals_mapped_fields_present(present, junk):
    payload = {name: 42 for name in present}
    payload.update(junk)
    points = parse_payload(
        "aranet/d/measurements",
        json.dumps(payload).encode(),
        aranet_binding(),
        0,
    )
    assert {p.parameter for p in points} == present


class _ScriptedHandler(BaseHTTPRequestHandler):
    script = []  # list of (status, body bytes); last entry repeats
    seen = []

    def do_GET(self):
        self.seen.append(dict(self.headers))
        status, body = self.script[min(len(self.seen) - 1, len(self.script) - 1)]
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def http_stub():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _ScriptedHandler)
    _ScriptedHandler.script = [(200, b"{}")]
    _ScriptedHandler.seen = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server, _ScriptedHandler
    server.shutdown()
    server.server_close()


def _spec(server, **kw):
    kw.setdefault("interval_s", 10)
    kw.setdefault(
        "field_map",
        {
            "/temp": FieldSpec("temperature", "degC"),
            "/hum": FieldSpec("humidity", "%"),
            "/bat": FieldSpec("battery", "%"),
        },
    )
    kw.setdefault("entity_array_pointer", "/sensors")
    kw.setdefault("entity_id_pointer", "/id")
    return HttpPollSpec(f"http://127.0.0.1:{server.server_address[1]}/api", **kw)


class TestHttpPoll:
    def test_two_entities_three_fields(self, http_stub):
        server, handler = http_stub
        handler.script = [
            (
                200,
                json.dumps(
                    {
                        "sensors": [
                            {"id": "s1", "temp": 20.5, "hum": 40, "bat": 90},
                            {"id": "s2", "temp": 22.0, "hum": 42, "bat": 77},
                        ]
                    }
                ).encode(),
            )
        ]
        points = poll_http(_spec(server), now_ns=42)
        assert len(points) == 6
        assert {(p.entity_id, p.parameter) for p in points} == {
            (e, f) for e in ("s1", "s2") for f in ("temperature", "humidity", "battery")
        }
        assert all(p.timestamp == 42 for p in points)

    def test_auth_header_sent(self, http_stub, monkeypatch):
        server, handler = http_stub
        handler.script = [(200, b'{"sensors": [{"id": "s1", "temp": 1}]}')]
        monkeypatch.setenv("CLOUD_KEY", "tok-123")
        poll_http(_spec(server, auth_header="X-Api-Key", auth_value_env="CLOUD_KEY"))
        assert handler.seen[0]["X-Api-Key"] == "tok-123"

    def test_unset_auth_env(self, http_stub, monkeypatch):
        server, _ = http_stub
        monkeypatch.delenv("CLOUD_KEY", raising=False)
        with pytest.raises(AuthFailure):
            poll_http(_spec(server, auth_header="X-Api-Key", auth_value_env="CLOUD_KEY"))

    def test_401(self, http_stub):
        server, handler = http_stub
        handler.script = [(401, b"denied")]
        with pytest.raises(HttpStatus) as e:
            poll_http(_spec(server))
        assert e.value.code == 401

    def test_empty_selector(self, http_stub):
        server, handler = http_stub
        handler.script = [(200, b'{"sensors": []}')]
        with pytest.raises(SchemaMismatch):
            poll_http(_spec(server))

    def test_absent_selector(self, http_stub):
        server, handler = http_stub
        handler.script = [(200, b'{"other": 1}')]
        with pytest.raises(SchemaMismatch):
            poll_http(_spec(server))

    def test_body_not_json(self, http_stub):
        server, handler = http_stub
        handler.script = [(200, b"<html>")]
        with pytest.raises(MalformedJson):
            poll_http(_spec(server))

    def test_deeply_nested_body_is_malformed_json(self):
        spec = HttpPollSpec("http://x/api", 10, {"/v": FieldSpec("v")}, "/s", "/id")
        with pytest.raises(MalformedJson):
            poll_http(spec, getter=lambda url, headers: (200, b"[" * 100_000))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            HttpPollSpec("ftp://x/api", 10, {"/v": FieldSpec("v")}, "/s", "/id")
        with pytest.raises(ValueError):
            HttpPollSpec("http://x/api", 5, {"/v": FieldSpec("v")}, "/s", "/id")


class TestHttpClient:
    def test_a_request_after_interrupt_fails_without_sending(self, http_stub):
        server, handler = http_stub
        client = HttpClient(5.0)
        client.interrupt()
        with pytest.raises(ConnectionError, match="interrupted"):
            client.request("GET", f"http://127.0.0.1:{server.server_address[1]}/api")
        assert handler.seen == [] and client._sock is None

    def test_requests_hold_no_socket_between_them(self, http_stub):
        server, _ = http_stub
        url, client = f"http://127.0.0.1:{server.server_address[1]}/api", HttpClient(5.0)
        for _ in range(3):
            assert client.request("GET", url) == (200, b"{}")
            assert client._sock is None


def _fast_broker_cfg(broker, **kw):
    kw.setdefault("client_id", "test-sub")
    kw.setdefault("backoff_initial_s", 0.05)
    kw.setdefault("backoff_max_s", 0.2)
    return BrokerConfig("127.0.0.1", broker.port, **kw)


class _QuietBroker:
    """Takes one client's CONNECT and, when ``answers_connect``, accepts it
    and takes its SUBSCRIBE; then reads and answers nothing more."""

    def __init__(self, answers_connect: bool):
        self.answers_connect = answers_connect
        self.request_in = threading.Event()  # the request left unanswered
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]

    def __enter__(self) -> "_QuietBroker":
        threading.Thread(target=self._serve, daemon=True).start()
        return self

    def __exit__(self, *exc) -> None:
        shut(self._listener)

    def _serve(self) -> None:
        try:
            conn, _ = self._listener.accept()
            with conn:
                mp.read_packet(conn)
                if self.answers_connect:
                    conn.sendall(mp.encode_connack(mp.CONNACK_ACCEPTED))
                    mp.read_packet(conn)
                self.request_in.set()
                while conn.recv(4096):
                    pass
        except OSError:
            pass


class TestSubscriber:
    def test_points_flow_end_to_end(self):
        out, got_six = [], threading.Event()

        def sink(dp):
            out.append(dp)
            if len(out) >= 6:
                got_six.set()

        with MqttBroker() as broker:
            sub = Subscriber(_fast_broker_cfg(broker), [aranet_binding()], sink).start()
            try:
                self._await_subscription(broker)
                with MqttClient("127.0.0.1", broker.port, "dev") as pub:
                    pub.publish("aranet/a4p-0001/measurements", ARANET_SAMPLE, qos=1)
                assert got_six.wait(5.0)
                assert {p.parameter for p in out} == {
                    "co2", "temperature", "humidity", "pressure", "battery", "rssi"
                }
            finally:
                sub.stop()

    def test_survives_broker_restart(self):
        out = []
        broker = MqttBroker().start()
        sub = Subscriber(_fast_broker_cfg(broker), [aranet_binding()], out.append).start()
        try:
            self._await_subscription(broker)
            self._publish_once(broker, b'{"co2": 100}')
            self._await_points(out, 1)

            broker.restart()
            self._await_subscription(broker)
            self._publish_once(broker, b'{"co2": 200}')
            self._await_points(out, 2)
            assert sub.reconnects >= 1
            assert [p.value.raw for p in out] == [100.0, 200.0]
        finally:
            sub.stop()
            broker.stop()

    def test_stop_of_connected_subscriber_is_prompt(self):
        with MqttBroker() as broker:
            sub = Subscriber(_fast_broker_cfg(broker), [aranet_binding()], lambda dp: None).start()
            thread = sub._thread
            try:
                self._await_subscription(broker)
                t0 = time.monotonic()
                sub.stop()
                elapsed = time.monotonic() - t0
            finally:
                sub.stop()
            assert not thread.is_alive()
            assert elapsed < 0.05

    def test_stop_leaves_the_socket_to_the_client_reader(self, monkeypatch):
        with MqttBroker() as broker:
            sub = Subscriber(_fast_broker_cfg(broker), [aranet_binding()], lambda dp: None).start()
            try:
                self._await_subscription(broker)
                client = sub._client
                closers, reader = record_closers(monkeypatch, client._sock), client._reader
                sub.stop()
            finally:
                sub.stop()
        assert closers == [reader]

    @pytest.mark.parametrize("answers_connect", [False, True], ids=["no-connack", "no-suback"])
    def test_stop_wakes_a_request_the_broker_never_answers(self, answers_connect):
        with _QuietBroker(answers_connect) as quiet:
            cfg = BrokerConfig("127.0.0.1", quiet.port, client_id="test-sub")
            sub = Subscriber(cfg, [aranet_binding()], lambda dp: None).start()
            thread = sub._thread
            try:
                assert quiet.request_in.wait(5.0)
                t0 = time.monotonic()
                sub.stop()
                elapsed = time.monotonic() - t0
            finally:
                sub.stop()
            assert not thread.is_alive()
            assert elapsed < 0.5  # not the client's 5 s timeout

    def test_stop_wakes_a_connect_the_broker_never_answers(self):
        with full_listener() as port:
            cfg = BrokerConfig("127.0.0.1", port, client_id="test-sub")
            sub = Subscriber(cfg, [aranet_binding()], lambda dp: None).start()
            thread = sub._thread
            try:
                time.sleep(0.3)  # the connect is now waiting for the broker
                t0 = time.monotonic()
                sub.stop()
                elapsed = time.monotonic() - t0
            finally:
                sub.stop()
            assert not thread.is_alive()
            assert elapsed < 1.0  # not the client's 5 s connect timeout

    def test_stop_at_any_moment_is_prompt(self):
        # stop() lands before, during or after the connect and the SUBSCRIBE;
        # a short switch interval lets the two threads interleave finely
        rng = random.Random(5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with MqttBroker() as broker:
                for _ in range(40):
                    sub = Subscriber(_fast_broker_cfg(broker), [aranet_binding()], lambda dp: None)
                    thread = sub.start()._thread
                    time.sleep(rng.uniform(0, 0.004))
                    t0 = time.monotonic()
                    sub.stop()
                    assert time.monotonic() - t0 < 0.5
                    assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)

    def test_wrong_password_is_terminal(self, monkeypatch):
        monkeypatch.setenv("MQ_USER", "gw")
        monkeypatch.setenv("MQ_PASS", "wrong")
        with MqttBroker(auth={"gw": "right"}) as broker:
            cfg = _fast_broker_cfg(broker, username_env="MQ_USER", password_env="MQ_PASS")
            sub = Subscriber(cfg, [aranet_binding()], lambda dp: None)
            with pytest.raises(AuthFailure):
                sub.run()

    def test_parse_errors_do_not_stop_the_stream(self):
        out = []
        with MqttBroker() as broker:
            sub = Subscriber(_fast_broker_cfg(broker), [aranet_binding()], out.append).start()
            try:
                self._await_subscription(broker)
                self._publish_once(broker, b"garbage")
                self._publish_once(broker, b'{"co2": 321}')
                self._await_points(out, 1)
                assert sub.parse_errors == 1
                assert out[0].value.raw == 321.0
            finally:
                sub.stop()

    def test_no_duplicates_under_lossy_delivery(self):
        out = []
        with MqttBroker(deliver_drop_rate=0.1, drop_seed=3) as broker:
            sub = Subscriber(_fast_broker_cfg(broker), [aranet_binding()], out.append).start()
            try:
                self._await_subscription(broker)
                with MqttClient("127.0.0.1", broker.port, "dev") as pub:
                    for i in range(100):
                        pub.publish(
                            "aranet/d/measurements",
                            json.dumps({"co2": i}).encode(),
                            qos=1,
                        )
                deadline = time.monotonic() + 5
                while time.monotonic() < deadline and (
                    len(out) + broker.dropped_deliveries < 100
                ):
                    time.sleep(0.02)
                values = [p.value.raw for p in out]
                assert len(values) == len(set(values)), "duplicate point for one delivery"
                assert len(values) + broker.dropped_deliveries == 100
                assert broker.dropped_deliveries > 0
            finally:
                sub.stop()

    @staticmethod
    def _await_subscription(broker, timeout=5.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with broker._lock:
                if any(s.subscriptions for s in broker._sessions):
                    return
            time.sleep(0.01)
        raise AssertionError("subscriber never subscribed")

    @staticmethod
    def _publish_once(broker, payload):
        with MqttClient("127.0.0.1", broker.port, "dev") as pub:
            pub.publish("aranet/d/measurements", payload, qos=1)

    @staticmethod
    def _await_points(out, n, timeout=5.0):
        deadline = time.monotonic() + timeout
        while len(out) < n and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(out) >= n
