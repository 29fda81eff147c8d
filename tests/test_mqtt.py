"""MQTT codec round-trips, wildcard matching, and client/broker behavior."""

import contextlib
import socket
import statistics
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from telegw import ingest
from telegw.ingest import BrokerConfig, Subscriber
from telegw.mqtt import protocol as mp
from telegw.mqtt.client import (
    AckTimeout,
    AuthRejected,
    ConnectionLost,
    MqttClient,
    NotConnected,
)
from telegw.sim.broker import MqttBroker

from ingest_fixtures import aranet_binding
from net_fixtures import record_closers


class TestCodec:
    def test_connect_frozen_bytes(self):
        pkt = mp.encode_connect("c1", keepalive=60)
        # fixed header, "MQTT", level 4, clean-session flags, keepalive, id
        assert pkt == bytes.fromhex("100e00044d5154540402003c00026331")

    def test_connect_with_credentials_roundtrip(self):
        pkt = mp.encode_connect("gw", "user", "secret", keepalive=30)
        ptype, flags, body = self._split(pkt)
        assert ptype == mp.CONNECT and flags == 0
        info = mp.decode_connect(body)
        assert info.username == "user" and info.password == "secret"
        assert info.keepalive == 30 and info.clean_session

    def test_publish_qos0_roundtrip(self):
        raw = mp.encode_publish(mp.PublishPacket("a/b", b"{}", 0))
        ptype, flags, body = self._split(raw)
        pkt = mp.decode_publish(flags, body)
        assert (pkt.topic, pkt.payload, pkt.qos, pkt.packet_id) == ("a/b", b"{}", 0, None)

    def test_publish_qos1_carries_packet_id(self):
        raw = mp.encode_publish(mp.PublishPacket("t", b"x", 1, 0x1234))
        _, flags, body = self._split(raw)
        assert mp.decode_publish(flags, body).packet_id == 0x1234

    def test_subscribe_roundtrip(self):
        raw = mp.encode_subscribe(7, [("a/+/c", 1), ("b/#", 0)])
        ptype, flags, body = self._split(raw)
        assert ptype == mp.SUBSCRIBE and flags == 0x02
        assert mp.decode_subscribe(flags, body) == (7, [("a/+/c", 1), ("b/#", 0)])

    def test_remaining_length_multibyte(self):
        assert mp.encode_remaining_length(0) == b"\x00"
        assert mp.encode_remaining_length(127) == b"\x7f"
        assert mp.encode_remaining_length(128) == b"\x80\x01"
        assert mp.encode_remaining_length(16383) == b"\xff\x7f"
        assert mp.encode_remaining_length(2_097_152) == b"\x80\x80\x80\x01"

    def test_wildcard_in_publish_topic_rejected(self):
        raw = mp.encode_publish(mp.PublishPacket("a/+", b"", 0))
        _, flags, body = self._split(raw)
        with pytest.raises(mp.ProtocolViolation):
            mp.decode_publish(flags, body)

    @staticmethod
    def _split(raw: bytes):
        first = raw[0]
        i, remaining, shift = 1, 0, 0
        while True:
            digit = raw[i]
            remaining |= (digit & 0x7F) << shift
            i += 1
            if not digit & 0x80:
                break
            shift += 7
        body = raw[i:]
        assert len(body) == remaining
        return first >> 4, first & 0x0F, body


@settings(max_examples=150)
@given(
    topic=st.text(
        st.characters(codec="utf-8", exclude_characters="+#\x00", exclude_categories=("Cs",)),
        min_size=1,
        max_size=40,
    ),
    payload=st.binary(max_size=200),
    qos=st.sampled_from([0, 1]),
)
def test_publish_roundtrip_property(topic, payload, qos):
    pid = 42 if qos else None
    raw = mp.encode_publish(mp.PublishPacket(topic, payload, qos, pid))
    ptype, flags, body = TestCodec._split(raw)
    got = mp.decode_publish(flags, body)
    assert (got.topic, got.payload, got.qos, got.packet_id) == (topic, payload, qos, pid)


class TestTopicMatching:
    CASES = [
        ("a/b/c", "a/b/c", True),
        ("a/b/c", "a/b/d", False),
        ("a/+/c", "a/b/c", True),
        ("a/+/c", "a/b/c/d", False),
        ("a/#", "a/b/c/d", True),
        ("a/#", "a", True),
        ("#", "any/thing", True),
        ("+", "one", True),
        ("+", "one/two", False),
        ("+/tele", "dev1/tele", True),
        ("#", "$SYS/broker", False),
        ("+/x", "$SYS/x", False),
        ("$SYS/#", "$SYS/broker", True),
        ("a/b", "a/b/", False),
        ("a/b/", "a/b/", True),
    ]

    @pytest.mark.parametrize("f,t,expect", CASES)
    def test_cases(self, f, t, expect):
        assert mp.topic_matches(f, t) is expect

    def test_filter_validation(self):
        for bad in ["", "a/#/b", "a#", "a/b+", "+a/b"]:
            with pytest.raises(mp.ProtocolViolation):
                mp.validate_filter(bad)
        for ok in ["#", "+", "a/+/+/#", "a b/c"]:
            mp.validate_filter(ok)


class Collector:
    def __init__(self):
        self.messages = []
        self.event = threading.Event()

    def __call__(self, topic, payload):
        self.messages.append((topic, payload))
        self.event.set()

    def wait_for(self, n, timeout=5.0):
        deadline = time.monotonic() + timeout
        while len(self.messages) < n and time.monotonic() < deadline:
            time.sleep(0.01)
        return len(self.messages) >= n


@contextlib.contextmanager
def silent_broker(after_connack: bytes = b""):
    """The port of a raw TCP server that accepts a CONNECT and sends
    ``after_connack`` after its CONNACK, then reads whatever arrives and
    answers nothing."""
    srv = socket.socket()
    srv.bind(("127.0.0.1", 0))
    srv.listen(1)

    def serve():
        while True:  # one connection at a time, until srv is closed
            try:
                conn, _ = srv.accept()
            except OSError:
                return
            try:
                mp.read_packet(conn)
                conn.sendall(mp.encode_connack(0) + after_connack)
                while True:
                    mp.read_packet(conn)
            except (ConnectionError, OSError, mp.MqttError):
                pass
            finally:
                conn.close()

    threading.Thread(target=serve, daemon=True).start()
    try:
        yield srv.getsockname()[1]
    finally:
        srv.close()


class TestClientBroker:
    def test_publish_subscribe_qos0(self):
        with MqttBroker() as broker:
            sub_sink = Collector()
            with MqttClient("127.0.0.1", broker.port, "sub", on_message=sub_sink) as sub:
                sub.subscribe(["tele/#"], qos=0)
                with MqttClient("127.0.0.1", broker.port, "pub") as pub:
                    pub.publish("tele/dev1", b"hello", qos=0)
                assert sub_sink.wait_for(1)
                assert sub_sink.messages == [("tele/dev1", b"hello")]

    def test_publish_qos1_acked_and_delivered(self):
        with MqttBroker() as broker:
            sink = Collector()
            with MqttClient("127.0.0.1", broker.port, "sub", on_message=sink) as sub:
                assert sub.subscribe(["a/+"], qos=1) == [1]
                with MqttClient("127.0.0.1", broker.port, "pub") as pub:
                    for i in range(5):
                        pub.publish("a/b", str(i).encode(), qos=1)
                assert sink.wait_for(5)
                assert [m[1] for m in sink.messages] == [b"0", b"1", b"2", b"3", b"4"]
                assert broker.publishes_in == 5 and broker.deliveries == 5

    def test_no_delivery_without_matching_subscription(self):
        with MqttBroker() as broker:
            sink = Collector()
            with MqttClient("127.0.0.1", broker.port, "sub", on_message=sink) as sub:
                sub.subscribe(["other/#"])
                with MqttClient("127.0.0.1", broker.port, "pub") as pub:
                    pub.publish("tele/x", b"1", qos=1)
                time.sleep(0.1)
                assert sink.messages == []

    def test_auth_accept_and_reject(self):
        with MqttBroker(auth={"gw": "s3cret"}) as broker:
            with MqttClient("127.0.0.1", broker.port, "c", "gw", "s3cret"):
                pass
            with pytest.raises(AuthRejected) as e:
                MqttClient("127.0.0.1", broker.port, "c", "gw", "wrong").connect()
            assert e.value.return_code == mp.CONNACK_BAD_CREDENTIALS
            with pytest.raises(AuthRejected):
                MqttClient("127.0.0.1", broker.port, "c").connect()  # missing creds

    def test_qos1_publish_times_out_without_broker_ack(self):
        with silent_broker() as port:
            c = MqttClient("127.0.0.1", port, "c", io_timeout=0.2)
            c.connect()
            try:
                with pytest.raises(AckTimeout):
                    c.publish("t", b"x", qos=1)
            finally:
                c.close()

    def test_connection_lost_between_send_and_wait_is_reported_as_such(self):
        operations = [lambda c: c.subscribe(["a/#"]), lambda c: c.publish("t", b"x", qos=1)]
        with silent_broker() as port:
            for request in operations:
                c = MqttClient("127.0.0.1", port, "c")
                c.connect()
                send = c._send

                def send_then_close(data):
                    send(data)
                    if data[0] >> 4 in (mp.SUBSCRIBE, mp.PUBLISH):  # as another thread may
                        c.close()

                c._send = send_then_close
                try:
                    with pytest.raises(ConnectionLost):
                        request(c)
                    assert c._pending == {}
                finally:
                    c.close()

    def test_broker_restart_same_port(self):
        broker = MqttBroker().start()
        port = broker.port
        try:
            with MqttClient("127.0.0.1", port, "a") as c:
                c.publish("t", b"1")
            broker.restart()
            assert broker.port == port
            with MqttClient("127.0.0.1", port, "b") as c:
                c.publish("t", b"2")
            assert broker.connects == 2
        finally:
            broker.stop()

    def test_idle_client_keeps_its_session_alive_with_pings(self, monkeypatch):
        pings = []
        pongs = []
        encode_pingreq, encode_pingresp = mp.encode_pingreq, mp.encode_pingresp
        monkeypatch.setattr(mp, "encode_pingreq", lambda: pings.append(1) or encode_pingreq())
        monkeypatch.setattr(mp, "encode_pingresp", lambda: pongs.append(1) or encode_pingresp())
        with MqttBroker() as broker:
            c = MqttClient("127.0.0.1", broker.port, "idle", keepalive=2)
            c.connect()
            try:
                time.sleep(2.5)  # a ping every keepalive / 2 = 1 s
                assert len(pings) >= 2
                assert len(pongs) >= 1
                assert c.connected
            finally:
                c.close()

    def test_a_broker_that_answers_no_ping_is_left(self):
        # MQTT 3.1.1 §3.1.2.10: pings at 1 s and 2 s, and nothing read between them
        with silent_broker() as port:
            c = MqttClient("127.0.0.1", port, "c", keepalive=2)
            c.connect()
            try:
                assert c.wait_closed(3.0)
                assert not c.connected
            finally:
                c.close()

    def test_a_packet_that_stops_part_way_is_left(self):
        # one byte of a PUBLISH, then silence: the reader waits in recv, where no
        # ping falls due, and is ended after one ping interval of 1 s
        with silent_broker(after_connack=bytes([mp.PUBLISH << 4])) as port:
            c = MqttClient("127.0.0.1", port, "c", keepalive=2)
            c.connect()
            try:
                assert c.wait_closed(3.0)
                assert not c.connected
            finally:
                c.close()

    def test_pings_keep_their_interval_under_a_steady_stream(self, monkeypatch):
        # the broker's keepalive counts what the client sends, not what it reads
        pings, received = [], Collector()
        encode_pingreq = mp.encode_pingreq
        monkeypatch.setattr(mp, "encode_pingreq", lambda: pings.append(time.monotonic()) or encode_pingreq())
        with MqttBroker() as broker, Ticker(broker.port, "t/x"):
            with MqttClient("127.0.0.1", broker.port, "sub", keepalive=2, on_message=received) as c:
                t0 = time.monotonic()
                c.subscribe(["t/#"], qos=0)
                time.sleep(2.5)
                assert c.connected
        assert len(received.messages) > 100
        assert len(pings) >= 2 and pings[0] - t0 < 1.5
        assert all(0.9 < b - a < 1.5 for a, b in zip(pings, pings[1:])), pings

    def test_a_connection_adds_one_thread(self):
        with silent_broker() as port:
            c = MqttClient("127.0.0.1", port, "c", keepalive=60)
            before = threading.active_count()
            c.connect()
            try:
                assert threading.active_count() - before == 1
            finally:
                c.close()

    def test_close_from_another_thread_leaves_the_socket_to_the_reader(self, monkeypatch):
        # a descriptor closed under the reader's recv may be reused by then; this
        # broker ignores DISCONNECT, so only the stop can end the reader's wait
        with silent_broker() as port:
            c = MqttClient("127.0.0.1", port, "c")
            c.connect()
            closers, reader = record_closers(monkeypatch, c._sock), c._reader
            closer = threading.Thread(target=c.close)
            closer.start()
            closer.join(5)
            assert not closer.is_alive() and not reader.is_alive()
        assert closers == [reader]

    def test_concurrent_requests_each_end_when_the_broker_goes(self):
        # four requesters on two cores, switching often, while the broker stops
        outcomes = []

        def requester(c):
            while True:  # until a request finds the connection down
                try:
                    c.publish("t", b"x", qos=1)
                    outcomes.append("acked")
                except ConnectionLost:
                    outcomes.append("ConnectionLost")
                except NotConnected:
                    outcomes.append("NotConnected")
                    return
                except Exception as e:  # noqa: BLE001 - any other ending is the failure
                    outcomes.append(repr(e))
                    return

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        broker = MqttBroker().start()
        c = MqttClient("127.0.0.1", broker.port, "c", io_timeout=5)
        try:
            c.connect()
            threads = [
                threading.Thread(target=requester, args=(c,), daemon=True) for _ in range(4)
            ]
            for t in threads:
                t.start()
            time.sleep(0.05)
            broker.stop()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
            c.close()
            broker.stop()
        assert set(outcomes) <= {"acked", "ConnectionLost", "NotConnected"}
        assert outcomes.count("NotConnected") == 4 and "acked" in outcomes
        assert c._pending == {}

    def test_close_from_another_thread_as_the_reader_starts(self, monkeypatch):
        # a close() landing between the reader's creation and its start, as
        # Subscriber.stop() may, must neither raise nor leave the reader running
        errors, real_thread = [], threading.Thread
        with MqttBroker() as broker:
            client = MqttClient("127.0.0.1", broker.port, "racer")

            def close_elsewhere():
                try:
                    client.close()
                except Exception as e:
                    errors.append(e)

            def thread(*args, target=None, **kwargs):
                t = real_thread(*args, target=target, **kwargs)
                if target == client._read_loop:
                    start = t.start

                    def close_then_start():
                        closer = real_thread(target=close_elsewhere)
                        closer.start()
                        closer.join(5)
                        assert not closer.is_alive()
                        start()

                    t.start = close_then_start
                return t

            monkeypatch.setattr(threading, "Thread", thread)
            client.connect()
            monkeypatch.undo()
            reader = client._reader
            client.close()
        assert errors == []
        assert reader is not None and not reader.is_alive()

    def test_wait_closed_returns_on_broker_stop(self):
        broker = MqttBroker().start()
        c = MqttClient("127.0.0.1", broker.port, "c")
        c.connect()
        try:
            assert not c.wait_closed(0.05)
            broker.stop()
            assert c.wait_closed(5.0)
            assert not c.connected
        finally:
            c.close()

    def test_lossy_broker_drops_but_never_duplicates(self):
        with MqttBroker(deliver_drop_rate=0.3, drop_seed=7) as broker:
            sink = Collector()
            with MqttClient("127.0.0.1", broker.port, "sub", on_message=sink) as sub:
                sub.subscribe(["d/#"], qos=1)
                with MqttClient("127.0.0.1", broker.port, "pub") as pub:
                    for i in range(200):
                        pub.publish("d/1", str(i).encode(), qos=1)
                time.sleep(0.3)
                seen = [int(p) for _, p in sink.messages]
                assert len(seen) == len(set(seen)), "duplicate delivery"
                assert broker.dropped_deliveries > 0
                assert len(seen) + broker.dropped_deliveries == 200

    def test_two_subscribers_both_receive(self):
        with MqttBroker() as broker:
            s1, s2 = Collector(), Collector()
            with MqttClient("127.0.0.1", broker.port, "s1", on_message=s1) as c1, MqttClient(
                "127.0.0.1", broker.port, "s2", on_message=s2
            ) as c2:
                c1.subscribe(["x"])
                c2.subscribe(["x"])
                with MqttClient("127.0.0.1", broker.port, "p") as pub:
                    pub.publish("x", b"v", qos=1)
                assert s1.wait_for(1) and s2.wait_for(1)


class Ticker:
    """Publishes one payload at QoS 0 every 0.5 ms from its own thread,
    reconnecting whenever the broker goes away."""

    def __init__(self, port, topic, payload=b"1"):
        self.port, self.topic, self.payload = port, topic, payload
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=5)
        assert not self._thread.is_alive()

    def _run(self):
        while not self._stop.is_set():
            try:
                with MqttClient("127.0.0.1", self.port, "ticker") as pub:
                    while not self._stop.wait(0.0005):
                        pub.publish(self.topic, self.payload)
            except (OSError, mp.MqttError):
                self._stop.wait(0.001)


def _first_after(times, t0, timeout=5.0):
    """Delay from t0 to the first time in the growing list at or after it."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        later = [t for t in list(times) if t >= t0]
        if later:
            return later[0] - t0
        time.sleep(0.0005)
    raise AssertionError("nothing arrived after t0")


needs_quickack = pytest.mark.skipif(
    not hasattr(socket, "TCP_QUICKACK"), reason="TCP_QUICKACK is Linux-only"
)


class TestFirstMessageLatency:
    """The in-tree broker keeps Nagle's algorithm on, as Mosquitto does by
    default. Unless the client acknowledges SUBACK at once, the broker holds
    the first PUBLISH for the client's 40 ms delayed-ACK timer."""

    def test_client_socket_has_nodelay(self):
        with MqttBroker() as broker, MqttClient("127.0.0.1", broker.port, "c") as c:
            assert c._sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0

    @needs_quickack
    def test_first_message_after_subscribe_is_not_held(self):
        delays = []
        with MqttBroker() as broker, Ticker(broker.port, "t/x"):
            for i in range(5):
                arrivals = []
                stamp = lambda topic, payload: arrivals.append(time.monotonic())
                with MqttClient("127.0.0.1", broker.port, f"sub{i}", on_message=stamp) as sub:
                    sub.subscribe(["t/#"], qos=1)
                    delays.append(_first_after(arrivals, time.monotonic()))
        assert statistics.median(delays) < 0.010, delays

    @needs_quickack
    def test_first_point_after_subscriber_reconnect_is_not_held(self, monkeypatch):
        subscribed, arrivals = [], []

        class TimedClient(MqttClient):
            def subscribe(self, filters, qos=1):
                codes = super().subscribe(filters, qos)
                subscribed.append(time.monotonic())
                return codes

        monkeypatch.setattr(ingest, "MqttClient", TimedClient)
        broker = MqttBroker().start()
        cfg = BrokerConfig("127.0.0.1", broker.port, "sub", backoff_initial_s=0.05, backoff_max_s=0.2)
        sub = Subscriber(cfg, [aranet_binding()], lambda dp: arrivals.append(time.monotonic()))
        delays = []
        try:
            with Ticker(broker.port, "aranet/a/measurements", b'{"co2": 400}'):
                sub.start()
                _first_after(arrivals, 0.0)
                for cycle in range(1, 6):
                    broker.restart()
                    deadline = time.monotonic() + 5
                    while len(subscribed) <= cycle and time.monotonic() < deadline:
                        time.sleep(0.001)
                    assert len(subscribed) > cycle, "subscriber never resubscribed"
                    delays.append(_first_after(arrivals, subscribed[cycle]))
        finally:
            sub.stop()
            broker.stop()
        assert sub.reconnects >= 5
        assert statistics.median(delays) < 0.010, delays
