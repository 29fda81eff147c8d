"""Minimal MQTT 3.1.1 broker for development and tests.

Clean sessions only, QoS 0 and 1, no retained messages, no persistence.
Supports optional username/password auth, seeded delivery loss for
robustness tests, and stop/start on a stable port to exercise client
reconnect logic.
"""

from __future__ import annotations

import random
import socket
import threading

from telegw.mqtt import protocol as mp
from telegw.netio import shut


class _Session:
    def __init__(self, sock: socket.socket, client_id: str):
        self.sock = sock
        self.client_id = client_id
        self.subscriptions: list[tuple[str, int]] = []
        self.send_lock = threading.Lock()
        self.next_pid = 0

    def send(self, data: bytes) -> None:
        with self.send_lock:
            self.sock.sendall(data)

    def alloc_pid(self) -> int:
        self.next_pid = self.next_pid % 0xFFFF + 1
        return self.next_pid


class MqttBroker:
    """In-process broker; start() binds, stop() halts, start() again rebinds
    the same port so clients can observe a restart."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        auth: dict[str, str] | None = None,
        deliver_drop_rate: float = 0.0,
        drop_seed: int = 0,
    ):
        if not 0.0 <= deliver_drop_rate < 1.0:
            raise ValueError("deliver_drop_rate must be in [0, 1)")
        self.host = host
        self.port = port
        self.auth = auth
        self.deliver_drop_rate = deliver_drop_rate
        self._rng = random.Random(drop_seed)
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._running = threading.Event()
        self._sessions: list[_Session] = []
        self._lock = threading.Lock()
        self.connects = 0
        self.publishes_in = 0
        self.deliveries = 0
        self.dropped_deliveries = 0

    def start(self) -> "MqttBroker":
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        self.port = listener.getsockname()[1]
        listener.listen(32)
        self._listener = listener
        self._running.set()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, args=(listener,), daemon=True
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        self._running.clear()
        if self._listener is not None:
            shut(self._listener)
            self._listener = None
        with self._lock:
            sessions, self._sessions = self._sessions, []
        for s in sessions:
            shut(s.sock)
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)
            self._accept_thread = None

    def restart(self) -> None:
        self.stop()
        self.start()

    def __enter__(self) -> "MqttBroker":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def session_count(self) -> int:
        with self._lock:
            return len(self._sessions)

    def _accept_loop(self, listener: socket.socket) -> None:
        while self._running.is_set():
            try:
                conn, _ = listener.accept()
            except OSError:
                return
            threading.Thread(target=self._serve, args=(conn,), daemon=True).start()

    def _serve(self, conn: socket.socket) -> None:
        session = None
        try:
            conn.settimeout(10.0)
            ptype, _, body = mp.read_packet(conn)
            if ptype != mp.CONNECT:
                return
            info = mp.decode_connect(body)
            conn.settimeout(None)
            if self.auth is not None:
                if info.username is None or self.auth.get(info.username) != info.password:
                    conn.sendall(mp.encode_connack(mp.CONNACK_BAD_CREDENTIALS))
                    return
            session = _Session(conn, info.client_id)
            with self._lock:
                self._sessions.append(session)
                self.connects += 1
            session.send(mp.encode_connack(mp.CONNACK_ACCEPTED))
            self._pump(session)
        except (ConnectionError, OSError, mp.MqttError):
            pass
        finally:
            if session is not None:
                with self._lock:
                    if session in self._sessions:
                        self._sessions.remove(session)
            try:
                conn.close()
            except OSError:
                pass

    def _pump(self, session: _Session) -> None:
        while self._running.is_set():
            ptype, flags, body = mp.read_packet(session.sock)
            if ptype == mp.PUBLISH:
                pkt = mp.decode_publish(flags, body)
                if pkt.qos > 1:
                    return  # QoS 2 unsupported; drop the session
                with self._lock:
                    self.publishes_in += 1
                self._route(pkt)
                if pkt.qos == 1:
                    session.send(mp.encode_puback(pkt.packet_id))
            elif ptype == mp.SUBSCRIBE:
                packet_id, filters = mp.decode_subscribe(flags, body)
                codes = []
                for topic_filter, qos in filters:
                    try:
                        mp.validate_filter(topic_filter)
                    except mp.ProtocolViolation:
                        codes.append(mp.SUBACK_FAILURE)
                        continue
                    granted = min(qos, 1)
                    session.subscriptions.append((topic_filter, granted))
                    codes.append(granted)
                session.send(mp.encode_suback(packet_id, codes))
            elif ptype == mp.PINGREQ:
                session.send(mp.encode_pingresp())
            elif ptype == mp.PUBACK:
                pass  # fire-and-forget outbound QoS 1; ack not tracked
            elif ptype == mp.DISCONNECT:
                return
            else:
                return  # anything else is a violation for this broker

    def _route(self, pkt: mp.PublishPacket) -> None:
        with self._lock:
            targets = []
            for session in self._sessions:
                best = -1
                for topic_filter, qos in session.subscriptions:
                    if mp.topic_matches(topic_filter, pkt.topic):
                        best = max(best, qos)
                if best >= 0:
                    targets.append((session, min(pkt.qos, best)))
        for session, qos in targets:
            if self.deliver_drop_rate and self._rng.random() < self.deliver_drop_rate:
                with self._lock:
                    self.dropped_deliveries += 1
                continue
            pid = session.alloc_pid() if qos == 1 else None
            out = mp.PublishPacket(pkt.topic, pkt.payload, qos, pid)
            try:
                session.send(mp.encode_publish(out))
                with self._lock:
                    self.deliveries += 1
            except OSError:
                pass
