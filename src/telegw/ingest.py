"""JSON telemetry ingestion: MQTT topic bindings and an HTTP poller.

Vendor payload shapes are configuration, not code: a binding maps JSON
pointers (RFC 6901) to named parameters, so schema churn never requires
a code change. Entity ids are built from topic levels via ``{N}``
placeholders, e.g. filter ``aranet/+/measurements`` with template
``aranet-{1}`` names the device from the middle level.
"""

from __future__ import annotations

import json
import logging
import math
import os
import threading
import time
from dataclasses import dataclass, field
from functools import cached_property
from string import Formatter
from typing import Callable, MutableMapping
from urllib.parse import urlsplit

from telegw.model import FLAG, KINDS, REAL, DataPoint, Value
from telegw.mqtt import protocol as mp
from telegw.mqtt.client import AuthRejected, MqttClient

log = logging.getLogger(__name__)


class IngestError(Exception):
    pass


class MalformedJson(IngestError):
    pass


class TemplateMismatch(IngestError):
    """Topic does not fall under the binding's filter."""


class SchemaMismatch(IngestError):
    """Response shape does not contain what the selector expects."""


class HttpStatus(IngestError):
    def __init__(self, code: int):
        super().__init__(f"unexpected HTTP status {code}")
        self.code = code


class AuthFailure(IngestError):
    """Broker rejected the credentials; retrying cannot help."""


@dataclass(frozen=True, slots=True)
class FieldSpec:
    parameter: str
    unit: str = ""
    kind: str = REAL
    scale: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown field kind {self.kind!r}")
        if self.scale is not None and self.kind != REAL:
            raise ValueError("scale applies to real fields only")
        if not self.parameter:
            raise ValueError("parameter name must be non-empty")


def resolve_pointer(doc, pointer: str):
    """RFC 6901 lookup; raises LookupError when the path is absent."""
    if pointer == "":
        return doc
    if not pointer.startswith("/"):
        raise ValueError(f"JSON pointer must start with '/': {pointer!r}")
    node = doc
    for token in pointer[1:].split("/"):
        token = token.replace("~1", "/").replace("~0", "~")
        if isinstance(node, dict):
            if token not in node:
                raise LookupError(pointer)
            node = node[token]
        elif isinstance(node, list):
            if not token.isdigit() or int(token) >= len(node):
                raise LookupError(pointer)
            node = node[int(token)]
        else:
            raise LookupError(pointer)
    return node


def _template_captures(template: str) -> list[int]:
    captures = []
    for _, name, _, _ in Formatter().parse(template):
        if name is None:
            continue
        if not name.isdigit():
            raise ValueError(f"template capture {{{name}}} must be a topic level index")
        captures.append(int(name))
    return captures


_TS_FACTORS = {"s": 1_000_000_000, "ms": 1_000_000, "ns": 1}


@dataclass(frozen=True)
class TopicBinding:
    topic_filter: str
    entity_template: str
    field_map: dict[str, FieldSpec]
    timestamp_pointer: str | None = None
    timestamp_unit: str = "s"
    tags: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        mp.validate_filter(self.topic_filter)
        if not self.field_map:
            raise ValueError("field_map must be non-empty")
        for pointer in self.field_map:
            if pointer and not pointer.startswith("/"):
                raise ValueError(f"bad field pointer {pointer!r}")
        if self.timestamp_unit not in _TS_FACTORS:
            raise ValueError(f"timestamp_unit must be one of {sorted(_TS_FACTORS)}")
        levels = self.topic_filter.split("/")
        bound = levels.index("#") if "#" in levels else len(levels)
        for n in _template_captures(self.entity_template):
            if n >= bound:
                raise ValueError(
                    f"capture {{{n}}} is outside the filter's {bound} fixed levels"
                )

    def entity_for(self, topic: str) -> str:
        return self.entity_template.format(*topic.split("/"))

    @cached_property
    def consumed_keys(self) -> frozenset[str]:
        """Top-level payload members the field map and the timestamp read."""
        pointers = [*self.field_map, self.timestamp_pointer or ""]
        return frozenset(
            p.split("/")[1].replace("~1", "/").replace("~0", "~")
            for p in pointers
            if p.startswith("/")
        )


def _widen_timestamp(raw, unit: str) -> int:
    factor = _TS_FACTORS[unit]
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ValueError(f"timestamp must be numeric, got {type(raw).__name__}")
    if isinstance(raw, int):
        return raw * factor
    return round(raw * factor)


def _to_value(raw, spec: FieldSpec) -> Value | None:
    if spec.kind == REAL:
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            return None
        try:
            x = float(raw)
        except OverflowError:  # an integer beyond float range reads as 1e400 does
            x = math.inf if raw > 0 else -math.inf
        return Value.real(x if spec.scale is None else x * spec.scale)
    if spec.kind == FLAG:
        if isinstance(raw, bool):
            return Value.flag(raw)
        if raw in (0, 1):
            return Value.flag(bool(raw))
        return None
    return Value.text(raw) if isinstance(raw, str) else None


def _bump(stats: MutableMapping[str, int] | None, key: str, n: int = 1) -> None:
    if stats is not None:
        stats[key] = stats.get(key, 0) + n


def parse_payload(
    topic: str,
    payload: bytes,
    binding: TopicBinding,
    now_ns: int,
    stats: MutableMapping[str, int] | None = None,
) -> list[DataPoint]:
    """Map one published JSON document to data points.

    Deterministic in (topic, payload, binding, now_ns); the optional stats
    mapping only accumulates counters for payload members nothing consumed
    and for values whose JSON type contradicts the field spec.
    """
    if not mp.topic_matches(binding.topic_filter, topic):
        raise TemplateMismatch(f"{topic!r} does not match {binding.topic_filter!r}")
    try:
        doc = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise MalformedJson(str(e)) from e

    entity_id = binding.entity_for(topic)
    timestamp = now_ns
    if binding.timestamp_pointer is not None:
        try:
            timestamp = _widen_timestamp(
                resolve_pointer(doc, binding.timestamp_pointer), binding.timestamp_unit
            )
        except (LookupError, ValueError, OverflowError):  # OverflowError: 1e400
            _bump(stats, "bad_timestamps")

    points = []
    for pointer, spec in binding.field_map.items():
        try:
            raw = resolve_pointer(doc, pointer)
        except LookupError:
            continue
        value = _to_value(raw, spec)
        if value is None:
            _bump(stats, "type_errors")
            continue
        points.append(
            DataPoint(entity_id, spec.parameter, value, spec.unit, timestamp, binding.tags)
        )

    if isinstance(doc, dict):
        consumed = binding.consumed_keys
        _bump(stats, "ignored_fields", sum(1 for k in doc if k not in consumed))
    _bump(stats, "points", len(points))
    return points


@dataclass(frozen=True)
class BrokerConfig:
    host: str
    port: int = 1883
    client_id: str = "telegw"
    username_env: str | None = None
    password_env: str | None = None
    backoff_initial_s: float = 0.5
    backoff_max_s: float = 30.0
    backoff_multiplier: float = 2.0

    def __post_init__(self):
        if self.backoff_initial_s <= 0 or self.backoff_max_s <= 0:
            raise ValueError("backoff bounds must be positive")
        if self.backoff_initial_s > self.backoff_max_s:
            raise ValueError("backoff initial exceeds max")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff multiplier must be >= 1")

    def credentials(self) -> tuple[str | None, str | None]:
        username = os.environ.get(self.username_env) if self.username_env else None
        password = os.environ.get(self.password_env) if self.password_env else None
        if self.username_env and username is None:
            raise AuthFailure(f"environment variable {self.username_env} is unset")
        if self.password_env and password is None:
            raise AuthFailure(f"environment variable {self.password_env} is unset")
        return username, password


class Subscriber:
    """Owns one broker connection: subscribes every binding's filter at
    QoS 1, parses everything that arrives, and forwards points to the
    pipeline inlet. Transport loss heals itself with exponential backoff;
    bad credentials do not."""

    def __init__(
        self,
        broker: BrokerConfig,
        bindings: list[TopicBinding],
        out: Callable[[DataPoint], None],
        clock_ns: Callable[[], int] = time.time_ns,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if not bindings:
            raise ValueError("subscriber needs at least one binding")
        self.broker = broker
        self.bindings = bindings
        self.out = out
        self.clock_ns = clock_ns
        self._sleep = sleep
        self._stop = threading.Event()
        self._disconnected = threading.Event()
        self._client: MqttClient | None = None
        self._thread: threading.Thread | None = None
        self.stats = dict.fromkeys(("points", "ignored_fields", "type_errors", "bad_timestamps"), 0)
        self.parse_errors = 0
        self.reconnects = 0
        self.points_out = 0
        # why the broker refused the login, once start()'s thread gave up
        self.auth_failure: str | None = None

    def _on_message(self, topic: str, payload: bytes) -> None:
        for binding in self.bindings:
            if not mp.topic_matches(binding.topic_filter, topic):
                continue
            try:
                points = parse_payload(topic, payload, binding, self.clock_ns(), self.stats)
            except IngestError:
                self.parse_errors += 1
                continue
            for dp in points:
                self.out(dp)
                self.points_out += 1

    def run(self) -> None:
        """Blocks until stop(); raises only AuthFailure."""
        backoff = self.broker.backoff_initial_s
        while not self._stop.is_set():
            username, password = self.broker.credentials()
            self._disconnected.clear()
            client = MqttClient(
                self.broker.host,
                self.broker.port,
                self.broker.client_id,
                username,
                password,
                on_message=self._on_message,
                on_disconnect=self._disconnected.set,
            )
            try:
                client.connect()
                client.subscribe([b.topic_filter for b in self.bindings], qos=1)
            except AuthRejected as e:
                raise AuthFailure(str(e)) from e
            except (OSError, mp.MqttError):
                client.close()
                if self._stop.wait(backoff):
                    return
                backoff = min(backoff * self.broker.backoff_multiplier, self.broker.backoff_max_s)
                continue
            self._client = client
            backoff = self.broker.backoff_initial_s
            # stop() sets _stop, then _disconnected: either the check sees the
            # first or the wait wakes on the second, even if stop() ran
            # before the clear() above
            if not self._stop.is_set():
                self._disconnected.wait()
            self._client = None
            client.close()
            if not self._stop.is_set():
                self.reconnects += 1
                self._stop.wait(backoff)

    def start(self) -> "Subscriber":
        self._thread = threading.Thread(target=self._run_subscriber, daemon=True)
        self._thread.start()
        return self

    def _run_subscriber(self) -> None:
        try:
            self.run()
        except AuthFailure as e:
            log.error("broker %s:%s: %s", self.broker.host, self.broker.port, e)
            # last: whoever sees it set may take this thread as finished
            self.auth_failure = str(e)

    def stop(self) -> None:
        self._stop.set()
        self._disconnected.set()
        client = self._client
        if client is not None:
            client.close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None


@dataclass(frozen=True)
class HttpPollSpec:
    """Pull counterpart to a topic binding: one GET yields an array of
    per-entity objects, each mapped through the same field-spec scheme."""

    url: str
    interval_s: float
    field_map: dict[str, FieldSpec]
    entity_array_pointer: str
    entity_id_pointer: str
    auth_header: str | None = None
    auth_value_env: str | None = None
    tags: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        scheme = urlsplit(self.url).scheme
        if scheme not in ("http", "https"):
            raise ValueError(f"url scheme must be http or https, got {scheme!r}")
        if self.interval_s < 10:
            raise ValueError("poll interval must be at least 10 s")
        if not self.field_map:
            raise ValueError("field_map must be non-empty")
        if (self.auth_header is None) != (self.auth_value_env is None):
            raise ValueError("auth header and value env must be given together")


def _default_getter(url: str, headers: dict[str, str]) -> tuple[int, bytes]:
    import requests

    resp = requests.get(url, headers=headers, timeout=30)
    return resp.status_code, resp.content


def poll_http(
    spec: HttpPollSpec,
    now_ns: int | None = None,
    getter: Callable[[str, dict[str, str]], tuple[int, bytes]] = _default_getter,
    stats: MutableMapping[str, int] | None = None,
) -> list[DataPoint]:
    headers = {}
    if spec.auth_header is not None:
        value = os.environ.get(spec.auth_value_env)
        if value is None:
            raise AuthFailure(f"environment variable {spec.auth_value_env} is unset")
        headers[spec.auth_header] = value
    status, content = getter(spec.url, headers)
    if not 200 <= status < 300:
        raise HttpStatus(status)
    try:
        doc = json.loads(content.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise MalformedJson(str(e)) from e
    try:
        entities = resolve_pointer(doc, spec.entity_array_pointer)
    except LookupError:
        raise SchemaMismatch(f"selector {spec.entity_array_pointer!r} absent") from None
    if not isinstance(entities, list) or not entities:
        raise SchemaMismatch(f"selector {spec.entity_array_pointer!r} yields no entities")

    timestamp = time.time_ns() if now_ns is None else now_ns
    points = []
    for obj in entities:
        try:
            raw_id = resolve_pointer(obj, spec.entity_id_pointer)
        except LookupError:
            _bump(stats, "missing_entity_ids")
            continue
        if not isinstance(raw_id, (str, int)):
            _bump(stats, "missing_entity_ids")
            continue
        entity_id = str(raw_id)
        for pointer, fspec in spec.field_map.items():
            try:
                raw = resolve_pointer(obj, pointer)
            except LookupError:
                continue
            value = _to_value(raw, fspec)
            if value is None:
                _bump(stats, "type_errors")
                continue
            points.append(
                DataPoint(entity_id, fspec.parameter, value, fspec.unit, timestamp, spec.tags)
            )
    _bump(stats, "points", len(points))
    return points
