"""JSON telemetry ingestion: MQTT topic bindings and an HTTP poller.

Vendor payload shapes are configuration, not code: a binding maps JSON
pointers (RFC 6901) to named parameters, so schema churn never requires
a code change. Pointers are checked and split once, when a binding or poll
spec is built, and both map fields through one function. Entity ids are built from topic levels via ``{N}``
placeholders, e.g. filter ``aranet/+/measurements`` with template
``aranet-{1}`` names the device from the middle level.
"""

from __future__ import annotations

import json
import logging
import math
import os
import re
import threading
import time
from dataclasses import dataclass, field
from functools import cached_property
from string import Formatter
from typing import Callable, MutableMapping
from urllib.parse import urlsplit

from telegw.model import FLAG, KINDS, REAL, DataPoint, Value, check_identifier, check_tags
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
        check_identifier(self.parameter, "parameter name")


def _split_pointer(pointer: str, what: str = "JSON pointer") -> tuple[str, ...]:
    """The unescaped reference tokens of an RFC 6901 pointer; () for ""."""
    if pointer == "":
        return ()
    if not pointer.startswith("/"):
        raise ValueError(f"bad {what} {pointer!r}")
    return tuple(t.replace("~1", "/").replace("~0", "~") for t in pointer[1:].split("/"))


_ABSENT = object()
_INDEX = re.compile(r"0|[1-9][0-9]*")  # an RFC 6901 array index: ASCII, no leading zero


def _walk(node, tokens: tuple[str, ...]):
    """The member ``tokens`` lead to, or _ABSENT."""
    for token in tokens:
        if isinstance(node, dict):
            if token not in node:
                return _ABSENT
            node = node[token]
        elif isinstance(node, list) and _INDEX.fullmatch(token) and int(token) < len(node):
            node = node[int(token)]
        else:
            return _ABSENT
    return node


def resolve_pointer(doc, pointer: str):
    """RFC 6901 lookup; raises LookupError when the path is absent."""
    node = _walk(doc, _split_pointer(pointer))
    if node is _ABSENT:
        raise LookupError(pointer)
    return node


def _keep_split(spec, *names: str) -> None:
    """Check a frozen spec's JSON pointers and keep them split, as ``_<name>``
    attributes rather than fields, so that equality and the config digest see
    them as written. ``field_map`` becomes ``_fields``, (tokens, spec) pairs."""
    fields = tuple((_split_pointer(p, "field pointer"), f) for p, f in spec.field_map.items())
    object.__setattr__(spec, "_fields", fields)
    for name in names:
        pointer = getattr(spec, name)
        split = None if pointer is None else _split_pointer(pointer, name)
        object.__setattr__(spec, f"_{name}", split)


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
        _keep_split(self, "timestamp_pointer")
        if self.timestamp_unit not in _TS_FACTORS:
            raise ValueError(f"timestamp_unit must be one of {sorted(_TS_FACTORS)}")
        check_tags(self.tags)
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
        paths = [tokens for tokens, _ in self._fields] + [self._timestamp_pointer]
        return frozenset(tokens[0] for tokens in paths if tokens)


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


def _map_fields(node, fields, entity_id: str, timestamp: int, tags, stats) -> list[DataPoint]:
    """A point per field present in ``node``; one of the wrong type is counted."""
    points = []
    for tokens, spec in fields:
        raw = _walk(node, tokens)
        if raw is _ABSENT:
            continue
        value = _to_value(raw, spec)
        if value is None:
            _bump(stats, "type_errors")
            continue
        points.append(DataPoint(entity_id, spec.parameter, value, spec.unit, timestamp, tags))
    return points


def _load_json(data: bytes):
    try:
        return json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
        # RecursionError: nested deeper than the interpreter's recursion limit
        raise MalformedJson(str(e)) from e


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
    doc = _load_json(payload)

    timestamp, ts_tokens = now_ns, binding._timestamp_pointer
    if ts_tokens is not None:
        try:
            timestamp = _widen_timestamp(_walk(doc, ts_tokens), binding.timestamp_unit)
        except (ValueError, OverflowError):  # absent is not numeric either; OverflowError: 1e400
            _bump(stats, "bad_timestamps")
    entity_id = binding.entity_for(topic)
    points = _map_fields(doc, binding._fields, entity_id, timestamp, binding.tags, stats)
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

    def __post_init__(self):
        if not 0 < self.port <= 0xFFFF:
            raise ValueError(f"port {self.port} outside 1..65535")
        if self.backoff_initial_s <= 0 or self.backoff_max_s <= 0:
            raise ValueError("backoff bounds must be positive")
        if self.backoff_initial_s > self.backoff_max_s:
            raise ValueError("backoff initial exceeds max")

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
    ):
        if not bindings:
            raise ValueError("subscriber needs at least one binding")
        self.broker = broker
        self.bindings = bindings
        self.out = out
        self.clock_ns = clock_ns
        self._stop = threading.Event()
        self._client: MqttClient | None = None
        self._thread: threading.Thread | None = None
        self.stats = dict.fromkeys(("points", "ignored_fields", "type_errors", "bad_timestamps"), 0)
        self.parse_errors = 0
        self.reconnects = 0
        # why the broker refused the login, once start()'s thread gave up
        self.auth_failure: str | None = None

    def _on_message(self, topic: str, payload: bytes) -> None:
        for binding in self.bindings:
            try:
                points = parse_payload(topic, payload, binding, self.clock_ns(), self.stats)
            except TemplateMismatch:  # another binding's topic
                continue
            except IngestError:
                self.parse_errors += 1
                continue
            for dp in points:
                self.out(dp)

    @property
    def points_out(self) -> int:
        return self.stats["points"]

    def run(self) -> None:
        """Blocks until stop(); raises only AuthFailure."""
        backoff = self.broker.backoff_initial_s
        while not self._stop.is_set():
            username, password = self.broker.credentials()
            client = MqttClient(
                self.broker.host,
                self.broker.port,
                self.broker.client_id,
                username,
                password,
                on_message=self._on_message,
            )
            # stop() sets _stop, then closes the client it finds: either this
            # check sees the first, or the close wakes a connect or SUBSCRIBE
            self._client = client
            if self._stop.is_set():
                return
            try:
                client.connect()
                client.subscribe([b.topic_filter for b in self.bindings], qos=1)
            except AuthRejected as e:
                raise AuthFailure(str(e)) from e
            except (OSError, mp.MqttError):
                client.close()
                if self._stop.wait(backoff):
                    return
                backoff = min(backoff * 2, self.broker.backoff_max_s)
                continue
            backoff = self.broker.backoff_initial_s
            client.wait_closed()
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
        _keep_split(self, "entity_array_pointer", "entity_id_pointer")
        if (self.auth_header is None) != (self.auth_value_env is None):
            raise ValueError("auth header and value env must be given together")
        check_tags(self.tags)


POLL_TIMEOUT_S = 30.0


def _default_getter(url: str, headers: dict[str, str]) -> tuple[int, bytes]:
    from telegw.httpio import HttpClient

    return HttpClient(POLL_TIMEOUT_S).request("GET", url, headers)


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
    doc = _load_json(content)
    entities = _walk(doc, spec._entity_array_pointer)
    if entities is _ABSENT:
        raise SchemaMismatch(f"selector {spec.entity_array_pointer!r} absent")
    if not isinstance(entities, list) or not entities:
        raise SchemaMismatch(f"selector {spec.entity_array_pointer!r} yields no entities")

    timestamp = time.time_ns() if now_ns is None else now_ns
    points = []
    for obj in entities:
        raw_id = _walk(obj, spec._entity_id_pointer)
        if not isinstance(raw_id, (str, int)):  # _ABSENT is neither
            _bump(stats, "missing_entity_ids")
            continue
        points += _map_fields(obj, spec._fields, str(raw_id), timestamp, spec.tags, stats)
    _bump(stats, "points", len(points))
    return points
