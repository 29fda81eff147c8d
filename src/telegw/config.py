"""YAML configuration: one document describes every device, broker, poll,
alert, and the sink, plus an optional simulation section that can stand in
for the real hardware.

Each section is described once, by its dataclass: the section's allowed
keys and their types are read off the dataclass's fields, and only the YAML
names that differ from their attribute, and the fields no key sets, are
written here. One step, ``_Walker.make``, builds every section: the keys
present with the right type, plus what the parser supplies (a device's
registers, a binding's field map), become the keyword arguments of the
section's dataclass. The dataclass checks its own values; when it refuses
them, the reason is recorded against the section's path and the walk goes
on. An absent key takes that dataclass's default; the only defaults kept
here are those that belong to the config itself (a broker's ``client_id``
is ``gateway-<index>``, an HTTP poll runs every 300 s, a simulated fleet is
one device every 60 s that always changes) and the placeholders that let
the walk go on past a missing required key.

Validation is exhaustive: the loader walks the whole document and reports
every problem it finds in a single :class:`InvariantViolation` instead of
stopping at the first. Secrets never appear inline; string values may use
``${VAR}`` and credential fields name environment variables, all of which
must resolve at load time.

The document is parsed with PyYAML's libyaml-backed ``CSafeLoader`` when
PyYAML was built with it, else with the pure-Python ``SafeLoader``. Both
accept the same safe subset; libyaml parses a gateway config about seven
times faster, which matters because the gateway restarts whenever an
integration changes. A syntax error reports the same line under either.
"""

from __future__ import annotations

import dataclasses
import fnmatch
import math
import os
import re
import typing
from dataclasses import dataclass, field
from datetime import date

import yaml

from telegw.alerts import AlertRule, LogNotifier, SmtpStubNotifier, WebhookNotifier
from telegw.ingest import BrokerConfig, FieldSpec, HttpPollSpec, TopicBinding
from telegw.model import check_identifier, check_tags
from telegw.modbus import (
    ConnectionPolicy,
    HistoricalReadConfig,
    RegisterBinding,
    RegisterCodec,
)
from telegw.mqtt import ProtocolViolation
from telegw.pipeline import SinkConfig


class ConfigError(Exception):
    pass


class ParseError(ConfigError):
    """The document is not valid YAML."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class UnknownField(ConfigError):
    def __init__(self, path: str):
        super().__init__(f"unknown field {path}")
        self.path = path


class InvariantViolation(ConfigError):
    """Carries every problem found in one pass."""

    def __init__(self, problems: list):
        self.problems = problems
        lines = "\n".join(f"  - {p}" for p in problems)
        super().__init__(f"{len(problems)} configuration problem(s):\n{lines}")


# chosen once at import; see the module docstring
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

_ENV_RE = re.compile(r"\$\{([A-Za-z_][A-Za-z0-9_]*)\}")
# the gateway's scheduler jobs besides the devices: HTTP polls and the stats dump
STATS_JOB = "stats-dump"
_JOB_NAME = re.compile(rf"http-\d+|{STATS_JOB}")


@dataclass(frozen=True)
class GatewaySettings:
    heartbeat_s: float = 0.0
    jitter: float = 0.05
    health_host: str = "127.0.0.1"
    health_port: int = 8080
    stats_path: str | None = None
    drain_timeout_s: float = 5.0


@dataclass(frozen=True)
class HistoricalSpec:
    config: HistoricalReadConfig
    bindings: tuple[RegisterBinding, ...]
    days_back: int = 1

    def __post_init__(self):
        # a poll asks for the day days_back before today; the date window
        # (encode_date_y2k) holds no day before 2000-01-01
        if not 0 <= self.days_back <= (date.today() - date(2000, 1, 1)).days:
            raise ValueError(f"days_back {self.days_back} must name a day from 2000-01-01 to today")


@dataclass(frozen=True)
class ModbusDeviceSpec:
    id: str
    host: str
    port: int = 502
    unit: int = 1
    interval_s: float = 60.0
    policy: ConnectionPolicy = field(default_factory=ConnectionPolicy)
    tags: dict = field(default_factory=dict)
    bindings: tuple[RegisterBinding, ...] = ()
    historical: HistoricalSpec | None = None

    def __post_init__(self):
        _check_device(self)
        if not 0 <= self.unit <= 0xFF:
            raise ValueError(f"unit {self.unit} outside 0..255")


@dataclass(frozen=True)
class BacnetDeviceSpec:
    id: str
    host: str
    port: int = 0xBAC0
    device_instance: int = 0
    interval_s: float = 60.0
    timeout_ms: int = 1000
    retries: int = 3
    discover: bool = False
    names: tuple[str, ...] = ()
    tags: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_device(self)
        if not 0 <= self.device_instance <= 0x3FFFFF:
            raise ValueError(f"device_instance {self.device_instance} outside 0..4194303")
        for name in self.names:
            check_identifier(name, "object name")
        if not self.names and not self.discover:
            raise ValueError("needs names or discover: true")


def _check_device(spec) -> None:
    """What the poller and the line renderer need of every polled device."""
    check_identifier(spec.id, "device id")
    check_tags(spec.tags)
    if not 0 < spec.interval_s < math.inf:
        raise ValueError("interval must be positive and finite")
    if not 0 < spec.port <= 0xFFFF:
        raise ValueError(f"port {spec.port} outside 1..65535")


@dataclass(frozen=True)
class BrokerEntry:
    config: BrokerConfig
    bindings: tuple[TopicBinding, ...]


@dataclass(frozen=True)
class NotifierSpec:
    type: str  # log | webhook | smtp_spool
    url: str | None = None
    spool_dir: str | None = None

    def __post_init__(self):
        if self.type not in ("log", "webhook", "smtp_spool"):
            raise ValueError("type must be log, webhook, or smtp_spool")
        if self.type == "webhook":
            if not self.url:
                raise ValueError("webhook needs url")
            WebhookNotifier.check_url(self.url)
        if self.type == "smtp_spool" and not self.spool_dir:
            raise ValueError("smtp_spool needs spool_dir")

    def build(self):
        """The notifier this describes; a spool notifier creates its directory."""
        if self.type == "log":
            return LogNotifier()
        if self.type == "webhook":
            return WebhookNotifier(self.url)
        return SmtpStubNotifier(self.spool_dir)


@dataclass(frozen=True, slots=True)
class ParamSpec:
    """One simulated parameter: a random walk between ``lo`` and ``hi``."""

    name: str
    lo: float
    hi: float
    step: float
    quantum: float = 1.0
    decimals: int = 0

    def __post_init__(self):
        if self.lo >= self.hi:
            raise ValueError(f"{self.name}: lo must be < hi")
        if self.step <= 0 or self.quantum <= 0:
            raise ValueError(f"{self.name}: step and quantum must be positive")


@dataclass(frozen=True)
class DeviceClass:
    """A simulated fleet of identical devices (see :mod:`telegw.sim.fleet`)."""

    kind: str
    count: int
    interval_s: float
    change_prob: float
    parameters: tuple[ParamSpec, ...]
    topic_template: str = "{kind}/{device_id}/measurements"

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.interval_s <= 0:
            raise ValueError("interval must be positive")
        if not 0.0 <= self.change_prob <= 1.0:
            raise ValueError("change probability must be in [0, 1]")
        if not self.parameters:
            raise ValueError("a device class needs at least one parameter")


@dataclass(frozen=True)
class SimulateSpec:
    compression: float = 60.0
    seed: int = 0
    fleets: tuple[DeviceClass, ...] = ()


@dataclass(frozen=True)
class GatewayConfig:
    gateway: GatewaySettings
    sink: SinkConfig
    brokers: tuple[BrokerEntry, ...] = ()
    http_polls: tuple[HttpPollSpec, ...] = ()
    modbus_devices: tuple[ModbusDeviceSpec, ...] = ()
    bacnet_devices: tuple[BacnetDeviceSpec, ...] = ()
    alert_rules: tuple[AlertRule, ...] = ()
    notifiers: tuple[NotifierSpec, ...] = ()
    simulate: SimulateSpec | None = None
    warnings: tuple[str, ...] = ()


def _table(cls, skip=(), **renamed) -> dict:
    """YAML key -> (type, attribute) for each field of the dataclass ``cls``
    that a key sets: one typed ``int``, ``float``, ``str``, ``bool``, ``dict``
    or ``dict[str, str]``, each optionally ``| None``. The key is the
    attribute's name unless ``renamed`` maps another key to it; ``skip``
    names the fields no key sets. The parser supplies every other field."""
    keys = {attr: key for key, attr in renamed.items()}
    hints = typing.get_type_hints(cls)
    table = {}
    for f in dataclasses.fields(cls):
        typ = hints[f.name]
        if type(None) in typing.get_args(typ):  # X | None
            (typ,) = (a for a in typing.get_args(typ) if a is not type(None))
        if typ == dict[str, str]:
            typ = dict
        if typ in (int, float, str, bool, dict) and f.name not in skip:
            table[keys.get(f.name, f.name)] = (typ, f.name)
    return table


# One table per section, read off its dataclass. An absent or wrong-typed
# key is left out of the keyword arguments, so the dataclass default applies.
_GATEWAY = _table(GatewaySettings)
_SINK = _table(SinkConfig)
_FIELD = _table(FieldSpec)
_BROKER = _table(BrokerConfig)
_BINDING = _table(TopicBinding, topic="topic_filter", entity="entity_template")
_HTTP_POLL = _table(HttpPollSpec)
_REGISTER = _table(
    RegisterBinding, name="parameter", fc="function", addr="address", unit="unit_label"
)
_CODEC = _table(RegisterCodec, dtype="datatype")
_MODBUS = _table(ModbusDeviceSpec, skip=("id",))  # _parse_devices reads the id itself
_POLICY = _table(ConnectionPolicy, retries="request_retries")
_HISTORICAL = _table(HistoricalReadConfig, date_addr="date_address", ready_addr="ready_address")
_HISTORICAL_SPEC = _table(HistoricalSpec)
_BACNET = _table(BacnetDeviceSpec, skip=("id",))
_RULE = _table(AlertRule, for_duration_s="for_duration", cooldown_s="cooldown")
_NOTIFIER = _table(NotifierSpec)
_SIMULATE = _table(SimulateSpec)
_FLEET = _table(DeviceClass)
_PARAM = _table(ParamSpec)


class _Walker:
    """Accumulates problems while pulling typed values out of nested dicts."""

    def __init__(self):
        self.problems: list = []

    def fail(self, message: str) -> None:
        self.problems.append(message)

    def section(self, raw, path: str, *allowed) -> dict:
        """``raw`` as a mapping whose keys all appear in one of ``allowed``
        (tables, or tuples naming nested keys)."""
        if raw is None:
            return {}
        if not isinstance(raw, dict):
            self.fail(f"{path} must be a mapping, got {type(raw).__name__}")
            return {}
        for key in raw:
            for keys in allowed:
                if key in keys:
                    break
            else:
                self.problems.append(UnknownField(f"{path}.{key}"))
        return raw

    def items(self, raw, path: str) -> list:
        if raw is None:
            return []
        if not isinstance(raw, list):
            self.fail(f"{path} must be a list")
            return []
        return raw

    def read(self, d: dict, table: dict, path: str, required=(), defaults=()) -> dict:
        """Keyword arguments for the keys of ``table`` that ``d`` holds with
        the right type (null counts as absent; an int is a float; a dict
        maps strings to strings). A key of ``required`` that is absent is
        reported; one absent or wrong-typed takes the placeholder given
        there, and one of ``defaults`` the value given there."""
        out = {}
        for key, (typ, attr) in table.items():
            v = d.get(key)
            if typ is float and type(v) is int:
                v = float(v)
            if isinstance(v, typ) and not (typ is int and type(v) is bool):
                out[attr] = self._str_map(v, f"{path}.{key}") if typ is dict else v
                continue
            if v is not None:
                self.fail(f"{path}.{key} must be {typ.__name__}")
            elif key in required:
                self.fail(f"{path}.{key} is required")
            if key in required:
                out[attr] = required[key]
            elif key in defaults:
                out[attr] = defaults[key]
        return out

    def _str_map(self, raw: dict, path: str) -> dict:
        out = {}
        for k, v in raw.items():
            if not isinstance(k, str) or not isinstance(v, str):
                self.fail(f"{path} entries must map strings to strings")
                continue
            out[k] = v
        return out

    def env(self, value, path: str):
        """Substitute ${VAR} in strings, recording unresolved names."""
        if isinstance(value, str):
            def sub(m: re.Match) -> str:
                name = m.group(1)
                got = os.environ.get(name)
                if got is None:
                    self.fail(f"{path}: unresolved environment variable ${{{name}}}")
                    return m.group(0)
                return got

            return _ENV_RE.sub(sub, value)
        if isinstance(value, dict):
            return {k: self.env(v, f"{path}.{k}") for k, v in value.items()}
        if isinstance(value, list):
            return [self.env(v, f"{path}[{i}]") for i, v in enumerate(value)]
        return value

    def env_ref(self, d: dict, key: str, path: str) -> None:
        """``d[key]`` names an environment variable: when it is a string, it
        is non-empty and that variable is set now (``read`` reports any
        other type)."""
        name = d.get(key)
        if name == "":
            self.fail(f"{path}.{key} must be a non-empty string")
        elif isinstance(name, str) and os.environ.get(name) is None:
            self.fail(f"{path}.{key}: environment variable {name!r} is not set")

    def make(self, cls, d: dict, table: dict, path: str, required=(), defaults=(), **given):
        """``cls`` built from ``read(d, table, path, required, defaults)``
        and ``given``; None once the reason it refused is recorded."""
        kw = self.read(d, table, path, required, defaults)
        try:
            return cls(**kw, **given)
        except (ValueError, ProtocolViolation) as e:
            self.fail(f"{path}: {e}")
            return None


def _parse_gateway(w: _Walker, raw) -> GatewaySettings:
    kw = w.read(w.section(raw, "gateway", _GATEWAY), _GATEWAY, "gateway")
    if not 0.0 <= kw.get("jitter", 0.0) < 1.0:
        w.fail("gateway.jitter must be in [0, 1)")
        del kw["jitter"]
    if not 0.0 <= kw.get("heartbeat_s", 0.0) < math.inf:
        w.fail("gateway.heartbeat_s must be finite and >= 0")
        del kw["heartbeat_s"]
    if not 0 <= kw.get("health_port", 0) <= 0xFFFF:  # 0 picks a free port
        w.fail("gateway.health_port must be in 0..65535")
        del kw["health_port"]
    return GatewaySettings(**kw)


def _parse_sink(w: _Walker, raw) -> SinkConfig | None:
    d = w.section(raw, "sink", _SINK)
    if not d:
        w.fail("sink section is required")
        return None
    w.env_ref(d, "token_env", "sink")
    return w.make(SinkConfig, d, _SINK, "sink", {"mode": "file"})


def _parse_field_map(w: _Walker, raw, path: str) -> dict[str, FieldSpec]:
    if not isinstance(raw, dict) or not raw:
        w.fail(f"{path}.fields must be a non-empty mapping of JSON pointers")
        return {"/x": FieldSpec("x")}
    out = {}
    for pointer, spec in raw.items():
        p = f"{path}.fields[{pointer}]"
        d = w.section(spec, p, _FIELD)
        if built := w.make(FieldSpec, d, _FIELD, p, {"parameter": "x"}):
            out[pointer] = built
    return out or {"/x": FieldSpec("x")}


def _parse_brokers(w: _Walker, raw) -> tuple[BrokerEntry, ...]:
    entries = []
    for i, item in enumerate(w.items(raw, "brokers")):
        path = f"brokers[{i}]"
        d = w.section(item, path, _BROKER, ("bindings",))
        w.env_ref(d, "username_env", path)
        w.env_ref(d, "password_env", path)
        required, defaults = {"host": "127.0.0.1"}, {"client_id": f"gateway-{i}"}
        cfg = w.make(BrokerConfig, d, _BROKER, path, required, defaults)
        if cfg is None:
            continue
        bindings = []
        for j, b in enumerate(w.items(d.get("bindings"), f"{path}.bindings")):
            bp = f"{path}.bindings[{j}]"
            bd = w.section(b, bp, _BINDING, ("fields",))
            fields = _parse_field_map(w, bd.get("fields"), bp)
            required = {"topic": "#", "entity": "{0}"}
            if binding := w.make(TopicBinding, bd, _BINDING, bp, required, field_map=fields):
                bindings.append(binding)
        if not bindings:
            w.fail(f"{path}: at least one binding is required")
            continue
        entries.append(BrokerEntry(cfg, tuple(bindings)))
    return tuple(entries)


def _parse_http_polls(w: _Walker, raw) -> tuple[HttpPollSpec, ...]:
    polls = []
    for i, item in enumerate(w.items(raw, "http_polls")):
        path = f"http_polls[{i}]"
        d = w.section(item, path, _HTTP_POLL, ("fields",))
        w.env_ref(d, "auth_value_env", path)
        fields = _parse_field_map(w, d.get("fields"), path)
        required = {
            "url": "http://invalid", "entity_array_pointer": "/x", "entity_id_pointer": "/id"
        }
        if poll := w.make(
            HttpPollSpec, d, _HTTP_POLL, path, required, {"interval_s": 300.0}, field_map=fields
        ):
            polls.append(poll)
    return tuple(polls)


def _parse_registers(w: _Walker, raw, path: str) -> tuple[RegisterBinding, ...]:
    out = []
    for i, item in enumerate(w.items(raw, path)):
        p = f"{path}[{i}]"
        d = w.section(item, p, _REGISTER, _CODEC)
        codec = w.make(RegisterCodec, d, _CODEC, p, {"dtype": "u16"}) or RegisterCodec("u16")
        required, defaults = {"name": f"reg{i}", "addr": 0}, {"fc": "holding"}
        if b := w.make(RegisterBinding, d, _REGISTER, p, required, defaults, codec=codec):
            if b.function not in ("holding", "input"):
                w.fail(f"{p}.fc must be 'holding' or 'input'")
            out.append(b)
    return tuple(out)


def _parse_devices(
    w: _Walker, raw
) -> tuple[tuple[ModbusDeviceSpec, ...], tuple[BacnetDeviceSpec, ...]]:
    modbus, bacnet = [], []
    positions: dict[str, int] = {}
    for i, item in enumerate(w.items(raw, "devices")):
        path = f"devices[{i}]"
        if not isinstance(item, dict):
            w.fail(f"{path} must be a mapping")
            continue
        dev_id = item.get("id")
        if not isinstance(dev_id, str) or not dev_id:
            w.fail(f"{path}.id is required")
            dev_id = f"device-{i}"
        if dev_id in positions:
            w.fail(
                f"duplicate device id {dev_id!r} (devices[{positions[dev_id]}] and devices[{i}])"
            )
        else:
            positions[dev_id] = i
        if _JOB_NAME.fullmatch(dev_id):
            w.fail(f"{path}.id {dev_id!r} is reserved for the gateway's own jobs")
        protocol = item.get("protocol")
        if protocol == "modbus":
            nested = ("id", "protocol", "registers", "historical")
            d = w.section(item, path, _MODBUS, _POLICY, nested)
            policy = w.make(ConnectionPolicy, d, _POLICY, path) or ConnectionPolicy()
            registers = _parse_registers(w, d.get("registers"), f"{path}.registers")
            historical = None
            if d.get("historical") is not None:
                hp = f"{path}.historical"
                hd = w.section(d["historical"], hp, _HISTORICAL, _HISTORICAL_SPEC, ("registers",))
                hist_regs = _parse_registers(w, hd.get("registers"), f"{hp}.registers")
                # a rejected entry or a wrong type is reported where it is
                if isinstance(d["historical"], dict) and hd.get("registers") in (None, []):
                    w.fail(f"{hp}.registers is required")
                config = w.make(HistoricalReadConfig, hd, _HISTORICAL, hp)
                historical = w.make(
                    HistoricalSpec, hd, _HISTORICAL_SPEC, hp, config=config, bindings=hist_regs
                )
            if d.get("registers") in (None, []) and d.get("historical") is None:
                w.fail(f"{path}: needs registers or a historical block")
            if spec := w.make(
                ModbusDeviceSpec, d, _MODBUS, path, {"host": "127.0.0.1"},
                id=dev_id, policy=policy, bindings=registers, historical=historical,
            ):
                modbus.append(spec)
        elif protocol == "bacnet":
            d = w.section(item, path, _BACNET, ("id", "protocol", "names"))
            names_raw = w.items(d.get("names"), f"{path}.names")
            names = tuple(n for n in names_raw if isinstance(n, str))
            if len(names) != len(names_raw):
                w.fail(f"{path}.names must all be strings")
            required = {"host": "127.0.0.1"}
            if spec := w.make(BacnetDeviceSpec, d, _BACNET, path, required, id=dev_id, names=names):
                bacnet.append(spec)
        else:
            w.fail(f"{path}.protocol must be 'modbus' or 'bacnet', got {protocol!r}")
    return tuple(modbus), tuple(bacnet)


def _parse_alerts(
    w: _Walker, raw
) -> tuple[tuple[AlertRule, ...], tuple[NotifierSpec, ...]]:
    d = w.section(raw, "alerts", ("rules", "notifiers"))
    rules = []
    for i, item in enumerate(w.items(d.get("rules"), "alerts.rules")):
        path = f"alerts.rules[{i}]"
        required = {"id": f"rule-{i}", "parameter": "x", "predicate": "gt"}
        if rule := w.make(AlertRule, w.section(item, path, _RULE), _RULE, path, required):
            if any(r.id == rule.id for r in rules):
                w.fail(f"{path}: duplicate rule id {rule.id!r}")
            rules.append(rule)
    notifiers = []
    for i, item in enumerate(w.items(d.get("notifiers"), "alerts.notifiers")):
        path = f"alerts.notifiers[{i}]"
        nd = w.section(item, path, _NOTIFIER)
        if notifier := w.make(NotifierSpec, nd, _NOTIFIER, path, {"type": "log"}):
            notifiers.append(notifier)
    return tuple(rules), tuple(notifiers)


def _parse_simulate(w: _Walker, raw) -> SimulateSpec | None:
    if raw is None:
        return None
    d = w.section(raw, "simulate", _SIMULATE, ("fleets",))
    fleets = []
    for i, item in enumerate(w.items(d.get("fleets"), "simulate.fleets")):
        path = f"simulate.fleets[{i}]"
        fd = w.section(item, path, _FLEET, ("parameters",))
        params = []
        for j, p in enumerate(w.items(fd.get("parameters"), f"{path}.parameters")):
            pp = f"{path}.parameters[{j}]"
            required = {"name": f"p{j}", "lo": 0.0, "hi": 1.0, "step": 0.1}
            if param := w.make(ParamSpec, w.section(p, pp, _PARAM), _PARAM, pp, required):
                params.append(param)
        defaults = {"count": 1, "interval_s": 60.0, "change_prob": 1.0}
        if fleet := w.make(
            DeviceClass, fd, _FLEET, path, {"kind": f"fleet{i}"}, defaults, parameters=tuple(params)
        ):
            fleets.append(fleet)
    return w.make(SimulateSpec, d, _SIMULATE, "simulate", fleets=tuple(fleets))


_TOP_LEVEL = {"gateway", "sink", "brokers", "http_polls", "devices", "alerts", "simulate"}


def load_config(path: str) -> GatewayConfig:
    """Parse, resolve, and validate; raises ParseError or InvariantViolation
    (the latter listing every problem found)."""
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    try:
        doc = yaml.load(text, Loader=_LOADER)
    except yaml.YAMLError as e:
        mark = getattr(e, "problem_mark", None)
        line = mark.line + 1 if mark is not None else None
        raise ParseError(str(getattr(e, "problem", e)), line) from e
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ParseError("top level must be a mapping")

    w = _Walker()
    for key in doc:
        if key not in _TOP_LEVEL:
            w.problems.append(UnknownField(key))
    doc = w.env(doc, "$")

    gateway = _parse_gateway(w, doc.get("gateway"))
    sink = _parse_sink(w, doc.get("sink"))
    brokers = _parse_brokers(w, doc.get("brokers"))
    polls = _parse_http_polls(w, doc.get("http_polls"))
    modbus, bacnet = _parse_devices(w, doc.get("devices"))
    rules, notifiers = _parse_alerts(w, doc.get("alerts"))
    simulate = _parse_simulate(w, doc.get("simulate"))

    warnings = []
    static_ids = [d.id for d in modbus] + [d.id for d in bacnet]
    for rule in rules:
        if rule.entity != "*" and not any(
            fnmatch.fnmatchcase(i, rule.entity) for i in static_ids
        ):
            warnings.append(
                f"alert rule {rule.id!r}: entity pattern {rule.entity!r} matches no "
                "configured device (push topics may still produce matching entities)"
            )

    if w.problems:
        raise InvariantViolation(w.problems)
    return GatewayConfig(
        gateway=gateway,
        sink=sink,
        brokers=brokers,
        http_polls=polls,
        modbus_devices=modbus,
        bacnet_devices=bacnet,
        alert_rules=rules,
        notifiers=notifiers,
        simulate=simulate,
        warnings=tuple(warnings),
    )
