"""YAML configuration: one document describes every device, broker, poll,
alert, and the sink, plus an optional simulation section that can stand in
for the real hardware.

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

import fnmatch
import os
import re
from dataclasses import dataclass, field

import yaml

from telegw.alerts import AlertRule
from telegw.ingest import BrokerConfig, FieldSpec, HttpPollSpec, TopicBinding
from telegw.modbus import (
    ConnectionPolicy,
    HistoricalReadConfig,
    RegisterBinding,
    RegisterCodec,
)
from telegw.pipeline import SinkConfig
from telegw.sim.fleet import DeviceClass, ParamSpec


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


@dataclass(frozen=True)
class BrokerEntry:
    config: BrokerConfig
    bindings: tuple[TopicBinding, ...]


@dataclass(frozen=True)
class NotifierSpec:
    type: str  # log | webhook | smtp_spool
    url: str | None = None
    spool_dir: str | None = None


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

    def device_ids(self) -> list[str]:
        return [d.id for d in self.modbus_devices] + [d.id for d in self.bacnet_devices]


class _Walker:
    """Accumulates problems while pulling typed values out of nested dicts."""

    def __init__(self):
        self.problems: list = []

    def fail(self, message: str) -> None:
        self.problems.append(message)

    def section(self, raw, path: str, allowed: set[str]) -> dict:
        if raw is None:
            return {}
        if not isinstance(raw, dict):
            self.fail(f"{path} must be a mapping, got {type(raw).__name__}")
            return {}
        for key in raw:
            if key not in allowed:
                self.problems.append(UnknownField(f"{path}.{key}"))
        return raw

    def items(self, raw, path: str) -> list:
        if raw is None:
            return []
        if not isinstance(raw, list):
            self.fail(f"{path} must be a list")
            return []
        return raw

    def get(self, d: dict, key: str, path: str, types, default=None, required=False):
        if key not in d or d[key] is None:
            if required:
                self.fail(f"{path}.{key} is required")
            return default
        v = d[key]
        if types is float and isinstance(v, int) and not isinstance(v, bool):
            v = float(v)
        if types is int and isinstance(v, bool):
            self.fail(f"{path}.{key} must be {self._tn(types)}")
            return default
        if not isinstance(v, types):
            self.fail(f"{path}.{key} must be {self._tn(types)}")
            return default
        return v

    @staticmethod
    def _tn(types) -> str:
        if isinstance(types, tuple):
            return " or ".join(t.__name__ for t in types)
        return types.__name__

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

    def env_ref(self, d: dict, key: str, path: str) -> str | None:
        """A field that names an environment variable; it must be set now."""
        name = self.get(d, key, path, str)
        if name is not None and os.environ.get(name) is None:
            self.fail(f"{path}.{key}: environment variable {name!r} is not set")
        return name

    def tags(self, d: dict, path: str) -> dict:
        raw = self.get(d, "tags", path, dict, default={})
        out = {}
        for k, v in raw.items():
            if not isinstance(k, str) or not isinstance(v, str):
                self.fail(f"{path}.tags entries must map strings to strings")
                continue
            out[k] = v
        return out


def _parse_gateway(w: _Walker, raw) -> GatewaySettings:
    d = w.section(
        raw,
        "gateway",
        {"heartbeat_s", "jitter", "health_host", "health_port", "stats_path", "drain_timeout_s"},
    )
    jitter = w.get(d, "jitter", "gateway", float, default=0.05)
    if jitter is not None and not 0.0 <= jitter < 1.0:
        w.fail("gateway.jitter must be in [0, 1)")
        jitter = 0.05
    return GatewaySettings(
        heartbeat_s=w.get(d, "heartbeat_s", "gateway", float, default=0.0),
        jitter=jitter,
        health_host=w.get(d, "health_host", "gateway", str, default="127.0.0.1"),
        health_port=w.get(d, "health_port", "gateway", int, default=8080),
        stats_path=w.get(d, "stats_path", "gateway", str),
        drain_timeout_s=w.get(d, "drain_timeout_s", "gateway", float, default=5.0),
    )


def _parse_sink(w: _Walker, raw) -> SinkConfig:
    d = w.section(
        raw,
        "sink",
        {
            "mode",
            "url",
            "token_env",
            "path",
            "batch_size",
            "batch_age_ms",
            "retry_attempts",
            "retry_backoff_ms",
            "buffer_capacity",
            "dead_letter_path",
        },
    )
    if not d:
        w.fail("sink section is required")
        return SinkConfig(mode="file", path="out.lp")
    kwargs = {}
    kwargs["mode"] = w.get(d, "mode", "sink", str, required=True, default="file")
    for key, typ in (
        ("url", str),
        ("token_env", str),
        ("path", str),
        ("batch_size", int),
        ("batch_age_ms", int),
        ("retry_attempts", int),
        ("retry_backoff_ms", int),
        ("buffer_capacity", int),
        ("dead_letter_path", str),
    ):
        v = w.get(d, key, "sink", typ)
        if v is not None:
            kwargs[key] = v
    if kwargs.get("token_env"):
        w.env_ref(d, "token_env", "sink")
    try:
        return SinkConfig(**kwargs)
    except ValueError as e:
        w.fail(f"sink: {e}")
        return SinkConfig(mode="file", path="out.lp")


def _parse_field_map(w: _Walker, raw, path: str) -> dict[str, FieldSpec]:
    if not isinstance(raw, dict) or not raw:
        w.fail(f"{path}.fields must be a non-empty mapping of JSON pointers")
        return {"/x": FieldSpec("x")}
    out = {}
    for pointer, spec in raw.items():
        p = f"{path}.fields[{pointer}]"
        d = w.section(spec, p, {"parameter", "unit", "kind", "scale"})
        try:
            out[pointer] = FieldSpec(
                parameter=w.get(d, "parameter", p, str, required=True, default="x"),
                unit=w.get(d, "unit", p, str, default=""),
                kind=w.get(d, "kind", p, str, default="real"),
                scale=w.get(d, "scale", p, float),
            )
        except ValueError as e:
            w.fail(f"{p}: {e}")
    return out or {"/x": FieldSpec("x")}


def _parse_brokers(w: _Walker, raw) -> tuple[BrokerEntry, ...]:
    entries = []
    for i, item in enumerate(w.items(raw, "brokers")):
        path = f"brokers[{i}]"
        d = w.section(
            item,
            path,
            {
                "host",
                "port",
                "client_id",
                "username_env",
                "password_env",
                "backoff_initial_s",
                "backoff_max_s",
                "bindings",
            },
        )
        username_env = d.get("username_env") and w.env_ref(d, "username_env", path)
        password_env = d.get("password_env") and w.env_ref(d, "password_env", path)
        try:
            cfg = BrokerConfig(
                host=w.get(d, "host", path, str, required=True, default="127.0.0.1"),
                port=w.get(d, "port", path, int, default=1883),
                client_id=w.get(d, "client_id", path, str, default=f"gateway-{i}"),
                username_env=username_env,
                password_env=password_env,
                backoff_initial_s=w.get(d, "backoff_initial_s", path, float, default=0.5),
                backoff_max_s=w.get(d, "backoff_max_s", path, float, default=30.0),
            )
        except ValueError as e:
            w.fail(f"{path}: {e}")
            continue
        bindings = []
        for j, b in enumerate(w.items(d.get("bindings"), f"{path}.bindings")):
            bp = f"{path}.bindings[{j}]"
            bd = w.section(
                b,
                bp,
                {"topic", "entity", "fields", "timestamp_pointer", "timestamp_unit", "tags"},
            )
            try:
                bindings.append(
                    TopicBinding(
                        topic_filter=w.get(bd, "topic", bp, str, required=True, default="#"),
                        entity_template=w.get(bd, "entity", bp, str, required=True, default="{0}"),
                        field_map=_parse_field_map(w, bd.get("fields"), bp),
                        timestamp_pointer=w.get(bd, "timestamp_pointer", bp, str),
                        timestamp_unit=w.get(bd, "timestamp_unit", bp, str, default="s"),
                        tags=w.tags(bd, bp),
                    )
                )
            except ValueError as e:
                w.fail(f"{bp}: {e}")
        if not bindings:
            w.fail(f"{path}: at least one binding is required")
            continue
        entries.append(BrokerEntry(cfg, tuple(bindings)))
    return tuple(entries)


def _parse_http_polls(w: _Walker, raw) -> tuple[HttpPollSpec, ...]:
    polls = []
    for i, item in enumerate(w.items(raw, "http_polls")):
        path = f"http_polls[{i}]"
        d = w.section(
            item,
            path,
            {
                "url",
                "interval_s",
                "fields",
                "entity_array_pointer",
                "entity_id_pointer",
                "auth_header",
                "auth_value_env",
                "tags",
            },
        )
        if d.get("auth_value_env"):
            w.env_ref(d, "auth_value_env", path)
        try:
            polls.append(
                HttpPollSpec(
                    url=w.get(d, "url", path, str, required=True, default="http://invalid"),
                    interval_s=w.get(d, "interval_s", path, float, default=300.0),
                    field_map=_parse_field_map(w, d.get("fields"), path),
                    entity_array_pointer=w.get(
                        d, "entity_array_pointer", path, str, required=True, default="/x"
                    ),
                    entity_id_pointer=w.get(
                        d, "entity_id_pointer", path, str, required=True, default="/id"
                    ),
                    auth_header=w.get(d, "auth_header", path, str),
                    auth_value_env=w.get(d, "auth_value_env", path, str),
                    tags=w.tags(d, path),
                )
            )
        except ValueError as e:
            w.fail(f"{path}: {e}")
    return tuple(polls)


def _parse_registers(w: _Walker, raw, path: str) -> tuple[RegisterBinding, ...]:
    out = []
    for i, item in enumerate(w.items(raw, path)):
        p = f"{path}[{i}]"
        d = w.section(
            item, p, {"name", "fc", "addr", "dtype", "word_order", "scale", "offset", "unit"}
        )
        fc = w.get(d, "fc", p, str, default="holding")
        if fc not in ("holding", "input"):
            w.fail(f"{p}.fc must be 'holding' or 'input'")
            fc = "holding"
        try:
            codec = RegisterCodec(
                datatype=w.get(d, "dtype", p, str, required=True, default="u16"),
                word_order=w.get(d, "word_order", p, str, default="big"),
                scale=w.get(d, "scale", p, float, default=1.0),
                offset=w.get(d, "offset", p, float, default=0.0),
            )
        except ValueError as e:
            w.fail(f"{p}: {e}")
            codec = RegisterCodec("u16")
        out.append(
            RegisterBinding(
                parameter=w.get(d, "name", p, str, required=True, default=f"reg{i}"),
                function=fc,
                address=w.get(d, "addr", p, int, required=True, default=0),
                codec=codec,
                unit_label=w.get(d, "unit", p, str, default=""),
            )
        )
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
        protocol = item.get("protocol")
        if protocol == "modbus":
            d = w.section(
                item,
                path,
                {
                    "id",
                    "protocol",
                    "host",
                    "port",
                    "unit",
                    "interval_s",
                    "mode",
                    "connect_timeout_ms",
                    "io_timeout_ms",
                    "retries",
                    "tags",
                    "registers",
                    "historical",
                },
            )
            try:
                policy = ConnectionPolicy(
                    mode=w.get(d, "mode", path, str, default="per_request_close"),
                    connect_timeout_ms=w.get(d, "connect_timeout_ms", path, int, default=2000),
                    io_timeout_ms=w.get(d, "io_timeout_ms", path, int, default=2000),
                    request_retries=w.get(d, "retries", path, int, default=1),
                )
            except ValueError as e:
                w.fail(f"{path}: {e}")
                policy = ConnectionPolicy()
            registers = _parse_registers(w, d.get("registers"), f"{path}.registers")
            historical = None
            if "historical" in d:
                hp = f"{path}.historical"
                hd = w.section(
                    d["historical"],
                    hp,
                    {
                        "date_addr",
                        "ready_addr",
                        "ready_value",
                        "poll_interval_ms",
                        "max_polls",
                        "days_back",
                        "registers",
                    },
                )
                hist_regs = _parse_registers(w, hd.get("registers"), f"{hp}.registers")
                if not hist_regs:
                    w.fail(f"{hp}.registers is required")
                historical = HistoricalSpec(
                    config=HistoricalReadConfig(
                        date_address=w.get(hd, "date_addr", hp, int, default=0x1000),
                        ready_address=w.get(hd, "ready_addr", hp, int, default=0x1003),
                        ready_value=w.get(hd, "ready_value", hp, int, default=1),
                        poll_interval_ms=w.get(hd, "poll_interval_ms", hp, int, default=500),
                        max_polls=w.get(hd, "max_polls", hp, int, default=20),
                    ),
                    bindings=hist_regs,
                    days_back=w.get(hd, "days_back", hp, int, default=1),
                )
            if not registers and historical is None:
                w.fail(f"{path}: needs registers or a historical block")
            modbus.append(
                ModbusDeviceSpec(
                    id=dev_id,
                    host=w.get(d, "host", path, str, required=True, default="127.0.0.1"),
                    port=w.get(d, "port", path, int, default=502),
                    unit=w.get(d, "unit", path, int, default=1),
                    interval_s=w.get(d, "interval_s", path, float, default=60.0),
                    policy=policy,
                    tags=w.tags(d, path),
                    bindings=registers,
                    historical=historical,
                )
            )
        elif protocol == "bacnet":
            d = w.section(
                item,
                path,
                {
                    "id",
                    "protocol",
                    "host",
                    "port",
                    "device_instance",
                    "interval_s",
                    "timeout_ms",
                    "retries",
                    "discover",
                    "names",
                    "tags",
                },
            )
            names_raw = w.items(d.get("names"), f"{path}.names")
            names = tuple(n for n in names_raw if isinstance(n, str))
            if len(names) != len(names_raw):
                w.fail(f"{path}.names must all be strings")
            discover = w.get(d, "discover", path, bool, default=False)
            if not names and not discover:
                w.fail(f"{path}: needs names or discover: true")
            bacnet.append(
                BacnetDeviceSpec(
                    id=dev_id,
                    host=w.get(d, "host", path, str, required=True, default="127.0.0.1"),
                    port=w.get(d, "port", path, int, default=0xBAC0),
                    device_instance=w.get(d, "device_instance", path, int, default=0),
                    interval_s=w.get(d, "interval_s", path, float, default=60.0),
                    timeout_ms=w.get(d, "timeout_ms", path, int, default=1000),
                    retries=w.get(d, "retries", path, int, default=3),
                    discover=discover,
                    names=names,
                    tags=w.tags(d, path),
                )
            )
        else:
            w.fail(f"{path}.protocol must be 'modbus' or 'bacnet', got {protocol!r}")
    return tuple(modbus), tuple(bacnet)


def _parse_alerts(
    w: _Walker, raw
) -> tuple[tuple[AlertRule, ...], tuple[NotifierSpec, ...]]:
    d = w.section(raw, "alerts", {"rules", "notifiers"})
    rules = []
    seen_ids: set[str] = set()
    for i, item in enumerate(w.items(d.get("rules"), "alerts.rules")):
        path = f"alerts.rules[{i}]"
        rd = w.section(
            item,
            path,
            {
                "id",
                "parameter",
                "predicate",
                "threshold",
                "entity",
                "tags",
                "for_duration_s",
                "cooldown_s",
                "clear_margin",
            },
        )
        try:
            rule = AlertRule(
                id=w.get(rd, "id", path, str, required=True, default=f"rule-{i}"),
                parameter=w.get(rd, "parameter", path, str, required=True, default="x"),
                predicate=w.get(rd, "predicate", path, str, required=True, default="gt"),
                threshold=w.get(rd, "threshold", path, float),
                entity=w.get(rd, "entity", path, str, default="*"),
                tags=w.tags(rd, path),
                for_duration=w.get(rd, "for_duration_s", path, float, default=0.0),
                cooldown=w.get(rd, "cooldown_s", path, float, default=0.0),
                clear_margin=w.get(rd, "clear_margin", path, float, default=0.0),
            )
        except ValueError as e:
            w.fail(f"{path}: {e}")
            continue
        if rule.id in seen_ids:
            w.fail(f"{path}: duplicate rule id {rule.id!r}")
        seen_ids.add(rule.id)
        rules.append(rule)
    notifiers = []
    for i, item in enumerate(w.items(d.get("notifiers"), "alerts.notifiers")):
        path = f"alerts.notifiers[{i}]"
        nd = w.section(item, path, {"type", "url", "spool_dir"})
        typ = w.get(nd, "type", path, str, required=True, default="log")
        if typ not in ("log", "webhook", "smtp_spool"):
            w.fail(f"{path}.type must be log, webhook, or smtp_spool")
            continue
        url = w.get(nd, "url", path, str)
        spool = w.get(nd, "spool_dir", path, str)
        if typ == "webhook" and not url:
            w.fail(f"{path}: webhook needs url")
        if typ == "smtp_spool" and not spool:
            w.fail(f"{path}: smtp_spool needs spool_dir")
        notifiers.append(NotifierSpec(typ, url=url, spool_dir=spool))
    return tuple(rules), tuple(notifiers)


def _parse_simulate(w: _Walker, raw) -> SimulateSpec | None:
    if raw is None:
        return None
    d = w.section(raw, "simulate", {"compression", "seed", "fleets"})
    fleets = []
    for i, item in enumerate(w.items(d.get("fleets"), "simulate.fleets")):
        path = f"simulate.fleets[{i}]"
        fd = w.section(
            item,
            path,
            {"kind", "count", "interval_s", "change_prob", "topic_template", "parameters"},
        )
        params = []
        for j, p in enumerate(w.items(fd.get("parameters"), f"{path}.parameters")):
            pp = f"{path}.parameters[{j}]"
            pd = w.section(p, pp, {"name", "lo", "hi", "step", "quantum", "decimals"})
            try:
                params.append(
                    ParamSpec(
                        name=w.get(pd, "name", pp, str, required=True, default=f"p{j}"),
                        lo=w.get(pd, "lo", pp, float, required=True, default=0.0),
                        hi=w.get(pd, "hi", pp, float, required=True, default=1.0),
                        step=w.get(pd, "step", pp, float, required=True, default=0.1),
                        quantum=w.get(pd, "quantum", pp, float, default=1.0),
                        decimals=w.get(pd, "decimals", pp, int, default=0),
                    )
                )
            except ValueError as e:
                w.fail(f"{pp}: {e}")
        try:
            fleets.append(
                DeviceClass(
                    kind=w.get(fd, "kind", path, str, required=True, default=f"fleet{i}"),
                    count=w.get(fd, "count", path, int, default=1),
                    interval_s=w.get(fd, "interval_s", path, float, default=60.0),
                    change_prob=w.get(fd, "change_prob", path, float, default=1.0),
                    parameters=tuple(params),
                    topic_template=w.get(
                        fd, "topic_template", path, str, default="{kind}/{device_id}/measurements"
                    ),
                )
            )
        except ValueError as e:
            w.fail(f"{path}: {e}")
    return SimulateSpec(
        compression=w.get(d, "compression", "simulate", float, default=60.0),
        seed=w.get(d, "seed", "simulate", int, default=0),
        fleets=tuple(fleets),
    )


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
