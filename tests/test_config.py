import pathlib
import textwrap
from datetime import date

import pytest
import yaml

from telegw import config
from telegw.config import (
    GatewayConfig,
    InvariantViolation,
    ParseError,
    UnknownField,
    load_config,
)

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def write(tmp_path, text: str) -> str:
    p = tmp_path / "gw.yaml"
    p.write_text(textwrap.dedent(text), encoding="utf-8")
    return str(p)


MINIMAL = """
sink: {mode: file, path: out.lp}
devices:
  - id: meter-1
    protocol: modbus
    host: 10.0.0.5
    registers:
      - {name: voltage, addr: 6, dtype: u32, scale: 0.1, unit: V}
"""


def test_minimal_config_loads(tmp_path):
    cfg = load_config(write(tmp_path, MINIMAL))
    assert isinstance(cfg, GatewayConfig)
    assert cfg.sink.mode == "file"
    dev = cfg.modbus_devices[0]
    assert dev.id == "meter-1"
    assert dev.port == 502
    assert dev.bindings[0].parameter == "voltage"
    assert dev.bindings[0].codec.scale == 0.1
    assert cfg.bacnet_devices == ()
    assert cfg.warnings == ()


def test_full_sample_loads(tmp_path, monkeypatch):
    monkeypatch.setenv("GATEWAY_CLOUD_TOKEN", "Bearer x")
    cfg = load_config(str(CONFIGS / "gateway.yaml"))
    assert [d.id for d in cfg.modbus_devices] == ["meter-1", "analyzer-1"]
    assert cfg.bacnet_devices[0].discover is True
    assert len(cfg.brokers[0].bindings) == 2
    assert cfg.brokers[0].bindings[0].field_map["/co2"].parameter == "co2"
    assert cfg.http_polls[0].auth_value_env == "GATEWAY_CLOUD_TOKEN"
    hist = cfg.modbus_devices[1].historical
    assert hist is not None
    assert hist.config.date_address == 0x1000
    assert len(hist.bindings) == 3
    assert {r.id for r in cfg.alert_rules} == {"radon-high", "meter-undervoltage"}
    assert cfg.simulate is not None
    assert cfg.simulate.fleets[0].count == 52
    assert cfg.simulate.fleets[0].change_prob == 0.1185


def test_load_is_pure_and_repeatable(tmp_path):
    path = write(tmp_path, MINIMAL)
    assert load_config(path) == load_config(path)


MALFORMED = "sink:\n  mode: file\n   path: [unclosed\n"


def test_yaml_syntax_error_carries_line(tmp_path):
    path = write(tmp_path, MALFORMED)
    with pytest.raises(ParseError) as exc:
        load_config(path)
    assert exc.value.line is not None
    assert "line" in str(exc.value)


def test_loader_is_libyaml_when_available():
    assert config._LOADER is getattr(yaml, "CSafeLoader", yaml.SafeLoader)


@pytest.mark.parametrize("name", ["gateway.yaml", "minimal.yaml"])
def test_libyaml_and_pure_python_loaders_agree(name, monkeypatch):
    monkeypatch.setenv("GATEWAY_CLOUD_TOKEN", "Bearer x")
    path = str(CONFIGS / name)
    chosen = load_config(path)
    monkeypatch.setattr(config, "_LOADER", yaml.SafeLoader)
    assert load_config(path) == chosen


def test_syntax_error_line_is_the_same_under_both_loaders(tmp_path, monkeypatch):
    path = write(tmp_path, MALFORMED)
    lines = []
    for loader in (config._LOADER, yaml.SafeLoader):
        monkeypatch.setattr(config, "_LOADER", loader)
        with pytest.raises(ParseError) as exc:
            load_config(path)
        lines.append(exc.value.line)
    assert lines == [3, 3]


def test_duplicate_device_id_names_both_entries(tmp_path):
    path = write(
        tmp_path,
        """
        sink: {mode: file, path: out.lp}
        devices:
          - id: meter-1
            protocol: modbus
            host: a
            registers: [{name: v, addr: 0, dtype: u16}]
          - id: meter-1
            protocol: modbus
            host: b
            registers: [{name: v, addr: 0, dtype: u16}]
        """,
    )
    with pytest.raises(InvariantViolation) as exc:
        load_config(path)
    msg = str(exc.value)
    assert "meter-1" in msg and "devices[0]" in msg and "devices[1]" in msg


def test_unresolved_env_placeholder_is_named(tmp_path, monkeypatch):
    monkeypatch.delenv("GW_NO_SUCH_HOST", raising=False)
    path = write(
        tmp_path,
        """
        sink: {mode: file, path: out.lp}
        devices:
          - id: m
            protocol: modbus
            host: ${GW_NO_SUCH_HOST}
            registers: [{name: v, addr: 0, dtype: u16}]
        """,
    )
    with pytest.raises(InvariantViolation) as exc:
        load_config(path)
    assert "GW_NO_SUCH_HOST" in str(exc.value)


def test_env_placeholder_substitutes(tmp_path, monkeypatch):
    monkeypatch.setenv("GW_TEST_HOST", "172.16.0.9")
    path = write(
        tmp_path,
        """
        sink: {mode: file, path: out.lp}
        devices:
          - id: m
            protocol: modbus
            host: ${GW_TEST_HOST}
            registers: [{name: v, addr: 0, dtype: u16}]
        """,
    )
    assert load_config(path).modbus_devices[0].host == "172.16.0.9"


def test_unset_credential_env_var_is_reported(tmp_path, monkeypatch):
    monkeypatch.delenv("GATEWAY_SINK_TOKEN", raising=False)
    path = write(
        tmp_path,
        """
        sink: {mode: http, url: "http://db:8086/write", token_env: GATEWAY_SINK_TOKEN}
        """,
    )
    with pytest.raises(InvariantViolation) as exc:
        load_config(path)
    assert "GATEWAY_SINK_TOKEN" in str(exc.value)


def test_unknown_fields_are_typed_and_pathed(tmp_path):
    path = write(
        tmp_path,
        """
        sink: {mode: file, path: out.lp, compression: gzip}
        retention: 30d
        """,
    )
    with pytest.raises(InvariantViolation) as exc:
        load_config(path)
    unknown = [p for p in exc.value.problems if isinstance(p, UnknownField)]
    assert {u.path for u in unknown} == {"retention", "sink.compression"}


def test_all_problems_reported_in_one_pass(tmp_path, monkeypatch):
    monkeypatch.delenv("GW_MISSING_TOKEN", raising=False)
    path = write(
        tmp_path,
        """
        sink: {mode: http, url: "http://db/w", token_env: GW_MISSING_TOKEN}
        devices:
          - id: a
            protocol: modbus
            host: h
            registers: [{name: v, addr: 0, dtype: u99}]
          - id: a
            protocol: bacnet
            host: h
            discover: true
          - id: b
            protocol: carrier-pigeon
        alerts:
          rules:
            - {id: r1, parameter: x, predicate: between, threshold: 1}
        """,
    )
    with pytest.raises(InvariantViolation) as exc:
        load_config(path)
    msg = str(exc.value)
    # one load reports the bad codec, duplicate id, bad protocol, bad
    # predicate, and missing env var together
    assert "u99" in msg
    assert "duplicate device id" in msg
    assert "carrier-pigeon" in msg
    assert "predicate" in msg
    assert "GW_MISSING_TOKEN" in msg
    assert len(exc.value.problems) >= 5


def test_device_ids_naming_the_gateways_own_jobs_are_rejected(tmp_path):
    """A device called like an HTTP poll's job would share its record, and
    one called like the stats dump would be left out of /health."""
    path = write(
        tmp_path,
        """
        gateway: {stats_path: stats.json}
        sink: {mode: file, path: out.lp}
        http_polls:
          - url: http://127.0.0.1:8900/v1
            entity_array_pointer: /items
            entity_id_pointer: /id
            fields: {/v: {parameter: v}}
        devices:
          - {id: http-0, protocol: modbus, host: h, registers: [{name: v, addr: 0, dtype: u16}]}
          - {id: stats-dump, protocol: bacnet, host: h, discover: true}
          - {id: http-meter, protocol: modbus, host: h, registers: [{name: v, addr: 0, dtype: u16}]}
        """,
    )
    with pytest.raises(InvariantViolation) as exc:
        load_config(path)
    assert [str(p) for p in exc.value.problems] == [
        "devices[0].id 'http-0' is reserved for the gateway's own jobs",
        "devices[1].id 'stats-dump' is reserved for the gateway's own jobs",
    ]


def test_alert_rule_matching_nothing_warns_but_loads(tmp_path):
    path = write(
        tmp_path,
        MINIMAL
        + """
alerts:
  rules:
    - {id: r1, parameter: radon, predicate: gt, threshold: 300, entity: "radon-*"}
""",
    )
    cfg = load_config(path)
    assert len(cfg.warnings) == 1
    assert "r1" in cfg.warnings[0]


def test_modbus_device_requires_some_registers(tmp_path):
    path = write(
        tmp_path,
        """
        sink: {mode: file, path: out.lp}
        devices:
          - {id: m, protocol: modbus, host: h}
        """,
    )
    with pytest.raises(InvariantViolation) as exc:
        load_config(path)
    assert "registers" in str(exc.value)


def test_bacnet_device_requires_names_or_discover(tmp_path):
    path = write(
        tmp_path,
        """
        sink: {mode: file, path: out.lp}
        devices:
          - {id: b, protocol: bacnet, host: h}
        """,
    )
    with pytest.raises(InvariantViolation) as exc:
        load_config(path)
    assert "discover" in str(exc.value)


def test_broker_needs_bindings(tmp_path):
    path = write(
        tmp_path,
        """
        sink: {mode: file, path: out.lp}
        brokers:
          - {host: localhost}
        """,
    )
    with pytest.raises(InvariantViolation) as exc:
        load_config(path)
    assert "binding" in str(exc.value)


def test_empty_document_still_needs_sink(tmp_path):
    with pytest.raises(InvariantViolation) as exc:
        load_config(write(tmp_path, "\n"))
    assert "sink" in str(exc.value)


BROKER_WITH_CREDENTIALS = """
sink: {mode: file, path: out.lp}
brokers:
  - host: localhost
    username_env: %s
    password_env: %s
    bindings:
      - topic: a/+
        entity: "{1}"
        fields: {/v: {parameter: v}}
"""


@pytest.mark.parametrize(
    "key, user, password",
    [("username_env", "0", "GW_TEST_PASS"), ("password_env", "GW_TEST_USER", "false")],
)
def test_falsy_credential_env_name_is_a_type_error(tmp_path, monkeypatch, key, user, password):
    # a falsy non-string used to skip the check and load as "no credentials"
    monkeypatch.setenv("GW_TEST_USER", "gw")
    monkeypatch.setenv("GW_TEST_PASS", "pw")
    path = write(tmp_path, BROKER_WITH_CREDENTIALS % (user, password))
    with pytest.raises(InvariantViolation) as exc:
        load_config(path)
    assert exc.value.problems == [f"brokers[0].{key} must be str"]



EMPTY_CREDENTIAL_KEY = {
    "brokers[0].username_env": BROKER_WITH_CREDENTIALS % ('""', "GW_TEST_PASS"),
    "brokers[0].password_env": BROKER_WITH_CREDENTIALS % ("GW_TEST_USER", '""'),
    "sink.token_env": """
        sink: {mode: http, url: "http://db/w", token_env: ""}
        """,
    "http_polls[0].auth_value_env": """
        sink: {mode: file, path: out.lp}
        http_polls:
          - url: http://127.0.0.1:8900/v1
            entity_array_pointer: /items
            entity_id_pointer: /id
            auth_header: Authorization
            auth_value_env: ""
            fields: {/v: {parameter: v}}
        """,
}


@pytest.mark.parametrize("key", sorted(EMPTY_CREDENTIAL_KEY))
def test_empty_credential_env_name_is_reported(tmp_path, monkeypatch, key):
    # "" used to load as "no credentials" without a word
    monkeypatch.setenv("GW_TEST_USER", "gw")
    monkeypatch.setenv("GW_TEST_PASS", "pw")
    with pytest.raises(InvariantViolation) as exc:
        load_config(write(tmp_path, EMPTY_CREDENTIAL_KEY[key]))
    assert exc.value.problems == [f"{key} must be a non-empty string"]


def test_wrong_typed_auth_value_env_is_reported_once(tmp_path):
    path = write(
        tmp_path,
        """
        sink: {mode: file, path: out.lp}
        http_polls:
          - url: http://127.0.0.1:8900/v1
            entity_array_pointer: /items
            entity_id_pointer: /id
            auth_header: Authorization
            auth_value_env: 7
            fields: {/v: {parameter: v}}
        """,
    )
    with pytest.raises(InvariantViolation) as exc:
        load_config(path)
    problems = [str(p) for p in exc.value.problems]
    assert problems.count("http_polls[0].auth_value_env must be str") == 1


MODBUS_DEVICE = """
sink: {mode: file, path: out.lp}
gateway: {heartbeat_s: %(heartbeat_s)s}
devices:
  - id: %(id)s
    protocol: modbus
    host: h
    unit: %(unit)s
    interval_s: %(interval_s)s
    tags: %(tags)s
    registers: [{name: %(name)s, addr: 0, dtype: u16}]
"""
MODBUS_OK = dict(heartbeat_s=0, id="m", unit=1, interval_s=60, tags="{k: v}", name="v")

BACNET_DEVICE = """
sink: {mode: file, path: out.lp}
devices:
  - id: b
    protocol: bacnet
    host: h
    device_instance: %(device_instance)s
    interval_s: %(interval_s)s
    names: [%(names)s]
"""
BACNET_OK = dict(device_instance=4194303, interval_s=60, names="zone-temp")

BROKER = """
sink: {mode: file, path: out.lp}
brokers:
  - host: localhost
    bindings:
      - {topic: a/+, entity: "{1}", tags: %(binding_tags)s, fields: {/v: {parameter: %(parameter)s}}}
http_polls:
  - url: http://127.0.0.1:8900/v1
    entity_array_pointer: /items
    entity_id_pointer: /id
    tags: %(poll_tags)s
    fields: {/v: {parameter: v}}
"""
BROKER_OK = dict(binding_tags="{k: v}", parameter="v", poll_tags="{k: v}")


LOAD_TIME = """
sink: {mode: file, path: out.lp}
gateway: {health_port: %(health_port)s}
brokers:
  - host: localhost
    port: %(broker_port)s
    bindings: [{topic: a/+, entity: "{1}", fields: {/v: {parameter: v}}}]
devices:
  - id: m
    protocol: modbus
    host: h
    port: %(modbus_port)s
    registers: [{name: %(name)s, addr: %(addr)s, dtype: %(dtype)s}]
    historical:
      date_addr: %(date_addr)s
      ready_addr: %(ready_addr)s
      registers:
        - {name: %(history_name)s, addr: %(history_addr)s, dtype: u16}
        - {name: w, addr: 1, dtype: u16}
  - {id: b, protocol: bacnet, host: h, port: %(bacnet_port)s, names: [%(names)s]}
alerts:
  notifiers: [{type: webhook, url: %(url)s}]
"""
# each value at the edge of its range
LOAD_TIME_OK = dict(
    health_port=0, broker_port=65535, modbus_port=1, name="v", addr=65534, dtype="u32",
    date_addr=65533, ready_addr=65535, history_name="e", history_addr=0, bacnet_port=65535,
    names="zone-temp", url="https://hook.example/",
)


def _doc(template, ok, **change):
    return template % {**ok, **change}


# values that used to load and then failed in Gateway(), in Gateway.start(),
# on every poll, or read a different device than the one configured
RUNTIME_FAILURES = {
    "modbus interval 0": (
        _doc(MODBUS_DEVICE, MODBUS_OK, interval_s=0),
        "devices[0]: interval must be positive and finite",
    ),
    "bacnet interval 0": (
        _doc(BACNET_DEVICE, BACNET_OK, interval_s=0),
        "devices[0]: interval must be positive and finite",
    ),
    "negative heartbeat": (
        _doc(MODBUS_DEVICE, MODBUS_OK, heartbeat_s=-1),
        "gateway.heartbeat_s must be finite and >= 0",
    ),
    "unit 257": (_doc(MODBUS_DEVICE, MODBUS_OK, unit=257), "devices[0]: unit 257 outside 0..255"),
    "unit -1": (_doc(MODBUS_DEVICE, MODBUS_OK, unit=-1), "devices[0]: unit -1 outside 0..255"),
    "device instance 4194304": (
        _doc(BACNET_DEVICE, BACNET_OK, device_instance=4194304),
        "devices[0]: device_instance 4194304 outside 0..4194303",
    ),
    "health port 70000": (
        _doc(LOAD_TIME, LOAD_TIME_OK, health_port=70000),
        "gateway.health_port must be in 0..65535",
    ),
    "health port -1": (
        _doc(LOAD_TIME, LOAD_TIME_OK, health_port=-1),
        "gateway.health_port must be in 0..65535",
    ),
    "broker port -1": (
        _doc(LOAD_TIME, LOAD_TIME_OK, broker_port=-1),
        "brokers[0]: port -1 outside 1..65535",
    ),
    "broker port 65536": (
        _doc(LOAD_TIME, LOAD_TIME_OK, broker_port=65536),
        "brokers[0]: port 65536 outside 1..65535",
    ),
    "modbus port 70000": (
        _doc(LOAD_TIME, LOAD_TIME_OK, modbus_port=70000),
        "devices[0]: port 70000 outside 1..65535",
    ),
    "modbus port 0": (
        _doc(LOAD_TIME, LOAD_TIME_OK, modbus_port=0),
        "devices[0]: port 0 outside 1..65535",
    ),
    "bacnet port 70000": (
        _doc(LOAD_TIME, LOAD_TIME_OK, bacnet_port=70000),
        "devices[1]: port 70000 outside 1..65535",
    ),
    "register addr -1": (
        _doc(LOAD_TIME, LOAD_TIME_OK, addr=-1, dtype="u16"),
        "devices[0].registers[0]: u16 at address -1 does not fit in 0..65535",
    ),
    "u32 at addr 65535": (
        _doc(LOAD_TIME, LOAD_TIME_OK, addr=65535),
        "devices[0].registers[0]: u32 at address 65535 does not fit in 0..65535",
    ),
    "history register addr 70000": (
        _doc(LOAD_TIME, LOAD_TIME_OK, history_addr=70000),
        "devices[0].historical.registers[0]: u16 at address 70000 does not fit in 0..65535",
    ),
    "date_addr -5": (
        _doc(LOAD_TIME, LOAD_TIME_OK, date_addr=-5),
        "devices[0].historical: date window at address -5 (3 registers) does not fit in 0..65535",
    ),
    "date window past 0xFFFF": (
        _doc(LOAD_TIME, LOAD_TIME_OK, date_addr=65534),
        "devices[0].historical: date window at address 65534 (3 registers) "
        "does not fit in 0..65535",
    ),
    "ready_addr 70000": (
        _doc(LOAD_TIME, LOAD_TIME_OK, ready_addr=70000),
        "devices[0].historical: ready address 70000 outside 0..65535",
    ),
    "empty register name": (
        _doc(LOAD_TIME, LOAD_TIME_OK, name='""'),
        "devices[0].registers[0]: register name must be non-empty",
    ),
    "empty history register name": (
        _doc(LOAD_TIME, LOAD_TIME_OK, history_name='""'),
        "devices[0].historical.registers[0]: register name must be non-empty",
    ),
    "empty bacnet object name": (
        _doc(LOAD_TIME, LOAD_TIME_OK, names='""'),
        "devices[1]: object name must be non-empty",
    ),
    "webhook url ftp": (
        _doc(LOAD_TIME, LOAD_TIME_OK, url="ftp://example.org/hook"),
        "alerts.notifiers[0]: webhook url scheme must be http or https",
    ),
    "http sink url without scheme": (
        'sink: {mode: http, url: "influx:8086/api/v2/write"}\n',
        "sink: http sink url scheme must be http or https, got 'influx'",
    ),
}

# a line break in a name that line protocol must carry: every point using it
# used to be dropped at intake as unrenderable
BREAK = '"a\\nb"'
LINE_BREAKS = {
    "field parameter": (
        _doc(BROKER, BROKER_OK, parameter=BREAK),
        "brokers[0].bindings[0].fields[/v]: parameter name cannot contain line breaks",
    ),
    "register name": (
        _doc(MODBUS_DEVICE, MODBUS_OK, name=BREAK),
        "devices[0].registers[0]: register name cannot contain line breaks",
    ),
    "device id": (
        _doc(MODBUS_DEVICE, MODBUS_OK, id=BREAK),
        "devices[0]: device id cannot contain line breaks",
    ),
    "bacnet object name": (
        _doc(BACNET_DEVICE, BACNET_OK, names=BREAK),
        "devices[0]: object name cannot contain line breaks",
    ),
    "binding tag key": (
        _doc(BROKER, BROKER_OK, binding_tags="{%s: v}" % BREAK),
        "brokers[0].bindings[0]: tag key cannot contain line breaks",
    ),
    "binding tag value": (
        _doc(BROKER, BROKER_OK, binding_tags="{k: %s}" % BREAK),
        "brokers[0].bindings[0]: tag 'k' cannot contain line breaks",
    ),
    "device tag value": (
        _doc(MODBUS_DEVICE, MODBUS_OK, tags="{k: %s}" % BREAK),
        "devices[0]: tag 'k' cannot contain line breaks",
    ),
    "poll tag key": (
        _doc(BROKER, BROKER_OK, poll_tags="{%s: v}" % BREAK),
        "http_polls[0]: tag key cannot contain line breaks",
    ),
}


@pytest.mark.parametrize(
    "template, ok",
    [
        (MODBUS_DEVICE, MODBUS_OK), (BACNET_DEVICE, BACNET_OK), (BROKER, BROKER_OK),
        (LOAD_TIME, LOAD_TIME_OK),
    ],
    ids=["modbus", "bacnet", "broker", "load-time"],
)
def test_rejected_documents_differ_from_a_loading_one_in_one_value(tmp_path, template, ok):
    load_config(write(tmp_path, _doc(template, ok)))


@pytest.mark.parametrize("case", sorted(RUNTIME_FAILURES))
def test_value_the_gateway_would_fail_on_is_rejected_at_load(tmp_path, case):
    text, problem = RUNTIME_FAILURES[case]
    with pytest.raises(InvariantViolation) as exc:
        load_config(write(tmp_path, text))
    assert exc.value.problems == [problem]


@pytest.mark.parametrize("case", sorted(LINE_BREAKS))
def test_name_line_protocol_cannot_carry_is_rejected_at_load(tmp_path, case):
    text, problem = LINE_BREAKS[case]
    with pytest.raises(InvariantViolation) as exc:
        load_config(write(tmp_path, text))
    # a dropped binding or register may also leave its parent with none
    assert problem in exc.value.problems


HISTORY_DEVICE = """
sink: {mode: file, path: out.lp}
devices:
  - id: m
    protocol: modbus
    host: h
    registers: [%(registers)s]
    historical:
      days_back: %(days_back)s
      registers: [%(history_registers)s]
"""
HISTORY_OK = dict(
    registers="{name: v, addr: 0, dtype: u16}",
    days_back=0,
    history_registers="{name: e, addr: 1, dtype: u16}",
)
# the load date these tests pin, so that none of them straddles midnight
TODAY = date(2026, 1, 15)
# the oldest day the date window holds, counted back from the load date
OLDEST = (TODAY - date(2000, 1, 1)).days


@pytest.fixture
def pinned_today(monkeypatch):
    class PinnedDate(date):
        @classmethod
        def today(cls):
            return TODAY

    monkeypatch.setattr(config, "date", PinnedDate)


def test_days_back_naming_2000_01_01_loads(tmp_path, pinned_today):
    cfg = load_config(write(tmp_path, _doc(HISTORY_DEVICE, HISTORY_OK, days_back=OLDEST)))
    assert cfg.modbus_devices[0].historical.days_back == OLDEST


@pytest.mark.parametrize(
    "days_back, problem",
    [
        (-1, "days_back -1"),
        (OLDEST + 1, f"days_back {OLDEST + 1}"),
        (70000, "days_back 70000"),
    ],
    ids=["tomorrow", "1999-12-31", "1835"],
)
def test_days_back_the_date_window_cannot_hold_is_rejected_at_load(
    tmp_path, pinned_today, days_back, problem
):
    # -1 asked for tomorrow's block; 70000 wrote year -165 into the window,
    # which the request encoder refused on every poll
    with pytest.raises(InvariantViolation) as exc:
        load_config(write(tmp_path, _doc(HISTORY_DEVICE, HISTORY_OK, days_back=days_back)))
    assert exc.value.problems == [
        f"devices[0].historical: {problem} must name a day from 2000-01-01 to today"
    ]


BAD_REGISTER = "{name: x, addr: -1, dtype: u16}"
BAD_REGISTER_PROBLEM = "u16 at address -1 does not fit in 0..65535"
ONE_DEVICE = "sink: {mode: file, path: out.lp}\ndevices: [{id: m, protocol: modbus, host: h%s}]\n"
# a rejected entry is reported where it is, not again as a missing list
LIST_PROBLEMS = {
    "only history register rejected": (
        _doc(HISTORY_DEVICE, HISTORY_OK, history_registers=BAD_REGISTER),
        [f"devices[0].historical.registers[0]: {BAD_REGISTER_PROBLEM}"],
    ),
    "only register rejected, no history": (
        ONE_DEVICE % f", registers: [{BAD_REGISTER}]",
        [f"devices[0].registers[0]: {BAD_REGISTER_PROBLEM}"],
    ),
    "history with an empty register list": (
        ONE_DEVICE % ", historical: {registers: []}",
        ["devices[0].historical.registers is required"],
    ),
    "neither registers nor history": (
        ONE_DEVICE % ", registers: []",
        ["devices[0]: needs registers or a historical block"],
    ),
}


@pytest.mark.parametrize("case", sorted(LIST_PROBLEMS))
def test_a_list_is_reported_missing_only_when_it_was_not_given(tmp_path, case):
    text, problems = LIST_PROBLEMS[case]
    with pytest.raises(InvariantViolation) as exc:
        load_config(write(tmp_path, text))
    assert exc.value.problems == problems
