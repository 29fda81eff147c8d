"""Pins what ``load_config`` makes of a corpus of documents.

The corpus is the two sample configs, one document that sets every key the
loader knows, and mutants of that document: every key deleted, every key and
list element set to each value in ``WRONG``, and an unknown key added to
every mapping. ``config_corpus.json`` holds the outcome of each document: a
digest of the loaded ``GatewayConfig``, or the problems it raised. Problems
compare as a multiset, since the loader promises no order.

After a deliberate change of behaviour, re-record with

    PYTHONPATH=src python tests/test_config_corpus.py

and name every entry that changed where the change is described.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import os
import pathlib
import sys
import tempfile

from telegw import config
from telegw.config import InvariantViolation, UnknownField, load_config

HERE = pathlib.Path(__file__).resolve().parent
CONFIGS = HERE.parent / "configs"
EXPECTED = HERE / "config_corpus.json"

ENV = {
    "GATEWAY_CLOUD_TOKEN": "Bearer x",
    "GW_PIN_HOST": "10.0.0.9",
    "GW_PIN_TOKEN": "token",
    "GW_PIN_USER": "gw",
    "GW_PIN_PASS": "secret",
    "GW_PIN_AUTH": "Bearer y",
}
# names the corpus uses as variables that must stay unset
UNSET = ("x",)

WRONG = (0, 7, -1, 70000, 1.5, True, False, "", "x", "a\nb", [1], {"k": 1})

FULL = {
    "gateway": {
        "heartbeat_s": 30,
        "jitter": 0.1,
        "health_host": "0.0.0.0",
        "health_port": 8099,
        "stats_path": "stats.json",
        "drain_timeout_s": 2.5,
    },
    "sink": {
        "mode": "file",
        "url": "http://db:8086/write",
        "token_env": "GW_PIN_TOKEN",
        "path": "out.lp",
        "batch_size": 100,
        "batch_age_ms": 250,
        "retry_attempts": 2,
        "retry_backoff_ms": 50,
        "buffer_capacity": 1000,
        "dead_letter_path": "dl.lp",
    },
    "brokers": [
        {
            "host": "${GW_PIN_HOST}",
            "port": 1884,
            "client_id": "gw-a",
            "username_env": "GW_PIN_USER",
            "password_env": "GW_PIN_PASS",
            "backoff_initial_s": 1,
            "backoff_max_s": 10,
            "bindings": [
                {
                    "topic": "aranet/+/measurements",
                    "entity": "{1}",
                    "timestamp_pointer": "/ts",
                    "timestamp_unit": "ms",
                    "tags": {"model": "aranet4"},
                    "fields": {
                        "/co2": {"parameter": "co2", "unit": "ppm", "kind": "real", "scale": 2},
                        "/ok": {"parameter": "ok", "kind": "flag"},
                    },
                }
            ],
        }
    ],
    "http_polls": [
        {
            "url": "https://cloud.example/v1",
            "interval_s": 60,
            "entity_array_pointer": "/inverters",
            "entity_id_pointer": "/sn",
            "auth_header": "Authorization",
            "auth_value_env": "GW_PIN_AUTH",
            "tags": {"model": "inverter"},
            "fields": {"/power": {"parameter": "power", "unit": "W", "scale": 0.001}},
        }
    ],
    "devices": [
        {
            "id": "meter-1",
            "protocol": "modbus",
            "host": "10.0.0.5",
            "port": 1502,
            "unit": 3,
            "interval_s": 30,
            "mode": "persistent",
            "connect_timeout_ms": 500,
            "io_timeout_ms": 700,
            "retries": 2,
            "tags": {"model": "cem"},
            "registers": [
                {
                    "name": "voltage",
                    "fc": "input",
                    "addr": 6,
                    "dtype": "u32",
                    "word_order": "little",
                    "scale": 0.1,
                    "offset": -1,
                    "unit": "V",
                }
            ],
            "historical": {
                "date_addr": 0x2000,
                "ready_addr": 0x2003,
                "ready_value": 2,
                "poll_interval_ms": 100,
                "max_polls": 5,
                "days_back": 2,
                "registers": [
                    {"name": "energy", "fc": "holding", "addr": 0x2010, "dtype": "f32",
                     "unit": "kWh"}
                ],
            },
        },
        {
            "id": "hvac-1",
            "protocol": "bacnet",
            "host": "10.0.0.6",
            "port": 47809,
            "device_instance": 260001,
            "interval_s": 120,
            "timeout_ms": 800,
            "retries": 2,
            "discover": True,
            "names": ["zone-temp", "fan"],
            "tags": {"model": "comfort"},
        },
    ],
    "alerts": {
        "rules": [
            {
                "id": "r1",
                "parameter": "voltage",
                "predicate": "gt",
                "threshold": 250,
                "entity": "meter-*",
                "tags": {"model": "cem"},
                "for_duration_s": 60,
                "cooldown_s": 600,
                "clear_margin": 0.05,
            }
        ],
        "notifiers": [{"type": "webhook", "url": "http://hook.example/", "spool_dir": "spool"}],
    },
    "simulate": {
        "compression": 30,
        "seed": 7,
        "fleets": [
            {
                "kind": "aranet",
                "count": 5,
                "interval_s": 30,
                "change_prob": 0.5,
                "topic_template": "{kind}/{device_id}/m",
                "parameters": [
                    {"name": "co2", "lo": 400, "hi": 1200, "step": 40, "quantum": 1, "decimals": 1}
                ],
            }
        ],
    },
}

_DELETE = object()


def _label(path) -> str:
    out = ""
    for step in path:
        out += f"[{step}]" if isinstance(step, int) else f".{step}" if out else str(step)
    return out


def _mutant(path, value=_DELETE, add_unknown=False):
    doc = copy.deepcopy(FULL)
    node = doc
    for step in path[:-1] if not add_unknown else path:
        node = node[step]
    if add_unknown:
        node["zz_unknown"] = 1
    elif value is _DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = copy.deepcopy(value)
    return doc


def _paths(node, path=()):
    """(path, value) of every key and list element below ``node``, parents first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield path + (key,), child
        if isinstance(child, (dict, list)):
            yield from _paths(child, path + (key,))


def corpus():
    """(name, text) for every document, in a fixed order."""
    for name in ("gateway.yaml", "minimal.yaml"):
        yield f"configs/{name}", (CONFIGS / name).read_text(encoding="utf-8")
    docs = [("full", FULL), ("<top> + unknown key", _mutant((), add_unknown=True))]
    for path, child in _paths(FULL):
        label = _label(path)
        if isinstance(path[-1], str):
            docs.append((f"{label} deleted", _mutant(path)))
        for value in WRONG:
            docs.append((f"{label} = {json.dumps(value)}", _mutant(path, value)))
        if isinstance(child, dict):
            docs.append((f"{label} + unknown key", _mutant(path, add_unknown=True)))
    for name, doc in docs:
        yield name, json.dumps(doc)  # JSON is YAML, and much faster to write


def _canon(obj):
    if dataclasses.is_dataclass(obj):
        fields = dataclasses.fields(obj)
        return [type(obj).__name__, {f.name: _canon(getattr(obj, f.name)) for f in fields}]
    if isinstance(obj, tuple):
        return [_canon(x) for x in obj]
    if isinstance(obj, list):
        return ["list", [_canon(x) for x in obj]]
    if isinstance(obj, dict):
        return {str(k): _canon(v) for k, v in obj.items()}
    if callable(obj):
        return f"{obj.__module__}.{obj.__qualname__}"
    return obj


def _problem(p) -> str:
    return f"UnknownField: {p.path}" if isinstance(p, UnknownField) else str(p)


def outcome(path: str):
    """A digest of the loaded config, or the sorted problems."""
    try:
        cfg = load_config(path)
    except InvariantViolation as e:
        return sorted(_problem(p) for p in e.problems)
    except Exception as e:  # noqa: BLE001 - an escaping error is an outcome too
        return [f"raised {type(e).__name__}: {e}"]
    text = json.dumps(_canon(cfg), sort_keys=True)
    return "ok " + hashlib.sha256(text.encode()).hexdigest()[:16]


def outcomes() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "gw.yaml")
        got = {}
        for name, text in corpus():
            assert name not in got, name
            with open(path, "w", encoding="utf-8") as f:
                f.write(text)
            got[name] = outcome(path)
        return got


def test_corpus_outcomes_are_pinned(monkeypatch):
    for k, v in ENV.items():
        monkeypatch.setenv(k, v)
    for k in UNSET:
        monkeypatch.delenv(k, raising=False)
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    got = outcomes()
    assert got.keys() == expected.keys()
    assert expected["full"].startswith("ok ")
    differ = {k: (expected[k], got[k]) for k in got if got[k] != expected[k]}
    assert not differ, "\n".join(
        f"{k}:\n  expected {e}\n  got      {g}" for k, (e, g) in differ.items()
    )


def test_full_sets_every_key_the_loader_accepts():
    """Each section's key table is read off its dataclass, so a field that
    quietly becomes a YAML key fails here until FULL (and the corpus) take
    it on purpose."""
    modbus, bacnet = FULL["devices"]
    fleet = FULL["simulate"]["fleets"][0]
    binding = FULL["brokers"][0]["bindings"][0]
    sections = {
        "_GATEWAY": [FULL["gateway"]],
        "_SINK": [FULL["sink"]],
        "_FIELD": [*binding["fields"].values(), *FULL["http_polls"][0]["fields"].values()],
        "_BROKER": FULL["brokers"],
        "_BINDING": [binding],
        "_HTTP_POLL": FULL["http_polls"],
        "_REGISTER": modbus["registers"],
        "_CODEC": modbus["registers"],
        "_MODBUS": [modbus],
        "_POLICY": [modbus],
        "_HISTORICAL": [modbus["historical"]],
        "_HISTORICAL_SPEC": [modbus["historical"]],
        "_BACNET": [bacnet],
        "_RULE": FULL["alerts"]["rules"],
        "_NOTIFIER": FULL["alerts"]["notifiers"],
        "_SIMULATE": [FULL["simulate"]],
        "_FLEET": [fleet],
        "_PARAM": fleet["parameters"],
    }
    tables = {
        name: table for name, table in vars(config).items()
        if name.isupper() and name.startswith("_") and isinstance(table, dict)
    }
    assert tables.keys() == sections.keys()
    for name, docs in sections.items():
        unset = set(tables[name]) - set().union(*docs)
        assert not unset, f"{name} accepts keys FULL never sets: {sorted(unset)}"


if __name__ == "__main__":
    os.environ.update(ENV)
    for k in UNSET:
        os.environ.pop(k, None)
    data = outcomes()
    EXPECTED.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    bad = sum(1 for v in data.values() if isinstance(v, list))
    print(f"recorded {len(data)} documents ({bad} with problems) to {EXPECTED}", file=sys.stderr)
