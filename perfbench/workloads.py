"""Workload definitions: what each workload offers the gateway, and the
seeded generators that produce it.

The gateway only ever sees the YAML written here and the traffic the
generators produce; the seed changes device order, start values and every
random step, never the shape of the workload.
"""

from __future__ import annotations

import json
import random
import struct
from dataclasses import dataclass

from telegw.sim.fleet import DeviceClass, ParamSpec, SimDevice, aranet_class


@dataclass(frozen=True)
class MqttWorkload:
    """Open-loop JSON telemetry through the broker into the gateway."""

    name: str
    topic_root: str
    model_tag: str
    devices: int
    params: tuple[ParamSpec, ...]
    units: dict[str, str]
    change_prob: float
    # rate for the end-to-end figures: well below the ceiling, so that a slower
    # shared host does not push the gateway into saturation
    reference_pps: int
    ladder_pps: tuple[int, ...]  # ascending offered rates for the sustained-rate search
    latency_limit_ms: float  # p99 limit a ladder step must meet
    rules: tuple[dict, ...]

    def topic(self, device: str) -> str:
        return f"{self.topic_root}/{device}/data"


@dataclass(frozen=True)
class Register:
    name: str
    address: int
    dtype: str
    scale: float
    lo: float
    hi: float
    unit: str = ""


@dataclass(frozen=True)
class PollWorkload:
    """Closed-loop polling of one Modbus meter and one BACnet controller."""

    name: str
    registers: tuple[Register, ...]
    bacnet_analog: int
    bacnet_binary: int
    change_prob: float


def ladder(start: int, ratio: float = 1.2, steps: int = 8) -> tuple[int, ...]:
    """Geometric rate steps from ``start``, reaching past today's ceiling. Eight
    steps fit a 30 s traced run with one drain pause to spare."""
    return tuple(int(round(start * ratio**k, -2)) for k in range(steps))


ARANET = aranet_class()
ARANET_UNITS = {"co2": "ppm", "temperature": "degC", "humidity": "%", "pressure": "hPa",
                "battery": "%", "rssi": "dB"}

WIDE_PARAMS = tuple(ParamSpec(f"p{i:02d}", 0, 1000, 5 + i, 0.01, 2) for i in range(24))

MQTT_FLEET = MqttWorkload(
    name="mqtt_fleet",
    topic_root="aranet",
    model_tag="aranet4",
    devices=600,
    params=ARANET.parameters,
    units=ARANET_UNITS,
    change_prob=ARANET.change_prob,
    reference_pps=16_000,
    ladder_pps=ladder(24_000),
    latency_limit_ms=400.0,
    rules=(
        {"id": "co2-high", "parameter": "co2", "predicate": "gt", "threshold": 1000,
         "for_duration_s": 0.3, "cooldown_s": 2, "clear_margin": 0.05},
        {"id": "co2-very-high", "parameter": "co2", "predicate": "gt", "threshold": 1150,
         "entity": "aranet-0[0-2]*"},
        {"id": "temp-high", "parameter": "temperature", "predicate": "gt", "threshold": 25,
         "for_duration_s": 0.2, "clear_margin": 0.02},
        {"id": "humidity-low", "parameter": "humidity", "predicate": "lt", "threshold": 33,
         "cooldown_s": 1, "entity": "aranet-1*"},
        {"id": "pressure-high", "parameter": "pressure", "predicate": "gt", "threshold": 1025,
         "tags": {"model": "aranet4"}},
        {"id": "battery-low", "parameter": "battery", "predicate": "lt", "threshold": 25,
         "for_duration_s": 0.5, "cooldown_s": 5},
        {"id": "rssi-weak", "parameter": "rssi", "predicate": "lt", "threshold": -85},
    ),
)

MQTT_CHURN = MqttWorkload(
    name="mqtt_churn",
    topic_root="wide",
    model_tag="wide24",
    devices=1500,
    params=WIDE_PARAMS,
    units={p.name: "u" for p in WIDE_PARAMS},
    change_prob=1.0,
    reference_pps=12_000,
    ladder_pps=ladder(20_000),
    latency_limit_ms=400.0,
    # a rule on a parameter the payload never carries: the engine runs, nothing matches
    rules=(
        {"id": "co2-high", "parameter": "co2", "predicate": "gt", "threshold": 1000},
    ),
)


def cirwatt_b_registers() -> tuple[Register, ...]:
    """The CIRWATT B meter map: 29 holding registers in five contiguous runs."""
    regs = []
    for i, ph in enumerate(("l1", "l2", "l3")):
        regs.append(Register(f"current_{ph}", 0 + 2 * i, "u32", 0.001, 0, 60, "A"))
    for i, ph in enumerate(("l1", "l2", "l3")):
        regs.append(Register(f"voltage_{ph}", 6 + 2 * i, "u32", 0.1, 200, 250, "V"))
    for i, ph in enumerate(("l1", "l2", "l3")):
        regs.append(Register(f"cos_phi_{ph}", 12 + i, "i16", 0.01, -1, 1, ""))
    for i, ph in enumerate(("l1", "l2", "l3", "total")):
        regs.append(Register(f"apparent_power_{ph}", 16 + 2 * i, "u32", 1.0, 0, 40000, "VA"))
    for i, ph in enumerate(("l1", "l2", "l3", "total")):
        regs.append(Register(f"active_power_{ph}", 24 + 2 * i, "i32", 1.0, -20000, 40000, "W"))
    for i, ph in enumerate(("l1", "l2", "l3", "total")):
        regs.append(Register(f"reactive_power_{ph}", 32 + 2 * i, "i32", 1.0, -20000, 20000, "var"))
    regs.append(Register("energy_imported", 0x0100, "u32", 0.1, 0, 1e6, "kWh"))
    regs.append(Register("energy_exported", 0x0102, "u32", 0.1, 0, 1e6, "kWh"))
    regs.append(Register("frequency", 0x0200, "u16", 0.01, 49.5, 50.5, "Hz"))
    regs.append(Register("power_factor", 0x0201, "i16", 0.001, -1, 1, ""))
    for q in range(1, 5):
        regs.append(Register(f"reactive_energy_q{q}", 0x0210 + 2 * (q - 1), "u32", 0.1, 0, 1e6, "kvarh"))
    return tuple(regs)


POLL_MIX = PollWorkload(
    name="poll_mix",
    registers=cirwatt_b_registers(),
    bacnet_analog=39,
    bacnet_binary=38,
    change_prob=0.3,
)

WORKLOADS = {w.name: w for w in (MQTT_FLEET, MQTT_CHURN, POLL_MIX)}

MODBUS_DEVICE = "meter-1"
BACNET_DEVICE = "hvac-1"
BACNET_INSTANCE = 260001


# -- seeded generators ----------------------------------------------------------


def value_models(device_id: str, params, change_prob: float, seed: int) -> list:
    """One seeded value model per parameter, seeded and started as the fleet
    simulator's devices are."""
    cls = DeviceClass(device_id, 1, 1.0, change_prob, tuple(params))
    models = SimDevice(device_id, cls, seed)._models
    return [models[p.name] for p in params]


class MqttStream:
    """Deterministic message sequence for one MQTT workload and seed.

    Devices publish round robin in a seeded order; message k always comes
    from the same device with the same values, whatever the send times.
    """

    def __init__(self, wl: MqttWorkload, seed: int):
        self.wl = wl
        ids = [f"{wl.topic_root}-{i:04d}" for i in range(wl.devices)]
        random.Random(f"order:{seed}").shuffle(ids)
        self.devices = ids
        self.topics = [wl.topic(d) for d in ids]
        self.models = [value_models(d, wl.params, wl.change_prob, seed) for d in ids]
        self.k = 0

    def next_values(self) -> tuple[int, list]:
        """(device index, rounded values) of the next message."""
        n = self.k % len(self.devices)
        self.k += 1
        values = []
        for p, m in zip(self.wl.params, self.models[n]):
            v = m.step()
            values.append(int(round(v)) if p.decimals == 0 else round(v, p.decimals))
        return n, values

    def next_message(self, due_ns: int) -> tuple[str, bytes]:
        n, values = self.next_values()
        doc = dict(zip((p.name for p in self.wl.params), values))
        doc["ts"] = due_ns
        return self.topics[n], json.dumps(doc).encode("utf-8")


def probe_payload(wl: MqttWorkload, due_ns: int) -> bytes:
    """Steady mid-range values for the set-up broker: no alert rule fires on them."""
    doc = {p.name: (p.lo + p.hi) / 2 for p in wl.params}
    doc["ts"] = due_ns
    return json.dumps(doc).encode("utf-8")


def register_models(wl: PollWorkload, seed: int) -> list:
    params = [ParamSpec(r.name, r.lo, r.hi, (r.hi - r.lo) / 50, r.scale) for r in wl.registers]
    return value_models("modbus", params, wl.change_prob, seed)


def bacnet_names(wl: PollWorkload) -> list[tuple[str, str]]:
    """(object type, name) in inventory order: analog inputs then binary values."""
    out = [("analog-input", f"room-temp-{i:02d}") for i in range(1, wl.bacnet_analog)]
    out.append(("analog-input", "outdoor-temp"))
    out += [("binary-value", f"fan-coil-{i:02d}") for i in range(1, wl.bacnet_binary + 1)]
    return out


def bacnet_models(wl: PollWorkload, seed: int) -> list:
    names = bacnet_names(wl)
    analog = [ParamSpec(name, 10, 35, 0.5, 0.1) for typ, name in names if typ == "analog-input"]
    # a flag flips on a third of the analog change rate
    binary = [ParamSpec(name, 0, 1, 1, 1.0) for typ, name in names if typ == "binary-value"]
    return (value_models("bacnet", analog, wl.change_prob, seed)
            + value_models("bacnet", binary, wl.change_prob / 3, seed))


def f32(x: float) -> float:
    return struct.unpack(">f", struct.pack(">f", x))[0]


# -- gateway configuration --------------------------------------------------------


def _sink(run_dir: str, stem: str) -> dict:
    return {
        "mode": "file",
        "path": f"{run_dir}/{stem}.lp",
        "batch_size": 500,
        "batch_age_ms": 100,
        "buffer_capacity": 100_000,
        "dead_letter_path": f"{run_dir}/{stem}.dead.lp",
    }


def _gateway_section() -> dict:
    return {"heartbeat_s": 0, "jitter": 0.0, "health_host": "127.0.0.1", "health_port": 0,
            "drain_timeout_s": 30}


def mqtt_config(wl: MqttWorkload, port: int, run_dir: str, stem: str) -> dict:
    fields = {f"/{p.name}": {"parameter": p.name, "unit": wl.units[p.name]} for p in wl.params}
    return {
        "gateway": _gateway_section(),
        "sink": _sink(run_dir, stem),
        "brokers": [{
            "host": "127.0.0.1",
            "port": port,
            "client_id": f"gateway-{stem}",
            "bindings": [{
                "topic": f"{wl.topic_root}/+/data",
                "entity": "{1}",
                "timestamp_pointer": "/ts",
                "timestamp_unit": "ns",
                "tags": {"model": wl.model_tag},
                "fields": fields,
            }],
        }],
        "alerts": {"rules": [dict(r) for r in wl.rules], "notifiers": [{"type": "log"}]},
    }


def poll_config(wl: PollWorkload, modbus_port: int, bacnet_port: int, run_dir: str,
                stem: str) -> dict:
    registers = [
        {"name": r.name, "fc": "holding", "addr": r.address, "dtype": r.dtype,
         "scale": r.scale, "unit": r.unit}
        for r in wl.registers
    ]
    return {
        "gateway": _gateway_section(),
        "sink": _sink(run_dir, stem),
        "devices": [
            {"id": MODBUS_DEVICE, "protocol": "modbus", "host": "127.0.0.1",
             "port": modbus_port, "unit": 1, "interval_s": 0.0001,
             "mode": "per_request_close", "retries": 1, "tags": {"model": "cirwatt-b"},
             "registers": registers},
            {"id": BACNET_DEVICE, "protocol": "bacnet", "host": "127.0.0.1",
             "port": bacnet_port, "device_instance": BACNET_INSTANCE, "interval_s": 0.0001,
             "timeout_ms": 1000, "retries": 3, "discover": True,
             "tags": {"model": "rector"}},
        ],
    }
