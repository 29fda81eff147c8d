"""What each point costs: work done once per device or parameter stays so.

The first tests check that a polled device's fixed work (its Modbus read
groups, its tags mapping) is done once, not once per poll. The replays
count the Python and builtin function calls per point, as cProfile counts
them, on fixed seeded inputs through a pipeline with a null sink and no
flusher; each bound is the count measured when it was set plus 5%, so a
change that adds a call per point fails here before a benchmark run.
"""

import cProfile
import pstats
import textwrap
import time

from telegw.alerts import AlertEngine, AlertRule
from telegw.bacnet import encoding
from telegw.bacnet.client import BacnetClient, BacnetEndpoint
from telegw.config import DeviceClass, ParamSpec, load_config
from telegw.daemon import Gateway
from telegw.ingest import FieldSpec, TopicBinding, parse_payload
from telegw.modbus import ModbusClient
from telegw.modbus import client as modbus_client
from telegw.pipeline import Pipeline, SinkConfig
from telegw.sim import BacnetSim, ModbusSim, aranet_class
from telegw.sim.fleet import SimDevice

from bacnet_fixtures import rector_controller_objects, small_inventory
from devicemaps import cirwatt_b_bindings, load_plausible

# -- fixed work runs once per device ---------------------------------------------


def _meter_config(tmp_path, port: int) -> str:
    path = tmp_path / "gw.yaml"
    path.write_text(
        textwrap.dedent(
            f"""
            gateway: {{health_port: 0, jitter: 0}}
            sink: {{mode: file, path: {tmp_path}/out.lp}}
            devices:
              - id: meter-1
                protocol: modbus
                host: 127.0.0.1
                port: {port}
                interval_s: 0.02
                tags: {{model: cirwatt-b}}
                registers:
                  - {{name: current_l1, addr: 0, dtype: u32, scale: 0.001}}
                  - {{name: voltage_l1, addr: 6, dtype: u32, scale: 0.1}}
                  - {{name: frequency, addr: 0x200, dtype: u16, scale: 0.01}}
            """
        ),
        encoding="utf-8",
    )
    return str(path)


def test_modbus_device_plans_its_reads_once_and_shares_its_tags(tmp_path, monkeypatch):
    plans = []
    coalesce = modbus_client.coalesce
    monkeypatch.setattr(modbus_client, "coalesce", lambda b: plans.append(b) or coalesce(b))
    sim = ModbusSim(unit=1)
    load_plausible(sim, cirwatt_b_bindings())
    with sim:
        gw = Gateway(load_config(_meter_config(tmp_path, sim.port)))
        points = []
        submit_many = gw.pipeline.submit_many
        gw.pipeline.submit_many = lambda pts: (points.extend(pts), submit_many(pts))
        gw.start()
        try:
            deadline = time.monotonic() + 5
            while gw.scheduler.job_runs["meter-1"] < 5 and time.monotonic() < deadline:
                time.sleep(0.01)
        finally:
            gw.stop()
    runs = gw.scheduler.job_runs["meter-1"]
    assert runs >= 5 and gw.scheduler.job_errors == {"meter-1": 0}
    assert len(plans) == 1
    assert len(points) == 3 * runs
    assert len({id(p.tags) for p in points}) == 1
    assert dict(points[0].tags) == {"model": "cirwatt-b"}


def test_bacnet_device_points_carry_its_tags_mapping(tmp_path):
    with BacnetSim(100, small_inventory()) as sim:
        path = tmp_path / "gw.yaml"
        path.write_text(
            textwrap.dedent(
                f"""
                gateway: {{health_port: 0, jitter: 0}}
                sink: {{mode: file, path: {tmp_path}/out.lp}}
                devices:
                  - {{id: ctrl-1, protocol: bacnet, host: 127.0.0.1, port: {sim.port},
                      device_instance: 100, interval_s: 0.02, discover: true,
                      tags: {{building: B}}}}
                """
            ),
            encoding="utf-8",
        )
        gw = Gateway(load_config(str(path)))
        points = []
        submit_many = gw.pipeline.submit_many
        gw.pipeline.submit_many = lambda pts: (points.extend(pts), submit_many(pts))
        gw.start()
        try:
            deadline = time.monotonic() + 5
            while gw.scheduler.job_runs["ctrl-1"] < 3 and time.monotonic() < deadline:
                time.sleep(0.01)
        finally:
            gw.stop()
    runs = gw.scheduler.job_runs["ctrl-1"]
    assert runs >= 3 and gw.scheduler.job_errors == {"ctrl-1": 0}
    assert len(points) == 3 * runs
    tags = gw.config.bacnet_devices[0].tags
    assert tags == {"building": "B"}
    assert all(p.tags is tags for p in points)


# -- function calls per point ------------------------------------------------------


class NullSink:
    def write(self, lines) -> int:
        return 204


def _pipeline(rules=()) -> Pipeline:
    """Intake as the gateway builds it, with no flusher: lines stay buffered."""
    config = SinkConfig(mode="file", path="unused.lp", buffer_capacity=10**6)
    return Pipeline(config, NullSink(), alert_engine=AlertEngine(list(rules)), clock_ns=lambda: 0)


def calls_per_point(replay, pipeline: Pipeline) -> float:
    profile = cProfile.Profile()
    profile.runcall(replay)
    counters = pipeline.counters()
    assert counters["received"] > 0 and counters["emitted"] > 0
    assert counters["rejected_non_finite"] == counters["rejected_unrenderable"] == 0
    return pstats.Stats(profile).total_calls / counters["received"]


def _messages(cls: DeviceClass, rounds: int, seed: int) -> list[tuple[str, bytes]]:
    devices = [SimDevice(f"{cls.kind}-{i:04d}", cls, seed) for i in range(cls.count)]
    return [
        (d.topic, d.payload((r + 1) * int(cls.interval_s * 1e9)))
        for r in range(rounds)
        for d in devices
    ]


def _mqtt_replay(cls: DeviceClass, rounds: int, rules=(), seed: int = 11):
    binding = TopicBinding(
        f"{cls.kind}/+/measurements",
        "{1}",
        {f"/{p.name}": FieldSpec(p.name, "u") for p in cls.parameters},
        timestamp_pointer="/ts",
        tags={"model": cls.kind},
    )
    messages = _messages(cls, rounds, seed)
    pipeline = _pipeline(rules)

    def replay():
        for topic, payload in messages:
            pipeline.submit_many(parse_payload(topic, payload, binding, 0))

    return replay, pipeline


# mqtt_fleet's seven rules: thresholds, entity globs, a tag filter, for-duration,
# cooldown and clear margin
FLEET_RULES = (
    AlertRule("co2-high", "co2", "gt", 1000, for_duration=0.3, cooldown=2, clear_margin=0.05),
    AlertRule("co2-very-high", "co2", "gt", 1150, entity="aranet-0[0-2]*"),
    AlertRule("temp-high", "temperature", "gt", 25, for_duration=0.2, clear_margin=0.02),
    AlertRule("humidity-low", "humidity", "lt", 33, entity="aranet-1*", cooldown=1),
    AlertRule("pressure-high", "pressure", "gt", 1025, tags={"model": "aranet"}),
    AlertRule("battery-low", "battery", "lt", 25, for_duration=0.5, cooldown=5),
    AlertRule("rssi-weak", "rssi", "lt", -85),
)
WIDE = tuple(ParamSpec(f"p{i:02d}", 0, 1000, 5 + i, 0.01, 2) for i in range(24))


def test_calls_per_point_mqtt_churn_shape():
    cls = DeviceClass("wide", 40, 60.0, 1.0, WIDE)
    replay, pipeline = _mqtt_replay(cls, 5, [AlertRule("co2-high", "co2", "gt", 1000)])
    calls = calls_per_point(replay, pipeline)
    assert calls <= 34.0 * 1.05, calls


def test_calls_per_point_mqtt_fleet_shape():
    replay, pipeline = _mqtt_replay(aranet_class(count=200), 10, FLEET_RULES)
    calls = calls_per_point(replay, pipeline)
    assert calls <= 39.3 * 1.05, calls


class ReplayedModbus(ModbusClient):
    """A client whose reads answer from recorded register banks, one per poll."""

    def __init__(self, banks):
        super().__init__("127.0.0.1", clock_ns=lambda: 0)
        self.banks = iter(banks)
        self.bank = {}

    def read_parameters(self, *args, **kwargs):
        self.bank = next(self.banks)
        return super().read_parameters(*args, **kwargs)

    def read_registers(self, function, address, count):
        return [self.bank[a] for a in range(address, address + count)]


def test_calls_per_point_cirwatt_poll():
    bindings = tuple(cirwatt_b_bindings())
    sim = ModbusSim(unit=1)  # never started: only its register bank is used
    banks = []
    for poll in range(20):
        load_plausible(sim, bindings, base=100.0 + poll % 4)
        banks.append(dict(sim.holding))
    client = ReplayedModbus(banks)
    pipeline = _pipeline()
    tags = {"model": "cirwatt-b"}
    plan = modbus_client.coalesce(bindings)

    def replay():
        for _ in banks:
            pipeline.submit_many(client.read_parameters(plan, "meter-1", tags).points)

    calls = calls_per_point(replay, pipeline)
    assert calls <= 31.8 * 1.05, calls


def test_calls_per_point_bacnet_poll():
    objects = rector_controller_objects()
    sim = BacnetSim(2001, objects)  # never started: answers in process

    def answer(apdu, invoke):
        return encoding.unwrap(sim._handle(encoding.wrap(apdu, True)))

    acks = []
    with BacnetClient(BacnetEndpoint("127.0.0.1", 0, 2001)) as client:
        client.clock_ns = lambda: 0
        client._transact = answer
        client.discover_objects()
        for poll in range(20):
            for i, o in enumerate(objects):  # about a third of the values change
                if (i + poll) % 3 == 0:
                    o.value = (not o.value) if isinstance(o.value, bool) else o.value + 0.5
            client._transact = lambda apdu, invoke: acks.append(answer(apdu, invoke)) or acks[-1]
            client.read_points(None, "hvac-1", {"model": "rector"})
        replies = iter(acks)
        # a recorded ack answers the next request, its invoke id (octet 1) set to match
        client._transact = lambda apdu, invoke: (lambda a: a[:1] + bytes((invoke,)) + a[2:])(
            next(replies)
        )
        pipeline = _pipeline()
        tags = {"model": "rector"}

        def replay():
            for _ in acks:
                pipeline.submit_many(client.read_points(None, "hvac-1", tags))

        calls = calls_per_point(replay, pipeline)
    assert pipeline.counters()["received"] == 77 * len(acks)
    assert calls <= 26.0 * 1.05, calls
