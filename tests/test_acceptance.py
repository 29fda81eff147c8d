"""End-to-end acceptance suite: ten guarantees, one test and one verdict each.

Every test registers a single [PASS]/[FAIL] line through the conftest hook,
so the terminal summary of a full run reads as a checklist. Tests here only
use public package APIs plus the independent oracles that live next to the
unit tests (brute-force evaluators, the standalone line-protocol parser,
frozen device register maps).
"""

import datetime
import functools
import math
import random
import struct
import time

import conftest
from bacnet_fixtures import rector_controller_objects
from devicemaps import (
    cem_c31_bindings,
    cirwatt_b_bindings,
    lacecal_bindings,
    load_plausible,
)
from fleet_harness import run_aranet_fleet
from lp_parser import parse_line
from test_alerts import oracle_events
from test_pipeline import ScriptedSink

from telegw.alerts import AlertEngine, AlertRule
from telegw.bacnet.client import BacnetClient, BacnetEndpoint
from telegw.bacnet.encoding import (
    Aborted,
    MalformedTag,
    ObjectRef,
    PropResult,
    Rejected,
    ServiceError,
    decode_rpm_ack,
    encode_rpm_ack,
    property_id,
    unwrap,
    wrap,
)
from telegw.lineproto import LineRecord, to_line
from telegw.model import FLAG, REAL, DataPoint, Value
from telegw.modbus import (
    ConnectionPolicy,
    ConnectTimeout,
    HistoricalReadConfig,
    ModbusClient,
    ReadyTimeout,
)
from telegw.modbus.client import coalesce
from telegw.pipeline import Pipeline, SinkConfig
from telegw.sim import FaultModel, ModbusSim
from telegw.sim.bacnet_server import BacnetSim

S = 1_000_000_000  # ns per second

FAST = ConnectionPolicy(connect_timeout_ms=400, io_timeout_ms=1000)
PERSIST = ConnectionPolicy(mode="persistent", connect_timeout_ms=400, io_timeout_ms=1000)


def modbus_client(sim, policy=FAST, unit=1):
    return ModbusClient("127.0.0.1", sim.port, unit=unit, policy=policy)


def criterion(n, label):
    """Wraps a test that returns [(ok, detail), ...] into one verdict line."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                checks = fn(*args, **kwargs)
            except BaseException as exc:
                detail = f"errored: {type(exc).__name__}: {exc}"
                conftest.record_verdict(n, f"[FAIL] criterion {n:2d}: {label} -- {detail}")
                raise
            ok = all(c for c, _ in checks)
            detail = "; ".join(d for _, d in checks)
            status = "PASS" if ok else "FAIL"
            conftest.record_verdict(n, f"[{status}] criterion {n:2d}: {label} -- {detail}")
            assert ok, f"{label}: {detail}"

        return wrapper

    return deco


@criterion(1, "dedup matches the brute-force distinct-adjacent oracle")
def test_dedup_equals_change_oracle(tmp_path):
    rng = random.Random(0xACCE0001)
    config = SinkConfig(
        mode="file", path=str(tmp_path / "c1.lp"), buffer_capacity=1_000_000
    )
    pipe = Pipeline(config, heartbeat_s=0.0)

    t0 = time.monotonic()
    oracles = {}
    for k in range(1000):
        n = rng.randrange(1, 1001)
        v = float(rng.randrange(10))
        seq = []
        for _ in range(n):
            if rng.random() < 0.5:
                v = float(rng.randrange(10))
            seq.append(v)
        entity = f"k{k:04d}"
        for i, x in enumerate(seq):
            pipe.submit(
                DataPoint(entity, "v", Value.real(x), "", i * 60 * S, {"model": "m"})
            )
        oracles[entity] = 1 + sum(1 for a, b in zip(seq, seq[1:]) if a != b)
    elapsed = time.monotonic() - t0

    per_key = pipe.rate_stats().entities
    bad = [k for k, want in oracles.items() if per_key[k].emitted != want]
    total = sum(oracles.values())
    return [
        (not bad, f"{1000 - len(bad)}/1000 keys match the oracle exactly"),
        (pipe.emitted == total, f"total emitted {pipe.emitted} == oracle {total}"),
        (elapsed < 10.0, f"{elapsed:.1f}s elapsed"),
    ]


@criterion(2, "52-sensor fleet stores within 10% of 42.67 points/h/device over 30 h")
def test_fleet_rate_over_thirty_hours(tmp_path):
    pipe, rows, emissions = run_aranet_fleet(tmp_path, hours=30.0)
    row = next(r for r in rows if r["device_kind"] != "total")
    totals = rows[-1]
    per_device = row["avg_points_per_hour_per_device"]
    lo, hi = 42.67 * 0.9, 42.67 * 1.1
    kind_rows = [r for r in rows if r["device_kind"] != "total"]
    sum_ok = totals["avg_points_per_hour"] == sum(
        r["avg_points_per_hour"] for r in kind_rows
    ) and totals["n_devices"] == sum(r["n_devices"] for r in kind_rows)
    return [
        (emissions >= 52 * 1800, f"{emissions} emissions over 30 simulated hours"),
        (
            row["n_devices"] == 52 and row["total_params"] == 312,
            "52 devices x 6 parameters",
        ),
        (lo <= per_device <= hi, f"{per_device:.2f} points/h/device vs 42.67 +/-10%"),
        (sum_ok, "totals row is the exact sum of the kind rows"),
        (pipe.shed == 0, f"{pipe.shed} shed"),
    ]


@criterion(3, "sustains 695 points/s for 60 s with zero shed into the file sink")
def test_sustained_throughput(tmp_path):
    path = tmp_path / "c3.lp"
    config = SinkConfig(
        mode="file",
        path=str(path),
        batch_size=5000,
        batch_age_ms=500,
        buffer_capacity=100_000,
    )
    pipe = Pipeline(config)
    pipe.start()
    entities = [f"dev-{i:03d}" for i in range(100)]
    tags = {"model": "load"}

    # 14 points per 20 ms tick -> 700/s nominal.
    seq = 0
    t0 = time.monotonic()
    deadline = t0 + 60.0
    while time.monotonic() < deadline:
        for _ in range(14):
            pipe.submit(
                DataPoint(
                    entities[seq % 100],
                    "value",
                    Value.real(float(seq)),
                    "",
                    seq * 1_000_000,
                    tags,
                )
            )
            seq += 1
        pause = t0 + 0.02 * (seq // 14) - time.monotonic()
        if pause > 0:
            time.sleep(pause)
    elapsed = time.monotonic() - t0
    drained = pipe.stop(drain_timeout_s=30.0)
    rate = seq / elapsed
    with open(path, encoding="utf-8") as f:
        stored = sum(1 for _ in f)

    return [
        (rate >= 695.0, f"{rate:.0f} points/s over {elapsed:.1f}s"),
        (elapsed >= 60.0, "full 60 s window"),
        (pipe.shed == 0, f"{pipe.shed} shed"),
        (drained and pipe.delivered == seq, f"{pipe.delivered}/{seq} delivered"),
        (stored == seq, f"{stored} lines persisted"),
    ]


@criterion(4, "random register reads are bit-exact; CEM-C31 and CIRWATT maps decode fully")
def test_modbus_roundtrips_and_register_maps():
    checks = []
    rng = random.Random(0xACCE0004)
    banks = {
        "holding": [rng.randrange(0x10000) for _ in range(1200)],
        "input": [rng.randrange(0x10000) for _ in range(1200)],
    }
    with ModbusSim() as sim:
        for table, words in banks.items():
            sim.load(0, words, table)
        c = modbus_client(sim, PERSIST)
        bad = 0
        for _ in range(1000):
            table = rng.choice(("holding", "input"))
            count = rng.randrange(1, 101)
            addr = rng.randrange(0, 1200 - count)
            if c.read_registers(table, addr, count) != banks[table][addr : addr + count]:
                bad += 1
        c.close()
        checks.append((bad == 0, f"{1000 - bad}/1000 random reads bit-exact"))

    with ModbusSim() as sim:
        expect = load_plausible(sim, cem_c31_bindings())
        rep = modbus_client(sim).read_parameters(coalesce(cem_c31_bindings()), "meter-1")
        got = {p.parameter: p.value.raw for p in rep.points}
        checks.append(
            (
                len(rep.points) == 23 and not rep.errors and got == expect,
                f"CEM-C31 map: {len(rep.points)}/23 points, values exact",
            )
        )

    with ModbusSim(port=10000) as sim:
        expect = load_plausible(sim, cirwatt_b_bindings())
        rep = modbus_client(sim).read_parameters(coalesce(cirwatt_b_bindings()), "cirwatt-1")
        got = {p.parameter: p.value.raw for p in rep.points}
        checks.append(
            (
                sim.port == 10000 and len(rep.points) == 29 and got == expect,
                f"CIRWATT map on :10000: {len(rep.points)}/29 points, values exact",
            )
        )
    return checks


@criterion(5, "connection-limit faults behave as modeled for both client policies")
def test_connection_fault_models():
    checks = []

    with ModbusSim(fault=FaultModel.single_connection_limit()) as sim:
        sim.load(0, [7, 8])
        a, b = modbus_client(sim), modbus_client(sim)
        failures = 0
        for i in range(100):
            try:
                if (a if i % 2 == 0 else b).read_registers("holding", 0, 2) != [7, 8]:
                    failures += 1
            except Exception:
                failures += 1
        checks.append(
            (failures == 0, f"alternating per-request clients: {failures}/100 failures")
        )

    with ModbusSim(fault=FaultModel.single_connection_limit()) as sim:
        sim.load(0, [7])
        holder = modbus_client(sim, PERSIST)
        holder.read_registers("holding", 0, 1)
        rival = modbus_client(sim, PERSIST)
        try:
            rival.read_registers("holding", 0, 1)
            blocked = False
        except ConnectTimeout:
            blocked = True
        holder.close()
        rival.close()
        checks.append((blocked, "second connect blocked while a persistent client holds the slot"))

    with ModbusSim(fault=FaultModel.reject_alternate_connections()) as sim:
        sim.load(0, [5])
        no_retry = modbus_client(
            sim, ConnectionPolicy(connect_timeout_ms=2000, io_timeout_ms=1000, request_retries=0)
        )
        outcomes = []
        for _ in range(100):
            try:
                no_retry.read_registers("holding", 0, 1)
                outcomes.append(True)
            except Exception:
                outcomes.append(False)
        checks.append(
            (
                outcomes == [True, False] * 50,
                f"no-retry client: {outcomes.count(False)}/100 failed, strictly alternating",
            )
        )
        one_retry = modbus_client(
            sim, ConnectionPolicy(connect_timeout_ms=2000, io_timeout_ms=1000, request_retries=1)
        )
        failures = 0
        for _ in range(100):
            try:
                one_retry.read_registers("holding", 0, 1)
            except Exception:
                failures += 1
        checks.append((failures == 0, f"one-retry client: {failures}/100 failed"))
    return checks


@criterion(6, "history handshake: 1 date write, 3 ready polls, one block read -> 29 points")
def test_historical_block_handshake():
    checks = []
    bindings = lacecal_bindings()
    cfg = HistoricalReadConfig(poll_interval_ms=10)

    with ModbusSim(fault=FaultModel.delayed_ready(2)) as sim:
        expect = load_plausible(sim, bindings)
        c = modbus_client(sim, PERSIST)
        rep = c.read_historical_block(datetime.date(2024, 3, 7), cfg, bindings, "analyzer-1")
        c.close()
        writes = [e for e in sim.request_log if e.kind == "write"]
        polls = [
            e
            for e in sim.request_log
            if e.kind == "read" and e.address == cfg.ready_address and e.count == 1
        ]
        data_reads = [
            e for e in sim.request_log if e.kind == "read" and e.address == 0x1010
        ]
        got = {p.parameter: p.value.raw for p in rep.points}
        checks.append(
            (
                len(writes) == 1 and writes[0].address == cfg.date_address,
                f"{len(writes)} date write",
            )
        )
        checks.append((len(polls) == 3, f"{len(polls)} ready polls"))
        checks.append((len(data_reads) == 1, f"{len(data_reads)} block read"))
        checks.append(
            (
                len(rep.points) == 29 and not rep.errors and got == expect,
                f"{len(rep.points)}/29 points, values exact",
            )
        )

    strict = HistoricalReadConfig(poll_interval_ms=1, max_polls=5)
    with ModbusSim(fault=FaultModel.delayed_ready(10_000)) as sim:
        load_plausible(sim, bindings)
        c = modbus_client(sim, PERSIST)
        try:
            c.read_historical_block(datetime.date(2024, 3, 7), strict, bindings, "analyzer-1")
            timed_out = False
        except ReadyTimeout:
            timed_out = True
        c.close()
        polls = [
            e
            for e in sim.request_log
            if e.kind == "read" and e.address == strict.ready_address
        ]
        checks.append(
            (
                timed_out and len(polls) == strict.max_polls,
                f"withheld readiness times out after {len(polls)} polls",
            )
        )
    return checks


@criterion(7, "77-object inventory reads exactly, chunked or not; 10k fuzzed datagrams survive")
def test_bacnet_inventory_and_fuzz():
    checks = []
    objs = rector_controller_objects()
    names = [o.name for o in objs]
    expected = {o.name: o.value for o in objs}

    def collapse(results):
        vals = {}
        for o, res in zip(objs, results):
            raw = res.values[0]
            vals[o.name] = bool(int(raw)) if isinstance(o.value, bool) else raw
        return vals

    def endpoint(sim):
        return BacnetEndpoint(
            "127.0.0.1", sim.port, device_instance=2770, timeout_ms=1000, retries=2
        )

    with BacnetSim(2770, objs) as sim:
        with BacnetClient(endpoint(sim)) as c:
            found = c.discover_objects()
            full = collapse(c.read_by_name(names))
    with BacnetSim(2770, objs, max_response=480) as sim:
        with BacnetClient(endpoint(sim)) as c:
            chunked = collapse(c.read_by_name(names))

    checks.append(
        (
            sorted(d.name for d in found) == sorted(names),
            f"discovered {len(found)}/77 objects",
        )
    )
    checks.append((full == expected, "values equal simulator state exactly"))
    checks.append((chunked == full, "chunked transfer equals unchunked"))

    rng = random.Random(0xACCE0007)
    pv = property_id("present-value")
    av1 = ObjectRef.of("analog-value", 1)
    valid = wrap(
        encode_rpm_ack(
            7,
            [
                PropResult(av1, pv, None, values=(43.0,)),
                PropResult(av1, 77, None, values=("zone",)),
                PropResult(ObjectRef(3, 9), pv, 1, error=("object", "unknown-object")),
            ],
        ),
        False,
    )
    allowed = (MalformedTag, ServiceError, Rejected, Aborted)
    for i in range(10_000):
        if i % 2 == 0:
            blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 120)))
        else:
            mutated = bytearray(valid)
            for _ in range(rng.randrange(1, 4)):
                mutated[rng.randrange(len(mutated))] = rng.randrange(256)
            blob = bytes(mutated)
        try:
            decode_rpm_ack(unwrap(blob))
        except allowed:
            pass
    checks.append((True, "10000 fuzzed datagrams decoded or rejected cleanly"))
    return checks


@criterion(8, "alerts fire once per cooldown with hysteresis and match the reference evaluator")
def test_alert_hysteresis_and_oracle():
    checks = []
    engine = AlertEngine(
        [
            AlertRule(
                id="radon-high",
                parameter="radon",
                predicate="gt",
                threshold=300.0,
                cooldown=3600.0,
                clear_margin=0.05,
            )
        ]
    )
    # One excursion held above threshold through the whole cooldown, a dip
    # inside the hysteresis band, a true recovery, then a post-cooldown refire.
    values = (
        [310.0] + [320.0] * 29 + [295.0, 310.0, 284.0] + [350.0] * 26 + [250.0, 301.0]
    )
    got = []
    for i, v in enumerate(values):
        dp = DataPoint("room-1", "radon", Value.real(v), "", i * 60 * S)
        got.extend((e.kind, e.value, e.timestamp) for e in engine.observe(dp))
    want = [
        ("fired", 310.0, 0),
        ("recovered", 284.0, 32 * 60 * S),
        ("fired", 301.0, 3600 * S),
    ]
    checks.append(
        (got == want, f"excursion scenario produced {[k for k, _, _ in got]}")
    )

    rng = random.Random(0xACCE0008)
    mismatches = 0
    for _ in range(1000):
        ts = 0
        stream = []
        for _ in range(rng.randrange(2, 81)):
            stream.append((rng.uniform(250.0, 350.0), ts))
            ts += rng.randrange(1, 601) * S
        for_duration = rng.choice((0.0, 60.0, 300.0))
        cooldown = rng.choice((0.0, 120.0, 3600.0))
        margin = rng.choice((0.0, 0.05, 0.2))
        eng = AlertEngine(
            [
                AlertRule(
                    id="r",
                    parameter="radon",
                    predicate="gt",
                    threshold=300.0,
                    for_duration=for_duration,
                    cooldown=cooldown,
                    clear_margin=margin,
                )
            ]
        )
        events = []
        for v, t in stream:
            dp = DataPoint("x", "radon", Value.real(v), "", t)
            events.extend((e.kind, e.value, e.timestamp) for e in eng.observe(dp))
        kinds = [k for k, _, _ in events]
        alternates = kinds == ["fired", "recovered"] * (len(kinds) // 2) + (
            ["fired"] if len(kinds) % 2 else []
        )
        if not alternates or events != oracle_events(
            300.0, for_duration, cooldown, margin, stream
        ):
            mismatches += 1
    checks.append(
        (mismatches == 0, f"{1000 - mismatches}/1000 random streams match the oracle")
    )
    return checks


@criterion(9, "sink retries deliver exactly once; rejected batches quarantine without stalling")
def test_sink_retry_and_dead_letter(tmp_path):
    checks = []

    sink = ScriptedSink(script=[503, 204] * 20)
    config = SinkConfig(
        mode="file",
        path=str(tmp_path / "unused.lp"),
        batch_size=500,
        batch_age_ms=10_000,
        retry_attempts=3,
        retry_backoff_ms=1,
        buffer_capacity=20_000,
        dead_letter_path=str(tmp_path / "dead.lp"),
    )
    pipe = Pipeline(config, sink=sink)
    for i in range(10_000):
        pipe.submit(DataPoint(f"e{i % 40:02d}", "seq", Value.real(float(i)), "", i * S))
    pipe.start()
    drained = pipe.stop(drain_timeout_s=30.0)
    stored = sorted(int(parse_line(l)[2]["value"]) for l in sink.success_log)
    checks.append(
        (
            drained and stored == list(range(10_000)),
            f"{len(sink.success_log)}/10000 points stored exactly once after 503 retries",
        )
    )
    checks.append(
        (
            pipe.delivered == 10_000 and pipe.dead_lettered == 0 and sink.calls == 40,
            f"{sink.calls} sink calls (one 503 + one 204 per batch)",
        )
    )

    sink2 = ScriptedSink(script=[400, 204])
    config2 = SinkConfig(
        mode="file",
        path=str(tmp_path / "unused2.lp"),
        batch_size=500,
        batch_age_ms=10_000,
        retry_attempts=3,
        retry_backoff_ms=1,
        dead_letter_path=str(tmp_path / "dead2.lp"),
    )
    pipe2 = Pipeline(config2, sink=sink2)
    for i in range(1000):
        pipe2.submit(DataPoint(f"e{i % 40:02d}", "seq", Value.real(float(i)), "", i * S))
    pipe2.start()
    drained2 = pipe2.stop(drain_timeout_s=10.0)
    with open(config2.dead_letter_path, encoding="utf-8") as f:
        dead_lines = [l for l in f.read().splitlines() if l and not l.startswith("#")]
    quarantined = {int(parse_line(l)[2]["value"]) for l in dead_lines}
    delivered = {int(parse_line(l)[2]["value"]) for l in sink2.success_log}
    checks.append(
        (
            drained2
            and pipe2.dead_lettered == 500
            and pipe2.delivered == 500
            and len(quarantined) == 500
            and not (quarantined & delivered)
            and quarantined | delivered == set(range(1000)),
            "rejected batch quarantined to the dead-letter file, rest delivered",
        )
    )
    return checks


@criterion(10, "10000 random records round-trip the line protocol with field-level equality")
def test_line_protocol_round_trip():
    rng = random.Random(0xACCE0010)
    pool = (
        "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
        "_-./ ,=\\\"'#@()°µβπ温度Ω\t"
    )

    def rand_str(lo, hi):
        return "".join(rng.choice(pool) for _ in range(rng.randrange(lo, hi + 1)))

    def rand_real():
        while True:
            bits = rng.getrandbits(64)
            x = struct.unpack(">d", bits.to_bytes(8, "big"))[0]
            if math.isfinite(x):
                return x

    mismatches = 0
    for _ in range(10_000):
        measurement = rand_str(1, 12)
        tags = {rand_str(1, 8): rand_str(0, 10) for _ in range(rng.randrange(0, 4))}
        fields = {}
        for _ in range(rng.randrange(1, 5)):
            kind = rng.randrange(3)
            if kind == 0:
                v = Value.real(rand_real())
            elif kind == 1:
                v = Value.flag(rng.random() < 0.5)
            else:
                v = Value.text(rand_str(0, 16))
            fields[rand_str(1, 10)] = v
        ts = rng.randrange(-(2**63), 2**63)

        m, t, f, parsed_ts = parse_line(to_line(LineRecord(measurement, tags, fields, ts)))
        ok = m == measurement and t == tags and parsed_ts == ts and set(f) == set(fields)
        for k, v in fields.items():
            if not ok:
                break
            if v.kind == REAL:
                ok = isinstance(f[k], float) and f[k] == v.raw
            elif v.kind == FLAG:
                ok = f[k] is v.raw
            else:
                ok = isinstance(f[k], str) and f[k] == v.raw
        if not ok:
            mismatches += 1
    return [
        (mismatches == 0, f"{10_000 - mismatches}/10000 records round-trip exactly")
    ]
