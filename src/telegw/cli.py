"""Command-line entry point.

Subcommands: ``run`` (the daemon), ``validate`` (load the config and report
every problem), ``probe modbus``/``probe bacnet`` (ad-hoc reads printed as
JSON), ``stats`` (rate table from a stats file or a running daemon), and
``simulate`` (start stand-in devices described by the same config file).

The BACnet client (:mod:`telegw.bacnet`) is imported by ``probe bacnet``,
and by a ``run`` whose config has a BACnet device, not with this module.

Exit codes: 0 success, 1 runtime/protocol failure, 2 invalid configuration.
"""

from __future__ import annotations

import argparse
import json
import logging
import random
import signal
import sys
import threading
import time

from telegw.config import ConfigError, GatewayConfig, load_config
from telegw.daemon import Gateway
from telegw.modbus import ConnectionPolicy, ModbusClient, ModbusError, RegisterCodec
from telegw.pipeline import EmptyWindow, RateStats, report_rates, stats_from_doc


def _parse_window(text: str) -> float:
    units = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}
    number, scale = (text[:-1], units[text[-1]]) if text[-1:] in units else (text, 1.0)
    try:
        return float(number) * scale
    except ValueError:
        raise ValueError(f"--window {text}: not a duration such as 1h, 30m or 900s") from None


def _render_table(rows: list[dict]) -> str:
    headers = ["device kind", "devices", "params/dev", "params", "points/h", "points/h/dev"]

    def fmt(row: dict) -> list[str]:
        per_dev = row["avg_points_per_hour_per_device"]
        return [
            row["device_kind"],
            str(row["n_devices"]),
            f"{row['params_per_device']:g}",
            str(row["total_params"]),
            f"{row['avg_points_per_hour']:.2f}",
            "-" if per_dev is None else f"{per_dev:.2f}",
        ]

    table = [headers] + [fmt(r) for r in rows]
    widths = [max(len(line[i]) for line in table) for i in range(len(headers))]
    out = []
    for n, line in enumerate(table):
        out.append("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip())
        if n == 0 or n == len(table) - 2:  # under headers and above totals
            out.append("  ".join("-" * w for w in widths))
    return "\n".join(out)


def _load_or_complain(path: str) -> GatewayConfig | None:
    try:
        return load_config(path)
    except FileNotFoundError:
        print(f"config not found: {path}", file=sys.stderr)
    except ConfigError as e:
        print(str(e), file=sys.stderr)
    return None


# -- subcommands -----------------------------------------------------------


def cmd_validate(args) -> int:
    cfg = _load_or_complain(args.config)
    if cfg is None:
        return 2
    print(
        f"OK: {len(cfg.modbus_devices)} modbus, {len(cfg.bacnet_devices)} bacnet, "
        f"{len(cfg.brokers)} broker(s), {len(cfg.http_polls)} http poll(s), "
        f"{len(cfg.alert_rules)} alert rule(s), sink={cfg.sink.mode}"
    )
    for warning in cfg.warnings:
        print(f"warning: {warning}")
    return 0


def cmd_run(args) -> int:
    cfg = _load_or_complain(args.config)
    if cfg is None:
        return 2
    logging.basicConfig(level=logging.INFO, format="%(asctime)s %(levelname)s %(name)s: %(message)s")
    done = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: done.set())
    signal.signal(signal.SIGINT, lambda *_: done.set())
    gateway = Gateway(cfg)
    try:
        gateway.start()
    except OSError as e:  # the listener is the one socket start() binds to a given port
        print(f"health endpoint: {e}", file=sys.stderr)
        return 1
    print(
        f"gateway up: health on http://{cfg.gateway.health_host}:{gateway.health_port}/health",
        flush=True,
    )
    done.wait()
    print("shutting down: draining pipeline", flush=True)
    gateway.stop()
    return 0


def cmd_probe_modbus(args) -> int:
    policy = ConnectionPolicy(
        mode=args.mode,
        connect_timeout_ms=args.timeout_ms,
        io_timeout_ms=args.timeout_ms,
        request_retries=args.retries,
    )
    codec = RegisterCodec(args.dtype, args.word_order, args.scale, args.offset)
    count = args.count if args.count else codec.span
    started = time.monotonic()
    try:
        with ModbusClient(args.host, args.port, args.unit, policy) as client:
            words = client.read_registers(args.fc, args.addr, count)
    except (ModbusError, OSError) as e:
        print(json.dumps({"error": f"{type(e).__name__}: {e}"}))
        return 1
    doc = {
        "host": args.host,
        "port": args.port,
        "unit": args.unit,
        "function": args.fc,
        "address": args.addr,
        "count": count,
        "words": words,
        "hex": [f"0x{w:04x}" for w in words],
        "elapsed_ms": round((time.monotonic() - started) * 1000, 1),
    }
    if count % codec.span == 0:
        doc["decoded"] = [
            codec.decode(words[i : i + codec.span]) for i in range(0, count, codec.span)
        ]
    print(json.dumps(doc, indent=2))
    return 0


def cmd_probe_bacnet(args) -> int:
    from telegw.bacnet import BacnetClient, BacnetEndpoint, BacnetError

    endpoint = BacnetEndpoint(
        args.host, args.port, device_instance=args.device_instance, timeout_ms=args.timeout_ms
    )
    try:
        with BacnetClient(endpoint) as client:
            objects = client.discover_objects()
            doc = {
                "host": args.host,
                "port": args.port,
                "objects": [
                    {
                        "type": o.ref.type_name,
                        "instance": o.ref.instance,
                        "name": o.name,
                        "units": o.units,
                    }
                    for o in objects
                ],
            }
            if args.names:
                names = [n.strip() for n in args.names.split(",") if n.strip()]
                results = client.read_by_name(names)
                doc["values"] = {
                    n: (r.values[0] if r.error is None and r.values else f"error: {r.error}")
                    for n, r in zip(names, results)
                }
    except (BacnetError, OSError) as e:
        print(json.dumps({"error": f"{type(e).__name__}: {e}"}))
        return 1
    print(json.dumps(doc, indent=2))
    return 0


def _read_stats(args) -> RateStats:
    """The stats document ``--file`` or ``--url`` names; ``OSError`` or
    ``ValueError`` when it cannot be read or is not one."""
    if args.file:
        source = args.file
        with open(source, "rb") as f:
            body = f.read()
    else:
        from telegw.httpio import HttpClient

        source = f"{args.url.rstrip('/')}/stats"
        status, body = HttpClient(5.0).request("GET", source)
        if not 200 <= status < 300:
            raise ValueError(f"GET {source} answered {status}")
    try:
        return stats_from_doc(json.loads(body))
    except ValueError as e:
        raise ValueError(f"{source}: {e}") from e


def cmd_stats(args) -> int:
    if bool(args.file) == bool(args.url):
        print("stats needs exactly one of --file or --url", file=sys.stderr)
        return 2
    try:
        window_s = _parse_window(args.window) if args.window else None
        rows = report_rates(_read_stats(args), window_s)
    except EmptyWindow as e:
        print(f"stats: empty window: {e}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as e:
        print(f"stats: {e}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(rows, indent=2))
    else:
        print(_render_table(rows))
    return 0


def _sim_walk(seed_key: str, lo: float, hi: float, step: float, quantum: float):
    from telegw.sim import RandomWalk

    rng = random.Random(seed_key)
    start = lo + rng.random() * (hi - lo)
    return RandomWalk(
        start, step, lo, hi, change_prob=0.4, seed=rng.getrandbits(64), quantum=quantum
    )


def cmd_simulate(args) -> int:
    from telegw.mqtt import MqttClient
    from telegw.sim import BacnetSim, MqttBroker, MqttFleet, ModbusSim, SimClock, SimObject

    cfg = _load_or_complain(args.config)
    if cfg is None:
        return 2
    sims, broker, fleet, client = [], None, None, None
    try:
        for dev in cfg.modbus_devices:
            hist = dev.historical.config if dev.historical else None
            sim = ModbusSim(unit=dev.unit, hist=hist, host=dev.host, port=dev.port)
            for b in dev.bindings:
                scale = abs(b.codec.scale)
                walk = _sim_walk(f"{dev.id}:{b.parameter}", b.codec.offset,
                                 b.codec.offset + 1000 * scale, 20 * scale, scale)
                sim.bind_model(b.address, b.codec, walk, table=b.function)
            if dev.historical:
                stager = random.Random(f"{dev.id}:historical")
                for b in dev.historical.bindings:
                    sim.load_value(b.address, b.codec, stager.uniform(1, 100) * abs(b.codec.scale))
            sims.append(sim.start())
            print(f"modbus simulator for {dev.id} on {sim.host}:{sim.port}", flush=True)
        for dev in cfg.bacnet_devices:
            if dev.names:
                objects = [
                    SimObject("analog-value", j + 1, name, units="degrees-celsius",
                              value=20.0 + j)
                    for j, name in enumerate(dev.names)
                ]
            else:
                objects = [
                    SimObject("analog-value", 1, "zone-temp", units="degrees-celsius", value=21.5),
                    SimObject("analog-input", 2, "co2-level", units="parts-per-million", value=618.0),
                    SimObject("binary-input", 1, "occupancy", value=True),
                ]
            sim = BacnetSim(dev.device_instance, objects, host=dev.host, port=dev.port)
            sims.append(sim.start())
            print(f"bacnet simulator for {dev.id} on {sim.host}:{sim.port}", flush=True)
        if cfg.brokers and cfg.simulate and cfg.simulate.fleets:
            bcfg = cfg.brokers[0].config
            username, password = bcfg.credentials()
            auth = {username: password} if username is not None else None
            broker = MqttBroker(host=bcfg.host, port=bcfg.port, auth=auth).start()
            print(f"mqtt broker on {bcfg.host}:{broker.port}", flush=True)
            client = MqttClient(bcfg.host, broker.port, "sim-fleet", username, password)
            client.connect()
            clock = SimClock(compression=cfg.simulate.compression, paced=True)
            fleet = MqttFleet(
                clock,
                list(cfg.simulate.fleets),
                lambda topic, payload: client.publish(topic, payload, qos=0),
                seed=cfg.simulate.seed,
            )
            n = sum(f.count for f in cfg.simulate.fleets)
            print(
                f"fleet of {n} devices publishing at {cfg.simulate.compression:g}x speed",
                flush=True,
            )
            fleet.start(args.hours * 3600)

        done = threading.Event()
        signal.signal(signal.SIGTERM, lambda *_: done.set())
        signal.signal(signal.SIGINT, lambda *_: done.set())
        if fleet is not None and args.hours < float("inf"):
            while fleet.running and not done.wait(0.2):
                pass
        else:
            done.wait()
        return 0
    except OSError as e:
        print(f"simulator startup failed: {e}", file=sys.stderr)
        return 1
    finally:
        if fleet is not None:
            fleet.stop()
        if client is not None:
            client.close()
        if broker is not None:
            broker.stop()
        for sim in sims:
            sim.stop()


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gateway", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the gateway daemon")
    p_run.add_argument("-c", "--config", required=True)
    p_run.set_defaults(func=cmd_run)

    p_val = sub.add_parser("validate", help="check a config file, reporting every problem")
    p_val.add_argument("-c", "--config", required=True)
    p_val.set_defaults(func=cmd_validate)

    p_probe = sub.add_parser("probe", help="one-shot protocol reads")
    probe_sub = p_probe.add_subparsers(dest="protocol", required=True)

    p_mb = probe_sub.add_parser("modbus")
    p_mb.add_argument("--host", required=True)
    p_mb.add_argument("--port", type=int, default=502)
    p_mb.add_argument("--unit", type=int, default=1)
    p_mb.add_argument("--addr", type=lambda s: int(s, 0), required=True)
    p_mb.add_argument("--count", type=int, default=0, help="registers to read (default: codec span)")
    p_mb.add_argument("--fc", choices=["holding", "input"], default="holding")
    p_mb.add_argument("--dtype", default="u16", help="u16 i16 u32 i32 f32")
    p_mb.add_argument("--word-order", choices=["big", "little"], default="big")
    p_mb.add_argument("--scale", type=float, default=1.0)
    p_mb.add_argument("--offset", type=float, default=0.0)
    p_mb.add_argument("--mode", choices=["per_request_close", "persistent"],
                      default="per_request_close")
    p_mb.add_argument("--retries", type=int, default=1)
    p_mb.add_argument("--timeout-ms", type=int, default=2000)
    p_mb.set_defaults(func=cmd_probe_modbus)

    p_bn = probe_sub.add_parser("bacnet")
    p_bn.add_argument("--host", required=True)
    p_bn.add_argument("--port", type=int, default=0xBAC0)
    p_bn.add_argument("--device-instance", type=int, default=0)
    p_bn.add_argument("--names", default="", help="comma-separated object names to read")
    p_bn.add_argument("--timeout-ms", type=int, default=1000)
    p_bn.set_defaults(func=cmd_probe_bacnet)

    p_stats = sub.add_parser("stats", help="rate report from a stats file or running daemon")
    p_stats.add_argument("--file", help="stats JSON dumped by the daemon")
    p_stats.add_argument("--url", help="base URL of a running daemon's health endpoint")
    p_stats.add_argument("--window", help="averaging window, e.g. 1h, 30m, 900s")
    p_stats.add_argument("--json", action="store_true", help="print rows as JSON")
    p_stats.set_defaults(func=cmd_stats)

    p_sim = sub.add_parser("simulate", help="start simulators for the devices in a config")
    p_sim.add_argument("-c", "--config", required=True)
    p_sim.add_argument("--hours", type=float, default=float("inf"),
                       help="simulated hours of fleet traffic (default: until signalled)")
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
