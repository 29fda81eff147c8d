"""Loopback benchmark for the telegw gateway.

Two processes: this one is the generator (the in-tree MQTT broker, Modbus
and BACnet simulators, and a seeded single-threaded publisher); the other
runs the real gateway (``gateway_proc.py``) into a file sink. Every run
checks the sink output against an oracle computed from the seeded stream.

    python3 perfbench/run.py --workload mqtt_fleet --seed 1 --seconds 30 --trace 0

``--trace 0`` holds the workload's reference load for the whole run and
reports the end-to-end metrics. ``--trace 1`` climbs the rate ladder, then
measures the same load untraced and traced, and reports the per-layer
metrics. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from array import array
from bisect import bisect_right
from pathlib import Path

import oracle
import stats
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR_NAME = ".perfbench_run"

SETUP_CYCLES = 11
SETUP_WARM_CYCLES = 1  # the first set-up in a fresh process pays for lazy imports
WARMUP_S = 2.0
SAMPLE_PERIOD_S = 0.1
CPU_WINDOW_S = 1.0
LATENCY_SLICE_S = 2.0
# traced runs: share of --seconds for the ladder; the rest is split between
# an untraced and a traced window at TRACE_RATE_SHARE of the reference rate
LADDER_SHARE = 0.6
TRACE_RATE_SHARE = 0.5  # spans cost microseconds each; at full rate the gateway saturates
LADDER_STEP_S = 1.5
STEP_SETTLE_S = 0.5  # start of each ladder step left out of its judgement
DRAIN_PAUSE_S = 3.0  # longest pause after a failed step for the backlog to clear
LATE_P99_LIMIT_MS = 20.0  # generator lateness beyond which a step or slice shows a stall...
SEND_BLOCKED_SHARE = 0.25  # ...unless the publisher sat this long in a full socket
GENERATOR_SATURATED_SHARE = 0.9  # ...while its own core still had room
BACKLOG_GROWTH_SHARE = 0.05  # of the points offered while judging a step
BACKLOG_GROWTH_MIN = 2000
BACKLOG_LIMIT_S = 0.1  # backlog at a step's end, in seconds of its offered rate
TRACE_CAPACITY = 1_500_000
PROCESS_DEADLINE_S = 170.0

THREAD_LABELS = (
    "_read_loop", "_run_subscriber", "_flush_loop", "_deliver_loop", "_run_job",
    "serve_forever", "MainThread",
)


class BenchError(Exception):
    pass


# -- the gateway process ------------------------------------------------------------------


class GatewayProcess:
    def __init__(self, run_dir: Path, core: int | None):
        self.stderr = open(run_dir / "gateway.stderr", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "gateway_proc.py"), str(run_dir)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.stderr,
            text=True, bufsize=1, cwd=str(ROOT),
        )
        if core is not None:
            os.sched_setaffinity(self.proc.pid, {core})
        self.lock = threading.Lock()
        # a wedged gateway must not hold the benchmark past its deadline
        self.watchdog = threading.Timer(PROCESS_DEADLINE_S, self.proc.kill)
        self.watchdog.daemon = True
        self.watchdog.start()

    def call(self, op: str, **kw) -> dict:
        with self.lock:
            try:
                self.proc.stdin.write(json.dumps({"op": op, **kw}) + "\n")
                self.proc.stdin.flush()
            except OSError as e:
                raise BenchError(f"gateway process is gone ({e})") from e
            text = self.proc.stdout.readline()
        if not text:
            raise BenchError(f"gateway process exited during {op!r}; see {RUN_DIR_NAME}/gateway.stderr")
        reply = json.loads(text)
        if not reply.pop("ok"):
            raise BenchError(f"gateway {op!r} failed: {reply['error']}")
        return reply

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as f:
            for text in f:
                if text.startswith("VmHWM:"):
                    return int(text.split()[1]) / 1024.0
        raise BenchError("VmHWM missing from /proc status")

    def close(self) -> None:
        self.watchdog.cancel()
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.stderr.close()


def split_cores() -> tuple[int, int] | None:
    """One core for the generator, one for the gateway, when there are two: the
    kernel's placement of their threads then does not change from run to run."""
    cpus = sorted(os.sched_getaffinity(0))
    return (cpus[0], cpus[1]) if len(cpus) >= 2 else None


class Sampler:
    """Polls the gateway's counters on a fixed period from its own thread.

    A sample is (perf time, points due from the generator, gateway reply plus
    the generator's own CPU time and BACnet request count).
    """

    def __init__(self, gw: GatewayProcess, due_points, bacnet=None):
        self.gw = gw
        self.due_points = due_points
        self.bacnet = bacnet
        self.samples: list[tuple[float, int, dict]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def take(self, **kw) -> tuple[float, int, dict]:
        due = self.due_points()
        t = time.perf_counter()
        reply = self.gw.call("sample", **kw)
        reply["generator_cpu_s"] = time.process_time()
        reply["bacnet_requests"] = len(self.bacnet.request_log) if self.bacnet else 0
        s = (t, due, reply)
        self.samples.append(s)
        return s

    def _loop(self) -> None:
        while not self._stop.wait(SAMPLE_PERIOD_S):
            try:
                self.take()
            except BenchError:
                return

    def start(self) -> "Sampler":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=10)


# -- helpers --------------------------------------------------------------------------------


def write_config(path: Path, doc: dict) -> str:
    # JSON is valid YAML, so the loader reads it unchanged
    path.write_text(json.dumps(doc, indent=1))
    return str(path)


def thread_busy(s0: dict, s1: dict) -> dict[str, float]:
    wall = (s1["wall_ns"] - s0["wall_ns"]) / 1e9
    before = {int(k): tuple(v) for k, v in s0["threads"].items()}
    after = {int(k): tuple(v) for k, v in s1["threads"].items()}
    out = {label: 0.0 for label in THREAD_LABELS}
    out["other"] = 0.0
    for label, share in tracing.busy_shares(before, after, wall).items():
        out[label if label in out else "other"] += share
    return out


def cpu_us_per_point(s0: dict, s1: dict) -> float:
    points = s1["counters"]["received"] - s0["counters"]["received"]
    if points <= 0:
        raise BenchError("no points ingested in the measured window")
    return (s1["cpu_s"] - s0["cpu_s"]) / points * 1e6


def median_cpu_us_per_point(samples, window: dict) -> float:
    """Median over one-second windows of gateway CPU per ingested point: a
    neighbour's burst on a shared machine spoils a window, not the figure."""
    inside = [s for s in samples if window["t0"] <= s[0] <= window["t1"] + 0.05]
    ratios = []
    a = inside[0] if inside else None
    for b in inside[1:]:
        if b[0] - a[0] >= CPU_WINDOW_S:
            ratios.append(cpu_us_per_point(a[2], b[2]))
            a = b
    if len(ratios) < 3:
        raise BenchError("measured window too short for per-second CPU figures")
    return statistics.median(ratios)


class LatencyWindows:
    """Assigns each written line's latency to the window its stamp falls in."""

    def __init__(self, windows: list[tuple[str, int, int]]):
        self.windows = sorted(windows, key=lambda w: w[1])
        self.starts = [w[1] for w in self.windows]
        self.values = {w[0]: array("d") for w in self.windows}
        self.stamps = {w[0]: array("q") for w in self.windows}

    def add(self, ts: int, done_ns: int) -> None:
        k = bisect_right(self.starts, ts) - 1
        if k >= 0:
            name, _, end = self.windows[k]
            if ts < end:
                self.values[name].append((done_ns - ts) / 1e6)
                self.stamps[name].append(ts)

    def start_ns(self, name: str) -> int:
        return next(w[1] for w in self.windows if w[0] == name)

    def slices(self, name: str) -> dict[int, list[float]]:
        """The window's latencies, grouped by LATENCY_SLICE_S of stamps."""
        start = self.start_ns(name)
        out: dict[int, list[float]] = {}
        for ts, v in zip(self.stamps[name], self.values[name]):
            out.setdefault(slice_of(ts, start), []).append(v)
        return out


def slice_of(ts_ns: int, start_ns: int) -> int:
    return int((ts_ns - start_ns) / (LATENCY_SLICE_S * 1e9))


def generator_by_slice(start_ns: int, pub, samples) -> dict[int, dict]:
    """Per slice of due times from ``start_ns``: the generator's lateness p99,
    the share of the slice its sends sat in a full socket, and its CPU share,
    as ``generator_valid`` takes them."""
    lates: dict[int, list[float]] = {}
    for due, late in zip(pub.dues, pub.lates):
        if due >= start_ns:
            lates.setdefault(slice_of(due, start_ns), []).append(late)
    blocked: dict[int, float] = {}
    for due, secs in zip(pub.send_dues, pub.send_s):
        if due >= start_ns:
            k = slice_of(due, start_ns)
            blocked[k] = blocked.get(k, 0.0) + secs / LATENCY_SLICE_S
    cpu: dict[int, float] = {}
    for a, b in zip(samples, samples[1:]):
        if b[2]["wall_ns"] >= start_ns:
            k = slice_of(b[2]["wall_ns"], start_ns)
            cpu[k] = cpu.get(k, 0.0) + (b[2]["generator_cpu_s"] - a[2]["generator_cpu_s"]) / LATENCY_SLICE_S
    return {k: {"late_p99_ms": stats.percentile(xs, 99.0), "send_blocked_share": blocked.get(k, 0.0),
                "generator_cpu_share": cpu.get(k, 0.0)} for k, xs in lates.items()}


def sink_lines(run_dir: Path, lat: LatencyWindows, queue_ms: array | None):
    """Yield every line of the sink file. Each line's latency goes to ``lat``,
    from the write that held it; in a traced run ``queue_ms`` also gets the
    time from the change filter's emit to that write."""
    done_ns, counts = tracing.load_writes(str(run_dir / "writes.bin"))
    emits = {}
    if queue_ms is not None:
        rows = json.loads((run_dir / "emits.json").read_text())
        emits = {(e, p, ts): w for e, p, ts, w in rows}
    w = 0
    left = counts[0] if counts else 0
    with open(run_dir / "sink.lp", "r", encoding="utf-8") as f:
        for text in f:
            while left == 0:
                w += 1
                if w >= len(counts):
                    raise BenchError("sink file holds more lines than the writes recorded")
                left = counts[w]
            left -= 1
            text = text.rstrip("\n")
            ts = int(text.rsplit(" ", 1)[1])
            lat.add(ts, done_ns[w])
            if emits:
                m, tags, _, _ = oracle.parse_line(text)
                emitted = emits.get((tags["device"], m, ts))
                if emitted is not None:
                    queue_ms.append((done_ns[w] - emitted) / 1e6)
            yield text


def summary_text(name: str, unit: str, s: dict) -> str:
    tail = f", p{s['tail_p']:g} {s['tail']:.4g}" if s["tail_p"] is not None else ""
    return f"{name}: p50 {s['p50']:.4g}{tail} {unit} (n={s['n']})"


def unstalled(slices: dict[int, list[float]], generator: dict[int, dict]):
    """(latencies kept, slices where the generator was not valid, slices left out).
    With no valid slice at all, every slice is kept."""
    stalled = {k for k in slices if k in generator and not generator_valid(generator[k])}
    dropped = stalled if len(stalled) < len(slices) else set()
    return [v for k, vs in slices.items() if k not in dropped for v in vs], stalled, dropped


def end_to_end(report: dict, lat: LatencyWindows, name: str, generator: dict[int, dict],
               setup_s: list[float], peak_rss: float) -> None:
    """The bounded metrics. Latency p50 and p99 are taken over every sample of
    the window except those stamped in a two-second slice where the open-loop
    generator was not valid (``generator``, from ``generator_by_slice``): it ran
    late while its socket had room, so the shared host had stopped or slowed it.
    Lateness from the gateway's back-pressure fills the socket and counts."""
    slices = lat.slices(name)
    kept, stalled, dropped = unstalled(slices, generator)
    if not stats.supported(len(kept), 99.0):
        raise BenchError(f"{len(kept)} latency samples do not support a p99")
    setup = stats.timing_summary(setup_s[SETUP_WARM_CYCLES:])
    whole = stats.timing_summary(lat.values[name])
    report["lines"].append(summary_text("latency_ms (whole window)", "ms", whole))
    report["lines"].append(
        f"per {LATENCY_SLICE_S:g} s slice, latency p99/generator late p99 ms: " + " ".join(
            f"{stats.percentile(slices[k], 99.0):.0f}/{generator.get(k, {}).get('late_p99_ms', 0.0):.0f}"
            + ("*" if k in stalled else "") for k in sorted(slices))
        + f" (* generator not valid; {len(dropped)} of {len(slices)} slices left out)")
    report["lines"].append(summary_text("setup_s", "s", setup)
                           + " after " + " ".join(f"{v * 1e3:.0f}" for v in setup_s[:SETUP_WARM_CYCLES])
                           + " ms of warm-up")
    report["metrics"] = {
        "latency_p50_ms": (stats.percentile(kept, 50.0), "ms"),
        "latency_p99_ms": (stats.percentile(kept, 99.0), "ms"),
        "setup_s": (setup["p50"], "s"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    report["samples"] = {"latency_p50_ms": len(kept), "latency_p99_ms": len(kept),
                         "setup_s": setup["n"]}


def window_lines(report: dict, samples, w: dict, label: str) -> None:
    """Unbounded figures of an untraced window, printed with every run."""
    s0, s1 = w["s0"][2], w["s1"][2]
    wall = w["s1"][0] - w["s0"][0]
    busy = thread_busy(s0, s1)
    report["lines"].append(
        f"{label}: ingested {(s1['counters']['received'] - s0['counters']['received']) / wall:.0f} points/s, "
        f"cpu_us_per_point {median_cpu_us_per_point(samples, w):.2f} us, gateway cpu share "
        f"{(s1['cpu_s'] - s0['cpu_s']) / wall:.2f}, generator cpu share "
        f"{(s1['generator_cpu_s'] - s0['generator_cpu_s']) / wall:.2f}")
    report["lines"].append(f"{label} thread busy: " + ", ".join(
        f"{k} {v:.3f}" for k, v in busy.items() if v))


# -- MQTT workloads -------------------------------------------------------------------------


class Publisher:
    """One connection, one thread, an open-loop schedule of QoS 0 publishes."""

    def __init__(self, port: int, stream, fields: int):
        from telegw.mqtt import protocol as mp

        self.mp = mp
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.sendall(mp.encode_connect("perfbench-publisher", None, None, 0))
        ptype, _, body = mp.read_packet(self.sock)
        if ptype != mp.CONNACK or mp.decode_connack(body)[1] != mp.CONNACK_ACCEPTED:
            raise BenchError("broker refused the publisher")
        self.stream = stream
        self.fields = fields
        self.sent_points = 0
        self.dues = array("q")  # due time of every message sent, in order
        self.lates = array("d")  # and how late its send returned, in ms
        self.send_dues = array("q")  # per send: the due time of its first message...
        self.send_s = array("d")  # ...and the time it sat in sendall
        self._schedule = (0, 0.0, 0.0, 0)  # points before the step, its start, interval, messages
        self.perf0 = time.perf_counter()
        self.wall0 = time.time_ns()

    def wall_ns(self, t: float) -> int:
        return self.wall0 + int((t - self.perf0) * 1e9)

    def due_points(self) -> int:
        """Points the schedule has made due so far, sent or not: the open-loop
        backlog counts what the generator could not send yet."""
        base, t0, interval, n = self._schedule
        if interval == 0.0:
            return base
        k = min(n, int((time.perf_counter() - t0) / interval) + 1)
        return base + max(k, 0) * self.fields

    def run_step(self, rate_pps: float, seconds: float) -> dict:
        mp = self.mp
        interval = self.fields / rate_pps
        n = int(round(seconds / interval))
        first = len(self.lates)
        send_s = 0.0
        cpu0 = time.process_time()
        t_start = time.perf_counter()
        self._schedule = (self.sent_points, t_start, interval, n)
        i = 0
        while i < n:
            now = time.perf_counter()
            due = t_start + i * interval
            if due > now:
                # wake at most once a millisecond and send what fell due meanwhile
                time.sleep(max(due - now, 0.001))
                continue
            chunk = []
            j = i
            while j < n and j - i < 256 and t_start + j * interval <= now:
                due_ns = self.wall_ns(t_start + j * interval)
                topic, payload = self.stream.next_message(due_ns)
                chunk.append(mp.encode_publish(mp.PublishPacket(topic, payload)))
                self.dues.append(due_ns)
                j += 1
            before = time.perf_counter()
            self.sock.sendall(b"".join(chunk))
            done = time.perf_counter()
            send_s += done - before
            self.send_dues.append(self.dues[-(j - i)])
            self.send_s.append(done - before)
            for k in range(i, j):
                self.lates.append((done - (t_start + k * interval)) * 1e3)
            self.sent_points += (j - i) * self.fields
            i = j
        t_end = time.perf_counter()
        self._schedule = (self.sent_points, 0.0, 0.0, 0)
        late = self.lates[first:]
        return {
            "rate_pps": rate_pps,
            "t0": t_start,
            "t1": t_end,
            "wall0_ns": self.wall_ns(t_start),
            "wall1_ns": self.wall_ns(t_end),
            "messages": n,
            "points": n * self.fields,
            "late_p99_ms": stats.percentile(late, 99.0) if late else 0.0,
            "late_max_ms": max(late) if late else 0.0,
            "send_blocked_share": send_s / (t_end - t_start),
            "generator_cpu_share": (time.process_time() - cpu0) / (t_end - t_start),
        }

    def close(self) -> None:
        try:
            self.sock.sendall(self.mp.encode_disconnect())
        except OSError:
            pass
        self.sock.close()


class ProbePublisher:
    """Feeds the set-up broker steadily so every set-up cycle sees a first point."""

    def __init__(self, port: int, wl, mp):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        self.sock.sendall(mp.encode_connect("perfbench-probe", None, None, 0))
        mp.read_packet(self.sock)
        self.wl, self.mp = wl, mp
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self) -> None:
        from workloads import probe_payload

        topic = self.wl.topic(f"{self.wl.topic_root}-probe")
        while not self._stop.wait(0.0005):
            pkt = self.mp.PublishPacket(topic, probe_payload(self.wl, time.time_ns()))
            try:
                self.sock.sendall(self.mp.encode_publish(pkt))
            except OSError:
                return

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5)
        self.sock.close()


def broker_subscribed(broker) -> bool:
    # the simulator keeps sessions private; reading them beats a sleep
    with broker._lock:
        return any(s.subscriptions for s in broker._sessions)


def generator_valid(step: dict) -> bool:
    """The generator kept to its schedule, or its lateness is the gateway's
    back-pressure: the sends sat in a full socket. The in-process broker can
    also starve the publisher's socket, so that counts only while the
    generator's core was not saturated."""
    return step["late_p99_ms"] <= LATE_P99_LIMIT_MS or (
        step["send_blocked_share"] >= SEND_BLOCKED_SHARE
        and step["generator_cpu_share"] < GENERATOR_SATURATED_SHARE)


def step_verdict(step: dict, samples, latencies, limit_ms: float) -> dict:
    """Judge one ladder step: generator validity, shed, backlog growth, p99."""
    window = [s for s in samples if step["t0"] + STEP_SETTLE_S <= s[0] <= step["t1"] + 0.05]
    if len(window) < 2:
        raise BenchError("too few counter samples inside a ladder step")
    (ta, due_a, a), (tb, due_b, b) = window[0], window[-1]
    backlog_a = due_a - a["counters"]["received"]
    backlog_b = due_b - b["counters"]["received"]
    depth_a, depth_b = a["counters"]["buffer_depth"], b["counters"]["buffer_depth"]
    allowed = max(BACKLOG_GROWTH_SHARE * (due_b - due_a), BACKLOG_GROWTH_MIN)
    lat = latencies.get(step["name"], ())
    v = dict(step)
    v.update(
        valid=generator_valid(step),
        backlog_growth=backlog_b - backlog_a,
        backlog_end=backlog_b,
        buffer_growth=depth_b - depth_a,
        growing=(backlog_b - backlog_a > allowed or depth_b - depth_a > allowed
                 or backlog_b > max(BACKLOG_LIMIT_S * step["rate_pps"], BACKLOG_GROWTH_MIN)),
        shed=b["counters"]["shed"] - a["counters"]["shed"],
        ingest_pps=(b["counters"]["received"] - a["counters"]["received"]) / (tb - ta),
        offered_pps=step["points"] / (step["t1"] - step["t0"]),
        latency=stats.timing_summary(lat),
        p99_ms=stats.percentile(lat, 99.0) if lat else float("inf"),
    )
    v["passed"] = v["valid"] and not v["growing"] and v["shed"] == 0 and v["p99_ms"] < limit_ms
    return v


def sustained_step(verdicts: list[dict]) -> dict | None:
    """Highest ladder step that passed with the step below it passing too, so
    one lucky step on a noisy machine does not set the figure."""
    best = verdicts[0] if verdicts and verdicts[0]["passed"] else None
    for lower, upper in zip(verdicts, verdicts[1:]):
        if lower["passed"] and upper["passed"]:
            best = upper
    return best


def step_line(v: dict) -> str:
    outcome = "invalid" if not v["valid"] else "pass" if v["passed"] else "fail"
    return (
        f"step {v['name']:>9}: offered {v['rate_pps']:>6.0f} pps, ingested {v['ingest_pps']:>6.0f}; "
        f"msgs sent {v['messages']}, delivered by broker {v['delivered_msgs']}; "
        f"generator late p99 {v['late_p99_ms']:.2f} max {v['late_max_ms']:.2f} ms, "
        f"cpu {v['generator_cpu_share']:.2f}, send blocked {v['send_blocked_share']:.2f}; "
        f"backlog +{v['backlog_growth']} (end {v['backlog_end']}), buffer +{v['buffer_growth']}, "
        f"shed {v['shed']}, p99 {v['p99_ms']:.1f} ms -> {outcome}"
    )


def run_mqtt(wl, seed: int, seconds: float, trace: bool, run_dir: Path, cores) -> dict:
    import workloads
    from telegw.mqtt import protocol as mp
    from telegw.sim import MqttBroker

    report: dict = {"lines": []}
    broker = MqttBroker().start()
    setup_broker = MqttBroker().start()
    gw = probe = pub = sampler = None
    steps: list[dict] = []
    try:
        gw = GatewayProcess(run_dir, cores[1] if cores else None)
        probe = ProbePublisher(setup_broker.port, wl, mp)
        setup_cfg = write_config(run_dir / "setup.yaml",
                                 workloads.mqtt_config(wl, setup_broker.port, str(run_dir), "setup"))
        setup_s = gw.call("setup", config=setup_cfg, cycles=1 if trace else SETUP_CYCLES)["setup_s"]
        probe.stop()
        probe = None

        main_cfg = write_config(run_dir / "main.yaml",
                                workloads.mqtt_config(wl, broker.port, str(run_dir), "sink"))
        gw.call("start", config=main_cfg)
        deadline = time.monotonic() + 20
        while not broker_subscribed(broker):
            if time.monotonic() > deadline:
                raise BenchError("the gateway never subscribed")
            time.sleep(0.002)

        pub = Publisher(broker.port, workloads.MqttStream(wl, seed), len(wl.params))
        sampler = Sampler(gw, pub.due_points).start()

        def step(name: str, rate: float, secs: float, **kw) -> dict:
            d0 = broker.deliveries
            s0 = sampler.take()
            rec = pub.run_step(rate, secs)
            s1 = sampler.take(**kw)
            rec.update(name=name, s0=s0, s1=s1, delivered_msgs=broker.deliveries - d0)
            steps.append(rec)
            return rec

        def drain(limit_s: float) -> bool:
            end = time.monotonic() + limit_s
            while time.monotonic() < end:
                c = sampler.take()[2]["counters"]
                if c["received"] >= pub.sent_points and c["buffer_depth"] == 0:
                    return True
                time.sleep(0.05)
            return False

        if not trace:
            step("warmup", wl.reference_pps, WARMUP_S)
            ref = step("reference", wl.reference_pps, seconds - WARMUP_S)
            peak_rss = gw.peak_rss_mb()
        else:
            # a failed step may be a passing dip in a shared machine's speed: drain and go
            # on; two failures in a row end the ladder, as does its share of the run
            ladder_end = time.perf_counter() + seconds * LADDER_SHARE
            step("warmup", wl.reference_pps, WARMUP_S)
            failures = 0
            for k, rate in enumerate(wl.ladder_pps):
                if time.perf_counter() + LADDER_STEP_S > ladder_end:
                    break
                live = step_verdict(step(f"ladder{k}", rate, LADDER_STEP_S), sampler.samples,
                                    {}, float("inf"))
                if live["valid"] and not live["growing"] and not live["shed"]:
                    failures = 0
                    continue
                failures += 1
                if failures == 2:
                    break
                drain(DRAIN_PAUSE_S)
            drain(DRAIN_PAUSE_S)
            window_s = seconds * (1 - LADDER_SHARE) / 2
            rate = wl.reference_pps * TRACE_RATE_SHARE
            untraced = step("untraced", rate, window_s)
            gw.call("trace_on", capacity=TRACE_CAPACITY)
            traced = step("traced", rate, window_s, series=True)
            spans_info = gw.call("trace_off")

        # let the gateway ingest and flush everything before it stops
        if not drain(60):
            raise BenchError(f"gateway did not drain {pub.sent_points} points")
        sampler.stop()
        final = gw.call("stop")
        gw.close()
    finally:
        for stoppable in (sampler, probe):
            if stoppable is not None:
                stoppable.stop()
        if pub is not None:
            pub.close()
        if gw is not None:
            gw.close()
        broker.stop()
        setup_broker.stop()

    # -- output check, latency and queue time, streaming over the sink file --------
    settle_ns = int(STEP_SETTLE_S * 1e9)
    lat = LatencyWindows([
        (r["name"], r["wall0_ns"] + (settle_ns if r["name"].startswith("ladder") else 0), r["wall1_ns"])
        for r in steps
    ])
    queue_ms = array("d") if trace else None
    expected, replay = oracle.mqtt_expected(
        workloads.MqttStream(wl, seed), pub.dues, wl.model_tag, list(wl.rules))
    matched, bad, first_diff = oracle.compare_lines(sink_lines(run_dir, lat, queue_ms), expected)
    with open(run_dir / "gateway.log", encoding="utf-8") as f:
        events = oracle.parse_alert_log(t.rstrip("\n") for t in f)
    alerts_ok = events == replay.events
    c = final["counters"]
    failed = c["shed"] + c["dead_lettered"] + final["parse_errors"] + bad
    if not alerts_ok:
        failed += max(1, abs(len(events) - len(replay.events)))
    report["check"] = {
        "lines_matched": matched, "lines_wrong_or_missing": bad, "first_difference": first_diff,
        "alert_events": len(events), "alert_events_expected": len(replay.events),
        "alerts_match": alerts_ok, "shed": c["shed"], "dead_lettered": c["dead_lettered"],
        "parse_errors": final["parse_errors"],
    }
    report.update(correct=failed == 0 and c["received"] == pub.sent_points,
                  attempted=pub.sent_points, failed=failed)

    verdicts = [step_verdict(r, sampler.samples, lat.values, wl.latency_limit_ms) for r in steps]
    report["lines"] += [step_line(v) for v in verdicts]
    if not trace:
        window_lines(report, sampler.samples, ref, "reference")
        generator = generator_by_slice(lat.start_ns("reference"), pub, sampler.samples)
        end_to_end(report, lat, "reference", generator, setup_s, peak_rss)
        return report

    # the warm-up step runs at the reference rate and is the ladder's floor
    climbed = [v for v in verdicts if v["name"] == "warmup" or v["name"].startswith("ladder")]
    best = sustained_step(climbed)
    if best is None:
        raise BenchError("the gateway did not sustain even the reference rate")
    # no step above the best one ran: the ladder's top or the run's time stopped the climb
    lower_bound = best is climbed[-1]
    report["lines"].append(f"sustained_pps: step {best['name']} at {best['offered_pps']:.0f} points/s"
                           + (", a lower bound: no higher step ran" if lower_bound else ""))
    window_lines(report, sampler.samples, untraced, "untraced")
    report["metrics"] = layer_metrics(
        run_dir, spans_info, sampler.samples, untraced, traced, lat.values, queue_ms,
        best["offered_pps"], lower_bound, report)
    return report


# -- poll workload --------------------------------------------------------------------------


def start_poll_sims(wl, seed: int):
    import workloads
    from telegw.modbus import RegisterCodec
    from telegw.sim import BacnetSim, ModbusSim, SimObject

    modbus = ModbusSim()
    for r, model in zip(wl.registers, workloads.register_models(wl, seed)):
        modbus.bind_model(r.address, RegisterCodec(r.dtype, "big", r.scale), model)
    objects = []
    instances = {"analog-input": 0, "binary-value": 0}
    for (typ, name), model in zip(workloads.bacnet_names(wl), workloads.bacnet_models(wl, seed)):
        instances[typ] += 1
        units = "degrees-celsius" if typ == "analog-input" else None
        objects.append(SimObject(typ, instances[typ], name, units=units, model=model))
    bacnet = BacnetSim(workloads.BACNET_INSTANCE, objects)
    return modbus.start(), bacnet.start()


def poll_expected(wl, seed: int, n_modbus: int, n_bacnet: int) -> dict[tuple[str, str], list[str]]:
    """Change-only value tokens per series after n polls of each simulator.

    The simulators step each register or object model once per read, so the
    k-th poll reads the model's k-th value (the Modbus bank is loaded once
    before the first poll)."""
    import workloads

    expected = {}
    for r, model in zip(wl.registers, workloads.register_models(wl, seed)):
        model.step()
        vals = []
        for _ in range(n_modbus):
            raw = round((model.step() - 0.0) / r.scale)  # the register codec's encode...
            vals.append(oracle.render_real(raw * r.scale + 0.0))  # ...and decode
        expected[(workloads.MODBUS_DEVICE, r.name)] = oracle.dedup(vals)
    for (typ, name), model in zip(workloads.bacnet_names(wl), workloads.bacnet_models(wl, seed)):
        vals = []
        for _ in range(n_bacnet):
            v = model.step()
            vals.append(oracle.render_value(bool(v) if typ == "binary-value" else workloads.f32(v)))
        expected[(workloads.BACNET_DEVICE, name)] = oracle.dedup(vals)
    return expected


def run_poll(wl, seed: int, seconds: float, trace: bool, run_dir: Path, cores) -> dict:
    import workloads

    report: dict = {"lines": []}
    modbus, bacnet = start_poll_sims(wl, seed)
    setup_modbus, setup_bacnet = start_poll_sims(wl, seed + 1)
    gw = sampler = None
    try:
        gw = GatewayProcess(run_dir, cores[1] if cores else None)
        setup_cfg = write_config(run_dir / "setup.yaml", workloads.poll_config(
            wl, setup_modbus.port, setup_bacnet.port, str(run_dir), "setup"))
        setup_s = gw.call("setup", config=setup_cfg, cycles=1 if trace else SETUP_CYCLES)["setup_s"]
        main_cfg = write_config(run_dir / "main.yaml", workloads.poll_config(
            wl, modbus.port, bacnet.port, str(run_dir), "sink"))
        gw.call("start", config=main_cfg)
        sampler = Sampler(gw, lambda: 0, bacnet).start()
        time.sleep(WARMUP_S)

        def hold(name: str, secs: float, **kw) -> dict:
            s0 = sampler.take()
            time.sleep(secs)
            s1 = sampler.take(**kw)
            return {"name": name, "t0": s0[0], "t1": s1[0], "s0": s0, "s1": s1}

        if not trace:
            measured = hold("measured", seconds - WARMUP_S)
            peak_rss = gw.peak_rss_mb()
        else:
            half = (seconds - WARMUP_S) / 2
            untraced = hold("untraced", half)
            gw.call("trace_on", capacity=TRACE_CAPACITY)
            traced = hold("traced", half, series=True)
            spans_info = gw.call("trace_off")
        sampler.stop()
        final = gw.call("stop")
        gw.close()
    finally:
        if sampler is not None:
            sampler.stop()
        if gw is not None:
            gw.close()
        for sim in (modbus, bacnet, setup_modbus, setup_bacnet):
            sim.stop()

    # -- output check: exact change-only value sequences per series ----------------
    windows = [untraced, traced] if trace else [measured]
    lat = LatencyWindows([(w["name"], w["s0"][2]["wall_ns"], w["s1"][2]["wall_ns"]) for w in windows])
    queue_ms = array("d") if trace else None
    written: dict[tuple[str, str], list[tuple[str, int]]] = {}
    for text in sink_lines(run_dir, lat, queue_ms):
        m, tags, value, ts = oracle.parse_line(text)
        written.setdefault((tags["device"], m), []).append((value, ts))

    runs = final["scheduler"]["runs"]
    n_modbus, n_bacnet = runs[workloads.MODBUS_DEVICE], runs[workloads.BACNET_DEVICE]
    expected = poll_expected(wl, seed, n_modbus, n_bacnet)
    bad = 0
    first_diff = None
    for key in sorted(set(expected) | set(written)):
        got = written.get(key, [])
        values = [v for v, _ in got]
        stamps = [ts for _, ts in got]
        if values != expected.get(key) or stamps != sorted(set(stamps)):
            bad += 1
            if first_diff is None:
                first_diff = f"series {key}: got {values[:5]}..., want {expected.get(key, [])[:5]}..."
    errors = sum(final["scheduler"]["errors"].values())
    failures = sum(final["device_failures"].values())
    c = final["counters"]
    failed = errors + failures + bad + c["shed"] + c["dead_lettered"]
    report["check"] = {"series": len(expected), "series_wrong": bad, "first_difference": first_diff,
                       "poll_errors": errors, "device_failures": failures,
                       "polls": {"modbus": n_modbus, "bacnet": n_bacnet}}
    polled = n_modbus * len(wl.registers) + n_bacnet * len(workloads.bacnet_names(wl))
    report.update(correct=failed == 0 and n_modbus > 0 and n_bacnet > 0,
                  attempted=max(polled, 1), failed=failed)

    if not trace:
        window_lines(report, sampler.samples, measured, "measured")
        end_to_end(report, lat, "measured", {}, setup_s, peak_rss)
        return report

    u0, u1 = untraced["s0"], untraced["s1"]
    poll_pps = (u1[2]["counters"]["received"] - u0[2]["counters"]["received"]) / (u1[0] - u0[0])
    window_lines(report, sampler.samples, untraced, "untraced")
    report["metrics"] = layer_metrics(
        run_dir, spans_info, sampler.samples, untraced, traced, lat.values, queue_ms, poll_pps, False,
        report)
    return report


# -- per-layer metrics ------------------------------------------------------------------------


def layer_metrics(run_dir: Path, spans_info: dict, samples, untraced: dict, traced: dict,
                  latencies, queue_ms, sustained_pps: float, sustained_lower_bound: bool,
                  report: dict) -> dict:
    """Per-layer figures from the traced window, plus the untraced window's
    throughput, CPU and thread shares that locate the bottleneck."""
    n = spans_info["spans"]
    cols = tracing.load_spans(str(run_dir / "spans.bin"), n)
    names, starts, ends = cols["name"], cols["start"], cols["end"]
    cpus, sizes = cols["cpu"], cols["size"]
    self_cpu = stats.self_values(cols["parent"], cpus)
    by_name: dict[str, list[int]] = {name: [] for name in tracing.NAMES}
    for i in range(n):
        if names[i]:  # zero: the span was still open when the window closed
            by_name[tracing.NAMES[names[i] - 1]].append(i)

    m: dict[str, tuple[float, str]] = {}

    def timing(key: str, values, unit: str) -> None:
        s = stats.timing_summary(values)
        m[key] = (s["p50"], unit)
        m[f"{key}.tail"] = (s["tail"], unit)
        m[f"{key}.n"] = (s["n"], "count")
        report["lines"].append(summary_text(key, unit, s))

    def p50_p99(key: str, values, unit: str) -> None:
        s = stats.timing_summary(values)
        m[f"{key}.p50"] = (s["p50"], unit)
        m[f"{key}.p99"] = (stats.percentile(values, 99.0) if s["n"] else 0.0, unit)
        report["lines"].append(summary_text(key, unit, s))

    def cpu_us(name):
        return [cpus[i] / 1e3 for i in by_name[name]]

    def wall_ms(name):
        return [(ends[i] - starts[i]) / 1e6 for i in by_name[name]]

    def mean_size(name):
        idx = by_name[name]
        return sum(sizes[i] for i in idx) / len(idx) if idx else 0.0

    def count(name):
        return len(by_name[name])

    def per_poll(name, poll):
        return count(name) / count(poll) if count(poll) else 0.0

    s0, s1 = traced["s0"][2], traced["s1"][2]
    u0, u1 = untraced["s0"][2], untraced["s1"][2]

    m["sustained_pps"] = (sustained_pps, "points/s")
    m["sustained_pps.lower_bound"] = (int(sustained_lower_bound), "flag")
    m["cpu_us_per_point"] = (median_cpu_us_per_point(samples, untraced), "us")
    timing("mqtt.read_packet.cpu_us", cpu_us("mqtt.read_packet"), "us")
    m["mqtt.packets"] = (count("mqtt.read_packet"), "count")
    timing("ingest.parse_payload.cpu_us", cpu_us("ingest.parse_payload"), "us")
    m["ingest.points_per_msg"] = (mean_size("ingest.parse_payload"), "points")
    m["ingest.parse_errors"] = (s1["parse_errors"] - s0["parse_errors"], "count")
    timing("alerts.observe.cpu_us", cpu_us("alerts.observe"), "us")
    m["alerts.events"] = (s1["alert_events"] - s0["alert_events"], "count")
    timing("filter.observe.cpu_us", cpu_us("filter.observe"), "us")
    m["filter.emit_ratio"] = (mean_size("filter.observe"), "ratio")
    m["filter.series"] = (s1["series"], "count")
    submit = by_name["pipeline.submit"]
    timing("pipeline.submit.self_cpu_us", [self_cpu[i] / 1e3 for i in submit], "us")
    timing("pipeline.submit.wait_us", [(ends[i] - starts[i] - cpus[i]) / 1e3 for i in submit], "us")
    depths = [s[2]["counters"]["buffer_depth"] for s in samples
              if traced["s0"][0] <= s[0] <= traced["s1"][0]]
    m["pipeline.buffer_depth.max"] = (max(depths), "points")
    m["pipeline.shed"] = (s1["counters"]["shed"] - s0["counters"]["shed"], "count")
    p50_p99("pipeline.queue_ms", queue_ms, "ms")
    timing("lineproto.to_line.cpu_us", cpu_us("lineproto.to_line"), "us")
    m["lineproto.bytes_per_line"] = (mean_size("lineproto.to_line"), "bytes")
    p50_p99("sink.write.ms", wall_ms("sink.write"), "ms")
    m["sink.lines_per_write"] = (mean_size("sink.write"), "lines")
    p50_p99("modbus.poll.ms", wall_ms("modbus.read_parameters"), "ms")
    m["modbus.polls"] = (count("modbus.read_parameters"), "count")
    m["modbus.requests_per_poll"] = (per_poll("modbus.read_registers", "modbus.read_parameters"), "requests")
    m["modbus.connects_per_poll"] = (per_poll("modbus.connect", "modbus.read_parameters"), "connects")
    timing("modbus.decode.cpu_us", cpu_us("modbus.decode"), "us")
    p50_p99("bacnet.poll.ms", wall_ms("bacnet.read_points"), "ms")
    m["bacnet.polls"] = (count("bacnet.read_points"), "count")
    bacnet_requests = s1["bacnet_requests"] - s0["bacnet_requests"]
    m["bacnet.requests_per_poll"] = (
        bacnet_requests / count("bacnet.read_points") if count("bacnet.read_points") else 0.0, "requests")
    m["bacnet.discoveries"] = (count("bacnet.discover_objects"), "count")
    m["scheduler.runs"] = (sum(s1["scheduler"]["runs"].values()) - sum(s0["scheduler"]["runs"].values()), "count")
    m["scheduler.errors"] = (
        sum(s1["scheduler"]["errors"].values()) - sum(s0["scheduler"]["errors"].values()), "count")
    for label, share in thread_busy(u0, u1).items():
        m[f"thread.{label}.busy"] = (share, "share")
    cpu_t, cpu_u = cpu_us_per_point(s0, s1), cpu_us_per_point(u0, u1)
    m["trace.overhead.cpu_us_per_point"] = (cpu_t - cpu_u, "us")
    lat_t, lat_u = latencies.get("traced", ()), latencies.get("untraced", ())
    m["trace.overhead.latency_p50_ms"] = (
        stats.percentile(lat_t, 50.0) - stats.percentile(lat_u, 50.0) if lat_t and lat_u else 0.0, "ms")
    m["trace.spans"] = (n, "count")
    m["trace.dropped"] = (spans_info["dropped"], "count")
    report["lines"].append(
        f"cpu_us_per_point over the whole windows: untraced {cpu_u:.2f}, traced {cpu_t:.2f}; "
        f"spans {n}, dropped {spans_info['dropped']}")
    return m


# -- entry point ------------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "telegw" / "daemon.py").is_file():
        print(f"telegw sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds < 20:
        print("--seconds must be at least 20", file=sys.stderr)
        return 2
    run_dir = ROOT / RUN_DIR_NAME
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    cores = split_cores()
    if cores:
        os.sched_setaffinity(0, {cores[0]})
    wl = workloads.WORKLOADS[args.workload]
    runner = run_mqtt if isinstance(wl, workloads.MqttWorkload) else run_poll
    try:
        report = runner(wl, args.seed, args.seconds, bool(args.trace), run_dir, cores)
    except BenchError as e:
        print(f"benchmark aborted: {e}", file=sys.stderr)
        return 1
    finally:
        for path in run_dir.glob("*.lp"):
            path.unlink()  # the sink files are large and only needed for the check

    print(f"workload {wl.name}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    for text in report["lines"]:
        print("  " + text)
    print("  output check: " + json.dumps(report["check"]))
    if not report["correct"]:
        print(json.dumps({"correct": False, "attempted": report["attempted"],
                          "failed": max(report["failed"], 1), "metrics": {}}))
        return 1
    samples = report.get("samples", {})
    for name, (value, unit) in report["metrics"].items():
        extra = f" (n={samples[name]})" if name in samples else ""
        print(f"  {name} = {value:.6g} {unit}{extra}")
    print(json.dumps({
        "correct": True,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
