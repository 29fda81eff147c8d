"""Change-only persistence pipeline: dedup, batching, sink delivery.

Producers submit validated points concurrently; each point passes an
optional alert tap, then the change filter and the record buffer, which
share one intake lock. A single flusher thread writes the buffer as line
protocol: a batch is written when the buffer holds ``batch_size`` points
or its oldest point is ``batch_age_ms`` old, and at once when intake
closes. Transient sink failures retry with backoff and then return
the batch to the buffer; permanent rejections quarantine to a dead-letter
file, and a failed quarantine write is counted and returns the batch too.
The buffer is bounded: under sustained overload the oldest points are shed
and counted, producers are never blocked.
"""

from __future__ import annotations

import os
import random
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable

from telegw.lineproto import LineRecord, to_line
from telegw.model import ChangeFilter, DataPoint


class EmptyWindow(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class PollSchedule:
    interval_s: float
    jitter: float = 0.0

    def __post_init__(self):
        if self.interval_s <= 0:
            raise ValueError("interval must be positive")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter fraction must be in [0, 1)")

    def next_delay(self, rng: random.Random) -> float:
        if self.jitter == 0.0:
            return self.interval_s
        return self.interval_s * (1.0 + rng.uniform(-self.jitter, self.jitter))


@dataclass(frozen=True)
class SinkConfig:
    mode: str = "file"
    url: str | None = None
    token_env: str | None = None
    path: str | None = None
    batch_size: int = 500
    batch_age_ms: int = 1000
    retry_attempts: int = 3
    retry_backoff_ms: int = 100
    buffer_capacity: int = 10000
    dead_letter_path: str = "dead_letter.lp"

    def __post_init__(self):
        if self.mode not in ("http", "file"):
            raise ValueError(f"sink mode must be http or file, got {self.mode!r}")
        if self.mode == "http" and not self.url:
            raise ValueError("http sink requires url")
        if self.mode == "file" and not self.path:
            raise ValueError("file sink requires path")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.buffer_capacity < self.batch_size:
            raise ValueError("buffer capacity must be >= batch size")
        if self.retry_attempts < 1:
            raise ValueError("retry attempts must be >= 1")

    def build_sink(self):
        if self.mode == "file":
            return FileSink(self.path)
        token = os.environ.get(self.token_env) if self.token_env else None
        if self.token_env and token is None:
            raise ValueError(f"environment variable {self.token_env} is unset")
        return HttpSink(self.url, token)


class FileSink:
    """Appends newline-terminated lines; one write call per batch."""

    def __init__(self, path: str):
        self.path = path

    def write(self, lines: list[str]) -> int:
        data = ("\n".join(lines) + "\n").encode("utf-8")
        with open(self.path, "ab") as f:
            f.write(data)
        return 204


class HttpSink:
    def __init__(self, url: str, token: str | None = None, timeout_s: float = 10.0):
        self.url = url
        self.token = token
        self.timeout_s = timeout_s

    def write(self, lines: list[str]) -> int:
        import requests

        headers = {"Content-Type": "text/plain; charset=utf-8"}
        if self.token:
            headers["Authorization"] = f"Token {self.token}"
        body = ("\n".join(lines) + "\n").encode("utf-8")
        resp = requests.post(self.url, data=body, headers=headers, timeout=self.timeout_s)
        return resp.status_code


@dataclass(slots=True)
class EntityCounts:
    kind: str
    params: set[str] = field(default_factory=set)
    received: int = 0
    emitted: int = 0


@dataclass(frozen=True)
class RateStats:
    entities: dict[str, EntityCounts]
    window_start_ns: int
    window_end_ns: int


def stats_to_doc(stats: RateStats) -> dict:
    """JSON-safe form, for dumping a running window to disk."""
    return {
        "window_start_ns": stats.window_start_ns,
        "window_end_ns": stats.window_end_ns,
        "entities": {
            e: {
                "kind": c.kind,
                "params": sorted(c.params),
                "received": c.received,
                "emitted": c.emitted,
            }
            for e, c in stats.entities.items()
        },
    }


def stats_from_doc(doc: dict) -> RateStats:
    entities = {
        e: EntityCounts(d["kind"], set(d["params"]), d["received"], d["emitted"])
        for e, d in doc["entities"].items()
    }
    return RateStats(entities, doc["window_start_ns"], doc["window_end_ns"])


def report_rates(stats: RateStats, window_s: float | None = None) -> list[dict]:
    """Rows per device kind plus a totals row; the totals row's rate is the
    exact sum of the per-kind rates."""
    if window_s is None:
        window_s = (stats.window_end_ns - stats.window_start_ns) / 1e9
    if window_s <= 0:
        raise EmptyWindow(f"window of {window_s} s")
    window_h = window_s / 3600.0

    kinds: dict[str, list[EntityCounts]] = {}
    for counts in stats.entities.values():
        kinds.setdefault(counts.kind, []).append(counts)

    rows = []
    for kind in sorted(kinds):
        group = kinds[kind]
        n = len(group)
        total_params = sum(len(c.params) for c in group)
        rate = sum(c.emitted for c in group) / window_h
        rows.append(
            {
                "device_kind": kind,
                "n_devices": n,
                "params_per_device": total_params / n,
                "total_params": total_params,
                "avg_points_per_hour": rate,
                "avg_points_per_hour_per_device": rate / n,
            }
        )
    total_devices = sum(r["n_devices"] for r in rows)
    rows.append(
        {
            "device_kind": "total",
            "n_devices": total_devices,
            "params_per_device": sum(r["params_per_device"] for r in rows),
            "total_params": sum(r["total_params"] for r in rows),
            "avg_points_per_hour": sum(r["avg_points_per_hour"] for r in rows),
            "avg_points_per_hour_per_device": None,
        }
    )
    return rows


KIND_TAG = "model"


class Pipeline:
    """See module docstring. submit() returns True when no shedding was
    needed to accept the point; shedding is also counted."""

    def __init__(
        self,
        config: SinkConfig,
        sink=None,
        heartbeat_s: float = 0.0,
        alert_engine=None,
        clock_ns: Callable[[], int] = time.time_ns,
    ):
        self.config = config
        self.sink = sink if sink is not None else config.build_sink()
        self.alert_engine = alert_engine
        self.clock_ns = clock_ns
        self._filter = ChangeFilter(heartbeat=heartbeat_s)
        self._buffer: deque[tuple[int, LineRecord]] = deque()
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._in_flight = 0  # points taken by the flusher and not yet settled
        self.received = 0
        self.emitted = 0
        self.shed = 0
        self.delivered = 0
        self.dead_lettered = 0
        self.dead_letter_errors = 0
        self.flush_failures = 0
        self.alert_errors = 0
        self.last_flush_status: int | str | None = None
        self.last_flush_ns: int | None = None
        self._entities: dict[str, EntityCounts] = {}
        self._window_start_ns = clock_ns()
        self._intake_open = True
        self._stop = threading.Event()
        self._flusher: threading.Thread | None = None

    # -- intake -----------------------------------------------------------

    def submit(self, dp: DataPoint) -> bool:
        if not self._intake_open:
            return False
        if self.alert_engine is not None:
            try:
                self.alert_engine.observe(dp)
            except Exception:
                with self._lock:
                    self.alert_errors += 1
        with self._lock:
            if not self._intake_open:
                return False
            emitted = self._filter.observe(dp)
            self.received += 1
            counts = self._entities.get(dp.entity_id)
            if counts is None:
                kind = dict(dp.tags).get(KIND_TAG, "unknown")
                counts = self._entities[dp.entity_id] = EntityCounts(kind)
            counts.received += 1
            counts.params.add(dp.parameter)
            if emitted is None:
                return True
            self.emitted += 1
            counts.emitted += 1
            return self._enqueue(self._record(emitted))

    def submit_many(self, points: Iterable[DataPoint]) -> int:
        shed_before = self.shed
        for dp in points:
            self.submit(dp)
        return self.shed - shed_before

    @staticmethod
    def _record(dp: DataPoint) -> LineRecord:
        tags = {"device": dp.entity_id}
        tags.update(dp.tags)
        return LineRecord(dp.parameter, tags, {"value": dp.value}, dp.timestamp)

    def _enqueue(self, rec: LineRecord) -> bool:
        """Caller holds the lock."""
        buf = self._buffer
        shed = len(buf) >= self.config.buffer_capacity
        if shed:
            buf.popleft()
            self.shed += 1
        buf.append((time.monotonic_ns(), rec))
        # Only these two steps make a batch due before the flusher's own
        # timeout. notify_all: drain() callers wait on the same condition.
        if len(buf) == 1 or len(buf) == self.config.batch_size:
            self._cond.notify_all()
        return not shed

    # -- flushing ---------------------------------------------------------

    def start(self) -> "Pipeline":
        self._stop.clear()
        self._flusher = threading.Thread(target=self._flush_loop, daemon=True)
        self._flusher.start()
        return self

    def stop(self, drain_timeout_s: float = 5.0) -> bool:
        with self._lock:
            self._intake_open = False
            self._cond.notify_all()
        drained = self.drain(drain_timeout_s)
        self._stop.set()  # ends sink retries; the flusher exits once empty
        if self._flusher is not None:
            self._flusher.join(timeout=5)
            self._flusher = None
        return drained

    def drain(self, timeout_s: float) -> bool:
        """True once the buffer is empty and no batch is in flight."""
        with self._lock:
            return self._cond.wait_for(lambda: not self._buffer and not self._in_flight, timeout_s)

    @property
    def buffer_depth(self) -> int:
        with self._lock:
            return len(self._buffer)

    def _take_batch(self) -> list[LineRecord]:
        """Block until a batch is due and take it: the buffer holds
        batch_size points, its oldest point is batch_age_ms old, or intake
        is closed. Returns [] once intake is closed and nothing is left."""
        age_ns = self.config.batch_age_ms * 1_000_000
        buf = self._buffer
        with self._lock:
            while self._intake_open and len(buf) < self.config.batch_size:
                now = time.monotonic_ns()
                if buf and now - buf[0][0] >= age_ns:
                    break
                self._cond.wait((buf[0][0] + age_ns - now) / 1e9 if buf else None)
            n = min(len(buf), self.config.batch_size)
            self._in_flight = n
            return [buf.popleft()[1] for _ in range(n)]

    def _flush_loop(self) -> None:
        while batch := self._take_batch():
            try:
                settled = self._flush(batch)
            finally:
                with self._lock:
                    self._in_flight = 0
                    self._cond.notify_all()
            if not settled and self._stop.is_set():
                return  # sink is down and we are stopping; keep the rest buffered

    def _flush(self, batch: list[LineRecord]) -> bool:
        """True when the batch was delivered or quarantined; False when it
        went back to the buffer."""
        rendered = [to_line(rec) for rec in batch]
        backoff_s = self.config.retry_backoff_ms / 1000.0
        for attempt in range(self.config.retry_attempts):
            try:
                status = self.sink.write(rendered)
            except Exception as e:
                status = f"error: {e}"
            self.last_flush_status = status
            self.last_flush_ns = self.clock_ns()
            if isinstance(status, int) and 200 <= status < 300:
                with self._lock:
                    self.delivered += len(batch)
                return True
            if isinstance(status, int) and 400 <= status < 500:
                try:
                    self._dead_letter(rendered, status)
                except OSError:
                    with self._lock:
                        self.dead_letter_errors += 1
                    break
                with self._lock:
                    self.dead_lettered += len(batch)
                return True
            if attempt + 1 < self.config.retry_attempts:
                self._stop.wait(backoff_s)
                backoff_s *= 2
        # not settled: give the points back, oldest first
        now = time.monotonic_ns()
        with self._lock:
            self.flush_failures += 1
            self._buffer.extendleft((now, rec) for rec in reversed(batch))
            overflow = max(0, len(self._buffer) - self.config.buffer_capacity)
            for _ in range(overflow):
                self._buffer.popleft()
            self.shed += overflow
        self._stop.wait(backoff_s)
        return False

    def _dead_letter(self, rendered: list[str], status: int) -> None:
        header = f"# quarantined batch: sink returned {status}, {len(rendered)} lines\n"
        data = header + "\n".join(rendered) + "\n"
        with open(self.config.dead_letter_path, "a", encoding="utf-8") as f:
            f.write(data)

    # -- accounting --------------------------------------------------------

    def counters(self) -> dict[str, int]:
        with self._lock:
            return {
                "received": self.received,
                "emitted": self.emitted,
                "shed": self.shed,
                "delivered": self.delivered,
                "dead_lettered": self.dead_lettered,
                "dead_letter_errors": self.dead_letter_errors,
                "flush_failures": self.flush_failures,
                "buffer_depth": len(self._buffer),  # not the property: the lock is held
            }

    def rate_stats(self) -> RateStats:
        with self._lock:
            entities = {
                e: EntityCounts(c.kind, set(c.params), c.received, c.emitted)
                for e, c in self._entities.items()
            }
        return RateStats(entities, self._window_start_ns, self.clock_ns())


class Scheduler:
    """Periodic jobs with phase jitter; failures are counted, never fatal."""

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)
        self._jobs: list[tuple[PollSchedule, Callable[[], None], str]] = []
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self._lock = threading.Lock()
        self.job_errors: dict[str, int] = {}
        self.job_runs: dict[str, int] = {}

    def add(self, name: str, schedule: PollSchedule, job: Callable[[], None]) -> None:
        self._jobs.append((schedule, job, name))
        self.job_errors[name] = 0
        self.job_runs[name] = 0

    def start(self) -> "Scheduler":
        self._stop.clear()
        for schedule, job, name in self._jobs:
            t = threading.Thread(
                target=self._run_job, args=(schedule, job, name), daemon=True
            )
            t.start()
            self._threads.append(t)
        return self

    def stop(self) -> None:
        self._stop.set()
        for t in self._threads:
            t.join(timeout=5)
        self._threads = []

    def _run_job(self, schedule: PollSchedule, job: Callable[[], None], name: str) -> None:
        while not self._stop.is_set():
            try:
                job()
                with self._lock:
                    self.job_runs[name] += 1
            except Exception:
                with self._lock:
                    self.job_errors[name] += 1
            with self._lock:
                delay = schedule.next_delay(self._rng)
            if self._stop.wait(delay):
                return
