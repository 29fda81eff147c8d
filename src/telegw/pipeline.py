"""Change-only persistence pipeline: dedup, batching, sink delivery.

Producers submit points concurrently, and a point takes the one intake lock
once: its checks, the alert tap, the change filter, rendering and the line
buffer all run under it. A point is first checked against the point rules
of :mod:`telegw.model`, the ones :func:`telegw.model.validate_datapoint`
applies: a point that breaks one is rejected and counted, and touches no
series. The entity and its tags are checked once per entity, when its tag
segment is rendered, and the name once per parameter, when it is escaped;
only the value and timestamp are checked on every point. An accepted point
passes an optional alert tap, then the change filter; a point the filter
emits is rendered to its final line at once, from those two cached parts,
and appended to the line buffer. A single flusher thread only joins and
writes lines: a batch is written when the buffer holds ``batch_size``
lines or its oldest line is ``batch_age_ms`` old, and at once when intake
closes. Transient sink failures retry with backoff and then return the
batch to the buffer; permanent rejections quarantine to a dead-letter
file, and a failed quarantine write is counted and returns the batch too.
The buffer is bounded: the oldest lines are shed and counted, producers
never block.

``counters()`` reports ``received`` (every point submitted while intake was
open, rejected ones included), ``rejected_non_finite`` (a NaN or infinite
real), ``rejected_unrenderable`` (every other broken rule), ``regressions``
(the filter dropped a point older than its series' last one), ``unchanged``
(the filter suppressed a repeat), ``emitted``, ``shed``, ``delivered``,
``dead_lettered``, ``dead_letter_errors``, ``flush_failures``,
``alert_errors`` (the alert tap raised; the point still went on) and
``buffer_depth``. The first law below holds in every ``counters()``
snapshot, the second when no batch is in flight (as after ``drain()``); a
batch whose dead-letter write failed is back in the buffer::

    received = rejected_non_finite + rejected_unrenderable
               + regressions + unchanged + emitted
    emitted  = delivered + dead_lettered + shed + buffer_depth

Per-series state lives only in the change filter: one flat row per
entity, four cells per series (last kind, raw value, last-seen and
last-emitted times), found through a parameter layout that every entity
whose parameters arrived in the same order shares. The pipeline keeps one
record per entity: its tags as checked, their rendered segment, its kind
and its received and emitted counts; ``rate_stats()`` reads each entity's
parameter set from the filter.
"""

from __future__ import annotations

import logging
import math
import os
import random
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable
from urllib.parse import urlsplit

# Bound as to_line: the benchmark traces telegw.pipeline.to_line as the per-line render.
from telegw.lineproto import escape_measurement, render_point as to_line, tag_segment
from telegw.model import (
    ChangeFilter,
    DataPoint,
    ModelError,
    NonFiniteValue,
    check_entity,
    check_identifier,
    check_sample,
)

log = logging.getLogger(__name__)


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
        if self.mode == "http":
            if not self.url:
                raise ValueError("http sink requires url")
            scheme = urlsplit(self.url).scheme
            if scheme not in ("http", "https"):
                raise ValueError(f"http sink url scheme must be http or https, got {scheme!r}")
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
    """Appends newline-terminated lines; one write call per batch.

    A batch is appended whole or not at all: when the write fails part way
    (a full disk, a file size limit) the file is truncated back to where the
    batch began and the error is raised, so a retry cannot leave a torn or
    duplicated line."""

    def __init__(self, path: str):
        self.path = path

    def write(self, lines: list[str]) -> int:
        data = memoryview(("\n".join(lines) + "\n").encode("utf-8"))
        # unbuffered, so no unwritten tail is left to be flushed on close
        with open(self.path, "ab", buffering=0) as f:
            start = f.tell()
            try:
                while data:  # a regular file takes it all in one write(2) unless it fails
                    data = data[f.write(data):]
            except OSError:
                os.ftruncate(f.fileno(), start)
                raise
        return 204


class HttpSink:
    def __init__(self, url: str, token: str | None = None):
        self.url = url
        self.token = token

    def write(self, lines: list[str]) -> int:
        from telegw.httpio import HttpClient

        headers = {"Content-Type": "text/plain; charset=utf-8"}
        if self.token:
            headers["Authorization"] = f"Token {self.token}"
        body = ("\n".join(lines) + "\n").encode("utf-8")
        status, _ = HttpClient().request("POST", self.url, headers, body)
        return status


@dataclass(slots=True)
class EntityCounts:
    kind: str
    params: set[str] = field(default_factory=set)
    received: int = 0
    emitted: int = 0


@dataclass(slots=True)
class _Entity:
    """Intake's record of one entity; its parameters are the change filter's."""

    tags: object
    segment: str
    kind: str
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


def stats_from_doc(doc) -> RateStats:
    """The inverse of :func:`stats_to_doc`; ``ValueError`` for a document
    not shaped like its output."""
    try:
        entities = {
            e: EntityCounts(str(d["kind"]), set(d["params"]), int(d["received"]), int(d["emitted"]))
            for e, d in doc["entities"].items()
        }
        return RateStats(entities, int(doc["window_start_ns"]), int(doc["window_end_ns"]))
    except (LookupError, TypeError, AttributeError, ValueError, OverflowError) as e:
        raise ValueError(f"not a stats document ({type(e).__name__}: {e})") from e


def report_rates(stats: RateStats, window_s: float | None = None) -> list[dict]:
    """Rows per device kind plus a totals row; the totals row's rate is the
    exact sum of the per-kind rates."""
    if window_s is None:
        window_s = (stats.window_end_ns - stats.window_start_ns) / 1e9
    if not 0 < window_s < math.inf:  # NaN too
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
    """See module docstring. submit() returns True when the point was
    accepted and no shedding was needed; rejects and sheds are counted."""

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
        self._buffer: deque[tuple[int, str]] = deque()  # (enqueued ns, line)
        self._entities: dict[str, _Entity] = {}
        self._heads: dict[str, str] = {}  # parameter -> its escaped measurement
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._in_flight = 0  # points taken by the flusher and not yet settled
        self.received = 0
        self.rejected_non_finite = 0
        self.rejected_unrenderable = 0
        self.emitted = 0
        self.shed = 0
        self.delivered = 0
        self.dead_lettered = 0
        self.dead_letter_errors = 0
        self.flush_failures = 0
        self.alert_errors = 0
        self.last_flush_status: int | str | None = None
        self._window_start_ns = clock_ns()
        self._intake_open = True
        self._stop = threading.Event()
        self._flusher: threading.Thread | None = None

    # -- intake -----------------------------------------------------------

    def submit(self, dp: DataPoint) -> bool:
        with self._lock:
            if not self._intake_open:
                return False
            self.received += 1
            entity_id, parameter, value, _, timestamp, tags = dp
            try:
                entity = self._entities.get(entity_id) if entity_id.__class__ is str else None
                if entity is None or (entity.tags is not tags and entity.tags != tags):
                    entity = self._entity(entity_id, tags)
                head = self._heads.get(parameter) if parameter.__class__ is str else None
                if head is None:  # a parameter's name is checked and escaped once
                    check_identifier(parameter, "parameter")
                    head = self._heads[parameter] = escape_measurement(parameter)
                check_sample(value, timestamp, parameter)
            except NonFiniteValue:
                self.rejected_non_finite += 1
                return False
            except ModelError:
                self.rejected_unrenderable += 1
                return False
            if self.alert_engine is not None:
                try:
                    self.alert_engine.observe(dp)
                except Exception:
                    self.alert_errors += 1
            entity.received += 1
            emitted = self._filter.observe(dp)
            if emitted is None:
                return True
            self.emitted += 1
            entity.emitted += 1
            line = to_line(head, entity.segment, value, timestamp)
            buf = self._buffer
            shed = len(buf) >= self.config.buffer_capacity
            if shed:
                buf.popleft()
                self.shed += 1
            buf.append((time.monotonic_ns(), line))
            # Only these two steps make a batch due before the flusher's own
            # timeout. notify_all: drain() callers wait on the same condition.
            if len(buf) == 1 or len(buf) == self.config.batch_size:
                self._cond.notify_all()
            return not shed

    def submit_many(self, points: Iterable[DataPoint]) -> None:
        submit = self.submit
        for dp in points:
            submit(dp)

    def _entity(self, key: str, tags) -> _Entity:
        """The entity's record, made or updated for tags it does not hold: a
        device's points carry one tags mapping, never mutated (see
        DataPoint), so they are checked and rendered once. An entity that
        is not a string (it may not even be hashable) is never kept, so
        check_entity rejects it."""
        check_entity(key, tags)
        segment = tag_segment(tags, device=key)
        entity = self._entities.get(key)
        if entity is None:
            entity = self._entities[key] = _Entity(tags, segment, "")
        entity.tags, entity.segment = tags, segment
        if not entity.received:  # the kind is that of the first accepted point
            entity.kind = tags.get(KIND_TAG, "unknown")
        return entity

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

    def _take_batch(self) -> list[str]:
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

    def _flush(self, batch: list[str]) -> bool:
        """True when the batch was delivered or quarantined; False when it
        went back to the buffer."""
        backoff_s = self.config.retry_backoff_ms / 1000.0
        for attempt in range(self.config.retry_attempts):
            try:
                status = self.sink.write(batch)
            except Exception as e:
                status = f"error: {e}"
            self.last_flush_status = status
            if isinstance(status, int) and 200 <= status < 300:
                with self._lock:
                    self.delivered += len(batch)
                return True
            if isinstance(status, int) and 400 <= status < 500:
                try:
                    self._dead_letter(batch, status)
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
            self._buffer.extendleft((now, line) for line in reversed(batch))
            overflow = max(0, len(self._buffer) - self.config.buffer_capacity)
            for _ in range(overflow):
                self._buffer.popleft()
            self.shed += overflow
        self._stop.wait(backoff_s)
        return False

    def _dead_letter(self, lines: list[str], status: int) -> None:
        header = f"# quarantined batch: sink returned {status}, {len(lines)} lines"
        FileSink(self.config.dead_letter_path).write([header, *lines])

    # -- accounting --------------------------------------------------------

    def counters(self) -> dict[str, int]:
        with self._lock:
            return {
                "received": self.received,
                "rejected_non_finite": self.rejected_non_finite,
                "rejected_unrenderable": self.rejected_unrenderable,
                "regressions": self._filter.regressions,
                "unchanged": self._filter.unchanged,
                "emitted": self.emitted,
                "shed": self.shed,
                "delivered": self.delivered,
                "dead_lettered": self.dead_lettered,
                "dead_letter_errors": self.dead_letter_errors,
                "flush_failures": self.flush_failures,
                "alert_errors": self.alert_errors,
                "buffer_depth": len(self._buffer),  # not the property: the lock is held
            }

    def rate_stats(self) -> RateStats:
        with self._lock:
            entities = {
                e: EntityCounts(c.kind, self._filter.parameters(e), c.received, c.emitted)
                for e, c in self._entities.items()
                if c.received  # an entity whose every point was rejected has no series
            }
        return RateStats(entities, self._window_start_ns, self.clock_ns())


Job = Callable[[], None]  # a poll job, or the wake that unblocks one
STOP_JOIN_S = 5.0  # Scheduler.stop() waits this long for all job threads together


@dataclass(slots=True)
class JobRecord:
    """One job's poll outcomes: a job succeeds by returning, fails by raising."""
    runs: int = 0
    errors: int = 0
    last_success_ns: int | None = None
    last_error: str | None = None
    consecutive_failures: int = 0


class Scheduler:
    """Periodic jobs with phase jitter, and the one record of their outcomes.

    A job's polls start on a fixed timeline, each one interval (jittered)
    after the previous one was due, however long that one took; one that
    overran is followed at once, not by a burst to catch up. A job succeeds
    by returning and fails by raising any ``Exception``; either lands in its
    :class:`JobRecord` under one lock and never ends its thread.
    Only a job's first failed poll (a warning, with traceback) and its first
    success after failing are logged, not the failed polls between. A job
    that raises once :meth:`stop` has begun was cancelled, most likely woken
    out of its I/O by the wake it was added with, and is not recorded."""

    def __init__(self, clock_ns: Callable[[], int] = time.time_ns):
        self.clock_ns = clock_ns  # stamps each record's last success
        self._rng = random.Random(0)  # the same jitter draws in every run
        self._jobs: list[tuple[PollSchedule, Job, str, Job | None]] = []
        self._wakes: list[Job] = []
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self._lock = threading.Lock()
        self._records: dict[str, JobRecord] = {}

    def add(self, name: str, schedule: PollSchedule, job: Job,
            wake: Job | None = None, close: Job | None = None) -> None:
        """Add ``job`` under ``name``, which no other job holds. :meth:`stop`
        calls ``wake`` from its own thread to unblock the job from I/O;
        ``close`` runs on the job's thread when its loop ends, so it may
        release what only that thread uses."""
        if name in self._records:
            raise ValueError(f"a job named {name!r} was already added")
        self._jobs.append((schedule, job, name, close))
        self._records[name] = JobRecord()
        if wake is not None:
            self._wakes.append(wake)

    def records(self) -> dict[str, JobRecord]:
        """A copy of every job's record, in the order the jobs were added."""
        with self._lock:
            return {name: replace(r) for name, r in self._records.items()}

    @property
    def job_runs(self) -> dict[str, int]:
        return {name: r.runs for name, r in self.records().items()}

    @property
    def job_errors(self) -> dict[str, int]:
        return {name: r.errors for name, r in self.records().items()}

    def start(self) -> "Scheduler":
        self._stop.clear()
        for args in self._jobs:
            t = threading.Thread(target=self._run_job, args=args, daemon=True)
            t.start()
            self._threads.append(t)
        return self

    def stop(self) -> None:
        """Set the stop flag, call every job's wake to unblock it from I/O,
        then join every job thread, all within one STOP_JOIN_S budget."""
        self._stop.set()
        for wake in self._wakes:
            wake()
        deadline = time.monotonic() + STOP_JOIN_S
        for t in self._threads:
            t.join(timeout=max(0.0, deadline - time.monotonic()))
        self._threads = []

    def _run_job(self, schedule: PollSchedule, job: Job, name: str, close: Job | None) -> None:
        record = self._records[name]
        due = time.monotonic()  # when this poll was due
        try:
            while not self._stop.is_set():
                failures = record.consecutive_failures  # only this thread writes it
                try:
                    job()
                    error = None
                except Exception as e:
                    if self._stop.is_set():
                        return  # cut short by stop(): a cancelled poll, not a failed one
                    error = f"{type(e).__name__}: {e}"
                    if not failures:
                        log.warning("poll %s failed: %s", name, error, exc_info=True)
                if error is None and failures:
                    log.info("poll %s recovered after %d failed polls", name, failures)
                with self._lock:
                    record.last_error = error
                    if error is None:
                        record.runs += 1
                        record.last_success_ns = self.clock_ns()
                        record.consecutive_failures = 0
                    else:
                        record.errors += 1
                        record.consecutive_failures += 1
                    delay = schedule.next_delay(self._rng)
                now = time.monotonic()
                due = max(due + delay, now)  # after a poll that overran: now, no catch-up
                if self._stop.wait(due - now):
                    return
        finally:
            if close is not None:
                close()
