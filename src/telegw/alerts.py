"""Stream-evaluated threshold alerts with debounce, cooldown, hysteresis.

Rules are evaluated on the raw point stream (before dedup, so a steady
out-of-range value cannot hide by never changing). A rule fires only
after its predicate has held continuously for ``for_duration`` seconds
of stream time, re-fires no sooner than ``cooldown`` seconds after the
last firing, and recovers only once the value clears the threshold by
``clear_margin`` times its magnitude, on the safe side whatever the
threshold's sign — the hysteresis that keeps a value hovering at the
boundary from flapping. All timing uses point timestamps, so replaying
a stream reproduces the exact event sequence.
"""

from __future__ import annotations

import itertools
import json
import logging
import math
import queue
import threading
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from pathlib import Path
from urllib.parse import urlsplit

from telegw.model import FLAG, REAL, DataPoint, Value

log = logging.getLogger("telegw.alerts")
STOP_JOIN_S = 5.0  # how long stop() waits for the delivery worker

GT = "gt"
LT = "lt"
EQ = "eq"
FLAG_TRUE = "flag_true"
PREDICATES = (GT, LT, EQ, FLAG_TRUE)

FIRED = "fired"
RECOVERED = "recovered"


class AlertError(Exception):
    pass


class TypeMismatch(AlertError):
    """Predicate and value kind disagree; the rule is disabled per entity."""


@dataclass(frozen=True)
class AlertRule:
    id: str
    parameter: str
    predicate: str
    threshold: float | None = None
    entity: str = "*"
    tags: dict[str, str] = field(default_factory=dict)
    for_duration: float = 0.0
    cooldown: float = 0.0
    clear_margin: float = 0.0

    def __post_init__(self):
        if not self.id:
            raise ValueError("rule id must be non-empty")
        if self.predicate not in PREDICATES:
            raise ValueError(f"unknown predicate {self.predicate!r}")
        if self.predicate == FLAG_TRUE:
            if self.threshold is not None:
                raise ValueError("flag_true takes no threshold")
        else:
            if self.threshold is None or not math.isfinite(self.threshold):
                raise ValueError(f"{self.predicate} requires a finite threshold")
        if self.for_duration < 0 or self.cooldown < 0:
            raise ValueError("durations must be >= 0")
        if not 0.0 <= self.clear_margin < 1.0:
            raise ValueError("clear_margin must be in [0, 1)")
        if self.clear_margin > 0 and self.threshold == 0:
            raise ValueError("clear_margin is relative and needs a non-zero threshold")

    def selects(self, dp: DataPoint) -> bool:
        if dp.parameter != self.parameter:
            return False
        if not fnmatchcase(dp.entity_id, self.entity):
            return False
        if self.tags:
            return all(dp.tags.get(k) == v for k, v in self.tags.items())
        return True

    def _numeric(self, value: Value) -> float:
        if value.kind != REAL:
            raise TypeMismatch(
                f"rule {self.id}: {self.predicate} needs a numeric value, got {value.kind}"
            )
        return value.raw

    def holds(self, value: Value) -> bool:
        if self.predicate == FLAG_TRUE:
            if value.kind != FLAG:
                raise TypeMismatch(
                    f"rule {self.id}: flag_true needs a flag value, got {value.kind}"
                )
            return value.raw
        v = self._numeric(value)
        if self.predicate == GT:
            return v > self.threshold
        if self.predicate == LT:
            return v < self.threshold
        return v == self.threshold

    def cleared(self, value: Value) -> bool:
        """Recovery test: beyond the threshold by the hysteresis margin."""
        if self.predicate == FLAG_TRUE:
            return value.kind == FLAG and not value.raw
        v = self._numeric(value)
        # Below zero the factors swap, so the band stays on the safe side.
        m = self.clear_margin if self.threshold > 0 else -self.clear_margin
        if self.predicate == GT:
            return v < self.threshold * (1.0 - m)
        if self.predicate == LT:
            return v > self.threshold * (1.0 + m)
        return v != self.threshold


@dataclass(frozen=True, slots=True)
class AlertEvent:
    rule_id: str
    entity: str
    parameter: str
    kind: str
    value: float | bool | str
    timestamp: int


QUIET = "quiet"
PENDING = "pending"
ACTIVE = "active"


class _KeyState:
    __slots__ = ("phase", "pending_since_ns", "last_fired_ns")

    def __init__(self):
        self.phase = QUIET
        self.pending_since_ns = 0
        self.last_fired_ns: int | None = None


class AlertEngine:
    """Holds one state machine per (rule, entity). observe() returns the
    events it produced; notifier delivery happens on a background worker so
    evaluation never blocks on I/O.

    Not thread safe: the pipeline calls observe() only while holding its
    intake lock. ``delivery_failures`` has one writer, the delivery worker.
    """

    def __init__(self, rules: list[AlertRule], notifiers: list | None = None):
        ids = [r.id for r in rules]
        if len(set(ids)) != len(ids):
            raise ValueError("rule ids must be unique")
        self.rules = list(rules)
        self._by_param: dict[str, list[AlertRule]] = {}
        for rule in rules:
            self._by_param.setdefault(rule.parameter, []).append(rule)
        self._states: dict[tuple[str, str], _KeyState] = {}
        self.disabled: dict[tuple[str, str], str] = {}
        self.events_total = 0
        self.delivery_failures = 0
        self._notifiers = list(notifiers or [])
        self._queue: queue.Queue | None = None
        self._worker: threading.Thread | None = None
        if self._notifiers:
            # the worker keeps its own reference: a stop that times out drops the engine's
            self._queue = events = queue.Queue()
            self._worker = threading.Thread(target=self._deliver_loop, args=(events,), daemon=True)
            self._worker.start()

    def observe(self, dp: DataPoint) -> list[AlertEvent]:
        events: list[AlertEvent] = []
        for rule in self._by_param.get(dp.parameter, ()):
            if not rule.selects(dp):
                continue
            key = (rule.id, dp.entity_id)
            if key in self.disabled:
                continue
            state = self._states.get(key)
            if state is None:
                state = self._states[key] = _KeyState()
            try:
                event = self._step(rule, state, dp)
            except TypeMismatch as e:
                self.disabled[key] = str(e)
                log.warning("alert rule disabled: %s", e)
                continue
            if event is not None:
                events.append(event)
        if events:
            self.events_total += len(events)
            if self._queue is not None:
                for ev in events:
                    self._queue.put(ev)
        return events

    def _step(self, rule: AlertRule, state: _KeyState, dp: DataPoint) -> AlertEvent | None:
        ts = dp.timestamp
        holds = rule.holds(dp.value)
        if state.phase == ACTIVE:
            if not holds and rule.cleared(dp.value):
                state.phase = QUIET
                return AlertEvent(
                    rule.id, dp.entity_id, dp.parameter, RECOVERED, dp.value.raw, ts
                )
            return None
        if not holds:
            state.phase = QUIET
            return None
        cooling = (
            state.last_fired_ns is not None
            and (ts - state.last_fired_ns) / 1e9 < rule.cooldown
        )
        if cooling:
            state.phase = QUIET  # suppressed observations do not accumulate
            return None
        if state.phase == QUIET:
            if rule.for_duration > 0:
                state.phase = PENDING
                state.pending_since_ns = ts
                return None
        elif (ts - state.pending_since_ns) / 1e9 < rule.for_duration:
            return None
        state.phase = ACTIVE
        state.last_fired_ns = ts
        return AlertEvent(rule.id, dp.entity_id, dp.parameter, FIRED, dp.value.raw, ts)

    def _deliver_loop(self, events: queue.Queue) -> None:
        while True:
            event = events.get()
            if event is None:
                return
            for notifier in self._notifiers:
                try:
                    delivered = notifier.notify(event)
                except Exception:
                    delivered = False
                if not delivered:
                    self.delivery_failures += 1  # this thread is its only writer

    def stop(self) -> None:
        """Deliver every queued event, then end the worker: the queue is
        FIFO, so the worker reaches the sentinel only after them."""
        if self._queue is not None:
            self._queue.put(None)
            self._worker.join(timeout=STOP_JOIN_S)
            self._queue = None
            self._worker = None


class LogNotifier:
    def __init__(self, logger: logging.Logger | None = None):
        self.log = logger or log
        self.count = 0

    def notify(self, event: AlertEvent) -> bool:
        self.log.warning(
            "alert %s: rule=%s entity=%s parameter=%s value=%s ts=%d",
            event.kind,
            event.rule_id,
            event.entity,
            event.parameter,
            event.value,
            event.timestamp,
        )
        self.count += 1
        return True


class WebhookNotifier:
    def __init__(self, url: str):
        self.check_url(url)
        self.url = url

    @staticmethod
    def check_url(url: str) -> None:
        if urlsplit(url).scheme not in ("http", "https"):
            raise ValueError("webhook url scheme must be http or https")

    def notify(self, event: AlertEvent) -> bool:
        from telegw.httpio import HttpClient

        doc = {
            "rule": event.rule_id,
            "entity": event.entity,
            "parameter": event.parameter,
            "kind": event.kind,
            "value": event.value,
            "timestamp": event.timestamp,
        }
        body = json.dumps(doc, allow_nan=False).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        for _ in range(2):  # one retry
            try:
                status, _ = HttpClient().request("POST", self.url, headers, body)
            except ConnectionError:
                continue
            if 200 <= status < 300:
                return True
        return False


class SmtpStubNotifier:
    """Writes one RFC-822-shaped message file per event to a spool
    directory instead of speaking SMTP."""

    def __init__(self, spool_dir: str):
        self.spool = Path(spool_dir)
        self.spool.mkdir(parents=True, exist_ok=True)
        self._seq = itertools.count(1)  # next() on it is atomic

    def notify(self, event: AlertEvent) -> bool:
        from email.utils import formatdate

        seq = next(self._seq)
        name = f"{event.timestamp}-{seq:04d}-{event.rule_id}-{event.kind}.eml"
        message = (
            f"From: gateway <gateway@localhost>\r\n"
            f"To: operator <operator@localhost>\r\n"
            f"Subject: [{event.kind}] {event.rule_id} on {event.entity}\r\n"
            f"Date: {formatdate(event.timestamp / 1e9)}\r\n"
            f"\r\n"
            f"Rule {event.rule_id}: parameter {event.parameter} on {event.entity} "
            f"{event.kind} with value {event.value}.\r\n"
        )
        (self.spool / name).write_text(message, encoding="utf-8")
        return True
