"""Alert state machine vs a brute-force oracle, plus notifier contracts."""

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from telegw import alerts
from telegw.alerts import (
    AlertEngine,
    AlertEvent,
    AlertRule,
    LogNotifier,
    SmtpStubNotifier,
    WebhookNotifier,
)
from telegw.model import DataPoint, Value

S = 1_000_000_000  # ns per second


def radon_rule(**kw):
    kw.setdefault("id", "radon-limit")
    kw.setdefault("parameter", "radon")
    kw.setdefault("predicate", "gt")
    kw.setdefault("threshold", 300.0)
    return AlertRule(**kw)


def feed(engine, values, entity="room-1", parameter="radon", t0=0, step_s=60):
    """Returns the flat (kind, value) event list for a value sequence."""
    out = []
    for i, v in enumerate(values):
        value = Value.flag(v) if isinstance(v, bool) else Value.real(float(v))
        dp = DataPoint(entity, parameter, value, "", t0 + i * step_s * S)
        out.extend((e.kind, e.value) for e in engine.observe(dp))
    return out


class TestPredicates:
    def test_crossing_fires(self):
        engine = AlertEngine([radon_rule()])
        assert feed(engine, [310]) == [("fired", 310.0)]

    def test_below_threshold_never_fires(self):
        engine = AlertEngine([radon_rule()])
        assert feed(engine, [290, 300, 299.9]) == []  # gt is strict

    def test_repeat_within_cooldown_fires_once(self):
        engine = AlertEngine([radon_rule(cooldown=3600)])
        assert feed(engine, [310, 310]) == [("fired", 310.0)]

    def test_hysteresis_recovery(self):
        engine = AlertEngine([radon_rule(clear_margin=0.05)])
        # 300 * 0.95 = 285: only a drop below that recovers
        events = feed(engine, [310, 290, 284])
        assert events == [("fired", 310.0), ("recovered", 284.0)]

    def test_no_recovery_inside_hysteresis_band(self):
        engine = AlertEngine([radon_rule(clear_margin=0.05)])
        assert feed(engine, [310, 290, 286, 299]) == [("fired", 310.0)]

    def test_refire_after_recovery_and_cooldown(self):
        engine = AlertEngine([radon_rule(cooldown=120)])
        # fire @0, recover @60, true again @120 (cooldown over) -> fire
        events = feed(engine, [310, 200, 320])
        assert events == [("fired", 310.0), ("recovered", 200.0), ("fired", 320.0)]

    def test_refire_suppressed_during_cooldown(self):
        engine = AlertEngine([radon_rule(cooldown=3600)])
        events = feed(engine, [310, 200, 320, 330])
        assert events == [("fired", 310.0), ("recovered", 200.0)]

    def test_lt_predicate(self):
        rule = AlertRule("low-batt", "battery", "lt", 15.0, clear_margin=0.2)
        engine = AlertEngine([rule])
        # recovery needs > 15 * 1.2 = 18
        events = feed(engine, [20, 14, 16, 19], parameter="battery")
        assert events == [("fired", 14.0), ("recovered", 19.0)]

    def test_hysteresis_below_zero(self):
        # A freezer at -17/-18.1 around a gt -18 rule: the band reaches down
        # to -18 * 1.1 = -19.8, so hovering at the boundary does not flap.
        freezer = AlertRule("freezer-warm", "temp", "gt", -18.0, clear_margin=0.1)
        events = feed(AlertEngine([freezer]), [-17, -18.1] * 5 + [-19.9], parameter="temp")
        assert events == [("fired", -17.0), ("recovered", -19.9)]
        # lt mirrors it: -30 * 0.9 = -27 must be passed to recover.
        cold = AlertRule("too-cold", "temp", "lt", -30.0, clear_margin=0.1)
        events = feed(AlertEngine([cold]), [-31, -29, -31, -26.9], parameter="temp")
        assert events == [("fired", -31.0), ("recovered", -26.9)]

    def test_eq_predicate(self):
        rule = AlertRule("stuck", "state", "eq", 0.0)
        engine = AlertEngine([rule])
        assert feed(engine, [1, 0, 0, 1], parameter="state") == [
            ("fired", 0.0),
            ("recovered", 1.0),
        ]

    def test_flag_true_predicate(self):
        rule = AlertRule("tamper", "alarm_tamper", "flag_true")
        engine = AlertEngine([rule])
        events = feed(engine, [False, True, True, False], parameter="alarm_tamper")
        assert events == [("fired", True), ("recovered", False)]


class TestForDuration:
    def test_fires_only_after_span(self):
        engine = AlertEngine([radon_rule(for_duration=120)])
        # points at 0, 60, 120 s: span reaches 120 on the third point
        assert feed(engine, [310, 315, 320]) == [("fired", 320.0)]

    def test_interruption_resets_the_run(self):
        engine = AlertEngine([radon_rule(for_duration=120)])
        assert feed(engine, [310, 290, 315, 320]) == []  # run restarted at t=120

    def test_sparse_stream_fires_late_never_early(self):
        engine = AlertEngine([radon_rule(for_duration=90)])
        # next observation after the 90 s mark is at 120 s
        assert feed(engine, [310, 310, 310]) == [("fired", 310.0)]

    def test_single_point_cannot_satisfy_positive_duration(self):
        engine = AlertEngine([radon_rule(for_duration=1)])
        assert feed(engine, [500]) == []


class TestTypeMismatch:
    def test_flag_value_on_numeric_rule_disables_entity(self):
        engine = AlertEngine([radon_rule()])
        events = feed(engine, [True, 400])
        assert events == []  # disabled on first point; 400 skipped
        assert ("radon-limit", "room-1") in engine.disabled

    def test_disable_is_per_entity(self):
        engine = AlertEngine([radon_rule()])
        feed(engine, [True], entity="bad")
        assert feed(engine, [400], entity="good") == [("fired", 400.0)]

    def test_numeric_value_on_flag_rule(self):
        rule = AlertRule("t", "alarm", "flag_true")
        engine = AlertEngine([rule])
        assert feed(engine, [1.0], parameter="alarm") == []
        assert engine.disabled


class TestSelectors:
    def test_entity_wildcard(self):
        rule = radon_rule(entity="room-*")
        engine = AlertEngine([rule])
        assert feed(engine, [400], entity="room-7") == [("fired", 400.0)]
        assert feed(engine, [400], entity="office-1") == []

    def test_tag_match(self):
        rule = radon_rule(tags={"building": "B"})
        engine = AlertEngine([rule])
        dp_hit = DataPoint("r", "radon", Value.real(400), "", 0, {"building": "B"})
        dp_miss = DataPoint("r2", "radon", Value.real(400), "", 0, {"building": "C"})
        assert engine.observe(dp_hit)
        assert not engine.observe(dp_miss)

    def test_parameter_must_match(self):
        engine = AlertEngine([radon_rule()])
        assert feed(engine, [999], parameter="co2") == []


class TestValidation:
    def test_threshold_requirements(self):
        with pytest.raises(ValueError):
            AlertRule("x", "p", "gt")  # missing threshold
        with pytest.raises(ValueError):
            AlertRule("x", "p", "gt", float("nan"))
        with pytest.raises(ValueError):
            AlertRule("x", "p", "flag_true", 1.0)  # spurious threshold
        with pytest.raises(ValueError):
            AlertRule("x", "p", "between", 1.0)

    def test_margin_and_durations(self):
        with pytest.raises(ValueError):
            AlertRule("x", "p", "gt", 1.0, clear_margin=1.0)
        with pytest.raises(ValueError):
            AlertRule("x", "p", "gt", 1.0, for_duration=-1)

    def test_margin_needs_nonzero_threshold(self):
        # A margin relative to 0 is an empty band.
        with pytest.raises(ValueError):
            AlertRule("x", "p", "gt", 0.0, clear_margin=0.1)
        AlertRule("x", "p", "gt", 0.0)

    def test_duplicate_rule_ids(self):
        with pytest.raises(ValueError):
            AlertEngine([radon_rule(), radon_rule()])


def oracle_events(threshold, for_duration_s, cooldown_s, margin, stream):
    """Flat-loop reference evaluator for gt(threshold) over (value, ts_ns)."""
    events = []
    active = False
    last_fired = None
    run_start = None
    d_ns = for_duration_s * S
    cool_ns = cooldown_s * S
    for value, ts in stream:
        held = value > threshold
        if active:
            if not held and value < threshold * (1.0 - margin):
                events.append(("recovered", value, ts))
                active = False
                run_start = None
            continue
        if not held:
            run_start = None
            continue
        if last_fired is not None and ts - last_fired < cool_ns:
            run_start = None
            continue
        if run_start is None:
            run_start = ts
            if d_ns > 0:
                continue
        if ts - run_start >= d_ns:
            events.append(("fired", value, ts))
            active = True
            last_fired = ts
            run_start = None
    return events


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(st.floats(0, 600, allow_nan=False), min_size=1, max_size=60),
    gaps=st.lists(st.integers(1, 600), min_size=60, max_size=60),
    for_duration=st.sampled_from([0, 60, 300]),
    cooldown=st.sampled_from([0, 120, 3600]),
    margin=st.sampled_from([0.0, 0.05, 0.2]),
)
def test_engine_matches_oracle(values, gaps, for_duration, cooldown, margin):
    rule = radon_rule(for_duration=for_duration, cooldown=cooldown, clear_margin=margin)
    engine = AlertEngine([rule])
    ts = 0
    stream = []
    for v, g in zip(values, gaps):
        stream.append((v, ts))
        ts += g * S
    got = []
    for v, t in stream:
        for e in engine.observe(DataPoint("r", "radon", Value.real(v), "", t)):
            got.append((e.kind, e.value, e.timestamp))
    assert got == oracle_events(300.0, for_duration, cooldown, margin, stream)
    kinds = [k for k, _, _ in got]
    assert kinds == ["fired", "recovered"] * (len(kinds) // 2) + (
        ["fired"] if len(kinds) % 2 else []
    )


@settings(max_examples=100, deadline=None)
@given(
    values=st.lists(st.floats(250, 350, allow_nan=False), min_size=2, max_size=80),
    cooldown=st.sampled_from([300, 3600]),
)
def test_fire_count_bounded_by_cooldown(values, cooldown):
    engine = AlertEngine([radon_rule(cooldown=cooldown, clear_margin=0.0)])
    step = 60
    events = feed(engine, values, step_s=step)
    window_s = len(values) * step
    fired = sum(1 for k, _ in events if k == "fired")
    assert fired <= -(-window_s // cooldown) + 1


def test_replay_determinism():
    values = [290, 310, 305, 280, 320, 320, 284, 350, 100]
    a = feed(AlertEngine([radon_rule(cooldown=120, clear_margin=0.05)]), values)
    b = feed(AlertEngine([radon_rule(cooldown=120, clear_margin=0.05)]), values)
    assert a == b


class _HookHandler(BaseHTTPRequestHandler):
    script = [200]
    bodies = []

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        self.bodies.append(json.loads(body))
        status = self.script[min(len(self.bodies) - 1, len(self.script) - 1)]
        self.send_response(status)
        self.end_headers()

    def log_message(self, *args):
        pass


@pytest.fixture
def webhook_stub():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _HookHandler)
    _HookHandler.script = [200]
    _HookHandler.bodies = []
    threading.Thread(target=server.serve_forever, daemon=True).start()
    yield f"http://127.0.0.1:{server.server_address[1]}/hook", _HookHandler
    server.shutdown()
    server.server_close()


class TestNotifiers:
    EVENT = AlertEvent("co2-high", "room-a", "co2", "fired", 640.0, 1623139200 * S)

    def test_webhook_body(self, webhook_stub):
        url, handler = webhook_stub
        assert WebhookNotifier(url).notify(self.EVENT) is True
        assert handler.bodies == [
            {
                "rule": "co2-high",
                "entity": "room-a",
                "parameter": "co2",
                "kind": "fired",
                "value": 640.0,
                "timestamp": 1623139200 * S,
            }
        ]

    def test_webhook_retries_once_then_fails(self, webhook_stub):
        url, handler = webhook_stub
        handler.script = [500, 500]
        assert WebhookNotifier(url).notify(self.EVENT) is False
        assert len(handler.bodies) == 2

    def test_webhook_second_attempt_can_succeed(self, webhook_stub):
        url, handler = webhook_stub
        handler.script = [500, 200]
        assert WebhookNotifier(url).notify(self.EVENT) is True

    def test_webhook_url_validation(self):
        with pytest.raises(ValueError):
            WebhookNotifier("ftp://host/hook")

    def test_smtp_stub_writes_one_file_per_event(self, tmp_path):
        notifier = SmtpStubNotifier(str(tmp_path / "spool"))
        notifier.notify(self.EVENT)
        notifier.notify(
            AlertEvent("co2-high", "room-a", "co2", "recovered", 420.0, 1623142800 * S)
        )
        files = sorted((tmp_path / "spool").iterdir())
        assert len(files) == 2
        text = files[0].read_bytes().decode("utf-8")  # keep CRLF intact
        header, _, body = text.partition("\r\n\r\n")
        assert "From: " in header and "To: " in header and "Date: " in header
        assert "Subject: [fired] co2-high on room-a" in header
        assert "value 640.0" in body

    def test_log_notifier(self, caplog):
        import logging

        with caplog.at_level(logging.WARNING, logger="telegw.alerts"):
            assert LogNotifier().notify(self.EVENT) is True
        assert "co2-high" in caplog.text

    def test_engine_delivers_async_and_counts_failures(self, webhook_stub, tmp_path):
        url, handler = webhook_stub
        handler.script = [500, 500]  # first event fails both attempts, rest succeed...
        spool = SmtpStubNotifier(str(tmp_path / "spool"))
        engine = AlertEngine([radon_rule()], notifiers=[WebhookNotifier(url), spool])
        feed(engine, [400])
        engine.stop()
        assert engine.delivery_failures == 1
        assert len(list((tmp_path / "spool").iterdir())) == 1  # spool unaffected

    def test_stop_returns_after_every_observed_event_is_delivered(self):
        class Slow:
            def __init__(self):
                self.seen = []

            def notify(self, event):
                time.sleep(0.02)
                self.seen.append(event.timestamp)
                return True

        slow = Slow()
        engine = AlertEngine([radon_rule(cooldown=0)], notifiers=[slow])
        events = feed(engine, [400, 0] * 5)  # fired and recovered five times each
        assert len(events) == 10
        engine.stop()
        assert slow.seen == [i * 60 * S for i in range(10)]

    def test_the_worker_outlives_a_stop_that_gave_up_waiting_for_it(self, monkeypatch):
        monkeypatch.setattr(alerts, "STOP_JOIN_S", 0.05)
        uncaught = []
        monkeypatch.setattr(threading, "excepthook", uncaught.append)
        release = threading.Event()
        seen = []

        class Blocked:
            def notify(self, event):
                release.wait(5)
                seen.append(event.timestamp)
                return True

        engine = AlertEngine([radon_rule(cooldown=0)], notifiers=[Blocked()])
        worker = engine._worker
        assert len(feed(engine, [400, 0])) == 2  # fired, then recovered
        engine.stop()  # gives up while the first event is still being delivered
        release.set()
        worker.join(5)
        assert not worker.is_alive()
        assert uncaught == []
        assert seen == [0, 60 * S]
