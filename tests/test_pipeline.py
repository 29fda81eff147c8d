"""Pipeline behavior: dedup routing, shedding, flush retry, accounting."""

import gc
import itertools
import logging
import math
import os
import random
import subprocess
import sys
import threading
import time
import tracemalloc
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import telegw
from telegw.alerts import GT, LT, AlertEngine, AlertRule
from telegw.config import load_config
from telegw.daemon import Gateway
from telegw.lineproto import LineRecord, to_line
from telegw.model import (
    MAX_TEXT_LEN,
    DataPoint,
    ModelError,
    NonFiniteValue,
    Value,
    validate_datapoint,
)
from telegw.pipeline import (
    EmptyWindow,
    EntityCounts,
    FileSink,
    HttpSink,
    Pipeline,
    PollSchedule,
    RateStats,
    Scheduler,
    SinkConfig,
    report_rates,
)

from lp_parser import parse_line


def dp(entity="dev-1", param="co2", value=618.0, ts=0, tags=None):
    v = value if isinstance(value, Value) else Value.real(value)
    return DataPoint(entity, param, v, "", ts, tags or {})


class ScriptedSink:
    """Status script per call; last entry repeats. 2xx bodies land in a
    success log so tests can check exactly-once delivery."""

    def __init__(self, script=(204,)):
        self.script = list(script)
        self.success_log: list[str] = []
        self.calls = 0

    def write(self, lines):
        status = self.script[min(self.calls, len(self.script) - 1)]
        self.calls += 1
        if status == "raise":
            raise ConnectionError("sink unreachable")
        if 200 <= status < 300:
            self.success_log.extend(lines)
        return status


def fast_config(tmp_path, **kw):
    kw.setdefault("mode", "file")
    kw.setdefault("path", str(tmp_path / "out.lp"))
    kw.setdefault("batch_age_ms", 20)
    kw.setdefault("retry_backoff_ms", 5)
    kw.setdefault("dead_letter_path", str(tmp_path / "dead.lp"))
    return SinkConfig(**kw)


class TestDedupRouting:
    def test_identical_submissions_store_once(self, tmp_path):
        sink = ScriptedSink()
        p = Pipeline(fast_config(tmp_path), sink=sink).start()
        for i in range(3):
            p.submit(dp(ts=i))
        assert p.stop()
        assert len(sink.success_log) == 1
        assert p.counters()["received"] == 3
        assert p.counters()["emitted"] == 1
        assert p.counters()["delivered"] == 1

    def test_flag_flip_stores_both(self, tmp_path):
        sink = ScriptedSink()
        p = Pipeline(fast_config(tmp_path), sink=sink).start()
        p.submit(dp(param="occupancy", value=Value.flag(True), ts=1))
        p.submit(dp(param="occupancy", value=Value.flag(False), ts=2))
        assert p.stop()
        assert len(sink.success_log) == 2

    def test_distinct_keys_do_not_mask_each_other(self, tmp_path):
        sink = ScriptedSink()
        p = Pipeline(fast_config(tmp_path), sink=sink).start()
        p.submit(dp(entity="a", value=1.0, ts=1))
        p.submit(dp(entity="b", value=1.0, ts=1))
        p.submit(dp(entity="a", param="rh", value=1.0, ts=2))
        assert p.stop()
        assert len(sink.success_log) == 3

    def test_heartbeat_reemits_unchanged_value(self, tmp_path):
        sink = ScriptedSink()
        p = Pipeline(fast_config(tmp_path), sink=sink, heartbeat_s=0.1).start()
        p.submit(dp(ts=0))
        p.submit(dp(ts=50_000_000))  # 50 ms later, unchanged: absorbed
        p.submit(dp(ts=200_000_000))  # past the heartbeat: re-emitted
        assert p.stop()
        assert len(sink.success_log) == 2

    def test_line_shape(self, tmp_path):
        sink = ScriptedSink()
        p = Pipeline(fast_config(tmp_path), sink=sink).start()
        p.submit(
            dp("aranet-01", "co2", 618.0, 1623139200000000000, {"room": "A1", "model": "a4"})
        )
        assert p.stop()
        measurement, tags, fields, ts = parse_line(sink.success_log[0])
        assert measurement == "co2"
        assert tags == {"device": "aranet-01", "room": "A1", "model": "a4"}
        assert fields == {"value": 618.0}
        assert ts == 1623139200000000000

    def test_alert_tap_sees_points_before_dedup(self, tmp_path):
        class Tap:
            def __init__(self):
                self.seen = []

            def observe(self, dp):
                self.seen.append(dp)

        tap = Tap()
        sink = ScriptedSink()
        p = Pipeline(fast_config(tmp_path), sink=sink, alert_engine=tap).start()
        for i in range(3):
            p.submit(dp(ts=i))
        assert p.stop()
        assert len(tap.seen) == 3
        assert len(sink.success_log) == 1

    def test_alert_tap_errors_cannot_break_intake(self, tmp_path):
        class Broken:
            def observe(self, dp):
                raise RuntimeError("boom")

        sink = ScriptedSink()
        p = Pipeline(fast_config(tmp_path), sink=sink, alert_engine=Broken()).start()
        p.submit(dp())
        assert p.stop()
        assert len(sink.success_log) == 1
        assert p.alert_errors == 1


class TestShedding:
    def test_capacity_overflow_sheds_oldest(self, tmp_path):
        cfg = fast_config(tmp_path, buffer_capacity=10, batch_size=10)
        p = Pipeline(cfg, sink=ScriptedSink())  # flusher not started: sink down
        results = [p.submit(dp(value=float(i), ts=i)) for i in range(11)]
        assert results == [True] * 10 + [False]
        assert p.shed == 1
        assert p.buffer_depth == 10

    def test_intake_closed_after_stop(self, tmp_path):
        p = Pipeline(fast_config(tmp_path), sink=ScriptedSink()).start()
        p.stop()
        assert p.submit(dp()) is False
        assert p.received == 0


class TestFlushing:
    def test_batch_by_size(self, tmp_path):
        sink = ScriptedSink()
        cfg = fast_config(tmp_path, batch_size=5, batch_age_ms=10_000)
        p = Pipeline(cfg, sink=sink).start()
        for i in range(10):
            p.submit(dp(value=float(i), ts=i))
        deadline = time.monotonic() + 5
        while len(sink.success_log) < 10 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert sink.calls == 2  # two full batches, no age-based flush needed
        p.stop()

    def test_batch_by_age(self, tmp_path):
        sink = ScriptedSink()
        cfg = fast_config(tmp_path, batch_size=1000, batch_age_ms=30)
        p = Pipeline(cfg, sink=sink).start()
        p.submit(dp())
        deadline = time.monotonic() + 5
        while not sink.success_log and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(sink.success_log) == 1  # flushed long before 1000 points
        p.stop()

    def test_retry_then_ack_delivers_exactly_once(self, tmp_path):
        sink = ScriptedSink([503, 503, 204])
        p = Pipeline(fast_config(tmp_path, retry_attempts=3), sink=sink).start()
        for i in range(7):
            p.submit(dp(value=float(i), ts=i))
        assert p.stop()
        assert sink.calls == 3
        assert len(sink.success_log) == 7
        assert len(set(sink.success_log)) == 7
        assert p.flush_failures == 0
        assert p.delivered == 7

    def test_exhausted_retries_return_points_to_buffer(self, tmp_path):
        sink = ScriptedSink([503, 503, 204])
        p = Pipeline(fast_config(tmp_path, retry_attempts=2), sink=sink)  # manual flush
        p.submit(dp())
        p.start()
        deadline = time.monotonic() + 5
        while p.delivered < 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        # first cycle burned 2 attempts (503, 503) and requeued; second delivered
        assert p.flush_failures == 1
        assert p.delivered == 1
        assert len(sink.success_log) == 1
        p.stop()

    def test_network_errors_count_as_transient(self, tmp_path):
        sink = ScriptedSink(["raise", 204])
        p = Pipeline(fast_config(tmp_path, retry_attempts=3), sink=sink).start()
        p.submit(dp())
        assert p.stop()
        assert p.delivered == 1

    def test_400_quarantines_to_dead_letter(self, tmp_path):
        sink = ScriptedSink([400, 204])
        cfg = fast_config(tmp_path)
        p = Pipeline(cfg, sink=sink).start()
        p.submit(dp(value=1.0, ts=1))
        deadline = time.monotonic() + 5
        while p.dead_lettered < 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        p.submit(dp(value=2.0, ts=2))  # pipeline keeps going
        assert p.stop()
        assert p.dead_lettered == 1
        assert p.delivered == 1
        content = (tmp_path / "dead.lp").read_text()
        assert content.startswith("# quarantined batch: sink returned 400")
        assert "value=1" in content

    def test_drain_waits_for_a_batch_in_flight(self, tmp_path):
        class Held(Pipeline):
            """Holds each batch between taking it and flushing it."""

            def __init__(self, *a, **kw):
                super().__init__(*a, **kw)
                self.taken = threading.Event()
                self.release = threading.Event()

            def _take_batch(self):
                batch = super()._take_batch()
                if batch:
                    self.taken.set()
                    self.release.wait(5)
                return batch

        sink = ScriptedSink()
        p = Held(fast_config(tmp_path), sink=sink).start()
        p.submit(dp())
        assert p.taken.wait(5)
        threading.Timer(0.4, p.release.set).start()
        assert p.stop(drain_timeout_s=0.2) is False  # the batch was still held
        assert p.release.is_set()
        assert len(sink.success_log) == 1

    def test_failed_dead_letter_write_keeps_flusher_alive(self, tmp_path):
        sink = ScriptedSink([400])
        cfg = fast_config(tmp_path, dead_letter_path=str(tmp_path / "missing" / "dead.lp"))
        p = Pipeline(cfg, sink=sink).start()
        p.submit(dp(value=1.0, ts=1))
        deadline = time.monotonic() + 5
        while p.counters()["dead_letter_errors"] < 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert p.counters()["dead_letter_errors"] >= 1
        assert p.dead_lettered == 0
        assert p._flusher.is_alive()
        sink.script = [204]
        p.submit(dp(value=2.0, ts=2))
        assert p.stop()
        assert [parse_line(line)[2]["value"] for line in sink.success_log] == [1.0, 2.0]

    def test_idle_flusher_does_not_poll(self, tmp_path):
        class Counting(Pipeline):
            entries = 0

            def _take_batch(self):
                self.entries += 1
                return super()._take_batch()

        p = Counting(fast_config(tmp_path), sink=ScriptedSink()).start()
        time.sleep(0.3)
        entries = p.entries
        assert p.stop()
        assert entries <= 1

    def test_file_sink_appends_parseable_lines(self, tmp_path):
        cfg = fast_config(tmp_path)
        p = Pipeline(cfg).start()  # real FileSink from config
        p.submit(dp("m-1", "power", 1500.5, 77, {"model": "meter"}))
        p.submit(dp("m-1", "power", 1501.5, 78, {"model": "meter"}))
        assert p.stop()
        lines = (tmp_path / "out.lp").read_text().strip().split("\n")
        assert len(lines) == 2
        for line in lines:
            measurement, tags, fields, _ = parse_line(line)
            assert measurement == "power"
            assert tags["device"] == "m-1"

    def test_file_sink_failed_write_leaves_no_partial_batch(self, tmp_path):
        # The child lowers its own file size limit (RLIMIT_FSIZE) so that the
        # write fails part way, as it would on a full disk, then lifts it and
        # retries the same batch.
        child = """
import errno, os, resource, signal, sys
from telegw.pipeline import FileSink
lines = [f"m,device=d{i} value={i}.5 1700000000000000000" for i in range(200)]
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
resource.setrlimit(resource.RLIMIT_FSIZE, (3000, hard))
sink = FileSink(sys.argv[1])
try:
    sink.write(lines)
    sys.exit("a write past the size limit did not fail")
except OSError as e:
    assert e.errno == errno.EFBIG, e
print(os.path.getsize(sys.argv[1]))
resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
sink.write(lines)
"""
        path = tmp_path / "out.lp"
        path.write_text("m,device=d value=0 1\n")
        src = os.path.dirname(os.path.dirname(telegw.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", child, str(path)],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [str(len("m,device=d value=0 1\n"))]
        assert path.read_text().splitlines() == ["m,device=d value=0 1"] + [
            f"m,device=d{i} value={i}.5 1700000000000000000" for i in range(200)
        ]

    def test_failed_quarantine_write_leaves_the_dead_letter_file_as_it_was(self, tmp_path):
        # As above, the child lowers its file size limit so that quarantining
        # a rejected batch fails part way; the flusher's 1 s backoff leaves
        # time to read the file and lift the limit before the retry.
        child = """
import os, resource, signal, sys, time
from telegw.model import DataPoint, Value
from telegw.pipeline import Pipeline, SinkConfig

class Rejecting:
    def write(self, lines):
        return 400

def wait_for(counter, n):
    deadline = time.monotonic() + 10
    while p.counters()[counter] < n:
        assert time.monotonic() < deadline, p.counters()
        time.sleep(0.01)

dead = sys.argv[1]
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
resource.setrlimit(resource.RLIMIT_FSIZE, (os.path.getsize(dead) + 1000, hard))
cfg = SinkConfig(path=os.devnull, batch_size=200, retry_attempts=1, retry_backoff_ms=1000,
                 dead_letter_path=dead)
p = Pipeline(cfg, sink=Rejecting())
for i in range(200):
    p.submit(DataPoint(f"d{i}", "m", Value.real(i + 0.5), "", 1700000000000000000, {}))
p.start()
wait_for("dead_letter_errors", 1)
print(os.path.getsize(dead))
resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
wait_for("dead_lettered", 200)
assert p.stop()
"""
        path = tmp_path / "dead.lp"
        before = "# quarantined batch: sink returned 400, 1 lines\nm,device=d value=0 1\n"
        path.write_text(before)
        src = os.path.dirname(os.path.dirname(telegw.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", child, str(path)],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [str(len(before))]
        assert path.read_text().splitlines() == before.splitlines() + [
            "# quarantined batch: sink returned 400, 200 lines"
        ] + [f"m,device=d{i} value={i}.5 1700000000000000000" for i in range(200)]


class TestIntakeRejects:
    def test_non_finite_reals_are_rejected(self, tmp_path):
        sink = ScriptedSink()
        p = Pipeline(fast_config(tmp_path), sink=sink)  # one batch: flusher starts last
        for i, x in enumerate([math.nan, math.nan, 1.0, math.inf]):
            p.submit(dp(value=x, ts=i))
        p.submit(dp(entity="dev-2", value=5.0, ts=0))
        p.start()
        assert p.stop()
        assert sink.calls == 1
        assert [(parse_line(line)[1]["device"], parse_line(line)[2]["value"])
                for line in sink.success_log] == [("dev-1", 1.0), ("dev-2", 5.0)]
        c = p.counters()
        assert c["rejected_non_finite"] == 3
        assert (c["received"], c["emitted"], c["delivered"]) == (5, 2, 2)

    @pytest.mark.parametrize(
        "bad",
        [
            dp(entity="bad", tags={"room": "A\n1"}),
            dp(entity="bad", param="state", value=Value.text("open\r\nclosed")),
            dp(entity="bad", tags={"": "x"}),
        ],
        ids=["tag-line-break", "text-line-break", "empty-tag-key"],
    )
    def test_unrenderable_point_is_rejected_and_flusher_lives(self, tmp_path, bad):
        sink = ScriptedSink()
        p = Pipeline(fast_config(tmp_path), sink=sink).start()
        assert p.submit(bad) is False
        p.submit(dp(entity="good", ts=1))
        deadline = time.monotonic() + 2
        while not sink.success_log and time.monotonic() < deadline:
            time.sleep(0.01)
        assert p._flusher.is_alive()
        assert p.stop()
        assert [parse_line(line)[1]["device"] for line in sink.success_log] == ["good"]
        c = p.counters()
        assert (c["rejected_unrenderable"], c["received"], c["emitted"]) == (1, 2, 1)

    def test_timestamp_beyond_int64_is_rejected_not_written(self, tmp_path):
        sink = ScriptedSink()
        p = Pipeline(fast_config(tmp_path), sink=sink)
        assert p.submit(dp(entity="far", ts=99999999999999999999999)) is False
        assert p.submit(dp(entity="near", ts=2**63 - 1)) is True
        p.start()
        assert p.stop()
        assert [parse_line(line)[1]["device"] for line in sink.success_log] == ["near"]
        c = p.counters()
        assert (c["rejected_unrenderable"], c["received"], c["delivered"]) == (1, 2, 1)


_lp_text = st.text(alphabet=st.sampled_from('ab1 ,=\\"é_'), max_size=6)
_lp_name = st.text(alphabet=st.sampled_from('ab1 ,=\\"é_'), min_size=1, max_size=6)
_lp_tags = st.dictionaries(st.one_of(st.just("device"), _lp_name), _lp_text, max_size=3)
_lp_value = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(Value.real),
    st.just(Value.real(618.0)),
    st.booleans().map(Value.flag),
    _lp_text.map(Value.text),
)


@settings(max_examples=150, deadline=None)
@given(
    tag_sets=st.lists(_lp_tags, min_size=1, max_size=3),
    points=st.lists(
        st.tuples(
            st.sampled_from(["dev-1", "dev 2,=x"]), _lp_name, _lp_value,
            st.integers(0, 2), st.booleans(),
        ),
        min_size=1,
        max_size=12,
    ),
)
def test_written_lines_match_reference_renderer(tmp_path_factory, tag_sets, points):
    # One entity's tags object changes between points, sometimes to an equal
    # copy, so both branches of the per-entity segment cache are taken.
    sink = ScriptedSink()
    p = Pipeline(fast_config(tmp_path_factory.mktemp("lp")), sink=sink)
    want = []
    for i, (entity, name, value, pick, copy) in enumerate(points):
        tags = tag_sets[pick % len(tag_sets)]
        tags = dict(tags) if copy else tags
        measurement = f"{name}{i}"  # a series of its own: every point is emitted
        p.submit(DataPoint(entity, measurement, value, "", i, tags))
        want.append(to_line(LineRecord(measurement, {"device": entity, **tags}, {"value": value}, i)))
    p.start()
    assert p.stop()
    assert sink.success_log == want



# Each list mixes valid inputs with ones that break one point rule, among
# them every case where the intake check and validate_datapoint once
# disagreed: an empty entity, an over-long text, a bool real, an int flag, a
# float timestamp and a parameter holding a line break.
_rule_entities = st.sampled_from(["dev-1", "dev 2", "", "dev\n3", 7, ["dev-1"]])
_rule_tags = st.sampled_from(
    [{}, {"room": "A1"}, {"model": "m"}, {"room": "A\n1"}, {"": "x"}, {"room": 7}]
)
_rule_params = st.sampled_from(["co2", "rh ,=", "", "a\nb", "c\r"])
_rule_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(Value.real),
    st.sampled_from(
        [
            Value.real(math.nan),
            Value.real(-math.inf),
            Value("real", 5),
            Value("real", True),
            Value("real", "5"),
            Value("flag", 1),
            Value.flag(False),
            Value.text("x" * MAX_TEXT_LEN),
            Value.text("x" * 5000),
            Value.text("a\nb"),
            Value("text", 5),
            Value("bogus", 1.0),
        ]
    ),
)
_rule_stamps = st.one_of(st.integers(0, 10**18), st.just(1.5))


@settings(max_examples=200, deadline=None)
@given(
    points=st.lists(
        st.tuples(_rule_entities, _rule_tags, _rule_params, _rule_values, _rule_stamps),
        min_size=1,
        max_size=20,
    )
)
def test_intake_rejects_exactly_what_validate_datapoint_rejects(tmp_path_factory, points):
    sink = ScriptedSink()
    cfg = fast_config(tmp_path_factory.mktemp("rules"), batch_size=100, buffer_capacity=100)
    p = Pipeline(cfg, sink=sink)
    want = []
    for i, (entity, tags, param, value, ts) in enumerate(points):
        # a series of its own, so every accepted point is emitted
        point = DataPoint(entity, f"{param}{i}" if param else "", value, "", ts, tags)
        try:
            validate_datapoint(point)
            error = None
        except ModelError as e:
            error = e
        before = p.counters()
        accepted = p.submit(point)
        after = p.counters()
        assert accepted is (error is None), (point, error)
        non_finite = after["rejected_non_finite"] - before["rejected_non_finite"]
        unrenderable = after["rejected_unrenderable"] - before["rejected_unrenderable"]
        if error is None:
            assert (non_finite, unrenderable) == (0, 0)
            record = LineRecord(point.parameter, {"device": entity, **tags}, {"value": value}, ts)
            want.append(to_line(record))
        else:
            assert non_finite + unrenderable == 1
            assert non_finite == isinstance(error, NonFiniteValue)
    p.start()
    assert p.stop()
    assert sink.success_log == want

class _Tap:
    """An alert tap that raises for one parameter."""

    def observe(self, dp):
        if dp.parameter == "boom":
            raise RuntimeError("alert rule failed")


_GOOD_TAGS = {"model": "m"}
_BAD_TAGS = {"room": "A\n1"}
_law_points = st.lists(
    st.tuples(
        st.sampled_from(["d1", "d2", "d3"]),
        st.sampled_from([_GOOD_TAGS, _GOOD_TAGS, _BAD_TAGS]),
        st.sampled_from(["co2", "rh", "boom"]),
        st.sampled_from(
            [Value.real(1.0), Value.real(2.0), Value.real(math.nan), Value.real(math.inf),
             Value.flag(True), Value.text("x\ny")]
        ),
        st.integers(0, 6),  # seconds; a small range gives repeats and regressions
    ),
    max_size=60,
)


@settings(max_examples=60, deadline=None)
@given(
    points=_law_points,
    split=st.integers(0, 60),
    batch_size=st.integers(1, 4),
    spare=st.integers(0, 4),
    heartbeat_s=st.sampled_from([0.0, 2.0]),
    # a sink script's last status repeats; 503 and "raise" (an OSError) are retried
    script=st.lists(st.sampled_from([204, 400, 503, "raise"]), min_size=1, max_size=6),
)
def test_counters_balance(tmp_path_factory, points, split, batch_size, spare, heartbeat_s, script):
    cfg = fast_config(
        tmp_path_factory.mktemp("laws"), batch_size=batch_size, buffer_capacity=batch_size + spare
    )
    p = Pipeline(cfg, sink=ScriptedSink(script), heartbeat_s=heartbeat_s, alert_engine=_Tap())

    def intake_balances():
        c = p.counters()
        assert c["received"] == (
            c["rejected_non_finite"] + c["rejected_unrenderable"]
            + c["regressions"] + c["unchanged"] + c["emitted"]
        ), c
        return c

    def output_balances():
        c = intake_balances()
        assert c["emitted"] == c["delivered"] + c["dead_lettered"] + c["shed"] + c["buffer_depth"], c
        return c

    accepted, series = [], {}
    for i, (entity, tags, param, value, sec) in enumerate(points):
        if i == split:
            output_balances()  # the flusher has not run: only shedding drained the buffer
            p.start()
        point = DataPoint(entity, param, value, "", sec * 10**9, tags)
        p.submit(point)
        intake_balances()
        try:
            validate_datapoint(point)
        except ModelError:
            continue
        accepted.append(point)
        series.setdefault(entity, set()).add(param)
    if split >= len(points):
        output_balances()
        p.start()
    settles = script[-1] in (204, 400)  # else the sink never takes the rest
    drained = p.stop(drain_timeout_s=5.0 if settles else 0.05)
    c = output_balances()
    assert c["received"] == len(points)
    if settles:
        assert drained
        assert c["buffer_depth"] == 0
    assert c["alert_errors"] == sum(1 for q in accepted if q.parameter == "boom")
    entities = p.rate_stats().entities
    assert {e: counts.params for e, counts in entities.items()} == series
    assert sum(counts.received for counts in entities.values()) == len(accepted)
    assert sum(counts.emitted for counts in entities.values()) == c["emitted"]


def test_rate_stats_params_are_the_filter_series(tmp_path):
    p = Pipeline(fast_config(tmp_path), sink=ScriptedSink())
    p.submit(dp("d1", "co2", 1.0, ts=10))
    p.submit(dp("d1", "rh", 1.0, ts=10))
    p.submit(dp("d2", "co2", 1.0, ts=10))
    p.submit(dp("d1", "co2", 2.0, ts=5))  # a clock regression: dropped, no new series
    p.submit(dp("d1", "temp", 2.0, ts=5))  # older than d1's other series, but a new one
    p.submit(dp("d2", "co2", float("nan"), ts=20))  # rejected: touches no series
    c = p.counters()
    assert (c["regressions"], c["rejected_non_finite"], c["emitted"]) == (1, 1, 4)
    entities = p.rate_stats().entities
    assert {e: counts.params for e, counts in entities.items()} == {
        "d1": {"co2", "rh", "temp"},
        "d2": {"co2"},
    }
    assert {e: counts.received for e, counts in entities.items()} == {"d1": 4, "d2": 1}


class _NullSink:
    def write(self, lines):
        return 204


def test_retained_memory_per_series(tmp_path):
    # 1500 devices x 24 parameters through intake into a sink that keeps
    # nothing. Per series the pipeline keeps the change filter's state; the
    # rest is per entity. Points, and the entity string of each message, are
    # made inside the measured region, as a subscriber makes them.
    n_entities, names = 1500, [f"field_{j:02d}" for j in range(24)]
    tags = {"model": "churn"}  # one binding's tags, shared by its devices
    cfg = fast_config(tmp_path, batch_size=500, buffer_capacity=10_000)
    p = Pipeline(cfg, sink=_NullSink()).start()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(n_entities):
            entity, ts = f"churn-{i:04d}", 1_700_000_000_000_000_000 + i
            for j, name in enumerate(names):
                p.submit(DataPoint(entity, name, Value.real(i + j / 32), "", ts, tags))
        assert p.drain(30)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        p.stop()
    assert p.counters()["emitted"] == n_entities * len(names)
    per_series = retained / (n_entities * len(names))
    assert per_series < 250, f"{per_series:.0f} bytes retained per series"


class TestConcurrentProducers:
    def test_counts_and_delivery_stay_exact(self, tmp_path):
        # Each round every producer submits every series, in its own order and
        # twice over, all with the round's value: exactly one point per series
        # and round is a change, whichever producer's point arrives first.
        producers, series, rounds, repeats = 4, 40, 25, 2
        sink = ScriptedSink()
        cfg = fast_config(tmp_path, batch_size=100, buffer_capacity=10**5)
        p = Pipeline(cfg, sink=sink).start()
        barrier = threading.Barrier(producers)

        def produce(seed):
            rng = random.Random(seed)
            for r in range(rounds):
                order = list(range(series)) * repeats
                rng.shuffle(order)
                for s in order:
                    p.submit(dp(f"d{s % 10}", f"p{s // 10}", float(r), ts=r, tags={"model": "m"}))
                barrier.wait(10)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=produce, args=(i,)) for i in range(producers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert p.stop()
        submitted = producers * series * rounds * repeats
        changes = series * rounds
        c = p.counters()
        assert (c["received"], c["emitted"], c["delivered"], c["shed"]) == (
            submitted, changes, changes, 0)
        got = sorted(
            (tags["device"], m, fields["value"], ts)
            for m, tags, fields, ts in map(parse_line, sink.success_log)
        )
        assert got == sorted(
            (f"d{s % 10}", f"p{s // 10}", float(r), r) for s in range(series) for r in range(rounds)
        )
        entities = p.rate_stats().entities
        assert sum(e.received for e in entities.values()) == submitted
        assert sum(e.emitted for e in entities.values()) == changes
        assert sum(len(e.params) for e in entities.values()) == series


    def test_alert_events_match_a_single_threaded_replay(self, tmp_path):
        # Each producer owns its entities, so each (rule, entity) sees its
        # points in one order whatever the interleaving.
        producers, entities, steps = 4, 5, 150
        rules = [
            AlertRule("high", "co2", GT, 1000.0, for_duration=2.0, cooldown=5.0, clear_margin=0.05),
            AlertRule("low", "co2", LT, 400.0),
        ]

        def stream(i):
            rng = random.Random(i)
            return [
                dp(f"p{i}-d{e}", "co2", rng.choice((300.0, 700.0, 1100.0, 1200.0)), ts=t * 10**9)
                for t in range(steps)
                for e in range(entities)
            ]

        class Collect:
            def __init__(self):
                self.events = []

            def notify(self, event):
                self.events.append(event)
                return True

        collect = Collect()
        engine = AlertEngine(rules, [collect])
        p = Pipeline(fast_config(tmp_path), sink=ScriptedSink(), alert_engine=engine).start()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=p.submit_many, args=(stream(i),)) for i in range(producers)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert p.stop()
        engine.stop()
        replay = AlertEngine(rules)
        expected = [ev for i in range(producers) for point in stream(i) for ev in replay.observe(point)]

        def by_key(events):
            out = {}
            for ev in events:
                out.setdefault((ev.rule_id, ev.entity), []).append(ev)
            return out

        assert len(expected) > 100
        assert by_key(collect.events) == by_key(expected)
        assert engine.events_total == len(collect.events)


class TestIntakeLock:
    def test_submit_takes_one_lock_once(self, tmp_path):
        # Count every acquisition of every lock the pipeline and its alert
        # engine made, whichever object holds it.
        real_lock = threading.Lock
        taken = []

        class CountingLock:
            def __init__(self):
                self._lock = real_lock()

            def acquire(self, blocking=True, timeout=-1):
                taken.append(1)
                return self._lock.acquire(blocking, timeout)

            __enter__ = acquire

            def release(self):
                self._lock.release()

            def __exit__(self, *exc):
                self._lock.release()

            def _is_owned(self):  # Condition's ownership probe, not an acquisition
                if self._lock.acquire(False):
                    self._lock.release()
                    return False
                return True

        rules = [AlertRule("high", "co2", GT, 1000.0), AlertRule("low", "co2", LT, 400.0)]
        with pytest.MonkeyPatch.context() as m:
            m.setattr(threading, "Lock", CountingLock)
            p = Pipeline(fast_config(tmp_path), sink=ScriptedSink(), alert_engine=AlertEngine(rules))
        for point in (dp(param="co2", ts=1), dp(param="rh", ts=1), dp(param="co2", value=1.0, ts=2)):
            before = len(taken)
            assert p.submit(point)
            assert len(taken) - before == 1, point
        assert p.alert_engine.events_total == 1  # the last point fired "low"


class TestConfigValidation:
    def test_mode_requirements(self, tmp_path):
        with pytest.raises(ValueError):
            SinkConfig(mode="http")  # no url
        with pytest.raises(ValueError):
            SinkConfig(mode="file", path=None)
        with pytest.raises(ValueError):
            SinkConfig(mode="kafka", path="x")

    def test_capacity_floor(self):
        with pytest.raises(ValueError):
            SinkConfig(path="x", batch_size=100, buffer_capacity=50)

    def test_token_env_resolution(self, monkeypatch):
        cfg = SinkConfig(mode="http", url="http://sink/api", token_env="SINK_TOK")
        monkeypatch.delenv("SINK_TOK", raising=False)
        with pytest.raises(ValueError):
            cfg.build_sink()
        monkeypatch.setenv("SINK_TOK", "t0k")
        assert cfg.build_sink().token == "t0k"


class _WriteEndpoint(BaseHTTPRequestHandler):
    """A line protocol write endpoint: records each POST, answers ``status``."""

    status = 204
    writes = []  # (headers, body) per request

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        self.writes.append((dict(self.headers), body))
        self.send_response(self.status)
        self.send_header("Content-Length", "0")
        self.end_headers()

    def log_message(self, *args):
        pass


@pytest.fixture
def write_endpoint():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _WriteEndpoint)
    _WriteEndpoint.status = 204
    _WriteEndpoint.writes = []
    threading.Thread(target=server.serve_forever, daemon=True).start()
    yield f"http://127.0.0.1:{server.server_address[1]}/api/v2/write", _WriteEndpoint
    server.shutdown()
    server.server_close()


class TestHttpSink:
    def test_write_posts_the_lines_with_type_and_token(self, write_endpoint):
        url, endpoint = write_endpoint
        assert HttpSink(url, "t0k").write(["co2 value=612 1", "co2 value=613 2"]) == 204
        [(headers, body)] = endpoint.writes
        assert body == b"co2 value=612 1\nco2 value=613 2\n"
        assert headers["Content-Type"] == "text/plain; charset=utf-8"
        assert headers["Authorization"] == "Token t0k"

    @pytest.mark.parametrize("status", [200, 400, 503])
    def test_write_returns_the_status(self, write_endpoint, status):
        url, endpoint = write_endpoint
        endpoint.status = status
        assert HttpSink(url).write(["co2 value=612 1"]) == status
        [(headers, _)] = endpoint.writes
        assert "Authorization" not in headers

    def test_gateway_delivers_a_point_to_an_http_sink(self, write_endpoint, tmp_path):
        url, endpoint = write_endpoint
        config = tmp_path / "gw.yaml"
        config.write_text(
            f"gateway: {{health_port: 0}}\nsink: {{mode: http, url: '{url}', batch_age_ms: 20}}\n"
        )
        gw = Gateway(load_config(str(config))).start()
        try:
            assert gw.pipeline.submit(dp(value=612.0, ts=1))
            deadline = time.monotonic() + 5
            while gw.pipeline.counters()["delivered"] < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
        finally:
            gw.stop()
        assert gw.pipeline.counters()["delivered"] == 1
        assert [body for _, body in endpoint.writes] == [b"co2,device=dev-1 value=612 1\n"]


TABLE_ROWS = [
    # (kind, devices, params each, emitted over a 100 h window)
    ("aranet4-pro", 52, 6, 221886),
    ("air-quality", 14, 8, 24947),
    ("motion", 62, 10, 64116),
    ("humidity", 4, 4, 1953),
    ("smoke", 9, 2, 873),
    ("co2-node", 11, 6, 12455),
    ("ctrl-cs", 1, 2, 1241),
    ("ctrl-pavilion", 1, 16, 2217),
    ("ctrl-normal", 1, 3, 3948),
    ("ctrl-rector-1", 1, 77, 15159),
    ("ctrl-rector-2", 1, 34, 5721),
    ("radon-eye", 2, 3, 1246),
    ("pv-inverter", 1, 2, 11492),
    ("pv-cloud", 1, 3, 1405),
    ("itr-meter", 1, 29, 4903),
    ("cem-c31", 12, 23, 1906515),
    ("cirwatt-b", 1, 29, 220653),
]


def table_stats() -> RateStats:
    entities = {}
    for kind, n, params, emitted in TABLE_ROWS:
        share, rem = divmod(emitted, n)
        for i in range(n):
            entities[f"{kind}-{i}"] = EntityCounts(
                kind,
                {f"p{j}" for j in range(params)},
                received=share + (1 if i < rem else 0),
                emitted=share + (1 if i < rem else 0),
            )
    return RateStats(entities, 0, 100 * 3600 * 10**9)


class TestRateReport:
    def test_full_fleet_report(self):
        rows = report_rates(table_stats())
        by_kind = {r["device_kind"]: r for r in rows}
        aranet = by_kind["aranet4-pro"]
        assert aranet["n_devices"] == 52
        assert aranet["params_per_device"] == 6
        assert aranet["total_params"] == 312
        assert aranet["avg_points_per_hour"] == pytest.approx(2218.86)
        # 2218.86 / 52 = 42.6704, displayed rounded as 42.67
        assert aranet["avg_points_per_hour_per_device"] == pytest.approx(2218.86 / 52)
        assert round(aranet["avg_points_per_hour_per_device"], 2) == 42.67
        meters = by_kind["cem-c31"]
        assert meters["avg_points_per_hour_per_device"] == pytest.approx(1588.7625)

    def test_totals_row_is_exact_sum(self):
        rows = report_rates(table_stats())
        total = rows[-1]
        body = rows[:-1]
        assert total["device_kind"] == "total"
        assert total["n_devices"] == sum(r["n_devices"] for r in body) == 175
        assert total["total_params"] == sum(r["total_params"] for r in body) == 1621
        assert total["avg_points_per_hour"] == sum(r["avg_points_per_hour"] for r in body)
        assert total["avg_points_per_hour"] == pytest.approx(25007.30)
        assert total["avg_points_per_hour_per_device"] is None

    def test_zero_point_device(self):
        stats = RateStats({"d": EntityCounts("k", {"p"}, 0, 0)}, 0, 3600 * 10**9)
        rows = report_rates(stats)
        assert rows[0]["avg_points_per_hour"] == 0.0

    def test_empty_window(self):
        with pytest.raises(EmptyWindow):
            report_rates(RateStats({}, 5, 5))

    def test_pipeline_feeds_the_report(self, tmp_path):
        p = Pipeline(fast_config(tmp_path), sink=ScriptedSink()).start()
        for i in range(10):
            p.submit(dp("d1", "co2", float(i), ts=i, tags={"model": "aranet4"}))
            p.submit(dp("d1", "co2", float(i), ts=i + 1000, tags={"model": "aranet4"}))
        p.stop()
        rows = report_rates(p.rate_stats(), window_s=3600)
        assert rows[0]["device_kind"] == "aranet4"
        assert rows[0]["avg_points_per_hour"] == 10.0  # half were duplicates


class TestScheduler:
    def test_jitter_bounds_and_mean(self):
        schedule = PollSchedule(10.0, jitter=0.2)
        rng = random.Random(42)
        delays = [schedule.next_delay(rng) for _ in range(10_000)]
        assert all(8.0 <= d <= 12.0 for d in delays)
        mean = sum(delays) / len(delays)
        assert abs(mean - 10.0) / 10.0 < 0.01

    def test_no_jitter_is_exact(self):
        schedule = PollSchedule(7.5)
        assert schedule.next_delay(random.Random(0)) == 7.5

    def test_jobs_run_and_failures_counted(self):
        runs = []

        def ok_job():
            runs.append(1)

        def bad_job():
            raise RuntimeError("device offline")

        sched = Scheduler()
        sched.add("ok", PollSchedule(0.02), ok_job)
        sched.add("bad", PollSchedule(0.02), bad_job)
        sched.start()
        time.sleep(0.3)
        sched.stop()
        assert sched.job_runs["ok"] >= 5
        assert sched.job_errors["bad"] >= 5
        assert sched.job_runs["bad"] == 0

    @staticmethod
    def _starts(job_s, polls: int) -> list[float]:
        """When each of a job's first ``polls`` polls started, under
        ``PollSchedule(0.05)``; ``job_s(i)`` is how long poll ``i`` takes."""
        starts: list[float] = []

        def job():
            starts.append(time.monotonic())
            time.sleep(job_s(len(starts) - 1))

        sched = Scheduler()
        sched.add("meter-1", PollSchedule(0.05), job)
        sched.start()
        deadline = time.monotonic() + 5
        while len(starts) < polls and time.monotonic() < deadline:
            time.sleep(0.005)
        sched.stop()
        assert len(starts) >= polls
        return starts[:polls]

    def test_polls_start_one_interval_apart_however_long_they_take(self):
        starts = self._starts(lambda i: 0.03, 9)
        mean_gap = (starts[-1] - starts[0]) / 8
        assert 0.049 <= mean_gap < 0.065, f"polls started {mean_gap * 1000:.1f} ms apart"

    def test_a_poll_that_overran_is_followed_at_once_and_not_by_a_burst(self):
        starts = self._starts(lambda i: 0.12 if i == 0 else 0.0, 3)
        assert starts[1] - starts[0] < 0.12 + 0.03  # at once, not an interval after the end
        assert starts[2] - starts[1] >= 0.049  # the timeline restarted: no catch-up

    def test_a_name_is_added_once(self):
        sched = Scheduler()
        sched.add("meter-1", PollSchedule(1), lambda: None)
        with pytest.raises(ValueError, match="'meter-1'"):
            sched.add("meter-1", PollSchedule(1), lambda: None)
        assert list(sched.records()) == ["meter-1"]
        assert len(sched._jobs) == 1

    def test_a_jobs_jitter_draws_do_not_depend_on_the_jobs_beside_it(self, monkeypatch):
        next_delay = PollSchedule.next_delay

        def first_draws(names: list[str]) -> list[float]:
            """The first 10 delays drawn for meter-1, added among ``names``."""
            schedules = {name: PollSchedule(0.001, jitter=0.5) for name in names}
            draws = {id(s): [] for s in schedules.values()}

            def recorded(schedule, rng):
                delay = next_delay(schedule, rng)
                draws[id(schedule)].append(delay)
                return delay

            monkeypatch.setattr(PollSchedule, "next_delay", recorded)
            sched = Scheduler()
            for name, schedule in schedules.items():
                sched.add(name, schedule, lambda: None)
            mine = draws[id(schedules["meter-1"])]
            sched.start()
            try:
                deadline = time.monotonic() + 5
                while len(mine) < 10 and time.monotonic() < deadline:
                    time.sleep(0.005)
            finally:
                sched.stop()
            assert len(mine) >= 10
            return mine[:10]

        assert first_draws(["meter-1"]) == first_draws(["meter-2", "meter-1"])

    def test_failures_log_once_per_state_change(self, caplog):
        calls = itertools.count()

        def flaky():
            if next(calls) < 5:
                raise OSError("device offline")

        sched = Scheduler()
        sched.add("flaky", PollSchedule(0.005), flaky)
        with caplog.at_level(logging.INFO, logger="telegw.pipeline"):
            sched.start()
            try:
                deadline = time.monotonic() + 2
                while sched.job_runs["flaky"] < 3 and time.monotonic() < deadline:
                    time.sleep(0.005)
            finally:
                sched.stop()
        assert sched.job_errors["flaky"] == 5
        assert sched.job_runs["flaky"] >= 3
        lines = [(r.levelno, r.getMessage()) for r in caplog.records if r.name == "telegw.pipeline"]
        assert lines == [
            (logging.WARNING, "poll flaky failed: OSError: device offline"),
            (logging.INFO, "poll flaky recovered after 5 failed polls"),
        ]

    def test_stop_waits_one_budget_for_all_jobs(self, monkeypatch):
        """Jobs their wake cannot unblock (an HTTP request in flight) share
        one join budget: k of them do not make stop() wait k times."""
        monkeypatch.setattr(telegw.pipeline, "STOP_JOIN_S", 0.3, raising=False)
        release = threading.Event()
        started = [threading.Event(), threading.Event()]
        sched = Scheduler()
        for i, entered in enumerate(started):

            def blocked(entered=entered):
                entered.set()
                release.wait()

            sched.add(f"blocked-{i}", PollSchedule(0.01), blocked)
        sched.start()
        try:
            assert all(entered.wait(2) for entered in started)
            t0 = time.monotonic()
            sched.stop()
            elapsed = time.monotonic() - t0
        finally:
            release.set()
        assert elapsed < 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            PollSchedule(0)
        with pytest.raises(ValueError):
            PollSchedule(10, jitter=1.0)
