"""Pipeline behavior: dedup routing, shedding, flush retry, accounting."""

import random
import sys
import threading
import time

import pytest

from telegw.model import DataPoint, Value
from telegw.pipeline import (
    EmptyWindow,
    EntityCounts,
    FileSink,
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

    def test_validation(self):
        with pytest.raises(ValueError):
            PollSchedule(0)
        with pytest.raises(ValueError):
            PollSchedule(10, jitter=1.0)
