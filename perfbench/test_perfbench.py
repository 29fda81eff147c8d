"""Tests of the benchmark's own arithmetic and oracle.

Run from the repository root: ``python3 -m unittest perfbench/test_perfbench.py``.
"""

from __future__ import annotations

import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import oracle  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_tail_needs_ten_samples_beyond(self):
        self.assertIsNone(stats.tail_percentile(19))
        self.assertEqual(stats.tail_percentile(20), 50.0)
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(999), 90.0)
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(10_000), 99.9)
        self.assertEqual(stats.tail_percentile(100_000), 99.99)

    def test_summary_reports_median_tail_and_count(self):
        s = stats.timing_summary(range(1, 1001))
        self.assertEqual(s["n"], 1000)
        self.assertEqual(s["p50"], 500.5)
        self.assertEqual(s["tail_p"], 99.0)
        self.assertAlmostEqual(s["tail"], 990.01)

    def test_percentile_interpolates(self):
        self.assertEqual(stats.percentile([3, 1, 2], 50), 2)
        self.assertEqual(stats.percentile([0, 10], 25), 2.5)
        self.assertEqual(stats.percentile([7], 99), 7)


class SelfTime(unittest.TestCase):
    def test_child_totals_sum_direct_children_only(self):
        parents = [-1, 0, 0, 2, -1]
        cpu = [100, 10, 30, 5, 7]
        self.assertEqual(stats.child_totals(parents, cpu), [40, 0, 5, 0, 0])

    def test_self_time_subtracts_children_not_grandchildren(self):
        parents = [-1, 0, 0, 2, -1]
        cpu = [100, 10, 30, 5, 7]
        self.assertEqual(stats.self_values(parents, cpu), [60, 10, 25, 5, 7])


class StallRules(unittest.TestCase):
    on_time = {"late_p99_ms": 2.0, "send_blocked_share": 0.0, "generator_cpu_share": 0.3}
    stalled = {"late_p99_ms": 60.0, "send_blocked_share": 0.0, "generator_cpu_share": 0.3}
    pushed_back = {"late_p99_ms": 60.0, "send_blocked_share": 0.6, "generator_cpu_share": 0.3}

    def test_slices_where_the_host_stalled_the_generator_are_left_out(self):
        slices = {k: [float(k)] * 5 for k in range(8)}
        generator = {k: self.on_time for k in range(8)}
        generator[2] = self.stalled
        generator[5] = self.pushed_back
        kept, stalled, dropped = run.unstalled(slices, generator)
        self.assertEqual((stalled, dropped), ({2}, {2}))
        self.assertNotIn(2.0, kept)
        self.assertIn(5.0, kept)
        self.assertEqual(len(kept), 35)

    def test_with_no_valid_slice_every_slice_counts(self):
        slices = {k: [1.0] for k in range(3)}
        kept, stalled, dropped = run.unstalled(slices, {k: self.stalled for k in range(3)})
        self.assertEqual((len(stalled), dropped, len(kept)), (3, set(), 3))

    def test_back_pressure_excuses_lateness_only_with_generator_headroom(self):
        step = {"late_p99_ms": 50.0, "send_blocked_share": 0.5, "generator_cpu_share": 0.5}
        self.assertTrue(run.generator_valid(step))
        self.assertFalse(run.generator_valid(dict(step, generator_cpu_share=0.95)))
        self.assertFalse(run.generator_valid(dict(step, send_blocked_share=0.1)))
        self.assertTrue(run.generator_valid(dict(step, late_p99_ms=5.0, generator_cpu_share=1.0)))


class Rendering(unittest.TestCase):
    def test_reals_drop_redundant_zero(self):
        self.assertEqual(oracle.render_real(618.0), "618")
        self.assertEqual(oracle.render_real(21.4), "21.4")
        self.assertEqual(oracle.render_value(True), "true")

    def test_line_round_trips_through_parse(self):
        text = oracle.line("co2", [("device", "a-1"), ("model", "m")], 618.0, 5)
        self.assertEqual(text, "co2,device=a-1,model=m value=618 5")
        self.assertEqual(oracle.parse_line(text), ("co2", {"device": "a-1", "model": "m"}, "618", 5))


class AlertReplayRules(unittest.TestCase):
    rule = {"id": "r", "parameter": "x", "predicate": "gt", "threshold": 10,
            "for_duration_s": 1, "cooldown_s": 5, "clear_margin": 0.1}

    def feed(self, points):
        replay = oracle.AlertReplay([self.rule])
        for v, t in points:
            replay.observe("e", "x", {}, float(v), int(t * 1e9))
        return [(ev[0], ev[5] // 10**9) for ev in replay.events]

    def test_for_duration_then_hysteresis(self):
        events = self.feed([(11, 0), (11, 0.5), (11, 1), (9.5, 2), (8, 3)])
        self.assertEqual(events, [("fired", 1), ("recovered", 3)])

    def test_cooldown_suppresses_refire(self):
        events = self.feed([(11, 0), (11, 1), (8, 2), (11, 3), (11, 4.5), (11, 6), (11, 7)])
        self.assertEqual(events, [("fired", 1), ("recovered", 2), ("fired", 7)])

    def test_log_lines_parse_back(self):
        text = "telegw.alerts alert fired: rule=r entity=e parameter=x value=11.0 ts=7"
        self.assertEqual(oracle.parse_alert_log([text, "other line"]),
                         [("fired", "r", "e", "x", "11.0", 7)])


class OracleAgainstGateway(unittest.TestCase):
    """The oracle must agree with the gateway's own parse -> alert -> filter ->
    line path on a seeded stream; this is what makes a mismatch in a run
    the gateway's fault."""

    def test_fleet_stream_matches_pipeline_output(self):
        from telegw.alerts import AlertEngine, AlertRule
        from telegw.ingest import FieldSpec, TopicBinding, parse_payload
        from telegw.pipeline import Pipeline, SinkConfig

        wl = workloads.MQTT_FLEET
        binding = TopicBinding(
            f"{wl.topic_root}/+/data", "{1}",
            {f"/{p.name}": FieldSpec(p.name, wl.units[p.name]) for p in wl.params},
            timestamp_pointer="/ts", timestamp_unit="ns", tags={"model": wl.model_tag})
        rules = [
            AlertRule(id=r["id"], parameter=r["parameter"], predicate=r["predicate"],
                      threshold=float(r["threshold"]), entity=r.get("entity", "*"),
                      tags=r.get("tags", {}), for_duration=r.get("for_duration_s", 0.0),
                      cooldown=r.get("cooldown_s", 0.0), clear_margin=r.get("clear_margin", 0.0))
            for r in wl.rules
        ]
        class Collect:
            def __init__(self):
                self.events = []

            def notify(self, event):
                self.events.append(event)
                return True

        collect = Collect()
        engine = AlertEngine(rules, [collect])

        class Capture:
            def __init__(self):
                self.lines = []

            def write(self, lines):
                self.lines.extend(lines)
                return 204

        sink = Capture()
        with tempfile.TemporaryDirectory() as tmp:
            pipe = Pipeline(SinkConfig(mode="file", path=f"{tmp}/x.lp", buffer_capacity=10**6,
                                       batch_size=10**6), sink=sink, alert_engine=engine)
            stream = workloads.MqttStream(wl, seed=5)
            dues = [10**18 + k * 150_000_000 for k in range(6000)]
            for due in dues:
                topic, payload = stream.next_message(due)
                for dp in parse_payload(topic, payload, binding, now_ns=0):
                    pipe.submit(dp)
            pipe.start()
            pipe.stop(drain_timeout_s=10)
            engine.stop()

        expected, replay = oracle.mqtt_expected(
            workloads.MqttStream(wl, seed=5), dues, wl.model_tag, list(wl.rules))
        matched, bad, first = oracle.compare_lines(sink.lines, expected)
        self.assertEqual(bad, 0, first)
        self.assertGreater(matched, 6000)
        got = [(e.kind, e.rule_id, e.entity, e.parameter, str(e.value), e.timestamp)
               for e in collect.events]
        self.assertEqual(got, replay.events)
        self.assertTrue(got, "the stream should raise some alerts")

    def test_compare_lines_reports_missing_and_wrong(self):
        self.assertEqual(oracle.compare_lines(["a", "b"], ["a", "b"]), (2, 0, None))
        matched, bad, first = oracle.compare_lines(["a", "x"], ["a", "b", "c"])
        self.assertEqual((matched, bad), (1, 2))
        self.assertIn("'x'", first)


class Streams(unittest.TestCase):
    def test_same_seed_same_messages(self):
        a = workloads.MqttStream(workloads.MQTT_CHURN, 3)
        b = workloads.MqttStream(workloads.MQTT_CHURN, 3)
        c = workloads.MqttStream(workloads.MQTT_CHURN, 4)
        ma = [a.next_message(k) for k in range(50)]
        self.assertEqual(ma, [b.next_message(k) for k in range(50)])
        self.assertNotEqual(ma, [c.next_message(k) for k in range(50)])

    def test_churn_changes_every_value(self):
        s = workloads.MqttStream(workloads.MQTT_CHURN, 1)
        last = {}
        for _ in range(3 * workloads.MQTT_CHURN.devices):
            n, values = s.next_values()
            if n in last:
                self.assertTrue(all(a != b for a, b in zip(values, last[n])))
            last[n] = values

    def test_ladder_is_ascending_above_reference(self):
        for wl in (workloads.MQTT_FLEET, workloads.MQTT_CHURN):
            self.assertGreater(wl.ladder_pps[0], wl.reference_pps)
            self.assertEqual(list(wl.ladder_pps), sorted(set(wl.ladder_pps)))

    def test_whole_ladder_fits_a_30_s_run_with_one_drain(self):
        for wl in (workloads.MQTT_FLEET, workloads.MQTT_CHURN):
            climb = run.WARMUP_S + len(wl.ladder_pps) * run.LADDER_STEP_S + run.DRAIN_PAUSE_S
            self.assertLessEqual(climb, 30 * run.LADDER_SHARE)


if __name__ == "__main__":
    unittest.main()
